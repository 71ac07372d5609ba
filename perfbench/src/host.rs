//! Host-noise and memory readings from `/proc`, printed next to every
//! run so a slow run can be traced to the host rather than the code.

use std::fs;

/// Ticks per second of the `/proc/stat` counters (`USER_HZ`, 100 on
/// every Linux ABI).
const USER_HZ: f64 = 100.0;

/// Cumulative CPU-seconds of hypervisor steal over all CPUs (0 when
/// `/proc/stat` is unreadable).
pub fn steal_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    // `cpu  user nice system idle iowait irq softirq steal ...`
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// The 1-, 5- and 15-minute load averages.
pub fn load_average() -> [f64; 3] {
    let text = fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut out = [0.0; 3];
    for (slot, field) in out.iter_mut().zip(text.split_whitespace()) {
        *slot = field.parse().unwrap_or(0.0);
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
