//! The benchmark's clock: the client's wall clock, less the time the
//! hypervisor stole, on the reference host.
//!
//! Every op is timed from the moment the client issues it until its
//! answer is in the client's hands, so a figure is the latency a user
//! of the system sees: work on every thread the op crosses (threads
//! spawned for it included), and every wait in between — socket wake-
//! ups, the daemon's pool queue and hand-off, lock contention.
//!
//! On the 2-vCPU hosts the benchmark was built on, hypervisor steal is
//! the main source of noise: five runs of the same `serve_hot` input saw
//! 1.3 to 5.4 CPU-seconds of steal in 20 s, and their wall-clock
//! throughput fell in step, from 1065 to 789 ops/s. So each timed phase
//! is cut into [`WINDOWS`] equal windows, the kernel's cumulative steal
//! counter (`/proc/stat`) is read as each window opens, and a window's
//! stolen time is subtracted from the time its ops took. One request is
//! in flight at a time and an idle vCPU accrues no steal, so the stolen
//! time is time the ops waited; how it fell across the window's ops is
//! not recorded, so each op of the window is shortened in proportion.
//! Each op's time is then rescaled to the reference host by the
//! calibration taken around it ([`crate::calibrate`]). The raw
//! wall-clock figures are printed beside each result.

use crate::calibrate::Calibrator;
use crate::host::steal_seconds;
use crate::stats::{Sample, WINDOWS};
use std::time::{Duration, Instant};

/// Least time between two resident-set samples (each reads
/// `/proc/self/status`, about 30 µs).
const RSS_EVERY_S: f64 = 0.04;

/// Smallest share of a window's op time left after subtracting steal;
/// a guard against a steal reading the ops cannot have waited for.
const MIN_UNSTOLEN: f64 = 0.05;

/// The bookkeeping of one timed phase: per-op wall-clock latencies, the
/// steal counter at each window's start, and resident-set samples taken
/// between ops.
#[derive(Debug)]
pub struct Phase {
    start: Instant,
    window_s: f64,
    /// Per-op wall time.
    pub ops: Vec<Sample>,
    /// Resident set size in MiB, sampled between ops.
    pub rss: Vec<Sample>,
    /// Cumulative steal seconds as each window opened.
    steal: Vec<f64>,
}

impl Phase {
    /// Starts a phase planned to last `seconds`; ops past the plan fall
    /// in the last window.
    pub fn start(seconds: f64) -> Phase {
        Phase {
            start: Instant::now(),
            window_s: seconds / WINDOWS as f64,
            ops: Vec::new(),
            rss: Vec::new(),
            steal: vec![steal_seconds()],
        }
    }

    /// When the phase started.
    pub fn started(&self) -> Instant {
        self.start
    }

    /// Seconds since the phase started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn window(&self, at_s: f64) -> usize {
        ((at_s / self.window_s) as usize).min(WINDOWS - 1)
    }

    /// Times one op and returns its result. Reading the steal counter as
    /// a window opens, calibrating and sampling the resident set happen
    /// first, outside the op.
    pub fn op<T>(&mut self, cal: &mut Calibrator, f: impl FnOnce() -> T) -> T {
        let at_s = self.elapsed_s();
        while self.steal.len() <= self.window(at_s) {
            self.steal.push(steal_seconds());
        }
        cal.tick();
        if self.rss.last().is_none_or(|s| at_s - s.at_s >= RSS_EVERY_S) {
            self.rss.push(Sample {
                at_s,
                ms: crate::host::rss_mb(),
            });
        }
        let at_s = self.elapsed_s();
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.ops.push(Sample { at_s, ms });
        out
    }

    /// Ops timed so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no op was timed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Ends the phase: per-op times with each window's steal subtracted,
    /// on the reference host, and the steal seconds of each window.
    pub fn finish(&self, cal: &Calibrator) -> (Vec<Sample>, Vec<f64>) {
        let mut at = self.steal.clone();
        at.push(steal_seconds());
        let stolen: Vec<f64> = at.windows(2).map(|w| w[1] - w[0]).collect();
        let mut busy_ms = [0.0f64; WINDOWS];
        for s in &self.ops {
            busy_ms[self.window(s.at_s)] += s.ms;
        }
        let unstolen: Vec<f64> = busy_ms
            .iter()
            .zip(stolen.iter().chain(std::iter::repeat(&0.0)))
            .map(|(&busy, &steal_s)| {
                if busy > 0.0 {
                    ((busy - steal_s * 1e3) / busy).clamp(MIN_UNSTOLEN, 1.0)
                } else {
                    1.0
                }
            })
            .collect();
        let ops = self
            .ops
            .iter()
            .map(|s| Sample {
                at_s: s.at_s,
                ms: s.ms * unstolen[self.window(s.at_s)]
                    / cal.slowness_at(self.start + Duration::from_secs_f64(s.at_s)),
            })
            .collect();
        (ops, stolen)
    }

    /// The median over the windows of the highest resident set size
    /// sampled in each, in MiB: the memory the run holds, which one op's
    /// transient spike moves in one window only.
    pub fn peak_rss_mb(&self) -> f64 {
        let mut peaks = vec![0.0f64; WINDOWS];
        for s in &self.rss {
            let w = self.window(s.at_s);
            peaks[w] = peaks[w].max(s.ms);
        }
        peaks.retain(|&p| p > 0.0);
        crate::stats::median(&peaks)
    }
}

/// Wall-clock time of one stretch of work, the steal inside it and the
/// host slowness around it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU-seconds of steal over the same stretch.
    pub steal_s: f64,
    /// Host slowness calibrated around it.
    pub slowness: f64,
}

impl Timing {
    /// Wall-clock seconds less the steal.
    pub fn net_s(&self) -> f64 {
        let unstolen = if self.wall_s > 0.0 {
            (1.0 - self.steal_s / self.wall_s).max(MIN_UNSTOLEN)
        } else {
            1.0
        };
        self.wall_s * unstolen
    }

    /// What turns wall-clock time inside the stretch into reference-host
    /// time: the share that was not stolen, over the slowness.
    pub fn factor(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.net_s() / self.wall_s / self.slowness
        } else {
            1.0 / self.slowness
        }
    }
}

/// Calibration samples taken just before and just after a timed
/// stretch that cannot be interrupted.
const BURST: usize = 5;

/// Runs `f` once, single-threaded, with calibration bursts just before
/// and after it, and returns its result and timing.
pub fn timed<T>(cal: &mut Calibrator, f: impl FnOnce() -> T) -> (T, Timing) {
    let since = Instant::now();
    cal.burst(BURST);
    let steal0 = steal_seconds();
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let steal_s = steal_seconds() - steal0;
    cal.burst(BURST);
    let slowness = cal.slowness_since(since);
    (
        out,
        Timing {
            wall_s,
            steal_s,
            slowness,
        },
    )
}
