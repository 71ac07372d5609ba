//! Host-speed calibration from a helper process.
//!
//! Steal is not the only way another tenant slows this one: load on the
//! same host also slows its cores, memory and caches without taking its
//! vCPU. On the 2-vCPU host the benchmark was built on, `paper_pipeline`
//! ran at 142 ops/s in one quarter of an hour and 206 in the next, with
//! no steal in either. So the benchmark times a fixed kernel between ops
//! and divides each op's time by how much slower than on the reference
//! host the kernel ran around it: figures are milliseconds on the
//! reference host.
//!
//! The kernel runs in a helper process of its own — this binary started
//! with [`HELPER_FLAG`] — with its own heap, so nothing the program under
//! test does to its heap or its allocator can move it. It is sampled
//! between ops, under load, because samples taken while the benchmark
//! idles did not track the program: five pipeline runs calibrated from
//! half a second of idle sampling before and after spread three times
//! wider than uncalibrated. What the program leaves on the shared cores
//! may still move it: between the daemon's requests, which cross threads
//! on both vCPUs, it read 0.9 to 1.2 times its time between pipeline
//! cells.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

/// The flag that turns this binary into the calibration helper.
pub const HELPER_FLAG: &str = "--calibration-helper";

/// CPU milliseconds a warm [`kernel`] takes in the helper on the
/// reference host (a 2-vCPU 2.0 GHz Xeon guest) when nothing else loads
/// it: about the fastest it ran there.
pub const REFERENCE_MS: f64 = 0.17;

/// Least time between two calibration samples (each costs about 0.5 ms).
const EVERY_S: f64 = 0.04;

/// Calibration samples pooled around each op.
const NEIGHBOURS: usize = 5;

/// Entries of the kernel's random-read table (256 KiB, the size of the
/// program's hot model and design tables rather than of L1).
const TABLE_WORDS: usize = 32 * 1024;

/// A fixed mix of the work the program does most, costing about 0.2 ms:
/// integer hashing and a sort, string-keyed map updates, and random
/// reads over a cache-sized table. It allocates on purpose: over seven
/// minutes of shifting host load, in 5-second windows, the time of a
/// fixed set of pipeline cells followed this kernel with correlation
/// 0.98 and slope 1.1, an allocation-free variant with slope 1.5, and
/// a pure arithmetic loop with correlation 0.75.
pub fn kernel(seed: u64) -> u64 {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..TABLE_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    });
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut v = Vec::with_capacity(2000);
    for i in 0..2000u64 {
        let r = next();
        *counts.entry(r % 512).or_insert(0) += i;
        v.push(r);
    }
    v.sort_unstable();
    let mut words: HashMap<String, u64> = HashMap::new();
    let mut key = String::new();
    for i in 0..600u64 {
        key.clear();
        key.push_str("tok");
        key.push_str(&(next() % 300).to_string());
        *words.entry(key.clone()).or_insert(0) += i;
    }
    let mut acc = v[1000] ^ words.len() as u64;
    for _ in 0..6000 {
        acc = acc.wrapping_add(table[(next() % TABLE_WORDS as u64) as usize]);
    }
    counts.values().fold(acc, |a, b| a.wrapping_add(*b))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's id for the calling thread's CPU-time clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// This thread's CPU time in milliseconds. The kernel's paravirtual
/// steal accounting keeps stolen time out of it, as the op times have
/// their steal subtracted.
fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // 64-bit fields on 64-bit Linux), and clock_gettime writes only into
    // the struct it is given.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// The helper's main loop: for every line on standard input, one warm
/// timing of [`kernel`] in CPU milliseconds on standard output. A first,
/// untimed pass warms the caches, so the sample reads the core's speed
/// rather than what the program's last op evicted. Ends at end of input.
pub fn helper_main() -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    let mut line = String::new();
    let mut seed = 0u64;
    while stdin.lock().read_line(&mut line)? > 0 {
        line.clear();
        seed += 1;
        std::hint::black_box(kernel(std::hint::black_box(seed)));
        let t = thread_cpu_ms();
        std::hint::black_box(kernel(std::hint::black_box(seed ^ 0x5EED)));
        writeln!(out, "{}", thread_cpu_ms() - t)?;
        out.flush()?;
    }
    Ok(())
}

/// The benchmark's side of the helper: it asks for samples and keeps
/// them with the time they were taken.
#[derive(Debug)]
pub struct Calibrator {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
    /// `(when, kernel CPU ms)`.
    samples: Vec<(Instant, f64)>,
    /// Why the helper stopped answering, if it did.
    error: Option<String>,
}

impl Calibrator {
    /// Starts the helper.
    ///
    /// # Errors
    ///
    /// The helper could not be started.
    pub fn spawn() -> Result<Calibrator, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg(HELPER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the calibration helper: {e}"))?;
        let to = child.stdin.take();
        let from = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Calibrator {
            child,
            to,
            from,
            samples: Vec::new(),
            error: None,
        })
    }

    fn sample(&mut self) {
        if self.error.is_some() {
            return;
        }
        let mut line = String::new();
        let answer = (|| -> Result<f64, String> {
            let to = self.to.as_mut().ok_or("helper input closed")?;
            to.write_all(b"\n").map_err(|e| e.to_string())?;
            to.flush().map_err(|e| e.to_string())?;
            self.from.read_line(&mut line).map_err(|e| e.to_string())?;
            line.trim()
                .parse::<f64>()
                .map_err(|e| format!("{e}: {line:?}"))
        })();
        match answer {
            Ok(ms) => self.samples.push((Instant::now(), ms)),
            Err(e) => self.error = Some(format!("calibration helper failed: {e}")),
        }
    }

    /// Takes a sample unless one was taken in the last [`EVERY_S`]. Call
    /// between ops, never inside one.
    pub fn tick(&mut self) {
        let due = self
            .samples
            .last()
            .is_none_or(|(t, _)| t.elapsed().as_secs_f64() >= EVERY_S);
        if due {
            self.sample();
        }
    }

    /// Takes `n` samples back to back (around a stretch of work that
    /// cannot be interrupted).
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Host slowness at `at`: the median kernel time of the
    /// [`NEIGHBOURS`] samples nearest in time over [`REFERENCE_MS`].
    pub fn slowness_at(&self, at: Instant) -> f64 {
        let i = self.samples.partition_point(|&(t, _)| t < at);
        let hi = (i + NEIGHBOURS / 2).min(self.samples.len());
        let lo = hi.saturating_sub(NEIGHBOURS);
        let hi = (lo + NEIGHBOURS).min(self.samples.len());
        self.slowness_of(lo, hi)
    }

    /// Host slowness over the samples taken from `since` on.
    pub fn slowness_since(&self, since: Instant) -> f64 {
        let lo = self.samples.partition_point(|&(t, _)| t < since);
        self.slowness_of(lo, self.samples.len())
    }

    fn slowness_of(&self, lo: usize, hi: usize) -> f64 {
        if lo >= hi {
            return 1.0;
        }
        let ms: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, ms)| ms).collect();
        crate::stats::median(&ms) / REFERENCE_MS
    }

    /// Why the helper failed, if it did: a run whose calibration failed
    /// has no reference-host figures.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

impl Drop for Calibrator {
    /// Closes the helper's input, which ends it, and waits for it.
    fn drop(&mut self) {
        drop(self.to.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
