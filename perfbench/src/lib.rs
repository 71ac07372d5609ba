//! # perfbench
//!
//! End-to-end, layer-attributed benchmark of chipdda. Three workloads —
//! the paper's pipeline ([`pipeline`]) and a tool-calling client of the
//! `chipdda serve` daemon with hot and cold traffic ([`serve`]) — each
//! report the same five end-to-end metrics ([`END_TO_END`]); a separate
//! traced run of any workload reports the per-layer metrics
//! ([`PER_LAYER`]) timed from outside, around calls into each crate's
//! public functions ([`trace`]). See `perfbench/README.md` for why each
//! workload exists and how the layers map onto the end-to-end figures.

pub mod calibrate;
pub mod clock;
pub mod host;
pub mod pipeline;
pub mod serve;
pub mod stats;
pub mod trace;

use stats::LatencySummary;
use trace::Trace;

/// End-to-end metrics, `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, reported by every traced run; a
/// layer the workload never calls reads 0. `.ms` figures are busy
/// milliseconds per timed op, except the three set-up layers, which are
/// milliseconds per set-up.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("corpus.generate.ms", "ms"),
    ("core.augment.ms", "ms"),
    ("slm.finetune.ms", "ms"),
    ("slm.generate.calls", "count"),
    ("slm.generate.ms", "ms"),
    ("eval.agent.calls", "count"),
    ("eval.agent.ms", "ms"),
    ("eval.agent.pass_ratio", "ratio"),
    ("sc.eval.ms", "ms"),
    ("core.break.ms", "ms"),
    ("lint.check.calls", "count"),
    ("lint.check.ms", "ms"),
    ("lint.check.clean_ratio", "ratio"),
    ("slm.fixer.calls", "count"),
    ("slm.fixer.ms", "ms"),
    ("core.augment.served_ms", "ms"),
    ("sim.frontend.calls", "count"),
    ("sim.frontend.ms", "ms"),
    ("sim.cache.hit_ratio", "ratio"),
    ("sim.cache.evictions", "count"),
    ("sim.run.calls", "count"),
    ("sim.run.ms", "ms"),
    ("sim.run.lanes", "count"),
    ("slm.retrieve.calls", "count"),
    ("slm.retrieve.ms", "ms"),
    ("serve.codec.ms", "ms"),
    ("serve.handler.score.ms", "ms"),
    ("serve.handler.retrieve.ms", "ms"),
    ("serve.handler.generate.ms", "ms"),
    ("serve.handler.augment.ms", "ms"),
    ("serve.handler.repair.ms", "ms"),
    ("serve.overhead.ms", "ms"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("unattributed.ms", "ms"),
    ("coverage.pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Layers timed per op whose `<layer>.ms` (per op) the traced runs
/// report; their `<layer>.calls` are reported where [`PER_LAYER`]
/// declares them.
pub const OP_LAYERS: [&str; 16] = [
    "slm.generate",
    "eval.agent",
    "sc.eval",
    "core.break",
    "lint.check",
    "slm.fixer",
    "core.augment.served",
    "sim.frontend",
    "sim.run",
    "slm.retrieve",
    "serve.codec",
    "serve.handler.score",
    "serve.handler.retrieve",
    "serve.handler.generate",
    "serve.handler.augment",
    "serve.handler.repair",
];

/// Traced runs alternate traced and plain slices of this length, so the
/// tracing overhead is measured on interleaved, equally noisy time.
pub const TRACE_SLICE_S: f64 = 0.5;

/// Set-up layers, reported in milliseconds per set-up.
const SETUP_LAYERS: [&str; 3] = ["corpus.generate", "core.augment", "slm.finetune"];

/// One run's result: op counts, metrics, and free-form notes printed
/// ahead of the result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops whose known-answer check failed (errors included).
    pub failed: u64,
    /// Set when a whole-run check failed (set-up, shed/timeout counters,
    /// too few samples for a percentile).
    pub refused: bool,
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed before the result (digests, host noise, reasons).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Marks the run incorrect, with the reason as a note.
    pub fn refuse(&mut self, reason: impl std::fmt::Display) {
        self.refused = true;
        self.notes.push(format!("refused: {reason}"));
    }

    /// Whether every op and every run-level check passed.
    pub fn correct(&self) -> bool {
        !self.refused && self.failed == 0 && self.attempted > 0
    }

    /// Records the host-noise line: CPU-seconds of steal over the timed
    /// phase (in total and per window), the load averages, and the host
    /// slowness the calibration measured, so a slow run can be traced to
    /// the host.
    pub fn host_note(&mut self, steal_s: &[f64], slowness: f64) {
        let [a, b, c] = host::load_average();
        let windows: Vec<String> = steal_s.iter().map(|s| format!("{s:.2}")).collect();
        self.notes.push(format!(
            "host steal_s={:.2} ({}) loadavg={a:.2} {b:.2} {c:.2} slowness={slowness:.3} cpus={}",
            steal_s.iter().sum::<f64>(),
            windows.join(" "),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ));
    }

    /// Records the end-to-end metrics of a timed phase: the latency
    /// figures and its windowed peak resident set size.
    pub fn latency(&mut self, lat: &LatencySummary, phase: &clock::Phase) {
        self.metric("ops_per_s", lat.ops_per_s, "1/s");
        self.metric("p50_ms", lat.p50_ms, "ms");
        self.metric("p99_ms", lat.p99_ms, "ms");
        self.metric("peak_rss_mb", phase.peak_rss_mb(), "MB");
        self.notes
            .push(format!("rss high-water mark {:.1} MB", host::peak_rss_mb()));
    }

    /// Records the latency figures on the raw wall clock (steal left in,
    /// not rescaled) as a note.
    pub fn wall_note(&mut self, wall: &[stats::Sample], seconds: f64) {
        if let Ok(w) = stats::summarise(wall, seconds, stats::WINDOWS) {
            self.notes.push(format!(
                "raw wall clock ops_per_s={:.1} p50_ms={:.3} p99_ms={:.3}",
                w.ops_per_s, w.p50_ms, w.p99_ms
            ));
        }
    }

    /// Records the set-up layers of one traced set-up, turned into
    /// reference-host time by `factor`: the share of its wall time that
    /// was not stolen, over the host slowness.
    pub fn setup_layers(&mut self, trace: &Trace, factor: f64) {
        for layer in SETUP_LAYERS {
            self.metric(&format!("{layer}.ms"), trace.get(layer).ms() * factor, "ms");
        }
    }

    /// Records every per-op layer of `trace` per op, turned into
    /// reference-host time by `factor`, the declared call counts, and the
    /// useful-outcome ratios.
    pub fn op_layers(&mut self, trace: &Trace, ops: usize, factor: f64) {
        let ops = ops.max(1) as f64 / factor;
        for layer in OP_LAYERS {
            let name = match layer {
                "core.augment.served" => "core.augment.served_ms".to_string(),
                _ => format!("{layer}.ms"),
            };
            self.metric(&name, trace.get(layer).ms() / ops, "ms");
        }
        for (name, _) in PER_LAYER {
            if let Some(layer) = name.strip_suffix(".calls") {
                self.metric(name, trace.get(layer).calls as f64, "count");
            }
        }
        self.metric("sim.run.lanes", trace.get("sim.run").units as f64, "count");
        self.metric(
            "lint.check.clean_ratio",
            trace.get("lint.check").useful_ratio(),
            "ratio",
        );
        self.metric(
            "eval.agent.pass_ratio",
            trace.get("eval.agent").useful_ratio(),
            "ratio",
        );
    }

    /// Records the design-cache hit ratio and evictions between two
    /// snapshots of the always-on cache counters.
    pub fn cache_layers(&mut self, before: &dda_sim::cache::CacheStats) {
        let after = dda_sim::cache::stats();
        let hits = (after.hits - before.hits) as f64;
        let lookups = hits + (after.misses - before.misses) as f64;
        self.metric(
            "sim.cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        );
        self.metric(
            "sim.cache.evictions",
            (after.evictions - before.evictions) as f64,
            "count",
        );
    }

    /// Keeps exactly the declared metrics of the run's kind, in declared
    /// order: a declared per-layer metric the workload never produced
    /// (a layer it does not call) reads 0, undeclared extras are
    /// dropped, and a non-finite value refuses the run.
    pub fn finish(&mut self, traced: bool) {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let value = match self.metrics.iter().find(|(n, ..)| n == name) {
                Some((_, v, _)) => *v,
                None if traced => 0.0,
                None => {
                    self.refuse(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if !value.is_finite() {
                self.refuse(format!("metric {name} is not finite"));
            }
            out.push((
                name.to_string(),
                if value.is_finite() { value } else { 0.0 },
                *unit,
            ));
        }
        self.metrics = out;
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// One FNV-1a step.
pub fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(0x100000001b3)
}

/// FNV-1a over a string (the hash the eval crate seeds its samplers
/// with).
pub fn fnv(s: &str) -> u64 {
    s.bytes().fold(FNV_OFFSET, fnv_step)
}

/// SplitMix64 finaliser: decorrelates derived seeds.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
