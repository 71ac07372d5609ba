//! Stopwatch spans around calls into each crate's public functions.
//! The traced runs route every layer call through [`Trace::time`]; the
//! untraced runs never touch this module.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated work in one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside the calls.
    pub busy: Duration,
    /// Calls with a useful outcome (clean lint, passed batch, ...).
    pub useful: u64,
    /// Work units beyond calls (simulation lanes).
    pub units: u64,
}

impl Layer {
    /// Busy milliseconds.
    pub fn ms(&self) -> f64 {
        self.busy.as_secs_f64() * 1e3
    }

    /// `useful / calls`, 0 when never called.
    pub fn useful_ratio(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.useful as f64 / self.calls as f64
        }
    }
}

/// Per-layer accumulators, keyed by layer name.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    layers: BTreeMap<&'static str, Layer>,
}

impl Trace {
    /// Times one call into `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed());
        out
    }

    /// Books one call of `busy` time into `layer` (for spans that
    /// enclose other traced layers).
    pub fn add(&mut self, layer: &'static str, busy: Duration) {
        let l = self.layers.entry(layer).or_default();
        l.calls += 1;
        l.busy += busy;
    }

    /// Marks the latest call into `layer` as useful.
    pub fn useful(&mut self, layer: &'static str) {
        self.layers.entry(layer).or_default().useful += 1;
    }

    /// Adds work units to `layer`.
    pub fn units(&mut self, layer: &'static str, n: u64) {
        self.layers.entry(layer).or_default().units += n;
    }

    /// A layer's totals (all zero when it never ran).
    pub fn get(&self, layer: &str) -> Layer {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// Busy time summed over every layer.
    pub fn total_busy(&self) -> Duration {
        self.layers.values().map(|l| l.busy).sum()
    }
}
