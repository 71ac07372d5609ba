//! The recorder: enabled flag, registries, span guards, and the trace sink.
//!
//! A [`Recorder`] bundles one [`Metrics`](crate::metrics) registry, one
//! optional JSONL sink, and an `AtomicBool` gate. Every public method
//! checks the gate with a single relaxed load before doing anything else,
//! so a disabled recorder costs one atomic read per call site. The
//! `dda-bench` `obs_overhead` test bounds what enabling it costs.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::event::{encode, Event};
use crate::metrics::{Metrics, Snapshot};

/// A metrics + trace recorder. Most code uses the process-wide instance
/// via the [`crate`]-level free functions; tests construct their own.
pub struct Recorder {
    enabled: AtomicBool,
    start: Instant,
    inner: Mutex<Metrics>,
    sink: Mutex<Option<BufWriter<File>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Creates a disabled recorder with empty registries and no sink.
    pub fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            start: Instant::now(),
            inner: Mutex::new(Metrics::default()),
            sink: Mutex::new(None),
        }
    }

    /// Whether this recorder is recording (one relaxed atomic load).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording; registries and sink are left in place.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Metrics> {
        // Metrics updates can't panic mid-mutation in a way that corrupts
        // the maps, so a poisoned lock is still safe to reuse.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `n` to counter `name` (no-op while disabled).
    pub fn count(&self, name: &str, n: u64) {
        if !self.enabled() {
            return;
        }
        let mut m = self.lock();
        let k = m.key(name);
        m.count(k, n);
    }

    /// Sets gauge `name` to `v` (no-op while disabled).
    pub fn gauge(&self, name: &str, v: i64) {
        if !self.enabled() {
            return;
        }
        let mut m = self.lock();
        let k = m.key(name);
        m.gauge(k, v);
    }

    /// Starts a wall-clock span; elapsed time is recorded under `name`
    /// when the guard drops. Inert (no clock read) while disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            name,
            start: if self.enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Writes `ev` to the trace sink as one JSONL line, prefixed with a
    /// `ts_us` field (microseconds since the recorder was created, on the
    /// monotonic clock). No-op while disabled or when no sink is open.
    pub fn emit(&self, ev: Event) {
        if !self.enabled() {
            return;
        }
        let ts = self.start.elapsed().as_micros() as u64;
        let mut guard = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(w) = guard.as_mut() {
            let mut stamped = Event::new(ev.kind);
            stamped
                .fields
                .push(("ts_us".to_string(), crate::Value::U64(ts)));
            stamped.fields.extend(ev.fields);
            let _ = writeln!(w, "{}", encode(&stamped));
        }
    }

    /// Routes the trace to a JSONL file at `path`, truncating it. The
    /// sink is installed even while disabled so callers can order
    /// `open_trace` / `enable` freely.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_trace(&self, path: &Path) -> io::Result<()> {
        let file = File::create(path)?;
        let mut guard = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(BufWriter::new(file));
        Ok(())
    }

    /// Appends one `counter` event per live counter (so the file alone
    /// carries end-of-run totals), then flushes and drops the sink.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the final flush.
    pub fn close_trace(&self) -> io::Result<()> {
        let snap = self.snapshot();
        let mut guard = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let Some(mut w) = guard.take() else {
            return Ok(());
        };
        for (name, n) in &snap.counters {
            let ev = Event::new("counter").str("name", name.clone()).u64("n", *n);
            writeln!(w, "{}", encode(&ev))?;
        }
        w.flush()
    }

    /// Copies out every non-zero counter, gauge, and span aggregate.
    pub fn snapshot(&self) -> Snapshot {
        self.lock().snapshot()
    }

    /// Clears all registries; the enabled flag and sink are untouched.
    pub fn reset(&self) {
        self.lock().reset();
    }

    pub(crate) fn record_span(&self, name: &str, ns: u64) {
        if !self.enabled() {
            return;
        }
        let mut m = self.lock();
        let k = m.key(name);
        m.span(k, ns);
    }
}

/// RAII timer from [`Recorder::span`]: records elapsed wall-clock time
/// under its name when dropped. If the recorder was disabled when the
/// guard was created, the drop is free.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard<'_> {
    /// Ends the span now, records it, and hands the measured wall-clock
    /// duration back (`None` if the recorder was disabled at span start).
    ///
    /// Use this instead of a plain drop when the elapsed time should also
    /// land somewhere the aggregate registry cannot reach — e.g. as a
    /// field on a trace [`Event`], the way the agent batch
    /// stamps each chain's wall-clock onto its `agent.chain` trace line.
    pub fn finish(mut self) -> Option<Duration> {
        let elapsed = self.start.take().map(|s| s.elapsed());
        if let Some(d) = elapsed {
            self.recorder.record_span(self.name, d.as_nanos() as u64);
        }
        elapsed
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            self.recorder.record_span(self.name, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new();
        r.count("c", 5);
        r.gauge("g", 1);
        drop(r.span("s"));
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn enabled_recorder_aggregates() {
        let r = Recorder::new();
        r.enable();
        r.count("units", 3);
        r.count("units", 4);
        r.gauge("workers", 8);
        {
            let _g = r.span("phase");
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("units"), 7);
        assert_eq!(snap.gauge("workers"), 8);
        assert_eq!(snap.span("phase").unwrap().count, 1);
    }

    #[test]
    fn span_guard_created_disabled_stays_inert_after_enable() {
        let r = Recorder::new();
        let g = r.span("late");
        r.enable();
        drop(g);
        assert!(r.snapshot().span("late").is_none());
    }

    #[test]
    fn concurrent_counts_are_conserved() {
        let r = std::sync::Arc::new(Recorder::new());
        r.enable();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.count("hits", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.snapshot().counter("hits"), 8000);
    }

    #[test]
    fn trace_sink_stamps_and_totals() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("dda-obs-rec-{}.jsonl", std::process::id()));
        let r = Recorder::new();
        r.open_trace(&path).unwrap();
        r.enable();
        r.count("n.good", 2);
        r.emit(Event::new("stage").str("module", "m\"1\""));
        r.close_trace().unwrap();

        let evs = crate::event::read_trace(&path).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, "stage");
        assert!(evs[0].field("ts_us").and_then(|v| v.as_u64()).is_some());
        assert_eq!(evs[0].field("module").unwrap().as_str(), Some("m\"1\""));
        assert_eq!(evs[1].kind, "counter");
        assert_eq!(evs[1].field("name").unwrap().as_str(), Some("n.good"));
        assert_eq!(evs[1].field("n").unwrap().as_u64(), Some(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn emit_without_sink_or_while_disabled_is_noop() {
        let r = Recorder::new();
        r.emit(Event::new("dropped")); // disabled, no sink: fine
        r.enable();
        r.emit(Event::new("dropped")); // enabled, no sink: fine
        r.close_trace().unwrap(); // no sink: Ok(())
    }
}
