//! # dda-obs
//!
//! Structured observability for the `chipdda` pipeline: span timers,
//! counter/gauge registries, and a JSONL trace sink behind one global
//! [`Recorder`] that is a **no-op unless enabled**.
//!
//! The four performance/robustness layers above this crate (the
//! fault-tolerant pipeline, the supervised run-engine, the bytecode
//! simulator, the interned inference stack) each keep internal accounting
//! — quarantine tallies, retry counts, cache hits, step budgets — that
//! was previously invisible at runtime. This crate gives them one cheap,
//! dependency-free place to report it:
//!
//! * [`count`]/[`gauge`] — typed counter/gauge registries keyed on
//!   interned metric names ([`Key`], the same dense-`u32` idiom as
//!   `dda_core::intern::Sym`);
//! * [`span`] — RAII wall-clock timers on the monotonic clock, aggregated
//!   per name (count / total / min / max);
//! * [`emit`] + [`event`] — structured JSONL trace events, written and
//!   read by the workspace's one JSON codec ([`event`]: the escaper, the
//!   flat-object parser and the torn-tail line reader that dataset JSONL,
//!   the run-engine journal and the daemon's wire frames use too);
//! * [`report`] — a plain-text end-of-run summary renderer.
//!
//! This crate sits at the **bottom** of the workspace dependency graph
//! (std only, like the vendored shims), so every crate above it —
//! `dda-runtime` and `dda-core` included — can use it.
//!
//! ## Cost model
//!
//! Every entry point first reads one relaxed atomic; with the recorder
//! disabled (the default) that is the entire cost, so instrumented hot
//! paths stay within the noise floor. Enabled-path updates take a mutex,
//! so instrumentation belongs at *unit* granularity (per stage, per
//! query, per run) — never per token or per event-loop step. The
//! `dda-bench` `obs_overhead` test, which CI runs in release, fails when
//! the enabled recorder makes a retrieval query batch or a simulator run
//! both more than 5% and more than 2 ms slower than the disabled one.
//!
//! ## Example
//!
//! ```
//! dda_obs::enable();
//! dda_obs::count("doc.units", 3);
//! {
//!     let _timer = dda_obs::span("doc.phase");
//! } // recorded on drop
//! let snap = dda_obs::snapshot();
//! assert_eq!(snap.counter("doc.units"), 3);
//! assert_eq!(snap.span("doc.phase").map(|s| s.count), Some(1));
//! dda_obs::disable();
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use event::{read_trace, Event, Value};
pub use metrics::{Key, Snapshot, SpanStat};
pub use recorder::{Recorder, SpanGuard};

use std::path::Path;

/// The process-wide recorder shared by every instrumented crate.
pub fn global() -> &'static Recorder {
    use std::sync::OnceLock;
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

/// Whether the global recorder is recording (one relaxed atomic load).
pub fn enabled() -> bool {
    global().enabled()
}

/// Turns the global recorder on. Until this is called every other entry
/// point in this crate is a no-op.
pub fn enable() {
    global().enable();
}

/// Turns the global recorder off (counters and the trace sink are kept;
/// see [`reset`] / [`close_trace`]).
pub fn disable() {
    global().disable();
}

/// Adds `n` to the global counter `name` (no-op while disabled).
pub fn count(name: &str, n: u64) {
    global().count(name, n);
}

/// Sets the global gauge `name` to `v` (no-op while disabled).
pub fn gauge(name: &str, v: i64) {
    global().gauge(name, v);
}

/// Starts a wall-clock span named `name`; the elapsed time is recorded
/// when the returned guard drops (inert while disabled).
pub fn span(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

/// Writes `ev` to the global trace sink, stamped with the recorder's
/// monotonic timestamp (no-op while disabled or without a sink).
pub fn emit(ev: Event) {
    global().emit(ev);
}

/// Routes the global trace to a JSONL file at `path` (truncating it).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn open_trace(path: &Path) -> std::io::Result<()> {
    global().open_trace(path)
}

/// Flushes and closes the global trace sink, first appending one
/// `counter` event per live counter so the trace file alone carries the
/// end-of-run totals.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn close_trace() -> std::io::Result<()> {
    global().close_trace()
}

/// Snapshot of every global counter, gauge, and span aggregate.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears all global counters, gauges, and span aggregates (the enabled
/// flag and trace sink are untouched). Tests use this between cases.
pub fn reset() {
    global().reset();
}
