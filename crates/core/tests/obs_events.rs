//! Event-record codec tests (satellite: event-record round-tripping).
//! `dda_obs::event` is the workspace's one JSON codec; these tests pin its
//! escaper byte-for-byte to the three escapers it replaced (kept under
//! `tests/oracle/`), round-trip event records whose field values contain
//! quotes, backslashes, and control characters, and check that
//! `read_trace` and the runtime journal share the torn-tail tolerance.
//!
//! No global recorder state is touched here, so no serialization lock.

mod oracle;

use dda_core::json;
use dda_obs::event::{encode, escape, escape_into, parse};
use dda_obs::{read_trace, Event, Value};
use dda_runtime::Journal;
use oracle::{FIELD_CHARS, HOSTILE};
use proptest::prelude::*;
use std::fs;
use std::io::{ErrorKind, Write as _};
use std::path::PathBuf;

/// `escape(s)` must equal what each of the old escapers wrote for `s`.
fn assert_old_escapers_agree(s: &str) {
    let new = escape(s);
    assert_eq!(new, oracle::core_json::escape(s), "core json: {s:?}");
    assert_eq!(new, oracle::obs_event::escape(s), "obs event: {s:?}");
    let mut journal = String::new();
    oracle::journal::escape_into(s, &mut journal);
    assert_eq!(new, journal, "journal: {s:?}");
    let mut appended = String::from("prefix ");
    escape_into(&mut appended, s);
    assert_eq!(appended.strip_prefix("prefix "), Some(new.as_str()));
}

#[test]
fn escape_matches_the_old_escapers_byte_for_byte() {
    for s in HOSTILE {
        assert_old_escapers_agree(s);
    }
}

#[test]
fn core_unescape_inverts_obs_escape() {
    for s in HOSTILE {
        assert_eq!(json::unescape(&escape(s)).as_deref(), Some(s), "{s:?}");
    }
}

proptest! {
    /// Parity holds on arbitrary strings, including raw control bytes.
    #[test]
    fn escape_matches_the_old_escapers_on_arbitrary_strings(s in FIELD_CHARS) {
        assert_old_escapers_agree(&s);
    }

    /// Event records round-trip arbitrary field values through
    /// encode → parse.
    #[test]
    fn event_round_trips_arbitrary_field_values(s in FIELD_CHARS) {
        let ev = Event::new("stage").str("module", s.as_str()).u64("entries", 7);
        let back = parse(&encode(&ev)).expect("encoded event must parse");
        prop_assert_eq!(back.field("module").and_then(Value::as_str), Some(s.as_str()));
    }
}

#[test]
fn event_round_trips_hostile_module_names() {
    for name in HOSTILE {
        let ev = Event::new("stage")
            .str("module", name)
            .str("outcome", "quarantined")
            .u64("entries", 42)
            .bool("panicked", true);
        let back = parse(&encode(&ev)).expect("encoded event must parse");
        assert_eq!(back.kind, "stage");
        assert_eq!(back.field("module").and_then(Value::as_str), Some(name));
        assert_eq!(back.field("entries").and_then(Value::as_u64), Some(42));
        assert_eq!(back, ev, "{name:?}");
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dda-obs-events-{}-{name}", std::process::id()))
}

/// Both readers drop a torn *final* line silently — the crash-safety
/// contract the write-ahead journal established and `read_trace`
/// inherits.
#[test]
fn read_trace_and_journal_share_torn_tail_tolerance() {
    // Trace side: two good events, then a torn half-record.
    let trace = tmp("trace.jsonl");
    let mut f = fs::File::create(&trace).unwrap();
    writeln!(f, "{}", encode(&Event::new("stage").str("module", "a"))).unwrap();
    writeln!(f, "{}", encode(&Event::new("recycle").u64("pairs", 3))).unwrap();
    write!(f, "{{\"ev\": \"stage\", \"mod").unwrap();
    drop(f);
    let events = read_trace(&trace).unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(events[1].field("pairs").and_then(Value::as_u64), Some(3));

    // Journal side: two good records, then the same kind of torn tail.
    let journal = tmp("journal.jsonl");
    let mut j = Journal::create(&journal).unwrap();
    j.record(0, "ok first").unwrap();
    j.record(1, "ok second").unwrap();
    drop(j);
    let mut f = fs::OpenOptions::new().append(true).open(&journal).unwrap();
    write!(f, "{{\"unit\": 2, \"pay").unwrap();
    drop(f);
    let records = Journal::load(&journal).unwrap();
    assert_eq!(
        records,
        vec![(0, "ok first".to_owned()), (1, "ok second".to_owned())]
    );

    fs::remove_file(&trace).ok();
    fs::remove_file(&journal).ok();
}

/// Interior corruption is *not* tolerated by either reader: a malformed
/// line followed by a good one is data loss, reported as `InvalidData`.
#[test]
fn read_trace_and_journal_reject_interior_corruption() {
    let trace = tmp("trace-corrupt.jsonl");
    let mut f = fs::File::create(&trace).unwrap();
    writeln!(f, "not json at all").unwrap();
    writeln!(f, "{}", encode(&Event::new("stage").str("module", "a"))).unwrap();
    drop(f);
    let err = read_trace(&trace).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);

    let journal = tmp("journal-corrupt.jsonl");
    let mut f = fs::File::create(&journal).unwrap();
    writeln!(f, "not json at all").unwrap();
    writeln!(f, "{{\"unit\": 1, \"payload\": \"ok\"}}").unwrap();
    drop(f);
    let err = Journal::load(&journal).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);

    fs::remove_file(&trace).ok();
    fs::remove_file(&journal).ok();
}
