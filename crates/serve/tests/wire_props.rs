//! Property tests for the wire codec and the protocol codec (satellite:
//! round-trip + malformed-frame robustness).
//!
//! The invariants under test are the service's outermost trust boundary:
//! arbitrary bytes from a socket must produce either a decoded frame or a
//! structured [`WireError`] — never a panic, a hang, or an unbounded
//! allocation/read. The JSON codec under the protocol is the one that
//! dataset JSONL and the run-engine journal share, so its totality and
//! torn-record properties are checked for those formats here too.

use dda_core::dataset::DataEntry;
use dda_core::json::{from_jsonl, to_json_line};
use dda_obs::event::{encode, parse, Event};
use dda_runtime::journal::parse_record;
use dda_runtime::{Journal, Priority};
use dda_serve::proto::{ReqBody, Request, RespBody, Response};
use dda_serve::wire::{read_frame, write_frame, WireError, MAX_FRAME};
use proptest::prelude::*;
use std::io::Cursor;

/// One record of every JSON format carrying `s`: an event, a request, a
/// response, a dataset line and a journal line.
fn records(s: &str, n: u64) -> [String; 5] {
    let req = Request {
        id: n,
        priority: Priority::High,
        deadline_ms: Some(n % 60_000),
        body: ReqBody::Generate {
            instruct: s.to_string(),
            prompt: s.to_string(),
            temperature: 0.5,
            seed: n,
        },
    };
    let resp = Response {
        id: n,
        verb: "repair".into(),
        body: RespBody::Repaired {
            source: s.to_string(),
            clean: n.is_multiple_of(2),
            cost: n,
        },
    };
    let mut journal = String::new();
    let path = std::env::temp_dir().join(format!("dda-wire-props-{}-{n}", std::process::id()));
    Journal::create(&path)
        .unwrap()
        .record(n as usize, s)
        .unwrap();
    journal.push_str(std::fs::read_to_string(&path).unwrap().trim_end());
    std::fs::remove_file(&path).ok();
    [
        encode(&Event::new("stage").str("module", s).u64("n", n)),
        req.to_line(),
        resp.to_line(),
        to_json_line(&DataEntry::new(s, s, s)),
        journal,
    ]
}

proptest! {
    /// Any payload string round-trips through the frame codec, including
    /// payloads containing NULs, newlines, and multi-byte UTF-8.
    #[test]
    fn frame_round_trip(payload in "\\PC{0,400}") {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = Cursor::new(buf);
        let back = read_frame(&mut r, MAX_FRAME).unwrap();
        prop_assert_eq!(back.as_deref(), Some(payload.as_str()));
        prop_assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none());
    }

    /// A stream of several frames decodes in order with clean EOF after.
    #[test]
    fn frame_stream_round_trip(payloads in prop::collection::vec("[ -~]{0,60}", 0..8)) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = Cursor::new(buf);
        for p in &payloads {
            prop_assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().as_deref(), Some(p.as_str()));
        }
        prop_assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none());
    }

    /// Arbitrary byte soup never panics the reader: every outcome is a
    /// decoded frame, a clean EOF, or a structured error.
    #[test]
    fn reader_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut r = Cursor::new(bytes.clone());
        match read_frame(&mut r, 1 << 16) {
            Ok(_) | Err(_) => {}
        }
    }

    /// A truncated prefix (fewer than 4 bytes then EOF) is always the
    /// structured `Truncated` error, never a hang or a bogus frame.
    #[test]
    fn truncated_prefix_is_structured(n in 1usize..4, byte in any::<u8>()) {
        let mut r = Cursor::new(vec![byte; n]);
        match read_frame(&mut r, MAX_FRAME) {
            Err(WireError::Truncated { expected: 4, got }) => prop_assert_eq!(got, n),
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    /// A frame torn mid-body is always `Truncated` with an exact count.
    #[test]
    fn torn_body_is_structured(declared in 1u32..2048, keep_frac in 0usize..100) {
        let declared_us = declared as usize;
        let keep = (declared_us * keep_frac / 100).min(declared_us - 1);
        let mut buf = Vec::new();
        buf.extend_from_slice(&declared.to_be_bytes());
        buf.extend(std::iter::repeat_n(b'x', keep));
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, MAX_FRAME) {
            Err(WireError::Truncated { expected, got }) => {
                prop_assert_eq!(expected, declared_us);
                prop_assert_eq!(got, keep);
            }
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    /// An oversized declared length is rejected *without consuming body
    /// bytes*, whatever the declared size: the reader's position stays at
    /// the 4-byte prefix (bounded read — no allocation proportional to the
    /// attacker-controlled length either).
    #[test]
    fn oversized_rejected_with_bounded_read(excess in 1u32..1_000_000, max in 16usize..4096) {
        let declared = (max as u32).saturating_add(excess);
        let mut buf = Vec::new();
        buf.extend_from_slice(&declared.to_be_bytes());
        buf.extend_from_slice(b"bodybytesthatmustnotberead");
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, max) {
            Err(WireError::Oversized { declared: d, max: m }) => {
                prop_assert_eq!(d, declared as usize);
                prop_assert_eq!(m, max);
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
        prop_assert_eq!(r.position(), 4, "body bytes were consumed");
    }

    /// Request decode is total on arbitrary frame payloads: malformed
    /// JSON yields a structured error, never a panic.
    #[test]
    fn request_decode_is_total(line in "\\PC{0,200}") {
        let _ = Request::from_line(&line);
    }

    /// Response decode is total too (a hostile server can't panic a
    /// client).
    #[test]
    fn response_decode_is_total(line in "\\PC{0,200}") {
        let _ = Response::from_line(&line);
    }

    /// Requests with arbitrary field contents survive an encode/decode
    /// round trip exactly — covering JSON escaping of quotes, backslashes,
    /// control characters, and non-ASCII in every string field.
    #[test]
    fn request_round_trip_arbitrary_strings(
        id in any::<u64>(),
        high in any::<bool>(),
        // Below MAX_DEADLINE_MS: the decoder clamps larger budgets, which
        // is deliberate lossiness, not a codec defect.
        deadline in 0u64..60_000,
        name in "\\PC{0,30}",
        source in "\\PC{0,200}",
        seed in any::<u64>(),
    ) {
        let req = Request {
            id,
            priority: if high { Priority::High } else { Priority::Normal },
            deadline_ms: Some(deadline),
            body: ReqBody::Augment { name, source, seed },
        };
        let back = Request::from_line(&req.to_line()).unwrap();
        prop_assert_eq!(back, req);
    }

    /// Score requests round-trip with inline testbenches, at every legal
    /// batch width (the decoder clamps `runs` into [1, 64], so only
    /// in-range values are codec-exact).
    #[test]
    fn score_round_trip(
        source in "\\PC{0,120}",
        tb in "\\PC{0,120}",
        top in "[a-z_]{1,12}",
        runs in 1u64..65,
    ) {
        let req = Request {
            id: 1,
            priority: Priority::Normal,
            deadline_ms: None,
            body: ReqBody::Score {
                source,
                problem: None,
                testbench: Some(tb),
                top,
                runs,
            },
        };
        let back = Request::from_line(&req.to_line()).unwrap();
        prop_assert_eq!(back, req);
    }

    /// A torn record never parses: every proper prefix of a record of any
    /// format is rejected, which is what lets every reader drop a torn
    /// final line instead of reading a wrong record from it.
    #[test]
    fn torn_records_never_parse(s in "\\PC{0,40}", ctl in "[\u{0}-\u{1f}\"\\\\]{0,8}", n in any::<u64>()) {
        let s = format!("{s}{ctl}");
        let [event, request, response, entry, journal] = records(&s, n);
        prop_assert!(parse(&event).is_some());
        prop_assert!(Request::from_line(&request).is_ok());
        prop_assert!(Response::from_line(&response).is_ok());
        prop_assert!(from_jsonl(&entry).is_ok());
        prop_assert!(parse_record(&journal).is_some());
        for (i, _) in event.char_indices() {
            prop_assert!(parse(&event[..i]).is_none(), "event prefix {:?}", &event[..i]);
        }
        for (i, _) in request.char_indices() {
            prop_assert!(Request::from_line(&request[..i]).is_err(), "request prefix {:?}", &request[..i]);
        }
        for (i, _) in response.char_indices() {
            prop_assert!(Response::from_line(&response[..i]).is_err(), "response prefix {:?}", &response[..i]);
        }
        // The empty prefix of a dataset file is an empty dataset.
        for (i, _) in entry.char_indices().skip(1) {
            prop_assert!(from_jsonl(&entry[..i]).is_err(), "dataset prefix {:?}", &entry[..i]);
        }
        for (i, _) in journal.char_indices() {
            prop_assert!(parse_record(&journal[..i]).is_none(), "journal prefix {:?}", &journal[..i]);
        }
    }

    /// Dataset decode is total on arbitrary text: entries or a
    /// structured error with a line number, never a panic.
    #[test]
    fn dataset_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = from_jsonl(&text) {
            prop_assert!(e.line >= 1 && e.line <= text.lines().count());
        }
    }

    /// `Journal::load` is total on arbitrary file contents, invalid
    /// UTF-8 included: records or an error, never a panic.
    #[test]
    fn journal_load_is_total(bytes in prop::collection::vec(any::<u8>(), 0..200), case in any::<u64>()) {
        let path = std::env::temp_dir()
            .join(format!("dda-wire-props-load-{}-{case}", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let _ = Journal::load(&path);
        std::fs::remove_file(&path).ok();
    }
}
