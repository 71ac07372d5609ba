//! Differential tests: `dda_obs::event`, the workspace's one JSON codec,
//! against the three decoders it replaced, kept verbatim under
//! `tests/oracle/`: `dda_core::json`'s line parser and `unescape`,
//! `dda_obs::event::parse` and the run-engine journal's line reader.
//!
//! Inputs are valid encodings of the `HOSTILE` and `FIELD_CHARS` strings
//! as an event, a dataset line, a journal line (also in a key order only
//! the new reader takes) and a bare escaped string;
//! every char-boundary prefix of those; and random byte mutations of them.
//! Every decoder sees every input. "Alike" means the same accept or reject
//! decision and the same values, except where one of the deliberate
//! changes below is the reason, which each check confirms:
//!
//! * standard escapes ([`new_escape_rules`]): a `\uD83D\uDE80` surrogate
//!   pair decodes to one character, a lone surrogate is rejected (dataset
//!   lines made it U+FFFD), `\u` takes exactly four hex digits (`\u+041`
//!   was `A`), and `\b` and `\f` decode;
//! * a number that overflows to an infinite float is rejected (it parsed
//!   to `F64(inf)`) ([`infinite_number`]);
//! * a dataset line is exactly one object: the old parser ignored bytes
//!   after its closing brace ([`glued_dataset_line`]);
//! * a journal line takes `unit` and `payload` in any order, beside other
//!   fields, with whitespace wherever the other formats take it; the old
//!   reader wanted `{"unit": N, "payload": "..."}` exactly
//!   ([`lenient_journal_line`]).

mod oracle;

use dda_core::dataset::DataEntry;
use dda_core::json::{from_jsonl, to_json_line, unescape};
use dda_obs::event::{encode, escape, parse, read_trace, Event, Value};
use dda_runtime::journal::parse_record;
use dda_runtime::Journal;
use oracle::{FIELD_CHARS, HOSTILE};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

/// Whether `text` holds an escape whose meaning the standard-escape fix
/// changed: `\b`, `\f`, a `\u` surrogate, or a `\u` whose four characters
/// `u32::from_str_radix` took although they are not all hex digits.
fn new_escape_rules(text: &str) -> bool {
    let b = text.as_bytes();
    let mut i = 0;
    while i + 1 < b.len() {
        if b[i] != b'\\' {
            i += 1;
            continue;
        }
        match b[i + 1] {
            b'b' | b'f' => return true,
            b'u' => {
                if let Some(Ok(hex)) = b.get(i + 2..i + 6).map(std::str::from_utf8) {
                    match u32::from_str_radix(hex, 16) {
                        Ok(v) if (0xd800..0xe000).contains(&v) => return true,
                        Ok(_) if !hex.bytes().all(|c| c.is_ascii_hexdigit()) => return true,
                        _ => {}
                    }
                }
            }
            _ => {}
        }
        i += 2;
    }
    false
}

/// Whether `text` holds a float literal (a run of `0-9 + - . e E` with
/// `.`, `e` or `E`) that overflows to an infinity.
fn infinite_number(text: &str) -> bool {
    text.split(|c: char| !matches!(c, '0'..='9' | '+' | '-' | '.' | 'e' | 'E'))
        .filter(|lit| lit.contains(['.', 'e', 'E']))
        .any(|lit| lit.parse::<f64>().is_ok_and(|f| !f.is_finite()))
}

/// Whether the dataset `line` the old parser read as `old` is that same
/// record cut at one of its `}` with bytes after it.
fn glued_dataset_line(line: &str, old: &DataEntry) -> bool {
    line.match_indices('}')
        .any(|(i, _)| from_jsonl(&line[..=i]).is_ok_and(|v| v == [old.clone()]))
}

/// Whether the old generic object parser, the one behind events, reads
/// the journal `line` as an object whose last `unit` and `payload` are
/// `rec`.
fn lenient_journal_line(line: &str, rec: &(usize, String)) -> bool {
    let Some(body) = line.trim().strip_prefix('{') else {
        return false;
    };
    let Some(ev) = oracle::obs_event::parse(&format!("{{\"ev\": \"j\", {body}")) else {
        return false;
    };
    let last = |name: &str| {
        ev.fields
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    };
    last("unit") == Some(&Value::U64(rec.0 as u64))
        && last("payload") == Some(&Value::Str(rec.1.clone()))
}

/// Holds every new decoder to its oracle on `text`.
fn check(text: &str) {
    let escapes = new_escape_rules(text);

    let (old, new) = (oracle::obs_event::parse(text), parse(text));
    prop_assert!(
        old == new || escapes || infinite_number(text),
        "event {text:?}: old {old:?}, new {new:?}"
    );

    let (old, new) = (oracle::core_json::unescape(text), unescape(text));
    prop_assert!(
        old == new || escapes,
        "unescape {text:?}: old {old:?}, new {new:?}"
    );

    // `from_jsonl` splits and trims lines as it always did, so the
    // decoders are compared line by line, then on the whole text.
    let mut lines_alike = true;
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let old = oracle::core_json::parse_line(line).ok();
        let new = from_jsonl(line).ok().map(|mut v| v.remove(0));
        if old != new {
            lines_alike = false;
            let glued = new.is_none() && old.as_ref().is_some_and(|e| glued_dataset_line(line, e));
            prop_assert!(
                escapes || glued,
                "dataset {line:?}: old {old:?}, new {new:?}"
            );
        }

        let (old, new) = (oracle::journal::parse_line(line), parse_record(line));
        let lenient = old.is_none() && new.as_ref().is_some_and(|r| lenient_journal_line(line, r));
        prop_assert!(
            old == new || escapes || lenient,
            "journal {line:?}: old {old:?}, new {new:?}"
        );
    }
    if lines_alike {
        let (old, new) = (oracle::core_json::from_jsonl(text), from_jsonl(text));
        prop_assert_eq!(old.is_ok(), new.is_ok(), "dataset text {:?}", text);
        prop_assert_eq!(old.ok(), new.ok());
    }
}

fn event_of(s: &str, n: u64) -> Event {
    let mut ev = Event::new("stage")
        .str("module", s)
        .u64("entries", n)
        .f64("score", (n % 4096) as f64 + 0.375)
        .bool("panicked", n.is_multiple_of(2));
    ev.fields
        .push(("delta".into(), Value::I64(-1 - (n % 1000) as i64)));
    ev
}

fn journal_line(n: u64, s: &str) -> String {
    format!("{{\"unit\": {n}, \"payload\": \"{}\"}}", escape(s))
}

/// An event, a dataset line, a journal line, the same journal record
/// in the layout only the new reader takes, and a bare escaped string,
/// all carrying `s`.
fn encodings(s: &str, n: u64) -> [String; 5] {
    [
        encode(&event_of(s, n)),
        to_json_line(&DataEntry::new(s, "input", s)),
        journal_line(n, s),
        format!(
            "{{ \"payload\": \"{}\", \"unit\": {n}, \"note\": true}}",
            escape(s)
        ),
        escape(s),
    ]
}

/// The string a case carries: one of [`HOSTILE`] for `pick < 8`, else
/// the generated `FIELD_CHARS` string.
fn field(pick: usize, generated: String) -> String {
    HOSTILE.get(pick).map_or(generated, |s| s.to_string())
}

/// Snippets spliced in by mutations, so the deliberate changes and the
/// number grammar get exercised too.
const SPLICES: [&str; 18] = [
    r"\ud83d\ude80",
    r"\ud83d",
    r"\ude80",
    r"\u+041",
    r"\u00e9",
    r"\u0041",
    r"\/",
    r"\q",
    r"\b",
    r"\f",
    "1e999",
    "-0",
    "+5",
    ", \"x\": true",
    "} ",
    "}",
    " x",
    "{\"a\": 1}",
];

/// Bytes that mean something to the codec, drawn as often as any byte.
const SIGNIFICANT: &[u8] = b"\"\\/{}:, \t\nu0123456789abcdefABCDEF+-.eEtrnbf";

/// Applies the edits, each packed in a `u64`: bits 0-1 pick replace,
/// insert, delete or splice; bits 2-9 the byte (from [`SIGNIFICANT`] when
/// bit 10 is set) or the splice; bits 16 and up the position, or the
/// last byte when bit 11 is set, since a record's end is where a torn or
/// glued write shows.
fn mutate(text: &str, edits: &[u64]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &e in edits {
        let at = if e & (1 << 11) != 0 {
            bytes.len().saturating_sub(1)
        } else {
            (e >> 16) as usize % (bytes.len() + 1)
        };
        let pick = (e >> 2) as usize & 0xff;
        let byte = if e & (1 << 10) != 0 {
            SIGNIFICANT[pick % SIGNIFICANT.len()]
        } else {
            pick as u8
        };
        match e & 3 {
            0 if at < bytes.len() => bytes[at] = byte,
            0 | 1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => {}
            _ => {
                bytes.splice(at..at, SPLICES[pick % SPLICES.len()].bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    /// Valid encodings decode alike, and to what was encoded.
    #[test]
    fn valid_encodings_decode_alike(pick in 0usize..16, generated in FIELD_CHARS, n in any::<u64>()) {
        let s = field(pick, generated);
        let [ev, entry, journal, reordered, body] = encodings(&s, n);
        for text in [&ev, &entry, &journal, &reordered, &body] {
            check(text);
        }
        prop_assert_eq!(parse(&ev), Some(event_of(&s, n)));
        prop_assert_eq!(from_jsonl(&entry).unwrap(), [DataEntry::new(s.as_str(), "input", s.as_str())]);
        prop_assert_eq!(parse_record(&journal), Some((n as usize, s.clone())));
        prop_assert_eq!(parse_record(&reordered), Some((n as usize, s.clone())));
        prop_assert_eq!(unescape(&body), Some(s));
    }

    /// Every char-boundary prefix of every encoding decodes alike.
    #[test]
    fn every_prefix_decodes_alike(pick in 0usize..16, generated in FIELD_CHARS, n in any::<u64>()) {
        for text in encodings(&field(pick, generated), n) {
            for (i, _) in text.char_indices() {
                check(&text[..i]);
            }
        }
    }

    /// Random byte edits of every encoding decode alike.
    #[test]
    fn mutations_decode_alike(
        pick in 0usize..16,
        generated in FIELD_CHARS,
        n in any::<u64>(),
        edits in prop::collection::vec(any::<u64>(), 1..5),
    ) {
        for text in encodings(&field(pick, generated), n) {
            check(&mutate(&text, &edits));
        }
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dda-codec-oracle-{}-{name}", std::process::id()))
}

/// The journal still writes the bytes the old escaper wrote, so journals
/// written before the codec merge and after it are the same files.
#[test]
fn journal_record_writes_the_old_bytes() {
    let path = tmp("bytes.jsonl");
    let mut j = Journal::create(&path).unwrap();
    let mut want = String::new();
    for (unit, s) in HOSTILE.iter().enumerate() {
        j.record(unit, s).unwrap();
        want.push_str(&format!("{{\"unit\": {unit}, \"payload\": \""));
        oracle::journal::escape_into(s, &mut want);
        want.push_str("\"}\n");
    }
    drop(j);
    assert_eq!(fs::read_to_string(&path).unwrap(), want);
    fs::remove_file(&path).ok();
}

/// `Journal::load`, `Journal::recover` and `read_trace` keep the old
/// torn-tail contract on files: after a good record, every prefix of a
/// second one is either that record or a torn tail the old reader also
/// dropped (and `recover` cuts the file where the old reader's sound
/// prefix ended); before a good record, a prefix is corruption exactly
/// when the old reader said so.
#[test]
fn files_load_recover_and_trace_like_the_old_readers() {
    let path = tmp("files.jsonl");
    let good_journal = journal_line(0, "done");
    let good_event = encode(&event_of("done", 0));
    for (n, s) in HOSTILE.iter().enumerate() {
        for (line, good) in [
            (journal_line(n as u64 + 1, s), &good_journal),
            (encode(&event_of(s, n as u64)), &good_event),
        ] {
            let cuts = line.char_indices().map(|(i, _)| i).chain([line.len()]);
            for cut in cuts {
                let part = &line[..cut];
                for text in [format!("{good}\n{part}"), format!("{part}\n{good}\n")] {
                    fs::write(&path, &text).unwrap();
                    assert_same_journal(&path, &text);
                    let old = oracle::obs_event::read_trace(&path).map_err(|e| e.kind());
                    let new = read_trace(&path).map_err(|e| e.kind());
                    assert_eq!(old, new, "trace {text:?}");
                }
            }
        }
    }
    fs::remove_file(&path).ok();
}

fn assert_same_journal(path: &Path, text: &str) {
    let old = oracle::journal::parse_text(text, path).map_err(|e| e.kind());
    let new = Journal::load(path).map_err(|e| e.kind());
    assert_eq!(
        old.as_ref().map(|(r, _)| r),
        new.as_ref(),
        "journal {text:?}"
    );
    if let Ok((_, sound)) = old {
        let (_, records) = Journal::recover(path).unwrap();
        assert_eq!(Ok(records), new, "recover {text:?}");
        assert_eq!(
            fs::metadata(path).unwrap().len(),
            sound as u64,
            "recover {text:?}"
        );
    }
}
