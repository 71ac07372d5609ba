//! Structured trace events and the workspace's one JSON codec.
//!
//! Every JSON record the workspace reads or writes is one flat object on
//! one line, `{"name": value, ...}`, with string, integer, float and
//! boolean values: trace events (`{"ev": "<kind>", ...}`), the daemon's
//! wire frames, dataset JSONL (`dda_core::json`) and the run-engine
//! journal (`dda_runtime::journal`). This module is the codec for all of
//! them:
//!
//! * [`escape`] / [`escape_into`] — RFC 8259 minimal string escaping;
//! * [`parse_object`] — the flat-object parser, reading bytes straight
//!   from the `&str` ([`parse`] wraps it for events and pulls out
//!   `"ev"`). It takes the standard escapes, `\uXXXX` with exactly four
//!   hex digits and UTF-16 surrogate pairs among them, and rejects a
//!   number that overflows a `u64`/`i64` or to an infinite float;
//! * [`read_jsonl`] — the torn-tail line reader behind [`read_trace`]
//!   and the journal's `load`/`recover`: a torn **final** line (a run
//!   killed mid-write) is dropped silently, a malformed line anywhere
//!   else is a hard [`InvalidData`] error.
//!
//! The crate sits at the bottom of the dependency graph, so every layer
//! that reads or writes JSON can use it.
//!
//! [`InvalidData`]: std::io::ErrorKind::InvalidData

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A field value in a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string (escaped on encode).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer (encoded only for negatives; non-negative numbers
    /// parse back as [`Value::U64`]).
    I64(i64),
    /// A finite float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// The string content, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content as `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }
}

/// One structured trace event: a kind plus ordered `(name, value)` fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event kind (the `"ev"` field), e.g. `"stage"`, `"span"`, `"counter"`.
    pub kind: String,
    /// Fields in encode order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Creates an event of `kind` with no fields.
    pub fn new(kind: impl Into<String>) -> Event {
        Event {
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// Appends a string field.
    #[must_use]
    pub fn str(mut self, name: &str, v: impl Into<String>) -> Event {
        self.fields.push((name.to_string(), Value::Str(v.into())));
        self
    }

    /// Appends an unsigned-integer field.
    #[must_use]
    pub fn u64(mut self, name: &str, v: u64) -> Event {
        self.fields.push((name.to_string(), Value::U64(v)));
        self
    }

    /// Appends a float field.
    #[must_use]
    pub fn f64(mut self, name: &str, v: f64) -> Event {
        self.fields.push((name.to_string(), Value::F64(v)));
        self
    }

    /// Appends a boolean field.
    #[must_use]
    pub fn bool(mut self, name: &str, v: bool) -> Event {
        self.fields.push((name.to_string(), Value::Bool(v)));
        self
    }

    /// Looks a field up by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// Escapes `s` per JSON string rules (RFC 8259 minimal escapes: `"`,
/// `\\`, the named `\n` `\r` `\t`, `\u00XX` for the other control
/// characters; everything else, non-ASCII included, passes through raw).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// [`escape`] appended to `out`, without an allocation of its own.
pub fn escape_into(out: &mut String, s: &str) {
    // Every byte that needs escaping is ASCII, so the runs between them
    // are whole UTF-8 sequences and copy through as slices.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if named.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(named);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// 2^63: the `i64` range is [-2^63, 2^63), the `u64` range [0, 2^64).
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

fn encode_value(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(n) => {
            // Finite by contract; a Display float is valid JSON. An
            // integral one displays as an integer literal, which the
            // parser reads as a `u64`/`i64`. From 2^64 up, and from -2^63
            // down (Display rounds -2^63 itself to `...776000`), that
            // literal overflows, so those take the exponent form instead.
            if n.fract() == 0.0 && !(-TWO_63 < *n && *n < 2.0 * TWO_63) {
                let _ = write!(out, "{n:e}");
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

/// Serializes one event to a single JSON line (no trailing newline).
pub fn encode(ev: &Event) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"ev\": \"");
    escape_into(&mut out, &ev.kind);
    out.push('"');
    for (name, v) in &ev.fields {
        out.push_str(", \"");
        escape_into(&mut out, name);
        out.push_str("\": ");
        encode_value(&mut out, v);
    }
    out.push('}');
    out
}

/// A read position in one line of JSON text.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    fn skip_ws(&mut self) {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start().len();
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        (self.rest().first() == Some(&b)).then(|| self.pos += 1)
    }

    /// A quoted string at the cursor, unescaped.
    fn string(&mut self) -> Option<String> {
        if self.rest().first() != Some(&b'"') {
            return None;
        }
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        let mut run = self.pos + 1;
        loop {
            let at = run + bytes[run..].iter().position(|&b| b == b'"' || b == b'\\')?;
            out.push_str(&self.text[run..at]);
            if bytes[at] == b'"' {
                self.pos = at + 1;
                return Some(out);
            }
            let (c, next) = unescape_at(bytes, at + 1)?;
            out.push(c);
            run = next;
        }
    }

    /// A value: a string, `true`/`false`, or a number literal (the
    /// characters `0-9 + - . e E`; with `.`, `e` or `E` a finite float,
    /// with a leading `-` an `i64`, otherwise a `u64`).
    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        let rest = self.rest();
        match rest.first()? {
            b'"' => self.string().map(Value::Str),
            b't' | b'f' => {
                let n = rest.iter().take_while(|b| b.is_ascii_alphabetic()).count();
                self.pos += n;
                match &rest[..n] {
                    b"true" => Some(Value::Bool(true)),
                    b"false" => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            _ => {
                let n = rest
                    .iter()
                    .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                    .count();
                let lit = &self.text[self.pos..self.pos + n];
                self.pos += n;
                if lit.contains(['.', 'e', 'E']) {
                    lit.parse()
                        .ok()
                        .filter(|f: &f64| f.is_finite())
                        .map(Value::F64)
                } else if lit.starts_with('-') {
                    lit.parse().ok().map(Value::I64)
                } else {
                    lit.parse().ok().map(Value::U64)
                }
            }
        }
    }
}

/// Decodes the escape whose letter is at `bytes[at]` (just past the
/// backslash): the character and the index after the escape. `\u`
/// takes exactly four hex digits, and a UTF-16 surrogate only as a
/// `\uD8xx\uDCxx` pair, which decodes to one character.
fn unescape_at(bytes: &[u8], at: usize) -> Option<(char, usize)> {
    let c = match bytes.get(at)? {
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'b' => '\u{8}',
        b'f' => '\u{c}',
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'u' => {
            let hi = hex4(bytes, at + 1)?;
            if !(0xd800..0xdc00).contains(&hi) {
                // A lone low surrogate is no `char`, so it fails here.
                return Some((char::from_u32(hi)?, at + 5));
            }
            if bytes.get(at + 5..at + 7)? != b"\\u" {
                return None;
            }
            let lo = hex4(bytes, at + 7)?;
            if !(0xdc00..0xe000).contains(&lo) {
                return None;
            }
            let c = char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))?;
            return Some((c, at + 11));
        }
        _ => return None,
    };
    Some((c, at + 1))
}

fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)?
        .iter()
        .try_fold(0, |v, &b| Some(v << 4 | char::from(b).to_digit(16)?))
}

/// Parses one flat JSON object, `{"name": value, ...}`, handing each
/// field to `field` in order; `None` when the text is not exactly one
/// such object (a torn write, trailing bytes, a nested value, `null`) or
/// when `field` rejects a field. This is the workspace's one JSON reader:
/// [`parse`], `dda_core::json::from_jsonl` and the run-engine journal
/// all sit on it.
pub fn parse_object(text: &str, mut field: impl FnMut(String, Value) -> Option<()>) -> Option<()> {
    let mut cur = Cursor { text, pos: 0 };
    cur.eat(b'{')?;
    loop {
        cur.skip_ws();
        let name = cur.string()?;
        cur.eat(b':')?;
        let value = cur.value()?;
        field(name, value)?;
        cur.skip_ws();
        match cur.rest().first()? {
            b',' => cur.pos += 1,
            b'}' => break,
            _ => return None,
        }
    }
    cur.pos += 1;
    cur.skip_ws();
    (cur.pos == text.len()).then_some(())
}

/// Reverses [`escape`]: decodes the body of a JSON string (no
/// surrounding quotes). Returns `None` for malformed escapes or raw `"`
/// characters.
pub fn unescape(body: &str) -> Option<String> {
    let quoted = format!("\"{body}\"");
    let mut cur = Cursor {
        text: &quoted,
        pos: 0,
    };
    let s = cur.string()?;
    // A raw quote in `body` would end the string early.
    (cur.pos == quoted.len()).then_some(s)
}

/// Parses one JSONL event line; `None` when malformed (e.g. a torn write).
/// The `"ev"` field, which must be a string, becomes the kind.
pub fn parse(line: &str) -> Option<Event> {
    let mut kind = None;
    let mut fields = Vec::new();
    parse_object(line, |name, value| {
        if name == "ev" {
            let Value::Str(k) = value else { return None };
            kind = Some(k);
        } else {
            fields.push((name, value));
        }
        Some(())
    })?;
    Some(Event {
        kind: kind?,
        fields,
    })
}

/// Reads JSONL `text` one record per line with `parse`, under the
/// durability contract every JSONL file here shares: blank lines are
/// skipped, a torn **final** line (a run killed mid-write) is dropped
/// silently, and a malformed line anywhere else is a hard error. Returns
/// the records and the byte length of the sound prefix — everything up
/// to, but excluding, a torn final line.
///
/// # Errors
///
/// A malformed non-final line, as [`io::ErrorKind::InvalidData`] naming
/// `path`, the 1-based line number and `what` the file is (`trace`,
/// `journal`).
pub fn read_jsonl<T>(
    text: &str,
    path: &Path,
    what: &str,
    mut parse: impl FnMut(&str) -> Option<T>,
) -> io::Result<(Vec<T>, usize)> {
    let mut records = Vec::new();
    let mut sound = 0;
    let mut pieces = text.split_inclusive('\n').enumerate().peekable();
    while let Some((i, piece)) = pieces.next() {
        let line = piece.trim();
        if !line.is_empty() {
            match parse(line) {
                Some(rec) => records.push(rec),
                None if pieces.peek().is_none() => break, // torn tail from a kill
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: corrupt {what} line {}", path.display(), i + 1),
                    ))
                }
            }
        }
        sound += piece.len();
    }
    Ok((records, sound))
}

/// Loads every event from a JSONL trace file at `path`, under
/// [`read_jsonl`]'s torn-tail contract.
///
/// # Errors
///
/// Propagates filesystem errors; reports corrupt non-final lines as
/// [`io::ErrorKind::InvalidData`].
pub fn read_trace(path: &Path) -> io::Result<Vec<Event>> {
    let text = fs::read_to_string(path)?;
    Ok(read_jsonl(&text, path, "trace", parse)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_round_trips() {
        let ev = Event::new("stage")
            .str("module", "ctr \"q\" \\back\\")
            .str("stage", "completion")
            .u64("entries", 42)
            .f64("score", 0.5)
            .bool("panicked", false);
        let line = encode(&ev);
        let back = parse(&line).expect("parses");
        assert_eq!(back, ev);
        // A second encode is byte-stable.
        assert_eq!(encode(&back), line);
    }

    #[test]
    fn control_chars_and_unicode_survive() {
        let ev = Event::new("e").str("m", "a\nb\t\u{1}§☃ モジュール");
        let back = parse(&encode(&ev)).unwrap();
        assert_eq!(back, ev);
        assert!(encode(&ev).contains("\\u0001"));
    }

    #[test]
    fn negative_and_float_values_parse() {
        let line = r#"{"ev": "g", "v": -3, "f": 1.5e3, "b": true}"#;
        let ev = parse(line).unwrap();
        assert_eq!(ev.field("v"), Some(&Value::I64(-3)));
        assert_eq!(ev.field("f"), Some(&Value::F64(1500.0)));
        assert_eq!(ev.field("b"), Some(&Value::Bool(true)));
    }

    #[test]
    fn integral_floats_past_the_integer_range_round_trip() {
        for v in [1e20, -1e20, 2.0 * TWO_63, -TWO_63, f64::MAX, f64::MIN] {
            let line = encode(&Event::new("g").f64("t", v));
            let back = parse(&line).unwrap_or_else(|| panic!("{line} does not parse"));
            assert_eq!(back.field("t"), Some(&Value::F64(v)), "{line}");
        }
        // Bytes that parsed before keep their integer form.
        for v in [1500.0, -0.0, 2.0 * TWO_63 - 2048.0, 1024.0 - TWO_63] {
            let line = encode(&Event::new("g").f64("t", v));
            assert_eq!(line, format!("{{\"ev\": \"g\", \"t\": {v}}}"));
            assert!(parse(&line).is_some(), "{line}");
        }
    }

    proptest::proptest! {
        /// Every finite float encodes to a line the parser accepts, back
        /// to the same number; one whose `Display` form is not an
        /// out-of-range integer keeps that form byte for byte.
        #[test]
        fn every_finite_float_encodes_to_a_parsable_line(bits in proptest::prelude::any::<u64>()) {
            // Any bit pattern (an all-ones exponent cleared to stay
            // finite), plus integral floats across both integer ranges.
            let raw = f64::from_bits(bits);
            let any = if raw.is_finite() { raw } else { f64::from_bits(bits & !(1 << 62)) };
            for v in [any, bits as f64, bits as i64 as f64] {
                let line = encode(&Event::new("g").f64("t", v));
                let back = parse(&line);
                proptest::prop_assert!(back.is_some(), "{line}");
                let got = match back.unwrap().field("t") {
                    Some(Value::F64(f)) => Some(*f),
                    Some(Value::U64(n)) => Some(*n as f64),
                    Some(Value::I64(n)) => Some(*n as f64),
                    _ => None,
                };
                proptest::prop_assert_eq!(got, Some(v), "{line}");
                if v.fract() != 0.0 || (-TWO_63 < v && v < 2.0 * TWO_63) {
                    proptest::prop_assert!(line.ends_with(&format!(" {v}}}")), "{line}");
                }
            }
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{\"ev\": ",
            "{\"ev\": \"x\"} trailing",
            "{\"name\": \"missing kind\"}",
            "{\"ev\": \"x\", \"s\": \"dangling \\",
        ] {
            assert!(parse(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn standard_escapes_decode() {
        // What `json.dumps` writes by default: ASCII-only output, so an
        // astral character goes out as a UTF-16 surrogate pair.
        let ev = parse(r#"{"ev": "g", "p": "\ud83d\ude80 \u00e9\b\f\/"}"#).unwrap();
        assert_eq!(
            ev.field("p").and_then(Value::as_str),
            Some("🚀 é\u{8}\u{c}/")
        );
        assert_eq!(unescape(r"\uD83D\uDE80").as_deref(), Some("🚀"));
    }

    #[test]
    fn malformed_unicode_escapes_and_infinite_numbers_are_rejected() {
        for bad in [
            r#"{"ev": "g", "p": "\ud83d"}"#,       // lone high surrogate
            r#"{"ev": "g", "p": "\ud83d\u0041"}"#, // high + non-low
            r#"{"ev": "g", "p": "\ude80"}"#,       // lone low surrogate
            r#"{"ev": "g", "p": "\u+041"}"#,       // sign is no hex digit
            r#"{"ev": "g", "p": "\u004"}"#,        // three digits
            r#"{"ev": "g", "f": 1e999}"#,          // overflows to inf
            r#"{"ev": "g", "f": -1e999}"#,
        ] {
            assert!(parse(bad).is_none(), "accepted {bad}");
        }
        assert_eq!(unescape(r"\ud83d"), None);
    }

    #[test]
    fn parse_object_hands_fields_over_in_order_and_stops_on_rejection() {
        let mut seen = Vec::new();
        let line = r#"{"b": 1, "a": "x", "b": true}"#;
        parse_object(line, |n, v| {
            seen.push((n.to_string(), v));
            Some(())
        })
        .unwrap();
        assert_eq!(
            seen,
            [
                ("b".to_string(), Value::U64(1)),
                ("a".to_string(), Value::Str("x".into())),
                ("b".to_string(), Value::Bool(true)),
            ]
        );
        assert!(parse_object(line, |n, _| (n != "a").then_some(())).is_none());
        for bad in [
            "{}",
            r#"{"a": 1,}"#,
            r#"{"a": null}"#,
            r#"{"a": {"b": 1}}"#,
            r#"{"a": 1} {"#,
        ] {
            assert!(
                parse_object(bad, |_, _| Some(())).is_none(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn read_jsonl_reports_the_sound_prefix() {
        let path = Path::new("t.jsonl");
        let text = "{\"n\": 1}\n\n{\"n\": 2}\n{\"n\": ";
        let (recs, sound) =
            read_jsonl(text, path, "test", |l| parse_object(l, |_, _| Some(()))).unwrap();
        assert_eq!((recs.len(), sound), (2, text.rfind('{').unwrap()));
        let err = read_jsonl("x\n{\"n\": 1}\n", path, "test", |l| {
            parse_object(l, |_, _| Some(()))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "t.jsonl: corrupt test line 1");
    }

    #[test]
    fn read_trace_drops_torn_tail_only() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("dda-obs-trace-{}.jsonl", std::process::id()));
        let good = encode(&Event::new("a").u64("n", 1));
        std::fs::write(&path, format!("{good}\n{{\"ev\": \"b\", \"half")).unwrap();
        let evs = read_trace(&path).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, "a");

        // Corrupt interior line: hard error.
        std::fs::write(&path, format!("garbage\n{good}\n")).unwrap();
        let err = read_trace(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
