//! JSONL serialization for [`DataEntry`] records.
//!
//! One record per line: `{"instruct": "...", "input": "...", "output":
//! "..."}`. The escaping and parsing are the workspace's one JSON codec,
//! `dda_obs::event` (`serde_json` is outside the approved offline
//! dependency set, and a flat three-string record does not need it);
//! this module only maps its flat objects to and from [`DataEntry`].

use crate::dataset::DataEntry;
use dda_obs::event::{parse_object, Value};
use std::error::Error;
use std::fmt;

pub use dda_obs::event::{escape, unescape};

/// Serializes one entry to a single JSON line (no trailing newline).
///
/// ```
/// use dda_core::dataset::DataEntry;
/// let e = DataEntry::new("do", "in", "out");
/// assert_eq!(
///     dda_core::json::to_json_line(&e),
///     r#"{"instruct": "do", "input": "in", "output": "out"}"#
/// );
/// ```
pub fn to_json_line(e: &DataEntry) -> String {
    format!(
        "{{\"instruct\": \"{}\", \"input\": \"{}\", \"output\": \"{}\"}}",
        escape(&e.instruct),
        escape(&e.input),
        escape(&e.output)
    )
}

/// Serializes entries to JSONL text.
pub fn to_jsonl<'a>(entries: impl IntoIterator<Item = &'a DataEntry>) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&to_json_line(e));
        out.push('\n');
    }
    out
}

/// A JSONL parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseJsonError {}

/// Parses JSONL text back into entries.
///
/// # Errors
///
/// Returns [`ParseJsonError`] for malformed lines or missing fields.
pub fn from_jsonl(text: &str) -> Result<Vec<DataEntry>, ParseJsonError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_entry(line).map_err(|message| ParseJsonError {
            line: i + 1,
            message,
        })?);
    }
    Ok(out)
}

fn parse_entry(line: &str) -> Result<DataEntry, String> {
    const NAMES: [&str; 3] = ["instruct", "input", "output"];
    let mut fields = [None::<String>, None, None];
    let mut err = None;
    parse_object(line, |name, value| {
        match (NAMES.iter().position(|n| *n == name), value) {
            (Some(i), Value::Str(s)) => fields[i] = Some(s),
            (Some(_), _) => err = Some(format!("field `{name}` must be a string")),
            (None, _) => err = Some(format!("unknown field `{name}`")),
        }
        err.is_none().then_some(())
    })
    .ok_or_else(|| err.unwrap_or_else(|| "not one flat JSON object".into()))?;
    let [instruct, input, output] = fields;
    Ok(DataEntry {
        instruct: instruct.ok_or("missing field `instruct`")?,
        input: input.ok_or("missing field `input`")?,
        output: output.ok_or("missing field `output`")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unescape_reverses_escape() {
        for s in ["", "plain", "a\nb\t\"q\" \\x\\", "\u{1}\u{1f}", "§☃"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s), "{s:?}");
        }
        assert_eq!(unescape("raw \" quote"), None);
        assert_eq!(unescape("dangling \\"), None);
        assert_eq!(unescape("bad \\q escape"), None);
    }

    #[test]
    fn round_trip_simple() {
        let e = DataEntry::new("give me X.", "some input", "some output");
        let line = to_json_line(&e);
        let back = from_jsonl(&line).unwrap();
        assert_eq!(back, vec![e]);
    }

    #[test]
    fn round_trip_special_chars() {
        let e = DataEntry::new(
            "i",
            "line1\nline2\t\"quoted\" \\backslash\\",
            "module m;\nendmodule\n",
        );
        let back = from_jsonl(&to_json_line(&e)).unwrap();
        assert_eq!(back, vec![e]);
    }

    #[test]
    fn multi_line_jsonl() {
        let es = vec![
            DataEntry::new("a", "b", "c"),
            DataEntry::new("d", "e\nf", "g"),
        ];
        let text = to_jsonl(&es);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(from_jsonl(&text).unwrap(), es);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_jsonl("not json").is_err());
        assert!(from_jsonl("{\"instruct\": \"a\"}").is_err()); // missing fields
        assert!(from_jsonl("{\"bogus\": \"a\"}").is_err());
    }

    #[test]
    fn control_chars_escaped() {
        let e = DataEntry::new("i", "\u{1}", "o");
        let line = to_json_line(&e);
        assert!(line.contains("\\u0001"));
        assert_eq!(from_jsonl(&line).unwrap()[0].input, "\u{1}");
    }

    #[test]
    fn every_control_char_round_trips() {
        // All of U+0000..U+001F must be escaped (RFC 8259 §7) and survive
        // a round trip; the named escapes get their short forms.
        let all: String = (0u32..0x20).map(|v| char::from_u32(v).unwrap()).collect();
        let e = DataEntry::new("i", all.clone(), "o");
        let line = to_json_line(&e);
        for c in all.chars() {
            assert!(
                !line.contains(c),
                "raw control char U+{:04X} leaked into output",
                c as u32
            );
        }
        assert!(line.contains("\\u0000"));
        assert!(line.contains("\\n") && line.contains("\\r") && line.contains("\\t"));
        assert_eq!(from_jsonl(&line).unwrap()[0].input, all);
    }

    #[test]
    fn lone_quotes_and_backslashes_round_trip() {
        // Pathological sequences that break naive escapers: a trailing
        // backslash, backslash-before-quote, and runs of both.
        for s in [
            "\\",
            "\"",
            "\\\"",
            "\"\\",
            "\\\\\"\"\\",
            "ends with backslash \\",
            "a\\\"b\\\\\"c",
        ] {
            let e = DataEntry::new(s, s, s);
            let back = from_jsonl(&to_json_line(&e)).unwrap();
            assert_eq!(back, vec![e], "failed on {s:?}");
        }
    }

    #[test]
    fn non_ascii_round_trips_unescaped() {
        // Non-ASCII passes through raw (JSON strings are Unicode); only
        // the mandatory characters are escaped.
        let s = "§ 3.2 – Fehlerbericht: モジュール m → ☃ (width ≥ 8)";
        let e = DataEntry::new("übersetze", s, "módulo\u{301}");
        let line = to_json_line(&e);
        assert!(line.contains('☃') && line.contains('§'));
        let back = from_jsonl(&line).unwrap();
        assert_eq!(back, vec![e]);
    }

    #[test]
    fn surrogate_pairs_decode_and_trailing_bytes_are_rejected() {
        let line = r#"{"instruct": "\ud83d\ude80", "input": "i", "output": "o"}"#;
        assert_eq!(from_jsonl(line).unwrap()[0].instruct, "🚀");
        // A lone surrogate is no character (it used to become U+FFFD).
        assert!(from_jsonl(r#"{"instruct": "\ud83d", "input": "i", "output": "o"}"#).is_err());
        // Two records glued on one line (an append after a torn write)
        // are not one record plus noise.
        let glued = format!("{}{}", to_json_line(&DataEntry::new("a", "b", "c")), "{\"x");
        let err = from_jsonl(&glued).unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn unicode_escapes_parse_back() {
        // Accept \uXXXX on input even though the writer emits raw UTF-8.
        let line = "{\"instruct\": \"\\u00a7\", \"input\": \"\\u2603\", \"output\": \"\\u0041\"}";
        let e = &from_jsonl(line).unwrap()[0];
        assert_eq!(e.instruct, "§");
        assert_eq!(e.input, "☃");
        assert_eq!(e.output, "A");
    }
}
