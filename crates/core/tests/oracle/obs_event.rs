//! Test-only oracle: `dda_obs::event`'s escaper, event parser and trace
//! reader as they were before the parser became the workspace's one
//! flat-object reader, verbatim apart from imports.

use dda_obs::event::{Event, Value};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Read as _};
use std::path::Path;

/// Escapes `s` per JSON string rules — byte-identical to
/// `dda_core::json::escape`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(chars: &[char], pos: &mut usize) {
    while chars.get(*pos).is_some_and(|c| c.is_whitespace()) {
        *pos += 1;
    }
}

fn parse_string(chars: &[char], pos: &mut usize) -> Option<String> {
    if chars.get(*pos) != Some(&'"') {
        return None;
    }
    *pos += 1;
    let mut s = String::new();
    loop {
        let c = *chars.get(*pos)?;
        *pos += 1;
        match c {
            '"' => return Some(s),
            '\\' => {
                let e = *chars.get(*pos)?;
                *pos += 1;
                match e {
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'u' => {
                        let hex: String = chars.get(*pos..*pos + 4)?.iter().collect();
                        *pos += 4;
                        let v = u32::from_str_radix(&hex, 16).ok()?;
                        s.push(char::from_u32(v)?);
                    }
                    _ => return None,
                }
            }
            c => s.push(c),
        }
    }
}

fn parse_value(chars: &[char], pos: &mut usize) -> Option<Value> {
    skip_ws(chars, pos);
    match chars.get(*pos)? {
        '"' => parse_string(chars, pos).map(Value::Str),
        't' | 'f' => {
            let word: String = chars[*pos..]
                .iter()
                .take_while(|c| c.is_ascii_alphabetic())
                .collect();
            *pos += word.len();
            match word.as_str() {
                "true" => Some(Value::Bool(true)),
                "false" => Some(Value::Bool(false)),
                _ => None,
            }
        }
        _ => {
            let lit: String = chars[*pos..]
                .iter()
                .take_while(|c| matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .collect();
            if lit.is_empty() {
                return None;
            }
            *pos += lit.len();
            if lit.contains(['.', 'e', 'E']) {
                lit.parse().ok().map(Value::F64)
            } else if lit.starts_with('-') {
                lit.parse().ok().map(Value::I64)
            } else {
                lit.parse().ok().map(Value::U64)
            }
        }
    }
}

/// Parses one JSONL event line; `None` when malformed (e.g. a torn write).
pub fn parse(line: &str) -> Option<Event> {
    let chars: Vec<char> = line.trim().chars().collect();
    let mut pos = 0usize;
    skip_ws(&chars, &mut pos);
    if chars.get(pos) != Some(&'{') {
        return None;
    }
    pos += 1;
    let mut kind: Option<String> = None;
    let mut fields = Vec::new();
    loop {
        skip_ws(&chars, &mut pos);
        let name = parse_string(&chars, &mut pos)?;
        skip_ws(&chars, &mut pos);
        if chars.get(pos) != Some(&':') {
            return None;
        }
        pos += 1;
        let value = parse_value(&chars, &mut pos)?;
        if name == "ev" {
            kind = Some(value.as_str()?.to_string());
        } else {
            fields.push((name, value));
        }
        skip_ws(&chars, &mut pos);
        match chars.get(pos) {
            Some(',') => pos += 1,
            Some('}') => {
                pos += 1;
                break;
            }
            _ => return None,
        }
    }
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return None;
    }
    Some(Event {
        kind: kind?,
        fields,
    })
}

/// Loads every event from a JSONL trace file at `path`.
///
/// A torn **final** line (a run killed mid-write) is dropped silently; a
/// malformed line anywhere else is a hard error — the same durability
/// contract as the runtime journal reader.
///
/// # Errors
///
/// Propagates filesystem errors; reports corrupt non-final lines as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_trace(path: &Path) -> io::Result<Vec<Event>> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Some(ev) => out.push(ev),
            None if i + 1 == lines.len() => break, // torn tail from a kill
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: corrupt trace line {}", path.display(), i + 1),
                ))
            }
        }
    }
    Ok(out)
}
