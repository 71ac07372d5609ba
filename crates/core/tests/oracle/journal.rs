//! Test-only oracle: the run-engine journal's escaper and line reader as
//! they were before `dda_runtime::journal` moved onto `dda_obs::event`,
//! verbatim apart from imports and visibility.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Parses journal text into records plus the byte length of the sound
/// prefix (everything up to, but excluding, a torn final line).
pub fn parse_text(text: &str, path: &Path) -> io::Result<(Vec<(usize, String)>, usize)> {
    let pieces: Vec<&str> = text.split_inclusive('\n').collect();
    let mut out = Vec::with_capacity(pieces.len());
    let mut offset = 0usize;
    let mut good_len = 0usize;
    for (i, piece) in pieces.iter().enumerate() {
        offset += piece.len();
        let line = piece.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            good_len = offset;
            continue;
        }
        match parse_line(line) {
            Some(rec) => {
                out.push(rec);
                good_len = offset;
            }
            None if i + 1 == pieces.len() => break, // torn tail from a kill
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: corrupt journal line {}", path.display(), i + 1),
                ))
            }
        }
    }
    Ok((out, good_len))
}

/// Escapes `s` per JSON string rules into `out`.
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// Parses one journal line; `None` when malformed (torn write).
pub fn parse_line(line: &str) -> Option<(usize, String)> {
    let rest = line.trim().strip_prefix("{\"unit\":")?.trim_start();
    let digits_end = rest.find(|c: char| !c.is_ascii_digit())?;
    let unit: usize = rest[..digits_end].parse().ok()?;
    let rest = rest[digits_end..]
        .trim_start()
        .strip_prefix(',')?
        .trim_start()
        .strip_prefix("\"payload\":")?
        .trim_start()
        .strip_prefix('"')?;
    // Unescape up to the closing quote; the line must end with `"}`.
    let mut payload = String::with_capacity(rest.len());
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => break,
            '\\' => match chars.next()? {
                'n' => payload.push('\n'),
                'r' => payload.push('\r'),
                't' => payload.push('\t'),
                '"' => payload.push('"'),
                '\\' => payload.push('\\'),
                '/' => payload.push('/'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if hex.len() != 4 {
                        return None;
                    }
                    let v = u32::from_str_radix(&hex, 16).ok()?;
                    payload.push(char::from_u32(v)?);
                }
                _ => return None,
            },
            c => payload.push(c),
        }
    }
    if chars.as_str().trim() != "}" {
        return None;
    }
    Some((unit, payload))
}
