//! Test-only oracle: `dda_core::json`'s escaper and decoders as they were
//! before they moved onto `dda_obs::event`, verbatim apart from imports
//! and visibility.

use dda_core::dataset::DataEntry;
use dda_core::json::ParseJsonError;

/// Escapes a string per JSON rules.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses JSONL text back into entries.
///
/// # Errors
///
/// Returns [`ParseJsonError`] for malformed lines or missing fields.
pub fn from_jsonl(text: &str) -> Result<Vec<DataEntry>, ParseJsonError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|m| ParseJsonError {
            line: line_no,
            message: m,
        })?);
    }
    Ok(out)
}

fn skip_ws_at(bytes: &[char], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn parse_string(bytes: &[char], pos: &mut usize) -> Result<String, String> {
    skip_ws_at(bytes, pos);
    if bytes.get(*pos) != Some(&'"') {
        return Err("expected a string".into());
    }
    *pos += 1;
    let mut s = String::new();
    while let Some(&c) = bytes.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(s),
            '\\' => {
                let Some(&e) = bytes.get(*pos) else {
                    return Err("dangling escape".into());
                };
                *pos += 1;
                match e {
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'u' => {
                        let hex: String = bytes
                            .get(*pos..*pos + 4)
                            .map(|c| c.iter().collect())
                            .unwrap_or_default();
                        *pos += 4;
                        let v = u32::from_str_radix(&hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        s.push(char::from_u32(v).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("unknown escape \\{other}")),
                }
            }
            c => s.push(c),
        }
    }
    Err("unterminated string".into())
}

/// Reverses [`escape`]: decodes the body of a JSON string (no surrounding
/// quotes). Returns `None` for malformed escapes or raw `"` characters.
pub fn unescape(s: &str) -> Option<String> {
    let quoted: Vec<char> = std::iter::once('"')
        .chain(s.chars())
        .chain(std::iter::once('"'))
        .collect();
    let mut pos = 0usize;
    let out = parse_string(&quoted, &mut pos).ok()?;
    // A raw quote in `s` would terminate the string early.
    (pos == quoted.len()).then_some(out)
}

pub fn parse_line(line: &str) -> Result<DataEntry, String> {
    let mut fields = [None::<String>, None, None];
    let names = ["instruct", "input", "output"];
    let bytes: Vec<char> = line.chars().collect();
    let mut pos = 0usize;
    let expect = |pos: &mut usize, c: char| -> Result<(), String> {
        skip_ws_at(&bytes, pos);
        if bytes.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{c}` at offset {pos:?}", pos = *pos))
        }
    };
    skip_ws_at(&bytes, &mut pos);
    expect(&mut pos, '{')?;
    loop {
        let key = parse_string(&bytes, &mut pos)?;
        expect(&mut pos, ':')?;
        let value = parse_string(&bytes, &mut pos)?;
        match names.iter().position(|n| *n == key) {
            Some(i) => fields[i] = Some(value),
            None => return Err(format!("unknown field `{key}`")),
        }
        skip_ws_at(&bytes, &mut pos);
        match bytes.get(pos) {
            Some(',') => {
                pos += 1;
                continue;
            }
            Some('}') => break,
            _ => return Err("expected `,` or `}`".into()),
        }
    }
    let [a, b, c] = fields;
    Ok(DataEntry {
        instruct: a.ok_or("missing field `instruct`")?,
        input: b.ok_or("missing field `input`")?,
        output: c.ok_or("missing field `output`")?,
    })
}
