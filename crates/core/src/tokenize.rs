//! Shared tokenizer for mixed natural-language / code text.
//!
//! Used for dataset length accounting, TF-IDF retrieval in the simulated
//! LM, and n-gram language modelling. Splits on whitespace, keeps
//! identifiers/numbers whole, and emits punctuation as single-character
//! tokens (so `count<=count+1;` and `count <= count + 1 ;` tokenize
//! identically).
//!
//! Two implementations share the token grammar:
//!
//! * [`tokenize`] / [`tokenize_lower`] materialise `Vec<String>` — the
//!   historical API, kept for callers that want owned tokens. Lowercasing
//!   happens per character inside the loop (no intermediate lowercased
//!   copy of the whole input).
//! * [`tokenize_syms`] streams interned [`Sym`]s with **zero per-token
//!   heap allocation**: an all-ASCII text is scanned as bytes, each word
//!   lowercased into a stack buffer, and the symbol comes from the
//!   per-thread cache in front of the global interner (a text with any
//!   non-ASCII byte is read char by char instead). This is the hot path
//!   the retrieval index and the n-gram model are built on.
//!   [`lookup_syms`] is its query-side twin: it only looks symbols up, so
//!   query text never grows the interner.
//!
//! Lowercasing is `char::to_lowercase` applied character-wise. (Unlike
//! `str::to_lowercase` this does not apply the Greek final-sigma context
//! rule; both implementations here agree with each other by construction,
//! which is what the equivalence suites require.) On ASCII it is
//! `u8::to_ascii_lowercase`, and ASCII whitespace is exactly what
//! `char::is_whitespace` accepts, `\x0B` included.

use crate::intern::{intern_token, lookup_token, Sym};

/// Tokenizes text into words, numbers and punctuation.
///
/// ```
/// let toks = dda_core::tokenize::tokenize("count <= count + 2'd1;");
/// assert_eq!(toks, vec!["count", "<", "=", "count", "+", "2", "'", "d1", ";"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    tokenize_fold(text, false)
}

/// Tokenizes and lowercases — the normal form for retrieval.
///
/// Thin wrapper over the shared tokenizer loop with per-char lowercasing
/// enabled; existing callers see the same signature and tokens as before.
pub fn tokenize_lower(text: &str) -> Vec<String> {
    tokenize_fold(text, true)
}

/// One pass of the token grammar, optionally lowercasing each char.
fn tokenize_fold(text: &str, lower: bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    {
        let mut step = |c: char| {
            if c.is_alphanumeric() || c == '_' {
                cur.push(c);
            } else {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                if !c.is_whitespace() {
                    out.push(c.to_string());
                }
            }
        };
        for c in text.chars() {
            if lower {
                for lc in c.to_lowercase() {
                    step(lc);
                }
            } else {
                step(c);
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Counts tokens without materialising them (dataset length accounting).
///
/// Equals `tokenize(text).len()` with zero allocation.
pub fn token_count(text: &str) -> usize {
    let mut n = 0usize;
    let mut in_word = false;
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            if !in_word {
                n += 1;
                in_word = true;
            }
        } else {
            in_word = false;
            if !c.is_whitespace() {
                n += 1;
            }
        }
    }
    n
}

/// Streams the lowercased tokens of `text` as interned symbols.
///
/// Resolving each symbol through the global interner yields exactly
/// [`tokenize_lower`]`(text)` (property-tested in `tests/tokenize_syms.rs`),
/// without ever materialising a `Vec<String>` or a lowercased copy of the
/// input. An all-ASCII text is scanned as bytes, each word lowercased
/// into a stack buffer; any other text takes the char-by-char path with
/// `char::to_lowercase`. Symbols come from the per-thread cache in front
/// of the global interner (see [`crate::intern`]).
///
/// ```
/// use dda_core::intern::resolve;
/// let toks: Vec<String> = dda_core::tokenize::tokenize_syms("Count <= 1;")
///     .map(|s| resolve(s).to_string())
///     .collect();
/// assert_eq!(toks, vec!["count", "<", "=", "1", ";"]);
/// ```
pub fn tokenize_syms(text: &str) -> SymTokens<'_> {
    SymTokens(Scan::new(text))
}

/// The tokens of [`tokenize_syms`], looked up without interning: `None`
/// for a token no one has interned.
///
/// The query-side tokenizer. A word the interner has never seen is in no
/// vocabulary, so a retrieval query can drop it; and because nothing is
/// inserted, free-text queries cannot grow the process-wide interner.
///
/// ```
/// use dda_core::tokenize::{lookup_syms, tokenize_syms};
/// let known: Vec<_> = tokenize_syms("module m;").collect();
/// let found: Vec<_> = lookup_syms("MODULE xyzzy_unseen m;").collect();
/// assert_eq!(found, vec![Some(known[0]), None, Some(known[1]), Some(known[2])]);
/// ```
pub fn lookup_syms(text: &str) -> LookupSyms<'_> {
    LookupSyms(Scan::new(text))
}

/// Iterator returned by [`tokenize_syms`].
#[derive(Debug, Clone)]
pub struct SymTokens<'a>(Scan<'a>);

impl Iterator for SymTokens<'_> {
    type Item = Sym;

    #[inline]
    fn next(&mut self) -> Option<Sym> {
        self.0.next_with(intern_token)
    }
}

/// Iterator returned by [`lookup_syms`].
#[derive(Debug, Clone)]
pub struct LookupSyms<'a>(Scan<'a>);

impl Iterator for LookupSyms<'_> {
    type Item = Option<Sym>;

    #[inline]
    fn next(&mut self) -> Option<Option<Sym>> {
        self.0.next_with(lookup_token)
    }
}

/// Whitespace as `char::is_whitespace` sees an ASCII byte: `\t \n \x0B
/// \x0C \r` and space. (`u8::is_ascii_whitespace` leaves out `\x0B`.)
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// An ASCII word byte: `char::is_alphanumeric` or `_`.
fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Words up to this long are lowercased into a stack buffer.
const STACK_WORD: usize = 64;

/// The token grammar's cursor over one text.
#[derive(Debug, Clone)]
enum Scan<'a> {
    /// An all-ASCII text, read as bytes from `pos`.
    Bytes { text: &'a [u8], pos: usize },
    /// Any other text. Some non-ASCII chars lowercase to ASCII (`K`,
    /// U+212A) or to two chars (`İ`), so it is read char by char.
    Chars(CharScan<'a>),
}

impl<'a> Scan<'a> {
    fn new(text: &'a str) -> Self {
        if text.is_ascii() {
            Scan::Bytes {
                text: text.as_bytes(),
                pos: 0,
            }
        } else {
            Scan::Chars(CharScan {
                chars: text.chars(),
                lower: None,
                stashed: None,
                buf: String::new(),
            })
        }
    }

    /// Hands the next token's lowercased UTF-8 bytes to `f`.
    #[inline]
    fn next_with<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        match self {
            Scan::Bytes { text, pos } => {
                let rest = &text[*pos..];
                let Some(start) = rest.iter().position(|&b| !is_space(b)) else {
                    *pos = text.len();
                    return None;
                };
                let rest = &rest[start..];
                let len = if is_word(rest[0]) {
                    rest.iter().position(|&b| !is_word(b)).unwrap_or(rest.len())
                } else {
                    1
                };
                *pos += start + len;
                let tok = &rest[..len];
                Some(match len {
                    1 => f(&[tok[0].to_ascii_lowercase()]),
                    2..=STACK_WORD => {
                        let mut buf = [0u8; STACK_WORD];
                        let buf = &mut buf[..len];
                        for (lower, b) in buf.iter_mut().zip(tok) {
                            *lower = b.to_ascii_lowercase();
                        }
                        f(buf)
                    }
                    _ => f(&tok.to_ascii_lowercase()),
                })
            }
            Scan::Chars(chars) => chars.advance().then(|| f(chars.buf.as_bytes())),
        }
    }
}

/// The char-by-char cursor of [`Scan::Chars`].
#[derive(Debug, Clone)]
struct CharScan<'a> {
    chars: std::str::Chars<'a>,
    /// In-flight lowercase expansion of one input char (`İ` expands to two).
    lower: Option<std::char::ToLowercase>,
    /// A punctuation char that terminated a word and still awaits emission.
    stashed: Option<char>,
    /// The current token, reused for every token.
    buf: String,
}

impl CharScan<'_> {
    /// Next lowercased char, draining any pending expansion first.
    fn next_lower(&mut self) -> Option<char> {
        loop {
            if let Some(exp) = &mut self.lower {
                if let Some(c) = exp.next() {
                    return Some(c);
                }
                self.lower = None;
            }
            self.lower = Some(self.chars.next()?.to_lowercase());
        }
    }

    /// Reads the next token into `buf`; `false` at the end of the text.
    fn advance(&mut self) -> bool {
        self.buf.clear();
        while let Some(c) = self.stashed.take().or_else(|| self.next_lower()) {
            if c.is_alphanumeric() || c == '_' {
                self.buf.push(c);
            } else if !self.buf.is_empty() {
                // A word just ended. A non-whitespace terminator is itself
                // a token; it cannot be pushed back into the char stream,
                // so it waits in `stashed` for the next call.
                if !c.is_whitespace() {
                    self.stashed = Some(c);
                }
                return true;
            } else if !c.is_whitespace() {
                self.buf.push(c);
                return true;
            }
        }
        !self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::resolve;

    fn via_syms(text: &str) -> Vec<String> {
        tokenize_syms(text)
            .map(|s| resolve(s).to_string())
            .collect()
    }

    #[test]
    fn splits_code() {
        assert_eq!(
            tokenize("assign y=a&b;"),
            vec!["assign", "y", "=", "a", "&", "b", ";"]
        );
    }

    #[test]
    fn whitespace_invariant() {
        assert_eq!(tokenize("a+b"), tokenize("a + b"));
        assert_eq!(tokenize("a+b"), tokenize("  a\n+\tb "));
    }

    #[test]
    fn keeps_identifiers_whole() {
        assert_eq!(tokenize("shift_reg_12"), vec!["shift_reg_12"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize_lower("Module X"), vec!["module", "x"]);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n").is_empty());
        assert!(via_syms("").is_empty());
    }

    #[test]
    fn token_count_matches_tokenize() {
        for t in [
            "",
            "   ",
            "assign y=a&b;",
            "count <= count + 2'd1;",
            "a_b_c 12 !! x",
            "Ünïcode mixed: ΣΔ text_4?",
        ] {
            assert_eq!(token_count(t), tokenize(t).len(), "input {t:?}");
        }
    }

    #[test]
    fn syms_match_tokenize_lower() {
        for t in [
            "assign Y = A & b;",
            "count <= count + 2'd1;",
            "  spaced\tout\ninput  ",
            "!@#$",
            "İstanbul MODULE_7",
            "ΣΔ mixed Ünïcode",
        ] {
            assert_eq!(via_syms(t), tokenize_lower(t), "input {t:?}");
        }
    }

    #[test]
    fn syms_intern_consistently() {
        let a: Vec<Sym> = tokenize_syms("clk rst clk").collect();
        assert_eq!(a[0], a[2]);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn multi_char_lowercase_expansion() {
        // 'İ' lowercases to "i\u{307}"; the combining mark is not
        // alphanumeric, so it splits the word — both paths must agree.
        assert_eq!(via_syms("İX"), tokenize_lower("İX"));
    }
}
