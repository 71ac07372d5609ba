//! Test-only oracle: the character-at-a-time lexer that `dda_verilog::lexer`
//! replaced, kept so the differential tests in `frontend_oracle.rs` can hold
//! the byte-level lexer to it. It is verbatim apart from imports and the
//! token type: token text is a slice of the source, taken over the same
//! characters the old code collected one at a time.

use dda_verilog::lexer::LexError;
use dda_verilog::token::{Keyword, Span, Token, TokenKind};

/// Multi-character operators, longest first so maximal munch works.
const OPERATORS: &[&str] = &[
    "<<<", ">>>", "===", "!==", "**", "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "+:", "-:",
    "~&", "~|", "~^", "^~", "=>", "->", "(", ")", "[", "]", "{", "}", ";", ",", ".", ":", "?", "@",
    "#", "=", "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^",
];

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn here(&self) -> (usize, u32, u32) {
        (self.pos, self.line, self.col)
    }
}

/// Lexes `src` into tokens (without a trailing EOF token).
///
/// # Errors
///
/// Returns [`LexError`] on characters outside the Verilog lexical grammar,
/// e.g. a stray backtick-free `` ` `` or non-ASCII punctuation.
///
/// ```
/// # fn main() -> Result<(), dda_verilog::lexer::LexError> {
/// let toks = dda_verilog::lexer::lex("assign y = a & b;")?;
/// assert_eq!(toks.len(), 7);
/// # Ok(())
/// # }
/// ```
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    'outer: loop {
        // Skip whitespace.
        while matches!(cur.peek(), Some(c) if c.is_whitespace()) {
            cur.bump();
        }
        let Some(c) = cur.peek() else { break };
        // Comments.
        if c == '/' && cur.peek2() == Some('/') {
            while let Some(c) = cur.peek() {
                if c == '\n' {
                    break;
                }
                cur.bump();
            }
            continue;
        }
        if c == '/' && cur.peek2() == Some('*') {
            cur.bump();
            cur.bump();
            loop {
                match cur.peek() {
                    Some('*') if cur.peek2() == Some('/') => {
                        cur.bump();
                        cur.bump();
                        break;
                    }
                    Some(_) => {
                        cur.bump();
                    }
                    None => break,
                }
            }
            continue;
        }
        let (start, line, col) = cur.here();
        // Compiler directive: consume to end of line.
        if c == '`' {
            while let Some(c) = cur.peek() {
                if c == '\n' {
                    break;
                }
                cur.bump();
            }
            let text = src[start..cur.pos].trim_end();
            out.push(Token::new(
                TokenKind::Directive(text),
                Span::new(start, cur.pos, line, col),
            ));
            continue;
        }
        // String literal.
        if c == '"' {
            cur.bump();
            let mut s = String::new();
            loop {
                match cur.bump() {
                    Some('"') | None => break,
                    Some('\\') => match cur.bump() {
                        Some('n') => s.push('\n'),
                        Some('t') => s.push('\t'),
                        Some('\\') => s.push('\\'),
                        Some('"') => s.push('"'),
                        Some(other) => {
                            s.push('\\');
                            s.push(other);
                        }
                        None => break,
                    },
                    Some(other) => s.push(other),
                }
            }
            out.push(Token::new(
                TokenKind::Str(s.into()),
                Span::new(start, cur.pos, line, col),
            ));
            continue;
        }
        // System identifier.
        if c == '$' {
            cur.bump();
            while matches!(cur.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                cur.bump();
            }
            out.push(Token::new(
                TokenKind::SysIdent(&src[start + 1..cur.pos]),
                Span::new(start, cur.pos, line, col),
            ));
            continue;
        }
        // Escaped identifier: `\` up to whitespace.
        if c == '\\' {
            cur.bump();
            while matches!(cur.peek(), Some(c) if !c.is_whitespace()) {
                cur.bump();
            }
            out.push(Token::new(
                TokenKind::Ident(&src[start + 1..cur.pos]),
                Span::new(start, cur.pos, line, col),
            ));
            continue;
        }
        // Number: decimal digits, optionally a based literal. A based literal
        // may also start with `'` directly (width inferred).
        if c.is_ascii_digit() || (c == '\'' && is_base_char(cur.peek2())) {
            while matches!(cur.peek(), Some(c) if c.is_ascii_digit() || c == '_') {
                cur.bump();
            }
            if cur.peek() == Some('\'') && is_base_char(cur.peek2()) {
                cur.bump(); // '
                            // optional signed marker
                if matches!(cur.peek(), Some('s') | Some('S')) {
                    cur.bump();
                }
                if cur.peek().is_some() {
                    cur.bump();
                }
                while matches!(cur.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '?')
                {
                    cur.bump();
                }
            } else if cur.peek() == Some('.')
                && matches!(cur.peek2(), Some(d) if d.is_ascii_digit())
            {
                // Real literal.
                cur.bump();
                while matches!(cur.peek(), Some(c) if c.is_ascii_digit() || c == '_') {
                    cur.bump();
                }
            }
            out.push(Token::new(
                TokenKind::Number(&src[start..cur.pos]),
                Span::new(start, cur.pos, line, col),
            ));
            continue;
        }
        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == '_' {
            while matches!(cur.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '$')
            {
                cur.bump();
            }
            let name = &src[start..cur.pos];
            let kind = match Keyword::from_str(name) {
                Some(kw) => TokenKind::Keyword(kw),
                None => TokenKind::Ident(name),
            };
            out.push(Token::new(kind, Span::new(start, cur.pos, line, col)));
            continue;
        }
        // Operators, longest match first.
        for op in OPERATORS {
            if cur.starts_with(op) {
                for _ in 0..op.len() {
                    cur.bump();
                }
                out.push(Token::new(
                    TokenKind::Op(op),
                    Span::new(start, cur.pos, line, col),
                ));
                continue 'outer;
            }
        }
        return Err(LexError {
            ch: c,
            span: Span::new(start, start + c.len_utf8(), line, col),
        });
    }
    Ok(out)
}

fn is_base_char(c: Option<char>) -> bool {
    matches!(
        c,
        Some('b')
            | Some('B')
            | Some('o')
            | Some('O')
            | Some('d')
            | Some('D')
            | Some('h')
            | Some('H')
            | Some('s')
            | Some('S')
    )
}
