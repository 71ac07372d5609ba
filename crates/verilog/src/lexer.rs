//! Hand-written Verilog lexer.
//!
//! Produces a flat [`Token`] stream with byte-accurate [`Span`]s. Comments
//! and whitespace are skipped; compiler directives (`` `timescale `` etc.)
//! are kept as single [`TokenKind::Directive`] tokens so the pretty-printer
//! can round-trip them.
//!
//! The cursor reads bytes. Every token of the lexical grammar starts with an
//! ASCII byte, so the hot loop never decodes UTF-8: non-ASCII input is only
//! decoded where a `char` decides the outcome — Unicode whitespace, the
//! payload of escaped identifiers, strings and based literals, and the
//! offending character of a [`LexError`]. Columns count characters, as
//! before, so a multi-byte character still advances the column by one.

use crate::token::{Keyword, Span, Token, TokenKind};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// Error produced when the lexer meets a character it cannot tokenize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Offending character.
    pub ch: char,
    /// Location of the character.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unexpected character `{}` at {}",
            self.ch.escape_default(),
            self.span
        )
    }
}

impl Error for LexError {}

/// The operator or punctuation starting `rest`, by maximal munch.
///
/// Dispatches on the first byte; within an arm the longer spellings come
/// first, so the first matching pattern is the longest operator.
fn operator(rest: &[u8]) -> Option<&'static str> {
    Some(match rest {
        [b'<', b'<', b'<', ..] => "<<<",
        [b'<', b'=', ..] => "<=",
        [b'<', b'<', ..] => "<<",
        [b'<', ..] => "<",
        [b'>', b'>', b'>', ..] => ">>>",
        [b'>', b'=', ..] => ">=",
        [b'>', b'>', ..] => ">>",
        [b'>', ..] => ">",
        [b'=', b'=', b'=', ..] => "===",
        [b'=', b'=', ..] => "==",
        [b'=', b'>', ..] => "=>",
        [b'=', ..] => "=",
        [b'!', b'=', b'=', ..] => "!==",
        [b'!', b'=', ..] => "!=",
        [b'!', ..] => "!",
        [b'*', b'*', ..] => "**",
        [b'*', ..] => "*",
        [b'&', b'&', ..] => "&&",
        [b'&', ..] => "&",
        [b'|', b'|', ..] => "||",
        [b'|', ..] => "|",
        [b'+', b':', ..] => "+:",
        [b'+', ..] => "+",
        [b'-', b':', ..] => "-:",
        [b'-', b'>', ..] => "->",
        [b'-', ..] => "-",
        [b'~', b'&', ..] => "~&",
        [b'~', b'|', ..] => "~|",
        [b'~', b'^', ..] => "~^",
        [b'~', ..] => "~",
        [b'^', b'~', ..] => "^~",
        [b'^', ..] => "^",
        [b'(', ..] => "(",
        [b')', ..] => ")",
        [b'[', ..] => "[",
        [b']', ..] => "]",
        [b'{', ..] => "{",
        [b'}', ..] => "}",
        [b';', ..] => ";",
        [b',', ..] => ",",
        [b'.', ..] => ".",
        [b':', ..] => ":",
        [b'?', ..] => "?",
        [b'@', ..] => "@",
        [b'#', ..] => "#",
        [b'/', ..] => "/",
        [b'%', ..] => "%",
        _ => return None,
    })
}

/// Whether `b` starts a UTF-8 character (is not a continuation byte).
fn starts_char(b: u8) -> bool {
    b & 0xC0 != 0x80
}

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// The character at the cursor, decoded only when it is not ASCII.
    fn peek_char(&self) -> Option<char> {
        match self.peek()? {
            b if b.is_ascii() => Some(b as char),
            _ => self.src[self.pos..].chars().next(),
        }
    }

    /// Consumes `n` bytes known to be ASCII and free of newlines.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.col += n as u32;
    }

    /// Consumes one character of any kind.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes the next `n` bytes, whatever they hold, keeping the line and
    /// column in step. `pos + n` must fall on a character boundary.
    fn skip(&mut self, n: usize) {
        for &b in &self.bytes[self.pos..self.pos + n] {
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if starts_char(b) {
                self.col += 1;
            }
        }
        self.pos += n;
    }

    /// Consumes up to (not including) the next newline or the end of input.
    fn skip_line(&mut self) {
        let rest = &self.bytes[self.pos..];
        let n = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        self.skip(n);
    }

    /// Consumes ASCII bytes while `pred` holds; `pred` must reject `\n`.
    fn eat_while(&mut self, pred: impl Fn(u8) -> bool) {
        let n = self.bytes[self.pos..]
            .iter()
            .take_while(|&&b| pred(b))
            .count();
        self.advance(n);
    }

    /// Skips whitespace, Unicode whitespace included.
    fn skip_whitespace(&mut self) {
        while self.peek_char().is_some_and(char::is_whitespace) {
            self.bump_char();
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
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
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    while let Some(tok) = lexer.next_token()? {
        out.push(tok);
    }
    Ok(out)
}

/// A lexer over one source, one token at a time.
///
/// The lexer carries no state from one token to the next beyond its
/// position, line and column, so it can start at any token start of a
/// source ([`Lexer::resume`]) and produce exactly the tokens [`lex`] would
/// from there on.
pub struct Lexer<'src> {
    cur: Cursor<'src>,
}

impl<'src> Lexer<'src> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            cur: Cursor::new(src),
        }
    }

    /// A lexer standing where [`lex`] produced a token with span `at`: its
    /// start offset, line and column.
    pub fn resume(src: &'src str, at: Span) -> Self {
        let mut cur = Cursor::new(src);
        cur.pos = at.start;
        cur.line = at.line;
        cur.col = at.col;
        Lexer { cur }
    }

    /// Skips whitespace and comments, and returns the empty span where the
    /// next token, or the end of input, starts.
    pub fn skip_trivia(&mut self) -> Span {
        let cur = &mut self.cur;
        loop {
            cur.skip_whitespace();
            // An unterminated block comment runs to the end of input.
            match (cur.peek(), cur.peek_at(1)) {
                (Some(b'/'), Some(b'/')) => cur.skip_line(),
                (Some(b'/'), Some(b'*')) => {
                    let rest = &cur.bytes[cur.pos + 2..];
                    let body = rest
                        .windows(2)
                        .position(|w| w == b"*/")
                        .map_or(rest.len(), |i| i + 2);
                    cur.skip(2 + body);
                }
                _ => return Span::new(cur.pos, cur.pos, cur.line, cur.col),
            }
        }
    }

    /// The next token, or `None` at the end of input.
    ///
    /// # Errors
    ///
    /// Returns [`LexError`] as [`lex`] does.
    pub fn next_token(&mut self) -> Result<Option<Token<'src>>, LexError> {
        let here = self.skip_trivia();
        let cur = &mut self.cur;
        let src = cur.src;
        let Some(b) = cur.peek() else {
            return Ok(None);
        };
        let (start, line, col) = (here.start, here.line, here.col);
        let kind = match b {
            // Compiler directive: consume to end of line.
            b'`' => {
                cur.skip_line();
                TokenKind::Directive(src[start..cur.pos].trim_end())
            }
            b'"' => {
                cur.advance(1);
                TokenKind::Str(string_body(cur))
            }
            // System identifier.
            b'$' => {
                cur.advance(1);
                cur.eat_while(is_ident_byte);
                TokenKind::SysIdent(&src[start + 1..cur.pos])
            }
            // Escaped identifier: `\` up to whitespace.
            b'\\' => {
                cur.advance(1);
                while cur.peek_char().is_some_and(|c| !c.is_whitespace()) {
                    cur.bump_char();
                }
                TokenKind::Ident(&src[start + 1..cur.pos])
            }
            // Number: decimal digits, optionally a based literal. A based
            // literal may also start with `'` directly (width inferred).
            b'0'..=b'9' | b'\'' if b != b'\'' || is_base_byte(cur.peek_at(1)) => {
                cur.eat_while(|b| b.is_ascii_digit() || b == b'_');
                if cur.peek() == Some(b'\'') && is_base_byte(cur.peek_at(1)) {
                    cur.advance(1);
                    // Optional signed marker, then the base: whatever
                    // character follows is taken as the base, even a newline.
                    if matches!(cur.peek(), Some(b's' | b'S')) {
                        cur.advance(1);
                    }
                    cur.bump_char();
                    cur.eat_while(|b| is_ident_byte(b) || b == b'?');
                } else if cur.peek() == Some(b'.')
                    && cur.peek_at(1).is_some_and(|d| d.is_ascii_digit())
                {
                    // Real literal.
                    cur.advance(1);
                    cur.eat_while(|b| b.is_ascii_digit() || b == b'_');
                }
                TokenKind::Number(&src[start..cur.pos])
            }
            // Identifier / keyword.
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                cur.eat_while(|b| is_ident_byte(b) || b == b'$');
                let name = &src[start..cur.pos];
                match Keyword::from_str(name) {
                    Some(kw) => TokenKind::Keyword(kw),
                    None => TokenKind::Ident(name),
                }
            }
            _ => match operator(&cur.bytes[start..]) {
                Some(op) => {
                    cur.advance(op.len());
                    TokenKind::Op(op)
                }
                None => {
                    let ch = cur.peek_char().expect("a byte is left");
                    return Err(LexError {
                        ch,
                        span: Span::new(start, start + ch.len_utf8(), line, col),
                    });
                }
            },
        };
        Ok(Some(Token::new(kind, Span::new(start, cur.pos, line, col))))
    }
}

/// Consumes a string literal after its opening quote, through the closing
/// quote or the end of input, and returns its unescaped contents: a slice
/// of the source unless an escape sequence had to be rewritten.
fn string_body<'src>(cur: &mut Cursor<'src>) -> Cow<'src, str> {
    let start = cur.pos;
    let rest = &cur.bytes[start..];
    // The body runs to the first quote no backslash escapes, or to the end.
    let (mut len, mut escapes) = (0, false);
    while let Some(&b) = rest.get(len) {
        match b {
            b'"' => break,
            b'\\' => {
                escapes = true;
                len += 2;
            }
            _ => len += 1,
        }
    }
    let len = len.min(rest.len());
    let body = &cur.src[start..start + len];
    cur.skip(len);
    if cur.peek() == Some(b'"') {
        cur.advance(1);
    }
    if !escapes {
        return Cow::Borrowed(body);
    }
    // Unescaping never lengthens the text, so one allocation holds it.
    let mut s = String::with_capacity(len);
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            s.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => s.push('\n'),
            Some('t') => s.push('\t'),
            Some('\\') => s.push('\\'),
            Some('"') => s.push('"'),
            Some(other) => {
                s.push('\\');
                s.push(other);
            }
            None => break,
        }
    }
    Cow::Owned(s)
}

fn is_base_byte(b: Option<u8>) -> bool {
    matches!(
        b,
        Some(b'b' | b'B' | b'o' | b'O' | b'd' | b'D' | b'h' | b'H' | b's' | b'S')
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_module_header() {
        let toks = kinds("module m(input a, output reg [1:0] b);");
        assert_eq!(toks[0], TokenKind::Keyword(Keyword::Module));
        assert_eq!(toks[1], TokenKind::Ident("m"));
        assert!(toks.contains(&TokenKind::Op("[")));
        assert_eq!(*toks.last().unwrap(), TokenKind::Op(";"));
    }

    #[test]
    fn skips_comments() {
        let toks = kinds("a // line\n/* block\n comment */ b");
        assert_eq!(toks, vec![TokenKind::Ident("a"), TokenKind::Ident("b")]);
    }

    #[test]
    fn lexes_based_literals() {
        let toks = kinds("8'hFF 'b10x1 4'd12 2'sb11 13");
        let nums: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                TokenKind::Number(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["8'hFF", "'b10x1", "4'd12", "2'sb11", "13"]);
    }

    #[test]
    fn lexes_real_literal() {
        let toks = kinds("3.14");
        assert_eq!(toks, vec![TokenKind::Number("3.14")]);
    }

    #[test]
    fn maximal_munch_on_operators() {
        let toks = kinds("a<=b <<< c === d !== e");
        let ops: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                TokenKind::Op(o) => Some(*o),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["<=", "<<<", "===", "!=="]);
    }

    #[test]
    fn lexes_system_tasks_and_strings() {
        let toks = kinds(r#"$display("err %d\n", x);"#);
        assert_eq!(toks[0], TokenKind::SysIdent("display"));
        assert_eq!(toks[2], TokenKind::Str("err %d\n".into()));
    }

    #[test]
    fn directive_is_one_token() {
        let toks = kinds("`timescale 1ns/1ps\nmodule m; endmodule");
        assert!(matches!(&toks[0], TokenKind::Directive(d) if d.starts_with("`timescale")));
        assert_eq!(toks[1], TokenKind::Keyword(Keyword::Module));
    }

    #[test]
    fn spans_have_lines_and_columns() {
        let toks = lex("module m;\n  wire w;\nendmodule").unwrap();
        let wire = toks.iter().find(|t| t.is_kw(Keyword::Wire)).unwrap();
        assert_eq!(wire.span.line, 2);
        assert_eq!(wire.span.col, 3);
    }

    #[test]
    fn escaped_identifier() {
        let toks = kinds(r"\bus[0] rest");
        assert_eq!(toks[0], TokenKind::Ident("bus[0]"));
        assert_eq!(toks[1], TokenKind::Ident("rest"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("module \u{00A7}").is_err());
    }

    #[test]
    fn unterminated_block_comment_is_skipped() {
        let toks = kinds("a /* never closed");
        assert_eq!(toks, vec![TokenKind::Ident("a")]);
    }
}
