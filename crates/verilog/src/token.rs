//! Tokens and source spans produced by the [lexer](crate::lexer).
//!
//! Tokens borrow their text from the source they were lexed from, so a
//! token is cheap to clone and lexing allocates nothing per token, save
//! the unescaped text of a string literal that holds an escape.

use std::borrow::Cow;
use std::fmt;

/// A half-open byte range into the original source, with line/column of the
/// start position (1-based, as EDA tools report them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub col: u32,
}

impl Span {
    /// Creates a span covering `[start, end)` at `line:col`.
    pub fn new(start: usize, end: usize, line: u32, col: u32) -> Self {
        Span {
            start,
            end,
            line,
            col,
        }
    }

    /// A span that covers both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
            col: if other.line < self.line {
                other.col
            } else {
                self.col
            },
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Verilog keywords recognised by the lexer.
///
/// The set covers the synthesizable subset plus the testbench constructs the
/// [simulator](https://docs.rs/dda-sim) executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Keyword {
    Module,
    Endmodule,
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Integer,
    Real,
    Time,
    Genvar,
    Parameter,
    Localparam,
    Assign,
    Always,
    Initial,
    Begin,
    End,
    If,
    Else,
    Case,
    Casez,
    Casex,
    Endcase,
    Default,
    For,
    While,
    Repeat,
    Forever,
    Posedge,
    Negedge,
    Or,
    And,
    Not,
    Signed,
    Unsigned,
    Function,
    Endfunction,
    Task,
    Endtask,
    Generate,
    Endgenerate,
    Wait,
    Disable,
    Supply0,
    Supply1,
    Timescale,
}

impl Keyword {
    /// Looks up a keyword from its source spelling.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "module" => Module,
            "endmodule" => Endmodule,
            "input" => Input,
            "output" => Output,
            "inout" => Inout,
            "wire" => Wire,
            "reg" => Reg,
            "integer" => Integer,
            "real" => Real,
            "time" => Time,
            "genvar" => Genvar,
            "parameter" => Parameter,
            "localparam" => Localparam,
            "assign" => Assign,
            "always" => Always,
            "initial" => Initial,
            "begin" => Begin,
            "end" => End,
            "if" => If,
            "else" => Else,
            "case" => Case,
            "casez" => Casez,
            "casex" => Casex,
            "endcase" => Endcase,
            "default" => Default,
            "for" => For,
            "while" => While,
            "repeat" => Repeat,
            "forever" => Forever,
            "posedge" => Posedge,
            "negedge" => Negedge,
            "or" => Or,
            "and" => And,
            "not" => Not,
            "signed" => Signed,
            "unsigned" => Unsigned,
            "function" => Function,
            "endfunction" => Endfunction,
            "task" => Task,
            "endtask" => Endtask,
            "generate" => Generate,
            "endgenerate" => Endgenerate,
            "wait" => Wait,
            "disable" => Disable,
            "supply0" => Supply0,
            "supply1" => Supply1,
            _ => return None,
        })
    }

    /// The source spelling of the keyword.
    pub fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Module => "module",
            Endmodule => "endmodule",
            Input => "input",
            Output => "output",
            Inout => "inout",
            Wire => "wire",
            Reg => "reg",
            Integer => "integer",
            Real => "real",
            Time => "time",
            Genvar => "genvar",
            Parameter => "parameter",
            Localparam => "localparam",
            Assign => "assign",
            Always => "always",
            Initial => "initial",
            Begin => "begin",
            End => "end",
            If => "if",
            Else => "else",
            Case => "case",
            Casez => "casez",
            Casex => "casex",
            Endcase => "endcase",
            Default => "default",
            For => "for",
            While => "while",
            Repeat => "repeat",
            Forever => "forever",
            Posedge => "posedge",
            Negedge => "negedge",
            Or => "or",
            And => "and",
            Not => "not",
            Signed => "signed",
            Unsigned => "unsigned",
            Function => "function",
            Endfunction => "endfunction",
            Task => "task",
            Endtask => "endtask",
            Generate => "generate",
            Endgenerate => "endgenerate",
            Wait => "wait",
            Disable => "disable",
            Supply0 => "supply0",
            Supply1 => "supply1",
            Timescale => "`timescale",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kind of a lexed token, borrowing its text from the source `'src`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TokenKind<'src> {
    /// A keyword such as `module`.
    Keyword(Keyword),
    /// An identifier (including escaped identifiers, stored without `\`).
    Ident(&'src str),
    /// A system identifier such as `$display` (stored without `$`).
    SysIdent(&'src str),
    /// A number literal in source spelling, e.g. `8'hFF` or `42`.
    Number(&'src str),
    /// A string literal (contents, unescaped): borrowed from the source
    /// unless it holds an escape sequence.
    Str(Cow<'src, str>),
    /// An operator or punctuation, e.g. `<=`, `(`, `===`.
    Op(&'static str),
    /// A compiler directive such as `` `timescale 1ns/1ps `` (entire line).
    Directive(&'src str),
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Source-like rendering of the token (used in diagnostics and in
    /// token-level dataset generation).
    pub fn render(&self) -> String {
        match self {
            TokenKind::Keyword(k) => k.as_str().to_owned(),
            TokenKind::Ident(s) | TokenKind::Number(s) | TokenKind::Directive(s) => (*s).to_owned(),
            TokenKind::SysIdent(s) => format!("${s}"),
            TokenKind::Str(s) => format!("\"{s}\""),
            TokenKind::Op(s) => (*s).to_owned(),
            TokenKind::Eof => "<eof>".to_owned(),
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token<'src> {
    /// What was lexed.
    pub kind: TokenKind<'src>,
    /// Where it was lexed from.
    pub span: Span,
}

impl<'src> Token<'src> {
    /// Creates a token.
    pub fn new(kind: TokenKind<'src>, span: Span) -> Self {
        Token { kind, span }
    }

    /// True when the token is the given operator.
    pub fn is_op(&self, op: &str) -> bool {
        matches!(&self.kind, TokenKind::Op(o) if *o == op)
    }

    /// True when the token is the given keyword.
    pub fn is_kw(&self, kw: Keyword) -> bool {
        matches!(&self.kind, TokenKind::Keyword(k) if *k == kw)
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Module,
            Keyword::Endmodule,
            Keyword::Casez,
            Keyword::Posedge,
            Keyword::Localparam,
        ] {
            assert_eq!(Keyword::from_str(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::from_str("modul"), None);
    }

    #[test]
    fn span_join() {
        let a = Span::new(0, 3, 1, 1);
        let b = Span::new(10, 12, 2, 4);
        let j = a.to(b);
        assert_eq!(j.start, 0);
        assert_eq!(j.end, 12);
        assert_eq!(j.line, 1);
    }

    #[test]
    fn token_render() {
        assert_eq!(TokenKind::SysIdent("display").render(), "$display");
        assert_eq!(TokenKind::Op("<=").render(), "<=");
        assert_eq!(TokenKind::Str("hi".into()).render(), "\"hi\"");
    }
}
