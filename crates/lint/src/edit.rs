//! Linting one-edit variants of a file from the point the edit can affect.
//!
//! A repair search lints many candidates that each change one span of the
//! same file. [`EditBase`] lexes and parses that file once, and checks each
//! candidate by re-lexing only the text around its edit and resuming the
//! parser at the last module item the edit cannot have changed. The report
//! is exactly [`check_source`](crate::check_source)'s, by two properties of
//! the frontend:
//!
//! - The lexer keeps no state between tokens but its position, line and
//!   column, and it reads at most two bytes past a token's end (`4'h`,
//!   `3.1`). So every token that ends at least two bytes before the edit
//!   is unchanged, and once the lexer stands after the edit at the start
//!   of a base token, the rest of the stream is the base's, shifted.
//! - The parser is LL(1) and records a [`Checkpoint`] at each head of a
//!   module's item loop. A checkpoint whose token is unchanged is reached
//!   in the same state, so the parse can resume there.

use crate::checker::{check_file, syntax_error};
use crate::diagnostic::LintReport;
use dda_verilog::lexer::{lex, LexError, Lexer};
use dda_verilog::parser::{checkpoints, parse_tokens, resume, Checkpoint};
use dda_verilog::token::{Span, Token};
use std::ops::Range;

/// A lexed and parsed file that one-edit candidates are checked against.
#[derive(Debug)]
pub struct EditBase<'a> {
    file_name: &'a str,
    src: &'a str,
    tokens: Vec<Token<'a>>,
    checkpoints: Vec<Checkpoint>,
}

impl<'a> EditBase<'a> {
    /// Lexes and parses `src`, reporting in terms of `file_name`; `None`
    /// when `src` does not lex.
    pub fn new(file_name: &'a str, src: &'a str) -> Option<Self> {
        let tokens = lex(src).ok()?;
        Some(EditBase {
            file_name,
            src,
            checkpoints: checkpoints(&tokens),
            tokens,
        })
    }

    /// The base file's tokens.
    pub fn tokens(&self) -> &[Token<'a>] {
        &self.tokens
    }

    /// Lints `candidate`, the base with the bytes in `replaced` replaced by
    /// some text, and says whether the parse resumed at a checkpoint. The
    /// report equals `check_source(file_name, candidate)`.
    ///
    /// # Panics
    ///
    /// When `candidate` does not keep the base's text before and after
    /// `replaced`.
    pub fn check(&self, candidate: &str, replaced: Range<usize>) -> (LintReport, bool) {
        assert!(
            candidate.len() + replaced.len() >= self.src.len()
                && candidate.starts_with(&self.src[..replaced.start])
                && candidate.ends_with(&self.src[replaced.end..]),
            "the candidate is not a one-edit variant of the base"
        );
        // Tokens the lexer produced without reading an edited byte.
        let kept = self
            .tokens
            .partition_point(|t| t.span.end + 2 <= replaced.start);
        let usable = self.checkpoints.partition_point(|c| c.token() < kept);
        let checkpoint = usable.checked_sub(1).map(|i| self.checkpoints[i]);
        let parsed = self
            .splice(candidate, replaced, kept)
            .map_err(From::from)
            .and_then(|tokens| {
                if let Some(at) = checkpoint {
                    resume(&tokens, at)?;
                }
                parse_tokens(&tokens)
            });
        let report = match parsed {
            Ok(sf) => check_file(self.file_name, &sf),
            Err(e) => syntax_error(self.file_name, &e),
        };
        (report, checkpoint.is_some())
    }

    /// `lex(candidate)`: the first `kept - 1` base tokens, then tokens
    /// lexed from the candidate until the lexer stands past the edit at the
    /// start of a base token, then the base's tokens from there, shifted.
    fn splice<'c>(
        &self,
        candidate: &'c str,
        replaced: Range<usize>,
        kept: usize,
    ) -> Result<Vec<Token<'c>>, LexError>
    where
        'a: 'c,
    {
        let mut out: Vec<Token<'c>> = Vec::with_capacity(self.tokens.len() + 4);
        // Restart at the last kept token: a token start both texts share.
        let mut lexer = match kept.checked_sub(1) {
            Some(last) => {
                out.extend_from_slice(&self.tokens[..last]);
                Lexer::resume(candidate, self.tokens[last].span)
            }
            None => Lexer::new(candidate),
        };
        // Where the edit's text ends in the candidate; from there on the
        // candidate's bytes are the base's from `replaced.end`.
        let text_end = candidate.len() - (self.src.len() - replaced.end);
        let mut next = self.tokens.partition_point(|t| t.span.start < replaced.end);
        loop {
            let at = lexer.skip_trivia();
            if at.start >= text_end {
                let base_at = at.start - text_end + replaced.end;
                next += self.tokens[next..].partition_point(|t| t.span.start < base_at);
                if let Some(anchor) = self.tokens.get(next).filter(|t| t.span.start == base_at) {
                    let anchor = anchor.span;
                    out.extend(self.tokens[next..].iter().map(|t| Token {
                        kind: t.kind.clone(),
                        span: shift(t.span, anchor, at),
                    }));
                    return Ok(out);
                }
            }
            match lexer.next_token()? {
                Some(tok) => out.push(tok),
                None => return Ok(out),
            }
        }
    }
}

/// `span`, a base span at or after `anchor`, moved so that `anchor` lands
/// on `at`. Columns move only on the anchor's line; later lines start
/// after the edit, so their columns are unchanged.
fn shift(span: Span, anchor: Span, at: Span) -> Span {
    let start = span.start - anchor.start + at.start;
    let col = if span.line == anchor.line {
        span.col - anchor.col + at.col
    } else {
        span.col
    };
    Span::new(
        start,
        start + (span.end - span.start),
        span.line - anchor.line + at.line,
        col,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_source;

    const SRC: &str = "module m(input clk, input [3:0] a, output reg [3:0] q);\n\
                       wire [3:0] w;\n\
                       assign w = a + 4'd1;\n\
                       always @(posedge clk) q <= w;\n\
                       endmodule\n";

    fn check_edit(src: &str, replaced: Range<usize>, text: &str) -> (LintReport, bool) {
        let candidate = format!("{}{text}{}", &src[..replaced.start], &src[replaced.end..]);
        let base = EditBase::new("e.v", src).expect("lexes");
        let (report, resumed) = base.check(&candidate, replaced);
        assert_eq!(report, check_source("e.v", &candidate), "{candidate:?}");
        (report, resumed)
    }

    #[test]
    fn an_edit_in_a_late_item_resumes_and_matches() {
        let at = SRC.find("q <= w").expect("in source");
        let (report, resumed) = check_edit(SRC, at..at + 1, "");
        assert!(!report.is_clean());
        assert!(resumed);
    }

    #[test]
    fn an_edit_in_the_header_parses_from_the_start() {
        let at = SRC.find("clk").expect("in source");
        let (report, resumed) = check_edit(SRC, at..at + 3, "clk;");
        assert!(!report.is_clean());
        assert!(!resumed);
    }

    #[test]
    fn a_clean_candidate_gets_the_full_check() {
        let broken = SRC.replacen("4'd1;", "4'd1", 1);
        let at = broken.find("4'd1").expect("in source") + 4;
        let (report, resumed) = check_edit(&broken, at..at, ";");
        assert!(report.is_clean(), "{report}");
        assert!(resumed);
    }

    #[test]
    fn glued_lexemes_across_the_edit_match() {
        // `4'd1` loses its base digit and `a` gains identifier bytes: both
        // neighbours of the edit are re-lexed, not copied.
        let at = SRC.find("'d1").expect("in source");
        check_edit(SRC, at + 2..at + 3, "");
        let at = SRC.find("a + 4").expect("in source");
        check_edit(SRC, at + 1..at + 1, "bc");
        // Opening a comment or a string swallows the rest of the file.
        for text in ["/*", "//", "\"", "\u{A0}", "\\"] {
            check_edit(SRC, at..at, text);
        }
    }

    #[test]
    fn a_token_whose_lookahead_reaches_the_edit_is_re_lexed() {
        // The lexer read two bytes past `3` to decide that `3.` is not a
        // real literal; a digit after the `.` makes it one, two tokens
        // before the edit.
        let src = SRC.replacen("4'd1", "3.", 1);
        let at = src.find("3.").expect("in source") + 2;
        check_edit(&src, at..at, "5");
    }

    #[test]
    fn a_checkpoint_the_previous_item_peeked_past_is_not_used() {
        // The `if` peeked at `e` to see it is no `else`; gluing `lse` onto
        // it changes how the `always` item ends, so the parse must not
        // resume at the checkpoint on `e`.
        let src = "module m(input x, output reg y);\n\
                   always @(*) if (x) y = 1;\n\
                   e u1();\n\
                   endmodule\n";
        let at = src.find("e u1").expect("in source") + 1;
        check_edit(src, at..at, "lse");
    }

    #[test]
    fn lines_and_columns_shift_past_the_edit() {
        let at = SRC.find("assign").expect("in source");
        for text in ["\n\n", "é ", "x;\n", ""] {
            check_edit(SRC, at..at, text);
            check_edit(SRC, at - 1..at, text);
        }
    }
}
