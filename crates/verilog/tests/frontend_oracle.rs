//! Differential tests: the byte-level lexer, the precedence-climbing parser
//! and the checker built on them against the character-at-a-time lexer and
//! the eleven-level recursive-descent parser they replaced (kept under
//! `tests/oracle/`).
//!
//! "Equal" is strict: the same token kinds and spans or the same
//! `LexError`; the same AST or the same `ParseError` (message and span);
//! the same `LintReport`, diagnostics and rendering alike.

mod oracle;

use dda_benchmarks::{rtllm_suite, thakur_suite};
use dda_core::repair::{break_verilog, RepairOptions};
use dda_eval::repair_eval::{broken_input, RepairProtocol};
use dda_lint::{DiagKind, Diagnostic, LintReport};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `check_source` as it was: the oracle parser, then the same checker.
fn oracle_check(file_name: &str, src: &str) -> LintReport {
    match oracle::parser::parse(src) {
        Ok(sf) => dda_lint::check_file(file_name, &sf),
        Err(e) => {
            let mut report = LintReport::new(file_name);
            report.diagnostics.push(Diagnostic::error(
                DiagKind::SyntaxError,
                format!("syntax error, unexpected '{}'", e.found),
                e.span,
            ));
            report
        }
    }
}

fn assert_same_lint(file_name: &str, src: &str, report: &LintReport) {
    let expected = oracle_check(file_name, src);
    assert_eq!(report.render(), expected.render(), "rendering of\n{src}");
    assert_eq!(report, &expected, "report for\n{src}");
}

/// Lexer, parser and checker all agree with the oracle on `src`.
fn assert_same_frontend(file_name: &str, src: &str) {
    assert_eq!(
        dda_verilog::lex(src),
        oracle::lexer::lex(src),
        "tokens of\n{src:?}"
    );
    assert_eq!(
        dda_verilog::parse(src),
        oracle::parser::parse(src),
        "parse of\n{src:?}"
    );
    assert_same_lint(file_name, src, &dda_lint::check_source(file_name, src));
}

/// `src` and a few `break_verilog` mutations of it (1..=3 rules each).
fn with_mutations(src: &str, seed: u64) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let opts = RepairOptions { max_mutations: 3 };
    let mut out = vec![src.to_owned()];
    out.extend((0..4).filter_map(|_| break_verilog(src, &opts, &mut rng).map(|b| b.source)));
    out
}

#[test]
fn corpus_modules_and_their_mutations_match_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(2024);
    let corpus = dda_corpus::generate_corpus(192, &mut rng);
    let mut checked = 0;
    for (i, m) in corpus.iter().enumerate() {
        for src in with_mutations(&m.source, i as u64) {
            assert_same_frontend("corpus.v", &src);
            checked += 1;
        }
    }
    assert!(checked > 2 * corpus.len(), "only {checked} inputs");
}

#[test]
fn benchmark_references_and_their_mutations_match_the_oracle() {
    let problems: Vec<_> = rtllm_suite().into_iter().chain(thakur_suite()).collect();
    for (i, p) in problems.iter().enumerate() {
        let file = format!("{}.v", p.id);
        for src in with_mutations(p.reference, 7 + i as u64) {
            assert_same_frontend(&file, &src);
        }
        // Testbenches reach the rest of the grammar: strings, system
        // tasks, delays and event controls.
        assert_same_frontend("tb.v", p.testbench);
    }
}

#[test]
fn every_fix_candidate_for_rtllm_broken_inputs_matches_the_oracle() {
    let protocol = RepairProtocol::default();
    let mut linted = 0usize;
    for p in rtllm_suite() {
        let (_, wrong) = broken_input(&p, &protocol);
        let file = format!("{}.v", p.id);
        dda_slm::fixer::try_fix_observed(&file, &wrong, 2400, |src, report| {
            assert_eq!(dda_verilog::lex(src), oracle::lexer::lex(src), "{src:?}");
            assert_eq!(
                dda_verilog::parse(src),
                oracle::parser::parse(src),
                "{src:?}"
            );
            assert_same_lint(&file, src, report);
            linted += 1;
        });
    }
    assert!(linted > 1000, "only {linted} candidates");
}

#[test]
fn nesting_limit_triggers_at_the_same_depth() {
    type Shape = fn(usize) -> String;
    let shapes: [(&str, Shape); 6] = [
        ("parens", |d| {
            format!("assign y = {}a{};", "(".repeat(d), ")".repeat(d))
        }),
        ("concat", |d| {
            format!("assign y = {}a{};", "{".repeat(d), "}".repeat(d))
        }),
        ("unary", |d| format!("assign y = {}a;", "~".repeat(d))),
        ("binary chain", |d| {
            format!("assign y = {}a{};", "(a ** b + ".repeat(d), ")".repeat(d))
        }),
        ("ternary", |d| {
            format!("assign y = {}b;", "a ? b : ".repeat(d))
        }),
        ("statements", |d| {
            format!(
                "initial {}$finish;{}",
                "begin if (a) ".repeat(d),
                " end".repeat(d)
            )
        }),
    ];
    for (name, shape) in shapes {
        let mut limit_at = None;
        for depth in 0..80 {
            let src = format!("module m(input a, b, output y); {} endmodule", shape(depth));
            let new = dda_verilog::parse(&src);
            assert_eq!(new, oracle::parser::parse(&src), "{name} at depth {depth}");
            if let Err(e) = &new {
                if e.expected.contains("depth limit") && limit_at.is_none() {
                    limit_at = Some(depth);
                }
            }
        }
        assert!(limit_at.is_some(), "{name}: the limit never fired below 80");
    }
}

/// Fragments that stress the lexer's byte-level paths: words; whitespace,
/// Unicode whitespace (vertical tab, form feed, NBSP, NEL, em and
/// ideographic spaces) and non-ASCII letters; comment and string openers
/// left unterminated, escaped identifiers, based literals whose base is
/// followed by anything; and every operator.
const FRAGMENTS: &[&str] = &[
    "module", "m", "end", "input", "output", "reg", "wire", "assign", "always", "begin", "if",
    "else", "case", "x", "z", "_a", "a$b", "$display", "$", " ", "\t", "\n", "\r\n", "\u{0B}",
    "\u{0C}", "\u{A0}", "\u{2003}", "\u{85}", "\u{3000}", "é", "中", "🦀", "ß", "//", "/*", "*/",
    "\"", "\\", "\\bus[0]", "`define", "8'h", "'b", "4's", "2'sb1", "'", "3.", "3.14", "1_000",
    "?", "(", ")", "[", "]", "{", "}", ";", ",", ":", "@", "#", ".", "<<<", ">>>", "===", "!==",
    "**", "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "+:", "-:", "~&", "~|", "~^", "^~", "=>",
    "->", "=", "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^",
];

proptest! {
    #[test]
    fn fragment_soup_matches_the_oracle(
        parts in prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..60),
    ) {
        assert_same_frontend("soup.v", &parts.concat());
    }

    #[test]
    fn spliced_modules_match_the_oracle(
        parts in prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 1..6),
        cut in 0usize..200,
    ) {
        let base = "module m(input clk, input [3:0] a, output reg [3:0] q);\n\
                    always @(posedge clk) q <= a + 4'd1; // bump\nendmodule\n";
        let mut at = cut.min(base.len());
        while !base.is_char_boundary(at) {
            at -= 1;
        }
        let src = format!("{}{}{}", &base[..at], parts.concat(), &base[at..]);
        assert_same_frontend("spliced.v", &src);
    }

    /// Columns count characters, also inside comments and strings that
    /// hold multi-byte ones, so a token after them on the same line keeps
    /// its column.
    #[test]
    fn comment_and_string_bodies_match_the_oracle(
        body in "[a-z é中🦀\u{A0}\u{85}\n*/\"\\\\]{0,24}",
    ) {
        let src = format!("x /*{body}*/ y // {body}\nz \"{body}\" w");
        assert_same_frontend("bodies.v", &src);
    }

    #[test]
    fn arbitrary_text_matches_the_oracle(
        src in "[a-z0-9_ \t\n\u{0B}\u{A0}\u{2003}\u{85}é中;()\\[\\]{}<>=+\\-*/&|^~!,.:@#$'`\"\\\\?%]{0,160}",
    ) {
        assert_same_frontend("text.v", &src);
    }

    #[test]
    fn printable_text_matches_the_oracle(src in "\\PC{0,200}") {
        assert_same_frontend("text.v", &src);
    }
}
