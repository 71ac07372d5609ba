//! `EditBase::check` against `check_source` of the edited text.
//!
//! Sources are corpus modules, the RTLLM and Thakur references, their
//! testbenches (also behind the reference, as a two-module file), and
//! `break_verilog` mutations of each. Edits replace an arbitrary run of
//! characters, not only whole tokens, with text from the fix search's
//! vocabulary plus lexemes that glue to a neighbour or open a comment or
//! string: `/`, `*`, `//`, `"`, newlines, `'`, digits, identifier bytes,
//! backslashes and non-ASCII characters.

use dda_benchmarks::{rtllm_suite, thakur_suite};
use dda_core::repair::{break_verilog, RepairOptions};
use dda_lint::{check_source, EditBase};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn sources() -> &'static [String] {
    static SOURCES: OnceLock<Vec<String>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let mut rng = SmallRng::seed_from_u64(18);
        let mut clean: Vec<String> = dda_corpus::generate_corpus(48, &mut rng)
            .into_iter()
            .map(|m| m.source)
            .collect();
        for p in rtllm_suite().into_iter().chain(thakur_suite()) {
            clean.push(p.reference.to_owned());
            clean.push(p.testbench.to_owned());
            clean.push(format!("{}\n{}", p.reference, p.testbench));
        }
        let opts = RepairOptions { max_mutations: 3 };
        let mut out = Vec::new();
        for src in clean {
            out.extend(
                (0..2).filter_map(|_| break_verilog(&src, &opts, &mut rng).map(|b| b.source)),
            );
            out.push(src);
        }
        out
    })
}

/// The fix search's edit texts, then lexemes that interact with their
/// neighbours.
const TEXTS: &[&str] = &[
    "",
    ";",
    ")",
    "]",
    "(",
    "[",
    "0",
    "reg",
    " reg",
    "wire",
    "begin ",
    "end ",
    "endmodule ",
    "endcase ",
    " clk ",
    "if (rst) ",
    "KEY[0]",
    "/",
    "*",
    "//",
    "/*",
    "*/",
    "\"",
    "\n",
    "\r\n",
    "'",
    "'h",
    "4'",
    "3.",
    "1",
    "9",
    "_",
    "a",
    "z$",
    "`define",
    "\\",
    "$",
    "é",
    "中",
    "\u{A0}",
    "\u{2003}",
    "§",
];

/// Lints `candidate`, `src` with `s..e` replaced by `text`, through `base`
/// and with `check_source`, and asserts the reports are equal.
fn assert_same_report(base: &EditBase<'_>, src: &str, s: usize, e: usize, text: &str) {
    let candidate = format!("{}{text}{}", &src[..s], &src[e..]);
    let (report, _) = base.check(&candidate, s..e);
    assert_eq!(
        report,
        check_source("edit.v", &candidate),
        "replacing {s}..{e} with {text:?} in\n{src}"
    );
}

proptest! {
    /// Draw `i` replaces `lens[i]` characters from character `starts[i]`
    /// (modulo the length) with `texts[i]`, each against the same base.
    #[test]
    fn an_edit_checked_through_the_base_equals_check_source(
        which in 0usize..1_000_000,
        starts in prop::collection::vec(0usize..1_000_000, 16..17),
        lens in prop::collection::vec(0usize..6, 16..17),
        texts in prop::collection::vec(
            prop::collection::vec(prop::sample::select(TEXTS.to_vec()), 0..3),
            16..17,
        ),
    ) {
        let sources = sources();
        let src = &sources[which % sources.len()];
        if let Some(base) = EditBase::new("edit.v", src) {
            let bounds: Vec<usize> = src
                .char_indices()
                .map(|(i, _)| i)
                .chain([src.len()])
                .collect();
            for ((start, len), text) in starts.iter().zip(&lens).zip(&texts) {
                let first = start % bounds.len();
                let last = (first + len).min(bounds.len() - 1);
                assert_same_report(&base, src, bounds[first], bounds[last], &text.concat());
            }
        }
    }
}

/// One edit at every token of every source, with a rotating text and, in
/// turn, an insertion at its start, one at its end, or its replacement, so
/// every checkpoint and every lookahead past a token's end is exercised.
#[test]
fn an_edit_at_every_token_equals_check_source() {
    let mut checked = 0usize;
    for (i, src) in sources().iter().enumerate() {
        let Some(base) = EditBase::new("edit.v", src) else {
            continue;
        };
        for (j, t) in base.tokens().iter().enumerate() {
            let text = TEXTS[(i + j) % TEXTS.len()];
            let (start, end) = (t.span.start, t.span.end);
            let (s, e) = [(start, start), (end, end), (start, end)][j % 3];
            assert_same_report(&base, src, s, e, text);
            checked += 1;
        }
    }
    assert!(checked > 10_000, "only {checked} edits");
}
