//! Test-only oracle: the lint-guided repair search as it was before
//! candidates were linted through `dda_lint::EditBase`, linting every
//! candidate with `check_source` from byte 0. Verbatim apart from this
//! header, the `dead_code` allowance, and copies of borrowed token text.
//!
//! Lint-guided Verilog repair search.
//!
//! The model-side counterpart of the repair training data: given a broken
//! file and the tool diagnostics, search token-level edits near the
//! reported error locations until the checker is satisfied. The edit
//! vocabulary is the inverse of the five injection rules (§3.2.1), so a
//! model trained on that data plausibly learns exactly these moves.
//! Success is budget-bound: bigger/better-trained models search more.

#![allow(dead_code)]

use dda_lint::{DiagKind, LintReport};
use dda_verilog::lexer::lex;
use dda_verilog::token::{Keyword, Span, TokenKind};
use std::collections::HashSet;

/// Outcome of a repair attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixOutcome {
    /// The best source found (the input itself when nothing improved).
    pub source: String,
    /// Whether the result lints clean.
    pub clean: bool,
    /// Lint invocations spent.
    pub cost: usize,
}

/// Attempts to make `wrong` lint-clean within `budget` checker calls.
///
/// Greedy beam of width 1: at each round, enumerate candidate edits near
/// the first reported error, keep the candidate with the fewest remaining
/// errors, and repeat. Purely syntactic/semantic — functional correctness
/// is up to the fix actually being the right one.
///
/// Each call counts one `slm.fixer.search` in the `dda-obs` recorder (a
/// no-op while it is disabled), so tests can pin how often callers search.
pub fn try_fix(file_name: &str, wrong: &str, budget: usize) -> FixOutcome {
    try_fix_observed(file_name, wrong, budget, |_, _| {})
}

/// [`try_fix`], handing each source the search lints to `observe` together
/// with its report, in the order the checker sees them.
pub fn try_fix_observed(
    file_name: &str,
    wrong: &str,
    budget: usize,
    mut observe: impl FnMut(&str, &LintReport),
) -> FixOutcome {
    dda_obs::count("slm.fixer.search", 1);
    let mut lint = |src: &str, cost: &mut usize| {
        *cost += 1;
        let report = dda_lint::check_source(file_name, src);
        observe(src, &report);
        error_state(src, &report)
    };
    let mut current = wrong.to_owned();
    let mut cost = 0usize;
    let (mut current_errors, mut current_sig, mut current_first) = lint(&current, &mut cost);
    if current_errors == 0 {
        return FixOutcome {
            source: current,
            clean: true,
            cost,
        };
    }
    let mut seen: HashSet<String> = HashSet::new();
    seen.insert(current.clone());
    let mut sideways_left = 4usize;
    // Up to 10 rounds: more than the max injected mutations plus detours.
    for _ in 0..10 {
        if cost >= budget || current_errors == 0 {
            break;
        }
        let mut best: Option<(usize, String, ErrSig, FirstError)> = None;
        let mut sideways: Option<(String, ErrSig, FirstError)> = None;
        let mut sideways_rank: (bool, usize) = (false, usize::MAX);
        for cand in candidates(file_name, &current, current_first) {
            if cost >= budget {
                break;
            }
            if !seen.insert(cand.clone()) {
                continue;
            }
            let (e, sig, first) = lint(&cand, &mut cost);
            if e < current_errors && best.as_ref().map(|(be, ..)| e < *be).unwrap_or(true) {
                let solved = e == 0;
                best = Some((e, cand, sig, first));
                if solved {
                    break;
                }
            } else if e == current_errors && sig != current_sig {
                // Same error count but a *different* error: the edit may
                // have peeled one fault and exposed the next (deleting a
                // stray `]` exposes the undeclared `KEY0` behind it).
                // Eligible moves either turn the syntax error into a
                // targeted semantic one, or push the first error *forward*
                // past the fault just fixed. Among forward moves the
                // nearest next error wins (a longer insertion must not beat
                // a correct one merely by shifting columns further).
                let old_remaining = current_sig.map(|(.., r)| r).unwrap_or(usize::MAX);
                let (semantic, remaining) = sig
                    .map(|(k, _, _, r)| (k != DiagKind::SyntaxError, r))
                    .unwrap_or((false, usize::MAX));
                // Forward = strictly less of the file left after the first
                // error than before the edit.
                let forward = remaining < old_remaining;
                if semantic || forward {
                    // Semantic moves beat forward ones; ties keep the first
                    // candidate seen (stem-name insertions come first).
                    let better = match &sideways {
                        None => true,
                        Some(_) => {
                            let (s_sem, s_rem) = sideways_rank;
                            if semantic != s_sem {
                                semantic
                            } else {
                                remaining < s_rem
                            }
                        }
                    };
                    if better {
                        sideways_rank = (semantic, remaining);
                        sideways = Some((cand, sig, first));
                    }
                }
            }
        }
        match (best, sideways) {
            (Some((e, src, sig, first)), _) => {
                // The candidate loop linted `src` already, but accepting a
                // candidate is charged one more call: the callers' budgets
                // are calibrated on that count.
                cost += 1;
                current = src;
                current_errors = e;
                current_sig = sig;
                current_first = first;
            }
            (None, Some((src, sig, first))) if sideways_left > 0 => {
                sideways_left -= 1;
                current = src;
                current_sig = sig;
                current_first = first;
            }
            _ => break,
        }
    }
    let clean = current_errors == 0;
    FixOutcome {
        // A failed search returns the input unchanged — a model that
        // cannot repair does not hand back a half-shredded file.
        source: if clean { current } else { wrong.to_owned() },
        clean,
        cost,
    }
}

/// Identity of the first error: (kind, line, column, bytes-to-EOF).
///
/// The byte distance from the error to the end of file is the progress
/// measure: unlike line/column it is invariant to the length of whatever
/// was inserted *before* the error.
type ErrSig = Option<(DiagKind, u32, u32, usize)>;

/// Kind and span of the first error, where candidate edits focus.
type FirstError = Option<(DiagKind, Span)>;

/// The search's reading of `src`'s lint report: a score to minimise, the
/// first error's identity, and the first error itself.
fn error_state(src: &str, report: &LintReport) -> (usize, ErrSig, FirstError) {
    let first = report.first_error().map(|d| (d.kind, d.span));
    let sig = first.map(|(kind, span)| {
        (
            kind,
            span.line,
            span.col,
            src.len().saturating_sub(span.start),
        )
    });
    // Parsing stops at the first syntax error, hiding any semantic errors
    // behind it — so a syntax error must outrank any semantic count, or the
    // search would refuse edits that fix the parse but "reveal" new errors.
    let score = if matches!(sig, Some((DiagKind::SyntaxError, ..))) {
        1000 + report.error_count()
    } else {
        report.error_count()
    };
    (score, sig, first)
}

/// `KEY0` → `KEY[0]` when the name ends in digits (and has a stem).
fn split_fused_index(name: &str) -> Option<String> {
    let stem_len = name.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    if stem_len == 0 || stem_len == name.len() {
        return None;
    }
    Some(format!("{}[{}]", &name[..stem_len], &name[stem_len..]))
}

/// Candidate edits near `first`, the first error the checker reported for
/// `src`.
fn candidates(file_name: &str, src: &str, first: FirstError) -> Vec<String> {
    let Some((kind, span)) = first else {
        return Vec::new();
    };
    let line = span.line;
    let Ok(tokens) = lex(src) else {
        return Vec::new();
    };
    // Tokens on or adjacent to the error line (syntax errors often point one
    // token past the real fault).
    let near: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.span.line + 1 >= line && t.span.line <= line + 1)
        .map(|(i, _)| i)
        .collect();
    let mut out = Vec::new();
    let splice = |start: usize, end: usize, text: &str| -> String {
        let mut s = String::with_capacity(src.len() + text.len());
        s.push_str(&src[..start]);
        s.push_str(text);
        s.push_str(&src[end..]);
        s
    };
    match kind {
        DiagKind::UndeclaredIdentifier | DiagKind::Redeclaration => {
            // Likely an inserted junk word or a renamed signal: delete the
            // offending token, split a fused index (`KEY0` -> `KEY[0]`), or
            // leave it for the syntax candidates below.
            for &i in &near {
                if let TokenKind::Ident(name) = &tokens[i].kind {
                    out.push(splice(tokens[i].span.start, tokens[i].span.end, ""));
                    if let Some(split) = split_fused_index(name) {
                        out.push(splice(tokens[i].span.start, tokens[i].span.end, &split));
                    }
                }
            }
        }
        DiagKind::ProceduralAssignToWire => {
            for t in &tokens {
                if t.is_kw(Keyword::Wire) {
                    out.push(splice(t.span.start, t.span.end, "reg"));
                }
            }
            // ANSI outputs may just be missing the `reg` marker.
            for (i, t) in tokens.iter().enumerate() {
                if t.is_kw(Keyword::Output)
                    && !tokens
                        .get(i + 1)
                        .map(|n| n.is_kw(Keyword::Reg))
                        .unwrap_or(false)
                {
                    out.push(splice(t.span.end, t.span.end, " reg"));
                }
            }
        }
        DiagKind::ContinuousAssignToReg => {
            for t in &tokens {
                if t.is_kw(Keyword::Reg) {
                    out.push(splice(t.span.start, t.span.end, "wire"));
                }
            }
        }
        _ => {
            // Syntax and structural errors: inverse edits of the
            // word-missing / additional-word rules, focused on the token
            // at the error position (a wide net explodes the budget).
            let focus = tokens
                .iter()
                .position(|t| t.span.start >= span.start)
                .unwrap_or(tokens.len().saturating_sub(1));
            let lo = focus.saturating_sub(2);
            let hi = (focus + 1).min(tokens.len().saturating_sub(1));
            // The diagnostic's file-name stem is the best guess for a
            // dropped module name — try it before anything else.
            if let Some(stem) = file_name.strip_suffix(".v") {
                let stem = stem.trim_start_matches('/');
                if !stem.is_empty() {
                    for i in [focus.saturating_sub(1), focus] {
                        if let Some(t) = tokens.get(i) {
                            out.push(splice(t.span.start, t.span.start, &format!(" {stem} ")));
                        }
                    }
                }
            }
            // Punctuation / zero-bound insertions around the focus window.
            for t in &tokens[lo..=hi] {
                for ins in [";", ")", "]", "(", "[", "0"] {
                    out.push(splice(t.span.start, t.span.start, ins));
                    out.push(splice(t.span.end, t.span.end, ins));
                }
            }
            // Deletions: focus window first, then the rest of the line.
            for t in &tokens[lo..=hi] {
                out.push(splice(t.span.start, t.span.end, ""));
                if let TokenKind::Ident(name) = &t.kind {
                    if let Some(split) = split_fused_index(name) {
                        out.push(splice(t.span.start, t.span.end, &split));
                    }
                }
                for kw in ["begin", "end", "endmodule", "endcase"] {
                    out.push(splice(t.span.start, t.span.start, &format!("{kw} ")));
                }
            }
            for &i in &near {
                if (lo..=hi).contains(&i) {
                    continue;
                }
                let t = &tokens[i];
                out.push(splice(t.span.start, t.span.end, ""));
            }
            // A deleted operand/port leaves a dangling comma or operator:
            // try re-inserting identifiers seen elsewhere in the file (and
            // the diagnostic's file-name stem — dropped module names are
            // recoverable from the tool message).
            let mut names: Vec<String> = Vec::new();
            if let Some(stem) = file_name.strip_suffix(".v") {
                let stem = stem.trim_start_matches('/');
                if !stem.is_empty() {
                    names.push(stem.to_owned());
                }
            }
            {
                let mut seen_names = HashSet::new();
                for t in &tokens {
                    if let TokenKind::Ident(n) = &t.kind {
                        if seen_names.insert(*n) && n.len() <= 12 {
                            names.push((*n).to_owned());
                        }
                    }
                }
            }
            names.truncate(10);
            for i in [focus.saturating_sub(1), focus] {
                let Some(t) = tokens.get(i) else { continue };
                for n in &names {
                    out.push(splice(t.span.start, t.span.start, &format!(" {n} ")));
                }
            }
            // A dangling `else` means a guard was dropped: try restoring
            // `if (<signal>)` before `begin` tokens above the error.
            let guards: Vec<&String> = names
                .iter()
                .filter(|n| {
                    let l = n.to_lowercase();
                    l.contains("rst")
                        || l.contains("reset")
                        || l.contains("en")
                        || l.contains("valid")
                        || l.contains("start")
                        || l.contains("clr")
                })
                .chain(names.iter())
                .take(6)
                .collect();
            for t in &tokens {
                if !t.is_kw(Keyword::Begin) || t.span.line + 6 < line || t.span.line > line {
                    continue;
                }
                for g in &guards {
                    out.push(splice(t.span.start, t.span.start, &format!("if ({g}) ")));
                }
            }
        }
    }
    out
}
