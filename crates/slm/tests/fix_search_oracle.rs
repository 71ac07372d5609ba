//! The fix search, which lints each candidate through `dda_lint::EditBase`,
//! against the search it replaced (kept verbatim under `tests/old_search/`),
//! which lints every candidate with `check_source` from byte 0.
//!
//! "Equal" is strict: the same `FixOutcome` (source, clean, cost) and the
//! same sequence of `observe` calls, sources and reports alike.

mod old_search;

use dda_benchmarks::rtllm_suite;
use dda_core::repair::{break_verilog, RepairOptions};
use dda_eval::repair_eval::{broken_input, RepairProtocol};
use dda_lint::LintReport;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn assert_same_search(file: &str, wrong: &str, budget: usize) {
    let mut expected: Vec<(String, LintReport)> = Vec::new();
    let old = old_search::try_fix_observed(file, wrong, budget, |src, report| {
        expected.push((src.to_owned(), report.clone()));
    });
    let mut calls = 0usize;
    let new = dda_slm::fixer::try_fix_observed(file, wrong, budget, |src, report| {
        let (src_old, report_old) = expected.get(calls).expect("an extra observe call");
        assert_eq!(
            src, src_old,
            "observe call {calls} of {file} at budget {budget}"
        );
        assert_eq!(report, report_old, "report of\n{src}");
        calls += 1;
    });
    assert_eq!(calls, expected.len(), "{file} at budget {budget}");
    assert_eq!(
        (new.source, new.clean, new.cost),
        (old.source, old.clean, old.cost),
        "outcome for {file} at budget {budget}"
    );
}

#[test]
fn rtllm_broken_inputs_search_as_before_at_every_budget() {
    let protocol = RepairProtocol::default();
    for p in rtllm_suite() {
        let (_, wrong) = broken_input(&p, &protocol);
        let file = format!("{}.v", p.id);
        for budget in [64, 150, 600, 2400] {
            assert_same_search(&file, &wrong, budget);
        }
    }
}

#[test]
fn broken_corpus_modules_search_as_before() {
    let mut rng = SmallRng::seed_from_u64(18);
    let corpus = dda_corpus::generate_corpus(48, &mut rng);
    let opts = RepairOptions { max_mutations: 3 };
    let mut searched = 0;
    for m in &corpus {
        for _ in 0..2 {
            let Some(broken) = break_verilog(&m.source, &opts, &mut rng) else {
                continue;
            };
            assert_same_search("corpus.v", &broken.source, 600);
            searched += 1;
        }
    }
    assert!(searched > corpus.len(), "only {searched} searches");
}
