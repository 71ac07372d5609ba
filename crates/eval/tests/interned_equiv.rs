//! End-to-end equivalence for the interned-token retrieval rewrite: a
//! full evaluation sweep must render *byte-identical* table rows whether
//! the model retrieves through the new postings-list index or the
//! retained linear-scan reference. This is the integration counterpart
//! of the per-component equivalence suites in `dda-slm/tests/interned.rs`
//! — if the two query paths ever disagree on any hit (score, doc, or tie
//! order), a generation changes and a rendered cell diverges here.

use dda_benchmarks::thakur_suite;
use dda_eval::report::{pct, TextTable};
use dda_eval::{eval_suite, GenProtocol, GenRow, SweepOptions};
use dda_slm::{Slm, SlmProfile, PROGRESSIVE_ORDER};
use rand::SeedableRng;

fn trained_model() -> Slm {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let corpus = dda_corpus::generate_corpus(32, &mut rng);
    let (data, _report) = dda_core::pipeline::augment(
        &corpus,
        &dda_core::pipeline::PipelineOptions::default(),
        &mut rng,
    );
    Slm::finetune(SlmProfile::llama2(13.0), &data, &PROGRESSIVE_ORDER)
}

/// Renders sweep rows exactly the way the table binaries do.
fn render(rows: &[GenRow]) -> String {
    let mut table = TextTable::new(["Problem", "L1", "L2", "L3", "Pass"]);
    for r in rows {
        let mut cells = vec![r.id.to_string()];
        cells.extend(r.result.iter().flatten().map(|c| pct(c.best_function)));
        cells.push(if r.is_success() { "yes" } else { "no" }.into());
        table.row(cells);
    }
    table.render()
}

#[test]
fn eval_rows_are_identical_across_retrieval_paths() {
    let mut model = trained_model();
    let problems: Vec<_> = thakur_suite().into_iter().take(6).collect();
    let protocol = GenProtocol {
        k: 3,
        ..GenProtocol::default()
    };
    let sweep = SweepOptions::default();
    let fast = eval_suite(&model, &problems, &protocol, &sweep).unwrap().0;
    model.set_reference_retrieval(true);
    let reference = eval_suite(&model, &problems, &protocol, &sweep).unwrap().0;
    assert_eq!(fast, reference, "sweep rows diverged between query paths");
    let fast_table = render(&fast);
    let ref_table = render(&reference);
    assert_eq!(
        fast_table.as_bytes(),
        ref_table.as_bytes(),
        "rendered tables are not byte-identical:\n{fast_table}\nvs\n{ref_table}"
    );
    // Sanity: the sweep actually exercised retrieval-backed generation.
    assert!(
        fast.iter()
            .flat_map(|r| r.result.iter().flatten())
            .any(|c| c.best_function > 0.0),
        "sweep never reached functional scoring: {fast:?}"
    );
}
