//! End-to-end equivalence for retrieval: every query an evaluation sweep
//! makes (`"{ALIGN_INSTRUCT}\n{prompt}"`, top 32, one per problem and
//! prompt level) gets, from the model's index, exactly the hits of the
//! linear-scan oracle built over the model's training entries: the same
//! documents in the same order, with bit-identical scores. This is the
//! integration counterpart of the per-component suites in
//! `dda-slm/tests/interned.rs` and `retrieval_layout.rs`: a retrieval that
//! differed on any hit would change a generation, and with it a cell.

use dda_benchmarks::thakur_suite;
use dda_core::align::ALIGN_INSTRUCT;
use dda_core::Dataset;
use dda_eval::{eval_suite, GenProtocol, SweepOptions};
use dda_slm::reference::LinearTfIdf;
use dda_slm::{Slm, SlmProfile, PROGRESSIVE_ORDER};
use rand::SeedableRng;

fn dataset() -> Dataset {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let corpus = dda_corpus::generate_corpus(32, &mut rng);
    dda_core::pipeline::augment(
        &corpus,
        &dda_core::pipeline::PipelineOptions::default(),
        &mut rng,
    )
    .0
}

#[test]
fn eval_queries_match_linear_oracle() {
    let data = dataset();
    let model = Slm::finetune(SlmProfile::llama2(13.0), &data, &PROGRESSIVE_ORDER);
    let linear = LinearTfIdf::over_training(&Dataset::new(), &data, &PROGRESSIVE_ORDER);
    let problems: Vec<_> = thakur_suite().into_iter().take(6).collect();
    for p in &problems {
        for prompt in &p.prompts {
            let query = format!("{ALIGN_INSTRUCT}\n{prompt}");
            let fast = model.index().try_query(&query, 32).unwrap();
            let reference = linear.query(&query, 32);
            assert_eq!(fast.len(), reference.len(), "{}: hit count", p.id);
            for (f, r) in fast.iter().zip(&reference) {
                assert_eq!(f.doc, r.doc, "{}: doc order", p.id);
                assert_eq!(
                    f.score.to_bits(),
                    r.score.to_bits(),
                    "{}: score of doc {}",
                    p.id,
                    f.doc
                );
            }
        }
    }
    // Sanity: these prompts drive retrieval-backed generation that
    // reaches functional scoring.
    let protocol = GenProtocol {
        k: 3,
        ..GenProtocol::default()
    };
    let rows = eval_suite(&model, &problems, &protocol, &SweepOptions::default())
        .unwrap()
        .0;
    assert!(
        rows.iter()
            .flat_map(|r| r.result.iter().flatten())
            .any(|c| c.best_function > 0.0),
        "sweep never reached functional scoring: {rows:?}"
    );
}
