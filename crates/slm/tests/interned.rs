//! Equivalence suites for the interned-symbol model layer: the postings
//! retrieval path, the symbol-keyed n-gram, and the parallel training
//! fan-out must be *output-identical* to their references (the
//! `LinearTfIdf` and `StringNgram` oracles, and the one-worker build).

use dda_core::Dataset;
use dda_slm::reference::{LinearTfIdf, StringNgram};
use dda_slm::{NgramModel, Slm, SlmProfile, TfIdfIndex, TrainOptions, PROGRESSIVE_ORDER};
use proptest::prelude::*;
use rand::SeedableRng;

/// Asserts the two hit lists are identical: same docs, same order, and
/// bit-identical scores.
fn assert_hits_identical(fast: &[dda_slm::tfidf::Hit], reference: &[dda_slm::tfidf::Hit]) {
    assert_eq!(fast.len(), reference.len(), "hit count differs");
    for (f, r) in fast.iter().zip(reference) {
        assert_eq!(f.doc, r.doc, "doc order differs");
        assert_eq!(
            f.score.to_bits(),
            r.score.to_bits(),
            "score for doc {} differs: {} vs {}",
            f.doc,
            f.score,
            r.score
        );
    }
}

/// The index and its linear-scan oracle over `docs`.
fn build(docs: &[String]) -> (TfIdfIndex, LinearTfIdf) {
    let mut idx = TfIdfIndex::new();
    let mut linear = LinearTfIdf::new();
    for d in docs {
        idx.add(d);
        linear.add(d);
    }
    idx.finish();
    linear.finish();
    (idx, linear)
}

proptest! {
    /// On randomized corpora the postings-list query returns exactly the
    /// linear-scan reference's result: docs, scores, and tie order.
    #[test]
    fn postings_query_matches_linear(
        docs in prop::collection::vec("[a-e ]{0,40}", 0..16),
        query in "[a-g ]{0,24}",
        top in 0usize..8,
    ) {
        let (idx, linear) = build(&docs);
        assert_hits_identical(&idx.try_query(&query, top).unwrap(), &linear.query(&query, top));
    }

    /// Same, on corpora full of duplicate documents (maximal tie stress).
    #[test]
    fn postings_query_matches_linear_on_identical_docs(
        doc in "[a-c ]{1,20}",
        copies in 1usize..24,
        query in "[a-d ]{0,12}",
        top in 0usize..32,
    ) {
        let docs = vec![doc; copies];
        let (idx, linear) = build(&docs);
        assert_hits_identical(&idx.try_query(&query, top).unwrap(), &linear.query(&query, top));
    }

    /// The interned n-gram model is bit-identical to the retained
    /// string-keyed reference on randomized training/held-out texts.
    #[test]
    fn ngram_matches_string_reference(
        train in prop::collection::vec("[a-f0-9 _;()]{0,60}", 0..12),
        held in prop::collection::vec("[a-f0-9 _;()]{0,40}", 0..6),
        order in 1usize..5,
    ) {
        let mut fast = NgramModel::new(order);
        let mut slow = StringNgram::new(order);
        for t in &train {
            fast.train(t);
            slow.train(t);
        }
        prop_assert_eq!(fast.trained_tokens(), slow.trained_tokens());
        prop_assert_eq!(fast.vocab_size(), slow.vocab_size());
        let refs: Vec<&str> = held.iter().map(|s| s.as_str()).collect();
        prop_assert_eq!(fast.loss(&refs).to_bits(), slow.loss(&refs).to_bits());
        for t in &held {
            prop_assert_eq!(
                fast.cross_entropy(t).to_bits(),
                slow.cross_entropy(t).to_bits()
            );
        }
    }
}

#[test]
fn query_on_empty_corpus_returns_nothing() {
    let (idx, linear) = build(&[]);
    assert!(idx.try_query("anything at all", 8).unwrap().is_empty());
    assert!(linear.query("anything at all", 8).is_empty());
}

#[test]
fn query_with_no_overlap_matches_reference() {
    let (idx, linear) = build(&["alpha beta".into(), "gamma delta".into(), String::new()]);
    let fast = idx.try_query("omega psi chi", 8).unwrap();
    assert!(fast.is_empty());
    assert_hits_identical(&fast, &linear.query("omega psi chi", 8));
}

#[test]
fn empty_docs_never_match() {
    let (idx, linear) = build(&[String::new(), "a b c".into(), String::new()]);
    let fast = idx.try_query("a", 8).unwrap();
    assert_eq!(fast.len(), 1);
    assert_eq!(fast[0].doc, 1);
    assert_hits_identical(&fast, &linear.query("a", 8));
}

/// A real augmented dataset.
fn dataset() -> Dataset {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let corpus = dda_corpus::generate_corpus(6, &mut rng);
    dda_core::pipeline::augment(
        &corpus,
        &dda_core::pipeline::PipelineOptions::default(),
        &mut rng,
    )
    .0
}

/// Builds one SLM from a real augmented corpus with the given worker count.
fn trained(workers: usize) -> Slm {
    let data = dataset();
    Slm::finetune_with_options(
        SlmProfile::llama2(13.0),
        &Dataset::new(),
        &data,
        &PROGRESSIVE_ORDER,
        &TrainOptions { workers },
    )
}

/// The training fan-out merges in document order, so any worker count
/// yields a model with identical observable behaviour: same held-out
/// loss (bit-identical) and same generations token for token.
#[test]
fn train_fanout_is_worker_count_invariant() {
    let baseline = trained(1);
    let held = ["assign y = a & b;", "module top(input clk); endmodule"];
    let prompts = [
        (
            "Implement the module described below.",
            "a 2-to-1 multiplexer",
        ),
        ("Continue the Verilog code.", "module counter(input clk,"),
    ];
    for workers in [2, 8] {
        let model = trained(workers);
        assert_eq!(
            model.loss(&held).to_bits(),
            baseline.loss(&held).to_bits(),
            "loss differs at workers={workers}"
        );
        assert_eq!(model.training_size(), baseline.training_size());
        for (instruct, input) in prompts {
            let mut r1 = rand::rngs::SmallRng::seed_from_u64(42);
            let mut r2 = rand::rngs::SmallRng::seed_from_u64(42);
            let opts = dda_slm::GenOptions::default();
            assert_eq!(
                model.generate(instruct, input, &opts, &mut r1),
                baseline.generate(instruct, input, &opts, &mut r2),
                "generation differs at workers={workers}"
            );
        }
    }
}

/// Every query the model issues (`"{instruct}\n{input}"`, top 32) gets
/// the hits of an oracle built over the model's training entries, in
/// training order, instruct tokens then input tokens.
#[test]
fn model_queries_match_linear_oracle() {
    let model = trained(1);
    let linear = LinearTfIdf::over_training(&Dataset::new(), &dataset(), &PROGRESSIVE_ORDER);
    assert_eq!(model.index().len(), linear.len());
    let prompts = [
        ("Implement the module described below.", "a 4-bit counter"),
        ("Continue the Verilog code.", "assign out ="),
        ("Continue the Verilog code.", "module counter(input clk,"),
    ];
    for (instruct, input) in prompts {
        let query = format!("{instruct}\n{input}");
        let fast = model.index().try_query(&query, 32).unwrap();
        assert!(!fast.is_empty(), "{query:?} retrieved nothing");
        assert_hits_identical(&fast, &linear.query(&query, 32));
    }
}
