//! Query text never grows the process-wide interner.
//!
//! Retrieval queries, the daemon's sharded `retrieve`, prompt retrieval
//! under `generate`, and the repair prompt's context affinity tokenize
//! free text with `lookup_syms`: a word the interner has never seen is in
//! no vocabulary, so it is dropped (or compared as a string), never
//! interned. Before, every fresh word in a query became a permanent
//! interner entry.
//!
//! This binary holds a single test, so no other test interns while it
//! counts.

use dda_core::align::ALIGN_INSTRUCT;
use dda_core::dataset::{DataEntry, Dataset};
use dda_core::intern::global;
use dda_core::repair::REPAIR_INSTRUCT;
use dda_core::TaskKind;
use dda_slm::{GenOptions, ShardedTfIdf, Slm, SlmProfile, TfIdfIndex, PROGRESSIVE_ORDER};
use rand::SeedableRng;

const DOCS: [&str; 4] = [
    "module counter(input clk, input rst, output reg [3:0] q);",
    "always @(posedge clk) q <= q + 1;",
    "assign y = a & b;",
    "endmodule",
];

/// A query of known words plus two words no text has contained.
fn fresh_query(n: usize) -> String {
    format!("counter clk FreshWordA{n} q fresh_word_b_{n}")
}

#[test]
fn fresh_query_words_do_not_grow_the_interner() {
    let mut index = TfIdfIndex::new();
    let mut sharded = ShardedTfIdf::new(4);
    let mut data = Dataset::new();
    for (i, doc) in DOCS.iter().enumerate() {
        index.add(doc);
        sharded.insert(i as u64, doc).unwrap();
        data.push(
            TaskKind::NlVerilogGeneration,
            DataEntry::new(ALIGN_INSTRUCT, *doc, *doc),
        );
    }
    index.finish();
    let slm = Slm::finetune(SlmProfile::llama2(7.0), &data, &PROGRESSIVE_ORDER);
    let context = vec![DOCS[0].to_string(), "a fresh_context_word".to_string()];
    let opts = GenOptions::default();

    // Warm every path once, so only fresh words could still be interned.
    let known = "counter clk q";
    let index_hits = index.try_query(known, 4).unwrap();
    let sharded_hits = sharded.query(known, 4);
    assert!(!index_hits.is_empty() && !sharded_hits.is_empty());
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    slm.generate(ALIGN_INSTRUCT, known, &opts, &mut rng);
    slm.generate_with_context(REPAIR_INSTRUCT, known, &context, &opts, &mut rng);

    let before = global().len();
    for n in 0..2_000 {
        let query = fresh_query(n);
        // Unseen words match nothing: the hits are those of the known words.
        assert_eq!(index.try_query(&query, 4).unwrap(), index_hits);
        assert_eq!(sharded.query(&query, 4), sharded_hits);
        slm.generate(ALIGN_INSTRUCT, &query, &opts, &mut rng);
        slm.generate_with_context(REPAIR_INSTRUCT, &query, &context, &opts, &mut rng);
    }
    assert_eq!(global().len(), before, "query text grew the interner");
}
