//! The dense-column query layout of `TfIdfIndex` returns exactly what the
//! linear-scan oracle `LinearTfIdf`, built over the same documents,
//! returns: the same documents, bit-identical scores and the same tie
//! order.
//!
//! The corpora are built so that every storage path and every boundary of
//! the layout is reached (DESIGN.md §5n):
//! * terms with a tf above 255, which are stored wide with `u32` tfs;
//! * document frequency exactly at the dense threshold (`df * 4 == n`),
//!   and one below it;
//! * runs of dense terms longer than the fusion width, interleaved with
//!   sparse terms in term-id order;
//! * duplicate documents (score ties) and empty documents;
//! * `top` of 0, 1, a few, and more than the corpus.
//!
//! Term ids are first-occurrence order, and document 0 names every term
//! in plan order, so term `t` of a plan has id `t`.
//!
//! The zoo tests run every Table 5 and Table 4 prompt against the six
//! models' indexes, each checked against an oracle built over that
//! model's training entries: a small zoo here, and the seed-2024 zoo the
//! tables use in release builds.

use dda_benchmarks::{rtllm_table5_subset, sc_suite, thakur_suite};
use dda_core::align::ALIGN_INSTRUCT;
use dda_core::edascript::EDA_INSTRUCT;
use dda_core::pipeline::{augment, PipelineOptions, StageSet};
use dda_core::Dataset;
use dda_eval::models::ModelId;
use dda_eval::{ModelZoo, ZooOptions};
use dda_slm::reference::LinearTfIdf;
use dda_slm::tfidf::Hit;
use dda_slm::{pretraining_dataset, SlmProfile, TfIdfIndex, PROGRESSIVE_ORDER};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `top` values checked on an `n`-document corpus.
fn tops(n: usize) -> [usize; 6] {
    [0, 1, 3, 8, n + 5, usize::MAX]
}

/// Asserts `fast` is the first `top` hits of the full reference ranking.
fn assert_prefix(fast: &[Hit], all: &[Hit], top: usize, what: &str) {
    let want = &all[..top.min(all.len())];
    assert_eq!(fast.len(), want.len(), "{what}: hit count differs");
    for (f, r) in fast.iter().zip(want) {
        assert_eq!(f.doc, r.doc, "{what}: doc order differs");
        assert_eq!(
            f.score.to_bits(),
            r.score.to_bits(),
            "{what}: score for doc {} differs: {} vs {}",
            f.doc,
            f.score,
            r.score
        );
    }
}

/// Checks `query` at every `top` against one full linear ranking (the
/// linear scan sorts every hit and truncates, so its top-`k` is the
/// `k`-prefix of its full ranking).
fn check((idx, linear): &(TfIdfIndex, LinearTfIdf), query: &str, tops: &[usize]) {
    let all = linear.query(query, usize::MAX);
    for &top in tops {
        let fast = idx.try_query(query, top).unwrap();
        assert_prefix(&fast, &all, top, &format!("{query:?} top {top}"));
    }
}

/// The index and its oracle over `docs`.
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

/// A one-token word for term `t` (letters only, so it never splits).
fn word(t: usize) -> String {
    format!(
        "w{}{}",
        (b'a' + (t / 26) as u8) as char,
        (b'a' + (t % 26) as u8) as char
    )
}

/// Document text holding term `t` `tfs[t]` times, in term order.
fn text(tfs: &[u32]) -> String {
    let mut out = String::new();
    for (t, &tf) in tfs.iter().enumerate() {
        for _ in 0..tf {
            out.push_str(&word(t));
            out.push(' ');
        }
    }
    out
}

/// A query holding term `t` `qtf[t]` times, shuffled out of term order by
/// reversing (the index sorts query terms itself).
fn query(qtf: &[u8]) -> String {
    let mut out = String::new();
    for (t, &n) in qtf.iter().enumerate().rev() {
        for _ in 0..n {
            out.push_str(&word(t));
            out.push(' ');
        }
    }
    out
}

/// Term kinds of a generated corpus plan.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// In every non-empty document: a dense column.
    Dense,
    /// In document 0 and fewer than a quarter of all documents once the
    /// corpus has more than four.
    Sparse,
    /// In every non-empty document with a tf above 255 in some of them.
    Wide,
}

fn kind() -> impl Strategy<Value = Kind> {
    use Kind::*;
    prop::sample::select(vec![
        Dense, Dense, Dense, Dense, Dense, Dense, Sparse, Sparse, Sparse, Wide,
    ])
}

/// The corpus of a plan: `n` documents over the plan's terms, then
/// `dups` copies of the last one and `empties` empty documents.
fn corpus(kinds: &[Kind], n: usize, draws: &[Vec<u8>], dups: usize, empties: usize) -> Vec<String> {
    let mut docs: Vec<Vec<u32>> = vec![vec![0; kinds.len()]; n];
    let total = n + dups + empties;
    for (t, kind) in kinds.iter().enumerate() {
        let mut holders = 0;
        for (d, doc) in docs.iter_mut().enumerate() {
            let draw = draws[d][t] as u32;
            doc[t] = match kind {
                Kind::Dense => 1 + draw % 3,
                Kind::Wide if draw.is_multiple_of(4) => 256 + draw,
                Kind::Wide => 1 + draw % 3,
                // At most `(total - 1) / 4` holders, none of them
                // duplicated, keeps `df * 4 < total`: sparse once the
                // corpus has more than four documents.
                Kind::Sparse
                    if d == 0
                        || (d + 1 < n && draw.is_multiple_of(5) && holders < (total - 1) / 4) =>
                {
                    holders += 1;
                    1 + draw % 2
                }
                Kind::Sparse => 0,
            };
        }
    }
    let mut out: Vec<String> = docs.iter().map(|tfs| text(tfs)).collect();
    for _ in 0..dups {
        out.push(out[n - 1].clone());
    }
    out.extend(std::iter::repeat_n(String::new(), empties));
    out
}

proptest! {
    /// Mixed dense, sparse and wide terms in random term-id order: long
    /// dense runs broken by sparse terms, duplicate and empty documents.
    #[test]
    fn layout_matches_linear(
        kinds in prop::collection::vec(kind(), 1..20),
        n in 4usize..48,
        draws in prop::collection::vec(prop::collection::vec(any::<u8>(), 20..21), 48..49),
        dups in 0usize..4,
        empties in 0usize..3,
        qtf in prop::collection::vec(0u8..3, 20..21),
    ) {
        let docs = corpus(&kinds, n, &draws, dups, empties);
        let idx = build(&docs);
        check(&idx, &query(&qtf[..kinds.len()]), &tops(docs.len()));
        // Every term at once: the longest dense runs the plan has.
        check(&idx, &query(&vec![1; kinds.len()]), &tops(docs.len()));
    }

    /// A term whose df is exactly at the dense threshold (`df * 4 == n`)
    /// next to one just below it, between dense terms.
    #[test]
    fn dense_threshold_boundary(
        quarter in 1usize..16,
        dense_before in 0usize..6,
        dense_after in 0usize..6,
        tf in 1u32..4,
    ) {
        let n = 4 * quarter;
        let at = dense_before;
        let below = dense_before + 1;
        let terms = dense_before + 2 + dense_after;
        let docs: Vec<String> = (0..n)
            .map(|d| {
                let tfs: Vec<u32> = (0..terms)
                    .map(|t| match t {
                        t if t == at => u32::from(d < quarter) * tf,
                        t if t == below => u32::from(d == 0 || d < quarter - 1),
                        _ => 1 + (d as u32 + t as u32) % 3,
                    })
                    .collect();
                text(&tfs)
            })
            .collect();
        let idx = build(&docs);
        check(&idx, &query(&vec![1; terms]), &tops(n));
        let mut only_edges = vec![0; terms];
        only_edges[at] = 1;
        only_edges[below] = 2;
        check(&idx, &query(&only_edges), &tops(n));
    }

    /// Wide terms: tfs above 255 (some far above), mixed with small tfs
    /// of the same term, in dense-threshold and sparse-level dfs.
    #[test]
    fn wide_tf_terms(
        n in 2usize..24,
        big in prop::collection::vec(256u32..2000, 24..25),
        holders in prop::collection::vec(any::<bool>(), 24..25),
        top in 0usize..30,
    ) {
        let docs: Vec<String> = (0..n)
            .map(|d| {
                let wide = if d % 3 == 0 { big[d] } else { 1 + big[d] % 255 };
                let rare = u32::from(d == 0 || holders[d]) * (big[d] % 7);
                text(&[1, wide, rare, 2])
            })
            .collect();
        let idx = build(&docs);
        check(&idx, &query(&[1, 1, 1, 1]), &[top, n + 1]);
        check(&idx, &query(&[0, 2, 1, 0]), &[top, n + 1]);
    }
}

/// A tf beyond every compact type (`u16` included) stays exact.
#[test]
fn tf_beyond_u16_is_exact() {
    let docs = vec![
        text(&[1, 70_000, 1]),
        text(&[2, 300, 0]),
        text(&[1, 1, 1]),
        text(&[0, 65_536, 0]),
        String::new(),
    ];
    let idx = build(&docs);
    for q in [&[1, 1, 1][..], &[0, 1, 0], &[3, 2, 1]] {
        check(&idx, &query(q), &tops(docs.len()));
    }
}

/// Identical documents tie on score everywhere: the order is insertion
/// order, whatever `top` cuts off.
#[test]
fn duplicate_documents_keep_insertion_order() {
    for copies in [1usize, 2, 5, 33, 200] {
        let mut docs = vec![text(&[1, 2, 1]); copies];
        docs.push(text(&[0, 0, 1]));
        docs.push(String::new());
        let idx = build(&docs);
        check(&idx, &query(&[1, 1, 1]), &tops(docs.len()));
    }
}

/// Every Table 5 prompt (Thakur levels and the RTLLM subset) and every
/// Table 4 prompt, as the models query them.
fn table_queries() -> Vec<String> {
    let mut queries = Vec::new();
    for p in thakur_suite().iter().chain(&rtllm_table5_subset()) {
        for prompt in &p.prompts {
            queries.push(format!("{ALIGN_INSTRUCT}\n{prompt}"));
        }
    }
    for task in sc_suite() {
        queries.push(format!("{EDA_INSTRUCT}\n{}", task.prompt));
    }
    queries
}

/// Each zoo model's `(pretraining, finetune)` sets, rebuilt from public
/// parts: the corpus and augmentation seeds `ModelZoo::build` uses, the
/// completion-only set from its own `augment` run, and each profile's
/// pretraining corpus (Ours-13B shares Ours-7B's index).
fn zoo_training(opts: &ZooOptions) -> Vec<(ModelId, Dataset, Dataset)> {
    let corpus =
        dda_corpus::generate_corpus(opts.corpus_modules, &mut SmallRng::seed_from_u64(opts.seed));
    let augmented = |stages| {
        let pipe = PipelineOptions {
            stages,
            ..PipelineOptions::default()
        };
        augment(
            &corpus,
            &pipe,
            &mut SmallRng::seed_from_u64(opts.seed ^ 0xF0),
        )
        .0
    };
    let (full, general) = (augmented(StageSet::FULL), augmented(StageSet::GENERAL_AUG));
    [
        (ModelId::Gpt35, SlmProfile::gpt35(), Dataset::new()),
        (ModelId::Ours7B, SlmProfile::llama2(7.0), full.clone()),
        (ModelId::Ours13B, SlmProfile::llama2(7.0), full),
        (ModelId::Thakur, SlmProfile::codegen16b(), general.clone()),
        (ModelId::Llama2Pt, SlmProfile::llama2(13.0), Dataset::new()),
        (ModelId::GeneralAug, SlmProfile::llama2(13.0), general),
    ]
    .into_iter()
    .map(|(id, profile, finetune)| (id, pretraining_dataset(&profile), finetune))
    .collect()
}

fn check_zoo(opts: &ZooOptions) {
    let zoo = ModelZoo::build(opts);
    let training = zoo_training(opts);
    let queries = table_queries();
    assert_eq!(zoo.iter().count(), training.len());
    for ((id, model), (trained_id, pretraining, finetune)) in zoo.iter().zip(&training) {
        assert_eq!(id, *trained_id);
        let idx = model.index();
        let linear = LinearTfIdf::over_training(pretraining, finetune, &PROGRESSIVE_ORDER);
        assert_eq!(idx.len(), linear.len(), "{id}: document count");
        for q in &queries {
            let all = linear.query(q, usize::MAX);
            for top in [0, 1, 8, 32, usize::MAX] {
                let fast = idx.try_query(q, top).unwrap();
                assert_prefix(&fast, &all, top, &format!("{id} top {top}: {q:?}"));
            }
        }
    }
}

#[test]
fn small_zoo_table_prompts_match_linear() {
    check_zoo(&ZooOptions {
        corpus_modules: 24,
        ..ZooOptions::default()
    });
}

/// The zoo the tables and the benchmark run (192 modules, seed 2024).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: builds the full seed-2024 zoo"
)]
fn seed_2024_zoo_table_prompts_match_linear() {
    check_zoo(&ZooOptions::default());
}
