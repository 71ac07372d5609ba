//! Index-build oracle: `TfIdfIndex::add_tokens` (dense symbol → term-id
//! table, tfs counted in a reused per-index counter) must build exactly
//! the index the old build did.
//!
//! The old build is kept here: a `HashMap<Sym, u32>` vocabulary, a
//! per-document `HashMap<u32, f64>` of tfs sorted by term id, IDF
//! weighting at finish, and the linear-scan query over the weighted
//! vectors. Every document used as a query, and random queries, must
//! give bit-identical hits from the new index's `try_query`, from the
//! `LinearTfIdf` oracle and from the old build.

use dda_core::intern::{intern, Sym};
use dda_core::tokenize::tokenize_syms;
use dda_slm::reference::LinearTfIdf;
use dda_slm::tfidf::Hit;
use dda_slm::TfIdfIndex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The build and query as they were before the dense vocabulary.
#[derive(Default)]
struct OldIndex {
    docs: Vec<Vec<(u32, f64)>>,
    norms: Vec<f64>,
    vocab: HashMap<Sym, u32>,
    df: Vec<u32>,
}

fn idf(n: f64, df: u32) -> f64 {
    ((n + 1.0) / df.max(1) as f64).ln()
}

fn weight(tf: f64, idf: f64) -> f64 {
    (1.0 + tf.ln()) * idf
}

impl OldIndex {
    fn term_id(&mut self, sym: Sym) -> u32 {
        if let Some(id) = self.vocab.get(&sym) {
            return *id;
        }
        let id = self.vocab.len() as u32;
        self.vocab.insert(sym, id);
        self.df.push(0);
        id
    }

    fn add_tokens(&mut self, toks: &[Sym]) {
        let mut tf: HashMap<u32, f64> = HashMap::with_capacity(toks.len());
        for &sym in toks {
            let id = self.term_id(sym);
            *tf.entry(id).or_insert(0.0) += 1.0;
        }
        let mut doc: Vec<(u32, f64)> = tf.into_iter().collect();
        doc.sort_unstable_by_key(|(id, _)| *id);
        for (id, _) in &doc {
            self.df[*id as usize] += 1;
        }
        self.docs.push(doc);
    }

    fn finish(&mut self) {
        let n = self.docs.len().max(1) as f64;
        for doc in &mut self.docs {
            for (id, w) in doc.iter_mut() {
                *w = weight(*w, idf(n, self.df[*id as usize]));
            }
        }
        self.norms = self
            .docs
            .iter()
            .map(|d| d.iter().map(|(_, w)| w * w).sum::<f64>().sqrt())
            .collect();
    }

    fn query(&self, query: &str, top: usize) -> Vec<Hit> {
        let mut qtf: HashMap<u32, f64> = HashMap::new();
        for sym in tokenize_syms(query) {
            if let Some(id) = self.vocab.get(&sym) {
                *qtf.entry(*id).or_insert(0.0) += 1.0;
            }
        }
        let n = self.docs.len().max(1) as f64;
        let mut terms: Vec<(u32, f64)> = qtf.into_iter().collect();
        terms.sort_unstable_by_key(|(id, _)| *id);
        for (id, w) in terms.iter_mut() {
            *w = weight(*w, idf(n, self.df[*id as usize]));
        }
        let qnorm = terms.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        if qnorm == 0.0 {
            return Vec::new();
        }
        let mut hits: Vec<Hit> = self
            .docs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| {
                let mut dot = 0.0;
                for (id, qw) in &terms {
                    if let Ok(k) = d.binary_search_by_key(id, |(t, _)| *t) {
                        dot += qw * d[k].1;
                    }
                }
                let norm = self.norms[i];
                (dot != 0.0 && norm != 0.0).then(|| Hit {
                    doc: i,
                    score: dot / (qnorm * norm),
                })
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        hits.truncate(top);
        hits
    }
}

fn assert_bit_identical(new: &[Hit], old: &[Hit], what: &str) {
    assert_eq!(new.len(), old.len(), "{what}: hit count");
    for (n, o) in new.iter().zip(old) {
        assert_eq!(n.doc, o.doc, "{what}: doc order");
        assert_eq!(
            n.score.to_bits(),
            o.score.to_bits(),
            "{what}: score of doc {}",
            n.doc
        );
    }
}

/// Word `w` of case `case`: every case has its own vocabulary, so it
/// interns its words afresh, in its own order.
fn word(case: usize, w: usize) -> String {
    format!("c{case}w{w}")
}

/// Builds both indexes over `docs` (word indices) after interning the
/// vocabulary in `intern_order`, so symbol ids disagree with first-seen
/// order, then compares every document as a query and `queries`.
fn check(docs: &[Vec<usize>], intern_order: &[usize], queries: &[Vec<usize>]) {
    static CASES: AtomicUsize = AtomicUsize::new(0);
    let case = CASES.fetch_add(1, Ordering::Relaxed);
    for &w in intern_order {
        intern(&word(case, w));
    }
    let text = |ws: &[usize]| -> String {
        ws.iter()
            .map(|&w| word(case, w))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut new = TfIdfIndex::new();
    let mut linear = LinearTfIdf::new();
    let mut old = OldIndex::default();
    for doc in docs {
        let toks: Vec<Sym> = tokenize_syms(&text(doc)).collect();
        new.add_tokens(&toks);
        linear.add_tokens(&toks);
        old.add_tokens(&toks);
    }
    new.finish();
    linear.finish();
    old.finish();
    for (i, q) in docs.iter().chain(queries).enumerate() {
        let q = text(q);
        for top in [1, 4, docs.len() + 1] {
            let what = format!("query {i} top {top}");
            let reference = old.query(&q, top);
            assert_bit_identical(&new.try_query(&q, top).unwrap(), &reference, &what);
            assert_bit_identical(&linear.query(&q, top), &reference, &what);
        }
    }
}

/// A shuffled `0..vocab` from `keys` (one sort key per word).
fn permutation(vocab: usize, keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..vocab).collect();
    order.sort_by_key(|&w| (keys[w % keys.len()].rotate_left(w as u32), w));
    order
}

proptest! {
    /// Random token streams, with repeated and empty documents and symbols
    /// interned out of first-seen order.
    #[test]
    fn build_matches_old_build(
        docs in prop::collection::vec(prop::collection::vec(0usize..24, 0..30), 1..24),
        repeat in prop::collection::vec(0usize..24, 0..6),
        keys in prop::collection::vec(any::<u64>(), 1..8),
        queries in prop::collection::vec(prop::collection::vec(0usize..30, 0..8), 1..6),
    ) {
        let mut docs = docs;
        for r in repeat {
            let copy = docs[r % docs.len()].clone();
            docs.push(copy);
        }
        docs.push(Vec::new());
        check(&docs, &permutation(30, &keys), &queries);
    }

    /// Terms with a tf above 255 in some document (the wide layout).
    #[test]
    fn wide_tfs_match_old_build(
        docs in prop::collection::vec(prop::collection::vec(0usize..6, 0..12), 1..10),
        heavy in prop::collection::vec(0usize..6, 1..4),
        tfs in prop::collection::vec(256usize..700, 4..5),
        keys in prop::collection::vec(any::<u64>(), 1..4),
        queries in prop::collection::vec(prop::collection::vec(0usize..8, 1..6), 1..4),
    ) {
        let mut docs = docs;
        for (w, tf) in heavy.into_iter().zip(tfs) {
            let mut doc = vec![w; tf];
            doc.push((w + 1) % 6);
            docs.push(doc);
        }
        check(&docs, &permutation(8, &keys), &queries);
    }
}
