//! Reference implementations kept as test oracles.
//!
//! The fast model layer (dense-column TF-IDF, symbol-keyed n-grams) is
//! required to be *output-identical* to simpler implementations. This
//! module keeps those alive so the equivalence suites and the criterion
//! benches can compare against them at runtime:
//!
//! * [`LinearTfIdf`] is the linear-scan retrieval reference: its own
//!   term ids, its own weighted per-document vectors and its own copy of
//!   the TF-IDF formula, sharing no state or code path with
//!   [`TfIdfIndex`](crate::TfIdfIndex);
//! * [`StringNgram`] is the old n-gram model verbatim: context tables
//!   keyed on `Vec<String>` windows of `tokenize_lower` output.
//!
//! Nothing here is part of the supported API surface.

use crate::tfidf::Hit;
use dda_core::intern::Sym;
use dda_core::tokenize::{lookup_syms, tokenize_lower, tokenize_syms};
use dda_core::{Dataset, TaskKind};
use std::collections::{BTreeMap, HashMap};

/// The linear-scan TF-IDF reference for [`TfIdfIndex`](crate::TfIdfIndex).
///
/// Term ids are assigned in first-seen order, each document is a
/// `(term, weight)` vector sorted by term id, and a query scans every
/// document, accumulating its dot product in ascending term id, then
/// sorts all hits. The index keeps none of these vectors; this copy
/// exists so its scores can be checked bit for bit.
#[derive(Debug, Default)]
pub struct LinearTfIdf {
    vocab: HashMap<Sym, u32>,
    df: Vec<u32>,
    /// Per-document `(term, tf)` vectors, IDF-weighted in place by
    /// `finish`.
    docs: Vec<Vec<(u32, f64)>>,
    norms: Vec<f64>,
    finished: bool,
}

/// `ln((n + 1) / df)`.
fn linear_idf(n: f64, df: u32) -> f64 {
    ((n + 1.0) / df.max(1) as f64).ln()
}

/// `(1 + ln tf) · idf`.
fn linear_weight(tf: f64, idf: f64) -> f64 {
    (1.0 + tf.ln()) * idf
}

impl LinearTfIdf {
    /// Creates an empty reference index.
    pub fn new() -> Self {
        LinearTfIdf::default()
    }

    /// The finished reference over a model's training entries, in the
    /// order finetuning indexes them: `pretraining` then `finetune`, each
    /// in task `order`, every entry as its instruct tokens followed by its
    /// input tokens.
    pub fn over_training(pretraining: &Dataset, finetune: &Dataset, order: &[TaskKind]) -> Self {
        let mut idx = LinearTfIdf::new();
        for dataset in [pretraining, finetune] {
            for &kind in order {
                for e in dataset.entries(kind) {
                    let toks: Vec<Sym> = tokenize_syms(&e.instruct)
                        .chain(tokenize_syms(&e.input))
                        .collect();
                    idx.add_tokens(&toks);
                }
            }
        }
        idx.finish();
        idx
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// `true` when no documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Adds a document.
    pub fn add(&mut self, text: &str) {
        let toks: Vec<Sym> = tokenize_syms(text).collect();
        self.add_tokens(&toks);
    }

    /// Adds a pre-tokenized document.
    pub fn add_tokens(&mut self, toks: &[Sym]) {
        assert!(!self.finished, "reference is frozen after finish()");
        let mut tf: BTreeMap<u32, f64> = BTreeMap::new();
        for sym in toks {
            let next = self.vocab.len() as u32;
            let id = *self.vocab.entry(*sym).or_insert(next);
            if id == next {
                self.df.push(0);
            }
            *tf.entry(id).or_insert(0.0) += 1.0;
        }
        for id in tf.keys() {
            self.df[*id as usize] += 1;
        }
        self.docs.push(tf.into_iter().collect());
    }

    /// Weights every document vector and computes the norms.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let n = self.docs.len().max(1) as f64;
        for doc in &mut self.docs {
            for (id, w) in doc.iter_mut() {
                *w = linear_weight(*w, linear_idf(n, self.df[*id as usize]));
            }
        }
        self.norms = self
            .docs
            .iter()
            .map(|d| d.iter().map(|(_, w)| w * w).sum::<f64>().sqrt())
            .collect();
    }

    /// Scores `query` against every document and returns the best `top`,
    /// best first, ties in insertion order. Only looks query tokens up, so
    /// it never interns.
    ///
    /// # Panics
    ///
    /// Panics if [`LinearTfIdf::finish`] has not been called.
    pub fn query(&self, query: &str, top: usize) -> Vec<Hit> {
        assert!(self.finished, "call finish() before query()");
        let mut qtf: BTreeMap<u32, f64> = BTreeMap::new();
        for sym in lookup_syms(query).flatten() {
            if let Some(&id) = self.vocab.get(&sym) {
                *qtf.entry(id).or_insert(0.0) += 1.0;
            }
        }
        let n = self.docs.len().max(1) as f64;
        let terms: Vec<(u32, f64)> = qtf
            .into_iter()
            .map(|(id, tf)| (id, linear_weight(tf, linear_idf(n, self.df[id as usize]))))
            .collect();
        let qnorm = terms.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        if qnorm == 0.0 {
            return Vec::new();
        }
        let mut hits: Vec<Hit> = self
            .docs
            .iter()
            .zip(&self.norms)
            .enumerate()
            .filter_map(|(doc, (d, &norm))| {
                let mut dot = 0.0;
                for (id, qw) in &terms {
                    if let Ok(k) = d.binary_search_by_key(id, |(t, _)| *t) {
                        dot += qw * d[k].1;
                    }
                }
                (dot != 0.0 && norm != 0.0).then(|| Hit {
                    doc,
                    score: dot / (qnorm * norm),
                })
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        hits.truncate(top);
        hits
    }
}

/// The pre-interning order-`N` token language model, kept verbatim as the
/// equivalence/benchmark reference for [`NgramModel`](crate::NgramModel).
#[derive(Debug, Clone)]
pub struct StringNgram {
    order: usize,
    /// context → (next-token counts, total).
    counts: HashMap<Vec<String>, (HashMap<String, u64>, u64)>,
    vocab: HashMap<String, ()>,
    smoothing_k: f64,
    trained_tokens: u64,
}

impl StringNgram {
    /// Creates an untrained model of the given order (≥ 1).
    pub fn new(order: usize) -> Self {
        StringNgram {
            order: order.max(1),
            counts: HashMap::new(),
            vocab: HashMap::new(),
            smoothing_k: 0.05,
            trained_tokens: 0,
        }
    }

    /// Number of tokens seen during training.
    pub fn trained_tokens(&self) -> u64 {
        self.trained_tokens
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Trains on one text (token stream with boundary padding).
    pub fn train(&mut self, text: &str) {
        let toks = padded(text, self.order);
        for w in toks.windows(self.order) {
            let (ctx, next) = w.split_at(self.order - 1);
            let e = self
                .counts
                .entry(ctx.to_vec())
                .or_insert_with(|| (HashMap::new(), 0));
            *e.0.entry(next[0].clone()).or_insert(0) += 1;
            e.1 += 1;
            self.vocab.entry(next[0].clone()).or_insert(());
        }
        self.trained_tokens += toks.len().saturating_sub(self.order) as u64;
    }

    /// Probability of `next` given `ctx` (add-k smoothed).
    fn prob(&self, ctx: &[String], next: &str) -> f64 {
        let v = self.vocab.len().max(2) as f64;
        match self.counts.get(ctx) {
            Some((nexts, total)) => {
                let c = nexts.get(next).copied().unwrap_or(0) as f64;
                (c + self.smoothing_k) / (*total as f64 + self.smoothing_k * v)
            }
            None => 1.0 / v,
        }
    }

    /// Cross-entropy (nats/token) of `text` under the model.
    pub fn cross_entropy(&self, text: &str) -> f64 {
        let toks = padded(text, self.order);
        if toks.len() < self.order {
            return (self.vocab.len().max(2) as f64).ln();
        }
        let mut total = 0.0;
        let mut n = 0usize;
        for w in toks.windows(self.order) {
            let (ctx, next) = w.split_at(self.order - 1);
            total += -self.prob(ctx, &next[0]).ln();
            n += 1;
        }
        total / n.max(1) as f64
    }

    /// Mean cross-entropy over several held-out texts.
    pub fn loss(&self, texts: &[&str]) -> f64 {
        if texts.is_empty() {
            return 0.0;
        }
        texts.iter().map(|t| self.cross_entropy(t)).sum::<f64>() / texts.len() as f64
    }
}

fn padded(text: &str, order: usize) -> Vec<String> {
    let mut toks = vec!["<s>".to_owned(); order.saturating_sub(1)];
    toks.extend(tokenize_lower(text));
    toks.push("</s>".to_owned());
    toks
}
