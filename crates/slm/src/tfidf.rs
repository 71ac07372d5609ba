//! TF-IDF retrieval index with a dense-column query layout.
//!
//! The simulatable LM's "attention": finetuning builds an index over
//! (instruct, input) pairs, and generation retrieves the best-matching
//! training examples for a query. Cosine similarity over TF-IDF weighted
//! token vectors.
//!
//! Tokens are interned [`Sym`]s (see `dda_core::intern`), mapped to term
//! ids in first-seen order by one dense table that both the build and the
//! query read; a query only looks its symbols up, so it never interns.
//! While building, each document's `(term, tf)` pairs, sorted by term id
//! and counted in a reused per-index counter, are appended to one flat
//! doc-major buffer. [`finish`] lays that buffer out for queries, computes
//! the document norms from it and frees it. A term's weight
//! `(1 + ln tf) · ln((n+1)/df)` depends only on its tf, its df and the
//! document count `n`, so the layout stores raw term frequencies and the
//! query recomputes each weight with the same expression:
//!
//! - a term in at least a quarter of the documents whose tf never exceeds
//!   255 is a *dense* column, one `u8` tf per document (0 = absent);
//! - every other term with tf ≤ 255 is a *sparse* posting list in CSR
//!   form: parallel `u32` doc and `u8` tf arrays in ascending doc order;
//! - a term with a wider tf is a *wide* posting list with `u32` tfs, so
//!   no tf is ever clamped.
//!
//! A finished index keeps only that layout, the norms and the per-term
//! tables; no weight is stored (DESIGN.md §5r).
//!
//! [`try_query`] accumulates into a reused thread-local score buffer, term
//! by term in ascending term id. Runs of consecutive dense terms are fused
//! into one branch-free pass over the documents; an absent document adds
//! `+0.0`, which leaves every sum's bits unchanged. One ascending pass
//! over the buffer then keeps the top-k in a bounded heap under the total
//! hit order. Querying before `finish` is a typed
//! [`IndexError::NotFinished`].
//!
//! Determinism: every dot product and every norm accumulates term by term
//! in ascending term-id order from bit-identical products, so scores are
//! bit-identical across runs and to the linear-scan oracle
//! [`LinearTfIdf`](crate::reference::LinearTfIdf) the equivalence suites
//! compare against (DESIGN.md §5n).
//!
//! [`finish`]: TfIdfIndex::finish
//! [`try_query`]: TfIdfIndex::try_query

use dda_core::intern::Sym;
use dda_core::tokenize::{lookup_syms, tokenize_syms};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Typed errors from the retrieval indexes.
///
/// [`TfIdfIndex::try_query`] returns `NotFinished` on an unfinished index
/// so callers that drive the index from untrusted request streams (the
/// serve daemon above all) can answer with a structured error. The sharded
/// index ([`crate::ShardedTfIdf`]) is fallible from day one.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexError {
    /// A query arrived before [`TfIdfIndex::finish`] froze the index.
    NotFinished,
    /// An insert reused a document id already live in the index.
    DuplicateId(u64),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::NotFinished => write!(f, "call finish() before query()"),
            IndexError::DuplicateId(id) => write!(f, "document id {id} is already indexed"),
        }
    }
}

impl std::error::Error for IndexError {}

/// A scored retrieval hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Index of the document in insertion order.
    pub doc: usize,
    /// Cosine similarity in `[0, 1]`.
    pub score: f64,
}

/// Best-score-first, ties broken by insertion order. A total order: doc
/// ids are unique.
fn hit_order(a: &Hit, b: &Hit) -> Ordering {
    b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc))
}

/// A [`Hit`] ordered by [`hit_order`], so a max-heap keeps the worst of
/// the running top-k on top.
struct Ranked(Hit);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        hit_order(&self.0, &other.0)
    }
}

/// A term is stored as a dense column when it is in at least
/// `1 / DENSE_DF_DIVISOR` of the documents (and its tf fits a `u8`).
const DENSE_DF_DIVISOR: usize = 4;

/// `TfIdfIndex::vocab` entry of a symbol no document has.
const ABSENT: u32 = u32::MAX;

/// Consecutive dense query terms are applied in one pass over the
/// documents, at most this many at a time.
const DENSE_FUSE: usize = 4;

/// Entries of a per-query product table: `prod[tf] = qw · weight(tf)` for
/// every tf a `u8` holds, so a `u8` index never leaves it.
type ProdTable = [f64; 256];

/// Inverse document frequency, `ln((n + 1) / df)`.
fn idf(n: f64, df: u32) -> f64 {
    ((n + 1.0) / df.max(1) as f64).ln()
}

/// A term's TF-IDF weight. The one expression every weight comes from:
/// the norms at `finish`, query vectors, and the products the query
/// recomputes from stored tfs.
fn weight(tf: f64, idf: f64) -> f64 {
    (1.0 + tf.ln()) * idf
}

/// Where `finish` put a term's postings; the payload indexes the dense
/// columns or the term's list in the sparse or wide store.
#[derive(Debug, Clone, Copy)]
enum Layout {
    Dense(u32),
    Sparse(u32),
    Wide(u32),
}

/// How `finish` stored one term.
#[derive(Debug, Clone, Copy)]
struct TermLayout {
    /// The term's largest tf in any document (sizes its product table).
    max_tf: u32,
    at: Layout,
}

/// Posting lists in CSR form: list `i` is `doc[off[i]..off[i + 1]]`
/// (ascending) with the matching term frequencies in `tf`.
#[derive(Debug, Clone)]
struct Csr<T> {
    off: Vec<usize>,
    doc: Vec<u32>,
    tf: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// Reserves the next list, `len` postings long; returns its index.
    fn reserve(&mut self, len: usize) -> u32 {
        self.off.push(self.off[self.off.len() - 1] + len);
        (self.off.len() - 2) as u32
    }

    /// Allocates the postings of every reserved list; returns each list's
    /// start, the cursor [`Csr::put`] fills it from.
    fn allocate(&mut self) -> Vec<usize> {
        let total = self.off[self.off.len() - 1];
        self.doc = vec![0; total];
        self.tf = vec![T::default(); total];
        self.off[..self.off.len() - 1].to_vec()
    }

    /// Writes the next posting of a list whose cursor is `at`.
    fn put(&mut self, at: &mut usize, doc: usize, tf: T) {
        self.doc[*at] = doc as u32;
        self.tf[*at] = tf;
        *at += 1;
    }

    fn list(&self, i: u32) -> (&[u32], &[T]) {
        let range = self.off[i as usize]..self.off[i as usize + 1];
        (&self.doc[range.clone()], &self.tf[range])
    }
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            off: vec![0],
            doc: Vec::new(),
            tf: Vec::new(),
        }
    }
}

/// Adds `W` consecutive dense terms to every document in one pass:
/// `scores[d] += prods[j][cols[j][d]]` for `j` in ascending order, the
/// same additions in the same order as `W` separate passes.
fn fused<const W: usize>(
    scores: &mut [f64],
    cols: &[&[u8]; DENSE_FUSE],
    prods: &[ProdTable; DENSE_FUSE],
) {
    let len = scores.len();
    let cols: [&[u8]; W] = std::array::from_fn(|j| &cols[j][..len]);
    for (d, score) in scores.iter_mut().enumerate() {
        let mut s = *score;
        for j in 0..W {
            s += prods[j][cols[j][d] as usize];
        }
        *score = s;
    }
}

thread_local! {
    /// Per-thread score accumulator, at least as long as the largest
    /// index queried on the thread. All zeros between queries: the top-k
    /// pass takes every value it reads.
    static SCORES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// TF-IDF index over text documents.
#[derive(Debug, Clone, Default)]
pub struct TfIdfIndex {
    /// Number of indexed documents.
    len: usize,
    /// Build buffer: every document's `(term, tf)` pairs sorted by term id,
    /// documents back to back; document `d` ends at `ends[d]`. `finish`
    /// lays the postings out from them and frees both.
    pairs: Vec<(u32, u32)>,
    ends: Vec<usize>,
    /// Document norms (computed after `finish`).
    norms: Vec<f64>,
    /// Token symbol id → dense term id (first-occurrence order), or
    /// [`ABSENT`]; as long as the largest symbol id seen.
    vocab: Vec<u32>,
    /// Document frequency per term id.
    df: Vec<u32>,
    /// Build scratch: the current document's count per term id (all zero
    /// between documents) and the ids it has touched.
    counts: Vec<u32>,
    touched: Vec<u32>,
    /// Per term id: how its postings are stored. Built by `finish`.
    layout: Vec<TermLayout>,
    /// Dense columns, `len()` bytes each, back to back: the tf of column
    /// `c` in doc `d` is `dense[c * len() + d]`, 0 when absent.
    dense: Vec<u8>,
    /// Posting lists of the other terms whose tf fits a `u8`.
    sparse: Csr<u8>,
    /// Posting lists of terms with a tf above 255. A tf counts tokens of
    /// one document, so it fits a `u32` (a longer document's token slice
    /// alone would take 16 GiB).
    wide: Csr<u32>,
    finished: bool,
}

impl TfIdfIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        TfIdfIndex::default()
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The term id of `sym`, assigned on first sight.
    fn term_id(&mut self, sym: Sym) -> u32 {
        let at = sym.as_u32() as usize;
        if at >= self.vocab.len() {
            self.vocab.resize(at + 1, ABSENT);
        }
        if self.vocab[at] == ABSENT {
            self.vocab[at] = self.df.len() as u32;
            self.df.push(0);
            self.counts.push(0);
        }
        self.vocab[at]
    }

    /// The term id of `sym`, if any document has it.
    fn known_term(&self, sym: Sym) -> Option<u32> {
        self.vocab
            .get(sym.as_u32() as usize)
            .copied()
            .filter(|&id| id != ABSENT)
    }

    /// Adds a document; returns its index.
    pub fn add(&mut self, text: &str) -> usize {
        let toks: Vec<Sym> = tokenize_syms(text).collect();
        self.add_tokens(&toks)
    }

    /// Adds a pre-tokenized document (the parallel-training entry point);
    /// returns its index.
    ///
    /// `add(text)` ≡ `add_tokens(&tokenize_syms(text).collect::<Vec<_>>())`.
    pub fn add_tokens(&mut self, toks: &[Sym]) -> usize {
        assert!(!self.finished, "index is frozen after finish()");
        for &sym in toks {
            let id = self.term_id(sym);
            let count = &mut self.counts[id as usize];
            if *count == 0 {
                self.touched.push(id);
            }
            *count += 1;
        }
        self.touched.sort_unstable();
        for id in self.touched.drain(..) {
            self.df[id as usize] += 1;
            let tf = std::mem::take(&mut self.counts[id as usize]);
            self.pairs.push((id, tf));
        }
        self.ends.push(self.pairs.len());
        self.len += 1;
        self.len - 1
    }

    /// Freezes the index: lays the postings out from the raw tfs,
    /// precomputes the document norms, then frees the build buffer.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        (self.counts, self.touched) = (Vec::new(), Vec::new());
        let (pairs, ends) = (
            std::mem::take(&mut self.pairs),
            std::mem::take(&mut self.ends),
        );
        let docs = || {
            let starts = std::iter::once(0).chain(ends.iter().copied());
            starts.zip(&ends).map(|(start, &end)| &pairs[start..end])
        };
        let len = self.len;
        let mut max_tf = vec![0u32; self.df.len()];
        for &(id, tf) in &pairs {
            let m = &mut max_tf[id as usize];
            *m = (*m).max(tf);
        }
        let (mut sparse, mut wide, mut n_dense) = (Csr::default(), Csr::default(), 0);
        self.layout = max_tf
            .into_iter()
            .zip(&self.df)
            .map(|(max_tf, &df)| {
                let at = if max_tf > u8::MAX as u32 {
                    Layout::Wide(wide.reserve(df as usize))
                } else if df as usize * DENSE_DF_DIVISOR >= len {
                    n_dense += 1;
                    Layout::Dense(n_dense - 1)
                } else {
                    Layout::Sparse(sparse.reserve(df as usize))
                };
                TermLayout { max_tf, at }
            })
            .collect();
        self.dense = vec![0; n_dense as usize * len];
        let mut sparse_at = sparse.allocate();
        let mut wide_at = wide.allocate();
        // Docs are visited in ascending id order, so every list comes out
        // doc-sorted.
        for (d, doc) in docs().enumerate() {
            for &(id, tf) in doc {
                match self.layout[id as usize].at {
                    Layout::Dense(c) => self.dense[c as usize * len + d] = tf as u8,
                    Layout::Sparse(i) => sparse.put(&mut sparse_at[i as usize], d, tf as u8),
                    Layout::Wide(i) => wide.put(&mut wide_at[i as usize], d, tf),
                }
            }
        }
        (self.sparse, self.wide) = (sparse, wide);
        let n = len.max(1) as f64;
        let idfs: Vec<f64> = self.df.iter().map(|&df| idf(n, df)).collect();
        // Each norm sums its squared weights in ascending term id.
        self.norms = docs()
            .map(|doc| {
                doc.iter()
                    .map(|&(id, tf)| {
                        let w = weight(tf as f64, idfs[id as usize]);
                        w * w
                    })
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        self.vocab.shrink_to_fit();
        self.df.shrink_to_fit();
    }

    /// TF-IDF weights of the query's known terms, sorted by term id, plus
    /// the query norm.
    fn query_weights(&self, query: &str) -> (Vec<(u32, f64)>, f64) {
        let mut qtf: HashMap<u32, f64> = HashMap::new();
        // A token the interner has never seen is in no document.
        for sym in lookup_syms(query).flatten() {
            if let Some(id) = self.known_term(sym) {
                *qtf.entry(id).or_insert(0.0) += 1.0;
            }
        }
        let n = self.len.max(1) as f64;
        let mut terms: Vec<(u32, f64)> = qtf.into_iter().collect();
        terms.sort_unstable_by_key(|(id, _)| *id);
        for (id, w) in terms.iter_mut() {
            *w = weight(*w, idf(n, self.df[*id as usize]));
        }
        let qnorm = terms.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        (terms, qnorm)
    }

    /// Scores `query` against the corpus, best first: the cosine of every
    /// document sharing a term with it, ties in insertion order.
    ///
    /// # Errors
    ///
    /// [`IndexError::NotFinished`] if [`TfIdfIndex::finish`] has not been
    /// called.
    pub fn try_query(&self, query: &str, top: usize) -> Result<Vec<Hit>, IndexError> {
        if !self.finished {
            return Err(IndexError::NotFinished);
        }
        dda_obs::count("slm.query.postings", 1);
        let (terms, qnorm) = self.query_weights(query);
        if qnorm == 0.0 || top == 0 {
            return Ok(Vec::new());
        }
        Ok(SCORES.with(|scores| {
            let mut scores = scores.borrow_mut();
            let len = self.len;
            if scores.len() < len {
                scores.resize(len, 0.0);
            }
            let scores = &mut scores[..len];
            self.accumulate(&terms, scores);
            self.top_k(scores, qnorm, top)
        }))
    }

    /// Adds every query term's products into `scores`, term by term in
    /// ascending term id, so each document's sum runs in the order a
    /// linear scan of its sorted vector adds it.
    fn accumulate(&self, terms: &[(u32, f64)], scores: &mut [f64]) {
        let (n, len) = (self.len.max(1) as f64, scores.len());
        // `prod[tf] = qw · weight(tf)` for every tf up to the term's largest
        // (and 255); `prod[0]` stays `+0.0`, what an absent doc adds.
        let products = |id: u32, qw: f64| -> ProdTable {
            let idf = idf(n, self.df[id as usize]);
            let max_tf = self.layout[id as usize].max_tf.min(u8::MAX as u32) as usize;
            let mut prod = [0.0; 256];
            for (tf, p) in prod.iter_mut().enumerate().take(max_tf + 1).skip(1) {
                *p = qw * weight(tf as f64, idf);
            }
            prod
        };
        let dense_column = |id: u32| match self.layout[id as usize].at {
            Layout::Dense(c) => Some(&self.dense[c as usize * len..][..len]),
            _ => None,
        };
        let mut rest = terms;
        while let Some(&(id, qw)) = rest.first() {
            let step = match self.layout[id as usize].at {
                Layout::Dense(_) => {
                    // The run of consecutive dense terms starting here; a
                    // sparse or wide term ends it.
                    let mut cols: [&[u8]; DENSE_FUSE] = [&[]; DENSE_FUSE];
                    let mut prods = [[0.0; 256]; DENSE_FUSE];
                    let mut run = 0;
                    for &(id, qw) in rest.iter().take(DENSE_FUSE) {
                        let Some(col) = dense_column(id) else { break };
                        (cols[run], prods[run]) = (col, products(id, qw));
                        run += 1;
                    }
                    match run {
                        1 => fused::<1>(scores, &cols, &prods),
                        2 => fused::<2>(scores, &cols, &prods),
                        3 => fused::<3>(scores, &cols, &prods),
                        _ => fused::<4>(scores, &cols, &prods),
                    }
                    run
                }
                Layout::Sparse(i) => {
                    let prod = products(id, qw);
                    let (docs, tfs) = self.sparse.list(i);
                    for (&d, &tf) in docs.iter().zip(tfs) {
                        scores[d as usize] += prod[tf as usize];
                    }
                    1
                }
                Layout::Wide(i) => {
                    let prod = products(id, qw);
                    let idf = idf(n, self.df[id as usize]);
                    let (docs, tfs) = self.wide.list(i);
                    for (&d, &tf) in docs.iter().zip(tfs) {
                        scores[d as usize] += match prod.get(tf as usize) {
                            Some(p) => *p,
                            None => qw * weight(tf as f64, idf),
                        };
                    }
                    1
                }
            };
            rest = &rest[step..];
        }
    }

    /// Takes every score out of `scores` (leaving it zeroed) and keeps the
    /// best `top` hits in a bounded heap, returned best first.
    fn top_k(&self, scores: &mut [f64], qnorm: f64, top: usize) -> Vec<Hit> {
        let mut heap = BinaryHeap::with_capacity(top.min(scores.len()));
        // Once the heap is full, the score of its worst hit. Documents
        // arrive in ascending id, so a later one ties the worst only by
        // losing to it, and must score strictly above it to enter.
        let mut floor = 0.0;
        for (doc, (slot, &norm)) in scores.iter_mut().zip(&self.norms).enumerate() {
            let dot = std::mem::take(slot);
            if dot == 0.0 || norm == 0.0 {
                continue;
            }
            let score = dot / (qnorm * norm);
            let hit = Ranked(Hit { doc, score });
            if heap.len() < top {
                heap.push(hit);
            } else if score > floor {
                if let Some(mut worst) = heap.peek_mut() {
                    *worst = hit;
                }
            } else {
                continue;
            }
            if heap.len() == top {
                floor = heap.peek().map_or(0.0, |worst| worst.0.score);
            }
        }
        heap.into_sorted_vec().into_iter().map(|r| r.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(docs: &[&str]) -> TfIdfIndex {
        let mut idx = TfIdfIndex::new();
        for d in docs {
            idx.add(d);
        }
        idx.finish();
        idx
    }

    fn q(idx: &TfIdfIndex, query: &str, top: usize) -> Vec<Hit> {
        idx.try_query(query, top).unwrap()
    }

    #[test]
    fn exact_match_scores_highest() {
        let idx = index(&[
            "a counter with reset and enable",
            "a four to one multiplexer",
            "an eight bit ripple adder",
        ]);
        let hits = q(&idx, "a counter with reset and enable", 3);
        assert_eq!(hits[0].doc, 0);
        assert!(hits[0].score > 0.99);
    }

    #[test]
    fn related_doc_beats_unrelated() {
        let idx = index(&[
            "counter module increments on clock edge",
            "multiplexer selects between inputs",
        ]);
        let hits = q(&idx, "build me a counter that increments", 2);
        assert_eq!(hits[0].doc, 0);
        assert!(hits[0].score > hits.get(1).map(|h| h.score).unwrap_or(0.0));
    }

    #[test]
    fn rare_terms_weigh_more() {
        let idx = index(&[
            "module module module gray encoder",
            "module counter",
            "module adder",
        ]);
        // "gray" is rare; a query containing it must pick doc 0 even though
        // "module" appears everywhere.
        let hits = q(&idx, "gray module", 3);
        assert_eq!(hits[0].doc, 0);
    }

    #[test]
    fn no_overlap_returns_empty() {
        let idx = index(&["alpha beta", "gamma delta"]);
        assert!(q(&idx, "zeta", 5).is_empty());
    }

    #[test]
    fn top_truncates() {
        let idx = index(&["x a", "x b", "x c", "x d"]);
        assert_eq!(q(&idx, "x", 2).len(), 2);
    }

    #[test]
    fn query_before_finish_is_typed_error() {
        let mut idx = TfIdfIndex::new();
        idx.add("a");
        assert_eq!(idx.try_query("a", 1), Err(IndexError::NotFinished));
        assert_eq!(
            IndexError::NotFinished.to_string(),
            "call finish() before query()"
        );
    }

    #[test]
    fn postings_match_linear_reference() {
        let docs = [
            "counter module increments on clock edge",
            "multiplexer selects between inputs",
            "module counter with reset",
            "",
            "counter counter counter",
        ];
        let idx = index(&docs);
        let mut linear = crate::reference::LinearTfIdf::new();
        for d in docs {
            linear.add(d);
        }
        linear.finish();
        for q in [
            "counter",
            "module counter reset",
            "nothing indexed here",
            "",
            "multiplexer edge",
        ] {
            for top in [0, 1, 3, 10] {
                assert_eq!(
                    idx.try_query(q, top).unwrap(),
                    linear.query(q, top),
                    "{q:?}/{top}"
                );
            }
        }
    }

    #[test]
    fn add_tokens_matches_add() {
        let mut a = TfIdfIndex::new();
        let mut b = TfIdfIndex::new();
        for d in ["counter with reset", "an adder", "counter again"] {
            a.add(d);
            let toks: Vec<_> = dda_core::tokenize::tokenize_syms(d).collect();
            b.add_tokens(&toks);
        }
        a.finish();
        b.finish();
        assert_eq!(
            a.try_query("counter reset", 3).unwrap(),
            b.try_query("counter reset", 3).unwrap()
        );
    }

    #[test]
    fn tie_break_is_insertion_order() {
        let idx = index(&["x y", "x y", "x y"]);
        let hits = q(&idx, "x y", 3);
        assert_eq!(
            hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
