//! Sharded TF-IDF retrieval: insert a corpus once, then query it.
//!
//! [`ShardedTfIdf`] keeps the scoring model of
//! [`TfIdfIndex`](crate::TfIdfIndex) (cosine over `(1 + ln tf) ·
//! ln((n+1)/df)` weights) but partitions the corpus across `S` shards —
//! `shard(id) = splitmix64(id) mod S` — each holding its own slot array,
//! inverted postings, and document frequencies. Its callers (the daemon's
//! `retrieve` verb and the Table 3 RAG index) insert a fixed corpus and
//! then only query:
//!
//! - [`insert`] appends a slot to one shard and pushes `(slot, tf)`
//!   postings (slot order stays ascending for free), bumping that shard's
//!   per-term df. No rebuild of any kind.
//! - [`query`] returns an **exact** global top-k. With a single shard the
//!   scoring pass is a dense accumulator + touched list +
//!   `select_nth_unstable` over the shard's postings. With multiple shards
//!   the query prunes: `(shard, term)` pairs are visited in descending
//!   upper-bound order (per-shard max document weight × idf × query
//!   weight), and once a shard's remaining terms' summed bound — divided
//!   by the shard's minimum norm — falls strictly below the current top-k
//!   threshold, no unseen document of that shard can enter the top-k and
//!   the shard stops early. Candidates are rescored *exactly* (canonical
//!   term order, same expressions), so pruning changes wall-clock, never
//!   results.
//!
//! # Determinism contract
//!
//! Results (hits, scores, tie order) are **bit-identical** to a
//! from-scratch sequential build of the same corpus at every point in an
//! insert/query sequence, and invariant across shard counts. Three
//! mechanisms carry the proof:
//!
//! 1. Raw term frequencies are stored; idf weighting happens at query
//!    time from exact integer `(df, n)` state, which an incremental
//!    sequence and a fresh build agree on by construction.
//! 2. Every float accumulation (query norm, document norms, dot
//!    products) runs in *canonical term order* — terms sorted by their
//!    resolved string, never by interner symbol value or first-sighting
//!    order — so the summation order does not depend on insertion
//!    history or shard layout.
//! 3. Ranking order `(score desc, id asc)` is total (ids are unique),
//!    so selection and the final sort are order-stable regardless of how
//!    documents are distributed.
//!
//! The equivalence battery in `tests/sharded_props.rs` checks exactly
//! this across shard counts 1/4/16.
//!
//! Failpoint (compiled out by default, see `dda_fail`): `slm.shard.merge`
//! fires once the shards are scored, before the hits are returned.
//!
//! ```
//! use dda_slm::ShardedTfIdf;
//!
//! let mut idx = ShardedTfIdf::new(4);
//! idx.insert(7, "a counter with reset and enable").unwrap();
//! idx.insert(9, "a four to one multiplexer").unwrap();
//! assert_eq!(idx.len(), 2);
//! let hits = idx.query("counter reset", 2);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].id, 7);
//! assert!(idx.query("shift register", 2).is_empty());
//! ```
//!
//! [`insert`]: ShardedTfIdf::insert
//! [`query`]: ShardedTfIdf::query
#![deny(missing_docs)]

use crate::tfidf::IndexError;
use dda_core::intern::{resolve, Sym};
use dda_core::tokenize::{lookup_syms, tokenize_syms};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::RwLock;

/// A scored retrieval hit from the sharded index.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHit {
    /// Caller-assigned document id.
    pub id: u64,
    /// Cosine similarity in `[0, 1]`.
    pub score: f64,
}

/// Best-score-first, ties broken by ascending document id — a total
/// order (ids are unique), so ranking is stable under any sharding.
fn hit_order(a: &ShardHit, b: &ShardHit) -> Ordering {
    b.score.total_cmp(&a.score).then(a.id.cmp(&b.id))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A document's slot within a shard.
#[derive(Debug, Clone)]
struct Slot {
    /// Caller-assigned document id.
    id: u64,
    /// Sparse `(term, raw tf)` vector in canonical (string-sorted) order.
    terms: Vec<(Sym, f64)>,
}

/// One shard: slots, inverted postings, and df counts for its documents.
#[derive(Debug, Clone, Default)]
struct Shard {
    slots: Vec<Slot>,
    /// Term → `(slot, raw tf)` postings in ascending slot order.
    postings: HashMap<Sym, Vec<(u32, f64)>>,
    /// Per-shard document frequency; the global df is the sum over
    /// shards.
    df: HashMap<Sym, u32>,
    /// Per-term maximum `1 + ln tf` over this shard's documents — the
    /// df-free half of the document weight, used as a pruning upper
    /// bound.
    max_lw: HashMap<Sym, f64>,
    /// Ids of the documents in this shard.
    ids: HashSet<u64>,
    /// Σ distinct terms over slots — `terms / slots` is the average
    /// document length the query planner's cost model uses to choose
    /// between candidate rescoring and dense completion.
    terms: usize,
}

impl Shard {
    /// Inserts a document; `false` if `id` is already here.
    fn insert_doc(&mut self, id: u64, text: &str) -> bool {
        if !self.ids.insert(id) {
            return false;
        }
        let terms = canonical_terms(tokenize_syms(text));
        let slot = self.slots.len() as u32;
        for &(sym, tf) in &terms {
            self.postings.entry(sym).or_default().push((slot, tf));
            *self.df.entry(sym).or_insert(0) += 1;
            let lw = 1.0 + tf.ln();
            let bound = self.max_lw.entry(sym).or_insert(0.0);
            if lw > *bound {
                *bound = lw;
            }
        }
        self.terms += terms.len();
        self.slots.push(Slot { id, terms });
        true
    }

    /// Average distinct terms per document, ≥ 1 — the unit cost of
    /// exactly rescoring one candidate, for the rescore-vs-dense switch.
    fn avg_doc_terms(&self) -> u64 {
        (self.terms / self.slots.len().max(1)).max(1) as u64
    }
}

/// Sparse `(term, raw tf)` vector in canonical order: terms sorted by
/// their resolved string. This is the determinism keystone — symbol
/// *values* depend on interning order (thread interleaving), strings do
/// not, so every accumulation over these vectors is run-stable.
fn canonical_terms(toks: impl Iterator<Item = Sym>) -> Vec<(Sym, f64)> {
    let mut tf: HashMap<Sym, f64> = HashMap::new();
    for sym in toks {
        *tf.entry(sym).or_insert(0.0) += 1.0;
    }
    let mut keyed: Vec<(std::sync::Arc<str>, Sym, f64)> = tf
        .into_iter()
        .map(|(sym, tf)| (resolve(sym), sym, tf))
        .collect();
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, sym, tf)| (sym, tf)).collect()
}

/// A query term with its precomputed weight and idf.
struct QueryTerm {
    sym: Sym,
    /// `(1 + ln tf) · idf` — the query-side weight.
    weight: f64,
    /// `ln((n+1)/df)` — reused for document weights during scoring.
    idf: f64,
}

/// Safety factor on pruning bounds. The real-arithmetic bound proof is
/// exact, but the bound and the dot product are floating-point sums over
/// *different* term orders, so they can disagree by a few ulps (relative
/// error ~1e-14 across any realistic term count). Inflating the bound by
/// 1e-9 relative — five orders of magnitude of headroom — makes the
/// strict skip test rigorous in float arithmetic at an unmeasurable cost
/// in pruning power.
const PRUNE_SLACK: f64 = 1.0 + 1e-9;

/// A bounded best-k accumulator over [`hit_order`], shared across shards
/// so later shards prune against the global threshold. Kept sorted (best
/// first); `k` is small (serving clamps it to 64), so ordered insertion
/// beats a binary heap's constant factor.
struct TopK {
    top: usize,
    hits: Vec<ShardHit>,
}

impl TopK {
    fn new(top: usize) -> TopK {
        TopK {
            top,
            hits: Vec::with_capacity(top.min(1024)),
        }
    }

    /// The score a candidate must beat (or tie and win on id) to enter:
    /// `None` while the heap is filling — nothing may be pruned yet.
    fn threshold(&self) -> Option<f64> {
        if self.top == 0 {
            // top-0 keeps nothing; every bound "prunes".
            Some(f64::INFINITY)
        } else if self.hits.len() >= self.top {
            Some(self.hits[self.hits.len() - 1].score)
        } else {
            None
        }
    }

    fn push(&mut self, hit: ShardHit) {
        if self.top == 0 {
            return;
        }
        let pos = self
            .hits
            .partition_point(|x| hit_order(x, &hit) != Ordering::Greater);
        if self.hits.len() == self.top {
            if pos == self.top {
                return;
            }
            self.hits.pop();
        }
        self.hits.insert(pos, hit);
    }

    /// The kept hits, best first.
    fn into_hits(self) -> Vec<ShardHit> {
        self.hits
    }
}

/// A shard's query plan: terms present in the shard, visited in
/// descending upper-bound order with suffix aggregates for the pruning
/// and cost-model decisions.
struct Plan {
    /// `(upper bound, term index)` best first. The bound is `query
    /// weight · idf · max_lw` — the most this term can add to any
    /// document's dot product in this shard. Ties collapse to term
    /// index for a deterministic visit order (pruning never affects
    /// results, but determinism keeps wall-clock stable too).
    order: Vec<(f64, usize)>,
    /// `rest[j]` = Σ of bounds `j..` — what the terms not yet visited
    /// could still contribute to any single document's dot product.
    rest: Vec<f64>,
    /// `suffix_df[j]` = Σ posting-list lengths of terms `j..` — the
    /// dense-completion cost of the remaining terms.
    suffix_df: Vec<u64>,
    /// Next unvisited rank; `usize::MAX` once the shard is finished
    /// (pruned away or densely completed).
    next: usize,
}

impl Plan {
    fn new(shard: &Shard, terms: &[QueryTerm]) -> Plan {
        let mut order: Vec<(f64, usize)> = terms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                let mlw = shard.max_lw.get(&t.sym)?;
                Some((t.weight * (mlw * t.idf), i))
            })
            .collect();
        order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut rest = vec![0.0f64; order.len() + 1];
        let mut suffix_df = vec![0u64; order.len() + 1];
        for j in (0..order.len()).rev() {
            rest[j] = rest[j + 1] + order[j].0;
            let df = shard
                .postings
                .get(&terms[order[j].1].sym)
                .map_or(0, Vec::len) as u64;
            suffix_df[j] = suffix_df[j + 1] + df;
        }
        Plan {
            order,
            rest,
            suffix_df,
            next: 0,
        }
    }

    /// Posting-list length of the term at `rank`.
    fn df(&self, rank: usize) -> u64 {
        self.suffix_df[rank] - self.suffix_df[rank + 1]
    }
}

/// Exact cosine of one document against the query: walks the slot's
/// canonical term vector, so the query∩document terms accumulate in the
/// identical canonical order — and with the identical expressions — the
/// dense scoring pass uses. Every candidate the pruned paths emit goes
/// through here, which is why pruning can never change a score's bits.
fn rescore(doc: &Slot, qweights: &HashMap<Sym, (f64, f64)>, qnorm: f64, norm: f64) -> Option<f64> {
    let mut dot = 0.0f64;
    for (sym, tf) in &doc.terms {
        if let Some(&(weight, idf)) = qweights.get(sym) {
            let dw = (1.0 + tf.ln()) * idf;
            dot += weight * dw;
        }
    }
    if dot == 0.0 {
        return None;
    }
    Some(dot / (qnorm * norm))
}

/// Per-slot norms, cached per index epoch and rebuilt lazily on the
/// first query after an insert.
#[derive(Debug, Default)]
struct NormCache {
    /// Index epoch the cache was computed at; `None` = never computed.
    epoch: Option<u64>,
    /// `[shard][slot]` — an empty document carries `0.0` and is on no
    /// posting list, so it never scores.
    shards: Vec<Vec<f64>>,
    /// Per-shard minimum norm over scorable slots (norm > 0), used to
    /// turn dot-product pruning bounds into cosine bounds. `INFINITY`
    /// when a shard has nothing scorable.
    mins: Vec<f64>,
}

/// Sharded TF-IDF index you insert a corpus into, then query. See the
/// [module docs](self) for layout and the determinism contract.
pub struct ShardedTfIdf {
    shards: Vec<Shard>,
    /// Total documents (the `n` of the idf formula).
    len: usize,
    /// Bumped on every insert; the norm cache keys off it.
    epoch: u64,
    norms: RwLock<NormCache>,
}

impl fmt::Debug for ShardedTfIdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedTfIdf")
            .field("shards", &self.shards.len())
            .field("len", &self.len)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl ShardedTfIdf {
    /// Creates an empty index over `shards` shards (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        ShardedTfIdf {
            shards: vec![Shard::default(); shards.max(1)],
            len: 0,
            epoch: 0,
            norms: RwLock::new(NormCache::default()),
        }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards the corpus is partitioned across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Adds a document under a caller-assigned id. O(doc terms) — no
    /// rebuild of any kind.
    ///
    /// ```
    /// let mut idx = dda_slm::ShardedTfIdf::new(4);
    /// idx.insert(1, "an eight bit counter").unwrap();
    /// assert!(idx.insert(1, "same id again").is_err());
    /// assert_eq!(idx.len(), 1);
    /// ```
    ///
    /// # Errors
    ///
    /// [`IndexError::DuplicateId`] if `id` is already indexed.
    pub fn insert(&mut self, id: u64, text: &str) -> Result<(), IndexError> {
        dda_obs::count("slm.shard.inserts", 1);
        let s = (splitmix64(id) % self.shards.len() as u64) as usize;
        if !self.shards[s].insert_doc(id, text) {
            return Err(IndexError::DuplicateId(id));
        }
        self.len += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Global document frequency of `sym`: the sum of the per-shard
    /// counts — exactly what a single-shard build counts.
    fn global_df(&self, sym: Sym) -> u32 {
        self.shards
            .iter()
            .map(|s| s.df.get(&sym).copied().unwrap_or(0))
            .sum()
    }

    /// Query-side weights in canonical term order. Terms with zero
    /// global df are dropped — no document can match them.
    fn query_terms(&self, query: &str) -> (Vec<QueryTerm>, f64) {
        let n = self.len.max(1) as f64;
        let mut terms = Vec::new();
        let mut qnorm_sq = 0.0;
        // A token the interner has never seen is in no shard.
        for (sym, tf) in canonical_terms(lookup_syms(query).flatten()) {
            let df = self.global_df(sym);
            if df == 0 {
                continue;
            }
            let idf = ((n + 1.0) / df as f64).ln();
            let weight = (1.0 + tf.ln()) * idf;
            qnorm_sq += weight * weight;
            terms.push(QueryTerm { sym, weight, idf });
        }
        (terms, qnorm_sq.sqrt())
    }

    /// Recomputes per-slot norms if any insert happened since the last
    /// query. Norms use the *global* df, so an insert into one shard
    /// invalidates every shard's cache; the refresh is a linear pass
    /// over the slots — far cheaper than a rebuild (no tokenizing, no
    /// hashing, no inversion) and amortised across every query until the
    /// next insert.
    fn ensure_norms(&self) {
        {
            let cache = self.norms.read().unwrap();
            if cache.epoch == Some(self.epoch) {
                return;
            }
        }
        let mut cache = self.norms.write().unwrap();
        if cache.epoch == Some(self.epoch) {
            return;
        }
        let n = self.len.max(1) as f64;
        // Global df snapshot: sum the per-shard counts once.
        let mut df: HashMap<Sym, u32> = HashMap::new();
        for shard in &self.shards {
            for (sym, d) in &shard.df {
                *df.entry(*sym).or_insert(0) += d;
            }
        }
        cache.shards = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .slots
                    .iter()
                    .map(|slot| {
                        slot.terms
                            .iter()
                            .map(|(sym, tf)| {
                                let d = df.get(sym).copied().unwrap_or(0).max(1) as f64;
                                let w = (1.0 + tf.ln()) * ((n + 1.0) / d).ln();
                                w * w
                            })
                            .sum::<f64>()
                            .sqrt()
                    })
                    .collect()
            })
            .collect();
        cache.mins = cache
            .shards
            .iter()
            .map(|norms| {
                norms
                    .iter()
                    .copied()
                    .filter(|&x| x > 0.0)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        cache.epoch = Some(self.epoch);
    }

    /// Scores `query` against a single-shard index's only shard: dense
    /// accumulator over slots, touched list, top-k via
    /// `select_nth_unstable`.
    fn shard_topk(
        &self,
        shard: &Shard,
        norms: &[f64],
        terms: &[QueryTerm],
        qnorm: f64,
        top: usize,
    ) -> Vec<ShardHit> {
        let mut acc = vec![0.0f64; shard.slots.len()];
        let mut touched: Vec<u32> = Vec::new();
        for t in terms {
            let Some(plist) = shard.postings.get(&t.sym) else {
                continue;
            };
            for (slot, tf) in plist {
                let dw = (1.0 + tf.ln()) * t.idf;
                let a = &mut acc[*slot as usize];
                if *a == 0.0 {
                    touched.push(*slot);
                }
                *a += t.weight * dw;
            }
        }
        touched.sort_unstable();
        let mut hits: Vec<ShardHit> = touched
            .into_iter()
            .filter_map(|slot| {
                let dot = acc[slot as usize];
                if dot == 0.0 {
                    return None;
                }
                Some(ShardHit {
                    id: shard.slots[slot as usize].id,
                    score: dot / (qnorm * norms[slot as usize]),
                })
            })
            .collect();
        if hits.len() > top && top > 0 {
            hits.select_nth_unstable_by(top - 1, hit_order);
            hits.truncate(top);
        }
        hits.sort_unstable_by(hit_order);
        hits.truncate(top);
        hits
    }

    /// Rescores every not-yet-seen document on `sym`'s posting list and
    /// offers it to the heap — the rare-term fast path: a short posting
    /// list of strong candidates, each scored exactly by [`rescore`].
    #[allow(clippy::too_many_arguments)]
    fn score_term_candidates(
        &self,
        shard: &Shard,
        norms: &[f64],
        seen: &mut [bool],
        sym: Sym,
        qweights: &HashMap<Sym, (f64, f64)>,
        qnorm: f64,
        heap: &mut TopK,
    ) {
        let Some(plist) = shard.postings.get(&sym) else {
            return;
        };
        for &(slot, _) in plist {
            let si = slot as usize;
            if seen[si] {
                continue;
            }
            seen[si] = true;
            let doc = &shard.slots[si];
            if let Some(score) = rescore(doc, qweights, qnorm, norms[si]) {
                heap.push(ShardHit { id: doc.id, score });
            }
        }
    }

    /// Finishes a shard in dense mode — the common-term fallback when
    /// per-candidate rescoring would cost more than one bulk pass. The
    /// remaining unpruned terms are accumulated densely (bound order;
    /// the partial dots are only ever used as bounds), every touched
    /// unseen document gets the slack-inflated upper bound `(acc +
    /// trimmed-suffix bound)/(qnorm·norm)`, and candidates are exactly
    /// rescored in descending-bound order until the bound falls strictly
    /// below the heap threshold. Documents containing any already-
    /// visited term are `seen` (their whole posting lists were walked),
    /// so an unseen document's true dot really is bounded by its
    /// remaining-term accumulation.
    #[allow(clippy::too_many_arguments)]
    fn dense_complete(
        &self,
        shard: &Shard,
        norms: &[f64],
        min_norm: f64,
        plan: &Plan,
        terms: &[QueryTerm],
        qweights: &HashMap<Sym, (f64, f64)>,
        qnorm: f64,
        seen: &mut [bool],
        heap: &mut TopK,
    ) {
        let start = plan.next;
        // Trim the tail: ranks whose suffix bound already prunes at the
        // current threshold are not accumulated — their whole possible
        // contribution rides along in the upper bound instead.
        let mut end = plan.order.len();
        if let Some(worst) = heap.threshold() {
            for j in start..=plan.order.len() {
                if plan.rest[j] * PRUNE_SLACK / (qnorm * min_norm) < worst {
                    end = j.max(start);
                    break;
                }
            }
        }
        let unvisited_bound = plan.rest[end];
        let mut acc = vec![0.0f64; shard.slots.len()];
        let mut touched: Vec<u32> = Vec::new();
        for &(_, ti) in &plan.order[start..end] {
            let t = &terms[ti];
            let Some(plist) = shard.postings.get(&t.sym) else {
                continue;
            };
            for &(slot, tf) in plist {
                let si = slot as usize;
                if seen[si] {
                    continue;
                }
                let a = &mut acc[si];
                if *a == 0.0 {
                    touched.push(slot);
                }
                *a += t.weight * ((1.0 + tf.ln()) * t.idf);
            }
        }
        let entry_threshold = heap.threshold();
        let mut cands: Vec<(f64, u32)> = touched
            .into_iter()
            .filter_map(|slot| {
                let si = slot as usize;
                let ub = (acc[si] + unvisited_bound) * PRUNE_SLACK / (qnorm * norms[si]);
                if let Some(worst) = entry_threshold {
                    if ub < worst {
                        return None;
                    }
                }
                Some((ub, slot))
            })
            .collect();
        cands.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (ub, slot) in cands {
            if let Some(worst) = heap.threshold() {
                // Bounds descend, so everything after this is pruned too.
                if ub < worst {
                    return;
                }
            }
            let si = slot as usize;
            let doc = &shard.slots[si];
            if let Some(score) = rescore(doc, qweights, qnorm, norms[si]) {
                heap.push(ShardHit { id: doc.id, score });
            }
        }
    }

    /// The multi-shard scoring pass, exact MaxScore-style pruning: all
    /// shards share one top-k heap, and `(shard, term)` pairs are visited
    /// in globally descending upper-bound order (`weight · idf ·
    /// max_lw`). Global ordering matters — every shard's discriminative
    /// terms run before *any* shard's common terms, so the threshold is
    /// already hard by the time the huge low-idf posting lists come up
    /// and whole shards prune in one comparison. Once the heap is full
    /// and a shard's remaining terms' summed bound over its minimum norm
    /// falls strictly below the heap threshold (with [`PRUNE_SLACK`]
    /// absorbing float-summation order effects), every unseen document
    /// of that shard is provably outside the top-k and the shard stops.
    /// Seen candidates are rescored *exactly* by [`rescore`], so scores
    /// are bit-identical to [`shard_topk`](Self::shard_topk) and pruning
    /// can only change wall-clock, never results.
    fn pruned_topk(
        &self,
        cache: &NormCache,
        terms: &[QueryTerm],
        qweights: &HashMap<Sym, (f64, f64)>,
        qnorm: f64,
        top: usize,
    ) -> Vec<ShardHit> {
        let mut plans: Vec<Plan> = self
            .shards
            .iter()
            .map(|shard| Plan::new(shard, terms))
            .collect();
        let avg_lens: Vec<u64> = self.shards.iter().map(Shard::avg_doc_terms).collect();
        // Global visit order: (bound desc, shard, rank). Per-shard ranks
        // appear in their own descending order, so each entry either is
        // its shard's next term or that shard is already done.
        let mut entries: Vec<(f64, usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(s, p)| {
                p.order
                    .iter()
                    .enumerate()
                    .map(move |(rank, &(bound, _))| (bound, s, rank))
            })
            .collect();
        entries
            .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut seen: Vec<Vec<bool>> = self
            .shards
            .iter()
            .map(|shard| vec![false; shard.slots.len()])
            .collect();
        let mut heap = TopK::new(top);
        for &(_, s, rank) in &entries {
            if plans[s].next != rank {
                continue; // shard done, or entry already superseded
            }
            if let Some(worst) = heap.threshold() {
                if plans[s].rest[rank] * PRUNE_SLACK / (qnorm * cache.mins[s]) < worst {
                    plans[s].next = usize::MAX;
                    continue;
                }
            }
            // Cost model: rescoring this term's candidates costs about
            // df · avg-doc-length map probes; densely finishing *all* the
            // shard's remaining terms costs their summed posting lengths.
            // When the single term is the more expensive option — common
            // terms with huge, low-value posting lists — the shard flips
            // into one dense completion pass.
            if plans[s].df(rank).saturating_mul(avg_lens[s]) > plans[s].suffix_df[rank] {
                self.dense_complete(
                    &self.shards[s],
                    &cache.shards[s],
                    cache.mins[s],
                    &plans[s],
                    terms,
                    qweights,
                    qnorm,
                    &mut seen[s],
                    &mut heap,
                );
                plans[s].next = usize::MAX;
                continue;
            }
            plans[s].next = rank + 1;
            let ti = plans[s].order[rank].1;
            self.score_term_candidates(
                &self.shards[s],
                &cache.shards[s],
                &mut seen[s],
                terms[ti].sym,
                qweights,
                qnorm,
                &mut heap,
            );
        }
        heap.into_hits()
    }

    /// Scores `query` against every document, best first, at most `top`
    /// hits.
    ///
    /// Single-shard indexes take the dense scoring pass; multi-shard
    /// indexes take the pruned path (`pruned_topk`) with one top-k heap
    /// threaded through the shards, so each shard prunes against the best
    /// documents found so far anywhere. Both paths are bit-identical.
    ///
    /// ```
    /// let mut idx = dda_slm::ShardedTfIdf::new(4);
    /// idx.insert(7, "a counter with reset and enable").unwrap();
    /// idx.insert(9, "a four to one multiplexer").unwrap();
    /// let hits = idx.query("counter reset", 2);
    /// assert_eq!(hits[0].id, 7);
    /// assert!(hits[0].score > 0.0);
    /// ```
    pub fn query(&self, query: &str, top: usize) -> Vec<ShardHit> {
        dda_obs::count("slm.query.sharded", 1);
        let (terms, qnorm) = self.query_terms(query);
        if qnorm == 0.0 {
            return Vec::new();
        }
        self.ensure_norms();
        let cache = self.norms.read().unwrap();
        let hits = if self.shards.len() == 1 {
            self.shard_topk(&self.shards[0], &cache.shards[0], &terms, qnorm, top)
        } else {
            let qweights: HashMap<Sym, (f64, f64)> =
                terms.iter().map(|t| (t.sym, (t.weight, t.idf))).collect();
            self.pruned_topk(&cache, &terms, &qweights, qnorm, top)
        };
        dda_fail::fail_point!("slm.shard.merge");
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(shards: usize, docs: &[(u64, &str)]) -> ShardedTfIdf {
        let mut idx = ShardedTfIdf::new(shards);
        for (id, text) in docs {
            idx.insert(*id, text).unwrap();
        }
        idx
    }

    const DOCS: &[(u64, &str)] = &[
        (10, "a counter with reset and enable"),
        (11, "a four to one multiplexer"),
        (12, "an eight bit ripple adder"),
        (13, "counter module increments on clock edge"),
        (14, "module counter with reset"),
    ];

    #[test]
    fn exact_match_scores_highest() {
        let idx = sharded(4, DOCS);
        let hits = idx.query("a counter with reset and enable", 3);
        assert_eq!(hits[0].id, 10);
        assert!(hits[0].score > 0.99);
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let reference = sharded(1, DOCS);
        for shards in [2, 4, 16] {
            let idx = sharded(shards, DOCS);
            for q in ["counter reset", "module", "ripple adder", "zeta"] {
                assert_eq!(reference.query(q, 5), idx.query(q, 5), "{shards}/{q}");
            }
        }
    }

    #[test]
    fn duplicate_insert_is_typed_error() {
        let mut idx = sharded(4, DOCS);
        assert_eq!(idx.insert(10, "again"), Err(IndexError::DuplicateId(10)),);
        // The failed insert must not have disturbed anything.
        assert_eq!(idx.len(), DOCS.len());
        assert_eq!(
            idx.query("counter", 5),
            sharded(4, DOCS).query("counter", 5)
        );
    }

    #[test]
    fn unknown_query_terms_yield_empty() {
        let idx = sharded(4, DOCS);
        assert!(idx.query("zeta theta", 5).is_empty());
        assert!(idx.query("", 5).is_empty());
    }

    #[test]
    fn tie_break_is_ascending_id() {
        let idx = sharded(4, &[(5, "x y"), (2, "x y"), (9, "x y")]);
        let ids: Vec<u64> = idx.query("x y", 3).iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn top_zero_and_truncation() {
        let idx = sharded(2, DOCS);
        assert!(idx.query("counter", 0).is_empty());
        assert_eq!(idx.query("counter", 2).len(), 2);
    }

    #[test]
    fn empty_document_never_scores() {
        let mut idx = sharded(2, DOCS);
        idx.insert(99, "").unwrap();
        assert_eq!(idx.len(), DOCS.len() + 1);
        assert!(idx.query("counter", 10).iter().all(|h| h.id != 99));
    }

    #[test]
    fn pruned_path_matches_dense_path_on_skewed_idf() {
        // A corpus engineered so pruning actually engages: every doc
        // shares the low-idf terms "module wire assign", and each has a
        // discriminative family token. The multi-shard pruned path must
        // return exactly what the single-shard dense path returns —
        // same ids, same bits — including for queries made entirely of
        // common terms (no pruning possible) and for top larger than
        // the candidate count.
        let docs: Vec<(u64, String)> = (0..400u64)
            .map(|id| {
                (
                    id,
                    format!("module wire assign fam{} tok{id} value", id % 23),
                )
            })
            .collect();
        let mut dense = ShardedTfIdf::new(1);
        let mut pruned = ShardedTfIdf::new(16);
        for (id, text) in &docs {
            dense.insert(*id, text).unwrap();
            pruned.insert(*id, text).unwrap();
        }
        for q in [
            "fam7 module wire",
            "tok123 assign",
            "module wire assign",
            "fam1 fam2 fam3 tok9",
        ] {
            for top in [1, 5, 64, 1000] {
                let d = dense.query(q, top);
                let p = pruned.query(q, top);
                assert_eq!(d.len(), p.len(), "{q}/{top}");
                for (dh, ph) in d.iter().zip(&p) {
                    assert_eq!(dh.id, ph.id, "{q}/{top}");
                    assert_eq!(dh.score.to_bits(), ph.score.to_bits(), "{q}/{top}");
                }
            }
        }
    }

    #[test]
    fn matches_monolithic_index_ranking() {
        // Same corpus through TfIdfIndex (insertion order = id order):
        // same docs in the same rank order with scores equal to within
        // float formatting — the scoring model is shared.
        let mut mono = crate::TfIdfIndex::new();
        for (_, text) in DOCS {
            mono.add(text);
        }
        mono.finish();
        let idx = sharded(4, DOCS);
        for q in ["counter reset", "module", "multiplexer"] {
            let m = mono.try_query(q, 5).unwrap();
            let s = idx.query(q, 5);
            assert_eq!(m.len(), s.len(), "{q}");
            for (mh, sh) in m.iter().zip(&s) {
                assert_eq!(DOCS[mh.doc].0, sh.id, "{q}");
                assert!((mh.score - sh.score).abs() < 1e-12, "{q}");
            }
        }
    }
}
