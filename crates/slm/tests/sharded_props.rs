//! Equivalence battery for [`ShardedTfIdf`]: any interleaving of
//! insert/query is **bit-identical** (hits, scores, tie order) to a
//! from-scratch sequential build of the corpus inserted so far — across
//! shard counts 1/4/16.
//!
//! The determinism contract under test (see `dda_slm::sharded` docs):
//! raw tf storage + query-time idf from exact integer `(df, n)` state,
//! canonical string-sorted accumulation order, and a total `(score
//! desc, id asc)` ranking make every configuration agree to the bit.

use dda_slm::{ShardHit, ShardedTfIdf};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const SHARD_COUNTS: &[usize] = &[1, 4, 16];

const WORDS: &[&str] = &[
    "module", "counter", "reset", "clock", "adder", "mux", "enable", "wire", "assign", "always",
];

#[derive(Debug, Clone)]
enum Op {
    Add(u64, String),
    Query(String, usize),
}

fn text(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(0..8);
    (0..n)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// A random interleaving biased toward adds so queries have something
/// to rank; ids collide on purpose so duplicate inserts get exercised.
fn gen_ops(rng: &mut SmallRng) -> Vec<Op> {
    let n = rng.gen_range(4..20);
    (0..n)
        .map(|_| match rng.gen_range(0u8..5) {
            0..=2 => Op::Add(rng.gen_range(0..12), text(rng)),
            _ => Op::Query(text(rng), rng.gen_range(0..6)),
        })
        .collect()
}

fn assert_bit_identical(a: &[ShardHit], b: &[ShardHit], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: hit counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{ctx}: doc order diverged");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{ctx}: score bits for id {} ({} vs {})",
            x.id,
            x.score,
            y.score
        );
    }
}

proptest! {
    #[test]
    fn interleavings_match_rebuild_across_shard_counts(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops = gen_ops(&mut rng);
        // Canonical answers per query point, from the single-shard
        // replay; every other shard count must agree.
        let mut canonical: Vec<Vec<ShardHit>> = Vec::new();
        for (ci, &shards) in SHARD_COUNTS.iter().enumerate() {
            let mut idx = ShardedTfIdf::new(shards);
            let mut docs: BTreeMap<u64, String> = BTreeMap::new();
            let mut qi = 0usize;
            for (oi, op) in ops.iter().enumerate() {
                match op {
                    Op::Add(id, text) => {
                        let expect_dup = docs.contains_key(id);
                        let got = idx.insert(*id, text);
                        assert_eq!(got.is_err(), expect_dup, "op {oi}: duplicate detection");
                        if !expect_dup {
                            docs.insert(*id, text.clone());
                        }
                    }
                    Op::Query(q, top) => {
                        let ctx = format!("seed {seed} op {oi} shards {shards}");
                        let hits = idx.query(q, *top);
                        // From-scratch build of the corpus so far.
                        let mut rebuilt = ShardedTfIdf::new(shards);
                        for (id, t) in &docs {
                            rebuilt.insert(*id, t).unwrap();
                        }
                        assert_bit_identical(
                            &hits,
                            &rebuilt.query(q, *top),
                            &format!("{ctx}: rebuild"),
                        );
                        if ci == 0 {
                            canonical.push(hits);
                        } else {
                            assert_bit_identical(
                                &canonical[qi],
                                &hits,
                                &format!("{ctx}: cross-shard"),
                            );
                        }
                        qi += 1;
                    }
                }
            }
            assert_eq!(idx.len(), docs.len(), "seed {seed} shards {shards}: document count");
        }
    }
}
