//! Two-tier memoized parse + elaboration keyed by source content.
//!
//! Evaluation sweeps and the resident `chipdda serve` daemon rerun the
//! same `(source, top)` pair many times — the pass@k protocols simulate
//! each candidate against the same testbench `k` times per level, repair
//! loops re-score unchanged candidates, and concurrent service requests
//! often target the same design. The frontend (lex → parse → elaborate →
//! bytecode compile) is pure in the source text, so its result can be
//! shared: [`shared_design`] returns a cached [`Design`] clone (cheap —
//! statement bodies and bytecode sit behind `Arc`) and only runs the
//! frontend on a genuine miss.
//!
//! The cache has two tiers:
//!
//! * a **process-global sharded cache** ([`SHARDS`] mutex shards indexed
//!   by design hash, each size-bounded with LRU eviction). Since the
//!   `Arc` conversion made [`Design`] `Send + Sync`, every thread — and
//!   every concurrent service request — shares one compiled
//!   `CompiledDesign` per distinct source. A miss computes the frontend
//!   *under its shard lock*, so a thundering herd of requests for the
//!   same new design runs the frontend exactly once (the stragglers block
//!   briefly, then hit); designs hashing to the other shards are
//!   unaffected.
//! * a small **per-thread L1** in front of it, so steady-state hits on a
//!   worker's hot designs skip the shard mutex entirely. The L1 is
//!   size-capped with LRU eviction (it holds clones whose heavy payloads
//!   are `Arc`-shared with the global tier, so its footprint is the
//!   signal tables only).
//!
//! Entries verify the full key on hit (the hash is only a bucket index),
//! so collisions cost a recompute, never a wrong design. Hit/miss/evict
//! counters are mirrored to `dda-obs` (`sim.cache.hit.l1`,
//! `sim.cache.hit.shared`, `sim.cache.miss`, `sim.cache.evict`).

use crate::elab::{elaborate, Design, ElabError};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A frontend failure: the stage that rejected the source plus its message.
/// Cached alongside successes so a sweep does not re-parse a known-bad
/// candidate `k` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendError {
    /// The source failed to parse.
    Parse(String),
    /// The design failed to elaborate.
    Elab(ElabError),
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::Parse(m) => write!(f, "{m}"),
            FrontendError::Elab(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrontendError {}

/// Process-wide cumulative counters for both cache tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from either tier (`l1_hits + shared_hits`).
    pub hits: u64,
    /// Lookups that ran the frontend.
    pub misses: u64,
    /// Hits served by the per-thread L1 (no lock taken).
    pub l1_hits: u64,
    /// Hits served by the global sharded tier.
    pub shared_hits: u64,
    /// Entries evicted from the global tier to stay within its bound.
    pub evictions: u64,
}

/// Number of mutex shards in the global tier. Sixteen keeps lock
/// contention negligible for pool sizes this workspace uses (the serve
/// storm bench drives 4–8 workers) while the whole table stays small.
pub const SHARDS: usize = 16;

/// Bound on cached designs per shard (global capacity = `SHARDS` × this).
/// Sweeps cycle through a bounded problem set — tens of testbenches times
/// a handful of candidates in flight — so this holds the working set; the
/// serve chaos battery's cache-thrash family verifies overflow evicts
/// rather than grows.
const SHARD_CAP: usize = 32;

/// Bound on the per-thread L1. Deliberately small: it only exists to skip
/// the shard mutex on a worker's hottest designs.
const L1_CAP: usize = 8;

struct Entry {
    key: u64,
    src: String,
    top: String,
    value: Result<Design, FrontendError>,
    /// LRU stamp from the owning shard's clock; smallest = evict first.
    stamp: u64,
}

struct Shard {
    entries: Vec<Entry>,
    clock: u64,
}

fn shards() -> &'static [Mutex<Shard>; SHARDS] {
    static SHARDS_CELL: OnceLock<[Mutex<Shard>; SHARDS]> = OnceLock::new();
    SHARDS_CELL.get_or_init(|| {
        std::array::from_fn(|_| {
            Mutex::new(Shard {
                entries: Vec::new(),
                clock: 0,
            })
        })
    })
}

static L1_HITS: AtomicU64 = AtomicU64::new(0);
static SHARED_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

struct L1Entry {
    key: u64,
    src: String,
    top: String,
    value: Result<Design, FrontendError>,
    stamp: u64,
}

thread_local! {
    static L1: RefCell<(Vec<L1Entry>, u64)> = const { RefCell::new((Vec::new(), 0)) };
}

fn fnv64(src: &str, top: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in src.bytes().chain([0u8]).chain(top.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn l1_get(key: u64, src: &str, top: &str) -> Option<Result<Design, FrontendError>> {
    L1.with(|l1| {
        let mut guard = l1.borrow_mut();
        let (entries, clock) = &mut *guard;
        *clock += 1;
        let stamp = *clock;
        entries
            .iter_mut()
            .find(|e| e.key == key && e.src == src && e.top == top)
            .map(|e| {
                e.stamp = stamp;
                e.value.clone()
            })
    })
}

fn l1_insert(key: u64, src: &str, top: &str, value: Result<Design, FrontendError>) {
    L1.with(|l1| {
        let mut guard = l1.borrow_mut();
        let (entries, clock) = &mut *guard;
        while entries.len() >= L1_CAP {
            let oldest = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("non-empty");
            entries.swap_remove(oldest);
        }
        *clock += 1;
        entries.push(L1Entry {
            key,
            src: src.to_string(),
            top: top.to_string(),
            value,
            stamp: *clock,
        });
    });
}

/// Parses and elaborates `(src, top)`, memoizing the result process-wide.
/// Hits return a clone of the cached [`Design`]: signal tables are copied,
/// but statement bodies and the compiled bytecode are `Arc`-shared, so
/// repeated sweeps — and concurrent service requests on different threads
/// — skip re-parsing, re-elaboration *and* re-compilation.
///
/// # Errors
///
/// Returns the (equally memoized) [`FrontendError`] from whichever stage
/// rejected the source.
pub fn shared_design(src: &str, top: &str) -> Result<Design, FrontendError> {
    let key = fnv64(src, top);
    if let Some(v) = l1_get(key, src, top) {
        L1_HITS.fetch_add(1, Ordering::Relaxed);
        dda_obs::count("sim.cache.hit.l1", 1);
        return v;
    }
    let shard = &shards()[(key % SHARDS as u64) as usize];
    // Injected stall *before* the lock: models a slow thread losing the
    // herd race without suspending everyone behind a held shard mutex.
    dda_fail::fail_point!("sim.cache.lock");
    // Poison-tolerant: an injected panic mid-eviction (chaos builds)
    // leaves the shard consistent — entries are removed one `swap_remove`
    // at a time — so later requests may keep using it.
    let mut guard = shard.lock().unwrap_or_else(|p| p.into_inner());
    guard.clock += 1;
    let stamp = guard.clock;
    if let Some(e) = guard
        .entries
        .iter_mut()
        .find(|e| e.key == key && e.src == src && e.top == top)
    {
        e.stamp = stamp;
        let value = e.value.clone();
        drop(guard);
        SHARED_HITS.fetch_add(1, Ordering::Relaxed);
        dda_obs::count("sim.cache.hit.shared", 1);
        l1_insert(key, src, top, value.clone());
        return value;
    }
    // Miss: run the frontend while still holding the shard lock, so a
    // thundering herd for one new design computes it once (stragglers
    // block on the lock, then take the hit path above).
    let value = compute(src, top);
    while guard.entries.len() >= SHARD_CAP {
        dda_fail::fail_point!("sim.cache.evict");
        let oldest = guard
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i)
            .expect("non-empty");
        guard.entries.swap_remove(oldest);
        EVICTIONS.fetch_add(1, Ordering::Relaxed);
        dda_obs::count("sim.cache.evict", 1);
    }
    guard.entries.push(Entry {
        key,
        src: src.to_string(),
        top: top.to_string(),
        value: value.clone(),
        stamp,
    });
    drop(guard);
    MISSES.fetch_add(1, Ordering::Relaxed);
    dda_obs::count("sim.cache.miss", 1);
    l1_insert(key, src, top, value.clone());
    value
}

fn compute(src: &str, top: &str) -> Result<Design, FrontendError> {
    let sf = dda_verilog::parse(src).map_err(|e| FrontendError::Parse(e.to_string()))?;
    let design = elaborate(&sf, top).map_err(FrontendError::Elab)?;
    // Pre-compile the bytecode so every cached clone — on any thread —
    // shares one program (the OnceLock value survives cloning).
    let _ = design.compiled();
    Ok(design)
}

/// Process-wide cumulative cache counters.
pub fn stats() -> CacheStats {
    let l1 = L1_HITS.load(Ordering::Relaxed);
    let shared = SHARED_HITS.load(Ordering::Relaxed);
    CacheStats {
        hits: l1 + shared,
        misses: MISSES.load(Ordering::Relaxed),
        l1_hits: l1,
        shared_hits: shared,
        evictions: EVICTIONS.load(Ordering::Relaxed),
    }
}

/// Number of entries currently resident in the global tier.
pub fn resident() -> usize {
    shards()
        .iter()
        .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).entries.len())
        .sum()
}

/// Empties the global tier and *this thread's* L1 (counters are kept;
/// other threads' L1s drain by eviction). Tests use this to get
/// deterministic miss-then-hit sequences.
pub fn clear() {
    for shard in shards() {
        shard
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entries
            .clear();
    }
    L1.with(|l1| l1.borrow_mut().0.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The cache and its counters are process-global, so a test's
    /// `clear()` or `stats()` would race its siblings under the parallel
    /// test runner. Every test that touches the cache holds this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        // A failed test poisons the lock; the ones after it still run.
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    const SRC: &str = "module m;\nreg [7:0] a;\ninitial a = 8'hA5;\nendmodule\n";

    #[test]
    fn hit_after_miss_shares_bytecode() {
        let _serial = serial();
        clear();
        let before = stats();
        let d1 = shared_design(SRC, "m").unwrap();
        let d2 = shared_design(SRC, "m").unwrap();
        let after = stats();
        assert_eq!(after.misses - before.misses, 1);
        assert!(after.hits - before.hits >= 1);
        // Both clones share one compiled program.
        assert!(std::sync::Arc::ptr_eq(&d1.compiled(), &d2.compiled()));
    }

    #[test]
    fn concurrent_threads_share_one_compiled_design() {
        let _serial = serial();
        clear();
        let src = "module shared_t;\nreg [3:0] r;\ninitial r = 4'd7;\nendmodule\n";
        let designs: Vec<Design> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| shared_design(src, "shared_t").unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let first = designs[0].compiled();
        for d in &designs[1..] {
            assert!(
                std::sync::Arc::ptr_eq(&first, &d.compiled()),
                "threads compiled separate copies"
            );
        }
    }

    #[test]
    fn errors_are_memoized_too() {
        let _serial = serial();
        clear();
        let before = stats();
        let e1 = shared_design("module broken(; endmodule", "broken").unwrap_err();
        let e2 = shared_design("module broken(; endmodule", "broken").unwrap_err();
        assert!(matches!(e1, FrontendError::Parse(_)));
        assert_eq!(e1, e2);
        let missing = shared_design(SRC, "nope").unwrap_err();
        assert!(matches!(missing, FrontendError::Elab(_)));
        let after = stats();
        assert_eq!(after.misses - before.misses, 2);
        assert!(after.hits - before.hits >= 1);
    }

    #[test]
    fn distinct_tops_do_not_collide() {
        let _serial = serial();
        clear();
        let two = "module a;\nendmodule\nmodule b;\nreg r;\nendmodule\n";
        let da = shared_design(two, "a").unwrap();
        let db = shared_design(two, "b").unwrap();
        assert_ne!(da.signals.len(), db.signals.len());
    }

    #[test]
    fn shared_tier_evicts_rather_than_grows() {
        let _serial = serial();
        clear();
        let before = stats();
        for i in 0..(SHARDS * SHARD_CAP * 2) {
            let src = format!("module m;\nreg [{}:0] r;\nendmodule\n", i % 251 + 1);
            let _ = shared_design(&src, "m");
        }
        assert!(
            resident() <= SHARDS * SHARD_CAP,
            "global tier over capacity: {}",
            resident()
        );
        // 252 distinct designs cycled repeatedly through a 512-slot tier:
        // every entry stays resident after the first pass, so the second
        // pass is all hits and evictions stay at zero. Thrash past the
        // bound to see eviction fire.
        for i in 0..(SHARDS * SHARD_CAP * 2) {
            let src = format!("module m;\nreg [7:0] r{};\nendmodule\n", i);
            let _ = shared_design(&src, "m");
        }
        let after = stats();
        assert!(
            after.evictions > before.evictions,
            "distinct-design thrash never evicted"
        );
        assert!(resident() <= SHARDS * SHARD_CAP);
    }

    #[test]
    fn l1_is_bounded_with_eviction() {
        let _serial = serial();
        clear();
        // Cycle more designs than the L1 holds; the L1 must stay capped
        // while still answering the most recent design without a lock.
        for i in 0..(L1_CAP * 3) {
            let src = format!("module l1t;\nreg [{}:0] r;\nendmodule\n", i % 61 + 1);
            let _ = shared_design(&src, "l1t");
        }
        let len = L1.with(|l1| l1.borrow().0.len());
        assert!(len <= L1_CAP, "L1 grew to {len}");
        // Re-request the last design: L1 hit, no shard traffic.
        let src = format!(
            "module l1t;\nreg [{}:0] r;\nendmodule\n",
            (L1_CAP * 3 - 1) % 61 + 1
        );
        let before = stats();
        let _ = shared_design(&src, "l1t");
        let after = stats();
        assert_eq!(after.l1_hits - before.l1_hits, 1);
        assert_eq!(after.shared_hits, before.shared_hits);
    }
}
