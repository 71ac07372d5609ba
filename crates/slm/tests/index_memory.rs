//! Heap a finished `TfIdfIndex` retains, counted by a global allocator.
//!
//! A finished index keeps only its query layout: dense `u8` columns, CSR
//! posting lists (`u32` doc + `u8` tf per posting), the norms and the
//! per-term tables. So it must retain at most 8 bytes per `(doc, term)`
//! entry plus 16 bytes per document, plus a small constant. Keeping the
//! per-document `(term, weight)` vectors alone would take 16 bytes per
//! entry.
//!
//! This binary holds a single test, and the counter is per thread, so the
//! test harness's own allocations never land in the count.

use dda_core::intern::Sym;
use dda_core::pipeline::{augment, PipelineOptions};
use dda_core::tokenize::tokenize_syms;
use dda_slm::{TfIdfIndex, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes allocated and not yet freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn record(delta: isize) {
    LIVE.with(|live| live.set(live.get() + delta));
}

// SAFETY: defers to `System` and only bumps a const-initialised
// thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Slack for what does not scale with the corpus: the symbol → term
/// table is as long as the largest symbol id in the process.
const CONSTANT: usize = 64 << 10;

#[test]
fn finished_index_retains_only_the_query_layout() {
    // The documents a finetune indexes: augmented entries in training
    // order, instruct tokens then input tokens. Tokenizing first interns
    // every symbol, so the build below allocates nothing outside the index.
    let mut rng = SmallRng::seed_from_u64(2024);
    let corpus = dda_corpus::generate_corpus(24, &mut rng);
    let (data, _) = augment(&corpus, &PipelineOptions::default(), &mut rng);
    let docs: Vec<Vec<Sym>> = PROGRESSIVE_ORDER
        .iter()
        .flat_map(|kind| data.entries(*kind))
        .map(|e| {
            tokenize_syms(&e.instruct)
                .chain(tokenize_syms(&e.input))
                .collect()
        })
        .collect();
    let entries: usize = docs
        .iter()
        .map(|doc| {
            let mut terms = doc.clone();
            terms.sort_unstable();
            terms.dedup();
            terms.len()
        })
        .sum();

    let before = LIVE.with(Cell::get);
    let mut idx = TfIdfIndex::new();
    for doc in &docs {
        idx.add_tokens(doc);
    }
    idx.finish();
    let retained = (LIVE.with(Cell::get) - before) as usize;

    let bound = 8 * entries + 16 * docs.len() + CONSTANT;
    assert!(
        retained <= bound,
        "a finished index over {} documents and {entries} entries retains \
         {retained} bytes, above {bound} (8 B/entry + 16 B/doc + {CONSTANT})",
        docs.len()
    );
    // The corpus is large enough that the vectors alone would break the
    // bound, and the index still answers.
    assert!(16 * entries > bound);
    assert_eq!(idx.len(), docs.len());
    assert!(!idx.try_query("counter with reset", 8).unwrap().is_empty());
}
