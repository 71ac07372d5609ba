//! Allocation budget of a warm `TfIdfIndex::try_query`, counted by a
//! global allocator.
//!
//! The query accumulates into a reused per-thread score buffer and keeps
//! its top-k in a heap of at most `top` hits, so once the buffer has grown
//! to the index, what a query allocates depends on the query text and
//! `top` only: the same allocations, of the same sizes, on a 500-document
//! index as on a 20,000-document one. A per-query buffer sized to the
//! corpus, a touched-document list or a vector of every candidate hit
//! would make the larger index allocate more.
//!
//! This binary holds a single test, and the counter is per thread, so the
//! test harness's own allocations never land in the count.

use dda_slm::TfIdfIndex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// (allocations, bytes requested) on this thread.
    static ALLOCS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn record(bytes: usize) {
    ALLOCS.with(|a| {
        let (n, total) = a.get();
        a.set((n + 1, total + bytes));
    });
}

// SAFETY: defers to `System` and only bumps a const-initialised
// thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (allocations, bytes) made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> (usize, usize) {
    let (n0, b0) = ALLOCS.with(Cell::get);
    f();
    let (n1, b1) = ALLOCS.with(Cell::get);
    (n1 - n0, b1 - b0)
}

/// An index of `n` documents. Every document shares the instruction-like
/// words (dense columns), and rarer words recur with period 7, 50 and 400
/// (sparse postings), so a query touches every document and every layout.
fn index(n: usize) -> TfIdfIndex {
    const WORDS: [&str; 8] = [
        "counter", "adder", "shifter", "decoder", "encoder", "latch", "buffer", "mux",
    ];
    let mut idx = TfIdfIndex::new();
    for d in 0..n {
        let doc = format!(
            "write a verilog module for the design {} {} {} with reset and enable",
            WORDS[d % 7],
            WORDS[d % 50 % 8],
            WORDS[d % 400 % 8],
        );
        idx.add(&doc);
    }
    idx.finish();
    idx
}

/// Allocations of a warm query: the first call grows the thread's score
/// buffer to the index, the second is counted.
fn warm_query(idx: &TfIdfIndex, query: &str, top: usize) -> (usize, usize) {
    let first = idx.try_query(query, top).unwrap();
    let mut hits = 0;
    let counted = allocations(|| hits = idx.try_query(query, top).unwrap().len());
    assert_eq!(hits, first.len());
    assert_eq!(hits, top, "every document matches, so top-{top} is full");
    counted
}

#[test]
fn warm_query_allocations_do_not_grow_with_the_corpus() {
    let small = index(500);
    let large = index(20_000);
    let query = "write a verilog module for a counter with reset and a decoder";
    for top in [1, 8, 32] {
        let (n_small, b_small) = warm_query(&small, query, top);
        let (n_large, b_large) = warm_query(&large, query, top);
        assert_eq!(
            (n_small, b_small),
            (n_large, b_large),
            "top {top}: (allocations, bytes) on 500 docs vs 20,000 docs"
        );
        assert!(
            n_small <= 16,
            "top {top}: {n_small} allocations per warm query"
        );
        // The buffer stays grown: back on the small index, nothing new.
        assert_eq!(warm_query(&small, query, top), (n_small, b_small));
    }
}
