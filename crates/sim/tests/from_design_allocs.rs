//! Allocation budget of `Simulator::from_design` on a cached design,
//! counted by a global allocator.
//!
//! A design from the design cache is shared: the simulator holds its
//! `Arc` and seeds process bodies from it when the run starts, so what
//! building the simulator allocates depends on the design's signals and
//! processes only. Two designs with the same signals and processes, one
//! with one-statement bodies and one-term assignments and one with
//! hundreds of each, must cost the same allocations, of the same sizes.
//! A simulator that copied the design, its process bodies or its
//! continuous assignments would allocate more for the larger one.
//!
//! This binary holds a single test, and the counter is per thread, so the
//! test harness's own allocations never land in the count.

use dda_sim::cache::shared_design;
use dda_sim::{SimOptions, Simulator};
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

/// Signals of every testbench below.
const SIGNALS: usize = 4;
/// Processes of every testbench below: two continuous assignments, one
/// `always` and one `initial`.
const PROCESSES: usize = 4;

/// A self-checking testbench whose bodies and assignments are `n`
/// statements or terms long; its signals and processes do not depend on `n`.
fn testbench(n: usize) -> String {
    // Concatenations keep the expression trees flat at any length.
    let cat = vec!["a"; n].join(", ");
    let mix = (0..n)
        .map(|i| format!("b ^ 8'd{}", i % 256))
        .collect::<Vec<_>>()
        .join(", ");
    let steps: String = (0..n)
        .map(|i| format!("    a = a + 8'd{};\n", i % 7 + 1))
        .collect();
    format!(
        "module tb;\n\
         reg [7:0] a; reg [7:0] b; wire [7:0] s; wire [7:0] m;\n\
         assign s = {{{cat}}};\n\
         assign m = {{{mix}}};\n\
         always @(a) b = a ^ s;\n\
         initial begin\n    a = 8'd1;\n{steps}    #1 $display(\"RESULT 1 1\");\n    $finish;\n  end\n\
         endmodule\n"
    )
}

#[test]
fn from_design_allocations_do_not_grow_with_the_bodies() {
    let small = testbench(1);
    let large = testbench(400);
    let cost = |src: &str| {
        let design = shared_design(src, "tb").expect("testbench elaborates");
        assert_eq!(design.signals.len(), SIGNALS);
        assert_eq!(design.processes.len(), PROCESSES);
        // The run works from what the simulator was built with.
        let done = Simulator::from_design(design.clone())
            .run(&SimOptions::default())
            .expect("testbench runs");
        assert!(done.finished, "{}", done.output);
        assert_eq!(done.output.trim(), "RESULT 1 1");
        allocations(|| drop(Simulator::from_design(design.clone())))
    };
    let (n_small, b_small) = cost(&small);
    let (n_large, b_large) = cost(&large);
    assert_eq!(
        (n_small, b_small),
        (n_large, b_large),
        "(allocations, bytes) of a 1-term vs a 400-term design"
    );
    // A few per signal (its value) and per process (its watch list),
    // plus the simulator's own tables.
    let bound = 8 + 2 * (SIGNALS + PROCESSES);
    assert!(
        n_small <= bound,
        "{n_small} allocations for {SIGNALS} signals and {PROCESSES} processes (bound {bound})"
    );
}
