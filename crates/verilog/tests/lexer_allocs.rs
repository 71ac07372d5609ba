//! Allocation budget of the lexer, counted by a global allocator.
//!
//! Tokens borrow their text from the source, so identifiers, numbers,
//! system identifiers, directives, keywords and operators cost nothing:
//! only the token `Vec` grows. The one exception is a string literal with
//! an escape sequence, whose unescaped contents are built once.
//!
//! This binary holds a single test, and the counter is per thread, so the
//! test harness's own allocations never land in the count.

use dda_verilog::{lex, TokenKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers to `System` and only bumps a const-initialised
// thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations a `Vec` makes growing from empty to `len` elements by
/// pushes: the first allocation holds 4 (tokens are far larger than a
/// byte), and each reallocation doubles.
fn vec_growth(len: usize) -> usize {
    let mut cap = 0usize;
    let mut allocs = 0;
    while cap < len {
        cap = if cap == 0 { 4 } else { cap * 2 };
        allocs += 1;
    }
    allocs
}

#[test]
fn lexer_allocates_only_its_vec_and_escaped_strings() {
    let src = "`timescale 1ns/1ps\n\
        module accumulate_and_forward_unit #(parameter DATA_WIDTH_PARAMETER = 16) (\n\
          input wire clock_signal_input, reset_signal_active_high,\n\
          input wire [DATA_WIDTH_PARAMETER-1:0] incoming_data_sample_bus,\n\
          output reg [DATA_WIDTH_PARAMETER-1:0] accumulated_result_register\n\
        );\n\
          // Comments, whitespace, keywords and operators allocate nothing.\n\
          /* block comment spanning\n   two lines */\n\
          always @(posedge clock_signal_input) begin\n\
            if (reset_signal_active_high) accumulated_result_register <= 16'h0000_0000;\n\
            else accumulated_result_register <= accumulated_result_register\n\
              + incoming_data_sample_bus * 32'd1234567 >>> 3'b101 + 'hdeadbeef + 3.14159;\n\
            $display_accumulator_state_now(accumulated_result_register);\n\
            $display(\"plain strings borrow, %d\", accumulated_result_register);\n\
            $display(\"escaped strings own: \\t%d\\n\", accumulated_result_register);\n\
          end\n\
        endmodule\n";
    let (tokens, allocs) = allocations(|| lex(src).expect("lexes"));
    let strings = |owned: bool| {
        tokens
            .iter()
            .filter(|t| matches!(&t.kind, TokenKind::Str(s) if matches!(s, Cow::Owned(_)) == owned))
            .count()
    };
    assert_eq!((strings(false), strings(true)), (1, 1));
    let long_names = tokens
        .iter()
        .filter(|t| matches!(&t.kind, TokenKind::Ident(s) if s.len() > 16))
        .count();
    assert!(long_names >= 10, "the source should exercise long names");
    assert_eq!(
        allocs,
        vec_growth(tokens.len()) + strings(true),
        "{} tokens",
        tokens.len()
    );
}
