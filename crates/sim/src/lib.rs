//! # dda-sim
//!
//! Event-driven four-state Verilog simulator for the `chipdda` framework —
//! the substitute for the commercial functional simulator (VCS) used in the
//! paper's evaluation.
//!
//! Pipeline: [`elab::elaborate`] flattens the hierarchy parsed by
//! [`dda_verilog`] into signals and processes; [`Simulator`] then executes
//! them under the IEEE 1364 stratified event queue (active events, then
//! nonblocking updates, then time advance). Testbench constructs (`initial`,
//! `#delay`, `@(posedge ...)`, `$display`, `$finish`) are supported so the
//! benchmark suites can self-check and report through captured output.
//!
//! Supporting modules: [`cache`] memoises elaborated designs across
//! repeated testbench runs (its hit/miss counts feed `dda-obs`), [`ops`]
//! holds the word-packed four-state value kernels, and [`vcd`] dumps
//! waveforms for debugging. [`run_batch`] runs one design on several
//! `$random` seeds, once per distinct seed.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "
//! module counter(input clk, rst, output reg [1:0] count);
//!   always @(posedge clk) if (rst) count <= 2'd0; else count <= count + 2'd1;
//! endmodule
//! module tb;
//!   reg clk = 0; reg rst = 1; wire [1:0] count;
//!   counter dut(.clk(clk), .rst(rst), .count(count));
//!   always #5 clk = ~clk;
//!   initial begin
//!     #12 rst = 0;
//!     #40 $display(\"count=%0d\", count);
//!     $finish;
//!   end
//! endmodule";
//! let sf = dda_verilog::parse(src)?;
//! let mut sim = dda_sim::Simulator::new(&sf, "tb")?;
//! let out = sim.run(&dda_sim::SimOptions::default())?;
//! assert!(out.finished);
//! assert_eq!(out.output.trim(), "count=0"); // 4 rising edges after reset
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod batch;
pub mod cache;
mod compile;
pub mod elab;
mod eval;
mod exec;
pub mod ops;
pub mod vcd;

pub use batch::{run_batch, MAX_BATCH_LANES};
pub use compile::{fusion_enabled, set_fusion};
pub use elab::{elaborate, Design, ElabError, Process, ProcessKind, SigId, SignalDef};
pub use exec::{EvalMode, RunError, RunErrorKind, SimArena, SimOptions, SimResult, Simulator};
pub use vcd::VcdRecorder;
