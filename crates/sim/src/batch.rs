//! Multi-lane runs of one design.
//!
//! The simulator is deterministic: a run's result is a function of the
//! design, the [`SimOptions`] budgets and the `$random` seed. Lanes that
//! share a seed therefore share a result, and [`run_batch`] computes it
//! once per distinct seed on the scalar engine and clones it to every lane
//! that asked for it. DESIGN.md §5o records why this replaced the
//! lockstep engine.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sf = dda_verilog::parse(
//!     "module tb;\n\
//!      reg [7:0] n = 1;\n\
//!      initial begin repeat (5) n = n + n; $display(\"n=%0d\", n); $finish; end\n\
//!      endmodule")?;
//! let design = dda_sim::elaborate(&sf, "tb")?;
//! let results = dda_sim::run_batch(&design, &[None; 4], &dda_sim::SimOptions::default());
//! for r in results {
//!     let r = r?;
//!     assert!(r.finished);
//!     assert_eq!(r.output.trim(), "n=32");
//! }
//! # Ok(())
//! # }
//! ```

use crate::elab::Design;
use crate::exec::{RunError, SimOptions, SimResult, Simulator};

/// Largest lane count a caller may request; the daemon clamps its wire
/// `runs` field to it.
pub const MAX_BATCH_LANES: usize = 64;

/// Runs `design` once per lane, lane `l` seeded with `seeds[l]` (`None` =
/// the unseeded default stream, like a fresh [`Simulator`]). Each lane's
/// result equals a fresh scalar run of its seed with the same options;
/// lanes sharing a seed share one run.
pub fn run_batch(
    design: &Design,
    seeds: &[Option<u64>],
    opts: &SimOptions,
) -> Vec<Result<SimResult, RunError>> {
    let mut runs: Vec<(Option<u64>, Result<SimResult, RunError>)> = Vec::new();
    seeds
        .iter()
        .map(|&seed| {
            if let Some((_, r)) = runs.iter().find(|(s, _)| *s == seed) {
                return r.clone();
            }
            let mut sim = Simulator::from_design(design.clone());
            if let Some(s) = seed {
                sim.seed_random(s);
            }
            let r = sim.run(opts);
            runs.push((seed, r.clone()));
            r
        })
        .collect()
}
