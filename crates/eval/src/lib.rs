//! # dda-eval
//!
//! The evaluation harness reproducing the paper's §4 protocols:
//!
//! * [`models`] — the six-model zoo (GPT-3.5, Ours-7B/13B, Thakur et al.,
//!   pretrained Llama-2, and the completion-only General-Aug ablation);
//! * [`generation`] — one Verilog-generation cell under pass@5 with lint
//!   syntax scoring and simulated-testbench function scoring (Table 5);
//! * [`repair_eval`] — one Verilog-repair cell from tool-feedback inputs,
//!   optionally retrieval-augmented through [`rag`] (Table 3);
//! * [`script_eval`] — one SiliconCompiler script-generation cell,
//!   iterations to syntactic/functional success under pass@10 (Table 4);
//! * [`sweep`] — the one sweep per table ([`eval_suite`],
//!   [`eval_repair_suite`], [`eval_script_suite`]): parallel,
//!   deadline-supervised and resumable on the `dda-runtime` engine, one
//!   row per input in input order;
//! * [`ablation`] — data-composition (Fig. 7/§4.2.2), mutation-cap,
//!   training-order, and corpus-size ablations;
//! * [`agent`] — the Fig. 1 EDA-tool agent loop (generate → tool feedback
//!   → repair → retry) as a parallel supervised pass@k chain batch with
//!   deterministic early-exit, and its sequential reference;
//! * [`report`] — plain-text table rendering for the regeneration binaries.
//!
//! ## Example
//!
//! Build a small model zoo and score two Thakur problems under the
//! Table-5 pass@5 protocol on two workers (the table binaries do exactly
//! this over the full suites):
//!
//! ```
//! use dda_eval::{eval_suite, GenProtocol, ModelId, ModelZoo, SweepOptions, ZooOptions};
//!
//! let zoo = ModelZoo::build(&ZooOptions { corpus_modules: 8, ..ZooOptions::default() });
//! let suite = dda_benchmarks::thakur_suite();
//! let (rows, summary) = eval_suite(
//!     zoo.model(ModelId::Ours13B),
//!     &suite[..2],
//!     &GenProtocol::default(),
//!     &SweepOptions::with_workers(2),
//! )
//! .expect("a sweep without a journal does no I/O");
//! assert_eq!(summary.ok, 2);
//! assert_eq!(rows[1].id, suite[1].id); // one row per problem, in order
//! let cells = rows[0].result.as_ref().expect("not quarantined");
//! assert_eq!(cells.len(), 3); // one cell per prompt detail level
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod agent;
pub mod generation;
pub mod models;
pub mod rag;
pub mod repair_eval;
pub mod report;
pub mod script_eval;
pub mod sweep;

pub use agent::{
    agent_batch, agent_batch_sequential, AgentBatchOptions, AgentBatchOutcome, AgentProtocol,
    ChainOutcome,
};
pub use generation::{
    best_rate, cell_samples, eval_cell, run_testbench, run_testbench_verdict,
    run_testbench_verdict_with, GenCell, GenProtocol, TestbenchVerdict,
};
pub use models::{ModelId, ModelZoo, ZooOptions};
pub use rag::{RagIndex, RAG_SHARDS};
pub use repair_eval::{eval_repair, repair_samples, RepairCell, RepairProtocol};
pub use report::TextTable;
pub use script_eval::{eval_script, ScriptCell, ScriptProtocol};
pub use sweep::{
    eval_repair_suite, eval_script_suite, eval_suite, success_rate, GenRow, Row, Scored,
    SweepOptions,
};

/// FNV-1a (64-bit) over `bytes`: the stable hash that seeds per-problem and
/// per-model RNG streams and names candidates in trace events.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}
