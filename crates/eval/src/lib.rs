//! # dda-eval
//!
//! The evaluation harness reproducing the paper's §4 protocols:
//!
//! * [`models`] — the six-model zoo (GPT-3.5, Ours-7B/13B, Thakur et al.,
//!   pretrained Llama-2, and the completion-only General-Aug ablation);
//! * [`generation`] — Verilog generation under pass@5 with lint syntax
//!   scoring and simulated-testbench function scoring (Table 5);
//! * [`repair_eval`] — Verilog repair from tool-feedback inputs (Table 3);
//! * [`script_eval`] — SiliconCompiler script generation, iterations to
//!   syntactic/functional success under pass@10 (Table 4);
//! * [`ablation`] — data-composition (Fig. 7/§4.2.2), mutation-cap,
//!   training-order, and corpus-size ablations;
//! * [`agent`] — the Fig. 1 EDA-tool agent loop (generate → tool feedback
//!   → repair → retry): the sequential episode, its comparison against
//!   single-shot generation, and the parallel supervised pass@k chain
//!   batch with deterministic early-exit;
//! * [`supervised`] — parallel, deadline-supervised, resumable variants
//!   of the three sweeps, running on the `dda-runtime` engine;
//! * [`report`] — plain-text table rendering for the regeneration binaries.
//!
//! ## Example
//!
//! Build a small model zoo and score one Thakur problem under the
//! Table-5 pass@5 protocol (the table binaries do exactly this over the
//! full suites):
//!
//! ```
//! use dda_eval::{eval_suite, GenProtocol, ModelId, ModelZoo, ZooOptions};
//!
//! let zoo = ModelZoo::build(&ZooOptions { corpus_modules: 8, ..ZooOptions::default() });
//! let suite = dda_benchmarks::thakur_suite();
//! let rows = eval_suite(zoo.model(ModelId::Ours13B), &suite[..1], &GenProtocol::default());
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0].cells.len(), 3); // one cell per prompt detail level
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
pub mod supervised;

pub use agent::{
    agent_batch, agent_batch_sequential, agent_episode, agent_vs_single, AgentBatchOptions,
    AgentBatchOutcome, AgentOutcome, AgentProtocol, ChainOutcome,
};
pub use dda_sim::EvalMode;
pub use generation::{
    best_rate, cell_samples, eval_cell, eval_suite, run_testbench, run_testbench_verdict,
    run_testbench_verdict_with, success_rate, GenCell, GenProtocol, GenRow, TestbenchVerdict,
};
pub use models::{ModelId, ModelZoo, ZooOptions};
pub use rag::{RagIndex, RAG_SHARDS};
pub use repair_eval::{
    eval_repair, eval_repair_rag, eval_repair_suite, eval_repair_suite_rag, repair_samples,
    RepairCell, RepairProtocol,
};
pub use report::TextTable;
pub use script_eval::{eval_script, eval_script_suite, ScriptCell, ScriptProtocol};
pub use supervised::{
    eval_repair_suite_supervised, eval_script_suite_supervised, eval_suite_supervised, SweepOptions,
};

/// FNV-1a (64-bit) over `bytes`: the stable hash that seeds per-problem and
/// per-model RNG streams and names candidates in trace events.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}
