//! Engine equivalence on every candidate the sweeps score: each sample
//! `cell_samples` draws for a Table 5 cell and each repair
//! `repair_samples` draws for a Table 3 problem must get the same
//! testbench verdict from the AST interpreter and the bytecode engine.
//! The sweeps always score on bytecode; `SimOptions::eval_mode` stays a
//! `dda-sim`-level reference switch, and this suite holds the two engines
//! to one verdict on the generated (often semantically wrong) candidates
//! the tables actually see. The per-program battery is
//! `dda-sim/tests/eval_modes.rs`.

use dda_benchmarks::{rtllm_suite, thakur_suite, VerilogProblem};
use dda_eval::generation::testbench_sim_options;
use dda_eval::{
    cell_samples, repair_samples, run_testbench_verdict_with, GenProtocol, ModelId, ModelZoo,
    RepairProtocol, TestbenchVerdict, ZooOptions,
};
use dda_runtime::CancelToken;
use dda_sim::{EvalMode, SimOptions};
use dda_slm::{Slm, SlmProfile, PROGRESSIVE_ORDER};

/// Asserts both engines give each sample the same verdict; returns the
/// bytecode verdicts.
fn verdicts(problem: &VerilogProblem, samples: &[String]) -> Vec<TestbenchVerdict> {
    let opts = |eval_mode| SimOptions {
        eval_mode,
        ..testbench_sim_options(&CancelToken::new())
    };
    samples
        .iter()
        .map(|s| {
            let ast = run_testbench_verdict_with(problem, s, &opts(EvalMode::Ast));
            let byte = run_testbench_verdict_with(problem, s, &opts(EvalMode::Bytecode));
            assert_eq!(ast, byte, "{}: engines disagree on\n{s}", problem.id);
            byte
        })
        .collect()
}

#[test]
fn every_generation_sample_gets_one_verdict_from_both_engines() {
    // A real augmentation-trained model, so some candidates actually pass
    // their testbenches (retrieval needs a non-empty finetune set).
    let zoo = ModelZoo::build(&ZooOptions {
        corpus_modules: 32,
        seed: 7,
        ..ZooOptions::default()
    });
    let m = zoo.model(ModelId::Ours13B);
    let protocol = GenProtocol {
        k: 3,
        ..GenProtocol::default()
    };
    let mut all = Vec::new();
    for p in thakur_suite().iter().take(5) {
        for level in 0..p.prompts.len() {
            all.extend(verdicts(p, &cell_samples(m, p, level, &protocol)));
        }
    }
    let scored = all.iter().any(|v| v.pass_rate() > 0.0);
    assert!(scored, "no sample reached functional scoring: {all:?}");
}

#[test]
fn every_repair_sample_gets_one_verdict_from_both_engines() {
    // Repair runs lint-guided search on the broken input, so a skill-floor
    // mock is enough to reach functional scoring — no dataset needed.
    let m = Slm::finetune(
        SlmProfile {
            name: "dual-mode-fix".into(),
            floor_repair: 0.95,
            ..SlmProfile::llama2(13.0)
        },
        &dda_core::Dataset::new(),
        &PROGRESSIVE_ORDER,
    );
    let protocol = RepairProtocol::default();
    let mut all = Vec::new();
    for p in rtllm_suite().iter().take(5) {
        all.extend(verdicts(p, &repair_samples(&m, p, &protocol, None)));
    }
    let scored = all.iter().any(|v| v.pass_rate() > 0.0);
    assert!(scored, "no repair reached functional scoring: {all:?}");
}
