//! Work counts of the pass@k loops: each evaluator plans its prompt once,
//! so the per-prompt work does not repeat per sample.
//!
//! With k = 5 samples, the `dda-obs` counters pin that
//! * an `eval_cell` runs one postings retrieval (`slm.query.postings`);
//! * an `eval_script` runs at most one;
//! * an agent batch runs exactly one draft retrieval, whatever its chain
//!   count, worker count or redrafts (repairs retrieve nothing);
//! * an `eval_repair` cell runs the lint-guided fix search
//!   (`slm.fixer.search`) at most once.
//!
//! The recorder is process-global, so these tests live in their own
//! binary and hold `OBS_LOCK` while they count.

use dda_benchmarks::{rtllm_suite, sc_suite, thakur_suite};
use dda_eval::{
    agent_batch, agent_batch_sequential, eval_cell, eval_repair, eval_script, AgentBatchOptions,
    GenProtocol, ModelId, ModelZoo, RepairProtocol, ScriptProtocol, ZooOptions,
};
use dda_slm::Slm;
use std::sync::{Mutex, MutexGuard, OnceLock};

const K: usize = 5;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes recorder access and hands back a clean, enabled recorder.
fn recorder() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dda_obs::reset();
    dda_obs::enable();
    guard
}

/// Counter `name` accumulated by `f`, read from a reset recorder.
fn counted(name: &str, f: impl FnOnce()) -> u64 {
    dda_obs::reset();
    f();
    dda_obs::snapshot().counter(name)
}

fn zoo() -> &'static ModelZoo {
    static ZOO: OnceLock<ModelZoo> = OnceLock::new();
    ZOO.get_or_init(|| {
        ModelZoo::build(&ZooOptions {
            corpus_modules: 24,
            ..ZooOptions::default()
        })
    })
}

fn model() -> &'static Slm {
    zoo().model(ModelId::Ours13B)
}

#[test]
fn eval_cell_retrieves_once_per_cell() {
    let _g = recorder();
    let protocol = GenProtocol {
        k: K,
        ..GenProtocol::default()
    };
    for problem in thakur_suite().iter().take(4) {
        for level in 0..problem.prompts.len() {
            let n = counted("slm.query.postings", || {
                eval_cell(model(), problem, level, &protocol);
            });
            assert_eq!(n, 1, "{} level {level}: retrievals per cell", problem.id);
        }
    }
}

#[test]
fn eval_script_retrieves_at_most_once() {
    let _g = recorder();
    let protocol = ScriptProtocol::default();
    assert!(protocol.max_iters >= K);
    for (id, model) in zoo().iter() {
        for task in sc_suite() {
            let n = counted("slm.query.postings", || {
                eval_script(model, &task, &protocol);
            });
            assert!(n <= 1, "{id} / {}: {n} retrievals", task.level.label());
        }
    }
}

#[test]
fn agent_batch_runs_one_draft_retrieval() {
    let _g = recorder();
    let suite = thakur_suite();
    for workers in [1usize, 2] {
        let opts = AgentBatchOptions {
            k: K,
            workers,
            ..AgentBatchOptions::default()
        };
        for problem in suite.iter().take(4) {
            let par = counted("slm.query.postings", || {
                agent_batch(model(), problem, 2, &[], &opts);
            });
            assert_eq!(par, 1, "{} workers={workers}: agent_batch", problem.id);
            let seq = counted("slm.query.postings", || {
                agent_batch_sequential(model(), problem, 2, &[], &opts);
            });
            assert_eq!(seq, 1, "{}: agent_batch_sequential", problem.id);
        }
    }
}

#[test]
fn eval_repair_searches_at_most_once() {
    let _g = recorder();
    let protocol = RepairProtocol {
        k: K,
        ..RepairProtocol::default()
    };
    let mut searched = 0;
    for (id, model) in zoo().iter() {
        for problem in rtllm_suite().iter().take(6) {
            let n = counted("slm.fixer.search", || {
                eval_repair(model, problem, &protocol);
            });
            assert!(n <= 1, "{id} / {}: {n} fix searches", problem.id);
            searched += n;
        }
    }
    assert!(
        searched > 0,
        "no cell attempted a fix: the bound has no teeth"
    );
}
