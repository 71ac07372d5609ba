//! Work counts of the pass@k loops: each evaluator plans its prompt once,
//! so the per-prompt work does not repeat per sample.
//!
//! With k = 5 samples, the `dda-obs` counters pin that
//! * an `eval_cell` runs one postings retrieval (`slm.query.postings`);
//! * an `eval_script` runs at most one;
//! * an agent batch runs exactly one draft retrieval, whatever its chain
//!   count, worker count or redrafts (repairs retrieve nothing);
//! * an `eval_repair` cell runs the lint-guided fix search
//!   (`slm.fixer.search`) at most once;
//! * an `eval_cell` or `eval_repair` cell runs the testbench
//!   (`sim.run.bytecode`) once per distinct lint-clean sample that passes
//!   the frontend, and an agent batch once per such candidate across all
//!   its chains (DESIGN.md §5o).
//!
//! The recorder is process-global, so these tests live in their own
//! binary and hold `OBS_LOCK` while they count.

use dda_benchmarks::VerilogProblem;
use dda_benchmarks::{rtllm_suite, sc_suite, thakur_suite};
use dda_eval::{
    agent_batch, agent_batch_sequential, cell_samples, eval_cell, eval_repair, eval_script,
    repair_samples, run_testbench_verdict, AgentBatchOptions, GenProtocol, ModelId, ModelZoo,
    RepairProtocol, ScriptProtocol, TestbenchVerdict, ZooOptions,
};
use dda_slm::Slm;
use std::collections::HashSet;
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

/// Whether scoring `source` reaches the simulator: it lints clean as
/// `file` and the frontend accepts it with the problem's testbench.
fn simulates(problem: &VerilogProblem, source: &str, file: &str) -> bool {
    dda_lint::check_source(file, source).is_clean()
        && !matches!(
            run_testbench_verdict(problem, source),
            TestbenchVerdict::ParseError(_) | TestbenchVerdict::ElabError(_)
        )
}

/// `(copies, distinct)`: the samples that reach the simulator, counted
/// with and without repeats.
fn simulated_samples(problem: &VerilogProblem, samples: &[String], file: &str) -> (usize, usize) {
    let reached: Vec<&String> = samples
        .iter()
        .filter(|s| simulates(problem, s, file))
        .collect();
    let distinct: HashSet<&String> = reached.iter().copied().collect();
    (reached.len(), distinct.len())
}

#[test]
fn eval_cell_simulates_each_distinct_sample_once() {
    let _g = recorder();
    let protocol = GenProtocol {
        k: K,
        ..GenProtocol::default()
    };
    let (mut copies, mut distinct) = (0, 0);
    for problem in thakur_suite().iter().take(4) {
        for level in 0..problem.prompts.len() {
            let samples = cell_samples(model(), problem, level, &protocol);
            let (c, d) = simulated_samples(problem, &samples, "gen.v");
            let runs = counted("sim.run.bytecode", || {
                eval_cell(model(), problem, level, &protocol);
            });
            assert_eq!(
                runs, d as u64,
                "{} level {level}: testbench runs",
                problem.id
            );
            copies += c;
            distinct += d;
        }
    }
    assert!(
        copies > distinct,
        "no cell repeated a simulated sample: the count has no teeth"
    );
}

#[test]
fn eval_repair_simulates_each_distinct_repair_once() {
    let _g = recorder();
    let protocol = RepairProtocol {
        k: K,
        ..RepairProtocol::default()
    };
    let (mut copies, mut distinct) = (0, 0);
    for (id, model) in zoo().iter() {
        for problem in rtllm_suite().iter().take(6) {
            let samples = repair_samples(model, problem, &protocol, None);
            let (c, d) = simulated_samples(problem, &samples, "fix.v");
            let runs = counted("sim.run.bytecode", || {
                eval_repair(model, problem, &protocol);
            });
            assert_eq!(runs, d as u64, "{id} / {}: testbench runs", problem.id);
            copies += c;
            distinct += d;
        }
    }
    assert!(
        copies > distinct,
        "no cell repeated a simulated repair: the count has no teeth"
    );
}

/// The agent's memo spans the whole batch: across chains and rounds, each
/// distinct lint-clean candidate is simulated at most once, and exactly
/// once per candidate that passes the frontend. The `agent.round` trace
/// events name each round's candidate by fingerprint and verdict.
#[test]
fn agent_batch_simulates_each_distinct_candidate_once() {
    let _g = recorder();
    let trace = std::env::temp_dir().join(format!("agent_memo_{}.jsonl", std::process::id()));
    let (mut clean_rounds, mut distinct_clean) = (0, 0);
    for workers in [1usize, 4] {
        let opts = AgentBatchOptions {
            k: K,
            workers,
            ..AgentBatchOptions::default()
        };
        for problem in thakur_suite().iter().take(4) {
            dda_obs::open_trace(&trace).expect("open trace");
            let runs = counted("sim.run.bytecode", || {
                agent_batch(model(), problem, 2, &[], &opts);
            });
            dda_obs::close_trace().expect("close trace");
            let events = dda_obs::read_trace(&trace).expect("read trace");
            let mut clean = HashSet::new();
            let mut simulated = HashSet::new();
            for ev in events.iter().filter(|e| e.kind == "agent.round") {
                if ev.field("lint") != Some(&dda_obs::Value::Bool(true)) {
                    continue;
                }
                let candidate = ev
                    .field("candidate")
                    .and_then(|v| v.as_str())
                    .expect("round event names its candidate")
                    .to_string();
                let verdict = ev.field("verdict").and_then(|v| v.as_str());
                if matches!(verdict, Some("scored" | "timeout")) {
                    simulated.insert(candidate.clone());
                }
                clean.insert(candidate);
                clean_rounds += 1;
            }
            distinct_clean += clean.len();
            let what = format!("{} workers={workers}", problem.id);
            assert!(runs <= clean.len() as u64, "{what}: {runs} testbench runs");
            if workers == 1 {
                assert_eq!(runs, simulated.len() as u64, "{what}: testbench runs");
            }
        }
    }
    let _ = std::fs::remove_file(&trace);
    assert!(
        clean_rounds > distinct_clean,
        "no batch repeated a clean candidate: the bound has no teeth"
    );
}
