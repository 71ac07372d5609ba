//! Work counts of the pass@k loops: each zoo model plans each distinct
//! prompt once over its life (DESIGN.md §5l, §5s), so the per-prompt work
//! repeats neither per sample nor per cell.
//!
//! With k = 5 samples, the `dda-obs` counters pin that
//! * on a freshly built zoo, a first pass of cells runs one postings
//!   retrieval (`slm.query.postings`) per `eval_cell` prompt no earlier
//!   cell issued, at most one per such `eval_script` prompt, exactly one
//!   draft retrieval per such agent-batch prompt whatever its chain
//!   count, worker count or redrafts (repairs retrieve nothing), and at
//!   most one lint-guided fix search (`slm.fixer.search`) per such
//!   `eval_repair` prompt;
//! * a plan adapts each retrieved hit to the prompt's interface at most
//!   once per understanding (`slm.plan.adapt`: full spec or module name
//!   only), however many samples pick it and however many cells share
//!   the prompt;
//! * a second pass over the same cells counts none of them;
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
use std::collections::{HashMap, HashSet};
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

/// The zoo of the testbench-run counts, shared by those tests.
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

/// A zoo of its own: its plan caches start cold, whatever the other
/// tests in this binary ran.
fn fresh_zoo() -> ModelZoo {
    ModelZoo::build(&ZooOptions {
        corpus_modules: 24,
        ..ZooOptions::default()
    })
}

/// Counter `name` per run of `f` over `items`, twice over: the first
/// pass on the zoo's cold caches, the second on the caches it warmed.
fn two_passes<T>(name: &str, items: &[T], mut f: impl FnMut(&T)) -> [Vec<u64>; 2] {
    [(); 2].map(|_| items.iter().map(|x| counted(name, || f(x))).collect())
}

/// Cells whose prompt an earlier cell already issued, in cell order.
fn repeats<K: Eq + std::hash::Hash>(keys: impl IntoIterator<Item = K>) -> Vec<bool> {
    let mut seen = HashSet::new();
    keys.into_iter().map(|k| !seen.insert(k)).collect()
}

#[test]
fn eval_cell_retrieves_once_per_prompt() {
    let _g = recorder();
    let zoo = fresh_zoo();
    let model = zoo.model(ModelId::Ours13B);
    let protocol = GenProtocol {
        k: K,
        ..GenProtocol::default()
    };
    let suite = thakur_suite();
    let cells: Vec<(&VerilogProblem, usize)> = suite
        .iter()
        .take(4)
        .flat_map(|p| (0..p.prompts.len()).map(move |level| (p, level)))
        .collect();
    let [first, second] = two_passes("slm.query.postings", &cells, |&(problem, level)| {
        eval_cell(model, problem, level, &protocol);
    });
    let repeated = repeats(cells.iter().map(|(p, level)| &p.prompts[*level]));
    for (i, &(problem, level)) in cells.iter().enumerate() {
        let what = format!("{} level {level}", problem.id);
        assert_eq!(first[i], u64::from(!repeated[i]), "{what}: cold retrievals");
        assert_eq!(second[i], 0, "{what}: warm retrievals");
    }
}

#[test]
fn eval_script_retrieves_at_most_once_per_prompt() {
    let _g = recorder();
    let zoo = fresh_zoo();
    let protocol = ScriptProtocol::default();
    assert!(protocol.max_iters >= K);
    let suite = sc_suite();
    let cells: Vec<(ModelId, usize)> = zoo
        .iter()
        .flat_map(|(id, _)| (0..suite.len()).map(move |t| (id, t)))
        .collect();
    let [first, second] = two_passes("slm.query.postings", &cells, |&(id, t)| {
        eval_script(zoo.model(id), &suite[t], &protocol);
    });
    let repeated = repeats(cells.iter().map(|&(id, t)| (id, &suite[t].prompt)));
    for (i, &(id, t)) in cells.iter().enumerate() {
        let what = format!("{id} / {}", suite[t].level.label());
        assert!(
            first[i] <= u64::from(!repeated[i]),
            "{what}: {} retrievals",
            first[i]
        );
        assert_eq!(second[i], 0, "{what}: warm retrievals");
    }
}

#[test]
fn agent_batch_runs_one_draft_retrieval_per_prompt() {
    let _g = recorder();
    let zoo = fresh_zoo();
    let model = zoo.model(ModelId::Ours13B);
    let suite = thakur_suite();
    let problems: Vec<&VerilogProblem> = suite.iter().take(4).collect();
    let opts = |workers| AgentBatchOptions {
        k: K,
        workers,
        ..AgentBatchOptions::default()
    };
    // Cold: one draft retrieval per distinct prompt, whatever the chain
    // count or redrafts (repairs retrieve nothing).
    let [first, second] = two_passes("slm.query.postings", &problems, |problem| {
        agent_batch(model, problem, 2, &[], &opts(2));
    });
    let repeated = repeats(problems.iter().map(|p| &p.prompts[2]));
    for (i, problem) in problems.iter().enumerate() {
        assert_eq!(first[i], u64::from(!repeated[i]), "{}: cold", problem.id);
        assert_eq!(second[i], 0, "{}: warm", problem.id);
        for workers in [1usize, 4] {
            let par = counted("slm.query.postings", || {
                agent_batch(model, problem, 2, &[], &opts(workers));
            });
            assert_eq!(par, 0, "{} workers={workers}: agent_batch", problem.id);
        }
        let seq = counted("slm.query.postings", || {
            agent_batch_sequential(model, problem, 2, &[], &opts(1));
        });
        assert_eq!(seq, 0, "{}: agent_batch_sequential", problem.id);
    }
}

#[test]
fn eval_repair_searches_at_most_once_per_prompt() {
    let _g = recorder();
    let zoo = fresh_zoo();
    let protocol = RepairProtocol {
        k: K,
        ..RepairProtocol::default()
    };
    let suite = rtllm_suite();
    let cells: Vec<(ModelId, usize)> = zoo
        .iter()
        .flat_map(|(id, _)| (0..6).map(move |p| (id, p)))
        .collect();
    let [first, second] = two_passes("slm.fixer.search", &cells, |&(id, p)| {
        eval_repair(zoo.model(id), &suite[p], &protocol);
    });
    // A cell's broken input is a function of the problem and the protocol.
    let repeated = repeats(cells.iter().map(|&(id, p)| (id, suite[p].id)));
    for (i, &(id, p)) in cells.iter().enumerate() {
        let what = format!("{id} / {}", suite[p].id);
        assert!(
            first[i] <= u64::from(!repeated[i]),
            "{what}: {} fix searches",
            first[i]
        );
        assert_eq!(second[i], 0, "{what}: warm fix searches");
    }
    assert!(
        first.iter().sum::<u64>() > 0,
        "no cell attempted a fix: the bound has no teeth"
    );
}

/// Hits a plan keeps from its top-32 retrieval.
const PLAN_HITS: u64 = 8;

#[test]
fn plans_adapt_each_hit_at_most_once_per_understanding() {
    let _g = recorder();
    let zoo = fresh_zoo();
    // Many more samples per cell than a plan has (hit, understanding)
    // pairs, so adapting per sample would break the bound.
    let protocol = GenProtocol {
        k: 48,
        ..GenProtocol::default()
    };
    let suite = thakur_suite();
    let cells: Vec<(ModelId, &VerilogProblem, usize)> = zoo
        .iter()
        .flat_map(|(id, _)| {
            suite
                .iter()
                .take(4)
                .flat_map(move |p| (0..p.prompts.len()).map(move |level| (id, p, level)))
        })
        .collect();
    let [first, second] = two_passes("slm.plan.adapt", &cells, |&(id, problem, level)| {
        cell_samples(zoo.model(id), problem, level, &protocol);
    });
    // Cells sharing a prompt share its plan, and so its adaptations.
    let mut per_plan: HashMap<(ModelId, &str), u64> = HashMap::new();
    for (i, &(id, problem, level)) in cells.iter().enumerate() {
        *per_plan
            .entry((id, problem.prompts[level].as_str()))
            .or_default() += first[i];
        assert_eq!(
            second[i], 0,
            "{id} / {} level {level}: warm adaptations",
            problem.id
        );
    }
    for ((id, prompt), n) in &per_plan {
        assert!(
            *n <= 2 * PLAN_HITS,
            "{id}: {n} adaptations for one plan of {prompt:?}"
        );
    }
    assert!(
        first.iter().sum::<u64>() > 0,
        "no plan adapted a hit: the bound has no teeth"
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
