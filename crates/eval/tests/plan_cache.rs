//! The zoo's plan caches (DESIGN.md §5s) change how often the per-prompt
//! work runs, never what a table says.
//!
//! * Every Table 3/4/5 cell and Table 6 batch on a warm zoo equals the
//!   same call on a freshly built zoo, bit for bit, at two zoo seeds and
//!   two protocol seeds; the compared warm pass builds no plan at all.
//! * Ours-7B and Ours-13B share a trained index but not a cache.
//! * A model from `Slm::finetune` caches nothing.
//! * `agent_batch` at 4 workers on a warm cache equals
//!   `agent_batch_sequential`.
//! * Past [`PLAN_CACHE_CAP`] a prompt gets a fresh plan whose samples
//!   equal an uncached model's.
//!
//! The recorder is process-global, so every test holds `OBS_LOCK` while
//! it counts.

use dda_benchmarks::{rtllm_suite, rtllm_table5_subset, sc_suite, thakur_suite};
use dda_core::align::ALIGN_INSTRUCT;
use dda_core::repair::REPAIR_INSTRUCT;
use dda_eval::{
    agent_batch, agent_batch_sequential, eval_cell, eval_repair, eval_script, repair_samples,
    AgentBatchOptions, AgentBatchOutcome, AgentProtocol, GenProtocol, ModelId, ModelZoo,
    RepairProtocol, ScriptCell, ScriptProtocol, ZooOptions,
};
use dda_slm::{GenOptions, Slm, SlmProfile, PLAN_CACHE_CAP, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes recorder access and hands back a clean, enabled recorder.
fn recorder() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dda_obs::reset();
    dda_obs::enable();
    guard
}

/// `(slm.plan.built, slm.plan.cached)` accumulated by `f`.
fn plans(f: impl FnOnce()) -> (u64, u64) {
    dda_obs::reset();
    f();
    let snap = dda_obs::snapshot();
    (
        snap.counter("slm.plan.built"),
        snap.counter("slm.plan.cached"),
    )
}

fn build_zoo(seed: u64) -> ModelZoo {
    ModelZoo::build(&ZooOptions {
        corpus_modules: 16,
        seed,
        ..ZooOptions::default()
    })
}

/// One table cell's outcome with every float as its bits.
#[derive(Debug, PartialEq, Eq)]
enum Cell {
    Gen(usize, u64),
    Repair(usize, u64),
    Script(ScriptCell),
    Agent(String),
}

fn agent_cell(out: &AgentBatchOutcome) -> Cell {
    let chains: Vec<String> = out
        .chains
        .iter()
        .map(|c| format!("{c:?} {:016x}", c.function.to_bits()))
        .collect();
    Cell::Agent(format!(
        "{chains:?} winner={:?} rounds={} quarantined={}",
        out.winner, out.rounds_total, out.quarantined
    ))
}

/// Every Table 5, 3 and 4 cell of every model, then Table 6's batches
/// at round budgets 1 and 3, all under protocol seed `seed`.
fn tables(zoo: &ModelZoo, seed: u64) -> Vec<Cell> {
    let mut table5 = thakur_suite();
    table5.extend(rtllm_table5_subset());
    let gen = GenProtocol {
        seed,
        ..GenProtocol::default()
    };
    let repair = RepairProtocol {
        seed,
        ..RepairProtocol::default()
    };
    let script = ScriptProtocol {
        seed,
        ..ScriptProtocol::default()
    };
    let mut cells = Vec::new();
    for (_, model) in zoo.iter() {
        for problem in &table5 {
            for level in 0..problem.prompts.len() {
                let c = eval_cell(model, problem, level, &gen);
                cells.push(Cell::Gen(c.syntax_errors, c.best_function.to_bits()));
            }
        }
        for problem in &rtllm_suite() {
            let c = eval_repair(model, problem, &repair);
            cells.push(Cell::Repair(c.syntax_errors, c.best_function.to_bits()));
        }
        for task in &sc_suite() {
            cells.push(Cell::Script(eval_script(model, task, &script)));
        }
    }
    let ours = zoo.model(ModelId::Ours13B);
    for rounds in [1, 3] {
        let opts = AgentBatchOptions {
            protocol: AgentProtocol {
                seed,
                max_feedback_iters: rounds,
                ..AgentProtocol::default()
            },
            ..AgentBatchOptions::default()
        };
        for problem in &thakur_suite() {
            for level in 0..problem.prompts.len() {
                cells.push(agent_cell(&agent_batch_sequential(
                    ours,
                    problem,
                    level,
                    &[],
                    &opts,
                )));
            }
        }
    }
    cells
}

#[test]
fn warm_zoo_tables_equal_fresh_zoo_tables() {
    let _g = recorder();
    const PROTOCOL_SEEDS: [u64; 2] = [99, 4242];
    for zoo_seed in [2024, 7] {
        let warm = build_zoo(zoo_seed);
        for seed in PROTOCOL_SEEDS {
            tables(&warm, seed);
        }
        for seed in PROTOCOL_SEEDS {
            let fresh = tables(&build_zoo(zoo_seed), seed);
            let mut again = Vec::new();
            let (built, cached) = plans(|| again = tables(&warm, seed));
            assert_eq!(built, 0, "zoo {zoo_seed} seed {seed}: warm pass planned");
            assert!(cached > 0, "zoo {zoo_seed} seed {seed}: no plan reused");
            assert_eq!(again.len(), fresh.len());
            for (i, (w, f)) in again.iter().zip(&fresh).enumerate() {
                assert_eq!(w, f, "zoo {zoo_seed} seed {seed}: cell {i}");
            }
        }
    }
}

/// Ours-13B shares Ours-7B's trained index but plans its own prompts:
/// its repair budget, and so its fix outcome, depends on capacity.
#[test]
fn ours_7b_and_13b_keep_separate_caches() {
    let _g = recorder();
    let zoo = build_zoo(2024);
    let protocol = RepairProtocol::default();
    let suite = rtllm_suite();
    let cells = |id: ModelId| {
        plans(|| {
            for problem in &suite {
                repair_samples(zoo.model(id), problem, &protocol, None);
            }
        })
    };
    let n = suite.len() as u64;
    assert_eq!(cells(ModelId::Ours7B), (n, 0), "Ours-7B cold");
    assert_eq!(cells(ModelId::Ours13B), (n, 0), "Ours-13B after Ours-7B");
    assert_eq!(cells(ModelId::Ours7B), (0, n), "Ours-7B warm");
    assert_eq!(cells(ModelId::Ours13B), (0, n), "Ours-13B warm");
    // And each cache holds its own model's outcomes.
    let fresh = build_zoo(2024);
    for problem in &suite {
        for id in [ModelId::Ours13B, ModelId::Ours7B] {
            assert_eq!(
                repair_samples(zoo.model(id), problem, &protocol, None),
                repair_samples(fresh.model(id), problem, &protocol, None),
                "{id} / {}",
                problem.id
            );
        }
    }
}

fn small_model() -> Slm {
    let mut rng = SmallRng::seed_from_u64(3);
    let corpus = dda_corpus::generate_corpus(8, &mut rng);
    let (data, _) = dda_core::pipeline::augment(
        &corpus,
        &dda_core::pipeline::PipelineOptions::default(),
        &mut rng,
    );
    Slm::finetune(SlmProfile::llama2(13.0), &data, &PROGRESSIVE_ORDER)
}

/// Draws `k` samples of `(instruct, input)` through `generate`.
fn samples(model: &Slm, instruct: &str, input: &str, k: u64) -> Vec<String> {
    (0..k)
        .map(|seed| {
            model.generate(
                instruct,
                input,
                &GenOptions::default(),
                &mut SmallRng::seed_from_u64(seed),
            )
        })
        .collect()
}

#[test]
fn finetuned_model_caches_nothing() {
    let _g = recorder();
    let model = small_model();
    let problem = &thakur_suite()[0];
    let (built, cached) = plans(|| {
        for _ in 0..3 {
            samples(&model, ALIGN_INSTRUCT, &problem.prompts[0], 1);
        }
    });
    assert_eq!((built, cached), (3, 0));
    let queries = {
        dda_obs::reset();
        samples(&model, ALIGN_INSTRUCT, &problem.prompts[0], 3);
        dda_obs::snapshot().counter("slm.query.postings")
    };
    assert_eq!(queries, 3, "every uncached call retrieves");
}

#[test]
fn warm_agent_batch_matches_sequential() {
    let _g = recorder();
    let zoo = build_zoo(2024);
    let model = zoo.model(ModelId::Ours13B);
    let opts = AgentBatchOptions {
        workers: 4,
        protocol: AgentProtocol {
            max_feedback_iters: 3,
            ..AgentProtocol::default()
        },
        ..AgentBatchOptions::default()
    };
    for problem in thakur_suite().iter().take(6) {
        for level in 0..problem.prompts.len() {
            // The first parallel batch plans on a cold cache from four
            // workers at once; the later calls reuse what it planned.
            let cold = agent_batch(model, problem, level, &[], &opts);
            let reference = agent_batch_sequential(model, problem, level, &[], &opts);
            let (warm_built, warm_cached) = plans(|| {
                let warm = agent_batch(model, problem, level, &[], &opts);
                assert_eq!(warm, reference, "{} level {level}: warm", problem.id);
            });
            assert_eq!(cold, reference, "{} level {level}: cold", problem.id);
            assert_eq!(warm_built, 0, "{} level {level}: replanned", problem.id);
            assert!(warm_cached > 0);
        }
    }
}

#[test]
fn outputs_stay_identical_past_the_cap() {
    let _g = recorder();
    let plain = small_model();
    let cached = small_model().with_plan_cache();
    let problem = &thakur_suite()[1];
    let first = &problem.prompts[0];
    let repair =
        "/m.v:2: ERROR: syntax error\n, module m(input a, output y)\nassign y = ~a\nendmodule\n";
    // Fill the cache: the two real prompts first, then distinct fillers.
    let (built, _) = plans(|| {
        cached.prompt(ALIGN_INSTRUCT, first, &[]);
        cached.prompt(REPAIR_INSTRUCT, repair, &[]);
        for i in 2..PLAN_CACHE_CAP {
            cached.prompt(ALIGN_INSTRUCT, &format!("filler prompt {i}"), &[]);
        }
    });
    assert_eq!(built, PLAN_CACHE_CAP as u64);
    // Prompts cached before the cap still hit.
    let (built, hits) = plans(|| {
        assert_eq!(
            samples(&cached, ALIGN_INSTRUCT, first, 4),
            samples(&plain, ALIGN_INSTRUCT, first, 4)
        );
        assert_eq!(
            samples(&cached, REPAIR_INSTRUCT, repair, 4),
            samples(&plain, REPAIR_INSTRUCT, repair, 4)
        );
    });
    // Only `plain`'s eight calls build a plan.
    assert_eq!((built, hits), (8, 8));
    // A new prompt past the cap gets a fresh, uncached plan every time.
    for level in 1..problem.prompts.len() {
        let prompt = &problem.prompts[level];
        let (built, hits) = plans(|| {
            assert_eq!(
                samples(&cached, ALIGN_INSTRUCT, prompt, 3),
                samples(&plain, ALIGN_INSTRUCT, prompt, 3),
                "level {level}"
            );
        });
        assert_eq!((built, hits), (6, 0), "level {level}");
    }
}
