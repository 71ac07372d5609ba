//! The `paper_pipeline` workload: the paper's own job, offline, closed
//! loop, one thread.
//!
//! Set-up is [`ModelZoo::build`] from the workload seed (a 192-module
//! corpus, full and completion-only augmentation, six finetuned models).
//! The timed ops are the cells of Tables 3, 4 and 5 plus the Table 6
//! agent sweep, scored pass@5 on the scalar engine. One *sweep* is every
//! cell once under one sampling seed; sweeps repeat under fresh sampling
//! seeds derived from the workload seed until the run has lasted its
//! seconds and holds enough ops for a p99. Each sweep runs its cells in
//! a seeded shuffled order, so the ops a time-boxed run cuts off are a
//! fair sample of the mix rather than always the last table.
//!
//! The traced path ([`run_op_traced`]) re-runs each cell layer by layer —
//! generate, lint, frontend, simulate — through the crates' public
//! functions with a stopwatch around each call; the tests hold it to
//! the library's outputs exactly.

use crate::calibrate::Calibrator;
use crate::clock::{timed, Phase};
use crate::stats;
use crate::trace::Trace;
use crate::{fnv, fnv_step, splitmix, Report, FNV_OFFSET};
use dda_benchmarks::{parse_result, ScTask, VerilogProblem};
use dda_core::align::ALIGN_INSTRUCT;
use dda_core::edascript::EDA_INSTRUCT;
use dda_core::pipeline::{augment, PipelineOptions, StageSet};
use dda_core::repair::{break_verilog, RepairOptions, REPAIR_INSTRUCT};
use dda_eval::generation::{testbench_sim_options, TestbenchVerdict};
use dda_eval::{
    agent_batch_sequential, eval_cell, eval_repair, eval_script, AgentBatchOptions,
    AgentBatchOutcome, AgentProtocol, GenCell, GenProtocol, ModelId, ModelZoo, RepairCell,
    RepairProtocol, ScriptCell, ScriptProtocol, ZooOptions,
};
use dda_runtime::CancelToken;
use dda_sim::cache::{shared_design, FrontendError};
use dda_sim::{run_batch, SimOptions, Simulator};
use dda_slm::{pretraining_dataset, GenOptions, Slm, SlmProfile, TrainOptions, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Corpus size the zoo is finetuned from (the paper-scale default).
pub const CORPUS_MODULES: usize = 192;

/// The workload seed whose cell outputs are pinned by [`GOLDEN`].
pub const DEFAULT_SEED: u64 = 2024;

/// Per-sweep output digests for [`DEFAULT_SEED`], one per table in
/// [`TABLES`] order, recorded from this benchmark's first commit (the
/// checked-in `results/*.txt` predate later changes and no longer match
/// the code). Sweeps past the end of the list are digested, not checked.
pub const GOLDEN: &[[u64; 4]] = &[
    [
        0x7faa370805ce7bae,
        0x6f8ddcd0ed9a2aa2,
        0xe7b1927ad36dffa6,
        0x4523553a3f9badea,
    ],
    [
        0x7faa370805ce7bae,
        0x21f73cda34e234ce,
        0x2bbd005ada6aa513,
        0x53d6c8aea454ab96,
    ],
    [
        0x7faa370805ce7bae,
        0x64cfbde56fd28db0,
        0x90c3f71e8c7a0849,
        0xa07bb09fe8b269ff,
    ],
    [
        0x7faa370805ce7bae,
        0x2330b4c8676b1512,
        0x4ba8d7df2f1c0e2b,
        0x9c184c259bf43679,
    ],
    [
        0x7faa370805ce7bae,
        0xa7fc17d1925c3c7c,
        0xdd37abe8c758a75a,
        0xf7a89885207b5197,
    ],
    [
        0x7faa370805ce7bae,
        0x4b26d8422e1aedeb,
        0x15889dcddf41a91f,
        0x611f45670ab510dd,
    ],
    [
        0x7faa370805ce7bae,
        0x205526cb6e1ed294,
        0xbf23a13b058f05db,
        0x2ad01cb47346ff07,
    ],
    [
        0x7faa370805ce7bae,
        0x1dac0959e2a46df6,
        0xfa23ad76e5735f1b,
        0xb0e98056f527677a,
    ],
    [
        0x7faa370805ce7bae,
        0x7bb13ab1436ed3ba,
        0x6599f1e7b28277fc,
        0x68ee216bdcaf89e3,
    ],
    [
        0x7faa370805ce7bae,
        0xc43d0c6fa2433ac3,
        0xd446ae44f8ed8e0a,
        0x0eb27865f44503e6,
    ],
    [
        0x7faa370805ce7bae,
        0x90f02932846b6a1e,
        0xd7d0abd8b350bf14,
        0x7cd1c82c85a3db7c,
    ],
    [
        0x7faa370805ce7bae,
        0x8780b94d5895e00a,
        0xf126022e59f71576,
        0x0a42452d2e81c7b4,
    ],
    [
        0x7faa370805ce7bae,
        0x39d523b381046784,
        0x478c9b6626695b33,
        0x644d75a16e2f1157,
    ],
    [
        0x7faa370805ce7bae,
        0xd9a5d984be670648,
        0x5a8fc626eb3429c6,
        0x4d89230e7acb562c,
    ],
    [
        0x7faa370805ce7bae,
        0x3e17ecea92f3b8fd,
        0x459f4f1070ae7f96,
        0x2020750978d94373,
    ],
    [
        0x7faa370805ce7bae,
        0x38d0feab88b46c39,
        0xbb77e19d4273ba48,
        0x9dc84de26359e604,
    ],
];

/// Table labels, in digest order.
pub const TABLES: [&str; 4] = ["t3", "t4", "t5", "t6"];

/// Round budgets of the Table 6 agent sweep.
const AGENT_ROUNDS: [usize; 2] = [1, 3];

/// Candidate chains per agent batch (pass@5).
const AGENT_K: usize = 5;

/// One timed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Table 5: one (model, problem, prompt level) generation cell.
    Gen {
        /// Model scored.
        model: ModelId,
        /// Index into [`Suites::table5`].
        problem: usize,
        /// Prompt detail level.
        level: usize,
    },
    /// Table 3: one (model, problem) repair cell.
    Repair {
        /// Model scored.
        model: ModelId,
        /// Index into [`Suites::rtllm`].
        problem: usize,
    },
    /// Table 4: one (model, task) SiliconCompiler-script cell.
    Script {
        /// Model scored.
        model: ModelId,
        /// Index into [`Suites::sc`].
        task: usize,
    },
    /// Table 6: one sequential pass@5 agent batch of the Ours-13B model.
    Agent {
        /// Index into [`Suites::thakur`].
        problem: usize,
        /// Prompt detail level.
        level: usize,
        /// Tool-feedback rounds after the first draft.
        rounds: usize,
    },
}

impl Op {
    /// Position of this op's table in [`TABLES`].
    pub fn table(&self) -> usize {
        match self {
            Op::Repair { .. } => 0,
            Op::Script { .. } => 1,
            Op::Gen { .. } => 2,
            Op::Agent { .. } => 3,
        }
    }
}

/// The benchmark suites the tables score.
pub struct Suites {
    /// Table 5 problems: the Thakur suite then the RTLLM subset.
    pub table5: Vec<VerilogProblem>,
    /// Table 3 problems: the RTLLM suite.
    pub rtllm: Vec<VerilogProblem>,
    /// Table 4 tasks.
    pub sc: Vec<ScTask>,
    /// Table 6 problems: the Thakur suite.
    pub thakur: Vec<VerilogProblem>,
}

impl Suites {
    /// Loads every suite.
    pub fn load() -> Suites {
        let thakur = dda_benchmarks::thakur_suite();
        let mut table5 = thakur.clone();
        table5.extend(dda_benchmarks::rtllm_table5_subset());
        Suites {
            table5,
            rtllm: dda_benchmarks::rtllm_suite(),
            sc: dda_benchmarks::sc_suite(),
            thakur,
        }
    }

    /// Every cell of one sweep, in canonical (digest) order.
    pub fn sweep(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for model in ModelId::ALL {
            for (problem, p) in self.table5.iter().enumerate() {
                for level in 0..p.prompts.len() {
                    ops.push(Op::Gen {
                        model,
                        problem,
                        level,
                    });
                }
            }
            for problem in 0..self.rtllm.len() {
                ops.push(Op::Repair { model, problem });
            }
            for task in 0..self.sc.len() {
                ops.push(Op::Script { model, task });
            }
        }
        for rounds in AGENT_ROUNDS {
            for (problem, p) in self.thakur.iter().enumerate() {
                for level in 0..p.prompts.len() {
                    ops.push(Op::Agent {
                        problem,
                        level,
                        rounds,
                    });
                }
            }
        }
        ops
    }
}

/// The sampling seed of sweep `sweep` under workload seed `seed`.
pub fn sampling_seed(seed: u64, sweep: u64) -> u64 {
    splitmix(seed ^ splitmix(sweep.wrapping_add(0x5EED)))
}

/// The seeded execution order of a sweep of `n` ops (Fisher–Yates).
pub fn sweep_order(n: usize, sampling_seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(sampling_seed);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// A cell's result.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Table 5 cell.
    Gen(GenCell),
    /// Table 3 cell.
    Repair(RepairCell),
    /// Table 4 cell.
    Script(ScriptCell),
    /// Table 6 batch.
    Agent(AgentBatchOutcome),
}

impl Outcome {
    /// Invariants every cell must satisfy whatever the seed: counts
    /// within the sample budget, pass rates in `[0, 1]`, every agent
    /// chain run to completion and the winner the first passing chain.
    pub fn is_valid(&self) -> bool {
        let rate_ok = |r: f64| (0.0..=1.0).contains(&r);
        match self {
            Outcome::Gen(c) => c.syntax_errors <= 5 && rate_ok(c.best_function),
            Outcome::Repair(c) => c.syntax_errors <= 5 && rate_ok(c.best_function),
            Outcome::Script(c) => {
                let max = ScriptProtocol::default().max_iters;
                c.syn_iter.is_none_or(|i| (1..=max).contains(&i))
                    && c.func_iter.is_none_or(|i| (1..=max).contains(&i))
            }
            Outcome::Agent(b) => {
                b.chains.len() == AGENT_K
                    && b.quarantined == 0
                    && b.chains.iter().all(|c| !c.cancelled && rate_ok(c.function))
                    && b.winner == b.chains.iter().position(|c| c.passed())
            }
        }
    }
}

/// The protocols of one sweep: every table's defaults with the sweep's
/// sampling seed.
#[derive(Debug, Clone)]
pub struct Protocols {
    /// Table 5.
    pub gen: GenProtocol,
    /// Table 3.
    pub repair: RepairProtocol,
    /// Table 4.
    pub script: ScriptProtocol,
    /// Table 6 (round budget filled in per op).
    pub agent: AgentBatchOptions,
}

impl Protocols {
    /// Protocols under sampling seed `seed` (Table 3 keeps its default).
    pub fn new(seed: u64) -> Protocols {
        Protocols {
            gen: GenProtocol {
                seed,
                ..GenProtocol::default()
            },
            // Table 3's seed also picks the faults injected into each
            // reference, i.e. it defines the benchmark's inputs rather
            // than sampling them. It stays at the table's default: under
            // sampled seeds a wrong-but-lint-clean repair that simulates
            // to the step budget (~1.7 s of CPU per cell) came and went
            // between sweeps and swung a run's throughput threefold.
            repair: RepairProtocol::default(),
            script: ScriptProtocol {
                seed,
                ..ScriptProtocol::default()
            },
            agent: AgentBatchOptions {
                k: AGENT_K,
                protocol: AgentProtocol {
                    seed,
                    ..AgentProtocol::default()
                },
                ..AgentBatchOptions::default()
            },
        }
    }

    fn agent_with(&self, rounds: usize) -> AgentBatchOptions {
        let mut opts = self.agent.clone();
        opts.protocol.max_feedback_iters = rounds;
        opts
    }
}

/// Runs one cell through the library's own entry points.
pub fn run_op(zoo: &ModelZoo, suites: &Suites, op: Op, p: &Protocols) -> Outcome {
    match op {
        Op::Gen {
            model,
            problem,
            level,
        } => Outcome::Gen(eval_cell(
            zoo.model(model),
            &suites.table5[problem],
            level,
            &p.gen,
        )),
        Op::Repair { model, problem } => Outcome::Repair(eval_repair(
            zoo.model(model),
            &suites.rtllm[problem],
            &p.repair,
        )),
        Op::Script { model, task } => {
            Outcome::Script(eval_script(zoo.model(model), &suites.sc[task], &p.script))
        }
        Op::Agent {
            problem,
            level,
            rounds,
        } => Outcome::Agent(agent_batch_sequential(
            zoo.model(ModelId::Ours13B),
            &suites.thakur[problem],
            level,
            &[],
            &p.agent_with(rounds),
        )),
    }
}

/// Runs one cell layer by layer with a stopwatch around every call into
/// a crate. Outputs equal [`run_op`]'s exactly.
pub fn run_op_traced(
    zoo: &ModelZoo,
    suites: &Suites,
    op: Op,
    p: &Protocols,
    trace: &mut Trace,
) -> Outcome {
    match op {
        Op::Gen {
            model,
            problem,
            level,
        } => Outcome::Gen(gen_cell_traced(
            zoo.model(model),
            &suites.table5[problem],
            level,
            &p.gen,
            trace,
        )),
        Op::Repair { model, problem } => Outcome::Repair(repair_cell_traced(
            zoo.model(model),
            &suites.rtllm[problem],
            &p.repair,
            trace,
        )),
        Op::Script { model, task } => Outcome::Script(script_cell_traced(
            zoo.model(model),
            &suites.sc[task],
            &p.script,
            trace,
        )),
        Op::Agent {
            problem,
            level,
            rounds,
        } => {
            let out = trace.time("eval.agent", || {
                agent_batch_sequential(
                    zoo.model(ModelId::Ours13B),
                    &suites.thakur[problem],
                    level,
                    &[],
                    &p.agent_with(rounds),
                )
            });
            if out.passed() {
                trace.useful("eval.agent");
            }
            Outcome::Agent(out)
        }
    }
}

/// `dda_eval::eval_cell`, one layer call at a time.
fn gen_cell_traced(
    model: &Slm,
    problem: &VerilogProblem,
    level: usize,
    protocol: &GenProtocol,
    trace: &mut Trace,
) -> GenCell {
    let prompt = &problem.prompts[level];
    let opts = GenOptions {
        temperature: protocol.temperature,
    };
    let mut syntax_errors = 0;
    let mut clean = Vec::new();
    for i in 0..protocol.k {
        let mut rng = SmallRng::seed_from_u64(
            protocol
                .seed
                .wrapping_mul(1_000_003)
                .wrapping_add((level as u64) << 32)
                .wrapping_add(fnv(problem.id))
                .wrapping_add(fnv(&model.profile().name))
                .wrapping_add(i as u64),
        );
        let out = trace.time("slm.generate", || {
            model.generate(ALIGN_INSTRUCT, prompt, &opts, &mut rng)
        });
        if lint_clean("gen.v", &out, trace) {
            clean.push(out);
        } else {
            syntax_errors += 1;
        }
    }
    GenCell {
        syntax_errors,
        best_function: best_rate_traced(problem, &clean, trace),
    }
}

/// `dda_eval::eval_repair` (no retrieval), one layer call at a time.
fn repair_cell_traced(
    model: &Slm,
    problem: &VerilogProblem,
    protocol: &RepairProtocol,
    trace: &mut Trace,
) -> RepairCell {
    let input = broken_input_traced(problem, protocol, trace);
    let opts = GenOptions {
        temperature: protocol.temperature,
    };
    let no_context: &[String] = &[];
    let mut syntax_errors = 0;
    let mut clean = Vec::new();
    for i in 0..protocol.k {
        let mut rng = SmallRng::seed_from_u64(
            protocol.seed.wrapping_add(77 + i as u64)
                ^ fnv(problem.id)
                ^ fnv(&model.profile().name).rotate_left(17),
        );
        let out = trace.time("slm.generate", || {
            model.generate_with_context(REPAIR_INSTRUCT, &input, no_context, &opts, &mut rng)
        });
        if lint_clean("fix.v", &out, trace) {
            clean.push(out);
        } else {
            syntax_errors += 1;
        }
    }
    RepairCell {
        syntax_errors,
        best_function: best_rate_traced(problem, &clean, trace),
    }
}

/// `dda_eval::repair_eval::broken_input`: break the reference until the
/// checker rejects it, and prepend the diagnostics.
fn broken_input_traced(
    problem: &VerilogProblem,
    protocol: &RepairProtocol,
    trace: &mut Trace,
) -> String {
    let mut rng = SmallRng::seed_from_u64(protocol.seed ^ fnv(problem.id));
    let opts = RepairOptions {
        max_mutations: protocol.max_mutations,
    };
    let file = format!("{}.v", problem.id);
    for _ in 0..50 {
        let Some(broken) = trace.time("core.break", || {
            break_verilog(problem.reference, &opts, &mut rng)
        }) else {
            continue;
        };
        let report = trace.time("lint.check", || {
            dda_lint::check_source(&file, &broken.source)
        });
        if report.is_clean() {
            trace.useful("lint.check");
            continue;
        }
        return format!("{}, {}", report.render().trim_end(), broken.source);
    }
    let wrong = problem.reference.replacen(';', "", 1);
    let report = trace.time("lint.check", || dda_lint::check_source(&file, &wrong));
    format!("{}, {}", report.render().trim_end(), wrong)
}

/// `dda_eval::eval_script`, one layer call at a time.
fn script_cell_traced(
    model: &Slm,
    task: &ScTask,
    protocol: &ScriptProtocol,
    trace: &mut Trace,
) -> ScriptCell {
    let opts = GenOptions { temperature: 0.1 };
    let mut syn_iter = None;
    let mut func_iter = None;
    for i in 0..protocol.max_iters {
        let h = task
            .level
            .label()
            .bytes()
            .chain(model.profile().name.bytes())
            .fold(FNV_OFFSET, fnv_step);
        let mut rng =
            SmallRng::seed_from_u64(protocol.seed.wrapping_mul(7919) ^ h.wrapping_add(i as u64));
        let out = trace.time("slm.generate", || {
            model.generate(EDA_INSTRUCT, &task.prompt, &opts, &mut rng)
        });
        trace.time("sc.eval", || {
            if syn_iter.is_none() && task.check_syntax(&out) {
                syn_iter = Some(i + 1);
            }
            if func_iter.is_none() && task.check_function(&out) {
                func_iter = Some(i + 1);
            }
        });
        if func_iter.is_some() {
            break;
        }
    }
    ScriptCell {
        syn_iter,
        func_iter,
    }
}

fn lint_clean(file: &str, src: &str, trace: &mut Trace) -> bool {
    let clean = trace.time("lint.check", || {
        dda_lint::check_source(file, src).is_clean()
    });
    if clean {
        trace.useful("lint.check");
    }
    clean
}

/// Best scalar pass rate over lint-clean candidates (the sweeps' default
/// `runs_per_batch = 1` path).
fn best_rate_traced(problem: &VerilogProblem, clean: &[String], trace: &mut Trace) -> f64 {
    let opts = testbench_sim_options(&CancelToken::new());
    let mut best: f64 = 0.0;
    for out in clean {
        let rate = testbench_traced(problem, out, 1, &opts, trace).pass_rate();
        if rate > best {
            best = rate;
        }
    }
    best
}

/// Scores `source` against a problem's testbench on `lanes` lockstep
/// lanes (1 = the scalar engine) and returns the first lane's verdict:
/// the design cache lookup is the `sim.frontend` layer, the simulation
/// the `sim.run` layer.
pub fn testbench_traced(
    problem: &VerilogProblem,
    source: &str,
    lanes: usize,
    opts: &SimOptions,
    trace: &mut Trace,
) -> TestbenchVerdict {
    let src = format!("{source}\n{}", problem.testbench);
    let design = match trace.time("sim.frontend", || shared_design(&src, "tb")) {
        Ok(d) => d,
        Err(FrontendError::Parse(m)) => return TestbenchVerdict::ParseError(m),
        Err(FrontendError::Elab(e)) => return TestbenchVerdict::ElabError(e.message),
    };
    let run = trace.time("sim.run", || {
        if lanes > 1 {
            run_batch(&design, &vec![None; lanes], opts)
                .into_iter()
                .next()
                .expect("one result per lane")
        } else {
            Simulator::from_design(design).run(opts)
        }
    });
    trace.units("sim.run", lanes as u64);
    match run {
        Err(e) => TestbenchVerdict::Timeout(e.to_string()),
        Ok(result) => match parse_result(&result.output) {
            Some((pass, total)) if total > 0 => {
                TestbenchVerdict::Scored(pass as f64 / total as f64)
            }
            _ => TestbenchVerdict::Scored(0.0),
        },
    }
}

/// [`ModelZoo::build`], one layer call at a time; the models are
/// discarded (the zoo keeps them private), only the timings are kept.
pub fn zoo_layers_traced(opts: &ZooOptions, trace: &mut Trace) {
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let corpus = trace.time("corpus.generate", || {
        dda_corpus::generate_corpus(opts.corpus_modules, &mut rng)
    });
    let pipe = PipelineOptions::default();
    let mut rng_full = SmallRng::seed_from_u64(opts.seed ^ 0xF0);
    let (full, _) = trace.time("core.augment", || augment(&corpus, &pipe, &mut rng_full));
    let mut rng_gen = SmallRng::seed_from_u64(opts.seed ^ 0xF0);
    let general_opts = PipelineOptions {
        stages: StageSet::GENERAL_AUG,
        ..pipe
    };
    let (general, _) = trace.time("core.augment", || {
        augment(&corpus, &general_opts, &mut rng_gen)
    });
    let named = |name: &str| SlmProfile {
        name: name.into(),
        ..SlmProfile::llama2(13.0)
    };
    let empty = dda_core::Dataset::new();
    let topts = TrainOptions {
        workers: opts.train_workers.max(1),
    };
    let builds = [
        (SlmProfile::gpt35(), &empty),
        (
            SlmProfile {
                name: "Llama 2-FT (Ours) 7B".into(),
                ..SlmProfile::llama2(7.0)
            },
            &full,
        ),
        (named("Llama 2-FT (Ours) 13B"), &full),
        (SlmProfile::codegen16b(), &general),
        (SlmProfile::llama2(13.0), &empty),
        (named("Llama 2-FT (General Aug) 13B"), &general),
    ];
    for (profile, data) in builds {
        trace.time("slm.finetune", || {
            let pre = pretraining_dataset(&profile);
            Slm::finetune_with_options(profile, &pre, data, &PROGRESSIVE_ORDER, &topts)
        });
    }
}

/// Set-ups per untraced run; the median is reported.
const SETUP_REPEATS: usize = 3;

/// Ops a run must hold for its p99 (ten beyond the percentile).
pub const MIN_OPS: usize = 1000;

/// Runs the workload: set up, then time sweeps of cells for `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let suites = Suites::load();
    let ops = suites.sweep();
    let zoo_opts = ZooOptions {
        corpus_modules: CORPUS_MODULES,
        seed,
        train_workers: 1,
    };
    let mut report = Report::default();
    let mut cal = match Calibrator::spawn() {
        Ok(cal) => cal,
        Err(e) => {
            report.refuse(e);
            return report;
        }
    };
    let mut setup_trace = Trace::default();
    let mut setup_factor = 1.0;
    if traced {
        setup_factor = timed(&mut cal, || zoo_layers_traced(&zoo_opts, &mut setup_trace))
            .1
            .factor();
    }
    // Set-ups take seconds; the calibration bursts around all of them
    // are pooled into one slowness.
    let setups_start = std::time::Instant::now();
    let mut setups = Vec::new();
    let mut zoo = None;
    for _ in 0..if traced { 1 } else { SETUP_REPEATS } {
        drop(zoo.take());
        let (built, setup) = timed(&mut cal, || ModelZoo::build(&zoo_opts));
        zoo = Some(built);
        setups.push(setup.net_s());
    }
    let setup_slowness = cal.slowness_since(setups_start);
    let zoo = zoo.expect("at least one set-up");

    let cache0 = dda_sim::cache::stats();
    let mut phase = Phase::start(seconds);
    let mut trace = Trace::default();
    // Per timed op: its table and whether it ran traced.
    let mut kinds: Vec<(usize, bool)> = Vec::new();
    'sweeps: for sweep in 0u64.. {
        let sseed = sampling_seed(seed, sweep);
        let protocols = Protocols::new(sseed);
        let mut outcomes: Vec<Option<Outcome>> = vec![None; ops.len()];
        for i in sweep_order(ops.len(), sseed) {
            let at_s = phase.elapsed_s();
            if at_s >= seconds && phase.len() >= MIN_OPS {
                break 'sweeps;
            }
            let in_trace = traced && (at_s / crate::TRACE_SLICE_S) as usize % 2 == 1;
            let out = phase.op(&mut cal, || {
                if in_trace {
                    run_op_traced(&zoo, &suites, ops[i], &protocols, &mut trace)
                } else {
                    run_op(&zoo, &suites, ops[i], &protocols)
                }
            });
            kinds.push((ops[i].table(), in_trace));
            report.attempted += 1;
            if !out.is_valid() {
                report.failed += 1;
            }
            outcomes[i] = Some(out);
        }
        let digests = sweep_digests(&ops, &outcomes);
        report.notes.push(format!(
            "digest seed={seed} sweep={sweep} {}",
            TABLES
                .iter()
                .zip(digests)
                .map(|(t, d)| format!("{t}={d:016x}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        if seed == DEFAULT_SEED {
            if let Some(golden) = GOLDEN.get(sweep as usize) {
                for (table, (got, want)) in digests.iter().zip(golden).enumerate() {
                    if got != want {
                        report
                            .notes
                            .push(format!("golden mismatch: sweep {sweep} {}", TABLES[table]));
                        report.failed += ops.iter().filter(|o| o.table() == table).count() as u64;
                    }
                }
            }
        }
    }
    if let Some(e) = cal.error() {
        report.refuse(e);
    }
    let (samples, steal_s) = phase.finish(&cal);
    report.host_note(&steal_s, cal.slowness_since(phase.started()));
    report.wall_note(&phase.ops, seconds);
    let lat = match stats::summarise(&samples, seconds, stats::WINDOWS) {
        Ok(lat) => lat,
        Err(e) => {
            report.refuse(e);
            return report;
        }
    };
    // (ops, ms) per table, and of the plain and traced slices.
    let mut per_table = [(0usize, 0.0f64); 4];
    let mut slices = [(0usize, 0.0f64); 2];
    for (&(table, in_trace), s) in kinds.iter().zip(&samples) {
        for slot in [&mut per_table[table], &mut slices[usize::from(in_trace)]] {
            slot.0 += 1;
            slot.1 += s.ms;
        }
    }
    report.notes.push(format!(
        "tables {}",
        TABLES
            .iter()
            .zip(per_table)
            .map(|(t, (n, ms))| format!("{t}: {n} ops {:.3} ms/op", ms / n.max(1) as f64))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if !traced {
        report.metric("setup_s", stats::median(&setups) / setup_slowness, "s");
        report.latency(&lat, &phase);
        return report;
    }
    let [plain, traced_slice] = slices;
    // The traced ops' raw wall time: the layers inside them are raw too.
    let traced_raw: f64 = kinds
        .iter()
        .zip(&phase.ops)
        .filter(|((_, in_trace), _)| *in_trace)
        .map(|(_, s)| s.ms)
        .sum();
    // What turns the raw times into reference-host times.
    let factor = traced_slice.1 / traced_raw;
    report.setup_layers(&setup_trace, setup_factor);
    report.op_layers(&trace, traced_slice.0, factor);
    report.cache_layers(&cache0);
    // Cells nest no traced layer inside another, so the layers sum.
    let named = trace.total_busy().as_secs_f64() * 1e3;
    report.metric(
        "unattributed.ms",
        (traced_raw - named) * factor / traced_slice.0.max(1) as f64,
        "ms",
    );
    report.metric("coverage.pct", 100.0 * named / traced_raw, "%");
    let rate = |(n, ms): (usize, f64)| n as f64 / ms;
    report.metric(
        "trace.overhead_pct",
        100.0 * (rate(plain) / rate(traced_slice) - 1.0),
        "%",
    );
    report
}

/// One digest per table over a sweep's outcomes in canonical op order;
/// a partial sweep digests only the cells it ran.
pub fn sweep_digests(ops: &[Op], outcomes: &[Option<Outcome>]) -> [u64; 4] {
    let mut text = [String::new(), String::new(), String::new(), String::new()];
    for (op, out) in ops.iter().zip(outcomes) {
        if let Some(out) = out {
            text[op.table()].push_str(&format!("{op:?}={out:?}\n"));
        }
    }
    text.map(|t| fnv(&t))
}
