//! The EDA-tool agent loop of the paper's Fig. 1.
//!
//! The paper motivates a chip-design LLM that "works like a human
//! programmer by interacting with EDA tool feedback to remodify the
//! Verilog": generate, run the checker, feed the diagnostics back through
//! the repair pathway, and retry. This module implements that loop once,
//! as the pass@k **chain** batch: each of `k` independent chains runs the
//! full generate → lint → simulate → feed-diagnostics → repair loop.
//! [`agent_batch`] runs the chains as units on the `dda-runtime`
//! supervised engine (per-chain wall-clock deadlines, seeded retries),
//! optionally early-exiting as soon as the lowest-indexed passing chain
//! commits; [`agent_batch_sequential`] runs them in index order on the
//! calling thread and is the reference the engine is held to. A k = 1
//! batch at round budget 0 is single-shot generation, so one batch at
//! budget 0 and at budget N measures what the loop buys.
//!
//! Determinism contract: with early-exit off, [`agent_batch`] is
//! bit-identical to [`agent_batch_sequential`] for any worker count —
//! every chain derives its RNG from `(seed, problem, level, model,
//! chain)` and shares no mutable state. The chains of a batch draft and
//! redraft from one shared [`Prompt`] plan (DESIGN.md §5l); its lazily
//! filled fields are functions of the prompt alone, so which chain fills
//! them first cannot change a sample. With early-exit on, the batch
//! commits the *lowest-indexed* passing chain: chains below it always run
//! to completion (they could win), only chains above it are cancelled, so
//! the reported outcome is still worker-count-invariant even though
//! wall-clock and speculative work are not. DESIGN.md §5k spells out the
//! argument; `tests/agent_parallel.rs` pins it with proptest.
//!
//! The chains of one batch share one score memo: each distinct candidate
//! source is linted once and simulated once per batch, whichever chain
//! meets it first (DESIGN.md §5o). Lint and simulation are deterministic,
//! so the memo changes no outcome; a verdict computed under a tripped
//! [`CancelToken`] came from the clock and is never stored.
//!
//! [`AgentProtocol::tool_wait`] makes the external-call stalls of the
//! deployed setting (EDA-tool subprocess spawns, LLM API round-trips)
//! explicit in the in-process simulation: chains sleep through each
//! modeled call, outcomes never change, and the parallel batch earns its
//! speedup the same way it would in production — by overlapping waits.

use crate::fnv1a;
use crate::generation::{run_testbench_verdict_with, testbench_sim_options, TestbenchVerdict};
use dda_benchmarks::VerilogProblem;
use dda_core::align::ALIGN_INSTRUCT;
use dda_core::repair::REPAIR_INSTRUCT;
use dda_lint::LintReport;
use dda_runtime::{run_supervised, CancelToken, RetryPolicy, RunOptions, UnitOutcome};
use dda_sim::SimOptions;
use dda_slm::{GenOptions, Prompt, Slm};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Functional pass threshold shared by every agent scorer.
const PASS_THRESHOLD: f64 = 1.0 - 1e-9;

/// Agent configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentProtocol {
    /// Maximum tool-feedback iterations after the first draft.
    pub max_feedback_iters: usize,
    /// Sampling temperature.
    pub temperature: f64,
    /// Seed.
    pub seed: u64,
    /// Modeled wall-clock stall per external call in a chain — the LLM
    /// round-trip for each draft/repair and the EDA-tool invocation for
    /// each lint+simulate round. Zero (the default) adds nothing. In the
    /// deployed setting these calls dominate wall-clock (subprocess spawn
    /// plus API latency), and overlapping them is what the parallel batch
    /// buys; the in-process simulation makes that stall explicit so the
    /// benchmarks measure the same shape. A nonzero wait never changes an
    /// outcome — chains sleep, they do not reschedule.
    pub tool_wait: Duration,
}

impl Default for AgentProtocol {
    fn default() -> Self {
        AgentProtocol {
            max_feedback_iters: 3,
            temperature: 0.1,
            seed: 7331,
            tool_wait: Duration::ZERO,
        }
    }
}

/// Options for one pass@k agent batch ([`agent_batch`] and its
/// sequential reference [`agent_batch_sequential`]).
#[derive(Debug, Clone)]
pub struct AgentBatchOptions {
    /// Candidate chains in the batch (the k of pass@k).
    pub k: usize,
    /// Per-chain protocol: round budget, temperature, seed.
    pub protocol: AgentProtocol,
    /// Worker threads for the parallel batch (ignored by the sequential
    /// reference; clamped to at least 1).
    pub workers: usize,
    /// Commit the lowest-indexed passing chain as soon as it is known and
    /// cancel every chain above it. Off = run all chains to completion
    /// (the bit-equivalence mode).
    pub early_exit: bool,
    /// Wall-clock deadline per chain attempt (`None` = unbounded). A
    /// chain that blows its deadline books as cancelled.
    pub chain_deadline: Option<Duration>,
    /// Retry budget for chains (chains are deterministic, so this only
    /// matters under injected faults).
    pub retry: RetryPolicy,
}

impl Default for AgentBatchOptions {
    fn default() -> Self {
        AgentBatchOptions {
            k: 5,
            protocol: AgentProtocol::default(),
            workers: 1,
            early_exit: false,
            chain_deadline: None,
            retry: RetryPolicy::none(),
        }
    }
}

/// Terminal state of one candidate chain in a pass@k batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainOutcome {
    /// Chain index within the batch (0-based; doubles as the sample id in
    /// the chain's RNG seed).
    pub chain: usize,
    /// Tool rounds consumed (1 = the first draft was evaluated once).
    pub rounds: usize,
    /// Whether the final candidate lints clean.
    pub lint_clean: bool,
    /// Functional pass rate of the final candidate.
    pub function: f64,
    /// Whether the repair pathway (not a fresh redraft) produced the
    /// final candidate.
    pub repaired_by_loop: bool,
    /// Whether the chain was cut short — early-exit, deadline, or an
    /// injected fault — instead of running to its own conclusion.
    pub cancelled: bool,
}

impl ChainOutcome {
    /// Whether this chain's final candidate fully passes the testbench.
    pub fn passed(&self) -> bool {
        !self.cancelled && self.lint_clean && self.function >= PASS_THRESHOLD
    }

    /// The canonical cancelled outcome: every cut-short chain reports
    /// this exact shape so batch outputs stay worker-count-invariant.
    fn cancelled_at(chain: usize) -> ChainOutcome {
        ChainOutcome {
            chain,
            rounds: 0,
            lint_clean: false,
            function: 0.0,
            repaired_by_loop: false,
            cancelled: true,
        }
    }
}

/// Result of one pass@k agent batch, in chain order.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentBatchOutcome {
    /// One outcome per chain, ordered by chain index.
    pub chains: Vec<ChainOutcome>,
    /// Lowest-indexed passing chain, when any chain passed.
    pub winner: Option<usize>,
    /// Tool rounds spent by committed (non-cancelled) chains. This is the
    /// deterministic work measure: speculative rounds spent by chains the
    /// early-exit later cancelled are excluded.
    pub rounds_total: usize,
    /// Chains the supervised engine quarantined (deadline expiry or a
    /// caught panic); they book as cancelled in [`chains`](Self::chains).
    pub quarantined: usize,
}

impl AgentBatchOutcome {
    /// Whether any chain fully passed the testbench.
    pub fn passed(&self) -> bool {
        self.winner.is_some()
    }
}

/// Per-chain RNG seed, a function of `(seed, problem, level, model, chain)`.
fn chain_seed(
    protocol: &AgentProtocol,
    model: &Slm,
    problem: &VerilogProblem,
    level: usize,
    chain: usize,
) -> u64 {
    protocol.seed
        ^ fnv1a(problem.id.bytes())
        ^ ((level as u64) << 40)
        ^ fnv1a(model.profile().name.bytes())
        ^ (chain as u64).wrapping_mul(0x9e3779b97f4a7c15)
}

/// Lint reports and testbench verdicts of one agent batch, keyed by the
/// exact candidate source and shared by every chain of the batch. Within a
/// batch the file name, testbench and simulator budgets are fixed, so a
/// source determines its report and, unless the clock cut its run, its
/// verdict. Every update is one insert or one store, so a lock poisoned
/// by a panicking chain still guards valid data and is recovered.
#[derive(Default)]
struct ScoreMemo {
    entries: Mutex<HashMap<String, Arc<MemoEntry>>>,
}

/// One candidate's memo entry. The verdict lock is held while the verdict
/// is computed, so a chain scoring a source a sibling is still simulating
/// waits for that run instead of starting a second one.
#[derive(Default)]
struct MemoEntry {
    lint: OnceLock<LintReport>,
    verdict: Mutex<Option<TestbenchVerdict>>,
}

impl ScoreMemo {
    fn entry(&self, source: &str) -> Arc<MemoEntry> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = entries.get(source) {
            return Arc::clone(e);
        }
        let e = Arc::<MemoEntry>::default();
        entries.insert(source.to_string(), Arc::clone(&e));
        e
    }
}

impl MemoEntry {
    fn lint(&self, file: &str, source: &str) -> &LintReport {
        self.lint
            .get_or_init(|| dda_lint::check_source(file, source))
    }

    /// The source's testbench verdict. One computed while `sim.cancel` is
    /// tripped (chain deadline, early-exit cancel, request deadline) came
    /// from the clock, not the source, so it is returned but not stored.
    fn verdict(
        &self,
        problem: &VerilogProblem,
        source: &str,
        sim: &SimOptions,
    ) -> TestbenchVerdict {
        let mut slot = self.verdict.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = slot.as_ref() {
            return v.clone();
        }
        let v = run_testbench_verdict_with(problem, source, sim);
        if !sim.cancel.is_cancelled() {
            *slot = Some(v.clone());
        }
        v
    }
}

/// Sleeps for the protocol's modeled external-call stall, clipped to the
/// chain's remaining deadline so the watchdog never has to cut a chain
/// mid-sleep. Cancelled chains skip the stall entirely.
fn tool_stall(protocol: &AgentProtocol, cancel: &CancelToken) {
    if protocol.tool_wait.is_zero() || cancel.is_cancelled() {
        return;
    }
    let wait = match cancel.remaining() {
        Some(left) => protocol.tool_wait.min(left),
        None => protocol.tool_wait,
    };
    std::thread::sleep(wait);
}

/// Runs one full candidate chain: draft, then up to
/// `protocol.max_feedback_iters` rounds of lint → simulate → feed the
/// transcript back through the repair pathway. Every round emits an
/// `agent.round` span/counter/trace-event; the chain emits `agent.chain`.
/// `draft` is the batch's shared plan for the problem prompt and `memo`
/// its shared lint and verdict memo.
#[allow(clippy::too_many_arguments)]
fn run_chain(
    model: &Slm,
    problem: &VerilogProblem,
    level: usize,
    chain: usize,
    draft: &Prompt<'_>,
    memo: &ScoreMemo,
    context: &[String],
    opts: &AgentBatchOptions,
    cancel: &CancelToken,
) -> ChainOutcome {
    let chain_span = dda_obs::span("agent.chain");
    dda_obs::count("agent.chain.started", 1);
    let gen = GenOptions {
        temperature: opts.protocol.temperature,
    };
    let mut rng = SmallRng::seed_from_u64(chain_seed(&opts.protocol, model, problem, level, chain));
    let file = format!("{}.v", problem.module_name);
    let sim = testbench_sim_options(cancel);

    let mut candidate = draft.generate(&gen, &mut rng);
    tool_stall(&opts.protocol, cancel);
    let mut repaired_by_loop = false;
    let mut rounds = 0usize;
    let (mut lint_clean, mut function);
    loop {
        if cancel.is_cancelled() {
            dda_obs::count("agent.chain.cancelled", 1);
            return ChainOutcome::cancelled_at(chain);
        }
        rounds += 1;
        dda_fail::fail_point!("eval.agent.round");
        let round_span = dda_obs::span("agent.round");
        dda_obs::count("agent.round", 1);
        tool_stall(&opts.protocol, cancel);
        let scored = memo.entry(&candidate);
        let report = scored.lint(&file, &candidate);
        lint_clean = report.is_clean();
        let verdict = lint_clean.then(|| scored.verdict(problem, &candidate, &sim));
        function = verdict.as_ref().map_or(0.0, TestbenchVerdict::pass_rate);
        if dda_obs::enabled() {
            let mut ev = dda_obs::Event::new("agent.round")
                .str("problem", problem.id)
                .u64("level", level as u64)
                .u64("chain", chain as u64)
                .u64("round", rounds as u64)
                .str("candidate", format!("{:016x}", fnv1a(candidate.bytes())))
                .bool("lint", lint_clean)
                .f64("function", function);
            if let Some(v) = &verdict {
                ev = ev.str("verdict", v.kind());
            }
            dda_obs::emit(ev);
        }
        drop(round_span);
        if (lint_clean && function >= PASS_THRESHOLD) || rounds > opts.protocol.max_feedback_iters {
            break;
        }
        // Fig. 6 layout: the tool transcript plus the rejected file. A
        // lint-clean-but-wrong candidate feeds the simulator's verdict
        // instead of an empty lint report.
        let diagnostic = if lint_clean {
            format!("/{file}: testbench pass rate {function:.4} below 1.0000")
        } else {
            report.render().trim_end().to_string()
        };
        let input = format!("{diagnostic}, {candidate}");
        let fixed = model.generate_with_context(REPAIR_INSTRUCT, &input, context, &gen, &mut rng);
        tool_stall(&opts.protocol, cancel);
        if memo.entry(&fixed).lint(&file, &fixed).is_clean() {
            candidate = fixed;
            repaired_by_loop = true;
        } else {
            // Repair failed: redraft from the prompt with a fresh sample.
            candidate = draft.generate(&gen, &mut rng);
            tool_stall(&opts.protocol, cancel);
            repaired_by_loop = false;
        }
    }
    let out = ChainOutcome {
        chain,
        rounds,
        lint_clean,
        function,
        repaired_by_loop,
        cancelled: false,
    };
    dda_obs::count(
        if out.passed() {
            "agent.chain.passed"
        } else {
            "agent.chain.failed"
        },
        1,
    );
    if dda_obs::enabled() {
        let wall_ms = chain_span
            .finish()
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0);
        dda_obs::emit(
            dda_obs::Event::new("agent.chain")
                .str("problem", problem.id)
                .u64("level", level as u64)
                .u64("chain", chain as u64)
                .u64("rounds", out.rounds as u64)
                .bool("passed", out.passed())
                .f64("wall_ms", wall_ms),
        );
    }
    out
}

/// Canonicalizes raw chain outcomes into the committed batch view:
/// the winner is the lowest-indexed passing chain, and — under early
/// exit — every chain above the winner reports the canonical cancelled
/// outcome whether or not its speculative run happened to finish.
fn assemble(mut chains: Vec<ChainOutcome>, early_exit: bool) -> AgentBatchOutcome {
    let winner = chains.iter().find(|c| c.passed()).map(|c| c.chain);
    if early_exit {
        if let Some(w) = winner {
            for c in chains.iter_mut().skip(w + 1) {
                *c = ChainOutcome::cancelled_at(c.chain);
            }
        }
    }
    let rounds_total = chains
        .iter()
        .filter(|c| !c.cancelled)
        .map(|c| c.rounds)
        .sum();
    AgentBatchOutcome {
        chains,
        winner,
        rounds_total,
        quarantined: 0,
    }
}

fn emit_batch_event(
    problem: &VerilogProblem,
    level: usize,
    opts: &AgentBatchOptions,
    out: &AgentBatchOutcome,
) {
    if !dda_obs::enabled() {
        return;
    }
    let mut ev = dda_obs::Event::new("agent.batch")
        .str("problem", problem.id)
        .u64("level", level as u64)
        .u64("k", opts.k as u64)
        .bool("early_exit", opts.early_exit)
        .bool("passed", out.passed())
        .u64("rounds_total", out.rounds_total as u64);
    if let Some(w) = out.winner {
        ev = ev.u64("winner", w as u64);
    }
    dda_obs::emit(ev);
}

/// The sequential reference for a pass@k chain batch: chains run in
/// index order on the calling thread. With early-exit on, chains after
/// the first pass are never started (they report the canonical cancelled
/// outcome). [`agent_batch`] is bit-identical to this function whenever
/// early-exit is off; the proptest in `tests/agent_parallel.rs` holds it
/// to that.
pub fn agent_batch_sequential(
    model: &Slm,
    problem: &VerilogProblem,
    level: usize,
    context: &[String],
    opts: &AgentBatchOptions,
) -> AgentBatchOutcome {
    let _span = dda_obs::span("agent.batch");
    let never = CancelToken::new();
    let draft = model.prompt(ALIGN_INSTRUCT, &problem.prompts[level], &[]);
    let memo = ScoreMemo::default();
    let mut chains = Vec::with_capacity(opts.k);
    for chain in 0..opts.k {
        if opts.early_exit && chains.iter().any(ChainOutcome::passed) {
            chains.push(ChainOutcome::cancelled_at(chain));
            continue;
        }
        chains.push(run_chain(
            model, problem, level, chain, &draft, &memo, context, opts, &never,
        ));
    }
    let out = assemble(chains, opts.early_exit);
    emit_batch_event(problem, level, opts, &out);
    out
}

/// Runs a pass@k chain batch on the supervised `dda-runtime` engine:
/// each chain is one unit with a per-attempt wall-clock deadline and the
/// batch's retry budget.
///
/// With `early_exit` the batch commits the lowest-indexed passing chain
/// as soon as it is known and cancels every chain above it (chains below
/// it always run to completion — one of them could still win). The
/// committed outcome is therefore deterministic and worker-count
/// invariant in both modes; only wall-clock and the amount of cancelled
/// speculative work vary. See DESIGN.md §5k for the full argument.
///
/// ```
/// use dda_eval::{agent_batch, agent_batch_sequential, AgentBatchOptions};
/// use dda_slm::{Slm, SlmProfile, PROGRESSIVE_ORDER};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let corpus = dda_corpus::generate_corpus(8, &mut rng);
/// let (data, _) = dda_core::pipeline::augment(
///     &corpus,
///     &dda_core::pipeline::PipelineOptions::default(),
///     &mut rng,
/// );
/// let model = Slm::finetune(SlmProfile::llama2(13.0), &data, &PROGRESSIVE_ORDER);
/// let problem = &dda_benchmarks::thakur_suite()[0];
///
/// let opts = AgentBatchOptions { k: 3, workers: 4, ..AgentBatchOptions::default() };
/// let parallel = agent_batch(&model, problem, 2, &[], &opts);
/// let reference = agent_batch_sequential(&model, problem, 2, &[], &opts);
/// assert_eq!(parallel, reference); // bit-identical with early-exit off
/// ```
pub fn agent_batch(
    model: &Slm,
    problem: &VerilogProblem,
    level: usize,
    context: &[String],
    opts: &AgentBatchOptions,
) -> AgentBatchOutcome {
    let _span = dda_obs::span("agent.batch");
    if opts.k == 0 {
        return AgentBatchOutcome {
            chains: Vec::new(),
            winner: None,
            rounds_total: 0,
            quarantined: 0,
        };
    }
    // One draft plan and one score memo for the batch, shared by every
    // worker.
    let draft = model.prompt(ALIGN_INSTRUCT, &problem.prompts[level], &[]);
    let memo = ScoreMemo::default();
    // Lowest-indexed passing chain so far: the early-exit floor.
    let best = AtomicUsize::new(usize::MAX);
    // Cancellation handles for in-flight chains, indexed by chain.
    let inflight: Vec<Mutex<Option<CancelToken>>> = (0..opts.k).map(|_| Mutex::new(None)).collect();
    let run = RunOptions {
        workers: opts.workers,
        unit_deadline: opts.chain_deadline,
        retry: opts.retry,
        ..RunOptions::default()
    };
    let report = run_supervised(opts.k, &run, |chain, token| {
        // Deterministic gate: a lower chain already passed, so this
        // chain can never be committed — skip it entirely.
        if opts.early_exit && best.load(Ordering::Acquire) < chain {
            dda_obs::count("agent.chain.cancelled", 1);
            return Ok(ChainOutcome::cancelled_at(chain));
        }
        // A child of the engine's token: the chain still honors the
        // engine deadline/watchdog, and the early-exit can cancel this
        // one chain without touching its siblings.
        let sib = token.child();
        *inflight[chain].lock().unwrap() = Some(sib.clone());
        let out = run_chain(
            model, problem, level, chain, &draft, &memo, context, opts, &sib,
        );
        *inflight[chain].lock().unwrap() = None;
        if opts.early_exit && out.passed() {
            let mut cur = best.load(Ordering::Acquire);
            while chain < cur {
                match best.compare_exchange(cur, chain, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
            // Cut every in-flight chain above the floor loose. Only
            // chains above a passing index are ever cancelled, so the
            // final winner's prefix always runs to completion.
            let floor = best.load(Ordering::Acquire);
            for slot in inflight.iter().skip(floor + 1) {
                if let Some(t) = slot.lock().unwrap().as_ref() {
                    t.cancel();
                }
            }
        }
        Ok(out)
    });
    let mut quarantined = 0usize;
    let chains = report
        .units
        .into_iter()
        .map(|u| match u.outcome {
            UnitOutcome::Ok(c) => c,
            // Deadline expiry or a caught panic: the canonical cancelled
            // outcome, same as an early-exit cut.
            UnitOutcome::Quarantined { .. } => {
                quarantined += 1;
                ChainOutcome::cancelled_at(u.unit)
            }
        })
        .collect();
    let mut out = assemble(chains, opts.early_exit);
    out.quarantined = quarantined;
    emit_batch_event(problem, level, opts, &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_benchmarks::thakur_suite;
    use dda_core::pipeline::{augment, PipelineOptions};
    use dda_slm::{SlmProfile, PROGRESSIVE_ORDER};

    fn model() -> Slm {
        let mut rng = SmallRng::seed_from_u64(77);
        let corpus = dda_corpus::generate_corpus(64, &mut rng);
        let (ds, _) = augment(&corpus, &PipelineOptions::default(), &mut rng);
        Slm::finetune(
            SlmProfile {
                name: "agent-under-test".into(),
                ..SlmProfile::llama2(13.0)
            },
            &ds,
            &PROGRESSIVE_ORDER,
        )
    }

    /// The chain at round budget 0 is single-shot generation: it drafts
    /// with the same seed and scores the same first draft at every budget,
    /// so a chain that passes at budget 0 passes at every larger budget.
    /// Every chain also stays within its budget, and a lint-dirty final
    /// candidate scores zero.
    #[test]
    fn feedback_rounds_never_lose_a_single_shot_pass() {
        let m = model();
        let suite = thakur_suite();
        let batch = |p, rounds| {
            let opts = AgentBatchOptions {
                k: 3,
                protocol: AgentProtocol {
                    max_feedback_iters: rounds,
                    ..AgentProtocol::default()
                },
                ..AgentBatchOptions::default()
            };
            agent_batch_sequential(&m, p, 2, &[], &opts)
        };
        let mut single_passes = 0;
        for p in suite.iter().take(8) {
            let single = batch(p, 0);
            for rounds in 0..=3 {
                for (s, c) in single.chains.iter().zip(&batch(p, rounds).chains) {
                    assert!((1..=1 + rounds).contains(&c.rounds), "{}: {c:?}", p.id);
                    assert!(c.lint_clean || c.function == 0.0, "{}: {c:?}", p.id);
                    assert!(
                        !s.passed() || c.passed(),
                        "{} {rounds}: {s:?} -> {c:?}",
                        p.id
                    );
                }
            }
            single_passes += single.chains.iter().filter(|c| c.passed()).count();
        }
        assert!(single_passes > 0, "no chain passed single-shot");
    }

    #[test]
    fn tool_wait_never_changes_outcomes() {
        let m = model();
        let suite = thakur_suite();
        let baseline = AgentBatchOptions::default();
        let stalled = AgentBatchOptions {
            protocol: AgentProtocol {
                tool_wait: Duration::from_micros(300),
                ..baseline.protocol
            },
            ..baseline.clone()
        };
        for p in suite.iter().take(3) {
            let a = agent_batch_sequential(&m, p, 2, &[], &baseline);
            let b = agent_batch_sequential(&m, p, 2, &[], &stalled);
            assert_eq!(a, b, "{}: sequential outcome drifted under tool_wait", p.id);
            let c = agent_batch(
                &m,
                p,
                2,
                &[],
                &AgentBatchOptions {
                    workers: 4,
                    ..stalled.clone()
                },
            );
            assert_eq!(a, c, "{}: parallel outcome drifted under tool_wait", p.id);
        }
    }

    #[test]
    fn clock_cut_verdicts_are_not_stored() {
        let dead = CancelToken::new();
        dead.cancel();
        let cut = testbench_sim_options(&dead);
        let live = testbench_sim_options(&CancelToken::new());
        let suite = thakur_suite();
        let p = suite
            .iter()
            .find(|p| run_testbench_verdict_with(p, p.reference, &cut).is_timeout())
            .expect("a reference runs past the first wall-clock poll");
        let memo = ScoreMemo::default();
        let first = memo.entry(p.reference).verdict(p, p.reference, &cut);
        assert!(first.is_timeout(), "{first:?}");
        // A later chain with a live token scores the source itself.
        let later = memo.entry(p.reference).verdict(p, p.reference, &live);
        assert_eq!(later, TestbenchVerdict::Scored(1.0));
        // That verdict came from the source, so it is stored and reused.
        let reused = memo.entry(p.reference).verdict(p, p.reference, &cut);
        assert_eq!(reused, TestbenchVerdict::Scored(1.0));
    }
}
