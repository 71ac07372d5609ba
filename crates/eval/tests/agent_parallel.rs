//! Determinism and observability batteries for the parallel agent batch
//! (PR-10 tentpole).
//!
//! 1. **Bit-equivalence** (proptest): with early-exit off, [`agent_batch`]
//!    at workers 1, 2, and 8 is bit-identical — `f64::to_bits` included —
//!    to the sequential reference [`agent_batch_sequential`], across
//!    random problems, levels, k, round budgets, and RAG on/off.
//! 2. **Early-exit invariance**: with early-exit on, the *committed*
//!    outcome (winner, its chains prefix, canonical cancelled suffix) is
//!    identical for any worker count and equal to the sequential
//!    reference.
//! 3. **Span ↔ outcome reconciliation**: one trace file plus the counter
//!    registry reconcile exactly with the returned [`AgentBatchOutcome`]
//!    (rounds, chains, winner). The recorder is process-global, so every
//!    test in this binary holds `OBS_LOCK`: a batch running beside the
//!    reconcile test would otherwise land in its counters.

use dda_benchmarks::thakur_suite;
use dda_eval::rag::RagIndex;
use dda_eval::{
    agent_batch, agent_batch_sequential, AgentBatchOptions, AgentBatchOutcome, AgentProtocol,
    ModelId, ModelZoo, ZooOptions,
};
use dda_slm::Slm;
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, OnceLock};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes a test against every other test in this binary.
fn serial() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Serializes recorder access and hands back a clean, enabled recorder.
fn recorder() -> MutexGuard<'static, ()> {
    let guard = serial();
    dda_obs::reset();
    dda_obs::enable();
    guard
}

/// One shared model: finetuning is the expensive part of these tests, so
/// every case reuses the same zoo model (chains reseed per (problem,
/// level, chain), so sharing a model loses no coverage).
fn model() -> &'static Slm {
    static MODEL: OnceLock<ModelZoo> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            ModelZoo::build(&ZooOptions {
                corpus_modules: 24,
                ..ZooOptions::default()
            })
        })
        .model(ModelId::Ours13B)
}

/// A small shared retrieval index for the RAG-on cases.
fn rag() -> &'static RagIndex {
    static RAG: OnceLock<RagIndex> = OnceLock::new();
    RAG.get_or_init(|| {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4242);
        RagIndex::build(dda_corpus::generate_corpus(16, &mut rng))
    })
}

/// Field-by-field equality with `f64::to_bits` on the pass rates — the
/// "bit-identical" in the acceptance criteria, not an epsilon compare.
fn assert_bit_identical(a: &AgentBatchOutcome, b: &AgentBatchOutcome, what: &str) {
    assert_eq!(a.winner, b.winner, "{what}: winner");
    assert_eq!(a.rounds_total, b.rounds_total, "{what}: rounds_total");
    assert_eq!(a.quarantined, b.quarantined, "{what}: quarantined");
    assert_eq!(a.chains.len(), b.chains.len(), "{what}: chain count");
    for (ca, cb) in a.chains.iter().zip(&b.chains) {
        assert_eq!(ca.chain, cb.chain, "{what}: chain id");
        assert_eq!(ca.rounds, cb.rounds, "{what}: chain {} rounds", ca.chain);
        assert_eq!(
            ca.lint_clean, cb.lint_clean,
            "{what}: chain {} lint",
            ca.chain
        );
        assert_eq!(
            ca.function.to_bits(),
            cb.function.to_bits(),
            "{what}: chain {} function bits",
            ca.chain
        );
        assert_eq!(
            ca.repaired_by_loop, cb.repaired_by_loop,
            "{what}: chain {} repaired",
            ca.chain
        );
        assert_eq!(
            ca.cancelled, cb.cancelled,
            "{what}: chain {} cancelled",
            ca.chain
        );
    }
}

fn opts(k: usize, rounds: usize, workers: usize, early_exit: bool) -> AgentBatchOptions {
    AgentBatchOptions {
        k,
        workers,
        early_exit,
        protocol: AgentProtocol {
            max_feedback_iters: rounds,
            ..AgentProtocol::default()
        },
        ..AgentBatchOptions::default()
    }
}

proptest! {
    /// The acceptance-criteria property: early-exit-off parallel runs at
    /// workers 1/2/8 are bit-identical to the sequential reference.
    #[test]
    fn early_exit_off_is_bit_identical_across_worker_counts(
        pi in 0usize..8,
        level in 0usize..3,
        k in 1usize..=4,
        rounds in 0usize..=2,
        seed in 0u64..1000,
        use_rag in any::<bool>(),
    ) {
        let _g = serial();
        let suite = thakur_suite();
        let problem = &suite[pi % suite.len()];
        let mut o = opts(k, rounds, 1, false);
        o.protocol.seed = 7331 ^ seed;
        let context = if use_rag {
            rag().context_for(&problem.prompts[level], 2)
        } else {
            Vec::new()
        };
        let reference = agent_batch_sequential(model(), problem, level, &context, &o);
        for workers in [1usize, 2, 8] {
            o.workers = workers;
            let got = agent_batch(model(), problem, level, &context, &o);
            assert_bit_identical(&got, &reference, &format!("workers={workers}"));
        }
    }
}

/// With early-exit on, the committed outcome is worker-count-invariant:
/// the winner and its prefix are deterministic, every chain above the
/// winner reports the canonical cancelled shape, regardless of how much
/// speculative work each worker count happened to do.
#[test]
fn early_exit_commit_is_worker_invariant() {
    let _g = serial();
    let suite = thakur_suite();
    for (pi, level) in [(0usize, 2usize), (3, 1), (5, 2), (11, 0)] {
        let problem = &suite[pi];
        let o1 = opts(4, 2, 1, true);
        let reference = agent_batch_sequential(model(), problem, level, &[], &o1);
        for workers in [1usize, 2, 8] {
            let mut o = o1.clone();
            o.workers = workers;
            let got = agent_batch(model(), problem, level, &[], &o);
            assert_bit_identical(
                &got,
                &reference,
                &format!("early-exit p={pi} workers={workers}"),
            );
        }
        if let Some(w) = reference.winner {
            for c in &reference.chains[w + 1..] {
                assert!(c.cancelled, "chains above the winner are cancelled");
                assert_eq!(c.rounds, 0, "cancelled chains report canonical shape");
            }
        }
    }
}

/// One trace file reconciles an entire agent run: counters and trace
/// events must agree exactly with the returned outcome.
#[test]
fn spans_and_counters_reconcile_with_outcome() {
    let _g = recorder();
    let trace = std::env::temp_dir().join(format!("agent_recon_{}.jsonl", std::process::id()));
    dda_obs::open_trace(&trace).expect("open trace");

    let suite = thakur_suite();
    let problem = &suite[1];
    let o = opts(3, 2, 2, false);
    let out = agent_batch(model(), problem, 2, &[], &o);

    let snap = dda_obs::snapshot();
    dda_obs::close_trace().expect("close trace");
    dda_obs::disable();

    // Counters ↔ outcome. Early-exit is off, so every chain committed:
    // started = k, passed + failed = k, cancelled = 0, and the round
    // counter is exactly the outcome's deterministic work measure.
    let k = o.k as u64;
    assert_eq!(snap.counter("agent.chain.started"), k);
    assert_eq!(
        snap.counter("agent.chain.passed") + snap.counter("agent.chain.failed"),
        k
    );
    assert_eq!(snap.counter("agent.chain.cancelled"), 0);
    assert_eq!(snap.counter("agent.round"), out.rounds_total as u64);

    // Span aggregates ↔ outcome: one agent.batch span, k agent.chain
    // spans, rounds_total agent.round spans.
    assert_eq!(snap.span("agent.batch").expect("batch span").count, 1);
    assert_eq!(snap.span("agent.chain").expect("chain span").count, k);
    assert_eq!(
        snap.span("agent.round").expect("round span").count,
        out.rounds_total as u64
    );

    // Trace events ↔ outcome.
    let events = dda_obs::read_trace(&trace).expect("read trace");
    let rounds: Vec<_> = events.iter().filter(|e| e.kind == "agent.round").collect();
    let chains: Vec<_> = events.iter().filter(|e| e.kind == "agent.chain").collect();
    let batches: Vec<_> = events.iter().filter(|e| e.kind == "agent.batch").collect();
    assert_eq!(rounds.len(), out.rounds_total, "one event per round");
    assert_eq!(chains.len(), out.chains.len(), "one event per chain");
    assert_eq!(batches.len(), 1, "one event per batch");

    for c in &out.chains {
        let ev = chains
            .iter()
            .find(|e| e.field("chain").and_then(|v| v.as_u64()) == Some(c.chain as u64))
            .expect("chain event present");
        assert_eq!(
            ev.field("rounds").and_then(|v| v.as_u64()),
            Some(c.rounds as u64),
            "chain {} rounds in trace",
            c.chain
        );
        let per_chain_rounds = rounds
            .iter()
            .filter(|e| e.field("chain").and_then(|v| v.as_u64()) == Some(c.chain as u64))
            .count();
        assert_eq!(per_chain_rounds, c.rounds, "chain {} round events", c.chain);
    }

    let batch = batches[0];
    assert_eq!(batch.field("k").and_then(|v| v.as_u64()), Some(k));
    assert_eq!(
        batch.field("rounds_total").and_then(|v| v.as_u64()),
        Some(out.rounds_total as u64)
    );
    assert_eq!(
        batch.field("winner").and_then(|v| v.as_u64()),
        out.winner.map(|w| w as u64)
    );

    let _ = std::fs::remove_file(&trace);
}
