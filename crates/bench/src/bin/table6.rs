//! Regenerates the extension **Table 6**: the parallel supervised
//! tool-in-the-loop repair agent (PR 10) — pass@k as a function of the
//! tool-feedback round budget, and the wall-clock cost per fixed
//! problem, sequential vs parallel (8 workers) vs parallel with
//! deterministic early-exit.
//!
//! Usage: `cargo run --release -p dda-bench --bin table6
//! [--quick] [--workers N] [--trace-out PATH] [--metrics]`
//!
//! Every batch is run three ways over the same `(problem, level)` grid:
//! the sequential reference ([`agent_batch_sequential`]), the supervised
//! engine with early-exit off (asserted bit-identical to the reference —
//! the acceptance criterion of DESIGN.md §5k), and the supervised engine
//! with early-exit on (same winner, cancelled speculative suffix). The
//! binary asserts the 8-worker early-exit-off run is at least 2x faster
//! than the sequential reference in aggregate; CI runs `table6 --quick`,
//! so the bar is checked on every change.
//!
//! Timed batches run with [`AgentProtocol::tool_wait`] set to
//! [`TOOL_WAIT`]: each external call in a chain (draft, repair, lint +
//! simulate round) stalls for that long, modeling the subprocess spawns
//! and LLM round-trips that dominate the loop's wall-clock in deployment.
//! Outcomes are stall-invariant (pinned by `tool_wait_never_changes_
//! outcomes`); the stall exists so the table measures what parallelism
//! actually buys an agent — overlapped waits — rather than core count.
//!
//! A per-model block closes the table: for Ours-13B, Ours-7B, GPT-3.5 and
//! pretrained Llama2-13B, one k=1 chain per (problem, level) at round
//! budget 0 (single-shot generation) and at round budget 3 (the Fig. 1
//! tool-feedback loop), over the same grid. A problem counts as solved
//! when any of its levels passes.

use dda_bench::RunFlags;
use dda_benchmarks::{thakur_suite, VerilogProblem};
use dda_eval::report::pct;
use dda_eval::{
    agent_batch, agent_batch_sequential, AgentBatchOptions, AgentBatchOutcome, AgentProtocol,
    ModelId, ModelZoo,
};
use std::time::{Duration, Instant};

/// Modeled per-external-call stall for the timed batches (see the module
/// docs). 2 ms is deliberately conservative — a real `iverilog` spawn or
/// LLM call is orders of magnitude slower.
const TOOL_WAIT: Duration = Duration::from_millis(2);

/// The acceptance criterion, end to end: with early-exit off the engine
/// result must be bit-identical to the sequential reference (including
/// `f64` pass-rate bits).
fn assert_bit_identical(a: &AgentBatchOutcome, b: &AgentBatchOutcome, what: &str) {
    assert_eq!(a.winner, b.winner, "{what}: winner drift");
    assert_eq!(a.rounds_total, b.rounds_total, "{what}: rounds drift");
    assert_eq!(a.chains.len(), b.chains.len(), "{what}: chain count drift");
    for (ca, cb) in a.chains.iter().zip(&b.chains) {
        assert!(
            ca.chain == cb.chain
                && ca.rounds == cb.rounds
                && ca.lint_clean == cb.lint_clean
                && ca.function.to_bits() == cb.function.to_bits()
                && ca.repaired_by_loop == cb.repaired_by_loop
                && ca.cancelled == cb.cancelled,
            "{what}: chain {} drifted",
            ca.chain
        );
    }
}

/// Round budget of the per-model block's tool-feedback loop.
const LOOP_ROUNDS: usize = 3;

/// The per-model block: one k=1 chain per (problem, level) at round
/// budget 0 and at [`LOOP_ROUNDS`], for each model.
fn per_model_block(zoo: &ModelZoo, suite: &[VerilogProblem], levels: &[usize]) {
    println!(
        "\nSingle-shot vs tool loop per model (k=1 chain per problem and level; \
         solved = any level passes)"
    );
    println!(
        "{:<22} {:>12} {:>14} {:>12}",
        "model",
        "single-shot",
        format!("loop ({LOOP_ROUNDS} rds)"),
        "mean rounds"
    );
    for id in [
        ModelId::Ours13B,
        ModelId::Ours7B,
        ModelId::Gpt35,
        ModelId::Llama2Pt,
    ] {
        let opts = |rounds| AgentBatchOptions {
            k: 1,
            protocol: AgentProtocol {
                max_feedback_iters: rounds,
                ..AgentProtocol::default()
            },
            ..AgentBatchOptions::default()
        };
        let (single_opts, loop_opts) = (opts(0), opts(LOOP_ROUNDS));
        let (mut single, mut looped, mut rounds) = (0usize, 0usize, 0usize);
        for problem in suite {
            let (mut s, mut l) = (false, false);
            for &level in levels {
                s |= agent_batch(zoo.model(id), problem, level, &[], &single_opts).passed();
                let out = agent_batch(zoo.model(id), problem, level, &[], &loop_opts);
                l |= out.passed();
                rounds += out.rounds_total;
            }
            single += s as usize;
            looped += l as usize;
        }
        let n = suite.len() as f64;
        println!(
            "{:<22} {:>12} {:>14} {:>12.2}",
            id.label(),
            pct(single as f64 / n),
            pct(looped as f64 / n),
            rounds as f64 / (suite.len() * levels.len()) as f64
        );
    }
}

fn main() {
    let flags = RunFlags::from_args();
    flags.init_obs();
    let zoo = flags.zoo();
    let model = zoo.model(ModelId::Ours13B);
    let suite = thakur_suite();
    // The grid: every problem; all three prompt levels in the full run,
    // the most detailed level only under --quick.
    let levels: &[usize] = if flags.quick { &[2] } else { &[0, 1, 2] };
    let rounds_rows: &[usize] = if flags.quick { &[1, 3] } else { &[0, 1, 2, 3] };
    let workers = if flags.workers > 1 { flags.workers } else { 8 };

    println!(
        "Table 6: parallel tool-in-the-loop agent — pass@5 vs round budget ({}, Thakur suite)",
        ModelId::Ours13B.label()
    );
    println!(
        "Batches: {} problems x {} level(s), k=5; parallel runs use {workers} workers.",
        suite.len(),
        levels.len()
    );
    println!(
        "Modeled external-call stall (tool_wait): {} ms per draft/repair/tool round.",
        TOOL_WAIT.as_millis()
    );
    println!("`ms/fix` is total batch wall-clock divided by problems fixed.\n");
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>9} {:>12} {:>12} {:>10}",
        "rounds", "pass@5", "seq ms", "par ms", "speedup", "ms/fix seq", "ms/fix par", "early ms"
    );

    let mut headline_speedup = f64::NAN;
    for &rounds in rounds_rows {
        let opts = AgentBatchOptions {
            k: 5,
            protocol: AgentProtocol {
                max_feedback_iters: rounds,
                tool_wait: TOOL_WAIT,
                ..AgentProtocol::default()
            },
            ..AgentBatchOptions::default()
        };
        let mut fixed = 0usize;
        let mut batches = 0usize;
        let (mut seq_ms, mut par_ms, mut early_ms) = (0.0f64, 0.0f64, 0.0f64);
        for problem in &suite {
            for &level in levels {
                batches += 1;
                let t = Instant::now();
                let reference = agent_batch_sequential(model, problem, level, &[], &opts);
                seq_ms += t.elapsed().as_secs_f64() * 1e3;

                let par_opts = AgentBatchOptions {
                    workers,
                    ..opts.clone()
                };
                let t = Instant::now();
                let parallel = agent_batch(model, problem, level, &[], &par_opts);
                par_ms += t.elapsed().as_secs_f64() * 1e3;
                assert_bit_identical(
                    &parallel,
                    &reference,
                    &format!("{} level {level} rounds {rounds}", problem.id),
                );

                let early_opts = AgentBatchOptions {
                    early_exit: true,
                    ..par_opts
                };
                let t = Instant::now();
                let early = agent_batch(model, problem, level, &[], &early_opts);
                early_ms += t.elapsed().as_secs_f64() * 1e3;
                assert_eq!(
                    early.winner, reference.winner,
                    "{} level {level}: early-exit changed the winner",
                    problem.id
                );

                if parallel.passed() {
                    fixed += 1;
                }
            }
        }
        let speedup = seq_ms / par_ms;
        headline_speedup = speedup;
        let per_fix = |total: f64| {
            if fixed == 0 {
                f64::NAN
            } else {
                total / fixed as f64
            }
        };
        println!(
            "{:>6} {:>8} {:>10.1} {:>10.1} {:>8.2}x {:>12.2} {:>12.2} {:>10.1}",
            rounds,
            pct(fixed as f64 / batches as f64),
            seq_ms,
            par_ms,
            speedup,
            per_fix(seq_ms),
            per_fix(par_ms),
            early_ms,
        );
    }

    println!("\nEvery parallel batch above was asserted bit-identical to its sequential");
    println!("reference (early-exit off) and winner-identical with early-exit on —");
    println!("parallelism and speculative cancellation change wall-clock only.");
    per_model_block(&zoo, &suite, levels);
    println!();
    assert!(
        headline_speedup >= 2.0,
        "parallel agent only {headline_speedup:.2}x the sequential reference at \
         {workers} workers (largest round budget) — below the 2x bar"
    );
    println!("[table6] speedup_at_{workers}_workers: {headline_speedup:.2} (bar: >= 2.0)");
    flags.finish_obs();
}
