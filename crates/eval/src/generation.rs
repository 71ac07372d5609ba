//! Verilog-generation evaluation (the paper's Table 5 protocol).
//!
//! For each benchmark problem and prompt level, sample `k` generations at
//! temperature 0.1, lint each for syntax, and run the problem's
//! self-checking testbench on the syntactically clean ones. A cell reports
//! the number of syntax-failing samples and the best functional pass rate;
//! a problem is *successful* when any level's best sample passes 100% of
//! its testbench checks.

use dda_benchmarks::{parse_result, VerilogProblem};
use dda_core::align::ALIGN_INSTRUCT;
use dda_runtime::CancelToken;
use dda_sim::cache::{shared_design, FrontendError};
use dda_sim::{run_batch, EvalMode, SimOptions, Simulator, MAX_BATCH_LANES};
use dda_slm::{GenOptions, Slm};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One (problem, level) cell of Table 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenCell {
    /// Samples (of `k`) rejected by the syntax checker.
    pub syntax_errors: usize,
    /// Best functional pass rate across the k samples, in `[0, 1]`.
    pub best_function: f64,
}

impl GenCell {
    /// Whether the best sample fully passed the testbench.
    pub fn is_success(&self) -> bool {
        self.best_function >= 1.0 - 1e-9
    }
}

/// Per-problem result: one cell per prompt level.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRow {
    /// Problem id (table row label).
    pub id: &'static str,
    /// Cells in prompt-level order.
    pub cells: Vec<GenCell>,
}

impl GenRow {
    /// Success = any level reached a 100% functional pass.
    pub fn is_success(&self) -> bool {
        self.cells.iter().any(GenCell::is_success)
    }
}

/// Protocol options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenProtocol {
    /// Samples per cell (the paper uses pass@5).
    pub k: usize,
    /// Sampling temperature (the paper uses 0.1).
    pub temperature: f64,
    /// Base seed; sample `i` of cell `c` uses a derived seed.
    pub seed: u64,
    /// Simulator execution engine (bytecode by default; `Ast` reproduces
    /// the reference interpreter for differential runs).
    pub eval_mode: EvalMode,
    /// Simulation lanes per batched testbench run (`--runs-per-batch R`).
    /// At 1 (the default) every sample scores through the sequential
    /// scalar path. Above 1, identical candidate sources are scored `R`
    /// at a time through [`dda_sim::run_batch`]; lane results are
    /// bit-identical to the sequential path, so cells never change.
    pub runs_per_batch: usize,
}

impl Default for GenProtocol {
    fn default() -> Self {
        GenProtocol {
            k: 5,
            temperature: 0.1,
            seed: 99,
            eval_mode: EvalMode::default(),
            runs_per_batch: 1,
        }
    }
}

/// Outcome of one testbench run, distinguishing every failure mode on the
/// untrusted-input path instead of lumping them into a zero score.
#[derive(Debug, Clone, PartialEq)]
pub enum TestbenchVerdict {
    /// Simulation completed; the fraction of testbench checks that passed.
    Scored(f64),
    /// The generated module plus testbench failed to parse.
    ParseError(String),
    /// Elaboration rejected the design (bad hierarchy, width limits, ...).
    ElabError(String),
    /// Simulation exhausted a resource budget: the delta limit, the
    /// statement budget, or — when the run's [`SimOptions::cancel`] token
    /// carries a deadline — the *wall-clock* ceiling. The message records
    /// which budget tripped ([`dda_sim::RunErrorKind`] distinguishes them
    /// for callers holding the raw error).
    Timeout(String),
    /// The simulator panicked; the panic was caught and isolated.
    Crash(String),
}

impl TestbenchVerdict {
    /// Functional pass rate: the score when simulation completed, zero for
    /// every failure verdict (the paper's scoring).
    pub fn pass_rate(&self) -> f64 {
        match self {
            TestbenchVerdict::Scored(r) => *r,
            _ => 0.0,
        }
    }

    /// Whether this run hit a resource budget rather than failing outright.
    pub fn is_timeout(&self) -> bool {
        matches!(self, TestbenchVerdict::Timeout(_))
    }

    /// Whether this run crashed the simulator (caught panic).
    pub fn is_crash(&self) -> bool {
        matches!(self, TestbenchVerdict::Crash(_))
    }
}

/// The standard simulator budget for one testbench run, with the given
/// cancel token threaded in for wall-clock supervision.
pub fn testbench_sim_options(cancel: &CancelToken) -> SimOptions {
    SimOptions {
        max_time: 100_000,
        max_steps: 2_000_000,
        cancel: cancel.clone(),
        ..SimOptions::default()
    }
}

/// Runs a generated module against the problem's testbench and reports a
/// full [`TestbenchVerdict`]. Panics inside the simulator are caught and
/// surfaced as [`TestbenchVerdict::Crash`] so one bad sample cannot take
/// down an evaluation sweep.
pub fn run_testbench_verdict(problem: &VerilogProblem, generated: &str) -> TestbenchVerdict {
    run_testbench_verdict_with(
        problem,
        generated,
        &testbench_sim_options(&CancelToken::new()),
    )
}

/// [`run_testbench_verdict`] with caller-supplied [`SimOptions`] — the
/// supervised sweeps use this to thread a deadline-bearing
/// [`CancelToken`] into the simulator's exec loop.
pub fn run_testbench_verdict_with(
    problem: &VerilogProblem,
    generated: &str,
    opts: &SimOptions,
) -> TestbenchVerdict {
    let src = format!("{generated}\n{}", problem.testbench);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<TestbenchVerdict, TestbenchVerdict> {
            // The frontend result is memoized per thread: re-scoring the
            // same candidate (pass@k, repair loops) reuses the elaborated
            // design and its compiled bytecode instead of re-parsing.
            let design = shared_design(&src, "tb").map_err(|e| match e {
                FrontendError::Parse(m) => TestbenchVerdict::ParseError(m),
                FrontendError::Elab(e) => TestbenchVerdict::ElabError(e.message),
            })?;
            let mut sim = Simulator::from_design(design);
            let result = sim
                .run(opts)
                .map_err(|e| TestbenchVerdict::Timeout(e.to_string()))?;
            Ok(match parse_result(&result.output) {
                Some((pass, total)) if total > 0 => {
                    TestbenchVerdict::Scored(pass as f64 / total as f64)
                }
                _ => TestbenchVerdict::Scored(0.0),
            })
        },
    ));
    match outcome {
        Ok(Ok(v)) | Ok(Err(v)) => v,
        Err(payload) => TestbenchVerdict::Crash(panic_message(&payload)),
    }
}

/// Scores `runs` copies of the same `generated` candidate against the
/// problem's testbench in one batched simulation ([`run_batch`] lanes),
/// returning one verdict per lane.
///
/// Lanes are unseeded, so each shares the scalar engine's default
/// `$random` stream and the verdicts are bit-identical to `runs`
/// sequential [`run_testbench_verdict_with`] calls. Identical lanes stay
/// on the batch engine's uniform fast path, which is where the pass@k
/// sweep's ~R× throughput gain comes from. Frontend failures and caught
/// panics replicate across all lanes (one bad candidate fails the same
/// way however many times it is scored).
pub fn run_testbench_verdicts_batched(
    problem: &VerilogProblem,
    generated: &str,
    runs: usize,
    opts: &SimOptions,
) -> Vec<TestbenchVerdict> {
    let src = format!("{generated}\n{}", problem.testbench);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<Vec<TestbenchVerdict>, TestbenchVerdict> {
            let design = shared_design(&src, "tb").map_err(|e| match e {
                FrontendError::Parse(m) => TestbenchVerdict::ParseError(m),
                FrontendError::Elab(e) => TestbenchVerdict::ElabError(e.message),
            })?;
            let seeds = vec![None; runs];
            Ok(run_batch(&design, &seeds, opts)
                .into_iter()
                .map(|lane| match lane {
                    Ok(result) => match parse_result(&result.output) {
                        Some((pass, total)) if total > 0 => {
                            TestbenchVerdict::Scored(pass as f64 / total as f64)
                        }
                        _ => TestbenchVerdict::Scored(0.0),
                    },
                    Err(e) => TestbenchVerdict::Timeout(e.to_string()),
                })
                .collect())
        },
    ));
    match outcome {
        Ok(Ok(v)) => v,
        Ok(Err(v)) => vec![v; runs],
        Err(payload) => vec![TestbenchVerdict::Crash(panic_message(&payload)); runs],
    }
}

/// Best pass rate over a set of lint-clean candidates, scored `R` lanes
/// at a time when the protocol asks for batching. Shared by the
/// generation and repair sweeps; the `runs_per_batch == 1` path is the
/// original sequential loop, untouched.
pub(crate) fn best_rate_batched(
    problem: &VerilogProblem,
    clean: &[String],
    runs_per_batch: usize,
    opts: &SimOptions,
) -> f64 {
    let mut best: f64 = 0.0;
    if runs_per_batch <= 1 {
        for out in clean {
            let rate = run_testbench_verdict_with(problem, out, opts).pass_rate();
            if rate > best {
                best = rate;
            }
        }
        return best;
    }
    // Group identical candidates (pass@k at low temperature repeats
    // sources often) and score each group's copies R lanes per batch.
    // The simulator is deterministic, so copy-counts cannot change the
    // max — but every copy still runs, keeping verdict totals and obs
    // counters faithful to the sequential protocol.
    let r = runs_per_batch.min(MAX_BATCH_LANES);
    let mut groups: Vec<(&str, usize)> = Vec::new();
    for out in clean {
        match groups.iter_mut().find(|(src, _)| *src == out.as_str()) {
            Some((_, n)) => *n += 1,
            None => groups.push((out.as_str(), 1)),
        }
    }
    for (src, mut remaining) in groups {
        while remaining > 0 {
            let lanes = remaining.min(r);
            for v in run_testbench_verdicts_batched(problem, src, lanes, opts) {
                let rate = v.pass_rate();
                if rate > best {
                    best = rate;
                }
            }
            remaining -= lanes;
        }
    }
    best
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs a generated module against the problem's testbench; returns the
/// functional pass rate in `[0, 1]` (every failure verdict scores zero).
pub fn run_testbench(problem: &VerilogProblem, generated: &str) -> f64 {
    run_testbench_verdict(problem, generated).pass_rate()
}

/// Evaluates one (problem, level) cell.
pub fn eval_cell(
    model: &Slm,
    problem: &VerilogProblem,
    level: usize,
    protocol: &GenProtocol,
) -> GenCell {
    eval_cell_with(model, problem, level, protocol, &CancelToken::new())
}

/// [`eval_cell`] with a supervising [`CancelToken`]: each testbench run
/// inherits the token, so a tripped deadline cuts the simulation short
/// with a wall-timeout verdict instead of hanging the sweep.
pub fn eval_cell_with(
    model: &Slm,
    problem: &VerilogProblem,
    level: usize,
    protocol: &GenProtocol,
    cancel: &CancelToken,
) -> GenCell {
    let prompt = &problem.prompts[level];
    let opts = GenOptions {
        temperature: protocol.temperature,
    };
    // One plan for the k samples: retrieval and interface fits run once.
    let plan = model.prompt(ALIGN_INSTRUCT, prompt, &[]);
    let mut syntax_errors = 0;
    let mut clean: Vec<String> = Vec::new();
    for i in 0..protocol.k {
        let mut rng = SmallRng::seed_from_u64(
            protocol
                .seed
                .wrapping_mul(1_000_003)
                .wrapping_add((level as u64) << 32)
                .wrapping_add(hash_id(problem.id))
                .wrapping_add(hash_id(&model.profile().name))
                .wrapping_add(i as u64),
        );
        let out = plan.generate(&opts, &mut rng);
        let report = dda_lint::check_source("gen.v", &out);
        if !report.is_clean() {
            syntax_errors += 1;
            continue;
        }
        clean.push(out);
    }
    let mut sim_opts = testbench_sim_options(cancel);
    sim_opts.eval_mode = protocol.eval_mode;
    let best_function = best_rate_batched(problem, &clean, protocol.runs_per_batch, &sim_opts);
    GenCell {
        syntax_errors,
        best_function,
    }
}

fn hash_id(id: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Evaluates a model over a whole suite.
pub fn eval_suite(model: &Slm, problems: &[VerilogProblem], protocol: &GenProtocol) -> Vec<GenRow> {
    problems
        .iter()
        .map(|p| GenRow {
            id: p.id,
            cells: (0..p.prompts.len())
                .map(|l| eval_cell(model, p, l, protocol))
                .collect(),
        })
        .collect()
}

/// Fraction of rows that succeeded.
pub fn success_rate(rows: &[GenRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().filter(|r| r.is_success()).count() as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_benchmarks::thakur_suite;

    #[test]
    fn reference_implementations_score_100() {
        for p in thakur_suite().into_iter().take(4) {
            let rate = run_testbench(&p, p.reference);
            assert!((rate - 1.0).abs() < 1e-9, "{}: {rate}", p.id);
        }
    }

    #[test]
    fn garbage_scores_zero() {
        let p = &thakur_suite()[0];
        assert_eq!(run_testbench(p, "module garbage(; endmodule"), 0.0);
        assert_eq!(
            run_testbench(p, "module wrong_name(input x); endmodule"),
            0.0
        );
    }

    #[test]
    fn wrong_behaviour_scores_partial() {
        // An inverted wire fails both checks; a constant-0 wire passes one.
        let p = &thakur_suite()[0];
        let constant = "module simple_wire(input in, output out);\nassign out = 1'b0;\nendmodule\n";
        let rate = run_testbench(p, constant);
        assert!((rate - 0.5).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn verdicts_distinguish_failure_modes() {
        let p = &thakur_suite()[0];
        // Unparseable sample.
        let v = run_testbench_verdict(p, "module garbage(; endmodule");
        assert!(matches!(v, TestbenchVerdict::ParseError(_)), "{v:?}");
        // Elaboration failure: correct module name, resource-guard trip.
        let huge = "module simple_wire(input in, output out);\n\
                    reg [8388607:0] big;\nassign out = in;\nendmodule\n";
        let v = run_testbench_verdict(p, huge);
        assert!(matches!(v, TestbenchVerdict::ElabError(_)), "{v:?}");
        // Runaway sample: a free-running zero-delay loop exhausts the
        // statement budget — a Timeout, not a zero-score crash.
        let runaway = "module simple_wire(input in, output out);\n\
                       reg r;\nalways r = ~r;\nassign out = in;\nendmodule\n";
        let v = run_testbench_verdict(p, runaway);
        assert!(v.is_timeout(), "{v:?}");
        assert!(!v.is_crash());
        assert_eq!(v.pass_rate(), 0.0);
        // The reference still scores through the verdict path.
        let v = run_testbench_verdict(p, p.reference);
        assert_eq!(v, TestbenchVerdict::Scored(1.0));
    }

    #[test]
    fn batched_scoring_matches_sequential() {
        let p = &thakur_suite()[0];
        let constant = "module simple_wire(input in, output out);\nassign out = 1'b0;\nendmodule\n";
        let opts = testbench_sim_options(&CancelToken::new());
        // Verdict level: every lane equals the sequential verdict.
        for candidate in [p.reference, constant] {
            let seq = run_testbench_verdict_with(p, candidate, &opts);
            let lanes = run_testbench_verdicts_batched(p, candidate, 4, &opts);
            assert_eq!(lanes.len(), 4);
            for v in lanes {
                assert_eq!(v, seq);
            }
        }
        // Frontend failures replicate across all lanes.
        let bad = run_testbench_verdicts_batched(p, "module garbage(; endmodule", 3, &opts);
        assert_eq!(bad.len(), 3);
        assert!(bad
            .iter()
            .all(|v| matches!(v, TestbenchVerdict::ParseError(_))));
        // Cell level: duplicated candidates group and chunk into R-lane
        // batches without changing the best rate.
        let clean: Vec<String> = [
            constant,
            p.reference,
            constant,
            constant,
            p.reference,
            constant,
            constant,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let seq = best_rate_batched(p, &clean, 1, &opts);
        assert!((seq - 1.0).abs() < 1e-9);
        for r in [2, 4, 64, MAX_BATCH_LANES + 9] {
            assert_eq!(best_rate_batched(p, &clean, r, &opts), seq);
        }
        assert_eq!(best_rate_batched(p, &[], 4, &opts), 0.0);
    }

    #[test]
    fn success_rate_counts_full_passes() {
        let rows = vec![
            GenRow {
                id: "a",
                cells: vec![
                    GenCell {
                        syntax_errors: 0,
                        best_function: 1.0,
                    },
                    GenCell {
                        syntax_errors: 5,
                        best_function: 0.0,
                    },
                ],
            },
            GenRow {
                id: "b",
                cells: vec![GenCell {
                    syntax_errors: 0,
                    best_function: 0.9,
                }],
            },
        ];
        assert!((success_rate(&rows) - 0.5).abs() < 1e-9);
    }
}
