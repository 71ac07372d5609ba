//! Verilog-generation evaluation (the paper's Table 5 protocol).
//!
//! For each benchmark problem and prompt level, sample `k` generations at
//! temperature 0.1, lint each for syntax, and run the problem's
//! self-checking testbench on the syntactically clean ones. A cell reports
//! the number of syntax-failing samples and the best functional pass rate;
//! a problem is *successful* when any level's best sample passes 100% of
//! its testbench checks.
//!
//! At temperature 0.1 the `k` samples of a cell often repeat. Linting and
//! simulation are deterministic, so a cell lints each distinct sample once
//! and runs the testbench once per distinct clean sample; the best rate
//! over distinct sources equals the best rate over all copies (DESIGN.md
//! §5o).

use crate::fnv1a;
use dda_benchmarks::{parse_result, VerilogProblem};
use dda_core::align::ALIGN_INSTRUCT;
use dda_runtime::CancelToken;
use dda_sim::cache::{shared_design, FrontendError};
use dda_sim::{SimOptions, Simulator};
use dda_slm::{GenOptions, Slm};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

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

/// Protocol options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenProtocol {
    /// Samples per cell (the paper uses pass@5).
    pub k: usize,
    /// Sampling temperature (the paper uses 0.1).
    pub temperature: f64,
    /// Base seed; sample `i` of cell `c` uses a derived seed.
    pub seed: u64,
}

impl Default for GenProtocol {
    fn default() -> Self {
        GenProtocol {
            k: 5,
            temperature: 0.1,
            seed: 99,
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

    /// The verdict's wire and trace label: `scored`, `parse_error`,
    /// `elab_error`, `timeout` or `crash`.
    pub fn kind(&self) -> &'static str {
        match self {
            TestbenchVerdict::Scored(_) => "scored",
            TestbenchVerdict::ParseError(_) => "parse_error",
            TestbenchVerdict::ElabError(_) => "elab_error",
            TestbenchVerdict::Timeout(_) => "timeout",
            TestbenchVerdict::Crash(_) => "crash",
        }
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
/// sweeps use this to thread a deadline-bearing
/// [`CancelToken`] into the simulator's exec loop.
pub fn run_testbench_verdict_with(
    problem: &VerilogProblem,
    generated: &str,
    opts: &SimOptions,
) -> TestbenchVerdict {
    run_testbench_source(generated, problem.testbench, "tb", opts)
}

/// Simulates `source` followed by `testbench`, with `top` as the top
/// module, and reports the testbench's [`TestbenchVerdict`]. Suite
/// problems and the daemon's inline testbenches both score through here.
/// A panic inside the simulator is caught and surfaced as
/// [`TestbenchVerdict::Crash`] carrying the panic message.
pub fn run_testbench_source(
    source: &str,
    testbench: &str,
    top: &str,
    opts: &SimOptions,
) -> TestbenchVerdict {
    let src = format!("{source}\n{testbench}");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<TestbenchVerdict, TestbenchVerdict> {
            // The frontend result is memoized per thread: re-scoring the
            // same candidate (pass@k, repair loops) reuses the elaborated
            // design and its compiled bytecode instead of re-parsing.
            let design = shared_design(&src, top).map_err(|e| match e {
                FrontendError::Parse(m) => TestbenchVerdict::ParseError(m),
                FrontendError::Elab(e) => TestbenchVerdict::ElabError(e.message),
            })?;
            let result = Simulator::from_design(design)
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

/// Best pass rate over `candidates`, running the testbench once per
/// distinct source. Within one call the testbench and `opts` are fixed and
/// the simulator is deterministic, so a repeated source would get its
/// first copy's verdict; skipping it cannot change the maximum.
pub fn best_rate(problem: &VerilogProblem, candidates: &[&str], opts: &SimOptions) -> f64 {
    let mut seen = HashSet::new();
    candidates
        .iter()
        .filter(|c| seen.insert(**c))
        .map(|c| run_testbench_verdict_with(problem, c, opts).pass_rate())
        .fold(0.0, f64::max)
}

/// Scores the `k` samples of one cell: lints each distinct sample once as
/// `file`, then takes [`best_rate`] over the clean ones. Returns
/// `(syntax_errors, best_function)`, with syntax errors counted per
/// sample, repeats included.
pub(crate) fn score_samples(
    problem: &VerilogProblem,
    samples: &[String],
    file: &str,
    opts: &SimOptions,
) -> (usize, f64) {
    let mut lint_clean: HashMap<&str, bool> = HashMap::new();
    let mut clean: Vec<&str> = Vec::new();
    let mut syntax_errors = 0;
    for sample in samples {
        if *lint_clean
            .entry(sample)
            .or_insert_with(|| dda_lint::check_source(file, sample).is_clean())
        {
            clean.push(sample);
        } else {
            syntax_errors += 1;
        }
    }
    (syntax_errors, best_rate(problem, &clean, opts))
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
pub(crate) fn eval_cell_with(
    model: &Slm,
    problem: &VerilogProblem,
    level: usize,
    protocol: &GenProtocol,
    cancel: &CancelToken,
) -> GenCell {
    let samples = cell_samples(model, problem, level, protocol);
    let sim_opts = testbench_sim_options(cancel);
    let (syntax_errors, best_function) = score_samples(problem, &samples, "gen.v", &sim_opts);
    GenCell {
        syntax_errors,
        best_function,
    }
}

/// The `k` raw samples of one (problem, level) cell in sample order: the
/// generations [`eval_cell`] lints and scores.
pub fn cell_samples(
    model: &Slm,
    problem: &VerilogProblem,
    level: usize,
    protocol: &GenProtocol,
) -> Vec<String> {
    let opts = GenOptions {
        temperature: protocol.temperature,
    };
    // One plan for the k samples: retrieval and interface fits run once.
    let plan = model.prompt(ALIGN_INSTRUCT, &problem.prompts[level], &[]);
    (0..protocol.k)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(
                protocol
                    .seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((level as u64) << 32)
                    .wrapping_add(fnv1a(problem.id.bytes()))
                    .wrapping_add(fnv1a(model.profile().name.bytes()))
                    .wrapping_add(i as u64),
            );
            plan.generate(&opts, &mut rng)
        })
        .collect()
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
    fn best_rate_scores_each_distinct_source_once() {
        let p = &thakur_suite()[0];
        let constant = "module simple_wire(input in, output out);\nassign out = 1'b0;\nendmodule\n";
        let opts = testbench_sim_options(&CancelToken::new());
        let clean = [constant, p.reference, constant, constant, p.reference];
        assert!((best_rate(p, &clean, &opts) - 1.0).abs() < 1e-9);
        assert!((best_rate(p, &[constant, constant], &opts) - 0.5).abs() < 1e-9);
        assert_eq!(best_rate(p, &[], &opts), 0.0);
    }
}
