//! # dda-bench
//!
//! Shared plumbing for the table/figure regeneration binaries
//! (`table1`–`table5`, `fig2`–`fig7`) and the Criterion benches. Each
//! binary regenerates one table or figure of the paper; see DESIGN.md's
//! per-experiment index for the mapping.
//!
//! The crate exports three pieces: the zoo constructors
//! ([`standard_zoo`], [`quick_zoo`], [`zoo_from_args`]), the shared CLI
//! flag parser [`RunFlags`] (workers / resume / eval-mode / observability),
//! and [`log_summary`] for the engine's resume-and-retry counters.
//!
//! ## Example
//!
//! Every table binary's `main` opens and closes with the same bracket:
//!
//! ```
//! use dda_bench::RunFlags;
//!
//! let flags = RunFlags::from_args(); // a doctest has no CLI flags
//! assert!(!flags.supervised());
//! assert_eq!(flags.workers, 1);
//! flags.init_obs(); // no --metrics / --trace-out: the recorder stays off
//! assert!(!dda_obs::enabled());
//! // ... regenerate the table ...
//! flags.finish_obs();
//! ```

#![warn(missing_docs)]

use dda_core::supervised::SupervisedOptions;
use dda_eval::supervised::SweepOptions;
use dda_eval::{EvalMode, ModelZoo, ZooOptions};
use dda_runtime::{EngineSummary, RunOptions};
use std::path::PathBuf;

/// Builds the standard model zoo used by all table binaries (fixed seed so
/// every regeneration is reproducible).
pub fn standard_zoo() -> ModelZoo {
    ModelZoo::build(&ZooOptions::default())
}

/// A smaller zoo for quick smoke runs (`--quick` flag on the binaries).
pub fn quick_zoo() -> ModelZoo {
    ModelZoo::build(&ZooOptions {
        corpus_modules: 48,
        ..ZooOptions::default()
    })
}

/// Returns the zoo selected by CLI args: `--quick` for the small corpus,
/// and `--workers N` also fans model *training* (per-document
/// tokenisation) over N threads. Training is worker-count invariant, so
/// this only changes build wall-clock, never a table cell.
pub fn zoo_from_args() -> ModelZoo {
    let workers = RunFlags::from_args().workers;
    let mut opts = ZooOptions::default();
    if std::env::args().any(|a| a == "--quick") {
        opts.corpus_modules = 48;
    }
    opts.train_workers = workers.max(1);
    ModelZoo::build(&opts)
}

/// The shared `--workers N` / `--resume PATH` / `--eval-mode ENGINE` flags
/// of the table binaries.
///
/// With either of the first two flags given the binary routes its sweeps
/// through the `dda-runtime` supervised engine: `--workers N` fans each
/// sweep over N worker threads, `--resume PATH` write-ahead-journals every
/// sweep to `PATH.<label>` and replays completed units from it on the next
/// run. Without both flags the binaries keep their original sequential
/// code paths, so default output stays byte-identical release to release.
///
/// `--eval-mode ast|bytecode` selects the simulator engine used for
/// testbench scoring (bytecode by default; `ast` reproduces the reference
/// interpreter for differential runs). Verdicts and scores are identical
/// across engines — only wall-clock differs. Any other engine name, and
/// the retired `--runs-per-batch`, is a usage error.
///
/// `--trace-out PATH` and `--metrics` turn the `dda-obs` recorder on:
/// the first streams structured JSONL events (plus end-of-run counter
/// totals) to `PATH`, the second prints a metrics summary to stderr when
/// the binary finishes. Without either flag the recorder stays disabled
/// and every instrumentation site costs one relaxed atomic load.
#[derive(Debug, Clone)]
pub struct RunFlags {
    /// Worker threads per sweep (`--workers N`; default 1).
    pub workers: usize,
    /// Journal path stem (`--resume PATH`); one journal per sweep label.
    pub resume: Option<PathBuf>,
    /// Simulator engine (`--eval-mode ast|bytecode`; default bytecode).
    pub eval_mode: EvalMode,
    /// JSONL trace destination (`--trace-out PATH`); enables the recorder.
    pub trace_out: Option<PathBuf>,
    /// Print an end-of-run metrics summary (`--metrics`); enables the
    /// recorder.
    pub metrics: bool,
}

impl RunFlags {
    /// Parses the flags from the process arguments; a usage error is
    /// printed to stderr and exits with status 2.
    pub fn from_args() -> RunFlags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        RunFlags::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses the flags from `args` (the arguments after the program
    /// name). Flags this type does not own are skipped, so each binary
    /// can read its own from the same list.
    ///
    /// # Errors
    ///
    /// A usage message when `--eval-mode` is missing its value or names
    /// an unknown engine, or when the retired `--runs-per-batch` is given.
    pub fn parse(args: &[String]) -> Result<RunFlags, String> {
        if args.iter().any(|a| a == "--runs-per-batch") {
            return Err("--runs-per-batch was removed: each distinct candidate is \
                        simulated once, so repeat lanes add nothing"
                .to_string());
        }
        let after = |flag: &str| args.iter().position(|a| a == flag).map(|i| args.get(i + 1));
        let eval_mode = match after("--eval-mode") {
            None => EvalMode::default(),
            Some(Some(v)) if v == "ast" => EvalMode::Ast,
            Some(Some(v)) if v == "bytecode" => EvalMode::Bytecode,
            Some(v) => {
                return Err(format!(
                    "--eval-mode got {}; accepted values: ast, bytecode",
                    v.map_or("no value".to_string(), |v| format!("`{v}`"))
                ))
            }
        };
        Ok(RunFlags {
            workers: after("--workers")
                .flatten()
                .and_then(|v| v.parse().ok())
                .unwrap_or(1),
            resume: after("--resume").flatten().map(PathBuf::from),
            eval_mode,
            trace_out: after("--trace-out").flatten().map(PathBuf::from),
            metrics: args.iter().any(|a| a == "--metrics"),
        })
    }

    /// Enables the global `dda-obs` recorder when `--trace-out` or
    /// `--metrics` asks for it; call once at the top of `main`.
    ///
    /// # Panics
    ///
    /// Panics when the `--trace-out` file cannot be created.
    pub fn init_obs(&self) {
        if let Some(path) = &self.trace_out {
            dda_obs::open_trace(path).expect("create --trace-out file");
        }
        if self.metrics || self.trace_out.is_some() {
            dda_obs::enable();
        }
    }

    /// Finishes the run's observability: closes the trace file (appending
    /// one `counter` event per live counter) and, under `--metrics`,
    /// prints the [`dda_obs::report`] summary to stderr.
    ///
    /// # Panics
    ///
    /// Panics when the trace file cannot be flushed.
    pub fn finish_obs(&self) {
        if self.trace_out.is_some() {
            dda_obs::close_trace().expect("flush --trace-out file");
            if let Some(path) = &self.trace_out {
                eprintln!("[obs] trace written to {}", path.display());
            }
        }
        if self.metrics {
            eprint!("{}", dda_obs::report::render(&dda_obs::snapshot()));
        }
    }

    /// True when either flag asks for the supervised engine.
    pub fn supervised(&self) -> bool {
        self.workers > 1 || self.resume.is_some()
    }

    /// Engine options shared by every sweep of the binary.
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            workers: self.workers.max(1),
            ..RunOptions::default()
        }
    }

    /// Journal path for the sweep named `label`, if journaling is on.
    /// Labels are slugged (model names contain spaces and dots).
    pub fn journal(&self, label: &str) -> Option<PathBuf> {
        let slug: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        self.resume
            .as_ref()
            .map(|p| PathBuf::from(format!("{}.{slug}", p.display())))
    }

    /// Eval-sweep options for the sweep named `label`.
    pub fn sweep(&self, label: &str) -> SweepOptions {
        SweepOptions {
            run: self.run_options(),
            journal: self.journal(label),
            resume: true,
        }
    }

    /// Augmentation options for the sweep named `label`.
    pub fn augment(&self, label: &str, seed: u64) -> SupervisedOptions {
        SupervisedOptions {
            run: self.run_options(),
            journal: self.journal(label),
            resume: true,
            seed,
        }
    }
}

/// The standard simulator-performance workload: a 128-bit LFSR feeding a
/// three-stage xor/add pipeline, clocked for `cycles` cycles. Every clock
/// edge moves four 128-bit nonblocking updates plus a 128-bit continuous
/// assignment through the scheduler, which is exactly the per-event shape
/// the testbench sweeps spend their time on. Used by the `perf` Criterion
/// bench and the `perfsnap` binary so their numbers are comparable.
pub fn perf_workload(cycles: u64) -> String {
    format!(
        "module tb;\n\
         reg clk = 0;\n\
         reg [127:0] lfsr = 128'd1;\n\
         reg [127:0] acc = 0;\n\
         reg [127:0] s1 = 0, s2 = 0;\n\
         wire [127:0] mixed = (lfsr ^ {{acc[63:0], acc[127:64]}}) + s1;\n\
         always #1 clk = ~clk;\n\
         always @(posedge clk) begin\n\
           lfsr <= {{lfsr[126:0], lfsr[127] ^ lfsr[125] ^ lfsr[100] ^ lfsr[98]}};\n\
           s1 <= lfsr + (acc >> 3);\n\
           s2 <= s1 ^ mixed;\n\
           acc <= acc + s2;\n\
         end\n\
         initial begin #{} $display(\"acc=%h\", acc); $finish; end\n\
         endmodule\n",
        2 * cycles
    )
}

/// Scheduler events per [`perf_workload`] cycle (four nonblocking updates
/// plus the continuous-assignment re-evaluation), for events/sec figures.
pub const PERF_EVENTS_PER_CYCLE: u64 = 5;

/// Logs one sweep's engine summary to stderr, mirroring the binaries'
/// progress lines.
pub fn log_summary(label: &str, s: &EngineSummary) {
    eprintln!(
        "[{label}] engine: {} ok, {} quarantined, {} resumed, {} retries",
        s.ok, s.quarantined, s.resumed, s.retries
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunFlags, String> {
        RunFlags::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn engine_flags_parse() {
        assert_eq!(parse(&[]).unwrap().eval_mode, EvalMode::Bytecode);
        assert_eq!(parse(&["--quick"]).unwrap().eval_mode, EvalMode::Bytecode);
        let f = parse(&["--eval-mode", "ast", "--workers", "3", "--metrics"]).unwrap();
        assert_eq!(f.eval_mode, EvalMode::Ast);
        assert_eq!(f.workers, 3);
        assert!(f.metrics);
        let f = parse(&["--quick", "--eval-mode", "bytecode"]).unwrap();
        assert_eq!(f.eval_mode, EvalMode::Bytecode);
    }

    #[test]
    fn unknown_engines_are_usage_errors() {
        for bad in ["batch", "AST", "bytecod", ""] {
            let err = parse(&["--eval-mode", bad]).unwrap_err();
            assert!(err.contains("ast, bytecode"), "{bad}: {err}");
        }
        let err = parse(&["--quick", "--eval-mode"]).unwrap_err();
        assert!(err.contains("no value"), "{err}");
    }

    #[test]
    fn retired_runs_per_batch_is_a_usage_error() {
        let err = parse(&["--runs-per-batch", "4"]).unwrap_err();
        assert!(err.contains("--runs-per-batch"), "{err}");
    }
}
