//! # dda-bench
//!
//! Shared plumbing for the table/figure regeneration binaries
//! (`table1`–`table6`, `fig2`–`fig7`) and the Criterion benches. Each
//! binary regenerates one table or figure of the paper; see DESIGN.md's
//! per-experiment index for the mapping.
//!
//! The crate exports the shared CLI flag parser [`RunFlags`] (zoo size,
//! workers, resume journals, retrieval depth, observability), the
//! simulator workload [`perf_workload`] of the `perf` bench, and
//! [`log_summary`] for the engine's resume-and-retry counters.
//!
//! ## Example
//!
//! Every table binary's `main` opens and closes with the same bracket:
//!
//! ```
//! use dda_bench::RunFlags;
//!
//! let flags = RunFlags::from_args(); // a doctest has no CLI flags
//! assert_eq!(flags.workers, 1);
//! assert_eq!(flags.zoo_options().corpus_modules, 192);
//! assert!(flags.sweep("table5-thakur-GPT-3.5", &5).journal.is_none());
//! flags.init_obs(); // no --metrics / --trace-out: the recorder stays off
//! assert!(!dda_obs::enabled());
//! // ... regenerate the table ...
//! flags.finish_obs();
//! ```

#![warn(missing_docs)]

use dda_core::supervised::SupervisedOptions;
use dda_eval::{ModelZoo, SweepOptions, ZooOptions};
use dda_runtime::{EngineSummary, RunOptions};
use std::fmt::Debug;
use std::path::PathBuf;

/// Corpus modules behind the `--quick` zoo.
const QUICK_CORPUS_MODULES: usize = 48;

/// The shared flags of the table binaries.
///
/// `--quick` builds the zoo from a 48-module corpus instead of the
/// default 192. Every sweep runs on the `dda-runtime` supervised engine:
/// `--workers N` fans each sweep (and model training) over N worker
/// threads, and `--resume PATH` write-ahead-journals every sweep to
/// `PATH.<label>-<fingerprint>` and replays completed units from it on
/// the next run. The fingerprint hashes everything that determines the
/// sweep's rows, so a run over other inputs (another zoo size, protocol,
/// suite or retrieval depth) writes its own journal and never replays
/// this one's. Tables are identical for any worker count, with or
/// without a journal.
///
/// `--rag-k K` (table3) and `--modules N` (table2) are parsed here too.
/// A numeric flag with a missing or non-numeric value, any value flag
/// without its value, and the retired `--eval-mode` and
/// `--runs-per-batch` are usage errors.
///
/// `--trace-out PATH` and `--metrics` turn the `dda-obs` recorder on:
/// the first streams structured JSONL events (plus end-of-run counter
/// totals) to `PATH`, the second prints a metrics summary to stderr when
/// the binary finishes. Without either flag the recorder stays disabled
/// and every instrumentation site costs one relaxed atomic load.
#[derive(Debug, Clone)]
pub struct RunFlags {
    /// Build the zoo from the small quick corpus (`--quick`).
    pub quick: bool,
    /// Worker threads per sweep (`--workers N`; default 1).
    pub workers: usize,
    /// Journal path stem (`--resume PATH`); one journal per sweep.
    pub resume: Option<PathBuf>,
    /// Retrieval depth for table3's RAG ablation (`--rag-k K`).
    pub rag_k: Option<usize>,
    /// Corpus size for table2 (`--modules N`).
    pub modules: Option<usize>,
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
    /// name). Flags this type does not own are skipped.
    ///
    /// # Errors
    ///
    /// A usage message when a value flag is missing its value, a numeric
    /// flag's value is not a non-negative integer, or a retired flag
    /// (`--eval-mode`, `--runs-per-batch`) is given.
    pub fn parse(args: &[String]) -> Result<RunFlags, String> {
        let retired = ["--runs-per-batch", "--eval-mode"];
        if let Some(flag) = args.iter().find(|a| retired.contains(&a.as_str())) {
            return Err(format!(
                "{flag} was removed: each distinct candidate is simulated once, on bytecode"
            ));
        }
        let value = |flag: &str| -> Result<Option<&String>, String> {
            match args.iter().position(|a| a == flag).map(|i| args.get(i + 1)) {
                None => Ok(None),
                Some(Some(v)) => Ok(Some(v)),
                Some(None) => Err(format!("{flag} is missing its value")),
            }
        };
        let number = |flag: &str| -> Result<Option<usize>, String> {
            value(flag)?
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("{flag} got `{v}`; expected a non-negative integer"))
                })
                .transpose()
        };
        let path = |flag: &str| value(flag).map(|v| v.map(PathBuf::from));
        Ok(RunFlags {
            quick: args.iter().any(|a| a == "--quick"),
            workers: number("--workers")?.unwrap_or(1),
            resume: path("--resume")?,
            rag_k: number("--rag-k")?,
            modules: number("--modules")?,
            trace_out: path("--trace-out")?,
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

    /// The zoo the flags select: the quick or default corpus, trained on
    /// `--workers` threads (training is worker-count invariant, so this
    /// only changes build wall-clock, never a table cell).
    pub fn zoo_options(&self) -> ZooOptions {
        ZooOptions {
            corpus_modules: if self.quick {
                QUICK_CORPUS_MODULES
            } else {
                ZooOptions::default().corpus_modules
            },
            train_workers: self.workers.max(1),
            ..ZooOptions::default()
        }
    }

    /// Builds the zoo of [`RunFlags::zoo_options`].
    pub fn zoo(&self) -> ModelZoo {
        ModelZoo::build(&self.zoo_options())
    }

    /// Engine options shared by every sweep of the binary.
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            workers: self.workers.max(1),
            ..RunOptions::default()
        }
    }

    /// Journal path for the sweep named `label` over the inputs `key`, if
    /// journaling is on: `PATH.<label slug>-<fingerprint>`, where the
    /// fingerprint is the FNV-1a hash of `key`'s `Debug` text. Labels are
    /// slugged (model names contain spaces and dots).
    fn journal(&self, label: &str, key: &dyn Debug) -> Option<PathBuf> {
        let slug: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let fingerprint = format!("{key:?}")
            .bytes()
            .fold(0xcbf29ce484222325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100000001b3)
            });
        self.resume
            .as_ref()
            .map(|p| PathBuf::from(format!("{}.{slug}-{fingerprint:016x}", p.display())))
    }

    /// Eval-sweep options for the sweep named `label`. `key` must cover
    /// every input of the sweep besides the zoo (protocol, suite,
    /// retrieval depth); the zoo options are added here.
    pub fn sweep(&self, label: &str, key: &dyn Debug) -> SweepOptions {
        let zoo = self.zoo_options();
        SweepOptions {
            run: self.run_options(),
            journal: self.journal(label, &(zoo.corpus_modules, zoo.seed, key)),
            resume: true,
        }
    }

    /// Augmentation options for the sweep named `label` over the inputs
    /// `key` (corpus and pipeline options).
    pub fn augment(&self, label: &str, key: &dyn Debug, seed: u64) -> SupervisedOptions {
        SupervisedOptions {
            run: self.run_options(),
            journal: self.journal(label, &(key, seed)),
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
/// bench and the `obs_overhead` test.
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
    use dda_benchmarks::thakur_suite;
    use dda_eval::{eval_suite, GenProtocol};
    use dda_slm::{Slm, SlmProfile, PROGRESSIVE_ORDER};

    fn parse(args: &[&str]) -> Result<RunFlags, String> {
        RunFlags::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse() {
        let f = parse(&[]).unwrap();
        assert!(!f.quick && !f.metrics);
        assert_eq!((f.workers, f.rag_k, f.modules), (1, None, None));
        let f = parse(&["--quick", "--workers", "3", "--metrics", "--rag-k", "2"]).unwrap();
        assert!(f.quick && f.metrics);
        assert_eq!((f.workers, f.rag_k), (3, Some(2)));
        assert_eq!(f.zoo_options().corpus_modules, QUICK_CORPUS_MODULES);
        assert_eq!(f.zoo_options().train_workers, 3);
        let f = parse(&["--modules", "64", "--resume", "/tmp/j"]).unwrap();
        assert_eq!(f.modules, Some(64));
        assert_eq!(f.resume, Some(PathBuf::from("/tmp/j")));
    }

    #[test]
    fn malformed_numeric_flags_are_usage_errors() {
        for flag in ["--workers", "--rag-k", "--modules"] {
            for bad in ["abc", "-1", "2.5", ""] {
                let err = parse(&[flag, bad]).unwrap_err();
                assert!(
                    err.contains(flag) && err.contains("integer"),
                    "{flag} {bad}: {err}"
                );
            }
            let err = parse(&["--quick", flag]).unwrap_err();
            assert!(err.contains("missing its value"), "{flag}: {err}");
        }
        for flag in ["--resume", "--trace-out"] {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn retired_flags_are_usage_errors() {
        let err = parse(&["--runs-per-batch", "4"]).unwrap_err();
        assert!(err.contains("--runs-per-batch"), "{err}");
        for args in [&["--eval-mode", "ast"][..], &["--eval-mode"]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("--eval-mode was removed"), "{err}");
        }
    }

    #[test]
    fn journals_are_keyed_on_every_input() {
        let path = |args: &[&str], label, key: &dyn Debug| {
            let f = parse(&[&["--resume", "/tmp/j"], args].concat()).unwrap();
            f.sweep(label, key).journal.unwrap()
        };
        let (label, gen) = ("table5-thakur-Ours-13B", GenProtocol::default());
        let a = path(&[], label, &gen);
        assert!(a
            .display()
            .to_string()
            .starts_with("/tmp/j.table5-thakur-Ours-13B-"));
        // The worker count never changes a row, so it shares the journal.
        assert_eq!(path(&["--workers", "4"], label, &gen), a);
        assert_ne!(path(&["--quick"], label, &gen), a);
        assert_ne!(path(&[], label, &GenProtocol { k: 1, ..gen }), a);
        assert_ne!(path(&[], "table5-rtllm-Ours-13B", &gen), a);
        assert_eq!(parse(&[]).unwrap().sweep("x", &1).journal, None);
    }

    /// Two runs with different protocols share one `--resume` path: the
    /// second re-executes every unit and equals a fresh run, and a rerun
    /// of the first replays its own journal.
    #[test]
    fn a_journal_is_never_replayed_for_other_inputs() {
        let stem = std::env::temp_dir().join(format!("dda-bench-key-{}", std::process::id()));
        let flags = parse(&["--resume", stem.to_str().unwrap()]).unwrap();
        let model = Slm::finetune(
            SlmProfile::llama2(7.0),
            &dda_core::Dataset::new(),
            &PROGRESSIVE_ORDER,
        );
        let problems: Vec<_> = thakur_suite().into_iter().take(3).collect();
        let ids: Vec<_> = problems.iter().map(|p| p.id).collect();
        let run = |protocol: &GenProtocol| {
            let sweep = flags.sweep("t", &(protocol, &ids));
            let out = eval_suite(&model, &problems, protocol, &sweep).unwrap();
            (out, sweep.journal.unwrap())
        };
        let first = GenProtocol::default();
        let second = GenProtocol { seed: 5, ..first };
        let ((_, s1), j1) = run(&first);
        assert_eq!(s1.resumed, 0);
        let ((rows, s2), j2) = run(&second);
        assert_eq!(s2.resumed, 0, "a journal for other inputs was replayed");
        let (fresh, _) = eval_suite(&model, &problems, &second, &SweepOptions::default()).unwrap();
        assert_eq!(rows, fresh);
        let ((_, again), _) = run(&first);
        assert_eq!(again.resumed, problems.len());
        for j in [j1, j2] {
            std::fs::remove_file(j).ok();
        }
    }
}
