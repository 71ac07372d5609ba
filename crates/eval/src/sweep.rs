//! The evaluation sweeps: one per table.
//!
//! [`eval_suite`] (Table 5), [`eval_repair_suite`] (Table 3) and
//! [`eval_script_suite`] (Table 4) each treat one benchmark problem (or
//! SC task) as one engine unit and run the units through
//! [`dda_runtime::run_supervised`]: a bounded worker pool with per-unit
//! wall-clock deadlines, seeded retry/backoff, and an optional write-ahead
//! journal for checkpoint/resume. Every sample derives its RNG seed from
//! the `(protocol.seed, problem, sample)` triple — never from shared
//! mutable state — so the rows are byte-identical for any worker count,
//! scheduling order, or interruption point.
//!
//! A sweep returns exactly one [`Row`] per input, in input order. A unit
//! the engine quarantines (deadline, panic, exhausted retries) is an
//! explicit `Err` row carrying the engine's diagnostic: it renders as a
//! miss and counts as a failure in every rate, so it can neither vanish
//! nor shift the rows after it. The returned [`EngineSummary`] carries the
//! accounting.
//!
//! A journal records results by unit index only. Resuming a journal that
//! a sweep over other inputs wrote would replay that sweep's rows, so the
//! caller keys the journal path on everything that determines the rows
//! (the table binaries fingerprint the zoo options, protocol, suite and
//! retrieval depth into it).

use crate::generation::{eval_cell_with, GenCell, GenProtocol};
use crate::rag::RagIndex;
use crate::repair_eval::{eval_repair_with, RepairCell, RepairProtocol};
use crate::script_eval::{eval_script, ScriptCell, ScriptProtocol};
use dda_benchmarks::{ScTask, VerilogProblem};
use dda_runtime::{
    run_supervised, run_supervised_journaled, CancelToken, EngineSummary, RunOptions, UnitError,
    UnitOutcome, DEADLINE_DIAGNOSTIC,
};
use dda_slm::Slm;
use std::io;
use std::path::PathBuf;

/// Options for one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Engine options: worker count, per-unit deadline, retry policy.
    pub run: RunOptions,
    /// Write-ahead journal path (`None` disables checkpointing).
    pub journal: Option<PathBuf>,
    /// Replay an existing journal at the path before executing, skipping
    /// units it already covers. Ignored when `journal` is `None`.
    pub resume: bool,
}

impl SweepOptions {
    /// A sweep over `workers` threads with no journal.
    pub fn with_workers(workers: usize) -> SweepOptions {
        SweepOptions {
            run: RunOptions {
                workers,
                ..RunOptions::default()
            },
            ..SweepOptions::default()
        }
    }
}

/// One input's row of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Row<C> {
    /// Problem id, or SC task level label: the table's row label.
    pub id: &'static str,
    /// The unit's cells, or the engine's diagnostic when it quarantined
    /// the unit.
    pub result: Result<C, String>,
}

/// Per-problem result of the Table 5 sweep: one cell per prompt level.
pub type GenRow = Row<Vec<GenCell>>;

/// A sweep result that is either a full success or not.
pub trait Scored {
    /// Whether the result counts as a success in the table's rate.
    fn is_success(&self) -> bool;
}

impl Scored for Vec<GenCell> {
    /// Success = any prompt level reached a 100% functional pass.
    fn is_success(&self) -> bool {
        self.iter().any(GenCell::is_success)
    }
}

impl Scored for RepairCell {
    fn is_success(&self) -> bool {
        RepairCell::is_success(self)
    }
}

impl<C: Scored> Row<C> {
    /// Whether the unit completed and succeeded; a quarantined unit is a
    /// failure.
    pub fn is_success(&self) -> bool {
        self.result.as_ref().is_ok_and(C::is_success)
    }
}

/// Fraction of rows that succeeded; quarantined rows count as failures.
pub fn success_rate<C: Scored>(rows: &[Row<C>]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().filter(|r| r.is_success()).count() as f64 / rows.len() as f64
}

/// Runs one unit per id through the engine, journaled or not per
/// `sweep`, and returns one row per id in id order.
fn run_rows<C, F, E, D>(
    ids: &[&'static str],
    sweep: &SweepOptions,
    encode: E,
    decode: D,
    exec: F,
) -> io::Result<(Vec<Row<C>>, EngineSummary)>
where
    C: Send,
    F: Fn(usize, &CancelToken) -> Result<C, UnitError> + Sync,
    E: Fn(&C) -> String + Sync,
    D: Fn(&str) -> Option<C>,
{
    let report = match &sweep.journal {
        Some(path) => run_supervised_journaled(
            ids.len(),
            &sweep.run,
            path,
            sweep.resume,
            encode,
            decode,
            exec,
        )?,
        None => run_supervised(ids.len(), &sweep.run, exec),
    };
    let summary = report.summary();
    let rows = report
        .units
        .into_iter()
        .map(|u| Row {
            id: ids[u.unit],
            result: match u.outcome {
                UnitOutcome::Ok(c) => Ok(c),
                UnitOutcome::Quarantined { diagnostic, .. } => Err(diagnostic),
            },
        })
        .collect();
    Ok((rows, summary))
}

/// Fails the unit when its supervision token has tripped, so a
/// deadline-cut unit is quarantined instead of reported with a
/// wall-timeout-depressed score.
fn check_deadline(cancel: &CancelToken, what: &str) -> Result<(), UnitError> {
    if cancel.is_cancelled() {
        Err(UnitError::fatal(format!("{DEADLINE_DIAGNOSTIC} ({what})")))
    } else {
        Ok(())
    }
}

/// Journal codec for a `(syntax_errors, best_function)` cell:
/// `"<errors>:<f64 bits in hex>"`, exact to the bit.
fn encode_cell(syntax_errors: usize, best_function: f64) -> String {
    format!("{syntax_errors}:{:016x}", best_function.to_bits())
}

fn decode_cell(s: &str) -> Option<(usize, f64)> {
    let (se, bits) = s.split_once(':')?;
    let bits = u64::from_str_radix(bits, 16).ok()?;
    Some((se.parse().ok()?, f64::from_bits(bits)))
}

/// Journal codec for a script iteration: the count, or `-` for a miss.
fn encode_iter(it: Option<usize>) -> String {
    match it {
        Some(i) => i.to_string(),
        None => "-".to_string(),
    }
}

fn decode_iter(s: &str) -> Option<Option<usize>> {
    if s == "-" {
        Some(None)
    } else {
        s.parse().ok().map(Some)
    }
}

/// The Table 5 sweep: one engine unit per benchmark problem, one cell per
/// prompt level.
///
/// # Errors
///
/// Propagates journal IO failures.
pub fn eval_suite(
    model: &Slm,
    problems: &[VerilogProblem],
    protocol: &GenProtocol,
    sweep: &SweepOptions,
) -> io::Result<(Vec<GenRow>, EngineSummary)> {
    let ids: Vec<_> = problems.iter().map(|p| p.id).collect();
    run_rows(
        &ids,
        sweep,
        |cells: &Vec<GenCell>| {
            cells
                .iter()
                .map(|c| encode_cell(c.syntax_errors, c.best_function))
                .collect::<Vec<_>>()
                .join(";")
        },
        |s| {
            s.split(';')
                .map(|c| {
                    decode_cell(c).map(|(syntax_errors, best_function)| GenCell {
                        syntax_errors,
                        best_function,
                    })
                })
                .collect()
        },
        |unit, cancel| {
            let p = &problems[unit];
            let cells = (0..p.prompts.len())
                .map(|l| eval_cell_with(model, p, l, protocol, cancel))
                .collect();
            check_deadline(cancel, p.id)?;
            Ok(cells)
        },
    )
}

/// The Table 3 sweep: one engine unit per repair problem. With `rag`, the
/// `k` corpus modules nearest each broken input are injected as few-shot
/// context (see [`crate::repair_eval::repair_samples`]); `k = 0` is
/// bit-identical to `None`.
///
/// # Errors
///
/// Propagates journal IO failures.
pub fn eval_repair_suite(
    model: &Slm,
    problems: &[VerilogProblem],
    protocol: &RepairProtocol,
    rag: Option<(&RagIndex, usize)>,
    sweep: &SweepOptions,
) -> io::Result<(Vec<Row<RepairCell>>, EngineSummary)> {
    let ids: Vec<_> = problems.iter().map(|p| p.id).collect();
    run_rows(
        &ids,
        sweep,
        |c: &RepairCell| encode_cell(c.syntax_errors, c.best_function),
        |s| {
            decode_cell(s).map(|(syntax_errors, best_function)| RepairCell {
                syntax_errors,
                best_function,
            })
        },
        |unit, cancel| {
            let p = &problems[unit];
            let cell = eval_repair_with(model, p, protocol, rag, cancel);
            check_deadline(cancel, p.id)?;
            Ok(cell)
        },
    )
}

/// The Table 4 sweep: one engine unit per SC task. The task has no inner
/// simulation, so the deadline is only checked after the unit.
///
/// # Errors
///
/// Propagates journal IO failures.
pub fn eval_script_suite(
    model: &Slm,
    tasks: &[ScTask],
    protocol: &ScriptProtocol,
    sweep: &SweepOptions,
) -> io::Result<(Vec<Row<ScriptCell>>, EngineSummary)> {
    let ids: Vec<_> = tasks.iter().map(|t| t.level.label()).collect();
    run_rows(
        &ids,
        sweep,
        |c: &ScriptCell| format!("{}:{}", encode_iter(c.syn_iter), encode_iter(c.func_iter)),
        |s| {
            let (syn, func) = s.split_once(':')?;
            Some(ScriptCell {
                syn_iter: decode_iter(syn)?,
                func_iter: decode_iter(func)?,
            })
        },
        |unit, cancel| {
            let t = &tasks[unit];
            let cell = eval_script(model, t, protocol);
            check_deadline(cancel, t.level.label())?;
            Ok(cell)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::eval_cell;
    use crate::repair_eval::eval_repair;
    use dda_benchmarks::{rtllm_suite, sc_suite, thakur_suite};
    use dda_runtime::Journal;
    use dda_slm::{SlmProfile, PROGRESSIVE_ORDER};
    use std::time::Duration;

    fn model() -> Slm {
        Slm::finetune(
            SlmProfile::llama2(7.0),
            &dda_core::Dataset::new(),
            &PROGRESSIVE_ORDER,
        )
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dda-eval-sweep-{}-{name}", std::process::id()))
    }

    /// The test oracle: the plain per-input loop, one `Ok` row per input.
    fn oracle<T, C>(
        inputs: &[T],
        id: impl Fn(&T) -> &'static str,
        cell: impl Fn(&T) -> C,
    ) -> Vec<Row<C>> {
        let row = |t| Row {
            id: id(t),
            result: Ok(cell(t)),
        };
        inputs.iter().map(row).collect()
    }

    #[test]
    fn generation_sweep_matches_the_per_problem_loop_for_any_worker_count() {
        let model = model();
        let problems: Vec<_> = thakur_suite().into_iter().take(3).collect();
        let protocol = GenProtocol {
            k: 2,
            ..GenProtocol::default()
        };
        let want = oracle(
            &problems,
            |p| p.id,
            |p| {
                (0..p.prompts.len())
                    .map(|l| eval_cell(&model, p, l, &protocol))
                    .collect::<Vec<_>>()
            },
        );
        for workers in [1, 2, 8] {
            let sweep = SweepOptions::with_workers(workers);
            let (rows, summary) = eval_suite(&model, &problems, &protocol, &sweep).unwrap();
            assert_eq!(rows, want, "workers={workers}");
            assert_eq!((summary.ok, summary.quarantined), (problems.len(), 0));
        }
    }

    #[test]
    fn repair_sweep_matches_the_per_problem_loop() {
        let model = model();
        let problems: Vec<_> = rtllm_suite().into_iter().take(3).collect();
        let protocol = RepairProtocol {
            k: 2,
            ..RepairProtocol::default()
        };
        let want = oracle(&problems, |p| p.id, |p| eval_repair(&model, p, &protocol));
        let sweep = SweepOptions::with_workers(4);
        let (rows, _) = eval_repair_suite(&model, &problems, &protocol, None, &sweep).unwrap();
        assert_eq!(rows, want);
    }

    #[test]
    fn script_sweep_matches_the_per_task_loop() {
        let model = model();
        let tasks = sc_suite();
        let protocol = ScriptProtocol {
            max_iters: 3,
            ..ScriptProtocol::default()
        };
        let want = oracle(
            &tasks,
            |t| t.level.label(),
            |t| eval_script(&model, t, &protocol),
        );
        let sweep = SweepOptions::with_workers(2);
        let (rows, _) = eval_script_suite(&model, &tasks, &protocol, &sweep).unwrap();
        assert_eq!(rows, want);
    }

    #[test]
    fn a_quarantined_problem_is_an_explicit_row_in_input_order() {
        let model = model();
        let problems: Vec<_> = thakur_suite().into_iter().take(3).collect();
        let protocol = GenProtocol {
            k: 1,
            ..GenProtocol::default()
        };
        let (fresh, _) =
            eval_suite(&model, &problems, &protocol, &SweepOptions::default()).unwrap();
        // Force unit 1 into quarantine through its journal record; units 0
        // and 2 have none and execute.
        let path = tmp("forced-quarantine");
        let mut journal = Journal::create(&path).unwrap();
        journal.record(1, "q 0 forced quarantine").unwrap();
        drop(journal);
        for workers in [1, 2] {
            let sweep = SweepOptions {
                run: RunOptions {
                    workers,
                    ..RunOptions::default()
                },
                journal: Some(path.clone()),
                resume: true,
            };
            let (rows, summary) = eval_suite(&model, &problems, &protocol, &sweep).unwrap();
            assert_eq!(rows.len(), problems.len());
            assert_eq!(rows[0], fresh[0]);
            assert_eq!(rows[1].id, problems[1].id);
            assert_eq!(rows[1].result, Err("forced quarantine".to_string()));
            assert_eq!(rows[2], fresh[2], "workers={workers}");
            assert_eq!(summary.quarantined, 1);
            assert!(!rows[1].is_success());
            let ok = fresh
                .iter()
                .filter(|r| r.id != rows[1].id && r.is_success());
            assert_eq!(success_rate(&rows), ok.count() as f64 / 3.0);
        }
        std::fs::remove_file(&path).ok();

        // A zero deadline quarantines every unit; each keeps its row.
        let sweep = SweepOptions {
            run: RunOptions {
                unit_deadline: Some(Duration::ZERO),
                ..RunOptions::default()
            },
            ..SweepOptions::default()
        };
        let (rows, summary) = eval_suite(&model, &problems, &protocol, &sweep).unwrap();
        let ids: Vec<_> = rows.iter().map(|r| r.id).collect();
        let want: Vec<_> = problems.iter().map(|p| p.id).collect();
        assert_eq!(ids, want);
        assert!(rows.iter().all(|r| r.result.is_err()), "{rows:?}");
        assert_eq!(summary.quarantined, problems.len());
        assert_eq!(success_rate(&rows), 0.0);
    }

    #[test]
    fn success_rate_counts_full_passes() {
        let cell = |best_function| GenCell {
            syntax_errors: 0,
            best_function,
        };
        let rows = vec![
            Row {
                id: "a",
                result: Ok(vec![cell(1.0), cell(0.0)]),
            },
            Row {
                id: "b",
                result: Ok(vec![cell(0.9)]),
            },
        ];
        assert!((success_rate(&rows) - 0.5).abs() < 1e-9);
        assert_eq!(success_rate::<RepairCell>(&[]), 0.0);
    }

    #[test]
    fn cell_codec_is_bit_exact() {
        for v in [0.0, 1.0, 0.5, 2.0 / 3.0, f64::MIN_POSITIVE] {
            let enc = encode_cell(7, v);
            let (se, dec) = decode_cell(&enc).unwrap();
            assert_eq!(se, 7);
            assert_eq!(dec.to_bits(), v.to_bits());
        }
        assert_eq!(decode_iter("-"), Some(None));
        assert_eq!(decode_iter("4"), Some(Some(4)));
        assert_eq!(decode_iter("x"), None);
    }
}
