//! The full multi-stage augmentation workflow (paper Fig. 4).
//!
//! Orchestrates all stages over a Verilog corpus plus an EDA-script pool:
//! completion (§3.1.1), program-analysis alignment (§3.1.2), repair with
//! tool feedback (§3.2) and EDA-script description (§3.3), then trims
//! over-length entries (§4). The output [`Dataset`] carries per-task
//! groups whose sizes regenerate Table 2.
//!
//! # One stage loop, two entry points
//!
//! The work splits into units: one per corpus module (its completion,
//! alignment and repair stages), then one for the EDA-script pool. A unit
//! runs through one function, and its outcome is booked into the dataset
//! and the [`AugmentReport`] by one booking step, in unit-id order. Two
//! entry points feed them, and differ only in where each unit's RNG
//! comes from:
//!
//! * [`augment`] runs every unit in-line on the caller's RNG, in order,
//!   and books each as it finishes;
//! * [`augment_supervised`](crate::supervised::augment_supervised) runs
//!   them on the `dda-runtime` engine, each on its own seeded RNG, and
//!   books the engine's outcomes after the run.
//!
//! # Fault tolerance
//!
//! Real corpora are dirty: truncated files, junk bytes, pathological
//! nesting. [`augment`] therefore isolates every (module, stage) unit of
//! work — a panic inside one stage is caught, converted into a
//! [`QuarantineRecord`], and the run continues. The returned
//! [`AugmentReport`] accounts for **every** input module at **every**
//! stage: `ok + skipped + quarantined == corpus.len()` always holds for
//! the per-module stages, so silently dropped inputs cannot happen.
//! Quarantine diagnostics can optionally be recycled into extra §3.2-style
//! training pairs (see [`PipelineOptions::recycle_quarantined`]).

use crate::align::align_entries;
use crate::completion::{completion_entries, CompletionOptions};
use crate::dataset::{DataEntry, Dataset, TaskKind};
use crate::edascript::generate_eda_entries;
use crate::repair::{repair_entries, RepairOptions};
use dda_corpus::CorpusModule;
use dda_runtime::UnitOutcome;
use rand::Rng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Options for one full augmentation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Completion caps.
    pub completion: CompletionOptions,
    /// Mutation cap for the repair stage.
    pub repair: RepairOptions,
    /// Broken variants per module for the repair stage.
    pub repairs_per_module: usize,
    /// Size of the EDA-script pool (the paper uses ~200).
    pub eda_scripts: usize,
    /// Max tokens per entry; longer entries are trimmed (§4).
    pub max_entry_tokens: usize,
    /// Which stages run — for the ablation baselines: `General Aug`
    /// disables everything except completion.
    pub stages: StageSet,
    /// Recycle quarantine diagnostics into extra §3.2-style training pairs
    /// (broken source → tool diagnostic, under [`TaskKind::VerilogDebug`]).
    /// A clean corpus produces no quarantines, so this never changes the
    /// output for well-formed input.
    pub recycle_quarantined: bool,
}

/// Stage toggles, enabling the paper's ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSet {
    /// §3.1.1 completion.
    pub completion: bool,
    /// §3.1.2 program-analysis alignment.
    pub alignment: bool,
    /// §3.2 repair.
    pub repair: bool,
    /// §3.3 EDA scripts.
    pub eda_script: bool,
}

impl StageSet {
    /// The full framework.
    pub const FULL: StageSet = StageSet {
        completion: true,
        alignment: true,
        repair: true,
        eda_script: true,
    };

    /// Completion-only "general data generation" baseline (§4.2.2).
    pub const GENERAL_AUG: StageSet = StageSet {
        completion: true,
        alignment: false,
        repair: false,
        eda_script: false,
    };

    /// Alignment-only (the Fig. 7 "Only Natural Language Data" regime).
    pub const NL_ONLY: StageSet = StageSet {
        completion: false,
        alignment: true,
        repair: false,
        eda_script: false,
    };
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            completion: CompletionOptions {
                max_statement_level: 64,
                max_token_level: 256,
            },
            repair: RepairOptions::default(),
            repairs_per_module: 2,
            eda_scripts: 200,
            max_entry_tokens: 4096,
            stages: StageSet::FULL,
            recycle_quarantined: true,
        }
    }
}

/// Instruction used for recycled quarantine pairs: the model learns to
/// reproduce the tool's diagnostic for a file the pipeline rejected
/// (the report half of the paper's Fig. 6 layout).
pub const QUARANTINE_INSTRUCT: &str =
    "point out the error in the given Verilog file like an EDA tool report.";

/// Pipeline stages, used as keys in the [`AugmentReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// §3.1.1 completion.
    Completion,
    /// §3.1.2 program-analysis alignment.
    Alignment,
    /// §3.2 repair.
    Repair,
    /// §3.3 EDA-script description (corpus-independent; runs once per
    /// pipeline over the script pool, so its tally counts a single unit).
    EdaScript,
}

impl Stage {
    /// The per-module stages, in pipeline order.
    pub const PER_MODULE: [Stage; 3] = [Stage::Completion, Stage::Alignment, Stage::Repair];
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Completion => "completion",
            Stage::Alignment => "alignment",
            Stage::Repair => "repair",
            Stage::EdaScript => "eda-script",
        })
    }
}

/// Accounting for one stage: every input unit lands in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTally {
    /// Units that ran cleanly and produced at least one entry.
    pub ok: usize,
    /// Units the stage did not apply to (stage disabled, or ran cleanly
    /// with nothing to emit).
    pub skipped: usize,
    /// Units rejected with a diagnostic (parse/lex failure or caught
    /// panic); details live in [`AugmentReport::quarantines`].
    pub quarantined: usize,
    /// Entries this stage pushed, counted before the final token trim.
    pub entries: usize,
}

impl StageTally {
    /// Total units accounted for (`ok + skipped + quarantined`).
    pub fn total(&self) -> usize {
        self.ok + self.skipped + self.quarantined
    }
}

/// Why one (module, stage) unit was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Module name (or `"<eda-pool>"` for the EDA stage).
    pub module: String,
    /// Stage that rejected it.
    pub stage: Stage,
    /// The diagnostic: a parse/lex error rendering, or the panic message.
    pub diagnostic: String,
    /// Whether the diagnostic came from a caught panic rather than a
    /// graceful error path.
    pub panicked: bool,
}

/// Full accounting for one [`augment`] run.
///
/// For each per-module stage, `stage(s).total() == modules`; no input can
/// be silently dropped. The EDA stage runs once over the script pool, so
/// its tally always totals one unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AugmentReport {
    /// Number of corpus modules fed in.
    pub modules: usize,
    /// §3.1.1 tally.
    pub completion: StageTally,
    /// §3.1.2 tally.
    pub alignment: StageTally,
    /// §3.2 tally.
    pub repair: StageTally,
    /// §3.3 tally (single-unit; see [`Stage::EdaScript`]).
    pub eda_script: StageTally,
    /// One record per quarantined (module, stage) unit, in pipeline order.
    pub quarantines: Vec<QuarantineRecord>,
    /// Extra training pairs minted from quarantine diagnostics.
    pub recycled: usize,
}

impl AugmentReport {
    /// Tally for `stage`.
    pub fn stage(&self, stage: Stage) -> &StageTally {
        match stage {
            Stage::Completion => &self.completion,
            Stage::Alignment => &self.alignment,
            Stage::Repair => &self.repair,
            Stage::EdaScript => &self.eda_script,
        }
    }

    fn stage_mut(&mut self, stage: Stage) -> &mut StageTally {
        match stage {
            Stage::Completion => &mut self.completion,
            Stage::Alignment => &mut self.alignment,
            Stage::Repair => &mut self.repair,
            Stage::EdaScript => &mut self.eda_script,
        }
    }

    /// Whether accounting is conserved: every module lands in exactly one
    /// bucket of every per-module stage, and the EDA pool in one of its.
    pub fn is_conserved(&self) -> bool {
        Stage::PER_MODULE
            .iter()
            .all(|s| self.stage(*s).total() == self.modules)
            && self.eda_script.total() == 1
    }

    /// Quarantine records from caught panics (as opposed to graceful
    /// diagnostics).
    pub fn panics(&self) -> impl Iterator<Item = &QuarantineRecord> {
        self.quarantines.iter().filter(|q| q.panicked)
    }

    /// One-paragraph human-readable summary for CLI output.
    pub fn summary(&self) -> String {
        let mut s = format!("augmented {} modules", self.modules);
        for stage in Stage::PER_MODULE {
            let t = self.stage(stage);
            s.push_str(&format!(
                "\n  {stage}: {} ok, {} skipped, {} quarantined, {} entries",
                t.ok, t.skipped, t.quarantined, t.entries
            ));
        }
        s.push_str(&format!(
            "\n  eda-script: {} entries{}",
            self.eda_script.entries,
            if self.eda_script.quarantined > 0 {
                " (pool quarantined)"
            } else {
                ""
            }
        ));
        if self.recycled > 0 {
            s.push_str(&format!(
                "\n  recycled {} quarantine diagnostics into training pairs",
                self.recycled
            ));
        }
        s
    }
}

/// Records one booked (module, stage) unit in the global observability
/// recorder: a `pipeline.stage.<stage>.<outcome>` counter tick, an entry
/// total, and one `stage` trace event. These counters increment at the
/// exact sites that increment the [`StageTally`] buckets, so they always
/// reconcile with the returned [`AugmentReport`]; the check is one relaxed
/// atomic load when the recorder is disabled (the default).
fn obs_stage(stage: Stage, module: &str, outcome: &str, entries: usize) {
    if !dda_obs::enabled() {
        return;
    }
    dda_obs::count(&format!("pipeline.stage.{stage}.{outcome}"), 1);
    if entries > 0 {
        dda_obs::count(&format!("pipeline.stage.{stage}.entries"), entries as u64);
    }
    dda_obs::emit(
        dda_obs::Event::new("stage")
            .str("module", module)
            .str("stage", stage.to_string())
            .str("outcome", outcome)
            .u64("entries", entries as u64),
    );
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: non-string payload".to_string()
    }
}

/// Runs `f` with panic isolation; a panic becomes an `Err` message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(&*p))
}

/// The parser's rendering of why `source` is malformed, if it is.
fn diagnose(source: &str) -> Option<String> {
    dda_verilog::parse(source).err().map(|e| e.to_string())
}

/// The module name the EDA-script pool is booked under.
pub(crate) const EDA_POOL: &str = "<eda-pool>";

/// What one stage produced: `None` when the stage is disabled, otherwise
/// its entries or the message of a panic [`guarded`] caught.
pub(crate) type StageYield = Option<Result<Vec<(TaskKind, DataEntry)>, String>>;

/// What one unit produced. Unit `u < corpus.len()` is corpus module `u`;
/// unit `corpus.len()` is the EDA-script pool.
pub(crate) enum UnitYield {
    /// A corpus module: one slot per [`Stage::PER_MODULE`] stage, in order.
    Module([StageYield; 3]),
    /// The EDA-script pool.
    Eda(StageYield),
}

/// Runs one unit's enabled stages, each under panic isolation. Only the
/// repair stage and the EDA pool draw from `rng`.
pub(crate) fn run_unit<R: Rng + ?Sized>(
    corpus: &[CorpusModule],
    opts: &PipelineOptions,
    unit: usize,
    rng: &mut R,
) -> UnitYield {
    let on = opts.stages;
    let Some(m) = corpus.get(unit) else {
        return UnitYield::Eda(
            on.eda_script
                .then(|| guarded(|| generate_eda_entries(opts.eda_scripts, rng))),
        );
    };
    UnitYield::Module([
        on.completion
            .then(|| guarded(|| completion_entries(&m.source, &opts.completion))),
        on.alignment.then(|| guarded(|| align_entries(&m.source))),
        on.repair.then(|| {
            let file = format!("{}.v", m.name);
            guarded(|| repair_entries(&file, &m.source, opts.repairs_per_module, &opts.repair, rng))
        }),
    ])
}

/// Books unit outcomes, in unit-id order, into the dataset and the
/// [`AugmentReport`]. Every tally bucket, quarantine record and obs stage
/// tick of a run is written here, whichever entry point ran the units.
pub(crate) struct Booking<'a> {
    corpus: &'a [CorpusModule],
    opts: &'a PipelineOptions,
    ds: Dataset,
    report: AugmentReport,
}

impl<'a> Booking<'a> {
    pub(crate) fn new(corpus: &'a [CorpusModule], opts: &'a PipelineOptions) -> Booking<'a> {
        Booking {
            corpus,
            opts,
            ds: Dataset::new(),
            report: AugmentReport {
                modules: corpus.len(),
                ..AugmentReport::default()
            },
        }
    }

    /// Books unit `unit`. A unit the engine quarantined (deadline trip,
    /// exhausted retries) is booked as quarantined in every enabled stage,
    /// so conservation holds for any outcome mix. The EDA pool is the last
    /// unit: quarantine recycling runs just before it is booked.
    pub(crate) fn book(&mut self, unit: usize, outcome: UnitOutcome<UnitYield>) {
        let corpus = self.corpus;
        if unit == corpus.len() && self.opts.recycle_quarantined {
            self.recycle();
        }
        let Some(m) = corpus.get(unit) else {
            match outcome {
                UnitOutcome::Ok(UnitYield::Eda(None)) => self.skip(Stage::EdaScript, EDA_POOL),
                UnitOutcome::Ok(UnitYield::Eda(Some(Ok(entries)))) => {
                    self.push_ok(Stage::EdaScript, EDA_POOL, entries)
                }
                UnitOutcome::Ok(UnitYield::Eda(Some(Err(diagnostic)))) => {
                    self.quarantine(Stage::EdaScript, EDA_POOL, diagnostic, true)
                }
                UnitOutcome::Quarantined {
                    diagnostic,
                    panicked,
                } => self.quarantine(Stage::EdaScript, EDA_POOL, diagnostic, panicked),
                UnitOutcome::Ok(UnitYield::Module(_)) => {
                    unreachable!("module yield on the EDA unit")
                }
            }
            return;
        };
        match outcome {
            UnitOutcome::Ok(UnitYield::Module(slots)) => {
                for (stage, slot) in Stage::PER_MODULE.into_iter().zip(slots) {
                    match slot {
                        Some(outcome) => self.book_stage(stage, m, outcome),
                        None => self.skip(stage, &m.name),
                    }
                }
            }
            UnitOutcome::Quarantined {
                diagnostic,
                panicked,
            } => {
                let on = self.opts.stages;
                let enabled = [on.completion, on.alignment, on.repair];
                for (stage, enabled) in Stage::PER_MODULE.into_iter().zip(enabled) {
                    if enabled {
                        self.quarantine(stage, &m.name, diagnostic.clone(), panicked);
                    } else {
                        self.skip(stage, &m.name);
                    }
                }
            }
            UnitOutcome::Ok(UnitYield::Eda(_)) => unreachable!("EDA yield on module unit {unit}"),
        }
    }

    /// Books one stage of module `m`: entries on success; an empty result
    /// is skipped (clean source, nothing to emit) or quarantined with the
    /// parser's diagnostic; a caught panic is quarantined.
    fn book_stage(
        &mut self,
        stage: Stage,
        m: &CorpusModule,
        outcome: Result<Vec<(TaskKind, DataEntry)>, String>,
    ) {
        match outcome {
            Ok(entries) if !entries.is_empty() => self.push_ok(stage, &m.name, entries),
            Ok(_) => match diagnose(&m.source) {
                Some(diagnostic) => self.quarantine(stage, &m.name, diagnostic, false),
                None => self.skip(stage, &m.name),
            },
            Err(diagnostic) => self.quarantine(stage, &m.name, diagnostic, true),
        }
    }

    fn push_ok(&mut self, stage: Stage, module: &str, entries: Vec<(TaskKind, DataEntry)>) {
        let tally = self.report.stage_mut(stage);
        tally.ok += 1;
        tally.entries += entries.len();
        obs_stage(stage, module, "ok", entries.len());
        for (k, e) in entries {
            self.ds.push(k, e);
        }
    }

    fn skip(&mut self, stage: Stage, module: &str) {
        self.report.stage_mut(stage).skipped += 1;
        obs_stage(stage, module, "skipped", 0);
    }

    fn quarantine(&mut self, stage: Stage, module: &str, diagnostic: String, panicked: bool) {
        self.report.stage_mut(stage).quarantined += 1;
        obs_stage(stage, module, "quarantined", 0);
        self.report.quarantines.push(QuarantineRecord {
            module: module.to_string(),
            stage,
            diagnostic,
            panicked,
        });
    }

    /// Recycles quarantine diagnostics into §3.2-style pairs: the broken
    /// source paired with the tool's verdict, one per (module,
    /// diagnostic). Panic messages are internal, not tool reports, so they
    /// are skipped.
    fn recycle(&mut self) {
        let mut seen: Vec<(&str, &str)> = Vec::new();
        let mut extra = Vec::new();
        for q in self.report.quarantines.iter().filter(|q| !q.panicked) {
            let key = (q.module.as_str(), q.diagnostic.as_str());
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            if let Some(m) = self.corpus.iter().find(|m| m.name == q.module) {
                extra.push(DataEntry::new(
                    QUARANTINE_INSTRUCT,
                    m.source.clone(),
                    q.diagnostic.clone(),
                ));
            }
        }
        self.report.recycled = extra.len();
        if dda_obs::enabled() && self.report.recycled > 0 {
            dda_obs::count("pipeline.recycled", extra.len() as u64);
            dda_obs::emit(dda_obs::Event::new("recycle").u64("pairs", extra.len() as u64));
        }
        for e in extra {
            self.ds.push(TaskKind::VerilogDebug, e);
        }
    }

    /// Trims over-length entries (§4) and hands back the run's output.
    pub(crate) fn finish(mut self) -> (Dataset, AugmentReport) {
        self.ds.trim_by_token_len(self.opts.max_entry_tokens);
        (self.ds, self.report)
    }
}

/// Runs the full augmentation pipeline over a corpus, in-line: each unit
/// runs in id order on the shared `rng` and is booked as it finishes.
///
/// The paper's progressive-training order (bulk completion first, refined
/// aligned data second, §3.1) is preserved in each group's entry order:
/// within the returned dataset, entries appear corpus-module by
/// corpus-module, with completion pushed before alignment for each module.
///
/// Every (module, stage) unit runs under panic isolation, and the returned
/// [`AugmentReport`] accounts for each one — see the module docs. For a
/// well-formed corpus the dataset is identical to what the pre-report
/// pipeline produced for the same seed: stage calls, their order, and
/// their RNG draws are unchanged.
pub fn augment<R: Rng + ?Sized>(
    corpus: &[CorpusModule],
    opts: &PipelineOptions,
    rng: &mut R,
) -> (Dataset, AugmentReport) {
    let _run_span = dda_obs::span("pipeline.augment");
    let mut booking = Booking::new(corpus, opts);
    for unit in 0..=corpus.len() {
        booking.book(unit, UnitOutcome::Ok(run_unit(corpus, opts, unit, rng)));
    }
    booking.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TaskKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn corpus(n: usize, seed: u64) -> Vec<CorpusModule> {
        dda_corpus::generate_corpus(n, &mut SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn full_pipeline_populates_all_tasks() {
        let c = corpus(16, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let (ds, report) = augment(&c, &PipelineOptions::default(), &mut rng);
        for kind in TaskKind::ALL {
            assert!(!ds.entries(kind).is_empty(), "task {kind} has no entries");
        }
        assert!(report.is_conserved());
        assert!(report.quarantines.is_empty());
        assert_eq!(report.modules, 16);
        assert_eq!(report.completion.ok, 16);
        assert_eq!(report.alignment.ok, 16);
    }

    #[test]
    fn general_aug_is_completion_only() {
        let c = corpus(8, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let (ds, report) = augment(
            &c,
            &PipelineOptions {
                stages: StageSet::GENERAL_AUG,
                ..PipelineOptions::default()
            },
            &mut rng,
        );
        assert!(ds.entries(TaskKind::NlVerilogGeneration).is_empty());
        assert!(ds.entries(TaskKind::VerilogDebug).is_empty());
        assert!(ds.entries(TaskKind::NlEdaScriptGeneration).is_empty());
        assert!(!ds.entries(TaskKind::WordLevelCompletion).is_empty());
        // Disabled stages account every module as skipped.
        assert!(report.is_conserved());
        assert_eq!(report.alignment.skipped, 8);
        assert_eq!(report.repair.skipped, 8);
        assert_eq!(report.eda_script.skipped, 1);
    }

    #[test]
    fn word_level_dominates_volume() {
        // Table 2's proportions: word-level completion is the largest group.
        let c = corpus(16, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let (ds, _) = augment(&c, &PipelineOptions::default(), &mut rng);
        let word = ds.entries(TaskKind::WordLevelCompletion).len();
        for kind in TaskKind::ALL {
            assert!(word >= ds.entries(kind).len(), "{kind} exceeds word-level");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let c = corpus(8, 7);
        let a = augment(
            &c,
            &PipelineOptions::default(),
            &mut SmallRng::seed_from_u64(8),
        );
        let b = augment(
            &c,
            &PipelineOptions::default(),
            &mut SmallRng::seed_from_u64(8),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn trim_applies() {
        let c = corpus(4, 9);
        let mut rng = SmallRng::seed_from_u64(10);
        let (ds, _) = augment(
            &c,
            &PipelineOptions {
                max_entry_tokens: 40,
                ..PipelineOptions::default()
            },
            &mut rng,
        );
        for (_, e) in ds.iter() {
            assert!(e.token_len() <= 40);
        }
    }

    #[test]
    fn panics_become_quarantine_records() {
        // Unit-level check of the isolation helper plus bookkeeping.
        let corpus = [CorpusModule {
            family: dda_corpus::Family::ALL[0],
            name: "boom".into(),
            source: "module boom; endmodule".into(),
        }];
        let opts = PipelineOptions::default();
        let mut booking = Booking::new(&corpus, &opts);
        let outcome =
            guarded(|| -> Vec<(TaskKind, DataEntry)> { panic!("injected failure in stage") });
        booking.book(
            0,
            UnitOutcome::Ok(UnitYield::Module([None, None, Some(outcome)])),
        );
        let (ds, report) = booking.finish();
        assert_eq!(report.repair.quarantined, 1);
        assert_eq!(report.completion.skipped, 1);
        let quarantines = &report.quarantines;
        assert_eq!(quarantines.len(), 1);
        assert!(quarantines[0].panicked);
        assert!(
            quarantines[0].diagnostic.contains("injected failure"),
            "{}",
            quarantines[0].diagnostic
        );
        assert_eq!(quarantines[0].stage, Stage::Repair);
        assert!(ds.is_empty());
    }

    #[test]
    fn engine_quarantines_book_every_enabled_stage() {
        let c = corpus(2, 17);
        let opts = PipelineOptions {
            stages: StageSet::GENERAL_AUG,
            ..PipelineOptions::default()
        };
        let lost = || UnitOutcome::Quarantined {
            diagnostic: "deadline".to_string(),
            panicked: false,
        };
        let mut booking = Booking::new(&c, &opts);
        booking.book(0, lost());
        booking.book(
            1,
            UnitOutcome::Ok(run_unit(&c, &opts, 1, &mut SmallRng::seed_from_u64(0))),
        );
        booking.book(2, lost());
        let (_, report) = booking.finish();
        assert!(report.is_conserved());
        assert_eq!(report.completion.quarantined, 1);
        assert_eq!(report.alignment.skipped, 2);
        assert_eq!(report.eda_script.quarantined, 1);
        let booked: Vec<_> = report
            .quarantines
            .iter()
            .map(|q| (q.module.as_str(), q.stage))
            .collect();
        assert_eq!(
            booked,
            [
                (c[0].name.as_str(), Stage::Completion),
                (EDA_POOL, Stage::EdaScript)
            ]
        );
    }

    #[test]
    fn broken_module_quarantined_with_diagnostic_and_recycled() {
        let mut c = corpus(4, 11);
        let half = c[1].source.len() / 2;
        c[1].source.truncate(half);
        let mut rng = SmallRng::seed_from_u64(12);
        let (ds, report) = augment(&c, &PipelineOptions::default(), &mut rng);
        assert!(report.is_conserved());
        // The truncated module fails alignment (needs a full parse).
        assert!(
            report
                .quarantines
                .iter()
                .any(|q| q.module == c[1].name && q.stage == Stage::Alignment),
            "{:?}",
            report.quarantines
        );
        assert!(report.quarantines.iter().all(|q| !q.diagnostic.is_empty()));
        // Its diagnostic was recycled into a VerilogDebug pair.
        assert!(report.recycled >= 1);
        assert!(ds
            .entries(TaskKind::VerilogDebug)
            .iter()
            .any(|e| e.instruct == QUARANTINE_INSTRUCT && e.input == c[1].source));
    }

    #[test]
    fn recycling_can_be_disabled() {
        let mut c = corpus(4, 13);
        c[0].source = "module ???".into();
        let mut rng = SmallRng::seed_from_u64(14);
        let (ds, report) = augment(
            &c,
            &PipelineOptions {
                recycle_quarantined: false,
                ..PipelineOptions::default()
            },
            &mut rng,
        );
        assert!(!report.quarantines.is_empty());
        assert_eq!(report.recycled, 0);
        assert!(!ds
            .entries(TaskKind::VerilogDebug)
            .iter()
            .any(|e| e.instruct == QUARANTINE_INSTRUCT));
    }

    #[test]
    fn report_summary_mentions_each_stage() {
        let c = corpus(3, 15);
        let mut rng = SmallRng::seed_from_u64(16);
        let (_, report) = augment(&c, &PipelineOptions::default(), &mut rng);
        let s = report.summary();
        for stage in Stage::PER_MODULE {
            assert!(s.contains(&stage.to_string()), "{s}");
        }
        assert!(s.contains("3 modules"), "{s}");
    }
}
