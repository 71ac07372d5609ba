//! Byte pins for the augmentation pipeline. Each case hashes the dataset
//! (JSONL, task group by task group) and the `Debug` text of the report
//! with FNV-1a and compares against a recorded digest, so any change to
//! what `augment` or `augment_supervised` emits — entry bytes, entry
//! order, tallies, quarantine records, recycled pairs, engine counters —
//! fails here.
//!
//! The cases cover the full and the `GENERAL_AUG` stage sets on a clean
//! corpus, a chaos-injected corpus with quarantine recycling on, and the
//! supervised engine at 1, 2 and 8 workers (which must all give the same
//! bytes). A change that moves these bytes on purpose re-records the
//! digests and says why.

use chipdda::core::chaos::chaos_corpus;
use chipdda::core::json::to_jsonl;
use chipdda::core::pipeline::{augment, AugmentReport, PipelineOptions, StageSet};
use chipdda::core::supervised::{augment_supervised, SupervisedOptions};
use chipdda::core::{Dataset, TaskKind};
use chipdda::corpus::{generate_corpus, CorpusModule};
use chipdda::runtime::RunOptions;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(dataset digest, report digest)`.
fn digest(ds: &Dataset, report: &AugmentReport) -> (u64, u64) {
    let mut jsonl = String::new();
    for kind in TaskKind::ALL {
        jsonl.push_str(&to_jsonl(ds.entries(kind)));
    }
    (
        fnv1a(jsonl.as_bytes()),
        fnv1a(format!("{report:?}").as_bytes()),
    )
}

fn clean_corpus() -> Vec<CorpusModule> {
    generate_corpus(24, &mut SmallRng::seed_from_u64(2024))
}

/// Every other module corrupted by a random fault family: parse
/// failures quarantine at alignment and recycle into debug pairs.
fn chaos() -> Vec<CorpusModule> {
    let mut rng = SmallRng::seed_from_u64(36);
    let corpus = generate_corpus(16, &mut rng);
    chaos_corpus(corpus, 0.5, &mut rng).0
}

fn small_opts(stages: StageSet) -> PipelineOptions {
    PipelineOptions {
        eda_scripts: 24,
        stages,
        ..PipelineOptions::default()
    }
}

fn sequential(corpus: &[CorpusModule], opts: &PipelineOptions) -> (Dataset, AugmentReport) {
    augment(corpus, opts, &mut SmallRng::seed_from_u64(2025))
}

#[test]
fn augment_full_stage_set_bytes_are_pinned() {
    let (ds, report) = sequential(&clean_corpus(), &small_opts(StageSet::FULL));
    assert!(report.is_conserved() && report.quarantines.is_empty());
    assert_eq!(
        digest(&ds, &report),
        (0xc81e_9aa7_40bd_ac2a, 0xc849_117c_9a18_0fa7),
        "full stage set"
    );
}

#[test]
fn augment_general_aug_bytes_are_pinned() {
    let (ds, report) = sequential(&clean_corpus(), &small_opts(StageSet::GENERAL_AUG));
    assert!(report.is_conserved());
    assert_eq!(
        digest(&ds, &report),
        (0xee95_d41b_5477_f2b2, 0xa124_4cf1_4fe0_b5b3),
        "GENERAL_AUG stage set"
    );
}

#[test]
fn augment_chaos_corpus_with_recycling_bytes_are_pinned() {
    let opts = small_opts(StageSet::FULL);
    assert!(opts.recycle_quarantined);
    let (ds, report) = sequential(&chaos(), &opts);
    assert!(report.is_conserved());
    assert!(!report.quarantines.is_empty(), "no quarantines provoked");
    assert!(report.recycled > 0, "no recycled pairs minted");
    assert_eq!(
        digest(&ds, &report),
        (0xddfe_3032_21f2_4856, 0x565e_5903_011d_dd88),
        "chaos corpus"
    );
}

#[test]
fn augment_supervised_bytes_are_pinned_at_every_worker_count() {
    let corpus = chaos();
    let opts = small_opts(StageSet::FULL);
    for workers in [1, 2, 8] {
        let sup = SupervisedOptions {
            run: RunOptions {
                workers,
                ..RunOptions::default()
            },
            ..SupervisedOptions::default()
        };
        let (ds, report, summary) = augment_supervised(&corpus, &opts, &sup).unwrap();
        assert!(report.is_conserved());
        assert!(report.recycled > 0, "no recycled pairs minted");
        assert_eq!(
            (digest(&ds, &report), format!("{summary:?}")),
            (
                (0x4234_8fab_8267_8167, 0x8527_27cf_d286_faaa),
                "EngineSummary { ok: 17, quarantined: 0, resumed: 0, retries: 0 }".to_string()
            ),
            "workers={workers}"
        );
    }
}
