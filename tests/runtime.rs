//! Resume-determinism tests for the supervised engine wiring: a journaled
//! run interrupted at a seeded random unit must resume to output that is
//! byte-identical to an uninterrupted run, for worker counts 1, 2, and 8 —
//! the augmentation and every eval sweep, so each journal codec replays.

use chipdda::core::json::to_jsonl;
use chipdda::core::pipeline::PipelineOptions;
use chipdda::core::supervised::{augment_supervised, SupervisedOptions};
use chipdda::core::{Dataset, TaskKind};
use chipdda::eval::{
    eval_repair_suite, eval_script_suite, eval_suite, GenProtocol, RagIndex, RepairProtocol,
    ScriptProtocol, SweepOptions,
};
use chipdda::runtime::RunOptions;
use chipdda::slm::{Slm, SlmProfile, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dda-int-runtime-{}-{name}", std::process::id()))
}

fn opts() -> PipelineOptions {
    PipelineOptions {
        repairs_per_module: 1,
        eda_scripts: 4,
        ..PipelineOptions::default()
    }
}

/// The dataset flattened to JSONL bytes, task group by task group — the
/// strongest form of the "byte-identical" claim.
fn dataset_bytes(ds: &Dataset) -> String {
    let mut out = String::new();
    for kind in TaskKind::ALL {
        out.push_str(&to_jsonl(ds.entries(kind)));
    }
    out
}

/// Runs `run` journaled at `name`, then for each worker count truncates
/// the journal to its first k records (k seeded from `seed`), resumes,
/// and asserts the output equals the uninterrupted run's and exactly k
/// units were replayed. `run` returns its output and the replayed-unit
/// count; the helper returns the journal's unit count.
fn assert_resumes<R: PartialEq + Debug>(
    name: &str,
    seed: u64,
    run: impl Fn(&SweepOptions) -> (R, usize),
) -> usize {
    let path = tmp(name);
    let _ = std::fs::remove_file(&path);
    let (full, _) = run(&SweepOptions {
        journal: Some(path.clone()),
        ..SweepOptions::default()
    });
    let full_journal = std::fs::read_to_string(&path).unwrap();
    let units = full_journal.lines().count();

    for workers in [1usize, 2, 8] {
        // Seeded random interruption point, distinct per worker count.
        let k = SmallRng::seed_from_u64(seed + workers as u64).gen_range(1..units);
        let kept: Vec<&str> = full_journal.lines().take(k).collect();
        std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();

        let (out, resumed) = run(&SweepOptions {
            run: RunOptions {
                workers,
                ..RunOptions::default()
            },
            journal: Some(path.clone()),
            resume: true,
        });
        assert_eq!(out, full, "{name} workers={workers} interrupted at k={k}");
        assert_eq!(resumed, k, "{name} workers={workers}");
    }
    std::fs::remove_file(&path).ok();
    units
}

/// Interrupts a journaled augmentation at a seeded random unit k (by
/// truncating the journal to its first k records), resumes with each
/// worker count, and asserts the result is byte-identical to the
/// uninterrupted run.
#[test]
fn interrupted_augmentation_resumes_byte_identical() {
    let corpus = chipdda::corpus::generate_corpus(10, &mut SmallRng::seed_from_u64(31));
    let units = assert_resumes("augment-resume", 0xC0DE, |sweep| {
        let sup = SupervisedOptions {
            run: sweep.run.clone(),
            journal: sweep.journal.clone(),
            resume: sweep.resume,
            ..SupervisedOptions::default()
        };
        let (ds, report, summary) = augment_supervised(&corpus, &opts(), &sup).unwrap();
        ((dataset_bytes(&ds), report), summary.resumed)
    });
    assert_eq!(units, corpus.len() + 1, "one journal record per unit");
}

fn untrained(name: &str) -> Slm {
    Slm::finetune(
        SlmProfile {
            name: name.into(),
            floor_repair: 0.5,
            ..SlmProfile::llama2(7.0)
        },
        &chipdda::core::Dataset::new(),
        &PROGRESSIVE_ORDER,
    )
}

/// The same property for the generation sweep: interrupt mid-sweep,
/// resume with 1/2/8 workers, identical rows.
#[test]
fn interrupted_eval_sweep_resumes_byte_identical() {
    let model = untrained("resume-generator");
    let problems: Vec<_> = chipdda::benchmarks::thakur_suite()
        .into_iter()
        .take(4)
        .collect();
    let protocol = GenProtocol {
        k: 1,
        ..GenProtocol::default()
    };
    assert_resumes("eval-resume", 0xE7A1, |sweep| {
        let (rows, summary) = eval_suite(&model, &problems, &protocol, sweep).unwrap();
        (rows, summary.resumed)
    });
}

/// The repair sweep, plain and retrieval-augmented: each journal replays
/// to the uninterrupted rows.
#[test]
fn interrupted_repair_sweeps_resume_byte_identical() {
    let model = untrained("resume-fixer");
    let problems: Vec<_> = chipdda::benchmarks::rtllm_suite()
        .into_iter()
        .take(4)
        .collect();
    let protocol = RepairProtocol {
        k: 2,
        ..RepairProtocol::default()
    };
    let rag = RagIndex::build(chipdda::corpus::generate_corpus(
        8,
        &mut SmallRng::seed_from_u64(4242),
    ));
    for (name, rag) in [
        ("repair-resume", None),
        ("repair-rag-resume", Some((&rag, 2))),
    ] {
        assert_resumes(name, 0x4E9A, |sweep| {
            let (rows, summary) =
                eval_repair_suite(&model, &problems, &protocol, rag, sweep).unwrap();
            (rows, summary.resumed)
        });
    }
}

/// The script sweep: its `<syn>:<func>` codec replays to the
/// uninterrupted rows.
#[test]
fn interrupted_script_sweep_resumes_byte_identical() {
    let model = untrained("resume-scripter");
    let tasks = chipdda::benchmarks::sc_suite();
    let protocol = ScriptProtocol {
        max_iters: 3,
        ..ScriptProtocol::default()
    };
    assert_resumes("script-resume", 0x5C41, |sweep| {
        let (rows, summary) = eval_script_suite(&model, &tasks, &protocol, sweep).unwrap();
        (rows, summary.resumed)
    });
}

/// A journal torn mid-record (simulating a crash during a write) is
/// tolerated: the torn tail is dropped and the touched unit re-executes.
#[test]
fn torn_journal_tail_is_tolerated() {
    let corpus = chipdda::corpus::generate_corpus(5, &mut SmallRng::seed_from_u64(9));
    let path = tmp("torn-tail");
    let _ = std::fs::remove_file(&path);
    let journaled = SupervisedOptions {
        journal: Some(path.clone()),
        ..SupervisedOptions::default()
    };
    let (full_ds, ..) = augment_supervised(&corpus, &opts(), &journaled).unwrap();

    // Cut the journal mid-way through its final line.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut cut = text.len() - text.len() / 8;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    std::fs::write(&path, &text[..cut]).unwrap();

    let resumed = SupervisedOptions {
        journal: Some(path.clone()),
        resume: true,
        ..SupervisedOptions::default()
    };
    let (ds, report, _) = augment_supervised(&corpus, &opts(), &resumed).unwrap();
    assert_eq!(dataset_bytes(&ds), dataset_bytes(&full_ds));
    assert!(report.is_conserved());
    std::fs::remove_file(&path).ok();
}
