//! Plan reuse is invisible: every sample drawn from one shared
//! [`Prompt`](dda_slm::Prompt) is byte-identical to a fresh
//! [`Slm::generate_with_context`] call with the same RNG state.
//!
//! The battery crosses the six zoo personalities (built as `ModelZoo` does,
//! on a small corpus) with every instruct the evaluators use — NL→Verilog,
//! EDA script, repair with and without few-shot context, and a completion
//! instruct — over benchmark-suite prompts and several sampling seeds. It
//! also holds every retrieval a plan makes to the linear-scan oracle,
//! repeats the comparison with one plan sampled from several threads at
//! once, and holds the plans whose samples adapted hits both ways (to the
//! full interface spec and to the module name alone) to fresh calls.

use dda_core::align::ALIGN_INSTRUCT;
use dda_core::edascript::EDA_INSTRUCT;
use dda_core::pipeline::{augment, PipelineOptions, StageSet};
use dda_core::repair::{break_verilog, RepairOptions, REPAIR_INSTRUCT};
use dda_core::Dataset;
use dda_slm::reference::LinearTfIdf;
use dda_slm::{pretraining_dataset, GenOptions, Slm, SlmProfile, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::OnceLock;

const SEEDS: u64 = 5;
const COMPLETE_INSTRUCT: &str = "complete the next module of Verilog file.";

/// One prompt of the battery.
struct Case {
    instruct: &'static str,
    input: String,
    context: Vec<String>,
}

/// The zoo's six profiles over its two finetune sets (full and
/// completion-only augmentation), each on top of its pretraining corpus.
fn zoo() -> &'static [Slm] {
    static ZOO: OnceLock<Vec<Slm>> = OnceLock::new();
    ZOO.get_or_init(|| {
        let mut rng = SmallRng::seed_from_u64(2024);
        let corpus = dda_corpus::generate_corpus(16, &mut rng);
        let (full, _) = augment(
            &corpus,
            &PipelineOptions::default(),
            &mut SmallRng::seed_from_u64(2024 ^ 0xF0),
        );
        let (general, _) = augment(
            &corpus,
            &PipelineOptions {
                stages: StageSet::GENERAL_AUG,
                ..PipelineOptions::default()
            },
            &mut SmallRng::seed_from_u64(2024 ^ 0xF0),
        );
        let named = |name: &str, capacity_b: f64| SlmProfile {
            name: name.into(),
            ..SlmProfile::llama2(capacity_b)
        };
        let empty = Dataset::new();
        [
            (SlmProfile::gpt35(), &empty),
            (named("Llama 2-FT (Ours) 7B", 7.0), &full),
            (named("Llama 2-FT (Ours) 13B", 13.0), &full),
            (SlmProfile::codegen16b(), &general),
            (SlmProfile::llama2(13.0), &empty),
            (named("Llama 2-FT (General Aug) 13B", 13.0), &general),
        ]
        .into_iter()
        .map(|(profile, finetune)| {
            let pre = pretraining_dataset(&profile);
            Slm::finetune_with_pretraining(profile, &pre, finetune, &PROGRESSIVE_ORDER)
        })
        .collect()
    })
}

/// Suite prompts for every instruct the evaluators sample from.
fn cases() -> Vec<Case> {
    let thakur = dda_benchmarks::thakur_suite();
    let mut cases = Vec::new();
    for p in thakur.iter().take(6) {
        for prompt in &p.prompts {
            cases.push(Case {
                instruct: ALIGN_INSTRUCT,
                input: prompt.clone(),
                context: Vec::new(),
            });
        }
    }
    for t in dda_benchmarks::sc_suite() {
        cases.push(Case {
            instruct: EDA_INSTRUCT,
            input: t.prompt,
            context: Vec::new(),
        });
    }
    let mut rng = SmallRng::seed_from_u64(99);
    for p in thakur.iter().take(8) {
        let Some(broken) = break_verilog(p.reference, &RepairOptions::default(), &mut rng) else {
            continue;
        };
        let file = format!("{}.v", p.id);
        let report = dda_lint::check_source(&file, &broken.source);
        // Fig. 6 layout: the tool transcript plus the rejected file.
        let input = format!("{}, {}", report.render().trim_end(), broken.source);
        for context in [Vec::new(), vec![p.reference.to_owned()]] {
            cases.push(Case {
                instruct: REPAIR_INSTRUCT,
                input: input.clone(),
                context,
            });
        }
        let half: String = p
            .reference
            .lines()
            .take(p.reference.lines().count().div_ceil(2))
            .collect::<Vec<_>>()
            .join("\n");
        cases.push(Case {
            instruct: COMPLETE_INSTRUCT,
            input: half,
            context: Vec::new(),
        });
    }
    cases
}

fn fresh(model: &Slm, case: &Case, opts: &GenOptions, seed: u64) -> String {
    model.generate_with_context(
        case.instruct,
        &case.input,
        &case.context,
        opts,
        &mut SmallRng::seed_from_u64(seed),
    )
}

#[test]
fn shared_plan_matches_fresh_generate_for_every_instruct() {
    let opts = GenOptions::default();
    let cases = cases();
    let mut repaired = 0;
    for model in zoo() {
        for case in &cases {
            let plan = model.prompt(case.instruct, &case.input, &case.context);
            for seed in 0..SEEDS {
                let shared = plan.generate(&opts, &mut SmallRng::seed_from_u64(seed));
                if case.instruct == REPAIR_INSTRUCT
                    && dda_lint::check_source("fix.v", &shared).is_clean()
                {
                    repaired += 1;
                }
                assert_eq!(
                    shared,
                    fresh(model, case, &opts, seed),
                    "{} / {:?} / seed {seed}: plan sample drifted",
                    model.profile().name,
                    case.instruct
                );
                if case.context.is_empty() {
                    let plain = model.generate(
                        case.instruct,
                        &case.input,
                        &opts,
                        &mut SmallRng::seed_from_u64(seed),
                    );
                    assert_eq!(shared, plain, "{}: generate drifted", model.profile().name);
                }
            }
        }
    }
    // The battery has teeth only if some shared plan reused a fix search.
    assert!(repaired > 0, "no repair sample came back clean");
}

/// The query every plan retrieves with (`"{instruct}\n{input}"`, top 32)
/// gets the hits of an oracle built over the model's training entries,
/// doc for doc and bit for bit, and the plan still samples what a fresh
/// call does.
#[test]
fn plan_queries_match_linear_oracle() {
    let data = {
        let mut rng = SmallRng::seed_from_u64(5);
        let corpus = dda_corpus::generate_corpus(12, &mut rng);
        augment(&corpus, &PipelineOptions::default(), &mut rng).0
    };
    let model = Slm::finetune(SlmProfile::llama2(13.0), &data, &PROGRESSIVE_ORDER);
    let linear = LinearTfIdf::over_training(&Dataset::new(), &data, &PROGRESSIVE_ORDER);
    let opts = GenOptions::default();
    for case in &cases() {
        let query = format!("{}\n{}", case.instruct, case.input);
        let fast = model.index().try_query(&query, 32).unwrap();
        let reference = linear.query(&query, 32);
        assert_eq!(fast.len(), reference.len(), "{:?}", case.instruct);
        for (f, r) in fast.iter().zip(&reference) {
            assert_eq!(f.doc, r.doc, "{:?}", case.instruct);
            assert_eq!(f.score.to_bits(), r.score.to_bits(), "{:?}", case.instruct);
        }
        let plan = model.prompt(case.instruct, &case.input, &case.context);
        for seed in 0..SEEDS {
            assert_eq!(
                plan.generate(&opts, &mut SmallRng::seed_from_u64(seed)),
                fresh(&model, case, &opts, seed),
                "{:?}",
                case.instruct
            );
        }
    }
}

#[test]
fn plan_shared_across_threads_matches_fresh_generate() {
    const THREADS: u64 = 4;
    let opts = GenOptions::default();
    let model = &zoo()[2];
    for case in &cases() {
        // Unprimed: the threads race to fill the plan's lazy fields.
        let plan = model.prompt(case.instruct, &case.input, &case.context);
        let samples: Vec<(u64, String)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let plan = &plan;
                    s.spawn(move || {
                        (0..SEEDS)
                            .map(|i| {
                                let seed = t * SEEDS + i;
                                (
                                    seed,
                                    plan.generate(&opts, &mut SmallRng::seed_from_u64(seed)),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("sampling thread panicked"))
                .collect()
        });
        for (seed, shared) in samples {
            assert_eq!(
                shared,
                fresh(model, case, &opts, seed),
                "{:?} / seed {seed}",
                case.instruct
            );
        }
    }
}

/// A plan adapts each hit it picks at most once per understanding (the
/// full interface spec, or the module name alone) and hands later
/// samples the stored text. Plans whose samples reached both kinds are
/// held, sample by sample, to fresh calls that adapt anew.
#[test]
fn adapted_hits_match_fresh_generate_in_both_variants() {
    const SAMPLES: u64 = 64;
    let opts = GenOptions::default();
    let aligned: Vec<Case> = cases()
        .into_iter()
        .filter(|c| c.instruct == ALIGN_INSTRUCT)
        .collect();
    let mut both = 0;
    for model in zoo() {
        for case in &aligned {
            let plan = model.prompt(case.instruct, &case.input, &case.context);
            let samples: Vec<String> = (0..SAMPLES)
                .map(|seed| plan.generate(&opts, &mut SmallRng::seed_from_u64(seed)))
                .collect();
            let [full, name_only] = plan.adaptations();
            if full == 0 || name_only == 0 {
                continue;
            }
            both += 1;
            for (seed, shared) in (0..SAMPLES).zip(&samples) {
                assert_eq!(
                    shared,
                    &fresh(model, case, &opts, seed),
                    "{} / seed {seed}: adapted sample drifted",
                    model.profile().name
                );
            }
        }
    }
    assert!(
        both > 0,
        "no plan adapted hits both ways: the comparison has no teeth"
    );
}
