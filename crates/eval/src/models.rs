//! The model zoo: the six systems compared in the paper's Tables 3–5.
//!
//! "Ours" models are Llama-2 profiles finetuned on the full augmented
//! dataset; the ablation baseline uses completion-only data; the external
//! baselines (GPT-3.5, Thakur et al., pretrained Llama-2) are profiles
//! with their own synthetic pretraining (see
//! [`dda_slm::pretraining_dataset`]).

use dda_core::pipeline::{augment, AugmentReport, PipelineOptions, StageSet};
use dda_core::{Dataset, TaskKind};
use dda_slm::{pretraining_dataset, Slm, SlmProfile, TrainOptions, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;

/// The compared systems, in the paper's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelId {
    /// GPT-3.5 (closed baseline).
    Gpt35,
    /// Llama 2-FT (Ours) 7B.
    Ours7B,
    /// Llama 2-FT (Ours) 13B.
    Ours13B,
    /// Thakur et al. (CodeGen-16B finetuned on completion).
    Thakur,
    /// Pretrained Llama 2 13B.
    Llama2Pt,
    /// Llama 2-FT (General Aug) 13B — completion-only ablation.
    GeneralAug,
}

impl ModelId {
    /// All models in Table 5 column order.
    pub const ALL: [ModelId; 6] = [
        ModelId::Gpt35,
        ModelId::Ours7B,
        ModelId::Ours13B,
        ModelId::Thakur,
        ModelId::Llama2Pt,
        ModelId::GeneralAug,
    ];

    /// Display label used in the tables.
    pub fn label(self) -> &'static str {
        match self {
            ModelId::Gpt35 => "GPT-3.5",
            ModelId::Ours7B => "Ours-7B",
            ModelId::Ours13B => "Ours-13B",
            ModelId::Thakur => "Thakur et al.",
            ModelId::Llama2Pt => "Llama2-PT 13B",
            ModelId::GeneralAug => "Llama2-General Aug.",
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration for building the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZooOptions {
    /// Synthetic-corpus size the "Ours" finetuning data is augmented from.
    pub corpus_modules: usize,
    /// Seed for corpus generation and augmentation.
    pub seed: u64,
    /// Worker threads for per-document tokenisation during finetuning
    /// (forwarded as [`TrainOptions::workers`]; the built models are
    /// identical for any worker count).
    pub train_workers: usize,
}

impl Default for ZooOptions {
    fn default() -> Self {
        ZooOptions {
            corpus_modules: 192,
            seed: 2024,
            train_workers: 1,
        }
    }
}

/// The six models, finetuned and ready to query.
pub struct ModelZoo {
    models: Vec<(ModelId, Slm)>,
}

impl fmt::Debug for ModelZoo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelZoo")
            .field("models", &self.models.len())
            .finish()
    }
}

/// The task groups the completion stage fills, the only ones
/// [`StageSet::GENERAL_AUG`] enables.
const COMPLETION_KINDS: [TaskKind; 3] = [
    TaskKind::WordLevelCompletion,
    TaskKind::StatementLevelCompletion,
    TaskKind::ModuleLevelCompletion,
];

/// The General-Aug (completion-only) dataset of `corpus`, given the full
/// augmentation of the same corpus with the same seed.
///
/// The completion stage draws no randomness and every stage books its
/// entries per module in corpus order, so a completion-only run yields
/// exactly the full run's completion groups. The one exception is
/// recycling: a run that quarantined a module also recycles it into
/// `VerilogDebug`, and which quarantines a completion-only run has
/// depends on its stages. So a full run with any quarantine (never on a
/// generated corpus) reruns the completion-only augmentation instead.
fn completion_only(
    corpus: &[dda_corpus::CorpusModule],
    (full, report): &(Dataset, AugmentReport),
    pipe: &PipelineOptions,
    seed: u64,
) -> Dataset {
    if !report.quarantines.is_empty() {
        let general = PipelineOptions {
            stages: StageSet::GENERAL_AUG,
            ..pipe.clone()
        };
        return augment(corpus, &general, &mut SmallRng::seed_from_u64(seed)).0;
    }
    let mut general = Dataset::new();
    for kind in COMPLETION_KINDS {
        general.extend(kind, full.entries(kind).iter().cloned());
    }
    general
}

impl ModelZoo {
    /// Builds the zoo: generates the corpus, runs the augmentation pipeline
    /// (its completion groups are the completion-only variant), and
    /// finetunes every profile. Every model gets its own plan cache
    /// ([`Slm::with_plan_cache`]).
    pub fn build(opts: &ZooOptions) -> ModelZoo {
        let _build_span = dda_obs::span("zoo.build");
        let mut rng = SmallRng::seed_from_u64(opts.seed);
        let corpus = dda_corpus::generate_corpus(opts.corpus_modules, &mut rng);
        let pipe = PipelineOptions::default();
        let aug_seed = opts.seed ^ 0xF0;
        let augmented = augment(&corpus, &pipe, &mut SmallRng::seed_from_u64(aug_seed));
        let general = completion_only(&corpus, &augmented, &pipe, aug_seed);
        let full = augmented.0;
        let topts = TrainOptions {
            workers: opts.train_workers.max(1),
        };
        // `pretraining_dataset` depends only on `pretrain_modules`: build
        // each distinct set once (Ours-7B, Llama2-PT and General-Aug all
        // read the 96-module one).
        let mut pretraining: HashMap<usize, Dataset> = HashMap::new();
        let mut build = |profile: SlmProfile, finetune: &Dataset| -> Slm {
            let pre = pretraining
                .entry(profile.pretrain_modules)
                .or_insert_with(|| pretraining_dataset(&profile));
            Slm::finetune_with_options(profile, pre, finetune, &PROGRESSIVE_ORDER, &topts)
        };
        let empty = Dataset::new();
        let general13 = SlmProfile {
            name: "Llama 2-FT (General Aug) 13B".into(),
            ..SlmProfile::llama2(13.0)
        };
        let gpt35 = build(SlmProfile::gpt35(), &empty);
        let ours7 = build(
            SlmProfile {
                name: "Llama 2-FT (Ours) 7B".into(),
                ..SlmProfile::llama2(7.0)
            },
            &full,
        );
        // Ours-13B differs from Ours-7B only in capacity: same data, same
        // floors, same pretraining, so it shares the trained index.
        let ours13 = ours7.with_capacity("Llama 2-FT (Ours) 13B", 13.0);
        let models = [
            (ModelId::Gpt35, gpt35),
            (ModelId::Ours7B, ours7),
            (ModelId::Ours13B, ours13),
            (ModelId::Thakur, build(SlmProfile::codegen16b(), &general)),
            (ModelId::Llama2Pt, build(SlmProfile::llama2(13.0), &empty)),
            (ModelId::GeneralAug, build(general13, &general)),
        ];
        // The tables prompt each model with fixed suites, again per
        // protocol seed, round budget and table: every model plans each
        // distinct prompt once (DESIGN.md §5s).
        let models = models
            .into_iter()
            .map(|(id, model)| (id, model.with_plan_cache()))
            .collect();
        ModelZoo { models }
    }

    /// Fetches a model.
    pub fn model(&self, id: ModelId) -> &Slm {
        &self
            .models
            .iter()
            .find(|(m, _)| *m == id)
            .expect("all models are built")
            .1
    }

    /// Iterates `(id, model)` in column order.
    pub fn iter(&self) -> impl Iterator<Item = (ModelId, &Slm)> {
        self.models.iter().map(|(id, m)| (*id, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_zoo() -> ModelZoo {
        ModelZoo::build(&ZooOptions {
            corpus_modules: 32,
            seed: 7,
            ..ZooOptions::default()
        })
    }

    #[test]
    fn zoo_builds_all_models() {
        let zoo = small_zoo();
        assert_eq!(zoo.iter().count(), 6);
        for id in ModelId::ALL {
            let _ = zoo.model(id);
        }
    }

    #[test]
    fn ours_models_outskill_baselines_on_alignment() {
        let zoo = small_zoo();
        let ours = zoo.model(ModelId::Ours13B).skills();
        let general = zoo.model(ModelId::GeneralAug).skills();
        let pt = zoo.model(ModelId::Llama2Pt).skills();
        assert!(ours.nl > general.nl, "{ours:?} vs {general:?}");
        assert!(ours.nl > pt.nl);
        assert!(ours.eda > 0.9);
        assert!(general.eda < 0.3);
        assert!(ours.repair > pt.repair);
    }

    #[test]
    fn capacity_separates_ours_7_and_13() {
        let zoo = small_zoo();
        assert_eq!(zoo.model(ModelId::Ours7B).profile().capacity_b, 7.0);
        assert_eq!(zoo.model(ModelId::Ours13B).profile().capacity_b, 13.0);
        // Same data, same derived skills.
        let s7 = zoo.model(ModelId::Ours7B).skills();
        let s13 = zoo.model(ModelId::Ours13B).skills();
        assert!((s7.nl - s13.nl).abs() < 1e-9);
    }

    fn general_aug(corpus: &[dda_corpus::CorpusModule], seed: u64) -> Dataset {
        let pipe = PipelineOptions {
            stages: StageSet::GENERAL_AUG,
            ..PipelineOptions::default()
        };
        augment(corpus, &pipe, &mut SmallRng::seed_from_u64(seed)).0
    }

    /// The derived General-Aug dataset is the completion-only augmentation,
    /// entry for entry, across seeds and corpus sizes.
    #[test]
    fn completion_only_matches_general_aug_run() {
        let pipe = PipelineOptions::default();
        for (seed, modules) in [(7, 12), (2024, 24), (11, 48), (3, 5), (99, 96), (2024, 192)] {
            let corpus = dda_corpus::generate_corpus(modules, &mut SmallRng::seed_from_u64(seed));
            let full = augment(&corpus, &pipe, &mut SmallRng::seed_from_u64(seed));
            assert!(full.1.quarantines.is_empty());
            let derived = completion_only(&corpus, &full, &pipe, seed);
            assert!(!derived.is_empty());
            assert!(derived.len() < full.0.len());
            assert_eq!(derived, general_aug(&corpus, seed), "seed {seed}/{modules}");
        }
    }

    /// A corpus whose completion stage quarantines a module recycles it
    /// into `VerilogDebug` in a completion-only run too, so the completion
    /// groups alone would miss it: the derivation reruns the augmentation.
    #[test]
    fn quarantined_corpus_reruns_general_aug() {
        let pipe = PipelineOptions::default();
        let mut corpus = dda_corpus::generate_corpus(8, &mut SmallRng::seed_from_u64(5));
        corpus[3].source = "(".to_owned();
        let full = augment(&corpus, &pipe, &mut SmallRng::seed_from_u64(5));
        let general = general_aug(&corpus, 5);
        assert_eq!(general.entries(TaskKind::VerilogDebug).len(), 1);
        let unreported = (full.0.clone(), AugmentReport::default());
        assert_ne!(completion_only(&corpus, &unreported, &pipe, 5), general);
        assert_eq!(completion_only(&corpus, &full, &pipe, 5), general);
    }
}
