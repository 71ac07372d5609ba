//! The model zoo: the six systems compared in the paper's Tables 3–5.
//!
//! "Ours" models are Llama-2 profiles finetuned on the full augmented
//! dataset; the ablation baseline uses completion-only data; the external
//! baselines (GPT-3.5, Thakur et al., pretrained Llama-2) are profiles
//! with their own synthetic pretraining (see
//! [`dda_slm::pretraining_dataset`]).

use dda_core::pipeline::{augment, PipelineOptions, StageSet};
use dda_core::Dataset;
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
    /// The full augmented dataset (exposed for Table 2 / Fig. 3 benches).
    pub full_dataset: Dataset,
    /// The completion-only dataset (the General-Aug ablation).
    pub general_dataset: Dataset,
}

impl fmt::Debug for ModelZoo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelZoo")
            .field("models", &self.models.len())
            .field("full_dataset", &self.full_dataset.len())
            .finish()
    }
}

impl ModelZoo {
    /// Builds the zoo: generates the corpus, runs the augmentation pipeline
    /// (full and completion-only variants), and finetunes every profile.
    pub fn build(opts: &ZooOptions) -> ModelZoo {
        let _build_span = dda_obs::span("zoo.build");
        let mut rng = SmallRng::seed_from_u64(opts.seed);
        let corpus = dda_corpus::generate_corpus(opts.corpus_modules, &mut rng);
        let pipe = PipelineOptions::default();
        let mut rng_full = SmallRng::seed_from_u64(opts.seed ^ 0xF0);
        let (full, _) = augment(&corpus, &pipe, &mut rng_full);
        let mut rng_gen = SmallRng::seed_from_u64(opts.seed ^ 0xF0);
        let (general, _) = augment(
            &corpus,
            &PipelineOptions {
                stages: StageSet::GENERAL_AUG,
                ..pipe
            },
            &mut rng_gen,
        );
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
        let models = vec![
            (ModelId::Gpt35, gpt35),
            (ModelId::Ours7B, ours7),
            (ModelId::Ours13B, ours13),
            (ModelId::Thakur, build(SlmProfile::codegen16b(), &general)),
            (ModelId::Llama2Pt, build(SlmProfile::llama2(13.0), &empty)),
            (ModelId::GeneralAug, build(general13, &general)),
        ];
        ModelZoo {
            models,
            full_dataset: full,
            general_dataset: general,
        }
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

    #[test]
    fn datasets_exposed() {
        let zoo = small_zoo();
        assert!(zoo.full_dataset.len() > zoo.general_dataset.len());
    }
}
