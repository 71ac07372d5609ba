//! # dda-slm
//!
//! The **simulatable language model** (SLM): the substitute for LoRA-
//! finetuned Llama-2 7B/13B and the GPT-3.5 / CodeGen baselines in the
//! paper's evaluation, built so that generation quality is an emergent
//! function of the training dataset rather than of GPU-trained weights.
//!
//! Components: [`tfidf`] retrieval (plus [`sharded`] — incremental,
//! shard-parallel retrieval at serving scale), an [`ngram`] language
//! model (the Fig. 3 loss metric), a token-level
//! [`corrupt`](corrupt::corrupt)ion channel, prompt [`adapt`]ation, a
//! lint-guided [`fixer`], and the [`Slm`] that ties them together per
//! [`SlmProfile`].
//!
//! ## Example
//!
//! ```
//! use dda_slm::{Slm, SlmProfile, GenOptions, PROGRESSIVE_ORDER};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let corpus = dda_corpus::generate_corpus(8, &mut rng);
//! let (data, _report) = dda_core::pipeline::augment(
//!     &corpus, &dda_core::pipeline::PipelineOptions::default(), &mut rng);
//! let model = Slm::finetune(SlmProfile::llama2(13.0), &data, &PROGRESSIVE_ORDER);
//! assert!(model.skills().nl > 0.3);
//! ```

#![warn(missing_docs)]

pub mod adapt;
pub mod corrupt;
pub mod fixer;
pub mod model;
pub mod ngram;
#[doc(hidden)]
pub mod reference;
pub mod script_spec;
pub mod sharded;
pub mod tfidf;

pub use model::{
    pretraining_dataset, GenOptions, Prompt, Skills, Slm, SlmProfile, TrainOptions, PLAN_CACHE_CAP,
    PROGRESSIVE_ORDER,
};
pub use ngram::NgramModel;
pub use sharded::{ShardHit, ShardedTfIdf};
pub use tfidf::{IndexError, TfIdfIndex};
