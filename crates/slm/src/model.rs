//! The simulatable language model (SLM).
//!
//! Stands in for LoRA-finetuned Llama-2 (and the GPT-3.5 / CodeGen
//! baselines) on hardware the reproduction does not have. The SLM makes
//! generation quality an **emergent function of the training data**, which
//! is the paper's actual subject:
//!
//! * *finetuning* builds a TF-IDF retrieval index over the instruction
//!   dataset plus an n-gram LM over outputs;
//! * *generation* retrieves the best-matching training example, adapts its
//!   interface to the prompt, and passes it through a corruption channel;
//! * retrieval **jitter** shrinks with NL-alignment data volume, the
//!   **corruption rate** shrinks with code-data volume and model capacity,
//!   **repair** is a lint-guided search whose budget scales with repair
//!   data and capacity, and recency weighting makes the paper's progressive
//!   training order observable.
//!
//! Baseline personalities (GPT-3.5, pretrained Llama-2, Thakur et al.) are
//! skill *floors* plus a synthetic pretraining dataset — see
//! [`SlmProfile`] and [`pretraining_dataset`]. Floors are calibration
//! inputs (documented in DESIGN.md); everything downstream — pass rates,
//! syntax-error counts, repair success — is measured behaviour through the
//! real linter and simulator.

use crate::adapt::{adapt_interface, parse_interface, InterfaceSpec};
use crate::corrupt::corrupt;
use crate::fixer::{try_fix, FixOutcome};
use crate::ngram::{padded_syms, NgramModel};
use crate::tfidf::{Hit, TfIdfIndex};
use dda_core::align::ALIGN_INSTRUCT;
use dda_core::edascript::EDA_INSTRUCT;
use dda_core::intern::Sym;
use dda_core::repair::REPAIR_INSTRUCT;
use dda_core::tokenize::{lookup_syms, tokenize_lower, tokenize_syms};
use dda_core::{DataEntry, Dataset, TaskKind};
use dda_runtime::{run_supervised, RunOptions, UnitOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A model personality: capacity plus pretrained skill floors.
#[derive(Debug, Clone, PartialEq)]
pub struct SlmProfile {
    /// Display name.
    pub name: String,
    /// Parameter count in billions (7, 13, 16, 175, ...).
    pub capacity_b: f64,
    /// Pretrained NL→Verilog alignment floor.
    pub floor_nl: f64,
    /// Pretrained code-fluency floor.
    pub floor_code: f64,
    /// Pretrained repair-skill floor.
    pub floor_repair: f64,
    /// Pretrained EDA-script floor.
    pub floor_eda: f64,
    /// Weight of training recency in retrieval (§3.1 progressive training).
    pub recency_weight: f64,
    /// Size (modules) of the synthetic pretraining corpus the profile has
    /// "read" — content coverage, distinct from instruction skill.
    pub pretrain_modules: usize,
}

impl SlmProfile {
    /// Pretrained Llama-2 of the given size: weak floors everywhere.
    pub fn llama2(capacity_b: f64) -> SlmProfile {
        SlmProfile {
            name: format!("Llama 2-PT {capacity_b:.0}B"),
            capacity_b,
            floor_nl: 0.08,
            floor_code: 0.30,
            floor_repair: 0.12,
            floor_eda: 0.02,
            recency_weight: 0.15,
            pretrain_modules: 96,
        }
    }

    /// GPT-3.5: strong general NL and code, no EDA-domain specialisation.
    pub fn gpt35() -> SlmProfile {
        SlmProfile {
            name: "GPT-3.5".into(),
            capacity_b: 175.0,
            floor_nl: 0.85,
            floor_code: 0.92,
            floor_repair: 0.42,
            floor_eda: 0.05,
            recency_weight: 0.0,
            pretrain_modules: 168,
        }
    }

    /// CodeGen-16B as finetuned by Thakur et al.: Verilog-fluent,
    /// completion-oriented, weak instruction alignment.
    pub fn codegen16b() -> SlmProfile {
        SlmProfile {
            name: "Thakur et al. (CodeGen-16B)".into(),
            capacity_b: 16.0,
            floor_nl: 0.35,
            floor_code: 0.82,
            floor_repair: 0.05,
            floor_eda: 0.0,
            recency_weight: 0.1,
            pretrain_modules: 144,
        }
    }
}

/// Data-derived capability levels (each in `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Skills {
    /// NL→Verilog alignment (drives retrieval fidelity + adaptation).
    pub nl: f64,
    /// Code fluency (drives corruption rate on Verilog outputs).
    pub code: f64,
    /// Repair (drives lint-guided search attempt rate and budget).
    pub repair: f64,
    /// EDA-script generation.
    pub eda: f64,
}

fn skill(floor: f64, n: usize, n_ref: usize) -> f64 {
    let data = ((1.0 + n as f64).ln() / (1.0 + n_ref as f64).ln()).min(1.0);
    (floor + (1.0 - floor) * data).clamp(0.0, 1.0)
}

/// Generation options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenOptions {
    /// Sampling temperature; the paper's evaluation uses 0.1.
    pub temperature: f64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions { temperature: 0.1 }
    }
}

struct TrainDoc {
    /// Index of the entry's instruct in [`Trained::instructs`].
    instruct: u32,
    output: String,
}

/// Finetuning options (how the training work is executed — never what it
/// produces; every setting yields an identical model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainOptions {
    /// Worker threads for per-document tokenisation (1 = in-line). The
    /// fan-out runs on the `dda-runtime` supervised pool and merges
    /// token streams in document order, so the built model is identical
    /// for any worker count.
    pub workers: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions { workers: 1 }
    }
}

/// What finetuning builds from the data: read-only once built, so models
/// trained on the same data share one copy.
struct Trained {
    docs: Vec<TrainDoc>,
    /// The distinct training instructs, in first-seen order.
    instructs: Vec<String>,
    index: TfIdfIndex,
    ngram: NgramModel,
}

/// A finetuned simulatable LM.
pub struct Slm {
    profile: SlmProfile,
    skills: Skills,
    trained: Arc<Trained>,
    /// Plans of earlier context-free prompts (see [`Slm::with_plan_cache`]).
    plans: Option<PlanCache>,
}

impl std::fmt::Debug for Slm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slm")
            .field("profile", &self.profile.name)
            .field("skills", &self.skills)
            .field("docs", &self.trained.docs.len())
            .finish()
    }
}

/// The default progressive training order (§3.1: bulk completion first,
/// refined aligned data last so it is most recent).
pub const PROGRESSIVE_ORDER: [TaskKind; 7] = [
    TaskKind::WordLevelCompletion,
    TaskKind::StatementLevelCompletion,
    TaskKind::ModuleLevelCompletion,
    TaskKind::VerilogMaskCompletion,
    TaskKind::VerilogDebug,
    TaskKind::NlEdaScriptGeneration,
    TaskKind::NlVerilogGeneration,
];

impl Slm {
    /// "Finetunes" the profile on `dataset`: builds the retrieval index in
    /// the given task order and derives skills from per-task data volume.
    pub fn finetune(profile: SlmProfile, dataset: &Dataset, order: &[TaskKind]) -> Slm {
        Slm::finetune_with_pretraining(profile, &Dataset::new(), dataset, order)
    }

    /// "Finetunes" on `finetune` on top of a `pretraining` set.
    ///
    /// Both datasets feed the retrieval index (a base model has *read* the
    /// public corpus), but **skills derive from the finetune set only** —
    /// knowing code is not the same as following design instructions, which
    /// is exactly the gap the paper's augmentation closes.
    pub fn finetune_with_pretraining(
        profile: SlmProfile,
        pretraining: &Dataset,
        finetune: &Dataset,
        order: &[TaskKind],
    ) -> Slm {
        Slm::finetune_with_options(
            profile,
            pretraining,
            finetune,
            order,
            &TrainOptions::default(),
        )
    }

    /// [`Slm::finetune_with_pretraining`] with explicit [`TrainOptions`].
    ///
    /// With `workers > 1`, per-document tokenisation fans out over the
    /// `dda-runtime` supervised pool; token streams merge back in document
    /// order, so the resulting model is identical for any worker count
    /// (checked by the `train_fanout` equivalence tests).
    pub fn finetune_with_options(
        profile: SlmProfile,
        pretraining: &Dataset,
        finetune: &Dataset,
        order: &[TaskKind],
        opts: &TrainOptions,
    ) -> Slm {
        /// The n-gram LM trains on the first this-many documents (the
        /// historical training budget).
        const NGRAM_BUDGET: usize = 2_000;
        const NGRAM_ORDER: usize = 3;
        let _train_span = dda_obs::span("slm.finetune");
        let mut entries: Vec<&DataEntry> = Vec::new();
        for dataset in [pretraining, finetune] {
            for kind in order {
                entries.extend(dataset.entries(*kind).iter());
            }
        }
        // Per-document tokenisation is pure, so it can fan out; everything
        // order-sensitive (term ids, doc ids, n-gram counts) happens in the
        // sequential merge below.
        let ngram_tokens =
            |i: usize| (i < NGRAM_BUDGET).then(|| padded_syms(&entries[i].output, NGRAM_ORDER));
        dda_obs::count("slm.train.docs", entries.len() as u64);
        let mut index = TfIdfIndex::new();
        let mut ngram = NgramModel::new(NGRAM_ORDER);
        let mut merge = |index_toks: &[Sym], ngram_toks: Option<Vec<Sym>>| {
            index.add_tokens(index_toks);
            if let Some(toks) = ngram_toks {
                ngram.train_padded(&toks);
            }
        };
        if opts.workers > 1 {
            let _fanout_span = dda_obs::span("slm.tokenize.fanout");
            let tokenize_one = |i: usize| {
                let mut index_toks = Vec::new();
                index_tokens(entries[i], &mut index_toks);
                (index_toks, ngram_tokens(i))
            };
            let run = RunOptions {
                workers: opts.workers,
                ..RunOptions::default()
            };
            let units = run_supervised(entries.len(), &run, |unit, _token| {
                Ok::<_, dda_runtime::UnitError>(tokenize_one(unit))
            })
            .units;
            for u in units {
                let (index_toks, ngram_toks) = match u.outcome {
                    UnitOutcome::Ok(v) => v,
                    // Tokenisation cannot fail, but stay total: redo in-line.
                    UnitOutcome::Quarantined { .. } => tokenize_one(u.unit),
                };
                merge(&index_toks, ngram_toks);
            }
        } else {
            // In-line, each document streams through one reused buffer.
            let mut index_toks = Vec::new();
            for (i, e) in entries.iter().enumerate() {
                index_toks.clear();
                index_tokens(e, &mut index_toks);
                merge(&index_toks, ngram_tokens(i));
            }
        }
        // Every entry of a task shares its instruct text: keep each
        // distinct text once and an index per document.
        let mut instructs: Vec<String> = Vec::new();
        let mut instruct_ids: HashMap<&str, u32> = HashMap::new();
        let docs: Vec<TrainDoc> = entries
            .iter()
            .map(|e| {
                let instruct = *instruct_ids.entry(&e.instruct).or_insert_with(|| {
                    instructs.push(e.instruct.clone());
                    instructs.len() as u32 - 1
                });
                TrainDoc {
                    instruct,
                    output: e.output.clone(),
                }
            })
            .collect();
        index.finish();
        let n_align = finetune.entries(TaskKind::NlVerilogGeneration).len();
        let n_code = finetune.entries(TaskKind::WordLevelCompletion).len()
            + finetune.entries(TaskKind::StatementLevelCompletion).len()
            + finetune.entries(TaskKind::ModuleLevelCompletion).len()
            + finetune.entries(TaskKind::VerilogMaskCompletion).len()
            + n_align;
        let n_repair = finetune.entries(TaskKind::VerilogDebug).len();
        let n_eda = finetune.entries(TaskKind::NlEdaScriptGeneration).len();
        let skills = Skills {
            nl: skill(profile.floor_nl, n_align, 500),
            code: skill(profile.floor_code, n_code, 20_000),
            repair: skill(profile.floor_repair, n_repair, 500),
            eda: skill(profile.floor_eda, n_eda, 200),
        };
        Slm {
            profile,
            skills,
            trained: Arc::new(Trained {
                docs,
                instructs,
                index,
                ngram,
            }),
            plans: None,
        }
    }

    /// The same model at another size: shares this model's index,
    /// training examples and n-gram model (no copy, no retraining) and
    /// keeps its skills. Only the profile's `name` and `capacity_b`
    /// change — exactly what separates two sizes of one model family
    /// finetuned on the same data (Ours-7B and Ours-13B). A model with a
    /// plan cache gives the new one its own empty cache: the fix-search
    /// budget, and so a repair plan, depends on capacity.
    pub fn with_capacity(&self, name: impl Into<String>, capacity_b: f64) -> Slm {
        Slm {
            profile: SlmProfile {
                name: name.into(),
                capacity_b,
                ..self.profile.clone()
            },
            skills: self.skills,
            trained: Arc::clone(&self.trained),
            plans: self.plans.as_ref().map(|_| PlanCache::default()),
        }
    }

    /// This model with a plan cache: [`Slm::prompt`] without context
    /// then keeps the plan of each `(instruct, input)` it sees, up to
    /// [`PLAN_CACHE_CAP`] plans, and later prompts with the same key
    /// share it — its retrieval, interface fits, script spec and fix
    /// search run once over the model's life instead of once per prompt.
    /// Samples are byte-identical either way. Past the cap a prompt gets
    /// a fresh plan that is not kept; nothing is evicted.
    ///
    /// The cache costs memory that grows with the distinct prompts a
    /// model sees, up to the cap, so it suits fixed evaluation suites
    /// (`dda_eval::ModelZoo` turns it on) rather than a server fed by
    /// clients. Models from the `finetune*` constructors have none.
    pub fn with_plan_cache(mut self) -> Slm {
        self.plans = Some(PlanCache::default());
        self
    }

    /// A base model: the profile with its synthetic pretraining corpus and
    /// no instruction finetuning.
    pub fn pretrained(profile: SlmProfile) -> Slm {
        let ds = pretraining_dataset(&profile);
        Slm::finetune_with_pretraining(profile, &ds, &Dataset::new(), &PROGRESSIVE_ORDER)
    }

    /// The derived capability levels.
    pub fn skills(&self) -> Skills {
        self.skills
    }

    /// Profile used to build this model.
    pub fn profile(&self) -> &SlmProfile {
        &self.profile
    }

    /// Number of indexed training examples.
    pub fn training_size(&self) -> usize {
        self.trained.docs.len()
    }

    /// The retrieval index generation queries (equivalence testing only:
    /// the suites compare it with [`LinearTfIdf`](crate::reference::LinearTfIdf)).
    #[doc(hidden)]
    pub fn index(&self) -> &TfIdfIndex {
        &self.trained.index
    }

    /// Held-out cross-entropy of the internal n-gram LM (Fig. 3 metric).
    pub fn loss(&self, held_out: &[&str]) -> f64 {
        self.trained.ngram.loss(held_out)
    }

    fn cap_mult(&self) -> f64 {
        (13.0 / self.profile.capacity_b).powf(0.65).clamp(0.25, 1.8)
    }

    /// Generates a response for `(instruct, input)`.
    ///
    /// Deterministic per `rng` state; draw `k` samples with fresh seeds for
    /// pass@k protocols. One sample of [`Slm::prompt`]: a loop drawing
    /// several samples from one prompt should build the plan once and call
    /// [`Prompt::generate`] per sample instead.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        instruct: &str,
        input: &str,
        opts: &GenOptions,
        rng: &mut R,
    ) -> String {
        self.prompt(instruct, input, &[]).generate(opts, rng)
    }

    /// [`generate`](Self::generate) with retrieved few-shot `context`
    /// documents prepended to the prompt (the RAG path: AutoVCoder-style
    /// retrieval-augmented generation, fed by
    /// [`ShardedTfIdf`](crate::ShardedTfIdf) over the training corpus).
    ///
    /// With an empty `context` this is bit-identical to `generate` — the
    /// no-RAG column of table3 is the plain path, not a degraded one.
    /// Context currently conditions the **repair** task (the table3 RAG
    /// column): reference modules token-similar to the broken file raise
    /// the chance the model sees the fix and the lint-search budget it
    /// spends, scaled by how much of the broken file the best context
    /// document covers. Other instructs ignore the context.
    pub fn generate_with_context<R: Rng + ?Sized>(
        &self,
        instruct: &str,
        input: &str,
        context: &[String],
        opts: &GenOptions,
        rng: &mut R,
    ) -> String {
        self.prompt(instruct, input, context).generate(opts, rng)
    }

    /// Plans generation for one prompt: everything a sample computes that
    /// does not depend on the RNG, shared by every sample drawn from it.
    ///
    /// The plan is lazy — the retrieval, interface fits, interface
    /// adaptations and the repair search run on the first sample that
    /// needs them — so one sample costs
    /// what a [`Slm::generate`] call costs, and `k` samples pay for the
    /// shared work once instead of `k` times. `context` conditions the repair
    /// instruct only (see [`Slm::generate_with_context`]). A plan is
    /// `Sync`: parallel workers may sample from one plan.
    ///
    /// On a model [`with_plan_cache`](Slm::with_plan_cache), a prompt with
    /// empty `context` shares the plan of every earlier prompt with the same
    /// `(instruct, input)`, so the shared work runs once per model, not once
    /// per call.
    ///
    /// ```
    /// use dda_core::align::ALIGN_INSTRUCT;
    /// use dda_slm::{GenOptions, Slm, SlmProfile, PROGRESSIVE_ORDER};
    /// use rand::{rngs::SmallRng, SeedableRng};
    ///
    /// let model = Slm::pretrained(SlmProfile::llama2(7.0));
    /// let plan = model.prompt(ALIGN_INSTRUCT, "a four bit counter", &[]);
    /// let opts = GenOptions::default();
    /// for seed in 0..5 {
    ///     let sample = plan.generate(&opts, &mut SmallRng::seed_from_u64(seed));
    ///     let fresh = model.generate(
    ///         ALIGN_INSTRUCT,
    ///         "a four bit counter",
    ///         &opts,
    ///         &mut SmallRng::seed_from_u64(seed),
    ///     );
    ///     assert_eq!(sample, fresh);
    /// }
    /// ```
    pub fn prompt<'a>(
        &'a self,
        instruct: &'a str,
        input: &'a str,
        context: &[String],
    ) -> Prompt<'a> {
        let build = || PlanState::new(self, instruct, input, context);
        let state = match &self.plans {
            Some(cache) if context.is_empty() => cache.plan(instruct, input, build),
            _ => Arc::new(build()),
        };
        Prompt {
            model: self,
            instruct,
            input,
            state,
        }
    }

    fn route_skill(&self, instruct: &str) -> f64 {
        if instruct == ALIGN_INSTRUCT {
            self.skills.nl
        } else if instruct == EDA_INSTRUCT {
            self.skills.eda
        } else if instruct.starts_with("complete the next") {
            self.skills.code
        } else {
            // Unknown task: the weakest relevant capability.
            self.skills.nl.min(self.skills.code)
        }
    }
}

/// The most plans one model's cache keeps (see [`Slm::with_plan_cache`]).
/// Past it, a prompt gets a fresh plan that is not kept.
pub const PLAN_CACHE_CAP: usize = 4096;

/// A model's cached plans, keyed `instruct → input`.
#[derive(Default)]
struct PlanCache {
    plans: Mutex<CachedPlans>,
}

#[derive(Default)]
struct CachedPlans {
    by_instruct: HashMap<Box<str>, HashMap<Box<str>, Arc<PlanState>>>,
    len: usize,
}

impl PlanCache {
    /// The cached plan of `(instruct, input)`, else a new one from
    /// `build`, kept while the cache holds fewer than [`PLAN_CACHE_CAP`].
    /// The lock covers the lookup and the insert only: `build` and every
    /// sample run without it.
    fn plan(
        &self,
        instruct: &str,
        input: &str,
        build: impl FnOnce() -> PlanState,
    ) -> Arc<PlanState> {
        let cached = self
            .lock()
            .by_instruct
            .get(instruct)
            .and_then(|inputs| inputs.get(input))
            .cloned();
        if let Some(state) = cached {
            dda_obs::count("slm.plan.cached", 1);
            return state;
        }
        let state = Arc::new(build());
        let mut plans = self.lock();
        if plans.len >= PLAN_CACHE_CAP {
            return state;
        }
        let inputs = plans.by_instruct.entry(instruct.into()).or_default();
        // Another thread may have planned the same prompt meanwhile: keep
        // the first plan, so every later prompt shares one.
        if let Some(first) = inputs.get(input) {
            return Arc::clone(first);
        }
        inputs.insert(input.into(), Arc::clone(&state));
        plans.len += 1;
        state
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CachedPlans> {
        // A panic cannot leave the maps half-updated: stay usable.
        self.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A per-prompt generation plan (see [`Slm::prompt`]).
///
/// Holds what every sample of one `(instruct, input, context)` shares:
/// the task-filtered top-8 retrieval and the prompt-hashed comprehension
/// roll, the parsed interface spec, each hit's interface fit and its
/// output adapted to the spec (in full, or the module name alone), the EDA
/// script spec, and — for repair prompts — the file name, context
/// affinity, attempt roll and the outcome of the lint-guided fix search.
/// [`Prompt::generate`] makes only the RNG draws, in the order
/// [`Slm::generate`] always made them, so a sample from a shared plan is
/// byte-identical to a fresh `generate` call with the same RNG state.
pub struct Prompt<'a> {
    model: &'a Slm,
    instruct: &'a str,
    input: &'a str,
    /// Shared with every cached prompt of the same key.
    state: Arc<PlanState>,
}

impl std::fmt::Debug for Prompt<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prompt")
            .field("model", &self.model.profile.name)
            .field("instruct", &self.instruct)
            .field(
                "retrieved",
                &self.state.retrieval.get().map(|r| r.hits.len()),
            )
            .finish()
    }
}

/// The sample-invariant state of one prompt's plan: a function of the
/// model and the prompt alone, so cached prompts share it.
struct PlanState {
    /// The prompt's instruct in the model's instruct table, `None` when
    /// the model never trained on it (then it matches no document).
    instruct: Option<u32>,
    /// `Some` exactly for [`REPAIR_INSTRUCT`] prompts.
    repair: Option<RepairPlan>,
    /// EDA prompts: the extracted script spec, `None` when insufficient.
    script: OnceLock<Option<crate::script_spec::ScriptSpec>>,
    retrieval: OnceLock<Retrieval>,
    spec: OnceLock<InterfaceSpec>,
}

impl PlanState {
    fn new(model: &Slm, instruct: &str, input: &str, context: &[String]) -> PlanState {
        dda_obs::count("slm.plan.built", 1);
        PlanState {
            instruct: model
                .trained
                .instructs
                .iter()
                .position(|t| t == instruct)
                .map(|i| i as u32),
            repair: (instruct == REPAIR_INSTRUCT).then(|| RepairPlan::new(model, input, context)),
            script: OnceLock::new(),
            retrieval: OnceLock::new(),
            spec: OnceLock::new(),
        }
    }
}

/// The sample-invariant half of retrieval.
struct Retrieval {
    /// Top-32 hits, task-filtered, truncated to 8.
    hits: Vec<Hit>,
    /// Prompt-hashed comprehension roll.
    det: f64,
    /// Interface fit per hit, computed only for hits a sample compares.
    fits: Vec<OnceLock<i32>>,
    /// Per hit, its output adapted to the prompt's interface spec: `[0]`
    /// to the full spec, `[1]` to the module name alone. Filled by the
    /// first sample that picks the hit with that understanding.
    adapted: Vec<[OnceLock<String>; 2]>,
}

impl Retrieval {
    /// Hit `i`'s `output` adapted to `spec`, or to its module name alone
    /// when `name_only`; adapted once per plan.
    fn adapted(&self, i: usize, name_only: bool, output: &str, spec: &InterfaceSpec) -> &str {
        self.adapted[i][usize::from(name_only)].get_or_init(|| {
            dda_obs::count("slm.plan.adapt", 1);
            if name_only {
                let partial = InterfaceSpec {
                    module: spec.module.clone(),
                    ..InterfaceSpec::default()
                };
                adapt_interface(output, &partial)
            } else {
                adapt_interface(output, spec)
            }
        })
    }
}

/// The sample-invariant half of the repair path.
struct RepairPlan {
    /// Where the broken file starts in the input (after its diagnostics).
    wrong_at: usize,
    /// File name recovered from the diagnostics.
    file_name: String,
    /// Repair skill after the few-shot context boost.
    eff_repair: f64,
    attempt_prob: f64,
    /// Prompt-hashed attempt roll.
    roll: f64,
    /// The lint-guided search's clean source, `None` when it found none;
    /// run by the first attempting sample.
    fix: OnceLock<Option<String>>,
}

impl RepairPlan {
    fn new(model: &Slm, input: &str, context: &[String]) -> Self {
        // Input layout (Fig. 6): "[yosys info], [wrong Verilog file]" or
        // just the wrong file.
        let wrong_at = input.find("module ").unwrap_or(0);
        let wrong = &input[wrong_at..];
        // The diagnostics carry the original file name ("/counter_12.v:1:"),
        // which recovers even a deleted module name.
        let file_name = input
            .strip_prefix('/')
            .and_then(|rest| rest.split(':').next())
            .filter(|n| n.ends_with(".v"))
            .unwrap_or("input.v")
            .to_owned();
        // Few-shot context moves the effective repair skill: a reference
        // module covering most of the broken file's tokens is the
        // worked example the paper's Fig. 6 prompt supplies. Empty
        // context contributes exactly 0.0, keeping the no-RAG path
        // bit-identical.
        let ctx_quality = context_affinity(wrong, context);
        let eff_repair = model.skills.repair + (1.0 - model.skills.repair) * 0.35 * ctx_quality;
        let attempt_prob =
            (eff_repair * (model.profile.capacity_b / 13.0).sqrt().min(1.25)).clamp(0.0, 0.98);
        // Whether a given model can see the fix for a given broken file is
        // (nearly) deterministic — resampling at temperature 0.1 does not
        // rescue a model that lacks the skill. The hash keys on the broken
        // file alone (fault difficulty is intrinsic; skill moves the
        // threshold), so all pass@k samples agree — the paper's quantized
        // 0-or-5 syntax cells show exactly that.
        let mut h = 0xcbf29ce484222325u64;
        for b in input.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let roll = (h >> 11) as f64 / (1u64 << 53) as f64;
        RepairPlan {
            wrong_at,
            file_name,
            eff_repair,
            attempt_prob,
            roll,
            fix: OnceLock::new(),
        }
    }

    fn generate<R: Rng + ?Sized>(
        &self,
        model: &Slm,
        input: &str,
        opts: &GenOptions,
        rng: &mut R,
    ) -> String {
        let wrong = &input[self.wrong_at..];
        // A sliver of per-sample luck on top: resampling at low temperature
        // occasionally unlocks an attempt the greedy decode missed.
        let resample_luck = rng.gen::<f64>() < self.attempt_prob * 0.1;
        if self.roll < self.attempt_prob || resample_luck {
            // The search is deterministic in (file, budget), so every
            // attempting sample shares the first one's outcome.
            let fix = self.fix.get_or_init(|| {
                let budget = 150
                    + (1500.0 * self.eff_repair * (model.profile.capacity_b / 13.0).sqrt().min(1.5))
                        as usize;
                let FixOutcome { source, clean, .. } = try_fix(&self.file_name, wrong, budget);
                clean.then_some(source)
            });
            if let Some(source) = fix {
                return source.clone();
            }
        }
        // No (successful) attempt: echo the broken file, possibly making it
        // worse at higher temperatures.
        let extra = (0..2)
            .filter(|_| {
                rng.gen::<f64>() < 0.3 * (1.0 - model.skills.repair) * (opts.temperature + 0.4)
            })
            .count();
        if extra == 0 {
            wrong.to_owned()
        } else {
            corrupt(wrong, extra, rng)
        }
    }
}

impl Prompt<'_> {
    /// Draws one sample. Deterministic per `rng` state, and byte-identical
    /// to [`Slm::generate_with_context`] on the plan's prompt with the same
    /// `rng` state.
    pub fn generate<R: Rng + ?Sized>(&self, opts: &GenOptions, rng: &mut R) -> String {
        let model = self.model;
        let instruct = self.instruct;
        let state = &*self.state;
        if let Some(repair) = &state.repair {
            return repair.generate(model, self.input, opts, rng);
        }
        if instruct == EDA_INSTRUCT {
            // A model with EDA-script skill inverts the describer and
            // constructs the script directly; fidelity gates how faithfully
            // constraints survive. Unskilled models fall through to plain
            // retrieval + corruption.
            if rng.gen::<f64>() < 0.03 + 0.97 * model.skills.eda {
                let spec = state.script.get_or_init(|| {
                    let spec = crate::script_spec::extract_script_spec(self.input);
                    spec.sufficient().then_some(spec)
                });
                if let Some(spec) = spec {
                    let script = crate::script_spec::construct_script(spec, model.skills.eda, rng);
                    return script.to_python();
                }
            }
        }
        let task_skill = model.route_skill(instruct);
        let quality_skill = if instruct == EDA_INSTRUCT {
            model.skills.eda
        } else {
            model.skills.code
        };
        let r = self.retrieval();
        let hits = &r.hits;
        let n = model.trained.docs.len().max(1) as f64;
        let jitter = (1.0 - task_skill) * 0.35 * model.cap_mult().max(0.6);
        let chosen = hits
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let recency = model.profile.recency_weight * (h.doc as f64 / n) * 0.2;
                let noise = (rng.gen::<f64>() - 0.5) * 2.0 * jitter;
                // A finetuned model conditions on the instruction: examples
                // of the requested task outrank lexically-similar examples
                // of another task (raw completion prefixes share many port
                // tokens with any interface block).
                let task_bonus = if Some(model.trained.docs[h.doc].instruct) == state.instruct {
                    0.2 * task_skill
                } else {
                    0.0
                };
                (i, h.score + recency + noise + task_bonus)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i);
        // Whether the model "gets" a given request is stable across
        // low-temperature samples (resampling rarely rescues a model that
        // misread the spec), so the comprehension roll is hashed from the
        // prompt (`r.det`) with a sliver of per-sample luck. Smaller models
        // misread more: the threshold scales with capacity.
        let follow = model.skills.nl * (model.profile.capacity_b / 13.0).powf(0.7).min(1.15);
        let luck: f64 = rng.gen();
        let roll = if luck < 0.07 { luck / 0.07 } else { r.det };
        let understood = roll < follow || instruct != ALIGN_INSTRUCT;
        // A model that understood the request double-checks near-tied
        // candidates against the requested interface; one that misread it
        // lands on a plausible-but-wrong example (the runner-up).
        let hit = match (chosen, understood) {
            (Some(c), true) if instruct == ALIGN_INSTRUCT => {
                let spec = self.spec();
                if spec.is_empty() {
                    c
                } else {
                    // Among near-tied candidates, best interface fit wins;
                    // fit ties fall back to retrieval score (so an exact
                    // description match is never displaced by a sibling).
                    let floor = hits[c].score - 0.08;
                    let fit = |i: usize| {
                        *r.fits[i].get_or_init(|| {
                            crate::adapt::interface_fit(
                                &model.trained.docs[hits[i].doc].output,
                                spec,
                            )
                        })
                    };
                    (0..hits.len())
                        .filter(|&o| hits[o].score >= floor)
                        .max_by(|&x, &y| {
                            fit(x)
                                .cmp(&fit(y))
                                .then(hits[x].score.total_cmp(&hits[y].score))
                        })
                        .unwrap_or(c)
                }
            }
            (Some(c), true) => c,
            (Some(c), false) => hits.iter().position(|o| o.doc != hits[c].doc).unwrap_or(c),
            (None, _) => return self.hallucinate(rng),
        };
        let doc = &model.trained.docs[hits[hit].doc];
        let mut output = doc.output.as_str();
        let sim = hits[hit].score;
        let instruct_match = Some(doc.instruct) == state.instruct;
        // Interface adaptation for NL→Verilog prompts; partial
        // understanding adapts only the module name.
        if instruct == ALIGN_INSTRUCT {
            let spec = self.spec();
            if !spec.is_empty() {
                if understood {
                    output = r.adapted(hit, false, output, spec);
                } else if roll < follow + 0.45 {
                    output = r.adapted(hit, true, output, spec);
                }
            }
        }
        // Corruption channel. Cross-register paraphrase keeps raw cosine
        // low even for the right document, so similarity only signals
        // *unfamiliarity*: everything above a small floor is confident
        // recall, and quality is then governed by code skill and capacity.
        let mismatch = if instruct_match { 0.0 } else { 0.35 };
        let sim_n = (sim / 0.15).clamp(0.0, 1.0);
        let rate = ((0.4 * (1.0 - sim_n) + 0.45 * (1.0 - quality_skill) + mismatch)
            * model.cap_mult()
            * (0.6 + opts.temperature))
            .clamp(0.0, 0.95);
        let edits = (0..12).filter(|_| rng.gen::<f64>() < rate * 0.35).count();
        if edits == 0 {
            output.to_owned()
        } else {
            corrupt(output, edits, rng)
        }
    }

    /// How many hits the plan has adapted so far, `[full spec, module name
    /// only]` (testing only: the suites check that both kinds are reached).
    #[doc(hidden)]
    pub fn adaptations(&self) -> [usize; 2] {
        let mut n = [0; 2];
        for memo in self.state.retrieval.get().map_or(&[][..], |r| &r.adapted) {
            for (count, cell) in n.iter_mut().zip(memo) {
                *count += usize::from(cell.get().is_some());
            }
        }
        n
    }

    fn spec(&self) -> &InterfaceSpec {
        self.state.spec.get_or_init(|| parse_interface(self.input))
    }

    fn retrieval(&self) -> &Retrieval {
        self.state.retrieval.get_or_init(|| {
            let model = self.model;
            let instruct = self.instruct;
            let wanted = self.state.instruct;
            // Retrieve with alignment-dependent jitter. Instruction tuning
            // conditions generation on the task: when any example of the
            // requested task matches at all, examples of other tasks are
            // out of the running (a short completion prefix can out-cosine
            // a long description on shared port tokens, but a tuned model
            // does not answer a design request with a next-token guess).
            let query = format!("{instruct}\n{}", self.input);
            let mut hits = model
                .trained
                .index
                .try_query(&query, 32)
                .expect("finetune() finished the index");
            let of_task = |h: &Hit| Some(model.trained.docs[h.doc].instruct) == wanted;
            if hits.iter().any(of_task) {
                hits.retain(of_task);
            }
            hits.truncate(8);
            // The hash keys on the prompt alone: prompt difficulty is
            // intrinsic, so a more capable model's comprehension set
            // strictly contains a less capable one's (capacity moves the
            // threshold, not the dice).
            let mut h = 0x100001b3u64;
            for b in self.input.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            Retrieval {
                fits: hits.iter().map(|_| OnceLock::new()).collect(),
                adapted: hits.iter().map(|_| Default::default()).collect(),
                hits,
                det: (h >> 11) as f64 / (1u64 << 53) as f64,
            }
        })
    }

    fn hallucinate<R: Rng + ?Sized>(&self, rng: &mut R) -> String {
        // Nothing retrieved: emit a skeleton around the requested interface.
        let spec = self.spec();
        let name = spec.module.clone().unwrap_or_else(|| "top".to_owned());
        let ports = spec.ports_text.clone().unwrap_or_default();
        let body = if rng.gen_bool(0.5) { "  // TODO\n" } else { "" };
        format!("module {name}({ports});\n{body}endmodule\n")
    }
}

/// Appends the index tokens of a training entry to `out`. `instruct` and
/// `input` were historically joined with '\n'; whitespace always splits
/// tokens, so tokenizing them one after the other is equivalent.
fn index_tokens(e: &DataEntry, out: &mut Vec<Sym>) {
    out.extend(tokenize_syms(&e.instruct));
    out.extend(tokenize_syms(&e.input));
}

/// How well the best `context` document covers `target`'s tokens:
/// `max_d |tokens(target) ∩ tokens(d)| / |tokens(target)|`, in `[0, 1]`.
/// Containment rather than Jaccard — a long reference module that fully
/// covers a short broken file is a perfect worked example, not a diluted
/// one. Returns exactly `0.0` for an empty context or target.
fn context_affinity(target: &str, context: &[String]) -> f64 {
    if context.is_empty() {
        return 0.0;
    }
    // Looked up, not interned, so repair prompts never grow the interner.
    // When every target token has a symbol, a context token without one
    // cannot match any of them (the interner only grows), so it is
    // dropped. A target token without a symbol can still match an unseen
    // context token, so then the texts are compared as strings.
    match lookup_syms(target).collect::<Option<HashSet<Sym>>>() {
        Some(target_toks) => coverage(&target_toks, context, |doc| {
            lookup_syms(doc).flatten().collect()
        }),
        None => {
            let target_toks: HashSet<String> = tokenize_lower(target).into_iter().collect();
            coverage(&target_toks, context, |doc| {
                tokenize_lower(doc).into_iter().collect()
            })
        }
    }
}

/// `max_d |target ∩ tokens(d)| / |target|` over the `context` documents,
/// `0.0` for an empty target.
fn coverage<T: Hash + Eq>(
    target: &HashSet<T>,
    context: &[String],
    tokens: impl Fn(&str) -> HashSet<T>,
) -> f64 {
    if target.is_empty() {
        return 0.0;
    }
    let mut best = 0.0f64;
    for doc in context {
        let covered = target.intersection(&tokens(doc)).count();
        best = best.max(covered as f64 / target.len() as f64);
    }
    best
}

/// Builds the synthetic pretraining dataset implied by a profile: a seeded
/// corpus whose size and NL-alignment share grow with the profile floors
/// (a 175B general model "has read" far more public Verilog than a 7B one).
pub fn pretraining_dataset(profile: &SlmProfile) -> Dataset {
    // Seeded by the corpus size, not the profile name: two profiles with
    // the same pretraining scale (Ours-7B and Ours-13B) have read the same
    // data, exactly as two Llama-2 sizes share a pretraining corpus.
    let seed = 0xC0FFEEu64 ^ (profile.pretrain_modules as u64).wrapping_mul(0x9E3779B9);
    let mut rng = SmallRng::seed_from_u64(seed);
    let modules = profile.pretrain_modules;
    let corpus = dda_corpus::generate_corpus(modules, &mut rng);
    let mut ds = Dataset::new();
    let completion_opts = dda_core::completion::CompletionOptions {
        max_statement_level: 16,
        max_token_level: 32,
    };
    // Roughly 40% of public modules carry enough commentary to act as
    // aligned (description, code) pairs — content every base model has
    // read, whatever its instruction skill.
    let align_share = (0.4 * modules as f64) as usize;
    for (i, m) in corpus.iter().enumerate() {
        for (k, e) in dda_core::completion::completion_entries(&m.source, &completion_opts) {
            ds.push(k, e);
        }
        if i < align_share {
            for (k, e) in dda_core::align::align_entries(&m.source) {
                ds.push(k, e);
            }
        }
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_core::pipeline::{augment, PipelineOptions, StageSet};

    fn full_dataset(modules: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let corpus = dda_corpus::generate_corpus(modules, &mut rng);
        augment(&corpus, &PipelineOptions::default(), &mut rng).0
    }

    fn merged(profile: &SlmProfile, finetune: &Dataset) -> Dataset {
        let mut ds = pretraining_dataset(profile);
        ds.merge(finetune.clone());
        ds
    }

    #[test]
    fn skills_grow_with_data() {
        let profile = SlmProfile::llama2(13.0);
        let base = Slm::pretrained(profile.clone());
        let tuned = Slm::finetune(
            profile,
            &merged(&SlmProfile::llama2(13.0), &full_dataset(32, 1)),
            &PROGRESSIVE_ORDER,
        );
        assert!(tuned.skills().nl > base.skills().nl);
        assert!(tuned.skills().repair > base.skills().repair);
        assert!(tuned.skills().eda > base.skills().eda);
    }

    #[test]
    fn completion_only_data_leaves_nl_weak() {
        let profile = SlmProfile::llama2(13.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let corpus = dda_corpus::generate_corpus(32, &mut rng);
        let (general, _) = augment(
            &corpus,
            &PipelineOptions {
                stages: StageSet::GENERAL_AUG,
                ..PipelineOptions::default()
            },
            &mut rng,
        );
        let mut rng2 = SmallRng::seed_from_u64(2);
        let (full, _) = augment(&corpus, &PipelineOptions::default(), &mut rng2);
        let m_general = Slm::finetune(profile.clone(), &general, &PROGRESSIVE_ORDER);
        let m_full = Slm::finetune(profile, &full, &PROGRESSIVE_ORDER);
        assert!(
            m_full.skills().nl > m_general.skills().nl + 0.2,
            "full {:?} vs general {:?}",
            m_full.skills(),
            m_general.skills()
        );
        // Code fluency is comparable — completion data covers it.
        assert!((m_full.skills().code - m_general.skills().code).abs() < 0.3);
    }

    #[test]
    fn well_trained_model_answers_aligned_query_verbatim() {
        // Query with the exact description of a training module: the model
        // must return (nearly) the module itself.
        let profile = SlmProfile {
            floor_code: 0.9,
            floor_nl: 0.95,
            ..SlmProfile::llama2(13.0)
        };
        let ds = full_dataset(48, 3);
        let model = Slm::finetune(profile, &ds, &PROGRESSIVE_ORDER);
        let entry = &ds.entries(TaskKind::NlVerilogGeneration)[5];
        let mut rng = SmallRng::seed_from_u64(4);
        let mut exact = 0;
        let mut clean = 0;
        for _ in 0..10 {
            let out = model.generate(
                &entry.instruct,
                &entry.input,
                &GenOptions::default(),
                &mut rng,
            );
            if out == entry.output {
                exact += 1;
            }
            if dda_lint::check_source("o.v", &out).is_clean() {
                clean += 1;
            }
        }
        // Near-duplicate corpus modules can tie in retrieval, so demand a
        // plurality of verbatim answers but near-perfect syntactic health.
        assert!(exact >= 4, "only {exact}/10 exact retrievals");
        assert!(clean >= 9, "only {clean}/10 lint-clean outputs");
    }

    #[test]
    fn untrained_model_mangles_nl_queries() {
        let model = Slm::pretrained(SlmProfile::llama2(7.0));
        let ds = full_dataset(16, 5);
        let entry = &ds.entries(TaskKind::NlVerilogGeneration)[0];
        let mut rng = SmallRng::seed_from_u64(6);
        let mut clean = 0;
        for _ in 0..10 {
            let out = model.generate(
                &entry.instruct,
                &entry.input,
                &GenOptions::default(),
                &mut rng,
            );
            if out == entry.output {
                clean += 1;
            }
        }
        assert!(clean <= 3, "{clean}/10 verbatim from an untrained model");
    }

    #[test]
    fn repair_skill_gates_fix_rate() {
        // Attempts are deterministic per broken file (skill moves the
        // threshold over a prompt-intrinsic difficulty), so measure over a
        // set of differently-hashed faults.
        let wrongs: Vec<String> = (0..10)
            .map(|i| {
                format!(
                    "module m{i}(input a, output y)\nassign y = ~a;\nendmodule\n" // missing ;
                )
            })
            .collect();
        let strong = Slm::finetune(
            SlmProfile {
                floor_repair: 0.9,
                ..SlmProfile::llama2(13.0)
            },
            &Dataset::new(),
            &PROGRESSIVE_ORDER,
        );
        let weak = Slm::finetune(
            SlmProfile::llama2(13.0),
            &Dataset::new(),
            &PROGRESSIVE_ORDER,
        );
        let mut fixed_strong = 0;
        let mut fixed_weak = 0;
        let mut rng = SmallRng::seed_from_u64(7);
        for wrong in &wrongs {
            let o = strong.generate(REPAIR_INSTRUCT, wrong, &GenOptions::default(), &mut rng);
            if dda_lint::check_source("o.v", &o).is_clean() {
                fixed_strong += 1;
            }
            let o = weak.generate(REPAIR_INSTRUCT, wrong, &GenOptions::default(), &mut rng);
            if dda_lint::check_source("o.v", &o).is_clean() {
                fixed_weak += 1;
            }
        }
        assert!(
            fixed_strong > fixed_weak + 3,
            "strong {fixed_strong} vs weak {fixed_weak}"
        );
    }

    #[test]
    fn eda_skill_from_200_examples() {
        // The paper's §3.3 observation: ~200 examples already saturate.
        let profile = SlmProfile::llama2(13.0);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut ds = Dataset::new();
        for (k, e) in dda_core::edascript::generate_eda_entries(200, &mut rng) {
            ds.push(k, e);
        }
        let model = Slm::finetune(profile, &ds, &PROGRESSIVE_ORDER);
        assert!(model.skills().eda > 0.95, "{:?}", model.skills());
    }

    #[test]
    fn hallucination_uses_interface_spec() {
        let model = Slm::finetune(SlmProfile::llama2(7.0), &Dataset::new(), &PROGRESSIVE_ORDER);
        let mut rng = SmallRng::seed_from_u64(9);
        let out = model.generate(
            ALIGN_INSTRUCT,
            "Module name: widget\nPorts: input a, output b",
            &GenOptions::default(),
            &mut rng,
        );
        assert!(out.contains("module widget"), "{out}");
    }

    #[test]
    fn empty_context_matches_plain_generation_bitwise() {
        let model = Slm::finetune(
            SlmProfile::llama2(13.0),
            &full_dataset(16, 12),
            &PROGRESSIVE_ORDER,
        );
        let cases = [
            (ALIGN_INSTRUCT, "a counter with synchronous reset"),
            (
                REPAIR_INSTRUCT,
                "module m(input a, output y)\nassign y = a;\nendmodule\n",
            ),
        ];
        for (instruct, input) in cases {
            let mut r1 = SmallRng::seed_from_u64(13);
            let mut r2 = SmallRng::seed_from_u64(13);
            let plain = model.generate(instruct, input, &GenOptions::default(), &mut r1);
            let ctx =
                model.generate_with_context(instruct, input, &[], &GenOptions::default(), &mut r2);
            assert_eq!(plain, ctx, "empty context must be a no-op for {instruct:?}");
        }
    }

    #[test]
    fn relevant_context_lifts_repair_and_never_hurts() {
        // A mid-skill repairer: the few-shot boost moves the attempt
        // threshold enough to flip some deterministic per-file rolls.
        let model = Slm::finetune(
            SlmProfile {
                floor_repair: 0.5,
                ..SlmProfile::llama2(13.0)
            },
            &Dataset::new(),
            &PROGRESSIVE_ORDER,
        );
        let mut flips = 0;
        for i in 0..16 {
            let wrong = format!("module m{i}(input a, output y)\nassign y = ~a;\nendmodule\n");
            let reference = format!("module m{i}(input a, output y);\nassign y = ~a;\nendmodule\n");
            let mut r1 = SmallRng::seed_from_u64(14);
            let mut r2 = SmallRng::seed_from_u64(14);
            let plain = model.generate(REPAIR_INSTRUCT, &wrong, &GenOptions::default(), &mut r1);
            let ctx = model.generate_with_context(
                REPAIR_INSTRUCT,
                &wrong,
                &[reference],
                &GenOptions::default(),
                &mut r2,
            );
            let plain_ok = dda_lint::check_source("o.v", &plain).is_clean();
            let ctx_ok = dda_lint::check_source("o.v", &ctx).is_clean();
            assert!(
                ctx_ok || !plain_ok,
                "worked-example context broke a repair the plain path got ({i})"
            );
            if ctx_ok && !plain_ok {
                flips += 1;
            }
        }
        assert!(flips > 0, "context never flipped any repair");
    }

    #[test]
    fn loss_reflects_training() {
        let ds = full_dataset(32, 10);
        let model = Slm::finetune(SlmProfile::llama2(13.0), &ds, &PROGRESSIVE_ORDER);
        let seen = ds.entries(TaskKind::NlVerilogGeneration)[0].output.clone();
        let l_seen = model.loss(&[seen.as_str()]);
        let l_junk = model.loss(&["xylophone zebra quartz plasma"]);
        assert!(l_seen < l_junk);
    }
}
