//! SiliconCompiler script-generation evaluation (Table 4 protocol).
//!
//! For each task level the model is queried up to `max_iters` times
//! (pass@10 in the paper); the table reports the iteration at which the
//! first syntactically valid script appeared (`syn`) and the first
//! functionally correct one (`func`). `None` renders as `>10`.

use crate::fnv1a;
use dda_benchmarks::ScTask;
use dda_core::edascript::EDA_INSTRUCT;
use dda_slm::{GenOptions, Slm};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One Table 4 cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptCell {
    /// Iteration (1-based) of the first syntactically valid script.
    pub syn_iter: Option<usize>,
    /// Iteration (1-based) of the first functionally correct script.
    pub func_iter: Option<usize>,
}

impl ScriptCell {
    /// Renders an iteration count the way Table 4 does (`>10` for misses).
    pub fn fmt_iter(it: Option<usize>, max: usize) -> String {
        match it {
            Some(i) => i.to_string(),
            None => format!(">{max}"),
        }
    }
}

/// Protocol options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptProtocol {
    /// Maximum query attempts (pass@10 in the paper).
    pub max_iters: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for ScriptProtocol {
    fn default() -> Self {
        ScriptProtocol {
            max_iters: 10,
            seed: 31,
        }
    }
}

/// Evaluates one model on one task.
pub fn eval_script(model: &Slm, task: &ScTask, protocol: &ScriptProtocol) -> ScriptCell {
    let opts = GenOptions { temperature: 0.1 };
    let plan = model.prompt(EDA_INSTRUCT, &task.prompt, &[]);
    let mut syn_iter = None;
    let mut func_iter = None;
    for i in 0..protocol.max_iters {
        let h = fnv1a(
            task.level
                .label()
                .bytes()
                .chain(model.profile().name.bytes()),
        );
        let mut rng =
            SmallRng::seed_from_u64(protocol.seed.wrapping_mul(7919) ^ h.wrapping_add(i as u64));
        let out = plan.generate(&opts, &mut rng);
        if syn_iter.is_none() && task.check_syntax(&out) {
            syn_iter = Some(i + 1);
        }
        if func_iter.is_none() && task.check_function(&out) {
            func_iter = Some(i + 1);
        }
        if func_iter.is_some() {
            break;
        }
    }
    ScriptCell {
        syn_iter,
        func_iter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_benchmarks::sc_suite;
    use dda_core::Dataset;
    use dda_slm::{SlmProfile, PROGRESSIVE_ORDER};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn eda_trained_model() -> Slm {
        let mut ds = Dataset::new();
        let mut rng = SmallRng::seed_from_u64(5);
        for (k, e) in dda_core::edascript::generate_eda_entries(200, &mut rng) {
            ds.push(k, e);
        }
        Slm::finetune(SlmProfile::llama2(13.0), &ds, &PROGRESSIVE_ORDER)
    }

    #[test]
    fn trained_model_solves_every_level_first_try_or_nearly() {
        let model = eda_trained_model();
        let protocol = ScriptProtocol::default();
        for task in sc_suite() {
            let cell = eval_script(&model, &task, &protocol);
            assert!(
                cell.func_iter.map(|i| i <= 2).unwrap_or(false),
                "{}: {cell:?}",
                task.level.label()
            );
        }
    }

    #[test]
    fn untrained_model_mostly_misses() {
        let model = Slm::finetune(
            SlmProfile::llama2(13.0),
            &Dataset::new(),
            &PROGRESSIVE_ORDER,
        );
        let protocol = ScriptProtocol::default();
        let cells: Vec<_> = sc_suite()
            .iter()
            .map(|t| eval_script(&model, t, &protocol))
            .collect();
        let misses = cells.iter().filter(|c| c.func_iter.is_none()).count();
        assert!(misses >= 4, "only {misses}/5 missed: {cells:?}");
    }

    #[test]
    fn iteration_formatting() {
        assert_eq!(ScriptCell::fmt_iter(Some(3), 10), "3");
        assert_eq!(ScriptCell::fmt_iter(None, 10), ">10");
    }
}
