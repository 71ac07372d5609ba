//! Ablation studies: the paper's §4.2.2 data-composition ablation (and
//! Fig. 7 case study), plus the extra design-choice ablations DESIGN.md
//! commits to (mutation cap, training order, corpus size).

use crate::generation::GenProtocol;
use crate::sweep::{eval_suite, success_rate, GenRow, SweepOptions};
use dda_benchmarks::VerilogProblem;
use dda_core::align::ALIGN_INSTRUCT;
use dda_core::pipeline::{augment, PipelineOptions, StageSet};
use dda_core::TaskKind;
use dda_slm::{pretraining_dataset, GenOptions, Slm, SlmProfile, PROGRESSIVE_ORDER};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The three training regimes of the paper's Fig. 7 / §4.2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Only program-completion data ("General Aug").
    CompletionOnly,
    /// Only natural-language alignment data.
    NlOnly,
    /// The full progressive pipeline.
    Progressive,
}

impl Regime {
    /// All regimes in Fig. 7 column order.
    pub const ALL: [Regime; 3] = [Regime::CompletionOnly, Regime::NlOnly, Regime::Progressive];

    /// Fig. 7 column label.
    pub fn label(self) -> &'static str {
        match self {
            Regime::CompletionOnly => "Only Program Complete Data",
            Regime::NlOnly => "Only Natural Language Data",
            Regime::Progressive => "Our Progressive Training",
        }
    }

    fn stages(self) -> StageSet {
        match self {
            Regime::CompletionOnly => StageSet::GENERAL_AUG,
            Regime::NlOnly => StageSet::NL_ONLY,
            Regime::Progressive => StageSet::FULL,
        }
    }
}

/// Builds the 13B model for a regime from a shared corpus.
pub fn regime_model(regime: Regime, corpus_modules: usize, seed: u64) -> Slm {
    let mut rng = SmallRng::seed_from_u64(seed);
    let corpus = dda_corpus::generate_corpus(corpus_modules, &mut rng);
    let mut rng2 = SmallRng::seed_from_u64(seed ^ 0xAB);
    let (ds, _) = augment(
        &corpus,
        &PipelineOptions {
            stages: regime.stages(),
            ..PipelineOptions::default()
        },
        &mut rng2,
    );
    let profile = SlmProfile {
        name: format!("Llama2-13B [{}]", regime.label()),
        ..SlmProfile::llama2(13.0)
    };
    let pre = pretraining_dataset(&profile);
    Slm::finetune_with_pretraining(profile, &pre, &ds, &PROGRESSIVE_ORDER)
}

/// The Fig. 7 case study: each regime's answer to the `right_shifter`
/// prompt, side by side.
pub fn fig7_case_study(prompt: &str, corpus_modules: usize, seed: u64) -> Vec<(Regime, String)> {
    Regime::ALL
        .iter()
        .map(|r| {
            let model = regime_model(*r, corpus_modules, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
            let out = model.generate(
                ALIGN_INSTRUCT,
                prompt,
                &GenOptions { temperature: 0.1 },
                &mut rng,
            );
            (*r, out)
        })
        .collect()
}

/// One model's rows over `problems` on a single-worker, unjournaled sweep.
fn suite_rows(model: &Slm, problems: &[VerilogProblem], protocol: &GenProtocol) -> Vec<GenRow> {
    eval_suite(model, problems, protocol, &SweepOptions::default())
        .expect("a sweep without a journal does no I/O")
        .0
}

/// §4.2.2 numbers: success rate per regime on a problem suite.
pub fn regime_success_rates(
    problems: &[VerilogProblem],
    corpus_modules: usize,
    seed: u64,
    protocol: &GenProtocol,
) -> Vec<(Regime, f64, Vec<GenRow>)> {
    Regime::ALL
        .iter()
        .map(|r| {
            let model = regime_model(*r, corpus_modules, seed);
            let rows = suite_rows(&model, problems, protocol);
            let rate = success_rate(&rows);
            (*r, rate, rows)
        })
        .collect()
}

/// Mutation-cap ablation (§3.2.1's "below five"): for each cap, the
/// fraction of broken files the checker still flags — too many mutations
/// shred files into unrecognisable noise, too few undertrain.
pub fn mutation_cap_detection_rates(caps: &[usize], seed: u64) -> Vec<(usize, f64)> {
    use dda_core::repair::{break_verilog, RepairOptions};
    let mut rng = SmallRng::seed_from_u64(seed);
    let corpus = dda_corpus::generate_corpus(24, &mut rng);
    caps.iter()
        .map(|cap| {
            let mut flagged = 0usize;
            let mut total = 0usize;
            let mut rng = SmallRng::seed_from_u64(seed ^ (*cap as u64) << 8);
            for m in &corpus {
                for _ in 0..4 {
                    let Some(b) = break_verilog(
                        &m.source,
                        &RepairOptions {
                            max_mutations: *cap,
                        },
                        &mut rng,
                    ) else {
                        continue;
                    };
                    total += 1;
                    if !dda_lint::check_source("m.v", &b.source).is_clean() {
                        flagged += 1;
                    }
                }
            }
            (*cap, flagged as f64 / total.max(1) as f64)
        })
        .collect()
}

/// Training-order ablation: progressive (aligned data last) vs reversed.
/// Returns `(progressive_rate, reversed_rate)` on the given suite.
pub fn order_ablation(
    problems: &[VerilogProblem],
    corpus_modules: usize,
    seed: u64,
    protocol: &GenProtocol,
) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let corpus = dda_corpus::generate_corpus(corpus_modules, &mut rng);
    let mut rng2 = SmallRng::seed_from_u64(seed ^ 0xAB);
    let (ds, _) = augment(&corpus, &PipelineOptions::default(), &mut rng2);
    let profile = SlmProfile {
        // Make ordering visible: strong recency preference.
        recency_weight: 0.6,
        ..SlmProfile::llama2(13.0)
    };
    let pre = pretraining_dataset(&profile);
    let reversed: Vec<TaskKind> = PROGRESSIVE_ORDER.iter().rev().copied().collect();
    let m_prog = Slm::finetune_with_pretraining(profile.clone(), &pre, &ds, &PROGRESSIVE_ORDER);
    let m_rev = Slm::finetune_with_pretraining(profile, &pre, &ds, &reversed);
    let r_prog = success_rate(&suite_rows(&m_prog, problems, protocol));
    let r_rev = success_rate(&suite_rows(&m_rev, problems, protocol));
    (r_prog, r_rev)
}

/// Corpus-size (data-volume) sweep: success rate of the full pipeline at
/// several corpus sizes — the evaluation-level echo of Fig. 3.
pub fn corpus_size_sweep(
    problems: &[VerilogProblem],
    sizes: &[usize],
    seed: u64,
    protocol: &GenProtocol,
) -> Vec<(usize, f64)> {
    sizes
        .iter()
        .map(|n| {
            let model = regime_model(Regime::Progressive, *n, seed);
            (*n, success_rate(&suite_rows(&model, problems, protocol)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_have_distinct_skill_profiles() {
        let comp = regime_model(Regime::CompletionOnly, 96, 3);
        let nl = regime_model(Regime::NlOnly, 96, 3);
        let full = regime_model(Regime::Progressive, 96, 3);
        assert!(full.skills().nl > comp.skills().nl + 0.15);
        assert!(nl.skills().nl > comp.skills().nl);
        assert!(comp.skills().code >= nl.skills().code);
    }

    #[test]
    fn mutation_caps_all_detected_reasonably() {
        let rates = mutation_cap_detection_rates(&[1, 4, 12], 5);
        assert_eq!(rates.len(), 3);
        for (cap, rate) in &rates {
            assert!(*rate > 0.4, "cap {cap}: detection rate {rate}");
        }
        // More mutations, more detectable damage.
        assert!(rates[2].1 >= rates[0].1 - 0.05);
    }

    #[test]
    fn fig7_outputs_differ_across_regimes() {
        let prompt = "An 8-bit right shifter: on each rising clock edge the register q shifts right by one and the serial input d enters at bit 7.\nModule name: right_shifter\nPorts: input clk, input d, output reg [7:0] q\n";
        let outs = fig7_case_study(prompt, 96, 11);
        assert_eq!(outs.len(), 3);
        // The progressive model produces lint-clean Verilog.
        let prog = &outs[2].1;
        assert!(
            dda_lint::check_source("p.v", prog).is_clean(),
            "progressive output dirty:\n{prog}"
        );
    }
}
