//! Oracle for distinct-candidate scoring (DESIGN.md §5o): the best pass
//! rate over a cell's candidates, with each distinct source simulated
//! once, must equal the copy-by-copy loop that simulated every copy.
//!
//! Candidates are random multisets, in random order, of five sources for
//! the `simple_wire` problem: the reference, a partially correct module, a
//! parse error, an elaboration error, and a runaway that trips the step
//! budget.

use dda_benchmarks::{thakur_suite, VerilogProblem};
use dda_eval::generation::testbench_sim_options;
use dda_eval::{best_rate, run_testbench_verdict_with, TestbenchVerdict};
use dda_runtime::CancelToken;
use dda_sim::SimOptions;
use proptest::prelude::*;

/// The copy-by-copy loop that scored cells before distinct-candidate
/// scoring, kept verbatim as the oracle.
fn copy_by_copy(problem: &VerilogProblem, clean: &[String], opts: &SimOptions) -> f64 {
    let mut best: f64 = 0.0;
    for out in clean {
        let rate = run_testbench_verdict_with(problem, out, opts).pass_rate();
        if rate > best {
            best = rate;
        }
    }
    best
}

fn problem() -> VerilogProblem {
    thakur_suite()
        .into_iter()
        .find(|p| p.module_name == "simple_wire")
        .expect("simple_wire problem")
}

/// The testbench budget with a step cap small enough that the runaway
/// trips it in milliseconds, even in a debug build.
fn opts() -> SimOptions {
    SimOptions {
        max_steps: 20_000,
        ..testbench_sim_options(&CancelToken::new())
    }
}

/// The five candidate sources, in the order the strategy indexes them.
fn pool(p: &VerilogProblem) -> [String; 5] {
    [
        p.reference.to_string(),
        "module simple_wire(input in, output out);\nassign out = 1'b0;\nendmodule\n".to_string(),
        "module garbage(; endmodule".to_string(),
        "module simple_wire(input in, output out);\n\
         reg [8388607:0] big;\nassign out = in;\nendmodule\n"
            .to_string(),
        "module simple_wire(input in, output out);\n\
         reg r;\nalways r = ~r;\nassign out = in;\nendmodule\n"
            .to_string(),
    ]
}

#[test]
fn pool_covers_every_verdict_class() {
    let p = problem();
    let opts = opts();
    let verdicts: Vec<TestbenchVerdict> = pool(&p)
        .iter()
        .map(|c| run_testbench_verdict_with(&p, c, &opts))
        .collect();
    assert_eq!(verdicts[0], TestbenchVerdict::Scored(1.0));
    assert_eq!(verdicts[1], TestbenchVerdict::Scored(0.5));
    assert_eq!(verdicts[2].kind(), "parse_error");
    assert_eq!(verdicts[3].kind(), "elab_error");
    assert!(verdicts[4].is_timeout(), "{:?}", verdicts[4]);
}

proptest! {
    #[test]
    fn distinct_best_rate_equals_copy_by_copy(picks in prop::collection::vec(0usize..5, 0..12)) {
        let p = problem();
        let opts = opts();
        let pool = pool(&p);
        let candidates: Vec<String> = picks.iter().map(|&i| pool[i].clone()).collect();
        let refs: Vec<&str> = candidates.iter().map(String::as_str).collect();
        let want = copy_by_copy(&p, &candidates, &opts);
        let got = best_rate(&p, &refs, &opts);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "picks {:?}", picks);
    }
}
