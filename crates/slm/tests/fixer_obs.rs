//! The fix search's own counters: one `slm.fixer.lint` per lint it makes,
//! and one `slm.fixer.resumed` per candidate whose parse resumed at a
//! module-item checkpoint. In its own binary, as a single test, because the
//! `dda-obs` recorder is process-global.

use dda_benchmarks::rtllm_suite;
use dda_eval::repair_eval::{broken_input, RepairProtocol};

#[test]
fn lints_are_counted_and_most_resume_at_a_checkpoint() {
    dda_obs::enable();
    dda_obs::reset();
    let protocol = RepairProtocol::default();
    let mut observed = 0u64;
    let mut searches = 0u64;
    for p in rtllm_suite() {
        let (_, wrong) = broken_input(&p, &protocol);
        let file = format!("{}.v", p.id);
        dda_slm::fixer::try_fix_observed(&file, &wrong, 600, |_, _| observed += 1);
        searches += 1;
    }
    let snap = dda_obs::snapshot();
    assert_eq!(snap.counter("slm.fixer.search"), searches);
    assert_eq!(snap.counter("slm.fixer.lint"), observed);
    let resumed = snap.counter("slm.fixer.resumed");
    assert!(
        2 * resumed > observed,
        "only {resumed} of {observed} lints resumed at a checkpoint"
    );
}
