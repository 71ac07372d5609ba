//! Differential tests: every word-packed [`PackedVec`] operation must be
//! bit-identical to the per-bit [`LogicVec`] reference in `dda_sim::ops`,
//! for arbitrary four-state inputs at widths spanning the 64-bit word
//! boundaries (1..200 covers one, two, and four-word vectors plus the
//! partial top word).
//!
//! The last test is the compile-level differential: bytecode compiled with
//! the fusion peepholes off must equal the fused build. It is the only
//! test in this binary that simulates, so the process-global `dda-obs`
//! recorder counts its runs alone.

use dda_sim::{elaborate, fusion_enabled, ops, set_fusion, SimOptions, SimResult, Simulator};
use dda_verilog::{LogicBit, LogicVec, PackedVec};
use proptest::prelude::*;

/// Decodes `0..4` digits into a four-state vector (LSB first).
fn lv(bits: &[u8]) -> LogicVec {
    bits.iter()
        .map(|b| match b {
            0 => LogicBit::Zero,
            1 => LogicBit::One,
            2 => LogicBit::X,
            _ => LogicBit::Z,
        })
        .collect()
}

fn pv(bits: &[u8]) -> PackedVec {
    PackedVec::from_logic(&lv(bits))
}

/// A four-state bit pattern crossing word boundaries.
fn fourstate() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 1..200)
}

/// The AST interpreter's unknown-condition ternary merge (eval.rs), as a
/// standalone reference for `PackedVec::ternary_merge`.
fn ref_ternary_merge(a: &LogicVec, b: &LogicVec) -> LogicVec {
    let w = a.width().max(b.width());
    (0..w)
        .map(|i| {
            let x = a.bit(i.min(a.width().saturating_sub(1)));
            let y = b.bit(i.min(b.width().saturating_sub(1)));
            if x == y && !x.is_unknown() {
                x
            } else {
                LogicBit::X
            }
        })
        .collect()
}

/// The AST interpreter's case-label match (eval.rs `case_label_matches`),
/// parameterized the way the bytecode compiler parameterizes it.
fn ref_case_match(sel: &LogicVec, label: &LogicVec, wild_z: bool, wild_x: bool) -> bool {
    let w = sel.width().max(label.width());
    for i in 0..w {
        let s = sel.bits().get(i).copied().unwrap_or(LogicBit::Zero);
        let l = label.bits().get(i).copied().unwrap_or(LogicBit::Zero);
        let wild = if wild_x {
            s.is_unknown() || l.is_unknown()
        } else if wild_z {
            s == LogicBit::Z || l == LogicBit::Z
        } else {
            false
        };
        if wild {
            continue;
        }
        if s != l {
            return false;
        }
    }
    true
}

proptest! {
    /// LogicVec -> PackedVec -> LogicVec is the identity.
    #[test]
    fn round_trip(a in fourstate()) {
        let reference = lv(&a);
        prop_assert_eq!(PackedVec::from_logic(&reference).to_logic_vec(), reference);
    }

    /// Scalar conversions and predicates agree with the reference.
    #[test]
    fn conversions_match(a in fourstate()) {
        use ops::LogicVecExt;
        let r = lv(&a);
        let p = pv(&a);
        prop_assert_eq!(p.to_u64(), r.to_u64());
        prop_assert_eq!(p.to_u128(), r.to_u128());
        prop_assert_eq!(p.to_u64_ext(), r.to_u64_ext());
        prop_assert_eq!(p.truthy(), r.truthy());
        prop_assert_eq!(p.has_unknown(), r.has_unknown());
        for i in [0, 1, 63, 64, 65, 127, 128, a.len() - 1, a.len(), a.len() + 7] {
            prop_assert_eq!(p.bit(i), r.bit(i), "bit {}", i);
        }
    }

    /// Arithmetic: wrap-at-width results and whole-vector x-poisoning.
    #[test]
    fn arithmetic_matches(a in fourstate(), b in fourstate()) {
        let (ra, rb) = (lv(&a), lv(&b));
        let (pa, pb) = (pv(&a), pv(&b));
        prop_assert_eq!(pa.add(&pb).to_logic_vec(), ops::add(&ra, &rb));
        prop_assert_eq!(pa.sub(&pb).to_logic_vec(), ops::sub(&ra, &rb));
        prop_assert_eq!(pa.mul(&pb).to_logic_vec(), ops::mul(&ra, &rb));
        prop_assert_eq!(pa.div(&pb).to_logic_vec(), ops::div(&ra, &rb));
        prop_assert_eq!(pa.rem(&pb).to_logic_vec(), ops::rem(&ra, &rb));
        prop_assert_eq!(pa.neg().to_logic_vec(), ops::neg(&ra));
    }

    /// Power (reference caps the exponent loop; exercised with small
    /// exponents where semantics are exact).
    #[test]
    fn pow_matches(a in fourstate(), e in 0u64..12) {
        let ra = lv(&a);
        let pa = pv(&a);
        let re = LogicVec::from_u64(e, 8);
        let pe = PackedVec::from_u64(e, 8);
        prop_assert_eq!(pa.pow(&pe).to_logic_vec(), ops::pow(&ra, &re));
    }

    /// Bitwise operators propagate x/z per bit exactly as the tables do.
    #[test]
    fn bitwise_matches(a in fourstate(), b in fourstate()) {
        let (ra, rb) = (lv(&a), lv(&b));
        let (pa, pb) = (pv(&a), pv(&b));
        prop_assert_eq!(pa.bit_and(&pb).to_logic_vec(), ops::bit_and(&ra, &rb));
        prop_assert_eq!(pa.bit_or(&pb).to_logic_vec(), ops::bit_or(&ra, &rb));
        prop_assert_eq!(pa.bit_xor(&pb).to_logic_vec(), ops::bit_xor(&ra, &rb));
        prop_assert_eq!(pa.bit_xnor(&pb).to_logic_vec(), ops::bit_xnor(&ra, &rb));
        prop_assert_eq!(pa.bit_not().to_logic_vec(), ops::bit_not(&ra));
    }

    /// Shifts, including unknown shift amounts and amounts past the width.
    #[test]
    fn shifts_match(a in fourstate(), amt in fourstate()) {
        let ra = lv(&a);
        let pa = pv(&a);
        // Use a short amount vector so in-range shifts are common, but keep
        // the raw four-state draw so x/z amounts are covered too.
        let amt = &amt[..amt.len().min(9)];
        let ramt = lv(amt);
        let pamt = pv(amt);
        prop_assert_eq!(pa.shl(&pamt).to_logic_vec(), ops::shl(&ra, &ramt));
        prop_assert_eq!(pa.shr(&pamt).to_logic_vec(), ops::shr(&ra, &ramt));
        prop_assert_eq!(pa.ashr(&pamt).to_logic_vec(), ops::ashr(&ra, &ramt));
    }

    /// Equality and ordering, signed and unsigned.
    #[test]
    fn comparisons_match(a in fourstate(), b in fourstate()) {
        let (ra, rb) = (lv(&a), lv(&b));
        let (pa, pb) = (pv(&a), pv(&b));
        prop_assert_eq!(pa.log_eq(&pb).to_logic_vec(), ops::log_eq(&ra, &rb));
        prop_assert_eq!(pa.log_ne(&pb).to_logic_vec(), ops::log_ne(&ra, &rb));
        prop_assert_eq!(
            PackedVec::from_bool(pa.case_eq(&pb)).to_logic_vec(),
            ops::case_eq(&ra, &rb)
        );
        for signed in [false, true] {
            prop_assert_eq!(
                pa.cmp_lt(&pb, signed).to_logic_vec(),
                ops::cmp_lt(&ra, &rb, signed),
                "signed={}", signed
            );
        }
    }

    /// Logical connectives and reductions.
    #[test]
    fn logic_and_reductions_match(a in fourstate(), b in fourstate()) {
        let (ra, rb) = (lv(&a), lv(&b));
        let (pa, pb) = (pv(&a), pv(&b));
        prop_assert_eq!(pa.log_and(&pb).to_logic_vec(), ops::log_and(&ra, &rb));
        prop_assert_eq!(pa.log_or(&pb).to_logic_vec(), ops::log_or(&ra, &rb));
        prop_assert_eq!(pa.log_not().to_logic_vec(), ops::log_not(&ra));
        for invert in [false, true] {
            prop_assert_eq!(
                pa.reduce_and(invert).to_logic_vec(),
                ops::reduce(&ra, LogicBit::and, invert)
            );
            prop_assert_eq!(
                pa.reduce_or(invert).to_logic_vec(),
                ops::reduce(&ra, LogicBit::or, invert)
            );
            prop_assert_eq!(
                pa.reduce_xor(invert).to_logic_vec(),
                ops::reduce(&ra, LogicBit::xor, invert)
            );
        }
    }

    /// Structural operations: slice (with out-of-range x fill), concat,
    /// replicate, resize (zero- and sign-extension).
    #[test]
    fn structure_matches(a in fourstate(), b in fourstate(), lo in 0usize..220, w in 1usize..80, n in 1usize..4) {
        let (ra, rb) = (lv(&a), lv(&b));
        let (pa, pb) = (pv(&a), pv(&b));
        prop_assert_eq!(pa.slice(lo, w).to_logic_vec(), ra.slice(lo, w));
        prop_assert_eq!(pa.concat(&pb).to_logic_vec(), ra.concat(&rb));
        prop_assert_eq!(pa.replicate(n).to_logic_vec(), ops::replicate(&ra, n));
        for signed in [false, true] {
            prop_assert_eq!(
                pa.resize(w, signed).to_logic_vec(),
                ra.resize(w, signed),
                "resize({}, {})", w, signed
            );
            prop_assert_eq!(
                pa.resize(w + 150, signed).to_logic_vec(),
                ra.resize(w + 150, signed)
            );
        }
    }

    /// case/casez/casex label matching, against the interpreter's rule.
    #[test]
    fn case_matching_matches(a in fourstate(), b in fourstate()) {
        let (ra, rb) = (lv(&a), lv(&b));
        let (pa, pb) = (pv(&a), pv(&b));
        for (wild_z, wild_x) in [(false, false), (true, false), (false, true)] {
            prop_assert_eq!(
                pa.matches_with_wildcards(&pb, wild_z, wild_x),
                ref_case_match(&ra, &rb, wild_z, wild_x),
                "wild_z={} wild_x={}", wild_z, wild_x
            );
        }
        // A vector always matches itself under every wildcard regime
        // except Exact-with-unknowns.
        prop_assert_eq!(
            pa.matches_with_wildcards(&pa, false, false),
            ref_case_match(&ra, &ra, false, false)
        );
    }

    /// The x-condition ternary merge.
    #[test]
    fn ternary_merge_matches(a in fourstate(), b in fourstate()) {
        let (ra, rb) = (lv(&a), lv(&b));
        let (pa, pb) = (pv(&a), pv(&b));
        prop_assert_eq!(pa.ternary_merge(&pb).to_logic_vec(), ref_ternary_merge(&ra, &rb));
    }
}

/// Deterministic clocked fixture whose expressions hit all three fusion
/// peepholes: a comparison feeding a ternary (compare+select), signal
/// loads feeding adds (load+bin), and constant addends (const+bin).
const FUSABLE_SRC: &str = "module tb;\n\
     reg clk = 0; reg [7:0] a = 3, b = 7; reg [15:0] acc = 0;\n\
     always #5 clk = ~clk;\n\
     always @(posedge clk) begin\n\
       acc <= acc + ((a < b) ? {8'd0, a} : {8'd0, b}) + 16'd3;\n\
       a <= a + 8'd5;\n\
       b <= b + 8'd1;\n\
     end\n\
     initial begin #105 $display(\"acc=%0d a=%0d b=%0d\", acc, a, b); $finish; end\n\
     endmodule";

/// Elaborates and runs the fixture fresh, so it compiles under the
/// current fusion setting.
fn run_fusable() -> SimResult {
    let sf = dda_verilog::parse(FUSABLE_SRC).expect("parses");
    let design = elaborate(&sf, "tb").expect("elaborates");
    Simulator::from_design(design)
        .run(&SimOptions::default())
        .expect("runs")
}

/// Restores fusion even when an assertion in the test body fails, so a
/// red test can't leak a fusion-off compiler into the other tests.
struct FusionOn;
impl Drop for FusionOn {
    fn drop(&mut self) {
        set_fusion(true);
    }
}

/// The fusion switch itself: a design compiled with fusion off must
/// produce a bit-identical result with zero fused hits, and the switch is
/// consulted at compile time (fresh designs per setting).
#[test]
fn fusion_off_is_equivalent_and_records_no_hits() {
    dda_obs::reset();
    dda_obs::enable();
    assert!(fusion_enabled(), "fusion ships enabled");

    let fused = run_fusable();
    let fused_snap = dda_obs::snapshot();
    assert!(fused_snap.counter("sim.fused.hits") > 0);

    dda_obs::reset();
    dda_obs::enable();
    set_fusion(false);
    let _restore = FusionOn;
    let plain = run_fusable();
    let plain_snap = dda_obs::snapshot();
    assert_eq!(
        plain_snap.counter("sim.fused.hits"),
        0,
        "fusion-off compile must emit no superinstructions"
    );
    assert_eq!(plain, fused, "fusion changed observable behaviour");
    dda_obs::disable();
}
