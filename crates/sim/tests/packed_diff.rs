//! Differential tests: every word-packed [`PackedVec`] operation must be
//! bit-identical to the per-bit [`LogicVec`] reference in `dda_sim::ops`,
//! for arbitrary four-state inputs at widths spanning the 64-bit word
//! boundaries (1..200 covers one, two, and four-word vectors plus the
//! partial top word).

use dda_sim::ops;
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

// ---------------------------------------------------------------------------
// PackedBatch lane operations vs. the scalar PackedVec reference
// ---------------------------------------------------------------------------

use dda_verilog::PackedBatch;

/// Per-lane four-state patterns: a shared width spanning the 64-bit word
/// boundaries (1..200) and R ∈ {1, 4, 8} lanes. Equal-lane draws happen
/// often enough at width 1 to exercise the uniform-collapse path too.
#[derive(Debug, Clone, Copy)]
struct LanePatterns;

impl Strategy for LanePatterns {
    type Value = Vec<Vec<u8>>;
    fn generate(&self, rng: &mut proptest::TestRng) -> Vec<Vec<u8>> {
        let w = 1 + rng.below(199);
        let r = [1usize, 4, 8][rng.below(3)];
        (0..r)
            .map(|_| (0..w).map(|_| rng.below(4) as u8).collect())
            .collect()
    }
}

fn lane_patterns() -> LanePatterns {
    LanePatterns
}

/// A scalar two-operand kernel the batch ops are checked against.
type BinaryKernel = fn(&PackedVec, &PackedVec) -> PackedVec;

/// Batch + the per-lane scalar reference vectors it was built from.
fn batch_of(lanes: &[Vec<u8>]) -> (PackedBatch, Vec<PackedVec>) {
    let scalars: Vec<PackedVec> = lanes.iter().map(|l| pv(l)).collect();
    (PackedBatch::from_lanes(&scalars), scalars)
}

proptest! {
    /// from_lanes -> lane is the identity, and all-equal lanes collapse to
    /// the uniform representation.
    #[test]
    fn batch_lane_round_trip(lanes in lane_patterns()) {
        let (b, scalars) = batch_of(&lanes);
        prop_assert_eq!(b.lanes(), scalars.len());
        prop_assert_eq!(b.width(), scalars[0].width());
        for (l, s) in scalars.iter().enumerate() {
            prop_assert_eq!(&b.lane(l), s, "lane {}", l);
            prop_assert!(b.lane_eq(&b, l));
        }
        let all_equal = scalars.iter().all(|s| *s == scalars[0]);
        prop_assert_eq!(b.is_uniform(), all_equal);
        let splat = PackedBatch::splat(&scalars[0], scalars.len());
        prop_assert!(splat.is_uniform());
        prop_assert_eq!(splat.lane(scalars.len() - 1), scalars[0].clone());
    }

    /// lane_bit matches the scalar bit read at every index, including past
    /// the width (x fill) and at the lane-boundary words.
    #[test]
    fn batch_lane_bit_matches(lanes in lane_patterns()) {
        let (b, scalars) = batch_of(&lanes);
        let w = b.width();
        for (l, s) in scalars.iter().enumerate() {
            for i in [0, 1, 63, 64, 65, 127, 128, w - 1, w, w + 7] {
                prop_assert_eq!(b.lane_bit(l, i), s.bit(i), "lane {} bit {}", l, i);
            }
            prop_assert_eq!(b.truthy_lane(l), s.truthy(), "lane {}", l);
        }
    }

    /// The vectorized bitwise ops equal the scalar kernel applied per lane;
    /// map2 lifts any scalar kernel faithfully.
    #[test]
    fn batch_bitwise_matches(a in lane_patterns()) {
        // Second operand: lanes reversed, so uniform/varied combinations
        // and per-lane x/z mixtures both occur.
        let (ba, sa) = batch_of(&a);
        let rev: Vec<Vec<u8>> = a.iter().rev().cloned().collect();
        let (bb, sb) = batch_of(&rev);
        let cases: [(&str, PackedBatch, BinaryKernel); 4] = [
            ("and", ba.bit_and(&bb), PackedVec::bit_and),
            ("or", ba.bit_or(&bb), PackedVec::bit_or),
            ("xor", ba.bit_xor(&bb), PackedVec::bit_xor),
            ("xnor", ba.bit_xnor(&bb), PackedVec::bit_xnor),
        ];
        for (name, got, f) in cases {
            for l in 0..sa.len() {
                prop_assert_eq!(got.lane(l), f(&sa[l], &sb[l]), "{} lane {}", name, l);
            }
        }
        let mapped = ba.map2(&bb, |x, y| x.add(y));
        for l in 0..sa.len() {
            prop_assert_eq!(mapped.lane(l), sa[l].add(&sb[l]), "map2 add lane {}", l);
        }
        let negged = ba.map1(|x| x.neg());
        for (l, s) in sa.iter().enumerate() {
            prop_assert_eq!(negged.lane(l), s.neg(), "map1 neg lane {}", l);
        }
    }

    /// ne_mask has exactly the bits of the lanes whose values differ.
    #[test]
    fn batch_ne_mask_matches(a in lane_patterns()) {
        let (ba, sa) = batch_of(&a);
        let rev: Vec<Vec<u8>> = a.iter().rev().cloned().collect();
        let (bb, sb) = batch_of(&rev);
        let mask = ba.ne_mask(&bb);
        for l in 0..sa.len() {
            prop_assert_eq!(mask & (1u64 << l) != 0, sa[l] != sb[l], "lane {}", l);
            prop_assert_eq!(ba.lane_eq(&bb, l), sa[l] == sb[l], "lane_eq {}", l);
        }
        prop_assert_eq!(ba.ne_mask(&ba), 0);
    }

    /// set_range_batch equals the scalar set_range applied per lane, for
    /// in-range, boundary-straddling, and fully out-of-range windows.
    #[test]
    fn batch_set_range_matches(a in lane_patterns(), src in lane_patterns(), lo in 0usize..220) {
        let (ba, sa) = batch_of(&a);
        // Align the source batch to the destination's lane count.
        let lanes = sa.len();
        let src_scalars: Vec<PackedVec> = (0..lanes).map(|l| pv(&src[l % src.len()])).collect();
        let bsrc = PackedBatch::from_lanes(&src_scalars);
        let w = bsrc.width();
        let mut got = ba.clone();
        got.set_range_batch(lo, w, &bsrc);
        for l in 0..lanes {
            let mut want = sa[l].clone();
            want.set_range(lo, w, &src_scalars[l]);
            prop_assert_eq!(got.lane(l), want, "lane {} lo {} w {}", l, lo, w);
        }
    }
}
