//! Width-generic packed-value property tests: every lane of every backend
//! must behave exactly like a scalar [`Logic`] value, and the lane masks
//! the diff operations produce must agree with per-lane predicates. One
//! generic checker runs against [`Pv64`] and [`Pv256`], so
//! adding a backend means adding one instantiation line, not a new suite.

use gatest_netlist::GateKind;
use gatest_sim::{LaneMask, Logic, PackedValue, Pv256, Pv64};
use proptest::collection::vec;
use proptest::prelude::*;

fn logic() -> impl Strategy<Value = Logic> {
    prop_oneof![Just(Logic::Zero), Just(Logic::One), Just(Logic::X)]
}

/// Lane values for the widest backend; narrower backends use a prefix.
fn lanes() -> impl Strategy<Value = Vec<Logic>> {
    vec(logic(), Pv256::LANES)
}

/// Packs the first `P::LANES` of `values` into a word, lane by lane.
fn pack<P: PackedValue>(values: &[Logic]) -> P {
    let mut word = P::ALL_X;
    for (lane, &v) in values.iter().take(P::LANES).enumerate() {
        word.set_lane(lane, v);
    }
    word
}

/// Scalar reference for [`PackedValue::eval_gate`], folding [`Logic`] ops
/// the same way the portable packed fold does.
fn eval_gate_scalar(kind: GateKind, fanin: &[Logic]) -> Logic {
    match kind {
        GateKind::And => fanin.iter().fold(Logic::One, |a, &b| a.and(b)),
        GateKind::Nand => !fanin.iter().fold(Logic::One, |a, &b| a.and(b)),
        GateKind::Or => fanin.iter().fold(Logic::Zero, |a, &b| a.or(b)),
        GateKind::Nor => !fanin.iter().fold(Logic::Zero, |a, &b| a.or(b)),
        GateKind::Xor => fanin.iter().fold(Logic::Zero, |a, &b| a.xor(b)),
        GateKind::Xnor => !fanin.iter().fold(Logic::Zero, |a, &b| a.xor(b)),
        GateKind::Not => !fanin[0],
        GateKind::Buf => fanin[0],
        GateKind::Const0 => Logic::Zero,
        GateKind::Const1 => Logic::One,
        GateKind::Input | GateKind::Dff => unreachable!("not evaluated"),
    }
}

/// Logic gates with a fanin list (constants ride along with empty fanin).
const EVAL_KINDS: [GateKind; 10] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
    GateKind::Const0,
    GateKind::Const1,
];

fn check_lane_ops<P: PackedValue>(a: &[Logic], b: &[Logic]) {
    let pa: P = pack::<P>(a);
    let pb: P = pack::<P>(b);
    prop_assert!(pa.is_valid() && pb.is_valid(), "{} packing", P::NAME);
    let and = pa.and(pb);
    let or = pa.or(pb);
    let xor = pa.xor(pb);
    let not = pa.not();
    let binary = pa.binary_diff(pb);
    let any = pa.any_diff(pb);
    let known = pa.known_mask();
    for lane in 0..P::LANES {
        let (x, y) = (a[lane], b[lane]);
        prop_assert_eq!(pa.get_lane(lane), x, "{} set/get lane {}", P::NAME, lane);
        prop_assert_eq!(
            and.get_lane(lane),
            x.and(y),
            "{} and lane {}",
            P::NAME,
            lane
        );
        prop_assert_eq!(or.get_lane(lane), x.or(y), "{} or lane {}", P::NAME, lane);
        prop_assert_eq!(
            xor.get_lane(lane),
            x.xor(y),
            "{} xor lane {}",
            P::NAME,
            lane
        );
        prop_assert_eq!(not.get_lane(lane), !x, "{} not lane {}", P::NAME, lane);
        let binary_ref = matches!(
            (x, y),
            (Logic::Zero, Logic::One) | (Logic::One, Logic::Zero)
        );
        prop_assert_eq!(
            binary.test(lane),
            binary_ref,
            "{} binary_diff lane {}",
            P::NAME,
            lane
        );
        prop_assert_eq!(any.test(lane), x != y, "{} any_diff lane {}", P::NAME, lane);
        prop_assert_eq!(
            known.test(lane),
            x.is_known(),
            "{} known_mask lane {}",
            P::NAME,
            lane
        );
    }
    // Mask invariants the simulator's merge depends on: ascending
    // enumeration, consistent counts, and first = first enumerated.
    let mut seen = Vec::new();
    any.for_each(|lane| seen.push(lane));
    prop_assert!(seen.windows(2).all(|w| w[0] < w[1]), "{} order", P::NAME);
    prop_assert_eq!(seen.len(), any.count() as usize, "{} count", P::NAME);
    prop_assert_eq!(seen.first().copied(), any.first(), "{} first", P::NAME);
}

fn check_force_roundtrip<P: PackedValue>(a: &[Logic], mask_lanes: &[bool], v: Logic) {
    let word: P = pack::<P>(a);
    let mut mask = P::Mask::EMPTY;
    for (lane, &on) in mask_lanes.iter().take(P::LANES).enumerate() {
        if on {
            mask = mask.or(P::Mask::bit(lane));
        }
    }
    let forced = word.force(mask, v);
    prop_assert!(forced.is_valid(), "{} force validity", P::NAME);
    for (lane, &orig) in a.iter().enumerate().take(P::LANES) {
        let expect = if mask.test(lane) { v } else { orig };
        prop_assert_eq!(
            forced.get_lane(lane),
            expect,
            "{} force lane {}",
            P::NAME,
            lane
        );
    }
    // Forcing is idempotent and self-reporting: forced lanes no longer
    // differ from a broadcast of the forced value.
    let diff = forced.any_diff(P::broadcast(v));
    prop_assert!(!diff.and(mask).any(), "{} forced lanes differ", P::NAME);
}

fn check_planes_roundtrip<P: PackedValue>(a: &[Logic]) {
    let word: P = pack::<P>(a);
    let mut zero = vec![0u64; P::WORDS];
    let mut one = vec![0u64; P::WORDS];
    word.store_planes(&mut zero, &mut one);
    prop_assert_eq!(
        P::load_planes(&zero, &one),
        word,
        "{} SoA plane round-trip",
        P::NAME
    );
}

fn check_eval_gate<P: PackedValue>(fanin: &[Vec<Logic>]) {
    for kind in EVAL_KINDS {
        let packed_fanin: Vec<P> = match kind {
            GateKind::Not | GateKind::Buf => vec![pack::<P>(&fanin[0])],
            GateKind::Const0 | GateKind::Const1 => Vec::new(),
            _ => fanin.iter().map(|f| pack::<P>(f)).collect(),
        };
        let out = P::eval_gate(kind, &packed_fanin);
        for lane in 0..P::LANES {
            let scalar_fanin: Vec<Logic> = match kind {
                GateKind::Not | GateKind::Buf => vec![fanin[0][lane]],
                GateKind::Const0 | GateKind::Const1 => Vec::new(),
                _ => fanin.iter().map(|f| f[lane]).collect(),
            };
            prop_assert_eq!(
                out.get_lane(lane),
                eval_gate_scalar(kind, &scalar_fanin),
                "{} {:?} lane {}",
                P::NAME,
                kind,
                lane
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lane_ops_match_scalar_logic(a in lanes(), b in lanes()) {
        check_lane_ops::<Pv64>(&a, &b);
        check_lane_ops::<Pv256>(&a, &b);
    }

    #[test]
    fn force_masks_round_trip(
        a in lanes(),
        mask in vec(any::<bool>(), Pv256::LANES),
        v in logic(),
    ) {
        check_force_roundtrip::<Pv64>(&a, &mask, v);
        check_force_roundtrip::<Pv256>(&a, &mask, v);
    }

    #[test]
    fn soa_planes_round_trip(a in lanes()) {
        check_planes_roundtrip::<Pv64>(&a);
        check_planes_roundtrip::<Pv256>(&a);
    }

    /// Gate evaluation — including the wide backends' runtime-dispatched
    /// AVX2 path on hosts that have it — matches a per-lane scalar
    /// [`Logic`] fold for every gate kind and fanin width.
    #[test]
    fn eval_gate_matches_scalar_fold(fanin in vec(lanes(), 1..5usize)) {
        check_eval_gate::<Pv64>(&fanin);
        check_eval_gate::<Pv256>(&fanin);
    }

    #[test]
    fn broadcast_fills_every_lane(v in logic()) {
        for lane in 0..Pv64::LANES {
            prop_assert_eq!(Pv64::broadcast(v).get_lane(lane), v);
        }
        for lane in 0..Pv256::LANES {
            prop_assert_eq!(Pv256::broadcast(v).get_lane(lane), v);
        }
    }
}
