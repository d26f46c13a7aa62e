//! Gate evaluation over three-valued values, scalar and packed.

use gatest_netlist::GateKind;

use crate::value::{Logic, PackedValue};

/// Evaluates a gate over scalar three-valued fanin values.
///
/// `Input` and `Dff` gates are *not* evaluated here — their values come from
/// the test vector and the state store respectively; passing them panics in
/// debug builds and returns X otherwise.
///
/// # Example
///
/// ```
/// use gatest_netlist::GateKind;
/// use gatest_sim::{eval::eval_scalar, Logic};
///
/// assert_eq!(eval_scalar(GateKind::Nand, &[Logic::One, Logic::X]), Logic::X);
/// assert_eq!(eval_scalar(GateKind::Nand, &[Logic::Zero, Logic::X]), Logic::One);
/// ```
pub fn eval_scalar(kind: GateKind, fanin: &[Logic]) -> Logic {
    match kind {
        GateKind::And => fanin.iter().copied().fold(Logic::One, Logic::and),
        GateKind::Nand => !fanin.iter().copied().fold(Logic::One, Logic::and),
        GateKind::Or => fanin.iter().copied().fold(Logic::Zero, Logic::or),
        GateKind::Nor => !fanin.iter().copied().fold(Logic::Zero, Logic::or),
        GateKind::Xor => fanin.iter().copied().fold(Logic::Zero, Logic::xor),
        GateKind::Xnor => !fanin.iter().copied().fold(Logic::Zero, Logic::xor),
        GateKind::Not => !fanin[0],
        GateKind::Buf => fanin[0],
        GateKind::Const0 => Logic::Zero,
        GateKind::Const1 => Logic::One,
        GateKind::Input | GateKind::Dff => {
            debug_assert!(false, "{kind} values come from the environment");
            Logic::X
        }
    }
}

/// Evaluates a gate over packed fanin words (`P::LANES` lanes at once).
///
/// Same contract as [`eval_scalar`]. Delegates to
/// [`PackedValue::eval_gate`].
#[inline]
pub fn eval_packed<P: PackedValue>(kind: GateKind, fanin: &[P]) -> P {
    P::eval_gate(kind, fanin)
}

/// The controlling input value of a gate, if it has one (e.g. 0 for AND).
///
/// A controlling value at any input fully determines the output regardless of
/// the other inputs; fault collapsing and PODEM both use this.
pub fn controlling_value(kind: GateKind) -> Option<Logic> {
    match kind {
        GateKind::And | GateKind::Nand => Some(Logic::Zero),
        GateKind::Or | GateKind::Nor => Some(Logic::One),
        _ => None,
    }
}

/// The output produced when a controlling value is present at an input.
pub fn controlled_output(kind: GateKind) -> Option<Logic> {
    match kind {
        GateKind::And => Some(Logic::Zero),
        GateKind::Nand => Some(Logic::One),
        GateKind::Or => Some(Logic::One),
        GateKind::Nor => Some(Logic::Zero),
        _ => None,
    }
}

/// Whether the gate inverts (NAND, NOR, NOT, XNOR).
pub fn is_inverting(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::Nand | GateKind::Nor | GateKind::Not | GateKind::Xnor
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Pv64;
    use Logic::{One, Zero, X};

    #[test]
    fn and_family() {
        assert_eq!(eval_scalar(GateKind::And, &[One, One, One]), One);
        assert_eq!(eval_scalar(GateKind::And, &[One, Zero, X]), Zero);
        assert_eq!(eval_scalar(GateKind::And, &[One, X]), X);
        assert_eq!(eval_scalar(GateKind::Nand, &[One, One]), Zero);
        assert_eq!(eval_scalar(GateKind::Nand, &[Zero, X]), One);
    }

    #[test]
    fn or_family() {
        assert_eq!(eval_scalar(GateKind::Or, &[Zero, Zero]), Zero);
        assert_eq!(eval_scalar(GateKind::Or, &[Zero, One, X]), One);
        assert_eq!(eval_scalar(GateKind::Or, &[Zero, X]), X);
        assert_eq!(eval_scalar(GateKind::Nor, &[Zero, Zero]), One);
        assert_eq!(eval_scalar(GateKind::Nor, &[One, X]), Zero);
    }

    #[test]
    fn xor_family() {
        assert_eq!(eval_scalar(GateKind::Xor, &[One, One, One]), One);
        assert_eq!(eval_scalar(GateKind::Xor, &[One, One]), Zero);
        assert_eq!(eval_scalar(GateKind::Xnor, &[One, Zero]), Zero);
        assert_eq!(eval_scalar(GateKind::Xor, &[One, X]), X);
    }

    #[test]
    fn unary_and_const() {
        assert_eq!(eval_scalar(GateKind::Not, &[Zero]), One);
        assert_eq!(eval_scalar(GateKind::Buf, &[X]), X);
        assert_eq!(eval_scalar(GateKind::Const0, &[]), Zero);
        assert_eq!(eval_scalar(GateKind::Const1, &[]), One);
    }

    #[test]
    fn packed_agrees_with_scalar_exhaustively() {
        let vals = [Zero, One, X];
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        for kind in kinds {
            for &a in &vals {
                for &b in &vals {
                    for &c in &vals {
                        let scalar = eval_scalar(kind, &[a, b, c]);
                        let packed = eval_packed(
                            kind,
                            &[Pv64::broadcast(a), Pv64::broadcast(b), Pv64::broadcast(c)],
                        );
                        assert_eq!(packed.get(33), scalar, "{kind}({a},{b},{c})");
                        assert!(packed.is_valid());
                    }
                }
            }
        }
    }

    #[test]
    fn controlling_values() {
        assert_eq!(controlling_value(GateKind::And), Some(Zero));
        assert_eq!(controlling_value(GateKind::Nor), Some(One));
        assert_eq!(controlling_value(GateKind::Xor), None);
        assert_eq!(controlled_output(GateKind::Nand), Some(One));
        assert_eq!(controlled_output(GateKind::Buf), None);
    }

    #[test]
    fn inversion_parity() {
        assert!(is_inverting(GateKind::Nand));
        assert!(is_inverting(GateKind::Not));
        assert!(!is_inverting(GateKind::And));
        assert!(!is_inverting(GateKind::Buf));
    }
}
