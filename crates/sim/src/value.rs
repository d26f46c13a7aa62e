//! Three-valued logic (0 / 1 / X) — scalar and bit-parallel at several
//! widths.
//!
//! The packed representation follows PROOFS: each signal carries two bit
//! planes, `zero` and `one`. Bit *i* of the planes encodes the value seen by
//! parallel lane *i* (one fault, or one pattern, per lane):
//!
//! | `zero` | `one` | value |
//! |--------|-------|-------|
//! | 1      | 0     | 0     |
//! | 0      | 1     | 1     |
//! | 0      | 0     | X     |
//! | 1      | 1     | *invalid* |
//!
//! With this encoding every gate function is a handful of word operations,
//! e.g. `AND`: `one = a.one & b.one`, `zero = a.zero | b.zero`.
//!
//! The planes come in two widths behind the [`PackedValue`] trait:
//! [`Pv64`] (one 64-bit word per plane, the PROOFS original) and [`Pv256`]
//! (four words per plane, written so the per-word loops autovectorize —
//! with an explicit AVX2 gate-evaluation path selected once at runtime on
//! x86-64). Which width the fault simulator uses is an execution detail
//! chosen via [`SimBackend`]; results are bit-identical across widths.

use std::fmt;
use std::ops::Not;

use gatest_netlist::GateKind;

/// A scalar three-valued logic value.
///
/// # Example
///
/// ```
/// use gatest_sim::Logic;
///
/// assert_eq!(Logic::Zero & Logic::X, Logic::Zero);
/// assert_eq!(Logic::One & Logic::X, Logic::X);
/// assert_eq!(!Logic::X, Logic::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown.
    #[default]
    X,
}

impl Logic {
    /// Converts a `bool` to `Zero`/`One`.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Returns `Some(bool)` for binary values, `None` for X.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    /// Returns `true` if the value is 0 or 1 (not X).
    #[inline]
    pub fn is_known(self) -> bool {
        self != Logic::X
    }

    /// Three-valued AND.
    #[inline]
    pub fn and(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Three-valued OR.
    #[inline]
    pub fn or(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Three-valued XOR.
    #[inline]
    pub fn xor(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }
}

impl Not for Logic {
    type Output = Logic;

    #[inline]
    fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }
}

impl std::ops::BitAnd for Logic {
    type Output = Logic;
    #[inline]
    fn bitand(self, rhs: Logic) -> Logic {
        self.and(rhs)
    }
}

impl std::ops::BitOr for Logic {
    type Output = Logic;
    #[inline]
    fn bitor(self, rhs: Logic) -> Logic {
        self.or(rhs)
    }
}

impl std::ops::BitXor for Logic {
    type Output = Logic;
    #[inline]
    fn bitxor(self, rhs: Logic) -> Logic {
        self.xor(rhs)
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
        };
        write!(f, "{c}")
    }
}

// ---------------------------------------------------------------------------
// Lane masks

/// A per-lane bit mask matching one [`PackedValue`] width.
///
/// Diff and force operations on packed words speak masks: `binary_diff`
/// returns the lanes where detection fired, `force` overrides the lanes a
/// fault occupies. [`Pv64`]'s mask is a bare `u64` (so its pre-trait API is
/// unchanged); wider values use one word per 64 lanes.
pub trait LaneMask: Copy + Eq + fmt::Debug + Default + Send + Sync + 'static {
    /// 64-bit words in the mask.
    const WORDS: usize;
    /// The mask with no lane set.
    const EMPTY: Self;

    /// A mask with the first `n` lanes set.
    ///
    /// # Panics
    ///
    /// Panics if `n > WORDS * 64`.
    fn low(n: usize) -> Self;
    /// A mask with only `lane` set.
    fn bit(lane: usize) -> Self;
    /// Word `w` of the mask (lanes `64w..64w+64`).
    fn word(self, w: usize) -> u64;
    /// Whether `lane` is set.
    #[inline]
    fn test(self, lane: usize) -> bool {
        self.word(lane / 64) >> (lane % 64) & 1 != 0
    }
    /// Union.
    fn or(self, rhs: Self) -> Self;
    /// Intersection.
    fn and(self, rhs: Self) -> Self;
    /// Complement over all `WORDS * 64` lane positions. Callers restricting
    /// to a group intersect with [`LaneMask::low`] afterwards.
    fn invert(self) -> Self;
    /// Whether any lane is set.
    #[inline]
    fn any(self) -> bool {
        (0..Self::WORDS).any(|w| self.word(w) != 0)
    }
    /// Number of set lanes.
    #[inline]
    fn count(self) -> u32 {
        (0..Self::WORDS).map(|w| self.word(w).count_ones()).sum()
    }
    /// Calls `f` with every set lane, in ascending lane order.
    ///
    /// Ascending order is load-bearing: the fault simulator's merge walks
    /// detection masks with it, and lane order is fault order within a
    /// group, so the emitted detection sequence is the same at every width.
    #[inline]
    fn for_each(self, mut f: impl FnMut(usize)) {
        for w in 0..Self::WORDS {
            let mut bits = self.word(w);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
    /// The lowest set lane, if any.
    #[inline]
    fn first(self) -> Option<usize> {
        (0..Self::WORDS).find_map(|w| {
            let bits = self.word(w);
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }
}

impl LaneMask for u64 {
    const WORDS: usize = 1;
    const EMPTY: u64 = 0;

    #[inline]
    fn low(n: usize) -> u64 {
        assert!(n <= 64);
        if n == 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }
    #[inline]
    fn bit(lane: usize) -> u64 {
        assert!(lane < 64);
        1u64 << lane
    }
    #[inline]
    fn word(self, w: usize) -> u64 {
        debug_assert_eq!(w, 0);
        self
    }
    #[inline]
    fn or(self, rhs: u64) -> u64 {
        self | rhs
    }
    #[inline]
    fn and(self, rhs: u64) -> u64 {
        self & rhs
    }
    #[inline]
    fn invert(self) -> u64 {
        !self
    }
}

/// A 256-lane mask: one bit per [`Pv256`] lane, four words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mask256(pub [u64; 4]);

impl LaneMask for Mask256 {
    const WORDS: usize = 4;
    const EMPTY: Mask256 = Mask256([0; 4]);

    #[inline]
    fn low(n: usize) -> Mask256 {
        assert!(n <= 256);
        let mut words = [0u64; 4];
        for (w, word) in words.iter_mut().enumerate() {
            let lanes = n.saturating_sub(w * 64).min(64);
            *word = <u64 as LaneMask>::low(lanes);
        }
        Mask256(words)
    }
    #[inline]
    fn bit(lane: usize) -> Mask256 {
        assert!(lane < 256);
        let mut words = [0u64; 4];
        words[lane / 64] = 1u64 << (lane % 64);
        Mask256(words)
    }
    #[inline]
    fn word(self, w: usize) -> u64 {
        self.0[w]
    }
    #[inline]
    fn or(self, rhs: Mask256) -> Mask256 {
        Mask256(std::array::from_fn(|w| self.0[w] | rhs.0[w]))
    }
    #[inline]
    fn and(self, rhs: Mask256) -> Mask256 {
        Mask256(std::array::from_fn(|w| self.0[w] & rhs.0[w]))
    }
    #[inline]
    fn invert(self) -> Mask256 {
        Mask256(std::array::from_fn(|w| !self.0[w]))
    }
}

// ---------------------------------------------------------------------------
// The width-generic packed value

/// A packed word of `LANES` three-valued values (one per parallel lane).
///
/// All implementations share the PROOFS two-plane encoding and the same
/// per-lane semantics — the width-generic test suite in this module pins
/// every operation to scalar [`Logic`] behaviour in every lane. The fault
/// simulator, PPSFP grader, and packed good-machine are generic over this
/// trait, so switching widths changes how many faults or patterns ride in
/// one word, never what any lane computes.
pub trait PackedValue: Copy + Eq + fmt::Debug + Default + Send + Sync + 'static {
    /// 64-bit words per plane.
    const WORDS: usize;
    /// Parallel lanes (`WORDS * 64`).
    const LANES: usize;
    /// The backend name surfaced in telemetry (`scalar64`, `wide256`).
    const NAME: &'static str;
    /// The per-lane mask type produced by diff operations.
    type Mask: LaneMask;

    /// Every lane X.
    const ALL_X: Self;
    /// Every lane 0.
    const ALL_ZERO: Self;
    /// Every lane 1.
    const ALL_ONE: Self;

    /// A word with every lane set to `v`.
    fn broadcast(v: Logic) -> Self;
    /// The value in `lane`.
    fn get_lane(self, lane: usize) -> Logic;
    /// Sets `lane` to `v`.
    fn set_lane(&mut self, lane: usize, v: Logic);
    /// Three-valued AND of two words.
    fn and(self, rhs: Self) -> Self;
    /// Three-valued OR of two words.
    fn or(self, rhs: Self) -> Self;
    /// Three-valued XOR of two words (X wherever either side is X).
    fn xor(self, rhs: Self) -> Self;
    /// Three-valued NOT.
    fn not(self) -> Self;
    /// Lanes where both words hold *binary* values that differ (the PROOFS
    /// detection criterion at primary outputs).
    fn binary_diff(self, rhs: Self) -> Self::Mask;
    /// Lanes where the two words differ at all (including binary vs. X).
    fn any_diff(self, rhs: Self) -> Self::Mask;
    /// Lanes holding a known (binary) value.
    fn known_mask(self) -> Self::Mask;
    /// Returns `true` if no lane has both planes set (the invalid encoding).
    fn is_valid(self) -> bool;
    /// Forces the lanes in `mask` to `v`, leaving other lanes untouched.
    fn force(self, mask: Self::Mask, v: Logic) -> Self;

    /// Loads a value from structure-of-arrays plane storage (`WORDS` words
    /// from the head of each slice).
    fn load_planes(zero: &[u64], one: &[u64]) -> Self;
    /// Stores the value into structure-of-arrays plane storage.
    fn store_planes(self, zero: &mut [u64], one: &mut [u64]);

    /// Evaluates a gate over packed fanin words.
    ///
    /// `Input` and `Dff` gates are *not* evaluated here — their values come
    /// from the test vector and the state store respectively; passing them
    /// panics in debug builds and returns X otherwise. Implementations may
    /// override this with a vectorized path but must stay bit-identical to
    /// the default.
    #[inline]
    fn eval_gate(kind: GateKind, fanin: &[Self]) -> Self {
        eval_gate_portable(kind, fanin)
    }
}

/// The width-generic gate evaluation fold shared by every backend (and the
/// body the AVX2 path recompiles with 256-bit registers enabled).
#[inline]
pub(crate) fn eval_gate_portable<P: PackedValue>(kind: GateKind, fanin: &[P]) -> P {
    match kind {
        GateKind::And => fanin.iter().copied().fold(P::ALL_ONE, P::and),
        GateKind::Nand => fanin.iter().copied().fold(P::ALL_ONE, P::and).not(),
        GateKind::Or => fanin.iter().copied().fold(P::ALL_ZERO, P::or),
        GateKind::Nor => fanin.iter().copied().fold(P::ALL_ZERO, P::or).not(),
        GateKind::Xor => fanin.iter().copied().fold(P::ALL_ZERO, P::xor),
        GateKind::Xnor => fanin.iter().copied().fold(P::ALL_ZERO, P::xor).not(),
        GateKind::Not => fanin[0].not(),
        GateKind::Buf => fanin[0],
        GateKind::Const0 => P::ALL_ZERO,
        GateKind::Const1 => P::ALL_ONE,
        GateKind::Input | GateKind::Dff => {
            debug_assert!(false, "{kind} values come from the environment");
            P::ALL_X
        }
    }
}

// ---------------------------------------------------------------------------
// Pv64: the 64-lane original

/// A packed word of 64 three-valued values (one per parallel slot).
///
/// # Example
///
/// ```
/// use gatest_sim::{Logic, Pv64};
///
/// let mut w = Pv64::broadcast(Logic::One);
/// w.set(3, Logic::Zero);
/// w.set(7, Logic::X);
/// assert_eq!(w.get(0), Logic::One);
/// assert_eq!(w.get(3), Logic::Zero);
/// assert_eq!(w.get(7), Logic::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pv64 {
    /// Plane of slots holding logic 0.
    pub zero: u64,
    /// Plane of slots holding logic 1.
    pub one: u64,
}

impl Pv64 {
    /// All 64 slots X.
    pub const ALL_X: Pv64 = Pv64 { zero: 0, one: 0 };

    /// All 64 slots 0.
    pub const ALL_ZERO: Pv64 = Pv64 { zero: !0, one: 0 };

    /// All 64 slots 1.
    pub const ALL_ONE: Pv64 = Pv64 { zero: 0, one: !0 };

    /// A word with every slot set to `v`.
    #[inline]
    pub fn broadcast(v: Logic) -> Pv64 {
        match v {
            Logic::Zero => Pv64::ALL_ZERO,
            Logic::One => Pv64::ALL_ONE,
            Logic::X => Pv64::ALL_X,
        }
    }

    /// The value in slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    pub fn get(self, i: u32) -> Logic {
        assert!(i < 64);
        let z = (self.zero >> i) & 1;
        let o = (self.one >> i) & 1;
        match (z, o) {
            (1, 0) => Logic::Zero,
            (0, 1) => Logic::One,
            (0, 0) => Logic::X,
            _ => unreachable!("invalid Pv64 encoding in slot {i}"),
        }
    }

    /// Sets slot `i` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    pub fn set(&mut self, i: u32, v: Logic) {
        assert!(i < 64);
        let bit = 1u64 << i;
        self.zero &= !bit;
        self.one &= !bit;
        match v {
            Logic::Zero => self.zero |= bit,
            Logic::One => self.one |= bit,
            Logic::X => {}
        }
    }

    /// Three-valued AND of two words.
    #[inline]
    pub fn and(self, rhs: Pv64) -> Pv64 {
        Pv64 {
            zero: self.zero | rhs.zero,
            one: self.one & rhs.one,
        }
    }

    /// Three-valued OR of two words.
    #[inline]
    pub fn or(self, rhs: Pv64) -> Pv64 {
        Pv64 {
            zero: self.zero & rhs.zero,
            one: self.one | rhs.one,
        }
    }

    /// Three-valued XOR of two words (X wherever either side is X).
    #[inline]
    pub fn xor(self, rhs: Pv64) -> Pv64 {
        Pv64 {
            zero: (self.zero & rhs.zero) | (self.one & rhs.one),
            one: (self.zero & rhs.one) | (self.one & rhs.zero),
        }
    }

    /// Three-valued NOT.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn not(self) -> Pv64 {
        Pv64 {
            zero: self.one,
            one: self.zero,
        }
    }

    /// Slots where both words hold *binary* values that differ.
    ///
    /// This is PROOFS's detection criterion at primary outputs: the fault is
    /// detected only where the good and faulty values are both known and
    /// opposite.
    #[inline]
    pub fn binary_diff(self, rhs: Pv64) -> u64 {
        (self.zero & rhs.one) | (self.one & rhs.zero)
    }

    /// Slots where the two words differ at all (including binary vs. X).
    #[inline]
    pub fn any_diff(self, rhs: Pv64) -> u64 {
        (self.zero ^ rhs.zero) | (self.one ^ rhs.one)
    }

    /// Slots holding a known (binary) value.
    #[inline]
    pub fn known_mask(self) -> u64 {
        self.zero | self.one
    }

    /// Returns `true` if no slot has both planes set (the invalid encoding).
    #[inline]
    pub fn is_valid(self) -> bool {
        self.zero & self.one == 0
    }

    /// Forces the slots in `mask` to `v`, leaving other slots untouched.
    #[inline]
    pub fn force(self, mask: u64, v: Logic) -> Pv64 {
        let mut out = Pv64 {
            zero: self.zero & !mask,
            one: self.one & !mask,
        };
        match v {
            Logic::Zero => out.zero |= mask,
            Logic::One => out.one |= mask,
            Logic::X => {}
        }
        out
    }
}

impl PackedValue for Pv64 {
    const WORDS: usize = 1;
    const LANES: usize = 64;
    const NAME: &'static str = "scalar64";
    type Mask = u64;

    const ALL_X: Pv64 = Pv64::ALL_X;
    const ALL_ZERO: Pv64 = Pv64::ALL_ZERO;
    const ALL_ONE: Pv64 = Pv64::ALL_ONE;

    #[inline]
    fn broadcast(v: Logic) -> Pv64 {
        Pv64::broadcast(v)
    }
    #[inline]
    fn get_lane(self, lane: usize) -> Logic {
        self.get(lane as u32)
    }
    #[inline]
    fn set_lane(&mut self, lane: usize, v: Logic) {
        self.set(lane as u32, v);
    }
    #[inline]
    fn and(self, rhs: Pv64) -> Pv64 {
        Pv64::and(self, rhs)
    }
    #[inline]
    fn or(self, rhs: Pv64) -> Pv64 {
        Pv64::or(self, rhs)
    }
    #[inline]
    fn xor(self, rhs: Pv64) -> Pv64 {
        Pv64::xor(self, rhs)
    }
    #[inline]
    fn not(self) -> Pv64 {
        Pv64::not(self)
    }
    #[inline]
    fn binary_diff(self, rhs: Pv64) -> u64 {
        Pv64::binary_diff(self, rhs)
    }
    #[inline]
    fn any_diff(self, rhs: Pv64) -> u64 {
        Pv64::any_diff(self, rhs)
    }
    #[inline]
    fn known_mask(self) -> u64 {
        Pv64::known_mask(self)
    }
    #[inline]
    fn is_valid(self) -> bool {
        Pv64::is_valid(self)
    }
    #[inline]
    fn force(self, mask: u64, v: Logic) -> Pv64 {
        Pv64::force(self, mask, v)
    }
    #[inline]
    fn load_planes(zero: &[u64], one: &[u64]) -> Pv64 {
        Pv64 {
            zero: zero[0],
            one: one[0],
        }
    }
    #[inline]
    fn store_planes(self, zero: &mut [u64], one: &mut [u64]) {
        zero[0] = self.zero;
        one[0] = self.one;
    }
}

impl fmt::Display for Pv64 {
    /// Slot 0 first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..64 {
            write!(f, "{}", self.get(i))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Pv256: four words per plane

/// A packed word of 256 three-valued values: four 64-bit words per plane.
///
/// The per-word loops are written so the compiler autovectorizes them; on
/// x86-64 hosts with AVX2 the gate-evaluation fold additionally dispatches
/// (once, at first use) to a clone of the same code compiled with 256-bit
/// vector registers enabled. Both paths are bit-identical to [`Pv64`]
/// semantics in every lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pv256 {
    /// Plane of lanes holding logic 0.
    pub zero: [u64; 4],
    /// Plane of lanes holding logic 1.
    pub one: [u64; 4],
}

impl Pv256 {
    /// All 256 lanes X.
    pub const ALL_X: Pv256 = Pv256 {
        zero: [0; 4],
        one: [0; 4],
    };

    /// All 256 lanes 0.
    pub const ALL_ZERO: Pv256 = Pv256 {
        zero: [!0; 4],
        one: [0; 4],
    };

    /// All 256 lanes 1.
    pub const ALL_ONE: Pv256 = Pv256 {
        zero: [0; 4],
        one: [!0; 4],
    };
}

impl PackedValue for Pv256 {
    const WORDS: usize = 4;
    const LANES: usize = 256;
    const NAME: &'static str = "wide256";
    type Mask = Mask256;

    const ALL_X: Pv256 = Pv256::ALL_X;
    const ALL_ZERO: Pv256 = Pv256::ALL_ZERO;
    const ALL_ONE: Pv256 = Pv256::ALL_ONE;

    #[inline]
    fn broadcast(v: Logic) -> Pv256 {
        match v {
            Logic::Zero => Pv256::ALL_ZERO,
            Logic::One => Pv256::ALL_ONE,
            Logic::X => Pv256::ALL_X,
        }
    }

    #[inline]
    fn get_lane(self, lane: usize) -> Logic {
        assert!(lane < 256);
        let (w, b) = (lane / 64, lane % 64);
        let z = (self.zero[w] >> b) & 1;
        let o = (self.one[w] >> b) & 1;
        match (z, o) {
            (1, 0) => Logic::Zero,
            (0, 1) => Logic::One,
            (0, 0) => Logic::X,
            _ => unreachable!("invalid Pv256 encoding in lane {lane}"),
        }
    }

    #[inline]
    fn set_lane(&mut self, lane: usize, v: Logic) {
        assert!(lane < 256);
        let (w, b) = (lane / 64, lane % 64);
        let bit = 1u64 << b;
        self.zero[w] &= !bit;
        self.one[w] &= !bit;
        match v {
            Logic::Zero => self.zero[w] |= bit,
            Logic::One => self.one[w] |= bit,
            Logic::X => {}
        }
    }

    #[inline]
    fn and(self, rhs: Pv256) -> Pv256 {
        let mut out = Pv256::ALL_X;
        for w in 0..4 {
            out.zero[w] = self.zero[w] | rhs.zero[w];
            out.one[w] = self.one[w] & rhs.one[w];
        }
        out
    }

    #[inline]
    fn or(self, rhs: Pv256) -> Pv256 {
        let mut out = Pv256::ALL_X;
        for w in 0..4 {
            out.zero[w] = self.zero[w] & rhs.zero[w];
            out.one[w] = self.one[w] | rhs.one[w];
        }
        out
    }

    #[inline]
    fn xor(self, rhs: Pv256) -> Pv256 {
        let mut out = Pv256::ALL_X;
        for w in 0..4 {
            out.zero[w] = (self.zero[w] & rhs.zero[w]) | (self.one[w] & rhs.one[w]);
            out.one[w] = (self.zero[w] & rhs.one[w]) | (self.one[w] & rhs.zero[w]);
        }
        out
    }

    #[inline]
    fn not(self) -> Pv256 {
        Pv256 {
            zero: self.one,
            one: self.zero,
        }
    }

    #[inline]
    fn binary_diff(self, rhs: Pv256) -> Mask256 {
        Mask256(std::array::from_fn(|w| {
            (self.zero[w] & rhs.one[w]) | (self.one[w] & rhs.zero[w])
        }))
    }

    #[inline]
    fn any_diff(self, rhs: Pv256) -> Mask256 {
        Mask256(std::array::from_fn(|w| {
            (self.zero[w] ^ rhs.zero[w]) | (self.one[w] ^ rhs.one[w])
        }))
    }

    #[inline]
    fn known_mask(self) -> Mask256 {
        Mask256(std::array::from_fn(|w| self.zero[w] | self.one[w]))
    }

    #[inline]
    fn is_valid(self) -> bool {
        (0..4).all(|w| self.zero[w] & self.one[w] == 0)
    }

    #[inline]
    fn force(self, mask: Mask256, v: Logic) -> Pv256 {
        let mut out = Pv256::ALL_X;
        for w in 0..4 {
            out.zero[w] = self.zero[w] & !mask.0[w];
            out.one[w] = self.one[w] & !mask.0[w];
            match v {
                Logic::Zero => out.zero[w] |= mask.0[w],
                Logic::One => out.one[w] |= mask.0[w],
                Logic::X => {}
            }
        }
        out
    }

    #[inline]
    fn load_planes(zero: &[u64], one: &[u64]) -> Pv256 {
        Pv256 {
            zero: zero[..4].try_into().expect("four words per plane"),
            one: one[..4].try_into().expect("four words per plane"),
        }
    }

    #[inline]
    fn store_planes(self, zero: &mut [u64], one: &mut [u64]) {
        zero[..4].copy_from_slice(&self.zero);
        one[..4].copy_from_slice(&self.one);
    }

    #[inline]
    fn eval_gate(kind: GateKind, fanin: &[Pv256]) -> Pv256 {
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            // SAFETY: `available` checked AVX2 support at runtime.
            return unsafe { avx2::eval_gate(kind, fanin) };
        }
        eval_gate_portable(kind, fanin)
    }
}

impl fmt::Display for Pv256 {
    /// Lane 0 first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..256 {
            write!(f, "{}", self.get_lane(i))?;
        }
        Ok(())
    }
}

/// The explicit AVX2 gate-evaluation path: the exact portable fold,
/// recompiled with the `avx2` target feature so the `[u64; 4]` plane
/// operations lower to single 256-bit vector instructions. Selected once at
/// runtime via `is_x86_feature_detected!`; hosts without AVX2 keep the
/// portable (still autovectorizable) path.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{eval_gate_portable, Pv256};
    use gatest_netlist::GateKind;
    use std::sync::OnceLock;

    /// Whether the running CPU supports AVX2 (detected once).
    pub(super) fn available() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
    }

    /// # Safety
    ///
    /// The caller must have verified AVX2 support (see [`available`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn eval_gate(kind: GateKind, fanin: &[Pv256]) -> Pv256 {
        eval_gate_portable(kind, fanin)
    }
}

// ---------------------------------------------------------------------------
// Backend selection

/// Which packed-value width the fault simulator runs on.
///
/// A pure execution detail, like thread counts: every backend produces
/// bit-identical results, so the width is excluded from the checkpoint
/// configuration digest and is free to differ between a run and its resumed
/// leg. `Auto` resolves to [`Pv256`], whose gate evaluation additionally
/// uses AVX2 when the host supports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    /// One 64-bit word per plane ([`Pv64`]) — 64 faults per group.
    #[default]
    Scalar64,
    /// Four words per plane ([`Pv256`]) — 256 faults per group.
    Wide256,
    /// Pick for the host: resolves to [`SimBackend::Wide256`].
    Auto,
}

impl SimBackend {
    /// Parses a backend name as accepted by `--sim-width`.
    pub fn parse(s: &str) -> Option<SimBackend> {
        match s {
            "scalar64" | "64" => Some(SimBackend::Scalar64),
            "wide256" | "256" => Some(SimBackend::Wide256),
            "auto" => Some(SimBackend::Auto),
            _ => None,
        }
    }

    /// The canonical flag spelling (`scalar64`, `wide256`, `auto`).
    pub fn as_str(self) -> &'static str {
        match self {
            SimBackend::Scalar64 => "scalar64",
            SimBackend::Wide256 => "wide256",
            SimBackend::Auto => "auto",
        }
    }

    /// Resolves `Auto` to a concrete backend.
    ///
    /// `Auto` picks [`SimBackend::Wide256`]: one AVX2 register per plane
    /// operation on x86-64, and group-count amortization over [`Pv64`] at
    /// every size. AVX2-vs-portable is decided separately, per gate
    /// evaluation, inside [`Pv256`].
    pub fn resolved(self) -> SimBackend {
        match self {
            SimBackend::Auto => SimBackend::Wide256,
            concrete => concrete,
        }
    }

    /// Lanes per fault group of the resolved backend.
    pub fn lanes(self) -> usize {
        match self.resolved() {
            SimBackend::Scalar64 => Pv64::LANES,
            _ => Pv256::LANES,
        }
    }

    /// Backend name of the resolved backend ([`PackedValue::NAME`]).
    pub fn name(self) -> &'static str {
        match self.resolved() {
            SimBackend::Scalar64 => Pv64::NAME,
            _ => Pv256::NAME,
        }
    }
}

impl fmt::Display for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SimBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<SimBackend, String> {
        SimBackend::parse(s).ok_or_else(|| {
            format!("unknown sim backend `{s}` (expected scalar64, wide256, or auto)")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALUES: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];

    #[test]
    fn scalar_and_truth_table() {
        use Logic::*;
        assert_eq!(Zero & Zero, Zero);
        assert_eq!(Zero & One, Zero);
        assert_eq!(Zero & X, Zero);
        assert_eq!(One & One, One);
        assert_eq!(One & X, X);
        assert_eq!(X & X, X);
    }

    #[test]
    fn scalar_or_truth_table() {
        use Logic::*;
        assert_eq!(One | Zero, One);
        assert_eq!(One | X, One);
        assert_eq!(Zero | Zero, Zero);
        assert_eq!(Zero | X, X);
        assert_eq!(X | X, X);
    }

    #[test]
    fn scalar_xor_truth_table() {
        use Logic::*;
        assert_eq!(Zero ^ One, One);
        assert_eq!(One ^ One, Zero);
        assert_eq!(One ^ X, X);
        assert_eq!(X ^ X, X);
    }

    #[test]
    fn scalar_not() {
        assert_eq!(!Logic::Zero, Logic::One);
        assert_eq!(!Logic::One, Logic::Zero);
        assert_eq!(!Logic::X, Logic::X);
    }

    #[test]
    fn bool_round_trip() {
        assert_eq!(Logic::from_bool(true).to_bool(), Some(true));
        assert_eq!(Logic::from_bool(false).to_bool(), Some(false));
        assert_eq!(Logic::X.to_bool(), None);
    }

    #[test]
    fn packed_get_set_round_trip() {
        let mut w = Pv64::ALL_X;
        for (i, &v) in [Logic::Zero, Logic::One, Logic::X, Logic::One]
            .iter()
            .enumerate()
        {
            w.set(i as u32, v);
        }
        assert_eq!(w.get(0), Logic::Zero);
        assert_eq!(w.get(1), Logic::One);
        assert_eq!(w.get(2), Logic::X);
        assert_eq!(w.get(3), Logic::One);
        assert_eq!(w.get(60), Logic::X);
        assert!(w.is_valid());
    }

    #[test]
    fn packed_ops_agree_with_scalar() {
        // Exhaustive per-slot agreement between packed and scalar operators.
        for &a in &VALUES {
            for &b in &VALUES {
                let wa = Pv64::broadcast(a);
                let wb = Pv64::broadcast(b);
                assert_eq!(wa.and(wb).get(17), a & b, "and({a},{b})");
                assert_eq!(wa.or(wb).get(17), a | b, "or({a},{b})");
                assert_eq!(wa.xor(wb).get(17), a ^ b, "xor({a},{b})");
                assert_eq!(wa.not().get(17), !a, "not({a})");
                assert!(wa.and(wb).is_valid());
                assert!(wa.xor(wb).is_valid());
            }
        }
    }

    #[test]
    fn binary_diff_requires_both_known() {
        let zero = Pv64::ALL_ZERO;
        let one = Pv64::ALL_ONE;
        let x = Pv64::ALL_X;
        assert_eq!(zero.binary_diff(one), !0);
        assert_eq!(zero.binary_diff(zero), 0);
        assert_eq!(zero.binary_diff(x), 0);
        assert_eq!(x.binary_diff(one), 0);
    }

    #[test]
    fn any_diff_sees_x_transitions() {
        let zero = Pv64::ALL_ZERO;
        let x = Pv64::ALL_X;
        assert_eq!(zero.any_diff(x), !0);
        assert_eq!(x.any_diff(x), 0);
        assert_eq!(zero.any_diff(zero), 0);
    }

    #[test]
    fn force_overrides_only_masked_slots() {
        let w = Pv64::ALL_ZERO.force(0b101, Logic::One);
        assert_eq!(w.get(0), Logic::One);
        assert_eq!(w.get(1), Logic::Zero);
        assert_eq!(w.get(2), Logic::One);
        assert_eq!(w.get(3), Logic::Zero);
        let x = w.force(0b10, Logic::X);
        assert_eq!(x.get(1), Logic::X);
    }

    #[test]
    fn known_mask_tracks_binary_slots() {
        let mut w = Pv64::ALL_X;
        w.set(5, Logic::One);
        w.set(9, Logic::Zero);
        assert_eq!(w.known_mask(), (1 << 5) | (1 << 9));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Logic::X.to_string(), "x");
        let mut w = Pv64::ALL_ZERO;
        w.set(1, Logic::One);
        let s = w.to_string();
        assert!(s.starts_with("010"));
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn backend_parse_and_resolution() {
        assert_eq!(SimBackend::parse("scalar64"), Some(SimBackend::Scalar64));
        assert_eq!(SimBackend::parse("wide256"), Some(SimBackend::Wide256));
        assert_eq!(SimBackend::parse("auto"), Some(SimBackend::Auto));
        assert_eq!(SimBackend::parse("1024"), None);
        assert_eq!(SimBackend::Auto.resolved(), SimBackend::Wide256);
        assert_eq!(SimBackend::Auto.lanes(), 256);
        assert_eq!(SimBackend::Scalar64.lanes(), 64);
        assert_eq!(SimBackend::Auto.name(), "wide256");
        assert_eq!(SimBackend::Scalar64.to_string(), "scalar64");
        assert!("bogus".parse::<SimBackend>().is_err());
        assert_eq!("256".parse::<SimBackend>(), Ok(SimBackend::Wide256));
    }

    /// A deterministic per-lane value pattern: three-valued, cycling with a
    /// lane- and salt-dependent phase so neighbouring lanes (and words)
    /// differ.
    fn pattern(lane: usize, salt: usize) -> Logic {
        VALUES[(lane.wrapping_mul(2654435761) >> 3).wrapping_add(salt) % 3]
    }

    /// The width-generic backend suite: every operation pinned to scalar
    /// [`Logic`] semantics in *every* lane, plus force/diff mask round
    /// trips. New widths implement [`PackedValue`] and instantiate the
    /// macro to inherit the whole suite.
    macro_rules! packed_backend_suite {
        ($name:ident, $ty:ty) => {
            mod $name {
                use super::*;

                type M = <$ty as PackedValue>::Mask;

                fn patterned(salt: usize) -> $ty {
                    let mut w = <$ty>::ALL_X;
                    for lane in 0..<$ty>::LANES {
                        w.set_lane(lane, pattern(lane, salt));
                    }
                    w
                }

                #[test]
                fn broadcast_and_lane_round_trip() {
                    for &v in &VALUES {
                        let w = <$ty>::broadcast(v);
                        for lane in 0..<$ty>::LANES {
                            assert_eq!(w.get_lane(lane), v, "lane {lane}");
                        }
                    }
                    let w = patterned(7);
                    assert!(w.is_valid());
                    for lane in 0..<$ty>::LANES {
                        assert_eq!(w.get_lane(lane), pattern(lane, 7), "lane {lane}");
                    }
                }

                #[test]
                fn ops_agree_with_scalar_in_every_lane() {
                    let a = patterned(0);
                    let b = patterned(1);
                    for lane in 0..<$ty>::LANES {
                        let (x, y) = (a.get_lane(lane), b.get_lane(lane));
                        assert_eq!(a.and(b).get_lane(lane), x & y, "and lane {lane}");
                        assert_eq!(a.or(b).get_lane(lane), x | y, "or lane {lane}");
                        assert_eq!(a.xor(b).get_lane(lane), x ^ y, "xor lane {lane}");
                        assert_eq!(a.not().get_lane(lane), !x, "not lane {lane}");
                    }
                    assert!(a.and(b).is_valid() && a.xor(b).is_valid());
                }

                #[test]
                fn eval_gate_agrees_with_scalar_in_every_lane() {
                    use crate::eval::eval_scalar;
                    let fanin = [patterned(0), patterned(1), patterned(2)];
                    for kind in [
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
                    ] {
                        let arity = match kind {
                            GateKind::Not | GateKind::Buf => 1,
                            GateKind::Const0 | GateKind::Const1 => 0,
                            _ => 3,
                        };
                        let packed = <$ty>::eval_gate(kind, &fanin[..arity]);
                        assert!(packed.is_valid(), "{kind}");
                        for lane in 0..<$ty>::LANES {
                            let scalar: Vec<Logic> =
                                fanin[..arity].iter().map(|w| w.get_lane(lane)).collect();
                            assert_eq!(
                                packed.get_lane(lane),
                                eval_scalar(kind, &scalar),
                                "{kind} lane {lane}"
                            );
                        }
                    }
                }

                #[test]
                fn diff_masks_match_per_lane_comparison() {
                    let a = patterned(3);
                    let b = patterned(4);
                    let binary = a.binary_diff(b);
                    let any = a.any_diff(b);
                    let known = a.known_mask();
                    for lane in 0..<$ty>::LANES {
                        let (x, y) = (a.get_lane(lane), b.get_lane(lane));
                        let both_known_opposite = x.is_known() && y.is_known() && x != y;
                        assert_eq!(binary.test(lane), both_known_opposite, "lane {lane}");
                        assert_eq!(any.test(lane), x != y, "any lane {lane}");
                        assert_eq!(known.test(lane), x.is_known(), "known lane {lane}");
                    }
                    assert_eq!(a.any_diff(a), M::EMPTY);
                    assert_eq!(a.binary_diff(a), M::EMPTY);
                }

                #[test]
                fn force_round_trips_through_masks() {
                    let w = patterned(5);
                    for &v in &VALUES {
                        // Force every third lane, then read the change back
                        // through any_diff: exactly the masked lanes whose
                        // value actually changed must differ.
                        let mut mask = M::EMPTY;
                        for lane in (0..<$ty>::LANES).step_by(3) {
                            mask = mask.or(M::bit(lane));
                        }
                        let forced = w.force(mask, v);
                        assert!(forced.is_valid());
                        for lane in 0..<$ty>::LANES {
                            let expect = if mask.test(lane) { v } else { w.get_lane(lane) };
                            assert_eq!(forced.get_lane(lane), expect, "lane {lane}");
                            assert_eq!(
                                forced.any_diff(w).test(lane),
                                expect != w.get_lane(lane),
                                "diff lane {lane}"
                            );
                        }
                        // Re-forcing the original lane values undoes the edit.
                        let mut undone = forced;
                        mask.for_each(|lane| undone.set_lane(lane, w.get_lane(lane)));
                        assert_eq!(undone, w);
                    }
                }

                #[test]
                fn lane_mask_primitives_round_trip() {
                    assert_eq!(M::low(0), M::EMPTY);
                    assert!(!M::EMPTY.any());
                    assert_eq!(M::EMPTY.count(), 0);
                    assert_eq!(M::EMPTY.first(), None);
                    let full = M::low(<$ty>::LANES);
                    assert_eq!(full.count() as usize, <$ty>::LANES);
                    for n in [1usize, 2, <$ty>::LANES / 2 + 1, <$ty>::LANES] {
                        let m = M::low(n);
                        assert_eq!(m.count() as usize, n);
                        assert_eq!(m.first(), Some(0));
                        let mut seen = Vec::new();
                        m.for_each(|lane| seen.push(lane));
                        let expect: Vec<usize> = (0..n).collect();
                        assert_eq!(seen, expect, "low({n}) iterates ascending");
                    }
                    let lane = <$ty>::LANES - 2;
                    let m = M::bit(lane);
                    assert!(m.test(lane) && !m.test(0));
                    assert_eq!(m.first(), Some(lane));
                    assert_eq!(m.or(M::bit(0)).count(), 2);
                    assert_eq!(m.and(M::bit(0)), M::EMPTY);
                    // Complement: disjoint from the original, and together
                    // they cover every lane position.
                    assert_eq!(m.and(m.invert()), M::EMPTY);
                    assert_eq!(m.or(m.invert()).count() as usize, M::WORDS * 64);
                    assert_eq!(full.and(full.invert()), M::EMPTY);
                    assert!(M::EMPTY.invert().test(0));
                }

                #[test]
                fn soa_plane_storage_round_trips() {
                    let mut zero = vec![0u64; <$ty>::WORDS * 3];
                    let mut one = vec![0u64; <$ty>::WORDS * 3];
                    let values = [patterned(8), patterned(9), patterned(10)];
                    for (i, w) in values.iter().enumerate() {
                        let at = i * <$ty>::WORDS;
                        w.store_planes(&mut zero[at..], &mut one[at..]);
                    }
                    for (i, w) in values.iter().enumerate() {
                        let at = i * <$ty>::WORDS;
                        assert_eq!(<$ty>::load_planes(&zero[at..], &one[at..]), *w);
                    }
                }
            }
        };
    }

    packed_backend_suite!(pv64_backend, Pv64);
    packed_backend_suite!(pv256_backend, Pv256);

    #[test]
    fn pv256_lanes_mirror_four_pv64_words() {
        // A Pv256 is bit-for-bit four Pv64s laid side by side: lane 64w+i of
        // the wide word equals slot i of word w.
        let mut wide = Pv256::ALL_X;
        let mut narrow = [Pv64::ALL_X; 4];
        for lane in 0..256 {
            let v = pattern(lane, 11);
            wide.set_lane(lane, v);
            narrow[lane / 64].set((lane % 64) as u32, v);
        }
        for (w, n) in narrow.iter().enumerate() {
            assert_eq!(wide.zero[w], n.zero);
            assert_eq!(wide.one[w], n.one);
        }
    }
}
