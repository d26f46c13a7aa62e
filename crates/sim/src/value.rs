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
//! (four words per plane, written so the per-word loops autovectorize; the
//! fault simulator runs its 256-lane groups through a clone compiled with
//! AVX2 where the host has it). Which width the fault simulator uses is an
//! execution detail chosen via [`SimBackend`]; results are bit-identical
//! across widths.

use std::fmt;
use std::ops::Not;

use gatest_netlist::{Circuit, GateKind};

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
    /// The mask whose word `w` is `word(w)`.
    fn from_words(word: impl FnMut(usize) -> u64) -> Self;
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
    fn from_words(mut word: impl FnMut(usize) -> u64) -> u64 {
        word(0)
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
    fn from_words(word: impl FnMut(usize) -> u64) -> Mask256 {
        Mask256(std::array::from_fn(word))
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
    /// A word whose 64-lane word `w` holds `v(w)` in every lane: the good
    /// word of a fault group whose words replay different good machines.
    fn broadcast_words(v: impl Fn(usize) -> Logic) -> Self;
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

    /// Evaluates a gate over packed fanin words: the width-generic fold
    /// every backend shares.
    ///
    /// `Input` and `Dff` gates are *not* evaluated here — their values come
    /// from the test vector and the state store respectively; passing them
    /// panics in debug builds and returns X otherwise.
    #[inline]
    fn eval_gate(kind: GateKind, fanin: &[Self]) -> Self {
        match kind {
            GateKind::And => fanin.iter().copied().fold(Self::ALL_ONE, Self::and),
            GateKind::Nand => fanin.iter().copied().fold(Self::ALL_ONE, Self::and).not(),
            GateKind::Or => fanin.iter().copied().fold(Self::ALL_ZERO, Self::or),
            GateKind::Nor => fanin.iter().copied().fold(Self::ALL_ZERO, Self::or).not(),
            GateKind::Xor => fanin.iter().copied().fold(Self::ALL_ZERO, Self::xor),
            GateKind::Xnor => fanin.iter().copied().fold(Self::ALL_ZERO, Self::xor).not(),
            GateKind::Not => fanin[0].not(),
            GateKind::Buf => fanin[0],
            GateKind::Const0 => Self::ALL_ZERO,
            GateKind::Const1 => Self::ALL_ONE,
            GateKind::Input | GateKind::Dff => {
                debug_assert!(false, "{kind} values come from the environment");
                Self::ALL_X
            }
        }
    }
}

/// The all-ones word if `b`, else zero: a plane word of a broadcast value,
/// built without a branch.
#[inline(always)]
fn splat(b: bool) -> u64 {
    0u64.wrapping_sub(u64::from(b))
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
        Pv64 {
            zero: splat(v == Logic::Zero),
            one: splat(v == Logic::One),
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
    fn broadcast_words(v: impl Fn(usize) -> Logic) -> Pv64 {
        Pv64::broadcast(v(0))
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
/// The per-word loops are written so the compiler autovectorizes them; the
/// fault simulator's 256-lane groups additionally run in a clone compiled
/// with AVX2 on hosts that have it. Both are bit-identical to [`Pv64`]
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
        Pv256 {
            zero: [splat(v == Logic::Zero); 4],
            one: [splat(v == Logic::One); 4],
        }
    }

    #[inline]
    fn broadcast_words(v: impl Fn(usize) -> Logic) -> Pv256 {
        let words: [Logic; 4] = std::array::from_fn(v);
        Pv256 {
            zero: words.map(|v| splat(v == Logic::Zero)),
            one: words.map(|v| splat(v == Logic::One)),
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

// ---------------------------------------------------------------------------
// Backend selection

/// Which packed-value width the fault simulator runs on.
///
/// A pure execution detail, like thread counts: every backend produces
/// bit-identical results, so the width is excluded from the checkpoint
/// configuration digest and is free to differ between a run and its resumed
/// leg. The default, `Auto`, picks the width of each packed pass from the
/// lanes of work it carries ([`SimBackend::for_lanes`]) and, for a
/// fault-simulation step, from the circuit's shape as well
/// ([`SimBackend::for_step`]); `Scalar64` and `Wide256` pin one width for
/// every pass. The fault simulator's 256-lane groups additionally use AVX2
/// when the host supports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    /// One 64-bit word per plane ([`Pv64`]) — 64 faults per group.
    Scalar64,
    /// Four words per plane ([`Pv256`]) — 256 faults per group.
    Wide256,
    /// Pick per pass: [`SimBackend::Wide256`] for passes that carry more
    /// than [`AUTO_NARROW_MAX_LANES`] lanes of work (and, for fault
    /// simulation, run on a circuit with at most
    /// [`AUTO_WIDE_MAX_GATES_PER_SWEEP`] gates per flip-flop or output),
    /// [`SimBackend::Scalar64`] otherwise.
    #[default]
    Auto,
}

/// The most lanes of work — faults in a fault-simulation step, candidates
/// in a good-machine batch, patterns in a grading run — a pass may carry
/// and still run on 64 lanes under [`SimBackend::Auto`]: two words. A fault
/// group costs in proportion to the faults it carries plus a fixed sweep
/// over the flip-flops and outputs, so a 256-lane group pays off once it
/// replaces three or more 64-lane groups. Measured on s298, s344, s1423 and
/// s5378 (sampled steps from one checkpoint, one pinned vCPU), a 256-lane
/// step took 1.25–1.42× the 64-lane time at 48–64 faults, 0.89–1.33× at
/// 96, 0.77–1.07× at 128, and 0.45–0.81× from 160 faults up. With AVX2
/// running whole 256-lane groups, s298, s344 and s1423 read 1.17–1.23× at
/// 48–64, 0.88–1.13× at 96, 0.80–1.10× at 128, and 0.65–0.75× at 160
/// (DESIGN.md §18).
pub const AUTO_NARROW_MAX_LANES: usize = 2 * Pv64::LANES;

/// The most gates ([`Circuit::num_gates`]) per flip-flop or primary output
/// a circuit may have for [`SimBackend::Auto`] to run its fault-simulation
/// steps on 256-lane groups. A wide group saves the per-group sweep over
/// the flip-flops and outputs; on circuits where that sweep is a small share
/// of the gates, the wider event propagation costs as much as it saves.
/// Interleaved full-list steps on one pinned vCPU, 256-lane over 64-lane
/// time: 0.69–0.97 on circuits with 11–21 gates per flip-flop or output
/// (s298 … s5378, s35932, and synthetic 1.5k/10k-gate circuits with many
/// flip-flops), 0.96–1.02 at 26, and 0.96–1.20 from 34 up (s1488, s1494,
/// the synthetic 10k–100k-gate scale circuits). Re-measured with AVX2
/// running whole 256-lane groups, only s1488 still loses above 32 (1.09)
/// and s1494 ties; DESIGN.md §18 has both tables.
pub const AUTO_WIDE_MAX_GATES_PER_SWEEP: usize = 32;

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

    /// The width a packed pass over `lanes` lanes of work runs at: a pinned
    /// width itself, and for `Auto` [`SimBackend::Wide256`] when the work
    /// fills more than two 64-lane words (see [`AUTO_NARROW_MAX_LANES`]),
    /// [`SimBackend::Scalar64`] otherwise. AVX2-vs-portable is decided
    /// separately, once per 256-lane fault group.
    pub fn for_lanes(self, lanes: usize) -> SimBackend {
        match self {
            SimBackend::Auto if lanes > AUTO_NARROW_MAX_LANES => SimBackend::Wide256,
            SimBackend::Auto => SimBackend::Scalar64,
            pinned => pinned,
        }
    }

    /// The width a fault-simulation step over `faults` faults of `circuit`
    /// runs at: [`SimBackend::for_lanes`], except that `Auto` stays on
    /// 64-lane groups on a circuit with more than
    /// [`AUTO_WIDE_MAX_GATES_PER_SWEEP`] gates per flip-flop or output.
    pub fn for_step(self, faults: usize, circuit: &Circuit) -> SimBackend {
        let sweep = circuit.num_dffs() + circuit.num_outputs();
        match self {
            SimBackend::Auto if circuit.num_gates() > AUTO_WIDE_MAX_GATES_PER_SWEEP * sweep => {
                SimBackend::Scalar64
            }
            _ => self.for_lanes(faults),
        }
    }

    /// The slots a batch scorer splits a 256-lane fault group into for
    /// candidates that each score a sample of `faults` faults
    /// ([`FaultSim::score`](crate::FaultSim::score)): a candidate takes
    /// W = ⌈faults/64⌉ whole 64-lane words, so 4/W candidates fit one group
    /// when W ≤ 2. It is 1 — one candidate per group — for larger samples,
    /// for a pinned [`SimBackend::Scalar64`] (the reference path), and on
    /// circuits whose shape keeps `Auto` on 64-lane groups
    /// ([`SimBackend::for_step`]). Any two candidates that fit one group
    /// share it: two fill a 256-lane group for less than they fill two
    /// 64-lane groups, whatever the sample size (DESIGN.md §18).
    pub fn score_slots(self, faults: usize, circuit: &Circuit) -> usize {
        let words = faults.div_ceil(64);
        if (1..=2).contains(&words) && self.for_step(Pv256::LANES, circuit) != SimBackend::Scalar64
        {
            Pv256::WORDS / words
        } else {
            1
        }
    }

    /// `Auto` as the widest backend it may pick, for the `lanes` and `name`
    /// reports.
    pub(crate) fn resolved(self) -> SimBackend {
        match self {
            SimBackend::Auto => SimBackend::Wide256,
            concrete => concrete,
        }
    }

    /// Lanes per fault group of the resolved backend (for `Auto`, the most
    /// a group may carry).
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

    #[test]
    fn auto_width_follows_the_work_and_the_circuit_shape() {
        use gatest_netlist::benchmarks::iscas89;
        let auto = SimBackend::Auto;
        assert_eq!(auto.for_lanes(AUTO_NARROW_MAX_LANES), SimBackend::Scalar64);
        assert_eq!(
            auto.for_lanes(AUTO_NARROW_MAX_LANES + 1),
            SimBackend::Wide256
        );
        // s298: 218 gates over 14 flip-flops and 6 outputs.
        let dense = iscas89("s298").unwrap();
        assert_eq!(auto.for_step(128, &dense), SimBackend::Scalar64);
        assert_eq!(auto.for_step(129, &dense), SimBackend::Wide256);
        // s1488: 903 gates over 6 flip-flops and 19 outputs.
        let sparse = iscas89("s1488").unwrap();
        assert!(sparse.num_gates() > AUTO_WIDE_MAX_GATES_PER_SWEEP * 25);
        assert_eq!(auto.for_step(10_000, &sparse), SimBackend::Scalar64);
        // A pinned width holds for every pass.
        for pinned in [SimBackend::Scalar64, SimBackend::Wide256] {
            assert_eq!(pinned.for_lanes(1), pinned);
            assert_eq!(pinned.for_step(10_000, &dense), pinned);
            assert_eq!(pinned.for_step(1, &sparse), pinned);
        }
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
