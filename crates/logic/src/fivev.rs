//! Roth's five-valued D-algebra for deterministic test generation.

use std::fmt;

/// A composite logic value describing a signal in the fault-free and the
/// faulty machine at once.
///
/// PODEM reasons about both machines simultaneously: `D` means the signal is
/// `1` in the fault-free circuit and `0` in the faulty one, `Db` (D-bar) the
/// reverse. A test for a fault exists when a `D`/`Db` reaches an observed
/// output.
///
/// # Example
///
/// ```
/// use sdd_logic::V5;
///
/// // Propagating a fault effect through an AND gate requires the side
/// // input at its non-controlling value:
/// assert_eq!(V5::D.and(V5::One), V5::D);
/// assert_eq!(V5::D.and(V5::Zero), V5::Zero);
/// assert_eq!(V5::D.and(V5::X), V5::X);
/// // A fault effect meeting its own complement cancels out:
/// assert_eq!(V5::D.and(V5::Db), V5::Zero);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum V5 {
    /// Logic `0` in both machines.
    Zero,
    /// Logic `1` in both machines.
    One,
    /// Unassigned / unknown in at least one machine.
    #[default]
    X,
    /// `1` fault-free, `0` faulty.
    D,
    /// `0` fault-free, `1` faulty (D-bar).
    Db,
}

impl V5 {
    /// Value in the fault-free machine, or `None` when unknown.
    pub fn good(self) -> Option<bool> {
        match self {
            V5::Zero | V5::Db => Some(false),
            V5::One | V5::D => Some(true),
            V5::X => None,
        }
    }

    /// Value in the faulty machine, or `None` when unknown.
    pub fn faulty(self) -> Option<bool> {
        match self {
            V5::Zero | V5::D => Some(false),
            V5::One | V5::Db => Some(true),
            V5::X => None,
        }
    }

    /// Combines known good/faulty values into a composite value.
    pub fn from_pair(good: bool, faulty: bool) -> Self {
        match (good, faulty) {
            (false, false) => V5::Zero,
            (true, true) => V5::One,
            (true, false) => V5::D,
            (false, true) => V5::Db,
        }
    }

    /// Lifts a binary value into the algebra.
    pub fn from_bool(bit: bool) -> Self {
        if bit {
            V5::One
        } else {
            V5::Zero
        }
    }

    /// Returns `true` for `D` or `Db` — a live fault effect.
    pub fn is_fault_effect(self) -> bool {
        matches!(self, V5::D | V5::Db)
    }

    /// Returns `true` when the value is fully assigned (not `X`).
    pub fn is_assigned(self) -> bool {
        self != V5::X
    }

    /// Five-valued NOT (also available as the `!` operator).
    #[allow(clippy::should_implement_trait)] // `std::ops::Not` is implemented too
    pub fn not(self) -> Self {
        match self {
            V5::Zero => V5::One,
            V5::One => V5::Zero,
            V5::X => V5::X,
            V5::D => V5::Db,
            V5::Db => V5::D,
        }
    }

    /// Five-valued AND. Exact on the pair semantics: the result's good
    /// (faulty) value is the AND of the operands' good (faulty) values,
    /// with `X` when either side of the pair is unknown and the other is
    /// not the controlling `0`.
    pub fn and(self, rhs: Self) -> Self {
        AND[self as usize][rhs as usize]
    }

    /// Five-valued OR (controlling value `1`).
    pub fn or(self, rhs: Self) -> Self {
        OR[self as usize][rhs as usize]
    }

    /// Five-valued XOR. Any `X` operand yields `X` (XOR has no controlling
    /// value).
    pub fn xor(self, rhs: Self) -> Self {
        XOR[self as usize][rhs as usize]
    }
}

// Operation tables indexed by the operands' discriminants, in declaration
// order: `Zero`, `One`, `X`, `D`, `Db`. The exhaustive test below checks
// every entry against the pair semantics.
const AND: [[V5; 5]; 5] = {
    use V5::{Db, One, Zero, D, X};
    [
        [Zero, Zero, Zero, Zero, Zero],
        [Zero, One, X, D, Db],
        [Zero, X, X, X, X],
        [Zero, D, X, D, Zero],
        [Zero, Db, X, Zero, Db],
    ]
};

const OR: [[V5; 5]; 5] = {
    use V5::{Db, One, Zero, D, X};
    [
        [Zero, One, X, D, Db],
        [One, One, One, One, One],
        [X, One, X, X, X],
        [D, One, X, D, One],
        [Db, One, X, One, Db],
    ]
};

const XOR: [[V5; 5]; 5] = {
    use V5::{Db, One, Zero, D, X};
    [
        [Zero, One, X, D, Db],
        [One, Zero, X, Db, D],
        [X, X, X, X, X],
        [D, Db, X, Zero, One],
        [Db, D, X, One, Zero],
    ]
};

impl std::ops::Not for V5 {
    type Output = V5;

    /// Five-valued NOT: `!V5::D == V5::Db`.
    fn not(self) -> V5 {
        V5::not(self)
    }
}

impl fmt::Display for V5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            V5::Zero => "0",
            V5::One => "1",
            V5::X => "X",
            V5::D => "D",
            V5::Db => "D'",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [V5; 5] = [V5::Zero, V5::One, V5::X, V5::D, V5::Db];

    #[test]
    fn pair_round_trip() {
        for g in [false, true] {
            for f in [false, true] {
                let v = V5::from_pair(g, f);
                assert_eq!(v.good(), Some(g));
                assert_eq!(v.faulty(), Some(f));
            }
        }
        assert_eq!(V5::X.good(), None);
        assert_eq!(V5::X.faulty(), None);
    }

    #[test]
    fn not_is_involution() {
        for v in ALL {
            assert_eq!(v.not().not(), v);
        }
        assert_eq!(V5::D.not(), V5::Db);
    }

    #[test]
    fn operation_tables_agree_with_pair_semantics() {
        // Exhaustive check of all 25 entries of each table against the
        // defining pair semantics: each machine component is computed
        // independently; the five-valued result can only encode the pair
        // when BOTH components are determined, otherwise it must be X.
        for a in ALL {
            for b in ALL {
                check_pair(a, b, a.and(b), |x, y| x && y, Some(false));
                check_pair(a, b, a.or(b), |x, y| x || y, Some(true));
                check_pair(a, b, a.xor(b), |x, y| x ^ y, None);
            }
        }
    }

    fn check_pair(a: V5, b: V5, out: V5, f: fn(bool, bool) -> bool, controlling: Option<bool>) {
        let good = component(a.good(), b.good(), f, controlling);
        let faulty = component(a.faulty(), b.faulty(), f, controlling);
        let expected = match (good, faulty) {
            (Some(g), Some(fy)) => V5::from_pair(g, fy),
            _ => V5::X,
        };
        assert_eq!(out, expected, "{a} op {b}");
    }

    /// One machine's component of a two-input operation: known when both
    /// operands are, or when the known one is the controlling value.
    fn component(
        a: Option<bool>,
        b: Option<bool>,
        f: fn(bool, bool) -> bool,
        controlling: Option<bool>,
    ) -> Option<bool> {
        match (a, b) {
            (Some(x), Some(y)) => Some(f(x, y)),
            (Some(x), None) | (None, Some(x)) if Some(x) == controlling => Some(f(x, x)),
            _ => None,
        }
    }

    #[test]
    fn d_cancellation() {
        assert_eq!(V5::D.and(V5::Db), V5::Zero);
        assert_eq!(V5::D.or(V5::Db), V5::One);
        assert_eq!(V5::D.xor(V5::D), V5::Zero);
        assert_eq!(V5::D.xor(V5::Db), V5::One);
    }

    #[test]
    fn xor_with_x_is_x() {
        for v in ALL {
            assert_eq!(v.xor(V5::X), V5::X);
            assert_eq!(V5::X.xor(v), V5::X);
        }
    }

    #[test]
    fn xor_propagates_fault_effects() {
        assert_eq!(V5::D.xor(V5::Zero), V5::D);
        assert_eq!(V5::D.xor(V5::One), V5::Db);
    }

    #[test]
    fn and_or_commutative() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                assert_eq!(a.xor(b), b.xor(a));
            }
        }
    }

    #[test]
    fn controlling_values_dominate_x() {
        assert_eq!(V5::Zero.and(V5::X), V5::Zero);
        assert_eq!(V5::One.or(V5::X), V5::One);
        assert_eq!(V5::One.and(V5::X), V5::X);
        assert_eq!(V5::Zero.or(V5::X), V5::X);
    }

    #[test]
    fn display_matches_literature() {
        let rendered: Vec<String> = ALL.iter().map(|v| v.to_string()).collect();
        assert_eq!(rendered, ["0", "1", "X", "D", "D'"]);
    }

    #[test]
    fn fault_effect_predicate() {
        assert!(V5::D.is_fault_effect());
        assert!(V5::Db.is_fault_effect());
        assert!(!V5::X.is_fault_effect());
        assert!(!V5::One.is_fault_effect());
        assert!(V5::One.is_assigned());
        assert!(!V5::X.is_assigned());
    }
}
