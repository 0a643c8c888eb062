//! The three-valued simulation logic {0, 1, X}.

use std::fmt;
use std::ops::Not;

use motsim_netlist::GateKind;

/// A three-valued logic value: `0`, `1` or unknown `X`.
///
/// This is Kleene's strong three-valued logic, the standard value domain of
/// sequential fault simulators that model an unknown initial state. All
/// operations are the pessimistic extensions of their Boolean counterparts:
/// a result is `X` unless the known inputs force it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum V3 {
    /// Logic zero.
    Zero,
    /// Logic one.
    One,
    /// Unknown.
    #[default]
    X,
}

impl V3 {
    /// Converts a Boolean into a known value.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            V3::One
        } else {
            V3::Zero
        }
    }

    /// Returns the Boolean value if known.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            V3::Zero => Some(false),
            V3::One => Some(true),
            V3::X => None,
        }
    }

    /// Returns `true` for `0` and `1`, `false` for `X`.
    #[inline]
    pub fn is_known(self) -> bool {
        self != V3::X
    }

    /// Three-valued conjunction.
    #[inline]
    pub fn and(self, other: V3) -> V3 {
        match (self, other) {
            (V3::Zero, _) | (_, V3::Zero) => V3::Zero,
            (V3::One, V3::One) => V3::One,
            _ => V3::X,
        }
    }

    /// Three-valued disjunction.
    #[inline]
    pub fn or(self, other: V3) -> V3 {
        match (self, other) {
            (V3::One, _) | (_, V3::One) => V3::One,
            (V3::Zero, V3::Zero) => V3::Zero,
            _ => V3::X,
        }
    }

    /// Three-valued exclusive or.
    #[inline]
    pub fn xor(self, other: V3) -> V3 {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => V3::from_bool(a ^ b),
            _ => V3::X,
        }
    }

    /// Parses `'0'`, `'1'`, `'x'`/`'X'`.
    pub fn from_char(c: char) -> Option<Self> {
        match c {
            '0' => Some(V3::Zero),
            '1' => Some(V3::One),
            'x' | 'X' => Some(V3::X),
            _ => None,
        }
    }

    /// The display character `0`, `1` or `X`.
    pub fn to_char(self) -> char {
        match self {
            V3::Zero => '0',
            V3::One => '1',
            V3::X => 'X',
        }
    }
}

impl Not for V3 {
    type Output = V3;
    #[inline]
    fn not(self) -> V3 {
        match self {
            V3::Zero => V3::One,
            V3::One => V3::Zero,
            V3::X => V3::X,
        }
    }
}

impl From<bool> for V3 {
    fn from(b: bool) -> Self {
        V3::from_bool(b)
    }
}

impl fmt::Display for V3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Evaluates a gate of the given kind over three-valued inputs.
///
/// # Panics
///
/// Panics if `inputs` is empty, or has length ≠ 1 for the unary kinds.
pub fn eval_gate(kind: GateKind, inputs: &[V3]) -> V3 {
    match kind {
        GateKind::Not => assert_eq!(inputs.len(), 1, "NOT is unary"),
        GateKind::Buf => assert_eq!(inputs.len(), 1, "BUFF is unary"),
        _ => {}
    }
    crate::fold_gate(kind, inputs.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [V3; 3] = [V3::Zero, V3::One, V3::X];

    #[test]
    fn and_truth_table() {
        assert_eq!(V3::Zero.and(V3::X), V3::Zero);
        assert_eq!(V3::X.and(V3::Zero), V3::Zero);
        assert_eq!(V3::One.and(V3::One), V3::One);
        assert_eq!(V3::One.and(V3::X), V3::X);
        assert_eq!(V3::X.and(V3::X), V3::X);
    }

    #[test]
    fn or_truth_table() {
        assert_eq!(V3::One.or(V3::X), V3::One);
        assert_eq!(V3::X.or(V3::One), V3::One);
        assert_eq!(V3::Zero.or(V3::Zero), V3::Zero);
        assert_eq!(V3::Zero.or(V3::X), V3::X);
    }

    #[test]
    fn xor_is_strict() {
        assert_eq!(V3::One.xor(V3::Zero), V3::One);
        assert_eq!(V3::One.xor(V3::One), V3::Zero);
        assert_eq!(V3::One.xor(V3::X), V3::X);
        assert_eq!(V3::X.xor(V3::X), V3::X);
    }

    #[test]
    fn not_involutive_on_known() {
        for v in ALL {
            assert_eq!(!!v, v);
        }
        assert_eq!(!V3::X, V3::X);
    }

    #[test]
    fn agrees_with_bool_on_known_values() {
        for a in [false, true] {
            for b in [false, true] {
                let (va, vb) = (V3::from_bool(a), V3::from_bool(b));
                assert_eq!(va.and(vb).to_bool(), Some(a & b));
                assert_eq!(va.or(vb).to_bool(), Some(a | b));
                assert_eq!(va.xor(vb).to_bool(), Some(a ^ b));
                assert_eq!((!va).to_bool(), Some(!a));
            }
        }
    }

    #[test]
    fn commutativity() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                assert_eq!(a.xor(b), b.xor(a));
            }
        }
    }

    #[test]
    fn de_morgan() {
        for a in ALL {
            for b in ALL {
                assert_eq!(!(a.and(b)), (!a).or(!b));
                assert_eq!(!(a.or(b)), (!a).and(!b));
            }
        }
    }

    #[test]
    fn gate_eval_nary() {
        use GateKind::*;
        assert_eq!(eval_gate(And, &[V3::One, V3::One, V3::One]), V3::One);
        assert_eq!(eval_gate(And, &[V3::One, V3::X, V3::Zero]), V3::Zero);
        assert_eq!(eval_gate(Nand, &[V3::One, V3::X]), V3::X);
        assert_eq!(eval_gate(Nand, &[V3::Zero, V3::X]), V3::One);
        assert_eq!(eval_gate(Or, &[V3::Zero, V3::X, V3::One]), V3::One);
        assert_eq!(eval_gate(Nor, &[V3::Zero, V3::Zero]), V3::One);
        assert_eq!(eval_gate(Xor, &[V3::One, V3::One, V3::One]), V3::One);
        assert_eq!(eval_gate(Xnor, &[V3::One, V3::One]), V3::One);
        assert_eq!(eval_gate(Not, &[V3::Zero]), V3::One);
        assert_eq!(eval_gate(Buf, &[V3::X]), V3::X);
    }

    #[test]
    #[should_panic(expected = "NOT is unary")]
    fn not_rejects_arity() {
        eval_gate(GateKind::Not, &[V3::Zero, V3::One]);
    }

    #[test]
    fn char_round_trip() {
        for v in ALL {
            assert_eq!(V3::from_char(v.to_char()), Some(v));
        }
        assert_eq!(V3::from_char('x'), Some(V3::X));
        assert_eq!(V3::from_char('?'), None);
        assert_eq!(V3::X.to_string(), "X");
    }

    #[test]
    fn default_is_unknown() {
        assert_eq!(V3::default(), V3::X);
        assert_eq!(V3::from(true), V3::One);
    }
}
