//! The one gate switch, shared by every value domain.

use std::ops::Not;

use motsim_netlist::GateKind;

use crate::V3;

/// A value domain for gate evaluation, implemented for [`V3`] and for `u64`
/// (64 independent Boolean lanes).
pub trait Logic: Copy + Not<Output = Self> {
    /// Conjunction.
    fn and(self, other: Self) -> Self;
    /// Disjunction.
    fn or(self, other: Self) -> Self;
    /// Exclusive or.
    fn xor(self, other: Self) -> Self;
}

impl Logic for u64 {
    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
}

impl Logic for V3 {
    #[inline]
    fn and(self, other: Self) -> Self {
        V3::and(self, other)
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        V3::or(self, other)
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        V3::xor(self, other)
    }
}

/// Evaluates a gate of the given kind over its pin values, in pin order
/// (the unary kinds read only the first pin).
///
/// # Panics
///
/// Panics if `pins` is empty.
#[inline]
pub fn fold_gate<L: Logic>(kind: GateKind, mut pins: impl Iterator<Item = L>) -> L {
    let first = pins.next().expect("gate must have at least one input");
    match kind {
        GateKind::And => pins.fold(first, L::and),
        GateKind::Nand => !pins.fold(first, L::and),
        GateKind::Or => pins.fold(first, L::or),
        GateKind::Nor => !pins.fold(first, L::or),
        GateKind::Xor => pins.fold(first, L::xor),
        GateKind::Xnor => !pins.fold(first, L::xor),
        GateKind::Not => !first,
        GateKind::Buf => first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];

    /// Lane `k` of a `u64` gate equals the three-valued gate on lane `k`'s
    /// known values.
    #[test]
    fn u64_lanes_agree_with_v3() {
        let words = [0b1100u64, 0b1010, 0b0110];
        for kind in KINDS {
            let arity = if matches!(kind, GateKind::Not | GateKind::Buf) {
                1
            } else {
                3
            };
            let out = fold_gate(kind, words[..arity].iter().copied());
            for k in 0..4 {
                let pins: Vec<V3> = words[..arity]
                    .iter()
                    .map(|w| V3::from_bool((w >> k) & 1 == 1))
                    .collect();
                let expect = crate::eval_gate(kind, &pins).to_bool();
                assert_eq!(Some((out >> k) & 1 == 1), expect, "{kind:?} lane {k}");
            }
        }
    }
}
