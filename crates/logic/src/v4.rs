//! The four-valued observability lattice of `ID_X-red`.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

use crate::V3;

/// An element of the four-valued lattice `{X} ⊑ {X,0}, {X,1} ⊑ {X,0,1}`.
///
/// `ID_X-red` step 1 encodes, for every lead, the set of *binary* values the
/// lead assumed during a three-valued true-value simulation of the test
/// sequence (the value `X` is implicitly a member of every element, hence
/// the paper's notation `{X}`, `{X,0}`, `{X,1}`, `{X,0,1}`).
///
/// The static variant of `ID_X-red` fills the same lattice from SCOAP
/// controllability instead: a lead holds `b` iff it can be set to `b` at
/// all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct V4(u8);

impl V4 {
    /// The bottom element `{X}`: never 0 nor 1.
    pub const X: V4 = V4(0b00);
    /// `{X, 0}`: assumed 0 but never 1.
    pub const X0: V4 = V4(0b01);
    /// `{X, 1}`: assumed 1 but never 0.
    pub const X1: V4 = V4(0b10);
    /// The top element `{X, 0, 1}`.
    pub const X01: V4 = V4(0b11);

    /// All four lattice elements, bottom to top.
    pub const ALL: [V4; 4] = [V4::X, V4::X0, V4::X1, V4::X01];

    /// Whether 0 is in the set.
    #[inline]
    pub fn has_zero(self) -> bool {
        self.0 & 0b01 != 0
    }

    /// Whether 1 is in the set.
    #[inline]
    pub fn has_one(self) -> bool {
        self.0 & 0b10 != 0
    }

    /// Whether the set contains no binary value (i.e. is `{X}`).
    #[inline]
    pub fn is_x_only(self) -> bool {
        self.0 == 0
    }

    /// Adds an observed three-valued value to the set (observing `X` is a
    /// no-op).
    #[inline]
    pub fn observe(self, v: V3) -> V4 {
        match v {
            V3::Zero => V4(self.0 | 0b01),
            V3::One => V4(self.0 | 0b10),
            V3::X => self,
        }
    }

    /// Lattice join (set union).
    #[inline]
    pub fn join(self, other: V4) -> V4 {
        V4(self.0 | other.0)
    }

    /// Lattice partial order: `self ⊑ other` iff the set is contained.
    #[inline]
    pub fn le(self, other: V4) -> bool {
        self.0 & !other.0 == 0
    }
}

impl BitOr for V4 {
    type Output = V4;
    fn bitor(self, rhs: V4) -> V4 {
        self.join(rhs)
    }
}

impl BitOrAssign for V4 {
    fn bitor_assign(&mut self, rhs: V4) {
        *self = self.join(rhs);
    }
}

impl fmt::Display for V4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match *self {
            V4::X => "{X}",
            V4::X0 => "{X,0}",
            V4::X1 => "{X,1}",
            _ => "{X,0,1}",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval_gate, fold_gate, Logic};
    use motsim_netlist::GateKind;

    #[test]
    fn observe_accumulates() {
        let v = V4::X.observe(V3::X);
        assert_eq!(v, V4::X);
        let v = v.observe(V3::Zero);
        assert_eq!(v, V4::X0);
        let v = v.observe(V3::One);
        assert_eq!(v, V4::X01);
        assert_eq!(v.observe(V3::Zero), V4::X01);
    }

    #[test]
    fn join_is_lattice_join() {
        for a in V4::ALL {
            for b in V4::ALL {
                let j = a.join(b);
                assert!(a.le(j) && b.le(j));
                assert_eq!(j, b.join(a));
                assert_eq!(a.join(a), a);
            }
        }
        assert_eq!(V4::X0 | V4::X1, V4::X01);
    }

    #[test]
    fn partial_order() {
        assert!(V4::X.le(V4::X0));
        assert!(V4::X.le(V4::X01));
        assert!(V4::X0.le(V4::X01));
        assert!(!V4::X0.le(V4::X1));
        assert!(!V4::X01.le(V4::X1));
    }

    #[test]
    fn display() {
        assert_eq!(V4::X.to_string(), "{X}");
        assert_eq!(V4::X01.to_string(), "{X,0,1}");
    }

    /// The controllability reading of [`V4`] (the binary values a lead can
    /// be set to at all) as a [`Logic`]: the finite/infinite projection of
    /// SCOAP's `(CC0, CC1)` rules, which is what static `ID_X-red` reads.
    /// Its gates come from [`fold_gate`], as the SCOAP pair's do.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Reach(V4);

    fn pack(can0: bool, can1: bool) -> Reach {
        Reach(V4((can0 as u8) | ((can1 as u8) << 1)))
    }

    impl std::ops::Not for Reach {
        type Output = Reach;

        fn not(self) -> Reach {
            pack(self.0.has_one(), self.0.has_zero())
        }
    }

    impl Logic for Reach {
        fn and(self, other: Reach) -> Reach {
            let (a, b) = (self.0, other.0);
            pack(a.has_zero() || b.has_zero(), a.has_one() && b.has_one())
        }

        fn or(self, other: Reach) -> Reach {
            !(!self).and(!other)
        }

        fn xor(self, other: Reach) -> Reach {
            let (a, b) = (self.0, other.0);
            pack(
                (a.has_zero() && b.has_zero()) || (a.has_one() && b.has_one()),
                (a.has_zero() && b.has_one()) || (a.has_one() && b.has_zero()),
            )
        }
    }

    fn transfer(kind: GateKind, ins: &[V4]) -> V4 {
        fold_gate(kind, ins.iter().map(|&v| Reach(v))).0
    }

    /// Every V4 element corresponds to a set of V3 values; the transfer
    /// function must be exactly the image of the concrete gate evaluation.
    fn concretize(v: V4) -> Vec<V3> {
        let mut out = vec![V3::X];
        if v.has_zero() {
            out.push(V3::Zero);
        }
        if v.has_one() {
            out.push(V3::One);
        }
        out
    }

    fn exact_transfer(kind: GateKind, ins: &[V4]) -> V4 {
        // Enumerate all concrete input combinations and collect outputs.
        fn rec(kind: GateKind, ins: &[V4], acc: &mut Vec<V3>, out: &mut V4) {
            if acc.len() == ins.len() {
                *out = out.observe(eval_gate(kind, acc));
                return;
            }
            for v in concretize(ins[acc.len()]) {
                acc.push(v);
                rec(kind, ins, acc, out);
                acc.pop();
            }
        }
        let mut out = V4::X;
        rec(kind, ins, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn transfer_function_is_exact_binary() {
        for kind in GateKind::ALL {
            if kind.is_unary() {
                for a in V4::ALL {
                    assert_eq!(
                        transfer(kind, &[a]),
                        exact_transfer(kind, &[a]),
                        "{kind} {a}"
                    );
                }
            } else {
                for a in V4::ALL {
                    for b in V4::ALL {
                        assert_eq!(
                            transfer(kind, &[a, b]),
                            exact_transfer(kind, &[a, b]),
                            "{kind} {a} {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transfer_function_is_exact_ternary() {
        for kind in GateKind::ALL.into_iter().filter(|k| !k.is_unary()) {
            for a in V4::ALL {
                for b in V4::ALL {
                    for c in V4::ALL {
                        assert_eq!(
                            transfer(kind, &[a, b, c]),
                            exact_transfer(kind, &[a, b, c]),
                            "{kind} {a} {b} {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn xor_with_x_only_input_is_x() {
        assert_eq!(transfer(GateKind::Xor, &[V4::X, V4::X01]), V4::X);
        assert_eq!(transfer(GateKind::Xnor, &[V4::X01, V4::X]), V4::X);
    }
}
