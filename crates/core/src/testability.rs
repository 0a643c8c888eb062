//! SCOAP testability measures (Goldstein \[6\], cited in Section III).
//!
//! The paper positions `ID_X-red` against classical testability analysis:
//! SCOAP-style measures identify faults that are hard (or impossible) to
//! detect with *any* sequence, while `ID_X-red` exploits the concrete
//! sequence at hand. This module implements the classical measures so the
//! two can be compared:
//!
//! - **CC0/CC1** (controllability): effort to set a net to 0/1,
//! - **CO** (observability): effort to propagate a net's value to a
//!   primary output,
//!
//! extended to sequential circuits by the usual flip-flop rules
//! (`CC(Q) = CC(D) + 1`, `CO(D) = CO(Q) + 1`) and computed as monotone
//! fixpoints over the feedback.
//!
//! Controllability is a value domain of the dense frame kernel: a pair
//! `(CC0, CC1)` per net, with AND taking the cheapest pin's 0 and the sum of
//! the pins' 1s, OR its De Morgan dual, XOR the cheapest parity and NOT the
//! swapped pair. One pass runs frames from all-unreachable flip-flops
//! until the flip-flop costs settle; the static `ID_X-red` analysis
//! ([`XRedAnalysis::analyze_static`]) reads its finiteness.
//!
//! Unreachable goals are [`INFINITY`]. A sum of finite costs saturates at
//! `INFINITY - 1`, never at `INFINITY`, so a cost is infinite only where the
//! rules cannot derive the goal at all, however large the circuit.
//!
//! [`XRedAnalysis::analyze_static`]: crate::xred::XRedAnalysis::analyze_static

use std::convert::Infallible;
use std::ops::Not;

use motsim_logic::{fold_gate, Logic};
use motsim_netlist::{GateKind, NetId, Netlist, NodeKind};

use crate::faults::Fault;
use crate::frame::{self, Domain};

/// Saturation value for unattainable goals (e.g. a net that can never be
/// driven to 1).
pub const INFINITY: u32 = u32::MAX / 4;

/// `a + b`: [`INFINITY`] if either is, and at most `INFINITY - 1` otherwise.
fn sat_add(a: u32, b: u32) -> u32 {
    if a >= INFINITY || b >= INFINITY {
        INFINITY
    } else {
        (a + b).min(INFINITY - 1)
    }
}

/// The SCOAP controllability of a net: the cost of setting it to 0 and
/// to 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cc {
    pub(crate) zero: u32,
    pub(crate) one: u32,
}

impl Cc {
    /// Neither value can be set.
    const UNREACHABLE: Cc = Cc {
        zero: INFINITY,
        one: INFINITY,
    };

    /// A primary input: either value costs 1.
    const INPUT: Cc = Cc { zero: 1, one: 1 };

    fn min(self, other: Cc) -> Cc {
        Cc {
            zero: self.zero.min(other.zero),
            one: self.one.min(other.one),
        }
    }

    fn plus_one(self) -> Cc {
        Cc {
            zero: sat_add(self.zero, 1),
            one: sat_add(self.one, 1),
        }
    }
}

impl Not for Cc {
    type Output = Cc;

    fn not(self) -> Cc {
        Cc {
            zero: self.one,
            one: self.zero,
        }
    }
}

impl Logic for Cc {
    /// The cheapest pin's 0, or every pin's 1.
    fn and(self, other: Cc) -> Cc {
        Cc {
            zero: self.zero.min(other.zero),
            one: sat_add(self.one, other.one),
        }
    }

    fn or(self, other: Cc) -> Cc {
        !(!self).and(!other)
    }

    /// The cheapest way to reach each parity.
    fn xor(self, other: Cc) -> Cc {
        Cc {
            zero: sat_add(self.zero, other.zero).min(sat_add(self.one, other.one)),
            one: sat_add(self.zero, other.one).min(sat_add(self.one, other.zero)),
        }
    }
}

/// A gate costs one more than what it takes to set its pins.
impl Domain for Cc {
    type Error = Infallible;

    fn gate(kind: GateKind, pins: impl Iterator<Item = Cc>) -> Result<Cc, Infallible> {
        Ok(fold_gate(kind, pins).plus_one())
    }
}

/// The controllability of every net: frames of the dense kernel from
/// all-unreachable flip-flops, each flip-flop then taking
/// `min(CC(Q), CC(D) + 1)`, until no flip-flop cost falls.
///
/// Flip-flop costs only fall and a gate's cost never rises when a pin's
/// falls, so the last frame's gate costs are the least any frame reached.
pub(crate) fn controllability(netlist: &Netlist) -> Vec<Cc> {
    let mut state = vec![Cc::UNREACHABLE; netlist.num_dffs()];
    let mut values = vec![Cc::UNREACHABLE; netlist.num_nets()];
    loop {
        let inputs = std::iter::repeat_n(Cc::INPUT, netlist.num_inputs());
        let Ok(()) = frame::eval_frame(netlist, &state, inputs, None, &mut values);
        let mut changed = false;
        for (s, &q) in state.iter_mut().zip(netlist.dffs()) {
            let next = s.min(values[netlist.dff_d(q).index()].plus_one());
            changed |= next != *s;
            *s = next;
        }
        if !changed {
            return values;
        }
    }
}

/// SCOAP controllability/observability numbers for every net.
#[derive(Debug, Clone)]
pub struct Testability {
    cc: Vec<Cc>,
    co: Vec<u32>,
}

impl Testability {
    /// Computes the measures for `netlist` (fixpoint over feedback loops).
    ///
    /// # Example
    ///
    /// ```
    /// use motsim::testability::Testability;
    ///
    /// let circuit = motsim_circuits::s27();
    /// let t = Testability::analyze(&circuit);
    /// let g0 = circuit.find("G0").unwrap();
    /// assert_eq!(t.cc0(g0), 1); // primary inputs cost 1
    /// ```
    pub fn analyze(netlist: &Netlist) -> Self {
        let cc = controllability(netlist);

        // Observability fixpoint.
        let mut co = vec![INFINITY; netlist.num_nets()];
        for &po in netlist.outputs() {
            co[po.index()] = 0;
        }
        loop {
            let mut changed = false;
            // Process sinks: a net's CO improves through any sink.
            for id in netlist.net_ids() {
                let net = netlist.net(id);
                match net.kind() {
                    NodeKind::Gate(kind) => {
                        for (pin, &f) in net.fanin().iter().enumerate() {
                            let v = input_observability(netlist, id, kind, pin, &cc, &co);
                            if v < co[f.index()] {
                                co[f.index()] = v;
                                changed = true;
                            }
                        }
                    }
                    NodeKind::Dff(_) => {
                        let d = net.fanin()[0];
                        let v = sat_add(co[id.index()], 1);
                        if v < co[d.index()] {
                            co[d.index()] = v;
                            changed = true;
                        }
                    }
                    NodeKind::Input(_) => {}
                }
            }
            if !changed {
                break;
            }
        }

        Testability { cc, co }
    }

    /// Effort to drive `net` to 0.
    pub fn cc0(&self, net: NetId) -> u32 {
        self.cc[net.index()].zero
    }

    /// Effort to drive `net` to 1.
    pub fn cc1(&self, net: NetId) -> u32 {
        self.cc[net.index()].one
    }

    /// Effort to observe `net` at a primary output.
    pub fn co(&self, net: NetId) -> u32 {
        self.co[net.index()]
    }

    /// The SCOAP detection cost of a stuck-at fault: excitation (drive the
    /// net to the opposite value) plus observation. [`INFINITY`]-saturated
    /// costs indicate faults no sequence can detect under this (structural,
    /// pessimism-free in the other direction) model.
    pub fn detect_cost(&self, fault: Fault) -> u32 {
        let excite = if fault.stuck {
            self.cc0(fault.lead.net)
        } else {
            self.cc1(fault.lead.net)
        };
        sat_add(excite, self.co(fault.lead.net))
    }

    /// `true` if the SCOAP model says no sequence can detect the fault
    /// (excitation or observation saturates).
    pub fn is_untestable(&self, fault: Fault) -> bool {
        self.detect_cost(fault) >= INFINITY
    }
}

fn input_observability(
    netlist: &Netlist,
    gate: NetId,
    kind: GateKind,
    pin: usize,
    cc: &[Cc],
    co: &[u32],
) -> u32 {
    let out_co = co[gate.index()];
    if out_co >= INFINITY {
        return INFINITY;
    }
    let net = netlist.net(gate);
    let mut cost = sat_add(out_co, 1);
    for (p2, &f) in net.fanin().iter().enumerate() {
        if p2 == pin {
            continue;
        }
        // Side inputs must take the non-controlling value; XOR sides must
        // merely be set to a known value (cheapest of both).
        let side = match kind {
            GateKind::And | GateKind::Nand => cc[f.index()].one,
            GateKind::Or | GateKind::Nor => cc[f.index()].zero,
            GateKind::Xor | GateKind::Xnor => cc[f.index()].zero.min(cc[f.index()].one),
            GateKind::Not | GateKind::Buf => 0,
        };
        cost = sat_add(cost, side);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use motsim_logic::{eval_gate, V3};
    use motsim_netlist::builder::NetlistBuilder;
    use motsim_netlist::Lead;

    fn gate(kind: GateKind, pins: &[Cc]) -> Cc {
        let Ok(out) = Cc::gate(kind, pins.iter().copied());
        out
    }

    /// Every (kind, arity) the gate rules must hold for: arities 1-3, and
    /// only 1 for the unary kinds.
    fn shapes() -> impl Iterator<Item = (GateKind, usize)> {
        GateKind::ALL.into_iter().flat_map(|kind| {
            let max = if kind.is_unary() { 1 } else { 3 };
            (1..=max).map(move |arity| (kind, arity))
        })
    }

    /// Every vector whose `i`-th entry is drawn from `domains[i]`.
    fn product<T: Clone>(domains: &[Vec<T>]) -> Vec<Vec<T>> {
        domains.iter().fold(vec![Vec::new()], |acc, domain| {
            acc.iter()
                .flat_map(|prefix| {
                    domain.iter().map(move |v| {
                        let mut next = prefix.clone();
                        next.push(v.clone());
                        next
                    })
                })
                .collect()
        })
    }

    /// Every vector of `arity` pins whose costs are drawn from `costs`.
    fn all_pins(costs: &[u32], arity: usize) -> Vec<Vec<Cc>> {
        let pairs: Vec<Cc> = costs
            .iter()
            .flat_map(|&zero| costs.iter().map(move |&one| Cc { zero, one }))
            .collect();
        product(&vec![pairs; arity])
    }

    /// A gate's `CC_b` is finite iff some assignment of reachable pin values
    /// gives `b`, where a pin can always be `X` and can be `b'` iff its
    /// `CC_b'` is finite. This is what static `ID_X-red` reads.
    #[test]
    fn finite_costs_are_exactly_the_reachable_values() {
        for (kind, arity) in shapes() {
            for pins in all_pins(&[2, INFINITY], arity) {
                let reachable = |p: &Cc| {
                    let mut values = vec![V3::X];
                    if p.zero < INFINITY {
                        values.push(V3::Zero);
                    }
                    if p.one < INFINITY {
                        values.push(V3::One);
                    }
                    values
                };
                let domains: Vec<Vec<V3>> = pins.iter().map(reachable).collect();
                let outs: Vec<V3> = product(&domains)
                    .iter()
                    .map(|a| eval_gate(kind, a))
                    .collect();
                let out = gate(kind, &pins);
                let msg = format!("{kind} {pins:?}");
                assert_eq!(out.zero < INFINITY, outs.contains(&V3::Zero), "{msg}");
                assert_eq!(out.one < INFINITY, outs.contains(&V3::One), "{msg}");
            }
        }
    }

    /// Lowering a pin's cost never raises the gate's: why frames from the
    /// settled flip-flop costs reach the least cost of every gate.
    #[test]
    fn lowering_a_pin_cost_never_raises_the_gate_cost() {
        let costs = [1, 4, INFINITY - 1, INFINITY];
        for (kind, arity) in shapes() {
            for pins in all_pins(&costs, arity) {
                let out = gate(kind, &pins);
                for (pin, lower) in (0..arity).flat_map(|pin| costs.map(|c| (pin, c))) {
                    let p = pins[pin];
                    for lowered in [Cc { zero: lower, ..p }, Cc { one: lower, ..p }] {
                        if lowered.zero > p.zero || lowered.one > p.one {
                            continue;
                        }
                        let mut low = pins.clone();
                        low[pin] = lowered;
                        let low_out = gate(kind, &low);
                        assert!(
                            low_out.zero <= out.zero && low_out.one <= out.one,
                            "{kind} {pins:?} -> {low:?}"
                        );
                    }
                }
            }
        }
    }

    /// On g838 a chain of finite sums passes `INFINITY`; the nets it feeds
    /// can still be set to 1, so their `CC1` stays finite.
    #[test]
    fn sums_of_finite_costs_stay_finite_on_g838() {
        let n = motsim_circuits::suite::by_name("g838").unwrap();
        let t = Testability::analyze(&n);
        for name in ["B27", "C26", "C27", "D27", "S27"] {
            let cc1 = t.cc1(n.find(name).unwrap());
            assert!(cc1 < INFINITY, "CC1({name}) = {cc1}");
        }
    }

    /// The excitation half of SCOAP untestability implies static
    /// `ID_X-red`: a fault whose site SCOAP cannot set to the value opposite
    /// to the stuck one is flagged, since both read the one controllability
    /// pass. (The observation half does not: static `ID_X-red` keeps many
    /// faults SCOAP finds unobservable.) g838 is where a sum saturating at
    /// `INFINITY` once left such faults unflagged.
    #[test]
    fn scoap_untestable_implies_xred_static() {
        let n = motsim_circuits::suite::by_name("g838").unwrap();
        let t = Testability::analyze(&n);
        let xred = crate::xred::XRedAnalysis::analyze_static(&n);
        let mut unexcitable = 0;
        for f in crate::faults::FaultList::complete(&n).iter() {
            let excite = if f.stuck {
                t.cc0(f.lead.net)
            } else {
                t.cc1(f.lead.net)
            };
            if excite >= INFINITY {
                assert!(t.is_untestable(*f), "{}", f.display(&n));
                assert!(
                    xred.is_undetectable(*f),
                    "SCOAP cannot excite it but static X-red keeps it: {}",
                    f.display(&n)
                );
                unexcitable += 1;
            }
        }
        assert!(unexcitable > 0, "g838 has SCOAP-unexcitable faults");
    }

    #[test]
    fn textbook_and_gate() {
        // Z = AND(A, B), PO Z. CC1(Z) = CC1(A)+CC1(B)+1 = 3;
        // CC0(Z) = min(CC0) + 1 = 2; CO(A) = CO(Z)+CC1(B)+1 = 2.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let bb = b.add_input("B").unwrap();
        let z = b.add_gate("Z", GateKind::And, vec![a, bb]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let t = Testability::analyze(&n);
        assert_eq!(t.cc1(z), 3);
        assert_eq!(t.cc0(z), 2);
        assert_eq!(t.co(z), 0);
        assert_eq!(t.co(a), 2);
        assert_eq!(t.cc0(a), 1);
    }

    #[test]
    fn xor_parity_dp() {
        // Z = XOR(A, B): CC1 = min(CC1+CC0, CC0+CC1)+1 = 3, CC0 likewise 3.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let bb = b.add_input("B").unwrap();
        let z = b.add_gate("Z", GateKind::Xor, vec![a, bb]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let t = Testability::analyze(&n);
        assert_eq!(t.cc1(z), 3);
        assert_eq!(t.cc0(z), 3);
    }

    #[test]
    fn flip_flop_adds_sequential_depth() {
        // A -> D -> Q -> Z: controllability of Q is one more than A's.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let q = b.add_dff("Q").unwrap();
        b.connect_dff(q, a).unwrap();
        let z = b.add_gate("Z", GateKind::Buf, vec![q]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let t = Testability::analyze(&n);
        assert_eq!(t.cc1(q), 2);
        assert_eq!(t.cc0(q), 2);
        assert_eq!(t.co(a), 2); // through the FF (+1) and the buffer (+1)
    }

    #[test]
    fn feedback_fixpoint_terminates_and_saturates() {
        // Q' = OR(Q, A): once 1, always 1 -> CC0(Q) is unreachable except
        // via the initial... with no reset, SCOAP says CC0(Q) = CC0(D)+1 =
        // (CC0(Q)+CC0(A)+1)+1 -> only solution is saturation.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let q = b.add_dff("Q").unwrap();
        let d = b.add_gate("D", GateKind::Or, vec![q, a]).unwrap();
        b.connect_dff(q, d).unwrap();
        let z = b.add_gate("Z", GateKind::Buf, vec![q]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let t = Testability::analyze(&n);
        assert!(t.cc0(q) >= INFINITY, "sticky-1 loop must saturate CC0");
        assert!(t.cc1(q) < INFINITY);
        // The stuck-at-1 fault on Q is untestable in this model.
        assert!(t.is_untestable(Fault::stuck_at_1(Lead::stem(q))));
        assert!(!t.is_untestable(Fault::stuck_at_0(Lead::stem(q))));
    }

    #[test]
    fn unobservable_cone_saturates_co() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let g = b.add_gate("G", GateKind::Not, vec![a]).unwrap();
        let q = b.add_dff("Q").unwrap();
        b.connect_dff(q, g).unwrap(); // Q feeds nothing
        let z = b.add_gate("Z", GateKind::Buf, vec![a]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let t = Testability::analyze(&n);
        assert!(t.co(g) >= INFINITY);
        assert_eq!(t.co(a), 1);
    }

    #[test]
    fn costs_are_positive_and_monotone_along_chains() {
        let n = motsim_circuits::generators::shift_register(6);
        let t = Testability::analyze(&n);
        // Deeper stages cost more to control.
        let mut last = 0;
        for i in 0..6 {
            let q = n.find(&format!("S{i}")).unwrap();
            let c = t.cc1(q);
            assert!(c > last, "stage {i}: {c} <= {last}");
            last = c;
        }
    }
}
