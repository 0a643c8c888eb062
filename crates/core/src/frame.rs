//! The dense frame kernel shared by `simb`, `pfsim` and `sim3`: one
//! levelized frame pass and one next-state step, generic over the value
//! domain ([`Logic`]) and the fault injector ([`Inject`]). The kernel alone
//! fixes *where* a stuck-at fault can force a value — every stem, gate
//! input pin and D pin; an injector only says *what* is forced there.

use motsim_logic::{fold_gate, Logic};
use motsim_netlist::{Lead, NetId, Netlist, NodeKind};

use crate::faults::Fault;

/// The values a stuck-at fault model forces on a frame's leads.
pub(crate) trait Inject<L> {
    /// The value stem `net` carries, given its fault-free value `v`.
    fn stem(&self, net: NetId, v: L) -> L;
    /// The value branch `lead` delivers to its sink pin, from stem value `v`.
    fn pin(&self, lead: Lead, v: L) -> L;
}

/// A single stuck-at fault forced in every lane, or none.
impl<L: Logic> Inject<L> for Option<Fault> {
    #[inline]
    fn stem(&self, net: NetId, v: L) -> L {
        self.pin(Lead::stem(net), v)
    }

    #[inline]
    fn pin(&self, lead: Lead, v: L) -> L {
        match self {
            Some(f) if f.lead == lead => L::from_bool(f.stuck),
            _ => v,
        }
    }
}

/// Boolean primary-input values as known values of the domain `L`.
pub(crate) fn known<L: Logic>(bits: &[bool]) -> impl ExactSizeIterator<Item = L> + '_ {
    bits.iter().map(|&b| L::from_bool(b))
}

/// Evaluates one combinational frame into `values` (indexed by net), with
/// the injector's forcing applied.
///
/// # Panics
///
/// Panics if `inputs`/`state` lengths do not match the circuit.
pub(crate) fn eval_frame<L: Logic>(
    netlist: &Netlist,
    state: &[L],
    inputs: impl ExactSizeIterator<Item = L>,
    inject: &impl Inject<L>,
    values: &mut Vec<L>,
) {
    assert_eq!(inputs.len(), netlist.num_inputs(), "input width mismatch");
    assert_eq!(state.len(), netlist.num_dffs(), "state width mismatch");
    values.clear();
    values.resize(netlist.num_nets(), L::default());
    for (&pi, v) in netlist.inputs().iter().zip(inputs) {
        values[pi.index()] = inject.stem(pi, v);
    }
    for (&q, &v) in netlist.dffs().iter().zip(state) {
        values[q.index()] = inject.stem(q, v);
    }
    for &g in netlist.eval_order() {
        let net = netlist.net(g);
        let NodeKind::Gate(kind) = net.kind() else {
            unreachable!("eval order contains only gates")
        };
        let pins = net
            .fanin()
            .iter()
            .enumerate()
            .map(|(pin, &f)| inject.pin(Lead::branch(f, g, pin as u32), values[f.index()]));
        values[g.index()] = inject.stem(g, fold_gate(kind, pins));
    }
}

/// Advances `state` after [`eval_frame`]: each flip-flop stores the value
/// its D pin receives.
///
/// # Panics
///
/// Panics if `state` does not match the flip-flop count.
pub(crate) fn next_state<L: Logic>(
    netlist: &Netlist,
    values: &[L],
    inject: &impl Inject<L>,
    state: &mut [L],
) {
    assert_eq!(state.len(), netlist.num_dffs(), "state width mismatch");
    for (s, &q) in state.iter_mut().zip(netlist.dffs()) {
        let d = netlist.dff_d(q);
        *s = inject.pin(Lead::branch(d, q, 0), values[d.index()]);
    }
}
