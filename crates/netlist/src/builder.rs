//! Programmatic netlist construction.

use std::collections::HashMap;

use crate::error::NetlistError;
use crate::model::{GateKind, Net, NetId, Netlist, NodeKind};

/// Incremental builder for [`Netlist`].
///
/// Signals can be created in any order; flip-flop D pins are connected
/// separately via [`connect_dff`](Self::connect_dff) so that feedback loops
/// through memory elements can be expressed. [`finish`](Self::finish)
/// validates the circuit (connected flip-flops, no combinational cycles, at
/// least one output) and levelizes the combinational part.
///
/// # Example
///
/// ```
/// use motsim_netlist::{builder::NetlistBuilder, GateKind};
///
/// # fn main() -> Result<(), motsim_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("sr");
/// let d = b.add_input("D")?;
/// let q = b.add_dff("Q")?;
/// b.connect_dff(q, d)?;
/// b.add_output(q);
/// let n = b.finish()?;
/// assert_eq!(n.num_gates(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    nets: Vec<Net>,
    by_name: HashMap<String, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    dffs: Vec<NetId>,
    dff_connected: Vec<bool>,
}

impl NetlistBuilder {
    /// Creates an empty builder for a circuit called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            nets: Vec::new(),
            by_name: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
            dff_connected: Vec::new(),
        }
    }

    fn intern(
        &mut self,
        name: &str,
        kind: NodeKind,
        fanin: Vec<NetId>,
    ) -> Result<NetId, NetlistError> {
        if self.by_name.contains_key(name) {
            return Err(NetlistError::DuplicateName(name.to_owned()));
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            kind,
            fanin,
            name: name.to_owned(),
        });
        self.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Adds a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if `name` is already taken.
    pub fn add_input(&mut self, name: &str) -> Result<NetId, NetlistError> {
        let pos = self.inputs.len() as u32;
        let id = self.intern(name, NodeKind::Input(pos), Vec::new())?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds a D flip-flop; its Q output is the returned net. The D pin must
    /// be connected later with [`connect_dff`](Self::connect_dff).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if `name` is already taken.
    pub fn add_dff(&mut self, name: &str) -> Result<NetId, NetlistError> {
        let pos = self.dffs.len() as u32;
        let id = self.intern(name, NodeKind::Dff(pos), Vec::new())?;
        self.dffs.push(id);
        self.dff_connected.push(false);
        Ok(id)
    }

    /// Adds a combinational gate with the given fanins.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if `name` is taken and
    /// [`NetlistError::BadArity`] if the arity does not fit `kind` (unary
    /// kinds take exactly one input, the others at least one).
    pub fn add_gate(
        &mut self,
        name: &str,
        kind: GateKind,
        fanin: Vec<NetId>,
    ) -> Result<NetId, NetlistError> {
        check_arity(name, kind, &fanin)?;
        self.intern(name, NodeKind::Gate(kind), fanin)
    }

    /// Adds a combinational gate whose fanins will be supplied later with
    /// [`connect_gate`](Self::connect_gate). Needed for sources (like the
    /// `.bench` format) where gates may reference each other in any order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if `name` is already taken.
    pub fn add_gate_placeholder(
        &mut self,
        name: &str,
        kind: GateKind,
    ) -> Result<NetId, NetlistError> {
        self.intern(name, NodeKind::Gate(kind), Vec::new())
    }

    /// Supplies the fanins of a gate created with
    /// [`add_gate_placeholder`](Self::add_gate_placeholder).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the arity does not fit the
    /// gate's kind, as [`add_gate`](Self::add_gate) does.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not a gate or already has fanins: both are
    /// programming errors.
    pub fn connect_gate(&mut self, gate: NetId, fanin: Vec<NetId>) -> Result<(), NetlistError> {
        let net = &self.nets[gate.index()];
        let NodeKind::Gate(kind) = net.kind else {
            panic!("`{}` is not a gate", net.name);
        };
        assert!(
            net.fanin.is_empty(),
            "gate `{}` already connected",
            net.name
        );
        check_arity(&net.name, kind, &fanin)?;
        self.nets[gate.index()].fanin = fanin;
        Ok(())
    }

    /// Connects net `d` to the D pin of flip-flop `q`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotADff`] if `q` is not a flip-flop and
    /// [`NetlistError::DffAlreadyConnected`] if its D pin is already set.
    pub fn connect_dff(&mut self, q: NetId, d: NetId) -> Result<(), NetlistError> {
        let net = &mut self.nets[q.index()];
        let NodeKind::Dff(pos) = net.kind else {
            return Err(NetlistError::NotADff(net.name.clone()));
        };
        if self.dff_connected[pos as usize] {
            return Err(NetlistError::DffAlreadyConnected(net.name.clone()));
        }
        net.fanin.push(d);
        self.dff_connected[pos as usize] = true;
        Ok(())
    }

    /// Marks `net` as a primary output. A net may be listed more than once
    /// (some `.bench` files do this); duplicates are kept to preserve output
    /// vector positions.
    pub fn add_output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Looks up a previously added signal by name.
    pub fn find(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// Number of signals added so far.
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// Returns `true` if no signals have been added.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// Validates and freezes the circuit.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::UnconnectedDff`] if a flip-flop's D pin is open,
    /// - [`NetlistError::CombinationalCycle`] if the gates form a cycle,
    /// - [`NetlistError::NoOutputs`] if no primary output was declared.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        for (i, &q) in self.dffs.iter().enumerate() {
            if !self.dff_connected[i] {
                return Err(NetlistError::UnconnectedDff(
                    self.nets[q.index()].name.clone(),
                ));
            }
        }
        for net in &self.nets {
            if let NodeKind::Gate(kind) = net.kind {
                if net.fanin.is_empty() {
                    return Err(NetlistError::BadArity {
                        gate: net.name.clone(),
                        kind,
                        arity: 0,
                    });
                }
            }
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }

        let n = self.nets.len();
        // Fanout lists. DFF D pins count as sinks (pin 0).
        let mut fanouts: Vec<Vec<(NetId, u32)>> = vec![Vec::new(); n];
        for (i, net) in self.nets.iter().enumerate() {
            for (pin, &f) in net.fanin.iter().enumerate() {
                fanouts[f.index()].push((NetId(i as u32), pin as u32));
            }
        }

        // Kahn levelization over combinational gates only. Inputs and DFF
        // outputs are level-0 sources; a DFF's D fanin edge is sequential and
        // does not constrain the order.
        let mut level = vec![0u32; n];
        let mut pending: Vec<u32> = self
            .nets
            .iter()
            .map(|net| {
                if net.kind.is_gate() {
                    net.fanin
                        .iter()
                        .filter(|f| self.nets[f.index()].kind.is_gate())
                        .count() as u32
                } else {
                    0
                }
            })
            .collect();
        let mut queue: Vec<NetId> = self
            .nets
            .iter()
            .enumerate()
            .filter(|(_, net)| net.kind.is_gate())
            .filter(|(i, _)| pending[*i] == 0)
            .map(|(i, _)| NetId(i as u32))
            .collect();
        let mut eval_order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            eval_order.push(g);
            level[g.index()] = 1 + self.nets[g.index()]
                .fanin
                .iter()
                .map(|f| level[f.index()])
                .max()
                .unwrap_or(0);
            for &(sink, _) in &fanouts[g.index()] {
                if self.nets[sink.index()].kind.is_gate() {
                    pending[sink.index()] -= 1;
                    if pending[sink.index()] == 0 {
                        queue.push(sink);
                    }
                }
            }
        }
        let gate_count = self.nets.iter().filter(|x| x.kind.is_gate()).count();
        if eval_order.len() != gate_count {
            // Some gate never reached pending == 0: it is on a cycle.
            let culprit = self
                .nets
                .iter()
                .enumerate()
                .find(|(i, net)| net.kind.is_gate() && pending[*i] > 0)
                .map(|(_, net)| net.name.clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle(culprit));
        }

        Ok(Netlist {
            name: self.name,
            nets: self.nets,
            inputs: self.inputs,
            outputs: self.outputs,
            dffs: self.dffs,
            fanouts,
            eval_order,
            level,
        })
    }
}

/// Checks a gate's arity: unary kinds take exactly one input, the others
/// at least one.
fn check_arity(gate: &str, kind: GateKind, fanin: &[NetId]) -> Result<(), NetlistError> {
    let ok = if kind.is_unary() {
        fanin.len() == 1
    } else {
        !fanin.is_empty()
    };
    if ok {
        Ok(())
    } else {
        Err(NetlistError::BadArity {
            gate: gate.to_owned(),
            kind,
            arity: fanin.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_name_rejected() {
        let mut b = NetlistBuilder::new("t");
        b.add_input("A").unwrap();
        assert_eq!(
            b.add_input("A"),
            Err(NetlistError::DuplicateName("A".into()))
        );
    }

    #[test]
    fn unary_arity_checked() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let c = b.add_input("B").unwrap();
        let err = b.add_gate("N", GateKind::Not, vec![a, c]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { arity: 2, .. }));
        let err = b.add_gate("G", GateKind::And, vec![]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { arity: 0, .. }));
    }

    #[test]
    fn unconnected_dff_rejected() {
        let mut b = NetlistBuilder::new("t");
        let q = b.add_dff("Q").unwrap();
        b.add_output(q);
        assert_eq!(
            b.finish().unwrap_err(),
            NetlistError::UnconnectedDff("Q".into())
        );
    }

    #[test]
    fn double_dff_connection_rejected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let q = b.add_dff("Q").unwrap();
        b.connect_dff(q, a).unwrap();
        assert_eq!(
            b.connect_dff(q, a),
            Err(NetlistError::DffAlreadyConnected("Q".into()))
        );
    }

    #[test]
    fn connect_dff_rejects_gate() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let g = b.add_gate("G", GateKind::Buf, vec![a]).unwrap();
        assert_eq!(b.connect_dff(g, a), Err(NetlistError::NotADff("G".into())));
    }

    #[test]
    fn no_outputs_rejected() {
        let mut b = NetlistBuilder::new("t");
        b.add_input("A").unwrap();
        assert_eq!(b.finish().unwrap_err(), NetlistError::NoOutputs);
    }

    #[test]
    fn combinational_cycle_rejected() {
        // G = AND(A, H); H = NOT(G) — a pure combinational loop.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        // Create placeholder via two gates referring to each other: build H
        // first referring to G's future id is impossible through the safe
        // API, so emulate with the parser-style trick: AND feeding itself.
        let g = b.add_gate("G", GateKind::And, vec![a, NetId(1)]).unwrap();
        assert_eq!(g, NetId(1)); // self-loop
        b.add_output(g);
        assert_eq!(
            b.finish().unwrap_err(),
            NetlistError::CombinationalCycle("G".into())
        );
    }

    #[test]
    fn sequential_loop_allowed() {
        let mut b = NetlistBuilder::new("t");
        let q = b.add_dff("Q").unwrap();
        let g = b.add_gate("G", GateKind::Not, vec![q]).unwrap();
        b.connect_dff(q, g).unwrap();
        b.add_output(q);
        let n = b.finish().unwrap();
        assert_eq!(n.num_gates(), 1);
        assert_eq!(n.level(g), 1);
    }

    #[test]
    fn fanout_records_pins() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let c = b.add_input("B").unwrap();
        let g = b.add_gate("G", GateKind::Nand, vec![a, c, a]).unwrap();
        b.add_output(g);
        let n = b.finish().unwrap();
        let a = n.find("A").unwrap();
        assert_eq!(n.fanout(a), &[(g, 0), (g, 2)]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut b = NetlistBuilder::new("t");
        assert!(b.is_empty());
        b.add_input("A").unwrap();
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert_eq!(b.find("A"), Some(NetId(0)));
    }
}
