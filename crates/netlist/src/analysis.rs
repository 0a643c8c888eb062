//! Structural analysis: cones and statistics.

use std::collections::HashMap;

use crate::model::{GateKind, NetId, Netlist, NodeKind};

/// Aggregate structural statistics of a netlist, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistStats {
    /// Primary input count `k`.
    pub inputs: usize,
    /// Primary output count `l`.
    pub outputs: usize,
    /// Flip-flop count `m`.
    pub dffs: usize,
    /// Combinational gate count.
    pub gates: usize,
    /// Combinational depth.
    pub depth: u32,
    /// Number of stems.
    pub stems: usize,
    /// Largest fanout of any net.
    pub max_fanout: usize,
    /// Gate count per kind.
    pub kind_histogram: Vec<(GateKind, usize)>,
}

impl NetlistStats {
    /// Gathers statistics from `netlist`.
    pub fn of(netlist: &Netlist) -> Self {
        let mut hist: HashMap<GateKind, usize> = HashMap::new();
        for id in netlist.net_ids() {
            if let NodeKind::Gate(k) = netlist.net(id).kind() {
                *hist.entry(k).or_insert(0) += 1;
            }
        }
        let mut kind_histogram: Vec<(GateKind, usize)> = GateKind::ALL
            .iter()
            .filter_map(|k| hist.get(k).map(|&c| (*k, c)))
            .collect();
        kind_histogram.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        NetlistStats {
            inputs: netlist.num_inputs(),
            outputs: netlist.num_outputs(),
            dffs: netlist.num_dffs(),
            gates: netlist.num_gates(),
            depth: netlist.depth(),
            stems: netlist.net_ids().filter(|&id| netlist.is_stem(id)).count(),
            max_fanout: netlist
                .net_ids()
                .map(|id| netlist.fanout(id).len())
                .max()
                .unwrap_or(0),
            kind_histogram,
        }
    }
}

/// Computes the transitive fanout cone of `net`: every net whose value can
/// combinationally depend on it, including `net` itself. Flip-flop D pins
/// terminate the cone (sequential edges are not followed).
pub fn fanout_cone(netlist: &Netlist, net: NetId) -> Vec<NetId> {
    let mut seen = vec![false; netlist.num_nets()];
    let mut stack = vec![net];
    let mut cone = Vec::new();
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        cone.push(id);
        for &(sink, _) in netlist.fanout(id) {
            if netlist.net(sink).kind().is_gate() {
                stack.push(sink);
            }
        }
    }
    cone.sort();
    cone
}

/// Computes the transitive (combinational) fanin cone of `net`, including
/// `net` itself; stops at primary inputs and flip-flop outputs.
pub fn fanin_cone(netlist: &Netlist, net: NetId) -> Vec<NetId> {
    let mut seen = vec![false; netlist.num_nets()];
    let mut stack = vec![net];
    let mut cone = Vec::new();
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        cone.push(id);
        if netlist.net(id).kind().is_gate() {
            for &f in netlist.net(id).fanin() {
                stack.push(f);
            }
        }
    }
    cone.sort();
    cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    /// A -> N -> [X, Y]; X = AND(N, B); Y = OR(N, Q); Q = DFF(X); PO: Y.
    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("s");
        let a = b.add_input("A").unwrap();
        let bi = b.add_input("B").unwrap();
        let q = b.add_dff("Q").unwrap();
        let n = b.add_gate("N", GateKind::Not, vec![a]).unwrap();
        let x = b.add_gate("X", GateKind::And, vec![n, bi]).unwrap();
        let y = b.add_gate("Y", GateKind::Or, vec![n, q]).unwrap();
        b.connect_dff(q, x).unwrap();
        b.add_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn stems_identified() {
        let nl = sample();
        let n = nl.find("N").unwrap();
        let x = nl.find("X").unwrap();
        let y = nl.find("Y").unwrap();
        // N fans out twice -> stem. X feeds the DFF -> stem. Y is a PO -> stem.
        assert!(nl.is_stem(n));
        assert!(nl.is_stem(x));
        assert!(nl.is_stem(y));
        // A and B each feed one gate and nothing else.
        assert!(!nl.is_stem(nl.find("A").unwrap()));
        assert!(!nl.is_stem(nl.find("B").unwrap()));
        assert_eq!(NetlistStats::of(&nl).stems, 3);
    }

    #[test]
    fn cones() {
        let nl = sample();
        let a = nl.find("A").unwrap();
        let n = nl.find("N").unwrap();
        let x = nl.find("X").unwrap();
        let y = nl.find("Y").unwrap();
        let q = nl.find("Q").unwrap();
        let fo = fanout_cone(&nl, a);
        assert_eq!(fo, vec![a, n, x, y]);
        let fi = fanin_cone(&nl, y);
        assert_eq!(
            fi,
            vec![a, q, n, y]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn stats() {
        let nl = sample();
        let st = NetlistStats::of(&nl);
        assert_eq!(st.inputs, 2);
        assert_eq!(st.outputs, 1);
        assert_eq!(st.dffs, 1);
        assert_eq!(st.gates, 3);
        assert_eq!(st.max_fanout, 2);
        assert_eq!(st.kind_histogram.iter().map(|(_, c)| c).sum::<usize>(), 3);
    }
}
