//! Core data types of the gate-level circuit model.

use std::fmt;

/// Identifier of a net (equivalently, of the node driving it).
///
/// Every node — primary input, flip-flop or gate — drives exactly one net, so
/// nets and nodes share one identifier space. `NetId`s are dense indices into
/// [`Netlist`] internal tables and are stable for the lifetime of the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Returns the dense index of this net.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `NetId` from a dense index.
    ///
    /// Mostly useful for tables indexed by net; passing an index that does not
    /// belong to the netlist the id is used with leads to panics later on.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NetId(i as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The combinational gate types of the ISCAS-89 `.bench` format.
///
/// `And`, `Nand`, `Or`, `Nor`, `Xor`, `Xnor` are n-ary (n ≥ 1; the n-ary XOR
/// is parity, XNOR its complement); `Not` and `Buf` are unary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical conjunction.
    And,
    /// Negated conjunction.
    Nand,
    /// Logical disjunction.
    Or,
    /// Negated disjunction.
    Nor,
    /// Parity (n-ary exclusive or).
    Xor,
    /// Complemented parity.
    Xnor,
    /// Inverter.
    Not,
    /// Non-inverting buffer.
    Buf,
}

impl GateKind {
    /// All gate kinds, in a fixed order.
    pub const ALL: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];

    /// Returns `true` for the unary kinds `Not` and `Buf`.
    pub fn is_unary(self) -> bool {
        matches!(self, GateKind::Not | GateKind::Buf)
    }

    /// Returns `true` if the gate output is inverted relative to its
    /// "base" function (NAND/NOR/XNOR/NOT).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// The controlling input value of the gate, if it has one.
    ///
    /// An input at the controlling value determines the gate output on its
    /// own (0 for AND/NAND, 1 for OR/NOR). XOR-family and unary gates have no
    /// controlling value.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// The `.bench` keyword for this kind.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A primary input; payload is the input position (0-based).
    Input(u32),
    /// A D flip-flop (memory element); payload is the state position
    /// (0-based). Its single fanin is the D pin, its net is the Q output.
    Dff(u32),
    /// A combinational gate.
    Gate(GateKind),
}

impl NodeKind {
    /// Returns `true` if this node is a combinational gate.
    pub fn is_gate(self) -> bool {
        matches!(self, NodeKind::Gate(_))
    }

    /// Returns `true` if this node is a memory element.
    pub fn is_dff(self) -> bool {
        matches!(self, NodeKind::Dff(_))
    }
}

/// One net of the circuit together with the node that drives it.
#[derive(Debug, Clone)]
pub struct Net {
    pub(crate) kind: NodeKind,
    pub(crate) fanin: Vec<NetId>,
    pub(crate) name: String,
}

impl Net {
    /// The kind of the driving node.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The fanin nets of the driving node (empty for inputs, the D pin for
    /// flip-flops, the gate inputs for gates).
    pub fn fanin(&self) -> &[NetId] {
        &self.fanin
    }

    /// The signal name, as given at construction / in the `.bench` source.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A fault site: either the *stem* of a net (the driving gate's output) or a
/// fanout *branch* (one specific sink pin of a net with fanout ≥ 2).
///
/// This is the "lead" notion of the paper: stuck-at faults are placed both on
/// gate outputs and, where a net fans out, independently on each branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lead {
    /// The net this lead carries.
    pub net: NetId,
    /// `None` for the stem; `Some((sink, pin))` for the branch entering input
    /// `pin` of node `sink`.
    pub sink: Option<(NetId, u32)>,
}

impl Lead {
    /// Creates the stem lead of `net`.
    pub fn stem(net: NetId) -> Self {
        Lead { net, sink: None }
    }

    /// Creates the branch lead of `net` entering `pin` of `sink`.
    pub fn branch(net: NetId, sink: NetId, pin: u32) -> Self {
        Lead {
            net,
            sink: Some((sink, pin)),
        }
    }

    /// Returns `true` if this is a stem lead.
    pub fn is_stem(self) -> bool {
        self.sink.is_none()
    }
}

impl fmt::Display for Lead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sink {
            None => write!(f, "{}", self.net),
            Some((s, p)) => write!(f, "{}->{}#{}", self.net, s, p),
        }
    }
}

/// An immutable gate-level synchronous sequential circuit.
///
/// Constructed through [`crate::builder::NetlistBuilder`] or
/// [`crate::parse::parse_bench`]; validated on construction (unique names,
/// connected flip-flops, no combinational cycles). See the
/// [crate-level docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
    pub(crate) dffs: Vec<NetId>,
    /// Per net: the sink pins it drives, as `(sink node, pin index)`.
    pub(crate) fanouts: Vec<Vec<(NetId, u32)>>,
    /// Combinational gates in topological (levelized) evaluation order.
    pub(crate) eval_order: Vec<NetId>,
    /// Per net: combinational level (inputs and FF outputs are level 0).
    pub(crate) level: Vec<u32>,
}

impl Netlist {
    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs `k`.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs `l`.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of memory elements `m`.
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Total number of nets (= nodes).
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of combinational gates.
    pub fn num_gates(&self) -> usize {
        self.eval_order.len()
    }

    /// Primary input nets, in input-vector order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in output-vector order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Flip-flop output (Q) nets, in state-vector order.
    pub fn dffs(&self) -> &[NetId] {
        &self.dffs
    }

    /// The net record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// All nets, indexable by [`NetId::index`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// The D-pin net of flip-flop `q` (its single fanin).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a flip-flop of this netlist.
    pub fn dff_d(&self, q: NetId) -> NetId {
        let net = self.net(q);
        assert!(net.kind.is_dff(), "{q} is not a flip-flop");
        net.fanin[0]
    }

    /// The sink pins driven by `net`, as `(sink node, pin index)` pairs.
    pub fn fanout(&self, net: NetId) -> &[(NetId, u32)] {
        &self.fanouts[net.index()]
    }

    /// Combinational gates in a topological order suitable for single-pass
    /// evaluation (every gate appears after all of its fanins that are gates).
    pub fn eval_order(&self) -> &[NetId] {
        &self.eval_order
    }

    /// Combinational level of `net`: 0 for primary inputs and flip-flop
    /// outputs, `1 + max(level of fanins)` for gates.
    pub fn level(&self, net: NetId) -> u32 {
        self.level[net.index()]
    }

    /// The maximum combinational level (circuit depth).
    pub fn depth(&self) -> u32 {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// Looks a net up by name.
    pub fn find(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| NetId(i as u32))
    }

    /// Returns `true` if `net` is a primary output.
    pub fn is_output(&self, net: NetId) -> bool {
        self.outputs.contains(&net)
    }

    /// Enumerates all leads of the circuit: one stem per net plus one branch
    /// per sink pin of every net with fanout ≥ 2.
    ///
    /// This is the site list of the single-stuck-at fault model; the leads
    /// are returned in a deterministic order (stems by net id, branches by
    /// `(net, sink, pin)`).
    pub fn leads(&self) -> Vec<Lead> {
        let mut out = Vec::new();
        for id in self.net_ids() {
            out.push(Lead::stem(id));
            let fo = self.fanout(id);
            if fo.len() >= 2 {
                for &(sink, pin) in fo {
                    out.push(Lead::branch(id, sink, pin));
                }
            }
        }
        out
    }

    /// Returns `true` if `net` is a *stem*: a net whose stuck-at behaviour is
    /// not equivalent to a single branch — i.e. it has fanout ≠ 1, feeds a
    /// primary output, or feeds a flip-flop.
    pub fn is_stem(&self, net: NetId) -> bool {
        let fo = self.fanout(net);
        fo.len() != 1 || self.is_output(net) || self.net(fo[0].0).kind.is_dff()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.add_input("A").unwrap();
        let bb = b.add_input("B").unwrap();
        let q = b.add_dff("Q").unwrap();
        let g = b.add_gate("G", GateKind::And, vec![a, bb]).unwrap();
        let h = b.add_gate("H", GateKind::Or, vec![g, q]).unwrap();
        b.connect_dff(q, h).unwrap();
        b.add_output(h);
        b.finish().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let n = tiny();
        assert_eq!(n.num_inputs(), 2);
        assert_eq!(n.num_outputs(), 1);
        assert_eq!(n.num_dffs(), 1);
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.find("G"), Some(NetId(3)));
        assert_eq!(n.find("nope"), None);
        assert_eq!(n.name(), "tiny");
    }

    #[test]
    fn levels_are_topological() {
        let n = tiny();
        for &g in n.eval_order() {
            for &f in n.net(g).fanin() {
                assert!(n.level(f) < n.level(g), "fanin level must be smaller");
            }
        }
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn dff_d_resolves() {
        let n = tiny();
        let q = n.find("Q").unwrap();
        let h = n.find("H").unwrap();
        assert_eq!(n.dff_d(q), h);
    }

    #[test]
    #[should_panic(expected = "not a flip-flop")]
    fn dff_d_panics_on_gate() {
        let n = tiny();
        let g = n.find("G").unwrap();
        n.dff_d(g);
    }

    #[test]
    fn leads_enumeration() {
        let n = tiny();
        // H fans out to the PO list (not a pin) and to Q's D pin -> fanout 1,
        // so no branch leads for H. All nets contribute a stem.
        let leads = n.leads();
        let stems = leads.iter().filter(|l| l.is_stem()).count();
        assert_eq!(stems, n.num_nets());
        assert!(leads
            .iter()
            .all(|l| l.sink.is_none() || n.fanout(l.net).len() >= 2));
    }

    #[test]
    fn branch_leads_on_fanout() {
        let mut b = NetlistBuilder::new("fan");
        let a = b.add_input("A").unwrap();
        let x = b.add_gate("X", GateKind::Not, vec![a]).unwrap();
        let y = b.add_gate("Y", GateKind::Not, vec![a]).unwrap();
        b.add_output(x);
        b.add_output(y);
        let n = b.finish().unwrap();
        let a = n.find("A").unwrap();
        let leads = n.leads();
        let branches: Vec<_> = leads.iter().filter(|l| !l.is_stem()).collect();
        assert_eq!(branches.len(), 2);
        assert!(branches.iter().all(|l| l.net == a));
    }

    #[test]
    fn gate_kind_properties() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert!(GateKind::Not.is_unary());
        assert!(GateKind::Nand.is_inverting());
        assert!(!GateKind::Buf.is_inverting());
        assert_eq!(GateKind::Buf.bench_name(), "BUFF");
        assert_eq!(GateKind::ALL.len(), 8);
    }

    #[test]
    fn display_impls() {
        assert_eq!(NetId(3).to_string(), "n3");
        assert_eq!(Lead::stem(NetId(1)).to_string(), "n1");
        assert_eq!(Lead::branch(NetId(1), NetId(2), 0).to_string(), "n1->n2#0");
        assert_eq!(GateKind::Xnor.to_string(), "XNOR");
    }
}
