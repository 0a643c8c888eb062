//! `ID_X-red`: identification of X-redundant faults (paper Section III).
//!
//! A fault is *X-redundant* (for a given test sequence) when the
//! three-valued fault simulation under the SOT strategy provably cannot
//! detect it — because the fault is never excited with a known value, or
//! because every propagation path is blocked by `X`es. Eliminating these
//! faults before the three-valued simulation is Table I's `X01_p` speedup.
//!
//! The procedure's four steps:
//!
//! 1. three-valued true-value simulation of the sequence, recording for
//!    every lead the set of binary values it assumed ([`V4`] encoding);
//! 2. a backward pass from the primary and secondary outputs that downgrades
//!    to `{X}` every lead all of whose paths to an output are blocked,
//!    iterated with the flip-flop rule (a value stored into a flip-flop
//!    whose output is unobservable is itself unobservable) until no change;
//! 3. a backward traversal inside each fanout-free region computing a
//!    side-input observability bit `OB` per lead;
//! 4. a stuck-at-`v` fault at lead `l` is undetectable if `I_X(l) = {X}`,
//!    or `I_X(l) = {X, v}` (never excited with the opposite value), or
//!    `OB(l) = 0`.
//!
//! Additionally [`XRedAnalysis::analyze_static`] runs the same machinery on
//! a sequence-independent controllability fixpoint (the SCOAP-style
//! analyses of \[6\]/\[15\] the paper cites): faults it flags cannot be
//! detected by *any* sequence under three-valued SOT.

use std::collections::HashMap;

use motsim_logic::{eval_gate_v4, V4};
use motsim_netlist::{GateKind, Lead, NetId, Netlist, NodeKind};

use crate::faults::Fault;
use crate::pattern::TestSequence;
use crate::sim3::TrueSim;

/// Dense lead indexing shared by the analysis passes.
#[derive(Debug, Clone)]
pub(crate) struct LeadMap {
    leads: Vec<Lead>,
    stem_of: Vec<usize>,
    branch_index: HashMap<Lead, usize>,
}

impl LeadMap {
    /// Builds the lead index of a netlist.
    pub fn new(netlist: &Netlist) -> Self {
        let leads = netlist.leads();
        let mut stem_of = vec![usize::MAX; netlist.num_nets()];
        let mut branch_index = HashMap::new();
        for (i, l) in leads.iter().enumerate() {
            match l.sink {
                None => stem_of[l.net.index()] = i,
                Some(_) => {
                    branch_index.insert(*l, i);
                }
            }
        }
        LeadMap {
            leads,
            stem_of,
            branch_index,
        }
    }

    /// All leads, in index order.
    pub fn leads(&self) -> &[Lead] {
        &self.leads
    }

    /// Number of leads.
    pub fn len(&self) -> usize {
        self.leads.len()
    }

    /// Index of the stem lead of `net`.
    pub fn stem(&self, net: NetId) -> usize {
        self.stem_of[net.index()]
    }

    /// Index of the lead entering pin `pin` of `sink` from `net`: the
    /// branch lead if `net` fans out, otherwise the stem lead.
    pub fn input_lead(&self, netlist: &Netlist, net: NetId, sink: NetId, pin: u32) -> usize {
        if netlist.fanout(net).len() >= 2 {
            self.branch_index[&Lead::branch(net, sink, pin)]
        } else {
            self.stem(net)
        }
    }

    /// Index of an arbitrary lead.
    ///
    /// # Panics
    ///
    /// Panics if the lead does not belong to the indexed netlist.
    pub fn index_of(&self, lead: Lead) -> usize {
        match lead.sink {
            None => self.stem(lead.net),
            Some(_) => self.branch_index[&lead],
        }
    }
}

/// Result of the `ID_X-red` analysis for one circuit and sequence.
#[derive(Debug, Clone)]
pub struct XRedAnalysis {
    map: LeadMap,
    ix: Vec<V4>,
    ob: Vec<bool>,
}

impl XRedAnalysis {
    /// Runs `ID_X-red` for `seq` (steps 1–3; step 4 is
    /// [`is_undetectable`](Self::is_undetectable)).
    ///
    /// # Example
    ///
    /// ```
    /// use motsim::xred::XRedAnalysis;
    /// use motsim::{FaultList, TestSequence};
    ///
    /// let circuit = motsim_circuits::generators::counter(8);
    /// let faults = FaultList::collapsed(&circuit);
    /// let seq = TestSequence::random(&circuit, 20, 1);
    /// let analysis = XRedAnalysis::analyze(&circuit, &seq);
    /// let (x_red, to_simulate) = analysis.partition(faults.iter().cloned());
    /// assert_eq!(x_red.len() + to_simulate.len(), faults.len());
    /// ```
    pub fn analyze(netlist: &Netlist, seq: &TestSequence) -> Self {
        // Step 1: true-value simulation, observing per-net value sets.
        let mut net_ix = vec![V4::X; netlist.num_nets()];
        let mut sim = TrueSim::new(netlist);
        for v in seq {
            sim.step(v);
            for (ix, &val) in net_ix.iter_mut().zip(sim.values()) {
                *ix = ix.observe(val);
            }
        }
        Self::from_net_ix(netlist, net_ix)
    }

    /// Sequence-independent variant: step 1 is replaced by a forward
    /// controllability fixpoint over [`V4`] (inputs can take both values,
    /// flip-flops start at `{X}` and grow monotonically). Faults flagged by
    /// this analysis are undetectable by *any* sequence under three-valued
    /// SOT.
    pub fn analyze_static(netlist: &Netlist) -> Self {
        let mut net_ix = vec![V4::X; netlist.num_nets()];
        for &pi in netlist.inputs() {
            net_ix[pi.index()] = V4::X01;
        }
        // Monotone fixpoint: iterate frames until nothing grows.
        let mut fanin_buf = Vec::new();
        loop {
            let mut changed = false;
            for &g in netlist.eval_order() {
                let net = netlist.net(g);
                let NodeKind::Gate(kind) = net.kind() else {
                    continue;
                };
                fanin_buf.clear();
                fanin_buf.extend(net.fanin().iter().map(|f| net_ix[f.index()]));
                let out = eval_gate_v4(kind, &fanin_buf).join(net_ix[g.index()]);
                if out != net_ix[g.index()] {
                    net_ix[g.index()] = out;
                    changed = true;
                }
            }
            for &q in netlist.dffs() {
                let d = netlist.dff_d(q);
                let out = net_ix[q.index()].join(net_ix[d.index()]);
                if out != net_ix[q.index()] {
                    net_ix[q.index()] = out;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Self::from_net_ix(netlist, net_ix)
    }

    fn from_net_ix(netlist: &Netlist, net_ix: Vec<V4>) -> Self {
        let map = LeadMap::new(netlist);
        let mut ix = vec![V4::X; map.len()];
        for (i, lead) in map.leads().iter().enumerate() {
            ix[i] = net_ix[lead.net.index()];
        }

        // Nets in descending level order (reverse topological: sinks before
        // sources within the combinational part).
        let mut order: Vec<NetId> = netlist.net_ids().collect();
        order.sort_by_key(|&n| std::cmp::Reverse(netlist.level(n)));

        // Dangling non-output nets are unobservable from the start.
        for id in netlist.net_ids() {
            if netlist.fanout(id).is_empty() && !netlist.is_output(id) {
                ix[map.stem(id)] = V4::X;
            }
        }

        // Step 2: backward {X} marking, iterated with the flip-flop rule.
        loop {
            for &n in &order {
                // Fanout meet: a non-output stem all of whose branches are
                // {X} is {X} itself.
                let fo = netlist.fanout(n);
                if fo.len() >= 2 && !netlist.is_output(n) {
                    let all_x = fo
                        .iter()
                        .all(|&(sink, pin)| ix[map.input_lead(netlist, n, sink, pin)].is_x_only());
                    if all_x {
                        ix[map.stem(n)] = V4::X;
                    }
                }
                // Gate rule: a gate with {X} output blocks all its inputs.
                // Exception: if the input lead aliases the stem of a primary
                // output (fanout-1 PO net), the pad still observes it.
                let net = netlist.net(n);
                if net.kind().is_gate() && ix[map.stem(n)].is_x_only() {
                    for (pin, &f) in net.fanin().iter().enumerate() {
                        if netlist.fanout(f).len() < 2 && netlist.is_output(f) {
                            continue;
                        }
                        ix[map.input_lead(netlist, f, n, pin as u32)] = V4::X;
                    }
                }
            }
            // Flip-flop rule: storing into an unobservable flip-flop is
            // itself unobservable.
            let mut changed = false;
            for &q in netlist.dffs() {
                if ix[map.stem(q)].is_x_only() {
                    let d = netlist.dff_d(q);
                    // Same PO-stem aliasing exception as the gate rule.
                    if netlist.fanout(d).len() < 2 && netlist.is_output(d) {
                        continue;
                    }
                    let dl = map.input_lead(netlist, d, q, 0);
                    if !ix[dl].is_x_only() {
                        ix[dl] = V4::X;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Step 3: side-input observability inside fanout-free regions.
        let mut ob = vec![false; map.len()];
        for &n in &order {
            if netlist.is_stem(n) {
                ob[map.stem(n)] = !ix[map.stem(n)].is_x_only();
            }
            let net = netlist.net(n);
            let NodeKind::Gate(kind) = net.kind() else {
                continue;
            };
            let out_ob = ob[map.stem(n)];
            for (pin, &f) in net.fanin().iter().enumerate() {
                let lead = map.input_lead(netlist, f, n, pin as u32);
                let side_ok = net.fanin().iter().enumerate().all(|(p2, &f2)| {
                    if p2 == pin {
                        return true;
                    }
                    let side = ix[map.input_lead(netlist, f2, n, p2 as u32)];
                    match kind {
                        GateKind::And | GateKind::Nand => side.has_one(),
                        GateKind::Or | GateKind::Nor => side.has_zero(),
                        // XOR propagates any difference, but only at times
                        // where the side input is known; the paper's gate
                        // set has no XOR — this extension is sound in the
                        // same "sufficient condition" sense.
                        GateKind::Xor | GateKind::Xnor => side.has_zero() || side.has_one(),
                        GateKind::Not | GateKind::Buf => true,
                    }
                });
                let obs = out_ob && side_ok;
                // A branch lead belongs to this gate's region and gets its
                // value here; a fanout-1 non-stem fanin continues the region
                // downward. Fanout-1 *stems* (PO or DFF feeders) are heads
                // of their own regions and keep their initialisation.
                if netlist.fanout(f).len() >= 2 || !netlist.is_stem(f) {
                    ob[lead] = obs;
                }
            }
        }
        // D-pin branch leads observe through the flip-flop unless blocked.
        for &q in netlist.dffs() {
            let d = netlist.dff_d(q);
            if netlist.fanout(d).len() >= 2 {
                let dl = map.input_lead(netlist, d, q, 0);
                ob[dl] = !ix[dl].is_x_only();
            }
        }

        XRedAnalysis { map, ix, ob }
    }

    /// The final `I_X` value of `lead`.
    pub fn ix(&self, lead: Lead) -> V4 {
        self.ix[self.map.index_of(lead)]
    }

    /// The `OB` bit of `lead`.
    pub fn ob(&self, lead: Lead) -> bool {
        self.ob[self.map.index_of(lead)]
    }

    /// Step 4: the sufficient undetectability condition. `true` means the
    /// fault provably cannot be detected by the analysed sequence with
    /// three-valued logic under SOT.
    pub fn is_undetectable(&self, fault: Fault) -> bool {
        let i = self.map.index_of(fault.lead);
        let ix = self.ix[i];
        if ix.is_x_only() {
            return true;
        }
        let excitable = if fault.stuck {
            ix.has_zero() // stuck-at-1 needs the lead to be 0 sometime
        } else {
            ix.has_one() // stuck-at-0 needs the lead to be 1 sometime
        };
        !excitable || !self.ob[i]
    }

    /// Splits `faults` into (X-redundant, remaining-to-simulate).
    pub fn partition(&self, faults: impl IntoIterator<Item = Fault>) -> (Vec<Fault>, Vec<Fault>) {
        let mut red = Vec::new();
        let mut rest = Vec::new();
        for f in faults {
            if self.is_undetectable(f) {
                red.push(f);
            } else {
                rest.push(f);
            }
        }
        (red, rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultList;
    use crate::sim3::FaultSim3;
    use motsim_netlist::builder::NetlistBuilder;

    /// Soundness: every fault flagged X-redundant is indeed undetected by
    /// the three-valued fault simulation on the same sequence.
    fn assert_sound(netlist: &Netlist, seq: &TestSequence) {
        let faults = FaultList::complete(netlist);
        let analysis = XRedAnalysis::analyze(netlist, seq);
        let (red, _) = analysis.partition(faults.iter().cloned());
        let outcome = FaultSim3::run(netlist, seq, faults.iter().cloned());
        let detected: std::collections::HashSet<Fault> = outcome.detected_faults().collect();
        for f in red {
            assert!(
                !detected.contains(&f),
                "fault {} flagged X-redundant but detected",
                f.display(netlist)
            );
        }
    }

    #[test]
    fn sound_on_s27() {
        let n = motsim_circuits::s27();
        assert_sound(&n, &TestSequence::random(&n, 50, 5));
    }

    #[test]
    fn sound_on_counter() {
        let n = motsim_circuits::generators::counter(6);
        assert_sound(&n, &TestSequence::random(&n, 60, 6));
    }

    #[test]
    fn sound_on_random_fsm() {
        use motsim_circuits::generators::{fsm, FsmParams};
        let n = fsm("t", 99, FsmParams::default());
        assert_sound(&n, &TestSequence::random(&n, 40, 7));
    }

    #[test]
    fn sound_on_random_circuit() {
        use motsim_circuits::generators::{random_circuit, RandomParams};
        let n = random_circuit("t", 31, RandomParams::default());
        assert_sound(&n, &TestSequence::random(&n, 40, 8));
    }

    #[test]
    fn empty_sequence_makes_everything_redundant() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::empty(&n);
        let analysis = XRedAnalysis::analyze(&n, &seq);
        let faults = FaultList::complete(&n);
        let (red, rest) = analysis.partition(faults.iter().cloned());
        assert_eq!(rest.len(), 0);
        assert_eq!(red.len(), faults.len());
    }

    #[test]
    fn never_excited_fault_is_flagged() {
        // Z = AND(A, B), PO Z; sequence keeps A=0 -> Z never 1, so Z/0 and
        // (since B is blocked by A=0) B-side faults are X-redundant.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let bb = b.add_input("B").unwrap();
        let q = b.add_dff("Q").unwrap(); // keep it sequential
        let z = b.add_gate("Z", GateKind::And, vec![a, bb]).unwrap();
        b.connect_dff(q, z).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let seq = TestSequence::new(2, vec![vec![false, true], vec![false, false]]);
        let analysis = XRedAnalysis::analyze(&n, &seq);
        let z = n.find("Z").unwrap();
        let bnet = n.find("B").unwrap();
        // Z is 0 in both frames: I_X(Z) = {X,0} -> Z stuck-at-0 undetectable.
        assert!(analysis.is_undetectable(Fault::stuck_at_0(Lead::stem(z))));
        // Z stuck-at-1 is detectable (Z observed 0, fault makes it 1).
        assert!(!analysis.is_undetectable(Fault::stuck_at_1(Lead::stem(z))));
        // B's side input A never takes 1 -> OB(B)=0 -> both B faults flagged.
        assert!(analysis.is_undetectable(Fault::stuck_at_0(Lead::stem(bnet))));
        assert!(analysis.is_undetectable(Fault::stuck_at_1(Lead::stem(bnet))));
    }

    #[test]
    fn blocked_path_is_flagged() {
        // G feeds only an unobservable cone: OUT = AND(G, C) with C held 0.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let c = b.add_input("C").unwrap();
        let q = b.add_dff("Q").unwrap();
        let g = b.add_gate("G", GateKind::Not, vec![a]).unwrap();
        let out = b.add_gate("OUT", GateKind::And, vec![g, c]).unwrap();
        b.connect_dff(q, out).unwrap();
        b.add_output(out);
        let n = b.finish().unwrap();
        // C stuck 0 in the sequence: G's effect can never pass OUT.
        let seq = TestSequence::new(2, vec![vec![true, false], vec![false, false]]);
        let analysis = XRedAnalysis::analyze(&n, &seq);
        let g = n.find("G").unwrap();
        assert!(analysis.is_undetectable(Fault::stuck_at_0(Lead::stem(g))));
        assert!(analysis.is_undetectable(Fault::stuck_at_1(Lead::stem(g))));
    }

    #[test]
    fn ff_rule_blocks_stored_values() {
        // D -> Q where Q feeds nothing observable: the D cone is flagged.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let q = b.add_dff("Q").unwrap();
        let d = b.add_gate("D", GateKind::Not, vec![a]).unwrap();
        let sink = b.add_gate("S", GateKind::And, vec![q, a]).unwrap();
        let q2 = b.add_dff("Q2").unwrap();
        b.connect_dff(q, d).unwrap();
        b.connect_dff(q2, sink).unwrap();
        let z = b.add_gate("Z", GateKind::Buf, vec![a]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let seq = TestSequence::new(1, vec![vec![true], vec![false]]);
        let analysis = XRedAnalysis::analyze(&n, &seq);
        // Q2 is dangling -> S unobservable -> Q unobservable -> D cone too.
        let d = n.find("D").unwrap();
        assert!(analysis.ix(Lead::stem(d)).is_x_only());
        assert!(analysis.is_undetectable(Fault::stuck_at_0(Lead::stem(d))));
        // But A itself reaches the output Z.
        let a = n.find("A").unwrap();
        assert!(!analysis.is_undetectable(Fault::stuck_at_0(Lead::stem(a))));
    }

    #[test]
    fn static_analysis_is_sound_for_any_sequence() {
        let n = motsim_circuits::s27();
        let analysis = XRedAnalysis::analyze_static(&n);
        let faults = FaultList::complete(&n);
        let (red, _) = analysis.partition(faults.iter().cloned());
        let seq = TestSequence::random(&n, 200, 1);
        let outcome = FaultSim3::run(&n, &seq, faults.iter().cloned());
        let detected: std::collections::HashSet<Fault> = outcome.detected_faults().collect();
        for f in &red {
            assert!(!detected.contains(f));
        }
    }

    #[test]
    fn static_weaker_than_dynamic() {
        // The static analysis can never flag more faults than a concrete
        // sequence analysis flags (on the same circuit).
        let n = motsim_circuits::generators::counter(4);
        let faults = FaultList::complete(&n);
        let stat = XRedAnalysis::analyze_static(&n);
        let dyn_ = XRedAnalysis::analyze(&n, &TestSequence::random(&n, 30, 2));
        for f in faults.iter() {
            if stat.is_undetectable(*f) {
                assert!(
                    dyn_.is_undetectable(*f),
                    "static flagged {} but dynamic did not",
                    f.display(&n)
                );
            }
        }
    }

    #[test]
    fn lead_map_indexing() {
        let n = motsim_circuits::s27();
        let map = LeadMap::new(&n);
        assert_eq!(map.len(), n.leads().len());
        for (i, l) in map.leads().iter().enumerate() {
            assert_eq!(map.index_of(*l), i);
        }
    }

    #[test]
    fn xred_reduces_fault_count_on_short_sequences() {
        // A short sequence leaves much of the counter unexercised.
        let n = motsim_circuits::generators::counter(8);
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 5, 3);
        let analysis = XRedAnalysis::analyze(&n, &seq);
        let (red, rest) = analysis.partition(faults.iter().cloned());
        assert!(!red.is_empty(), "expected some X-redundant faults");
        assert_eq!(red.len() + rest.len(), faults.len());
    }
}
