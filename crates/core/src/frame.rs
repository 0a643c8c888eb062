//! The frame kernels of the fault simulators.
//!
//! The dense kernel, shared by `simb` and `sim3`, is one levelized frame
//! pass and one next-state step, generic over the value domain ([`Logic`])
//! and forcing at most one stuck-at fault ([`Stuck`]) in every lane. It
//! alone fixes *where* a stuck-at fault can force a value — every stem,
//! gate input pin and D pin; the [`Stuck`] value only says *what* is forced
//! there.
//!
//! The sparse kernel ([`Sparse`]), shared by `FaultSim3` and
//! `SymbolicFaultSim`, is event-driven single-fault propagation: one
//! fault's effect is pushed from the fault site and from the diverged
//! flip-flops through the levelized circuit, against an already evaluated
//! fault-free frame. It is generic over any value type with a (fallible)
//! gate evaluator — `V3` or BDDs — and forces the stuck value at the same
//! leads as the dense kernel, through the same [`Stuck`] type.

use motsim_logic::{fold_gate, Logic};
use motsim_netlist::{GateKind, Lead, NetId, Netlist, NodeKind};

use crate::faults::Fault;

/// A single stuck-at fault with its stuck value in the domain `L`.
#[derive(Clone, Copy)]
pub(crate) struct Stuck<L> {
    fault: Fault,
    value: L,
}

impl<L: Logic> Stuck<L> {
    /// `fault`, forcing its stuck value in every lane.
    pub(crate) fn new(fault: Fault) -> Self {
        Stuck {
            fault,
            value: L::from_bool(fault.stuck),
        }
    }
}

impl<L: Clone> Stuck<L> {
    /// The value `lead` carries (a stem) or delivers to its sink pin (a
    /// branch), given its fault-free value `v`.
    #[inline]
    fn pin(&self, lead: Lead, v: L) -> L {
        if self.fault.lead == lead {
            self.value.clone()
        } else {
            v
        }
    }
}

/// The value `lead` carries under the dense kernel's fault, if any.
#[inline]
fn force<L: Logic>(stuck: Option<Stuck<L>>, lead: Lead, v: L) -> L {
    stuck.map_or(v, |s| s.pin(lead, v))
}

/// Boolean primary-input values as known values of the domain `L`.
pub(crate) fn known<L: Logic>(bits: &[bool]) -> impl ExactSizeIterator<Item = L> + '_ {
    bits.iter().map(|&b| L::from_bool(b))
}

/// Evaluates one combinational frame into `values` (indexed by net), with
/// the fault `stuck`, if any, forced in every lane.
///
/// # Panics
///
/// Panics if `inputs`/`state` lengths do not match the circuit.
pub(crate) fn eval_frame<L: Logic>(
    netlist: &Netlist,
    state: &[L],
    inputs: impl ExactSizeIterator<Item = L>,
    stuck: Option<Stuck<L>>,
    values: &mut Vec<L>,
) {
    assert_eq!(inputs.len(), netlist.num_inputs(), "input width mismatch");
    assert_eq!(state.len(), netlist.num_dffs(), "state width mismatch");
    values.clear();
    values.resize(netlist.num_nets(), L::default());
    for (&pi, v) in netlist.inputs().iter().zip(inputs) {
        values[pi.index()] = force(stuck, Lead::stem(pi), v);
    }
    for (&q, &v) in netlist.dffs().iter().zip(state) {
        values[q.index()] = force(stuck, Lead::stem(q), v);
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
            .map(|(pin, &f)| force(stuck, Lead::branch(f, g, pin as u32), values[f.index()]));
        values[g.index()] = force(stuck, Lead::stem(g), fold_gate(kind, pins));
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
    stuck: Option<Stuck<L>>,
    state: &mut [L],
) {
    assert_eq!(state.len(), netlist.num_dffs(), "state width mismatch");
    for (s, &q) in state.iter_mut().zip(netlist.dffs()) {
        let d = netlist.dff_d(q);
        *s = force(stuck, Lead::branch(d, q, 0), values[d.index()]);
    }
}

/// A full faulty state as its differences from the fault-free state `good`:
/// the sorted `(flip-flop index, value)` pairs [`Sparse`] takes and returns.
///
/// # Panics
///
/// Panics if the widths of `good` and `state` differ.
pub(crate) fn diff<V: PartialEq>(good: &[V], state: Vec<V>) -> Vec<(usize, V)> {
    assert_eq!(state.len(), good.len(), "faulty state width mismatch");
    state
        .into_iter()
        .zip(good)
        .enumerate()
        .filter(|(_, (v, g))| v != *g)
        .map(|(i, (v, _))| (i, v))
        .collect()
}

/// The full faulty state whose differences from `good` are `diffs`: the
/// inverse of [`diff`].
pub(crate) fn patch<V: Clone>(good: &[V], diffs: impl IntoIterator<Item = (usize, V)>) -> Vec<V> {
    let mut state = good.to_vec();
    for (i, v) in diffs {
        state[i] = v;
    }
    state
}

/// Scratch memory of the sparse single-fault pass, reused across faults
/// and frames so a pass allocates nothing.
///
/// A faulty machine's present state enters and leaves the pass as its
/// *differences* from the fault-free state: `(flip-flop index, value)`
/// pairs, sorted by index. Both fault simulators store every faulty state
/// in this form and convert to full state vectors only at the hybrid's
/// phase boundaries, through [`diff`] and [`patch`].
#[derive(Debug, Clone)]
pub(crate) struct Sparse<'a, V> {
    netlist: &'a Netlist,
    /// Faulty value per net; `None` where it equals the fault-free frame.
    fval: Vec<Option<V>>,
    /// The nets with a `Some` entry in `fval`, in the order they diverged.
    diverged: Vec<NetId>,
    /// The flip-flops whose D pin net `n` drives are
    /// `d_ffs[d_start[n]..d_start[n + 1]]`, by flip-flop index.
    d_start: Vec<u32>,
    d_ffs: Vec<u32>,
    queue: LevelQueue,
    fanin: Vec<V>,
}

/// Gates waiting for evaluation, bucketed by level; each is queued at
/// most once per pass. Only buckets `lo..hi` can be non-empty, so a pass
/// that touches few levels does not scan the rest.
#[derive(Debug, Clone)]
struct LevelQueue {
    queued: Vec<bool>,
    buckets: Vec<Vec<NetId>>,
    lo: usize,
    hi: usize,
}

// `push` and `push_fanout` run once per fanout branch of every diverged
// net; left to the inliner, they stay calls and slow the pass measurably.
impl LevelQueue {
    #[inline(always)]
    fn push(&mut self, netlist: &Netlist, net: NetId) {
        if netlist.net(net).kind().is_gate() && !self.queued[net.index()] {
            self.queued[net.index()] = true;
            let lvl = netlist.level(net) as usize;
            self.buckets[lvl].push(net);
            self.lo = self.lo.min(lvl);
            self.hi = self.hi.max(lvl + 1);
        }
    }

    #[inline(always)]
    fn push_fanout(&mut self, netlist: &Netlist, net: NetId) {
        for &(sink, _) in netlist.fanout(net) {
            self.push(netlist, sink);
        }
    }

    fn clear(&mut self) {
        for bucket in &mut self.buckets[self.lo.min(self.hi)..self.hi] {
            for &g in bucket.iter() {
                self.queued[g.index()] = false;
            }
            bucket.clear();
        }
        (self.lo, self.hi) = (usize::MAX, 0);
    }
}

/// One fault's frame after [`Sparse::propagate`]: the faulty value of every
/// net, for the engine's observation rule and the faulty next state.
/// Dropping it clears the pass's scratch, so no value outlives the fault.
pub(crate) struct Faulty<'s, 'a, V: Clone + PartialEq> {
    pass: &'s mut Sparse<'a, V>,
    good: &'s [V],
    stuck: Stuck<V>,
}

impl<'a, V: Clone + PartialEq> Sparse<'a, V> {
    pub(crate) fn new(netlist: &'a Netlist) -> Self {
        let mut d_start = vec![0u32; netlist.num_nets() + 1];
        for &q in netlist.dffs() {
            d_start[netlist.dff_d(q).index() + 1] += 1;
        }
        for n in 1..d_start.len() {
            d_start[n] += d_start[n - 1];
        }
        let mut fill = d_start.clone();
        let mut d_ffs = vec![0u32; netlist.num_dffs()];
        for (i, &q) in netlist.dffs().iter().enumerate() {
            let slot = &mut fill[netlist.dff_d(q).index()];
            d_ffs[*slot as usize] = i as u32;
            *slot += 1;
        }
        Sparse {
            netlist,
            fval: vec![None; netlist.num_nets()],
            diverged: Vec::new(),
            d_start,
            d_ffs,
            queue: LevelQueue {
                queued: vec![false; netlist.num_nets()],
                buckets: vec![Vec::new(); netlist.depth() as usize + 1],
                lo: usize::MAX,
                hi: 0,
            },
            fanin: Vec::with_capacity(8),
        }
    }

    /// Propagates `fault` through one frame, from the flip-flops `diffs`
    /// names — the faulty present state's differences from the fault-free
    /// one — and from the fault site, visiting in level order only the
    /// gates a diverged net feeds. `good` is the fault-free frame, `forced`
    /// the stuck value in the domain and `eval` the gate evaluator.
    ///
    /// # Errors
    ///
    /// Returns the evaluator's first error, with the scratch cleared.
    pub(crate) fn propagate<'s, E>(
        &'s mut self,
        good: &'s [V],
        diffs: impl IntoIterator<Item = (usize, V)>,
        fault: Fault,
        forced: V,
        eval: impl FnMut(GateKind, &[V]) -> Result<V, E>,
    ) -> Result<Faulty<'s, 'a, V>, E> {
        let mut faulty = Faulty {
            pass: self,
            good,
            stuck: Stuck {
                fault,
                value: forced,
            },
        };
        if let Err(e) = faulty.spread(diffs, eval) {
            faulty.pass.queue.clear();
            return Err(e);
        }
        Ok(faulty)
    }
}

impl<'s, 'a, V: Clone + PartialEq> Faulty<'s, 'a, V> {
    /// The faulty value of `net`.
    #[inline]
    pub(crate) fn value(&self, net: NetId) -> &V {
        self.pass.fval[net.index()]
            .as_ref()
            .unwrap_or(&self.good[net.index()])
    }

    /// Whether `net` was set by the pass: a diverged net or the fault site.
    pub(crate) fn diverged(&self, net: NetId) -> bool {
        self.pass.fval[net.index()].is_some()
    }

    /// The nets set by the pass, in the order they diverged.
    pub(crate) fn diverged_nets(&self) -> &[NetId] {
        &self.pass.diverged
    }

    /// Writes into `out` the faulty next state's differences from the
    /// fault-free next state, sorted by flip-flop index. Each flip-flop
    /// stores what its D pin receives, so only the flip-flops a diverged
    /// net drives can differ — and, under a D-pin fault, those of the
    /// fault's net, which the pass does not set for a branch fault.
    pub(crate) fn next_state_diffs(&self, out: &mut Vec<(usize, V)>) {
        let pass = &*self.pass;
        let netlist = pass.netlist;
        let site = Some(self.stuck.fault.lead.net).filter(|&n| !self.diverged(n));
        out.clear();
        for n in pass.diverged.iter().copied().chain(site) {
            let ffs = pass.d_start[n.index()] as usize..pass.d_start[n.index() + 1] as usize;
            for &i in &pass.d_ffs[ffs] {
                let q = netlist.dffs()[i as usize];
                let v = self.stuck.pin(Lead::branch(n, q, 0), self.value(n).clone());
                if v != self.good[n.index()] {
                    out.push((i as usize, v));
                }
            }
        }
        out.sort_unstable_by_key(|&(i, _)| i);
    }

    /// Seeds the pass and runs it level by level; returns with the queue
    /// empty unless the evaluator fails.
    fn spread<E>(
        &mut self,
        diffs: impl IntoIterator<Item = (usize, V)>,
        mut eval: impl FnMut(GateKind, &[V]) -> Result<V, E>,
    ) -> Result<(), E> {
        let (good, stuck) = (self.good, &self.stuck);
        let Sparse {
            netlist,
            fval,
            diverged,
            queue,
            fanin,
            ..
        } = &mut *self.pass;
        let netlist: &Netlist = netlist;
        let mut set = |fval: &mut [Option<V>], net: NetId, v: V| {
            if fval[net.index()].replace(v).is_none() {
                diverged.push(net);
            }
        };
        // Seed 1: flip-flops whose faulty state differs.
        for (i, v) in diffs {
            let q = netlist.dffs()[i];
            set(fval, q, v);
            queue.push_fanout(netlist, q);
        }
        // Seed 2: the fault site. A branch fault re-evaluates its sink gate
        // (one into a D pin only acts on the next state).
        match stuck.fault.lead.sink {
            None => {
                let n = stuck.fault.lead.net;
                set(fval, n, stuck.value.clone());
                if good[n.index()] != stuck.value {
                    queue.push_fanout(netlist, n);
                }
            }
            Some((sink, _)) => queue.push(netlist, sink),
        }
        let mut lvl = queue.lo;
        while lvl < queue.hi {
            let mut idx = 0;
            while let Some(&g) = queue.buckets[lvl].get(idx) {
                idx += 1;
                // Only gates of lower levels queue `g`: it cannot return.
                queue.queued[g.index()] = false;
                let net = netlist.net(g);
                let NodeKind::Gate(kind) = net.kind() else {
                    unreachable!("only gates are queued")
                };
                fanin.clear();
                for (pin, &f) in net.fanin().iter().enumerate() {
                    let v = fval[f.index()].as_ref().unwrap_or(&good[f.index()]);
                    fanin.push(stuck.pin(Lead::branch(f, g, pin as u32), v.clone()));
                }
                let out = stuck.pin(Lead::stem(g), eval(kind, fanin)?);
                if out != good[g.index()] {
                    set(fval, g, out);
                    queue.push_fanout(netlist, g);
                }
            }
            queue.buckets[lvl].clear();
            lvl += 1;
        }
        (queue.lo, queue.hi) = (usize::MAX, 0);
        Ok(())
    }
}

impl<V: Clone + PartialEq> Drop for Faulty<'_, '_, V> {
    fn drop(&mut self) {
        let pass = &mut *self.pass;
        for &n in &pass.diverged {
            pass.fval[n.index()] = None;
        }
        pass.diverged.clear();
        pass.fanin.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use motsim_logic::{eval_gate, V3};

    use super::*;
    use crate::faults::FaultList;
    use crate::pattern::TestSequence;
    use crate::sim3::{eval_frame_with_fault, next_state_with_fault, TrueSim};

    /// For every collapsed fault, the sparse three-valued pass gives every
    /// net the dense reference's faulty value, and its next-state
    /// differences, laid over the fault-free next state, give the dense
    /// reference's faulty next state, frame by frame.
    fn sparse_v3_matches_dense(netlist: &Netlist) {
        let seq = TestSequence::random(netlist, 40, 17);
        let mut sparse = Sparse::new(netlist);
        let mut dense = Vec::new();
        for &fault in FaultList::collapsed(netlist).iter() {
            let mut good = TrueSim::new(netlist);
            let mut diffs: Vec<(usize, V3)> = Vec::new();
            let mut dense_state = vec![V3::X; netlist.num_dffs()];
            for (t, v) in seq.iter().enumerate() {
                good.step(v);
                eval_frame_with_fault(netlist, &dense_state, v, fault, &mut dense);
                next_state_with_fault(netlist, &dense, fault, &mut dense_state);
                let Ok(faulty) = sparse.propagate(
                    good.values(),
                    diffs.iter().copied(),
                    fault,
                    V3::from_bool(fault.stuck),
                    |kind, pins| Ok::<_, Infallible>(eval_gate(kind, pins)),
                );
                for id in netlist.net_ids() {
                    assert_eq!(
                        *faulty.value(id),
                        dense[id.index()],
                        "{} frame {t}: net {}",
                        fault.display(netlist),
                        netlist.net(id).name()
                    );
                }
                faulty.next_state_diffs(&mut diffs);
                assert!(diffs.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
                let state = patch(good.state(), diffs.iter().copied());
                assert_eq!(state, dense_state, "{} frame {t}", fault.display(netlist));
                assert_eq!(diff(good.state(), state), diffs, "a difference differs");
            }
        }
    }

    #[test]
    fn sparse_v3_matches_dense_on_s27() {
        sparse_v3_matches_dense(&motsim_circuits::s27());
    }

    #[test]
    fn sparse_v3_matches_dense_on_counter6() {
        sparse_v3_matches_dense(&motsim_circuits::generators::counter(6));
    }

    #[test]
    fn sparse_v3_matches_dense_on_g298() {
        sparse_v3_matches_dense(&motsim_circuits::suite::by_name("g298").unwrap());
    }
}
