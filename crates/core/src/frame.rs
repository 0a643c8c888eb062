//! The frame kernels of the fault simulators, one for every value domain.
//!
//! The kernels are generic over a [`Domain`]: three-valued logic (`V3`, the
//! `X01` baseline and the hybrid fallback), 64 Boolean lanes (`u64`, the
//! exhaustive oracle) and BDDs (the symbolic engines). A domain supplies
//! only its gate evaluation, which fails for BDDs at the manager's node
//! limit and never for the other two.
//!
//! The dense kernel, shared by `simb`, `sim3` and the symbolic frame, is one
//! levelized frame pass ([`eval_frame`]) and one next-state step
//! ([`next_state`]), forcing at most one stuck-at fault ([`Stuck`]) in every
//! lane. The sparse kernel ([`Sparse`]), shared by `FaultSim3` and
//! `SymbolicFaultSim`, is event-driven single-fault propagation: one
//! fault's effect is pushed from the fault site and from the diverged
//! flip-flops through the levelized circuit, against an already evaluated
//! fault-free frame. Together they alone fix *where* a stuck-at fault can
//! force a value — every stem, gate input pin and D pin; the [`Stuck`]
//! value only says *what* is forced there.

use std::convert::Infallible;

use motsim_bdd::{Bdd, BddError};
use motsim_logic::{fold_gate, V3};
use motsim_netlist::{GateKind, Lead, NetId, Netlist, NodeKind};

use crate::faults::Fault;

/// A value domain of the frame kernels: how a gate evaluates over it.
pub(crate) trait Domain: Clone + PartialEq {
    /// Why a gate evaluation fails: `Infallible` but for BDDs.
    type Error;

    /// Evaluates a gate of the given kind over its pin values, in pin
    /// order (the unary kinds read only the first pin).
    ///
    /// # Panics
    ///
    /// Panics if `pins` is empty.
    fn gate(kind: GateKind, pins: impl Iterator<Item = Self>) -> Result<Self, Self::Error>;
}

impl Domain for V3 {
    type Error = Infallible;

    #[inline]
    fn gate(kind: GateKind, pins: impl Iterator<Item = Self>) -> Result<Self, Infallible> {
        Ok(fold_gate(kind, pins))
    }
}

impl Domain for u64 {
    type Error = Infallible;

    #[inline]
    fn gate(kind: GateKind, pins: impl Iterator<Item = Self>) -> Result<Self, Infallible> {
        Ok(fold_gate(kind, pins))
    }
}

// The fold starts from the first pin: starting from the constant
// `mgr.one()`/`mgr.zero()` would add one ITE terminal case per gate and
// nothing else.
impl Domain for Bdd {
    type Error = BddError;

    fn gate(kind: GateKind, mut pins: impl Iterator<Item = Self>) -> Result<Self, BddError> {
        let first = pins.next().expect("gate must have at least one input");
        let op: fn(&Bdd, &Bdd) -> Result<Bdd, BddError> = match kind {
            GateKind::And | GateKind::Nand => Bdd::and,
            GateKind::Or | GateKind::Nor => Bdd::or,
            GateKind::Xor | GateKind::Xnor => Bdd::xor,
            GateKind::Not => return Ok(first.not()),
            GateKind::Buf => return Ok(first),
        };
        let acc = pins.try_fold(first, |acc, b| op(&acc, &b))?;
        Ok(match kind {
            GateKind::Nand | GateKind::Nor | GateKind::Xnor => acc.not(),
            _ => acc,
        })
    }
}

/// A single stuck-at fault with its stuck value in the domain `L`.
pub(crate) struct Stuck<L> {
    fault: Fault,
    value: L,
}

impl<L: Clone> Stuck<L> {
    /// `fault`, forcing `value`, its stuck value in the domain `L`.
    pub(crate) fn new(fault: Fault, value: L) -> Self {
        Stuck { fault, value }
    }

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
fn force<L: Clone>(stuck: Option<&Stuck<L>>, lead: Lead, v: L) -> L {
    match stuck {
        Some(s) => s.pin(lead, v),
        None => v,
    }
}

/// Evaluates one combinational frame into `values` (indexed by net), with
/// the fault `stuck`, if any, forced in every lane.
///
/// # Errors
///
/// Returns the domain's first gate error; `values` is then partly written.
///
/// # Panics
///
/// Panics if `inputs`/`state`/`values` lengths do not match the circuit.
pub(crate) fn eval_frame<L: Domain>(
    netlist: &Netlist,
    state: &[L],
    inputs: impl ExactSizeIterator<Item = L>,
    stuck: Option<&Stuck<L>>,
    values: &mut [L],
) -> Result<(), L::Error> {
    assert_eq!(inputs.len(), netlist.num_inputs(), "input width mismatch");
    assert_eq!(state.len(), netlist.num_dffs(), "state width mismatch");
    assert_eq!(values.len(), netlist.num_nets(), "net count mismatch");
    for (&pi, v) in netlist.inputs().iter().zip(inputs) {
        values[pi.index()] = force(stuck, Lead::stem(pi), v);
    }
    for (&q, v) in netlist.dffs().iter().zip(state) {
        values[q.index()] = force(stuck, Lead::stem(q), v.clone());
    }
    for &g in netlist.eval_order() {
        let net = netlist.net(g);
        let NodeKind::Gate(kind) = net.kind() else {
            unreachable!("eval order contains only gates")
        };
        let pins = net.fanin().iter().enumerate().map(|(pin, &f)| {
            let lead = Lead::branch(f, g, pin as u32);
            force(stuck, lead, values[f.index()].clone())
        });
        values[g.index()] = force(stuck, Lead::stem(g), L::gate(kind, pins)?);
    }
    Ok(())
}

/// Advances `state` after [`eval_frame`]: each flip-flop stores the value
/// its D pin receives.
///
/// # Panics
///
/// Panics if `state` does not match the flip-flop count.
pub(crate) fn next_state<L: Clone>(
    netlist: &Netlist,
    values: &[L],
    stuck: Option<&Stuck<L>>,
    state: &mut [L],
) {
    assert_eq!(state.len(), netlist.num_dffs(), "state width mismatch");
    for (s, &q) in state.iter_mut().zip(netlist.dffs()) {
        let d = netlist.dff_d(q);
        *s = force(stuck, Lead::branch(d, q, 0), values[d.index()].clone());
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
pub(crate) struct Faulty<'s, 'a, V: Domain> {
    pass: &'s mut Sparse<'a, V>,
    good: &'s [V],
    stuck: Stuck<V>,
}

impl<'a, V: Domain> Sparse<'a, V> {
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
        }
    }

    /// Propagates `fault` through one frame, from the flip-flops `diffs`
    /// names — the faulty present state's differences from the fault-free
    /// one — and from the fault site, visiting in level order only the
    /// gates a diverged net feeds. `good` is the fault-free frame and
    /// `forced` the stuck value in the domain.
    ///
    /// # Errors
    ///
    /// Returns the domain's first gate error, with the scratch cleared.
    pub(crate) fn propagate<'s>(
        &'s mut self,
        good: &'s [V],
        diffs: impl IntoIterator<Item = (usize, V)>,
        fault: Fault,
        forced: V,
    ) -> Result<Faulty<'s, 'a, V>, V::Error> {
        let mut faulty = Faulty {
            pass: self,
            good,
            stuck: Stuck::new(fault, forced),
        };
        if let Err(e) = faulty.spread(diffs) {
            faulty.pass.queue.clear();
            return Err(e);
        }
        Ok(faulty)
    }
}

impl<'s, 'a, V: Domain> Faulty<'s, 'a, V> {
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
    /// empty unless a gate evaluation fails.
    fn spread(&mut self, diffs: impl IntoIterator<Item = (usize, V)>) -> Result<(), V::Error> {
        let (good, stuck) = (self.good, &self.stuck);
        let Sparse {
            netlist,
            fval,
            diverged,
            queue,
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
                let pins = net.fanin().iter().enumerate().map(|(pin, &f)| {
                    let v = fval[f.index()].as_ref().unwrap_or(&good[f.index()]);
                    stuck.pin(Lead::branch(f, g, pin as u32), v.clone())
                });
                let out = stuck.pin(Lead::stem(g), V::gate(kind, pins)?);
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

impl<V: Domain> Drop for Faulty<'_, '_, V> {
    fn drop(&mut self) {
        let pass = &mut *self.pass;
        for &n in &pass.diverged {
            pass.fval[n.index()] = None;
        }
        pass.diverged.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use motsim_bdd::BddManager;

    use super::*;
    use crate::faults::FaultList;
    use crate::pattern::TestSequence;

    /// For every collapsed fault, over `frames` random frames, the sparse
    /// pass gives every net the dense kernel's faulty value, and its
    /// next-state differences, laid over the fault-free next state, give
    /// the dense kernel's faulty next state. Both machines start in `init`;
    /// `constant` lifts a Boolean into the domain.
    fn sparse_matches_dense<V: Domain + Debug>(
        netlist: &Netlist,
        frames: usize,
        init: &[V],
        constant: impl Fn(bool) -> V,
    ) where
        V::Error: Debug,
    {
        let seq = TestSequence::random(netlist, frames, 17);
        let eval = |state: &[V], inputs: &[bool], stuck: Option<&Stuck<V>>| {
            let mut values = vec![constant(false); netlist.num_nets()];
            let inputs = inputs.iter().map(|&b| constant(b));
            eval_frame(netlist, state, inputs, stuck, &mut values).unwrap();
            values
        };
        let mut sparse = Sparse::new(netlist);
        for &fault in FaultList::collapsed(netlist).iter() {
            let stuck = Stuck::new(fault, constant(fault.stuck));
            let (mut good_state, mut dense_state) = (init.to_vec(), init.to_vec());
            let mut diffs: Vec<(usize, V)> = Vec::new();
            for (t, v) in seq.iter().enumerate() {
                let good = eval(&good_state, v, None);
                let dense = eval(&dense_state, v, Some(&stuck));
                next_state(netlist, &good, None, &mut good_state);
                next_state(netlist, &dense, Some(&stuck), &mut dense_state);
                let forced = constant(fault.stuck);
                let faulty = sparse
                    .propagate(&good, diffs.iter().cloned(), fault, forced)
                    .unwrap();
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
                let state = patch(&good_state, diffs.iter().cloned());
                assert_eq!(state, dense_state, "{} frame {t}", fault.display(netlist));
                assert_eq!(diff(&good_state, state), diffs, "a difference differs");
            }
        }
    }

    fn sparse_v3_matches_dense(netlist: &Netlist) {
        let init = vec![V3::X; netlist.num_dffs()];
        sparse_matches_dense(netlist, 40, &init, V3::from_bool);
    }

    /// Both machines start from the same `x` variables, as
    /// `SymbolicFaultSim::add_fault` starts them.
    fn sparse_bdd_matches_dense(netlist: &Netlist) {
        let mgr = BddManager::new();
        let init: Vec<Bdd> = (0..netlist.num_dffs()).map(|_| mgr.new_var()).collect();
        sparse_matches_dense(netlist, 12, &init, |b| mgr.constant(b));
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

    #[test]
    fn sparse_bdd_matches_dense_on_s27() {
        sparse_bdd_matches_dense(&motsim_circuits::s27());
    }

    #[test]
    fn sparse_bdd_matches_dense_on_counter6() {
        sparse_bdd_matches_dense(&motsim_circuits::generators::counter(6));
    }
}
