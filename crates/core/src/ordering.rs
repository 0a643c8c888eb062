//! Static BDD variable ordering for the state encoding.
//!
//! The symbolic engines assign one BDD variable per flip-flop. This module
//! computes the *initial* order from circuit structure; it is complemented
//! at run time by dynamic reordering
//! ([`BddManager::sift`](motsim_bdd::BddManager::sift), exposed through
//! `SymbolicFaultSim::reorder_sift`), which the hybrid engine invokes under
//! node-limit pressure before falling back three-valued. A good static
//! order is still worth computing — sifting starts from it and only ever
//! improves locally. The structural orders:
//!
//! - [`VarOrder::natural`] — flip-flop index order (the baseline),
//! - [`VarOrder::dfs`] — depth-first appearance order of the flip-flops in
//!   a traversal from the primary outputs through the combinational logic
//!   and across register boundaries (the classical "fanin DFS" heuristic:
//!   variables used together sit together),
//! - [`VarOrder::connectivity`] — a greedy order that repeatedly appends
//!   the flip-flop sharing the most combinational support with those
//!   already placed.
//!
//! The orders were measured head-to-head (EXPERIMENTS.md "Ablations");
//! on the counter family the DFS order tracks the carry chain and keeps
//! next-state BDDs linear.

use std::collections::HashSet;

use motsim_netlist::{NetId, Netlist, NodeKind};

/// A permutation of the flip-flops: `order[k]` is the state index placed at
/// BDD position `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarOrder {
    order: Vec<usize>,
}

impl VarOrder {
    /// Flip-flop index order (the engines' default).
    pub fn natural(netlist: &Netlist) -> Self {
        VarOrder {
            order: (0..netlist.num_dffs()).collect(),
        }
    }

    /// Depth-first fanin order from the primary outputs; flip-flops are
    /// appended the first time the traversal reaches their Q net, and the
    /// traversal continues through their D cone (so tightly coupled
    /// registers cluster). Unreached flip-flops (not observable) are
    /// appended last in index order.
    ///
    /// # Example
    ///
    /// ```
    /// use motsim::ordering::VarOrder;
    ///
    /// let circuit = motsim_circuits::generators::shift_register(4);
    /// let order = VarOrder::dfs(&circuit);
    /// assert!(order.is_valid(4));
    /// ```
    pub fn dfs(netlist: &Netlist) -> Self {
        let mut order = Vec::with_capacity(netlist.num_dffs());
        let mut seen_net: HashSet<NetId> = HashSet::new();
        let mut seen_ff: vec::BitSet = vec::BitSet::new(netlist.num_dffs());
        // Iterative DFS; outputs first, then D pins of discovered FFs.
        let mut stack: Vec<NetId> = netlist.outputs().iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            if !seen_net.insert(n) {
                continue;
            }
            match netlist.net(n).kind() {
                NodeKind::Input(_) => {}
                NodeKind::Dff(pos) => {
                    let pos = pos as usize;
                    if !seen_ff.get(pos) {
                        seen_ff.set(pos);
                        order.push(pos);
                        // Continue through the register boundary.
                        stack.push(netlist.dff_d(n));
                    }
                }
                NodeKind::Gate(_) => {
                    for &f in netlist.net(n).fanin().iter().rev() {
                        stack.push(f);
                    }
                }
            }
        }
        for i in 0..netlist.num_dffs() {
            if !seen_ff.get(i) {
                order.push(i);
            }
        }
        VarOrder { order }
    }

    /// Greedy connectivity order: start from the flip-flop with the
    /// smallest combinational support; repeatedly append the flip-flop
    /// whose D-cone support overlaps the placed set the most (ties by
    /// index).
    pub fn connectivity(netlist: &Netlist) -> Self {
        let m = netlist.num_dffs();
        // Per FF: the set of FF indices its next-state function reads.
        let supports: Vec<HashSet<usize>> = (0..m)
            .map(|i| {
                let q = netlist.dffs()[i];
                let d = netlist.dff_d(q);
                motsim_netlist::analysis::fanin_cone(netlist, d)
                    .into_iter()
                    .filter_map(|n| match netlist.net(n).kind() {
                        NodeKind::Dff(p) => Some(p as usize),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let mut placed: Vec<usize> = Vec::with_capacity(m);
        let mut placed_set: HashSet<usize> = HashSet::new();
        while placed.len() < m {
            let best = (0..m)
                .filter(|i| !placed_set.contains(i))
                .max_by_key(|&i| {
                    let overlap = supports[i].intersection(&placed_set).count();
                    // Prefer overlap; among zero-overlap candidates prefer
                    // small support (chain heads); ties by low index.
                    (
                        overlap,
                        std::cmp::Reverse(supports[i].len()),
                        std::cmp::Reverse(i),
                    )
                })
                .expect("some flip-flop remains");
            placed.push(best);
            placed_set.insert(best);
        }
        VarOrder { order: placed }
    }

    /// The permutation as a slice: position `k` holds flip-flop `order[k]`.
    pub fn as_slice(&self) -> &[usize] {
        &self.order
    }

    /// Number of flip-flops covered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` for circuits without flip-flops.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The inverse map: `position_of[ff] = k`.
    pub fn positions(&self) -> Vec<usize> {
        let mut pos = vec![0; self.order.len()];
        for (k, &ff) in self.order.iter().enumerate() {
            pos[ff] = k;
        }
        pos
    }

    /// Validates that this is a permutation of `0..m`.
    pub fn is_valid(&self, m: usize) -> bool {
        if self.order.len() != m {
            return false;
        }
        let mut seen = vec![false; m];
        for &i in &self.order {
            if i >= m || seen[i] {
                return false;
            }
            seen[i] = true;
        }
        true
    }
}

/// Tiny internal bitset (avoids a dependency for one use).
mod vec {
    #[derive(Debug, Default)]
    pub struct BitSet {
        words: Vec<u64>,
    }

    impl BitSet {
        pub fn new(bits: usize) -> Self {
            BitSet {
                words: vec![0; bits.div_ceil(64)],
            }
        }

        pub fn get(&self, i: usize) -> bool {
            (self.words[i / 64] >> (i % 64)) & 1 == 1
        }

        pub fn set(&mut self, i: usize) {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motsim_circuits::generators::{counter, shift_register};

    #[test]
    fn natural_is_identity() {
        let n = motsim_circuits::s27();
        let o = VarOrder::natural(&n);
        assert_eq!(o.as_slice(), &[0, 1, 2]);
        assert!(o.is_valid(3));
        assert!(!o.is_empty());
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn dfs_is_a_permutation() {
        for netlist in [counter(8), shift_register(6), motsim_circuits::s27()] {
            let o = VarOrder::dfs(&netlist);
            assert!(o.is_valid(netlist.num_dffs()), "{:?}", o);
        }
    }

    #[test]
    fn connectivity_is_a_permutation() {
        for netlist in [counter(8), shift_register(6), motsim_circuits::s27()] {
            let o = VarOrder::connectivity(&netlist);
            assert!(o.is_valid(netlist.num_dffs()), "{:?}", o);
        }
    }

    #[test]
    fn dfs_clusters_the_shift_chain() {
        // In a shift register the DFS from SO walks the chain in reverse:
        // stage k feeds stage k+1, so the order must be monotone.
        let n = shift_register(8);
        let o = VarOrder::dfs(&n);
        let pos = o.positions();
        // Adjacent stages must sit adjacently in the order.
        for i in 0..7 {
            assert_eq!(
                (pos[i] as i64 - pos[i + 1] as i64).abs(),
                1,
                "stages {i},{} not adjacent in {:?}",
                i + 1,
                o
            );
        }
    }

    #[test]
    fn positions_invert_order() {
        let n = counter(6);
        let o = VarOrder::dfs(&n);
        let pos = o.positions();
        for (k, &ff) in o.as_slice().iter().enumerate() {
            assert_eq!(pos[ff], k);
        }
    }

    #[test]
    fn unobservable_ffs_are_appended() {
        use motsim_netlist::{builder::NetlistBuilder, GateKind};
        // Q2 feeds nothing observable; it must still appear in the order.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let q1 = b.add_dff("Q1").unwrap();
        let q2 = b.add_dff("Q2").unwrap();
        let d1 = b.add_gate("D1", GateKind::Not, vec![a]).unwrap();
        let d2 = b.add_gate("D2", GateKind::Buf, vec![q2]).unwrap();
        b.connect_dff(q1, d1).unwrap();
        b.connect_dff(q2, d2).unwrap();
        let z = b.add_gate("Z", GateKind::Buf, vec![q1]).unwrap();
        b.add_output(z);
        let n = b.finish().unwrap();
        let o = VarOrder::dfs(&n);
        assert!(o.is_valid(2));
        assert_eq!(o.as_slice()[0], 0, "observable FF first");
    }

    #[test]
    fn empty_for_combinational() {
        let n = motsim_circuits::c17();
        assert!(VarOrder::natural(&n).is_empty());
        assert!(VarOrder::dfs(&n).is_valid(0));
    }

    #[test]
    fn is_valid_rejects_garbage() {
        let o = VarOrder { order: vec![0, 0] };
        assert!(!o.is_valid(2));
        let o = VarOrder { order: vec![0, 5] };
        assert!(!o.is_valid(2));
        let o = VarOrder { order: vec![0] };
        assert!(!o.is_valid(2));
    }
}
