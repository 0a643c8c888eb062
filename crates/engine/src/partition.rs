//! Deterministic sharding of a collapsed fault list into work units.
//!
//! The partition plan is a pure function of the fault list, the netlist and
//! the requested unit count — it does **not** depend on how many worker
//! threads later execute it. That independence is what makes the whole
//! engine deterministic: every `--jobs` value executes the *same* units in
//! the *same* per-unit fault order, each in a fresh BDD manager, so the
//! merged outcome is byte-identical regardless of thread count (see
//! DESIGN.md §8).

use motsim::Fault;
use motsim_netlist::{NetId, Netlist};

/// How faults are assigned to work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionPolicy {
    /// Fault *i* goes to unit *i mod units*. Cheap, oblivious to cost.
    RoundRobin,
    /// Longest-processing-time greedy on an estimated per-fault cost (the
    /// size of the fault site's combinational fanout cone): faults are
    /// placed heaviest-first onto the currently lightest unit. Ties break
    /// deterministically (lower load, then lower unit id).
    #[default]
    CostBalanced,
}

/// A shard of the fault list, executed by one worker in one fresh manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkUnit {
    /// Position of this unit in the partition plan. Unit ids are dense
    /// (`0..plan.len()`) and the reducer merges outcomes in id order.
    pub id: usize,
    /// The faults of this shard, sorted ascending (canonical order).
    pub faults: Vec<Fault>,
    /// Estimated cost: sum of the per-fault fanout-cone sizes.
    pub cost: u64,
}

/// Splits fault lists into [`WorkUnit`]s over a fixed netlist.
///
/// The partitioner memoizes per-net fanout-cone sizes, so partitioning many
/// batches (or re-partitioning with different unit counts) stays cheap.
#[derive(Debug)]
pub struct FaultPartitioner<'a> {
    netlist: &'a Netlist,
    policy: PartitionPolicy,
    /// Fanout-cone size per net; 0 until counted (a cone holds its root).
    cone_size: Vec<u64>,
    /// Nets visited by the current count carry its `epoch`.
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<NetId>,
}

impl<'a> FaultPartitioner<'a> {
    /// Creates a partitioner for `netlist` with the given policy.
    pub fn new(netlist: &'a Netlist, policy: PartitionPolicy) -> Self {
        FaultPartitioner {
            netlist,
            policy,
            cone_size: vec![0; netlist.num_nets()],
            seen: vec![0; netlist.num_nets()],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// The policy this partitioner assigns faults with.
    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// Estimated simulation cost of one fault: the size of the
    /// combinational fanout cone its effect propagates through. For a stem
    /// fault that is the cone of the stem; for a branch fault, the cone of
    /// the sink gate's output (the effect enters the circuit there).
    pub fn fault_cost(&mut self, fault: Fault) -> u64 {
        let site = match fault.lead.sink {
            Some((sink, _)) => sink,
            None => fault.lead.net,
        };
        if self.cone_size[site.index()] == 0 {
            self.cone_size[site.index()] = self.count_cone(site);
        }
        self.cone_size[site.index()]
    }

    /// Counts the nets of
    /// [`fanout_cone`](motsim_netlist::analysis::fanout_cone)`(netlist, net)` without
    /// collecting them. Each net is counted at most once per partitioner,
    /// so the epoch cannot wrap.
    fn count_cone(&mut self, net: NetId) -> u64 {
        self.epoch += 1;
        let mut count = 0;
        self.stack.push(net);
        while let Some(id) = self.stack.pop() {
            if self.seen[id.index()] == self.epoch {
                continue;
            }
            self.seen[id.index()] = self.epoch;
            count += 1;
            for &(sink, _) in self.netlist.fanout(id) {
                if self.netlist.net(sink).kind().is_gate() {
                    self.stack.push(sink);
                }
            }
        }
        count
    }

    /// Partitions `faults` into at most `units` work units.
    ///
    /// Empty units are dropped, so the returned plan has
    /// `min(units, faults.len())` entries (none for an empty fault list).
    /// Unit ids are re-numbered densely in plan order. Within each unit the
    /// faults are sorted ascending; across units every input fault appears
    /// exactly once.
    pub fn partition(&mut self, faults: &[Fault], units: usize) -> Vec<WorkUnit> {
        let units = units.max(1).min(faults.len());
        let mut shards: Vec<WorkUnit> = (0..units)
            .map(|id| WorkUnit {
                id,
                faults: Vec::new(),
                cost: 0,
            })
            .collect();

        match self.policy {
            PartitionPolicy::RoundRobin => {
                for (i, &f) in faults.iter().enumerate() {
                    let cost = self.fault_cost(f);
                    let shard = &mut shards[i % units];
                    shard.faults.push(f);
                    shard.cost += cost;
                }
            }
            PartitionPolicy::CostBalanced => {
                // Heaviest first; equal-cost faults keep their list order so
                // the plan is a pure function of (faults, netlist, units).
                let mut order: Vec<(u64, Fault)> =
                    faults.iter().map(|&f| (self.fault_cost(f), f)).collect();
                order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                for (cost, f) in order {
                    let shard = shards
                        .iter_mut()
                        .min_by_key(|s| (s.cost, s.id))
                        .expect("units >= 1");
                    shard.faults.push(f);
                    shard.cost += cost;
                }
            }
        }

        shards.retain(|s| !s.faults.is_empty());
        for (id, shard) in shards.iter_mut().enumerate() {
            shard.id = id;
            shard.faults.sort();
        }
        shards
    }
}

/// Default work-unit count for `n` faults: one unit per 32 faults, at least
/// 1, at most 64. Enough granularity that cost imbalance averages out, few
/// enough that per-unit manager setup stays negligible — and, crucially,
/// independent of the worker count.
pub fn default_units(n: usize) -> usize {
    n.div_ceil(32).clamp(1, 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use motsim::FaultList;

    fn faults_of(netlist: &Netlist) -> Vec<Fault> {
        FaultList::collapsed(netlist).into_iter().collect()
    }

    #[test]
    fn partition_is_a_permutation() {
        let n = motsim_circuits::s27();
        let faults = faults_of(&n);
        for policy in [PartitionPolicy::RoundRobin, PartitionPolicy::CostBalanced] {
            let mut p = FaultPartitioner::new(&n, policy);
            let plan = p.partition(&faults, 4);
            let mut got: Vec<Fault> = plan.iter().flat_map(|u| u.faults.clone()).collect();
            got.sort();
            assert_eq!(got, faults, "{policy:?} must cover every fault once");
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let n = motsim_circuits::generators::counter(6);
        let faults = faults_of(&n);
        let plan_a = FaultPartitioner::new(&n, PartitionPolicy::CostBalanced).partition(&faults, 5);
        let plan_b = FaultPartitioner::new(&n, PartitionPolicy::CostBalanced).partition(&faults, 5);
        assert_eq!(plan_a, plan_b);
    }

    #[test]
    fn unit_count_clamped_to_fault_count() {
        let n = motsim_circuits::s27();
        let faults = faults_of(&n);
        let mut p = FaultPartitioner::new(&n, PartitionPolicy::RoundRobin);
        let plan = p.partition(&faults, 10 * faults.len());
        assert_eq!(plan.len(), faults.len());
        assert!(plan.iter().all(|u| u.faults.len() == 1));
    }

    #[test]
    fn empty_fault_list_gives_empty_plan() {
        let n = motsim_circuits::s27();
        let mut p = FaultPartitioner::new(&n, PartitionPolicy::CostBalanced);
        assert!(p.partition(&[], 4).is_empty());
    }

    #[test]
    fn cost_balancing_beats_round_robin_spread() {
        // On a circuit with wildly varying cone sizes the LPT plan's
        // max-load must be no worse than round-robin's.
        let n = motsim_circuits::generators::counter(10);
        let faults = faults_of(&n);
        let rr = FaultPartitioner::new(&n, PartitionPolicy::RoundRobin).partition(&faults, 4);
        let lpt = FaultPartitioner::new(&n, PartitionPolicy::CostBalanced).partition(&faults, 4);
        let max = |plan: &[WorkUnit]| plan.iter().map(|u| u.cost).max().unwrap();
        assert!(max(&lpt) <= max(&rr));
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let n = motsim_circuits::generators::counter(8);
        let faults = faults_of(&n);
        let plan = FaultPartitioner::new(&n, PartitionPolicy::CostBalanced).partition(&faults, 7);
        for (i, unit) in plan.iter().enumerate() {
            assert_eq!(unit.id, i);
        }
    }

    #[test]
    fn fault_cost_is_the_fanout_cone_size() {
        use motsim_netlist::analysis::fanout_cone;
        use motsim_netlist::Lead;
        for name in ["g298", "g5378"] {
            let n = motsim_circuits::suite::by_name(name).unwrap();
            let mut p = FaultPartitioner::new(&n, PartitionPolicy::CostBalanced);
            for net in n.net_ids() {
                let cost = p.fault_cost(Fault::stuck_at_0(Lead::stem(net)));
                assert_eq!(cost, fanout_cone(&n, net).len() as u64, "{name}");
            }
        }
    }

    /// The plans of counter(10), as `(cost, faults)` per unit plus an
    /// FNV-1a hash of every `(unit id, fault index)` assignment, pinned
    /// when the cone sizes were still collected by `fanout_cone`.
    #[test]
    fn plans_are_pinned_on_counter10() {
        let n = motsim_circuits::generators::counter(10);
        let faults = faults_of(&n);
        type Plan = (PartitionPolicy, usize, &'static [(u64, usize)], u64);
        let pinned: [Plan; 4] = [
            (
                PartitionPolicy::RoundRobin,
                4,
                &[(373, 40), (319, 40), (284, 39), (283, 39)],
                0x09d6fbf58373b599,
            ),
            (
                PartitionPolicy::RoundRobin,
                7,
                &[
                    (149, 23),
                    (285, 23),
                    (266, 23),
                    (81, 23),
                    (88, 22),
                    (212, 22),
                    (178, 22),
                ],
                0xaf63a467671b0567,
            ),
            (
                PartitionPolicy::CostBalanced,
                4,
                &[(315, 39), (315, 40), (315, 40), (314, 39)],
                0x160eb6b93471b890,
            ),
            (
                PartitionPolicy::CostBalanced,
                7,
                &[
                    (180, 23),
                    (180, 23),
                    (180, 22),
                    (180, 22),
                    (180, 23),
                    (180, 23),
                    (179, 22),
                ],
                0xaf992cd2a03868b7,
            ),
        ];
        for (policy, units, shape, hash) in pinned {
            let plan = FaultPartitioner::new(&n, policy).partition(&faults, units);
            let got: Vec<(u64, usize)> = plan.iter().map(|u| (u.cost, u.faults.len())).collect();
            assert_eq!(got, shape, "{policy:?} {units}");
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for u in &plan {
                for f in &u.faults {
                    let i = faults.binary_search(f).unwrap() as u64;
                    for b in (u.id as u64 * 1_000_000 + i).to_le_bytes() {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
            assert_eq!(h, hash, "{policy:?} {units}");
        }
    }

    #[test]
    fn default_units_scales() {
        assert_eq!(default_units(0), 1);
        assert_eq!(default_units(1), 1);
        assert_eq!(default_units(32), 1);
        assert_eq!(default_units(33), 2);
        assert_eq!(default_units(10_000), 64);
    }
}
