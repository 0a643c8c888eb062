//! Worker-count independence: the merged outcome of a parallel job must be
//! identical — every verdict, frame number, output index and statistic —
//! for any `--jobs` value, because the partition plan is a function of the
//! fault list alone and every work unit runs in a fresh BDD manager.

use motsim::hybrid::HybridConfig;
use motsim::symbolic::Strategy;
use motsim::{Fault, FaultList, SimOutcome, TestSequence};
use motsim_engine::{run, EngineKind, Job, PartitionPolicy};
use motsim_netlist::Netlist;

fn suite_circuit(name: &str) -> Netlist {
    motsim_circuits::suite::by_name(name).expect("suite circuit")
}

fn outcome(job: &Job) -> SimOutcome {
    run(job).expect("job must succeed").outcome
}

/// Runs `engine` on `name` with jobs ∈ {1, 2, 8} and asserts the three
/// outcomes are identical in every field.
fn assert_jobs_invariant(name: &str, engine: EngineKind, len: usize) {
    let n = suite_circuit(name);
    let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
    let seq = TestSequence::random(&n, len, 0xDAC95);
    let base = Job::new(&n, &seq, &faults, engine);
    let one = outcome(&base.jobs(1));
    let two = outcome(&base.jobs(2));
    let eight = outcome(&base.jobs(8));
    assert_eq!(one, two, "{name}: jobs=1 vs jobs=2");
    assert_eq!(one, eight, "{name}: jobs=1 vs jobs=8");
    // Verdicts are reported in fault order, covering the whole list.
    let reported: Vec<Fault> = one.results.iter().map(|r| r.fault).collect();
    assert_eq!(reported, faults, "{name}: reported fault order");
}

#[test]
fn sim3_worker_count_invariant() {
    for name in ["g27", "g208", "g344"] {
        assert_jobs_invariant(name, EngineKind::Sim3, 50);
    }
}

#[test]
fn symbolic_mot_worker_count_invariant() {
    for name in ["g27", "g208"] {
        assert_jobs_invariant(name, EngineKind::Symbolic(Strategy::Mot), 30);
    }
}

#[test]
fn symbolic_all_strategies_invariant_on_g27() {
    for strategy in Strategy::ALL {
        assert_jobs_invariant("g27", EngineKind::Symbolic(strategy), 40);
    }
}

#[test]
fn hybrid_with_fallback_worker_count_invariant() {
    // A node limit tight enough to force three-valued fallback phases: the
    // fallbacks happen inside individual units, so they replay identically
    // for every worker count.
    let config = HybridConfig {
        node_limit: 300,
        fallback_frames: 4,
        ..Default::default()
    };
    assert_jobs_invariant("g208", EngineKind::Hybrid(Strategy::Mot, config), 40);
}

#[test]
fn hybrid_with_sifting_worker_count_invariant() {
    // Reorder-before-fallback must stay jobs-deterministic too: each unit
    // runs its own manager, and sifting is a deterministic function of that
    // manager's state, so the merged outcome (verdicts, frames, reorder
    // counters) is identical for every worker count.
    let config = HybridConfig {
        node_limit: 300,
        fallback_frames: 4,
        reorder: motsim::hybrid::ReorderPolicy::Sift,
    };
    assert_jobs_invariant("g208", EngineKind::Hybrid(Strategy::Mot, config), 40);
}

#[test]
fn fixed_unit_count_invariant() {
    // A unit count that divides nothing evenly, across both policies.
    let n = suite_circuit("g208");
    let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
    let seq = TestSequence::random(&n, 40, 7);
    for policy in [PartitionPolicy::RoundRobin, PartitionPolicy::CostBalanced] {
        let base = Job::new(&n, &seq, &faults, EngineKind::Symbolic(Strategy::Rmot))
            .policy(policy)
            .units(7);
        let results: Vec<SimOutcome> = [1, 2, 8].iter().map(|&j| outcome(&base.jobs(j))).collect();
        assert_eq!(results[0], results[1], "{policy:?}");
        assert_eq!(results[0], results[2], "{policy:?}");
    }
}

#[test]
fn policies_agree_on_verdicts() {
    // Partitioning strategy affects load balance, never verdicts.
    let n = suite_circuit("g27");
    let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
    let seq = TestSequence::random(&n, 40, 3);
    let base = Job::new(&n, &seq, &faults, EngineKind::Symbolic(Strategy::Mot)).jobs(2);
    let rr = outcome(&base.policy(PartitionPolicy::RoundRobin));
    let lpt = outcome(&base.policy(PartitionPolicy::CostBalanced));
    assert_eq!(rr, lpt);
}

#[test]
fn symbolic_verdicts_unit_count_invariant() {
    // Exact symbolic verdicts depend on each fault alone: the unit count
    // may change the BDD statistics but never a detection.
    for n in [
        motsim_circuits::s27(),
        motsim_circuits::generators::counter(6),
    ] {
        let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
        let seq = TestSequence::random(&n, 40, 0xDAC95);
        for strategy in Strategy::ALL {
            let base = Job::new(&n, &seq, &faults, EngineKind::Symbolic(strategy)).jobs(2);
            let [one, three, eight] = [1, 3, 8].map(|units| outcome(&base.units(units)));
            assert!(one.num_detected() > 0, "{} {strategy}", n.name());
            for (units, run) in [(3, &three), (8, &eight)] {
                assert!(!run.is_approximate() && !one.is_approximate());
                assert_eq!(
                    run.results,
                    one.results,
                    "{} {strategy}: units=1 vs {units}",
                    n.name()
                );
            }
        }
    }
}
