//! Integration tests for the tooling around the fault simulator —
//! synchronization, variable ordering and SCOAP — and how it interacts with
//! the engines.

use std::collections::BTreeSet;

use motsim::faults::{Fault, FaultList};
use motsim::ordering::VarOrder;
use motsim::pattern::TestSequence;
use motsim::sim3::FaultSim3;
use motsim::symbolic::{Strategy, SymbolicFaultSim};
use motsim::synch::{self, SynchConfig};
use motsim::testability::{Testability, INFINITY};
use motsim::xred::XRedAnalysis;
use motsim_logic::V3;

/// Synchronizing first makes the three-valued simulator as strong as a
/// known-reset run from the synchronization point on.
#[test]
fn synchronized_prefix_closes_the_reset_gap() {
    let n = motsim_circuits::generators::counter(6);
    let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();

    // Build: synchronizing prefix + random payload.
    let sync = synch::find_synchronizing_sequence(&n, SynchConfig::default())
        .expect("counters synchronize");
    let payload = TestSequence::random(&n, 60, 11);
    let mut seq = sync.clone();
    for v in &payload {
        seq.push(v.clone());
    }

    // Three-valued from all-X with the synchronizing prefix…
    let unknown = FaultSim3::run(&n, &seq, faults.iter().cloned());
    // …and the reset-assuming baseline running only the payload from the
    // synchronized state (all zeros for the cleared counter).
    let profile = synch::profile(&n, &sync);
    assert!(profile.synchronizes_v3());
    let reset = vec![V3::Zero; n.num_dffs()];
    let seeded = faults.iter().map(|&f| (f, reset.clone()));
    let mut baseline = FaultSim3::with_states(&n, &reset, seeded);
    for v in &payload {
        baseline.step(v);
    }
    let with_reset = baseline.outcome();

    // The synchronized run must reach at least the reset baseline's
    // coverage on faults outside the clear circuitry: sanity-compare
    // total counts with a tolerance for the prefix-detected extras.
    assert!(
        unknown.num_detected() + 5 >= with_reset.num_detected(),
        "unknown-state {} vs reset {}",
        unknown.num_detected(),
        with_reset.num_detected()
    );
}

/// A fault SCOAP cannot excite (the net never takes the value opposite to
/// the stuck one) is never detected by three-valued simulation: the
/// fault-free machine never holds that value, so the faulty machine only
/// refines its `X`es. MOT can detect such faults, so this is a
/// three-valued claim only: on g208, over 80 random vectors (seed 13), MOT
/// detects the stuck-at-1 faults of three counter bits that are never
/// known.
#[test]
fn scoap_unexcitable_faults_stay_undetected_three_valued() {
    let n = motsim_circuits::suite::by_name("g1423").unwrap();
    let t = Testability::analyze(&n);
    let faults = FaultList::collapsed(&n);
    let unexcitable: Vec<Fault> = faults
        .iter()
        .copied()
        .filter(|&f| scoap_cannot_excite(&t, f))
        .collect();
    assert!(
        !unexcitable.is_empty(),
        "g1423 has SCOAP-unexcitable faults"
    );
    let seq = TestSequence::random(&n, 80, 13);
    let outcome = FaultSim3::run(&n, &seq, unexcitable.iter().cloned());
    assert_eq!(
        outcome.num_detected(),
        0,
        "SCOAP-unexcitable fault detected three-valued"
    );
}

/// Whether SCOAP says the fault's site can never take the value opposite
/// to the stuck one.
fn scoap_cannot_excite(t: &Testability, f: Fault) -> bool {
    let excite = if f.stuck {
        t.cc0(f.lead.net)
    } else {
        t.cc1(f.lead.net)
    };
    excite >= INFINITY
}

/// Checkpoint faults under-approximate the collapsed list but cover the
/// same circuitry: every checkpoint fault is in the complete universe.
#[test]
fn checkpoint_list_is_consistent() {
    let n = motsim_circuits::suite::by_name("g298").unwrap();
    let complete: BTreeSet<Fault> = FaultList::complete(&n).into_iter().collect();
    let cp = FaultList::checkpoints(&n);
    for f in cp.iter() {
        assert!(complete.contains(f));
    }
    assert!(cp.len() <= complete.len());
}

/// Variable orders interoperate with the hybrid pipeline end to end.
#[test]
fn ordered_engines_agree_on_counter() {
    let n = motsim_circuits::generators::partial_counter(6, 4);
    let faults = FaultList::collapsed(&n);
    let seq = TestSequence::random(&n, 40, 15);
    let natural = SymbolicFaultSim::new(&n, Strategy::Mot)
        .run(&seq, faults.iter().cloned())
        .unwrap();
    for order in [VarOrder::dfs(&n), VarOrder::connectivity(&n)] {
        let ordered = SymbolicFaultSim::with_order(&n, Strategy::Mot, &order)
            .run(&seq, faults.iter().cloned())
            .unwrap();
        assert_eq!(natural.num_detected(), ordered.num_detected());
    }
}

/// Static `ID_X-red` flags every fault SCOAP cannot excite, on every suite
/// circuit up to g9234's size: both read the one controllability pass, a
/// net holding `b` iff its `CC_b` is finite. (A fault SCOAP finds only
/// unobservable is another matter: static `ID_X-red` keeps many of those.)
#[test]
fn xred_static_covers_scoap_excitation_failures() {
    let max_gates = motsim_circuits::suite::by_name("g9234")
        .unwrap()
        .num_gates();
    let mut checked = 0;
    for spec in motsim_circuits::suite::all() {
        let n = (spec.build)();
        if n.num_gates() > max_gates {
            continue;
        }
        let t = Testability::analyze(&n);
        let xred = XRedAnalysis::analyze_static(&n);
        for f in FaultList::complete(&n).iter() {
            if scoap_cannot_excite(&t, *f) {
                assert!(xred.is_undetectable(*f), "{}: {}", spec.name, f.display(&n));
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "some suite fault cannot be excited");
}
