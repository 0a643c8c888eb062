//! End-to-end integration tests: the full paper pipeline on suite circuits,
//! checking the cross-engine invariants the paper's tables rely on.

use motsim::engine_api::{FaultSimEngine, HybridEngine, SimConfig};
use motsim::faults::FaultList;
use motsim::pattern::TestSequence;
use motsim::sim3::FaultSim3;
use motsim::symbolic::Strategy;
use motsim::testeval::{reference_response, SymbolicOutputSequence};
use motsim::tgen::{self, TgenConfig};
use motsim::xred::XRedAnalysis;
use motsim_netlist::Netlist;

/// The invariants every (circuit, sequence) pair must satisfy:
/// 1. X-redundant faults are never detected by three-valued simulation;
/// 2. three-valued detections ⊆ hybrid SOT ⊆ hybrid rMOT (as sets of
///    *sound* detections they may only grow with strategy power when no
///    fallback distorts the comparison — so we assert on counts under one
///    shared hybrid configuration with a generous limit);
/// 3. everything any strategy detects on the hard set is genuinely
///    undetected by three-valued simulation (disjointness of the split).
fn check_pipeline(netlist: &Netlist, seq: &TestSequence) {
    let faults = FaultList::collapsed(netlist);

    // ID_X-red soundness against the three-valued simulator.
    let analysis = XRedAnalysis::analyze(netlist, seq);
    let (x_red, rest) = analysis.partition(faults.iter().cloned());
    let three_all = FaultSim3::run(netlist, seq, faults.iter().cloned());
    let detected3: std::collections::HashSet<_> = three_all.detected_faults().collect();
    for f in &x_red {
        assert!(!detected3.contains(f), "X-redundant fault detected");
    }
    // Pruning does not change the result.
    let three_pruned = FaultSim3::run(netlist, seq, rest.iter().cloned());
    assert_eq!(three_all.num_detected(), three_pruned.num_detected());

    // Strategy comparison on the hard faults.
    let hard: Vec<_> = three_all.undetected_faults().collect();
    let mut detected = Vec::new();
    for strategy in Strategy::ALL {
        let outcome = HybridEngine
            .run(
                netlist,
                seq,
                &hard,
                SimConfig::new()
                    .strategy(strategy)
                    .node_limit(Some(200_000)),
            )
            .expect("valid config");
        detected.push((
            strategy,
            outcome.num_detected(),
            outcome.is_approximate(),
            outcome.detected_faults().collect::<Vec<_>>(),
        ));
    }
    // Monotone power when exact.
    if !detected[0].2 && !detected[1].2 {
        assert!(detected[0].1 <= detected[1].1, "SOT ≤ rMOT violated");
    }
    if !detected[1].2 && !detected[2].2 {
        assert!(detected[1].1 <= detected[2].1, "rMOT ≤ MOT violated");
    }
    // Hard-set detections are genuinely new faults.
    for (_, _, _, det) in &detected {
        for f in det {
            assert!(!detected3.contains(f), "strategy re-detected an easy fault");
        }
    }
}

#[test]
fn pipeline_s27() {
    let n = motsim_circuits::s27();
    check_pipeline(&n, &TestSequence::random(&n, 60, 1));
}

#[test]
fn pipeline_partial_counter() {
    let n = motsim_circuits::generators::partial_counter(8, 6);
    check_pipeline(&n, &TestSequence::random(&n, 60, 2));
}

#[test]
fn pipeline_fsm() {
    let n = motsim_circuits::suite::by_name("g386").unwrap();
    check_pipeline(&n, &TestSequence::random(&n, 60, 3));
}

#[test]
fn pipeline_accumulator() {
    let n = motsim_circuits::suite::by_name("g344").unwrap();
    check_pipeline(&n, &TestSequence::random(&n, 60, 4));
}

#[test]
fn pipeline_shift_register() {
    let n = motsim_circuits::generators::shift_register(12);
    check_pipeline(&n, &TestSequence::random(&n, 60, 5));
}

#[test]
fn pipeline_with_deterministic_sequence() {
    let n = motsim_circuits::suite::by_name("g298").unwrap();
    let faults = FaultList::collapsed(&n);
    let seq = tgen::generate(
        &n,
        faults.iter().cloned(),
        TgenConfig {
            max_len: 80,
            ..TgenConfig::default()
        },
    );
    assert!(!seq.is_empty());
    check_pipeline(&n, &seq);
}

/// Test evaluation accepts every genuine fault-free response and rejects
/// the response of a machine carrying a MOT-detected fault.
#[test]
fn pipeline_test_evaluation_consistency() {
    let n = motsim_circuits::generators::partial_counter(6, 4);
    let faults = FaultList::collapsed(&n);
    let seq = TestSequence::random(&n, 50, 6);
    let sos = SymbolicOutputSequence::compute(&n, &seq, None);

    // All 2^6 fault-free responses are accepted.
    for init in 0..(1u32 << 6) {
        let st: Vec<bool> = (0..6).map(|i| (init >> i) & 1 == 1).collect();
        let resp = reference_response(&n, &seq, &st);
        assert!(
            !sos.evaluate(&resp).is_faulty(),
            "fault-free response from {init} rejected"
        );
    }

    // Every MOT-detected fault's machine is rejected from every start.
    let mot = motsim::symbolic::SymbolicFaultSim::new(&n, Strategy::Mot)
        .run(&seq, faults.iter().cloned())
        .unwrap();
    let mut checked = 0;
    for fault in mot.detected_faults().take(5) {
        for init in [0u32, 21, 63] {
            let m = n.num_dffs();
            let mut state: Vec<u64> = (0..m)
                .map(|i| if (init >> i) & 1 == 1 { u64::MAX } else { 0 })
                .collect();
            let mut values = Vec::new();
            let mut resp = Vec::new();
            for v in &seq {
                motsim::simb::eval_frame_u64(
                    &n,
                    &state,
                    &motsim::simb::broadcast(v),
                    Some(fault),
                    &mut values,
                );
                resp.push(
                    n.outputs()
                        .iter()
                        .map(|&o| values[o.index()] & 1 == 1)
                        .collect::<Vec<bool>>(),
                );
                motsim::simb::next_state_u64(&n, &values, Some(fault), &mut state);
            }
            assert!(sos.evaluate(&resp).is_faulty());
            checked += 1;
        }
    }
    assert!(checked > 0, "no MOT detections to check");
}

/// The `m = 0` corner: a purely combinational circuit has no unknown
/// initial state, so the three-valued simulator is already exact and all
/// three strategies coincide with it.
#[test]
fn pipeline_combinational_c17() {
    let n = motsim_circuits::c17();
    assert_eq!(n.num_dffs(), 0);
    let faults = FaultList::collapsed(&n);
    let seq = TestSequence::random(&n, 30, 8);
    let three = FaultSim3::run(&n, &seq, faults.iter().cloned());
    for strategy in Strategy::ALL {
        let sym = motsim::symbolic::SymbolicFaultSim::new(&n, strategy)
            .run(&seq, faults.iter().cloned())
            .unwrap();
        for (a, b) in three.results.iter().zip(&sym.results) {
            assert_eq!(
                a.detection.is_some(),
                b.detection.is_some(),
                "{strategy} diverges from three-valued on combinational {}",
                a.fault.display(&n)
            );
        }
    }
    // The exhaustive oracle handles 2^0 = 1 initial state.
    for f in faults.iter().take(6) {
        let v = motsim::exhaustive::Oracle::new()
            .verdict(&n, &seq, *f)
            .unwrap();
        assert_eq!(v.sot, v.mot);
        assert_eq!(v.rmot, v.mot);
    }
    // Random vectors should detect most of c17's faults.
    assert!(three.num_detected() * 10 >= faults.len() * 9);
}

/// The hybrid simulator under severe memory pressure still terminates and
/// stays sound relative to the unlimited engine.
#[test]
fn pipeline_hybrid_under_pressure() {
    let n = motsim_circuits::suite::by_name("g420").unwrap();
    let faults = FaultList::collapsed(&n);
    let seq = TestSequence::random(&n, 40, 7);
    let exact = motsim::symbolic::SymbolicFaultSim::new(&n, Strategy::Mot)
        .run(&seq, faults.iter().cloned())
        .unwrap();
    let exact_set: std::collections::HashSet<_> = exact.detected_faults().collect();
    let fault_vec: Vec<_> = faults.iter().cloned().collect();
    for limit in [300, 3_000, 30_000] {
        let hyb = HybridEngine
            .run(
                &n,
                &seq,
                &fault_vec,
                SimConfig::new()
                    .strategy(Strategy::Mot)
                    .node_limit(Some(limit))
                    .fallback_frames(4),
            )
            .expect("valid config");
        assert_eq!(hyb.frames, 40);
        for f in hyb.detected_faults() {
            assert!(
                exact_set.contains(&f),
                "limit {limit}: unsound detection {}",
                f.display(&n)
            );
        }
    }
}
