//! The paper's Figures 1–3 as golden tests: tiny circuits where the SOT
//! strategy provably fails and the MOT (or rMOT) strategy succeeds, plus a
//! pinned regression over each figure's full collapsed fault list.

use motsim::exhaustive::Oracle;
use motsim::symbolic::{Strategy, SymbolicFaultSim};
use motsim::{Fault, FaultList, TestSequence};
use motsim_circuits::figures;
use motsim_netlist::{Lead, Netlist};

fn run(netlist: &Netlist, strategy: Strategy, fault: Fault, seq: &TestSequence) -> bool {
    SymbolicFaultSim::new(netlist, strategy)
        .run(seq, [fault])
        .expect("no node limit")
        .num_detected()
        == 1
}

/// A paper figure as a netlist and its pinned sequence.
fn figure((n, vectors): figures::Figure) -> (Netlist, TestSequence) {
    let seq = TestSequence::new(n.num_inputs(), vectors);
    (n, seq)
}

/// Fig. 1: both machines uninitialized; no single observation time works,
/// but the response sets are disjoint.
#[test]
fn fig1_sot_fails_mot_succeeds() {
    let (n, seq) = figure(figures::fig1());
    let fault = Fault::stuck_at_0(Lead::stem(n.find("A").unwrap()));

    assert!(!run(&n, Strategy::Sot, fault, &seq));
    assert!(!run(&n, Strategy::Rmot, fault, &seq));
    assert!(run(&n, Strategy::Mot, fault, &seq));

    // Cross-check against brute-force enumeration (Definition 2 / 3).
    let v = Oracle::new().verdict(&n, &seq, fault).unwrap();
    assert!(!v.sot && !v.rmot && v.mot);
}

/// Fig. 2: the sequence initializes the fault-free machine but not the
/// faulty one — undetectable per Definition 2 despite initialization.
#[test]
fn fig2_initialization_is_not_enough_for_sot() {
    let (n, seq) = figure(figures::fig2());
    let fault = Fault::stuck_at_1(Lead::stem(n.find("NCLR").unwrap()));

    // The fault-free machine is fully synchronized after the first clear…
    let mut tv = motsim::sim3::TrueSim::new(&n);
    tv.step(seq.vector(0));
    assert!(
        tv.state().iter().all(|v| v.is_known()),
        "clear synchronizes"
    );

    // …yet SOT cannot detect the clear-path fault; rMOT and MOT can.
    assert!(!run(&n, Strategy::Sot, fault, &seq));
    assert!(run(&n, Strategy::Rmot, fault, &seq));
    assert!(run(&n, Strategy::Mot, fault, &seq));

    let v = Oracle::new().verdict(&n, &seq, fault).unwrap();
    assert!(!v.sot && v.rmot && v.mot);
}

/// Fig. 3: the worked example — fault-free outputs (x, x̄), faulty (ȳ, ȳ),
/// detection function D(x,y) = [x ≡ ȳ]·[x ≡ y] ≡ 0.
#[test]
fn fig3_detection_function_collapses() {
    let (n, seq) = figure(figures::fig3());
    let fault = Fault::stuck_at_0(Lead::stem(n.find("A").unwrap()));

    assert!(!run(&n, Strategy::Sot, fault, &seq));
    assert!(!run(&n, Strategy::Rmot, fault, &seq));
    assert!(run(&n, Strategy::Mot, fault, &seq));

    // Verify the algebra directly with the BDD package: build
    // D = [x ≡ ȳ]·[x ≡ y] and check it is the constant 0.
    let mgr = motsim_bdd::BddManager::new();
    let x = mgr.new_var();
    let y = mgr.new_var();
    let t1 = x.equiv(&y.not()).unwrap();
    let t2 = x.equiv(&y).unwrap();
    let d = t1.and(&t2).unwrap();
    assert!(d.is_false(), "D(x,y) must be identically 0");

    // And with one frame only, D = [x ≡ ȳ] ≠ 0: not detectable (Lemma 1).
    let seq1 = TestSequence::new(1, vec![vec![true]]);
    assert!(!run(&n, Strategy::Mot, fault, &seq1));
    assert!(t1.any_sat().is_some());
}

/// Per-strategy detection bitmap over a circuit's full collapsed fault list.
fn detected_per_strategy(n: &Netlist, seq: &TestSequence) -> [Vec<bool>; 3] {
    let faults = FaultList::collapsed(n);
    [Strategy::Sot, Strategy::Rmot, Strategy::Mot].map(|s| {
        SymbolicFaultSim::new(n, s)
            .run(seq, faults.iter().copied())
            .expect("no node limit")
            .results
            .iter()
            .map(|r| r.detection.is_some())
            .collect()
    })
}

/// Regression pin: over each figure's *entire* collapsed fault list, the
/// strategy hierarchy holds fault by fault (SOT ⊆ rMOT ⊆ MOT) and the
/// per-strategy detected counts match exactly the values these circuits
/// have produced since this test was written. Any engine change that
/// shifts a single verdict on the paper's own examples fails here.
#[test]
fn pinned_strategy_counts_on_paper_figures() {
    // (name, circuit+sequence, pinned [SOT, rMOT, MOT] detected counts).
    let cases: [(&str, (Netlist, TestSequence), [usize; 3]); 3] = [
        ("fig1", figure(figures::fig1()), [0, 0, 6]),
        ("fig2", figure(figures::fig2()), [33, 35, 35]),
        ("fig3", figure(figures::fig3()), [0, 0, 4]),
    ];
    for (name, (n, seq), pinned) in cases {
        let faults = FaultList::collapsed(&n);
        let [sot, rmot, mot] = detected_per_strategy(&n, &seq);
        assert_eq!(sot.len(), faults.len());
        for (i, &fault) in faults.iter().enumerate() {
            assert!(
                (!sot[i] || rmot[i]) && (!rmot[i] || mot[i]),
                "{name}: containment violated on fault {fault}"
            );
            // All three figures fit the exhaustive oracle, so every verdict
            // is anchored to the brute-force enumeration — the pin below
            // cannot encode an engine bug.
            let v = Oracle::new().verdict(&n, &seq, fault).unwrap();
            assert_eq!(
                (sot[i], rmot[i], mot[i]),
                (v.sot, v.rmot, v.mot),
                "{name}: engine disagrees with the oracle on fault {fault}"
            );
        }
        let counts = [
            sot.iter().filter(|&&d| d).count(),
            rmot.iter().filter(|&&d| d).count(),
            mot.iter().filter(|&&d| d).count(),
        ];
        assert_eq!(
            counts, pinned,
            "{name}: detected counts drifted from the pinned regression values"
        );
    }
}
