//! Cross-engine oracle: the *parallel* symbolic verdicts must match
//! brute-force enumeration of all `2^m` initial states, exactly like the
//! sequential engine does. Sharding must not change a single verdict.

use motsim::exhaustive::Oracle;
use motsim::symbolic::Strategy;
use motsim::{Fault, FaultList, TestSequence};
use motsim_engine::{run, EngineKind, Job};
use motsim_netlist::Netlist;

fn assert_parallel_matches_oracle(netlist: &Netlist, seq: &TestSequence) {
    assert!(netlist.num_dffs() <= 10, "oracle kept to small circuits");
    let faults: Vec<Fault> = FaultList::collapsed(netlist).into_iter().collect();
    let oracle = Oracle::new()
        .verdicts(netlist, seq, faults.iter().copied())
        .unwrap();
    for strategy in Strategy::ALL {
        let job = Job::new(netlist, seq, &faults, EngineKind::Symbolic(strategy)).jobs(4);
        let outcome = run(&job).expect("no node limit").outcome;
        assert_eq!(outcome.results.len(), faults.len());
        for (r, v) in outcome.results.iter().zip(&oracle) {
            let expect = match strategy {
                Strategy::Sot => v.sot,
                Strategy::Rmot => v.rmot,
                Strategy::Mot => v.mot,
            };
            assert_eq!(
                r.detection.is_some(),
                expect,
                "parallel {strategy} disagrees with oracle for {} on {}",
                r.fault.display(netlist),
                netlist.name()
            );
        }
    }
}

#[test]
fn parallel_matches_oracle_on_g27() {
    let n = motsim_circuits::suite::by_name("g27").unwrap();
    let seq = TestSequence::random(&n, 14, 5);
    assert_parallel_matches_oracle(&n, &seq);
}

#[test]
fn parallel_matches_oracle_on_counter6() {
    let n = motsim_circuits::generators::counter(6);
    let seq = TestSequence::random(&n, 16, 6);
    assert_parallel_matches_oracle(&n, &seq);
}

#[test]
fn parallel_matches_oracle_on_shift_register() {
    let n = motsim_circuits::generators::shift_register(5);
    let seq = TestSequence::random(&n, 10, 7);
    assert_parallel_matches_oracle(&n, &seq);
}

#[test]
fn parallel_matches_oracle_on_gray_counter() {
    let n = motsim_circuits::generators::gray_counter(5);
    let seq = TestSequence::random(&n, 12, 8);
    assert_parallel_matches_oracle(&n, &seq);
}
