//! Parallel-fault simulation for circuits **with** a known reset state.
//!
//! The paper's problem setting is the *absence* of a known initial state.
//! When a design does provide one (reset pin, scan preset, the "circuit
//! modifications" the introduction mentions), classical word-parallel
//! fault simulation in the style of HOPE \[10\] applies: all values are
//! binary, and 63 faulty machines ride in the bit lanes of a `u64`
//! alongside the fault-free machine in lane 0.
//!
//! This engine is the bridge between the two worlds — it grades the same
//! fault list the symbolic engines handle, but under the (stronger)
//! assumption of a known reset state, and serves as the fast baseline the
//! evaluation compares against.

use std::collections::HashMap;

use motsim_netlist::{Lead, NetId, Netlist};

use crate::faults::Fault;
use crate::frame::{self, Inject};
use crate::pattern::TestSequence;
use crate::report::{Detection, FaultOutcome, SimOutcome};

/// Lanes available for faults per pass (lane 0 is the fault-free machine).
pub const LANES: usize = 63;

#[derive(Debug, Default)]
struct Overrides {
    /// Per stem net: bits forced to 1 / forced to 0.
    stem: HashMap<u32, (u64, u64)>,
    /// Per branch lead: bits forced to 1 / forced to 0 at the sink pin.
    branch: HashMap<Lead, (u64, u64)>,
}

impl Overrides {
    fn add(&mut self, fault: Fault, lane: usize) {
        let bit = 1u64 << lane;
        let slot = match fault.lead.sink {
            None => self.stem.entry(fault.lead.net.index() as u32).or_default(),
            Some(_) => self.branch.entry(fault.lead).or_default(),
        };
        if fault.stuck {
            slot.0 |= bit;
        } else {
            slot.1 |= bit;
        }
    }
}

/// Per-lane forcing: stuck-at-1 lanes set, stuck-at-0 lanes cleared.
impl Inject<u64> for Overrides {
    #[inline]
    fn stem(&self, net: NetId, word: u64) -> u64 {
        let masks = self.stem.get(&(net.index() as u32));
        masks.map_or(word, |&(set, clr)| (word | set) & !clr)
    }

    #[inline]
    fn pin(&self, lead: Lead, word: u64) -> u64 {
        let masks = self.branch.get(&lead);
        masks.map_or(word, |&(set, clr)| (word | set) & !clr)
    }
}

/// Simulates `faults` over `seq` from the known `reset` state, 63 faults
/// per pass. Values are fully binary; detection is an exact lane-vs-lane-0
/// comparison at the primary outputs.
///
/// # Example
///
/// ```
/// use motsim::{pfsim, Fault, FaultList, TestSequence};
///
/// let circuit = motsim_circuits::s27();
/// let faults: Vec<Fault> = FaultList::collapsed(&circuit).into_iter().collect();
/// let seq = TestSequence::random(&circuit, 50, 1);
/// let outcome = pfsim::parallel_fault_run(&circuit, &[false; 3], &seq, &faults);
/// assert!(outcome.num_detected() > 0);
/// ```
///
/// # Panics
///
/// Panics if `reset` does not match the flip-flop count.
pub fn parallel_fault_run(
    netlist: &Netlist,
    reset: &[bool],
    seq: &TestSequence,
    faults: &[Fault],
) -> SimOutcome {
    assert_eq!(
        reset.len(),
        netlist.num_dffs(),
        "reset state width mismatch"
    );
    let mut results: Vec<FaultOutcome> = faults
        .iter()
        .map(|&fault| FaultOutcome {
            fault,
            detection: None,
        })
        .collect();

    for (group_idx, group) in faults.chunks(LANES).enumerate() {
        let mut ov = Overrides::default();
        for (k, &f) in group.iter().enumerate() {
            ov.add(f, k + 1); // lane 0 stays fault-free
        }
        let mut state = crate::simb::broadcast(reset);
        let mut values = Vec::new();
        for (t, v) in seq.iter().enumerate() {
            frame::eval_frame(netlist, &state, frame::known(v), &ov, &mut values);
            // Observation: lanes differing from lane 0.
            for (j, &o) in netlist.outputs().iter().enumerate() {
                let word = values[o.index()];
                let ref0 = (word & 1).wrapping_mul(u64::MAX);
                let mut diff = word ^ ref0;
                while diff != 0 {
                    let lane = diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    if lane == 0 {
                        continue;
                    }
                    let idx = group_idx * LANES + (lane - 1);
                    if results[idx].detection.is_none() {
                        results[idx].detection = Some(Detection {
                            frame: t,
                            output: j,
                        });
                    }
                }
            }
            frame::next_state(netlist, &values, &ov, &mut state);
        }
    }

    let mut outcome = SimOutcome {
        results,
        frames: seq.len(),
        fallback_frames: 0,
        degraded_terms: 0,
        bdd: Default::default(),
    };
    outcome.sort_by_fault();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultList;
    use crate::sim3::FaultSim3;
    use motsim_logic::V3;

    /// Oracle: the three-valued simulator seeded with the same known reset
    /// state computes exactly the same detections (all values are binary,
    /// so V3 has no pessimism left).
    fn assert_matches_serial(netlist: &motsim_netlist::Netlist, seed: u64) {
        let faults = FaultList::collapsed(netlist);
        let flist: Vec<Fault> = faults.iter().copied().collect();
        let seq = TestSequence::random(netlist, 40, seed);
        let reset = vec![false; netlist.num_dffs()];
        let par = parallel_fault_run(netlist, &reset, &seq, &flist);

        let v3_reset: Vec<V3> = reset.iter().map(|&b| V3::from_bool(b)).collect();
        let seeded = flist.iter().map(|&f| (f, v3_reset.clone()));
        let mut serial = FaultSim3::with_states(netlist, &v3_reset, seeded);
        for v in &seq {
            serial.step(v);
        }
        let ser = serial.outcome();
        for (a, b) in par.results.iter().zip(&ser.results) {
            assert_eq!(a.fault, b.fault);
            assert_eq!(
                a.detection.is_some(),
                b.detection.is_some(),
                "fault {} disagrees",
                a.fault.display(netlist)
            );
            // First detection point must also agree (both are first-hit).
            if let (Some(x), Some(y)) = (a.detection, b.detection) {
                assert_eq!(x.frame, y.frame, "{}", a.fault.display(netlist));
            }
        }
    }

    #[test]
    fn matches_serial_on_s27() {
        let n = motsim_circuits::s27();
        assert_matches_serial(&n, 3);
    }

    #[test]
    fn matches_serial_on_counter() {
        let n = motsim_circuits::generators::counter(6);
        assert_matches_serial(&n, 4);
    }

    #[test]
    fn matches_serial_on_fsm() {
        use motsim_circuits::generators::{fsm, FsmParams};
        let n = fsm("t", 5, FsmParams::default());
        assert_matches_serial(&n, 5);
    }

    #[test]
    fn matches_serial_on_many_fault_groups() {
        // > 63 faults forces multiple passes.
        let n = motsim_circuits::generators::counter(10);
        let faults = FaultList::collapsed(&n);
        assert!(faults.len() > 2 * LANES);
        assert_matches_serial(&n, 6);
    }

    #[test]
    fn known_reset_beats_unknown_state_coverage() {
        // With a known reset the coverage can only be ≥ the all-X run.
        let n = motsim_circuits::generators::counter(8);
        let faults = FaultList::collapsed(&n);
        let flist: Vec<Fault> = faults.iter().copied().collect();
        let seq = TestSequence::random(&n, 60, 7);
        let with_reset = parallel_fault_run(&n, &[false; 8], &seq, &flist);
        let unknown = FaultSim3::run(&n, &seq, flist.iter().cloned());
        assert!(with_reset.num_detected() >= unknown.num_detected());
        assert!(with_reset.num_detected() > 0);
    }

    #[test]
    #[should_panic(expected = "reset state width")]
    fn reset_width_checked() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 2, 1);
        parallel_fault_run(&n, &[false], &seq, &[]);
    }
}
