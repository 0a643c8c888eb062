//! Bit-parallel two-valued (Boolean) simulation.
//!
//! Each bit lane of a `u64` word carries an independent scenario — 64
//! simulations per pass. The [`exhaustive`](crate::exhaustive) oracle uses
//! the lanes to enumerate initial states; the lanes can equally carry 64
//! random patterns (classical PPSFP-style simulation).

use motsim_netlist::Netlist;

use crate::faults::Fault;
use crate::frame::{self, Stuck};

/// Evaluates one combinational frame over 64 parallel Boolean scenarios.
///
/// `state[i]` / `inputs[i]` hold the per-lane values of flip-flop `i` /
/// primary input `i`; on return `values` has one word per net. `fault`
/// injects a single stuck-at fault into **all** lanes.
///
/// # Panics
///
/// Panics if `inputs`/`state` lengths do not match the circuit.
pub fn eval_frame_u64(
    netlist: &Netlist,
    state: &[u64],
    inputs: &[u64],
    fault: Option<Fault>,
    values: &mut Vec<u64>,
) {
    values.resize(netlist.num_nets(), 0);
    let stuck = fault.map(stuck_in_all_lanes);
    let inputs = inputs.iter().copied();
    let Ok(()) = frame::eval_frame(netlist, state, inputs, stuck.as_ref(), values);
}

/// Advances a 64-lane state vector by one frame (companion to
/// [`eval_frame_u64`]; call after it with the same `fault`).
///
/// # Panics
///
/// Panics if `state` does not match the flip-flop count.
pub fn next_state_u64(netlist: &Netlist, values: &[u64], fault: Option<Fault>, state: &mut [u64]) {
    let stuck = fault.map(stuck_in_all_lanes);
    frame::next_state(netlist, values, stuck.as_ref(), state);
}

/// `fault`, forcing its stuck value in all 64 lanes.
fn stuck_in_all_lanes(fault: Fault) -> Stuck<u64> {
    Stuck::new(fault, u64::from(fault.stuck).wrapping_neg())
}

/// Broadcasts one Boolean vector into all 64 lanes.
pub fn broadcast(bits: &[bool]) -> Vec<u64> {
    bits.iter().map(|&b| if b { u64::MAX } else { 0 }).collect()
}

/// Extracts the lane-`k` values of `words` as a `Vec<bool>`.
///
/// # Panics
///
/// Panics if `k >= 64`.
pub fn lane(words: &[u64], k: usize) -> Vec<bool> {
    assert!(k < 64, "lane index out of range");
    words.iter().map(|w| (w >> k) & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::TestSequence;
    use crate::sim3;
    use motsim_logic::V3;
    use motsim_netlist::Netlist;

    /// One three-valued frame of the machine with `fault` (or the
    /// fault-free machine), advancing `state`.
    fn v3_frame(n: &Netlist, fault: Option<Fault>, v: &[bool], state: &mut [V3]) -> Vec<V3> {
        let mut values = Vec::new();
        match fault {
            Some(f) => {
                sim3::eval_frame_with_fault(n, state, v, f, &mut values);
                sim3::next_state_with_fault(n, &values, f, state);
            }
            None => {
                sim3::eval_frame(n, state, v, &mut values);
                for (s, &q) in state.iter_mut().zip(n.dffs()) {
                    *s = values[n.dff_d(q).index()];
                }
            }
        }
        values
    }

    /// Lane `k` starts in initial state `k`; with the state fully known,
    /// every lane must agree net by net, frame by frame, with the
    /// three-valued simulation of the same machine — for the fault-free
    /// machine and for every collapsed fault.
    fn assert_lanes_agree_with_v3(n: &Netlist, len: usize, seed: u64) {
        let m = n.num_dffs();
        let lanes = 1usize << m.min(6);
        let seq = TestSequence::random(n, len, seed);
        let faults = crate::faults::FaultList::collapsed(n);
        let cases = std::iter::once(None).chain(faults.iter().map(|&f| Some(f)));
        for fault in cases {
            let mut state: Vec<u64> = (0..m)
                .map(|i| {
                    (0..lanes)
                        .filter(|k| (k >> i) & 1 == 1)
                        .map(|k| 1u64 << k)
                        .sum()
                })
                .collect();
            let mut v3state: Vec<Vec<V3>> = (0..lanes)
                .map(|k| (0..m).map(|i| V3::from_bool((k >> i) & 1 == 1)).collect())
                .collect();
            let mut values = Vec::new();
            for (t, v) in seq.iter().enumerate() {
                eval_frame_u64(n, &state, &broadcast(v), fault, &mut values);
                next_state_u64(n, &values, fault, &mut state);
                for (k, v3s) in v3state.iter_mut().enumerate() {
                    let v3vals = v3_frame(n, fault, v, v3s);
                    for id in n.net_ids() {
                        let expect = v3vals[id.index()].to_bool().expect("fully known");
                        let got = (values[id.index()] >> k) & 1 == 1;
                        assert_eq!(
                            got,
                            expect,
                            "{}: net {} frame {t} lane {k}",
                            fault.map_or("fault-free".into(), |f| f.display(n).to_string()),
                            n.net(id).name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn agrees_with_v3_on_known_state() {
        assert_lanes_agree_with_v3(&motsim_circuits::s27(), 30, 17);
        assert_lanes_agree_with_v3(&motsim_circuits::generators::counter(6), 20, 5);
    }

    #[test]
    fn stem_fault_forced_in_all_lanes() {
        let n = motsim_circuits::s27();
        let g17 = n.find("G17").unwrap();
        let f = Fault::stuck_at_1(motsim_netlist::Lead::stem(g17));
        let state = vec![0u64; 3];
        let mut values = Vec::new();
        eval_frame_u64(&n, &state, &broadcast(&[false; 4]), Some(f), &mut values);
        assert_eq!(values[g17.index()], u64::MAX);
    }

    #[test]
    fn branch_fault_only_affects_sink() {
        // A fans out to X=NOT(A) and Y=BUF(A); branch fault A->X#0 s-a-1
        // flips X but leaves Y reading the true A.
        use motsim_netlist::{builder::NetlistBuilder, GateKind};
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let x = b.add_gate("X", GateKind::Not, vec![a]).unwrap();
        let y = b.add_gate("Y", GateKind::Buf, vec![a]).unwrap();
        b.add_output(x);
        b.add_output(y);
        let n = b.finish().unwrap();
        let a = n.find("A").unwrap();
        let x = n.find("X").unwrap();
        let y = n.find("Y").unwrap();
        let f = Fault::stuck_at_1(motsim_netlist::Lead::branch(a, x, 0));
        let mut values = Vec::new();
        eval_frame_u64(&n, &[], &broadcast(&[false]), Some(f), &mut values);
        assert_eq!(values[x.index()], 0); // NOT(forced 1)
        assert_eq!(values[y.index()], 0); // true A = 0
    }

    #[test]
    fn d_branch_fault_forces_stored_value() {
        use motsim_netlist::{builder::NetlistBuilder, GateKind, Lead};
        // D net fans out to the FF and a PO buffer: the D-pin branch fault
        // must affect only the stored value.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("A").unwrap();
        let q = b.add_dff("Q").unwrap();
        let d = b.add_gate("D", GateKind::Buf, vec![a]).unwrap();
        let z = b.add_gate("Z", GateKind::Buf, vec![d]).unwrap();
        b.connect_dff(q, d).unwrap();
        b.add_output(z);
        b.add_output(q);
        let n = b.finish().unwrap();
        let d = n.find("D").unwrap();
        let q = n.find("Q").unwrap();
        let f = Fault::stuck_at_1(Lead::branch(d, q, 0));
        let mut state = vec![0u64];
        let mut values = Vec::new();
        eval_frame_u64(&n, &state, &broadcast(&[false]), Some(f), &mut values);
        assert_eq!(
            values[n.find("Z").unwrap().index()],
            0,
            "PO path unaffected"
        );
        next_state_u64(&n, &values, Some(f), &mut state);
        assert_eq!(state[0], u64::MAX, "stored value forced to 1");
    }

    #[test]
    fn broadcast_and_lane_round_trip() {
        let bits = vec![true, false, true];
        let words = broadcast(&bits);
        for k in [0, 17, 63] {
            assert_eq!(lane(&words, k), bits);
        }
    }

    #[test]
    #[should_panic(expected = "lane index")]
    fn lane_bounds_checked() {
        lane(&[0], 64);
    }
}
