//! Three-valued true-value and fault simulation (the `X01` baseline).
//!
//! The circuit starts in the all-`X` state (unknown initial state). The
//! [`TrueSim`] runs the fault-free machine; [`FaultSim3`] additionally
//! simulates every fault with event-driven single-fault propagation and the
//! three-valued SOT detection rule: a fault is detected at a primary output
//! when the fault-free value is a known `0`/`1`, the faulty value is known,
//! and they differ. As the paper (after \[11\]) notes, this only establishes a
//! *lower bound* on the true fault coverage — that gap is what the symbolic
//! engines close.
//!
//! [`FaultSim3`] stores each faulty state sparsely, as its differences from
//! the fault-free state, so its per-frame cost follows the fault effects.
//! It runs the fault-free machine itself, one [`TrueSim`] step per frame;
//! a batch job instead simulates it once into a shared [`Trajectory`] of
//! frames × nets bytes that all its work units read.

use motsim_logic::V3;
use motsim_netlist::{NetId, Netlist};
use motsim_trace::{TraceEvent, TraceSink};

use crate::faults::Fault;
use crate::frame::{self, Stuck};
use crate::pattern::TestSequence;
use crate::report::{Detection, FaultOutcome, SimOutcome};

/// Three-valued true-value (fault-free) simulator with a per-frame API.
#[derive(Debug, Clone)]
pub struct TrueSim<'a> {
    netlist: &'a Netlist,
    state: Vec<V3>,
    values: Vec<V3>,
    frame: usize,
}

impl<'a> TrueSim<'a> {
    /// Creates a simulator in the all-`X` initial state.
    pub fn new(netlist: &'a Netlist) -> Self {
        TrueSim {
            netlist,
            state: vec![V3::X; netlist.num_dffs()],
            values: vec![V3::X; netlist.num_nets()],
            frame: 0,
        }
    }

    /// Applies one input vector; afterwards [`values`](Self::values) holds
    /// the three-valued value of every net and the state has advanced.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the circuit's input count.
    pub fn step(&mut self, inputs: &[bool]) {
        eval_frame(self.netlist, &self.state, inputs, &mut self.values);
        frame::next_state(self.netlist, &self.values, None, &mut self.state);
        self.frame += 1;
    }

    /// Per-net values of the most recent frame (all `X` before any step).
    pub fn values(&self) -> &[V3] {
        &self.values
    }

    /// The value of `net` in the most recent frame.
    pub fn value(&self, net: NetId) -> V3 {
        self.values[net.index()]
    }

    /// Primary-output values of the most recent frame.
    pub fn outputs(&self) -> Vec<V3> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }

    /// The present state (after the last step).
    pub fn state(&self) -> &[V3] {
        &self.state
    }

    /// Overwrites the present state (used by the hybrid simulator when
    /// leaving symbolic mode).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the flip-flop count.
    pub fn set_state(&mut self, state: &[V3]) {
        assert_eq!(state.len(), self.state.len(), "state width mismatch");
        self.state.copy_from_slice(state);
    }

    /// Frames simulated so far.
    pub fn frames(&self) -> usize {
        self.frame
    }
}

/// Evaluates one combinational frame into `values` (indexed by net).
///
/// # Panics
///
/// Panics if `inputs`/`state` lengths do not match the circuit.
pub fn eval_frame(netlist: &Netlist, state: &[V3], inputs: &[bool], values: &mut Vec<V3>) {
    values.resize(netlist.num_nets(), V3::X);
    let inputs = inputs.iter().map(|&b| V3::from_bool(b));
    let Ok(()) = frame::eval_frame(netlist, state, inputs, None, values);
}

/// Evaluates one combinational frame of the *faulty* machine by full
/// re-simulation with the stuck-at overrides applied (stem forcing at the
/// site, branch forcing at the sink pin). The event-driven simulator in
/// [`FaultSim3`] computes the same values sparsely; this dense variant is
/// the reference it is tested against.
///
/// # Panics
///
/// Panics if `inputs`/`state` lengths do not match the circuit.
pub fn eval_frame_with_fault(
    netlist: &Netlist,
    state: &[V3],
    inputs: &[bool],
    fault: Fault,
    values: &mut Vec<V3>,
) {
    values.resize(netlist.num_nets(), V3::X);
    let inputs = inputs.iter().map(|&b| V3::from_bool(b));
    let stuck = Stuck::new(fault, V3::from_bool(fault.stuck));
    let Ok(()) = frame::eval_frame(netlist, state, inputs, Some(&stuck), values);
}

/// Advances the faulty present state after [`eval_frame_with_fault`]
/// (applies the D-pin branch forcing).
///
/// # Panics
///
/// Panics if `state` does not match the flip-flop count.
pub fn next_state_with_fault(netlist: &Netlist, values: &[V3], fault: Fault, state: &mut [V3]) {
    let stuck = Stuck::new(fault, V3::from_bool(fault.stuck));
    frame::next_state(netlist, values, Some(&stuck), state);
}

/// The fault-free three-valued machine over a whole sequence: every
/// frame's net values, read-only once built.
///
/// The values sit in one flat buffer of frames × nets bytes (0.54 MB for
/// g9234, 2.3 MB for g38417 at 200 frames). A batch job builds it once and
/// every work unit borrows it across threads — it is `Sync` — instead of
/// re-simulating the fault-free machine per unit (see
/// [`Sim3Engine::run_on`](crate::engine_api::Sim3Engine::run_on)).
///
/// # Example
///
/// ```
/// use motsim::pattern::TestSequence;
/// use motsim::sim3::{Trajectory, TrueSim};
///
/// let circuit = motsim_circuits::s27();
/// let seq = TestSequence::random(&circuit, 10, 7);
/// let trajectory = Trajectory::new(&circuit, &seq);
/// let mut sim = TrueSim::new(&circuit);
/// for (t, v) in seq.iter().enumerate() {
///     sim.step(v);
///     assert_eq!(trajectory.frame(t), sim.values());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Trajectory {
    nets: usize,
    frames: usize,
    values: Vec<V3>,
}

impl Trajectory {
    /// Simulates the fault-free machine over `seq` from the all-`X` state
    /// and keeps every frame's net values.
    ///
    /// # Panics
    ///
    /// Panics if a vector of `seq` does not match the circuit's input count.
    pub fn new(netlist: &Netlist, seq: &TestSequence) -> Self {
        let mut sim = TrueSim::new(netlist);
        let mut values = Vec::with_capacity(seq.len() * netlist.num_nets());
        for v in seq {
            sim.step(v);
            values.extend_from_slice(sim.values());
        }
        Trajectory {
            nets: netlist.num_nets(),
            frames: seq.len(),
            values,
        }
    }

    /// The number of frames held.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The per-net values of frame `t`, as [`TrueSim::values`] shows them
    /// after `t + 1` steps.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not below [`frames`](Self::frames).
    pub fn frame(&self, t: usize) -> &[V3] {
        assert!(t < self.frames, "frame {t} out of range");
        &self.values[t * self.nets..(t + 1) * self.nets]
    }
}

#[derive(Debug, Clone)]
struct FaultRecord {
    fault: Fault,
    /// The faulty present state's differences from the fault-free state:
    /// `(flip-flop index, value)` pairs, sorted by index.
    state: Vec<(usize, V3)>,
    detection: Option<Detection>,
}

/// The per-fault core of [`FaultSim3`]: every fault's sparse state and
/// verdict, advanced one frame at a time against a given fault-free frame.
/// [`FaultSim3::step`] feeds it from its own [`TrueSim`], [`run_on`] from a
/// shared [`Trajectory`].
#[derive(Debug, Clone)]
struct Machines<'a> {
    records: Vec<FaultRecord>,
    sparse: frame::Sparse<'a, V3>,
    /// The lowest index of a primary output on each net; `u32::MAX` for a
    /// net that is no output.
    first_output: Vec<u32>,
    frame: usize,
}

impl<'a> Machines<'a> {
    fn new(netlist: &'a Netlist, faults: impl IntoIterator<Item = Fault>) -> Self {
        let mut first_output = vec![u32::MAX; netlist.num_nets()];
        for (i, &o) in netlist.outputs().iter().enumerate().rev() {
            first_output[o.index()] = i as u32;
        }
        Machines {
            records: faults
                .into_iter()
                .map(|fault| FaultRecord {
                    fault,
                    state: Vec::new(),
                    detection: None,
                })
                .collect(),
            sparse: frame::Sparse::new(netlist),
            first_output,
            frame: 0,
        }
    }

    /// Advances every live fault by one frame against the fault-free frame
    /// `good`; returns the faults newly detected.
    fn step(&mut self, good: &[V3]) -> Vec<(Fault, Detection)> {
        let mut newly = Vec::new();
        for rec in self.records.iter_mut().filter(|r| r.detection.is_none()) {
            let Ok(faulty) = self.sparse.propagate(
                good,
                rec.state.iter().copied(),
                rec.fault,
                V3::from_bool(rec.fault.stuck),
            );
            // Three-valued SOT rule at the lowest-indexed output; only a
            // diverged net can differ from the fault-free frame.
            let output = faulty
                .diverged_nets()
                .iter()
                .filter_map(|&n| {
                    let o = self.first_output[n.index()];
                    let (tv, fv) = (good[n.index()], *faulty.value(n));
                    (o != u32::MAX && tv.is_known() && fv.is_known() && tv != fv)
                        .then_some(o as usize)
                })
                .min();
            faulty.next_state_diffs(&mut rec.state);
            if let Some(output) = output {
                let det = Detection {
                    frame: self.frame,
                    output,
                };
                rec.detection = Some(det);
                newly.push((rec.fault, det));
            }
        }
        self.frame += 1;
        newly
    }

    fn outcome(&self) -> SimOutcome {
        let mut outcome = SimOutcome {
            results: self
                .records
                .iter()
                .map(|r| FaultOutcome {
                    fault: r.fault,
                    detection: r.detection,
                })
                .collect(),
            frames: self.frame,
            fallback_frames: 0,
            degraded_terms: 0,
            bdd: Default::default(),
        };
        outcome.sort_by_fault();
        outcome
    }
}

/// Reports frame `frame` to `sink` as one [`TraceEvent::TvFrame`].
fn trace_frame(sink: &mut dyn TraceSink, frame: usize, detected: usize) {
    if sink.enabled() {
        sink.event(&TraceEvent::TvFrame { frame, detected });
    }
}

/// Simulates `faults` against every frame of the shared `trajectory`,
/// reporting each frame to `sink` as [`FaultSim3::step_traced`] does; the
/// outcome equals [`FaultSim3::run`]'s over the trajectory's sequence.
///
/// # Panics
///
/// Panics if `trajectory` was built on a circuit of another net count.
pub(crate) fn run_on(
    netlist: &Netlist,
    trajectory: &Trajectory,
    faults: &[Fault],
    sink: &mut dyn TraceSink,
) -> SimOutcome {
    assert_eq!(
        trajectory.nets,
        netlist.num_nets(),
        "trajectory width mismatch"
    );
    let mut machines = Machines::new(netlist, faults.iter().copied());
    for t in 0..trajectory.frames() {
        let newly = machines.step(trajectory.frame(t));
        trace_frame(sink, t, newly.len());
    }
    machines.outcome()
}

/// Event-driven three-valued serial fault simulator.
///
/// Each live fault keeps its own faulty present state; per frame, the fault
/// effect is propagated from the fault site and from flip-flops whose
/// faulty state differs, visiting only the divergent part of the circuit
/// (single-fault propagation). Detected faults are dropped.
///
/// A faulty state is stored sparsely, as the sorted `(flip-flop index,
/// value)` pairs where it differs from the fault-free state, so a fault
/// costs work in proportion to its effect: its seeds, its next state and
/// the SOT rule all walk only the diverged nets. [`with_states`] and
/// [`faulty_states`] convert to and from full state vectors.
///
/// [`with_states`]: Self::with_states
/// [`faulty_states`]: Self::faulty_states
///
/// # Example
///
/// ```
/// use motsim::faults::FaultList;
/// use motsim::pattern::TestSequence;
/// use motsim::sim3::FaultSim3;
///
/// let circuit = motsim_circuits::s27();
/// let faults = FaultList::collapsed(&circuit);
/// let seq = TestSequence::random(&circuit, 100, 7);
/// let outcome = FaultSim3::run(&circuit, &seq, faults.iter().cloned());
/// assert!(outcome.num_detected() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultSim3<'a> {
    truesim: TrueSim<'a>,
    machines: Machines<'a>,
}

impl<'a> FaultSim3<'a> {
    /// Creates a simulator for the given fault set, in the all-`X` state.
    pub fn new(netlist: &'a Netlist, faults: impl IntoIterator<Item = Fault>) -> Self {
        FaultSim3 {
            truesim: TrueSim::new(netlist),
            machines: Machines::new(netlist, faults),
        }
    }

    /// Creates a simulator whose fault-free and faulty machines start from
    /// given (partially known) three-valued states — the hybrid simulator's
    /// entry into a fallback phase.
    ///
    /// # Panics
    ///
    /// Panics if any state width does not match the flip-flop count.
    pub fn with_states(
        netlist: &'a Netlist,
        true_state: &[V3],
        faulty: impl IntoIterator<Item = (Fault, Vec<V3>)>,
    ) -> Self {
        let mut sim = FaultSim3::new(netlist, std::iter::empty());
        sim.truesim.set_state(true_state);
        for (fault, state) in faulty {
            sim.machines.records.push(FaultRecord {
                fault,
                state: frame::diff(true_state, state),
                detection: None,
            });
        }
        sim
    }

    /// The present faulty state of every live fault (for handing back to a
    /// symbolic phase).
    pub fn faulty_states(&self) -> Vec<(Fault, Vec<V3>)> {
        self.machines
            .records
            .iter()
            .filter(|r| r.detection.is_none())
            .map(|r| {
                (
                    r.fault,
                    frame::patch(self.truesim.state(), r.state.iter().copied()),
                )
            })
            .collect()
    }

    /// Convenience: run a whole sequence and collect the outcome.
    pub fn run(
        netlist: &'a Netlist,
        seq: &TestSequence,
        faults: impl IntoIterator<Item = Fault>,
    ) -> SimOutcome {
        let mut sim = FaultSim3::new(netlist, faults);
        for v in seq {
            sim.step(v);
        }
        sim.outcome()
    }

    /// Number of faults not yet detected.
    pub fn live_faults(&self) -> usize {
        self.machines
            .records
            .iter()
            .filter(|r| r.detection.is_none())
            .count()
    }

    /// The fault-free simulator state (shared with the faulty machines'
    /// reference).
    pub fn true_state(&self) -> &[V3] {
        self.truesim.state()
    }

    /// Per-fault results collected so far.
    pub fn outcome(&self) -> SimOutcome {
        self.machines.outcome()
    }

    /// Applies one input vector to the fault-free machine and every live
    /// faulty machine; returns the faults newly detected in this frame,
    /// each with its full [`Detection`]: the frame, counted from this
    /// simulator's first step, and the detecting output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the circuit's input count.
    pub fn step(&mut self, inputs: &[bool]) -> Vec<(Fault, Detection)> {
        self.truesim.step(inputs);
        self.machines.step(self.truesim.values())
    }

    /// Like [`step`](Self::step), additionally reporting the frame to
    /// `sink` as one [`TraceEvent::TvFrame`] numbered `frame`, which the
    /// caller's clock gives (the hybrid simulator passes the frame's number
    /// in the whole run).
    pub fn step_traced(
        &mut self,
        frame: usize,
        inputs: &[bool],
        sink: &mut dyn TraceSink,
    ) -> Vec<(Fault, Detection)> {
        let newly = self.step(inputs);
        trace_frame(sink, frame, newly.len());
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultList;
    use motsim_netlist::builder::NetlistBuilder;
    use motsim_netlist::GateKind;
    use motsim_netlist::Lead;

    /// Z = NAND(A, Q); Q = DFF(Z) — tiny oscillating circuit.
    fn nand_loop() -> Netlist {
        let mut b = NetlistBuilder::new("loop");
        let a = b.add_input("A").unwrap();
        let q = b.add_dff("Q").unwrap();
        let z = b.add_gate("Z", GateKind::Nand, vec![a, q]).unwrap();
        b.connect_dff(q, z).unwrap();
        b.add_output(z);
        b.finish().unwrap()
    }

    #[test]
    fn truesim_starts_unknown_and_synchronizes() {
        let n = nand_loop();
        let mut sim = TrueSim::new(&n);
        assert_eq!(sim.state(), &[V3::X]);
        // A=0 forces Z=1 regardless of Q: synchronizes.
        sim.step(&[false]);
        assert_eq!(sim.outputs(), vec![V3::One]);
        assert_eq!(sim.state(), &[V3::One]);
        // A=1, Q=1 -> Z = 0.
        sim.step(&[true]);
        assert_eq!(sim.outputs(), vec![V3::Zero]);
        assert_eq!(sim.frames(), 2);
    }

    #[test]
    fn truesim_x_propagates() {
        let n = nand_loop();
        let mut sim = TrueSim::new(&n);
        // A=1 with Q unknown -> Z unknown.
        sim.step(&[true]);
        assert_eq!(sim.outputs(), vec![V3::X]);
    }

    #[test]
    fn fault_on_output_detected_after_sync() {
        let n = nand_loop();
        let z = n.find("Z").unwrap();
        // Z stuck-at-0: A=0 should give 1, observed 0 -> detected frame 0.
        let f = Fault::stuck_at_0(Lead::stem(z));
        let mut sim = FaultSim3::new(&n, [f]);
        let det = sim.step(&[false]);
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].0, f);
        assert_eq!(
            det[0].1,
            Detection {
                frame: 0,
                output: 0
            }
        );
        let out = sim.outcome();
        assert_eq!(out.num_detected(), 1);
        assert_eq!(out.results[0].detection.unwrap().frame, 0);
    }

    #[test]
    fn fault_masked_by_x_not_detected() {
        let n = nand_loop();
        let z = n.find("Z").unwrap();
        // Z stuck-at-1 under A=1: fault-free Z is X (depends on initial Q),
        // so three-valued SOT cannot detect.
        let f = Fault::stuck_at_1(Lead::stem(z));
        let mut sim = FaultSim3::new(&n, [f]);
        assert!(sim.step(&[true]).is_empty());
        assert_eq!(sim.live_faults(), 1);
    }

    #[test]
    fn state_divergence_detected_later() {
        // Q stuck-at-1: apply A=0 (sync Q:=1, no difference observable at Z
        // since fault-free Z=1=forced... then A=1: fault-free Q=1 -> Z=0;
        // faulty Q=1 -> Z=0 as well. Use Q stuck-at-0 instead:
        // frame0 A=0: true Z=1, faulty: Q read forced 0 -> Z=NAND(0,·)=1,
        // same; next state true=1, faulty=1 but Q reads force 0.
        // frame1 A=1: true Z=NAND(1,1)=0; faulty Z=NAND(1,0)=1 -> detected.
        let n = nand_loop();
        let q = n.find("Q").unwrap();
        let f = Fault::stuck_at_0(Lead::stem(q));
        let mut sim = FaultSim3::new(&n, [f]);
        assert!(sim.step(&[false]).is_empty());
        let det = sim.step(&[true]);
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].0, f);
        assert_eq!(det[0].1.frame, 1, "real frame, not a placeholder");
    }

    #[test]
    fn run_s27_collapsed_matches_step_loop() {
        let n = motsim_circuits::s27();
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 64, 3);
        let a = FaultSim3::run(&n, &seq, faults.iter().cloned());
        let mut sim = FaultSim3::new(&n, faults.iter().cloned());
        for v in &seq {
            sim.step(v);
        }
        let b = sim.outcome();
        assert_eq!(a.num_detected(), b.num_detected());
        assert_eq!(a.frames, 64);
        assert!(
            a.num_detected() > 0,
            "random vectors should detect something"
        );
        assert!(a.num_detected() < faults.len(), "X-state keeps some hidden");
    }

    #[test]
    fn with_states_round_trips_faulty_states() {
        let n = motsim_circuits::generators::counter(6);
        let faults: Vec<Fault> = FaultList::collapsed(&n).iter().copied().collect();
        let true_state = [V3::Zero, V3::One, V3::X, V3::X, V3::One, V3::Zero];
        let states = [
            true_state.to_vec(),
            vec![V3::X; 6],
            vec![V3::One, V3::One, V3::Zero, V3::X, V3::One, V3::One],
        ];
        let faulty: Vec<(Fault, Vec<V3>)> = faults
            .iter()
            .zip(states.iter().cycle())
            .map(|(&f, s)| (f, s.clone()))
            .collect();
        let sim = FaultSim3::with_states(&n, &true_state, faulty.clone());
        assert_eq!(sim.faulty_states(), faulty);
        assert_eq!(sim.true_state(), true_state);
    }

    #[test]
    fn trajectory_run_matches_step_loop() {
        let n = motsim_circuits::s27();
        let faults: Vec<Fault> = FaultList::collapsed(&n).iter().copied().collect();
        let seq = TestSequence::random(&n, 50, 9);
        let trajectory = Trajectory::new(&n, &seq);
        assert_eq!(trajectory.frames(), 50);
        let shared = run_on(&n, &trajectory, &faults, &mut motsim_trace::NullSink);
        assert_eq!(shared, FaultSim3::run(&n, &seq, faults.iter().copied()));
    }

    /// Simulates `faults` over `seq` with the fault-free machine and every
    /// faulty machine starting in the fully known state `reset`.
    fn run_from(
        netlist: &Netlist,
        reset: &[V3],
        seq: &TestSequence,
        faults: &[Fault],
    ) -> SimOutcome {
        let seeded = faults.iter().map(|&f| (f, reset.to_vec()));
        let mut sim = FaultSim3::with_states(netlist, reset, seeded);
        for v in seq {
            sim.step(v);
        }
        sim.outcome()
    }

    /// From a fully known state `r`, three-valued logic is two-valued: each
    /// collapsed fault is detected at the first bit `t·l + j` where the
    /// exhaustive oracle's fault-free and faulty responses from `r` differ,
    /// and not at all where they never differ.
    fn known_state_matches_oracle(netlist: &Netlist, seed: u64) {
        let oracle = crate::exhaustive::Oracle::new();
        let seq = TestSequence::random(netlist, 40, seed);
        let faults: Vec<Fault> = FaultList::collapsed(netlist).iter().copied().collect();
        let good = oracle.response_matrix(netlist, &seq, None).unwrap();
        let bad: Vec<_> = faults
            .iter()
            .map(|&f| oracle.response_matrix(netlist, &seq, Some(f)).unwrap())
            .collect();
        let l = netlist.num_outputs();
        for r in 0..good.num_states() {
            let reset: Vec<V3> = (0..netlist.num_dffs())
                .map(|i| V3::from_bool((r >> i) & 1 == 1))
                .collect();
            let outcome = run_from(netlist, &reset, &seq, &faults);
            for (res, (&fault, faulty)) in outcome.results.iter().zip(faults.iter().zip(&bad)) {
                assert_eq!(res.fault, fault, "results in fault-list order");
                let expect = (0..seq.len() * l)
                    .find(|&b| good.output(r, b / l, b % l) != faulty.output(r, b / l, b % l))
                    .map(|b| Detection {
                        frame: b / l,
                        output: b % l,
                    });
                assert_eq!(
                    res.detection,
                    expect,
                    "{} from state {r}",
                    res.fault.display(netlist)
                );
            }
        }
    }

    #[test]
    fn known_state_matches_oracle_on_s27() {
        known_state_matches_oracle(&motsim_circuits::s27(), 3);
    }

    #[test]
    fn known_state_matches_oracle_on_counter() {
        known_state_matches_oracle(&motsim_circuits::generators::counter(6), 4);
    }

    #[test]
    fn known_state_matches_oracle_on_fsm() {
        use motsim_circuits::generators::{fsm, FsmParams};
        known_state_matches_oracle(&fsm("t", 5, FsmParams::default()), 5);
    }

    #[test]
    fn known_reset_beats_unknown_state_coverage() {
        // With a known reset the coverage can only be ≥ the all-X run.
        let n = motsim_circuits::generators::counter(8);
        let faults: Vec<Fault> = FaultList::collapsed(&n).iter().copied().collect();
        let seq = TestSequence::random(&n, 60, 7);
        let with_reset = run_from(&n, &[V3::Zero; 8], &seq, &faults);
        let unknown = FaultSim3::run(&n, &seq, faults.iter().copied());
        assert!(with_reset.num_detected() >= unknown.num_detected());
        assert!(with_reset.num_detected() > 0);
    }

    /// Oracle: serial full re-simulation of the faulty machine through the
    /// public dense reference, without fault dropping. Returns the first
    /// `(frame, output)` with a known fault-free/faulty discrepancy, which
    /// the event-driven simulator must report as the fault's detection.
    fn full_resim_detects(
        netlist: &Netlist,
        fault: Fault,
        seq: &TestSequence,
    ) -> Option<(usize, usize)> {
        let mut good = TrueSim::new(netlist);
        let mut fstate = vec![V3::X; netlist.num_dffs()];
        let mut fvals = Vec::new();
        for (t, v) in seq.iter().enumerate() {
            good.step(v);
            eval_frame_with_fault(netlist, &fstate, v, fault, &mut fvals);
            for (j, &o) in netlist.outputs().iter().enumerate() {
                let (tv, fv) = (good.value(o), fvals[o.index()]);
                if tv.is_known() && fv.is_known() && tv != fv {
                    return Some((t, j));
                }
            }
            next_state_with_fault(netlist, &fvals, fault, &mut fstate);
        }
        None
    }

    #[test]
    fn event_driven_agrees_with_full_resimulation_s27() {
        let n = motsim_circuits::s27();
        let faults = FaultList::complete(&n);
        let seq = TestSequence::random(&n, 40, 11);
        let outcome = FaultSim3::run(&n, &seq, faults.iter().cloned());
        for r in &outcome.results {
            let expect = full_resim_detects(&n, r.fault, &seq);
            assert_eq!(
                r.detection.map(|d| (d.frame, d.output)),
                expect,
                "fault {} disagrees",
                r.fault.display(&n)
            );
        }
    }

    #[test]
    fn event_driven_agrees_on_counter() {
        let n = motsim_circuits::generators::counter(4);
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 48, 23);
        let outcome = FaultSim3::run(&n, &seq, faults.iter().cloned());
        for r in &outcome.results {
            let expect = full_resim_detects(&n, r.fault, &seq);
            assert_eq!(
                r.detection.map(|d| (d.frame, d.output)),
                expect,
                "fault {} disagrees",
                r.fault.display(&n)
            );
        }
    }
}
