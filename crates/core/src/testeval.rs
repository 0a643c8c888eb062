//! Symbolic test evaluation (paper Section IV.B, Table IV).
//!
//! After a MOT test sequence is applied to a circuit-under-test, deciding
//! "is this device faulty?" is non-trivial: the fault-free machine can
//! produce a whole *set* of output sequences (one per initial state), which
//! may be exponential in the number of memory elements. Instead of
//! enumerating them, the paper compares the observed response
//! `c(1) … c(n)` against the *symbolic* output sequence by evaluating
//!
//! ```text
//! ∏_{t=1..n} ∏_{j=1..l} [ o_j(x, t) ≡ c_j(t) ]
//! ```
//!
//! step by step; the device is faulty iff the product collapses to **0**
//! (no initial state explains the response).
//!
//! Most output functions are constants: on g5378, after a one-frame
//! prefix, 9,726 of the 9,751 are 0 or 1. Those are known values, and
//! comparing a known value with the response decides its factor
//! (`[b ≡ c]` is 1 or 0) without the BDD package. So each frame is split
//! once, when the sequence is built, into its known outputs and its few
//! state-dependent ones, and only the latter enter the product.
//!
//! When the OBDDs exceed the node limit, a three-valued *prefix* is used:
//! the first frames are checked with the pessimistic rule (a known
//! fault-free value that contradicts the response proves faultiness), and
//! the symbolic sequence starts from the projected state — the asterisked
//! rows of Table IV.

use motsim_bdd::{Bdd, BddError, BddManager};
use motsim_logic::V3;
use motsim_netlist::Netlist;

use crate::pattern::TestSequence;
use crate::report::BddUsage;
use crate::sim3::TrueSim;
use crate::symbolic::{collect_if_unlimited, SymbolicTrueSim};

/// The symbolic output sequence of the fault-free circuit, one frame per
/// test vector: three-valued prefix frames (none unless a node limit
/// forced a prefix) followed by the frames of the symbolic suffix.
#[derive(Debug)]
pub struct SymbolicOutputSequence {
    mgr: BddManager,
    /// Every frame in time order; the first `prefix_len` are three-valued.
    frames: Vec<Frame>,
    /// Number of prefix frames.
    prefix_len: usize,
}

/// An expected output that a response cannot contradict: `UNKNOWN ^ c` is
/// 2 or 3, never the 1 of [`contradicts`].
const UNKNOWN: u8 = 2;

/// Does the response bit `c` contradict the expectation `expect`?
#[inline]
fn contradicts(expect: u8, c: bool) -> bool {
    expect ^ u8::from(c) == 1
}

/// What one frame expects of a response.
#[derive(Debug)]
struct Frame {
    /// Per output: the fault-free value (0 or 1) where it is known,
    /// [`UNKNOWN`] where it depends on the initial state or the prefix
    /// does not know it.
    known: Vec<u8>,
    /// `(j, o_j(x,t))` for every output whose function is not a constant,
    /// in output order (empty in a prefix frame).
    symbolic: Vec<(usize, Bdd)>,
}

impl Frame {
    /// A symbolic frame: constant outputs become known values.
    fn symbolic(outputs: Vec<Bdd>) -> Frame {
        let mut symbolic = Vec::new();
        let known = outputs
            .into_iter()
            .enumerate()
            .map(|(j, o)| match o.const_value() {
                Some(b) => u8::from(b),
                None => {
                    symbolic.push((j, o));
                    UNKNOWN
                }
            })
            .collect();
        Frame { known, symbolic }
    }

    /// A prefix frame: the three-valued outputs alone.
    fn prefix(known: Vec<V3>) -> Frame {
        Frame {
            known: known
                .iter()
                .map(|v| v.to_bool().map_or(UNKNOWN, u8::from))
                .collect(),
            symbolic: Vec::new(),
        }
    }
}

impl SymbolicOutputSequence {
    /// Computes the symbolic output sequence of `netlist` under `seq`.
    ///
    /// With `node_limit = None` the whole sequence is symbolic. With a
    /// limit, the first frame whose step hits it is absorbed into a
    /// three-valued prefix, together with every frame before it, and the
    /// symbolic part restarts from the projected state (fresh unknowns for
    /// the `X` bits) in a fresh manager — the same over-approximation the
    /// hybrid fault simulator uses, so a *faulty* verdict remains sound.
    /// Each frame is attempted as [`SymbolicTrueSim`] attempts one, so the
    /// limit bounds the live nodes after a collection, not the dead ones
    /// earlier frames leave behind.
    ///
    /// Each symbolic frame is split once, here: outputs whose function is
    /// a constant become known values, and only the others are kept as
    /// BDDs for [`evaluate`](Self::evaluate)'s product.
    ///
    /// # Example
    ///
    /// ```
    /// use motsim::testeval::{reference_response, SymbolicOutputSequence};
    /// use motsim::TestSequence;
    ///
    /// let circuit = motsim_circuits::s27();
    /// let seq = TestSequence::random(&circuit, 30, 1);
    /// let sos = SymbolicOutputSequence::compute(&circuit, &seq, Some(30_000));
    /// let response = reference_response(&circuit, &seq, &[false; 3]);
    /// assert!(!sos.evaluate(&response).is_faulty());
    /// ```
    pub fn compute(netlist: &Netlist, seq: &TestSequence, node_limit: Option<usize>) -> Self {
        let mut frames: Vec<Frame> = Vec::new();
        let mut v3 = TrueSim::new(netlist);
        'outer: loop {
            // The three-valued simulator has run exactly the prefix.
            let t0 = v3.frames();
            let mgr = BddManager::new();
            mgr.set_node_limit(node_limit);
            let mut sym = SymbolicTrueSim::with_manager(netlist, mgr);
            if t0 > 0 {
                // Seed from the three-valued prefix state.
                let state = sym.lift(v3.state());
                sym.seed_state(state);
            }
            for t in t0..seq.len() {
                match sym.step(seq.vector(t)) {
                    Ok(()) => frames.push(Frame::symbolic(sym.outputs())),
                    Err(BddError::NodeLimit { .. }) => {
                        // Extend the prefix past frame t and retry.
                        frames.truncate(t0);
                        while v3.frames() <= t {
                            v3.step(seq.vector(v3.frames()));
                            frames.push(Frame::prefix(v3.outputs()));
                        }
                        continue 'outer;
                    }
                }
            }
            return SymbolicOutputSequence {
                mgr: sym.manager().clone(),
                frames,
                prefix_len: t0,
            };
        }
    }

    /// Number of prefix frames evaluated three-valued (0 = fully symbolic;
    /// the asterisk of Table IV).
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Total frames covered (prefix + symbolic).
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Returns `true` if no frames are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shared BDD size of the symbolic output sequence (the "BDD Size"
    /// column of Table IV): distinct internal nodes over all (frame,
    /// output) functions. Constant outputs have none, so the non-constant
    /// functions kept for the product are all it counts.
    pub fn bdd_size(&self) -> usize {
        let roots: Vec<&Bdd> = self
            .frames
            .iter()
            .flat_map(|f| f.symbolic.iter().map(|(_, o)| o))
            .collect();
        self.mgr.shared_size(&roots)
    }

    /// Usage counters of the manager the sequence lives in, covering its
    /// construction and every [`evaluate`](Self::evaluate) call so far.
    pub fn bdd_usage(&self) -> BddUsage {
        BddUsage::from_stats(&self.mgr.stats())
    }

    /// Evaluates a device response against the sequence.
    ///
    /// One pass over the frames in time order; the verdict names the first
    /// contradiction in (frame, output) order. A known output (a constant
    /// fault-free value, or a value the three-valued prefix knows) is
    /// compared with the response directly: a mismatch proves the device
    /// faulty there. Only outputs that depend on the initial state enter
    /// the running product `∏ [o_j(x,t) ≡ c_j(t)]`, and the device is
    /// faulty where it collapses to 0. Skipping the known outputs leaves
    /// the BDD operations unchanged: `∧`-ing a constant term returns in
    /// ITE's terminal cases, before the computed cache.
    ///
    /// Each frame's known outputs are checked in one branch-free pass over
    /// bytes stored when the sequence was built (0, 1, or unknown, which no
    /// response bit contradicts). Only if that pass finds a contradiction
    /// is its first position looked for, and only the frame's symbolic
    /// outputs before it enter the product, so the BDD operations and the
    /// verdict are those of a per-output walk.
    ///
    /// The running product is built in the manager the sequence was
    /// computed in, under the same node limit. Each call leaves its product
    /// behind as garbage, so when a step hits the limit the manager is
    /// garbage-collected (the sequence's own frames stay live) and the step
    /// retried; if this evaluation alone still does not fit, the rest of
    /// the call runs without the limit, which is restored before returning.
    /// Without a limit, the manager is collected before returning if it
    /// holds more than 2^20 live nodes, so products left by earlier calls
    /// cannot pile up. The verdict never depends on the limit.
    ///
    /// # Panics
    ///
    /// Panics if the response shape does not match (frames × outputs).
    pub fn evaluate(&self, response: &[Vec<bool>]) -> TestVerdict {
        let limit = self.mgr.node_limit();
        let verdict = self.evaluate_unrestored(response);
        self.mgr.set_node_limit(limit);
        collect_if_unlimited(&self.mgr);
        verdict
    }

    /// [`evaluate`](Self::evaluate), which may leave the node limit lifted.
    fn evaluate_unrestored(&self, response: &[Vec<bool>]) -> TestVerdict {
        assert_eq!(response.len(), self.len(), "response length mismatch");
        let mut product = self.mgr.one();
        for (t, (frame, got)) in self.frames.iter().zip(response).enumerate() {
            assert_eq!(got.len(), frame.known.len(), "response width mismatch");
            // One branch-free pass over the known outputs, a loop the
            // compiler can vectorize, unlike an early-exit search; the
            // first contradiction is looked for only if there is one.
            let mut known = frame.known.iter().zip(got);
            let contradicted = known
                .clone()
                .fold(false, |any, (&e, &c)| any | contradicts(e, c));
            let first = if contradicted {
                known.position(|(&e, &c)| contradicts(e, c))
            } else {
                None
            };
            let end = first.unwrap_or(frame.known.len());
            for (j, o) in frame.symbolic.iter().take_while(|&&(j, _)| j < end) {
                let negated;
                let term = if got[*j] {
                    o
                } else {
                    negated = o.not();
                    &negated
                };
                product = self.and_collecting(&product, term);
                if product.is_false() {
                    return TestVerdict::Faulty {
                        frame: t,
                        output: *j,
                    };
                }
            }
            if let Some(output) = first {
                return TestVerdict::Faulty { frame: t, output };
            }
        }
        TestVerdict::Consistent {
            witnesses: product.sat_count(self.mgr.num_vars()),
        }
    }

    /// `a ∧ b`; on a node-limit hit, collects garbage and retries, then
    /// lifts the limit if that is not enough.
    fn and_collecting(&self, a: &Bdd, b: &Bdd) -> Bdd {
        self.mgr.retry_after_gc(|| a.and(b)).unwrap_or_else(|_| {
            self.mgr.set_node_limit(None);
            a.and(b).expect("no node limit")
        })
    }
}

/// Outcome of a test evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestVerdict {
    /// No fault-free initial state explains the response: the device is
    /// faulty. `(frame, output)` locates the decisive observation.
    Faulty {
        /// Frame at which the product collapsed to 0.
        frame: usize,
        /// Output whose term collapsed it.
        output: usize,
    },
    /// The response is consistent with `witnesses` initial states of the
    /// fault-free machine (over the symbolic suffix).
    Consistent {
        /// Number of explaining initial-state assignments, counted by
        /// [`Bdd::sat_count`] over every manager variable. The count
        /// saturates: `u128::MAX` means 2^128 or more (a count of exactly
        /// 2^128 − 1 reads the same). Only a circuit with more than 127
        /// flip-flops can get there; `motsim testeval g5378` (179) does.
        witnesses: u128,
    },
}

impl TestVerdict {
    /// Is the device proven faulty?
    pub fn is_faulty(self) -> bool {
        matches!(self, TestVerdict::Faulty { .. })
    }
}

/// A possible fault-free response: simulates the circuit from a concrete
/// initial state (Table IV's timing experiment does exactly this).
///
/// # Panics
///
/// Panics if `initial_state` does not match the flip-flop count.
pub fn reference_response(
    netlist: &Netlist,
    seq: &TestSequence,
    initial_state: &[bool],
) -> Vec<Vec<bool>> {
    assert_eq!(
        initial_state.len(),
        netlist.num_dffs(),
        "initial state width mismatch"
    );
    let mut state = crate::simb::broadcast(initial_state);
    let mut values = Vec::new();
    let mut out = Vec::with_capacity(seq.len());
    for v in seq {
        crate::simb::eval_frame_u64(
            netlist,
            &state,
            &crate::simb::broadcast(v),
            None,
            &mut values,
        );
        out.push(
            netlist
                .outputs()
                .iter()
                .map(|&o| values[o.index()] & 1 == 1)
                .collect(),
        );
        crate::simb::next_state_u64(netlist, &values, None, &mut state);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use motsim_bdd::VarId;

    #[test]
    fn fault_free_response_is_consistent() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 40, 3);
        let sos = SymbolicOutputSequence::compute(&n, &seq, None);
        assert_eq!(sos.prefix_len(), 0);
        assert_eq!(sos.len(), 40);
        assert!(sos.bdd_size() < 1000, "s27 outputs stay tiny");
        for init in 0..8u32 {
            let st: Vec<bool> = (0..3).map(|i| (init >> i) & 1 == 1).collect();
            let resp = reference_response(&n, &seq, &st);
            let verdict = sos.evaluate(&resp);
            assert!(
                !verdict.is_faulty(),
                "fault-free response from state {init} rejected"
            );
            if let TestVerdict::Consistent { witnesses } = verdict {
                assert!(witnesses >= 1);
            }
        }
    }

    #[test]
    fn corrupted_response_is_faulty() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 40, 3);
        let sos = SymbolicOutputSequence::compute(&n, &seq, None);
        let mut resp = reference_response(&n, &seq, &[false, false, false]);
        // Find a frame whose output is a *constant* (known regardless of
        // the initial state) and flip it: provably faulty.
        let mut v3 = TrueSim::new(&n);
        let mut flipped = None;
        for (t, v) in seq.iter().enumerate() {
            v3.step(v);
            if v3.outputs()[0].is_known() {
                resp[t][0] = !resp[t][0];
                flipped = Some(t);
                break;
            }
        }
        let t = flipped.expect("some frame must have a known output");
        match sos.evaluate(&resp) {
            TestVerdict::Faulty { frame, .. } => assert!(frame <= t),
            v => panic!("expected faulty, got {v:?}"),
        }
    }

    #[test]
    fn faulty_machine_response_rejected_for_mot_detected_fault() {
        // For a MOT-detected fault, *every* faulty response must be
        // rejected (that is what Definition 3 means operationally).
        use crate::symbolic::{Strategy, SymbolicFaultSim};
        let n = motsim_circuits::generators::counter(4);
        let seq = TestSequence::random(&n, 24, 5);
        let faults = crate::faults::FaultList::collapsed(&n);
        let outcome = SymbolicFaultSim::new(&n, Strategy::Mot)
            .run(&seq, faults.iter().cloned())
            .unwrap();
        let detected: Vec<_> = outcome.detected_faults().collect();
        assert!(!detected.is_empty());
        let sos = SymbolicOutputSequence::compute(&n, &seq, None);
        let fault = detected[0];
        // Simulate the faulty machine from a few initial states.
        for init in [0usize, 5, 9, 15] {
            let m = n.num_dffs();
            let st: Vec<u64> = (0..m)
                .map(|i| if (init >> i) & 1 == 1 { u64::MAX } else { 0 })
                .collect();
            let mut state = st;
            let mut values = Vec::new();
            let mut resp = Vec::new();
            for v in &seq {
                crate::simb::eval_frame_u64(
                    &n,
                    &state,
                    &crate::simb::broadcast(v),
                    Some(fault),
                    &mut values,
                );
                resp.push(
                    n.outputs()
                        .iter()
                        .map(|&o| values[o.index()] & 1 == 1)
                        .collect::<Vec<bool>>(),
                );
                crate::simb::next_state_u64(&n, &values, Some(fault), &mut state);
            }
            assert!(
                sos.evaluate(&resp).is_faulty(),
                "MOT-detected fault {} produced an accepted response from state {init}",
                fault.display(&n)
            );
        }
    }

    #[test]
    fn mixed_frame_names_the_first_contradiction() {
        // Outputs q, q, a, q of one held flip-flop q and the input a: in
        // each frame outputs 0, 1 and 3 are the symbolic x, output 2 is
        // known.
        let n = motsim_netlist::parse::parse_bench(
            "mixed",
            "INPUT(a)\nOUTPUT(o0)\nOUTPUT(o1)\nOUTPUT(o2)\nOUTPUT(o3)\n\
             q = DFF(q)\no0 = BUFF(q)\no1 = BUFF(q)\no2 = BUFF(a)\no3 = BUFF(q)\n",
        )
        .unwrap();
        let seq = TestSequence::new(1, vec![vec![true]]);
        let sos = SymbolicOutputSequence::compute(&n, &seq, None);
        let frame = &sos.frames[0];
        assert_eq!(frame.known, [UNKNOWN, UNKNOWN, 1, UNKNOWN]);
        assert_eq!(frame.symbolic.len(), 3);
        let verdict = |response: [bool; 4]| sos.evaluate(&[response.to_vec()]);
        let faulty = |output| TestVerdict::Faulty { frame: 0, output };
        assert_eq!(
            verdict([true, true, true, true]),
            TestVerdict::Consistent { witnesses: 1 }
        );
        // The product collapses at symbolic output 1 before known output 2
        // mismatches.
        assert_eq!(verdict([true, false, false, true]), faulty(1));
        // Known output 2 mismatches before the product collapses at 3.
        assert_eq!(verdict([true, true, false, false]), faulty(2));
        // Either contradiction alone is found where it is.
        assert_eq!(verdict([true, false, true, true]), faulty(1));
        assert_eq!(verdict([true, true, false, true]), faulty(2));
        assert_eq!(verdict([true, true, true, false]), faulty(3));
    }

    /// `evaluate` as a walk in (frame, output) order that compares each
    /// known output as it comes: the reference for the per-frame pass.
    fn per_output_verdict(sos: &SymbolicOutputSequence, response: &[Vec<bool>]) -> TestVerdict {
        let walk = || {
            let mut product = sos.mgr.one();
            for (t, (frame, got)) in sos.frames.iter().zip(response).enumerate() {
                let mut terms = frame.symbolic.iter().peekable();
                for (j, (&expect, &c)) in frame.known.iter().zip(got).enumerate() {
                    let contradicted = if expect == UNKNOWN {
                        terms.next_if(|&&(k, _)| k == j).is_some_and(|(_, o)| {
                            let term = if c { o.clone() } else { o.not() };
                            product = sos.and_collecting(&product, &term);
                            product.is_false()
                        })
                    } else {
                        expect != u8::from(c)
                    };
                    if contradicted {
                        return TestVerdict::Faulty {
                            frame: t,
                            output: j,
                        };
                    }
                }
            }
            TestVerdict::Consistent {
                witnesses: product.sat_count(sos.mgr.num_vars()),
            }
        };
        let limit = sos.mgr.node_limit();
        let verdict = walk();
        sos.mgr.set_node_limit(limit);
        verdict
    }

    /// `evaluate` and [`per_output_verdict`] on twin sequences of `name`'s
    /// 200-vector default sequence: seeded fault-free responses and every
    /// one-bit flip in frames 0–7 and in the last frame get the same
    /// verdicts, and equal usage counters after each response show the
    /// same BDD operations. Returns how many flips the product rejected.
    fn matches_per_output_walk(name: &str, node_limit: usize, prefix_len: usize) -> usize {
        let n = motsim_circuits::suite::by_name(name).unwrap();
        let seq = TestSequence::random(&n, 200, 0xDAC95);
        let sos = SymbolicOutputSequence::compute(&n, &seq, Some(node_limit));
        let twin = SymbolicOutputSequence::compute(&n, &seq, Some(node_limit));
        assert_eq!(sos.prefix_len(), prefix_len);
        let mut rng = motsim_rng::SmallRng::seed_from_u64(22);
        let mut product_rejections = 0;
        for _ in 0..3 {
            let state: Vec<bool> = (0..n.num_dffs()).map(|_| rng.gen_bool(0.5)).collect();
            let mut response = reference_response(&n, &seq, &state);
            let check = |response: &[Vec<bool>]| {
                let verdict = sos.evaluate(response);
                assert_eq!(verdict, per_output_verdict(&twin, response));
                assert_eq!(sos.bdd_usage(), twin.bdd_usage());
                verdict
            };
            assert!(!check(&response).is_faulty());
            for t in (0..8).chain([seq.len() - 1]) {
                for j in 0..n.num_outputs() {
                    response[t][j] ^= true;
                    if let TestVerdict::Faulty { frame, output } = check(&response) {
                        if sos.frames[frame].known[output] == UNKNOWN {
                            product_rejections += 1;
                        }
                    }
                    response[t][j] ^= true;
                }
            }
        }
        product_rejections
    }

    #[test]
    fn per_frame_pass_matches_per_output_walk_on_g953() {
        // Frames 0–4 are the three-valued prefix.
        assert!(matches_per_output_walk("g953", 30_000, 5) > 0);
    }

    #[test]
    fn per_frame_pass_matches_per_output_walk_on_g5378() {
        assert!(matches_per_output_walk("g5378", 100_000, 1) > 0);
    }

    #[test]
    fn node_limit_forces_prefix_and_stays_sound() {
        let n = motsim_circuits::generators::counter(12);
        let seq = TestSequence::random(&n, 30, 8);
        let sos = SymbolicOutputSequence::compute(&n, &seq, Some(60));
        assert!(
            sos.prefix_len() > 0,
            "limit of 60 nodes must force a prefix"
        );
        assert_eq!(sos.len(), 30);
        // A genuine fault-free response must still be accepted.
        let resp = reference_response(&n, &seq, &[false; 12]);
        assert!(!sos.evaluate(&resp).is_faulty());
    }

    #[test]
    fn evaluate_rejects_wrong_shapes() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 5, 1);
        let sos = SymbolicOutputSequence::compute(&n, &seq, None);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sos.evaluate(&[]);
        }));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "initial state width")]
    fn reference_response_checks_state_width() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 2, 1);
        reference_response(&n, &seq, &[false]);
    }

    #[test]
    fn reference_response_matches_known_outputs() {
        // Wherever the all-X three-valued sim knows the output, every
        // concrete-state response must agree.
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 20, 6);
        let resp = reference_response(&n, &seq, &[true, false, true]);
        let mut v3 = TrueSim::new(&n);
        for (t, v) in seq.iter().enumerate() {
            v3.step(v);
            for (j, val) in v3.outputs().into_iter().enumerate() {
                if let Some(b) = val.to_bool() {
                    assert_eq!(resp[t][j], b, "frame {t} output {j}");
                }
            }
        }
    }

    /// Fault-free responses from 64 initial states, each also with one
    /// output bit flipped.
    fn responses(n: &Netlist, seq: &TestSequence) -> Vec<Vec<Vec<bool>>> {
        let mut out = Vec::new();
        for init in 0..64usize {
            let st: Vec<bool> = (0..n.num_dffs())
                .map(|i| (init >> (i % 6)) & 1 == 1)
                .collect();
            let resp = reference_response(n, seq, &st);
            let mut bad = resp.clone();
            let t = init % seq.len();
            bad[t][init % n.num_outputs()] ^= true;
            out.push(resp);
            out.push(bad);
        }
        out
    }

    #[test]
    fn evaluate_collects_garbage_at_the_node_limit() {
        // Under a 1,700-node limit the whole g298 sequence stays symbolic,
        // but the products earlier evaluations leave behind fill the
        // manager within a few calls.
        let n = motsim_circuits::suite::by_name("g298").unwrap();
        let seq = TestSequence::random(&n, 60, 9);
        let tight = SymbolicOutputSequence::compute(&n, &seq, Some(1_700));
        let roomy = SymbolicOutputSequence::compute(&n, &seq, None);
        assert_eq!(tight.prefix_len(), 0);
        let gc_before = tight.mgr.stats().gc_runs;
        for resp in responses(&n, &seq) {
            assert_eq!(tight.evaluate(&resp), roomy.evaluate(&resp));
        }
        assert!(tight.mgr.stats().gc_runs > gc_before, "the limit was hit");
        assert_eq!(tight.mgr.node_limit(), Some(1_700));
    }

    /// Leaves more than 2^20 dead nodes in `mgr`: every cube over its last
    /// 20 variables, each built on the cube of the variables below it, so
    /// each conjunction allocates one node.
    fn litter(mgr: &BddManager) {
        fn cubes(mgr: &BddManager, below: &Bdd, vars: &[VarId]) {
            if let Some((&v, above)) = vars.split_last() {
                for literal in [mgr.var(v), mgr.nvar(v)] {
                    cubes(mgr, &literal.and(below).unwrap(), above);
                }
            }
        }
        let n = mgr.num_vars();
        let vars: Vec<VarId> = (n - 20..n).map(VarId::from_index).collect();
        cubes(mgr, &mgr.one(), &vars);
        assert!(mgr.live_nodes() > 1 << 20);
    }

    #[test]
    fn evaluate_collects_an_unlimited_arena_past_the_threshold() {
        let n = motsim_circuits::suite::by_name("g838").unwrap();
        let seq = TestSequence::random(&n, 10, 4);
        let sos = SymbolicOutputSequence::compute(&n, &seq, None);
        let resp = reference_response(&n, &seq, &[false; 32]);
        let verdict = sos.evaluate(&resp);
        let gc_before = sos.mgr.stats().gc_runs;
        litter(&sos.mgr);
        assert_eq!(sos.evaluate(&resp), verdict);
        assert_eq!(sos.mgr.stats().gc_runs, gc_before + 1);
        assert!(sos.mgr.live_nodes() < 1 << 20);
    }

    #[test]
    fn unlimited_true_sim_step_collects_past_the_threshold() {
        let n = motsim_circuits::suite::by_name("g838").unwrap();
        let seq = TestSequence::random(&n, 2, 4);
        let mut sim = SymbolicTrueSim::new(&n);
        sim.step(seq.vector(0)).unwrap();
        litter(sim.manager());
        let gc_before = sim.manager().stats().gc_runs;
        sim.step(seq.vector(1)).unwrap();
        assert_eq!(sim.manager().stats().gc_runs, gc_before + 1);
        assert!(sim.manager().live_nodes() < 1 << 20);
    }

    /// The synchronizing-sequence search advances by `eval` and `commit`
    /// alone, and every frame ends in `commit`.
    #[test]
    fn unlimited_true_sim_commit_collects_past_the_threshold() {
        let n = motsim_circuits::suite::by_name("g838").unwrap();
        let seq = TestSequence::random(&n, 1, 4);
        let mut sim = SymbolicTrueSim::new(&n);
        litter(sim.manager());
        let gc_before = sim.manager().stats().gc_runs;
        let values = sim.eval(seq.vector(0)).unwrap();
        sim.commit(values);
        assert_eq!(sim.manager().stats().gc_runs, gc_before + 1);
        assert!(sim.manager().live_nodes() < 1 << 20);
    }

    #[test]
    fn evaluate_lifts_a_limit_its_frames_fill() {
        // With the limit at the frames' own size, no product node fits even
        // after collection: the call finishes unlimited, then restores it.
        let n = motsim_circuits::suite::by_name("g298").unwrap();
        let seq = TestSequence::random(&n, 60, 9);
        let roomy = SymbolicOutputSequence::compute(&n, &seq, None);
        let sos = SymbolicOutputSequence::compute(&n, &seq, None);
        sos.mgr.gc();
        let full = Some(sos.mgr.live_nodes());
        sos.mgr.set_node_limit(full);
        for resp in responses(&n, &seq) {
            assert_eq!(sos.evaluate(&resp), roomy.evaluate(&resp));
            assert_eq!(sos.mgr.node_limit(), full);
        }
    }
}
