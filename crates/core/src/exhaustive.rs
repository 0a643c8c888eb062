//! Brute-force detectability oracle by initial-state enumeration.
//!
//! For circuits with few memory elements the detectability definitions can
//! be decided directly by enumerating all `2^m` initial states with the
//! bit-parallel simulator — exactly what \[13\] does (and what limits it to
//! ~6 flip-flops). Here it serves as the ground-truth oracle against which
//! the symbolic engines are validated:
//!
//! - **MOT** (Definition 3): a fault is detectable iff the *set* of
//!   fault-free output sequences and the set of faulty output sequences are
//!   disjoint — `D_{f,Z} ≡ 0` iff no pair `(p, q)` produces equal sequences.
//! - **SOT** (Definition 2): detectable iff some `(t, i)` has a constant
//!   fault-free value `b` over all `p` and the constant `b̄` over all `q`.
//! - **rMOT**: detectable iff for every initial state `q` there is a
//!   `(t, i)` where the fault-free output is constant `b` over all states
//!   and the faulty machine started in `q` outputs `b̄`.

use std::collections::HashSet;

use motsim_netlist::Netlist;

use crate::faults::Fault;
use crate::pattern::TestSequence;
use crate::report::SimError;
use crate::simb::{broadcast, eval_frame_u64, next_state_u64};

/// [`Oracle`]'s default enumeration bound (the oracle is `O(2^m)`); raise
/// or lower it per call site with [`Oracle::max_dffs`].
pub const MAX_DFFS: usize = 20;

/// The entry point to the exhaustive oracle.
///
/// The flip-flop bound is a parameter (default [`MAX_DFFS`]), and a
/// circuit that exceeds it is a recoverable [`SimError::StateSpace`].
///
/// ```
/// use motsim::exhaustive::Oracle;
/// use motsim::{Fault, SimError, TestSequence};
/// use motsim_netlist::Lead;
///
/// let circuit = motsim_circuits::generators::counter(4);
/// let seq = TestSequence::random(&circuit, 6, 1);
/// let fault = Fault::stuck_at_0(Lead::stem(circuit.find("EN").unwrap()));
/// // A 4-bit counter fits a bound of 4 …
/// assert!(Oracle::new().max_dffs(4).verdict(&circuit, &seq, fault).is_ok());
/// // … but not a bound of 3.
/// assert!(matches!(
///     Oracle::new().max_dffs(3).verdict(&circuit, &seq, fault),
///     Err(SimError::StateSpace { dffs: 4, max_dffs: 3 })
/// ));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oracle {
    max_dffs: usize,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle { max_dffs: MAX_DFFS }
    }
}

impl Oracle {
    /// An oracle with the default [`MAX_DFFS`] bound.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Sets the flip-flop bound (enumeration cost is `2^max_dffs`).
    pub fn max_dffs(mut self, max_dffs: usize) -> Self {
        self.max_dffs = max_dffs;
        self
    }

    fn check(&self, netlist: &Netlist) -> Result<(), SimError> {
        let dffs = netlist.num_dffs();
        if dffs > self.max_dffs {
            return Err(SimError::StateSpace {
                dffs,
                max_dffs: self.max_dffs,
            });
        }
        Ok(())
    }

    /// The full response matrix of `netlist` (with `fault` injected if
    /// given) over `seq`.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::StateSpace`] when the circuit has more
    /// flip-flops than this oracle's bound.
    pub fn response_matrix(
        &self,
        netlist: &Netlist,
        seq: &TestSequence,
        fault: Option<Fault>,
    ) -> Result<ResponseMatrix, SimError> {
        self.check(netlist)?;
        Ok(ResponseMatrix::simulate(netlist, seq, fault))
    }

    /// Detectability of `fault` under all three strategies.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::StateSpace`] when the circuit has more
    /// flip-flops than this oracle's bound.
    pub fn verdict(
        &self,
        netlist: &Netlist,
        seq: &TestSequence,
        fault: Fault,
    ) -> Result<Verdict, SimError> {
        Ok(self.verdicts(netlist, seq, [fault])?[0])
    }

    /// Detectability of each of `faults` under all three strategies, in
    /// order: the fault-free response matrix is simulated once, then one
    /// faulty matrix per fault.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::StateSpace`] when the circuit has more
    /// flip-flops than this oracle's bound.
    pub fn verdicts(
        &self,
        netlist: &Netlist,
        seq: &TestSequence,
        faults: impl IntoIterator<Item = Fault>,
    ) -> Result<Vec<Verdict>, SimError> {
        let good = self.response_matrix(netlist, seq, None)?;
        Ok(faults
            .into_iter()
            .map(|f| {
                let bad = ResponseMatrix::simulate(netlist, seq, Some(f));
                verdict_from(&good, &bad, seq.len(), netlist.num_outputs())
            })
            .collect())
    }
}

/// The complete response matrix of one machine (fault-free or faulty):
/// `rows[p]` is the flattened output sequence produced from initial state
/// `p` (`l · n` bits packed into `u64`s).
#[derive(Debug, Clone)]
pub struct ResponseMatrix {
    rows: Vec<Vec<u64>>,
    outputs: usize,
    frames: usize,
}

impl ResponseMatrix {
    /// Simulates all `2^m` initial states of `netlist` (with `fault`
    /// injected if given) over `seq`; [`Oracle`] has checked `m` against
    /// its bound.
    fn simulate(netlist: &Netlist, seq: &TestSequence, fault: Option<Fault>) -> Self {
        let m = netlist.num_dffs();
        let states: usize = 1 << m;
        let l = netlist.num_outputs();
        let n = seq.len();
        let words_per_row = (l * n).div_ceil(64).max(1);
        let mut rows = vec![vec![0u64; words_per_row]; states];
        let mut values = Vec::new();
        for base in (0..states).step_by(64) {
            let lanes = (states - base).min(64);
            // Lane k encodes initial state base + k.
            let mut state: Vec<u64> = (0..m)
                .map(|i| {
                    let mut w = 0u64;
                    for k in 0..lanes {
                        if ((base + k) >> i) & 1 == 1 {
                            w |= 1 << k;
                        }
                    }
                    w
                })
                .collect();
            for (t, v) in seq.iter().enumerate() {
                eval_frame_u64(netlist, &state, &broadcast(v), fault, &mut values);
                for (j, &o) in netlist.outputs().iter().enumerate() {
                    let word = values[o.index()];
                    let bit = t * l + j;
                    for (k, row) in rows[base..base + lanes].iter_mut().enumerate() {
                        if (word >> k) & 1 == 1 {
                            row[bit / 64] |= 1 << (bit % 64);
                        }
                    }
                }
                next_state_u64(netlist, &values, fault, &mut state);
            }
        }
        ResponseMatrix {
            rows,
            outputs: l,
            frames: n,
        }
    }

    /// The response row of initial state `p`.
    pub fn row(&self, p: usize) -> &[u64] {
        &self.rows[p]
    }

    /// Number of initial states (`2^m`).
    pub fn num_states(&self) -> usize {
        self.rows.len()
    }

    /// The output bit of state `p` at frame `t`, output `j`.
    pub fn output(&self, p: usize, t: usize, j: usize) -> bool {
        assert!(t < self.frames && j < self.outputs, "index out of range");
        let bit = t * self.outputs + j;
        (self.rows[p][bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Is output `j` at frame `t` the same value for every initial state?
    pub fn constant_at(&self, t: usize, j: usize) -> Option<bool> {
        let first = self.output(0, t, j);
        for p in 1..self.rows.len() {
            if self.output(p, t, j) != first {
                return None;
            }
        }
        Some(first)
    }

    /// The distinct response rows, as a set.
    pub fn row_set(&self) -> HashSet<&[u64]> {
        self.rows.iter().map(|r| r.as_slice()).collect()
    }
}

/// Brute-force verdicts for one fault under all three strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Detectable per Definition 2 (SOT).
    pub sot: bool,
    /// Detectable per the restricted MOT rule.
    pub rmot: bool,
    /// Detectable per Definition 3 (MOT).
    pub mot: bool,
}

/// Decides detectability given precomputed response matrices (lets callers
/// reuse the fault-free matrix across faults).
pub fn verdict_from(
    good: &ResponseMatrix,
    bad: &ResponseMatrix,
    frames: usize,
    outputs: usize,
) -> Verdict {
    // MOT: response sets disjoint.
    let good_set = good.row_set();
    let mot = (0..bad.num_states()).all(|q| !good_set.contains(bad.row(q)));

    // Constant fault-free observation points.
    let mut const_points = Vec::new();
    for t in 0..frames {
        for j in 0..outputs {
            if let Some(b) = good.constant_at(t, j) {
                const_points.push((t, j, b));
            }
        }
    }

    // SOT: one point constant on both sides with opposite values.
    let sot = const_points
        .iter()
        .any(|&(t, j, b)| (0..bad.num_states()).all(|q| bad.output(q, t, j) != b));

    // rMOT: every faulty start is caught at some constant fault-free point.
    let rmot = (0..bad.num_states()).all(|q| {
        const_points
            .iter()
            .any(|&(t, j, b)| bad.output(q, t, j) != b)
    });

    Verdict { sot, rmot, mot }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motsim_netlist::Lead;

    /// The paper's Fig. 3 circuit (`O = XNOR(A, Q)`, `Q' = Q`), its fault
    /// `A` stuck-at-0 and its sequence `(1, 0)`.
    fn fig3() -> (Netlist, Fault, TestSequence) {
        let (n, vectors) = motsim_circuits::figures::fig3();
        let fault = Fault::stuck_at_0(Lead::stem(n.find("A").unwrap()));
        (n, fault, TestSequence::new(1, vectors))
    }

    #[test]
    fn mot_detects_where_sot_cannot() {
        // Sequence [1], [0]: fault-free responses are (x, x̄); faulty
        // (stuck 0) ones are o = XNOR(0, q) = q̄ in both frames -> faulty
        // rows {(ȳ, ȳ)} = {(0,0),(1,1)}; good rows {(x, x̄)} = {(0,1),(1,0)}:
        // disjoint -> MOT detects. No constant fault-free point -> SOT and
        // rMOT cannot.
        let (n, f, seq) = fig3();
        let v = Oracle::new().verdict(&n, &seq, f).unwrap();
        assert!(v.mot);
        assert!(!v.sot);
        assert!(!v.rmot);
    }

    #[test]
    fn single_frame_is_not_enough_for_fig3() {
        let (n, f, _) = fig3();
        let seq = TestSequence::new(1, vec![vec![true]]);
        let v = Oracle::new().verdict(&n, &seq, f).unwrap();
        // good rows {x} = {0,1}; bad rows {ȳ} = {0,1}: intersect.
        assert!(!v.mot);
    }

    #[test]
    fn sot_implies_rmot_implies_mot() {
        // Strategy containment on a batch of faults of s27.
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 12, 9);
        let faults = crate::faults::FaultList::collapsed(&n);
        let verdicts = Oracle::new()
            .verdicts(&n, &seq, faults.iter().copied())
            .unwrap();
        for (fault, v) in faults.iter().zip(verdicts) {
            if v.sot {
                assert!(v.rmot, "SOT ⊆ rMOT violated for {}", fault.display(&n));
            }
            if v.rmot {
                assert!(v.mot, "rMOT ⊆ MOT violated for {}", fault.display(&n));
            }
        }
    }

    #[test]
    fn three_valued_detection_implies_all_strategies() {
        // Anything the pessimistic three-valued simulator detects must be
        // detectable under SOT (and hence all strategies).
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 16, 21);
        let faults = crate::faults::FaultList::collapsed(&n);
        let outcome = crate::sim3::FaultSim3::run(&n, &seq, faults.iter().cloned());
        let detected: Vec<Fault> = outcome.detected_faults().collect();
        let verdicts = Oracle::new()
            .verdicts(&n, &seq, detected.iter().copied())
            .unwrap();
        assert!(!detected.is_empty());
        for (fault, v) in detected.iter().zip(verdicts) {
            assert!(
                v.sot,
                "3-valued detected {} but SOT oracle disagrees",
                fault.display(&n)
            );
        }
    }

    #[test]
    fn response_matrix_accessors() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 5, 2);
        let m = ResponseMatrix::simulate(&n, &seq, None);
        assert_eq!(m.num_states(), 8);
        let _ = m.output(3, 4, 0);
        assert!(!m.row(0).is_empty());
        assert!(m.row_set().len() <= 8);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn output_bounds_checked() {
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 2, 2);
        let m = ResponseMatrix::simulate(&n, &seq, None);
        m.output(0, 2, 0);
    }

    #[test]
    fn oracle_bound_is_configurable() {
        let n = motsim_circuits::generators::counter(5);
        let seq = TestSequence::random(&n, 4, 1);
        let f = Fault::stuck_at_1(Lead::stem(n.find("CLR").unwrap()));

        // Default bound (20) and an exactly-fitting bound both work and
        // agree.
        let reference = Oracle::new().verdict(&n, &seq, f).unwrap();
        assert_eq!(
            Oracle::new().max_dffs(5).verdict(&n, &seq, f).unwrap(),
            reference
        );

        // A too-small bound is a recoverable, named error.
        let err = Oracle::new().max_dffs(4).verdict(&n, &seq, f).unwrap_err();
        assert_eq!(
            err,
            SimError::StateSpace {
                dffs: 5,
                max_dffs: 4
            }
        );
        assert!(err.to_string().contains("5 flip-flops"));
        assert!(err.to_string().contains("bounded at 4"));
        assert!(Oracle::new()
            .max_dffs(4)
            .response_matrix(&n, &seq, None)
            .is_err());
    }
}
