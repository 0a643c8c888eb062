//! OBDD-based symbolic fault simulation (paper Section IV).
//!
//! The unknown initial state is encoded with one BDD variable `x_i` per
//! memory element; every lead value becomes a Boolean function of `x`.
//! Faults are injected one at a time and their effects propagated
//! event-driven (only the divergent cone is recomputed — BDD handle
//! equality is O(1), so divergence checks are free).
//!
//! Three observation strategies are supported ([`Strategy`]):
//!
//! - **SOT**: fault detected at `(t, i)` iff `o_i(x,t)` and `o_i^f(x,t)`
//!   are complementary constants.
//! - **rMOT**: the restricted detection function
//!   `D~(x) ∏= [o_i(x,t) ≡ o_i^f(x,t)]` accumulated whenever `o_i(x,t)` is
//!   constant; detected iff `D~ ≡ 0`.
//! - **MOT**: the full detection function over independent initial states
//!   `D(x,y) ∏= [o_i(x,t) ≡ o_i^f(y,t)]` over *all* outputs and frames;
//!   `o_i^f(y,t)` is obtained from `o_i^f(x,t)` by the monotone rename
//!   `x_i → y_i` (variables are interleaved `x_1 < y_1 < x_2 < …`).
//!
//! ### The "silent frame" terms of MOT
//!
//! Even when a fault's effect does not reach any output at frame `t`
//! (`o^f ≡ o` as functions), the MOT product still gains the terms
//! `E_i(x,y) = [o_i(x,t) ≡ o_i(y,t)]`, which prune initial-state pairs
//! whose *fault-free* responses differ — the paper's own Fig. 3 example
//! needs them. These terms are fault-independent, so the engine computes
//! each `E_i` (and their product `E_all`) once per frame and shares them
//! across all faults.

use motsim_bdd::{Bdd, BddError, BddManager, VarId};
use motsim_logic::V3;
use motsim_netlist::Netlist;
use motsim_trace::{TraceEvent, TraceSink};

use crate::faults::Fault;
use crate::frame::{self, Faulty, Sparse, Stuck};
use crate::pattern::TestSequence;
use crate::report::{BddUsage, Detection, FaultOutcome, SimOutcome};

/// The observation time test strategy to simulate with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Single observation time (Definition 2; the strategy of \[8\]).
    Sot,
    /// Restricted multiple observation time: one common initial-state
    /// encoding, standard test evaluation remains possible.
    Rmot,
    /// Full multiple observation time (Definition 3).
    Mot,
}

impl Strategy {
    /// All strategies in increasing accuracy order.
    pub const ALL: [Strategy; 3] = [Strategy::Sot, Strategy::Rmot, Strategy::Mot];
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Strategy::Sot => "SOT",
            Strategy::Rmot => "rMOT",
            Strategy::Mot => "MOT",
        })
    }
}

/// Symbolic true-value (fault-free) simulator: one BDD per net, state
/// encoded over the `x` variables.
///
/// Used stand-alone by [test evaluation](crate::testeval) and
/// [synchronization analysis](crate::synch), and as the fault-free machine
/// of [`SymbolicFaultSim`].
///
/// Every symbolic frame, its own and [`SymbolicFaultSim`]'s, is attempted
/// and collected by one rule, owned here (DESIGN §9). Under a node limit,
/// a frame's outcome is that of one attempt from a collected arena, so the
/// limit bounds live nodes after a collection. The frame runs once if the
/// arena holds no garbage ([`BddManager::has_garbage`]), and once after a
/// collection if the previous frame allocated at least `limit / 8` nodes;
/// otherwise it runs on the uncollected arena, where any limit hit aborts
/// it, and again after a collection if that attempt fails. This predictor
/// (measured in EXPERIMENTS, "Node-limit pressure") decides speed, never
/// results: garbage only adds live nodes, and an operation allocates only
/// nodes of its result, whatever the ITE cache holds. Without a limit, a
/// frame runs once and the manager is collected when the frame ends if it
/// holds more than 2^20 live nodes.
#[derive(Debug)]
pub struct SymbolicTrueSim<'a> {
    netlist: &'a Netlist,
    mgr: BddManager,
    xvars: Vec<VarId>,
    state: Vec<Bdd>,
    values: Vec<Bdd>,
    frame: usize,
    /// Nodes the manager allocated during the previous frame's attempts:
    /// the collect-first predictor's input.
    last_frame_created: usize,
}

impl<'a> SymbolicTrueSim<'a> {
    /// Creates a simulator with a fresh manager; the initial state of
    /// flip-flop `i` is the variable `x_i`.
    pub fn new(netlist: &'a Netlist) -> Self {
        Self::with_manager(netlist, BddManager::new())
    }

    /// Creates a simulator allocating its `x` variables in `mgr`. A node
    /// limit of `mgr` bounds its live nodes after a collection (see
    /// [`SymbolicTrueSim`]).
    pub fn with_manager(netlist: &'a Netlist, mgr: BddManager) -> Self {
        let xvars = (0..netlist.num_dffs())
            .map(|_| mgr.new_var().top_var().expect("fresh literal"))
            .collect();
        Self::with_xvars(netlist, mgr, xvars)
    }

    /// Creates a simulator whose flip-flop `i` starts as the variable
    /// `xvars[i]` of `mgr` (MOT interleaves them with its `y` variables).
    pub(crate) fn with_xvars(netlist: &'a Netlist, mgr: BddManager, xvars: Vec<VarId>) -> Self {
        let state = xvars.iter().map(|&v| mgr.var(v)).collect();
        let values = vec![mgr.zero(); netlist.num_nets()];
        SymbolicTrueSim {
            netlist,
            mgr,
            xvars,
            state,
            values,
            frame: 0,
            last_frame_created: 0,
        }
    }

    /// The manager holding all functions of this simulator.
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// The state-encoding variables `x_1 … x_m`.
    pub fn xvars(&self) -> &[VarId] {
        &self.xvars
    }

    /// Replaces the symbolic initial state (e.g. constants for known bits
    /// when resuming from a three-valued prefix).
    ///
    /// # Panics
    ///
    /// Panics if frames were already simulated or the width mismatches.
    pub fn seed_state(&mut self, state: Vec<Bdd>) {
        assert_eq!(self.frame, 0, "seed_state must precede simulation");
        assert_eq!(state.len(), self.state.len(), "state width mismatch");
        self.state = state;
    }

    /// Lifts a three-valued state to the `x` encoding: known bits become
    /// constants, `X` bits the flip-flop's variable `x_i`.
    pub(crate) fn lift(&self, state: &[V3]) -> Vec<Bdd> {
        assert_eq!(state.len(), self.xvars.len(), "state width mismatch");
        state
            .iter()
            .zip(&self.xvars)
            .map(|(&v, &x)| match v.to_bool() {
                Some(b) => self.mgr.constant(b),
                None => self.mgr.var(x),
            })
            .collect()
    }

    /// Applies one input vector, attempting and collecting the frame as
    /// described at [`SymbolicTrueSim`].
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the frame does not fit the
    /// manager's node limit after a full GC; the simulator state is
    /// unchanged in that case.
    pub fn step(&mut self, inputs: &[bool]) -> Result<(), BddError> {
        let values = self.attempt_frame(false, |sim, _| sim.eval(inputs))?;
        self.commit(values);
        Ok(())
    }

    /// Runs `frame`, which stages the next frame from the present state, as
    /// the [`Attempt`]s the rule of [`SymbolicTrueSim`] calls for; the
    /// caller [`commit`](Self::commit)s what it returns. A frame without
    /// detection-term sites (`terms`), where the two attempts differ, is
    /// not rerun if the collection after its failed uncollected attempt
    /// frees only that attempt's nodes: the rerun would fail the same way.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the collected attempt does.
    pub(crate) fn attempt_frame<T>(
        &mut self,
        terms: bool,
        mut frame: impl FnMut(&Self, Attempt) -> Result<T, BddError>,
    ) -> Result<T, BddError> {
        let created = self.mgr.stats().nodes_created;
        let result = match self.mgr.node_limit().filter(|_| self.mgr.has_garbage()) {
            None => frame(self, Attempt::Collected),
            Some(limit) if self.collect_first(limit) => {
                self.mgr.gc();
                frame(self, Attempt::Collected)
            }
            Some(_) => frame(self, Attempt::Uncollected).or_else(|hit| {
                let attempted = self.mgr.stats().nodes_created - created;
                let freed = self.mgr.gc() as u64;
                if !terms && freed == attempted {
                    return Err(hit);
                }
                frame(self, Attempt::Collected)
            }),
        };
        self.last_frame_created = (self.mgr.stats().nodes_created - created) as usize;
        result
    }

    /// Whether the previous frame predicts that this one needs the space a
    /// collection frees (see [`SymbolicTrueSim`]).
    fn collect_first(&self, limit: usize) -> bool {
        #[cfg(test)]
        if let Some(forced) = FORCE_COLLECT_FIRST.with(std::cell::Cell::get) {
            return forced;
        }
        self.last_frame_created >= limit / 8
    }

    /// Evaluates the next frame from the present state without advancing:
    /// [`commit`](Self::commit) the result to advance.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if the manager's node limit is hit.
    pub(crate) fn eval(&self, inputs: &[bool]) -> Result<Vec<Bdd>, BddError> {
        eval_frame_bdd(self.netlist, &self.mgr, &self.state, inputs, None)
    }

    /// Advances by one frame whose per-net values [`eval`](Self::eval)
    /// returned. Every frame ends here, so without a node limit this is
    /// where the manager is collected once it holds more than 2^20 live
    /// nodes.
    pub(crate) fn commit(&mut self, values: Vec<Bdd>) {
        frame::next_state(self.netlist, &values, None, &mut self.state);
        self.values = values;
        self.frame += 1;
        collect_if_unlimited(&self.mgr);
    }

    /// Per-net values of the most recent frame.
    pub fn values(&self) -> &[Bdd] {
        &self.values
    }

    /// Primary-output functions of the most recent frame.
    pub fn outputs(&self) -> Vec<Bdd> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()].clone())
            .collect()
    }

    /// The symbolic present state.
    pub fn state(&self) -> &[Bdd] {
        &self.state
    }

    /// Frames simulated so far.
    pub fn frames(&self) -> usize {
        self.frame
    }
}

/// Evaluates one combinational frame symbolically (one function per net),
/// with the stuck-at `fault`, if any, forced where every engine forces it:
/// at its stem, gate input pin or D pin. A D-pin fault acts only on the
/// next state, so it leaves this frame unchanged.
///
/// # Errors
///
/// Fails with [`BddError::NodeLimit`] if the manager's node limit is hit.
///
/// # Panics
///
/// Panics if `inputs`/`state` lengths do not match the circuit.
pub fn eval_frame_bdd(
    netlist: &Netlist,
    mgr: &BddManager,
    state: &[Bdd],
    inputs: &[bool],
    fault: Option<Fault>,
) -> Result<Vec<Bdd>, BddError> {
    let mut values = vec![mgr.zero(); netlist.num_nets()];
    let stuck = fault.map(|f| Stuck::new(f, mgr.constant(f.stuck)));
    let inputs = inputs.iter().map(|&b| mgr.constant(b));
    frame::eval_frame(netlist, state, inputs, stuck.as_ref(), &mut values)?;
    Ok(values)
}

struct SymFaultRecord {
    fault: Fault,
    /// The faulty symbolic present state's differences from the fault-free
    /// one, as [`Sparse`] takes and returns them: `(flip-flop index,
    /// function over x)` pairs, sorted by index.
    state: Vec<(usize, Bdd)>,
    /// The accumulated detection function `D~` (over `x` for rMOT, over
    /// `(x, y)` for MOT; unused for SOT).
    det: Bdd,
    detection: Option<Detection>,
}

/// The OBDD-based fault simulator.
///
/// Construct with [`new`](Self::new), add faults, then drive it frame by
/// frame ([`step`](Self::step)) or with [`run`](Self::run). For the
/// space-limited hybrid simulator see
/// [`HybridEngine`](crate::engine_api::HybridEngine).
///
/// The fault-free machine is an owned [`SymbolicTrueSim`]. Each faulty
/// machine is stored as the sorted differences of its state from the
/// fault-free one, the form the sparse single-fault pass takes and returns,
/// so a fault's state costs memory and seeding work in proportion to its
/// effect, as in [`FaultSim3`](crate::sim3::FaultSim3).
///
/// # Example
///
/// The paper's Fig. 3 computation `D(x,y) = [x ≡ ȳ]·[x ≡ y] ≡ 0`:
///
/// ```
/// use motsim::symbolic::{Strategy, SymbolicFaultSim};
/// use motsim::{Fault, TestSequence};
/// use motsim_netlist::Lead;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = motsim_circuits::s27();
/// let seq = TestSequence::random(&circuit, 30, 1);
/// let faults = motsim::FaultList::collapsed(&circuit);
/// let outcome = SymbolicFaultSim::new(&circuit, Strategy::Mot)
///     .run(&seq, faults.iter().cloned())?;
/// assert!(outcome.num_detected() > 0);
/// # Ok(())
/// # }
/// ```
pub struct SymbolicFaultSim<'a> {
    /// The fault-free machine; every faulty machine is stored as its
    /// differences from this one's present state.
    good: SymbolicTrueSim<'a>,
    strategy: Strategy,
    rename_map: Vec<(VarId, VarId)>,
    records: Vec<SymFaultRecord>,
    sparse: Sparse<'a, Bdd>,
    degraded_terms: usize,
    last_frame_events: usize,
}

/// Live nodes past which a manager *without* a node limit is collected at
/// the end of a frame ([`SymbolicTrueSim::commit`]) or a test evaluation.
/// Under a limit, a frame collects before it runs instead, and only when it
/// needs the space ([`SymbolicTrueSim::attempt_frame`]).
const UNLIMITED_GC_THRESHOLD: usize = 1 << 20;

/// Collects `mgr` if it has no node limit and more than
/// [`UNLIMITED_GC_THRESHOLD`] live nodes.
pub(crate) fn collect_if_unlimited(mgr: &BddManager) {
    if mgr.node_limit().is_none() && mgr.live_nodes() > UNLIMITED_GC_THRESHOLD {
        mgr.gc();
    }
}

/// How a frame attempt reacts to the node limit at a detection-term site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attempt {
    /// The arena was collected when the attempt began. A term that hits the
    /// limit is retried after a GC and skipped if it still does not fit;
    /// the skip is counted in `degraded_terms`.
    Collected,
    /// The arena may have held garbage when the attempt began. Any limit
    /// hit aborts the attempt, because a collected attempt might fit where
    /// this one does not; the caller then collects and reruns the frame.
    Uncollected,
}

#[cfg(test)]
thread_local! {
    /// Test override of the collect-first predictor: `Some(true)` collects
    /// before every frame that may hold garbage, `Some(false)` never does.
    static FORCE_COLLECT_FIRST: std::cell::Cell<Option<bool>> =
        const { std::cell::Cell::new(None) };
}

/// Per-fault per-frame staging before commit.
struct FaultUpdate {
    index: usize,
    det: Bdd,
    state: Vec<(usize, Bdd)>,
    detection: Option<Detection>,
    /// Nets of the faulty machine that diverged from the fault-free frame
    /// (the sparse pass's diverged-net count).
    events: usize,
}

impl<'a> SymbolicFaultSim<'a> {
    /// Creates a simulator with a fresh, unlimited manager and the natural
    /// (flip-flop index) variable order.
    ///
    /// For MOT the state variables are interleaved `x_1 < y_1 < x_2 < y_2 …`
    /// so that the rename `x → y` is monotone.
    pub fn new(netlist: &'a Netlist, strategy: Strategy) -> Self {
        Self::with_order(
            netlist,
            strategy,
            &crate::ordering::VarOrder::natural(netlist),
        )
    }

    /// Creates a simulator whose BDD position `k` encodes flip-flop
    /// `order[k]` — see [`crate::ordering::VarOrder`] for structural
    /// ordering heuristics. The interleaving of `x`/`y` pairs (for MOT) is
    /// unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the circuit's flip-flops.
    pub fn with_order(
        netlist: &'a Netlist,
        strategy: Strategy,
        order: &crate::ordering::VarOrder,
    ) -> Self {
        let m = netlist.num_dffs();
        assert!(order.is_valid(m), "order must be a permutation of 0..{m}");
        let mgr = BddManager::new();
        let mut xvars = vec![VarId::from_index(0); m];
        let mut rename_map = Vec::new();
        for &ff in order.as_slice() {
            let x = mgr.new_var().top_var().expect("fresh literal");
            xvars[ff] = x;
            if strategy == Strategy::Mot {
                let y = mgr.new_var().top_var().expect("fresh literal");
                rename_map.push((x, y));
            }
        }
        SymbolicFaultSim {
            good: SymbolicTrueSim::with_xvars(netlist, mgr, xvars),
            strategy,
            rename_map,
            records: Vec::new(),
            sparse: Sparse::new(netlist),
            degraded_terms: 0,
            last_frame_events: 0,
        }
    }

    /// Sets the live-node limit of the underlying manager (the paper uses
    /// 30,000). With a limit set, [`step`](Self::step) may fail with
    /// [`BddError::NodeLimit`].
    pub fn set_node_limit(&mut self, limit: Option<usize>) {
        self.manager().set_node_limit(limit);
    }

    /// Runs one sifting pass of dynamic variable reordering on the
    /// underlying manager ([`BddManager::sift`]); the hybrid simulator calls
    /// this when [`step`](Self::step) hits the node limit, before resorting
    /// to the lossy three-valued fallback.
    ///
    /// For MOT, each `(x_i, y_i)` pair sifts as a rigid group so the Lemma 1
    /// rename `o^f(x, t) → o^f(y, t)` stays order-valid; the other
    /// strategies have no rename and sift every variable independently.
    /// Returns the number of live nodes the pass shed.
    pub fn reorder_sift(&mut self) -> usize {
        self.reorder_sift_traced(&mut motsim_trace::NullSink)
    }

    /// Like [`reorder_sift`](Self::reorder_sift), additionally reporting the
    /// pass to `sink` as one [`TraceEvent::SiftPass`] (via
    /// [`BddManager::sift_traced`]).
    pub fn reorder_sift_traced(&mut self, sink: &mut dyn TraceSink) -> usize {
        let groups: Vec<Vec<VarId>> = self.rename_map.iter().map(|&(x, y)| vec![x, y]).collect();
        self.manager().sift_traced(&groups, 1.2, sink)
    }

    /// The strategy this simulator applies.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The underlying manager (e.g. for statistics).
    pub fn manager(&self) -> &BddManager {
        self.good.manager()
    }

    /// The state-encoding variables.
    pub fn xvars(&self) -> &[VarId] {
        self.good.xvars()
    }

    /// Adds a fault to simulate; its faulty machine starts in the same
    /// unknown initial state encoding.
    pub fn add_fault(&mut self, fault: Fault) {
        self.add_fault_with_state(fault, &vec![V3::X; self.good.xvars.len()]);
    }

    /// Adds a fault whose machine starts from a (partially) known
    /// three-valued state: known bits become constants, `X` bits the `x_i`
    /// variable. Used by the hybrid simulator when re-entering symbolic
    /// mode.
    ///
    /// # Panics
    ///
    /// Panics if the width of `state` does not match the flip-flop count.
    pub fn add_fault_with_state(&mut self, fault: Fault, state: &[V3]) {
        self.records.push(SymFaultRecord {
            fault,
            state: frame::diff(&self.good.state, self.good.lift(state)),
            det: self.manager().one(),
            detection: None,
        });
    }

    /// Replaces the fault-free symbolic state by a three-valued state
    /// (hybrid re-entry; see [`add_fault_with_state`](Self::add_fault_with_state)).
    ///
    /// # Panics
    ///
    /// Panics if called after faults were added or frames simulated.
    pub fn seed_true_state(&mut self, state: &[V3]) {
        assert!(
            self.records.is_empty(),
            "seed_true_state must be called before adding faults"
        );
        let state = self.good.lift(state);
        self.good.seed_state(state);
    }

    /// Number of faults not yet marked detectable.
    pub fn live_faults(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.detection.is_none())
            .count()
    }

    /// Projects the fault-free symbolic state to three values (constants
    /// stay known, everything else becomes `X`).
    pub fn true_state_v3(&self) -> Vec<V3> {
        self.good.state.iter().map(project_v3).collect()
    }

    /// Projects every live fault's symbolic state to three values.
    pub fn faulty_states_v3(&self) -> Vec<(Fault, Vec<V3>)> {
        let good = self.true_state_v3();
        self.records
            .iter()
            .filter(|r| r.detection.is_none())
            .map(|r| {
                let diffs = r.state.iter().map(|(i, v)| (*i, project_v3(v)));
                (r.fault, frame::patch(&good, diffs))
            })
            .collect()
    }

    /// Per-fault results collected so far, sorted by fault id.
    pub fn outcome(&self) -> SimOutcome {
        let mut outcome = SimOutcome {
            results: self
                .records
                .iter()
                .map(|r| FaultOutcome {
                    fault: r.fault,
                    detection: r.detection,
                })
                .collect(),
            frames: self.frames(),
            fallback_frames: 0,
            degraded_terms: self.degraded_terms,
            bdd: BddUsage::from_stats(&self.manager().stats()),
        };
        outcome.sort_by_fault();
        outcome
    }

    /// Detection-function terms skipped because of the node limit (0 when
    /// no limit is configured; see [`SimOutcome::degraded_terms`]).
    pub fn degraded_terms(&self) -> usize {
        self.degraded_terms
    }

    /// Convenience: simulate `seq` for `faults` and collect the outcome.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] if a node limit is configured and
    /// hit (use [`HybridEngine`](crate::engine_api::HybridEngine) to
    /// survive that).
    pub fn run(
        mut self,
        seq: &TestSequence,
        faults: impl IntoIterator<Item = Fault>,
    ) -> Result<SimOutcome, BddError> {
        for f in faults {
            self.add_fault(f);
        }
        for v in seq {
            self.step(v)?;
        }
        Ok(self.outcome())
    }

    /// Applies one input vector to the fault-free machine and all live
    /// faulty machines; returns the faults newly detected in this frame,
    /// each with its [`Detection`]. Its frame counts from this simulator's
    /// first step, as in [`FaultSim3::step`](crate::sim3::FaultSim3::step).
    ///
    /// Each frame is attempted and collected by the rule of
    /// [`SymbolicTrueSim`]: under a node limit, its outcome is that of one
    /// attempt from a collected arena. In an uncollected attempt any limit
    /// hit aborts the attempt, detection terms included. In the collected
    /// attempt a detection term that hits the limit is retried after a GC
    /// and skipped if it still does not fit
    /// ([`degraded_terms`](Self::degraded_terms)).
    ///
    /// On [`BddError::NodeLimit`] the frame is rolled back: the logical
    /// state (detection functions, machine states) is exactly as before the
    /// call, so a caller can reorder, raise the limit, or switch to
    /// three-valued simulation and retry/resume.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] as described above.
    pub fn step(&mut self, inputs: &[bool]) -> Result<Vec<(Fault, Detection)>, BddError> {
        let (values, updates, skipped) = self.good.attempt_frame(true, |good, attempt| {
            // 1. Fault-free frame.
            let values = good.eval(inputs)?;

            // 2. Fault-independent MOT factors, built lazily.
            let mut frame = FrameCtx {
                netlist: good.netlist,
                mgr: &good.mgr,
                values: &values,
                rename_map: &self.rename_map,
                attempt,
                e_terms: vec![None; good.netlist.num_outputs()],
                e_all: None,
            };

            // 3. Per-fault propagation and observation into staged updates.
            let mut updates: Vec<FaultUpdate> = Vec::new();
            let mut skipped = 0usize;
            for (i, rec) in self.records.iter().enumerate() {
                if rec.detection.is_some() {
                    continue;
                }
                let faulty = self.sparse.propagate(
                    &values,
                    rec.state.iter().cloned(),
                    rec.fault,
                    good.mgr.constant(rec.fault.stuck),
                )?;
                let (det, detection) =
                    frame.observe(self.strategy, &faulty, &rec.det, good.frame, &mut skipped)?;
                let mut state = Vec::new();
                faulty.next_state_diffs(&mut state);
                updates.push(FaultUpdate {
                    index: i,
                    det,
                    state,
                    detection,
                    events: faulty.diverged_nets().len(),
                });
            }
            Ok((values, updates, skipped))
        })?;

        // 4. Commit.
        let mut newly = Vec::new();
        let mut frame_events = 0usize;
        for u in updates {
            frame_events += u.events;
            let rec = &mut self.records[u.index];
            rec.det = u.det;
            rec.state = u.state;
            if let Some(d) = u.detection {
                rec.detection = Some(d);
                newly.push((rec.fault, d));
            }
        }
        self.last_frame_events = frame_events;
        self.good.commit(values);
        self.degraded_terms += skipped;
        Ok(newly)
    }

    /// Like [`step`](Self::step), additionally reporting a successful frame
    /// to `sink` as one [`TraceEvent::SymFrame`]. The event is numbered
    /// `frame`, which the caller's clock gives (the hybrid simulator passes
    /// the frame's number in the whole run), and carries the manager's
    /// live/peak node counts, its cumulative ITE-cache and GC counters, the
    /// fault events propagated (total nets of faulty machines that diverged
    /// from the fault-free frame) and the faults newly detected. A failed step
    /// emits nothing — the caller decides how to report the limit hit (the
    /// hybrid simulator emits [`TraceEvent::NodeLimit`]).
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] exactly as [`step`](Self::step).
    pub fn step_traced(
        &mut self,
        frame: usize,
        inputs: &[bool],
        sink: &mut dyn TraceSink,
    ) -> Result<Vec<(Fault, Detection)>, BddError> {
        let newly = self.step(inputs)?;
        if sink.enabled() {
            let stats = self.manager().stats();
            sink.event(&TraceEvent::SymFrame {
                frame,
                live: stats.live_nodes,
                peak: stats.peak_live_nodes,
                hits: stats.cache_hits,
                misses: stats.cache_misses,
                gc: stats.gc_runs,
                events: self.last_frame_events,
                detected: newly.len(),
            });
        }
        Ok(newly)
    }

    /// Frames simulated so far.
    pub fn frames(&self) -> usize {
        self.good.frames()
    }
}

fn project_v3(b: &Bdd) -> V3 {
    match b.const_value() {
        Some(true) => V3::One,
        Some(false) => V3::Zero,
        None => V3::X,
    }
}

/// Shared per-frame context for the MOT fault-independent factors.
struct FrameCtx<'f> {
    netlist: &'f Netlist,
    mgr: &'f BddManager,
    values: &'f [Bdd],
    rename_map: &'f [(VarId, VarId)],
    attempt: Attempt,
    /// Memo of each output's [`e_term`](Self::e_term) outcome, failures
    /// included, so other faults do not redo doomed work.
    e_terms: Vec<Option<Result<Bdd, BddError>>>,
    /// Memo of the [`e_all`](Self::e_all) outcome.
    e_all: Option<Result<Bdd, BddError>>,
}

impl FrameCtx<'_> {
    /// Runs a detection-term operation: in a collected attempt, retried
    /// once after a GC when it hits the node limit; in an uncollected one,
    /// as is (the hit aborts the attempt).
    fn term<T>(&self, mut op: impl FnMut() -> Result<T, BddError>) -> Result<T, BddError> {
        match self.attempt {
            Attempt::Collected => self.mgr.retry_after_gc(op),
            Attempt::Uncollected => op(),
        }
    }

    /// `E_j(x,y) = [o_j(x,t) ≡ o_j(y,t)]`, computed once per frame (see
    /// [`term`](Self::term) for the node limit).
    fn e_term(&mut self, j: usize) -> Result<Bdd, BddError> {
        if let Some(memo) = &self.e_terms[j] {
            return memo.clone();
        }
        let o = &self.values[self.netlist.outputs()[j].index()];
        let e = self.term(|| o.equiv(&o.rename(self.rename_map)?));
        self.e_terms[j] = Some(e.clone());
        e
    }

    /// `∏_j E_j`, the whole-frame factor for faults with no output change;
    /// computed once per frame, and stops at the first factor that fails.
    fn e_all(&mut self) -> Result<Bdd, BddError> {
        if let Some(memo) = &self.e_all {
            return memo.clone();
        }
        let all = (0..self.netlist.num_outputs()).try_fold(self.mgr.one(), |acc, j| {
            let e = self.e_term(j)?;
            self.term(|| acc.and(&e))
        });
        self.e_all = Some(all.clone());
        all
    }

    /// Applies the observation rule of `strategy` to one fault's frame:
    /// multiplies this frame's terms into the fault's detection function
    /// `det` and reports the detection if it fires at frame `frame_no`.
    ///
    /// # Errors
    ///
    /// Fails with [`BddError::NodeLimit`] only in an uncollected attempt.
    fn observe(
        &mut self,
        strategy: Strategy,
        faulty: &Faulty<'_, '_, Bdd>,
        det: &Bdd,
        frame_no: usize,
        skipped: &mut usize,
    ) -> Result<(Bdd, Option<Detection>), BddError> {
        let (values, outputs) = (self.values, self.netlist.outputs());
        let at = |output| {
            Some(Detection {
                frame: frame_no,
                output,
            })
        };
        let mut det = det.clone();
        match strategy {
            Strategy::Sot => {
                let hit = outputs.iter().position(|&o| {
                    let (ov, fv) = (&values[o.index()], faulty.value(o));
                    fv != ov && ov.is_const() && fv.is_const()
                });
                Ok((det, hit.and_then(at)))
            }
            Strategy::Rmot => {
                for (j, &o) in outputs.iter().enumerate() {
                    let (ov, fv) = (&values[o.index()], faulty.value(o));
                    if fv == ov || !ov.is_const() {
                        continue; // term is 1 or not admissible for rMOT
                    }
                    let term = self.term(|| ov.equiv(fv));
                    det = self.and_term_or_skip(&det, term, skipped)?;
                    if det.is_false() {
                        return Ok((det, at(j)));
                    }
                }
                Ok((det, None))
            }
            // No output changed: the whole-frame factor.
            Strategy::Mot if !outputs.iter().any(|&o| faulty.diverged(o)) => {
                let e_all = self.e_all();
                let det = self.and_term_or_skip(&det, e_all, skipped)?;
                let hit = if det.is_false() { at(0) } else { None };
                Ok((det, hit))
            }
            Strategy::Mot => {
                for (j, &o) in outputs.iter().enumerate() {
                    let term = if faulty.diverged(o) {
                        let fy = || faulty.value(o).rename(self.rename_map);
                        self.term(|| values[o.index()].equiv(&fy()?))
                    } else {
                        self.e_term(j)
                    };
                    det = self.and_term_or_skip(&det, term, skipped)?;
                    if det.is_false() {
                        return Ok((det, at(j)));
                    }
                }
                Ok((det, None))
            }
        }
    }

    /// Multiplies `term` into `det` (see [`term`](Self::term) for the node
    /// limit). If the term still does not fit in a collected attempt, it is
    /// *skipped* (sound: the product only gets larger, so detections stay a
    /// lower bound) and counted in `skipped`.
    ///
    /// # Errors
    ///
    /// In an uncollected attempt, a node-limit hit aborts the attempt.
    fn and_term_or_skip(
        &self,
        det: &Bdd,
        term: Result<Bdd, BddError>,
        skipped: &mut usize,
    ) -> Result<Bdd, BddError> {
        match term.and_then(|term| self.term(|| det.and(&term))) {
            Err(_) if self.attempt == Attempt::Collected => {
                *skipped += 1;
                Ok(det.clone())
            }
            done => done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Oracle;
    use crate::faults::FaultList;
    use motsim_netlist::Lead;
    use motsim_rng::SmallRng;

    /// Cross-engine oracle: the symbolic verdicts must match exhaustive
    /// enumeration for every collapsed fault.
    fn assert_matches_oracle(netlist: &Netlist, seq: &TestSequence) {
        let faults = FaultList::collapsed(netlist);
        let oracle = Oracle::new()
            .verdicts(netlist, seq, faults.iter().copied())
            .unwrap();
        for strategy in Strategy::ALL {
            let outcome = SymbolicFaultSim::new(netlist, strategy)
                .run(seq, faults.iter().cloned())
                .expect("no node limit");
            for (r, v) in outcome.results.iter().zip(&oracle) {
                let expect = match strategy {
                    Strategy::Sot => v.sot,
                    Strategy::Rmot => v.rmot,
                    Strategy::Mot => v.mot,
                };
                assert_eq!(
                    r.detection.is_some(),
                    expect,
                    "{strategy} disagrees with oracle for {} on {}",
                    r.fault.display(netlist),
                    netlist.name()
                );
            }
        }
    }

    #[test]
    fn matches_oracle_on_s27() {
        let n = motsim_circuits::s27();
        assert_matches_oracle(&n, &TestSequence::random(&n, 14, 5));
    }

    #[test]
    fn matches_oracle_on_counter4() {
        let n = motsim_circuits::generators::counter(4);
        assert_matches_oracle(&n, &TestSequence::random(&n, 12, 6));
    }

    #[test]
    fn matches_oracle_on_shift_register() {
        let n = motsim_circuits::generators::shift_register(5);
        assert_matches_oracle(&n, &TestSequence::random(&n, 10, 7));
    }

    #[test]
    fn matches_oracle_on_random_fsm() {
        use motsim_circuits::generators::{fsm, FsmParams};
        let n = fsm(
            "t",
            77,
            FsmParams {
                state_bits: 5,
                inputs: 3,
                outputs: 3,
                terms: 3,
                literals: 3,
                reset: false,
                sync_bits: 1,
            },
        );
        assert_matches_oracle(&n, &TestSequence::random(&n, 10, 8));
    }

    #[test]
    fn matches_oracle_on_random_circuit() {
        use motsim_circuits::generators::{random_circuit, RandomParams};
        let n = random_circuit(
            "t",
            13,
            RandomParams {
                inputs: 4,
                outputs: 3,
                dffs: 5,
                gates: 30,
                max_fanin: 3,
            },
        );
        assert_matches_oracle(&n, &TestSequence::random(&n, 10, 9));
    }

    /// The paper's Fig. 3 example, verbatim: one flip-flop; the fault-free
    /// output sequence is (x, x̄); the faulty one is (ȳ, ȳ);
    /// D(x,y) = [x≡ȳ]·[x≡y] ≡ 0, so MOT detects — SOT and rMOT cannot.
    #[test]
    fn fig3_detection_function() {
        // PO = XNOR(A, Q); Q' = Q. Input sequence (1, 0):
        //   fault-free: o(1) = XNOR(1, x) = x; o(2) = XNOR(0, x) = x̄.
        //   A stuck-at-0: o^f = XNOR(0, y) = ȳ both frames.
        // D = [x ≡ ȳ]·[x̄ ≡ ȳ] = [x ≡ ȳ]·[x ≡ y] ≡ 0 — the paper's algebra.
        let (n, vectors) = motsim_circuits::figures::fig3();
        let fault = Fault::stuck_at_0(Lead::stem(n.find("A").unwrap()));
        let seq = TestSequence::new(1, vectors);

        for (strategy, expect) in [
            (Strategy::Sot, false),
            (Strategy::Rmot, false),
            (Strategy::Mot, true),
        ] {
            let outcome = SymbolicFaultSim::new(&n, strategy)
                .run(&seq, [fault])
                .unwrap();
            assert_eq!(
                outcome.num_detected() == 1,
                expect,
                "{strategy} wrong on Fig. 3"
            );
        }
    }

    /// MOT needs the silent-frame terms: after the first frame the fault
    /// effect is invisible, yet the [x ≡ y] term is what kills D.
    #[test]
    fn silent_frame_terms_matter() {
        // Same circuit as fig3 but sequence (1, 1): fault-free (x, x),
        // faulty (ȳ, ȳ). D = [x≡ȳ]·[x≡ȳ] = [x≡ȳ] ≠ 0 -> NOT detected.
        // With sequence (1, 0) it IS detected (fig3 test above). This pins
        // down that detection hinges on cross-frame pruning, not on lucky
        // per-frame differences.
        let (n, _) = motsim_circuits::figures::fig3();
        let fault = Fault::stuck_at_0(Lead::stem(n.find("A").unwrap()));

        let same = TestSequence::new(1, vec![vec![true], vec![true]]);
        let outcome = SymbolicFaultSim::new(&n, Strategy::Mot)
            .run(&same, [fault])
            .unwrap();
        assert_eq!(outcome.num_detected(), 0, "constant input cannot detect");
    }

    #[test]
    fn strategies_are_ordered_by_power() {
        // On any circuit/sequence: detected(SOT) ⊆ detected(rMOT) ⊆ detected(MOT).
        let n = motsim_circuits::generators::counter(5);
        let seq = TestSequence::random(&n, 20, 3);
        let faults = FaultList::collapsed(&n);
        let mut per: Vec<Vec<bool>> = Vec::new();
        for strategy in Strategy::ALL {
            let outcome = SymbolicFaultSim::new(&n, strategy)
                .run(&seq, faults.iter().cloned())
                .unwrap();
            per.push(
                outcome
                    .results
                    .iter()
                    .map(|r| r.detection.is_some())
                    .collect(),
            );
        }
        for ((&s, &r), &m) in per[0].iter().zip(&per[1]).zip(&per[2]) {
            assert!(!s || r, "SOT ⊆ rMOT");
            assert!(!r || m, "rMOT ⊆ MOT");
        }
    }

    #[test]
    fn symbolic_sot_at_least_three_valued() {
        // The symbolic SOT engine is exact; the three-valued one is a lower
        // bound. Everything 3-valued detects, symbolic SOT must too.
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 30, 4);
        let faults = FaultList::collapsed(&n);
        let three = crate::sim3::FaultSim3::run(&n, &seq, faults.iter().cloned());
        let sym = SymbolicFaultSim::new(&n, Strategy::Sot)
            .run(&seq, faults.iter().cloned())
            .unwrap();
        for (a, b) in three.results.iter().zip(&sym.results) {
            assert!(
                a.detection.is_none() || b.detection.is_some(),
                "3-valued detected {} but symbolic SOT did not",
                a.fault.display(&n)
            );
        }
    }

    #[test]
    fn true_sim_constants_match_v3() {
        // Wherever the three-valued simulator has a known value, the
        // symbolic simulator must have the same constant.
        let n = motsim_circuits::s27();
        let seq = TestSequence::random(&n, 25, 10);
        let mut sym = SymbolicTrueSim::new(&n);
        let mut v3 = crate::sim3::TrueSim::new(&n);
        for v in &seq {
            sym.step(v).unwrap();
            v3.step(v);
            for id in n.net_ids() {
                if let Some(b) = v3.value(id).to_bool() {
                    assert_eq!(
                        sym.values()[id.index()].const_value(),
                        Some(b),
                        "net {}",
                        n.net(id).name()
                    );
                }
            }
        }
        assert_eq!(sym.frames(), seq.len());
        assert_eq!(sym.outputs().len(), 1);
        assert_eq!(sym.state().len(), 3);
        assert_eq!(sym.xvars().len(), 3);
    }

    #[test]
    fn node_limit_rolls_back_cleanly() {
        let n = motsim_circuits::generators::counter(12);
        let seq = TestSequence::random(&n, 30, 2);
        let faults = FaultList::collapsed(&n);
        let mut sim = SymbolicFaultSim::new(&n, Strategy::Mot);
        sim.set_node_limit(Some(300));
        for f in faults.iter().take(10) {
            sim.add_fault(*f);
        }
        let mut failed_at = None;
        for (i, v) in seq.iter().enumerate() {
            match sim.step(v) {
                Ok(_) => {}
                Err(BddError::NodeLimit { .. }) => {
                    failed_at = Some(i);
                    break;
                }
            }
        }
        let failed_at = failed_at.expect("limit of 300 must trip on a 12-bit counter");
        // Raising the limit lets the same simulator continue from where it
        // stopped (state was rolled back, not corrupted).
        sim.set_node_limit(None);
        for v in seq.iter().skip(failed_at) {
            sim.step(v).unwrap();
        }
        assert_eq!(sim.frames(), seq.len());
    }

    /// Strips the fields of an event that count BDD work (node counts,
    /// cache and GC counters): what is left is the run's logical course.
    fn logical(event: &TraceEvent) -> TraceEvent {
        match *event {
            TraceEvent::SymFrame {
                frame,
                events,
                detected,
                ..
            } => TraceEvent::SymFrame {
                frame,
                live: 0,
                peak: 0,
                hits: 0,
                misses: 0,
                gc: 0,
                events,
                detected,
            },
            ref other => other.clone(),
        }
    }

    /// The collect-first predictor decides speed, never results: forcing it
    /// to always or never collect before a frame leaves every hybrid
    /// outcome (apart from its BDD counters) and every trace event (apart
    /// from its BDD fields) as the automatic predictor has them. The faults
    /// are the three-valued-undetected ones, 16 of them or all; on g208 at
    /// 1,500 nodes, an uncollected attempt that a mid-frame GC rescued
    /// would move MOT's fallback points.
    #[test]
    fn collect_first_predictor_never_changes_results() {
        use crate::hybrid::{run_traced, HybridConfig};
        use motsim_trace::CollectSink;

        fn run(
            n: &Netlist,
            strategy: Strategy,
            seq: &TestSequence,
            faults: &[Fault],
            node_limit: usize,
            forced: Option<bool>,
        ) -> (SimOutcome, Vec<TraceEvent>) {
            FORCE_COLLECT_FIRST.with(|f| f.set(forced));
            let config = HybridConfig {
                node_limit,
                ..Default::default()
            };
            let mut sink = CollectSink::new();
            let mut outcome = run_traced(n, strategy, seq, faults, config, &mut sink);
            FORCE_COLLECT_FIRST.with(|f| f.set(None));
            outcome.bdd = BddUsage::default();
            (outcome, sink.events().iter().map(logical).collect())
        }
        let mut limit_hits = 0;
        let runs = [
            ("g208", 2_000, 16),
            ("g298", 30_000, 16),
            ("g526", 30_000, 16),
            ("g208", 1_500, usize::MAX),
        ];
        for (name, limit, count) in runs {
            let n = motsim_circuits::suite::by_name(name).unwrap();
            let seq = TestSequence::random(&n, 30, 0xDAC95);
            let all = FaultList::collapsed(&n);
            let three = crate::sim3::FaultSim3::run(&n, &seq, all.iter().cloned());
            let faults: Vec<Fault> = three.undetected_faults().take(count).collect();
            for strategy in Strategy::ALL {
                let auto = run(&n, strategy, &seq, &faults, limit, None);
                for forced in [true, false] {
                    let other = run(&n, strategy, &seq, &faults, limit, Some(forced));
                    let label = format!("{name} {strategy}, collect-first forced {forced}");
                    assert_eq!(auto.0, other.0, "{label}: outcome differs");
                    assert_eq!(auto.1, other.1, "{label}: trace differs");
                }
                limit_hits += auto
                    .1
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::NodeLimit { .. }))
                    .count();
            }
        }
        assert!(limit_hits > 0, "the runs must put the limit under pressure");
    }

    /// Under a node limit a frame's outcome is that of an attempt from a
    /// collected arena, so the garbage left before it never changes that
    /// outcome: a run whose arena is littered with dead nodes before every
    /// frame detects, degrades terms and hits the limit exactly where an
    /// unlittered run does.
    #[test]
    fn garbage_before_a_frame_never_changes_its_outcome() {
        /// Allocates about `nodes` nodes of random functions over the
        /// manager's variables and drops them all.
        fn litter(sim: &SymbolicFaultSim, rng: &mut SmallRng, nodes: u64) {
            let mgr = sim.manager();
            let mut pool: Vec<Bdd> = (0..mgr.num_vars())
                .map(|v| mgr.var(VarId::from_index(v)))
                .collect();
            let start = mgr.stats().nodes_created;
            while mgr.stats().nodes_created - start < nodes {
                let [f, g, h] = [(); 3].map(|()| &pool[rng.gen_range(0..pool.len())]);
                match f.ite(g, h) {
                    Ok(r) => pool.push(r),
                    Err(_) => return,
                }
            }
        }
        let n = motsim_circuits::suite::by_name("g208").unwrap();
        let seq = TestSequence::random(&n, 30, 0xDAC95);
        let mut rng = SmallRng::seed_from_u64(7);
        let (mut frames_ok, mut limit_hits) = (0, 0);
        for strategy in Strategy::ALL {
            let mut clean = SymbolicFaultSim::new(&n, strategy);
            let mut dirty = SymbolicFaultSim::new(&n, strategy);
            for sim in [&mut clean, &mut dirty] {
                sim.set_node_limit(Some(1_200));
                for &f in FaultList::collapsed(&n).iter() {
                    sim.add_fault(f);
                }
            }
            for t in 0..seq.len() {
                litter(&dirty, &mut rng, 1_000);
                let expected = clean.step(seq.vector(t));
                assert_eq!(dirty.step(seq.vector(t)), expected, "{strategy}, frame {t}");
                frames_ok += usize::from(expected.is_ok());
                limit_hits += usize::from(expected.is_err());
            }
            assert_eq!(clean.degraded_terms(), dirty.degraded_terms(), "{strategy}");
            let (mut expected, mut got) = (clean.outcome(), dirty.outcome());
            expected.bdd = BddUsage::default();
            got.bdd = BddUsage::default();
            assert_eq!(got, expected, "{strategy}");
        }
        assert!(
            frames_ok > 0 && limit_hits > 0,
            "{frames_ok} ok, {limit_hits} hit(s)"
        );
    }

    /// A stand-alone true-value simulator attempts its frames by the same
    /// rule, so under a node limit the dead nodes of lookahead frames, as
    /// the synchronizing-sequence search leaves them, never change whether
    /// a frame fits.
    #[test]
    fn lookahead_garbage_never_changes_whether_a_true_frame_fits() {
        let (mut frames_ok, mut limit_hits) = (0, 0);
        for (name, limit) in [("g344", 300), ("g298", 800)] {
            let n = motsim_circuits::suite::by_name(name).unwrap();
            let seq = TestSequence::random(&n, 30, 0xDAC95);
            let lookahead = TestSequence::random(&n, 3 * seq.len(), 7);
            let limited = || {
                let mgr = BddManager::new();
                mgr.set_node_limit(Some(limit));
                SymbolicTrueSim::with_manager(&n, mgr)
            };
            let (mut clean, mut dirty) = (limited(), limited());
            for t in 0..seq.len() {
                for k in 0..3 {
                    let _ = dirty.eval(lookahead.vector(3 * t + k));
                }
                let expected = clean.step(seq.vector(t));
                assert_eq!(dirty.step(seq.vector(t)), expected, "{name}, frame {t}");
                frames_ok += usize::from(expected.is_ok());
                limit_hits += usize::from(expected.is_err());
            }
        }
        assert!(
            frames_ok > 0 && limit_hits > 0,
            "{frames_ok} ok, {limit_hits} hit(s)"
        );
    }

    /// A frame without detection terms that fails on an arena holding no
    /// dead nodes is not rerun after the collection, so a test
    /// evaluation's doomed first frame costs what one bare evaluation does.
    #[test]
    fn doomed_first_true_frame_runs_once() {
        let n = motsim_circuits::suite::by_name("g298").unwrap();
        let seq = TestSequence::random(&n, 1, 0xDAC95);
        let limited = || {
            let mgr = BddManager::new();
            mgr.set_node_limit(Some(100));
            SymbolicTrueSim::with_manager(&n, mgr)
        };
        let (mut stepped, bare) = (limited(), limited());
        assert!(bare.eval(seq.vector(0)).is_err());
        assert!(stepped.step(seq.vector(0)).is_err());
        let created = |sim: &SymbolicTrueSim| sim.manager().stats().nodes_created;
        assert_eq!(created(&stepped), created(&bare));
    }

    /// Reseeding a fresh simulator from the three-valued projections gives
    /// the same projections back. A fault added after `seed_true_state`
    /// starts in the all-unknown state, so its stored differences from the
    /// seeded fault-free state are non-empty from the start.
    #[test]
    fn project_and_reseed_round_trip() {
        let n = motsim_circuits::s27();
        let mut sim = SymbolicFaultSim::new(&n, Strategy::Rmot);
        let faults: Vec<Fault> = FaultList::collapsed(&n).iter().copied().collect();
        for &f in &faults[..5] {
            sim.add_fault(f);
        }
        let seq = TestSequence::random(&n, 10, 3);
        for v in &seq {
            sim.step(v).unwrap();
        }
        let ts = sim.true_state_v3();
        assert_eq!(ts.len(), 3);
        assert!(ts.iter().any(|v| v.is_known()), "{ts:?}");
        let fs = sim.faulty_states_v3();
        assert!(fs.len() <= 5);
        let mut sim2 = SymbolicFaultSim::new(&n, Strategy::Rmot);
        sim2.seed_true_state(&ts);
        for (f, st) in &fs {
            sim2.add_fault_with_state(*f, st);
        }
        assert_eq!(sim2.true_state_v3(), ts);
        assert_eq!(sim2.faulty_states_v3(), fs);

        let late = faults[5];
        sim2.add_fault(late);
        assert!(!sim2.records.last().unwrap().state.is_empty());
        let mut expected = fs.clone();
        expected.push((late, vec![V3::X; 3]));
        assert_eq!(sim2.faulty_states_v3(), expected);
        sim2.step(seq.vector(0)).unwrap();
    }

    /// After every step, committed or rolled back by the node limit, each
    /// live fault's stored differences are strictly sorted by flip-flop
    /// index and hold no entry equal to the fault-free state. A repeated
    /// index or an equal entry would seed the sparse pass with a spurious
    /// event and change the trace's `events` count.
    #[test]
    fn stored_differences_stay_sorted_and_distinct() {
        let n = motsim_circuits::suite::by_name("g208").unwrap();
        let seq = TestSequence::random(&n, 30, 0xDAC95);
        let mut sim = SymbolicFaultSim::new(&n, Strategy::Mot);
        sim.set_node_limit(Some(1_500));
        for &f in FaultList::collapsed(&n).iter() {
            sim.add_fault(f);
        }
        let (mut committed, mut rolled_back, mut entries) = (0, 0, 0);
        for (t, v) in seq.iter().enumerate() {
            match sim.step(v) {
                Ok(_) => committed += 1,
                Err(_) => rolled_back += 1,
            }
            for rec in sim.records.iter().filter(|r| r.detection.is_none()) {
                let label = format!("frame {t}, {}", rec.fault.display(&n));
                assert!(
                    rec.state.windows(2).all(|w| w[0].0 < w[1].0),
                    "{label}: not strictly sorted"
                );
                for (i, v) in &rec.state {
                    assert_ne!(v, &sim.good.state()[*i], "{label}: flip-flop {i}");
                }
                entries += rec.state.len();
            }
        }
        assert!(
            committed > 0 && rolled_back > 0 && entries > 0,
            "{committed} committed, {rolled_back} rolled back, {entries} entries"
        );
    }

    #[test]
    fn variable_order_does_not_change_verdicts() {
        use crate::ordering::VarOrder;
        let n = motsim_circuits::generators::counter(6);
        let seq = TestSequence::random(&n, 20, 4);
        let faults = FaultList::collapsed(&n);
        let baseline = SymbolicFaultSim::new(&n, Strategy::Mot)
            .run(&seq, faults.iter().cloned())
            .unwrap();
        for order in [VarOrder::dfs(&n), VarOrder::connectivity(&n)] {
            let outcome = SymbolicFaultSim::with_order(&n, Strategy::Mot, &order)
                .run(&seq, faults.iter().cloned())
                .unwrap();
            for (a, b) in baseline.results.iter().zip(&outcome.results) {
                assert_eq!(a.detection.is_some(), b.detection.is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn with_order_validates() {
        use crate::ordering::VarOrder;
        let n = motsim_circuits::s27();
        let c6 = motsim_circuits::generators::counter(6);
        let order = VarOrder::natural(&c6); // wrong size
        let _ = SymbolicFaultSim::with_order(&n, Strategy::Sot, &order);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::Sot.to_string(), "SOT");
        assert_eq!(Strategy::Rmot.to_string(), "rMOT");
        assert_eq!(Strategy::Mot.to_string(), "MOT");
    }
}
