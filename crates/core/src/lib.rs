//! Symbolic fault simulation for synchronous sequential circuits and the
//! multiple observation time test strategy.
//!
//! This crate implements the DAC'95 paper by Krieger, Becker and Keim:
//! fault simulation for circuits with an *unknown initial state*, where the
//! classical three-valued logic only yields a lower bound on fault coverage.
//!
//! The pipeline, in paper order:
//!
//! 1. [`faults`] — the single-stuck-at fault model over *leads* (stems and
//!    fanout branches) with structural equivalence collapsing.
//! 2. [`xred`] — the `ID_X-red` procedure (Section III): a linear-time
//!    pre-pass identifying faults a given test sequence provably cannot
//!    detect under three-valued logic + SOT, eliminating them before the
//!    expensive simulation.
//! 3. [`sim3`] — the three-valued true-value and fault simulators (the
//!    `X01` baseline of Table I).
//! 4. [`symbolic`] — the OBDD-based fault simulator supporting the
//!    [`Strategy`](symbolic::Strategy) variants **SOT**, **rMOT** and
//!    **MOT** (Section IV.A), including the detection function
//!    `D_{f,Z}(x,y)` and event-driven single-fault propagation.
//! 5. [`hybrid`] — the space-limited hybrid simulator that falls back to
//!    three-valued simulation when the OBDD node limit is exceeded and
//!    resumes symbolically afterwards; run it through
//!    [`HybridEngine`].
//! 6. [`testeval`] — symbolic test evaluation (Section IV.B, Table IV).
//! 7. [`tgen`] — fault-simulation-guided generation of compact
//!    ("deterministic") test sequences for Table III.
//! 8. [`simb`] — a bit-parallel Boolean simulator, used by the
//!    [`exhaustive`] brute-force oracle that validates the symbolic engines
//!    on small circuits, and as a fast pattern evaluator.
//!
//! Every frame of every engine runs on crate-private frame kernels,
//! generic over the value domain: `u64` words of 64 Boolean lanes,
//! [`V3`](motsim_logic::V3) and BDDs, whose gate evaluation fails at the
//! node limit. The dense kernel, a single levelized frame pass and
//! next-state step forcing at most one [`Fault`] in every lane, runs
//! `simb`, `sim3`'s dense evaluation (the true-value simulator and the
//! faulty-frame reference), [`symbolic::eval_frame_bdd`] and the SCOAP
//! controllability of [`testability`], whose finiteness the static
//! [`xred`] analysis reads. Next to it,
//! one sparse pass implements event-driven single-fault propagation for
//! both [`FaultSim3`](sim3::FaultSim3) (over `V3`) and
//! [`SymbolicFaultSim`](symbolic::SymbolicFaultSim) (over BDDs); the two
//! engines keep only their observation rules. The kernels alone decide
//! where a stuck-at fault forces a value. Only the backward observability
//! passes of [`xred`] and [`testability`] are loops of their own, because
//! they run against the signal flow.
//!
//! Around the pipeline, the crate ships three analyses the paper's argument
//! and the tests lean on:
//!
//! - [`synch`] — synchronizing-sequence search and profiling (exact,
//!   BDD-based — succeeds on the circuit classes of \[11\] where any
//!   three-valued search must fail),
//! - [`ordering`] — static BDD variable-ordering heuristics for the state
//!   encoding,
//! - [`testability`] — SCOAP controllability/observability measures \[6\].
//!
//! # Quickstart
//!
//! Every engine is driven through the unified [`engine_api`]: build a
//! [`SimConfig`], pick an engine, call
//! [`run`](engine_api::FaultSimEngine::run). Attach a
//! [`TraceSink`](motsim_trace::TraceSink) to the config to stream the
//! run's structured telemetry (frame-by-frame node counts, fallback
//! spans, reorder passes) as it happens.
//!
//! ```
//! use motsim::engine_api::{FaultSimEngine, SimConfig, SymbolicEngine};
//! use motsim::faults::FaultList;
//! use motsim::pattern::TestSequence;
//! use motsim::symbolic::Strategy;
//!
//! # fn main() -> Result<(), motsim::SimError> {
//! let circuit = motsim_circuits::s27();
//! let faults: Vec<_> = FaultList::collapsed(&circuit).into_iter().collect();
//! let seq = TestSequence::random(&circuit, 20, 0xDAC95);
//! let outcome = SymbolicEngine.run(
//!     &circuit,
//!     &seq,
//!     &faults,
//!     SimConfig::new().strategy(Strategy::Mot),
//! )?;
//! println!("{} of {} faults detected", outcome.num_detected(), faults.len());
//! # Ok(())
//! # }
//! ```

pub mod engine_api;
pub mod exhaustive;
pub mod faults;
mod frame;
pub mod hybrid;
pub mod ordering;
pub mod pattern;
pub mod report;
pub mod sim3;
pub mod simb;
pub mod symbolic;
pub mod synch;
pub mod testability;
pub mod testeval;
pub mod tgen;
pub mod xred;

pub use engine_api::{FaultSimEngine, HybridEngine, Sim3Engine, SimConfig, SymbolicEngine};
pub use faults::{Fault, FaultList};
pub use pattern::TestSequence;
pub use report::{BddUsage, Detection, FaultOutcome, SimError, SimOutcome};
