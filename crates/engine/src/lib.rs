//! `motsim-engine` — sharded parallel fault simulation with a
//! deterministic merge.
//!
//! Stuck-at fault simulation is embarrassingly parallel across *faults*:
//! each faulty machine evolves independently of every other, and only the
//! fault-free reference is shared. This crate exploits that along the axis
//! the BDD layer allows — the [`motsim_bdd`] manager is deliberately
//! `!Send`/`!Sync` (see DESIGN.md), so instead of sharing one manager the
//! engine gives every *work unit* a fresh one:
//!
//! 1. a [`FaultPartitioner`] shards the collapsed fault list into
//!    [`WorkUnit`]s, either [round-robin](PartitionPolicy::RoundRobin) or
//!    [cost-balanced](PartitionPolicy::CostBalanced) by fanout-cone size;
//! 2. a pool of `jobs` workers pulls units from a shared queue; each unit
//!    runs the chosen engine ([`EngineKind`]) in a fresh manager, with the
//!    fault-independent MOT factors `E_j(x, y)` rebuilt per unit;
//! 3. a reducer orders the per-unit [`SimOutcome`](motsim::SimOutcome)s by
//!    unit id and merges them into one outcome sorted by fault id.
//!
//! Because the partition plan does not depend on the worker count and every
//! unit starts from a fresh manager, the merged result is **byte-identical
//! for every `jobs` value** — including [`EngineKind::Hybrid`] runs, whose
//! node-limit fallbacks are confined to the unit that triggered them.
//!
//! The same discipline extends to telemetry: [`run_traced`] records each
//! unit's [`motsim_trace::TraceEvent`]s into a private buffer and replays
//! the buffers in unit-id order into the caller's sink, so the merged
//! JSONL stream is also byte-identical for every worker count. Each unit
//! runs through the unified [`motsim::engine_api`], so shards emit exactly
//! the events a direct [`FaultSimEngine::run`](motsim::FaultSimEngine::run)
//! call would.
//!
//! # Example
//!
//! ```
//! use motsim::symbolic::Strategy;
//! use motsim::{Fault, FaultList, TestSequence};
//! use motsim_engine::{run, EngineKind, Job};
//!
//! let circuit = motsim_circuits::s27();
//! let faults: Vec<Fault> = FaultList::collapsed(&circuit).into_iter().collect();
//! let seq = TestSequence::random(&circuit, 30, 1);
//! let job = Job::new(&circuit, &seq, &faults, EngineKind::Symbolic(Strategy::Mot)).jobs(2);
//! let result = run(&job).unwrap();
//! assert_eq!(result.outcome.results.len(), faults.len());
//! ```

#![warn(missing_docs)]

mod job;
mod partition;
mod xred;

pub use job::{run, run_traced, EngineError, EngineKind, Job, JobResult};
pub use partition::{default_units, FaultPartitioner, PartitionPolicy, WorkUnit};
pub use xred::xred_partition;
