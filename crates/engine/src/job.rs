//! The batch job API: a worker pool over work units with a deterministic
//! reducer.
//!
//! Each worker owns its shard executions completely: for every
//! [`WorkUnit`](crate::WorkUnit) it pops from the shared queue it builds a
//! *fresh* BDD manager (the managers are deliberately `!Send`, so they can
//! never be shared), computes the fault-independent MOT factors for its own
//! frames, and simulates only the unit's faults. Results flow back over an
//! `mpsc` channel tagged with the unit id; the reducer sorts by unit id and
//! merges with [`SimOutcome::merge`], so the final outcome is identical to
//! the sequential run for any worker count.
//!
//! Trace streams obey the same discipline: [`run_traced`] records every
//! unit's [`TraceEvent`]s into a private per-unit buffer and replays the
//! buffers in unit-id order, so the merged stream is byte-identical for
//! every worker count too.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use motsim::engine_api::{FaultSimEngine, HybridEngine, Sim3Engine, SimConfig, SymbolicEngine};
use motsim::hybrid::HybridConfig;
use motsim::sim3::Trajectory;
use motsim::symbolic::Strategy;
use motsim::{Fault, SimError, SimOutcome, TestSequence};
use motsim_netlist::Netlist;
use motsim_trace::{CollectSink, NullSink, TraceEvent, TraceSink};

use crate::partition::{default_units, FaultPartitioner, PartitionPolicy, WorkUnit};

/// Which fault-simulation engine a [`Job`] runs over its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Three-valued (pessimistic SOT) simulation.
    Sim3,
    /// Exact symbolic simulation under the given observation strategy.
    Symbolic(Strategy),
    /// Symbolic with three-valued fallback under a live-node limit.
    Hybrid(Strategy, HybridConfig),
}

/// A batch fault-simulation job.
///
/// Construct with [`Job::new`], tune with the builder-style setters, then
/// execute with [`run`] or [`run_traced`].
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// The circuit under test.
    pub netlist: &'a Netlist,
    /// The input sequence applied to every machine.
    pub seq: &'a TestSequence,
    /// The faults to grade (typically the collapsed list).
    pub faults: &'a [Fault],
    /// The engine to run over each shard.
    pub engine: EngineKind,
    /// Worker threads. Clamped to `[1, #units]`; does **not** affect the
    /// result, only wall-clock time.
    pub jobs: usize,
    /// How faults are assigned to units.
    pub policy: PartitionPolicy,
    /// Work-unit count override; `None` uses [`default_units`].
    pub units: Option<usize>,
}

impl<'a> Job<'a> {
    /// A single-threaded, cost-balanced job with default unit count.
    pub fn new(
        netlist: &'a Netlist,
        seq: &'a TestSequence,
        faults: &'a [Fault],
        engine: EngineKind,
    ) -> Self {
        Job {
            netlist,
            seq,
            faults,
            engine,
            jobs: 1,
            policy: PartitionPolicy::default(),
            units: None,
        }
    }

    /// Sets the worker-thread count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the partition policy.
    pub fn policy(mut self, policy: PartitionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Fixes the work-unit count instead of [`default_units`].
    pub fn units(mut self, units: usize) -> Self {
        self.units = Some(units);
        self
    }
}

/// Outcome of a [`Job`], with execution metadata.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The merged outcome, sorted by fault id — identical to what the
    /// underlying engine produces sequentially over the whole fault list.
    /// Its [`bdd`](SimOutcome::bdd) field aggregates the node-budget
    /// accounting of every per-unit manager (peak takes the max across
    /// shards, counters sum); since each unit runs deterministically in its
    /// own manager and the merge is unit-id ordered, the aggregate is also
    /// byte-identical for every worker count
    /// (for [`EngineKind::Hybrid`] see the per-shard caveat in DESIGN.md §8).
    pub outcome: SimOutcome,
    /// Work units executed.
    pub units: usize,
    /// Worker threads actually used (after clamping).
    pub workers: usize,
    /// Wall-clock time of the partition + simulate + reduce pipeline.
    pub elapsed: Duration,
}

/// The engine layer's error: a shard's [`SimError`], tagged with the
/// failing work unit.
///
/// Reported for the *lowest-id* failing unit (all units still run), so the
/// error is as deterministic as the success path. No [`EngineKind`] makes a
/// unit fail today: symbolic units run without a node limit, and hybrid
/// units absorb theirs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// The work unit whose shard failed, if the failure happened inside
    /// the worker pool (`None` for job-level failures, e.g. a config
    /// rejected before partitioning).
    pub unit: Option<usize>,
    /// The underlying simulation error.
    pub source: SimError,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.unit {
            Some(unit) => write!(f, "work unit {unit}: {}", self.source),
            None => self.source.fmt(f),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl From<SimError> for EngineError {
    fn from(source: SimError) -> Self {
        EngineError { unit: None, source }
    }
}

/// Runs `job` to completion without tracing. See [`run_traced`].
///
/// # Errors
///
/// Fails with [`EngineError`] as [`run_traced`] does.
pub fn run(job: &Job) -> Result<JobResult, EngineError> {
    run_traced(job, &mut NullSink)
}

/// Runs `job` to completion, replaying every shard's trace into `sink`.
///
/// The fault list is partitioned into work units (count independent of
/// `job.jobs`), the units are executed by `job.jobs` workers pulling from a
/// shared queue — each unit in a fresh BDD manager; the units of an
/// [`EngineKind::Sim3`] job read one fault-free trajectory, simulated once
/// before the workers start — and the per-unit
/// outcomes are merged in unit-id order into one [`SimOutcome`] sorted by
/// fault. The merged result is byte-identical for every worker count.
///
/// When `sink` is enabled, each worker records its unit's [`TraceEvent`]s
/// into a private buffer; after all units finish, the reducer replays the
/// buffers in unit-id order, bracketing each with
/// [`UnitStart`](TraceEvent::UnitStart) / [`UnitEnd`](TraceEvent::UnitEnd)
/// (the per-unit engine's `run_start`/`run_end` appear inside the
/// bracket). Events carry no worker indices and no timestamps, so the
/// merged stream — like the merged outcome — is byte-identical for every
/// worker count. A disabled sink (e.g. [`NullSink`]) skips all buffering.
///
/// # Errors
///
/// Fails with [`EngineError`] if the engine configuration is invalid
/// (checked once, before partitioning, with [`EngineError::unit`] `None`
/// and no trace events), or if a shard's engine fails, which no
/// [`EngineKind`] does today (see [`EngineError`]). In the second case all
/// units still run and their traces are still replayed; the lowest-id
/// failure is reported.
pub fn run_traced(job: &Job, sink: &mut dyn TraceSink) -> Result<JobResult, EngineError> {
    let start = Instant::now();
    unit_config(job.engine).validate(matches!(job.engine, EngineKind::Hybrid(..)))?;
    let units = job.units.unwrap_or_else(|| default_units(job.faults.len()));
    let plan = FaultPartitioner::new(job.netlist, job.policy).partition(job.faults, units);
    let n_units = plan.len();
    let workers = job.jobs.clamp(1, n_units.max(1));
    let tracing = sink.enabled();
    // Shard sizes by unit id, for the `unit_start` events the reducer emits.
    let mut unit_faults = vec![0usize; n_units];
    for unit in &plan {
        unit_faults[unit.id] = unit.faults.len();
    }

    // Three-valued units share one read-only fault-free trajectory.
    let trajectory = match job.engine {
        EngineKind::Sim3 if n_units > 0 => Some(Trajectory::new(job.netlist, job.seq)),
        _ => None,
    };
    let trajectory = trajectory.as_ref();

    let queue: Mutex<VecDeque<WorkUnit>> = Mutex::new(plan.into());
    type Part = (usize, Result<SimOutcome, SimError>, Vec<TraceEvent>);
    let (tx, rx) = mpsc::channel::<Part>();

    let mut parts: Vec<Part> = Vec::with_capacity(n_units);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            s.spawn(move || loop {
                let unit = queue.lock().expect("queue poisoned").pop_front();
                let Some(unit) = unit else { break };
                let mut collect = CollectSink::new();
                let mut null = NullSink;
                let unit_sink: &mut dyn TraceSink = if tracing { &mut collect } else { &mut null };
                let result = run_unit(job, trajectory, &unit.faults, unit_sink);
                if tx.send((unit.id, result, collect.into_events())).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Drain while workers run; the scope joins them afterwards.
        for part in rx {
            parts.push(part);
        }
    });

    parts.sort_by_key(|(id, _, _)| *id);
    let mut outcomes = Vec::with_capacity(parts.len());
    let mut failed: Option<EngineError> = None;
    for (unit, result, events) in parts {
        if tracing {
            sink.event(&TraceEvent::UnitStart {
                unit,
                faults: unit_faults[unit],
            });
            for event in &events {
                sink.event(event);
            }
            sink.event(&TraceEvent::UnitEnd {
                unit,
                detected: result.as_ref().map(SimOutcome::num_detected).unwrap_or(0),
            });
        }
        match result {
            Ok(outcome) => outcomes.push(outcome),
            Err(source) => {
                // Keep replaying later units' traces, but report the
                // lowest-id failure.
                if failed.is_none() {
                    failed = Some(EngineError {
                        unit: Some(unit),
                        source,
                    });
                }
            }
        }
    }
    if let Some(err) = failed {
        return Err(err);
    }
    let mut outcome = SimOutcome::merge(outcomes);
    // An empty plan still reports the sequence length it (vacuously) ran.
    outcome.frames = job.seq.len();
    Ok(JobResult {
        outcome,
        units: n_units,
        workers,
        elapsed: start.elapsed(),
    })
}

/// The engine configuration every unit of a job runs under, before its
/// trace sink is attached.
fn unit_config(engine: EngineKind) -> SimConfig<'static> {
    match engine {
        EngineKind::Sim3 => SimConfig::new(),
        EngineKind::Symbolic(strategy) => SimConfig::new().strategy(strategy),
        EngineKind::Hybrid(strategy, config) => SimConfig::new()
            .strategy(strategy)
            .node_limit(Some(config.node_limit))
            .fallback_frames(config.fallback_frames)
            .reorder(config.reorder),
    }
}

/// Simulates one shard through the unified [`engine_api`](motsim::engine_api),
/// in a fresh engine instance (fresh BDD manager for the symbolic engines —
/// the fault-independent MOT factors `E_j(x, y)` are recomputed per shard,
/// which is the price of manager isolation). A three-valued shard reads
/// the job's shared fault-free `trajectory`.
fn run_unit(
    job: &Job,
    trajectory: Option<&Trajectory>,
    faults: &[Fault],
    sink: &mut dyn TraceSink,
) -> Result<SimOutcome, SimError> {
    let config = unit_config(job.engine).sink(sink);
    match job.engine {
        EngineKind::Sim3 => Sim3Engine.run_on(
            job.netlist,
            trajectory.expect("built for three-valued jobs"),
            faults,
            config,
        ),
        EngineKind::Symbolic(_) => SymbolicEngine.run(job.netlist, job.seq, faults, config),
        EngineKind::Hybrid(..) => HybridEngine.run(job.netlist, job.seq, faults, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motsim::sim3::FaultSim3;
    use motsim::FaultList;

    fn setup(bits: usize) -> (Netlist, Vec<Fault>, TestSequence) {
        let n = motsim_circuits::generators::counter(bits);
        let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
        let seq = TestSequence::random(&n, 30, 11);
        (n, faults, seq)
    }

    #[test]
    fn empty_fault_list_runs() {
        let (n, _, seq) = setup(4);
        let r = run(&Job::new(&n, &seq, &[], EngineKind::Sim3).jobs(4)).unwrap();
        assert_eq!(r.units, 0);
        assert!(r.outcome.results.is_empty());
        assert_eq!(r.outcome.frames, seq.len());
    }

    #[test]
    fn matches_direct_sim3() {
        let (n, faults, seq) = setup(6);
        let direct = FaultSim3::run(&n, &seq, faults.iter().copied());
        let r = run(&Job::new(&n, &seq, &faults, EngineKind::Sim3).jobs(3)).unwrap();
        assert_eq!(r.outcome.results, direct.results);
    }

    /// Units share one read-only fault-free trajectory and never disturb
    /// each other: every unit and worker count gives the direct run's
    /// verdicts, detection frame and output included.
    #[test]
    fn sim3_results_are_invariant_under_units_and_jobs() {
        for name in ["g526", "g1423"] {
            let n = motsim_circuits::suite::by_name(name).unwrap();
            let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
            let seq = TestSequence::random(&n, 100, 5);
            let direct = FaultSim3::run(&n, &seq, faults.iter().copied());
            assert!(direct.num_detected() > 0, "{name}");
            for units in [1, 5, 64] {
                for jobs in [1, 3] {
                    let job = Job::new(&n, &seq, &faults, EngineKind::Sim3)
                        .units(units)
                        .jobs(jobs);
                    let r = run(&job).unwrap();
                    assert_eq!(
                        r.outcome.results, direct.results,
                        "{name}: {units} unit(s), {jobs} job(s)"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_events_cover_all_units_in_id_order() {
        let (n, faults, seq) = setup(6);
        let mut sink = CollectSink::new();
        let r = run_traced(
            &Job::new(&n, &seq, &faults, EngineKind::Sim3)
                .jobs(2)
                .units(5),
            &mut sink,
        )
        .unwrap();
        assert_eq!(r.units, 5);
        let started: Vec<usize> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::UnitStart { unit, .. } => Some(*unit),
                _ => None,
            })
            .collect();
        let ended: Vec<usize> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::UnitEnd { unit, .. } => Some(*unit),
                _ => None,
            })
            .collect();
        // Unlike the wall-clock Progress stream, the replayed trace is in
        // unit-id order without sorting.
        assert_eq!(started, vec![0, 1, 2, 3, 4]);
        assert_eq!(ended, started);
        // Each unit's bracket contains its engine run and every frame.
        let runs = sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::RunStart { .. }))
            .count();
        let tv = sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::TvFrame { .. }))
            .count();
        assert_eq!(runs, 5);
        assert_eq!(tv, 5 * seq.len());
        // The per-unit detections sum to the merged outcome's.
        let detected: usize = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::UnitEnd { detected, .. } => Some(*detected),
                _ => None,
            })
            .sum();
        assert_eq!(detected, r.outcome.num_detected());
    }

    #[test]
    fn merged_trace_is_worker_count_invariant() {
        let (n, faults, seq) = setup(6);
        let config = motsim::hybrid::HybridConfig {
            node_limit: 400,
            ..Default::default()
        };
        let trace_with = |jobs: usize| {
            let mut sink = CollectSink::new();
            let job = Job::new(&n, &seq, &faults, EngineKind::Hybrid(Strategy::Mot, config))
                .jobs(jobs)
                .units(4);
            run_traced(&job, &mut sink).unwrap();
            sink.to_jsonl()
        };
        let a = trace_with(1);
        let b = trace_with(4);
        assert!(!a.is_empty());
        assert_eq!(a, b, "merged JSONL must not depend on the worker count");
    }

    /// No [`EngineKind`] puts a node limit on a symbolic unit: a MOT job on
    /// a 12-bit counter, which `SymbolicEngine` rejects at a 200-node
    /// limit, succeeds with the same outcome for any worker count.
    #[test]
    fn symbolic_units_run_without_a_node_limit() {
        let (n, faults, seq) = setup(12);
        let job = Job::new(&n, &seq, &faults, EngineKind::Symbolic(Strategy::Mot)).units(4);
        let outcome = |jobs: usize| run(&job.jobs(jobs)).expect("no node limit").outcome;
        assert_eq!(outcome(1), outcome(4));
    }

    #[test]
    fn bdd_usage_flows_through_merge_deterministically() {
        // Symbolic shards each run their own manager; the merged outcome
        // must carry their aggregated node-budget accounting, and the
        // aggregate must not depend on the worker count.
        let (n, faults, seq) = setup(6);
        let job = EngineKind::Hybrid(Strategy::Mot, motsim::hybrid::HybridConfig::default());
        let run_with = |jobs: usize| {
            run(&Job::new(&n, &seq, &faults, job).jobs(jobs).units(4))
                .unwrap()
                .outcome
        };
        let a = run_with(1);
        let b = run_with(4);
        assert!(a.bdd.peak_live_nodes > 0, "symbolic run must report usage");
        assert!(a.bdd.unique_lookups > 0);
        assert_eq!(a.bdd, b.bdd, "usage must be worker-count invariant");
        // Three-valued runs report zero usage.
        let tv = run(&Job::new(&n, &seq, &faults, EngineKind::Sim3).jobs(2))
            .unwrap()
            .outcome;
        assert_eq!(tv.bdd, motsim::report::BddUsage::default());
    }

    /// An invalid hybrid configuration is a job-level error, whether or not
    /// there are faults to partition, and leaves no trace.
    #[test]
    fn invalid_hybrid_config_fails_before_partitioning() {
        let (n, faults, seq) = setup(4);
        let bad = [
            HybridConfig {
                node_limit: 0,
                ..HybridConfig::default()
            },
            HybridConfig {
                fallback_frames: 0,
                ..HybridConfig::default()
            },
        ];
        for config in bad {
            for faults in [&[][..], &faults[..]] {
                let job = Job::new(&n, &seq, faults, EngineKind::Hybrid(Strategy::Mot, config))
                    .jobs(2)
                    .units(3);
                let mut sink = CollectSink::new();
                let err = run_traced(&job, &mut sink).unwrap_err();
                assert_eq!(err.unit, None, "{config:?}, {} fault(s)", faults.len());
                assert!(
                    matches!(err.source, SimError::Config(_)),
                    "{config:?}: {err}"
                );
                assert!(sink.events().is_empty(), "{config:?}");
            }
        }
    }

    #[test]
    fn workers_clamped_to_units() {
        let (n, faults, seq) = setup(4);
        let r = run(&Job::new(&n, &seq, &faults, EngineKind::Sim3)
            .jobs(64)
            .units(2))
        .unwrap();
        assert_eq!(r.workers, 2);
        assert_eq!(r.units, 2);
    }
}
