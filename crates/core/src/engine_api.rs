//! The unified engine API: one configuration type, one `run` signature,
//! three engines.
//!
//! Every fault-simulation engine in this crate — three-valued
//! ([`Sim3Engine`]), pure symbolic ([`SymbolicEngine`]) and space-limited
//! hybrid ([`HybridEngine`]) — is driven through the same
//! [`FaultSimEngine::run`] call with a builder-style [`SimConfig`]. The
//! config carries the observation [`Strategy`], the node-limit /
//! fallback / reorder knobs, and an optional [`TraceSink`] receiving the
//! run's structured telemetry; the engines differ only in which knobs they
//! honour.
//!
//! ```
//! use motsim::engine_api::{FaultSimEngine, HybridEngine, SimConfig};
//! use motsim::symbolic::Strategy;
//! use motsim::{FaultList, TestSequence};
//!
//! # fn main() -> Result<(), motsim::SimError> {
//! let circuit = motsim_circuits::s27();
//! let faults: Vec<_> = FaultList::collapsed(&circuit).into_iter().collect();
//! let seq = TestSequence::random(&circuit, 40, 7);
//! let outcome = HybridEngine.run(
//!     &circuit,
//!     &seq,
//!     &faults,
//!     SimConfig::new().strategy(Strategy::Mot).node_limit(Some(30_000)),
//! )?;
//! assert_eq!(outcome.frames, 40);
//! # Ok(())
//! # }
//! ```

use motsim_netlist::Netlist;
use motsim_trace::{NullSink, TraceEvent, TraceSink};

use crate::faults::Fault;
use crate::hybrid::{self, HybridConfig, ReorderPolicy};
use crate::pattern::TestSequence;
use crate::report::{SimError, SimOutcome};
use crate::sim3::{self, Trajectory};
use crate::symbolic::{Strategy, SymbolicFaultSim};

/// Builder-style configuration shared by every [`FaultSimEngine`].
///
/// The lifetime parameter carries the optional [`TraceSink`] borrow;
/// configs without a sink are `SimConfig<'static>`. Defaults: MOT, no node
/// limit, 8 fallback frames, no reordering, no tracing.
pub struct SimConfig<'s> {
    strategy: Strategy,
    node_limit: Option<usize>,
    fallback_frames: usize,
    reorder: ReorderPolicy,
    sink: Option<&'s mut dyn TraceSink>,
}

impl Default for SimConfig<'static> {
    fn default() -> Self {
        SimConfig::new()
    }
}

impl SimConfig<'static> {
    /// The default configuration: MOT, no node limit, 8 fallback frames,
    /// no reordering, no tracing.
    pub fn new() -> Self {
        SimConfig {
            strategy: Strategy::Mot,
            node_limit: None,
            fallback_frames: HybridConfig::default().fallback_frames,
            reorder: ReorderPolicy::None,
            sink: None,
        }
    }
}

impl<'s> SimConfig<'s> {
    /// Sets the observation strategy (ignored by [`Sim3Engine`], whose
    /// detection rule is the pessimistic three-valued SOT).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the live-node limit of the BDD manager. `None` (the default)
    /// means unlimited; the paper's experiments use `Some(30_000)`. The
    /// [`SymbolicEngine`] *fails* when the limit is hit, the
    /// [`HybridEngine`] falls back three-valued; [`Sim3Engine`] ignores it.
    pub fn node_limit(mut self, limit: Option<usize>) -> Self {
        self.node_limit = limit;
        self
    }

    /// Sets the number of three-valued frames per hybrid fallback phase
    /// (default 8; only [`HybridEngine`] reads it).
    pub fn fallback_frames(mut self, frames: usize) -> Self {
        self.fallback_frames = frames;
        self
    }

    /// Sets the response to symbolic node-limit pressure (default
    /// [`ReorderPolicy::None`]; only [`HybridEngine`] reads it).
    pub fn reorder(mut self, reorder: ReorderPolicy) -> Self {
        self.reorder = reorder;
        self
    }

    /// Attaches a trace sink receiving the run's [`TraceEvent`]s. The
    /// returned config borrows the sink for the duration of the run.
    pub fn sink(self, sink: &mut dyn TraceSink) -> SimConfig<'_> {
        SimConfig {
            strategy: self.strategy,
            node_limit: self.node_limit,
            fallback_frames: self.fallback_frames,
            reorder: self.reorder,
            sink: Some(sink),
        }
    }

    /// Checks the knob combination an engine is about to honour; `hybrid`
    /// adds the rules only [`HybridEngine`] reads. Every engine runs this
    /// check first, so a caller that fans one config out over many runs
    /// can run it once up front.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::Config`] on a zero node limit, or on zero
    /// fallback frames when `hybrid` is set.
    pub fn validate(&self, hybrid: bool) -> Result<(), SimError> {
        if self.node_limit == Some(0) {
            return Err(SimError::Config(
                "node limit must be at least 1 (use None for unlimited)".into(),
            ));
        }
        if hybrid && self.fallback_frames == 0 {
            return Err(SimError::Config(
                "hybrid fallback needs at least 1 three-valued frame per phase".into(),
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for SimConfig<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("strategy", &self.strategy)
            .field("node_limit", &self.node_limit)
            .field("fallback_frames", &self.fallback_frames)
            .field("reorder", &self.reorder)
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

/// One `run` signature for every engine.
///
/// Implementations bracket the run with [`TraceEvent::RunStart`] /
/// [`TraceEvent::RunEnd`] when the config carries an enabled sink, and
/// return the same [`SimOutcome`] (sorted by fault id) whether or not a
/// sink is attached — tracing never changes a verdict.
pub trait FaultSimEngine {
    /// Simulates `faults` over `seq` on `netlist` under `config`.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::Config`] on an invalid knob combination, or
    /// [`SimError::Bdd`] when a pure symbolic run hits its node limit.
    fn run(
        &self,
        netlist: &Netlist,
        seq: &TestSequence,
        faults: &[Fault],
        config: SimConfig<'_>,
    ) -> Result<SimOutcome, SimError>;
}

/// Runs `body` on the config's sink (or a [`NullSink`]) between a
/// [`TraceEvent::RunStart`] and, if it succeeds, a [`TraceEvent::RunEnd`].
fn bracketed(
    sink: Option<&mut dyn TraceSink>,
    engine: String,
    faults: usize,
    frames: usize,
    body: impl FnOnce(&mut dyn TraceSink) -> Result<SimOutcome, SimError>,
) -> Result<SimOutcome, SimError> {
    let mut null = NullSink;
    let sink = sink.unwrap_or(&mut null);
    if sink.enabled() {
        sink.event(&TraceEvent::RunStart {
            engine,
            faults,
            frames,
        });
    }
    let outcome = body(&mut *sink)?;
    if sink.enabled() {
        sink.event(&TraceEvent::RunEnd {
            detected: outcome.num_detected(),
            fallback_frames: outcome.fallback_frames,
            peak: outcome.bdd.peak_live_nodes,
        });
    }
    Ok(outcome)
}

/// The three-valued engine ([`FaultSim3`](sim3::FaultSim3)): fast, pessimistic, ignores
/// every symbolic knob.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim3Engine;

impl Sim3Engine {
    /// Like [`run`](FaultSimEngine::run) over the sequence `trajectory` was
    /// built from, reading the fault-free machine from the borrowed
    /// `trajectory` instead of simulating it again — so work units of one
    /// job can share it.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::Config`] on an invalid knob combination.
    ///
    /// # Panics
    ///
    /// Panics if `trajectory` was built on a circuit of another net count.
    pub fn run_on(
        &self,
        netlist: &Netlist,
        trajectory: &Trajectory,
        faults: &[Fault],
        config: SimConfig<'_>,
    ) -> Result<SimOutcome, SimError> {
        config.validate(false)?;
        let engine = "sim3".to_string();
        let frames = trajectory.frames();
        bracketed(config.sink, engine, faults.len(), frames, |sink| {
            Ok(sim3::run_on(netlist, trajectory, faults, sink))
        })
    }
}

impl FaultSimEngine for Sim3Engine {
    fn run(
        &self,
        netlist: &Netlist,
        seq: &TestSequence,
        faults: &[Fault],
        config: SimConfig<'_>,
    ) -> Result<SimOutcome, SimError> {
        self.run_on(netlist, &Trajectory::new(netlist, seq), faults, config)
    }
}

/// The exact symbolic engine ([`SymbolicFaultSim`]): honours `strategy`
/// and `node_limit`, but a limit hit is a hard [`SimError::Bdd`] — use
/// [`HybridEngine`] to absorb limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct SymbolicEngine;

impl FaultSimEngine for SymbolicEngine {
    fn run(
        &self,
        netlist: &Netlist,
        seq: &TestSequence,
        faults: &[Fault],
        config: SimConfig<'_>,
    ) -> Result<SimOutcome, SimError> {
        config.validate(false)?;
        let engine = format!("symbolic-{}", config.strategy).to_lowercase();
        bracketed(config.sink, engine, faults.len(), seq.len(), |sink| {
            let mut sim = SymbolicFaultSim::new(netlist, config.strategy);
            sim.set_node_limit(config.node_limit);
            for &f in faults {
                sim.add_fault(f);
            }
            for (t, v) in seq.iter().enumerate() {
                if let Err(e) = sim.step_traced(t, v, sink) {
                    if sink.enabled() {
                        let motsim_bdd::BddError::NodeLimit { limit } = e;
                        sink.event(&TraceEvent::NodeLimit { frame: t, limit });
                    }
                    return Err(e.into());
                }
            }
            Ok(sim.outcome())
        })
    }
}

/// The space-limited hybrid engine, the one way to run the hybrid
/// simulator ([`crate::hybrid`]): honours every knob and never fails on
/// node-limit pressure. An unset `node_limit` defaults to the paper's
/// 30,000.
///
/// Its outcome's [`fallback_frames`](SimOutcome::fallback_frames) counts
/// the frames that ran three-valued (non-zero ⇒ the tables' asterisk; the
/// result is then a sound lower bound rather than the exact strategy
/// coverage). Between [`TraceEvent::RunStart`] and [`TraceEvent::RunEnd`]
/// the trace narrates the run frame by frame: [`TraceEvent::SymFrame`]s,
/// [`TraceEvent::NodeLimit`] hits (each followed by one
/// [`TraceEvent::SiftPass`] under [`ReorderPolicy::Sift`]) and fallback
/// phases bracketed by [`TraceEvent::FallbackEnter`] /
/// [`TraceEvent::FallbackExit`] around their [`TraceEvent::TvFrame`]s. All
/// frame numbers are global to the run, so the exact fallback spans can be
/// reconstructed from the stream; the `frames` fields of the
/// `FallbackExit` events sum to the outcome's `fallback_frames`.
///
/// # Example
///
/// ```
/// use motsim::engine_api::{FaultSimEngine, HybridEngine, SimConfig};
/// use motsim::symbolic::Strategy;
/// use motsim::{FaultList, TestSequence};
///
/// # fn main() -> Result<(), motsim::SimError> {
/// let circuit = motsim_circuits::generators::counter(8);
/// let faults: Vec<_> = FaultList::collapsed(&circuit).into_iter().collect();
/// let seq = TestSequence::random(&circuit, 50, 1);
/// let outcome = HybridEngine.run(
///     &circuit,
///     &seq,
///     &faults,
///     SimConfig::new().strategy(Strategy::Mot),
/// )?;
/// assert_eq!(outcome.frames, 50);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridEngine;

impl FaultSimEngine for HybridEngine {
    fn run(
        &self,
        netlist: &Netlist,
        seq: &TestSequence,
        faults: &[Fault],
        config: SimConfig<'_>,
    ) -> Result<SimOutcome, SimError> {
        config.validate(true)?;
        let hybrid_config = HybridConfig {
            node_limit: config
                .node_limit
                .unwrap_or_else(|| HybridConfig::default().node_limit),
            fallback_frames: config.fallback_frames,
            reorder: config.reorder,
        };
        let engine = format!("hybrid-{}", config.strategy).to_lowercase();
        bracketed(config.sink, engine, faults.len(), seq.len(), |sink| {
            Ok(hybrid::run_traced(
                netlist,
                config.strategy,
                seq,
                faults,
                hybrid_config,
                sink,
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultList;
    use crate::sim3::FaultSim3;
    use motsim_trace::CollectSink;

    fn setup() -> (Netlist, Vec<Fault>, TestSequence) {
        let n = motsim_circuits::s27();
        let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
        let seq = TestSequence::random(&n, 30, 5);
        (n, faults, seq)
    }

    #[test]
    fn engines_agree_with_their_direct_entry_points() {
        let (n, faults, seq) = setup();
        let direct3 = FaultSim3::run(&n, &seq, faults.iter().copied());
        let api3 = Sim3Engine.run(&n, &seq, &faults, SimConfig::new()).unwrap();
        assert_eq!(api3, direct3);

        let direct_sym = SymbolicFaultSim::new(&n, Strategy::Rmot)
            .run(&seq, faults.iter().copied())
            .unwrap();
        let api_sym = SymbolicEngine
            .run(&n, &seq, &faults, SimConfig::new().strategy(Strategy::Rmot))
            .unwrap();
        assert_eq!(api_sym, direct_sym);

        let direct_hyb = hybrid::run_traced(
            &n,
            Strategy::Mot,
            &seq,
            &faults,
            HybridConfig::default(),
            &mut NullSink,
        );
        let api_hyb = HybridEngine
            .run(
                &n,
                &seq,
                &faults,
                SimConfig::new()
                    .strategy(Strategy::Mot)
                    .node_limit(Some(30_000)),
            )
            .unwrap();
        assert_eq!(api_hyb, direct_hyb);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (n, faults, seq) = setup();
        for engine in [&Sim3Engine as &dyn FaultSimEngine, &SymbolicEngine] {
            let err = engine
                .run(&n, &seq, &faults, SimConfig::new().node_limit(Some(0)))
                .unwrap_err();
            assert!(matches!(err, SimError::Config(_)));
        }
        let err = HybridEngine
            .run(&n, &seq, &faults, SimConfig::new().fallback_frames(0))
            .unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    #[test]
    fn symbolic_limit_hit_is_a_bdd_error_with_a_node_limit_event() {
        let n = motsim_circuits::generators::counter(12);
        let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
        let seq = TestSequence::random(&n, 20, 3);
        let mut sink = CollectSink::new();
        let err = SymbolicEngine
            .run(
                &n,
                &seq,
                &faults,
                SimConfig::new().node_limit(Some(200)).sink(&mut sink),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::Bdd(_)));
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::NodeLimit { .. })));
        // A failed run has no run_end.
        assert!(!sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::RunEnd { .. })));
    }

    #[test]
    fn trace_brackets_the_run_and_counts_frames() {
        let (n, faults, seq) = setup();
        let mut sink = CollectSink::new();
        let outcome = Sim3Engine
            .run(&n, &seq, &faults, SimConfig::new().sink(&mut sink))
            .unwrap();
        let events = sink.events();
        assert!(matches!(events.first(), Some(TraceEvent::RunStart { .. })));
        assert!(matches!(events.last(), Some(TraceEvent::RunEnd { .. })));
        let tv = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TvFrame { .. }))
            .count();
        assert_eq!(tv, seq.len());
        let Some(TraceEvent::RunEnd { detected, .. }) = events.last() else {
            unreachable!()
        };
        assert_eq!(*detected, outcome.num_detected());
    }

    #[test]
    fn config_debug_does_not_expose_the_sink() {
        let mut sink = CollectSink::new();
        let cfg = SimConfig::new().sink(&mut sink);
        let dbg = format!("{cfg:?}");
        assert!(dbg.contains("traced: true"), "{dbg}");
    }
}
