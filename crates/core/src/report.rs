//! Shared result types for fault-simulation runs.

use std::fmt;

use crate::faults::Fault;
use motsim_bdd::{BddError, BddStats};

/// The one error type every fault-simulation engine surfaces (through
/// [`crate::engine_api::FaultSimEngine::run`]).
///
/// The two variants separate the two ways a run can fail: the *manager*
/// refused to grow ([`SimError::Bdd`] — retry hybrid, raise the limit) or
/// the *configuration* never made sense ([`SimError::Config`] — fix the
/// caller). `motsim-engine`'s `EngineError` is a plain `From` lift of this
/// type that adds the failing work-unit id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The underlying BDD manager failed — in practice always a live-node
    /// limit hit by a pure symbolic run (the hybrid engine absorbs limits).
    Bdd(BddError),
    /// The simulation configuration is invalid (e.g. a node limit of 0, or
    /// zero fallback frames for a hybrid run).
    Config(String),
    /// The circuit's state space exceeds what the engine can enumerate
    /// (the exhaustive oracle is `O(2^m)` in the flip-flop count `m`).
    StateSpace {
        /// Flip-flops in the offending circuit.
        dffs: usize,
        /// The configured enumeration bound.
        max_dffs: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Bdd(e) => write!(f, "{e}"),
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::StateSpace { dffs, max_dffs } => write!(
                f,
                "circuit has {dffs} flip-flops but the exhaustive oracle is \
                 bounded at {max_dffs}"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Bdd(e) => Some(e),
            SimError::Config(_) | SimError::StateSpace { .. } => None,
        }
    }
}

impl From<BddError> for SimError {
    fn from(e: BddError) -> Self {
        SimError::Bdd(e)
    }
}

/// Aggregated BDD-manager usage of a simulation run.
///
/// Pure three-valued runs report all-zero usage. For sharded runs the
/// per-shard usage is combined with [`BddUsage::absorb`]: since every shard
/// runs its own manager deterministically, the aggregate is byte-identical
/// for any worker count (the PR 1 determinism guarantee extends to these
/// counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddUsage {
    /// Maximum live-node count any manager reached (the quantity the
    /// paper's 30,000-node space limit bounds). With complement edges a
    /// function/negation pair counts once.
    pub peak_live_nodes: usize,
    /// Garbage collections across all managers.
    pub gc_runs: u64,
    /// ITE computed-cache hits.
    pub cache_hits: u64,
    /// ITE computed-cache misses.
    pub cache_misses: u64,
    /// Unique-table lookups.
    pub unique_lookups: u64,
    /// Total unique-table probe steps.
    pub unique_probes: u64,
    /// Sifting passes of dynamic variable reordering.
    pub reorder_runs: u64,
    /// Adjacent-level swaps performed across those passes.
    pub reorder_swaps: u64,
}

impl BddUsage {
    /// Snapshot of one manager's statistics.
    pub fn from_stats(stats: &BddStats) -> Self {
        BddUsage {
            peak_live_nodes: stats.peak_live_nodes,
            gc_runs: stats.gc_runs,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            unique_lookups: stats.unique_lookups,
            unique_probes: stats.unique_probes,
            reorder_runs: stats.reorder_runs,
            reorder_swaps: stats.reorder_swaps,
        }
    }

    /// Combines usage from another manager (or shard): peak takes the
    /// maximum, the counters add up.
    pub fn absorb(&mut self, other: &BddUsage) {
        self.peak_live_nodes = self.peak_live_nodes.max(other.peak_live_nodes);
        self.gc_runs += other.gc_runs;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.unique_lookups += other.unique_lookups;
        self.unique_probes += other.unique_probes;
        self.reorder_runs += other.reorder_runs;
        self.reorder_swaps += other.reorder_swaps;
    }

    /// Computed-cache hit rate in `[0, 1]`, or `None` when no symbolic
    /// work was done.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Average unique-table probe length, or `None` when no symbolic work
    /// was done.
    pub fn avg_probe_len(&self) -> Option<f64> {
        (self.unique_lookups > 0).then(|| self.unique_probes as f64 / self.unique_lookups as f64)
    }
}

/// Where and when a fault was first marked detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// 0-based frame index (the paper's time `t` is `frame + 1`).
    pub frame: usize,
    /// Index of the primary output that exposed the fault, when a single
    /// output is responsible (SOT). For MOT/rMOT detections driven by the
    /// detection function collapsing to **0**, the output of the final
    /// product term is reported.
    pub output: usize,
}

/// Per-fault result of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The simulated fault.
    pub fault: Fault,
    /// `Some` if the fault was detected.
    pub detection: Option<Detection>,
}

/// Result of a fault-simulation run over a test sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimOutcome {
    /// One entry per simulated fault, in input order.
    pub results: Vec<FaultOutcome>,
    /// Number of frames simulated.
    pub frames: usize,
    /// Frames executed in three-valued fallback mode by the hybrid
    /// simulator (0 for pure runs). A non-zero value corresponds to the
    /// asterisk annotations in Tables II/III.
    pub fallback_frames: usize,
    /// Detection-function terms the MOT/rMOT engine had to *skip* because
    /// they exceeded the node limit even after garbage collection. Skipping
    /// a term keeps the run sound (the product only grows) but makes the
    /// result a lower bound — the "less accurate MOT" trade-off of \[13\].
    pub degraded_terms: usize,
    /// BDD-manager usage of the run (all zero for three-valued runs).
    pub bdd: BddUsage,
}

impl SimOutcome {
    /// Number of faults marked detectable.
    pub fn num_detected(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.detection.is_some())
            .count()
    }

    /// Iterates over the detected faults.
    pub fn detected_faults(&self) -> impl Iterator<Item = Fault> + '_ {
        self.results
            .iter()
            .filter(|r| r.detection.is_some())
            .map(|r| r.fault)
    }

    /// Iterates over the undetected faults.
    pub fn undetected_faults(&self) -> impl Iterator<Item = Fault> + '_ {
        self.results
            .iter()
            .filter(|r| r.detection.is_none())
            .map(|r| r.fault)
    }

    /// Fault coverage over the simulated set, in percent.
    pub fn coverage_percent(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        100.0 * self.num_detected() as f64 / self.results.len() as f64
    }

    /// `true` if the run lost accuracy to the node limit — three-valued
    /// fallback frames or skipped detection terms (the tables' asterisk).
    pub fn is_approximate(&self) -> bool {
        self.fallback_frames > 0 || self.degraded_terms > 0
    }

    /// Sorts the per-fault results by fault id (lead, then stuck value).
    ///
    /// Every simulation entry point normalizes its outcome with this, so
    /// sequential and sharded-parallel runs over the same fault set produce
    /// byte-identical result vectors and diff cleanly.
    pub fn sort_by_fault(&mut self) {
        self.results.sort_by_key(|r| r.fault);
    }

    /// Merges per-shard outcomes of the *same* simulation (same circuit,
    /// sequence and configuration, disjoint fault shards) into one.
    ///
    /// The result vectors are concatenated and re-sorted by fault id, so
    /// the merge is deterministic regardless of shard order or count;
    /// `frames` takes the maximum and the accuracy-loss counters
    /// (`fallback_frames`, `degraded_terms`) accumulate across shards.
    pub fn merge(parts: impl IntoIterator<Item = SimOutcome>) -> SimOutcome {
        let mut merged = SimOutcome::default();
        for part in parts {
            merged.results.extend(part.results);
            merged.frames = merged.frames.max(part.frames);
            merged.fallback_frames += part.fallback_frames;
            merged.degraded_terms += part.degraded_terms;
            merged.bdd.absorb(&part.bdd);
        }
        merged.sort_by_fault();
        merged
    }
}

impl fmt::Display for SimOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} faults detected over {} frames{}",
            self.num_detected(),
            self.results.len(),
            self.frames,
            if self.is_approximate() { " (*)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motsim_netlist::Lead;
    use motsim_netlist::NetId;

    fn fake(detected: bool) -> FaultOutcome {
        FaultOutcome {
            fault: Fault::stuck_at_0(Lead::stem(NetId::from_index(0))),
            detection: detected.then_some(Detection {
                frame: 1,
                output: 0,
            }),
        }
    }

    #[test]
    fn counting() {
        let o = SimOutcome {
            results: vec![fake(true), fake(false), fake(true)],
            frames: 10,
            fallback_frames: 0,
            degraded_terms: 0,
            bdd: BddUsage::default(),
        };
        assert_eq!(o.num_detected(), 2);
        assert_eq!(o.detected_faults().count(), 2);
        assert_eq!(o.undetected_faults().count(), 1);
        assert!((o.coverage_percent() - 66.66).abs() < 0.1);
        assert!(!o.is_approximate());
        assert_eq!(o.to_string(), "2/3 faults detected over 10 frames");
    }

    #[test]
    fn approximate_marker() {
        let o = SimOutcome {
            results: vec![fake(true)],
            frames: 5,
            fallback_frames: 2,
            degraded_terms: 0,
            bdd: BddUsage::default(),
        };
        assert!(o.is_approximate());
        assert!(o.to_string().ends_with("(*)"));
    }

    #[test]
    fn bdd_usage_absorbs_and_rates() {
        let mut a = BddUsage {
            peak_live_nodes: 100,
            gc_runs: 1,
            cache_hits: 3,
            cache_misses: 1,
            unique_lookups: 10,
            unique_probes: 15,
            reorder_runs: 1,
            reorder_swaps: 40,
        };
        let b = BddUsage {
            peak_live_nodes: 250,
            gc_runs: 2,
            cache_hits: 1,
            cache_misses: 3,
            unique_lookups: 10,
            unique_probes: 10,
            reorder_runs: 2,
            reorder_swaps: 60,
        };
        a.absorb(&b);
        assert_eq!(a.peak_live_nodes, 250, "peak takes the max");
        assert_eq!(a.gc_runs, 3);
        assert_eq!(a.reorder_runs, 3, "reorder counters add up");
        assert_eq!(a.reorder_swaps, 100);
        assert_eq!(a.cache_hit_rate(), Some(0.5));
        assert_eq!(a.avg_probe_len(), Some(1.25));
        assert_eq!(BddUsage::default().cache_hit_rate(), None);
        assert_eq!(BddUsage::default().avg_probe_len(), None);
    }

    #[test]
    fn empty_outcome() {
        let o = SimOutcome::default();
        assert_eq!(o.coverage_percent(), 0.0);
        assert_eq!(o.num_detected(), 0);
    }

    #[test]
    fn sim_error_wraps_and_displays() {
        let bdd: SimError = BddError::NodeLimit { limit: 30_000 }.into();
        assert_eq!(bdd.to_string(), "live BDD node limit of 30000 exceeded");
        assert!(std::error::Error::source(&bdd).is_some());
        let cfg = SimError::Config("node limit must be at least 1".into());
        assert!(cfg.to_string().starts_with("invalid configuration:"));
        assert!(std::error::Error::source(&cfg).is_none());
    }
}
