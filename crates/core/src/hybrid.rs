//! The hybrid fault simulator: symbolic with three-valued fallback.
//!
//! The symbolic engine is exact but its OBDDs can blow up. Following the
//! paper (and \[8\]), the hybrid simulator runs symbolically under a
//! live-node limit; when an operation would exceed it, the symbolic states
//! are *projected* to three values (constants stay known, everything else
//! becomes `X`), a few frames are simulated with the fast three-valued
//! engine (detecting via the pessimistic SOT rule), and then the symbolic
//! strategy resumes from the projected states — with the detection
//! functions re-initialised to **1**, exactly as Section IV.A prescribes.
//!
//! The projection is an over-approximation of the reachable state sets of
//! both machines, so every fault the hybrid marks detected is genuinely
//! detected; accuracy (not soundness) is what the fallback costs. That is
//! the mechanism behind the paper's s838.1 anomaly, where MOT — whose
//! `(x, y)` BDDs are bigger — falls back more often than rMOT and ends up
//! *less* accurate.
//!
//! A frame falls back iff it does not fit the limit after a full GC: the
//! limit bounds live nodes after a collection. [`SymbolicFaultSim::step`]
//! attempts each frame by the one collection rule of
//! [`SymbolicTrueSim`](crate::symbolic::SymbolicTrueSim), so a frame that
//! cannot fit costs at most one aborted uncollected attempt, one GC and one
//! collected attempt before the fallback begins. The sifting retry of
//! [`ReorderPolicy::Sift`] starts from the collected arena the pass leaves
//! behind.
//!
//! The driver is crate-private: [`HybridEngine`](crate::engine_api::HybridEngine)
//! is the one way to run it, configured through
//! [`SimConfig`](crate::engine_api::SimConfig) or, for the parallel engine,
//! a [`HybridConfig`]. The driver owns the run's frame clock. Both fault
//! simulators count their detections from their own first step and number
//! their trace frames as the driver tells them.

use std::collections::HashMap;

use motsim_bdd::BddError;
use motsim_logic::V3;
use motsim_netlist::Netlist;
use motsim_trace::{TraceEvent, TraceSink};

use crate::faults::Fault;
use crate::pattern::TestSequence;
use crate::report::{BddUsage, Detection, FaultOutcome, SimOutcome};
use crate::sim3::FaultSim3;
use crate::symbolic::{Strategy, SymbolicFaultSim};

/// Response to symbolic node-limit pressure, tried *before* the lossy
/// three-valued fallback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReorderPolicy {
    /// Fall back three-valued immediately (the paper's only option: its
    /// package had a fixed variable order).
    #[default]
    None,
    /// Run one sifting pass of dynamic variable reordering
    /// ([`SymbolicFaultSim::reorder_sift`]) and retry the frame; fall back
    /// only if the reordered graph still exceeds the limit. Keeps the run
    /// exact whenever a better order exists, at some reordering cost.
    Sift,
}

/// Configuration of the hybrid simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridConfig {
    /// Live-node limit of the symbolic phases (the paper uses 30,000).
    pub node_limit: usize,
    /// Number of three-valued frames per fallback ("a few simulation
    /// steps" in the paper).
    pub fallback_frames: usize,
    /// What to try when a symbolic step hits the node limit.
    pub reorder: ReorderPolicy,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            node_limit: 30_000,
            fallback_frames: 8,
            reorder: ReorderPolicy::None,
        }
    }
}

/// Projected three-valued states carried between hybrid phases.
type Carry = (Vec<V3>, Vec<(Fault, Vec<V3>)>);

/// Folds a phase's newly detected faults into the run's `detections`. Both
/// fault simulators count a detection's frame from the phase's first step,
/// so the run's frame is `phase_start + d.frame`; the earliest one wins.
fn fold(
    detections: &mut HashMap<Fault, Detection>,
    phase_start: usize,
    newly: Vec<(Fault, Detection)>,
) {
    for (fault, d) in newly {
        detections.entry(fault).or_insert(Detection {
            frame: phase_start + d.frame,
            output: d.output,
        });
    }
}

/// Runs the hybrid simulation of `faults` over `seq` under `strategy`,
/// reporting runtime telemetry to `sink`: the driver behind
/// [`HybridEngine`](crate::engine_api::HybridEngine), whose docs give the
/// outcome and trace contract. With a
/// [`NullSink`](motsim_trace::NullSink) the run does no trace work at all.
///
/// The driver owns the run's frame clock `t`: it hands each step its
/// global frame number for the trace, and folds every phase's detections,
/// which count from that phase's start, with one rule ([`fold`]).
pub(crate) fn run_traced(
    netlist: &Netlist,
    strategy: Strategy,
    seq: &TestSequence,
    faults: &[Fault],
    config: HybridConfig,
    sink: &mut dyn TraceSink,
) -> SimOutcome {
    let mut detections: HashMap<Fault, Detection> = HashMap::new();

    let mut t = 0usize;
    let mut fallback_total = 0usize;
    let mut degraded_total = 0usize;
    let mut bdd_total = BddUsage::default();
    let mut zero_progress_phases = 0usize;
    // `None` marks the virgin all-unknown state at t = 0 (fresh variables
    // encode it exactly); `Some` carries projected states between phases.
    let mut carry: Option<Carry> = None;

    while t < seq.len() {
        // ---- Symbolic phase ----
        let mut sym = SymbolicFaultSim::new(netlist, strategy);
        sym.set_node_limit(Some(config.node_limit));
        match &carry {
            None => {
                for &f in faults {
                    sym.add_fault(f);
                }
            }
            Some((true_v3, faulty_v3)) => {
                sym.seed_true_state(true_v3);
                // A fault whose verdict is already in is dropped for good:
                // re-simulating it would cost BDD nodes (extra limit
                // pressure) and could only re-detect at a later frame.
                for (f, st) in faulty_v3 {
                    if !detections.contains_key(f) {
                        sym.add_fault_with_state(*f, st);
                    }
                }
            }
        }
        let phase_start = t;
        while t < seq.len() {
            let mut step = sym.step_traced(t, seq.vector(t), sink);
            if let Err(BddError::NodeLimit { limit }) = step {
                if sink.enabled() {
                    sink.event(&TraceEvent::NodeLimit { frame: t, limit });
                }
                if config.reorder == ReorderPolicy::Sift {
                    // Reorder-before-fallback: one sifting pass, then retry
                    // the frame once. Only if the reordered graph still
                    // cannot fit does the phase end (and the lossy
                    // projection begin).
                    sym.reorder_sift_traced(sink);
                    step = sym.step_traced(t, seq.vector(t), sink);
                }
            }
            match step {
                Ok(newly) => {
                    fold(&mut detections, phase_start, newly);
                    t += 1;
                }
                Err(BddError::NodeLimit { .. }) => break,
            }
        }
        bdd_total.absorb(&BddUsage::from_stats(&sym.manager().stats()));
        degraded_total += sym.degraded_terms();
        if t >= seq.len() {
            break;
        }

        // ---- Three-valued fallback phase ----
        let true_v3 = sym.true_state_v3();
        let faulty_v3 = sym.faulty_states_v3();
        drop(sym);
        // Track symbolic phases that made no progress at all. A few are
        // tolerated (a later, better-synchronized state may fit the limit);
        // a persistent pattern means the limit is simply too small for this
        // circuit, and the remainder runs three-valued.
        if t == phase_start && carry.is_some() {
            zero_progress_phases += 1;
        } else {
            zero_progress_phases = 0;
        }
        let frames_here = if zero_progress_phases >= 4 {
            seq.len() - t
        } else {
            config.fallback_frames.min(seq.len() - t)
        };
        if sink.enabled() {
            sink.event(&TraceEvent::FallbackEnter { frame: t });
        }
        let fallback_start = t;
        let mut tv = FaultSim3::with_states(netlist, &true_v3, faulty_v3);
        for _ in 0..frames_here {
            let newly = tv.step_traced(t, seq.vector(t), sink);
            fold(&mut detections, fallback_start, newly);
            t += 1;
        }
        if sink.enabled() {
            sink.event(&TraceEvent::FallbackExit {
                frame: t,
                frames: t - fallback_start,
            });
        }
        fallback_total += frames_here;
        carry = Some((tv.true_state().to_vec(), tv.faulty_states()));
    }

    let mut outcome = SimOutcome {
        results: faults
            .iter()
            .map(|&fault| FaultOutcome {
                fault,
                detection: detections.get(&fault).copied(),
            })
            .collect(),
        frames: seq.len(),
        fallback_frames: fallback_total,
        degraded_terms: degraded_total,
        bdd: bdd_total,
    };
    outcome.sort_by_fault();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultList;
    use crate::symbolic::SymbolicFaultSim;
    use motsim_trace::NullSink;

    /// Untraced entry point for the tests below.
    fn hybrid_run(
        netlist: &Netlist,
        strategy: Strategy,
        seq: &TestSequence,
        faults: impl IntoIterator<Item = Fault>,
        config: HybridConfig,
    ) -> SimOutcome {
        let faults: Vec<Fault> = faults.into_iter().collect();
        run_traced(netlist, strategy, seq, &faults, config, &mut NullSink)
    }

    #[test]
    fn unlimited_hybrid_equals_pure_symbolic() {
        let n = motsim_circuits::s27();
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 40, 9);
        for strategy in Strategy::ALL {
            let pure = SymbolicFaultSim::new(&n, strategy)
                .run(&seq, faults.iter().cloned())
                .unwrap();
            let hyb = hybrid_run(
                &n,
                strategy,
                &seq,
                faults.iter().cloned(),
                HybridConfig {
                    node_limit: 1_000_000,
                    fallback_frames: 4,
                    ..Default::default()
                },
            );
            assert_eq!(hyb.fallback_frames, 0, "{strategy} should not fall back");
            for (a, b) in pure.results.iter().zip(&hyb.results) {
                assert_eq!(a.fault, b.fault);
                // Full equality — frame *and* output — not just the verdict:
                // the hybrid's accounting must be byte-identical to the pure
                // engine whenever no fallback distorts the run.
                assert_eq!(
                    a.detection,
                    b.detection,
                    "{strategy} differs on {}",
                    a.fault.display(&n)
                );
            }
        }
    }

    #[test]
    fn tight_limit_forces_fallback_but_terminates() {
        let n = motsim_circuits::generators::counter(10);
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 40, 4);
        let out = hybrid_run(
            &n,
            Strategy::Mot,
            &seq,
            faults.iter().cloned(),
            HybridConfig {
                node_limit: 200,
                fallback_frames: 5,
                ..Default::default()
            },
        );
        assert_eq!(out.frames, 40);
        assert!(out.fallback_frames > 0, "tiny limit must force fallback");
        assert!(out.is_approximate());
    }

    #[test]
    fn hybrid_detections_are_sound() {
        // Everything the limited hybrid detects must also be detected by
        // the exact (unlimited) engine of the same strategy.
        let n = motsim_circuits::generators::counter(6);
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 30, 14);
        let exact = SymbolicFaultSim::new(&n, Strategy::Mot)
            .run(&seq, faults.iter().cloned())
            .unwrap();
        let exact_set: std::collections::HashSet<Fault> = exact.detected_faults().collect();
        let hyb = hybrid_run(
            &n,
            Strategy::Mot,
            &seq,
            faults.iter().cloned(),
            HybridConfig {
                node_limit: 400,
                fallback_frames: 3,
                ..Default::default()
            },
        );
        for f in hyb.detected_faults() {
            assert!(
                exact_set.contains(&f),
                "hybrid claims {} but exact MOT disagrees",
                f.display(&n)
            );
        }
    }

    #[test]
    fn hybrid_at_least_three_valued() {
        // The hybrid can only be more accurate than pure three-valued
        // simulation (its fallback *is* three-valued simulation).
        let n = motsim_circuits::generators::counter(8);
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 40, 2);
        let three = FaultSim3::run(&n, &seq, faults.iter().cloned());
        let hyb = hybrid_run(
            &n,
            Strategy::Rmot,
            &seq,
            faults.iter().cloned(),
            HybridConfig {
                node_limit: 2_000,
                fallback_frames: 4,
                ..Default::default()
            },
        );
        assert!(hyb.num_detected() >= three.num_detected());
    }

    #[test]
    fn starved_hybrid_matches_three_valued_exactly() {
        // Regression test for the first-detection accounting fixes. A node
        // limit of 1 starves every symbolic phase, so the whole run
        // degenerates to three-valued fallback frames and the outcome must
        // equal a plain `FaultSim3::run` — same verdicts, same frames and,
        // crucially, the *same output indices*. g344 has eleven outputs and
        // most of its first detections land on an output other than 0, so
        // this fails loudly if fallback detections ever hardcode the output
        // index or shift frames across phase boundaries again.
        let n = motsim_circuits::suite::by_name("g344").unwrap();
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 40, 11);
        let three = FaultSim3::run(&n, &seq, faults.iter().cloned());
        let hyb = hybrid_run(
            &n,
            Strategy::Mot,
            &seq,
            faults.iter().cloned(),
            HybridConfig {
                node_limit: 1,
                fallback_frames: 4,
                ..Default::default()
            },
        );
        assert_eq!(hyb.fallback_frames, seq.len(), "no symbolic frame can fit");
        assert!(three
            .results
            .iter()
            .any(|r| r.detection.is_some_and(|d| d.output != 0)));
        for (a, b) in three.results.iter().zip(&hyb.results) {
            assert_eq!(a.fault, b.fault);
            assert_eq!(
                a.detection,
                b.detection,
                "starved hybrid diverges from three-valued on {}",
                a.fault.display(&n)
            );
        }
    }

    #[test]
    fn hybrid_detection_frames_never_predate_pure_symbolic() {
        // Cross-phase frame accounting: the projection between phases only
        // *loses* information (state sets grow, MOT observations reset), so
        // a limited hybrid may detect a fault later than the exact engine —
        // never earlier. An earlier frame would mean a stale or overwritten
        // first-detection record.
        let n = motsim_circuits::suite::by_name("g208").unwrap();
        let faults = FaultList::collapsed(&n);
        let seq = TestSequence::random(&n, 30, 12);
        let exact = SymbolicFaultSim::new(&n, Strategy::Mot)
            .run(&seq, faults.iter().cloned())
            .unwrap();
        for limit in [1, 500] {
            let hyb = hybrid_run(
                &n,
                Strategy::Mot,
                &seq,
                faults.iter().cloned(),
                HybridConfig {
                    node_limit: limit,
                    fallback_frames: 4,
                    ..Default::default()
                },
            );
            for (a, b) in exact.results.iter().zip(&hyb.results) {
                assert_eq!(a.fault, b.fault);
                if let (Some(e), Some(h)) = (a.detection, b.detection) {
                    assert!(
                        h.frame >= e.frame,
                        "limit {limit}: hybrid reports frame {} before exact frame {} on {}",
                        h.frame,
                        e.frame,
                        a.fault.display(&n)
                    );
                }
            }
        }
    }

    /// Under [`ReorderPolicy::Sift`] a limit hit at frame `t` emits one
    /// `node_limit` and one `sift_pass`, then the retry's outcome: a
    /// `sym_frame` at `t` when the reordered graph fits, a `fallback_enter`
    /// at `t` when it does not. A failed retry emits no second
    /// `node_limit`. The run (g208, MOT, 1,500 nodes) has retries of both
    /// kinds, and its per-kind event counts are pinned.
    #[test]
    fn sift_retry_event_order() {
        use crate::engine_api::{FaultSimEngine, HybridEngine, SimConfig};
        use motsim_trace::CollectSink;
        use std::collections::{BTreeMap, HashSet};

        let n = motsim_circuits::suite::by_name("g208").unwrap();
        let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
        let seq = TestSequence::random(&n, 40, 3);
        let mut sink = CollectSink::new();
        let config = SimConfig::new()
            .strategy(Strategy::Mot)
            .node_limit(Some(1_500))
            .reorder(ReorderPolicy::Sift);
        HybridEngine
            .run(&n, &seq, &faults, config.sink(&mut sink))
            .unwrap();
        let events = sink.events();
        let (mut rescued, mut failed) = (0, 0);
        let mut hit_frames = HashSet::new();
        for (i, event) in events.iter().enumerate() {
            let TraceEvent::NodeLimit { frame: t, .. } = *event else {
                continue;
            };
            assert!(hit_frames.insert(t), "second node_limit at frame {t}");
            assert_eq!(events[i + 1].tag(), "sift_pass", "frame {t}");
            match events[i + 2] {
                TraceEvent::SymFrame { frame, .. } if frame == t => rescued += 1,
                TraceEvent::FallbackEnter { frame } if frame == t => failed += 1,
                ref other => panic!("frame {t}: {other:?} after the sift_pass"),
            }
        }
        assert!(
            rescued > 0 && failed > 0,
            "{rescued} rescued and {failed} failed retries"
        );
        let mut counts = BTreeMap::new();
        for event in events {
            *counts.entry(event.tag()).or_insert(0) += 1;
        }
        let pinned = [
            ("fallback_enter", 1),
            ("fallback_exit", 1),
            ("node_limit", 2),
            ("run_end", 1),
            ("run_start", 1),
            ("sift_pass", 2),
            ("sym_frame", 32),
            ("tv_frame", 8),
        ];
        assert_eq!(counts, BTreeMap::from(pinned));
    }

    #[test]
    fn default_config_matches_paper() {
        let c = HybridConfig::default();
        assert_eq!(c.node_limit, 30_000);
    }
}
