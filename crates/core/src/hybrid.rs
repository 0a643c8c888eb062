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
//! A frame falls back iff it does not fit the limit after a full GC.
//! [`SymbolicFaultSim::step`] settles that with one attempt from a collected
//! arena, never two: it collects first when the previous frame predicts
//! pressure, and otherwise tries the uncollected arena first. So a frame
//! that cannot fit costs at most one aborted uncollected attempt, one GC
//! and one collected attempt before the fallback begins. The sifting retry
//! of [`ReorderPolicy::Sift`] starts from the collected arena the pass
//! leaves behind.

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

/// Runs the hybrid simulation of `faults` over `seq` under `strategy`,
/// reporting runtime telemetry to `sink`.
///
/// Never fails: node-limit pressure is absorbed by three-valued fallback
/// phases. The returned outcome's
/// [`fallback_frames`](SimOutcome::fallback_frames) counts the frames that
/// ran three-valued (non-zero ⇒ the tables' asterisk; the result is then a
/// sound lower bound rather than the exact strategy coverage).
///
/// The trace narrates the paper's space battle frame by frame: each
/// symbolic frame is a [`TraceEvent::SymFrame`], a limit hit is a
/// [`TraceEvent::NodeLimit`] (followed by a [`TraceEvent::SiftPass`] when
/// the reorder policy retries), and every fallback phase is bracketed by
/// [`TraceEvent::FallbackEnter`]/[`TraceEvent::FallbackExit`] with its
/// [`TraceEvent::TvFrame`]s in between. All frame numbers are global to the
/// run, so the exact fallback spans can be reconstructed from the stream;
/// the `frames` fields of the `FallbackExit` events sum to the outcome's
/// `fallback_frames`. With a [`NullSink`](motsim_trace::NullSink) the run
/// does no trace work at all.
///
/// # Example
///
/// ```
/// use motsim::hybrid::{run_traced, HybridConfig};
/// use motsim::symbolic::Strategy;
/// use motsim::{FaultList, TestSequence};
/// use motsim_trace::NullSink;
///
/// let circuit = motsim_circuits::generators::counter(8);
/// let faults = FaultList::collapsed(&circuit);
/// let seq = TestSequence::random(&circuit, 50, 1);
/// let outcome = run_traced(
///     &circuit,
///     Strategy::Mot,
///     &seq,
///     faults.iter().cloned(),
///     HybridConfig::default(),
///     &mut NullSink,
/// );
/// assert_eq!(outcome.frames, 50);
/// ```
pub fn run_traced(
    netlist: &Netlist,
    strategy: Strategy,
    seq: &TestSequence,
    faults: impl IntoIterator<Item = Fault>,
    config: HybridConfig,
    sink: &mut dyn TraceSink,
) -> SimOutcome {
    let order: Vec<Fault> = faults.into_iter().collect();
    let mut detections: std::collections::HashMap<Fault, Detection> =
        std::collections::HashMap::new();

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
        sym.set_trace_frame_offset(t);
        match &carry {
            None => {
                for &f in &order {
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
        let mut progressed = 0usize;
        while t < seq.len() {
            let mut step = sym.step_traced(seq.vector(t), sink);
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
                    step = sym.step_traced(seq.vector(t), sink);
                }
            }
            match step {
                Ok(_newly) => {
                    // Detections are folded in from the phase outcome below,
                    // which carries the real frame *and* output per fault.
                    t += 1;
                    progressed += 1;
                }
                Err(BddError::NodeLimit { .. }) => break,
            }
        }
        // Fold in exact per-output detection info from the phase outcome,
        // keeping the earliest recorded detection for each fault.
        let phase_outcome = sym.outcome();
        bdd_total.absorb(&phase_outcome.bdd);
        for r in phase_outcome.results {
            if let Some(d) = r.detection {
                detections.entry(r.fault).or_insert(Detection {
                    frame: phase_start + d.frame,
                    output: d.output,
                });
            }
        }
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
        if progressed == 0 && carry.is_some() {
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
        tv.set_trace_frame_offset(t);
        for _ in 0..frames_here {
            let newly = tv.step_traced(seq.vector(t), sink);
            for (f, d) in newly {
                // `d.frame` is relative to this fallback's start; `t` is the
                // same instant in global frames. The output index is real.
                detections.entry(f).or_insert(Detection {
                    frame: t,
                    output: d.output,
                });
            }
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
        results: order
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
        run_traced(netlist, strategy, seq, faults, config, &mut NullSink)
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

    #[test]
    fn default_config_matches_paper() {
        let c = HybridConfig::default();
        assert_eq!(c.node_limit, 30_000);
    }
}
