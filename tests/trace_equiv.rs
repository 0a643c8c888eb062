//! Trace-equivalence suite: telemetry must be a pure observer.
//!
//! Three contracts, each load-bearing for the `--trace` feature:
//!
//! 1. **Observer purity** — attaching a sink never changes a verdict: the
//!    `SimOutcome` of a [`NullSink`] run and a [`CollectSink`] run are
//!    byte-identical for every engine.
//! 2. **Reconstruction** — a hybrid run's fallback behaviour (the paper's
//!    space-limit experiments) is recoverable from the stream alone:
//!    `FallbackEnter`/`FallbackExit` spans sum to the outcome's
//!    `fallback_frames`, and symbolic + three-valued frames tile the
//!    sequence exactly.
//! 3. **Merge determinism** — the sharded engine's merged stream is
//!    byte-identical for every worker count.

use motsim::engine_api::{FaultSimEngine, HybridEngine, Sim3Engine, SimConfig, SymbolicEngine};
use motsim::faults::FaultList;
use motsim::pattern::TestSequence;
use motsim::symbolic::Strategy;
use motsim::Fault;
use motsim_trace::{CollectSink, TraceEvent};

fn setup(name: &str, len: usize, seed: u64) -> (motsim_netlist::Netlist, Vec<Fault>, TestSequence) {
    let n = motsim_circuits::suite::by_name(name).unwrap();
    let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
    let seq = TestSequence::random(&n, len, seed);
    (n, faults, seq)
}

#[test]
fn tracing_never_changes_a_verdict() {
    let (n, faults, seq) = setup("g208", 20, 1);
    let engines: [(&str, &dyn FaultSimEngine); 3] = [
        ("sim3", &Sim3Engine),
        ("symbolic", &SymbolicEngine),
        ("hybrid", &HybridEngine),
    ];
    for (name, engine) in engines {
        let untraced = engine
            .run(&n, &seq, &faults, SimConfig::new().strategy(Strategy::Mot))
            .unwrap();
        let mut sink = CollectSink::new();
        let traced = engine
            .run(
                &n,
                &seq,
                &faults,
                SimConfig::new().strategy(Strategy::Mot).sink(&mut sink),
            )
            .unwrap();
        assert_eq!(untraced, traced, "{name}: tracing changed the outcome");
        assert!(
            !sink.events().is_empty(),
            "{name}: traced run produced no events"
        );
    }
}

#[test]
fn hybrid_fallback_is_reconstructible_from_the_stream() {
    // A limit tight enough to force fallback phases on g298.
    let (n, faults, seq) = setup("g298", 40, 2);
    let mut sink = CollectSink::new();
    let outcome = HybridEngine
        .run(
            &n,
            &seq,
            &faults,
            SimConfig::new()
                .strategy(Strategy::Mot)
                .node_limit(Some(500))
                .sink(&mut sink),
        )
        .unwrap();
    assert!(
        outcome.fallback_frames > 0,
        "limit 500 must force fallback on g298"
    );

    let events = sink.events();
    let sym = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::SymFrame { .. }))
        .count();
    let tv = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::TvFrame { .. }))
        .count();
    // Symbolic and three-valued frames tile the sequence exactly.
    assert_eq!(sym + tv, seq.len());
    assert_eq!(tv, outcome.fallback_frames);

    // Enter/exit brackets pair up and their spans sum to the outcome's
    // fallback accounting.
    let enters: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::FallbackEnter { frame } => Some(*frame),
            _ => None,
        })
        .collect();
    let exits: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::FallbackExit { frame, frames } => Some((*frame, *frames)),
            _ => None,
        })
        .collect();
    assert_eq!(enters.len(), exits.len());
    let span_sum: usize = exits.iter().map(|(_, frames)| *frames).sum();
    assert_eq!(span_sum, outcome.fallback_frames);
    for (enter, (exit, frames)) in enters.iter().zip(&exits) {
        assert_eq!(enter + frames, *exit, "span endpoints disagree");
    }
    // Every fallback phase is announced by the node-limit hit causing it.
    let limits = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NodeLimit { .. }))
        .count();
    assert!(limits >= enters.len());

    // The stream round-trips through its own JSONL encoding.
    for line in sink.to_jsonl().lines() {
        TraceEvent::parse_jsonl(line).expect("emitted line must parse");
    }
}

#[test]
fn sharded_trace_is_identical_for_any_worker_count() {
    let (n, faults, seq) = setup("g208", 30, 3);
    let config = motsim::hybrid::HybridConfig {
        node_limit: 1_000,
        ..Default::default()
    };
    let jsonl_with = |jobs: usize| {
        let mut sink = CollectSink::new();
        let job = motsim_engine::Job::new(
            &n,
            &seq,
            &faults,
            motsim_engine::EngineKind::Hybrid(Strategy::Mot, config),
        )
        .jobs(jobs)
        .units(6);
        motsim_engine::run_traced(&job, &mut sink).unwrap();
        sink.to_jsonl()
    };
    let sequential = jsonl_with(1);
    let parallel = jsonl_with(8);
    assert!(!sequential.is_empty());
    assert_eq!(
        sequential, parallel,
        "merged JSONL must not depend on --jobs"
    );
    // Unit brackets appear in id order.
    let starts: Vec<usize> = sequential
        .lines()
        .filter_map(|l| match TraceEvent::parse_jsonl(l).unwrap() {
            TraceEvent::UnitStart { unit, .. } => Some(unit),
            _ => None,
        })
        .collect();
    assert_eq!(starts, (0..starts.len()).collect::<Vec<_>>());
}

#[test]
fn sim3_engine_emits_one_tv_frame_per_vector() {
    let (n, faults, seq) = setup("g27", 25, 4);
    let mut sink = CollectSink::new();
    let outcome = Sim3Engine
        .run(&n, &seq, &faults, SimConfig::new().sink(&mut sink))
        .unwrap();
    let frames: Vec<usize> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TvFrame { frame, .. } => Some(*frame),
            _ => None,
        })
        .collect();
    assert_eq!(frames, (0..seq.len()).collect::<Vec<_>>());
    let Some(TraceEvent::RunEnd { detected, .. }) = sink.events().last() else {
        panic!("missing run_end");
    };
    assert_eq!(*detected, outcome.num_detected());
}

/// One `SymFrame` event: `(frame, live, peak, hits, misses, events,
/// detected)`.
type SymRow = (usize, usize, usize, u64, u64, usize, usize);

fn sym_frames(events: &[TraceEvent]) -> Vec<SymRow> {
    events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::SymFrame {
                frame,
                live,
                peak,
                hits,
                misses,
                events,
                detected,
                ..
            } => Some((frame, live, peak, hits, misses, events, detected)),
            _ => None,
        })
        .collect()
}

/// s27 under pure symbolic MOT, 20 frames (seed 5).
const S27_MOT: [SymRow; 20] = [
    (0, 21, 21, 9, 12, 85, 0),
    (1, 31, 31, 19, 24, 117, 0),
    (2, 33, 33, 37, 36, 167, 0),
    (3, 33, 33, 56, 38, 196, 0),
    (4, 33, 33, 76, 38, 199, 0),
    (5, 36, 36, 76, 42, 92, 8),
    (6, 36, 36, 76, 46, 33, 0),
    (7, 36, 36, 77, 46, 37, 0),
    (8, 36, 36, 78, 46, 44, 2),
    (9, 36, 36, 79, 46, 36, 0),
    (10, 36, 36, 80, 46, 36, 0),
    (11, 36, 36, 81, 46, 43, 2),
    (12, 36, 36, 81, 46, 56, 10),
    (13, 36, 36, 81, 46, 15, 1),
    (14, 36, 36, 81, 46, 23, 4),
    (15, 36, 36, 81, 46, 5, 0),
    (16, 36, 36, 81, 46, 13, 1),
    (17, 36, 36, 81, 46, 5, 0),
    (18, 36, 36, 81, 46, 6, 0),
    (19, 36, 36, 81, 46, 10, 0),
];

/// g208 under the hybrid MOT engine at a 2,000-node limit, 40 frames
/// (seed 3): frames 3–10 fall back to three-valued simulation.
const G208_HYBRID_2000: [SymRow; 32] = [
    (0, 373, 373, 193, 312, 687, 0),
    (1, 1508, 1508, 1012, 1866, 1179, 1),
    (2, 1830, 1830, 1992, 3880, 1096, 0),
    (11, 111, 111, 17, 83, 306, 0),
    (12, 183, 183, 66, 156, 337, 0),
    (13, 185, 185, 128, 188, 444, 0),
    (14, 191, 191, 209, 214, 423, 1),
    (15, 196, 196, 273, 231, 298, 0),
    (16, 196, 196, 341, 233, 306, 0),
    (17, 196, 196, 402, 233, 298, 0),
    (18, 213, 213, 478, 258, 321, 0),
    (19, 229, 229, 555, 286, 348, 0),
    (20, 234, 234, 578, 303, 304, 0),
    (21, 259, 259, 660, 338, 311, 0),
    (22, 278, 278, 746, 364, 334, 0),
    (23, 278, 278, 817, 370, 437, 0),
    (24, 278, 278, 891, 371, 396, 1),
    (25, 278, 278, 957, 371, 317, 0),
    (26, 283, 283, 1040, 382, 435, 0),
    (27, 303, 303, 1121, 409, 303, 0),
    (28, 319, 319, 1212, 433, 345, 0),
    (29, 352, 352, 1243, 471, 371, 0),
    (30, 378, 378, 1292, 503, 366, 0),
    (31, 401, 401, 1385, 536, 303, 0),
    (32, 412, 412, 1469, 550, 296, 0),
    (33, 416, 416, 1557, 565, 303, 0),
    (34, 422, 422, 1637, 571, 325, 0),
    (35, 441, 441, 1724, 599, 427, 0),
    (36, 460, 460, 1813, 620, 296, 0),
    (37, 460, 460, 1888, 623, 317, 0),
    (38, 464, 464, 1978, 634, 470, 0),
    (39, 468, 468, 1998, 639, 288, 0),
];

#[test]
fn symbolic_frame_trace_is_pinned_on_s27_mot() {
    // Node counts, cache counters and the diverged-net count of the
    // event-driven propagation are a fingerprint of the exact sequence of
    // BDD operations; a refactor of the engine must leave them unchanged.
    let n = motsim_circuits::s27();
    let faults: Vec<Fault> = FaultList::collapsed(&n).into_iter().collect();
    let seq = TestSequence::random(&n, 20, 5);
    let mut sink = CollectSink::new();
    SymbolicEngine
        .run(
            &n,
            &seq,
            &faults,
            SimConfig::new().strategy(Strategy::Mot).sink(&mut sink),
        )
        .unwrap();
    assert_eq!(sym_frames(sink.events()), S27_MOT);
}

#[test]
fn symbolic_frame_trace_is_pinned_on_g208_hybrid() {
    let (n, faults, seq) = setup("g208", 40, 3);
    let mut sink = CollectSink::new();
    let outcome = HybridEngine
        .run(
            &n,
            &seq,
            &faults,
            SimConfig::new()
                .strategy(Strategy::Mot)
                .node_limit(Some(2_000))
                .sink(&mut sink),
        )
        .unwrap();
    assert_eq!(sym_frames(sink.events()), G208_HYBRID_2000);
    assert_eq!((outcome.fallback_frames, outcome.num_detected()), (8, 3));
}
