//! Golden tests pinning the JSONL schema of every event variant.
//!
//! The JSONL encoding is a public, machine-readable contract: external
//! tooling (and `motsim trace-check`) parses these lines. Any change to a
//! key name, key order, or value encoding must be deliberate — update the
//! goldens here *and* bump the schema note in DESIGN.md §11.

use motsim_trace::TraceEvent;

/// One exemplar per variant with its exact serialized form.
fn goldens() -> Vec<(TraceEvent, &'static str)> {
    vec![
        (
            TraceEvent::RunStart {
                engine: "hybrid-mot".into(),
                faults: 54,
                frames: 200,
            },
            r#"{"ev":"run_start","engine":"hybrid-mot","faults":54,"frames":200}"#,
        ),
        (
            TraceEvent::SymFrame {
                frame: 12,
                live: 3456,
                peak: 8901,
                hits: 123,
                misses: 45,
                gc: 3,
                events: 678,
                detected: 2,
            },
            r#"{"ev":"sym_frame","frame":12,"live":3456,"peak":8901,"hits":123,"misses":45,"gc":3,"events":678,"detected":2}"#,
        ),
        (
            TraceEvent::TvFrame {
                frame: 13,
                detected: 1,
            },
            r#"{"ev":"tv_frame","frame":13,"detected":1}"#,
        ),
        (
            TraceEvent::NodeLimit {
                frame: 14,
                limit: 30000,
            },
            r#"{"ev":"node_limit","frame":14,"limit":30000}"#,
        ),
        (
            TraceEvent::SiftPass {
                swaps: 47576,
                shed: 1200,
            },
            r#"{"ev":"sift_pass","swaps":47576,"shed":1200}"#,
        ),
        (
            TraceEvent::FallbackEnter { frame: 14 },
            r#"{"ev":"fallback_enter","frame":14}"#,
        ),
        (
            TraceEvent::FallbackExit {
                frame: 22,
                frames: 8,
            },
            r#"{"ev":"fallback_exit","frame":22,"frames":8}"#,
        ),
        (
            TraceEvent::XRed {
                eliminated: 10,
                remaining: 90,
            },
            r#"{"ev":"xred","eliminated":10,"remaining":90}"#,
        ),
        (
            TraceEvent::UnitStart { unit: 3, faults: 7 },
            r#"{"ev":"unit_start","unit":3,"faults":7}"#,
        ),
        (
            TraceEvent::UnitEnd {
                unit: 3,
                detected: 4,
            },
            r#"{"ev":"unit_end","unit":3,"detected":4}"#,
        ),
        (
            TraceEvent::RunEnd {
                detected: 31,
                fallback_frames: 16,
                peak: 29999,
            },
            r#"{"ev":"run_end","detected":31,"fallback_frames":16,"peak":29999}"#,
        ),
    ]
}

#[test]
fn every_variant_serializes_to_its_golden_line() {
    for (event, golden) in goldens() {
        assert_eq!(
            event.to_jsonl(),
            golden,
            "schema drift on {:?}",
            event.tag()
        );
    }
}

#[test]
fn every_golden_line_parses_back_to_its_event() {
    for (event, golden) in goldens() {
        assert_eq!(
            TraceEvent::parse_jsonl(golden).unwrap(),
            event,
            "parse drift on {:?}",
            event.tag()
        );
    }
}

#[test]
fn goldens_cover_every_variant() {
    // If a new variant is added, this count must be bumped together with a
    // new golden — the compiler cannot enforce exhaustiveness over a Vec,
    // so pin the tag set instead.
    let tags: std::collections::BTreeSet<&str> = goldens().iter().map(|(e, _)| e.tag()).collect();
    assert_eq!(
        tags.into_iter().collect::<Vec<_>>(),
        vec![
            "fallback_enter",
            "fallback_exit",
            "node_limit",
            "run_end",
            "run_start",
            "sift_pass",
            "sym_frame",
            "tv_frame",
            "unit_end",
            "unit_start",
            "xred",
        ]
    );
}
