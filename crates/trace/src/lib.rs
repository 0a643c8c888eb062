//! `motsim-trace` — structured runtime telemetry for the motsim engines.
//!
//! The paper's central engineering tension is *space*: hybrid simulation
//! exists solely because OBDD node counts blow past a limit mid-sequence.
//! End-of-run totals ([`BddUsage`](../motsim/report/struct.BddUsage.html))
//! say *that* a fallback happened — this crate records *when*, on which
//! frame, and what the growth curve looked like, as a stream of typed
//! [`TraceEvent`]s flowing into a [`TraceSink`].
//!
//! The design is deliberately minimal:
//!
//! - **Zero dependencies.** Events serialize to JSONL with a hand-rolled
//!   writer ([`TraceEvent::to_jsonl`]) and parse back with a matching
//!   reader ([`TraceEvent::parse_jsonl`]); the schema is pinned by golden
//!   tests.
//! - **One schema table.** The enum, its tags, the writer and the reader
//!   are all generated from one table in the `event` module, one row per
//!   variant with its `"ev"` tag and its fields in key order. Adding a
//!   field is one table line plus one golden line.
//! - **Allocation-light.** Emitters check [`TraceSink::enabled`] before
//!   building an event, so a [`NullSink`] run compiles down to a branch on
//!   a constant `false` — the instrumented hot path costs nothing when
//!   nobody is listening.
//! - **Deterministic.** Events carry no wall-clock timestamps and no
//!   worker indices. A sharded run records per-unit sub-streams that the
//!   engine replays in unit-id order, so the merged stream is
//!   byte-identical for every worker count — the same discipline as
//!   `SimOutcome::merge`.
//!
//! # Example
//!
//! ```
//! use motsim_trace::{CollectSink, TraceEvent, TraceSink};
//!
//! let mut sink = CollectSink::new();
//! if sink.enabled() {
//!     sink.event(&TraceEvent::FallbackEnter { frame: 7 });
//!     sink.event(&TraceEvent::FallbackExit { frame: 15, frames: 8 });
//! }
//! let jsonl: Vec<String> = sink.events().iter().map(|e| e.to_jsonl()).collect();
//! assert_eq!(jsonl[0], r#"{"ev":"fallback_enter","frame":7}"#);
//! let back = TraceEvent::parse_jsonl(&jsonl[1]).unwrap();
//! assert_eq!(back, TraceEvent::FallbackExit { frame: 15, frames: 8 });
//! ```

#![warn(missing_docs)]

mod event;
mod sink;

pub use event::{ParseError, TraceEvent};
pub use sink::{CollectSink, JsonlSink, NullSink, TraceSink};
