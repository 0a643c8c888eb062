//! In-memory spans for the traced pass, timed from outside the program.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API, and a [`StampSink`] stamps `Instant::now()` on every trace
//! event an engine emits. Spans of one unit run are then rebuilt from the
//! gaps between consecutive stamps (see [`unit_spans`]). A layer's self time
//! is its spans' duration minus the part covered by their child spans; the
//! root span's self time is reported as `other`, so the layer table sums to
//! the traced wall time exactly.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

use motsim_trace::{TraceEvent, TraceSink};

/// One timed interval with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Records spans; a span's id is its index.
#[derive(Debug, Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Runs `f` inside a new span named `name` under `parent`, handing it
    /// the new span's id; returns `f`'s result and the span's seconds.
    pub fn time<T>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce(&mut Self, usize) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            parent,
            name,
            start: now,
            end: now,
        });
        let out = f(self, id);
        self.spans[id].end = Instant::now();
        (out, self.spans[id].dur().as_secs_f64())
    }

    /// Adds a span whose bounds were stamped elsewhere.
    pub fn push(
        &mut self,
        parent: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            parent: Some(parent),
            name,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Self time per span name under the root span `root`; the root's own
    /// self time is reported as `other`. The values sum to the root's
    /// duration exactly, because children are nested and never overlap.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, Duration> {
        let mut child_sum = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.dur();
            }
        }
        let mut table = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let own = s.dur().saturating_sub(child_sum[id]);
            let name = if id == root { "other" } else { s.name };
            *table.entry(name).or_insert(Duration::ZERO) += own;
        }
        table
    }

    /// Writes every span as one JSON line: id, parent id, name and the
    /// start and end in microseconds since the first span began.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(origin) = self.spans.first().map(|s| s.start) else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

/// A trace sink that stamps the arrival time of every event.
#[derive(Debug, Default)]
pub struct StampSink {
    pub events: Vec<(Instant, TraceEvent)>,
}

impl TraceSink for StampSink {
    fn event(&mut self, event: &TraceEvent) {
        self.events.push((Instant::now(), event.clone()));
    }
}

/// Per-layer accumulators of one traced pass. Times are seconds, frame
/// times milliseconds; every other field is an exact count.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub xred_analyze_s: f64,
    pub xred_eliminated: u64,
    pub sim3_step_s: f64,
    pub sim3_frame_ms: Vec<f64>,
    pub sim3_live_fault_frames: u64,
    pub partition_s: f64,
    pub merge_s: f64,
    pub unit_s: Vec<f64>,
    pub unit_cost: Vec<f64>,
    pub faultfree_frame_ms: Vec<f64>,
    pub faultfree_rebuilds: u64,
    pub sym_frame_ms: Vec<f64>,
    pub sym_frames: u64,
    pub sym_events: u64,
    pub sym_s: f64,
    pub node_limit_hits: u64,
    pub wasted_s: f64,
    pub fallback_frames: u64,
    pub fallback_s: f64,
    pub bdd: motsim::BddUsage,
    pub sos_build_s: f64,
    pub bdd_size: u64,
    pub accepts: u64,
    pub rejects: u64,
}

/// Rebuilds the spans of one engine run from its stamped events, under the
/// unit span `unit` that began at `start`, and folds the layer counts into
/// `layers`.
///
/// Each event closes the interval since the previous stamp: a `sym_frame`
/// closes a symbolic frame (`symbolic.phase_start` for the first frame of a
/// phase, which also pays for the fresh manager and the fault-free
/// re-seeding), a `node_limit` closes a rolled-back attempt
/// (`hybrid.wasted`), a `fallback_enter` closes the projection to three
/// values (`hybrid.project`), and each `tv_frame` inside a fallback closes a
/// `sim3.frame` nested in the `hybrid.fallback` span. A fault's live count
/// is the unit's fault count minus the detections reported so far.
pub fn unit_spans(
    rec: &mut Recorder,
    unit: usize,
    start: Instant,
    events: &[(Instant, TraceEvent)],
    frames: usize,
    layers: &mut Layers,
) {
    let mut cursor = start;
    let mut phase_frames = 0usize;
    let mut fallback: Option<(Instant, Vec<(Instant, Instant)>)> = None;
    let mut live = 0u64;
    for (at, ev) in events {
        let at = *at;
        match ev {
            TraceEvent::RunStart { faults, .. } => {
                live = *faults as u64;
                layers.faultfree_rebuilds += 1;
            }
            TraceEvent::SymFrame {
                events, detected, ..
            } => {
                let name = if phase_frames == 0 {
                    "symbolic.phase_start"
                } else {
                    let ms = at.saturating_duration_since(cursor).as_secs_f64() * 1e3;
                    layers.sym_frame_ms.push(ms);
                    "symbolic.frame"
                };
                rec.push(unit, name, cursor, at);
                layers.sym_frames += 1;
                layers.sym_events += *events as u64;
                layers.sym_s += at.saturating_duration_since(cursor).as_secs_f64();
                live = live.saturating_sub(*detected as u64);
                phase_frames += 1;
            }
            TraceEvent::NodeLimit { .. } => {
                rec.push(unit, "hybrid.wasted", cursor, at);
                layers.node_limit_hits += 1;
                layers.wasted_s += at.saturating_duration_since(cursor).as_secs_f64();
            }
            TraceEvent::SiftPass { .. } => {
                rec.push(unit, "bdd.sift", cursor, at);
            }
            TraceEvent::FallbackEnter { .. } => {
                rec.push(unit, "hybrid.project", cursor, at);
                fallback = Some((at, Vec::new()));
            }
            TraceEvent::TvFrame { detected, .. } => {
                if let Some((_, tv)) = &mut fallback {
                    tv.push((cursor, at));
                }
                let dt = at.saturating_duration_since(cursor);
                layers.sim3_step_s += dt.as_secs_f64();
                layers.sim3_frame_ms.push(dt.as_secs_f64() * 1e3);
                layers.sim3_live_fault_frames += live;
                live = live.saturating_sub(*detected as u64);
            }
            TraceEvent::FallbackExit {
                frame,
                frames: done,
            } => {
                if let Some((enter, tv)) = fallback.take() {
                    let span = rec.push(unit, "hybrid.fallback", enter, at);
                    for (a, b) in tv {
                        rec.push(span, "sim3.frame", a, b);
                    }
                    layers.fallback_s += at.saturating_duration_since(enter).as_secs_f64();
                }
                layers.fallback_frames += *done as u64;
                if *frame < frames {
                    layers.faultfree_rebuilds += 1;
                }
                phase_frames = 0;
            }
            _ => {}
        }
        cursor = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root() {
        let mut rec = Recorder::default();
        rec.time(None, "root", |rec, root| {
            rec.time(Some(root), "a", |rec, a| {
                rec.time(Some(a), "b", |_, _| {
                    std::thread::sleep(Duration::from_millis(2))
                });
            });
            std::thread::sleep(Duration::from_millis(1));
        });
        let table = rec.self_times(0);
        let sum: Duration = table.values().sum();
        assert_eq!(sum, rec.spans[0].dur());
        assert!(table["b"] >= Duration::from_millis(2));
        assert!(table.contains_key("other"));
    }
}
