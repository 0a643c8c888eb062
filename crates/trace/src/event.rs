//! The typed event taxonomy and its pinned JSONL encoding.

use std::fmt::Write as _;

/// One structured telemetry event.
///
/// Every variant encodes to exactly one JSON object per line (JSONL) via
/// [`to_jsonl`](Self::to_jsonl), with a fixed key order pinned by golden
/// tests, and parses back with [`parse_jsonl`](Self::parse_jsonl). Frame
/// numbers are always *global* (indices into the test sequence), also
/// inside hybrid fallback phases, so fallback spans can be reconstructed
/// exactly from the stream.
///
/// Events deliberately carry **no** wall-clock data and **no** worker
/// indices: a trace is a function of the simulation inputs alone, which is
/// what makes the sharded engine's merged stream byte-identical for every
/// `--jobs` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An engine run (or one work unit of a sharded run) began.
    RunStart {
        /// Engine identifier, e.g. `sim3`, `symbolic-mot`, `hybrid-rmot`.
        engine: String,
        /// Faults handed to this run.
        faults: usize,
        /// Frames the test sequence holds.
        frames: usize,
    },
    /// One symbolic frame completed: the per-frame space/work curve.
    SymFrame {
        /// Global frame index.
        frame: usize,
        /// Live BDD nodes after the frame.
        live: usize,
        /// Peak live nodes so far (the quantity the 30,000 limit bounds).
        peak: usize,
        /// ITE computed-cache hits so far: cumulative over the manager
        /// that simulated the frame (one per symbolic phase and unit).
        hits: u64,
        /// ITE computed-cache misses so far, cumulative like `hits`.
        misses: u64,
        /// Garbage collections so far, cumulative like `hits`. Growth since
        /// the phase's previous `sym_frame` means the manager collected for
        /// this frame, or in a sifting pass just before it.
        gc: u64,
        /// Fault events propagated: divergent nets across all live faulty
        /// machines in this frame.
        events: usize,
        /// Faults newly marked detectable in this frame.
        detected: usize,
    },
    /// One three-valued frame completed (pure `sim3` runs and hybrid
    /// fallback phases).
    TvFrame {
        /// Global frame index.
        frame: usize,
        /// Faults newly marked detectable in this frame.
        detected: usize,
    },
    /// A symbolic step hit the manager's live-node limit (the frame was
    /// rolled back; a sift retry and/or fallback phase follows).
    NodeLimit {
        /// Global index of the frame that would not fit.
        frame: usize,
        /// The configured live-node limit.
        limit: usize,
    },
    /// One sifting pass of dynamic variable reordering ran.
    SiftPass {
        /// Adjacent-level swaps the pass performed.
        swaps: u64,
        /// Live nodes the pass shed.
        shed: usize,
    },
    /// The hybrid simulator left symbolic mode: frames from `frame` on run
    /// three-valued until the matching [`FallbackExit`](Self::FallbackExit).
    FallbackEnter {
        /// Global index of the first three-valued frame.
        frame: usize,
    },
    /// The hybrid simulator finished a three-valued fallback phase covering
    /// the global frames `frame - frames .. frame`.
    FallbackExit {
        /// Global index of the first frame *after* the phase.
        frame: usize,
        /// Frames the phase simulated three-valued.
        frames: usize,
    },
    /// The `ID_X-red` pre-pass eliminated provably undetectable faults.
    XRed {
        /// Faults eliminated before simulation.
        eliminated: usize,
        /// Faults remaining for simulation.
        remaining: usize,
    },
    /// A sharded run started work unit `unit`; subsequent frame-level
    /// events belong to this unit until the matching
    /// [`UnitEnd`](Self::UnitEnd).
    UnitStart {
        /// Unit id within the partition plan.
        unit: usize,
        /// Faults in the unit's shard.
        faults: usize,
    },
    /// A sharded run finished work unit `unit`.
    UnitEnd {
        /// Unit id within the partition plan.
        unit: usize,
        /// Faults the unit's engine run detected.
        detected: usize,
    },
    /// An engine run (or one work unit of a sharded run) finished.
    RunEnd {
        /// Faults detected.
        detected: usize,
        /// Frames that ran three-valued (0 for exact runs).
        fallback_frames: usize,
        /// Peak live BDD nodes of the run (0 for pure three-valued runs).
        peak: usize,
    },
}

impl TraceEvent {
    /// The `"ev"` tag of this variant.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::SymFrame { .. } => "sym_frame",
            TraceEvent::TvFrame { .. } => "tv_frame",
            TraceEvent::NodeLimit { .. } => "node_limit",
            TraceEvent::SiftPass { .. } => "sift_pass",
            TraceEvent::FallbackEnter { .. } => "fallback_enter",
            TraceEvent::FallbackExit { .. } => "fallback_exit",
            TraceEvent::XRed { .. } => "xred",
            TraceEvent::UnitStart { .. } => "unit_start",
            TraceEvent::UnitEnd { .. } => "unit_end",
            TraceEvent::RunEnd { .. } => "run_end",
        }
    }

    /// The global frame index this event anchors to, when it has one.
    pub fn frame(&self) -> Option<usize> {
        match *self {
            TraceEvent::SymFrame { frame, .. }
            | TraceEvent::TvFrame { frame, .. }
            | TraceEvent::NodeLimit { frame, .. }
            | TraceEvent::FallbackEnter { frame }
            | TraceEvent::FallbackExit { frame, .. } => Some(frame),
            _ => None,
        }
    }

    /// Serializes the event as one JSONL line (no trailing newline), with
    /// the exact key order the golden tests pin.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"ev\":\"");
        s.push_str(self.tag());
        s.push('"');
        fn num(s: &mut String, key: &str, value: u64) {
            let _ = write!(s, ",\"{key}\":{value}");
        }
        match *self {
            TraceEvent::RunStart {
                ref engine,
                faults,
                frames,
            } => {
                let _ = write!(s, ",\"engine\":\"{}\"", escape(engine));
                num(&mut s, "faults", faults as u64);
                num(&mut s, "frames", frames as u64);
            }
            TraceEvent::SymFrame {
                frame,
                live,
                peak,
                hits,
                misses,
                gc,
                events,
                detected,
            } => {
                num(&mut s, "frame", frame as u64);
                num(&mut s, "live", live as u64);
                num(&mut s, "peak", peak as u64);
                num(&mut s, "hits", hits);
                num(&mut s, "misses", misses);
                num(&mut s, "gc", gc);
                num(&mut s, "events", events as u64);
                num(&mut s, "detected", detected as u64);
            }
            TraceEvent::TvFrame { frame, detected } => {
                num(&mut s, "frame", frame as u64);
                num(&mut s, "detected", detected as u64);
            }
            TraceEvent::NodeLimit { frame, limit } => {
                num(&mut s, "frame", frame as u64);
                num(&mut s, "limit", limit as u64);
            }
            TraceEvent::SiftPass { swaps, shed } => {
                num(&mut s, "swaps", swaps);
                num(&mut s, "shed", shed as u64);
            }
            TraceEvent::FallbackEnter { frame } => num(&mut s, "frame", frame as u64),
            TraceEvent::FallbackExit { frame, frames } => {
                num(&mut s, "frame", frame as u64);
                num(&mut s, "frames", frames as u64);
            }
            TraceEvent::XRed {
                eliminated,
                remaining,
            } => {
                num(&mut s, "eliminated", eliminated as u64);
                num(&mut s, "remaining", remaining as u64);
            }
            TraceEvent::UnitStart { unit, faults } => {
                num(&mut s, "unit", unit as u64);
                num(&mut s, "faults", faults as u64);
            }
            TraceEvent::UnitEnd { unit, detected } => {
                num(&mut s, "unit", unit as u64);
                num(&mut s, "detected", detected as u64);
            }
            TraceEvent::RunEnd {
                detected,
                fallback_frames,
                peak,
            } => {
                num(&mut s, "detected", detected as u64);
                num(&mut s, "fallback_frames", fallback_frames as u64);
                num(&mut s, "peak", peak as u64);
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSONL line produced by [`to_jsonl`](Self::to_jsonl).
    ///
    /// The parser accepts any key order and surplus whitespace but only the
    /// flat shape this crate emits (no nesting, integer and simple-string
    /// values only).
    ///
    /// # Errors
    ///
    /// Fails with [`ParseError`] on malformed lines, unknown `"ev"` tags,
    /// or missing fields.
    pub fn parse_jsonl(line: &str) -> Result<TraceEvent, ParseError> {
        let fields = parse_flat_object(line)?;
        let tag = match fields.iter().find(|(k, _)| *k == "ev") {
            Some((_, Value::Str(tag))) => *tag,
            _ => return Err(ParseError::new(line, "missing \"ev\" tag")),
        };
        let num = |key: &str| -> Result<u64, ParseError> {
            match fields.iter().find(|(k, _)| *k == key) {
                Some((_, Value::Num(n))) => Ok(*n),
                _ => Err(ParseError::new(line, format!("missing field \"{key}\""))),
            }
        };
        let us = |key: &str| num(key).map(|n| n as usize);
        let ev = match tag {
            "run_start" => {
                let engine = match fields.iter().find(|(k, _)| *k == "engine") {
                    Some((_, Value::Str(e))) => (*e).to_owned(),
                    _ => return Err(ParseError::new(line, "missing field \"engine\"")),
                };
                TraceEvent::RunStart {
                    engine,
                    faults: us("faults")?,
                    frames: us("frames")?,
                }
            }
            "sym_frame" => TraceEvent::SymFrame {
                frame: us("frame")?,
                live: us("live")?,
                peak: us("peak")?,
                hits: num("hits")?,
                misses: num("misses")?,
                gc: num("gc")?,
                events: us("events")?,
                detected: us("detected")?,
            },
            "tv_frame" => TraceEvent::TvFrame {
                frame: us("frame")?,
                detected: us("detected")?,
            },
            "node_limit" => TraceEvent::NodeLimit {
                frame: us("frame")?,
                limit: us("limit")?,
            },
            "sift_pass" => TraceEvent::SiftPass {
                swaps: num("swaps")?,
                shed: us("shed")?,
            },
            "fallback_enter" => TraceEvent::FallbackEnter {
                frame: us("frame")?,
            },
            "fallback_exit" => TraceEvent::FallbackExit {
                frame: us("frame")?,
                frames: us("frames")?,
            },
            "xred" => TraceEvent::XRed {
                eliminated: us("eliminated")?,
                remaining: us("remaining")?,
            },
            "unit_start" => TraceEvent::UnitStart {
                unit: us("unit")?,
                faults: us("faults")?,
            },
            "unit_end" => TraceEvent::UnitEnd {
                unit: us("unit")?,
                detected: us("detected")?,
            },
            "run_end" => TraceEvent::RunEnd {
                detected: us("detected")?,
                fallback_frames: us("fallback_frames")?,
                peak: us("peak")?,
            },
            other => return Err(ParseError::new(line, format!("unknown tag \"{other}\""))),
        };
        Ok(ev)
    }
}

/// Escapes the two JSON-significant characters that can occur in an engine
/// name; everything this crate emits is ASCII identifiers, so this is a
/// safety net rather than a general JSON string encoder.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

enum Value<'a> {
    Num(u64),
    Str(&'a str),
}

/// Splits a flat one-line JSON object into `(key, value)` pairs. String
/// values must not contain commas, quotes or braces — true for everything
/// [`TraceEvent::to_jsonl`] emits.
fn parse_flat_object(line: &str) -> Result<Vec<(&str, Value<'_>)>, ParseError> {
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| ParseError::new(line, "not a JSON object"))?;
    let mut fields = Vec::new();
    for pair in inner.split(',') {
        let (k, v) = pair
            .split_once(':')
            .ok_or_else(|| ParseError::new(line, "missing `:` in member"))?;
        let k = k
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| ParseError::new(line, "unquoted key"))?;
        let v = v.trim();
        let value = if let Some(body) = v.strip_prefix('"') {
            let body = body
                .strip_suffix('"')
                .ok_or_else(|| ParseError::new(line, "unterminated string"))?;
            if body.contains('\\') {
                return Err(ParseError::new(line, "escaped strings are not supported"));
            }
            Value::Str(body)
        } else {
            Value::Num(
                v.parse::<u64>()
                    .map_err(|_| ParseError::new(line, format!("bad number `{v}`")))?,
            )
        };
        fields.push((k, value));
    }
    Ok(fields)
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The offending line (truncated for display).
    pub line: String,
    /// What went wrong.
    pub reason: String,
}

impl ParseError {
    fn new(line: &str, reason: impl Into<String>) -> Self {
        let mut line = line.trim().to_owned();
        if line.len() > 120 {
            line.truncate(120);
            line.push('…');
        }
        ParseError {
            line,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: `{}`", self.reason, self.line)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_accessor() {
        assert_eq!(TraceEvent::FallbackEnter { frame: 3 }.frame(), Some(3));
        assert_eq!(
            TraceEvent::SiftPass { swaps: 1, shed: 2 }.frame(),
            None,
            "sift passes are not frame-anchored"
        );
    }

    #[test]
    fn parse_accepts_any_key_order_and_whitespace() {
        let ev = TraceEvent::parse_jsonl(r#" { "frame" : 4 , "ev" : "tv_frame", "detected": 2 } "#)
            .unwrap();
        assert_eq!(
            ev,
            TraceEvent::TvFrame {
                frame: 4,
                detected: 2
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceEvent::parse_jsonl("not json").is_err());
        assert!(TraceEvent::parse_jsonl("{}").is_err());
        assert!(TraceEvent::parse_jsonl(r#"{"ev":"no_such_tag"}"#).is_err());
        assert!(TraceEvent::parse_jsonl(r#"{"ev":"tv_frame","frame":4}"#).is_err());
        assert!(TraceEvent::parse_jsonl(r#"{"ev":"tv_frame","frame":-1,"detected":0}"#).is_err());
        let err = TraceEvent::parse_jsonl(r#"{"ev":"tv_frame","frame":x,"detected":0}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("bad number"), "{err}");
    }

    #[test]
    fn engine_names_are_escaped() {
        let ev = TraceEvent::RunStart {
            engine: "we\"ird".into(),
            faults: 0,
            frames: 0,
        };
        assert!(ev.to_jsonl().contains("we\\\"ird"));
    }
}
