//! The typed event taxonomy and its pinned JSONL encoding, both generated
//! from the one schema table below.

use std::fmt::Write as _;

/// Expands the schema table, one row per variant giving its `"ev"` tag and
/// its fields in JSONL key order, into the enum and its tag, writer and
/// parser, so the four cannot drift apart.
macro_rules! trace_schema {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty, )* }, )*
        }

        impl TraceEvent {
            /// The `"ev"` tag of this variant.
            pub fn tag(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $tag, )*
                }
            }

            /// Serializes the event as one JSONL line (no trailing newline),
            /// with the exact key order the golden tests pin.
            pub fn to_jsonl(&self) -> String {
                let mut s = String::with_capacity(64);
                s.push_str("{\"ev\":\"");
                s.push_str(self.tag());
                s.push('"');
                match self {
                    $( TraceEvent::$variant { $($field),* } => {
                        $( Field::write($field, stringify!($field), &mut s); )*
                    } )*
                }
                s.push('}');
                s
            }

            /// Parses one JSONL line produced by [`to_jsonl`](Self::to_jsonl).
            ///
            /// The parser accepts any key order and surplus whitespace but
            /// only the flat shape this crate emits (no nesting, integer and
            /// simple-string values only).
            ///
            /// # Errors
            ///
            /// Fails with [`ParseError`] on malformed lines, unknown `"ev"`
            /// tags, or fields that are missing or of the wrong type.
            pub fn parse_jsonl(line: &str) -> Result<TraceEvent, ParseError> {
                let fields = parse_flat_object(line)?;
                let tag = match fields.iter().find(|(k, _)| *k == "ev") {
                    Some((_, Value::Str(tag))) => *tag,
                    _ => return Err(ParseError::new(line, "missing \"ev\" tag")),
                };
                Ok(match tag {
                    $( $tag => TraceEvent::$variant {
                        $( $field: field(line, &fields, stringify!($field))?, )*
                    }, )*
                    other => return Err(ParseError::new(line, format!("unknown tag \"{other}\""))),
                })
            }
        }
    };
}

trace_schema! {
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
        RunStart = "run_start" {
            /// Engine identifier, e.g. `sim3`, `symbolic-mot`, `hybrid-rmot`.
            engine: String,
            /// Faults handed to this run.
            faults: usize,
            /// Frames the test sequence holds.
            frames: usize,
        },
        /// One symbolic frame completed: the per-frame space/work curve.
        SymFrame = "sym_frame" {
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
        TvFrame = "tv_frame" {
            /// Global frame index.
            frame: usize,
            /// Faults newly marked detectable in this frame.
            detected: usize,
        },
        /// A symbolic step hit the manager's live-node limit (the frame was
        /// rolled back; a sift retry and/or fallback phase follows).
        NodeLimit = "node_limit" {
            /// Global index of the frame that would not fit.
            frame: usize,
            /// The configured live-node limit.
            limit: usize,
        },
        /// One sifting pass of dynamic variable reordering ran.
        SiftPass = "sift_pass" {
            /// Adjacent-level swaps the pass performed.
            swaps: u64,
            /// Live nodes the pass shed.
            shed: usize,
        },
        /// The hybrid simulator left symbolic mode: frames from `frame` on run
        /// three-valued until the matching [`FallbackExit`](Self::FallbackExit).
        FallbackEnter = "fallback_enter" {
            /// Global index of the first three-valued frame.
            frame: usize,
        },
        /// The hybrid simulator finished a three-valued fallback phase covering
        /// the global frames `frame - frames .. frame`.
        FallbackExit = "fallback_exit" {
            /// Global index of the first frame *after* the phase.
            frame: usize,
            /// Frames the phase simulated three-valued.
            frames: usize,
        },
        /// The `ID_X-red` pre-pass eliminated provably undetectable faults.
        XRed = "xred" {
            /// Faults eliminated before simulation.
            eliminated: usize,
            /// Faults remaining for simulation.
            remaining: usize,
        },
        /// A sharded run started work unit `unit`; subsequent frame-level
        /// events belong to this unit until the matching
        /// [`UnitEnd`](Self::UnitEnd).
        UnitStart = "unit_start" {
            /// Unit id within the partition plan.
            unit: usize,
            /// Faults in the unit's shard.
            faults: usize,
        },
        /// A sharded run finished work unit `unit`.
        UnitEnd = "unit_end" {
            /// Unit id within the partition plan.
            unit: usize,
            /// Faults the unit's engine run detected.
            detected: usize,
        },
        /// An engine run (or one work unit of a sharded run) finished.
        RunEnd = "run_end" {
            /// Faults detected.
            detected: usize,
            /// Frames that ran three-valued (0 for exact runs).
            fallback_frames: usize,
            /// Peak live BDD nodes of the run (0 for pure three-valued runs).
            peak: usize,
        },
    }
}

impl TraceEvent {
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
}

/// One field type of the schema: writes its `,"key":value` member and reads
/// its value back from a parsed line.
trait Field: Sized {
    fn write(&self, key: &str, s: &mut String);
    fn read(value: &Value<'_>) -> Option<Self>;
}

/// Reads member `key` of a parsed line as the field type `T`.
fn field<T: Field>(line: &str, members: &[(&str, Value<'_>)], key: &str) -> Result<T, ParseError> {
    members
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| T::read(v))
        .ok_or_else(|| ParseError::new(line, format!("missing field \"{key}\"")))
}

impl Field for u64 {
    fn write(&self, key: &str, s: &mut String) {
        let _ = write!(s, ",\"{key}\":{self}");
    }
    fn read(value: &Value<'_>) -> Option<Self> {
        match *value {
            Value::Num(n) => Some(n),
            Value::Str(_) => None,
        }
    }
}

impl Field for usize {
    fn write(&self, key: &str, s: &mut String) {
        let _ = write!(s, ",\"{key}\":{self}");
    }
    fn read(value: &Value<'_>) -> Option<Self> {
        u64::read(value).and_then(|n| usize::try_from(n).ok())
    }
}

impl Field for String {
    fn write(&self, key: &str, s: &mut String) {
        let _ = write!(s, ",\"{key}\":\"{}\"", escape(self));
    }
    fn read(value: &Value<'_>) -> Option<Self> {
        match *value {
            Value::Str(v) => Some(v.to_owned()),
            Value::Num(_) => None,
        }
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
    fn parse_checks_each_fields_declared_type() {
        let err = TraceEvent::parse_jsonl(r#"{"ev":"tv_frame","frame":"4","detected":0}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing field \"frame\""), "{err}");
        let err = TraceEvent::parse_jsonl(r#"{"ev":"run_start","engine":7,"faults":0,"frames":0}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing field \"engine\""), "{err}");
    }

    #[test]
    fn every_variant_round_trips_at_extreme_values() {
        let (n, c) = (usize::MAX, u64::MAX);
        let events = [
            TraceEvent::RunStart {
                engine: "hybrid-mot".into(),
                faults: n,
                frames: n - 1,
            },
            TraceEvent::SymFrame {
                frame: n,
                live: n,
                peak: n,
                hits: c,
                misses: c - 1,
                gc: c,
                events: n,
                detected: n,
            },
            TraceEvent::TvFrame {
                frame: n,
                detected: n,
            },
            TraceEvent::NodeLimit { frame: n, limit: n },
            TraceEvent::SiftPass { swaps: c, shed: n },
            TraceEvent::FallbackEnter { frame: n },
            TraceEvent::FallbackExit {
                frame: n,
                frames: n,
            },
            TraceEvent::XRed {
                eliminated: n,
                remaining: 0,
            },
            TraceEvent::UnitStart { unit: n, faults: n },
            TraceEvent::UnitEnd {
                unit: n,
                detected: n,
            },
            TraceEvent::RunEnd {
                detected: n,
                fallback_frames: n,
                peak: n,
            },
        ];
        for ev in events {
            let line = ev.to_jsonl();
            assert_eq!(TraceEvent::parse_jsonl(&line), Ok(ev), "{line}");
        }
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
