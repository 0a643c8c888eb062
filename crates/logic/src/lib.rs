//! Multi-valued logics for fault simulation with unknown initial state.
//!
//! Two value domains are provided:
//!
//! - [`V3`] — the classical three-valued simulation logic `{0, 1, X}` used
//!   by conventional sequential fault simulators. `X` means "unknown"; gate
//!   evaluation is the pessimistic Kleene extension of Boolean logic.
//! - [`V4`] — the four-valued *observability lattice*
//!   `{X} ⊑ {X,0},{X,1} ⊑ {X,0,1}` of the paper's `ID_X-red` procedure
//!   (Section III): each lead records which binary values it ever assumed
//!   during a three-valued true-value simulation of the whole test sequence.
//!
//! Gate evaluation over [`V3`] is exposed both as binary operations on the
//! values and as whole-gate evaluation keyed by
//! [`GateKind`](motsim_netlist::GateKind), which the simulators use directly.
//! The gate switch itself, [`fold_gate`], is generic over [`Logic`], so
//! `V3` and `u64` Boolean lanes share one definition of every gate.
//!
//! # Example
//!
//! ```
//! use motsim_logic::{eval_gate, V3};
//! use motsim_netlist::GateKind;
//!
//! // An AND gate with a controlling 0 yields 0 even under unknowns:
//! assert_eq!(eval_gate(GateKind::And, &[V3::Zero, V3::X]), V3::Zero);
//! // but X AND 1 stays unknown:
//! assert_eq!(eval_gate(GateKind::And, &[V3::X, V3::One]), V3::X);
//! ```

mod gate;
mod v3;
mod v4;

pub use gate::{fold_gate, Logic};
pub use v3::{eval_gate, V3};
pub use v4::{eval_gate_v4, V4};
