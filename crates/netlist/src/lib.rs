//! Gate-level model of synchronous sequential circuits.
//!
//! This crate provides the structural substrate of the motsim workspace: a
//! compact in-memory representation of a synchronous sequential circuit
//! (combinational gates plus D flip-flops), together with
//!
//! - a [`builder::NetlistBuilder`] for programmatic construction,
//! - an ISCAS-89 `.bench` [parser](parse::parse_bench) and [writer](write::to_bench),
//! - [levelization](Netlist::eval_order) of the combinational part,
//! - structural [`analysis`] (fanin/fanout cones, statistics),
//! - enumeration of [leads](Netlist::leads) — the fault sites of the classical
//!   single-stuck-at fault model (gate output *stems* and fanout *branches*).
//!
//! A circuit is viewed as a finite state machine `M = (I, O, S, δ, λ)` in the
//! sense of the paper (Definition 1): `I = B^k` over the primary inputs,
//! `O = B^l` over the primary outputs and `S = B^m` over the flip-flops; `δ`
//! and `λ` are computed by the combinational gates.
//!
//! # Example
//!
//! ```
//! use motsim_netlist::{builder::NetlistBuilder, GateKind};
//!
//! # fn main() -> Result<(), motsim_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("toggle");
//! let en = b.add_input("EN")?;
//! let q = b.add_dff("Q")?;
//! let nq = b.add_gate("NQ", GateKind::Not, vec![q])?;
//! let d = b.add_gate("D", GateKind::Xor, vec![en, q])?;
//! b.connect_dff(q, d)?;
//! b.add_output(nq);
//! let netlist = b.finish()?;
//! assert_eq!(netlist.num_inputs(), 1);
//! assert_eq!(netlist.num_dffs(), 1);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod builder;
mod error;
mod model;
pub mod parse;
pub mod write;

pub use error::NetlistError;
pub use model::{GateKind, Lead, Net, NetId, Netlist, NodeKind};
