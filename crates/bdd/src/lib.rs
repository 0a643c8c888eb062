//! An Ordered Binary Decision Diagram (OBDD) package.
//!
//! This is a from-scratch implementation of Bryant-style reduced ordered
//! BDDs with **complement edges**, written as the symbolic substrate of the
//! motsim fault simulator:
//!
//! - complement-edge node encoding (CUDD-style): an edge is a node index
//!   plus a complement bit, there is a single terminal node, negation is an
//!   infallible O(1) bit flip ([`Bdd::not`]), and a function shares its
//!   entire subgraph with its negation — roughly halving node counts for
//!   the good/faulty function pairs the fault simulator builds,
//! - canonical form (regular then-edge, enforced on node creation) →
//!   `f == g` is pointer equality,
//! - an open-addressed **arena unique table** (flat `Vec`, linear probing,
//!   probe-length counters) instead of a `HashMap`,
//! - recursive ITE with standard-triple normalization and a bounded,
//!   hit/miss-counted direct-mapped computed cache ([`BddStats`]),
//! - reference-counted external handles ([`Bdd`]) + mark-sweep [garbage
//!   collection](BddManager::gc); the refcounts live in an array parallel
//!   to the node arena, and GC takes its roots from a scan of it,
//! - hash-free traversals: the memos of rename and satisfy-count, and the
//!   visited sets of support, size and the GC mark phase, are epoch-stamped
//!   arrays indexed by arena position and reused across calls,
//! - a configurable **live-node limit** ([`BddManager::set_node_limit`]) —
//!   the mechanism behind the paper's hybrid fault simulator (operations
//!   return [`BddError::NodeLimit`] when the limit would be exceeded),
//! - [monotone variable renaming](Bdd::rename) (a single linear traversal;
//!   used for the MOT substitution `x_i → y_i` under an interleaved order),
//! - evaluation, satisfy-count, a satisfying assignment, DOT export,
//! - **dynamic variable reordering by sifting** ([`BddManager::sift`]):
//!   in-place Rudell-style adjacent-level swaps that preserve every
//!   outstanding handle and the complement-edge canonical form, with
//!   support for rigid variable *groups* (MOT's interleaved `(x, y)` rename
//!   pairs must move as a unit to keep [`Bdd::rename`] order-valid).
//!
//! The initial variable order is the creation order of
//! [`BddManager::new_var`]; a [`VarId`] is a stable *name*, and its current
//! position is [`BddManager::var_level`]. The paper's package used a fixed
//! order — its only answer to node-limit pressure was the lossy three-valued
//! fallback; sifting gives the engines a reorder-before-fallback option.
//!
//! Managers and handles are single-threaded by design (`!Send`/`!Sync` —
//! they share one reference-counted node store); run one manager per
//! thread for parallel workloads.
//!
//! # Example
//!
//! ```
//! use motsim_bdd::BddManager;
//!
//! # fn main() -> Result<(), motsim_bdd::BddError> {
//! let mgr = BddManager::new();
//! let x = mgr.new_var();
//! let y = mgr.new_var();
//! // (x ∧ y) ∨ ¬x  ==  x → y   (not() is infallible: a complement-bit flip)
//! let f = x.and(&y)?.or(&x.not())?;
//! let g = x.not().or(&y)?;
//! assert_eq!(f, g); // canonical form: semantic equality is handle equality
//! assert!(!f.is_const());
//! # Ok(())
//! # }
//! ```

mod dot;
mod error;
mod handle;
mod manager;

pub use dot::to_dot;
pub use error::BddError;
pub use handle::Bdd;
pub use manager::{BddManager, BddStats, VarId};
