//! Structural gate-level netlist intermediate representation.
//!
//! This crate is the foundation substrate of the reproduction of
//! *Low-Latency Asynchronous Logic Design for Inference at the Edge*
//! (Wheeldon et al., DATE 2021).  It models circuits at the same
//! abstraction level a post-synthesis gate-level netlist would have:
//! primitive standard cells (simple gates, complex AOI/OAI gates,
//! C-elements, flip-flops) connected by nets, with named primary inputs
//! and outputs.
//!
//! Everything downstream — the dual-rail expansion, completion-detection
//! insertion, static timing analysis and the event-driven simulator —
//! operates on the [`Netlist`] type defined here.
//!
//! The evaluators ([`Evaluator`], and [`BatchEvaluator`] with 64 samples
//! per pass) run on the calling thread; the inference runtimes shard
//! whole passes across threads with the `exec` crate.
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, CellKind};
//!
//! // Build a tiny AND-OR circuit:  y = (a & b) | c
//! let mut nl = Netlist::new("and_or");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let c = nl.add_input("c");
//! let ab = nl.add_cell("u_and", CellKind::And2, &[a, b]).unwrap();
//! let y = nl.add_cell("u_or", CellKind::Or2, &[ab, c]).unwrap();
//! nl.add_output("y", y);
//!
//! assert_eq!(nl.cell_count(), 2);
//! assert_eq!(nl.primary_inputs().len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod cell;
pub mod error;
pub mod eval;
pub mod graph;
pub mod ids;
pub mod netlist;
pub mod stats;

pub use batch::{pack_lanes, unpack_lane, BatchEvaluator, BatchState, LANES};
pub use cell::{Cell, CellKind, Unateness};
pub use error::NetlistError;
pub use eval::{EvalState, Evaluator};
pub use graph::{levelize, topological_order, TopoError};
pub use ids::{CellId, NetId, PortId};
pub use netlist::{Net, NetDriver, Netlist, Port, PortDirection};
pub use stats::{CellHistogram, NetlistStats};
