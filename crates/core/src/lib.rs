//! Early-propagative dual-rail asynchronous circuit design with reduced
//! completion detection — the core contribution of *Low-Latency
//! Asynchronous Logic Design for Inference at the Edge* (Wheeldon et al.,
//! DATE 2021).
//!
//! # What this crate provides
//!
//! * [`encoding`] — dual-rail and 1-of-n codeword types, spacer polarity
//!   and codeword decoding;
//! * [`circuit`] — [`DualRailNetlist`], a netlist whose ports are grouped
//!   into dual-rail (and 1-of-n) signals;
//! * [`gates`] — construction helpers for dual-rail logic: masks, AND/OR
//!   trees, spacer inverters, C-element input latches, dual-rail half and
//!   full adders;
//! * [`expand`] — automatic expansion of a single-rail netlist into an
//!   equivalent dual-rail netlist (direct mapping with the
//!   rail-swap-for-inverters optimisation);
//! * [`unate`] — checks for Requirement 2 (monotonic switching requires
//!   unate gates only);
//! * [`completion`] — full and *reduced* completion-detection insertion;
//! * [`protocol`] — a four-phase handshake environment that drives a
//!   dual-rail netlist through spacer/valid cycles on the event-driven
//!   simulator, measuring spacer→valid latency, valid→spacer reset time
//!   and protocol violations;
//! * [`parallel`] — [`ParallelProtocolDriver`], the word and train
//!   drivers below with the operand stream sharded across worker
//!   threads by [`exec::Executor::map_chunks_with`] under the verified
//!   reset-phase contract, bit-identical to the streamed
//!   [`ProtocolDriver`] at any thread count;
//! * [`sliced`] — [`SlicedProtocolDriver`], the four-phase environment
//!   on the bit-sliced event kernel: up to 64 operand lanes per word,
//!   per-lane results bit-identical to a phase-rebased streamed driver
//!   ([`ProtocolDriver::enable_phase_rebase`]);
//! * [`pipeline`] — [`PipelinedProtocolDriver`], the wavefront-pipelined
//!   four-phase environment: each train is profiled serially, scheduled
//!   from the measured wave times and replayed overlapped, with every
//!   decoded figure bit-identical to the serial driver;
//! * [`timing`] — throughput/latency bookkeeping combining protocol
//!   measurements with the static grace period.
//!
//! # The reduced completion-detection scheme in one paragraph
//!
//! Completion detection that acknowledges both codeword phases on every
//! output (and, worse, on internal nets) costs many C-elements.  The
//! paper instead acknowledges only the spacer→valid transition at the
//! primary outputs using one OR gate per dual-rail pair and a C-element
//! tree.  The valid→spacer phase is covered by a *timing assumption*: a
//! grace period `t_d = t_int − t_io` (computed by static timing analysis
//! over all internal nets, including false paths) which can be folded
//! into the falling edge of `done`, so the environment need not change.
//!
//! # Example
//!
//! ```
//! use dualrail::{DualRailNetlist, ProtocolDriver, ReducedCompletion};
//! use celllib::Library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a dual-rail AND gate by hand.
//! let mut dr = DualRailNetlist::new("and_gate");
//! let a = dr.add_dual_input("a");
//! let b = dr.add_dual_input("b");
//! let y = dr.and2("y", a, b)?;
//! dr.add_dual_output("y", y);
//!
//! // Insert the paper's reduced completion detection.
//! let report = ReducedCompletion::insert(&mut dr)?;
//! assert!(report.gates_added > 0);
//!
//! // Drive it through a four-phase cycle and measure latency.
//! let lib = Library::umc_ll();
//! let mut driver = ProtocolDriver::new(&dr, &lib)?;
//! let result = driver.apply_operand(&[true, true])?;
//! assert_eq!(result.outputs, vec![true]);
//! assert!(result.s_to_v_latency_ps > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod circuit;
pub mod completion;
pub mod encoding;
pub mod error;
pub mod expand;
pub mod gates;
pub mod parallel;
pub mod pipeline;
pub mod preflight;
pub mod protocol;
pub mod sliced;
pub mod timing;
pub mod unate;

pub use circuit::{DualRailNetlist, DualRailSignal};
pub use completion::{CompletionReport, FullCompletion, ReducedCompletion};
pub use encoding::{DualRailValue, OneOfNValue, SpacerPolarity};
pub use error::DualRailError;
pub use expand::{expand_to_dual_rail, ExpansionStyle};
pub use parallel::{ParallelProtocolDriver, ParallelProtocolRun};
pub use pipeline::{Occupancy, PipelineConfig, PipelinedProtocolDriver};
pub use protocol::{OperandResult, ProtocolDriver};
pub use sliced::{rebased_reference_driver, SlicedProtocolDriver};
pub use timing::ThroughputReport;
pub use unate::{check_unate, UnateViolation};
