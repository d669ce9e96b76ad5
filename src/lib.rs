//! Umbrella crate re-exporting every component of the reproduction of
//! *Low-Latency Asynchronous Logic Design for Inference at the Edge*
//! (Wheeldon, Yakovlev, Shafik, Morris — DATE 2021).
//!
//! The workspace implements, in pure Rust:
//!
//! * [`exec`] — a std-only data-parallel runtime (scoped worker threads
//!   over a chunked atomic work queue) behind the multi-threaded batch
//!   and event-driven inference paths;
//! * [`netlist`] — a structural gate-level netlist IR;
//! * [`celllib`] — parametric 65 nm standard-cell library models
//!   (UMC LL and FULL DIFFUSION) with voltage-dependent timing and power;
//! * [`sta`] — static timing analysis (arrival times, grace period,
//!   synchronous clock period);
//! * [`gatesim`] — an event-driven gate-level simulator with latency and
//!   switching-activity monitors, an `Arc`-shared engine compilation
//!   ([`gatesim::EngineProgram`]), a 64-lane bit-sliced kernel
//!   ([`gatesim::SlicedSimulator`]) and a word-sharded parallel mode
//!   ([`gatesim::ParallelEventSim`]);
//! * [`dualrail`] — the paper's core contribution: early-propagative
//!   dual-rail expansion with a reduced completion-detection scheme;
//! * [`tsetlin`] — the Tsetlin machine learning algorithm (training and
//!   inference) plus synthetic edge datasets;
//! * [`datapath`] — Tsetlin-machine inference datapath generators
//!   (clause logic, population count, magnitude comparator) in both
//!   single-rail synchronous and dual-rail asynchronous styles, plus
//!   the bulk-inference runtimes ([`datapath::BatchInference`],
//!   [`datapath::ParallelBatchInference`] and the per-operand-latency
//!   [`datapath::EventDrivenInference`] and
//!   [`datapath::DualRailInference`]);
//! * [`obs`] — the unified observability layer: a deterministic
//!   metrics registry (atomic counters/gauges/histograms with
//!   bit-identical snapshots at any thread count), VCD waveform
//!   capture for the simulators, and Chrome-trace export for the
//!   serving runtime — zero-overhead when disabled;
//! * [`serve`] — the micro-batching inference **serving runtime**:
//!   requests on a deterministic virtual clock, dynamic batching (lanes
//!   full or deadline), bounded-queue admission control (block/shed) and
//!   queueing-vs-service tail-latency telemetry over any of the four
//!   inference engines — 64-lane batch, sharded batch, and the bit-sliced
//!   event-driven and dual-rail simulators ([`serve::Backend`]).
//!
//! # Quickstart
//!
//! ```
//! use tm_async::datapath::{DatapathConfig, DualRailDatapath};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small inference datapath: 4 features, 4 clauses per polarity.
//! let config = DatapathConfig::new(4, 4)?;
//! let dp = DualRailDatapath::generate(&config)?;
//! assert!(dp.netlist().cell_count() > 100);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios (`edge_inference` ends with
//! the word-sharded per-operand-latency event path), `ARCHITECTURE.md` for the
//! design of the batch spine, the sharding contract, the three-tier
//! event queue and the engine-program split, and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

pub use celllib;
pub use datapath;
pub use dualrail;
pub use exec;
pub use gatesim;
pub use netlist;
pub use sta;
pub use tm_obs as obs;
pub use tm_serve as serve;
pub use tsetlin;
