//! Micro-batching inference serving runtime with admission control and
//! tail-latency telemetry.
//!
//! The workspace has four inference engines — 64-lane batch, its
//! sharded parallel variant, the bit-sliced event-driven golden model
//! and the bit-sliced dual-rail four-phase datapath — and all of them
//! consume *offline workloads*.  This crate turns them into a
//! **service**: individual requests arrive on a deterministic virtual
//! clock, a dynamic micro-batcher coalesces them (flush when 64 lanes
//! fill **or** a max-wait deadline expires, amortising the batch path
//! without unbounded queueing delay, **or** at once on a free server
//! when arrivals come too far apart for a companion to be expected
//! within the wait, since waiting would then amortise nothing),
//! admission control bounds the queue (block or shed, sheds counted),
//! and the event loop calls the pluggable [`Backend`] inline, on its
//! own thread, once per batch.
//! Telemetry splits every request's **queueing delay** from its
//! **service time** and reports p50/p95/p99 as exact order statistics
//! ([`gatesim::LatencyReport::percentile`]) — the queueing-system
//! counterpart of the paper's data-dependent hardware latency
//! distributions.
//!
//! * [`Trace`] — the open-loop load generator (uniform / Poisson /
//!   bursty / ramp arrivals); [`Server::run_closed`] drives a closed
//!   loop instead.
//! * [`MicroBatcher`] + [`AdmissionPolicy`] — the deterministic batcher
//!   state machine (see `batcher` module docs).
//! * [`Backend`] — one trait, four adapters ([`BatchBackend`],
//!   [`ParallelBatchBackend`], and the bit-sliced [`EventSlicedBackend`]
//!   and [`DualRailSlicedBackend`]).
//! * [`Server`] — the virtual-clock event loop; see `server` module
//!   docs for the determinism contract.  **Every served outcome is
//!   verified against the workload's golden outcome** before a report
//!   is returned.
//! * [`ServeReport`] / [`ServeSummary`] — per-request records and the
//!   condensed saturation-sweep figures.
//! * [`CircuitBreaker`] + [`ServeConfig::deadline_ns`] — fault
//!   tolerance: a failing primary backend is retried, then demoted to a
//!   golden fallback after repeated failures ([`BackendFaultStats`]
//!   lands in [`ServeReport::backend_faults`]); requests whose
//!   per-request deadline expires while queued are shed at flush time
//!   instead of being dispatched stale.
//!
//! # Example
//!
//! ```
//! use datapath::{BatchGoldenModel, DatapathConfig, InferenceWorkload};
//! use tm_serve::{BatchBackend, ServeConfig, Server, ServiceModel, Trace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = DatapathConfig::new(6, 4)?;
//! let model = BatchGoldenModel::generate(&config)?;
//! let workload = InferenceWorkload::random(&config, 32, 0.7, 42)?;
//!
//! let backend = BatchBackend::new(&model, workload.masks().clone())?;
//! let mut server = Server::new(
//!     backend,
//!     &workload,
//!     ServeConfig {
//!         max_wait_ns: 5_000, // wait at most 5 µs for a batch to fill
//!         // A fixed cost model makes the whole report deterministic.
//!         service_model: ServiceModel::Fixed { batch_ns: 200, per_request_ns: 20 },
//!         ..ServeConfig::default()
//!     },
//! )?;
//!
//! // 500 Poisson arrivals at 2M requests/s of virtual time.
//! let report = server.run(&Trace::poisson(500, 2e6, 7))?;
//! assert_eq!(report.served_count() + report.shed_count(), 500);
//! assert_eq!(report.shed_count(), 0); // below saturation nothing sheds
//! let summary = report.summary();
//! assert!(summary.queue_p50_ns <= summary.queue_p99_ns);
//! assert!(summary.achieved_qps > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod batcher;
pub mod error;
pub mod obs;
pub mod server;
pub mod telemetry;
pub mod trace;

pub use backend::{
    Backend, BatchBackend, CircuitBreaker, DualRailSlicedBackend, EventSlicedBackend, FlakyBackend,
    ParallelBatchBackend,
};
pub use batcher::{AdmissionPolicy, MicroBatcher, PendingRequest};
pub use error::ServeError;
pub use obs::TraceRecorder;
pub use server::{ServeConfig, Server, ServiceModel};
pub use telemetry::{
    BackendFaultStats, BatchRecord, ServeReport, ServeSummary, ServedRecord, ShedRecord,
};
pub use trace::{Trace, VirtualNs};
