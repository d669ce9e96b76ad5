//! Event-driven gate-level logic simulator.
//!
//! This crate plays the role of the post-synthesis timing simulation the
//! paper performs: it propagates transitions through a [`netlist::Netlist`]
//! with per-cell delays taken from a [`celllib::Library`] (and therefore a
//! supply voltage), records every output transition for activity-based
//! power estimation, and timestamps net changes so latency from input
//! application to output validity can be measured.
//!
//! The simulator is deliberately simple but faithful where it matters for
//! the paper's claims:
//!
//! * **three-valued logic** (0, 1, X) with controlling-value semantics,
//!   so uninitialised state is visible rather than silently guessed;
//! * **per-cell transport delays** that depend on cell kind, fan-out,
//!   supply voltage and process corner;
//! * **C-elements** simulated as state-holding gates (set on all-1,
//!   reset on all-0, hold otherwise);
//! * **rising-edge D flip-flops** for the synchronous baseline;
//! * **event timestamps** with picosecond resolution for latency
//!   measurement and throughput accounting.
//!
//! The engine is split into an immutable, `Arc`-shareable compilation
//! ([`EngineProgram`]: CSR fanout/input relations, per-kind three-valued
//! truth tables, memoised delays) and per-instance mutable state
//! ([`Simulator`]), so instances replicate cheaply.
//!
//! [`SlicedSimulator`] evaluates the same programs 64 operand lanes at
//! a time by encoding each net's three-valued state as two `u64`
//! bitplanes; [`run_word_return_to_zero`] drives a whole word through
//! one return-to-zero cycle with per-lane outputs, settle times and
//! event counts bit-identical to streaming the operands through one
//! scalar [`Simulator`] with [`run_return_to_zero`] (see the
//! [`sliced`] module).  [`ParallelEventSim`] shards independent words
//! of a combinational netlist across worker threads
//! ([`exec::Executor::map_chunks_with`]) with bit-identical results and
//! per-operand latency figures ([`LatencyReport`]) — the paper's figure
//! of merit at bulk-workload scale.
//!
//! [`ArrivalProgram`] settles one operand of a monotone (dual-rail)
//! netlist without an event queue: one topological `(min, max, +)`
//! pass per protocol phase over the cells' input move times, with the
//! same per-lane results as the event kernels (see the [`arrival`]
//! module).
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, CellKind};
//! use celllib::Library;
//! use gatesim::{Simulator, Logic};
//!
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_cell("and", CellKind::And2, &[a, b]).unwrap();
//! nl.add_output("y", y);
//!
//! let lib = Library::umc_ll();
//! let mut sim = Simulator::new(&nl, &lib);
//! sim.set_input(a, Logic::One);
//! sim.set_input(b, Logic::One);
//! sim.run_until_quiescent();
//! assert_eq!(sim.value(y), Logic::One);
//! assert!(sim.now_ps() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod engine;
pub mod event;
pub mod fault;
pub mod monitor;
pub mod parallel;
pub mod program;
pub mod sliced;
pub mod testbench;
pub mod value;

pub use arrival::{ArrivalCompileError, ArrivalProgram, ArrivalRun, ArrivalTie};
pub use engine::{RunOutcome, Simulator, StepOutcome};
pub use event::{Event, EventQueue, SimEvent};
pub use fault::{FaultPlan, SettleError, SettlePhase, SeuPulse};
pub use monitor::{LatencyReport, LatencyStats, PipelineReport};
pub use parallel::{run_return_to_zero, try_run_return_to_zero, OperandRun, ParallelEventSim};
pub use program::EngineProgram;
pub use sliced::{
    lane_mask, run_word_return_to_zero, try_run_word_return_to_zero, SlicedSimulator,
};
pub use testbench::{run_combinational_vectors, run_synchronous_vectors, SyncRunResult};
pub use value::Logic;
