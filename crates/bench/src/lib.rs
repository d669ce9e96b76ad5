//! Experiment harness regenerating every table and figure of the paper's
//! evaluation section.
//!
//! | Experiment | Paper artefact | Module | Binary |
//! |---|---|---|---|
//! | E1 | Table I (single-rail vs dual-rail, two libraries) | [`table1`] | `cargo run -p tm-async-bench --release --bin table1` |
//! | E2 | Figure 3 (latency vs supply voltage) | [`fig3`] | `cargo run -p tm-async-bench --release --bin fig3` |
//! | E3 | Operand / delay probability distributions (contribution 2) | [`distributions`] | `cargo run -p tm-async-bench --release --bin distributions` |
//! | E4 | Ablations: reduced vs full completion detection, input latches | [`ablation`] | `cargo run -p tm-async-bench --release --bin ablation` |
//! | E7 | Fault-injection campaign: stuck-at/SEU/delay × engine, detection coverage, accuracy under fault | [`faults`] | `cargo run -p tm-async-bench --release --bin fault_campaign` |
//! | E8 | Simulated cycle time of the wavefront-pipelined dual-rail driver vs the serial one | [`pipeline_cycle`] | `cargo run -p tm-async-bench --release --bin bench_record` |
//!
//! Absolute numbers will not match the paper (the substrate is a
//! calibrated simulator, not the authors' Synopsys flow on proprietary
//! libraries); the *shapes* — who wins, by roughly what factor, where the
//! exponential voltage knee sits — are the reproduction target.
//!
//! Every experiment runs on the same workload ([`standard_workload`]): a
//! Tsetlin machine trained on the synthetic keyword-spotting task, its
//! exclude masks exported as the hardware's `e` inputs and its held-out
//! test set streamed as operands.  Each experiment checks its engines'
//! outputs against the workload's golden outcomes before it records a
//! figure.  Every figure is simulated time, area or a count: no module
//! here reads a wall clock, and host speed is measured by `perfbench/`
//! alone.
//!
//! The bins parse their arguments strictly ([`args`]): a missing
//! argument takes its default, and a value that does not parse, lies
//! out of range or is not expected at all exits with code 2 and the
//! bin's usage line.
//!
//! # Example
//!
//! ```
//! use tm_async_bench::{standard_config, standard_workload};
//!
//! // The paper's datapath dimensions: 12 features, 8 clauses/polarity.
//! let config = standard_config();
//! assert_eq!(config.features(), 12);
//! assert_eq!(config.clauses_per_polarity(), 8);
//!
//! // A tiny training run; every operand carries its golden outcome.
//! let standard = standard_workload(8, 2021);
//! assert_eq!(standard.workload.len(), 8);
//! assert_eq!(standard.workload.expected().len(), 8);
//! assert!(standard.accuracy > 0.5, "got {}", standard.accuracy);
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod args;
pub mod distributions;
pub mod faults;
pub mod fig3;
pub mod obs_capture;
pub mod pipeline_cycle;
pub mod serving;
pub mod table1;
pub mod workloads;

pub use workloads::{standard_config, standard_workload, StandardWorkload};
