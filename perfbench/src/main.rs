//! Outside-in benchmark of the asynchronous Tsetlin-machine inference
//! stack: two workloads (`bulk`, `serve_low`) run against the existing
//! engines and serving runtime, every output golden-checked before a
//! number counts.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer split instead, timing each
//! layer through its public functions.  Human-readable detail goes to
//! standard error; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  A run whose outputs
//! diverge anywhere exits non-zero without reporting numbers.

mod args;
mod layers;
mod report;
mod setup;
mod stats;
mod workloads;

use std::process::ExitCode;

use args::{Args, USAGE};

/// The error type of every fallible step.
pub type BoxError = Box<dyn std::error::Error>;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (available threads: {threads})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        layers::run(&args)
    } else {
        workloads::run(&args)
    };
    let json = result.and_then(|report| {
        eprintln!("{}", report.render());
        report.to_json()
    });
    match json {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}
