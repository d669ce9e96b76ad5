//! Runs experiment E5 (bulk-inference throughput) and optionally records
//! the numbers as JSON.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin throughput
//! [operands] [json-path]`
//!
//! The recorded comparison at the repository root (`BENCH_PR6.json`,
//! throughput rows + serving sweep in one document) is regenerated
//! with the `bench_record` bin; this bin records the throughput
//! report alone.

use tm_async_bench::args::{or_exit, positional};

const USAGE: &str = "usage: throughput [operands] [json-path]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let operands = or_exit(positional(args.next(), "operands", 4096, 1), USAGE);
    let json_path = args.next();

    println!("Experiment E5 — bulk-inference throughput ({operands} operands)\n");
    // 64 streamed operands keep the event-driven row in steady state
    // (one-off simulator construction amortises below 2 % of the row).
    let report = tm_async_bench::throughput::run(operands, 64, 2021);
    print!("{}", report.render());

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json())?;
        println!("\nwrote {path}");
    }
    Ok(())
}
