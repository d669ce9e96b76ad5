//! Runs experiment E6 (serving saturation sweep) and optionally records
//! the numbers as JSON.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin serve_sweep
//! [requests] [json-path]`
//!
//! The recorded sweep from PR 5 (`BENCH_PR5.json`) was written by this
//! bin; since PR 6 the combined record (`BENCH_PR6.json`, throughput
//! rows + serving sweep) is regenerated with the `bench_record` bin.
//!
//! Every served outcome is verified against the workload's golden
//! outcome inside the serving runtime before its timing is accepted.
//! (The deterministic zero-shed-below-saturation assertion lives in
//! the `serve_smoke` CI gate, which uses a fixed service model.)

use tm_async_bench::args::{or_exit, positional};

const USAGE: &str = "usage: serve_sweep [requests] [json-path]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let requests = or_exit(positional(args.next(), "requests", 2048, 64), USAGE);
    let json_path = args.next();

    println!(
        "Experiment E6 — serving saturation sweep ({requests} requests per open-loop point)\n"
    );
    let report = tm_async_bench::serving::run(requests, 2021);
    print!("{}", report.render());

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json())?;
        println!("\nwrote {path}");
    }
    Ok(())
}
