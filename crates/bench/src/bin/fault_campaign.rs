//! Experiment E7 — the full fault-injection campaign: stuck-at, SEU and
//! delay faults swept across fault site × fault type × engine, with
//! per-engine detection coverage and accuracy under simultaneous
//! stuck-at faults.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin fault_campaign
//! [operands] [sites] [json-path]`
//!
//! The recorded campaign at the repository root is regenerated with
//! `cargo run -p tm-async-bench --release --bin fault_campaign -- 16 6
//! BENCH_PR7.json`.

use tm_async_bench::args::{or_exit, positional};

const USAGE: &str = "usage: fault_campaign [operands] [sites] [json-path]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let operands = or_exit(positional(args.next(), "operands", 16, 1), USAGE);
    let sites = or_exit(positional(args.next(), "sites", 6, 1), USAGE);
    let json_path = args.next();

    println!(
        "Experiment E7 — fault-injection campaign ({operands} operands, {sites} sites per \
         netlist)\n"
    );
    let report = tm_async_bench::faults::run(operands, sites, 4, 2021);
    print!("{}", report.render());

    // The dual-rail encoding is the paper's structural detection story:
    // over the corrupting runs it must not be *worse* at catching
    // faults than the unprotected single-rail golden model.
    let dual = report
        .engine_coverage("dualrail_scalar")
        .ok_or("missing dualrail_scalar coverage row")?;
    let event = report
        .engine_coverage("event_scalar")
        .ok_or("missing event_scalar coverage row")?;
    println!(
        "\ndual-rail detection coverage {:.1}% vs single-rail {:.1}%",
        dual.detection_coverage * 100.0,
        event.detection_coverage * 100.0
    );

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json())?;
        println!("wrote {path}");
    }
    Ok(())
}
