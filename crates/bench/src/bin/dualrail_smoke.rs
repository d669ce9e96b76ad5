//! Verified dual-rail parallel throughput smoke for CI: a small operand
//! stream through the sharded four-phase protocol driver at several
//! thread counts, with every check that guards the `dualrail_parallel_<N>`
//! benchmark rows.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin dualrail_smoke
//! [operands]`
//!
//! Panics (non-zero exit) if any decoded outcome disagrees with the
//! software golden model, if any thread count disagrees with the
//! streamed single contract-mode driver, or if a cycle violates the
//! reset-phase sharding contract.  The 64-wide bit-sliced driver is
//! then run through the same gauntlet: golden-verified outcomes,
//! shard-invariant full runs, and per-lane spacer→valid / `done`
//! latencies bit-identical to the scalar driver.

use celllib::Library;
use datapath::{DualRailDatapath, DualRailInference, InferenceWorkload};
use dualrail::ProtocolDriver;
use tm_async_bench::args::{or_exit, positional};
use tm_async_bench::workloads::{standard_config, standard_workload};

const USAGE: &str = "usage: dualrail_smoke [operands]";

fn main() {
    let operands = or_exit(positional(std::env::args().nth(1), "operands", 8, 1), USAGE);

    println!("Dual-rail parallel smoke ({operands} operands)\n");
    let config = standard_config();
    let standard = standard_workload(operands, 2021);
    let workload = InferenceWorkload::new(
        &config,
        standard.workload.masks().clone(),
        standard.workload.feature_vectors().to_vec(),
    )
    .expect("workload is well-formed");

    let datapath = DualRailDatapath::generate(&config).expect("generation");
    let library = Library::umc_ll();

    // Streamed single contract-mode driver: the sharding reference.
    let mut streamed = ProtocolDriver::new(datapath.circuit(), &library).expect("driver");
    let snapshot = streamed.quiescent_snapshot();
    streamed.enable_reset_contract(snapshot);
    let expected: Vec<_> = workload
        .dual_rail_operands(&datapath)
        .expect("widths")
        .iter()
        .map(|operand| streamed.apply_operand(operand).expect("protocol cycle"))
        .collect();

    for threads in [1, 2] {
        let sim = DualRailInference::new(&datapath, &library, threads).expect("driver");
        let run = sim.run_workload(&workload).expect("dual-rail run");
        assert_eq!(
            run.outcomes.as_slice(),
            workload.expected(),
            "{threads}-thread outcomes diverged from the golden model"
        );
        assert_eq!(
            run.results, expected,
            "{threads}-thread results diverged from the streamed driver"
        );
        let done = run.done_latency.expect("completion detection present");
        println!(
            "threads={threads}: {} operands verified; s→v min {:.1} ps, median {:.1} ps, \
             max {:.1} ps; done max {:.1} ps",
            run.latency.count(),
            run.latency.min_ps(),
            run.latency.median_ps(),
            run.latency.max_ps(),
            done.max_ps()
        );
    }
    // Bit-sliced driver: same workload, 64 handshake cycles per lane
    // word.  Runs must be golden-verified, identical across thread
    // counts, and agree with the scalar driver on every per-lane
    // latency bit.
    let mut sliced_runs = Vec::new();
    for threads in [1, 2] {
        let sim = DualRailInference::new(&datapath, &library, threads).expect("driver");
        let scalar = sim.run_workload(&workload).expect("dual-rail run");
        let run = sim
            .run_workload_sliced(&workload)
            .expect("sliced dual-rail run");
        assert_eq!(
            run.outcomes.as_slice(),
            workload.expected(),
            "{threads}-thread sliced outcomes diverged from the golden model"
        );
        assert_eq!(
            run.latency, scalar.latency,
            "{threads}-thread sliced spacer→valid latencies drifted from the scalar driver"
        );
        assert_eq!(
            run.done_latency, scalar.done_latency,
            "{threads}-thread sliced done latencies drifted from the scalar driver"
        );
        println!(
            "sliced threads={threads}: {} operands verified; s→v max {:.1} ps (bit-identical \
             to scalar)",
            run.latency.count(),
            run.latency.max_ps(),
        );
        sliced_runs.push(run);
    }
    assert_eq!(
        sliced_runs[0], sliced_runs[1],
        "sliced runs must be shard-invariant"
    );

    println!("\nok: outcomes golden-verified, shard-invariant, contract held (scalar + sliced)");
}
