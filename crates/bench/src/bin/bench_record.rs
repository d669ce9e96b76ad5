//! Records the simulated-time benchmark file: the wavefront-pipelined
//! cycle summary (experiment E8) in one JSON document, together with
//! the observability capture — an engine metrics snapshot embedded in
//! the report's `meta`, a four-phase handshake VCD and a serving Chrome
//! trace written next to the report.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin bench_record
//! [json-path]`
//!
//! Without a path the bin prints the E8 summary only.  It records no
//! wall-clock figure: host speed is measured by `perfbench/`.

use dualrail::Occupancy;
use tm_async_bench::args::{no_more, or_exit};
use tm_async_bench::pipeline_cycle;
use tm_async_bench::workloads::{standard_config, standard_workload};

/// Operands of the E8 run, as in the recorded `BENCH_PR8.json` and
/// `BENCH_PR10.json`.
const PIPELINE_OPERANDS: usize = 64;

/// Operands for the observability capture pass: enough to put every
/// engine family in steady state and spill the sliced engines into a
/// second 64-lane word.
const OBS_OPERANDS: usize = 96;

/// Requests for the captured serving trace — a short session whose
/// Chrome trace stays readable in a viewer.
const OBS_REQUESTS: usize = 256;

const USAGE: &str = "usage: bench_record [json-path]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let json_path = args.next();
    or_exit(no_more(args), USAGE);

    println!("Experiment E8 — wavefront-pipelined cycle time ({PIPELINE_OPERANDS} operands)\n");
    let standard = standard_workload(PIPELINE_OPERANDS, 2021);
    let cycle = pipeline_cycle::run(&standard.workload, Occupancy::Max);
    print!("{}", cycle.render());

    if let Some(path) = json_path {
        // Run metadata so a recorded file is reproducible: the
        // bit-sliced lane width, the host parallelism, the simulator's
        // per-phase event watchdog, the static-verification verdict for
        // the measured netlist (a record over a netlist that fails the
        // verifier is not comparable with one that passes), and the
        // engine metrics snapshot from the instrumented capture pass.
        let datapath = datapath::DualRailDatapath::generate(&standard_config())?;
        let lint = tm_lint::lint_dual_rail(
            datapath.circuit(),
            &celllib::Library::umc_ll(),
            &tm_lint::LintConfig::default(),
        );
        println!("\ncapturing observability artifacts ({OBS_OPERANDS} operands, {OBS_REQUESTS} requests)");
        let obs = tm_async_bench::obs_capture::capture(OBS_OPERANDS, OBS_REQUESTS, 2021);
        let meta = format!(
            "{{\"lanes\": {}, \"available_threads\": {}, \"event_limit\": {}, \
             \"lint\": {{\"codes_checked\": {}, \"findings\": {}, \"errors\": {}}}, \
             \"metrics\": {}}}",
            netlist::LANES,
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            gatesim::Simulator::DEFAULT_EVENT_LIMIT,
            lint.codes_checked.len(),
            lint.diagnostics.len(),
            lint.error_count(),
            obs.snapshot.to_json().trim_end(),
        );
        let combined = format!(
            "{{\n\"meta\": {},\n\"dualrail_pipelined_cycle\": {},\n\"workload_accuracy\": {:.4}\n}}\n",
            meta,
            cycle.to_json(),
            standard.accuracy,
        );
        std::fs::write(&path, combined)?;
        println!("wrote {path}");

        let stem = path.strip_suffix(".json").unwrap_or(&path);
        let vcd_path = format!("{stem}.vcd");
        std::fs::write(&vcd_path, &obs.vcd)?;
        println!("wrote {vcd_path}");
        let trace_path = format!("{stem}.trace.json");
        std::fs::write(&trace_path, &obs.serve_trace_json)?;
        println!("wrote {trace_path}");
    }
    Ok(())
}
