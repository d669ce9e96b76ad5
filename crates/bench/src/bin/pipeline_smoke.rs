//! Verified wavefront-pipelined dual-rail smoke for CI: a small operand
//! stream through the pipelined four-phase driver, with every check
//! that guards the `dualrail_pipelined_<N>` benchmark rows.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin pipeline_smoke
//! [operands]`
//!
//! Panics (non-zero exit) if any decoded outcome disagrees with the
//! software golden model, if the occupancy-1 pipelined run is not
//! bit-identical to the streamed contract driver, if two pipelined runs
//! of the same train differ (the replay must be deterministic), or if
//! the pipelined cycle time fails to beat the unpipelined cycle time
//! measured in the same run.

use celllib::Library;
use datapath::{DualRailDatapath, DualRailInference, InferenceWorkload};
use dualrail::{Occupancy, PipelineConfig, ProtocolDriver};
use tm_async_bench::args::{or_exit, positional};
use tm_async_bench::workloads::{standard_config, standard_workload};

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

const USAGE: &str = "usage: pipeline_smoke [operands]";

fn main() {
    let operands = or_exit(
        positional(std::env::args().nth(1), "operands", 16, 2),
        USAGE,
    );

    println!("Wavefront-pipelined dual-rail smoke ({operands} operands)\n");
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

    // Streamed single contract-mode driver: the unpipelined reference,
    // token by token.
    let mut streamed = ProtocolDriver::new(datapath.circuit(), &library).expect("driver");
    let snapshot = streamed.quiescent_snapshot();
    streamed.enable_reset_contract(snapshot);
    let expected: Vec<_> = workload
        .dual_rail_operands(&datapath)
        .expect("widths")
        .iter()
        .map(|operand| streamed.apply_operand(operand).expect("protocol cycle"))
        .collect();
    let serial_median = median(expected.iter().map(|r| r.cycle_time_ps));

    // Occupancy-1 pipelined run: must be fully bit-identical to the
    // streamed contract driver (serial delegation).
    let sim = DualRailInference::new(&datapath, &library, 1).expect("driver");
    let serial_config = PipelineConfig {
        occupancy: Occupancy::One,
        ..PipelineConfig::default()
    };
    let (run1, _) = sim
        .run_workload_pipelined(&workload, serial_config)
        .expect("occupancy-1 run");
    assert_eq!(
        run1.results, expected,
        "occupancy-1 pipelined results diverged from the streamed driver"
    );
    println!("occupancy 1: {operands} tokens bit-identical to the streamed contract driver");

    // Overlapped runs: golden-verified outcomes, token latency
    // unchanged, cycle time strictly below the serial cycle, and a
    // deterministic replay.
    for occupancy in [Occupancy::Two, Occupancy::Max] {
        let pipeline_config = PipelineConfig {
            occupancy,
            ..PipelineConfig::default()
        };
        let (run, report) = sim
            .run_workload_pipelined(&workload, pipeline_config)
            .expect("pipelined run");
        assert_eq!(
            run.outcomes.as_slice(),
            workload.expected(),
            "{occupancy:?} outcomes diverged from the golden model"
        );
        for (k, (got, want)) in run.results.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.s_to_v_latency_ps, want.s_to_v_latency_ps,
                "{occupancy:?} token {k} latency drifted from the serial driver"
            );
        }
        let pipelined_median = median(run.results.iter().map(|r| r.cycle_time_ps));
        assert!(
            pipelined_median < serial_median,
            "{occupancy:?} pipelined median cycle {pipelined_median:.1} ps is not below \
             the serial median {serial_median:.1} ps"
        );
        let (replay, _) = sim
            .run_workload_pipelined(&workload, pipeline_config)
            .expect("pipelined replay");
        assert_eq!(
            run.results, replay.results,
            "{occupancy:?} replay is not deterministic"
        );
        println!(
            "{occupancy:?}: {} tokens golden-verified; cycle median {:.1} ps vs serial \
             {:.1} ps ({:.2}x); {:.0} tokens/s simulated; replay deterministic",
            report.tokens,
            pipelined_median,
            serial_median,
            serial_median / pipelined_median,
            report.tokens_per_sec()
        );
    }

    println!("\nok: pipelined outcomes golden-verified, occupancy-1 bit-identical, replay deterministic, cycle time below serial");
}
