//! Experiment E8 pinned: the simulated cycle figures of the
//! wavefront-pipelined dual-rail driver on the standard workload, bit
//! for bit, and the JSON block `bench_record` writes for them.

use tm_async::dualrail::Occupancy;
use tm_async_bench::pipeline_cycle::{self, PipelineCycleSummary};
use tm_async_bench::standard_workload;

/// Serial median 1989.9 ps, pipelined median 879.0 ps, two tokens in
/// flight and an unchanged 1273.4 ps worst token latency — the figures
/// recorded in `BENCH_PR8.json` and `BENCH_PR10.json`.
#[test]
fn the_standard_pipelined_cycle_figures_are_pinned() {
    let standard = standard_workload(64, 2021);
    let summary = pipeline_cycle::run(&standard.workload, Occupancy::Max);
    assert_eq!(
        summary,
        PipelineCycleSummary {
            operands: 64,
            occupancy: 2,
            serial_cycle_median_ps: 1989.8999999999999,
            pipelined_cycle_median_ps: 879.0080000000016,
            cycle_speedup: 2.263801922166802,
            token_latency_max_ps: 1273.3600000000001,
            tokens_per_simulated_sec: 1089675157.6198082,
        }
    );
    assert_eq!(
        summary.to_json(),
        "{\"operands\": 64, \"occupancy\": 2, \"serial_median_ps\": 1989.9, \
         \"pipelined_median_ps\": 879.0, \"speedup\": 2.26, \
         \"token_latency_max_ps\": 1273.4, \"tokens_per_simulated_sec\": 1089675158}"
    );
}

/// Capping the standard run at two tokens in flight changes nothing:
/// its measured schedule never holds more than two, so the summary is
/// the `Max` one, field for field.
#[test]
fn the_standard_pipelined_cycle_figures_are_pinned_at_two_tokens() {
    let standard = standard_workload(64, 2021);
    let summary = pipeline_cycle::run(&standard.workload, Occupancy::Two);
    assert_eq!(
        summary,
        PipelineCycleSummary {
            operands: 64,
            occupancy: 2,
            serial_cycle_median_ps: 1989.8999999999999,
            pipelined_cycle_median_ps: 879.0080000000016,
            cycle_speedup: 2.263801922166802,
            token_latency_max_ps: 1273.3600000000001,
            tokens_per_simulated_sec: 1089675157.6198082,
        }
    );
}

/// An occupancy cap of two also beats the serial cycle.
#[test]
fn two_tokens_in_flight_beat_the_serial_cycle() {
    let standard = standard_workload(16, 2021);
    let summary = pipeline_cycle::run(&standard.workload, Occupancy::Two);
    assert!(
        summary.pipelined_cycle_median_ps < summary.serial_cycle_median_ps,
        "{}",
        summary.render()
    );
}
