//! Observability capture for the recorded benchmarks (PR 10): one
//! entry point that exercises every engine family with a shared
//! [`tm_obs::MetricsRegistry`], dumps a dual-rail handshake waveform
//! as VCD, and records one serving session as a Chrome trace.
//!
//! The captured artifacts are embedded in / written next to the
//! `bench_record` JSON so a recorded run carries its own engine-level
//! evidence: how many events each kernel actually popped, suppressed
//! and coalesced, what the four-phase waveform looked like, and how
//! requests moved through the micro-batcher.  Everything here is
//! deterministic — engine counters are thread-count invariant under
//! the sharding contract (pinned by this module's tests and the
//! property tests), the waveform comes from a single streamed driver,
//! and the serving trace uses a fixed service model on the virtual
//! clock.

use std::sync::Arc;

use celllib::Library;
use datapath::{BatchGoldenModel, DualRailDatapath, DualRailInference, EventDrivenInference};
use dualrail::{Occupancy, PipelineConfig, ProtocolDriver};
use tm_obs::{MetricsRegistry, MetricsSnapshot};
use tm_serve::{BatchBackend, ServeConfig, Server, ServiceModel, Trace, TraceRecorder};

use crate::workloads::{standard_config, standard_workload};

/// The engine-metric name prefixes the capture run populates, one per
/// benchmark engine family (`<prefix>.events_popped` etc. for the
/// simulator counters, `dualrail.*.protocol.cycles` etc. for the
/// four-phase handshake counters).
pub const ENGINE_PREFIXES: [&str; 4] = [
    "event.scalar",
    "event.sliced",
    "dualrail.scalar",
    "dualrail.sliced",
];

/// The three observability artifacts of one capture run.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsArtifacts {
    /// Merged engine/protocol counters for every engine family.
    pub snapshot: MetricsSnapshot,
    /// VCD dump of one four-phase handshake cycle (outputs + `done`).
    pub vcd: String,
    /// Chrome-trace JSON of one fixed-service-model serving session.
    pub serve_trace_json: String,
}

/// Runs all four engine families (scalar/sliced event-driven golden
/// model and scalar/sliced/pipelined dual-rail) over a small verified
/// workload with every instrument attached to one shared registry,
/// and returns the registry's snapshot.
///
/// The snapshot is a pure function of `(operands, seed)` — `threads`
/// only shards the work, so snapshots taken at different thread
/// counts compare equal.
///
/// # Panics
///
/// Panics if any engine diverges from the golden outcomes or fails to
/// run — a capture over a broken engine must not be recorded.
#[must_use]
pub fn engine_metrics_snapshot(operands: usize, seed: u64, threads: usize) -> MetricsSnapshot {
    let config = standard_config();
    let standard = standard_workload(operands, seed);
    let workload = &standard.workload;
    let expected = workload.expected();
    let library = Library::umc_ll();
    let registry = Arc::new(MetricsRegistry::new());

    let model = BatchGoldenModel::generate(&config).expect("model generation");
    let mut event = EventDrivenInference::new(&model, &library, threads);
    event.set_metrics(&registry, "event");
    let run = event.run_workload(workload).expect("event-driven run");
    assert_eq!(run.outcomes.as_slice(), expected, "event outcomes diverged");
    let run = event
        .run_workload_sliced(workload)
        .expect("sliced event-driven run");
    assert_eq!(
        run.outcomes.as_slice(),
        expected,
        "sliced event outcomes diverged"
    );

    let datapath = DualRailDatapath::generate(&config).expect("datapath generation");
    let mut dual = DualRailInference::new(&datapath, &library, threads).expect("driver");
    dual.set_metrics(&registry, "dualrail");
    let run = dual.run_workload(workload).expect("dual-rail run");
    assert_eq!(
        run.outcomes.as_slice(),
        expected,
        "dual-rail outcomes diverged"
    );
    let run = dual
        .run_workload_sliced(workload)
        .expect("sliced dual-rail run");
    assert_eq!(
        run.outcomes.as_slice(),
        expected,
        "sliced dual-rail outcomes diverged"
    );
    let (run, _report) = dual
        .run_workload_pipelined(
            workload,
            PipelineConfig {
                occupancy: Occupancy::Max,
                ..PipelineConfig::default()
            },
        )
        .expect("pipelined dual-rail run");
    assert_eq!(
        run.outcomes.as_slice(),
        expected,
        "pipelined dual-rail outcomes diverged"
    );

    registry.snapshot()
}

/// Records one four-phase handshake cycle (spacer → valid → spacer)
/// of the standard dual-rail datapath on the first workload operand
/// and returns the standard-VCD dump: every dual-rail output pair as
/// a 2-bit codeword vector plus the `done` completion signal.
///
/// Deterministic for a fixed `seed` (single streamed driver, no
/// sharding), which is what the golden-VCD regression test pins.
///
/// # Panics
///
/// Panics if datapath generation or the protocol cycle fails.
#[must_use]
pub fn waveform_vcd(seed: u64) -> String {
    let config = standard_config();
    let standard = standard_workload(1, seed);
    let datapath = DualRailDatapath::generate(&config).expect("datapath generation");
    let library = Library::umc_ll();
    let operands = standard
        .workload
        .dual_rail_operands(&datapath)
        .expect("operand widths match");

    let mut driver = ProtocolDriver::new(datapath.circuit(), &library).expect("driver");
    // The standard datapath's primary outputs are 1-of-n comparator
    // rails plus `done`; watch the first few dual-rail *inputs* as
    // 2-bit codeword vectors too, so the waveform shows the RTZ
    // encoding (b00 spacer, b10 → 1, b01 → 0) explicitly.
    let mut probe = driver.output_wave_probe();
    for (name, signal) in datapath.circuit().dual_inputs().iter().take(4) {
        probe.watch_pair(name, signal.positive.index(), signal.negative.index());
    }
    driver.attach_wave_probe(probe);
    driver
        .apply_operand(&operands[0])
        .expect("four-phase cycle completes");
    driver
        .take_wave_probe()
        .expect("probe was attached")
        .to_vcd("dual_rail_datapath")
}

/// Runs one fixed-service-model serving session (Poisson arrivals
/// through the 64-lane micro-batcher over the batch backend) with a
/// [`TraceRecorder`] attached and returns the Chrome-trace JSON.
///
/// The virtual clock plus the fixed cost model make the JSON
/// byte-identical run to run.
///
/// # Panics
///
/// Panics if the serving session fails golden verification.
#[must_use]
pub fn serve_trace_json(requests: usize, seed: u64) -> String {
    let config = standard_config();
    let standard = standard_workload(64, seed);
    let workload = &standard.workload;
    let model = BatchGoldenModel::generate(&config).expect("model generation");
    let backend = BatchBackend::new(&model, workload.masks().clone()).expect("backend");
    let mut server = Server::new(
        backend,
        workload,
        ServeConfig {
            max_wait_ns: 5_000,
            service_model: ServiceModel::Fixed {
                batch_ns: 200,
                per_request_ns: 20,
            },
            ..ServeConfig::default()
        },
    )
    .expect("server construction");

    let mut recorder = TraceRecorder::new("tm-serve");
    let report = server
        .run_traced(&Trace::poisson(requests, 2e6, seed), &mut recorder)
        .expect("traced serving session");
    assert_eq!(
        report.served_count() + report.shed_count(),
        requests,
        "every request must be accounted for"
    );
    recorder.to_json()
}

/// Captures all three artifacts in one pass: the engine metrics
/// snapshot (at the host's available parallelism), the handshake VCD
/// and the serving Chrome trace.
///
/// # Panics
///
/// Panics if any engine diverges or any capture step fails (see the
/// per-artifact functions).
#[must_use]
pub fn capture(operands: usize, serve_requests: usize, seed: u64) -> ObsArtifacts {
    ObsArtifacts {
        snapshot: engine_metrics_snapshot(operands, seed, exec::available_parallelism()),
        vcd: waveform_vcd(seed),
        serve_trace_json: serve_trace_json(serve_requests, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_produces_nonzero_counters_and_well_formed_artifacts() {
        let artifacts = capture(8, 96, 2021);
        for prefix in ENGINE_PREFIXES {
            let popped = artifacts
                .snapshot
                .counter(&format!("{prefix}.events_popped"));
            let suppressed = artifacts
                .snapshot
                .counter(&format!("{prefix}.events_suppressed"));
            assert!(popped > 0, "{prefix}: no events popped");
            assert!(suppressed > 0, "{prefix}: no events suppressed");
        }
        for kind in ["scalar", "sliced"] {
            assert!(
                artifacts
                    .snapshot
                    .counter(&format!("dualrail.{kind}.protocol.cycles"))
                    > 0,
                "dualrail.{kind}: no protocol cycles recorded"
            );
        }
        tm_obs::vcd_is_well_formed(&artifacts.vcd).expect("VCD must be well-formed");
        tm_obs::json_is_well_formed(&artifacts.serve_trace_json).expect("trace JSON must parse");
    }

    #[test]
    fn engine_snapshot_is_thread_count_invariant() {
        let reference = engine_metrics_snapshot(6, 7, 1);
        assert_eq!(
            reference,
            engine_metrics_snapshot(6, 7, 2),
            "2-thread snapshot diverged"
        );
    }

    #[test]
    fn engine_snapshot_is_thread_count_invariant_across_words() {
        // 70 and 96 operands spill into a second 64-lane word, so the
        // sliced engines shard words (not just lanes) across workers;
        // 96 operands at seed 2021 is the capture `bench_record` embeds,
        // also replayed at one thread.
        for (operands, seed, thread_counts) in [(70, 7, &[3][..]), (96, 2021, &[1, 2, 7])] {
            let reference = engine_metrics_snapshot(operands, seed, 1);
            for &threads in thread_counts {
                assert_eq!(
                    reference,
                    engine_metrics_snapshot(operands, seed, threads),
                    "{operands} operands: {threads}-thread snapshot diverged"
                );
            }
        }
    }
}
