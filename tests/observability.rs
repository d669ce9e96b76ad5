//! Observability-layer invariants (PR 10): attaching the metrics
//! registry is invisible to every engine (bit-identical outcomes and
//! latencies at several thread counts), the merged engine snapshot is
//! itself thread-count invariant, and the waveform/trace artifacts are
//! byte-deterministic — the VCD against a checked-in golden fixture.

use std::sync::Arc;

use proptest::prelude::*;

use tm_async::celllib::Library;
use tm_async::datapath::{
    BatchGoldenModel, DatapathConfig, DualRailDatapath, DualRailInference, EventDrivenInference,
    InferenceWorkload,
};
use tm_async::dualrail::{Occupancy, PipelineConfig};
use tm_async::obs::MetricsRegistry;

proptest! {
    // Every case runs three engine entry points three times (without,
    // with and after clearing instruments) at three thread counts, so
    // keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Attaching metrics changes nothing: for the sliced event-driven
    /// engine and the dual-rail engine (sliced and pipelined), the full
    /// run — outcomes, latency reports, event totals — is bit-identical
    /// to the uninstrumented run at thread counts {1, 2, 7}, and the
    /// populated registry snapshots compare equal across those thread
    /// counts.  Clearing the metrics afterwards restores the
    /// uninstrumented runs and leaves the registry untouched.
    #[test]
    fn metrics_are_invisible_and_snapshots_are_thread_invariant(
        seed in 0u64..10_000,
        operands in 1usize..10,
    ) {
        let config = DatapathConfig::new(3, 2).expect("valid");
        let workload = InferenceWorkload::random(&config, operands, 0.7, seed).expect("workload");
        let library = Library::umc_ll();
        let model = BatchGoldenModel::generate(&config).expect("generation");
        let datapath = DualRailDatapath::generate(&config).expect("generation");
        let pipeline = PipelineConfig { occupancy: Occupancy::Max, ..PipelineConfig::default() };

        let mut snapshots = Vec::new();
        for threads in [1usize, 2, 7] {
            // Uninstrumented references for this thread count (the
            // cross-thread invariance of these is pinned by the
            // sharding property tests).
            let event = EventDrivenInference::new(&model, &library, threads);
            let expected_event_sliced = event
                .run_workload_sliced(&workload)
                .expect("sliced event run");
            let dual = DualRailInference::new(&datapath, &library, threads).expect("driver");
            let expected_dual_sliced = dual
                .run_workload_sliced(&workload)
                .expect("sliced dual-rail run");
            let expected_pipelined = dual
                .run_workload_pipelined(&workload, pipeline)
                .expect("pipelined dual-rail run");

            // The same engines with every instrument attached.
            let registry = Arc::new(MetricsRegistry::new());
            let mut event = EventDrivenInference::new(&model, &library, threads);
            event.set_metrics(&registry, "event");
            prop_assert_eq!(
                &event.run_workload_sliced(&workload).expect("sliced event run"),
                &expected_event_sliced,
                "sliced event threads {}", threads
            );
            let mut dual = DualRailInference::new(&datapath, &library, threads).expect("driver");
            dual.set_metrics(&registry, "dualrail");
            prop_assert_eq!(
                &dual.run_workload_sliced(&workload).expect("sliced dual-rail run"),
                &expected_dual_sliced,
                "sliced dual-rail threads {}", threads
            );
            prop_assert_eq!(
                &dual
                    .run_workload_pipelined(&workload, pipeline)
                    .expect("pipelined dual-rail run"),
                &expected_pipelined,
                "pipelined dual-rail threads {}", threads
            );

            let snapshot = registry.snapshot();
            prop_assert!(!snapshot.is_empty());
            prop_assert!(snapshot.counter("event.sliced.events_popped") > 0);
            prop_assert!(snapshot.counter("dualrail.sliced.protocol.cycles") > 0);
            prop_assert!(snapshot.counter("dualrail.scalar.protocol.cycles") > 0);

            // Attach-then-clear: the same engines run as if never
            // instrumented and record nothing more.
            event.clear_metrics();
            dual.clear_metrics();
            prop_assert_eq!(
                &event.run_workload_sliced(&workload).expect("sliced event run"),
                &expected_event_sliced,
                "cleared sliced event threads {}", threads
            );
            prop_assert_eq!(
                &dual.run_workload_sliced(&workload).expect("sliced dual-rail run"),
                &expected_dual_sliced,
                "cleared sliced dual-rail threads {}", threads
            );
            prop_assert_eq!(
                &dual
                    .run_workload_pipelined(&workload, pipeline)
                    .expect("pipelined dual-rail run"),
                &expected_pipelined,
                "cleared pipelined dual-rail threads {}", threads
            );
            prop_assert_eq!(&registry.snapshot(), &snapshot, "cleared threads {}", threads);
            snapshots.push(snapshot);
        }
        prop_assert_eq!(&snapshots[0], &snapshots[1], "threads 1 vs 2");
        prop_assert_eq!(&snapshots[0], &snapshots[2], "threads 1 vs 7");
    }
}

/// The handshake waveform capture is byte-deterministic and matches
/// the checked-in golden fixture exactly — any change to the VCD
/// writer, the standard datapath or the four-phase schedule shows up
/// as a byte diff here (regenerate with
/// `tm_async_bench::obs_capture::waveform_vcd(2021)`).
#[test]
fn handshake_vcd_matches_the_golden_fixture() {
    let vcd = tm_async_bench::obs_capture::waveform_vcd(2021);
    tm_async::obs::vcd_is_well_formed(&vcd).expect("capture must be well-formed");
    assert!(
        vcd.contains("$var wire 2 "),
        "waveform must carry a 2-bit dual-rail codeword vector"
    );
    assert_eq!(
        vcd,
        include_str!("fixtures/dual_rail_handshake.vcd"),
        "VCD capture diverged from tests/fixtures/dual_rail_handshake.vcd"
    );
    assert_eq!(
        vcd,
        tm_async_bench::obs_capture::waveform_vcd(2021),
        "VCD capture must be deterministic"
    );
}

/// The serving Chrome trace is byte-deterministic under the fixed
/// service model, and parses as JSON.
#[test]
fn serve_trace_is_deterministic_json() {
    let trace = tm_async_bench::obs_capture::serve_trace_json(64, 2021);
    tm_async::obs::json_is_well_formed(&trace).expect("trace must parse");
    assert!(
        trace.contains("\"ph\""),
        "trace must contain span/instant events"
    );
    assert_eq!(
        trace,
        tm_async_bench::obs_capture::serve_trace_json(64, 2021),
        "trace capture must be deterministic"
    );
}
