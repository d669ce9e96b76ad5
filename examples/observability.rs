//! Observability tour (PR 10): instrument an inference run with the
//! metrics registry and print the snapshot, capture a four-phase
//! dual-rail handshake as a VCD waveform (openable in GTKWave), and
//! export one serving session as Chrome-trace JSON (openable in
//! `chrome://tracing` or Perfetto).
//!
//! Run with: `cargo run --release --example observability`
//!
//! Pass an output directory to also write the artifacts:
//! `cargo run --release --example observability -- /tmp/obs`

use std::error::Error;
use std::sync::Arc;

use tm_async::celllib::Library;
use tm_async::datapath::{
    BatchGoldenModel, DatapathConfig, DualRailDatapath, DualRailInference, EventDrivenInference,
    InferenceWorkload,
};
use tm_async::dualrail::ProtocolDriver;
use tm_async::obs::MetricsRegistry;
use tm_async::serve::{BatchBackend, ServeConfig, Server, ServiceModel, Trace, TraceRecorder};

fn main() -> Result<(), Box<dyn Error>> {
    let out_dir = std::env::args().nth(1);
    let config = DatapathConfig::new(6, 4)?;
    let workload = InferenceWorkload::random(&config, 48, 0.7, 2021)?;
    let library = Library::umc_ll();
    let model = BatchGoldenModel::generate(&config)?;
    let datapath = DualRailDatapath::generate(&config)?;

    // 1. Metrics: route every engine's internal counters into one
    //    shared registry.  Counting only happens while attached — the
    //    same run with no registry is bit-identical and pays nothing —
    //    and the snapshot is bit-identical at any thread count.
    let registry = Arc::new(MetricsRegistry::new());
    let mut event = EventDrivenInference::new(&model, &library, 2);
    event.set_metrics(&registry, "event");
    let run = event.run_workload_sliced(&workload)?;
    assert_eq!(run.outcomes.as_slice(), workload.expected());
    let mut dual = DualRailInference::new(&datapath, &library, 2)?;
    dual.set_metrics(&registry, "dualrail");
    let run = dual.run_workload_sliced(&workload)?;
    assert_eq!(run.outcomes.as_slice(), workload.expected());

    let snapshot = registry.snapshot();
    println!("engine metrics after both runs:\n{}", snapshot.render());
    assert!(snapshot.counter("event.sliced.events_popped") > 0);
    assert!(snapshot.counter("dualrail.sliced.protocol.cycles") > 0);

    // 2. Waveform: record one four-phase handshake cycle.  The probe
    //    watches the comparator's 1-of-n rails, `done`, and each
    //    watched dual-rail pair as a 2-bit codeword vector (b00 spacer,
    //    b10 → 1, b01 → 0), timestamped in simulated femtoseconds.
    let mut driver = ProtocolDriver::new(datapath.circuit(), &library)?;
    let mut probe = driver.output_wave_probe();
    for (name, signal) in datapath.circuit().dual_inputs().iter().take(2) {
        probe.watch_pair(name, signal.positive.index(), signal.negative.index());
    }
    driver.attach_wave_probe(probe);
    let operand = datapath.operand_bits(&workload.feature_vectors()[0], workload.masks())?;
    driver.apply_operand(&operand)?;
    let vcd = driver
        .take_wave_probe()
        .expect("probe was attached")
        .to_vcd("dual_rail_datapath");
    let stats = tm_async::obs::vcd_is_well_formed(&vcd)?;
    println!(
        "captured handshake VCD: {} signals, {} timestamps",
        stats.signals, stats.timestamps
    );

    // 3. Serving trace: one micro-batched session on the virtual
    //    clock, every request's arrival → admit → flush → dispatch →
    //    complete recorded as Chrome-trace spans.
    let backend = BatchBackend::new(&model, workload.masks().clone())?;
    let mut server = Server::new(
        backend,
        &workload,
        ServeConfig {
            max_wait_ns: 5_000,
            service_model: ServiceModel::Fixed {
                batch_ns: 200,
                per_request_ns: 20,
            },
            ..ServeConfig::default()
        },
    )?;
    let mut recorder = TraceRecorder::new("observability-example");
    let report = server.run_traced(&Trace::poisson(128, 2e6, 2021), &mut recorder)?;
    let trace = recorder.to_json();
    tm_async::obs::json_is_well_formed(&trace)?;
    println!(
        "served {} requests ({} shed); trace JSON is {} bytes",
        report.served_count(),
        report.shed_count(),
        trace.len()
    );

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir)?;
        std::fs::write(format!("{dir}/handshake.vcd"), &vcd)?;
        std::fs::write(format!("{dir}/serve_trace.json"), &trace)?;
        std::fs::write(format!("{dir}/metrics.json"), snapshot.to_json())?;
        println!("wrote handshake.vcd, serve_trace.json, metrics.json to {dir}");
    }
    Ok(())
}
