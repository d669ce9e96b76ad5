//! Verified serving smoke for CI: a short Poisson trace against the
//! batch backend through the full micro-batching pipeline, with the
//! three checks that guard the `serve_<backend>_qps` sweep rows:
//!
//! 1. every served outcome is golden-verified (the serving runtime
//!    fails the run on any divergence — a corrupted pipeline cannot
//!    report timings);
//! 2. below saturation, the shed count is asserted to be **zero** —
//!    under a deterministic fixed service model with 10x headroom, so
//!    the assertion cannot flake on a loaded CI host;
//! 3. the fixed-model run is replayed and must be bit-identical (the
//!    virtual-clock determinism contract).
//!
//! A measured-service run of the same trace is also printed (not
//! asserted) so the log shows real queueing figures for this host.
//!
//! The 64-wide bit-sliced backends (`event_sliced`, `dualrail_sliced`)
//! then serve a shorter fixed-model trace: their reports must be
//! bit-identical across reruns **and** across backend thread counts —
//! the sliced engines feed the same golden-verified outcomes through
//! the same deterministic virtual clock no matter how words are
//! sharded.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin serve_smoke
//! [requests]`

use celllib::Library;
use datapath::{BatchGoldenModel, DualRailDatapath};
use tm_async_bench::args::{or_exit, positional};
use tm_async_bench::workloads::{standard_config, standard_workload};
use tm_serve::{
    AdmissionPolicy, Backend, BatchBackend, DualRailSlicedBackend, EventSlicedBackend, ServeConfig,
    Server, ServiceModel, Trace,
};

const USAGE: &str = "usage: serve_smoke [requests]";

fn main() {
    let requests = or_exit(
        positional(std::env::args().nth(1), "requests", 512, 1),
        USAGE,
    );

    println!("Serving smoke ({requests} Poisson requests, batch backend)\n");
    let config = standard_config();
    let standard = standard_workload(256, 2021);
    let workload = &standard.workload;
    let model = BatchGoldenModel::generate(&config).expect("model generation");

    // Fixed service model: 500 ns/batch + 100 ns/request ≈ 9.3M
    // requests/s when lanes fill.  Offered 1M qps → ~10x headroom, so
    // the zero-shed assertion is deterministic, not host-dependent.
    let fixed = ServeConfig {
        queue_capacity: 256,
        policy: AdmissionPolicy::Shed,
        max_batch: 64,
        max_wait_ns: 50_000,
        service_model: ServiceModel::Fixed {
            batch_ns: 500,
            per_request_ns: 100,
        },
        deadline_ns: None,
    };
    let trace = Trace::poisson(requests, 1e6, 2021);

    let run = |cfg: ServeConfig| {
        let backend = BatchBackend::new(&model, workload.masks().clone()).expect("backend");
        let mut server = Server::new(backend, workload, cfg).expect("server");
        server
            .run(&trace)
            .expect("serve run (every outcome golden-verified internally)")
    };

    let report = run(fixed);
    assert_eq!(
        report.served_count() + report.shed_count(),
        requests,
        "every request must be accounted for"
    );
    assert_eq!(
        report.shed_count(),
        0,
        "nothing may shed at ~0.1x of the fixed-model capacity"
    );
    assert_eq!(
        run(fixed),
        report,
        "fixed-model serving must be deterministic"
    );
    println!("fixed model:    {}", report.summary());

    let measured = run(ServeConfig {
        service_model: ServiceModel::Measured,
        ..fixed
    });
    assert_eq!(
        measured.served_count() + measured.shed_count(),
        requests,
        "every request must be accounted for (measured run)"
    );
    println!("measured model: {}", measured.summary());

    // Bit-sliced backends: a shorter trace (each request simulates the
    // whole netlist), fixed service model, replayed at thread counts 1
    // and 2.  All four reports per backend must be bit-identical.
    let sliced_requests = (requests / 8).max(32);
    let sliced_trace = Trace::poisson(sliced_requests, 1e6, 2021);
    let datapath = DualRailDatapath::generate(&config).expect("datapath generation");
    let library = Library::umc_ll();

    fn verify_sliced_backend<B: Backend + Send>(
        name: &str,
        make_backend: impl Fn(usize) -> B,
        workload: &datapath::InferenceWorkload,
        config: ServeConfig,
        trace: &Trace,
        requests: usize,
    ) {
        let run = |threads: usize| {
            let mut server = Server::new(make_backend(threads), workload, config).expect("server");
            server
                .run(trace)
                .expect("sliced serve run (every outcome golden-verified internally)")
        };
        let reference = run(1);
        assert_eq!(
            reference.served_count() + reference.shed_count(),
            requests,
            "{name}: every request must be accounted for"
        );
        assert_eq!(run(1), reference, "{name}: rerun must be bit-identical");
        assert_eq!(
            run(2),
            reference,
            "{name}: 2-thread report must be bit-identical to 1 thread"
        );
        assert_eq!(
            run(2),
            reference,
            "{name}: 2-thread rerun must be bit-identical"
        );
        println!("{name}: {}", reference.summary());
    }

    verify_sliced_backend(
        "event_sliced",
        |threads| {
            EventSlicedBackend::new(&model, &library, workload.masks().clone(), threads)
                .expect("backend")
        },
        workload,
        fixed,
        &sliced_trace,
        sliced_requests,
    );
    verify_sliced_backend(
        "dualrail_sliced",
        |threads| {
            DualRailSlicedBackend::new(&datapath, &library, workload.masks().clone(), threads)
                .expect("backend")
        },
        workload,
        fixed,
        &sliced_trace,
        sliced_requests,
    );

    println!(
        "\nok: outcomes golden-verified, zero sheds below saturation, deterministic replay \
         (batch + sliced backends, rerun- and thread-invariant)"
    );
}
