//! End-to-end serving scenario: train a Tsetlin machine, stand up the
//! micro-batching inference server over the 64-lane batch engine, and
//! drive it with three traffic shapes — a Poisson stream below
//! saturation, a bursty stream at the knee, and a deliberate 2x
//! overload — comparing the block and shed admission policies on the
//! overload.
//!
//! Run with: `cargo run --release --example serving`

use std::error::Error;

use tm_async::datapath::{BatchGoldenModel, DatapathConfig, InferenceWorkload};
use tm_async::serve::{AdmissionPolicy, BatchBackend, ServeConfig, Server, ServiceModel, Trace};
use tm_async::tsetlin::{datasets, TrainingParams, TsetlinMachine};

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Train the classifier and freeze it into the batched golden
    //    model; the held-out test set becomes the request population.
    let features = 12;
    let data = datasets::keyword_patterns(400, features, 0.08, 7);
    let params = TrainingParams::new(8, 12.0, 3.5)?;
    let mut machine = TsetlinMachine::new(features, params, 99)?;
    machine.fit(data.train_inputs(), data.train_labels(), 25);
    let config = DatapathConfig::new(features, 8)?;
    let model = BatchGoldenModel::generate(&config)?;
    let workload = InferenceWorkload::from_machine(&config, &machine, data.test_inputs())?;
    println!(
        "request population: {} held-out samples (accuracy {:.3})",
        workload.len(),
        machine.accuracy(data.test_inputs(), data.test_labels())
    );

    // 2. Measure this host's serving capacity with a closed loop: 256
    //    clients keep the 64-lane batches full.
    let serve_config = ServeConfig {
        max_wait_ns: 50_000, // wait at most 50 µs for a batch to fill
        ..ServeConfig::default()
    };
    let backend = BatchBackend::new(&model, workload.masks().clone())?;
    let mut server = Server::new(backend, &workload, serve_config)?;
    let capacity = server.run_closed(256, 4096, 0)?;
    let capacity_qps = capacity.achieved_qps();
    println!(
        "\nclosed-loop capacity: {:.2}M requests/s (mean batch {:.1} lanes)",
        capacity_qps / 1e6,
        capacity.mean_batch_size()
    );

    // 3. A Poisson stream at half capacity: everything is served, the
    //    queueing tail is the price of batching (bounded by max_wait,
    //    since arrivals this dense always expect a companion within
    //    the wait).
    //    Measured service times follow host load, so the zero-shed check
    //    replays the trace with every batch priced at the closed loop's
    //    mean batch service time.
    let half_load = Trace::poisson(4096, capacity_qps * 0.5, 11);
    let relaxed = server.run(&half_load)?;
    println!("\n0.5x capacity, poisson:\n  {}", relaxed.summary());
    let priced = ServeConfig {
        service_model: ServiceModel::Fixed {
            batch_ns: capacity.makespan_ns / capacity.batches.len() as u64,
            per_request_ns: 0,
        },
        ..serve_config
    };
    let backend = BatchBackend::new(&model, workload.masks().clone())?;
    let replay = Server::new(backend, &workload, priced)?.run(&half_load)?;
    assert_eq!(replay.shed_count(), 0);

    // 4. Bursts of 32 at the knee: the lanes-full rule absorbs bursts
    //    into full batches instead of deadline-waiting.
    let bursty = server.run(&Trace::bursty(4096, 32, capacity_qps, 13))?;
    println!("\n1.0x capacity, bursts of 32:\n  {}", bursty.summary());

    // 5. 2x overload, shed vs block: shedding bounds the queueing tail
    //    and counts the drops; blocking serves everything but lets the
    //    queueing delay grow without bound.
    let overload = Trace::poisson(4096, capacity_qps * 2.0, 17);
    let shed_run = server.run(&overload)?;
    println!("\n2.0x capacity, shed policy:\n  {}", shed_run.summary());

    let backend = BatchBackend::new(&model, workload.masks().clone())?;
    let mut blocking = Server::new(
        backend,
        &workload,
        ServeConfig {
            policy: AdmissionPolicy::Block,
            ..serve_config
        },
    )?;
    let block_run = blocking.run(&overload)?;
    println!("2.0x capacity, block policy:\n  {}", block_run.summary());
    assert_eq!(block_run.shed_count(), 0);

    // 6. The same queueing system under a fixed service model is fully
    //    deterministic — rerunning reproduces the report bit for bit.
    let deterministic = ServeConfig {
        service_model: ServiceModel::Fixed {
            batch_ns: 500,
            per_request_ns: 100,
        },
        ..serve_config
    };
    let backend = BatchBackend::new(&model, workload.masks().clone())?;
    let mut fixed = Server::new(backend, &workload, deterministic)?;
    let trace = Trace::poisson(2048, 1e6, 19);
    let first = fixed.run(&trace)?;
    assert_eq!(fixed.run(&trace)?, first);
    println!(
        "\nfixed service model replay: deterministic ({} served, queue p99 {:.0} ns)",
        first.served_count(),
        first.summary().queue_p99_ns
    );

    Ok(())
}
