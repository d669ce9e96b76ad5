//! End-to-end edge-inference scenario: train a Tsetlin machine on a
//! keyword-spotting-like task, freeze its include/exclude decisions into
//! the dual-rail datapath and run the held-out test set through the
//! asynchronous hardware, reporting accuracy and the latency
//! distribution.
//!
//! Run with: `cargo run --release --example edge_inference`

use std::error::Error;

use tm_async::celllib::{Library, PowerBreakdown};
use tm_async::datapath::{
    BatchGoldenModel, DatapathConfig, DualRailDatapath, EventDrivenInference, InferenceWorkload,
};
use tm_async::dualrail::{ProtocolDriver, ThroughputReport};
use tm_async::tsetlin::{datasets, TrainingParams, TsetlinMachine};

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Train the classifier in software.
    let features = 12;
    let data = datasets::keyword_patterns(400, features, 0.08, 7);
    let params = TrainingParams::new(8, 12.0, 3.5)?;
    let mut machine = TsetlinMachine::new(features, params, 99)?;
    machine.fit(data.train_inputs(), data.train_labels(), 25);
    let software_accuracy = machine.accuracy(data.test_inputs(), data.test_labels());
    println!("software test accuracy: {software_accuracy:.3}");

    // 2. Freeze the automata decisions into the hardware datapath.
    let config = DatapathConfig::new(features, 8)?;
    let datapath = DualRailDatapath::generate(&config)?;
    let workload = InferenceWorkload::from_machine(&config, &machine, data.test_inputs())?;

    // 3. Run the test set through the asynchronous hardware.
    let library = Library::umc_ll();
    let mut driver = ProtocolDriver::new(datapath.circuit(), &library)?;
    let operands = workload.dual_rail_operands(&datapath)?;

    let mut correct_vs_labels = 0usize;
    let mut matches_golden = 0usize;
    let mut results = Vec::new();
    for ((operand, expected), label) in operands
        .iter()
        .zip(workload.expected())
        .zip(data.test_labels())
    {
        let result = driver.apply_operand(operand)?;
        let in_class = datapath.decode_in_class(&result)?;
        if in_class == *label {
            correct_vs_labels += 1;
        }
        if datapath.decode_decision(&result)? == expected.decision {
            matches_golden += 1;
        }
        results.push(result);
    }

    let report = ThroughputReport::from_results(&results);
    let power = PowerBreakdown::compute(datapath.netlist(), &library, &driver.activity_profile());

    println!(
        "hardware accuracy: {:.3} ({} / {} operands)",
        correct_vs_labels as f64 / operands.len() as f64,
        correct_vs_labels,
        operands.len()
    );
    println!(
        "hardware/golden agreement: {} / {} operands",
        matches_golden,
        operands.len()
    );
    println!(
        "latency: avg {:.0} ps, max {:.0} ps, reset {:.0} ps, throughput {:.0} M inferences/s",
        report.average_latency_ps(),
        report.max_latency_ps(),
        report.v_to_s_ps(),
        report.inferences_per_second_millions()
    );
    println!(
        "average power: {:.1} uW (leakage {:.2} uW)",
        power.total_uw(),
        power.leakage_uw
    );
    println!("\nlatency histogram:");
    for (edge, count) in report.latency_stats().histogram(8) {
        println!("  < {edge:6.0} ps : {}", "*".repeat(count));
    }

    // 4. The same workload at bulk scale: the combinational golden model
    //    on the bit-sliced event-driven simulator, 64-operand words
    //    sharded across worker threads (bit-identical to a streamed
    //    single instance at any thread count).  Each operand's
    //    injection->settle time is the data-dependent latency the
    //    asynchronous design exploits.
    let model = BatchGoldenModel::generate(&config)?;
    let threads = tm_async::exec::available_parallelism();
    let event = EventDrivenInference::new(&model, &library, threads);
    let run = event.run_workload_sliced(&workload)?;
    assert_eq!(
        &run.outcomes,
        workload.expected(),
        "event-driven outcomes must match the golden model"
    );
    println!(
        "\nsharded event-driven golden model ({} threads, {} operands):",
        threads,
        run.latency.count()
    );
    println!(
        "per-operand latency: min {:.0} ps, median {:.0} ps, max {:.0} ps",
        run.latency.min_ps(),
        run.latency.median_ps(),
        run.latency.max_ps()
    );
    Ok(())
}
