//! The golden contract over whole input spaces: every feature vector of
//! the standard (12, 8) shape under two trained models, and of the
//! (5, 4) shape under random masks, decodes to the outcome of the
//! software reference (`datapath::reference::infer`) on two engines:
//!
//! - the dual-rail datapath through `DualRailInference::run_features_sliced`,
//!   in calls of 32 inputs, so every call is one word whose lanes share
//!   one model (the arrival kernel's specialised pass);
//! - the 64-lane batch engine (`BatchInference`), 64 inputs per pass.

use tm_async::celllib::Library;
use tm_async::datapath::{
    reference, BatchGoldenModel, BatchInference, DatapathConfig, DualRailDatapath,
    DualRailInference, InferenceOutcome, InferenceWorkload,
};
use tm_async::tsetlin::ExcludeMasks;

/// Every feature vector of `features` features, in binary counting
/// order (feature `i` is bit `i`).
fn every_input(features: usize) -> Vec<Vec<bool>> {
    (0..1u32 << features)
        .map(|v| (0..features).map(|i| v >> i & 1 == 1).collect())
        .collect()
}

/// Runs every input of `config` under `masks` on both engines against
/// the reference.
fn check_every_input(config: &DatapathConfig, masks: &ExcludeMasks, what: &str) {
    let library = Library::umc_ll();
    let datapath = DualRailDatapath::generate(config).expect("generation");
    let golden = BatchGoldenModel::generate(config).expect("generation");
    let inputs = every_input(config.features());
    let expected: Vec<InferenceOutcome> = inputs
        .iter()
        .map(|features| reference::infer(masks, features))
        .collect();

    let dual_rail = DualRailInference::new(&datapath, &library, 1).expect("engine");
    for (at, (call, expected)) in inputs.chunks(32).zip(expected.chunks(32)).enumerate() {
        let run = dual_rail
            .run_features_sliced(masks, call)
            .unwrap_or_else(|error| panic!("{what}: dual-rail call {at}: {error}"));
        assert_eq!(run.outcomes, expected, "{what}: dual-rail call {at}");
    }

    let mut batch = BatchInference::new(&golden).expect("engine");
    for (at, (pass, expected)) in inputs.chunks(64).zip(expected.chunks(64)).enumerate() {
        let outcomes = batch
            .infer_batch(masks, pass)
            .unwrap_or_else(|error| panic!("{what}: batch pass {at}: {error}"));
        assert_eq!(outcomes, expected, "{what}: batch pass {at}");
    }
}

#[test]
fn every_standard_input_of_two_trained_models_matches_the_reference() {
    let config = tm_async_bench::standard_config();
    // One trained model per thread.
    std::thread::scope(|scope| {
        for seed in [1, 7] {
            let config = &config;
            scope.spawn(move || {
                let standard = tm_async_bench::standard_workload(1, seed);
                let what = format!("12x8, model {seed}");
                check_every_input(config, standard.workload.masks(), &what);
            });
        }
    });
}

#[test]
fn every_input_of_a_small_shape_matches_the_reference() {
    let config = DatapathConfig::new(5, 4).expect("valid shape");
    for seed in 0..4 {
        let workload = InferenceWorkload::random(&config, 1, 0.5, seed).expect("workload");
        check_every_input(&config, workload.masks(), &format!("5x4, masks {seed}"));
    }
}
