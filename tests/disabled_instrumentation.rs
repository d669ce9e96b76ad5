//! Disabled instrumentation is free: a metrics registry attached to
//! the sliced event engine and cleared again leaves its run
//! bit-identical, records nothing, and costs what never attaching
//! costs.
//!
//! The check times two runs, so it lives in a test binary of its own:
//! no sibling test shares the cores while it runs.

use std::sync::Arc;
use std::time::Instant;

use tm_async::celllib::Library;
use tm_async::datapath::{BatchGoldenModel, EventDrivenInference};
use tm_async::obs::MetricsRegistry;
use tm_async_bench::{standard_config, standard_workload};

#[test]
fn attach_then_clear_is_bit_identical_and_costs_no_more_than_never_attaching() {
    let standard = standard_workload(256, 2021);
    let model = BatchGoldenModel::generate(&standard_config()).expect("generation");
    let library = Library::umc_ll();
    let threads = tm_async::exec::available_parallelism();

    let absent = EventDrivenInference::new(&model, &library, threads);
    let warmup = absent
        .run_workload_sliced(&standard.workload)
        .expect("sliced event run");
    let start = Instant::now();
    let absent_run = absent
        .run_workload_sliced(&standard.workload)
        .expect("sliced event run");
    let absent_time = start.elapsed();
    assert_eq!(warmup, absent_run, "uninstrumented replay diverged");

    let registry = Arc::new(MetricsRegistry::new());
    let mut disabled = EventDrivenInference::new(&model, &library, threads);
    disabled.set_metrics(&registry, "guard");
    disabled.clear_metrics();
    let start = Instant::now();
    let disabled_run = disabled
        .run_workload_sliced(&standard.workload)
        .expect("sliced event run");
    let disabled_time = start.elapsed();
    assert_eq!(
        absent_run, disabled_run,
        "attach-then-clear changed the sliced event run"
    );
    assert!(
        registry.snapshot().is_empty(),
        "a cleared registry must record nothing"
    );

    // Both runs take the same path (no metrics handle), so the ratio
    // is 1 up to host noise; the bound catches a pathological
    // regression without flaking on a loaded host.
    let ratio = disabled_time.as_secs_f64() / absent_time.as_secs_f64().max(1e-9);
    assert!(
        ratio < 3.0,
        "disabled instrumentation cost {ratio:.2}x the uninstrumented run \
         ({disabled_time:?} vs {absent_time:?})"
    );
}
