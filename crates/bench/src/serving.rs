//! The serving configuration that `perfbench`'s serving workload
//! (`serve_low`) runs under.

use tm_serve::{AdmissionPolicy, ServeConfig, ServiceModel};

/// A 256-deep shed queue, 64-lane batches, a batching wait capped at
/// 50 µs (on a stream as sparse as `serve_low`'s an idle server does
/// not wait: see `tm_serve::MicroBatcher::next_flush_ns`) and measured
/// service times.
#[must_use]
pub fn sweep_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        policy: AdmissionPolicy::Shed,
        max_batch: 64,
        max_wait_ns: 50_000,
        service_model: ServiceModel::Measured,
        deadline_ns: None,
    }
}
