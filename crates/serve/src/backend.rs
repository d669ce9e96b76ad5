//! The pluggable inference backend the server calls once per batch.
//!
//! A [`Backend`] turns one micro-batch of borrowed feature slices into
//! one [`InferenceOutcome`] per request, in request order.  The trait is
//! deliberately tiny — the serving runtime owns batching, admission and
//! telemetry; the backend only computes — and it is implemented for
//! every inference engine of the workspace:
//!
//! | adapter | engine | character |
//! |---|---|---|
//! | [`BatchBackend`] | [`datapath::BatchInference`] | 64-lane bit-parallel, single thread |
//! | [`ParallelBatchBackend`] | [`datapath::ParallelBatchInference`] | 64-lane passes sharded across workers |
//! | [`EventSlicedBackend`] | [`datapath::EventDrivenInference`] | 64-lane bit-sliced event simulation |
//! | [`DualRailSlicedBackend`] | [`datapath::DualRailInference`] | 64-lane bit-sliced four-phase handshakes |
//!
//! The exclude masks (the trained model) bind at adapter construction:
//! a server serves one model, and requests carry only features.
//!
//! Every adapter serves **bit-identical outcomes to its offline engine**
//! — the adapters forward to the same `infer_batch`/`run_features*`
//! entry points the benchmarks call, so "served" vs "offline" can never
//! diverge except through a serving-layer bug (which the server's
//! golden verification would catch).

use celllib::Library;
use datapath::{
    BatchGoldenModel, BatchInference, DatapathConfig, DualRailDatapath, DualRailInference,
    EventDrivenInference, InferenceOutcome, ParallelBatchInference,
};
use tsetlin::ExcludeMasks;

use crate::error::ServeError;
use crate::telemetry::BackendFaultStats;

/// A pluggable inference engine serving one micro-batch at a time.
pub trait Backend {
    /// Short stable name used in telemetry rows (`serve_<name>_qps`).
    fn name(&self) -> &'static str;

    /// Largest micro-batch this backend can absorb in one call.  The
    /// server clamps its configured `max_batch` to this.
    fn max_batch(&self) -> usize {
        netlist::LANES
    }

    /// Serves one micro-batch of borrowed feature slices, returning one
    /// outcome per request in request order.
    ///
    /// # Errors
    ///
    /// Propagates engine failures (width mismatches, decode failures,
    /// protocol violations).
    fn serve(&mut self, features: &[&[bool]]) -> Result<Vec<InferenceOutcome>, ServeError>;

    /// Fault-handling counters, for self-healing wrappers such as
    /// [`CircuitBreaker`].  Plain backends return `None`; the server
    /// copies whatever this returns into
    /// [`crate::ServeReport::backend_faults`] after the session drains.
    fn fault_stats(&self) -> Option<BackendFaultStats> {
        None
    }
}

impl<T: Backend + ?Sized> Backend for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn max_batch(&self) -> usize {
        (**self).max_batch()
    }

    fn serve(&mut self, features: &[&[bool]]) -> Result<Vec<InferenceOutcome>, ServeError> {
        (**self).serve(features)
    }

    fn fault_stats(&self) -> Option<BackendFaultStats> {
        (**self).fault_stats()
    }
}

/// Serving adapter over the single-threaded 64-lane batch engine.
#[derive(Debug)]
pub struct BatchBackend<'a> {
    inner: BatchInference<'a>,
    masks: ExcludeMasks,
}

impl<'a> BatchBackend<'a> {
    /// Binds the batch engine to a trained model's exclude masks.
    ///
    /// # Errors
    ///
    /// Propagates netlist-flattening failures and mask/model mismatches.
    pub fn new(model: &'a BatchGoldenModel, masks: ExcludeMasks) -> Result<Self, ServeError> {
        check_masks(model.config(), &masks)?;
        Ok(Self {
            inner: BatchInference::new(model)?,
            masks,
        })
    }
}

impl Backend for BatchBackend<'_> {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn serve(&mut self, features: &[&[bool]]) -> Result<Vec<InferenceOutcome>, ServeError> {
        Ok(self.inner.infer_batch(&self.masks, features)?)
    }
}

/// Serving adapter over the multi-threaded 64-lane batch engine.
#[derive(Debug)]
pub struct ParallelBatchBackend<'a> {
    inner: ParallelBatchInference<'a>,
    masks: ExcludeMasks,
}

impl<'a> ParallelBatchBackend<'a> {
    /// Binds the sharded batch engine (with `threads` workers, clamped
    /// to at least 1) to a trained model's exclude masks.
    ///
    /// # Errors
    ///
    /// Propagates netlist-flattening failures and mask/model mismatches.
    pub fn new(
        model: &'a BatchGoldenModel,
        masks: ExcludeMasks,
        threads: usize,
    ) -> Result<Self, ServeError> {
        check_masks(model.config(), &masks)?;
        Ok(Self {
            inner: ParallelBatchInference::new(model, threads)?,
            masks,
        })
    }
}

impl Backend for ParallelBatchBackend<'_> {
    fn name(&self) -> &'static str {
        "parallel_batch"
    }

    fn serve(&mut self, features: &[&[bool]]) -> Result<Vec<InferenceOutcome>, ServeError> {
        Ok(self.inner.run_features(&self.masks, features)?)
    }
}

/// Serving adapter over the bit-sliced event-driven golden-model
/// engine: a micro-batch is one 64-lane word, so the whole batch
/// settles through a single return-to-zero cycle of merged events.
/// The simulation's per-operand latency is an engine-internal figure —
/// the *serving* report measures queueing and wall-clock service time.
#[derive(Debug)]
pub struct EventSlicedBackend<'a> {
    inner: EventDrivenInference<'a>,
    masks: ExcludeMasks,
}

impl<'a> EventSlicedBackend<'a> {
    /// Compiles the golden model for bit-sliced event-driven serving
    /// with delays from `library`, words sharded across `threads`
    /// workers.
    ///
    /// # Errors
    ///
    /// Propagates mask/model mismatches.
    pub fn new(
        model: &'a BatchGoldenModel,
        library: &Library,
        masks: ExcludeMasks,
        threads: usize,
    ) -> Result<Self, ServeError> {
        check_masks(model.config(), &masks)?;
        Ok(Self {
            inner: EventDrivenInference::new(model, library, threads),
            masks,
        })
    }
}

impl Backend for EventSlicedBackend<'_> {
    fn name(&self) -> &'static str {
        "event_sliced"
    }

    fn serve(&mut self, features: &[&[bool]]) -> Result<Vec<InferenceOutcome>, ServeError> {
        Ok(self
            .inner
            .run_features_sliced(&self.masks, features)?
            .outcomes)
    }
}

/// Serving adapter over the bit-sliced dual-rail engine: a micro-batch
/// is one word of four-phase handshake lanes on the paper's actual
/// datapath.
#[derive(Debug)]
pub struct DualRailSlicedBackend<'a> {
    inner: DualRailInference<'a>,
    masks: ExcludeMasks,
}

impl<'a> DualRailSlicedBackend<'a> {
    /// Compiles the dual-rail datapath for bit-sliced four-phase
    /// serving with delays from `library`, words sharded across
    /// `threads` workers under the reset-phase contract.
    ///
    /// # Errors
    ///
    /// Propagates mask/datapath mismatches and driver-construction
    /// failures (e.g. a circuit that fails to settle during
    /// initialisation).
    pub fn new(
        datapath: &'a DualRailDatapath,
        library: &Library,
        masks: ExcludeMasks,
        threads: usize,
    ) -> Result<Self, ServeError> {
        check_masks(datapath.config(), &masks)?;
        Ok(Self {
            inner: DualRailInference::new(datapath, library, threads)?,
            masks,
        })
    }
}

impl Backend for DualRailSlicedBackend<'_> {
    fn name(&self) -> &'static str {
        "dualrail_sliced"
    }

    fn serve(&mut self, features: &[&[bool]]) -> Result<Vec<InferenceOutcome>, ServeError> {
        Ok(self
            .inner
            .run_features_sliced(&self.masks, features)?
            .outcomes)
    }
}

/// A self-healing backend wrapper: retries a failing primary, and after
/// `failure_threshold` consecutive failed batches demotes it
/// permanently ("opens the breaker") in favour of a golden fallback
/// backend.
///
/// Semantics per micro-batch:
///
/// 1. While the breaker is closed, the primary gets the batch, plus up
///    to `max_retries` immediate retries on failure (the simulators are
///    deterministic, but a faulted engine can recover between cycles —
///    e.g. an SEU pulse that expires — so retrying is not futile).
/// 2. If all attempts fail, the **fallback answers the batch** — no
///    request is ever lost to a primary fault — and the
///    consecutive-failure counter increments.
/// 3. At `failure_threshold` consecutive failed batches the breaker
///    opens: the primary is demoted for the rest of the session and
///    every later batch goes straight to the fallback.  A successful
///    primary batch resets the counter.
///
/// The fallback is typically the always-correct [`BatchBackend`] golden
/// engine, so the server's per-request golden verification still passes
/// for failed-over traffic.  Counters are reported through
/// [`Backend::fault_stats`] into [`crate::ServeReport::backend_faults`].
#[derive(Debug)]
pub struct CircuitBreaker<P, F> {
    primary: P,
    fallback: F,
    failure_threshold: usize,
    max_retries: usize,
    consecutive_failures: usize,
    open: bool,
    stats: BackendFaultStats,
}

impl<P: Backend, F: Backend> CircuitBreaker<P, F> {
    /// Wraps `primary` with a breaker that opens after
    /// `failure_threshold` consecutive failed batches (clamped to at
    /// least 1), allowing `max_retries` immediate retries per batch.
    pub fn new(primary: P, fallback: F, failure_threshold: usize, max_retries: usize) -> Self {
        Self {
            primary,
            fallback,
            failure_threshold: failure_threshold.max(1),
            max_retries,
            consecutive_failures: 0,
            open: false,
            stats: BackendFaultStats::default(),
        }
    }

    /// Whether the breaker has opened (primary demoted for the rest of
    /// the session).
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// The counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> BackendFaultStats {
        self.stats
    }

    fn serve_fallback(
        &mut self,
        features: &[&[bool]],
    ) -> Result<Vec<InferenceOutcome>, ServeError> {
        self.stats.fallback_batches += 1;
        self.stats.fallback_requests += features.len() as u64;
        self.fallback.serve(features)
    }
}

impl<P: Backend, F: Backend> Backend for CircuitBreaker<P, F> {
    fn name(&self) -> &'static str {
        "circuit_breaker"
    }

    fn max_batch(&self) -> usize {
        self.primary.max_batch().min(self.fallback.max_batch())
    }

    fn serve(&mut self, features: &[&[bool]]) -> Result<Vec<InferenceOutcome>, ServeError> {
        if self.open {
            return self.serve_fallback(features);
        }
        for attempt in 0..=self.max_retries {
            if attempt > 0 {
                self.stats.retries += 1;
            }
            match self.primary.serve(features) {
                Ok(outcomes) => {
                    self.consecutive_failures = 0;
                    return Ok(outcomes);
                }
                Err(_) => self.stats.primary_errors += 1,
            }
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.failure_threshold {
            self.open = true;
            self.stats.breaker_open = true;
        }
        self.serve_fallback(features)
    }

    fn fault_stats(&self) -> Option<BackendFaultStats> {
        Some(self.stats)
    }
}

/// A deterministic fault-injection wrapper: fails its first
/// `failing_calls` serve calls with a backend error, then delegates to
/// the wrapped backend.  Built for exercising [`CircuitBreaker`] and the
/// fault campaign — the error is typed as a [`datapath::DatapathError`]
/// decode failure, the same class a genuinely faulted engine raises.
#[derive(Debug)]
pub struct FlakyBackend<B> {
    inner: B,
    failing_calls: usize,
    calls: usize,
}

impl<B: Backend> FlakyBackend<B> {
    /// Wraps `inner` so its first `failing_calls` serve calls fail.
    pub fn new(inner: B, failing_calls: usize) -> Self {
        Self {
            inner,
            failing_calls,
            calls: 0,
        }
    }
}

impl<B: Backend> Backend for FlakyBackend<B> {
    fn name(&self) -> &'static str {
        "flaky"
    }

    fn max_batch(&self) -> usize {
        self.inner.max_batch()
    }

    fn serve(&mut self, features: &[&[bool]]) -> Result<Vec<InferenceOutcome>, ServeError> {
        self.calls += 1;
        if self.calls <= self.failing_calls {
            return Err(ServeError::Backend(datapath::DatapathError::DecodeFailure(
                format!(
                    "injected fault: serve call {} of {} configured failures",
                    self.calls, self.failing_calls
                ),
            )));
        }
        self.inner.serve(features)
    }
}

/// Rejects masks that do not match the model configuration at adapter
/// construction, so a misconfigured server fails before accepting load.
fn check_masks(config: &DatapathConfig, masks: &ExcludeMasks) -> Result<(), ServeError> {
    if masks.feature_count() != config.features()
        || masks.clauses_per_polarity() != config.clauses_per_polarity()
    {
        return Err(ServeError::InvalidConfig {
            name: "masks",
            reason: format!(
                "exclude masks ({} features, {} clauses/polarity) do not match the model \
                 ({} features, {} clauses/polarity)",
                masks.feature_count(),
                masks.clauses_per_polarity(),
                config.features(),
                config.clauses_per_polarity()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datapath::{DatapathConfig, InferenceWorkload};

    #[test]
    fn adapters_serve_golden_outcomes() {
        let config = DatapathConfig::new(5, 4).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let workload = InferenceWorkload::random(&config, 10, 0.7, 3).unwrap();
        let features: Vec<&[bool]> = workload.samples().map(|s| s.features).collect();

        let mut batch = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        assert_eq!(batch.name(), "batch");
        assert_eq!(batch.max_batch(), netlist::LANES);
        assert_eq!(&batch.serve(&features).unwrap(), workload.expected());

        let mut parallel = ParallelBatchBackend::new(&model, workload.masks().clone(), 2).unwrap();
        assert_eq!(parallel.name(), "parallel_batch");
        assert_eq!(&parallel.serve(&features).unwrap(), workload.expected());
    }

    #[test]
    fn sliced_adapters_serve_golden_outcomes() {
        let config = DatapathConfig::new(4, 2).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let library = Library::umc_ll();
        let workload = InferenceWorkload::random(&config, 5, 0.6, 9).unwrap();
        let features: Vec<&[bool]> = workload.samples().map(|s| s.features).collect();

        let mut event =
            EventSlicedBackend::new(&model, &library, workload.masks().clone(), 2).unwrap();
        assert_eq!(event.name(), "event_sliced");
        assert_eq!(event.max_batch(), netlist::LANES);
        assert_eq!(&event.serve(&features).unwrap(), workload.expected());

        let datapath = DualRailDatapath::generate(&config).unwrap();
        let mut dual =
            DualRailSlicedBackend::new(&datapath, &library, workload.masks().clone(), 2).unwrap();
        assert_eq!(dual.name(), "dualrail_sliced");
        assert_eq!(&dual.serve(&features).unwrap(), workload.expected());
    }

    #[test]
    fn circuit_breaker_retries_then_fails_over_then_opens() {
        let config = DatapathConfig::new(5, 4).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let workload = InferenceWorkload::random(&config, 6, 0.7, 3).unwrap();
        let features: Vec<&[bool]> = workload.samples().map(|s| s.features).collect();

        // Primary fails its first 5 calls; one retry per batch means
        // batch 1 consumes calls 1-2, batch 2 consumes calls 3-4, batch
        // 3 consumes call 5 and then succeeds on the retry... but the
        // breaker (threshold 2) opens after batch 2, so batch 3 never
        // reaches the primary.
        let primary = FlakyBackend::new(
            BatchBackend::new(&model, workload.masks().clone()).unwrap(),
            5,
        );
        let fallback = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let mut breaker = CircuitBreaker::new(primary, fallback, 2, 1);
        assert_eq!(breaker.name(), "circuit_breaker");
        assert_eq!(breaker.max_batch(), netlist::LANES);

        for batch in 0..3 {
            let outcomes = breaker.serve(&features).unwrap();
            assert_eq!(&outcomes, workload.expected(), "batch {batch}");
        }
        assert!(breaker.is_open());
        let stats = breaker.fault_stats().unwrap();
        assert_eq!(
            stats,
            BackendFaultStats {
                primary_errors: 4,
                retries: 2,
                fallback_batches: 3,
                fallback_requests: 18,
                breaker_open: true,
            }
        );
    }

    #[test]
    fn circuit_breaker_resets_counter_on_success() {
        let config = DatapathConfig::new(5, 4).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let workload = InferenceWorkload::random(&config, 4, 0.7, 3).unwrap();
        let features: Vec<&[bool]> = workload.samples().map(|s| s.features).collect();

        // One failing call, no retries: batch 1 fails over, batch 2
        // succeeds on the primary and resets the streak — the breaker
        // (threshold 2) never opens.
        let primary = FlakyBackend::new(
            BatchBackend::new(&model, workload.masks().clone()).unwrap(),
            1,
        );
        let fallback = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let mut breaker = CircuitBreaker::new(primary, fallback, 2, 0);
        for _ in 0..3 {
            assert_eq!(&breaker.serve(&features).unwrap(), workload.expected());
        }
        assert!(!breaker.is_open());
        let stats = breaker.stats();
        assert_eq!(stats.primary_errors, 1);
        assert_eq!(stats.fallback_batches, 1);
        assert!(!stats.breaker_open);

        // Plain backends report no fault stats.
        let plain = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        assert_eq!(plain.fault_stats(), None);
    }

    /// Every adapter, the dual-rail one included, rejects masks of the
    /// wrong shape before serving a single batch.
    #[test]
    fn mismatched_masks_fail_at_construction() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let other = DatapathConfig::new(4, 2).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let datapath = DualRailDatapath::generate(&config).unwrap();
        let library = Library::umc_ll();
        let wrong = InferenceWorkload::random(&other, 1, 0.5, 1).unwrap();
        assert!(matches!(
            BatchBackend::new(&model, wrong.masks().clone()),
            Err(ServeError::InvalidConfig { name: "masks", .. })
        ));
        assert!(matches!(
            EventSlicedBackend::new(&model, &library, wrong.masks().clone(), 1),
            Err(ServeError::InvalidConfig { name: "masks", .. })
        ));
        assert!(matches!(
            DualRailSlicedBackend::new(&datapath, &library, wrong.masks().clone(), 1),
            Err(ServeError::InvalidConfig { name: "masks", .. })
        ));
    }
}
