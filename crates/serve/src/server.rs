//! The serving runtime: a virtual-clock event loop that calls its
//! backend inline.
//!
//! [`Server::run`] replays an arrival [`Trace`] against a [`Backend`]:
//!
//! 1. requests are admitted into the bounded pending queue (or shed /
//!    blocked — [`AdmissionPolicy`]);
//! 2. the [`MicroBatcher`] flushes a micro-batch whenever 64 lanes fill,
//!    the moment the server is free when recent arrivals are on average
//!    more than `max_wait_ns` apart (no companion is expected within
//!    the wait), or else when the oldest request's `max_wait_ns`
//!    deadline expires;
//! 3. each batch goes straight to [`Backend::serve`] on the thread that
//!    runs the server — the loop waits for every answer anyway, so a
//!    worker thread would only add hand-offs;
//! 4. the batch's service time (measured wall-clock, or a fixed
//!    [`ServiceModel`] for deterministic tests) advances the virtual
//!    server-free time, and per-request queueing/service components land
//!    in the [`ServeReport`].
//!
//! **Every served outcome is verified against the workload's golden
//! outcome before the report is returned** — a run whose pipeline
//! corrupted even one request fails with
//! [`ServeError::OutcomeMismatch`] instead of reporting timings.
//!
//! # The virtual-clock determinism contract
//!
//! Arrivals, admission decisions, batch composition and flush times are
//! pure functions of `(trace, config, service times)`.  Under
//! [`ServiceModel::Fixed`] the service times are given, so **the entire
//! report — shed set, batch boundaries, every queueing and service
//! figure — is deterministic** and independent of backend thread count,
//! host load or wall-clock jitter.  Under [`ServiceModel::Measured`]
//! the measured wall-clock durations feed back into the virtual clock
//! (that feedback is what makes saturation real), so telemetry values
//! vary run to run while served *outcomes* remain golden-verified and
//! bit-identical to the offline engines at any thread count.
//!
//! Tie-break: a flush due exactly at an arrival's timestamp happens
//! first — the arriving request misses that batch.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use datapath::InferenceWorkload;

use crate::backend::Backend;
use crate::batcher::{AdmissionPolicy, MicroBatcher, PendingRequest};
use crate::error::ServeError;
use crate::obs::TraceRecorder;
use crate::telemetry::{BatchRecord, ServeReport, ServedRecord, ShedRecord};
use crate::trace::{Trace, VirtualNs};

/// Where a batch's virtual service time comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceModel {
    /// The wall-clock duration of the backend call becomes the virtual
    /// service time (clamped to ≥ 1 ns).  This couples the virtual
    /// queueing system to the backend's real speed — the mode
    /// saturation sweeps use.
    Measured,
    /// A deterministic cost model: `batch_ns + per_request_ns × size`.
    /// The backend still runs (outcomes are still verified); only the
    /// virtual clock ignores its wall-clock duration.  This is the mode
    /// for reproducible tests of the queueing behaviour itself.
    Fixed {
        /// Fixed per-batch cost in virtual ns.
        batch_ns: u64,
        /// Additional cost per request in the batch, in virtual ns.
        per_request_ns: u64,
    },
}

/// Serving-runtime configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded pending-queue capacity (0 allowed: no request may wait —
    /// see [`MicroBatcher::can_admit`]).
    pub queue_capacity: usize,
    /// What happens to a request that finds the queue full.
    pub policy: AdmissionPolicy,
    /// Largest micro-batch to dispatch (clamped to the backend's
    /// [`Backend::max_batch`]; must be ≥ 1).
    pub max_batch: usize,
    /// Longest a request may wait for its batch to fill before the
    /// batcher flushes anyway (the deadline is anchored on arrival).
    /// It is a cap, not a fixed wait: when the session's recent
    /// arrivals are on average more than `max_wait_ns` apart, a partial
    /// batch departs as soon as the server is free (see
    /// [`MicroBatcher::next_flush_ns`]).
    pub max_wait_ns: u64,
    /// Service-time source for the virtual clock.
    pub service_model: ServiceModel,
    /// Per-request service-start deadline (virtual ns from arrival).
    /// A request still queued when its deadline passes is dropped at
    /// the next flush instead of being dispatched — stale answers are
    /// worthless at the edge, and shedding them keeps a recovering
    /// (e.g. failed-over) server from burning capacity on requests
    /// whose callers have given up.  `None` disables expiry.
    pub deadline_ns: Option<u64>,
}

impl Default for ServeConfig {
    /// 256-deep shed queue, 64-lane batches, a batching wait capped at
    /// 100 µs, measured service times.
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            policy: AdmissionPolicy::Shed,
            max_batch: netlist::LANES,
            max_wait_ns: 100_000,
            service_model: ServiceModel::Measured,
            deadline_ns: None,
        }
    }
}

/// An in-process micro-batching inference server bound to one workload
/// (the request population it replays) and one [`Backend`].
#[derive(Debug)]
pub struct Server<'w, B: Backend> {
    backend: B,
    workload: &'w InferenceWorkload,
    config: ServeConfig,
}

impl<'w, B: Backend> Server<'w, B> {
    /// Builds a server.  Requests replay `workload` samples cyclically
    /// (request `id` carries sample `id % workload.len()`), so golden
    /// outcomes are known for every request.
    ///
    /// # Errors
    ///
    /// Rejects an empty workload and a zero `max_batch`.
    pub fn new(
        backend: B,
        workload: &'w InferenceWorkload,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        if workload.is_empty() {
            return Err(ServeError::InvalidConfig {
                name: "workload",
                reason: "must contain at least one sample to replay".into(),
            });
        }
        if config.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                name: "max_batch",
                reason: "must be at least 1".into(),
            });
        }
        Ok(Self {
            backend,
            workload,
            config,
        })
    }

    /// The backend's telemetry name.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serves an open-loop trace: requests arrive at the trace's fixed
    /// virtual times regardless of how the server keeps up.
    ///
    /// # Errors
    ///
    /// Propagates backend failures and fails on any served outcome that
    /// diverges from its golden outcome.
    pub fn run(&mut self, trace: &Trace) -> Result<ServeReport, ServeError> {
        let offered_qps = trace.offered_qps();
        let source = OpenSource {
            arrivals: trace.arrivals(),
            next: 0,
        };
        self.run_session(source, offered_qps, None)
    }

    /// Like [`Server::run`], recording every request's lifecycle —
    /// arrival, admission, flush, dispatch, completion — plus
    /// queue-depth samples and breaker-state transitions into
    /// `recorder` on the virtual clock (see [`crate::TraceRecorder`]).
    /// The report is identical to an untraced run.
    ///
    /// # Errors
    ///
    /// As [`Server::run`].
    pub fn run_traced(
        &mut self,
        trace: &Trace,
        recorder: &mut TraceRecorder,
    ) -> Result<ServeReport, ServeError> {
        let offered_qps = trace.offered_qps();
        let source = OpenSource {
            arrivals: trace.arrivals(),
            next: 0,
        };
        self.run_session(source, offered_qps, Some(recorder))
    }

    /// Serves a closed loop: `clients` concurrent clients that each
    /// issue a request, wait for its completion (or shedding), think
    /// for `think_ns`, and repeat — `requests` requests in total.  The
    /// offered load self-adjusts to the service rate, so a closed run
    /// measures capacity under bounded concurrency rather than
    /// overload.
    ///
    /// # Errors
    ///
    /// As [`Server::run`]; additionally rejects zero clients.
    pub fn run_closed(
        &mut self,
        clients: usize,
        requests: usize,
        think_ns: u64,
    ) -> Result<ServeReport, ServeError> {
        if clients == 0 {
            return Err(ServeError::InvalidConfig {
                name: "clients",
                reason: "closed-loop load needs at least one client".into(),
            });
        }
        let mut ready = BinaryHeap::new();
        for client in 0..clients.min(requests) {
            ready.push(Reverse((0u64, client as u32)));
        }
        let source = ClosedSource {
            ready,
            to_issue: requests,
            think_ns,
        };
        self.run_session(source, 0.0, None)
    }

    /// The shared event loop: drives arrivals + flushes in virtual-time
    /// order, calling the backend inline at each flush.
    fn run_session<S: ArrivalSource>(
        &mut self,
        source: S,
        offered_qps: f64,
        tracer: Option<&mut TraceRecorder>,
    ) -> Result<ServeReport, ServeError> {
        let lanes = self.config.max_batch.min(self.backend.max_batch()).max(1);
        let mut session = Session {
            batcher: MicroBatcher::new(self.config.queue_capacity, lanes, self.config.max_wait_ns),
            source,
            backend: &mut self.backend,
            policy: self.config.policy,
            model: self.config.service_model,
            deadline_ns: self.config.deadline_ns,
            workload: self.workload,
            next_id: 0,
            t_free: 0,
            admit_frontier: 0,
            makespan: 0,
            served: Vec::new(),
            shed: Vec::new(),
            deadline_expired: Vec::new(),
            batches: Vec::new(),
            tracer,
        };
        session.drive()?;
        Ok(ServeReport {
            served: session.served,
            shed: session.shed,
            deadline_expired: session.deadline_expired,
            batches: session.batches,
            makespan_ns: session.makespan,
            offered_qps,
            backend_faults: self.backend.fault_stats(),
        })
    }
}

/// Where arrivals come from: a fixed open-loop trace or closed-loop
/// clients reacting to completions.
trait ArrivalSource {
    /// Virtual time of the next arrival, if any.
    fn peek(&mut self) -> Option<VirtualNs>;
    /// Consumes the next arrival: `(time, client)`.  `None` when the
    /// source is exhausted — callers decide whether that is expected
    /// (drained trace) or an invariant violation (after a `Some` peek).
    fn next_arrival(&mut self) -> Option<(VirtualNs, u32)>;
    /// A request of `client` completed at `completion_ns`.
    fn on_complete(&mut self, client: u32, completion_ns: VirtualNs);
    /// A request of `client` was shed at `at_ns`.
    fn on_shed(&mut self, client: u32, at_ns: VirtualNs);
}

struct OpenSource<'t> {
    arrivals: &'t [VirtualNs],
    next: usize,
}

impl ArrivalSource for OpenSource<'_> {
    fn peek(&mut self) -> Option<VirtualNs> {
        self.arrivals.get(self.next).copied()
    }

    fn next_arrival(&mut self) -> Option<(VirtualNs, u32)> {
        let t = *self.arrivals.get(self.next)?;
        self.next += 1;
        Some((t, 0))
    }

    fn on_complete(&mut self, _client: u32, _completion_ns: VirtualNs) {}

    fn on_shed(&mut self, _client: u32, _at_ns: VirtualNs) {}
}

struct ClosedSource {
    /// Min-heap of `(next issue time, client)` — ties resolve by client
    /// id, keeping closed-loop runs deterministic.
    ready: BinaryHeap<Reverse<(VirtualNs, u32)>>,
    /// Requests left to issue across all clients.
    to_issue: usize,
    think_ns: u64,
}

impl ArrivalSource for ClosedSource {
    fn peek(&mut self) -> Option<VirtualNs> {
        if self.to_issue == 0 {
            return None;
        }
        self.ready.peek().map(|Reverse((t, _))| *t)
    }

    fn next_arrival(&mut self) -> Option<(VirtualNs, u32)> {
        if self.to_issue == 0 {
            return None;
        }
        let Reverse((t, client)) = self.ready.pop()?;
        self.to_issue -= 1;
        Some((t, client))
    }

    fn on_complete(&mut self, client: u32, completion_ns: VirtualNs) {
        self.ready.push(Reverse((
            completion_ns.saturating_add(self.think_ns),
            client,
        )));
    }

    fn on_shed(&mut self, client: u32, at_ns: VirtualNs) {
        // A shed response returns to the client immediately; it thinks,
        // then issues its next request.
        self.on_complete(client, at_ns);
    }
}

/// Mutable state of one serving session.
struct Session<'w, 's, S, B> {
    batcher: MicroBatcher,
    source: S,
    backend: &'s mut B,
    policy: AdmissionPolicy,
    model: ServiceModel,
    deadline_ns: Option<u64>,
    workload: &'w InferenceWorkload,
    next_id: usize,
    t_free: VirtualNs,
    /// No request may be admitted before this time: it advances to each
    /// executed flush's virtual time, so that when a blocked request
    /// forces a *future* flush (the queue state then reflects a later
    /// instant), subsequent same- or earlier-timestamped arrivals admit
    /// behind it chronologically instead of jumping the FIFO.
    admit_frontier: VirtualNs,
    makespan: VirtualNs,
    served: Vec<ServedRecord>,
    shed: Vec<ShedRecord>,
    deadline_expired: Vec<ShedRecord>,
    batches: Vec<BatchRecord>,
    /// Lifecycle recorder for traced runs; `None` keeps the loop free
    /// of tracing work.
    tracer: Option<&'s mut TraceRecorder>,
}

impl<S: ArrivalSource, B: Backend> Session<'_, '_, S, B> {
    fn drive(&mut self) -> Result<(), ServeError> {
        loop {
            let next_arrival = self.source.peek();
            let next_flush = self.batcher.next_flush_ns(self.t_free);
            match (next_flush, next_arrival) {
                (None, None) => break,
                (Some(f), None) => self.flush(f)?,
                (Some(f), Some(a)) if f <= a => self.flush(f)?,
                (_, Some(_)) => self.handle_arrival()?,
            }
        }
        Ok(())
    }

    fn handle_arrival(&mut self) -> Result<(), ServeError> {
        let Some((arrival_ns, client_id)) = self.source.next_arrival() else {
            return Err(ServeError::SchedulerInvariant {
                what: "arrival source announced an arrival via peek() but could not deliver it",
            });
        };
        let id = self.next_id;
        self.next_id += 1;
        let sample = id % self.workload.len();
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.arrival(id, sample, arrival_ns);
        }
        // Admission happens no earlier than the latest executed flush:
        // blocked requests may have pulled the queue state into the
        // future, and FIFO order must survive that (see admit_frontier).
        let admit_ns = arrival_ns.max(self.admit_frontier);
        if self.batcher.can_admit(admit_ns, self.t_free) {
            self.batcher.admit(PendingRequest {
                id,
                sample,
                client: client_id,
                arrival_ns,
                admit_ns,
            });
            if let Some(tracer) = self.tracer.as_deref_mut() {
                tracer.queue_depth(admit_ns, self.batcher.len());
            }
            return Ok(());
        }
        match self.policy {
            AdmissionPolicy::Shed => {
                self.shed.push(ShedRecord {
                    id,
                    sample,
                    arrival_ns,
                });
                if let Some(tracer) = self.tracer.as_deref_mut() {
                    tracer.shed(id, arrival_ns, "queue full");
                }
                self.source.on_shed(client_id, arrival_ns);
            }
            AdmissionPolicy::Block => {
                // The client waits: execute the natural upcoming flushes
                // (they are already due after this arrival's timestamp —
                // earlier ones ran before we got here) until a slot
                // frees, and admit at that freeing instant.
                let mut admit_ns = admit_ns;
                while !self.batcher.can_admit(admit_ns, self.t_free) {
                    if let Some(f) = self.batcher.next_flush_ns(self.t_free) {
                        self.flush(f)?;
                        admit_ns = admit_ns.max(f);
                    } else {
                        // Zero-capacity queue: the only slot is "server
                        // idle"; wait for it.
                        admit_ns = admit_ns.max(self.t_free);
                    }
                }
                self.batcher.admit(PendingRequest {
                    id,
                    sample,
                    client: client_id,
                    arrival_ns,
                    admit_ns,
                });
                if let Some(tracer) = self.tracer.as_deref_mut() {
                    tracer.queue_depth(admit_ns, self.batcher.len());
                }
            }
        }
        Ok(())
    }

    /// Dispatches the next micro-batch at virtual time `flush_ns`:
    /// serves it on the backend, folds the (measured or modelled)
    /// service time back into the virtual clock, verifies outcomes and
    /// records telemetry.
    fn flush(&mut self, flush_ns: VirtualNs) -> Result<(), ServeError> {
        let mut batch = self.batcher.take_batch();
        if let Some(deadline) = self.deadline_ns {
            // Requests whose deadline passed while they queued are shed
            // now, before the backend spends service time on them.
            let (live, expired): (Vec<_>, Vec<_>) = batch
                .into_iter()
                .partition(|p| flush_ns <= p.arrival_ns.saturating_add(deadline));
            batch = live;
            for pending in expired {
                self.deadline_expired.push(ShedRecord {
                    id: pending.id,
                    sample: pending.sample,
                    arrival_ns: pending.arrival_ns,
                });
                if let Some(tracer) = self.tracer.as_deref_mut() {
                    tracer.shed(pending.id, flush_ns, "deadline expired");
                }
                self.source.on_shed(pending.client, flush_ns);
            }
            if batch.is_empty() {
                // The flush still happened (the queue state advanced),
                // but there is nothing to dispatch.
                self.admit_frontier = self.admit_frontier.max(flush_ns);
                return Ok(());
            }
        }
        let size = batch.len();
        let features: Vec<&[bool]> = batch
            .iter()
            .map(|p| self.workload.sample(p.sample).features)
            .collect();
        let start = Instant::now();
        let result = self.backend.serve(&features);
        let measured_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let outcomes = result?;
        if outcomes.len() != size {
            return Err(ServeError::BatchShapeMismatch {
                expected: size,
                got: outcomes.len(),
            });
        }
        let service_ns = match self.model {
            ServiceModel::Measured => measured_ns.max(1),
            ServiceModel::Fixed {
                batch_ns,
                per_request_ns,
            } => batch_ns
                .saturating_add(per_request_ns.saturating_mul(size as u64))
                .max(1),
        };
        let completion_ns = flush_ns.saturating_add(service_ns);
        self.t_free = completion_ns;
        self.admit_frontier = self.admit_frontier.max(flush_ns);
        self.makespan = self.makespan.max(completion_ns);
        let batch_index = self.batches.len();
        self.batches.push(BatchRecord {
            flush_ns,
            size,
            service_ns,
        });
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.batch(batch_index, flush_ns, size, service_ns);
            tracer.queue_depth(flush_ns, self.batcher.len());
            if let Some(stats) = self.backend.fault_stats() {
                tracer.breaker_state(completion_ns, stats.breaker_open);
            }
        }
        for (pending, outcome) in batch.into_iter().zip(outcomes) {
            // Golden verification before the timing is accepted.
            if *self.workload.sample(pending.sample).expected != outcome {
                return Err(ServeError::OutcomeMismatch {
                    request: pending.id,
                    sample: pending.sample,
                });
            }
            let Some(queue_ns) = flush_ns.checked_sub(pending.arrival_ns) else {
                return Err(ServeError::SchedulerInvariant {
                    what: "a batch was flushed before one of its requests arrived",
                });
            };
            if let Some(tracer) = self.tracer.as_deref_mut() {
                tracer.request_served(
                    pending.id,
                    pending.sample,
                    pending.arrival_ns,
                    queue_ns,
                    service_ns,
                    batch_index,
                );
            }
            self.served.push(ServedRecord {
                id: pending.id,
                sample: pending.sample,
                client: pending.client,
                arrival_ns: pending.arrival_ns,
                queue_ns,
                service_ns,
                batch: batch_index,
                outcome,
            });
            self.source.on_complete(pending.client, completion_ns);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BatchBackend;
    use datapath::{BatchGoldenModel, DatapathConfig, InferenceOutcome};
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::rc::Rc;

    fn fixture() -> (DatapathConfig, BatchGoldenModel, InferenceWorkload) {
        let config = DatapathConfig::new(6, 4).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let workload = InferenceWorkload::random(&config, 32, 0.7, 11).unwrap();
        (config, model, workload)
    }

    fn fixed_config() -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            policy: AdmissionPolicy::Shed,
            max_batch: 64,
            max_wait_ns: 1_000,
            service_model: ServiceModel::Fixed {
                batch_ns: 100,
                per_request_ns: 10,
            },
            deadline_ns: None,
        }
    }

    #[test]
    fn open_loop_serves_everything_below_saturation() {
        let (_, model, workload) = fixture();
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let mut server = Server::new(backend, &workload, fixed_config()).unwrap();
        assert_eq!(server.backend_name(), "batch");
        // 200 requests, 2 µs apart: far below the fixed service rate.
        let trace = Trace::uniform(200, 500_000.0);
        let report = server.run(&trace).unwrap();
        assert_eq!(report.served_count(), 200);
        assert_eq!(report.shed_count(), 0);
        assert!(report.makespan_ns > 0);
        assert!(report.achieved_qps() > 0.0);
        // Request ids are served in order under an open-loop FIFO.
        let ids: Vec<usize> = report.served.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..200).collect::<Vec<_>>());
        // Batches respect the lane limit and cover every request.
        assert!(report.batches.iter().all(|b| b.size >= 1 && b.size <= 64));
        assert_eq!(
            report.batches.iter().map(|b| b.size).sum::<usize>(),
            report.served_count()
        );
    }

    #[test]
    fn fixed_model_runs_are_fully_deterministic() {
        let (_, model, workload) = fixture();
        let trace = Trace::poisson(300, 2e6, 9);
        let run = |threads: usize| {
            let backend = crate::backend::ParallelBatchBackend::new(
                &model,
                workload.masks().clone(),
                threads,
            )
            .unwrap();
            Server::new(backend, &workload, fixed_config())
                .unwrap()
                .run(&trace)
                .unwrap()
        };
        let first = run(1);
        // Same trace + fixed service model → bit-identical report,
        // regardless of wall clock or backend thread count.
        let second = run(1);
        assert_eq!(first, second);
        let threaded = run(3);
        assert_eq!(first, threaded);
    }

    #[test]
    fn an_idle_server_serves_a_sparse_stream_without_waiting_out_the_deadline() {
        // `serve_low`'s shape: Poisson arrivals at 250 req/s (4 ms apart
        // on average) against a 50 µs batching wait and a 45 µs call.
        let (_, model, workload) = fixture();
        let max_wait_ns = 50_000;
        let service_ns = 45_000;
        let config = ServeConfig {
            max_wait_ns,
            service_model: ServiceModel::Fixed {
                batch_ns: service_ns,
                per_request_ns: 0,
            },
            ..fixed_config()
        };
        let trace = Trace::poisson(2000, 250.0, 5);
        // The first 64 arrivals (the batcher's window) are each more than
        // one wait apart, so the window reads sparse from the second
        // request on.
        assert!(trace.arrivals()[..64]
            .windows(2)
            .all(|w| w[1] - w[0] > max_wait_ns));
        let run = |threads: usize| {
            let backend = crate::backend::ParallelBatchBackend::new(
                &model,
                workload.masks().clone(),
                threads,
            )
            .unwrap();
            Server::new(backend, &workload, config)
                .unwrap()
                .run(&trace)
                .unwrap()
        };
        let report = run(1);
        assert_eq!(report.served_count(), 2000);
        // The session's first request has no rate to go by: it waits out
        // its deadline on an idle server.
        assert_eq!(report.served[0].queue_ns, max_wait_ns);
        for record in &report.served[1..] {
            // A request that finds the server idle leaves at once...
            let previous = &report.batches[record.batch - 1];
            if record.arrival_ns >= previous.flush_ns + previous.service_ns {
                assert_eq!(record.queue_ns, 0, "request {}", record.id);
            }
            // ...and one that finds it busy waits for the current call
            // to end, never for the deadline.
            assert!(record.queue_ns <= service_ns, "request {}", record.id);
        }
        // The flush rule reads only virtual timestamps: the report does
        // not depend on the backend's thread count.
        for threads in [2, 7] {
            assert_eq!(run(threads), report, "threads {threads}");
        }
    }

    /// Counts its calls through an `Rc`, so it is not `Send`, and
    /// panics on call number `panic_on`.
    struct CountingBackend<'a> {
        inner: BatchBackend<'a>,
        calls: Rc<Cell<usize>>,
        panic_on: usize,
    }

    impl Backend for CountingBackend<'_> {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn serve(&mut self, features: &[&[bool]]) -> Result<Vec<InferenceOutcome>, ServeError> {
            let call = self.calls.get() + 1;
            self.calls.set(call);
            if call == self.panic_on {
                panic!("backend call {call} failed");
            }
            self.inner.serve(features)
        }
    }

    #[test]
    fn the_backend_runs_on_the_calling_thread() {
        let (_, model, workload) = fixture();
        let calls = Rc::new(Cell::new(0));
        let backend = CountingBackend {
            inner: BatchBackend::new(&model, workload.masks().clone()).unwrap(),
            calls: Rc::clone(&calls),
            panic_on: 0,
        };
        let mut server = Server::new(backend, &workload, fixed_config()).unwrap();
        // Backend state persists across batches and sessions.
        let first = server.run(&Trace::uniform(200, 500_000.0)).unwrap();
        let second = server.run(&Trace::poisson(300, 2e6, 9)).unwrap();
        assert_eq!(calls.get(), first.batches.len() + second.batches.len());
        // A backend panic unwinds out of the run with its own message.
        server.backend.panic_on = calls.get() + 2;
        let payload = catch_unwind(AssertUnwindSafe(|| {
            server.run(&Trace::uniform(200, 500_000.0))
        }))
        .unwrap_err();
        let expected = format!("backend call {} failed", calls.get());
        assert_eq!(payload.downcast_ref::<String>(), Some(&expected));
    }

    #[test]
    fn deadline_flushes_a_partial_batch() {
        let (_, model, workload) = fixture();
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let mut server = Server::new(backend, &workload, fixed_config()).unwrap();
        // 3 requests arriving 100 ns apart can never fill 64 lanes; the
        // 1 µs deadline must flush them as one partial batch.
        let trace = Trace::from_arrivals(vec![0, 100, 200]);
        let report = server.run(&trace).unwrap();
        assert_eq!(report.served_count(), 3);
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.batches[0].size, 3);
        // The flush fired at the oldest arrival's deadline: 0 + 1000.
        assert_eq!(report.batches[0].flush_ns, 1_000);
        assert_eq!(report.served[0].queue_ns, 1_000);
        assert_eq!(report.served[2].queue_ns, 800);
    }

    #[test]
    fn closed_loop_issues_exactly_the_requested_load() {
        let (_, model, workload) = fixture();
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let mut server = Server::new(backend, &workload, fixed_config()).unwrap();
        let report = server.run_closed(4, 40, 500).unwrap();
        assert_eq!(report.served_count() + report.shed_count(), 40);
        // Plenty of queue: nothing sheds in a 4-client closed loop.
        assert_eq!(report.shed_count(), 0);
        // At most `clients` requests are ever in flight, so no batch
        // can exceed the concurrency.
        assert!(report.batches.iter().all(|b| b.size <= 4));
        // Deterministic replay.
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let mut again = Server::new(backend, &workload, fixed_config()).unwrap();
        assert_eq!(again.run_closed(4, 40, 500).unwrap(), report);
    }

    #[test]
    fn expired_deadlines_shed_at_flush_time() {
        let (_, model, workload) = fixture();
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        // Per-request deadline (600 ns) shorter than the batching wait
        // (1 µs): the first arrivals of a trickle expire before the
        // batcher's deadline flush fires.
        let config = ServeConfig {
            deadline_ns: Some(600),
            ..fixed_config()
        };
        let mut server = Server::new(backend, &workload, config).unwrap();
        let trace = Trace::from_arrivals(vec![0, 100, 700]);
        let report = server.run(&trace).unwrap();
        // Flush fires at 0 + max_wait = 1000: requests 0 (deadline 600)
        // and 1 (deadline 700) have expired; request 2 (deadline 1700)
        // is served alone.
        assert_eq!(report.deadline_expired_count(), 2);
        assert_eq!(report.served_count(), 1);
        assert_eq!(report.shed_count(), 0);
        assert_eq!(report.served[0].id, 2);
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.batches[0].size, 1);
        let expired_ids: Vec<usize> = report.deadline_expired.iter().map(|r| r.id).collect();
        assert_eq!(expired_ids, vec![0, 1]);
        // Summary counts the expired requests as offered load.
        let summary = report.summary();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.deadline_expired, 2);
        assert!(summary.to_string().contains("expired 2"));
        // Deterministic replay with the deadline active.
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let mut again = Server::new(backend, &workload, config).unwrap();
        assert_eq!(again.run(&trace).unwrap(), report);
    }

    #[test]
    fn an_all_expired_flush_dispatches_nothing() {
        let (_, model, workload) = fixture();
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let config = ServeConfig {
            deadline_ns: Some(100),
            ..fixed_config()
        };
        let mut server = Server::new(backend, &workload, config).unwrap();
        // Both requests expire (deadlines 100 and 300) before the flush
        // at 1000; no batch reaches the backend.
        let trace = Trace::from_arrivals(vec![0, 200]);
        let report = server.run(&trace).unwrap();
        assert_eq!(report.served_count(), 0);
        assert_eq!(report.deadline_expired_count(), 2);
        assert!(report.batches.is_empty());
        assert_eq!(report.makespan_ns, 0);
    }

    #[test]
    fn circuit_breaker_failover_keeps_the_session_golden() {
        let (_, model, workload) = fixture();
        // The primary fails its first 4 calls; threshold 2 with one
        // retry per batch opens the breaker after two failed batches,
        // and the golden fallback carries the rest of the session.
        let primary = crate::backend::FlakyBackend::new(
            BatchBackend::new(&model, workload.masks().clone()).unwrap(),
            4,
        );
        let fallback = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let breaker = crate::backend::CircuitBreaker::new(primary, fallback, 2, 1);
        let mut server = Server::new(breaker, &workload, fixed_config()).unwrap();
        assert_eq!(server.backend_name(), "circuit_breaker");
        let trace = Trace::uniform(200, 500_000.0);
        let report = server.run(&trace).unwrap();
        // Every request is served and golden-verified despite the
        // primary faulting: run() would have failed otherwise.
        assert_eq!(report.served_count(), 200);
        let faults = report.backend_faults.expect("breaker reports fault stats");
        assert!(faults.breaker_open);
        assert_eq!(faults.primary_errors, 4);
        assert_eq!(faults.retries, 2);
        assert_eq!(faults.fallback_batches as usize, report.batches.len());
        assert_eq!(faults.fallback_requests, 200);
        let summary = report.summary();
        assert_eq!(summary.retries, 2);
        assert_eq!(summary.fallback_batches, faults.fallback_batches);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let (config, model, workload) = fixture();
        let empty = InferenceWorkload::new(&config, workload.masks().clone(), vec![]).unwrap();
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        assert!(matches!(
            Server::new(backend, &empty, ServeConfig::default()),
            Err(ServeError::InvalidConfig {
                name: "workload",
                ..
            })
        ));
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let bad = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            Server::new(backend, &workload, bad),
            Err(ServeError::InvalidConfig {
                name: "max_batch",
                ..
            })
        ));
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let mut server = Server::new(backend, &workload, ServeConfig::default()).unwrap();
        assert!(matches!(
            server.run_closed(0, 10, 0),
            Err(ServeError::InvalidConfig {
                name: "clients",
                ..
            })
        ));
        assert_eq!(server.config().queue_capacity, 256);
    }

    #[test]
    fn measured_service_still_verifies_and_serves_in_order() {
        let (_, model, workload) = fixture();
        let backend = BatchBackend::new(&model, workload.masks().clone()).unwrap();
        let config = ServeConfig {
            max_wait_ns: 10_000,
            ..ServeConfig::default()
        };
        let mut server = Server::new(backend, &workload, config).unwrap();
        let trace = Trace::bursty(128, 16, 1e6, 3);
        let report = server.run(&trace).unwrap();
        assert_eq!(report.served_count() + report.shed_count(), 128);
        assert!(report.served_count() > 0);
        for record in &report.served {
            assert!(record.service_ns >= 1);
            assert_eq!(
                &record.outcome,
                workload.sample(record.sample).expected,
                "served outcome must be golden"
            );
        }
    }
}
