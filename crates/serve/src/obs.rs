//! Request-lifecycle tracing for the serving runtime.
//!
//! A [`TraceRecorder`] turns one serving session into a
//! [Chrome trace event format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! JSON document on the **virtual clock**: every request becomes a
//! span from arrival to completion, every micro-batch a span from
//! flush to service completion, the pending-queue depth a sampled
//! counter track, and circuit-breaker state changes instant markers.
//! Because the serving runtime's clock is virtual and deterministic
//! (see [`crate::server`]), a fixed-service-model trace is
//! **byte-identical run to run** — trace files diff cleanly across
//! commits.
//!
//! The recorder is passed to [`crate::Server::run_traced`]; the plain
//! entry points carry no tracing state and pay no tracing cost.
//!
//! ```
//! use tm_obs::json_is_well_formed;
//! use tm_serve::TraceRecorder;
//!
//! let mut recorder = TraceRecorder::new("edge-server");
//! recorder.arrival(0, 0, 1_000);
//! recorder.queue_depth(1_000, 1);
//! recorder.batch(0, 2_000, 1, 500);
//! recorder.request_served(0, 0, 1_000, 1_000, 500, 0);
//! let json = recorder.to_json();
//! assert!(json_is_well_formed(&json).is_ok());
//! ```

use tm_obs::ChromeTrace;

/// Virtual thread lane carrying per-request lifecycle events.
const TID_REQUESTS: u32 = 1;
/// Virtual thread lane carrying micro-batch dispatch spans and
/// breaker-state markers.
const TID_SERVER: u32 = 2;

/// Records one serving session's request lifecycle as a Chrome trace.
///
/// All timestamps are **virtual nanoseconds** ([`crate::VirtualNs`]);
/// the exported `ts`/`dur` fields are microseconds with three exact
/// decimals, so no precision is lost.
#[derive(Debug)]
pub struct TraceRecorder {
    trace: ChromeTrace,
    breaker_open: Option<bool>,
}

impl TraceRecorder {
    /// Creates an empty recorder; `process` names the trace's process
    /// row in the viewer.
    #[must_use]
    pub fn new(process: &str) -> Self {
        Self {
            trace: ChromeTrace::new(process),
            breaker_open: None,
        }
    }

    /// Number of events recorded so far (metadata included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether nothing beyond the process metadata has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.len() <= 1
    }

    /// A request arrived at `arrival_ns` (instant marker on the
    /// request lane; its full span is emitted at completion).
    pub fn arrival(&mut self, id: usize, sample: usize, arrival_ns: u64) {
        let _ = sample;
        self.trace
            .instant(&format!("arrive {id}"), "request", arrival_ns, TID_REQUESTS);
    }

    /// A request was shed (admission control or deadline expiry).
    pub fn shed(&mut self, id: usize, at_ns: u64, reason: &str) {
        self.trace.instant(
            &format!("shed {id} ({reason})"),
            "shed",
            at_ns,
            TID_REQUESTS,
        );
    }

    /// A request was served: span from arrival to completion with its
    /// queueing/service split and batch ordinal attached.
    pub fn request_served(
        &mut self,
        id: usize,
        sample: usize,
        arrival_ns: u64,
        queue_ns: u64,
        service_ns: u64,
        batch: usize,
    ) {
        self.trace.complete(
            &format!("request {id}"),
            "request",
            arrival_ns,
            queue_ns.saturating_add(service_ns),
            TID_REQUESTS,
            &[
                ("sample", sample.to_string()),
                ("queue_ns", queue_ns.to_string()),
                ("service_ns", service_ns.to_string()),
                ("batch", batch.to_string()),
            ],
        );
    }

    /// A micro-batch was dispatched at `flush_ns` and completed
    /// `service_ns` later.
    pub fn batch(&mut self, index: usize, flush_ns: u64, size: usize, service_ns: u64) {
        self.trace.complete(
            &format!("batch {index}"),
            "dispatch",
            flush_ns,
            service_ns,
            TID_SERVER,
            &[("size", size.to_string())],
        );
    }

    /// Samples the pending-queue depth at `at_ns`.
    pub fn queue_depth(&mut self, at_ns: u64, depth: usize) {
        self.trace
            .counter("queue_depth", at_ns, &[("pending", depth as u64)]);
    }

    /// Notes the circuit-breaker state observed after a batch; emits a
    /// transition marker only when the state actually changed.
    pub fn breaker_state(&mut self, at_ns: u64, open: bool) {
        if self.breaker_open == Some(open) {
            return;
        }
        let known_before = self.breaker_open.is_some();
        self.breaker_open = Some(open);
        // The initial closed state is the implied baseline, not an
        // event; the first *observation* only records if it is open.
        if !known_before && !open {
            return;
        }
        let name = if open {
            "breaker opens"
        } else {
            "breaker closes"
        };
        self.trace.instant(name, "breaker", at_ns, TID_SERVER);
    }

    /// Exports the Chrome trace JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.trace.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_trace_is_well_formed_and_deterministic() {
        let build = || {
            let mut recorder = TraceRecorder::new("serve-test");
            recorder.arrival(0, 0, 100);
            recorder.queue_depth(100, 1);
            recorder.arrival(1, 1, 150);
            recorder.queue_depth(150, 2);
            recorder.batch(0, 200, 2, 1_000);
            recorder.request_served(0, 0, 100, 100, 1_000, 0);
            recorder.request_served(1, 1, 150, 50, 1_000, 0);
            recorder.queue_depth(200, 0);
            recorder.breaker_state(1_200, false); // baseline: no event
            recorder.breaker_state(2_400, true); // transition: event
            recorder.breaker_state(3_600, true); // unchanged: no event
            recorder.to_json()
        };
        let json = build();
        tm_obs::json_is_well_formed(&json).expect("trace JSON must parse");
        assert!(json.contains("breaker opens"));
        assert_eq!(json.matches("breaker").count(), 2); // cat + name once
        assert_eq!(json, build(), "virtual-clock traces are deterministic");
    }

    #[test]
    fn initial_open_observation_is_recorded() {
        let mut recorder = TraceRecorder::new("serve-test");
        recorder.breaker_state(10, true);
        assert!(recorder.to_json().contains("breaker opens"));
    }
}
