//! The dynamic micro-batcher: a deterministic state machine over the
//! virtual clock.
//!
//! The batcher owns the server's **bounded pending queue** (the
//! admission-control queue) and decides, purely from virtual-clock
//! timestamps, when the next micro-batch leaves it:
//!
//! * **lanes-full flush** — as soon as `fill_threshold()` requests are
//!   pending *and* the server is free, a batch of up to
//!   `max_batch` departs.  The threshold is
//!   `min(max_batch, max(capacity, 1))`: a queue that cannot grow any
//!   further (`capacity < max_batch`) flushes as soon as the server is
//!   idle — waiting longer could never improve amortisation;
//! * **deadline flush** — otherwise the oldest pending request waits at
//!   most `max_wait_ns` past its *arrival* (not its admission: a
//!   request admitted late under the block policy does not get its
//!   deadline extended), after which whatever is pending departs.
//!
//! Both rules yield a single closed form,
//! [`MicroBatcher::next_flush_ns`], which the server's event loop
//! compares against the next arrival (ties flush first — a request
//! arriving at the exact flush instant misses that batch).  Because the
//! flush time is a pure function of the pending timestamps, the server's
//! free time and the configuration, batch composition is a deterministic
//! function of the trace whenever service times are deterministic (see
//! the crate docs for the full determinism contract).
//!
//! Admission ([`MicroBatcher::can_admit`]) is equally mechanical: a
//! request is admitted while the queue has a free slot; a zero-capacity
//! queue admits only the degenerate "server idle, queue empty" case,
//! where the request departs immediately as a singleton batch.  What
//! happens to a rejected request — count-and-drop or wait for space — is
//! the [`AdmissionPolicy`], applied by the server loop.

use std::collections::VecDeque;

use crate::trace::VirtualNs;

/// What the server does with a request that finds the pending queue
/// full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Drop the request and count it in telemetry (load shedding): the
    /// client gets an immediate rejection instead of unbounded queueing
    /// delay.
    Shed,
    /// Make the client wait: the request is admitted at the earliest
    /// virtual time a slot frees, and its queueing delay keeps accruing
    /// from its original arrival (closed-loop push-back).
    Block,
}

/// One admitted request waiting in (or departing from) the pending
/// queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingRequest {
    /// Serial request id (issue order across the whole session).
    pub id: usize,
    /// Workload sample this request replays.
    pub sample: usize,
    /// Closed-loop client that issued the request (0 for open loop).
    pub client: u32,
    /// When the request arrived (virtual ns) — queueing delay and the
    /// flush deadline are measured from here.
    pub arrival_ns: VirtualNs,
    /// When the request entered the pending queue (equals `arrival_ns`
    /// except for requests that waited under [`AdmissionPolicy::Block`]).
    pub admit_ns: VirtualNs,
}

/// The bounded pending queue plus the flush rule.  See the [module
/// documentation](self) for the state machine.
#[derive(Clone, Debug)]
pub struct MicroBatcher {
    capacity: usize,
    max_batch: usize,
    max_wait_ns: u64,
    pending: VecDeque<PendingRequest>,
}

impl MicroBatcher {
    /// Creates an empty batcher.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero (the server validates this before
    /// construction).
    #[must_use]
    pub fn new(capacity: usize, max_batch: usize, max_wait_ns: u64) -> Self {
        assert!(max_batch > 0, "max_batch must be at least 1");
        Self {
            capacity,
            max_batch,
            max_wait_ns,
            pending: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    /// Number of requests currently pending.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no requests are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The pending count at which a flush stops waiting for more
    /// requests: `min(max_batch, max(capacity, 1))`.
    #[must_use]
    pub fn fill_threshold(&self) -> usize {
        self.max_batch.min(self.capacity.max(1))
    }

    /// Whether a request arriving at `now_ns` may enter the queue while
    /// the server frees at `server_free_ns`.
    ///
    /// A free slot always admits.  A zero-capacity queue additionally
    /// admits the "queue empty and server idle" case: the request never
    /// waits — it departs at once as a singleton batch.
    #[must_use]
    pub fn can_admit(&self, now_ns: VirtualNs, server_free_ns: VirtualNs) -> bool {
        self.pending.len() < self.capacity || (self.pending.is_empty() && server_free_ns <= now_ns)
    }

    /// Admits a request (the caller has checked [`MicroBatcher::can_admit`]
    /// or is admitting a blocked request at a freed slot).
    ///
    /// # Panics
    ///
    /// Panics if admissions go out of virtual-clock order (a server-loop
    /// bug).
    pub fn admit(&mut self, request: PendingRequest) {
        if let Some(last) = self.pending.back() {
            assert!(
                last.admit_ns <= request.admit_ns,
                "admissions must be chronological"
            );
        }
        self.pending.push_back(request);
    }

    /// The virtual time of the next flush given the server frees at
    /// `server_free_ns`, or `None` while nothing is pending.
    ///
    /// With at least [`MicroBatcher::fill_threshold`] requests pending
    /// the flush happens the moment both the threshold-filling request
    /// had been admitted and the server is free; otherwise it happens at
    /// the oldest request's deadline (`arrival + max_wait`), again no
    /// earlier than the server being free.
    #[must_use]
    pub fn next_flush_ns(&self, server_free_ns: VirtualNs) -> Option<VirtualNs> {
        let oldest = self.pending.front()?;
        let fill = self.fill_threshold();
        Some(if self.pending.len() >= fill {
            server_free_ns.max(self.pending[fill - 1].admit_ns)
        } else {
            server_free_ns.max(oldest.arrival_ns.saturating_add(self.max_wait_ns))
        })
    }

    /// Removes and returns the next micro-batch: the oldest
    /// `min(pending, max_batch)` requests, in admission order.
    ///
    /// # Panics
    ///
    /// Panics if nothing is pending.
    pub fn take_batch(&mut self) -> Vec<PendingRequest> {
        assert!(!self.pending.is_empty(), "no pending requests to flush");
        let size = self.pending.len().min(self.max_batch);
        self.pending.drain(..size).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: usize, arrival_ns: u64) -> PendingRequest {
        PendingRequest {
            id,
            sample: id,
            client: 0,
            arrival_ns,
            admit_ns: arrival_ns,
        }
    }

    #[test]
    fn lanes_full_flush_fires_when_threshold_fills_and_server_is_free() {
        let mut batcher = MicroBatcher::new(128, 4, 1_000);
        assert_eq!(batcher.fill_threshold(), 4);
        assert!(batcher.next_flush_ns(0).is_none());
        for id in 0..3 {
            batcher.admit(request(id, 10 + id as u64));
        }
        // Below the threshold: deadline flush anchored on the oldest arrival.
        assert_eq!(batcher.next_flush_ns(0), Some(10 + 1_000));
        batcher.admit(request(3, 40));
        // Threshold filled at t=40; flush there if the server is free...
        assert_eq!(batcher.next_flush_ns(0), Some(40));
        // ...or as soon as it frees.
        assert_eq!(batcher.next_flush_ns(500), Some(500));
        let batch = batcher.take_batch();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].id, 0);
        assert!(batcher.is_empty());
    }

    #[test]
    fn capacity_below_max_batch_flushes_a_full_queue_without_waiting() {
        // capacity 2 < max_batch 64: the queue can never fill 64 lanes,
        // so a full queue flushes as soon as the server is free instead
        // of waiting out the deadline.
        let mut batcher = MicroBatcher::new(2, 64, 1_000_000);
        assert_eq!(batcher.fill_threshold(), 2);
        batcher.admit(request(0, 5));
        batcher.admit(request(1, 6));
        assert_eq!(batcher.next_flush_ns(0), Some(6));
        assert_eq!(batcher.take_batch().len(), 2);
    }

    #[test]
    fn zero_capacity_admits_only_the_idle_singleton_case() {
        let batcher = MicroBatcher::new(0, 64, 1_000);
        assert_eq!(batcher.fill_threshold(), 1);
        // Server idle, queue empty: direct dispatch allowed.
        assert!(batcher.can_admit(10, 5));
        // Server busy: nothing may wait in a zero-capacity queue.
        assert!(!batcher.can_admit(10, 11));
        let mut batcher = batcher;
        batcher.admit(request(0, 10));
        // The admitted request departs immediately as a singleton.
        assert_eq!(batcher.next_flush_ns(5), Some(10));
        assert_eq!(batcher.take_batch().len(), 1);
    }

    #[test]
    fn deadline_is_anchored_on_arrival_not_admission() {
        let mut batcher = MicroBatcher::new(8, 64, 1_000);
        // A blocked request admitted 700 ns after it arrived...
        batcher.admit(PendingRequest {
            id: 0,
            sample: 0,
            client: 0,
            arrival_ns: 100,
            admit_ns: 800,
        });
        // ...still flushes at arrival + max_wait, not admit + max_wait.
        assert_eq!(batcher.next_flush_ns(0), Some(1_100));
        // A deadline already past flushes the moment the server frees.
        assert_eq!(batcher.next_flush_ns(2_000), Some(2_000));
    }

    #[test]
    fn oversize_pending_drains_in_max_batch_chunks() {
        let mut batcher = MicroBatcher::new(100, 4, 10);
        for id in 0..10 {
            batcher.admit(request(id, id as u64));
        }
        assert_eq!(batcher.take_batch().len(), 4);
        assert_eq!(batcher.take_batch().len(), 4);
        let tail = batcher.take_batch();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].id, 9);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn out_of_order_admissions_panic() {
        let mut batcher = MicroBatcher::new(8, 4, 10);
        batcher.admit(request(0, 50));
        batcher.admit(request(1, 40));
    }
}
