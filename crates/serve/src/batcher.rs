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
//! * **sparse flush** — below the threshold, when the session's recent
//!   arrivals are on average more than `max_wait_ns` apart, fewer than
//!   one companion is expected within the wait, so waiting would
//!   amortise nothing: whatever is pending departs as soon as the
//!   server is free, but no earlier than the newest pending request's
//!   admission.  The window is the arrival times of the last
//!   `fill_threshold()` admitted requests, and the test is the integer
//!   form `newest − oldest > (n − 1) × max_wait_ns` over its `n ≥ 2`
//!   entries.  One admission can tip the window to sparse after the
//!   oldest pending request was admitted; dating that flush at the
//!   oldest request would put it before the newest one entered the
//!   queue, so the floor is the newest admission;
//! * **deadline flush** — otherwise (the session's first request, or a
//!   window dense enough that a companion is expected) the oldest
//!   pending request waits at most `max_wait_ns` past its *arrival*
//!   (not its admission: a request admitted late under the block policy
//!   does not get its deadline extended), after which whatever is
//!   pending departs.  So `max_wait_ns` stays the cap on how long a
//!   request waits for companions.
//!
//! The three rules yield a single closed form,
//! [`MicroBatcher::next_flush_ns`], which the server's event loop
//! compares against the next arrival (ties flush first — a request
//! arriving at the exact flush instant misses that batch).  Because the
//! flush time is a pure integer function of the pending and recent
//! timestamps, the server's free time and the configuration, batch
//! composition is a deterministic function of the trace whenever
//! service times are deterministic (see the crate docs for the full
//! determinism contract).
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
    /// Arrival times of the last `fill_threshold()` admitted requests,
    /// oldest first: the window the sparse flush reads the arrival rate
    /// from.
    recent: VecDeque<VirtualNs>,
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
            recent: VecDeque::new(),
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
        if self.recent.len() == self.fill_threshold() {
            self.recent.pop_front();
        }
        self.recent.push_back(request.arrival_ns);
        self.pending.push_back(request);
    }

    /// Whether the recent arrivals are on average more than
    /// `max_wait_ns` apart (`newest − oldest > (n − 1) × max_wait_ns`),
    /// so fewer than one companion is expected within the wait.  A
    /// single arrival spans nothing, so this needs at least two.
    fn sparse(&self) -> bool {
        let (Some(&oldest), Some(&newest)) = (self.recent.front(), self.recent.back()) else {
            return false;
        };
        let gaps = self.recent.len() as u64 - 1;
        newest.saturating_sub(oldest) > gaps.saturating_mul(self.max_wait_ns)
    }

    /// The virtual time of the next flush given the server frees at
    /// `server_free_ns`, or `None` while nothing is pending.
    ///
    /// With at least [`MicroBatcher::fill_threshold`] requests pending
    /// the flush happens the moment both the threshold-filling request
    /// had been admitted and the server is free.  Below the threshold,
    /// when the last `fill_threshold()` admitted requests (at least two)
    /// arrived on average more than `max_wait_ns` apart, it happens the
    /// moment both the newest pending request had been admitted and the
    /// server is free; otherwise it happens at the oldest request's
    /// deadline (`arrival + max_wait`), again no earlier than the server
    /// being free.
    #[must_use]
    pub fn next_flush_ns(&self, server_free_ns: VirtualNs) -> Option<VirtualNs> {
        let oldest = self.pending.front()?;
        let fill = self.fill_threshold();
        Some(if self.pending.len() >= fill {
            server_free_ns.max(self.pending[fill - 1].admit_ns)
        } else if self.sparse() {
            server_free_ns.max(self.pending.back()?.admit_ns)
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
    fn the_sessions_first_request_keeps_the_deadline() {
        // One arrival says nothing about the rate: even an idle server
        // waits out the deadline for the session's first request.
        let mut batcher = MicroBatcher::new(256, 64, 1_000);
        batcher.admit(request(0, 7_000));
        assert_eq!(batcher.next_flush_ns(0), Some(8_000));
    }

    #[test]
    fn a_sparse_stream_flushes_at_the_newest_admission_or_when_the_server_frees() {
        let mut batcher = MicroBatcher::new(256, 64, 1_000);
        batcher.admit(request(0, 0));
        assert_eq!(batcher.next_flush_ns(0), Some(1_000));
        assert_eq!(batcher.take_batch().len(), 1);
        // Two arrivals 5 µs apart against a 1 µs wait: no companion is
        // expected, so an idle server flushes at the admission...
        batcher.admit(request(1, 5_000));
        assert_eq!(batcher.next_flush_ns(0), Some(5_000));
        // ...and a busy one the moment it frees.
        assert_eq!(batcher.next_flush_ns(5_400), Some(5_400));
        // A request that waited under the block policy departs no
        // earlier than its admission.
        batcher.take_batch();
        batcher.admit(PendingRequest {
            admit_ns: 10_300,
            ..request(2, 10_000)
        });
        assert_eq!(batcher.next_flush_ns(0), Some(10_300));
    }

    #[test]
    fn a_dense_stream_keeps_the_deadline() {
        let mut batcher = MicroBatcher::new(256, 64, 1_000);
        batcher.admit(request(0, 0));
        assert_eq!(batcher.next_flush_ns(0), Some(1_000));
        batcher.take_batch();
        // A mean gap of exactly `max_wait_ns` is not sparse: the rule
        // needs it to exceed the wait.
        batcher.admit(request(1, 1_000));
        assert_eq!(batcher.next_flush_ns(0), Some(2_000));
        // Nor is a window of arrivals 100 ns apart.
        batcher.admit(request(2, 1_100));
        batcher.admit(request(3, 1_200));
        assert_eq!(batcher.next_flush_ns(0), Some(2_000));
        assert_eq!(batcher.next_flush_ns(2_500), Some(2_500));
    }

    #[test]
    fn the_window_forgets_a_quiet_spell_once_a_burst_fills_it() {
        // Window of four (the fill threshold); arrivals 10 µs apart,
        // then a burst 100 ns apart.  Each flush is taken when due, as
        // the server loop would.
        let mut batcher = MicroBatcher::new(128, 4, 1_000);
        let mut flushes = Vec::new();
        for (id, t) in [0, 10_000, 20_000, 30_000, 30_100, 30_200, 30_300]
            .into_iter()
            .enumerate()
        {
            batcher.admit(request(id, t));
            flushes.push(batcher.next_flush_ns(0).unwrap());
            batcher.take_batch();
        }
        // The first request waits its deadline; the window still spans
        // the quiet spell for two burst arrivals, which leave at once;
        // the third fills the window with the burst and waits again.
        assert_eq!(
            flushes,
            vec![1_000, 10_000, 20_000, 30_000, 30_100, 30_200, 31_300]
        );
    }

    #[test]
    fn tipping_the_window_to_sparse_never_dates_a_flush_before_the_newest_admission() {
        let mut batcher = MicroBatcher::new(128, 3, 1_000);
        batcher.admit(request(0, 0));
        batcher.admit(request(1, 100));
        assert_eq!(batcher.next_flush_ns(0), Some(1_000));
        batcher.take_batch();
        // Window [0, 100, 1_900]: 1_900 <= 2 x 1_000, dense, so request 2
        // waits for its deadline at 2_900.
        batcher.admit(request(2, 1_900));
        assert_eq!(batcher.next_flush_ns(0), Some(2_900));
        // Request 3 arrives before that deadline and tips the window
        // [100, 1_900, 2_500] to sparse.  The flush leaves at request 3's
        // admission, not at request 2's: that would date it before
        // request 3 entered the queue.
        batcher.admit(request(3, 2_500));
        for server_free_ns in [0, 2_499, 2_500, 2_700] {
            let flush = batcher.next_flush_ns(server_free_ns).unwrap();
            assert_eq!(flush, server_free_ns.max(2_500));
        }
        let batch = batcher.take_batch();
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|p| p.admit_ns <= 2_500));
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
