//! The simulation event queue.
//!
//! Events are ordered by timestamp; ties are broken by insertion order so
//! simulation results are deterministic regardless of hash-map iteration
//! order elsewhere.
//!
//! # Three-tier scheduling
//!
//! A single binary heap pays an `O(log n)` re-sort on every push and pop.
//! Gate-level traffic does not look like random timestamps, though: it is
//! bursts of events at *identical* times — equal-delay parallel paths (a
//! popcount tree's layer, a clause bank fed from one input edge, the
//! fanout cascade of a four-phase handshake transition all share one
//! accumulated delay).  In the registered Tsetlin datapath roughly 70 %
//! of pushes land exactly on the timestamp currently being drained.  The
//! queue therefore keeps events in three tiers:
//!
//! 1. **drain buffer** — a flat FIFO holding *every* event at the
//!    earliest pending timestamp.  Pops and same-timestamp pushes are
//!    `O(1)` array moves; a zero-delay cascade at the current time never
//!    touches a heap.
//! 2. **near-future buckets** — a power-of-two ring of time buckets
//!    covering a short horizon after the drain timestamp, each an
//!    append-only vec: a push is one `O(1)` append.  When the drain
//!    empties and the refill scan reaches a bucket, it sorts the bucket
//!    once by `(time, sequence)` (it *opens* it) and then serves it from
//!    a cursor, one timestamp's batch per refill — a calendar queue
//!    whose buckets are sorted when opened (R. Brown, "Calendar queues",
//!    CACM 1988).  A push can land in the open bucket only when its
//!    delay is shorter than the bucket width (a delay-scaling fault
//!    plan, say); it goes in at its sorted position after the cursor.
//! 3. **far-future overflow** — a binary heap for the rare event beyond
//!    the bucket horizon (events are scheduled at most one cell delay
//!    ahead, so the horizon is sized to cover them all).
//!
//! The pop order — strictly `(time_ps, insertion sequence)` — is
//! identical to the single-heap discipline.  The unit tests below check
//! every pop against a `(time, sequence)` reference at several bucket
//! granularities, and the property test in `tests/property_tests.rs`
//! does so under arbitrary interleaved push/pop sequences.
//!
//! The queue is generic over the payload it schedules ([`SimEvent`]):
//! the scalar engine queues one net change per [`Event`], while the
//! 64-wide bit-sliced engine ([`crate::SlicedSimulator`]) queues plane
//! updates carrying a lane mask.  Both share the exact three-tier
//! discipline, so the sliced engine inherits the tested pop order for
//! free.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use netlist::NetId;

use crate::Logic;

/// A queue payload: anything with a finite scheduling timestamp.
///
/// Implemented by the scalar [`Event`] and by the bit-sliced engine's
/// internal plane event.  The timestamp fully determines queue order
/// (ties break by insertion sequence), so payload contents never affect
/// scheduling.
pub trait SimEvent: Copy {
    /// Simulation time at which this event takes effect, in picoseconds.
    fn time_ps(&self) -> f64;
}

/// A scheduled net-value change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Simulation time at which the change takes effect, in picoseconds.
    pub time_ps: f64,
    /// The net that changes.
    pub net: NetId,
    /// The new value.
    pub value: Logic,
}

impl SimEvent for Event {
    fn time_ps(&self) -> f64 {
        self.time_ps
    }
}

#[derive(Clone, Copy, Debug)]
struct QueuedEvent<E> {
    event: E,
    sequence: u64,
}

impl<E: SimEvent> PartialEq for QueuedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.event.time_ps() == other.event.time_ps() && self.sequence == other.sequence
    }
}
impl<E: SimEvent> Eq for QueuedEvent<E> {}

impl<E: SimEvent> QueuedEvent<E> {
    /// Serve order: earliest time first, then earliest push.
    fn serve_cmp(&self, other: &Self) -> Ordering {
        self.event
            .time_ps()
            .total_cmp(&other.event.time_ps())
            .then_with(|| self.sequence.cmp(&other.sequence))
    }
}

impl<E: SimEvent> Ord for QueuedEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert the serve order so the
        // earliest `(time, sequence)` pops first.
        other.serve_cmp(self)
    }
}

impl<E: SimEvent> PartialOrd for QueuedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue with three-tier scheduling
/// (same-timestamp drain buffer + near-future buckets sorted when the
/// refill scan opens them + far-future overflow heap).
///
/// Events pop strictly in `(time_ps, push order)`: earliest timestamp
/// first, and FIFO among events sharing a timestamp.  The payload type
/// defaults to the scalar [`Event`]; any [`SimEvent`] works.
///
/// # Example
///
/// ```
/// use gatesim::{Event, EventQueue, Logic};
/// use netlist::NetId;
///
/// let mut q = EventQueue::new();
/// q.push(Event { time_ps: 20.0, net: NetId::from_index(0), value: Logic::One });
/// q.push(Event { time_ps: 10.0, net: NetId::from_index(1), value: Logic::Zero });
/// assert_eq!(q.pop().unwrap().time_ps, 10.0);
/// assert_eq!(q.pop().unwrap().time_ps, 20.0);
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E: SimEvent = Event> {
    /// Tier 1: every pending event at the earliest timestamp, FIFO from
    /// `drain_head` (a flat vec beats a ring deque in the hot loop).
    drain: Vec<QueuedEvent<E>>,
    drain_head: usize,
    /// Timestamp shared by all drain events (meaningful when non-empty).
    drain_time: f64,
    /// Tier 2: ring of near-future buckets; absolute bucket id `b` maps
    /// to slot `b & bucket_mask`, and live ids span
    /// `[cur_bucket, cur_bucket + buckets.len())`.  Every bucket but the
    /// open one holds only unserved events, in push order.
    buckets: Vec<Vec<QueuedEvent<E>>>,
    bucket_mask: usize,
    /// Reciprocal of the bucket width (multiplication beats division in
    /// the push path).
    inv_bucket_width: f64,
    /// Absolute bucket id of `drain_time`.
    cur_bucket: i64,
    /// Unserved events across all buckets.
    near_count: usize,
    /// Slot of the open bucket: sorted by `(time, sequence)` from
    /// `open_head` on, with the events before the cursor already served.
    /// It always holds an unserved event — a bucket is closed (cleared)
    /// as soon as its cursor reaches the end — so its slot cannot be
    /// reused by a later bucket id while it is open.  The cursor is 0
    /// while no bucket is open.
    open: Option<usize>,
    open_head: usize,
    /// Tier 3: events beyond the bucket horizon.
    overflow: BinaryHeap<QueuedEvent<E>>,
    /// Reused buffer for the (rare) backward-rebase path, keeping the
    /// kernel allocation-free in steady state.
    demote_scratch: Vec<QueuedEvent<E>>,
    next_sequence: u64,
    len: usize,
    /// Cumulative tier traffic (drain FIFO / bucket ring / overflow
    /// heap filings), reported by [`EventQueue::tier_pushes`].
    drain_pushes: u64,
    bucket_pushes: u64,
    overflow_pushes: u64,
}

impl<E: SimEvent> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Default bucket width: a fraction of a typical gate delay, so parallel
/// paths with equal accumulated delay land in distinct (or shared but
/// shallow) buckets.
const DEFAULT_BUCKET_WIDTH_PS: f64 = 16.0;
/// Default bucket count; horizon = width × count must exceed the largest
/// single-event lookahead (one cell delay) for buckets to absorb
/// everything.
const DEFAULT_BUCKET_COUNT: usize = 128;

impl<E: SimEvent> EventQueue<E> {
    /// Creates an empty queue with the default near-future granularity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_granularity(DEFAULT_BUCKET_WIDTH_PS, DEFAULT_BUCKET_COUNT)
    }

    /// Creates an empty queue whose near-future tier covers
    /// `bucket_width_ps * bucket_count` picoseconds after the current
    /// drain timestamp (`bucket_count` is rounded up to a power of two).
    ///
    /// The granularity only affects performance, never pop order: events
    /// past the horizon spill to the overflow heap, and events sharing a
    /// bucket are still served in exact `(time, sequence)` order.  Size
    /// the horizon to exceed the largest single scheduling lookahead
    /// (for gate simulation, the largest cell delay), and the width to
    /// stay below the smallest: a shorter lookahead can land in the
    /// bucket being served, where it is inserted at its sorted place.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width_ps` is not finite and positive or if
    /// `bucket_count` is zero.
    #[must_use]
    pub fn with_granularity(bucket_width_ps: f64, bucket_count: usize) -> Self {
        assert!(
            bucket_width_ps.is_finite() && bucket_width_ps > 0.0,
            "bucket width must be finite and positive"
        );
        assert!(bucket_count > 0, "bucket count must be positive");
        let bucket_count = bucket_count.next_power_of_two();
        Self {
            drain: Vec::new(),
            drain_head: 0,
            drain_time: 0.0,
            buckets: (0..bucket_count).map(|_| Vec::new()).collect(),
            bucket_mask: bucket_count - 1,
            inv_bucket_width: bucket_width_ps.recip(),
            cur_bucket: 0,
            near_count: 0,
            open: None,
            open_head: 0,
            overflow: BinaryHeap::new(),
            demote_scratch: Vec::new(),
            next_sequence: 0,
            len: 0,
            drain_pushes: 0,
            bucket_pushes: 0,
            overflow_pushes: 0,
        }
    }

    /// Cumulative `(drain, bucket, overflow)` filing counts over the
    /// queue's lifetime: how often an event landed in the
    /// same-timestamp drain FIFO, the near-future bucket ring, or the
    /// far-future overflow heap.  Re-filings (window rebases, drain
    /// refills) count at each tier they touch — the figures measure
    /// tier *traffic*, which is what the bucket-horizon tuning cares
    /// about.
    #[must_use]
    pub fn tier_pushes(&self) -> (u64, u64, u64) {
        (self.drain_pushes, self.bucket_pushes, self.overflow_pushes)
    }

    /// Absolute bucket id of a timestamp.
    #[inline]
    fn bucket_id(&self, time_ps: f64) -> i64 {
        (time_ps * self.inv_bucket_width).floor() as i64
    }

    /// Schedules an event.
    #[inline]
    pub fn push(&mut self, event: E) {
        debug_assert!(!event.time_ps().is_nan(), "event time must not be NaN");
        let queued = QueuedEvent {
            event,
            sequence: self.next_sequence,
        };
        self.next_sequence += 1;
        self.len += 1;

        if event.time_ps() == self.drain_time && self.drain_head < self.drain.len() {
            // Same-timestamp cascade: FIFO append, no heap traffic.
            self.drain_pushes += 1;
            self.drain.push(queued);
        } else if self.drain_head >= self.drain.len() {
            // Whole queue was empty: re-anchor the window on this event.
            debug_assert_eq!(self.len, 1);
            self.drain.clear();
            self.drain_head = 0;
            self.drain_time = event.time_ps();
            self.cur_bucket = self.bucket_id(event.time_ps());
            self.drain_pushes += 1;
            self.drain.push(queued);
        } else if event.time_ps() > self.drain_time {
            self.push_near(queued);
        } else {
            self.demote_drain(queued);
        }
    }

    /// Files a future event (strictly after `drain_time`) into its bucket
    /// or, past the horizon, into the overflow heap.
    #[inline]
    fn push_near(&mut self, queued: QueuedEvent<E>) {
        let id = self.bucket_id(queued.event.time_ps());
        if id - self.cur_bucket >= self.buckets.len() as i64 {
            self.overflow_pushes += 1;
            self.overflow.push(queued);
            return;
        }
        self.bucket_pushes += 1;
        self.near_count += 1;
        let slot = id as usize & self.bucket_mask;
        let bucket = &mut self.buckets[slot];
        if self.open == Some(slot) {
            // A delay shorter than the bucket width: keep the open
            // bucket sorted after its cursor.
            let at = self.open_head
                + bucket[self.open_head..].partition_point(|q| q.serve_cmp(&queued).is_lt());
            bucket.insert(at, queued);
        } else {
            bucket.push(queued);
        }
    }

    /// Handles a push *earlier* than the current drain timestamp (fresh
    /// stimulus between runs): the window is rebased backward and the
    /// displaced drain batch is refiled as near-future events.
    fn demote_drain(&mut self, queued: QueuedEvent<E>) {
        self.rebase_to(self.bucket_id(queued.event.time_ps()));
        let mut displaced = std::mem::take(&mut self.demote_scratch);
        displaced.clear();
        displaced.extend(self.drain.drain(self.drain_head..));
        self.drain.clear();
        self.drain_head = 0;
        self.drain_time = queued.event.time_ps();
        self.drain.push(queued);
        for old in displaced.drain(..) {
            self.push_near(old);
        }
        self.demote_scratch = displaced;
    }

    /// Moves the window start back to `new_cur`, spilling any bucket
    /// whose absolute id would fall outside the new horizon into the
    /// overflow heap.
    fn rebase_to(&mut self, new_cur: i64) {
        let shift = self.cur_bucket - new_cur;
        if shift <= 0 {
            return;
        }
        let n = self.buckets.len() as i64;
        let spill_from = (new_cur + n).max(self.cur_bucket);
        for id in spill_from..self.cur_bucket + n {
            let slot = id as usize & self.bucket_mask;
            // An open bucket spills only its unserved events, and closes.
            let served = if self.open == Some(slot) {
                self.open = None;
                std::mem::take(&mut self.open_head)
            } else {
                0
            };
            let bucket = &mut self.buckets[slot];
            self.near_count -= bucket.len() - served;
            self.overflow.extend(bucket.drain(served..));
            bucket.clear();
        }
        self.cur_bucket = new_cur;
    }

    /// Sorts the bucket in `slot` into serve order and serves it from
    /// its start.  A bucket still open is a later one (an earlier event
    /// came in through the overflow heap or a backward rebase): drop its
    /// served prefix, so it holds only unserved events again and is
    /// re-sorted when the scan reaches it.
    fn open_bucket(&mut self, slot: usize) {
        if let Some(old) = self.open {
            self.buckets[old].drain(..self.open_head);
        }
        self.buckets[slot].sort_unstable_by(QueuedEvent::serve_cmp);
        self.open = Some(slot);
        self.open_head = 0;
    }

    /// Refills the drain buffer with the complete batch of events sharing
    /// the earliest pending timestamp.  Caller guarantees the drain is
    /// empty and at least one event is pending.
    fn refill_drain(&mut self) {
        debug_assert!(self.drain_head >= self.drain.len());
        self.drain.clear();
        self.drain_head = 0;

        // The near-minimum lives at the cursor of the first non-empty
        // bucket once it is open: later buckets hold strictly later
        // times, and an open bucket is sorted from its cursor on.
        let mut near_min = f64::INFINITY;
        if self.near_count > 0 {
            // `near_count > 0` guarantees a non-empty bucket inside the
            // window; bound the scan by the window size anyway so a
            // broken counter surfaces as an empty refill (the caller
            // then reports no pending events) instead of spinning here.
            for _ in 0..self.buckets.len() {
                if !self.buckets[self.cur_bucket as usize & self.bucket_mask].is_empty() {
                    break;
                }
                self.cur_bucket += 1;
            }
            let slot = self.cur_bucket as usize & self.bucket_mask;
            if !self.buckets[slot].is_empty() {
                if self.open != Some(slot) {
                    self.open_bucket(slot);
                }
                near_min = self.buckets[slot][self.open_head].event.time_ps();
            }
        }
        let overflow_min = self
            .overflow
            .peek()
            .map_or(f64::INFINITY, |q| q.event.time_ps());
        let target = near_min.min(overflow_min);
        debug_assert!(target.is_finite(), "refill with no pending events");
        self.drain_time = target;

        // Copy every event at the target time straight into the drain —
        // the open bucket is sorted by `(time, sequence)`, so the batch
        // arrives already FIFO.
        if near_min == target {
            let slot = self.cur_bucket as usize & self.bucket_mask;
            let bucket = &mut self.buckets[slot];
            let start = self.open_head;
            let end = start + bucket[start..].partition_point(|q| q.event.time_ps() == target);
            self.drain.extend_from_slice(&bucket[start..end]);
            self.near_count -= end - start;
            if end == bucket.len() {
                // Close the exhausted bucket at once: left open, its
                // served events would still be there when the window
                // moves on and a later bucket id reuses the slot.
                bucket.clear();
                self.open = None;
                self.open_head = 0;
            } else {
                self.open_head = end;
            }
        }
        if overflow_min == target {
            // An overflow event can share the target timestamp with a
            // bucket batch (it was filed under an older window); restore
            // global sequence order over the combined batch.
            let had_bucket_part = !self.drain.is_empty();
            loop {
                match self.overflow.peek() {
                    Some(q) if q.event.time_ps() == target => {}
                    _ => break,
                }
                if let Some(queued) = self.overflow.pop() {
                    self.drain.push(queued);
                }
            }
            if had_bucket_part {
                self.drain.sort_unstable_by_key(|q| q.sequence);
            }
        }

        // Re-anchor the bucket window on the new drain timestamp.
        let new_cur = self.bucket_id(target);
        if new_cur < self.cur_bucket {
            self.rebase_to(new_cur);
        } else {
            self.cur_bucket = new_cur;
        }
    }

    /// Removes and returns the earliest event (FIFO among events sharing
    /// a timestamp).
    #[inline]
    pub fn pop(&mut self) -> Option<E> {
        if self.drain_head >= self.drain.len() {
            return None;
        }
        let queued = self.drain[self.drain_head];
        self.drain_head += 1;
        self.len -= 1;
        if self.drain_head >= self.drain.len() && self.len > 0 {
            self.refill_drain();
        }
        Some(queued.event)
    }

    /// Returns the earliest pending event without removing it.
    ///
    /// # Example
    ///
    /// ```
    /// use gatesim::{Event, EventQueue, Logic};
    /// use netlist::NetId;
    ///
    /// let mut q = EventQueue::new();
    /// assert!(q.peek().is_none());
    /// q.push(Event { time_ps: 7.5, net: NetId::from_index(3), value: Logic::One });
    /// q.push(Event { time_ps: 2.5, net: NetId::from_index(4), value: Logic::Zero });
    /// let head = q.peek().unwrap();
    /// assert_eq!((head.time_ps, head.net.index()), (2.5, 4));
    /// assert_eq!(q.len(), 2); // peeking does not consume
    /// ```
    #[must_use]
    pub fn peek(&self) -> Option<&E> {
        self.drain.get(self.drain_head).map(|q| &q.event)
    }

    /// Returns the timestamp of the earliest pending event.
    #[must_use]
    pub fn next_time_ps(&self) -> Option<f64> {
        self.peek().map(SimEvent::time_ps)
    }

    /// Number of pending events.
    ///
    /// # Example
    ///
    /// ```
    /// use gatesim::{Event, EventQueue, Logic};
    /// use netlist::NetId;
    ///
    /// let mut q = EventQueue::new();
    /// assert_eq!(q.len(), 0);
    /// for i in 0..3 {
    ///     q.push(Event { time_ps: 5.0, net: NetId::from_index(i), value: Logic::One });
    /// }
    /// assert_eq!(q.len(), 3);
    /// q.pop();
    /// assert_eq!(q.len(), 2);
    /// ```
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.drain.clear();
        self.drain_head = 0;
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.near_count = 0;
        self.open = None;
        self.open_head = 0;
        self.overflow.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, idx: usize) -> Event {
        Event {
            time_ps: t,
            net: NetId::from_index(idx),
            value: Logic::One,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(ev(30.0, 0));
        q.push(ev(10.0, 1));
        q.push(ev(20.0, 2));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time_ps).collect();
        assert_eq!(order, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(ev(5.0, 7));
        q.push(ev(5.0, 8));
        q.push(ev(5.0, 9));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| e.net.index())
            .collect();
        assert_eq!(order, vec![7, 8, 9]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_time_ps(), None);
        assert_eq!(q.peek(), None);
        q.push(ev(42.0, 0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_time_ps(), Some(42.0));
        assert_eq!(q.peek().map(|e| e.net.index()), Some(0));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn push_earlier_than_pending_head_reorders() {
        // Fresh stimulus is scheduled before in-flight propagation: the
        // window must rebase backward without losing order.
        let mut q = EventQueue::new();
        q.push(ev(100.0, 0));
        q.push(ev(100.0, 1));
        q.push(ev(30.0, 2));
        q.push(ev(100.0, 3));
        q.push(ev(30.0, 4));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| e.net.index())
            .collect();
        assert_eq!(order, vec![2, 4, 0, 1, 3]);
    }

    #[test]
    fn clear_closes_an_open_bucket() {
        // 1.0, 2.0 and 3.0 share bucket 0: popping 0.0 and 1.0 leaves it
        // open with its cursor past two served events.
        let mut q = EventQueue::with_granularity(10.0, 4);
        for (i, t) in [0.0, 1.0, 2.0, 3.0].into_iter().enumerate() {
            q.push(ev(t, i));
        }
        assert_eq!(q.pop().map(|e| e.net.index()), Some(0));
        assert_eq!(q.pop().map(|e| e.net.index()), Some(1));
        q.clear();
        assert!(q.pop().is_none());
        q.push(ev(5.0, 4));
        q.push(ev(6.0, 5));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| e.net.index())
            .collect();
        assert_eq!(order, vec![4, 5]);
    }

    #[test]
    fn far_future_events_survive_the_horizon() {
        // Events far beyond the bucket horizon go through the overflow
        // heap and still pop in exact order, including ties with near
        // events at the same timestamp reached later.
        let mut q = EventQueue::with_granularity(1.0, 4);
        q.push(ev(1_000_000.0, 0));
        q.push(ev(0.5, 1));
        q.push(ev(2.5, 2));
        assert_eq!(q.pop().unwrap().net.index(), 1);
        assert_eq!(q.pop().unwrap().net.index(), 2);
        // Queue now holds only the far event; a tie pushed near it must
        // still respect sequence order.
        q.push(ev(1_000_000.0, 3));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| e.net.index())
            .collect();
        assert_eq!(order, vec![0, 3]);
    }

    #[test]
    fn interleaved_pushes_at_drain_time_stay_fifo() {
        let mut q = EventQueue::new();
        q.push(ev(5.0, 0));
        q.push(ev(5.0, 1));
        assert_eq!(q.pop().unwrap().net.index(), 0);
        // Zero-delay cascade: new event at the drain timestamp.
        q.push(ev(5.0, 2));
        assert_eq!(q.pop().unwrap().net.index(), 1);
        assert_eq!(q.pop().unwrap().net.index(), 2);
        assert!(q.pop().is_none());
    }

    /// A minimal non-`Event` payload: the generic queue must serve any
    /// [`SimEvent`] with the same `(time, sequence)` discipline.
    #[test]
    fn generic_payloads_share_the_pop_order() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Tagged {
            t: f64,
            tag: u64,
        }
        impl SimEvent for Tagged {
            fn time_ps(&self) -> f64 {
                self.t
            }
        }
        let mut q: EventQueue<Tagged> = EventQueue::with_granularity(2.0, 4);
        q.push(Tagged { t: 9.0, tag: 0 });
        q.push(Tagged { t: 3.0, tag: 1 });
        q.push(Tagged { t: 9.0, tag: 2 });
        q.push(Tagged { t: 300.0, tag: 3 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.tag).collect();
        assert_eq!(order, vec![1, 0, 2, 3]);
    }

    #[test]
    fn heavy_random_interleaving_matches_reference_order() {
        // Deterministic pseudo-random push/pop storm, checked against a
        // straightforward (time, sequence) selection.
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};

        let mut q = EventQueue::with_granularity(2.0, 8);
        let mut reference: Vec<(f64, usize)> = Vec::new();
        let mut next_id = 0usize;
        let mut rng = StdRng::seed_from_u64(0x2545_F491_4F6C_DD1D);
        fn check_pop(q: &mut EventQueue, reference: &mut Vec<(f64, usize)>) {
            let got = q.pop().expect("reference says non-empty");
            let min = reference
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(i, _)| i)
                .expect("non-empty");
            let expected = reference.remove(min);
            assert_eq!((got.time_ps, got.net.index()), expected);
        }
        for _ in 0..2000 {
            let r = rng.next_u64();
            if r % 3 != 0 || reference.is_empty() {
                // Times collide often (coarse quantisation) to stress ties.
                let t = ((r >> 8) % 97) as f64 * 1.7;
                q.push(ev(t, next_id));
                reference.push((t, next_id));
                next_id += 1;
            } else {
                check_pop(&mut q, &mut reference);
            }
        }
        while !reference.is_empty() {
            check_pop(&mut q, &mut reference);
        }
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    /// The events a queue should still hold, in push order.
    #[derive(Default)]
    struct Reference {
        pending: Vec<(f64, usize)>,
        next_id: usize,
    }

    impl Reference {
        fn push(&mut self, q: &mut EventQueue, t: f64) {
            q.push(ev(t, self.next_id));
            self.pending.push((t, self.next_id));
            self.next_id += 1;
        }

        /// Pops one event, checks it is the reference's earliest
        /// `(time, sequence)`, and returns its time.
        fn pop(&mut self, q: &mut EventQueue) -> f64 {
            let got = q.pop().expect("the reference holds an event");
            let min = self
                .pending
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(i, _)| i)
                .expect("non-empty");
            assert_eq!((got.time_ps, got.net.index()), self.pending.remove(min));
            assert_eq!(q.len(), self.pending.len());
            got.time_ps
        }

        fn drain(&mut self, q: &mut EventQueue) {
            while !self.pending.is_empty() {
                self.pop(q);
            }
            assert!(q.pop().is_none());
        }
    }

    /// Simulation-shaped traffic, checked pop by pop against the
    /// reference at bucket widths from far below to far above the
    /// delays: delays shorter than the width land in the open bucket,
    /// zero delays in the drain, absolute times before the drain time
    /// rebase the window backward, and far-future times go through the
    /// overflow heap.  Every 500 steps the queue drains empty and
    /// restarts at time 0, as `reset_time` does between words.
    #[test]
    fn every_granularity_pops_in_reference_order() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};

        const DELAYS: [f64; 7] = [0.0, 0.1, 0.5, 1.7, 3.4, 6.8, 13.6];
        for (width, count) in [
            (0.25, 4),
            (1.0, 1),
            (2.0, 8),
            (5.0, 16),
            (16.0, 64),
            (100.0, 2),
        ] {
            let mut q = EventQueue::with_granularity(width, count);
            let mut reference = Reference::default();
            let mut rng = StdRng::seed_from_u64(width.to_bits() ^ count as u64);
            let mut now = 0.0;
            for step in 1..=6000 {
                if step % 500 == 0 {
                    reference.drain(&mut q);
                    now = 0.0;
                    continue;
                }
                let r = rng.next_u64();
                let pick = (r >> 8) as usize;
                match r % 8 {
                    0..=3 => reference.push(&mut q, now + DELAYS[pick % DELAYS.len()]),
                    4 => reference.push(&mut q, (pick % 97) as f64 * 1.7),
                    5 => reference.push(&mut q, now + 1000.0 + (pick % 7) as f64),
                    _ if !reference.pending.is_empty() => now = reference.pop(&mut q),
                    _ => {}
                }
            }
            reference.drain(&mut q);
        }
    }
}
