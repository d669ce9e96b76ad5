//! Std-only data-parallel runtime for the inference engines.
//!
//! The container this workspace builds in has no network access, so the
//! usual suspects (`rayon`, `crossbeam`) are off the table.  This crate
//! provides the small slice of them the workspace needs, built purely on
//! `std::thread::scope`, [`std::thread::available_parallelism`] and a
//! chunked work queue over a single [`AtomicUsize`]:
//!
//! * [`Executor::map_chunks_with`] — the one sharding primitive: workers
//!   claim fixed-size chunks of a shared slice with `fetch_add`, each
//!   worker owns private scratch state built once by `init` (the
//!   replicate-and-shard partitioning of Hadidi et al.,
//!   arXiv:2003.06464: no state is shared mid-pass), and results are
//!   merged back **in input order**, so output is deterministic and
//!   identical to a sequential run;
//! * [`with_service`] — a **long-lived service worker** over
//!   [`std::sync::mpsc`] channels for open-ended job streams: one scoped
//!   thread owns mutable (possibly borrowing) worker state for a whole
//!   session and answers jobs in FIFO order — the primitive behind the
//!   `tm-serve` micro-batching runtime's backend thread.
//!
//! A one-thread executor runs entirely inline (no threads spawned), which
//! keeps `threads = 1` bit-identical *and* allocation-comparable to a
//! hand-written sequential loop.
//!
//! # Example
//!
//! ```
//! use exec::Executor;
//!
//! let exec = Executor::new(4);
//! let items: Vec<u64> = (0..1000).collect();
//! let sums = exec.map_chunks_with(&items, 64, || (), |(), _chunk_index, chunk| {
//!     chunk.iter().sum::<u64>()
//! });
//! assert_eq!(sums.iter().sum::<u64>(), 1000 * 999 / 2);
//! // Chunk results come back in input order regardless of thread count.
//! assert_eq!(sums[0], (0..64).sum::<u64>());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod service;

pub use service::{with_service, ServiceClient};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-width pool of scoped worker threads.
///
/// The executor is cheap to construct (it holds only the thread count;
/// workers are scoped to each call), `Send + Sync`, and deterministic:
/// every call returns results in input order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Creates an executor with exactly `threads` workers (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Number of worker threads this executor uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in chunks of `chunk_size`, in parallel, and
    /// returns one result per chunk **in chunk order**.
    ///
    /// `init` runs once per worker to build its private scratch value,
    /// which is then passed mutably to every chunk that worker claims —
    /// the pattern for reusing a simulator instance, evaluator state or
    /// buffers across chunks without sharing them between threads (pass
    /// `|| ()` when there is none).  Chunks are claimed dynamically from
    /// an atomic counter, so uneven per-chunk cost still load-balances.
    /// `f` receives the scratch, the chunk index and the chunk slice;
    /// the last chunk may be shorter.  Empty input yields an empty
    /// result, and a `chunk_size` larger than the input produces a
    /// single chunk that runs inline on the calling thread (no workers
    /// are spawned when there is at most one chunk).
    ///
    /// # Example
    ///
    /// ```
    /// use exec::Executor;
    ///
    /// let exec = Executor::new(3);
    /// let items: Vec<u32> = (0..10).collect();
    /// // Ragged tail: chunks are [0..4], [4..8], [8..10].
    /// let sums = exec.map_chunks_with(&items, 4, || (), |(), index, chunk| {
    ///     (index, chunk.iter().sum::<u32>())
    /// });
    /// assert_eq!(sums, vec![(0, 6), (1, 22), (2, 17)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero, or if `init` or `f` panics.  A
    /// worker panic aborts the whole call: with one worker (or one
    /// chunk) the original panic propagates unchanged; with several
    /// workers it resurfaces as a `"worker thread panicked"` panic when
    /// the scope joins.  Either way the call never returns partial
    /// results — this propagation contract is pinned by tests.
    pub fn map_chunks_with<T, S, R, I, F>(
        &self,
        items: &[T],
        chunk_size: usize,
        init: I,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &[T]) -> R + Sync,
    {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let chunk_count = items.len().div_ceil(chunk_size);
        if self.threads == 1 || chunk_count <= 1 {
            let mut scratch = init();
            return items
                .chunks(chunk_size)
                .enumerate()
                .map(|(index, chunk)| f(&mut scratch, index, chunk))
                .collect();
        }

        let next = AtomicUsize::new(0);
        let workers = self.threads.min(chunk_count);
        let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = init();
                        let mut produced = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= chunk_count {
                                break;
                            }
                            let start = index * chunk_size;
                            let end = (start + chunk_size).min(items.len());
                            produced.push((index, f(&mut scratch, index, &items[start..end])));
                        }
                        produced
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });

        // Deterministic in-order merge: place each chunk result by index.
        let mut slots: Vec<Option<R>> = (0..chunk_count).map(|_| None).collect();
        for (index, result) in per_worker.iter_mut().flat_map(std::mem::take) {
            debug_assert!(slots[index].is_none(), "chunk {index} produced twice");
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every chunk claimed exactly once"))
            .collect()
    }
}

/// [`std::thread::available_parallelism`] collapsed to a plain `usize`
/// (1 when the parallelism cannot be determined).
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `map_chunks_with` without scratch state.
    fn map_without_scratch<T: Sync, R: Send>(
        exec: Executor,
        items: &[T],
        chunk_size: usize,
        f: impl Fn(usize, &[T]) -> R + Sync,
    ) -> Vec<R> {
        exec.map_chunks_with(items, chunk_size, || (), |(), index, chunk| f(index, chunk))
    }

    #[test]
    fn thread_count_is_clamped_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::new(3).threads(), 3);
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn map_chunks_is_deterministic_across_thread_counts() {
        let items: Vec<u32> = (0..1003).collect();
        let expected: Vec<u64> = items
            .chunks(17)
            .enumerate()
            .map(|(i, c)| i as u64 + c.iter().map(|&x| u64::from(x)).sum::<u64>())
            .collect();
        for threads in [1, 2, 7, 16] {
            let got = map_without_scratch(Executor::new(threads), &items, 17, |i, c| {
                i as u64 + c.iter().map(|&x| u64::from(x)).sum::<u64>()
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_with_reuses_worker_scratch() {
        let items: Vec<u32> = (0..256).collect();
        // Scratch accumulates across the chunks a worker claims; the per-chunk
        // results must still be in chunk order.
        let results = Executor::new(4).map_chunks_with(
            &items,
            16,
            Vec::<u32>::new,
            |scratch, index, chunk| {
                scratch.extend_from_slice(chunk);
                (index, chunk[0])
            },
        );
        for (i, (index, first)) in results.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*first, (i * 16) as u32);
        }
    }

    #[test]
    fn map_chunks_handles_empty_and_ragged_input() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_without_scratch(Executor::new(4), &empty, 8, |_, c| c.len()).is_empty());
        let ragged: Vec<u8> = vec![0; 21];
        let sizes = map_without_scratch(Executor::new(4), &ragged, 8, |_, c| c.len());
        assert_eq!(sizes, vec![8, 8, 5]);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = map_without_scratch(Executor::new(2), &[1, 2, 3], 0, |_, c: &[i32]| c.len());
    }

    #[test]
    fn chunk_size_larger_than_input_runs_inline_as_one_chunk() {
        // A single chunk must not spawn workers: the closure observes the
        // calling thread's id, pinning the inline fast path.
        let items: Vec<u16> = (0..5).collect();
        let caller = std::thread::current().id();
        let results = map_without_scratch(Executor::new(8), &items, 1000, |index, chunk| {
            (index, chunk.len(), std::thread::current().id())
        });
        assert_eq!(results.len(), 1);
        let (index, len, thread) = results[0];
        assert_eq!((index, len), (0, 5));
        assert_eq!(thread, caller, "single chunk must run on the caller");
    }

    #[test]
    fn empty_input_yields_empty_results_everywhere() {
        let empty: Vec<u8> = Vec::new();
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            assert!(map_without_scratch(exec, &empty, 8, |_, c| c.len()).is_empty());
            assert!(exec
                .map_chunks_with(&empty, 8, || 0u32, |_, _, c| c.len())
                .is_empty());
        }
    }

    /// The panic-propagation contract of the docs: a panicking closure
    /// aborts the call with no partial results.  Inline execution (one
    /// worker) surfaces the original message; scoped workers resurface
    /// it as "worker thread panicked" when the scope joins.
    #[test]
    fn worker_panics_propagate() {
        let boom = |i: usize| -> usize {
            assert!(i != 2, "boom");
            i
        };
        // Multi-threaded: the panic crosses the scope join.
        let result = std::panic::catch_unwind(|| {
            map_without_scratch(Executor::new(2), &[1u8, 2, 3, 4], 1, |i, _| boom(i))
        });
        let message = *result
            .expect_err("worker panic must propagate")
            .downcast::<String>()
            .expect("join panics with a formatted message");
        assert!(message.contains("worker thread panicked"), "got {message}");

        // Inline (threads = 1): the original panic message survives.
        let result = std::panic::catch_unwind(|| {
            map_without_scratch(Executor::new(1), &[1u8, 2, 3, 4], 1, |i, _| boom(i))
        });
        let message = *result
            .expect_err("inline panic must propagate")
            .downcast::<&str>()
            .expect("assert! with a literal message panics with &str");
        assert_eq!(message, "boom");
    }
}
