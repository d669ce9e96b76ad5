//! Long-lived service workers over std mpsc channels.
//!
//! [`Executor::map_chunks_with`](crate::Executor::map_chunks_with) fans a
//! *known* slice of work across short-lived scoped workers.  A serving runtime
//! has the opposite shape: an **open-ended stream** of jobs produced one
//! at a time (micro-batches flushed by a batcher), each of which must be
//! handed to a single long-lived worker that owns mutable state (an
//! inference backend) for the whole session.
//!
//! [`with_service`] provides exactly that: it spawns one scoped worker
//! thread that loops over a [`std::sync::mpsc`] job channel, applies the
//! (possibly `FnMut`, possibly borrowing) work function, and sends each
//! result back over a response channel.  The caller talks to the worker
//! through a [`ServiceClient`] — synchronous round-trips with
//! [`ServiceClient::call`], or pipelined [`ServiceClient::submit`] /
//! [`ServiceClient::recv`] pairs.  Responses always come back in job
//! order (one worker, FIFO channels).  When the body returns, the client
//! is dropped, the job channel closes, the worker drains and exits, and
//! the scope joins it — no detached threads survive the call.
//!
//! # Example
//!
//! ```
//! let mut served = 0u32;
//! let total = exec::with_service(
//!     |job: u32| {
//!         served += 1; // the worker may borrow mutable state
//!         job * 2
//!     },
//!     |client| (0..5).map(|j| client.call(j)).sum::<u32>(),
//! );
//! assert_eq!(total, 20);
//! assert_eq!(served, 5);
//! ```

use std::sync::mpsc::{channel, Receiver, Sender};

/// Handle to a live service worker inside [`with_service`].
///
/// Jobs are processed strictly in submission order by a single worker,
/// so [`ServiceClient::recv`] always returns the response to the oldest
/// outstanding job.
#[derive(Debug)]
pub struct ServiceClient<J, O> {
    job_tx: Sender<J>,
    out_rx: Receiver<O>,
    in_flight: usize,
}

impl<J, O> ServiceClient<J, O> {
    /// Sends `job` to the worker without waiting for its response.
    ///
    /// # Panics
    ///
    /// Panics if the worker exited early (it panicked).
    pub fn submit(&mut self, job: J) {
        self.job_tx
            .send(job)
            .expect("service worker exited before the session ended");
        self.in_flight += 1;
    }

    /// Receives the response to the oldest outstanding job, blocking
    /// until the worker produces it.
    ///
    /// # Panics
    ///
    /// Panics if no job is outstanding, or if the worker panicked.
    pub fn recv(&mut self) -> O {
        assert!(self.in_flight > 0, "no job outstanding");
        let out = self.out_rx.recv().expect("service worker panicked mid-job");
        self.in_flight -= 1;
        out
    }

    /// Synchronous round-trip: submits `job` and blocks for its
    /// response.  Requires no jobs to be outstanding (the response
    /// would otherwise belong to an earlier job).
    ///
    /// # Panics
    ///
    /// Panics if pipelined jobs are outstanding or the worker panicked.
    pub fn call(&mut self, job: J) -> O {
        assert!(
            self.in_flight == 0,
            "call() with {} pipelined job(s) outstanding; drain with recv() first",
            self.in_flight
        );
        self.submit(job);
        self.recv()
    }

    /// Number of submitted jobs whose responses have not been received.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

/// Runs `body` with a [`ServiceClient`] connected to one long-lived
/// worker thread executing `work` for every submitted job.
///
/// The worker is spawned inside [`std::thread::scope`], so `work` may
/// mutably borrow state from the caller's stack frame (e.g. an inference
/// backend holding netlist borrows) for the whole session.  The worker
/// lives until `body` returns — every job of the session reuses the same
/// warm worker state — and is always joined before `with_service`
/// returns.
///
/// # Panics
///
/// A panic in `work` tears the session down: the next client operation
/// panics (`"service worker exited"` / `"service worker panicked"`), and
/// the scope join resurfaces the worker's panic once `body` unwinds.
///
/// # Example
///
/// ```
/// // Pipelined use: submit a burst, then drain in order.
/// let squares = exec::with_service(
///     |j: u64| j * j,
///     |client| {
///         for j in 0..4 {
///             client.submit(j);
///         }
///         assert_eq!(client.in_flight(), 4);
///         (0..4).map(|_| client.recv()).collect::<Vec<_>>()
///     },
/// );
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
pub fn with_service<J, O, W, B, R>(mut work: W, body: B) -> R
where
    J: Send,
    O: Send,
    W: FnMut(J) -> O + Send,
    B: FnOnce(&mut ServiceClient<J, O>) -> R,
{
    std::thread::scope(|scope| {
        let (job_tx, job_rx) = channel::<J>();
        let (out_tx, out_rx) = channel::<O>();
        scope.spawn(move || {
            for job in job_rx {
                if out_tx.send(work(job)).is_err() {
                    break;
                }
            }
        });
        let mut client = ServiceClient {
            job_tx,
            out_rx,
            in_flight: 0,
        };
        body(&mut client)
        // `client` drops here: the job channel closes, the worker's
        // `for` loop ends, and the scope joins the thread.
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_round_trips_in_order() {
        let results = with_service(
            |j: u32| j + 100,
            |client| (0..10).map(|j| client.call(j)).collect::<Vec<_>>(),
        );
        assert_eq!(results, (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn worker_state_persists_across_jobs() {
        // The worker is long-lived: mutable state accumulates across the
        // whole session instead of resetting per job.
        let mut log = Vec::new();
        with_service(
            |j: u8| log.push(j),
            |client| {
                for j in [3, 1, 2] {
                    client.call(j);
                }
            },
        );
        assert_eq!(log, vec![3, 1, 2]);
    }

    #[test]
    fn submit_recv_pipelines_fifo() {
        let outs = with_service(
            |j: usize| j * 3,
            |client| {
                client.submit(1);
                client.submit(2);
                assert_eq!(client.in_flight(), 2);
                let a = client.recv();
                client.submit(3);
                let b = client.recv();
                let c = client.recv();
                assert_eq!(client.in_flight(), 0);
                vec![a, b, c]
            },
        );
        assert_eq!(outs, vec![3, 6, 9]);
    }

    #[test]
    fn worker_may_borrow_caller_state() {
        let backend = vec![10u64, 20, 30];
        let slice = backend.as_slice(); // non-'static borrow crosses into the worker
        let sum = with_service(
            |i: usize| slice[i],
            |client| client.call(0) + client.call(2),
        );
        assert_eq!(sum, 40);
    }

    #[test]
    #[should_panic(expected = "no job outstanding")]
    fn recv_without_submit_panics() {
        with_service(|j: u8| j, |client| client.recv());
    }

    #[test]
    #[should_panic(expected = "pipelined job(s) outstanding")]
    fn call_with_outstanding_jobs_panics() {
        with_service(
            |j: u8| j,
            |client| {
                client.submit(1);
                client.call(2)
            },
        );
    }

    #[test]
    fn worker_panic_tears_the_session_down() {
        let result = std::panic::catch_unwind(|| {
            with_service(
                |j: u8| {
                    assert!(j != 2, "backend exploded");
                    j
                },
                |client| {
                    client.call(1);
                    client.call(2)
                },
            )
        });
        assert!(result.is_err(), "worker panic must propagate to the caller");
    }
}
