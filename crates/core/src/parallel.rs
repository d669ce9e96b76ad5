//! The sharded four-phase protocol driver: dual-rail operand streams
//! replayed on replicated word and train drivers across worker threads.
//!
//! The paper's headline numbers (Table I) are *dual-rail* figures —
//! average and maximum spacer→valid latency over a workload — and every
//! operand costs two full settles of the event-driven simulator plus
//! protocol checking.  Operands are independent, though, because the
//! four-phase protocol itself restores history independence: every
//! cycle ends in the all-spacer quiescent state, where each C-element
//! (input latches and the completion tree alike) has seen all-zero
//! inputs and reset.  That is the **reset-phase sharding contract**, and
//! [`ParallelProtocolDriver`] both relies on it and verifies it on every
//! cycle against one canonical quiescent snapshot.
//!
//! Mechanically this is the replicate-and-shard pattern of every engine
//! here: the engine compilation is built once and shared
//! (`Arc<EngineProgram>`), each worker owns a private driver instance,
//! and work units are claimed by [`exec::Executor::map_chunks_with`] and
//! merged in operand order.  The driver has two sharding units:
//!
//! * the 64-lane **word**
//!   ([`ParallelProtocolDriver::run_workload_sliced`], one
//!   [`SlicedProtocolDriver`] per worker), whose per-lane results are
//!   bit-identical to a streamed phase-rebased contract-mode
//!   [`ProtocolDriver`] ([`crate::rebased_reference_driver`]);
//! * the position-based **train**
//!   ([`ParallelProtocolDriver::run_workload_pipelined`], one
//!   [`PipelinedProtocolDriver`] per worker), which at
//!   [`crate::Occupancy::One`] is bit-identical to a streamed
//!   contract-mode [`ProtocolDriver`].
//!
//! Both are property-tested against those streamed references at
//! threads {1, 2, 7} in `tests/property_tests.rs`.
//!
//! # Example
//!
//! ```
//! use dualrail::{DualRailNetlist, ParallelProtocolDriver, ReducedCompletion};
//! use celllib::Library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dr = DualRailNetlist::new("and_gate");
//! let a = dr.add_dual_input("a");
//! let b = dr.add_dual_input("b");
//! let y = dr.and2("y", a, b)?;
//! dr.add_dual_output("y", y);
//! ReducedCompletion::insert(&mut dr)?;
//!
//! let lib = Library::umc_ll();
//! let driver = ParallelProtocolDriver::new(&dr, &lib, 2)?;
//! let workload = vec![vec![true, true], vec![true, false]];
//! let run = driver.run_workload_sliced(&workload)?;
//! assert_eq!(run.results[0].outputs, vec![true]);
//! assert_eq!(run.results[1].outputs, vec![false]);
//! assert_eq!(run.latency.count(), 2);
//! assert!(run.latency.max_ps() > 0.0);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use celllib::Library;
use exec::Executor;
use gatesim::{EngineProgram, LatencyReport, Logic, PipelineReport, Simulator, SlicedSimulator};

use crate::{
    DualRailError, DualRailNetlist, OperandResult, PipelineConfig, PipelinedProtocolDriver,
    ProtocolDriver, SlicedProtocolDriver,
};

/// Results of one sharded workload run: every operand's full
/// [`OperandResult`] in operand order, plus the spacer→valid latency
/// report the paper's Table I summarises.
#[derive(Clone, Debug, PartialEq)]
pub struct ParallelProtocolRun {
    /// Per-operand measurements and decoded outputs, in operand order.
    pub results: Vec<OperandResult>,
    /// Spacer→valid latency of every operand, in operand order, with
    /// min/median/max/histogram summaries.
    pub latency: LatencyReport,
}

impl ParallelProtocolRun {
    /// Aggregates the per-operand results into a report.
    #[must_use]
    pub fn from_results(results: Vec<OperandResult>) -> Self {
        let latency =
            LatencyReport::from_latencies(results.iter().map(|r| r.s_to_v_latency_ps).collect());
        Self { results, latency }
    }

    /// The `done` (completion-detection) latency of every operand, in
    /// operand order, or `None` if any operand lacks a `done`
    /// measurement (no completion detection, or `done` never moved).
    #[must_use]
    pub fn done_latency(&self) -> Option<LatencyReport> {
        self.results
            .iter()
            .map(|r| r.done_latency_ps)
            .collect::<Option<Vec<f64>>>()
            .map(LatencyReport::from_latencies)
    }
}

/// Drives a dual-rail netlist through four-phase cycles with the operand
/// stream sharded across worker threads in words or trains — outputs and
/// per-operand latency/`done` statistics bit-identical to a streamed
/// single contract-mode [`ProtocolDriver`] at any thread count.
///
/// See the [module documentation](self) for the contract and an example.
#[derive(Debug)]
pub struct ParallelProtocolDriver<'a> {
    circuit: &'a DualRailNetlist,
    program: Arc<EngineProgram<'a>>,
    /// The C-element latches and completion tree make the netlist
    /// sequential; sharding it is sound because — and only because —
    /// the reset-phase contract restores one quiescent state per
    /// cycle, which every worker verifies after every cycle.
    executor: Executor,
    /// Canonical quiescent state, captured once from a settled reference
    /// driver and verified by every worker after every cycle.
    snapshot: Arc<[Logic]>,
    /// Shared metrics registry + prefix; when set, every worker driver
    /// attaches protocol- and engine-level instruments under identical
    /// names, so commutative adds make snapshots thread-count
    /// invariant.
    metrics: Option<(Arc<tm_obs::MetricsRegistry>, String)>,
}

impl<'a> ParallelProtocolDriver<'a> {
    /// Compiles the circuit once, validates that it initialises to a
    /// settled quiescent state (captured as the contract snapshot) and
    /// prepares `threads` workers (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the circuit
    /// fails to settle during initialisation.
    pub fn new(
        circuit: &'a DualRailNetlist,
        library: &Library,
        threads: usize,
    ) -> Result<Self, DualRailError> {
        let program = Arc::new(EngineProgram::new(circuit.netlist(), library));
        // Pre-flight on the calling thread: a reference driver settles
        // the initial spacer from X (catching divergence as an error
        // rather than a worker panic), and its settled state becomes the
        // canonical snapshot every word worker starts from.  Word
        // workers skip the settle from X: they load the snapshot onto
        // all 64 lanes, check it is a fixed point of the circuit, settle
        // the spacer from it (no event pops) and compare the word with
        // it, on their first event-kernel word when the memoised arrival
        // compile already proved that priming succeeds
        // (`SlicedProtocolDriver::from_sliced_simulator`).  That a
        // settle from X reaches the same state on every lane is pinned
        // by `tests/snapshot_load.rs`.
        let snapshot =
            ProtocolDriver::from_program(circuit, Arc::clone(&program))?.quiescent_snapshot();
        Ok(Self {
            circuit,
            program,
            executor: Executor::new(threads),
            snapshot,
            metrics: None,
        })
    }

    /// Routes every worker's instruments into `registry` under
    /// `prefix`: engine counters as `"<prefix>.scalar.*"` (train
    /// workers) / `"<prefix>.sliced.*"` (word workers) and protocol
    /// counters as `"<prefix>.scalar.protocol.*"` /
    /// `"<prefix>.sliced.protocol.*"`.  Workers attach to the **same**
    /// instruments, and per-operand work is shard-invariant, so
    /// `registry.snapshot()` is bit-identical at any thread count.
    pub fn set_metrics(&mut self, registry: &Arc<tm_obs::MetricsRegistry>, prefix: &str) {
        self.metrics = Some((Arc::clone(registry), prefix.to_string()));
    }

    /// Stops routing metrics; future runs revert to the zero-overhead
    /// disabled mode.
    pub fn clear_metrics(&mut self) {
        self.metrics = None;
    }

    /// Engine- and protocol-level handles for one worker-driver kind
    /// (`"sliced"` or `"scalar"`), if a registry is set.
    fn worker_metrics(&self, kind: &str) -> Option<(tm_obs::SimMetrics, tm_obs::ProtocolMetrics)> {
        self.metrics.as_ref().map(|(registry, prefix)| {
            let prefix = format!("{prefix}.{kind}");
            (
                tm_obs::SimMetrics::register(registry, &prefix),
                tm_obs::ProtocolMetrics::register(registry, &format!("{prefix}.protocol")),
            )
        })
    }

    /// Number of worker threads the operand stream is sharded across.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// The circuit being driven.
    #[must_use]
    pub fn circuit(&self) -> &'a DualRailNetlist {
        self.circuit
    }

    /// The canonical quiescent snapshot every cycle is verified against.
    #[must_use]
    pub fn quiescent_snapshot(&self) -> &Arc<[Logic]> {
        &self.snapshot
    }

    /// Runs one full four-phase cycle per operand (one `Vec<bool>` with
    /// one bit per dual-rail input, in declaration order) on the
    /// bit-sliced event kernel: the operand stream is cut into words of
    /// up to 64 operands, each word runs all its lanes through one
    /// four-phase cycle on a [`SlicedProtocolDriver`], and words are
    /// sharded across worker threads.  Returns every decoded result in
    /// operand order together with the spacer→valid latency report.  A
    /// word of few live lanes (a one-request serving batch, a
    /// workload's tail) runs on the arrival kernel instead, with the
    /// same results (see [`SlicedProtocolDriver::apply_word`]).
    ///
    /// Takes `&self`: all mutable state is per worker, so one driver can
    /// serve many workloads (and several concurrently).  Word
    /// boundaries are fixed by operand position, so results are
    /// bit-identical at any thread count.  The timebase is the
    /// **phase-rebased** frame ([`ProtocolDriver::enable_phase_rebase`]):
    /// every per-lane result equals a streamed
    /// [`crate::rebased_reference_driver`]'s exactly; against a plain
    /// contract-mode driver, decoded outputs, `s_to_v_latency_ps` and
    /// `done_latency_ps` are exact while `v_to_s_latency_ps` and
    /// `cycle_time_ps` agree up to floating-point association.
    ///
    /// # Errors
    ///
    /// Propagates the first per-operand error in operand order — the
    /// same protocol violations, width mismatches and divergence errors
    /// as [`ProtocolDriver::apply_operand`], plus
    /// [`DualRailError::SpacerStateMismatch`] if a word breaks the
    /// reset-phase contract; a diverging word reports every one of its
    /// lanes as [`DualRailError::SimulationDiverged`] (the lanes share
    /// one event budget).
    pub fn run_workload_sliced(
        &self,
        operands: &[Vec<bool>],
    ) -> Result<ParallelProtocolRun, DualRailError> {
        let metrics = self.worker_metrics("sliced");
        let per_word = self.executor.map_chunks_with(
            operands,
            netlist::LANES,
            || -> Result<SlicedProtocolDriver<'a>, DualRailError> {
                let mut sim = SlicedSimulator::from_program(Arc::clone(&self.program));
                if let Some((engine, _)) = &metrics {
                    sim.attach_metrics_deferred(engine.clone());
                }
                let mut driver = SlicedProtocolDriver::from_sliced_simulator(
                    self.circuit,
                    sim,
                    Arc::clone(&self.snapshot),
                    true,
                )?;
                if let Some((_, protocol)) = &metrics {
                    driver.attach_protocol_metrics(protocol.clone());
                }
                Ok(driver)
            },
            |driver, _, word| match driver {
                Ok(driver) => driver.apply_word(word),
                Err(error) => word.iter().map(|_| Err(error.clone())).collect(),
            },
        );
        let results = per_word
            .into_iter()
            .flatten()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParallelProtocolRun::from_results(results))
    }

    /// Shards the operand stream in trains instead of words: each worker
    /// drives its claimed operands through the wavefront-pipelined
    /// schedule ([`PipelinedProtocolDriver::run_train`]): trains of
    /// `config.train_length` tokens at fixed operand positions, with
    /// operand *k+1* injected as soon as the input stage acknowledges
    /// operand *k*'s spacer instead of after the global `done`
    /// round-trip.
    ///
    /// A train is a pure function of its own operands (the clock
    /// rebases per train), so position-based chunking keeps decoded
    /// outputs and per-token measurements bit-identical at any thread
    /// count.  At [`crate::Occupancy::One`] every token runs the
    /// serial contract cycle and the run is bit-identical to streaming
    /// the operands through one contract-mode [`ProtocolDriver`].
    ///
    /// Returns the per-operand results plus a [`PipelineReport`]
    /// separating token latency (spacer→valid, unchanged by
    /// pipelining) from cycle time (injection-to-injection interval,
    /// the pipelined figure of merit), with the peak number of tokens
    /// in flight measured over every train
    /// ([`PipelinedProtocolDriver::peak_in_flight`]).
    ///
    /// # Errors
    ///
    /// Propagates the first per-token error in operand order — the
    /// typed hazard, divergence and contract violations of
    /// [`PipelinedProtocolDriver::run_train`].
    pub fn run_workload_pipelined(
        &self,
        operands: &[Vec<bool>],
        config: PipelineConfig,
    ) -> Result<(ParallelProtocolRun, PipelineReport), DualRailError> {
        let metrics = self.worker_metrics("scalar");
        let per_train = self.executor.map_chunks_with(
            operands,
            config.train_length.max(1),
            || -> Result<PipelinedProtocolDriver<'a>, DualRailError> {
                let mut sim = Simulator::from_program(Arc::clone(&self.program));
                if let Some((engine, _)) = &metrics {
                    sim.attach_metrics_deferred(engine.clone());
                }
                let mut driver =
                    PipelinedProtocolDriver::from_simulator(self.circuit, sim, config)?;
                if let Some((_, protocol)) = &metrics {
                    driver.attach_protocol_metrics(protocol.clone());
                }
                Ok(driver)
            },
            // Each token carries its train's peak occupancy.
            |driver, _, train| -> Vec<Result<(OperandResult, usize), DualRailError>> {
                match driver {
                    Ok(driver) => match driver.run_train(train) {
                        Ok(results) => {
                            let peak = driver.peak_in_flight();
                            results.into_iter().map(|r| Ok((r, peak))).collect()
                        }
                        Err(error) => train.iter().map(|_| Err(error.clone())).collect(),
                    },
                    Err(error) => train.iter().map(|_| Err(error.clone())).collect(),
                }
            },
        );
        let tokens = per_train
            .into_iter()
            .flatten()
            .collect::<Result<Vec<_>, _>>()?;
        let occupancy = tokens.iter().map(|&(_, peak)| peak).max().unwrap_or(0);
        let results: Vec<OperandResult> = tokens.into_iter().map(|(r, _)| r).collect();
        let report = pipeline_report(&results, occupancy);
        Ok((ParallelProtocolRun::from_results(results), report))
    }
}

/// Aggregates per-token results into the pipelined throughput report:
/// token latency from the spacer→valid measurements, cycle time from
/// the per-token injection intervals (each train's last token closes on
/// the train's drain, so the cycle entries sum to the makespan), and
/// the measured peak `occupancy`.
fn pipeline_report(results: &[OperandResult], occupancy: usize) -> PipelineReport {
    let token_latency =
        LatencyReport::from_latencies(results.iter().map(|r| r.s_to_v_latency_ps).collect());
    let cycles: Vec<f64> = results.iter().map(|r| r.cycle_time_ps).collect();
    let makespan_ps = cycles.iter().sum();
    PipelineReport {
        token_latency,
        cycle: LatencyReport::from_latencies(cycles),
        makespan_ps,
        tokens: results.len(),
        occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReducedCompletion;

    fn and_or_circuit() -> DualRailNetlist {
        let mut dr = DualRailNetlist::new("t");
        let a = dr.add_dual_input("a");
        let b = dr.add_dual_input("b");
        let c = dr.add_dual_input("c");
        let ab = dr.and2("ab", a, b).unwrap();
        let y = dr.or2("y", ab, c).unwrap();
        dr.add_dual_output("y", y);
        ReducedCompletion::insert(&mut dr).unwrap();
        dr
    }

    fn workload(width: usize, operands: usize) -> Vec<Vec<bool>> {
        (0..operands as u32)
            .map(|p| (0..width).map(|i| p & (1 << i) != 0).collect())
            .collect()
    }

    #[test]
    fn run_workload_sliced_takes_shared_self() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let driver = ParallelProtocolDriver::new(&dr, &lib, 2).unwrap();
        assert_eq!(driver.threads(), 2);
        let operands = workload(3, 5);
        let first = driver.run_workload_sliced(&operands).unwrap();
        let second = driver.run_workload_sliced(&operands).unwrap();
        assert_eq!(first, second, "a driver is reusable across workloads");
        let done = first.done_latency().expect("completion detection present");
        assert_eq!(done.count(), operands.len());
        assert!(done.min_ps() > 0.0);
        assert!(std::ptr::eq(driver.circuit(), &dr));
        assert_eq!(driver.quiescent_snapshot().len(), dr.netlist().net_count());
    }
}
