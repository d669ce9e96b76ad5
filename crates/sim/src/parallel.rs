//! Sharded event-driven simulation: independent operands replayed on
//! replicated engine instances across worker threads.
//!
//! The event-driven simulator is the only path that observes *per-operand
//! timing* — the paper's figure of merit.  Operands are independent,
//! though: each one is a complete return-to-zero cycle (spacer → settle →
//! operand → settle) whose events depend only on the operand itself, so
//! the LCP-style low-communication partitioning already proven for the
//! batch spine applies directly — replicate the pipeline, shard the
//! work, never share mutable state mid-pass.
//!
//! [`ParallelEventSim`] replicates only what replication must cost: the
//! immutable compilation ([`crate::EngineProgram`] — CSR relations,
//! truth tables, delay memos) is built once and shared through an `Arc`,
//! and each worker owns a private instance.  The sharding unit is the
//! 64-lane **word** ([`ParallelEventSim::run_operands_sliced`] on a
//! [`SlicedSimulator`] per worker), plus the position-based **train**
//! ([`ParallelEventSim::run_trains_with`] on a [`Simulator`] per worker)
//! that wavefront-pipelined drivers need.  Units are claimed dynamically
//! via [`exec::Executor::map_chunks_with`] and merged in input order, so
//! the outputs *and* the per-operand latencies are bit-identical to a
//! single streamed [`Simulator`] driven by [`run_return_to_zero`] — the
//! reference the property tests compare against at threads {1, 2, 7}
//! (`tests/property_tests.rs`).
//!
//! # Determinism contract
//!
//! Two ingredients make the shard boundary invisible:
//!
//! 1. **Return-to-zero framing.**  Every operand is preceded by an
//!    all-zero spacer settled to quiescence.  For a *combinational*
//!    netlist the settled spacer state is a pure function of the inputs,
//!    so after the first spacer every instance sits in the same state no
//!    matter which operands it processed before.  (State-holding cells
//!    break this in general — [`ParallelEventSim::new`] rejects them.)
//! 2. **Per-operand time rebasing.**  The clock is zeroed before each
//!    injection, so event timestamps — and the floating-point roundings
//!    they go through — are identical for a given operand regardless of
//!    its position in the stream.
//!
//! # The reset-phase contract for sequential netlists
//!
//! Dual-rail four-phase circuits are sequential (C-element input latches
//! and completion trees), yet their protocol *restores* history
//! independence: every cycle ends by returning all inputs to the spacer,
//! and a C-element whose inputs all reach 0 resets to 0, so the settled
//! post-reset state is one fixed quiescent state — not a function of
//! operand history.  [`ParallelEventSim::assume_reset_phase`] admits
//! sequential netlists on the strength of that argument, and **verifies
//! it per word**: each worker snapshots its first settled spacer state
//! and compares every later one against it on every live lane, panicking
//! on the first mismatch instead of silently returning shard-dependent
//! results.  Protocol-level drivers (the `dualrail` crate) perform the
//! same check against a canonical snapshot shared by all workers.
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, CellKind};
//! use celllib::Library;
//! use gatesim::{LatencyReport, ParallelEventSim};
//!
//! let mut nl = Netlist::new("majority");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let c = nl.add_input("c");
//! let y = nl.add_cell("maj", CellKind::Maj3, &[a, b, c]).unwrap();
//! nl.add_output("y", y);
//!
//! let lib = Library::umc_ll();
//! let sim = ParallelEventSim::new(&nl, &lib, 2);
//! let operands = vec![
//!     vec![true, true, false],
//!     vec![false, true, true],
//! ];
//! let runs = sim.run_operands_sliced(&operands);
//! assert!(runs[0].outputs[0].is_one());
//! assert!(runs[1].outputs[0].is_one());
//! // The majority gate settles one cell delay after injection.
//! let report = LatencyReport::from_runs(&runs);
//! assert_eq!(report.count(), 2);
//! assert!(report.min_ps() > 0.0);
//! assert_eq!(report.min_ps(), report.max_ps());
//! ```

use std::sync::Arc;

use celllib::Library;
use exec::Executor;
use netlist::Netlist;

use crate::engine::Simulator;
use crate::fault::{FaultPlan, SettleError, SettlePhase};
use crate::monitor::LatencyReport;
use crate::program::EngineProgram;
use crate::sliced::{
    run_word_return_to_zero_checked, try_run_word_return_to_zero_checked, SlicedSimulator,
};
use crate::Logic;

/// The settled result of one return-to-zero operand cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct OperandRun {
    /// Settled primary-output values, in port declaration order.
    pub outputs: Vec<Logic>,
    /// Injection→settle latency in picoseconds: the timestamp of the
    /// last event the injection phase applied (0.0 if the operand
    /// changed nothing relative to the spacer).
    pub latency_ps: f64,
    /// Events processed during the injection phase (spacer traffic is
    /// excluded).
    pub events: u64,
}

/// The history-independence argument a [`ParallelEventSim`] relies on to
/// replay operands on replicated instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardingContract {
    /// The netlist is combinational: its settled state is a pure
    /// function of the inputs, so the all-zero spacer alone restores one
    /// canonical state.  Enforced at construction.
    Combinational,
    /// The caller asserts that every return-to-zero cycle ends in one
    /// fixed quiescent state even though the netlist holds state (e.g. a
    /// four-phase dual-rail circuit whose C-elements all reset on the
    /// spacer).  The runner verifies the assertion on every word by
    /// comparing each settled spacer state against the first one.
    ResetPhase,
}

/// Drives one return-to-zero operand cycle on `sim` and reports the
/// settled outputs and injection latency.
///
/// The cycle is: drive every primary input to 0, settle, rebase the
/// clock to zero, drive `operand` (one bool per primary input in port
/// declaration order), settle.  Streaming operands through one
/// [`Simulator`] this way is the scalar reference every lane of
/// [`ParallelEventSim::run_operands_sliced`] reproduces bit for bit.
///
/// # Panics
///
/// Panics if `operand` does not have one bit per primary input or if
/// either phase fails to settle within the simulator's event limit.
#[must_use]
pub fn run_return_to_zero(sim: &mut Simulator<'_>, operand: &[bool]) -> OperandRun {
    try_run_return_to_zero(sim, operand).unwrap_or_else(|error| panic!("{error}"))
}

/// Fallible form of [`run_return_to_zero`]: an operand whose spacer or
/// injection phase fails to settle within the watchdog bounds (event
/// limit and/or time horizon) returns [`SettleError::Watchdog`] instead
/// of panicking — the entry point fault campaigns drive faulted
/// operands through.
///
/// # Errors
///
/// Returns [`SettleError::Watchdog`] naming the phase that failed to
/// settle.
///
/// # Panics
///
/// Panics if `operand` does not have one bit per primary input (a
/// caller bug, not a fault effect).
pub fn try_run_return_to_zero(
    sim: &mut Simulator<'_>,
    operand: &[bool],
) -> Result<OperandRun, SettleError> {
    // The input list is cached in the shared program, so the per-operand
    // hot path performs no allocation for it.
    let input_count = sim.program().primary_inputs().len();
    assert_eq!(
        operand.len(),
        input_count,
        "operand width {} does not match {} primary inputs",
        operand.len(),
        input_count
    );

    // Spacer phase: return every input to zero and settle.  After this
    // a combinational netlist sits in its canonical quiescent state.
    // Spacer work depends on the *previous* operand (or on instance
    // construction), so metric counting pauses until the post-spacer
    // rebase re-arms it.
    sim.pause_metrics();
    for i in 0..input_count {
        let net = sim.program().primary_inputs()[i];
        sim.set_input(net, Logic::Zero);
    }
    if !sim.run_until_quiescent().is_quiescent() {
        return Err(SettleError::Watchdog {
            phase: SettlePhase::Spacer,
        });
    }

    // Injection phase from time zero: identical absolute timestamps for
    // a given operand, wherever it sits in the stream.
    sim.reset_time();
    for (i, &bit) in operand.iter().enumerate() {
        let net = sim.program().primary_inputs()[i];
        sim.set_input_bool(net, bit);
    }
    let crate::engine::RunOutcome::Quiescent { events } = sim.run_until_quiescent() else {
        return Err(SettleError::Watchdog {
            phase: SettlePhase::Injection,
        });
    };
    Ok(OperandRun {
        outputs: sim.output_values(),
        latency_ps: sim.now_ps(),
        events,
    })
}

/// Event-driven simulation sharded across words (and trains): one
/// shared [`EngineProgram`], one private engine instance per worker,
/// results merged in operand order.
///
/// See the [module documentation](self) for the determinism contract and
/// an example.
#[derive(Debug)]
pub struct ParallelEventSim<'a> {
    program: Arc<EngineProgram<'a>>,
    executor: Executor,
    contract: ShardingContract,
    /// Shared metrics registry plus name prefix; every worker's
    /// private engine attaches handles registered here, so shard
    /// flushes accumulate into one set of cells and the registry's
    /// snapshot is bit-identical at any thread count (the merge is
    /// commutative and the per-operand work is shard-invariant).
    metrics: Option<(Arc<tm_obs::MetricsRegistry>, String)>,
}

impl<'a> ParallelEventSim<'a> {
    /// Compiles `netlist` once and prepares an executor with `threads`
    /// workers (clamped to at least 1).
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains sequential cells (flip-flops or
    /// C-elements): their settled state depends on operand history in
    /// general, so sharding the stream would change results.  Designs
    /// whose cycles provably reset that state (four-phase dual-rail
    /// circuits) can instead assert the verified reset-phase contract
    /// via [`ParallelEventSim::assume_reset_phase`].
    #[must_use]
    pub fn new(netlist: &'a Netlist, library: &Library, threads: usize) -> Self {
        Self::from_program(
            Arc::new(EngineProgram::new(netlist, library)),
            Executor::new(threads),
        )
    }

    /// Like [`ParallelEventSim::new`] over an existing (possibly already
    /// shared) program and an explicit executor.
    ///
    /// # Panics
    ///
    /// Panics if the program's netlist contains sequential cells (see
    /// [`ParallelEventSim::new`]).
    #[must_use]
    pub fn from_program(program: Arc<EngineProgram<'a>>, executor: Executor) -> Self {
        assert!(
            program.is_combinational(),
            "ParallelEventSim requires a combinational netlist: sequential state \
             would make results depend on how operands are sharded \
             (assert a reset-phase contract with `assume_reset_phase` if every \
             cycle provably returns the circuit to one quiescent state)"
        );
        Self {
            program,
            executor,
            contract: ShardingContract::Combinational,
            metrics: None,
        }
    }

    /// Like [`ParallelEventSim::from_program`], but admits sequential
    /// cells (C-elements, flip-flops) on the caller's assertion of the
    /// **reset-phase history-independence contract**: every replayed
    /// cycle returns the whole circuit to one fixed quiescent state, so
    /// replicated instances start each operand identically.
    ///
    /// The assertion is not taken on faith: every worker verifies each
    /// settled spacer state against the first one it observed and
    /// panics on the first mismatch (see the
    /// [module documentation](self)).  Higher-level protocol drivers
    /// layer their own per-cycle check on top against a canonical
    /// snapshot.
    #[must_use]
    pub fn assume_reset_phase(program: Arc<EngineProgram<'a>>, executor: Executor) -> Self {
        Self {
            program,
            executor,
            contract: ShardingContract::ResetPhase,
            metrics: None,
        }
    }

    /// Number of worker threads operands are sharded across.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// The history-independence contract this runner operates under.
    #[must_use]
    pub fn contract(&self) -> ShardingContract {
        self.contract
    }

    /// The shared immutable program all workers evaluate.
    #[must_use]
    pub fn program(&self) -> &Arc<EngineProgram<'a>> {
        &self.program
    }

    /// Instruments every future run: each worker's private engine
    /// attaches [`tm_obs::SimMetrics`] handles registered in
    /// `registry` under `"<prefix>.scalar.*"` (scalar train workers) or
    /// `"<prefix>.sliced.*"` (64-wide word workers).  Because the engines
    /// flush per settle and the registry's merge is commutative, the
    /// registry snapshot after a run is **bit-identical at any thread
    /// count** — the sharded analogue of the latency bit-identity
    /// contract.
    pub fn set_metrics(&mut self, registry: &Arc<tm_obs::MetricsRegistry>, prefix: &str) {
        self.metrics = Some((Arc::clone(registry), prefix.to_string()));
    }

    /// Stops instrumenting future runs.
    pub fn clear_metrics(&mut self) {
        self.metrics = None;
    }

    /// Handle set scalar train workers attach, if instrumented.
    fn scalar_metrics(&self) -> Option<tm_obs::SimMetrics> {
        self.metrics.as_ref().map(|(registry, prefix)| {
            tm_obs::SimMetrics::register(registry, &format!("{prefix}.scalar"))
        })
    }

    /// Handle set 64-wide sliced workers attach, if instrumented.
    fn sliced_metrics(&self) -> Option<tm_obs::SimMetrics> {
        self.metrics.as_ref().map(|(registry, prefix)| {
            tm_obs::SimMetrics::register(registry, &format!("{prefix}.sliced"))
        })
    }

    /// Shards per-**word** work across this runner's workers: items are
    /// chunked into words of up to [`netlist::LANES`] entries, each
    /// worker builds its private state once from a fresh
    /// [`SlicedSimulator`] over the shared program (`init`), `step`
    /// processes one whole word at a time (returning one result per
    /// item, in item order), and the per-word result vectors are
    /// flattened back **in item order** — the hook the sliced protocol
    /// drivers build on.
    pub fn run_words_with<T, W, R>(
        &self,
        items: &[T],
        init: impl Fn(SlicedSimulator<'a>) -> W + Sync,
        step: impl Fn(&mut W, &[T]) -> Vec<R> + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let program = &self.program;
        let metrics = self.sliced_metrics();
        let per_word = self.executor.map_chunks_with(
            items,
            netlist::LANES,
            || {
                let mut sim = SlicedSimulator::from_program(Arc::clone(program));
                if let Some(handles) = metrics.clone() {
                    sim.attach_metrics_deferred(handles);
                }
                init(sim)
            },
            |worker, _, word| step(worker, word),
        );
        per_word.into_iter().flatten().collect()
    }

    /// Like [`ParallelEventSim::run_words_with`], but items are claimed
    /// in fixed position-based **trains** of `train_len` items, each
    /// worker's private state is built from a scalar [`Simulator`], and
    /// `step` receives each whole train at once (returning one result
    /// per item, in item order).  Wavefront-pipelined drivers build on
    /// this: a train is the unit that shares in-flight circuit state, so
    /// a train must be a pure function of its own operands for results
    /// to stay bit-identical at any thread count — which position-based
    /// chunking plus per-train time rebasing guarantees.
    ///
    /// # Panics
    ///
    /// Panics if `train_len` is zero.
    pub fn run_trains_with<T, W, R>(
        &self,
        items: &[T],
        train_len: usize,
        init: impl Fn(Simulator<'a>) -> W + Sync,
        step: impl Fn(&mut W, &[T]) -> Vec<R> + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        assert!(train_len > 0, "train length must be at least 1");
        let program = &self.program;
        let metrics = self.scalar_metrics();
        let per_train = self.executor.map_chunks_with(
            items,
            train_len,
            || {
                let mut sim = Simulator::from_program(Arc::clone(program));
                if let Some(handles) = metrics.clone() {
                    sim.attach_metrics_deferred(handles);
                }
                init(sim)
            },
            |worker, _, train| step(worker, train),
        );
        per_train.into_iter().flatten().collect()
    }

    /// Replays every operand through the 64-wide bit-sliced
    /// return-to-zero cycle ([`crate::run_word_return_to_zero`]),
    /// sharding disjoint **words** of up to 64 operands across worker
    /// threads, and returns the per-operand results in operand order —
    /// outputs, per-operand latencies and event counts bit-identical
    /// to streaming the same operands through one [`Simulator`] with
    /// [`run_return_to_zero`], at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if an operand has the wrong width or the circuit fails
    /// to settle (see [`crate::run_word_return_to_zero`]).
    #[must_use]
    pub fn run_operands_sliced(&self, operands: &[Vec<bool>]) -> Vec<OperandRun> {
        let verify = self.contract == ShardingContract::ResetPhase;
        self.run_words_with(
            operands,
            |sim| (sim, None::<Vec<Logic>>),
            move |(sim, snapshot), word| {
                run_word_return_to_zero_checked(sim, word, verify.then_some(&mut *snapshot))
            },
        )
    }

    /// Like [`ParallelEventSim::run_operands_sliced`], but every worker
    /// installs `plan` (and the `horizon_ps` watchdog bound, when
    /// given) on its private sliced instance, and a word whose settle
    /// trips the watchdog or breaks the reset-phase contract yields
    /// that [`SettleError`] for **every operand in the word** (lanes
    /// settle together, so a non-settle is a word-level outcome).
    ///
    /// With an empty plan and no horizon this is bit-identical to
    /// [`ParallelEventSim::run_operands_sliced`] (property-tested).
    #[must_use]
    pub fn run_operands_sliced_faulted(
        &self,
        operands: &[Vec<bool>],
        plan: &FaultPlan,
        horizon_ps: Option<f64>,
    ) -> Vec<Result<OperandRun, SettleError>> {
        let verify = self.contract == ShardingContract::ResetPhase;
        self.run_words_with(
            operands,
            |mut sim| {
                if let Some(horizon) = horizon_ps {
                    sim.set_time_horizon_ps(horizon);
                }
                sim.set_fault_plan(plan);
                (sim, None::<Vec<Logic>>)
            },
            move |(sim, snapshot), word| match try_run_word_return_to_zero_checked(
                sim,
                word,
                verify.then_some(&mut *snapshot),
            ) {
                Ok(runs) => runs.into_iter().map(Ok).collect(),
                Err(error) => word.iter().map(|_| Err(error.clone())).collect(),
            },
        )
    }
}

impl LatencyReport {
    /// Builds a report from the latencies of a slice of operand runs, in
    /// run order.
    #[must_use]
    pub fn from_runs(runs: &[OperandRun]) -> Self {
        Self::from_latencies(runs.iter().map(|r| r.latency_ps).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellKind, NetId};

    fn lib() -> Library {
        Library::umc_ll()
    }

    /// Streamed single-instance reference: the same protocol on one
    /// simulator, operand after operand.
    fn stream(netlist: &Netlist, library: &Library, operands: &[Vec<bool>]) -> Vec<OperandRun> {
        let mut sim = Simulator::new(netlist, library);
        operands
            .iter()
            .map(|operand| run_return_to_zero(&mut sim, operand))
            .collect()
    }

    fn xor_chain() -> Netlist {
        let mut nl = Netlist::new("xor_chain");
        let inputs: Vec<NetId> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let mut acc = inputs[0];
        for (k, &input) in inputs.iter().enumerate().skip(1) {
            acc = nl
                .add_cell(format!("x{k}"), CellKind::Xor2, &[acc, input])
                .unwrap();
        }
        nl.add_output("parity", acc);
        nl
    }

    #[test]
    fn latency_is_the_sum_of_gate_delays_on_a_chain() {
        let mut nl = Netlist::new("chain");
        let mut net = nl.add_input("a");
        for i in 0..6 {
            net = nl
                .add_cell(format!("buf{i}"), CellKind::Buf, &[net])
                .unwrap();
        }
        nl.add_output("y", net);
        let library = lib();
        let sim = ParallelEventSim::new(&nl, &library, 2);
        let runs = sim.run_operands_sliced(&[vec![true], vec![false]]);
        let expected = 6.0 * library.cell_delay(CellKind::Buf, 1);
        assert!((runs[0].latency_ps - expected).abs() < 1e-6);
        assert_eq!(runs[0].outputs, vec![Logic::One]);
        // The all-zero operand equals the spacer: nothing moves.
        assert_eq!(runs[1].latency_ps, 0.0);
        assert_eq!(runs[1].events, 0);
        assert_eq!(runs[1].outputs, vec![Logic::Zero]);
    }

    #[test]
    #[should_panic(expected = "requires a combinational netlist")]
    fn sequential_netlists_are_rejected() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_cell("cel", CellKind::CElement2, &[a, b]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let _ = ParallelEventSim::new(&nl, &library, 2);
    }

    /// A C-element whose inputs all return to zero honours the
    /// reset-phase contract: the spacer resets it, so sharding the
    /// operand stream (70 operands = one full word + a 6-lane tail)
    /// stays bit-identical to streaming it.
    #[test]
    fn reset_phase_contract_admits_self_resetting_sequential_netlists() {
        use crate::program::EngineProgram;

        let mut nl = Netlist::new("celem_rtz");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_cell("cel", CellKind::CElement2, &[a, b]).unwrap();
        let y = nl.add_cell("buf", CellKind::Buf, &[c]).unwrap();
        nl.add_output("y", y);
        let library = lib();

        let operands: Vec<Vec<bool>> = (0..70u32).map(|p| vec![p & 1 != 0, p & 2 != 0]).collect();
        let expected = stream(&nl, &library, &operands);
        for threads in [1, 2, 7] {
            let program = Arc::new(EngineProgram::new(&nl, &library));
            let sim = ParallelEventSim::assume_reset_phase(program, exec::Executor::new(threads));
            assert_eq!(sim.contract(), ShardingContract::ResetPhase);
            let runs = sim.run_operands_sliced(&operands);
            assert_eq!(runs, expected, "threads = {threads}");
        }
    }

    /// A C-element held by a tie-high input does *not* reset on the
    /// spacer; the per-word verification catches the broken assertion
    /// instead of silently returning history-dependent results.
    #[test]
    #[should_panic(expected = "reset-phase contract violated")]
    fn reset_phase_contract_violations_fail_loudly() {
        use crate::program::EngineProgram;

        let mut nl = Netlist::new("celem_sticky");
        let a = nl.add_input("a");
        let hi = nl.add_cell("tie", CellKind::Tie1, &[]).unwrap();
        let y = nl.add_cell("cel", CellKind::CElement2, &[a, hi]).unwrap();
        nl.add_output("y", y);
        let library = lib();
        let program = Arc::new(EngineProgram::new(&nl, &library));
        let sim = ParallelEventSim::assume_reset_phase(program, exec::Executor::new(1));
        // The first word sets the C-element on every lane; the spacer
        // before the second word can no longer reach the first
        // spacer's state.
        let _ = sim.run_operands_sliced(&vec![vec![true]; netlist::LANES + 1]);
    }

    #[test]
    #[should_panic(expected = "operand width")]
    fn wrong_operand_width_panics() {
        let nl = xor_chain();
        let library = lib();
        let sim = ParallelEventSim::new(&nl, &library, 1);
        let _ = sim.run_operands_sliced(&[vec![true; 3]]);
    }

    #[test]
    fn sliced_words_match_streamed_reference_at_several_thread_counts() {
        // 150 operands = two full words + a 22-lane tail, sharded.
        let nl = xor_chain();
        let library = lib();
        let operands: Vec<Vec<bool>> = (0..150u32)
            .map(|p| {
                (0..4)
                    .map(|b| p.wrapping_mul(0x9E37_79B9) & (1 << b) != 0)
                    .collect()
            })
            .collect();
        let expected = stream(&nl, &library, &operands);
        for threads in [1, 2, 7] {
            let sim = ParallelEventSim::new(&nl, &library, threads);
            assert_eq!(sim.threads(), threads);
            let runs = sim.run_operands_sliced(&operands);
            assert_eq!(runs, expected, "threads = {threads}");
            assert_eq!(
                LatencyReport::from_runs(&runs),
                LatencyReport::from_runs(&expected)
            );
        }
    }

    #[test]
    fn sliced_empty_operand_list_yields_empty_results() {
        let nl = xor_chain();
        let library = lib();
        let sim = ParallelEventSim::new(&nl, &library, 2);
        let runs = sim.run_operands_sliced(&[]);
        assert!(runs.is_empty());
        assert_eq!(LatencyReport::from_runs(&runs).count(), 0);
    }
}
