//! Sharded four-phase inference on the dual-rail datapath — the paper's
//! actual design, measured at workload scale.
//!
//! [`crate::EventDrivenInference`] measures per-operand latency on the
//! *combinational golden model*; this module is its dual-rail sibling:
//! every operand is one complete four-phase handshake cycle on the
//! early-propagative [`DualRailDatapath`] (C-element input latches,
//! reduced completion detection and all), driven by
//! [`dualrail::ParallelProtocolDriver`] with the operand stream sharded
//! across worker threads in 64-lane words
//! ([`DualRailInference::run_workload_sliced`]) or in
//! wavefront-pipelined trains
//! ([`DualRailInference::run_workload_pipelined`]).  The figures it
//! reports are exactly the paper's Table I quantities — spacer→valid
//! latency and `done` (completion-detection) latency per operand — and
//! the decoded [`InferenceOutcome`]s are directly comparable with the
//! software golden model.
//!
//! Sharding a sequential circuit is sound here because the four-phase
//! protocol restores one quiescent state per cycle (the reset-phase
//! contract), which the driver verifies on every cycle; outcomes and
//! latency reports are bit-identical to a streamed single contract-mode
//! driver at any thread count (property-tested at threads {1, 2, 7}
//! against [`dualrail::rebased_reference_driver`] for words and a plain
//! contract-mode [`dualrail::ProtocolDriver`] for trains).
//!
//! # Example
//!
//! ```
//! use celllib::Library;
//! use datapath::{DatapathConfig, DualRailDatapath, DualRailInference, InferenceWorkload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = DatapathConfig::new(3, 2)?;
//! let datapath = DualRailDatapath::generate(&config)?;
//! let library = Library::umc_ll();
//! let sim = DualRailInference::new(&datapath, &library, 2)?;
//!
//! let workload = InferenceWorkload::random(&config, 6, 0.6, 11)?;
//! let run = sim.run_workload_sliced(&workload)?;
//! assert_eq!(&run.outcomes, workload.expected());
//! // The paper's Table I figures, per operand.
//! assert_eq!(run.latency.count(), 6);
//! assert!(run.latency.max_ps() > 0.0);
//! let done = run.done_latency.expect("reduced completion detection present");
//! assert!(done.min_ps() >= run.latency.min_ps());
//! # Ok(())
//! # }
//! ```

use celllib::Library;
use dualrail::{OperandResult, ParallelProtocolDriver, ParallelProtocolRun};
use gatesim::{LatencyReport, PipelineReport};

use crate::builder::DualRailDatapath;
use crate::reference::InferenceOutcome;
use crate::workload::InferenceWorkload;
use crate::DatapathError;

/// Result of a sharded dual-rail workload run: golden-comparable
/// outcomes plus the paper's per-operand latency figures.
#[derive(Clone, Debug, PartialEq)]
pub struct DualRailRun {
    /// Decoded inference outcomes, in operand order.
    pub outcomes: Vec<InferenceOutcome>,
    /// Spacer→valid latency of every operand, in operand order, with
    /// min/median/max/histogram summaries (Table I "Avg./Max Latency").
    pub latency: LatencyReport,
    /// `done` (completion-detection) latency of every operand, or
    /// `None` if the datapath has no completion detection.
    pub done_latency: Option<LatencyReport>,
    /// The raw per-operand protocol measurements (valid→spacer reset
    /// times, cycle times, probe values), in operand order.
    pub results: Vec<OperandResult>,
}

/// Four-phase dual-rail inference with the operand stream sharded across
/// worker threads.
///
/// Construction compiles the netlist once and validates initialisation;
/// [`DualRailInference::run_workload_sliced`] takes `&self` (all mutable
/// state is per worker), so one instance can serve many workloads.  See
/// the [module documentation](self) for the contract and an example.
#[derive(Debug)]
pub struct DualRailInference<'a> {
    driver: ParallelProtocolDriver<'a>,
    datapath: &'a DualRailDatapath,
}

impl<'a> DualRailInference<'a> {
    /// Compiles the datapath's netlist for event-driven simulation
    /// (delays from `library` at its current supply voltage and corner)
    /// and prepares `threads` workers (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates driver construction failures (e.g. a circuit that
    /// fails to settle during initialisation).
    pub fn new(
        datapath: &'a DualRailDatapath,
        library: &Library,
        threads: usize,
    ) -> Result<Self, DatapathError> {
        // Arm the static pre-flight verifier before the first driver is
        // built: from here on, every `ProtocolDriver` constructed in
        // this process rejects netlists with error-severity findings
        // (`DualRailError::StaticVerification`) before simulating a
        // single event.  Shipped datapaths verify clean; the hook
        // guards hand-edited or retrained netlists.
        tm_lint::preflight::install();
        let driver = ParallelProtocolDriver::new(datapath.circuit(), library, threads)?;
        Ok(Self { driver, datapath })
    }

    /// Number of worker threads the operand stream is sharded across.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.driver.threads()
    }

    /// The datapath being exercised.
    #[must_use]
    pub fn datapath(&self) -> &'a DualRailDatapath {
        self.datapath
    }

    /// Routes every worker's instruments into `registry` under
    /// `prefix` (see [`ParallelProtocolDriver::set_metrics`]):
    /// snapshots are bit-identical at any thread count.
    pub fn set_metrics(
        &mut self,
        registry: &std::sync::Arc<tm_obs::MetricsRegistry>,
        prefix: &str,
    ) {
        self.driver.set_metrics(registry, prefix);
    }

    /// Stops routing metrics; future runs revert to the zero-overhead
    /// disabled mode.
    pub fn clear_metrics(&mut self) {
        self.driver.clear_metrics();
    }

    /// Runs every operand of `workload` through a full four-phase cycle,
    /// 64 operand lanes per word on the bit-sliced protocol driver
    /// ([`dualrail::SlicedProtocolDriver`]), and returns the decoded
    /// outcomes (comparable with [`InferenceWorkload::expected`]) plus
    /// the per-operand latency reports — all in operand order and
    /// bit-identical at any thread count.  The raw `results` report
    /// valid→spacer and cycle times in the phase-rebased timebase
    /// ([`dualrail::ProtocolDriver::enable_phase_rebase`]).
    ///
    /// # Errors
    ///
    /// Returns width mismatches for workloads that do not match the
    /// datapath's configuration, protocol violations and decode failures
    /// from the handshake, and
    /// [`dualrail::DualRailError::SpacerStateMismatch`] (as a
    /// [`DatapathError::DualRail`]) if a cycle breaks the reset-phase
    /// sharding contract.
    pub fn run_workload_sliced(
        &self,
        workload: &InferenceWorkload,
    ) -> Result<DualRailRun, DatapathError> {
        self.run_features_sliced(workload.masks(), workload.feature_vectors())
    }

    /// Runs an explicit batch of feature vectors (owned `&[Vec<bool>]`
    /// or borrowed `&[&[bool]]`, e.g. a serving micro-batch) against
    /// `masks` on the bit-sliced protocol driver and returns the decoded
    /// outcomes and latency reports in input order; see
    /// [`DualRailInference::run_workload_sliced`].
    ///
    /// # Errors
    ///
    /// See [`DualRailInference::run_workload_sliced`].
    pub fn run_features_sliced<V: AsRef<[bool]>>(
        &self,
        masks: &tsetlin::ExcludeMasks,
        feature_vectors: &[V],
    ) -> Result<DualRailRun, DatapathError> {
        let operands = feature_vectors
            .iter()
            .map(|v| self.datapath.operand_bits(v.as_ref(), masks))
            .collect::<Result<Vec<_>, _>>()?;
        self.decode(self.driver.run_workload_sliced(&operands)?)
    }

    /// Runs every operand of `workload` wavefront-pipelined
    /// ([`dualrail::PipelinedProtocolDriver`]): within each train of
    /// `config.train_length` operands, operand *k+1* is injected as soon
    /// as the input stage acknowledges operand *k*'s spacer instead of
    /// after the global `done` round-trip.  Decoded outcomes and token
    /// latencies match the serial contract-mode cycle, which is what
    /// [`dualrail::Occupancy::One`] runs; the returned
    /// [`PipelineReport`] adds the pipelined figure of merit — the
    /// injection-to-injection cycle time, well below the two-settle
    /// serial cycle at occupancy ≥ 2.
    ///
    /// # Errors
    ///
    /// See [`DualRailInference::run_workload_sliced`], plus the typed
    /// wavefront hazard violations of
    /// [`dualrail::PipelinedProtocolDriver`].
    pub fn run_workload_pipelined(
        &self,
        workload: &InferenceWorkload,
        config: dualrail::PipelineConfig,
    ) -> Result<(DualRailRun, PipelineReport), DatapathError> {
        let operands = workload.dual_rail_operands(self.datapath)?;
        let (run, report) = self.driver.run_workload_pipelined(&operands, config)?;
        Ok((self.decode(run)?, report))
    }

    /// Decodes a driver run into golden-comparable outcomes.
    fn decode(&self, run: ParallelProtocolRun) -> Result<DualRailRun, DatapathError> {
        let outcomes = run
            .results
            .iter()
            .map(|result| self.datapath.decode_outcome(result))
            .collect::<Result<Vec<_>, _>>()?;
        let done_latency = run.done_latency();
        Ok(DualRailRun {
            outcomes,
            latency: run.latency,
            done_latency,
            results: run.results,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::DatapathConfig;
    use dualrail::{rebased_reference_driver, ProtocolDriver};
    use gatesim::{EngineProgram, Simulator};

    /// The sliced protocol driver reproduces a streamed phase-rebased
    /// contract-mode driver on every per-operand figure — decoded
    /// outputs, probes, spacer→valid, valid→spacer, `done` and cycle
    /// times — decodes to the golden outcomes, and is invariant across
    /// thread counts.
    #[test]
    fn sliced_runs_match_golden_and_the_rebased_streamed_driver() {
        let config = DatapathConfig::new(4, 2).unwrap();
        let datapath = DualRailDatapath::generate(&config).unwrap();
        let library = Library::umc_ll();
        let workload = InferenceWorkload::random(&config, 9, 0.6, 5).unwrap();
        let operands = workload.dual_rail_operands(&datapath).unwrap();

        let program = Arc::new(EngineProgram::new(datapath.circuit().netlist(), &library));
        let snapshot = ProtocolDriver::from_program(datapath.circuit(), Arc::clone(&program))
            .unwrap()
            .quiescent_snapshot();
        let mut streamed = rebased_reference_driver(
            datapath.circuit(),
            Simulator::from_program(program),
            snapshot,
        )
        .unwrap();
        let expected: Vec<_> = operands
            .iter()
            .map(|operand| streamed.apply_operand(operand).unwrap())
            .collect();

        for threads in [1, 2, 7] {
            let sim = DualRailInference::new(&datapath, &library, threads).unwrap();
            assert_eq!(sim.threads(), threads);
            let run = sim.run_workload_sliced(&workload).unwrap();
            assert_eq!(run.outcomes.as_slice(), workload.expected());
            assert_eq!(run.results, expected, "threads = {threads}");
            assert_eq!(run.latency.count(), workload.len());
            assert!(run.latency.min_ps() > 0.0);
            let done = run.done_latency.as_ref().expect("done present");
            // Completion detection can only fire at or after the last
            // observed output went valid.
            for (done_ps, s_to_v_ps) in done.latencies_ps().iter().zip(run.latency.latencies_ps()) {
                assert!(done_ps >= s_to_v_ps);
            }
        }
    }

    #[test]
    fn decoded_votes_come_from_the_hardware_counters() {
        // The probes must reproduce the golden vote counts bit for bit —
        // not just the final comparison.
        let config = DatapathConfig::new(3, 4).unwrap();
        let datapath = DualRailDatapath::generate(&config).unwrap();
        let library = Library::umc_ll();
        let workload = InferenceWorkload::random(&config, 6, 0.5, 23).unwrap();
        let run = DualRailInference::new(&datapath, &library, 2)
            .unwrap()
            .run_workload_sliced(&workload)
            .unwrap();
        for (outcome, expected) in run.outcomes.iter().zip(workload.expected()) {
            assert_eq!(outcome.positive_votes, expected.positive_votes);
            assert_eq!(outcome.negative_votes, expected.negative_votes);
        }
        // Padded upper count bits decode as constant valid zeros, so
        // every probe is present in every result.
        assert_eq!(run.results[0].probes.len(), 8);
    }

    #[test]
    fn mismatched_workloads_are_rejected() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let other = DatapathConfig::new(4, 2).unwrap();
        let datapath = DualRailDatapath::generate(&config).unwrap();
        let library = Library::umc_ll();
        let sim = DualRailInference::new(&datapath, &library, 2).unwrap();
        let workload = InferenceWorkload::random(&other, 4, 0.5, 1).unwrap();
        assert!(sim.run_workload_sliced(&workload).is_err());
    }
}
