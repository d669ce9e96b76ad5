//! Sharded four-phase inference on the dual-rail datapath — the paper's
//! actual design, measured at workload scale.
//!
//! [`crate::EventDrivenInference`] measures per-operand latency on the
//! *combinational golden model*; this module is its dual-rail sibling:
//! every operand is one complete four-phase handshake cycle on the
//! early-propagative [`DualRailDatapath`] (C-element input latches,
//! reduced completion detection and all), driven by
//! [`dualrail::ParallelProtocolDriver`] with the operand stream sharded
//! across worker threads.  The figures it reports are exactly the
//! paper's Table I quantities — spacer→valid latency and `done`
//! (completion-detection) latency per operand — and the decoded
//! [`InferenceOutcome`]s are directly comparable with the software
//! golden model.
//!
//! Sharding a sequential circuit is sound here because the four-phase
//! protocol restores one quiescent state per cycle (the reset-phase
//! contract), which the driver verifies on every cycle; outcomes and
//! latency reports are bit-identical to a streamed single contract-mode
//! driver at any thread count (property-tested at threads {1, 2, 7}).
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
//! let run = sim.run_workload(&workload)?;
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
use dualrail::{OperandResult, ParallelProtocolDriver};
use exec::Executor;
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
/// [`DualRailInference::run_workload`] takes `&self` (all mutable state
/// is per worker), so one instance can serve many workloads.  See the
/// [module documentation](self) for the contract and an example.
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
        Self::with_executor(datapath, library, Executor::new(threads))
    }

    /// Like [`DualRailInference::new`] with an explicit executor.
    ///
    /// # Errors
    ///
    /// See [`DualRailInference::new`].
    pub fn with_executor(
        datapath: &'a DualRailDatapath,
        library: &Library,
        executor: Executor,
    ) -> Result<Self, DatapathError> {
        // Arm the static pre-flight verifier before the first driver is
        // built: from here on, every `ProtocolDriver` constructed in
        // this process rejects netlists with error-severity findings
        // (`DualRailError::StaticVerification`) before simulating a
        // single event.  Shipped datapaths verify clean; the hook
        // guards hand-edited or retrained netlists.
        tm_lint::preflight::install();
        let driver = ParallelProtocolDriver::with_executor(datapath.circuit(), library, executor)?;
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

    /// Runs every operand of `workload` through a full four-phase cycle
    /// and returns the decoded outcomes (comparable with
    /// [`InferenceWorkload::expected`]) plus the per-operand latency
    /// reports — all in operand order and bit-identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns width mismatches for workloads that do not match the
    /// datapath's configuration, protocol violations and decode failures
    /// from the handshake, and
    /// [`dualrail::DualRailError::SpacerStateMismatch`] (as a
    /// [`DatapathError::DualRail`]) if a cycle breaks the reset-phase
    /// sharding contract.
    pub fn run_workload(&self, workload: &InferenceWorkload) -> Result<DualRailRun, DatapathError> {
        self.run_features(workload.masks(), workload.feature_vectors())
    }

    /// Runs an explicit batch of feature vectors (owned `&[Vec<bool>]`
    /// or borrowed `&[&[bool]]`, e.g. a serving micro-batch) against
    /// `masks` — one full four-phase handshake cycle per vector, sharded
    /// under the reset-phase contract — and returns the decoded outcomes
    /// and latency reports in input order.
    ///
    /// # Errors
    ///
    /// See [`DualRailInference::run_workload`].
    pub fn run_features<V: AsRef<[bool]>>(
        &self,
        masks: &tsetlin::ExcludeMasks,
        feature_vectors: &[V],
    ) -> Result<DualRailRun, DatapathError> {
        let operands = feature_vectors
            .iter()
            .map(|v| self.datapath.operand_bits(v.as_ref(), masks))
            .collect::<Result<Vec<_>, _>>()?;
        let run = self.driver.run_workload(&operands)?;
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

    /// Like [`DualRailInference::run_workload`], but 64 operand lanes
    /// per word on the bit-sliced protocol driver
    /// ([`dualrail::SlicedProtocolDriver`]).  Outcomes, spacer→valid
    /// and `done` latencies are bit-identical to
    /// [`DualRailInference::run_workload`]; the raw `results` report
    /// valid→spacer and cycle times in the phase-rebased timebase
    /// ([`dualrail::ProtocolDriver::enable_phase_rebase`]), identical
    /// up to floating-point association.
    ///
    /// # Errors
    ///
    /// See [`DualRailInference::run_workload`].
    pub fn run_workload_sliced(
        &self,
        workload: &InferenceWorkload,
    ) -> Result<DualRailRun, DatapathError> {
        self.run_features_sliced(workload.masks(), workload.feature_vectors())
    }

    /// Like [`DualRailInference::run_features`], but on the bit-sliced
    /// protocol driver; see
    /// [`DualRailInference::run_workload_sliced`].
    ///
    /// # Errors
    ///
    /// See [`DualRailInference::run_workload`].
    pub fn run_features_sliced<V: AsRef<[bool]>>(
        &self,
        masks: &tsetlin::ExcludeMasks,
        feature_vectors: &[V],
    ) -> Result<DualRailRun, DatapathError> {
        let operands = feature_vectors
            .iter()
            .map(|v| self.datapath.operand_bits(v.as_ref(), masks))
            .collect::<Result<Vec<_>, _>>()?;
        let run = self.driver.run_workload_sliced(&operands)?;
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

    /// Like [`DualRailInference::run_workload`], but wavefront-pipelined
    /// ([`dualrail::PipelinedProtocolDriver`]): within each train of
    /// `config.train_length` operands, operand *k+1* is injected as soon
    /// as the input stage acknowledges operand *k*'s spacer instead of
    /// after the global `done` round-trip.  Decoded outcomes and token
    /// latencies match the unpipelined run; the returned
    /// [`PipelineReport`] adds the pipelined figure of merit — the
    /// injection-to-injection cycle time, well below the two-settle
    /// serial cycle at occupancy ≥ 2.
    ///
    /// # Errors
    ///
    /// See [`DualRailInference::run_workload`], plus the typed wavefront
    /// hazard violations of [`dualrail::PipelinedProtocolDriver`].
    pub fn run_workload_pipelined(
        &self,
        workload: &InferenceWorkload,
        config: dualrail::PipelineConfig,
    ) -> Result<(DualRailRun, PipelineReport), DatapathError> {
        let operands = workload.dual_rail_operands(self.datapath)?;
        let (run, report) = self.driver.run_workload_pipelined(&operands, config)?;
        let outcomes = run
            .results
            .iter()
            .map(|result| self.datapath.decode_outcome(result))
            .collect::<Result<Vec<_>, _>>()?;
        let done_latency = run.done_latency();
        let run = DualRailRun {
            outcomes,
            latency: run.latency,
            done_latency,
            results: run.results,
        };
        Ok((run, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatapathConfig;
    use dualrail::ProtocolDriver;

    #[test]
    fn dual_rail_outcomes_match_golden_at_several_thread_counts() {
        let config = DatapathConfig::new(4, 2).unwrap();
        let datapath = DualRailDatapath::generate(&config).unwrap();
        let library = Library::umc_ll();
        let workload = InferenceWorkload::random(&config, 9, 0.6, 5).unwrap();

        let reference = DualRailInference::new(&datapath, &library, 1)
            .unwrap()
            .run_workload(&workload)
            .unwrap();
        assert_eq!(reference.outcomes.as_slice(), workload.expected());
        assert_eq!(reference.latency.count(), workload.len());
        assert!(reference.latency.min_ps() > 0.0);
        let done = reference.done_latency.as_ref().expect("done present");
        // Completion detection can only fire at or after the last
        // observed output went valid.
        for (done_ps, s_to_v_ps) in done
            .latencies_ps()
            .iter()
            .zip(reference.latency.latencies_ps())
        {
            assert!(done_ps >= s_to_v_ps);
        }

        for threads in [2, 7] {
            let sim = DualRailInference::new(&datapath, &library, threads).unwrap();
            assert_eq!(sim.threads(), threads);
            let run = sim.run_workload(&workload).unwrap();
            assert_eq!(run, reference, "threads = {threads}");
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
            .run_workload(&workload)
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
    fn sharded_run_matches_streamed_contract_driver() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let datapath = DualRailDatapath::generate(&config).unwrap();
        let library = Library::umc_ll();
        let workload = InferenceWorkload::random(&config, 7, 0.7, 2).unwrap();
        let operands = workload.dual_rail_operands(&datapath).unwrap();

        let mut streamed = ProtocolDriver::new(datapath.circuit(), &library).unwrap();
        let snapshot = streamed.quiescent_snapshot();
        streamed.enable_reset_contract(snapshot);
        let expected: Vec<_> = operands
            .iter()
            .map(|operand| streamed.apply_operand(operand).unwrap())
            .collect();

        let run = DualRailInference::new(&datapath, &library, 3)
            .unwrap()
            .run_workload(&workload)
            .unwrap();
        assert_eq!(run.results, expected);
    }

    /// The sliced protocol driver reproduces the plain sharded run on
    /// everything the paper reports — outcomes, spacer→valid and `done`
    /// latencies bit for bit — while the raw valid→spacer and cycle
    /// figures agree up to floating-point association (the sliced
    /// timebase is phase-rebased).  Also pins thread-invariance.
    #[test]
    fn sliced_runs_match_plain_runs_on_all_reported_figures() {
        let config = DatapathConfig::new(4, 2).unwrap();
        let datapath = DualRailDatapath::generate(&config).unwrap();
        let library = Library::umc_ll();
        let workload = InferenceWorkload::random(&config, 9, 0.6, 5).unwrap();

        let plain = DualRailInference::new(&datapath, &library, 1)
            .unwrap()
            .run_workload(&workload)
            .unwrap();
        let reference = DualRailInference::new(&datapath, &library, 1)
            .unwrap()
            .run_workload_sliced(&workload)
            .unwrap();
        assert_eq!(reference.outcomes, plain.outcomes);
        assert_eq!(reference.latency, plain.latency);
        assert_eq!(reference.done_latency, plain.done_latency);
        for (s, p) in reference.results.iter().zip(&plain.results) {
            assert_eq!(s.outputs, p.outputs);
            assert_eq!(s.probes, p.probes);
            assert_eq!(s.s_to_v_latency_ps, p.s_to_v_latency_ps);
            assert_eq!(s.done_latency_ps, p.done_latency_ps);
            assert!((s.v_to_s_latency_ps - p.v_to_s_latency_ps).abs() < 1e-6);
            assert!((s.cycle_time_ps - p.cycle_time_ps).abs() < 1e-6);
        }

        for threads in [2, 7] {
            let run = DualRailInference::new(&datapath, &library, threads)
                .unwrap()
                .run_workload_sliced(&workload)
                .unwrap();
            assert_eq!(run, reference, "threads = {threads}");
        }
    }

    #[test]
    fn mismatched_workloads_are_rejected() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let other = DatapathConfig::new(4, 2).unwrap();
        let datapath = DualRailDatapath::generate(&config).unwrap();
        let library = Library::umc_ll();
        let sim = DualRailInference::new(&datapath, &library, 2).unwrap();
        let workload = InferenceWorkload::random(&other, 4, 0.5, 1).unwrap();
        assert!(sim.run_workload(&workload).is_err());
    }
}
