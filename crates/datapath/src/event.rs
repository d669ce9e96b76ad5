//! Event-driven inference with per-operand latency, sharded across
//! worker threads.
//!
//! The batch spine answers "how many samples per second"; this module
//! answers the paper's actual question — **how long does each inference
//! take?**  Every operand is driven through the combinational golden
//! model ([`crate::BatchGoldenModel`]) on the event-driven simulator as
//! one return-to-zero cycle (all-zero spacer → settle → operand →
//! settle), so the injection→settle time *is* the data-dependent latency
//! the asynchronous datapath claims: each inference completes exactly as
//! fast as its operand allows.
//!
//! Operands run 64 to a word on the bit-sliced event kernel
//! ([`gatesim::SlicedSimulator`]), and [`gatesim::ParallelEventSim`]
//! shards the words with [`exec::Executor::map_chunks_with`]: the
//! engine compilation is shared read-only (`Arc<EngineProgram>`), each
//! worker owns a private sliced simulator, and results merge in operand
//! order — outcomes and latency reports are bit-identical to streaming
//! the operands through one scalar [`gatesim::Simulator`] with
//! [`gatesim::run_return_to_zero`] and [`decode_operand_run`], at any
//! thread count (property-tested at threads {1, 2, 7}).
//!
//! # Example
//!
//! ```
//! use celllib::Library;
//! use datapath::{BatchGoldenModel, DatapathConfig, EventDrivenInference, InferenceWorkload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = DatapathConfig::new(4, 2)?;
//! let model = BatchGoldenModel::generate(&config)?;
//! let library = Library::umc_ll();
//! let sim = EventDrivenInference::new(&model, &library, 2);
//!
//! let workload = InferenceWorkload::random(&config, 12, 0.7, 42)?;
//! let run = sim.run_workload_sliced(&workload)?;
//! assert_eq!(&run.outcomes, workload.expected());
//! // Per-operand latency in picoseconds — the paper's figure of merit.
//! assert_eq!(run.latency.count(), 12);
//! assert!(run.latency.max_ps() > 0.0);
//! # Ok(())
//! # }
//! ```

use celllib::Library;
use gatesim::{LatencyReport, Logic, OperandRun, ParallelEventSim};
use tsetlin::ExcludeMasks;

use crate::batch::{check_masks, BatchGoldenModel};
use crate::reference::{ComparatorDecision, InferenceOutcome};
use crate::workload::InferenceWorkload;
use crate::{DatapathConfig, DatapathError};

/// Result of an event-driven workload run: one golden-comparable outcome
/// per operand plus the per-operand latency report.
#[derive(Clone, Debug, PartialEq)]
pub struct EventDrivenRun {
    /// Decoded inference outcomes, in operand order.
    pub outcomes: Vec<InferenceOutcome>,
    /// Injection→settle latency of every operand, in operand order, with
    /// min/median/max/histogram summaries.
    pub latency: LatencyReport,
}

/// Event-driven inference over the combinational golden model with the
/// operand stream sharded in 64-lane words across worker threads.
///
/// Construction compiles the netlist once; `run_workload_sliced` takes
/// `&self` (all mutable state is per worker), so one instance can serve
/// many workloads.  See the [module documentation](self) for the
/// determinism contract and an example.
#[derive(Debug)]
pub struct EventDrivenInference<'a> {
    sim: ParallelEventSim<'a>,
    config: DatapathConfig,
}

impl<'a> EventDrivenInference<'a> {
    /// Compiles the golden-model netlist for event-driven simulation
    /// (delays from `library` at its current supply voltage and corner)
    /// and prepares `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(model: &'a BatchGoldenModel, library: &Library, threads: usize) -> Self {
        Self {
            sim: ParallelEventSim::new(model.netlist(), library, threads),
            config: *model.config(),
        }
    }

    /// Number of worker threads the operand stream is sharded across.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.sim.threads()
    }

    /// Routes every worker's engine instruments into `registry` under
    /// `prefix` (see [`ParallelEventSim::set_metrics`]): word workers
    /// flush `"<prefix>.sliced.*"`, and snapshots are bit-identical at
    /// any thread count.
    pub fn set_metrics(
        &mut self,
        registry: &std::sync::Arc<tm_obs::MetricsRegistry>,
        prefix: &str,
    ) {
        self.sim.set_metrics(registry, prefix);
    }

    /// Stops routing metrics; future runs revert to the zero-overhead
    /// disabled mode.
    pub fn clear_metrics(&mut self) {
        self.sim.clear_metrics();
    }

    /// Runs every operand of `workload` through a return-to-zero
    /// event-driven cycle on the bit-sliced event kernel
    /// ([`gatesim::SlicedSimulator`]): operands are packed 64 to a word,
    /// every merged event advances all lanes of its word at once, and
    /// words are sharded across workers.  Returns the decoded outcomes
    /// (comparable with [`InferenceWorkload::expected`]) plus the
    /// per-operand latency report — both in operand order, bit-identical
    /// at any thread count and to the streamed scalar engine (the sliced
    /// kernel reproduces it per lane exactly).
    ///
    /// # Errors
    ///
    /// Returns width mismatches for masks that do not match the model's
    /// configuration and decode failures if a settled operand's
    /// comparator outputs are not one-hot or any output is X.
    pub fn run_workload_sliced(
        &self,
        workload: &InferenceWorkload,
    ) -> Result<EventDrivenRun, DatapathError> {
        self.run_features_sliced(workload.masks(), workload.feature_vectors())
    }

    /// Runs an explicit batch of feature vectors (owned `&[Vec<bool>]`
    /// or borrowed `&[&[bool]]`, e.g. a serving micro-batch) against
    /// `masks` on the bit-sliced event kernel and returns decoded
    /// outcomes plus the per-operand latency report, both in input
    /// order; see [`EventDrivenInference::run_workload_sliced`].
    ///
    /// # Errors
    ///
    /// See [`EventDrivenInference::run_workload_sliced`].
    pub fn run_features_sliced<V: AsRef<[bool]>>(
        &self,
        masks: &ExcludeMasks,
        feature_vectors: &[V],
    ) -> Result<EventDrivenRun, DatapathError> {
        check_masks(&self.config, masks)?;
        for vector in feature_vectors {
            if vector.as_ref().len() != self.config.features() {
                return Err(DatapathError::WidthMismatch {
                    what: "feature vector",
                    expected: self.config.features(),
                    got: vector.as_ref().len(),
                });
            }
        }
        let operands = operand_bit_vectors(&self.config, masks, feature_vectors);
        let runs = self.sim.run_operands_sliced(&operands);
        let latency = LatencyReport::from_runs(&runs);
        let outcomes = runs
            .iter()
            .enumerate()
            .map(|(k, run)| decode_operand_run(run, k))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EventDrivenRun { outcomes, latency })
    }
}

/// Flattens each feature vector with the shared exclude masks into the
/// golden model's primary-input order (features, then the positive bank,
/// then the negative bank).
///
/// Public so that harnesses driving the event engines directly (e.g.
/// the fault-injection campaign, which installs a
/// [`gatesim::FaultPlan`] before running) can produce the exact operand
/// encoding [`EventDrivenInference`] uses.
pub fn operand_bit_vectors<V: AsRef<[bool]>>(
    config: &DatapathConfig,
    masks: &ExcludeMasks,
    feature_vectors: &[V],
) -> Vec<Vec<bool>> {
    let mut mask_bits = Vec::with_capacity(config.data_input_count() - config.features());
    for bank in [masks.positive(), masks.negative()] {
        for mask in bank {
            mask_bits.extend_from_slice(mask);
        }
    }
    feature_vectors
        .iter()
        .map(|features| {
            let mut bits = Vec::with_capacity(config.data_input_count());
            bits.extend_from_slice(features.as_ref());
            bits.extend_from_slice(&mask_bits);
            bits
        })
        .collect()
}

/// Decodes one settled operand run (primary outputs `less`, `equal`,
/// `greater`, then the two 4-bit vote counts, LSB first) into an
/// [`InferenceOutcome`].
///
/// Any X output and any non-one-hot comparator pattern is a
/// [`DatapathError::DecodeFailure`] — on a healthy circuit neither can
/// occur, so a decode failure on a faulted run counts as the datapath
/// *detecting* the fault.  Public for harnesses that run the event
/// engines directly (e.g. the fault-injection campaign).
pub fn decode_operand_run(
    run: &OperandRun,
    operand: usize,
) -> Result<InferenceOutcome, DatapathError> {
    let bit = |value: Logic, what: &str| -> Result<bool, DatapathError> {
        value.to_option().ok_or_else(|| {
            DatapathError::DecodeFailure(format!("operand {operand}: {what} settled to X"))
        })
    };
    // An X on any comparator rail is a decode failure in its own right —
    // treating it as "inactive" could fake a one-hot pattern.
    let mut active = Vec::with_capacity(1);
    for i in 0..3 {
        if bit(run.outputs[i], "comparator output")? {
            active.push(i);
        }
    }
    let &[index] = active.as_slice() else {
        return Err(DatapathError::DecodeFailure(format!(
            "operand {operand}: expected exactly one active comparator output, got {active:?}"
        )));
    };
    let decode_count =
        |range: std::ops::Range<usize>, what: &str| -> Result<usize, DatapathError> {
            range
                .clone()
                .zip(0..)
                .try_fold(0usize, |acc, (slot, weight)| {
                    Ok(acc + (usize::from(bit(run.outputs[slot], what)?) << weight))
                })
        };
    let positive_votes = decode_count(3..7, "positive vote count")?;
    let negative_votes = decode_count(7..11, "negative vote count")?;
    let decision = ComparatorDecision::from_index(index)
        .expect("index comes from a three-element enumeration");
    Ok(InferenceOutcome {
        positive_votes,
        negative_votes,
        decision,
        in_class: decision != ComparatorDecision::Less,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Streams every operand of `workload` through one scalar
    /// simulator: the reference the sliced engine must reproduce.
    fn streamed(
        model: &BatchGoldenModel,
        library: &Library,
        workload: &InferenceWorkload,
    ) -> EventDrivenRun {
        let operands =
            operand_bit_vectors(model.config(), workload.masks(), workload.feature_vectors());
        let mut sim = gatesim::Simulator::new(model.netlist(), library);
        let runs: Vec<OperandRun> = operands
            .iter()
            .map(|operand| gatesim::run_return_to_zero(&mut sim, operand))
            .collect();
        let outcomes = runs
            .iter()
            .enumerate()
            .map(|(k, run)| decode_operand_run(run, k).unwrap())
            .collect();
        EventDrivenRun {
            outcomes,
            latency: LatencyReport::from_runs(&runs),
        }
    }

    /// The sliced kernel reproduces the streamed scalar event engine
    /// per lane exactly, so the whole run — golden outcomes and every
    /// per-operand latency — is bit-identical, at any thread count and
    /// across partial final words (77 operands = one full word + 13
    /// lanes).
    #[test]
    fn sliced_runs_match_golden_and_the_streamed_scalar_engine() {
        let config = DatapathConfig::new(5, 4).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let library = Library::umc_ll();
        let workload = InferenceWorkload::random(&config, 77, 0.7, 9).unwrap();

        let reference = streamed(&model, &library, &workload);
        assert_eq!(reference.outcomes.as_slice(), workload.expected());
        assert!(reference.latency.max_ps() > 0.0);
        assert!(reference.latency.min_ps() <= reference.latency.median_ps());
        for threads in [1, 2, 7] {
            let sim = EventDrivenInference::new(&model, &library, threads);
            assert_eq!(sim.threads(), threads);
            let run = sim.run_workload_sliced(&workload).unwrap();
            assert_eq!(run, reference, "threads = {threads}");
        }
    }

    #[test]
    fn sliced_wrong_width_feature_vectors_are_errors_not_panics() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let library = Library::umc_ll();
        let sim = EventDrivenInference::new(&model, &library, 1);
        let workload = InferenceWorkload::random(&config, 1, 0.5, 1).unwrap();
        let short = vec![vec![true, false]];
        let err = sim
            .run_features_sliced(workload.masks(), &short)
            .unwrap_err();
        assert!(matches!(
            err,
            DatapathError::WidthMismatch {
                what: "feature vector",
                ..
            }
        ));
    }

    #[test]
    fn latency_depends_on_the_operand() {
        // The figure-of-merit property: different operands settle at
        // different times, so the report spreads (this is what the
        // early-propagative design exploits).
        let config = DatapathConfig::new(6, 4).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let library = Library::umc_ll();
        let workload = InferenceWorkload::random(&config, 32, 0.6, 3).unwrap();
        let run = EventDrivenInference::new(&model, &library, 2)
            .run_workload_sliced(&workload)
            .unwrap();
        assert!(
            run.latency.min_ps() < run.latency.max_ps(),
            "expected a data-dependent latency spread, got min == max == {}",
            run.latency.min_ps()
        );
    }

    #[test]
    fn x_outputs_are_decode_failures_not_fake_one_hots() {
        // [One, X, Zero, ...]: counting X as "inactive" would decode as a
        // confident `Less`; the contract says any X fails the decode.
        let mut outputs = vec![Logic::Zero; 11];
        outputs[0] = Logic::One;
        outputs[1] = Logic::Unknown;
        let run = OperandRun {
            outputs,
            latency_ps: 1.0,
            events: 1,
        };
        let err = decode_operand_run(&run, 0).unwrap_err();
        assert!(matches!(err, DatapathError::DecodeFailure(_)));

        // Same for an X vote-count bit behind a valid one-hot comparator.
        let mut outputs = vec![Logic::Zero; 11];
        outputs[2] = Logic::One;
        outputs[5] = Logic::Unknown;
        let run = OperandRun {
            outputs,
            latency_ps: 1.0,
            events: 1,
        };
        assert!(decode_operand_run(&run, 0).is_err());
    }

    #[test]
    fn mismatched_masks_are_rejected() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let other = DatapathConfig::new(4, 2).unwrap();
        let model = BatchGoldenModel::generate(&config).unwrap();
        let library = Library::umc_ll();
        let sim = EventDrivenInference::new(&model, &library, 2);
        let workload = InferenceWorkload::random(&other, 4, 0.5, 1).unwrap();
        assert!(sim.run_workload_sliced(&workload).is_err());
    }
}
