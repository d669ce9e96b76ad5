//! The complete dual-rail asynchronous inference datapath.

use dualrail::{
    CompletionReport, DualRailNetlist, DualRailSignal, DualRailValue, FullCompletion,
    OperandResult, ReducedCompletion,
};
use netlist::Netlist;
use tsetlin::ExcludeMasks;

use crate::clause_logic::dual_rail_clause;
use crate::comparator::dual_rail_comparator;
use crate::popcount::dual_rail_popcount8;
use crate::reference::{ComparatorDecision, InferenceOutcome};
use crate::{DatapathConfig, DatapathError};

/// The count-signal probes the generator declares, LSB first: the
/// positive bank's, then the negative bank's.
const COUNT_PROBES: [[&str; 4]; 2] = [
    ["pcp0", "pcp1", "pcp2", "pcp3"],
    ["pcn0", "pcn1", "pcn2", "pcn3"],
];

/// Which completion-detection scheme the generated datapath uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompletionScheme {
    /// The paper's reduced scheme: only the primary outputs are observed;
    /// internal valid→spacer completion is covered by the grace period.
    #[default]
    Reduced,
    /// The conventional scheme observing internal signals as well
    /// (ablation baseline: more gates, no early `done`).
    Full,
}

/// Generation options beyond the basic dimensions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DatapathOptions {
    /// Completion-detection scheme to insert.
    pub completion: CompletionScheme,
    /// Whether to place C-element latches on every input rail (the
    /// asynchronous counterpart of the single-rail input registers).
    /// Enabled by default via [`DatapathOptions::default`] in
    /// [`DualRailDatapath::generate`].
    pub input_latches: bool,
}

impl DatapathOptions {
    /// The options used by [`DualRailDatapath::generate`]: reduced
    /// completion detection and C-element input latches.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            completion: CompletionScheme::Reduced,
            input_latches: true,
        }
    }
}

/// The generated dual-rail asynchronous Tsetlin-machine inference
/// datapath.
#[derive(Clone, Debug)]
pub struct DualRailDatapath {
    circuit: DualRailNetlist,
    config: DatapathConfig,
    options: DatapathOptions,
    completion: CompletionReport,
    clause_signals: Vec<DualRailSignal>,
    count_signals: Vec<DualRailSignal>,
}

impl DualRailDatapath {
    /// Generates the datapath with the paper's default options (reduced
    /// completion detection, C-element input latches).
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn generate(config: &DatapathConfig) -> Result<Self, DatapathError> {
        Self::generate_with(config, DatapathOptions::paper_defaults())
    }

    /// Generates the datapath with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn generate_with(
        config: &DatapathConfig,
        options: DatapathOptions,
    ) -> Result<Self, DatapathError> {
        let mut dr = DualRailNetlist::new("tm_inference_dual_rail");
        let clauses = config.clauses_per_polarity();
        let features_count = config.features();
        let literals = config.literals_per_clause();

        // Primary inputs: features first, then the exclude bundles of the
        // positive bank, then those of the negative bank.  The request
        // input gates the optional C-element input latches.
        let request = if options.input_latches {
            Some(dr.netlist_mut().add_input("req"))
        } else {
            None
        };
        let feature_names: Vec<String> = (0..features_count).map(|m| format!("f{m}")).collect();
        let mut features: Vec<DualRailSignal> = feature_names
            .iter()
            .map(|name| dr.add_dual_input(name.as_str()))
            .collect();
        let mut positive_excludes: Vec<Vec<DualRailSignal>> = (0..clauses)
            .map(|j| {
                (0..literals)
                    .map(|l| dr.add_dual_input(format!("ep{j}_{l}")))
                    .collect()
            })
            .collect();
        let mut negative_excludes: Vec<Vec<DualRailSignal>> = (0..clauses)
            .map(|j| {
                (0..literals)
                    .map(|l| dr.add_dual_input(format!("en{j}_{l}")))
                    .collect()
            })
            .collect();
        // Only the features change per inference; the exclude masks are
        // a trained model's, held over its whole stream of operands.
        dr.declare_varying_inputs(&feature_names)?;

        // Optional C-element input latches (the paper's asynchronous
        // replacement for the single-rail input flip-flops).
        if let Some(req) = request {
            features = features
                .iter()
                .enumerate()
                .map(|(m, &sig)| dr.latch(&format!("lat_f{m}"), sig, req))
                .collect::<Result<_, _>>()?;
            positive_excludes = positive_excludes
                .iter()
                .enumerate()
                .map(|(j, bundle)| {
                    bundle
                        .iter()
                        .enumerate()
                        .map(|(l, &sig)| dr.latch(&format!("lat_ep{j}_{l}"), sig, req))
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<_, _>>()?;
            negative_excludes = negative_excludes
                .iter()
                .enumerate()
                .map(|(j, bundle)| {
                    bundle
                        .iter()
                        .enumerate()
                        .map(|(l, &sig)| dr.latch(&format!("lat_en{j}_{l}"), sig, req))
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<_, _>>()?;
        }

        // Clause banks.
        let mut clause_signals = Vec::with_capacity(2 * clauses);
        let mut positive_clauses = Vec::with_capacity(clauses);
        for (j, bundle) in positive_excludes.iter().enumerate() {
            let clause = dual_rail_clause(&mut dr, &format!("cp{j}"), &features, bundle)?;
            positive_clauses.push(clause);
            clause_signals.push(clause);
        }
        let mut negative_clauses = Vec::with_capacity(clauses);
        for (j, bundle) in negative_excludes.iter().enumerate() {
            let clause = dual_rail_clause(&mut dr, &format!("cn{j}"), &features, bundle)?;
            negative_clauses.push(clause);
            clause_signals.push(clause);
        }

        // Population counters.  The count bits are internal — exporting
        // them as primary outputs would change the completion network —
        // but the inference decoders need them, so they are declared as
        // protocol *probes*: decoded every valid phase, never observed
        // by the handshake.
        let positive_count = dual_rail_popcount8(&mut dr, "pcp", &positive_clauses)?;
        let negative_count = dual_rail_popcount8(&mut dr, "pcn", &negative_clauses)?;
        let count_signals: Vec<DualRailSignal> = positive_count
            .iter()
            .chain(negative_count.iter())
            .copied()
            .collect();
        for (names, bits) in COUNT_PROBES.iter().zip([&positive_count, &negative_count]) {
            for (&name, &bit) in names.iter().zip(bits.iter()) {
                dr.declare_probe(name, bit);
            }
        }

        // Magnitude comparator with the 1-of-3 output.
        let comparator = dual_rail_comparator(&mut dr, "cmp", &positive_count, &negative_count)?;
        dr.add_one_of_n_output("cmp", comparator.wires());

        // Completion detection.  The full scheme additionally observes the
        // clause outputs — genuine internal dual-rail signals that always
        // cycle through the spacer.  The count bits are not observed: when
        // the counter is padded (fewer than eight clauses per polarity)
        // its upper bits are partially constant and would hold `done` high
        // forever.
        let completion = match options.completion {
            CompletionScheme::Reduced => ReducedCompletion::insert(&mut dr)?,
            CompletionScheme::Full => FullCompletion::insert(&mut dr, &clause_signals)?,
        };

        Ok(Self {
            circuit: dr,
            config: *config,
            options,
            completion,
            clause_signals,
            count_signals,
        })
    }

    /// The dual-rail circuit (for protocol driving and CD inspection).
    #[must_use]
    pub fn circuit(&self) -> &DualRailNetlist {
        &self.circuit
    }

    /// The underlying flat netlist (for STA, area and power accounting).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.circuit.netlist()
    }

    /// The configuration this datapath was generated from.
    #[must_use]
    pub fn config(&self) -> &DatapathConfig {
        &self.config
    }

    /// The options this datapath was generated with.
    #[must_use]
    pub fn options(&self) -> &DatapathOptions {
        &self.options
    }

    /// The completion-detection insertion report.
    #[must_use]
    pub fn completion(&self) -> &CompletionReport {
        &self.completion
    }

    /// The dual-rail clause outputs (positive bank first), useful for
    /// distribution analyses and the full-CD ablation.
    #[must_use]
    pub fn clause_signals(&self) -> &[DualRailSignal] {
        &self.clause_signals
    }

    /// The dual-rail population-count outputs (positive bank's four bits,
    /// then the negative bank's four bits).
    #[must_use]
    pub fn count_signals(&self) -> &[DualRailSignal] {
        &self.count_signals
    }

    /// Flattens a feature vector and a set of exclude masks into the
    /// operand bit vector expected by
    /// [`dualrail::ProtocolDriver::apply_operand`] (one bit per dual-rail
    /// input, in declaration order).
    ///
    /// # Errors
    ///
    /// Returns width-mismatch errors if the feature vector or the masks
    /// do not match this datapath's configuration.
    pub fn operand_bits(
        &self,
        features: &[bool],
        masks: &ExcludeMasks,
    ) -> Result<Vec<bool>, DatapathError> {
        if features.len() != self.config.features() {
            return Err(DatapathError::WidthMismatch {
                what: "feature vector",
                expected: self.config.features(),
                got: features.len(),
            });
        }
        if masks.feature_count() != self.config.features() {
            return Err(DatapathError::WidthMismatch {
                what: "exclude masks (feature count)",
                expected: self.config.features(),
                got: masks.feature_count(),
            });
        }
        if masks.clauses_per_polarity() != self.config.clauses_per_polarity() {
            return Err(DatapathError::WidthMismatch {
                what: "exclude masks (clause count)",
                expected: self.config.clauses_per_polarity(),
                got: masks.clauses_per_polarity(),
            });
        }
        let mut bits = Vec::with_capacity(self.config.data_input_count());
        bits.extend_from_slice(features);
        for mask in masks.positive() {
            bits.extend_from_slice(mask);
        }
        for mask in masks.negative() {
            bits.extend_from_slice(mask);
        }
        Ok(bits)
    }

    /// Decodes the comparator's 1-of-3 output from a protocol-driver
    /// result.  The vote counts themselves are internal to the datapath
    /// (the paper's primary output is the comparison); use
    /// [`crate::reference::infer`] for the golden counts.
    ///
    /// # Errors
    ///
    /// Returns [`DatapathError::DecodeFailure`] if the comparator group
    /// is missing from the result or carries an invalid index.
    pub fn decode_decision(
        &self,
        result: &OperandResult,
    ) -> Result<ComparatorDecision, DatapathError> {
        let (_, index) = result
            .one_of_n
            .iter()
            .find(|(name, _)| name == "cmp")
            .ok_or_else(|| {
                DatapathError::DecodeFailure("comparator 1-of-3 group missing".to_string())
            })?;
        ComparatorDecision::from_index(*index).ok_or_else(|| {
            DatapathError::DecodeFailure(format!("invalid comparator index {index}"))
        })
    }

    /// Whether a protocol-driver result classifies the operand as
    /// belonging to the class (non-negative vote sum, i.e. the comparator
    /// did not report "less").
    ///
    /// # Errors
    ///
    /// Propagates [`DualRailDatapath::decode_decision`] failures.
    pub fn decode_in_class(&self, result: &OperandResult) -> Result<bool, DatapathError> {
        Ok(self.decode_decision(result)? != ComparatorDecision::Less)
    }

    /// Decodes the two hardware vote counts `(positive, negative)` from
    /// the count-signal probes the generator declares (`pcp0..pcp3`,
    /// `pcn0..pcn3`, LSB first).
    ///
    /// # Errors
    ///
    /// Returns [`DatapathError::DecodeFailure`] if a count probe is
    /// missing from the result or did not settle to a valid codeword.
    pub fn decode_votes(&self, result: &OperandResult) -> Result<(usize, usize), DatapathError> {
        let count = |names: &[&str; 4]| -> Result<usize, DatapathError> {
            names
                .iter()
                .enumerate()
                .try_fold(0usize, |acc, (i, &name)| {
                    let value = result
                        .probes
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| {
                            DatapathError::DecodeFailure(format!("count probe {name:?} missing"))
                        })?;
                    match value {
                        DualRailValue::Valid(bit) => Ok(acc + (usize::from(bit) << i)),
                        other => Err(DatapathError::DecodeFailure(format!(
                            "count probe {name:?} is {other:?} when a valid codeword was expected"
                        ))),
                    }
                })
        };
        Ok((count(&COUNT_PROBES[0])?, count(&COUNT_PROBES[1])?))
    }

    /// Decodes a protocol-driver result into the full
    /// [`InferenceOutcome`] (comparator decision plus both hardware vote
    /// counts), directly comparable with the software golden model.
    ///
    /// # Errors
    ///
    /// Propagates [`DualRailDatapath::decode_decision`] and
    /// [`DualRailDatapath::decode_votes`] failures.
    pub fn decode_outcome(
        &self,
        result: &OperandResult,
    ) -> Result<InferenceOutcome, DatapathError> {
        let decision = self.decode_decision(result)?;
        let (positive_votes, negative_votes) = self.decode_votes(result)?;
        Ok(InferenceOutcome {
            positive_votes,
            negative_votes,
            decision,
            in_class: decision != ComparatorDecision::Less,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::workload::InferenceWorkload;
    use celllib::Library;
    use dualrail::ProtocolDriver;
    use netlist::NetlistStats;

    fn small_config() -> DatapathConfig {
        DatapathConfig::new(3, 4).unwrap()
    }

    #[test]
    fn generated_datapath_is_structurally_sound() {
        let dp = DualRailDatapath::generate(&small_config()).unwrap();
        dp.netlist().validate().unwrap();
        assert!(dualrail::check_unate(dp.netlist()).is_ok());
        assert!(dp.circuit().done().is_some());
        assert_eq!(dp.clause_signals().len(), 8);
        assert_eq!(dp.count_signals().len(), 8);
        let stats = NetlistStats::of(dp.netlist());
        // C-element input latches: two per dual-rail data input, plus the
        // completion-detection C-element tree.
        assert!(stats.sequential_count >= 2 * dp.config().data_input_count());
        assert_eq!(dp.options(), &DatapathOptions::paper_defaults());
    }

    #[test]
    fn dual_rail_datapath_matches_reference_over_a_workload() {
        let config = small_config();
        let dp = DualRailDatapath::generate(&config).unwrap();
        let workload = InferenceWorkload::random(&config, 12, 0.6, 21).unwrap();
        let lib = Library::umc_ll();
        let mut driver = ProtocolDriver::new(dp.circuit(), &lib).unwrap();
        let operands = workload.dual_rail_operands(&dp).unwrap();
        for (operand, expected) in operands.iter().zip(workload.expected()) {
            let result = driver.apply_operand(operand).unwrap();
            let decision = dp.decode_decision(&result).unwrap();
            assert_eq!(decision, expected.decision);
            assert_eq!(dp.decode_in_class(&result).unwrap(), expected.in_class);
            assert!(result.s_to_v_latency_ps > 0.0);
        }
    }

    #[test]
    fn full_completion_costs_more_than_reduced() {
        let config = small_config();
        let reduced = DualRailDatapath::generate(&config).unwrap();
        let full = DualRailDatapath::generate_with(
            &config,
            DatapathOptions {
                completion: CompletionScheme::Full,
                input_latches: true,
            },
        )
        .unwrap();
        assert!(full.completion().gates_added > reduced.completion().gates_added);
        assert!(full.completion().observed_groups > reduced.completion().observed_groups);
    }

    #[test]
    fn datapath_without_latches_has_fewer_sequential_cells() {
        let config = small_config();
        let latched = DualRailDatapath::generate(&config).unwrap();
        let unlatched = DualRailDatapath::generate_with(
            &config,
            DatapathOptions {
                completion: CompletionScheme::Reduced,
                input_latches: false,
            },
        )
        .unwrap();
        let seq = |dp: &DualRailDatapath| NetlistStats::of(dp.netlist()).sequential_count;
        assert!(seq(&latched) > seq(&unlatched));
    }

    #[test]
    fn operand_bits_round_trips_reference_outcomes() {
        let config = small_config();
        let dp = DualRailDatapath::generate(&config).unwrap();
        let workload = InferenceWorkload::random(&config, 4, 0.5, 3).unwrap();
        for (vector, expected) in workload.feature_vectors().iter().zip(workload.expected()) {
            let bits = dp.operand_bits(vector, workload.masks()).unwrap();
            assert_eq!(bits.len(), config.data_input_count());
            assert_eq!(reference::infer(workload.masks(), vector), *expected);
        }
    }

    #[test]
    fn mismatched_operand_inputs_are_rejected() {
        let config = small_config();
        let dp = DualRailDatapath::generate(&config).unwrap();
        let wrong_masks =
            tsetlin::ExcludeMasks::from_raw(vec![vec![true; 4]; 4], vec![vec![true; 4]; 4], 2);
        assert!(dp.operand_bits(&[true, false, true], &wrong_masks).is_err());
        let masks =
            tsetlin::ExcludeMasks::from_raw(vec![vec![true; 6]; 4], vec![vec![true; 6]; 4], 3);
        assert!(dp.operand_bits(&[true, false], &masks).is_err());
    }
}
