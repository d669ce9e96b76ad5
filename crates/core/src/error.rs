//! Error type shared by the dual-rail design and protocol modules.

use std::error::Error;
use std::fmt;

use netlist::{CellKind, NetlistError};

/// Errors produced while building or exercising dual-rail circuits.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum DualRailError {
    /// An underlying netlist construction step failed.
    Netlist(NetlistError),
    /// A gate kind that cannot appear in a dual-rail netlist was
    /// encountered (non-unate, or unsupported by the expansion).
    UnsupportedCell {
        /// The offending kind.
        kind: CellKind,
        /// Instance name of the offending cell.
        cell_name: String,
    },
    /// A named dual-rail signal does not exist.
    UnknownSignal(String),
    /// The circuit violated the dual-rail protocol during simulation.
    ProtocolViolation {
        /// Human-readable description of the violation.
        description: String,
    },
    /// An output reached the forbidden dual-rail state (both rails
    /// active) or an over-populated 1-of-n code — the codeword the
    /// encoding reserves as *impossible* in a healthy circuit, and
    /// therefore the self-checking design's signature of a gate-level
    /// fault (stuck-at or SEU) rather than of data.
    IllegalCodeword {
        /// Name of the offending output signal or 1-of-n group.
        output: String,
        /// Human-readable description of the observed codeword.
        description: String,
    },
    /// The netlist has no dual-rail outputs, so completion detection has
    /// nothing to observe.
    NoOutputs,
    /// The simulator failed to reach quiescence (oscillation).
    SimulationDiverged,
    /// A vector of operand bits had the wrong width.
    OperandWidthMismatch {
        /// Number of dual-rail inputs of the circuit.
        expected: usize,
        /// Number of bits supplied.
        got: usize,
    },
    /// The settled state after a return-to-zero phase diverged from the
    /// canonical quiescent snapshot — the reset-phase sharding contract
    /// does not hold for this circuit, so sharding its operand stream
    /// would change results.
    SpacerStateMismatch {
        /// Human-readable description naming the first diverging net.
        description: String,
    },
    /// The installed static pre-flight verifier
    /// ([`crate::preflight::install_hook`]) rejected the netlist before
    /// any simulation ran — a structural, dual-rail-protocol or timing
    /// invariant that the runtime would only catch dynamically (if at
    /// all) is provably violated.
    StaticVerification {
        /// Rendered findings from the verifier.
        report: String,
    },
}

impl fmt::Display for DualRailError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DualRailError::Netlist(e) => write!(f, "netlist construction failed: {e}"),
            DualRailError::UnsupportedCell { kind, cell_name } => write!(
                f,
                "cell {cell_name:?} of kind {kind} cannot be used in a dual-rail netlist"
            ),
            DualRailError::UnknownSignal(name) => {
                write!(f, "no dual-rail signal named {name:?} exists")
            }
            DualRailError::ProtocolViolation { description } => {
                write!(f, "dual-rail protocol violation: {description}")
            }
            DualRailError::IllegalCodeword {
                output,
                description,
            } => {
                write!(
                    f,
                    "illegal codeword on output {output:?}: {description} \
                     (both-rails-active states cannot arise in a healthy circuit — \
                     this is the dual-rail encoding detecting a gate-level fault)"
                )
            }
            DualRailError::NoOutputs => {
                write!(f, "the dual-rail netlist has no outputs to observe")
            }
            DualRailError::SimulationDiverged => {
                write!(f, "simulation failed to settle (possible oscillation)")
            }
            DualRailError::OperandWidthMismatch { expected, got } => write!(
                f,
                "operand has {got} bits but the circuit has {expected} dual-rail inputs"
            ),
            DualRailError::SpacerStateMismatch { description } => {
                write!(f, "reset-phase contract violated: {description}")
            }
            DualRailError::StaticVerification { report } => {
                write!(f, "static pre-flight verification failed: {report}")
            }
        }
    }
}

impl Error for DualRailError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DualRailError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for DualRailError {
    fn from(value: NetlistError) -> Self {
        DualRailError::Netlist(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let err = DualRailError::UnsupportedCell {
            kind: CellKind::Xor2,
            cell_name: "u1".to_string(),
        };
        assert!(err.to_string().contains("XOR2"));
        let err = DualRailError::OperandWidthMismatch {
            expected: 4,
            got: 2,
        };
        assert!(err.to_string().contains('4'));
        assert!(err.to_string().contains('2'));
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let nl_err = NetlistError::DuplicateName("x".into());
        let err: DualRailError = nl_err.clone().into();
        assert_eq!(err, DualRailError::Netlist(nl_err));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<DualRailError>();
    }
}
