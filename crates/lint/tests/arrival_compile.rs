//! The arrival kernel's compile (`gatesim::ArrivalProgram`) and the
//! static verifier judge monotonic switching alike: every netlist the
//! verifier passes compiles, and the mutants it rejects for a non-unate
//! cell (T201), a direction conflict (T202) or a combinational loop
//! (S004) are typed compile errors.  A driver on such a netlist keeps
//! the event kernel, where the runtime protocol checks apply.
//!
//! The pre-flight hook is never armed in this test binary, so drivers
//! can be built on the mutants.

use std::sync::Arc;

use celllib::Library;
use datapath::{CompletionScheme, DatapathConfig, DatapathOptions, DualRailDatapath};
use dualrail::{DualRailNetlist, ProtocolDriver, SlicedProtocolDriver};
use gatesim::{ArrivalCompileError, EngineProgram, Logic, SlicedSimulator};
use tm_lint::mutate::{base_circuit, mutant, MutationKind};
use tm_lint::{lint_dual_rail, DiagCode, LintConfig};

/// The program, canonical snapshot and arrival compile of `circuit`.
fn compile<'a>(
    circuit: &'a DualRailNetlist,
    library: &Library,
) -> (
    Arc<EngineProgram<'a>>,
    Arc<[Logic]>,
    Result<(), ArrivalCompileError>,
) {
    let program = Arc::new(EngineProgram::new(circuit.netlist(), library));
    let snapshot = ProtocolDriver::from_program(circuit, Arc::clone(&program))
        .expect("the circuit settles")
        .quiescent_snapshot();
    let compiled = program.arrival_program(&snapshot).map(drop);
    (program, snapshot, compiled)
}

#[test]
fn lint_clean_netlists_compile() {
    let library = Library::umc_ll();
    for seed in 0..6 {
        let base = base_circuit(seed);
        assert!(
            lint_dual_rail(&base, &library, &LintConfig::default()).is_clean(),
            "base circuit (seed {seed}) lints clean"
        );
        let (_, _, compiled) = compile(&base, &library);
        assert_eq!(compiled, Ok(()), "base circuit (seed {seed})");
    }
    for (features, clauses) in [(3, 2), (5, 4), (12, 8)] {
        for completion in [CompletionScheme::Reduced, CompletionScheme::Full] {
            let config = DatapathConfig::new(features, clauses).expect("valid shape");
            let options = DatapathOptions {
                completion,
                ..DatapathOptions::paper_defaults()
            };
            let datapath = DualRailDatapath::generate_with(&config, options).expect("generation");
            let report = lint_dual_rail(datapath.circuit(), &library, &LintConfig::default());
            assert_eq!(
                report.error_count(),
                0,
                "{features}x{clauses} {completion:?}"
            );
            let (_, _, compiled) = compile(datapath.circuit(), &library);
            assert_eq!(compiled, Ok(()), "{features}x{clauses} {completion:?}");
        }
    }
}

#[test]
fn monotonicity_and_loop_mutants_are_compile_errors() {
    let library = Library::umc_ll();
    for kind in [
        MutationKind::NonUnateGate,
        MutationKind::DirectionConflict,
        MutationKind::CombinationalLoop,
    ] {
        for seed in 0..3 {
            let broken = mutant(kind, seed);
            let report = lint_dual_rail(&broken, &library, &LintConfig::default());
            assert!(report.has_code(kind.expected_code()));
            let (_, _, compiled) = compile(&broken, &library);
            let expected = match kind.expected_code() {
                DiagCode::CombinationalLoop => {
                    matches!(compiled, Err(ArrivalCompileError::Loop { .. }))
                }
                _ => matches!(compiled, Err(ArrivalCompileError::NonMonotone { .. })),
            };
            assert!(
                expected,
                "mutant {} (seed {seed}) must not compile: {compiled:?}",
                kind.as_str()
            );
        }
    }
}

#[test]
fn a_driver_on_a_non_unate_mutant_keeps_the_event_kernel() {
    let library = Library::umc_ll();
    let broken = mutant(MutationKind::NonUnateGate, 2);
    let (program, snapshot, compiled) = compile(&broken, &library);
    assert!(matches!(
        compiled,
        Err(ArrivalCompileError::NonMonotone {
            kind: netlist::CellKind::Xor2,
            ..
        })
    ));
    let driver = |event_limit: Option<u64>| {
        let mut driver = SlicedProtocolDriver::from_sliced_simulator(
            &broken,
            SlicedSimulator::from_program(Arc::clone(&program)),
            Arc::clone(&snapshot),
            true,
        )
        .expect("no pre-flight is armed");
        if let Some(limit) = event_limit {
            driver.set_event_limit(limit);
        }
        driver
    };
    // The reference pins the event kernel with a non-default event
    // limit; the default driver must give the same word, typed errors
    // included: the XOR on the `yx` rail glitches or forges a codeword
    // for every operand that moves both of its inputs.
    let (mut default, mut reference) = (driver(None), driver(Some(1_000_000)));
    let operands: Vec<Vec<bool>> = (0..8u32)
        .map(|p| (0..3).map(|i| p & (1 << i) != 0).collect())
        .collect();
    for word in [&operands[..1], &operands[..], &operands[5..]] {
        let got = default.apply_word(word);
        assert_eq!(got, reference.apply_word(word));
        assert!(
            word.len() == 1 || got.iter().any(Result::is_err),
            "the non-unate rail is caught at run time"
        );
    }
}
