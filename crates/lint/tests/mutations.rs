//! The mutation-coverage property: the unmutated base circuit lints
//! clean, and every [`MutationKind`] is flagged with exactly the
//! diagnostic code it advertises — across seeds, so the checks do not
//! depend on which input rail the mutation happens to target.

use celllib::Library;
use proptest::prelude::*;
use tm_lint::mutate::{base_circuit, mutant, MutationKind};
use tm_lint::{lint_dual_rail, LintConfig, Severity};

fn lint(dr: &dualrail::DualRailNetlist) -> tm_lint::LintReport {
    lint_dual_rail(dr, &Library::umc_ll(), &LintConfig::default())
}

#[test]
fn base_circuit_is_clean() {
    for seed in 0..6 {
        let report = lint(&base_circuit(seed));
        assert!(
            report.is_clean(),
            "base circuit (seed {seed}) must lint clean:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn every_mutation_kind_is_detected() {
    for kind in MutationKind::ALL {
        for seed in [0, 1, 17, 400] {
            let report = lint(&mutant(kind, seed));
            assert!(
                report.has_code(kind.expected_code()),
                "mutant {} (seed {seed}) must raise {}:\n{}",
                kind.as_str(),
                kind.expected_code().as_str(),
                report.render_text()
            );
            assert!(
                report.error_count() > 0,
                "mutant {} (seed {seed}) must carry at least one error-severity finding",
                kind.as_str()
            );
        }
    }
}

#[test]
fn detected_findings_are_errors_not_warnings() {
    // The pre-flight hook only rejects on error severity, so every
    // advertised code must surface at that severity for its mutant.
    for kind in MutationKind::ALL {
        let report = lint(&mutant(kind, 2));
        let code = kind.expected_code();
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == code && d.severity == Severity::Error),
            "mutant {} must raise {} at error severity:\n{}",
            kind.as_str(),
            code.as_str(),
            report.render_text()
        );
    }
}

#[test]
fn verify_static_rejects_every_mutant() {
    for kind in MutationKind::ALL {
        for seed in [0, 1, 3, 17, 400] {
            let verdict = tm_lint::verify_static(&mutant(kind, seed));
            let report = verdict.expect_err("mutant must fail pre-flight verification");
            assert!(
                report.contains(kind.expected_code().as_str()),
                "rendered rejection for {} (seed {seed}) must name {}: {report}",
                kind.as_str(),
                kind.expected_code().as_str()
            );
        }
    }
    for seed in [0, 1, 17, 400] {
        tm_lint::verify_static(&base_circuit(seed)).expect("clean base must pass pre-flight");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mutation_detection_is_seed_independent(seed in 0u64..1024, idx in 0usize..12) {
        let kind = MutationKind::ALL[idx];
        let report = lint(&mutant(kind, seed));
        prop_assert!(
            report.has_code(kind.expected_code()),
            "mutant {} seed {seed} must raise {}:\n{}",
            kind.as_str(),
            kind.expected_code().as_str(),
            report.render_text()
        );
        prop_assert!(lint(&base_circuit(seed)).is_clean());
    }
}
