//! The shipped datapath netlists must be verifier-clean: the pre-flight
//! hook rejects on error-severity findings, so a regression here would
//! brick every inference runtime at construction.

use celllib::Library;
use datapath::{CompletionScheme, DatapathConfig, DatapathOptions, DualRailDatapath};
use tm_lint::{lint_dual_rail, lint_netlist, LintConfig};

fn assert_clean(datapath: &DualRailDatapath, label: &str) {
    let report = lint_dual_rail(
        datapath.circuit(),
        &Library::umc_ll(),
        &LintConfig::default(),
    );
    assert!(
        report.is_clean(),
        "{label} datapath must lint clean:\n{}",
        report.render_text()
    );
}

#[test]
fn reduced_completion_datapath_is_clean() {
    let config = DatapathConfig::new(12, 8).expect("config");
    let datapath = DualRailDatapath::generate(&config).expect("generate");
    assert_clean(&datapath, "reduced-completion");
}

#[test]
fn full_completion_datapath_is_clean() {
    let config = DatapathConfig::new(12, 8).expect("config");
    let mut options = DatapathOptions::paper_defaults();
    options.completion = CompletionScheme::Full;
    let datapath = DualRailDatapath::generate_with(&config, options).expect("generate");
    assert_clean(&datapath, "full-completion");
}

#[test]
fn small_and_wide_configs_are_clean() {
    for (features, clauses) in [(4, 4), (16, 8), (20, 6)] {
        let config = DatapathConfig::new(features, clauses).expect("config");
        for completion in [CompletionScheme::Reduced, CompletionScheme::Full] {
            let mut options = DatapathOptions::paper_defaults();
            options.completion = completion;
            let datapath = DualRailDatapath::generate_with(&config, options).expect("generate");
            assert_clean(
                &datapath,
                &format!("{features}f x {clauses}c {completion:?}-completion"),
            );
        }
    }
}

#[test]
fn single_rail_golden_netlist_is_structurally_clean() {
    for (features, clauses) in [(12, 8), (4, 4), (16, 8), (20, 6)] {
        let config = DatapathConfig::new(features, clauses).expect("config");
        let single = datapath::SingleRailDatapath::generate(&config).expect("generate");
        let report = lint_netlist(single.netlist());
        assert!(
            report.is_clean(),
            "{features}f x {clauses}c single-rail golden netlist must pass the structural \
             family:\n{}",
            report.render_text()
        );
    }
}
