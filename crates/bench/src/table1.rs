//! Experiment E1 — Table I: single-rail vs dual-rail after synthesis on
//! the UMC LL and FULL DIFFUSION library models.
//!
//! For each of the four (library × design) combinations the harness
//! reports the same columns as the paper: cell area, sequential area,
//! average power, leakage power, average latency, maximum latency, the
//! valid→spacer time (dual-rail only) and average throughput in millions
//! of inferences per second.

use celllib::{Library, LibraryKind, PowerBreakdown};
use datapath::{DualRailDatapath, SingleRailDatapath};
use dualrail::{ProtocolDriver, ThroughputReport};
use gatesim::run_synchronous_vectors;
use sta::ClockPeriod;

use crate::workloads::{standard_config, standard_workload, StandardWorkload};

/// One row of Table I.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Row {
    /// Library name ("UMC LL" or "FULL DIFFUSION").
    pub technology: String,
    /// Design name ("Single-rail" or "Dual-rail").
    pub design: String,
    /// Total cell area in µm².
    pub cell_area_um2: f64,
    /// Area of sequential cells (flip-flops or C-elements) in µm².
    pub sequential_area_um2: f64,
    /// Average power (leakage + dynamic) in µW.
    pub average_power_uw: f64,
    /// Leakage power in nW.
    pub leakage_power_nw: f64,
    /// Average latency in ps.
    pub average_latency_ps: f64,
    /// Maximum latency in ps.
    pub max_latency_ps: f64,
    /// Valid→spacer time in ps (dual-rail designs only).
    pub t_v_to_s_ps: Option<f64>,
    /// Average throughput in millions of inferences per second.
    pub inferences_millions_per_s: f64,
}

/// The full Table I: four rows, plus the correctness tallies used to
/// confirm functional equivalence with the golden model.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1 {
    /// The four rows in paper order (UMC LL single/dual, FULL DIFFUSION
    /// single/dual).
    pub rows: Vec<Table1Row>,
    /// Number of operands simulated per design.
    pub operands: usize,
    /// Whether every simulated inference (both styles, both libraries)
    /// matched the software golden model.
    pub all_correct: bool,
}

impl Table1 {
    /// Renders the table in a paper-like fixed-width layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:<12} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10} {:>12}\n",
            "Technology",
            "Design",
            "Area um2",
            "Seq um2",
            "Power uW",
            "Leak nW",
            "AvgLat ps",
            "MaxLat ps",
            "tV->S ps",
            "MInf/s"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<16} {:<12} {:>10.0} {:>10.0} {:>10.1} {:>10.1} {:>12.0} {:>12.0} {:>10} {:>12.0}\n",
                row.technology,
                row.design,
                row.cell_area_um2,
                row.sequential_area_um2,
                row.average_power_uw,
                row.leakage_power_nw,
                row.average_latency_ps,
                row.max_latency_ps,
                row.t_v_to_s_ps
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
                row.inferences_millions_per_s
            ));
        }
        out.push_str(&format!(
            "\n({} operands per design; all inferences matched the golden model: {})\n",
            self.operands, self.all_correct
        ));
        out
    }

    /// The dual-rail / single-rail average-latency ratio for a library
    /// (the paper's headline is ≈10× for both libraries).
    #[must_use]
    pub fn latency_speedup(&self, technology: LibraryKind) -> Option<f64> {
        let tech = technology.to_string();
        let single = self
            .rows
            .iter()
            .find(|r| r.technology == tech && r.design == "Single-rail")?;
        let dual = self
            .rows
            .iter()
            .find(|r| r.technology == tech && r.design == "Dual-rail")?;
        Some(single.average_latency_ps / dual.average_latency_ps)
    }
}

fn single_rail_row(library: &Library, standard: &StandardWorkload) -> (Table1Row, bool) {
    let config = standard_config();
    let dp = SingleRailDatapath::generate(&config).expect("single-rail generation succeeds");
    let clock = ClockPeriod::compute(dp.netlist(), library).expect("acyclic datapath");

    // Drive one operand per cycle, then read results with the two-cycle
    // register latency; repeating each operand twice keeps decoding simple.
    let operands = standard
        .workload
        .single_rail_operands(&dp)
        .expect("workload matches datapath");
    let mut vectors = Vec::with_capacity(3 * operands.len());
    for operand in &operands {
        vectors.push(operand.clone());
        vectors.push(operand.clone());
        vectors.push(operand.clone());
    }
    let run = run_synchronous_vectors(dp.netlist(), library, clock.period_ps(), &vectors);
    let mut correct = true;
    for (i, expected) in standard.workload.expected().iter().enumerate() {
        let outputs: Vec<bool> = run.outputs_per_cycle[3 * i + 2]
            .iter()
            .map(|v| v.is_one())
            .collect();
        match dp.decode_decision_bits(&outputs) {
            Ok(index) => correct &= index == expected.decision.one_of_three_index(),
            Err(_) => correct = false,
        }
    }

    let power = PowerBreakdown::compute(dp.netlist(), library, &run.activity);
    let row = Table1Row {
        technology: library.kind().to_string(),
        design: "Single-rail".to_string(),
        cell_area_um2: library.total_area_um2(dp.netlist()),
        sequential_area_um2: library.sequential_area_um2(dp.netlist()),
        average_power_uw: power.total_uw(),
        leakage_power_nw: library.total_leakage_nw(dp.netlist()),
        average_latency_ps: clock.period_ps(),
        max_latency_ps: clock.period_ps(),
        t_v_to_s_ps: None,
        inferences_millions_per_s: clock.inferences_per_second_millions(),
    };
    (row, correct)
}

fn dual_rail_row(library: &Library, standard: &StandardWorkload) -> (Table1Row, bool) {
    let config = standard_config();
    let dp = DualRailDatapath::generate(&config).expect("dual-rail generation succeeds");
    let mut driver =
        ProtocolDriver::new(dp.circuit(), library).expect("protocol driver initialises");
    let operands = standard
        .workload
        .dual_rail_operands(&dp)
        .expect("workload matches datapath");

    let mut results = Vec::with_capacity(operands.len());
    let mut correct = true;
    for (operand, expected) in operands.iter().zip(standard.workload.expected()) {
        let result = driver
            .apply_operand(operand)
            .expect("protocol cycle succeeds");
        match dp.decode_decision(&result) {
            Ok(decision) => correct &= decision == expected.decision,
            Err(_) => correct = false,
        }
        results.push(result);
    }
    let report = ThroughputReport::from_results(&results);
    let power = PowerBreakdown::compute(dp.netlist(), library, &driver.activity_profile());

    let row = Table1Row {
        technology: library.kind().to_string(),
        design: "Dual-rail".to_string(),
        cell_area_um2: library.total_area_um2(dp.netlist()),
        sequential_area_um2: library.sequential_area_um2(dp.netlist()),
        average_power_uw: power.total_uw(),
        leakage_power_nw: library.total_leakage_nw(dp.netlist()),
        average_latency_ps: report.average_latency_ps(),
        max_latency_ps: report.max_latency_ps(),
        t_v_to_s_ps: Some(report.v_to_s_ps()),
        inferences_millions_per_s: report.inferences_per_second_millions(),
    };
    (row, correct)
}

/// Runs experiment E1 with the given number of operands per design.
#[must_use]
pub fn run(operands: usize, seed: u64) -> Table1 {
    let standard = standard_workload(operands, seed);
    let mut rows = Vec::with_capacity(4);
    let mut all_correct = true;
    for library in [Library::umc_ll(), Library::full_diffusion()] {
        let (row, ok) = single_rail_row(&library, &standard);
        rows.push(row);
        all_correct &= ok;
        let (row, ok) = dual_rail_row(&library, &standard);
        rows.push(row);
        all_correct &= ok;
    }
    Table1 {
        rows,
        operands,
        all_correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_the_paper_shape() {
        let table = run(12, 3);
        assert_eq!(table.rows.len(), 4);
        assert!(table.all_correct, "hardware must match the golden model");

        for kind in [LibraryKind::UmcLl, LibraryKind::FullDiffusion] {
            // The paper reports ~10x; this reproduction's adders are not the
            // minimum-latency early-output designs of its reference [6], so
            // the advantage is smaller — but the dual-rail design must still
            // win on average latency (ROADMAP.md item 8 accounts for the gap).
            let speedup = table.latency_speedup(kind).unwrap();
            assert!(
                speedup > 1.02,
                "dual-rail average latency should beat the synchronous clock period ({kind}: {speedup:.2}x)"
            );
            let tech = kind.to_string();
            let single = table
                .rows
                .iter()
                .find(|r| r.technology == tech && r.design == "Single-rail")
                .unwrap();
            let dual = table
                .rows
                .iter()
                .find(|r| r.technology == tech && r.design == "Dual-rail")
                .unwrap();
            // Similar order-of-magnitude area; dual-rail max latency exceeds
            // its average thanks to early propagation.
            assert!(dual.cell_area_um2 < 4.0 * single.cell_area_um2);
            assert!(dual.max_latency_ps > dual.average_latency_ps);
            assert!(dual.t_v_to_s_ps.is_some());
            assert!(single.t_v_to_s_ps.is_none());
            assert!(single.average_power_uw > 0.0 && dual.average_power_uw > 0.0);
        }
        let rendered = table.render();
        assert!(rendered.contains("UMC LL"));
        assert!(rendered.contains("FULL DIFFUSION"));
    }
}
