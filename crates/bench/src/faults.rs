//! Experiment E7 — gate-level fault-injection campaign: stuck-at, SEU
//! and delay faults swept across fault site × fault type × inference
//! engine.
//!
//! The paper's dual-rail datapath carries a structural safety claim:
//! the encoding has no legal both-rails-active codeword and the
//! completion tree only acknowledges fully valid outputs, so a broad
//! class of gate-level faults is **detected by design** (the handshake
//! either exposes an illegal codeword or never completes) instead of
//! silently corrupting an answer.  The single-rail golden model makes
//! the control comparison: the same faults there can only be caught by
//! the X-propagation decode check or the watchdog.
//!
//! Every injected fault run is classified against the workload's golden
//! outcome:
//!
//! * **masked** — the fault changed nothing observable; the outcome is
//!   bit-identical to the golden outcome.
//! * **detected** — the engine raised a typed error (illegal codeword,
//!   protocol violation, spacer mismatch, decode failure): the fault
//!   was caught before a wrong answer escaped.
//! * **timeout** — the watchdog (event limit or time horizon) tripped:
//!   the circuit never settled, which an asynchronous deployment
//!   observes as a missing completion. Caught, but only by timeout.
//! * **silent** — the run completed, decoded cleanly, and the answer is
//!   **wrong**. The dangerous class.
//!
//! Detection coverage is reported over the *corrupting* runs only
//! (masked runs carry no information about detection):
//! `(detected + timeout) / (detected + timeout + silent)`.
//!
//! The campaign also measures **accuracy under fault**: k simultaneous
//! stuck-at faults (k ∈ {0, 1, 2, 4, 8}) at strided sites, reporting
//! the fraction of operands still answered correctly and the fraction
//! flagged by detection, per engine family.

use std::sync::Arc;

use celllib::Library;
use datapath::{
    decode_operand_run, operand_bit_vectors, BatchGoldenModel, DatapathConfig, DualRailDatapath,
    InferenceOutcome, InferenceWorkload,
};
use dualrail::{DualRailError, ProtocolDriver, SlicedProtocolDriver};
use exec::Executor;
use gatesim::{
    try_run_return_to_zero, EngineProgram, FaultPlan, Logic, OperandRun, ParallelEventSim,
    SettleError, Simulator, SlicedSimulator,
};
use netlist::{NetId, Netlist};

/// Simulated-time watchdog for every faulted settle phase (per rebased
/// phase frame): generous against the healthy sub-nanosecond cycles,
/// tiny against the event limit a delay-free oscillation would burn.
pub const HORIZON_PS: f64 = 1.0e6;

/// When during each rebased phase the SEU pulse flips its net (ps).
pub const SEU_AT_PS: f64 = 60.0;

/// How long the SEU pulse holds the flipped value (ps) — a few gate
/// delays, long enough to propagate.
pub const SEU_DURATION_PS: f64 = 90.0;

/// Delay-fault multiplier applied to the faulted net's driver cell.
pub const DELAY_SCALE: f64 = 25.0;

/// The simultaneous-stuck-at counts of the accuracy-under-fault sweep.
pub const ACCURACY_FAULT_COUNTS: [usize; 5] = [0, 1, 2, 4, 8];

/// One injected fault: what kind, where.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Fault class name (`stuck_at_0`, `stuck_at_1`, `seu`, `delay`).
    pub kind: &'static str,
    /// The faulted net (site), as a netlist index.
    pub net: usize,
    /// The installed plan.
    pub plan: FaultPlan,
}

/// Per-operand classification counts of one (engine, fault) cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Classification {
    /// Outcome bit-identical to golden.
    pub masked: usize,
    /// Typed error raised (illegal codeword, protocol violation,
    /// spacer mismatch, decode failure).
    pub detected: usize,
    /// Watchdog tripped (event limit or time horizon) — no completion.
    pub timeout: usize,
    /// Completed cleanly with a wrong answer.
    pub silent: usize,
}

impl Classification {
    fn total(&self) -> usize {
        self.masked + self.detected + self.timeout + self.silent
    }

    /// Runs where the fault visibly corrupted the computation.
    fn corrupting(&self) -> usize {
        self.detected + self.timeout + self.silent
    }
}

/// One row of the campaign: one engine × one fault, classified over the
/// whole workload.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignRow {
    /// Engine name (`event_scalar`, `event_sliced`, `dualrail_scalar`,
    /// `dualrail_sliced`).
    pub engine: &'static str,
    /// Fault kind.
    pub kind: &'static str,
    /// Faulted net index (site).
    pub net: usize,
    /// Per-operand classification counts.
    pub counts: Classification,
}

/// Detection coverage of one engine over every corrupting run of the
/// sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineCoverage {
    /// Engine name.
    pub engine: &'static str,
    /// Summed classification over all (fault, operand) cells.
    pub totals: Classification,
    /// `(detected + timeout) / (detected + timeout + silent)`, or 1.0
    /// when no run was corrupted.
    pub detection_coverage: f64,
}

/// One accuracy-under-fault measurement: k simultaneous stuck-at
/// faults on one engine.
#[derive(Clone, Debug, PartialEq)]
pub struct AccuracyRow {
    /// Engine name.
    pub engine: &'static str,
    /// Number of simultaneous stuck-at faults installed.
    pub stuck_faults: usize,
    /// Classification over the workload.
    pub counts: Classification,
    /// `masked / total`: the fraction of operands still answered
    /// correctly under the faults.
    pub accuracy: f64,
}

/// Reproducibility metadata embedded in the JSON document.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignMeta {
    /// Bit-sliced lane width of the sliced engines.
    pub lanes: usize,
    /// Worker threads the sharded sliced event engine used.
    pub threads: usize,
    /// Event-count watchdog per settle phase.
    pub event_limit: u64,
    /// Simulated-time watchdog per settle phase (ps).
    pub horizon_ps: f64,
    /// Operands per (engine, fault) cell.
    pub operands: usize,
    /// Fault sites sampled per netlist.
    pub sites: usize,
    /// Workload seed.
    pub seed: u64,
}

/// The complete campaign result.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultCampaignReport {
    /// One row per engine × fault.
    pub rows: Vec<CampaignRow>,
    /// Per-engine detection coverage over the whole sweep.
    pub coverage: Vec<EngineCoverage>,
    /// Accuracy under k simultaneous stuck-at faults.
    pub accuracy: Vec<AccuracyRow>,
    /// Run metadata.
    pub meta: CampaignMeta,
}

impl FaultCampaignReport {
    /// Renders human-readable tables.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>10} {:>6} {:>7} {:>9} {:>8} {:>7}\n",
            "engine", "fault", "net", "masked", "detected", "timeout", "silent"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<18} {:>10} {:>6} {:>7} {:>9} {:>8} {:>7}\n",
                row.engine,
                row.kind,
                row.net,
                row.counts.masked,
                row.counts.detected,
                row.counts.timeout,
                row.counts.silent,
            ));
        }
        out.push_str(&format!(
            "\n{:<18} {:>11} {:>9} {:>8} {:>7} {:>10}\n",
            "engine", "corrupting", "detected", "timeout", "silent", "coverage"
        ));
        for cov in &self.coverage {
            out.push_str(&format!(
                "{:<18} {:>11} {:>9} {:>8} {:>7} {:>9.1}%\n",
                cov.engine,
                cov.totals.corrupting(),
                cov.totals.detected,
                cov.totals.timeout,
                cov.totals.silent,
                cov.detection_coverage * 100.0,
            ));
        }
        out.push_str(&format!(
            "\n{:<18} {:>6} {:>9} {:>9} {:>8} {:>7}\n",
            "engine", "faults", "accuracy", "detected", "timeout", "silent"
        ));
        for row in &self.accuracy {
            out.push_str(&format!(
                "{:<18} {:>6} {:>8.1}% {:>9} {:>8} {:>7}\n",
                row.engine,
                row.stuck_faults,
                row.accuracy * 100.0,
                row.counts.detected,
                row.counts.timeout,
                row.counts.silent,
            ));
        }
        out
    }

    /// Renders the report as a JSON document (hand-rolled; the
    /// workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": \"fault_campaign\",\n");
        out.push_str(&format!(
            "  \"meta\": {{\"lanes\": {}, \"threads\": {}, \"event_limit\": {}, \
             \"horizon_ps\": {:.0}, \"operands\": {}, \"sites\": {}, \"seed\": {}}},\n",
            self.meta.lanes,
            self.meta.threads,
            self.meta.event_limit,
            self.meta.horizon_ps,
            self.meta.operands,
            self.meta.sites,
            self.meta.seed,
        ));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"engine\": \"{}\", \"fault\": \"{}\", \"net\": {}, \"masked\": {}, \
                 \"detected\": {}, \"timeout\": {}, \"silent\": {}}}{}\n",
                row.engine,
                row.kind,
                row.net,
                row.counts.masked,
                row.counts.detected,
                row.counts.timeout,
                row.counts.silent,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"coverage\": [\n");
        for (i, cov) in self.coverage.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"engine\": \"{}\", \"corrupting\": {}, \"detected\": {}, \
                 \"timeout\": {}, \"silent\": {}, \"detection_coverage\": {:.4}}}{}\n",
                cov.engine,
                cov.totals.corrupting(),
                cov.totals.detected,
                cov.totals.timeout,
                cov.totals.silent,
                cov.detection_coverage,
                if i + 1 == self.coverage.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ],\n  \"accuracy_under_fault\": [\n");
        for (i, row) in self.accuracy.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"engine\": \"{}\", \"stuck_faults\": {}, \"accuracy\": {:.4}, \
                 \"masked\": {}, \"detected\": {}, \"timeout\": {}, \"silent\": {}}}{}\n",
                row.engine,
                row.stuck_faults,
                row.accuracy,
                row.counts.masked,
                row.counts.detected,
                row.counts.timeout,
                row.counts.silent,
                if i + 1 == self.accuracy.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The coverage entry of one engine.
    #[must_use]
    pub fn engine_coverage(&self, engine: &str) -> Option<&EngineCoverage> {
        self.coverage.iter().find(|c| c.engine == engine)
    }
}

/// Picks `count` internal (non-primary-input) fault sites out of
/// `netlist`, deterministically: primary-output nets first (where a
/// fault must be observable), then a stride over the remaining internal
/// nets from the outputs backwards — later nets sit nearer the output
/// cone, where faults are least likely to be logically masked.
#[must_use]
pub fn pick_sites(netlist: &Netlist, count: usize) -> Vec<NetId> {
    let mut sites: Vec<NetId> = netlist
        .primary_outputs()
        .into_iter()
        .filter(|&n| !netlist.is_primary_input(n))
        .take(count)
        .collect();
    let interior: Vec<NetId> = (0..netlist.net_count())
        .rev()
        .map(NetId::from_index)
        .filter(|&n| !netlist.is_primary_input(n) && !sites.contains(&n))
        .collect();
    if count > sites.len() && !interior.is_empty() {
        let remaining = count - sites.len();
        let stride = (interior.len() / remaining.min(interior.len())).max(1);
        sites.extend(interior.iter().step_by(stride).take(remaining));
    }
    sites.truncate(count);
    sites
}

/// Builds the stuck-at-0 / stuck-at-1 / SEU / delay plans for one site.
fn plans_for_site(netlist: &Netlist, net: NetId) -> Vec<FaultSpec> {
    let mut specs = vec![
        FaultSpec {
            kind: "stuck_at_0",
            net: net.index(),
            plan: FaultPlan::new().stuck_at(net, false),
        },
        FaultSpec {
            kind: "stuck_at_1",
            net: net.index(),
            plan: FaultPlan::new().stuck_at(net, true),
        },
        FaultSpec {
            kind: "seu",
            net: net.index(),
            plan: FaultPlan::new().seu(net, SEU_AT_PS, SEU_DURATION_PS),
        },
    ];
    if let Some(cell) = netlist.driver_cell(net) {
        specs.push(FaultSpec {
            kind: "delay",
            net: net.index(),
            plan: FaultPlan::new().scale_delay(cell, DELAY_SCALE),
        });
    }
    specs
}

fn classify_event_results(
    results: &[Result<OperandRun, SettleError>],
    golden: &[InferenceOutcome],
) -> Classification {
    let mut counts = Classification::default();
    for (k, result) in results.iter().enumerate() {
        match result {
            Err(SettleError::Watchdog { .. }) => counts.timeout += 1,
            Ok(run) => match decode_operand_run(run, k) {
                Err(_) => counts.detected += 1,
                Ok(outcome) if outcome == golden[k] => counts.masked += 1,
                Ok(_) => counts.silent += 1,
            },
        }
    }
    counts
}

fn classify_dualrail_error(error: &DualRailError, counts: &mut Classification) {
    match error {
        DualRailError::SimulationDiverged => counts.timeout += 1,
        _ => counts.detected += 1,
    }
}

/// The shared fixtures of one campaign run.
struct Fixture<'a> {
    datapath: &'a DualRailDatapath,
    dual_program: Arc<EngineProgram<'a>>,
    dual_snapshot: Arc<[Logic]>,
    event_sim: ParallelEventSim<'a>,
    event_operands: Vec<Vec<bool>>,
    dual_operands: Vec<Vec<bool>>,
    golden: Vec<InferenceOutcome>,
}

impl Fixture<'_> {
    /// Scalar dual-rail: a fresh streamed driver per plan (fault
    /// overlays install once per instance); the driver is rebuilt after
    /// a divergence so one oscillating operand cannot contaminate the
    /// classification of the next.
    fn run_dualrail_scalar(&self, plan: &FaultPlan) -> Classification {
        let mut counts = Classification::default();
        let mut driver = None;
        for (k, operand) in self.dual_operands.iter().enumerate() {
            if driver.is_none() {
                let mut fresh = ProtocolDriver::from_program(
                    self.datapath.circuit(),
                    Arc::clone(&self.dual_program),
                )
                .expect("healthy dual-rail circuit initialises");
                fresh.enable_phase_rebase();
                fresh.set_time_horizon_ps(HORIZON_PS);
                if fresh.set_fault_plan(plan).is_err() {
                    // The fault makes the idle circuit oscillate; no
                    // operand on this driver can ever complete.
                    counts.timeout += self.dual_operands.len() - k;
                    return counts;
                }
                driver = Some(fresh);
            }
            let active = driver.as_mut().expect("driver was just built");
            match active.apply_operand(operand) {
                Ok(result) => match self.datapath.decode_outcome(&result) {
                    Err(_) => counts.detected += 1,
                    Ok(outcome) if outcome == self.golden[k] => counts.masked += 1,
                    Ok(_) => counts.silent += 1,
                },
                Err(error) => {
                    classify_dualrail_error(&error, &mut counts);
                    if matches!(error, DualRailError::SimulationDiverged) {
                        driver = None;
                    }
                }
            }
        }
        counts
    }

    /// Bit-sliced dual-rail: one faulted word driver per plan, words of
    /// up to [`netlist::LANES`] operands; rebuilt after a diverged word.
    fn run_dualrail_sliced(&self, plan: &FaultPlan) -> Classification {
        let mut counts = Classification::default();
        let mut driver = None;
        let mut k = 0usize;
        for word in self.dual_operands.chunks(netlist::LANES) {
            if driver.is_none() {
                let sim = SlicedSimulator::from_program(Arc::clone(&self.dual_program));
                let mut fresh = SlicedProtocolDriver::from_sliced_simulator(
                    self.datapath.circuit(),
                    sim,
                    Arc::clone(&self.dual_snapshot),
                    false,
                )
                .expect("healthy dual-rail circuit initialises");
                fresh.set_time_horizon_ps(HORIZON_PS);
                if fresh.set_fault_plan(plan).is_err() {
                    counts.timeout += self.dual_operands.len() - k;
                    return counts;
                }
                driver = Some(fresh);
            }
            let active = driver.as_mut().expect("driver was just built");
            let mut diverged = false;
            for result in active.apply_word(word) {
                match result {
                    Ok(result) => match self.datapath.decode_outcome(&result) {
                        Err(_) => counts.detected += 1,
                        Ok(outcome) if outcome == self.golden[k] => counts.masked += 1,
                        Ok(_) => counts.silent += 1,
                    },
                    Err(error) => {
                        classify_dualrail_error(&error, &mut counts);
                        diverged |= matches!(error, DualRailError::SimulationDiverged);
                    }
                }
                k += 1;
            }
            if diverged {
                driver = None;
            }
        }
        counts
    }

    /// Scalar event engine: one streamed simulator per plan, as the
    /// scalar dual-rail rows stream one driver.
    fn run_event_scalar(&self, plan: &FaultPlan) -> Classification {
        let mut sim = Simulator::from_program(Arc::clone(self.event_sim.program()));
        sim.set_time_horizon_ps(HORIZON_PS);
        sim.set_fault_plan(plan);
        let results: Vec<_> = self
            .event_operands
            .iter()
            .map(|operand| try_run_return_to_zero(&mut sim, operand))
            .collect();
        classify_event_results(&results, &self.golden)
    }

    fn run_event_sliced(&self, plan: &FaultPlan) -> Classification {
        let results = self.event_sim.run_operands_sliced_faulted(
            &self.event_operands,
            plan,
            Some(HORIZON_PS),
        );
        classify_event_results(&results, &self.golden)
    }

    fn run_engine(&self, engine: &'static str, plan: &FaultPlan) -> Classification {
        match engine {
            "event_scalar" => self.run_event_scalar(plan),
            "event_sliced" => self.run_event_sliced(plan),
            "dualrail_scalar" => self.run_dualrail_scalar(plan),
            "dualrail_sliced" => self.run_dualrail_sliced(plan),
            other => unreachable!("unknown engine {other}"),
        }
    }
}

/// The engines of the sweep: the single-rail golden-model pair (scalar
/// and bit-sliced event kernels) and the dual-rail four-phase pair.
pub const ENGINES: [&str; 4] = [
    "event_scalar",
    "event_sliced",
    "dualrail_scalar",
    "dualrail_sliced",
];

/// Runs the full campaign: `sites` fault sites per netlist × 4 fault
/// kinds × 4 engines, each cell classified over `operands` golden
/// workload samples, plus the accuracy-under-fault stuck-at sweep.
///
/// Every run terminates: all faulted settle phases are bounded by the
/// event-count watchdog and the [`HORIZON_PS`] time horizon.
///
/// # Panics
///
/// Panics if workload or datapath generation fails (a fixed
/// configuration bug, not a data-dependent condition).
#[must_use]
pub fn run(operands: usize, sites: usize, threads: usize, seed: u64) -> FaultCampaignReport {
    let config = DatapathConfig::new(6, 4).expect("valid fixed configuration");
    let model = BatchGoldenModel::generate(&config).expect("golden model generates");
    let datapath = DualRailDatapath::generate(&config).expect("dual-rail datapath generates");
    let library = Library::umc_ll();
    let workload =
        InferenceWorkload::random(&config, operands, 0.6, seed).expect("workload generates");

    let event_program = Arc::new(EngineProgram::new(model.netlist(), &library));
    let dual_program = Arc::new(EngineProgram::new(datapath.circuit().netlist(), &library));
    let dual_snapshot = ProtocolDriver::from_program(datapath.circuit(), Arc::clone(&dual_program))
        .expect("healthy dual-rail circuit initialises")
        .quiescent_snapshot();
    let fixture = Fixture {
        datapath: &datapath,
        dual_program,
        dual_snapshot,
        event_sim: ParallelEventSim::from_program(event_program, Executor::new(threads)),
        event_operands: operand_bit_vectors(&config, workload.masks(), workload.feature_vectors()),
        dual_operands: workload
            .dual_rail_operands(&datapath)
            .expect("operands match the datapath"),
        golden: workload.expected().to_vec(),
    };

    let event_sites = pick_sites(model.netlist(), sites);
    let dual_sites = pick_sites(datapath.circuit().netlist(), sites);

    let mut rows = Vec::new();
    for engine in ENGINES {
        let (netlist, sites) = if engine.starts_with("event") {
            (model.netlist(), &event_sites)
        } else {
            (datapath.circuit().netlist(), &dual_sites)
        };
        for &site in sites {
            for spec in plans_for_site(netlist, site) {
                let counts = fixture.run_engine(engine, &spec.plan);
                debug_assert_eq!(counts.total(), operands);
                rows.push(CampaignRow {
                    engine,
                    kind: spec.kind,
                    net: spec.net,
                    counts,
                });
            }
        }
    }

    let coverage = ENGINES
        .iter()
        .map(|&engine| {
            let mut totals = Classification::default();
            for row in rows.iter().filter(|r| r.engine == engine) {
                totals.masked += row.counts.masked;
                totals.detected += row.counts.detected;
                totals.timeout += row.counts.timeout;
                totals.silent += row.counts.silent;
            }
            let corrupting = totals.corrupting();
            EngineCoverage {
                engine,
                totals,
                detection_coverage: if corrupting == 0 {
                    1.0
                } else {
                    (totals.detected + totals.timeout) as f64 / corrupting as f64
                },
            }
        })
        .collect();

    // Accuracy under k simultaneous stuck-at faults: alternate stuck
    // values across the first k strided sites of each netlist.
    let mut accuracy = Vec::new();
    for &k in &ACCURACY_FAULT_COUNTS {
        for engine in ["event_sliced", "dualrail_scalar"] {
            let sites = if engine.starts_with("event") {
                &event_sites
            } else {
                &dual_sites
            };
            let mut plan = FaultPlan::new();
            for (i, &site) in sites.iter().take(k).enumerate() {
                plan = plan.stuck_at(site, i % 2 == 1);
            }
            let counts = fixture.run_engine(engine, &plan);
            accuracy.push(AccuracyRow {
                engine,
                stuck_faults: k.min(sites.len()),
                counts,
                accuracy: if counts.total() == 0 {
                    0.0
                } else {
                    counts.masked as f64 / counts.total() as f64
                },
            });
        }
    }

    FaultCampaignReport {
        rows,
        coverage,
        accuracy,
        meta: CampaignMeta {
            lanes: netlist::LANES,
            threads,
            event_limit: Simulator::DEFAULT_EVENT_LIMIT,
            horizon_ps: HORIZON_PS,
            operands,
            sites,
            seed,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_masks_everything_and_the_json_is_well_formed() {
        // sites = 0: the sweep is empty, but the accuracy rows at k = 0
        // run every engine fault-free — everything must be masked.
        let report = run(6, 0, 2, 11);
        assert!(report.rows.is_empty());
        for row in &report.accuracy {
            assert_eq!(row.counts.masked, 6, "{}", row.engine);
            assert_eq!(row.accuracy, 1.0);
        }
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"fault_campaign\""));
        assert!(json.contains("\"lanes\": 64"));
        assert!(json.contains("\"event_limit\""));
        assert!(json.contains("\"horizon_ps\""));
    }

    #[test]
    fn campaign_terminates_and_classifies_every_operand() {
        for (operands, sites, seed) in [(4, 2, 7), (6, 3, 2021)] {
            let report = run(operands, sites, 2, seed);
            assert!(!report.rows.is_empty());
            for row in &report.rows {
                assert_eq!(
                    row.counts.total(),
                    operands,
                    "{} {} net {}",
                    row.engine,
                    row.kind,
                    row.net
                );
            }
            // The campaign is a pure function of its inputs.
            assert_eq!(run(operands, sites, 2, seed), report, "seed {seed}");
            // Coverage is defined for every engine.
            for engine in ENGINES {
                let cov = report.engine_coverage(engine).expect("coverage row");
                assert!((0.0..=1.0).contains(&cov.detection_coverage));
            }
            // The dual-rail engine catches injected faults through a
            // typed detection (illegal codeword, protocol violation or
            // watchdog) rather than absorbing them all.
            let dual = report
                .engine_coverage("dualrail_scalar")
                .expect("coverage row");
            assert!(
                dual.totals.detected + dual.totals.timeout > 0,
                "seed {seed}: dual-rail caught no injected fault"
            );
            for row in report.accuracy.iter().filter(|r| r.stuck_faults == 0) {
                assert_eq!(row.accuracy, 1.0, "{}: fault-free run", row.engine);
            }
            let rendered = report.render();
            assert!(rendered.contains("coverage"));
        }
    }
}
