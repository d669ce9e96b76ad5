//! Experiment E8 — the simulated cycle time of the wavefront-pipelined
//! dual-rail driver against the serial four-phase driver on the same
//! operands.
//!
//! Pipelining leaves token latency (spacer→valid) unchanged: the
//! pipelined driver reports it bit-identically to the serial contract
//! cycle it runs at [`Occupancy::One`], and [`run`] asserts so.  What
//! drops is the injection-to-injection **cycle time**, from the serial
//! two-settle handshake to the measured wavefront separation.  Every
//! figure here is simulated time; the host time the two-pass pipelined
//! schedule costs is not part of the result.

use celllib::Library;
use datapath::{DualRailDatapath, DualRailInference, InferenceWorkload};
use dualrail::{Occupancy, PipelineConfig};

use crate::workloads::standard_config;

/// Simulated cycle-time summary of one pipelined run and the serial
/// run of the same operands.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineCycleSummary {
    /// Operands (tokens) the figures cover.
    pub operands: usize,
    /// Occupancy cap of the pipelined run (tokens in flight).
    pub occupancy: usize,
    /// Median four-phase cycle time of the serial contract cycle
    /// ([`Occupancy::One`]), in picoseconds.
    pub serial_cycle_median_ps: f64,
    /// Median injection-to-injection interval of the pipelined driver,
    /// in picoseconds.
    pub pipelined_cycle_median_ps: f64,
    /// `serial_cycle_median_ps / pipelined_cycle_median_ps` — the
    /// simulated-throughput multiplier of wavefront pipelining.
    pub cycle_speedup: f64,
    /// Slowest token's spacer→valid latency under pipelining, in
    /// picoseconds (equal to the serial driver's).
    pub token_latency_max_ps: f64,
    /// Pipelined tokens per second of **simulated** time, over the
    /// whole run (injection of each train's first token to its drain).
    pub tokens_per_simulated_sec: f64,
}

impl PipelineCycleSummary {
    /// Renders the summary as one human-readable line.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "wavefront-pipelined dual-rail cycle time over {} operands at occupancy {}: \
             serial median {:.1} ps, pipelined median {:.1} ps ({:.2}x, {:.0} tokens/s \
             simulated); token latency max {:.1} ps, unchanged\n",
            self.operands,
            self.occupancy,
            self.serial_cycle_median_ps,
            self.pipelined_cycle_median_ps,
            self.cycle_speedup,
            self.tokens_per_simulated_sec,
            self.token_latency_max_ps
        )
    }

    /// Renders the summary as one JSON object, with the field names of
    /// the `dualrail_pipelined_cycle` blocks in the recorded `BENCH_*`
    /// files.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"operands\": {}, \"occupancy\": {}, \"serial_median_ps\": {:.1}, \
             \"pipelined_median_ps\": {:.1}, \"speedup\": {:.2}, \
             \"token_latency_max_ps\": {:.1}, \"tokens_per_simulated_sec\": {:.0}}}",
            self.operands,
            self.occupancy,
            self.serial_cycle_median_ps,
            self.pipelined_cycle_median_ps,
            self.cycle_speedup,
            self.token_latency_max_ps,
            self.tokens_per_simulated_sec
        )
    }
}

/// Runs `workload` (built on [`standard_config`]) through the
/// wavefront-pipelined dual-rail driver serially ([`Occupancy::One`])
/// and at `occupancy`, and summarises both cycle times.
///
/// # Panics
///
/// Panics if `workload` is empty, if either run fails or disagrees
/// with the golden outcomes, or if pipelining changes a token latency.
#[must_use]
pub fn run(workload: &InferenceWorkload, occupancy: Occupancy) -> PipelineCycleSummary {
    assert!(!workload.is_empty(), "E8 needs at least one operand");
    let datapath = DualRailDatapath::generate(&standard_config()).expect("generation");
    let library = Library::umc_ll();
    let engine = DualRailInference::new(&datapath, &library, exec::available_parallelism())
        .expect("driver construction");

    let config = |occupancy| PipelineConfig {
        occupancy,
        ..PipelineConfig::default()
    };
    let (serial, _) = engine
        .run_workload_pipelined(workload, config(Occupancy::One))
        .expect("serial dual-rail run");
    assert_eq!(
        serial.outcomes.as_slice(),
        workload.expected(),
        "serial dual-rail run diverged"
    );
    let mut cycles: Vec<f64> = serial.results.iter().map(|r| r.cycle_time_ps).collect();
    cycles.sort_by(f64::total_cmp);
    let serial_median = cycles[cycles.len() / 2];

    let (pipelined, report) = engine
        .run_workload_pipelined(workload, config(occupancy))
        .expect("pipelined dual-rail run");
    assert_eq!(
        pipelined.outcomes.as_slice(),
        workload.expected(),
        "pipelined dual-rail run diverged"
    );
    assert_eq!(
        pipelined.latency, serial.latency,
        "pipelining changed a token latency"
    );
    let pipelined_median = report.cycle.median_ps();
    PipelineCycleSummary {
        operands: workload.len(),
        occupancy: report.occupancy,
        serial_cycle_median_ps: serial_median,
        pipelined_cycle_median_ps: pipelined_median,
        cycle_speedup: serial_median / pipelined_median,
        token_latency_max_ps: pipelined.latency.max_ps(),
        tokens_per_simulated_sec: report.tokens_per_sec(),
    }
}
