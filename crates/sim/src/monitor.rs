//! Measurement helpers: latency statistics and reports.
//!
//! The paper reports *average* and *maximum* latency over a workload of
//! operands (Table I) and studies the *distribution* of delays
//! (contribution 2).  [`LatencyStats`] accumulates per-operand latency
//! samples and produces those figures.

use std::fmt;

/// Accumulates per-operand latency samples (in picoseconds) and reports
/// summary statistics.
///
/// # Example
///
/// ```
/// use gatesim::LatencyStats;
/// let mut stats = LatencyStats::new();
/// stats.record(100.0);
/// stats.record(300.0);
/// assert_eq!(stats.count(), 2);
/// assert_eq!(stats.average(), 200.0);
/// assert_eq!(stats.maximum(), 300.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyStats {
    samples: Vec<f64>,
}

impl LatencyStats {
    /// Creates an empty collection.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the sample is negative or not finite.
    pub fn record(&mut self, latency_ps: f64) {
        assert!(
            latency_ps.is_finite() && latency_ps >= 0.0,
            "latency sample must be finite and non-negative, got {latency_ps}"
        );
        self.samples.push(latency_ps);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All recorded samples, in recording order.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Arithmetic mean, or 0.0 if empty.
    #[must_use]
    pub fn average(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Largest sample, or 0.0 if empty.
    #[must_use]
    pub fn maximum(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Smallest sample, or 0.0 if empty.
    #[must_use]
    pub fn minimum(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// The `q`-quantile (0.0 ≤ q ≤ 1.0) using nearest-rank interpolation,
    /// or 0.0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    /// The `p`-th percentile (0.0 ≤ p ≤ 100.0) as an **exact order
    /// statistic** (nearest-rank method: the smallest recorded sample
    /// such that at least `p` percent of samples are ≤ it), or 0.0 if
    /// empty.  Unlike [`LatencyStats::quantile`] no interpolation or
    /// rounding between samples happens — the result is always one of
    /// the recorded samples, so a degenerate all-equal collection
    /// returns that value for every `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile must be in [0, 100], got {p}"
        );
        self.percentiles(&[p])[0]
    }

    /// Several percentiles at once with a **single** sort of the
    /// samples — same exact nearest-rank order statistic as
    /// [`LatencyStats::percentile`], one result per requested `p`, in
    /// request order.  Prefer this when reporting p50/p95/p99 together.
    ///
    /// # Panics
    ///
    /// Panics if any `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentiles(&self, ps: &[f64]) -> Vec<f64> {
        for &p in ps {
            assert!(
                (0.0..=100.0).contains(&p),
                "percentile must be in [0, 100], got {p}"
            );
        }
        if self.samples.is_empty() {
            return vec![0.0; ps.len()];
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        ps.iter()
            .map(|&p| {
                // Nearest rank: ceil(p/100 * n), clamped to [1, n].
                let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
                sorted[rank.clamp(1, sorted.len()) - 1]
            })
            .collect()
    }

    /// Builds a histogram with `bins` equal-width bins between the
    /// minimum and maximum sample; returns `(bin upper edge, count)`
    /// pairs.  Returns an empty vector if fewer than two samples exist.
    ///
    /// When every sample is equal (`min == max`) the equal-width bin
    /// geometry degenerates — the width is zero, so all edges would
    /// collapse onto the same value — and the histogram is the single
    /// bin `[(max, count)]` regardless of `bins`.  This happens in
    /// practice whenever a workload's operands all settle along the same
    /// path (e.g. a single-gate circuit).
    #[must_use]
    pub fn histogram(&self, bins: usize) -> Vec<(f64, usize)> {
        if self.samples.len() < 2 || bins == 0 {
            return Vec::new();
        }
        let min = self.minimum();
        let max = self.maximum();
        if min == max {
            return vec![(max, self.samples.len())];
        }
        let width = (max - min) / bins as f64;
        let mut counts = vec![0usize; bins];
        for &s in &self.samples {
            let mut idx = ((s - min) / width) as usize;
            if idx >= bins {
                idx = bins - 1;
            }
            counts[idx] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (min + width * (i + 1) as f64, c))
            .collect()
    }

    /// Merges another statistics collection into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} avg={:.1} ps min={:.1} ps max={:.1} ps",
            self.count(),
            self.average(),
            self.minimum(),
            self.maximum()
        )
    }
}

/// Per-operand latency figures for a whole workload: injection→settle
/// time in picoseconds for every operand, in operand order, plus the
/// min/median/max/histogram summaries the paper reports.
///
/// Unlike [`LatencyStats`] (an incremental accumulator), a report is
/// built in one shot from an ordered latency vector — typically by
/// [`LatencyReport::from_runs`] over the output of
/// [`crate::ParallelEventSim::run_operands_sliced`] — and compares
/// with `==`, which the thread-invariance property tests rely on: two
/// reports are equal iff every per-operand latency is bit-identical
/// *in the same order*.
///
/// # Example
///
/// ```
/// use gatesim::LatencyReport;
///
/// let report = LatencyReport::from_latencies(vec![120.0, 80.0, 100.0]);
/// assert_eq!(report.count(), 3);
/// assert_eq!(report.min_ps(), 80.0);
/// assert_eq!(report.median_ps(), 100.0);
/// assert_eq!(report.max_ps(), 120.0);
/// assert_eq!(report.average_ps(), 100.0);
/// assert_eq!(report.histogram(2).iter().map(|(_, n)| n).sum::<usize>(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyReport {
    /// The per-operand samples, in operand order.
    stats: LatencyStats,
}

impl LatencyReport {
    /// Builds a report from per-operand latencies, in operand order.
    ///
    /// # Panics
    ///
    /// Panics if any latency is negative or not finite.
    #[must_use]
    pub fn from_latencies(latencies_ps: Vec<f64>) -> Self {
        let mut stats = LatencyStats::new();
        for latency in latencies_ps {
            stats.record(latency);
        }
        Self { stats }
    }

    /// Per-operand latencies in picoseconds, in operand order.
    #[must_use]
    pub fn latencies_ps(&self) -> &[f64] {
        self.stats.samples()
    }

    /// Number of operands covered.
    #[must_use]
    pub fn count(&self) -> usize {
        self.stats.count()
    }

    /// Whether the report covers no operands.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Fastest operand in picoseconds (0.0 if empty).
    #[must_use]
    pub fn min_ps(&self) -> f64 {
        self.stats.minimum()
    }

    /// Median operand latency in picoseconds (0.0 if empty).
    #[must_use]
    pub fn median_ps(&self) -> f64 {
        self.stats.quantile(0.5)
    }

    /// Slowest operand in picoseconds (0.0 if empty).
    #[must_use]
    pub fn max_ps(&self) -> f64 {
        self.stats.maximum()
    }

    /// Mean operand latency in picoseconds (0.0 if empty).
    #[must_use]
    pub fn average_ps(&self) -> f64 {
        self.stats.average()
    }

    /// Latency distribution: `bins` equal-width bins between the fastest
    /// and slowest operand, as `(bin upper edge in ps, operand count)`
    /// pairs (empty with fewer than two samples).
    #[must_use]
    pub fn histogram(&self, bins: usize) -> Vec<(f64, usize)> {
        self.stats.histogram(bins)
    }

    /// The `p`-th percentile (0.0 ≤ p ≤ 100.0) over the recorded
    /// samples as an exact order statistic (nearest rank — the result
    /// is always one of the recorded samples; no interpolation), or 0.0
    /// if empty.  `percentile(50.0)`/`percentile(95.0)`/
    /// `percentile(99.0)` are the tail figures the serving layer
    /// reports; an all-equal collection returns that value for every
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    ///
    /// # Example
    ///
    /// ```
    /// use gatesim::LatencyReport;
    ///
    /// let report = LatencyReport::from_latencies((1..=100).map(f64::from).collect());
    /// assert_eq!(report.percentile(50.0), 50.0);
    /// assert_eq!(report.percentile(95.0), 95.0);
    /// assert_eq!(report.percentile(99.0), 99.0);
    /// assert_eq!(report.percentile(100.0), 100.0);
    /// // Degenerate all-equal samples: every percentile is that sample.
    /// let flat = LatencyReport::from_latencies(vec![7.0; 5]);
    /// assert_eq!(flat.percentile(99.0), 7.0);
    /// ```
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        self.stats.percentile(p)
    }

    /// Several percentiles at once with a single sort — see
    /// [`LatencyStats::percentiles`].  `percentiles(&[50.0, 95.0,
    /// 99.0])` is how the serving layer computes its tail summary.
    ///
    /// # Panics
    ///
    /// Panics if any `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentiles(&self, ps: &[f64]) -> Vec<f64> {
        self.stats.percentiles(ps)
    }
}

impl fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.1} ps median={:.1} ps max={:.1} ps avg={:.1} ps",
            self.count(),
            self.min_ps(),
            self.median_ps(),
            self.max_ps(),
            self.average_ps()
        )
    }
}

/// Per-token timing of a wavefront-pipelined protocol run, separating
/// the paper's two figures of merit: **token latency** (spacer→valid per
/// token — how fast one inference completes) and **cycle time** (how
/// soon the next token could be injected behind it — the
/// throughput-at-latency figure).
///
/// Under pipelining the two decouple: token latency stays inside the
/// unpipelined envelope while the injection interval drops well below
/// the two-settle cost of a full four-phase handshake, because operand
/// *k+1* enters as soon as the input stage acknowledges operand *k*'s
/// spacer instead of waiting for the global `done` round-trip.
///
/// Compares with `==` like [`LatencyReport`] (entry order included), so
/// thread-invariance and determinism property tests can assert
/// bit-identical reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineReport {
    /// Spacer→valid latency per token, in token order.
    pub token_latency: LatencyReport,
    /// Injection-to-injection interval per token, in token order (each
    /// train's last token closes on the train's drain, so a train's
    /// entries sum to its makespan; at occupancy 1 this is the full
    /// four-phase cycle time per token).
    pub cycle: LatencyReport,
    /// Total simulated time across all trains, injection of each train's
    /// first token to its final drain, in picoseconds.
    pub makespan_ps: f64,
    /// Tokens covered by the report.
    pub tokens: usize,
    /// The peak number of tokens in flight, measured from the run's
    /// own schedule: the most tokens in flight at any injection, over
    /// all trains (1 = serial delegation; 0 for an empty run).  A token
    /// is in flight from its injection until its spacer wave has
    /// drained.
    pub occupancy: usize,
}

impl PipelineReport {
    /// Simulated-hardware throughput: tokens per second of simulated
    /// time over the whole run (0.0 if no time elapsed).
    #[must_use]
    pub fn tokens_per_sec(&self) -> f64 {
        if self.makespan_ps <= 0.0 {
            return 0.0;
        }
        self.tokens as f64 / (self.makespan_ps * 1e-12)
    }

    /// Mean injection-to-injection interval in picoseconds (0.0 if the
    /// run had no overlapped pair).
    #[must_use]
    pub fn avg_cycle_ps(&self) -> f64 {
        self.cycle.average_ps()
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tokens={} occupancy={} token latency [{}] cycle [{}] makespan={:.1} ps ({:.0} tokens/s)",
            self.tokens,
            self.occupancy,
            self.token_latency,
            self.cycle,
            self.makespan_ps,
            self.tokens_per_sec()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_summary() {
        let mut s = LatencyStats::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.average(), 25.0);
        assert_eq!(s.minimum(), 10.0);
        assert_eq!(s.maximum(), 40.0);
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(1.0), 40.0);
        assert_eq!(s.quantile(0.5), 30.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.average(), 0.0);
        assert_eq!(s.maximum(), 0.0);
        assert_eq!(s.minimum(), 0.0);
        assert!(s.histogram(10).is_empty());
    }

    #[test]
    fn histogram_covers_all_samples() {
        let mut s = LatencyStats::new();
        for i in 0..100 {
            s.record(f64::from(i));
        }
        let hist = s.histogram(10);
        assert_eq!(hist.len(), 10);
        let total: usize = hist.iter().map(|(_, c)| *c).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn all_equal_samples_collapse_to_a_single_bin() {
        // Regression: a zero-width sample range used to produce bins
        // with duplicate edges (all collapsed onto the minimum) and all
        // counts piled into the first of `bins` indistinguishable bins.
        let mut s = LatencyStats::new();
        for _ in 0..5 {
            s.record(42.0);
        }
        for bins in [1, 3, 10] {
            assert_eq!(s.histogram(bins), vec![(42.0, 5)], "bins = {bins}");
        }
        // The degenerate report histogram inherits the same rule.
        let report = LatencyReport::from_latencies(vec![7.0; 4]);
        assert_eq!(report.histogram(8), vec![(7.0, 4)]);
        // Two distinct samples still get the regular equal-width bins.
        let mut spread = LatencyStats::new();
        spread.record(0.0);
        spread.record(10.0);
        let hist = spread.histogram(2);
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0], (5.0, 1));
        assert_eq!(hist[1], (10.0, 1));
    }

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        // Unsorted recording order: the percentile must sort first.
        let report = LatencyReport::from_latencies(vec![40.0, 10.0, 20.0, 30.0]);
        assert_eq!(report.percentile(0.0), 10.0);
        assert_eq!(report.percentile(25.0), 10.0);
        assert_eq!(report.percentile(50.0), 20.0);
        assert_eq!(report.percentile(75.0), 30.0);
        assert_eq!(report.percentile(76.0), 40.0);
        assert_eq!(report.percentile(100.0), 40.0);
        // Every result is one of the recorded samples (never interpolated):
        // with two samples the 50th percentile is the lower one, not 15.
        let two = LatencyReport::from_latencies(vec![20.0, 10.0]);
        assert_eq!(two.percentile(50.0), 10.0);
        assert_eq!(two.percentile(51.0), 20.0);
        // Single sample: every percentile is that sample.
        let one = LatencyReport::from_latencies(vec![5.0]);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(one.percentile(p), 5.0);
        }
        // Degenerate all-equal case.
        let flat = LatencyReport::from_latencies(vec![42.0; 9]);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(flat.percentile(p), 42.0);
        }
        // Empty report mirrors the other summaries.
        assert_eq!(LatencyReport::default().percentile(95.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn out_of_range_percentile_panics() {
        let _ = LatencyStats::new().percentile(101.0);
    }

    #[test]
    fn batch_percentiles_match_individual_calls() {
        let report = LatencyReport::from_latencies((1..=37).rev().map(f64::from).collect());
        let ps = [0.0, 12.5, 50.0, 95.0, 99.0, 100.0];
        let batch = report.percentiles(&ps);
        for (&p, &value) in ps.iter().zip(&batch) {
            assert_eq!(value, report.percentile(p), "p = {p}");
        }
        assert_eq!(LatencyReport::default().percentiles(&ps), vec![0.0; 6]);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyStats::new();
        a.record(1.0);
        let mut b = LatencyStats::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.average(), 2.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_sample_panics() {
        LatencyStats::new().record(-1.0);
    }

    #[test]
    fn latency_report_summaries_and_equality() {
        let report = LatencyReport::from_latencies(vec![40.0, 10.0, 20.0, 30.0]);
        assert_eq!(report.count(), 4);
        assert!(!report.is_empty());
        assert_eq!(report.latencies_ps(), &[40.0, 10.0, 20.0, 30.0]);
        assert_eq!(report.min_ps(), 10.0);
        assert_eq!(report.max_ps(), 40.0);
        assert_eq!(report.median_ps(), 30.0);
        assert_eq!(report.average_ps(), 25.0);
        let hist = report.histogram(4);
        assert_eq!(hist.iter().map(|(_, n)| n).sum::<usize>(), 4);
        // Equality is order-sensitive: same samples, different operand
        // order, different report.
        let reordered = LatencyReport::from_latencies(vec![10.0, 20.0, 30.0, 40.0]);
        assert_ne!(report, reordered);
        assert_eq!(report, report.clone());

        let empty = LatencyReport::default();
        assert!(empty.is_empty());
        assert_eq!(empty.min_ps(), 0.0);
        assert_eq!(empty.median_ps(), 0.0);
        let text = report.to_string();
        assert!(text.contains("median=30.0"));
    }

    #[test]
    fn display_formats_summary() {
        let mut s = LatencyStats::new();
        s.record(100.0);
        let text = s.to_string();
        assert!(text.contains("n=1"));
        assert!(text.contains("avg=100.0"));
    }
}
