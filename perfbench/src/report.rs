//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

use crate::BoxError;

/// Named metrics in insertion order, plus the operation counts.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
}

impl Report {
    /// Records metric `name` in `unit`, with a note for the human log
    /// (how it was measured and over how many samples).
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push((name, value, unit));
        self.notes
            .push(format!("{name:<38} {value:>16.4} {unit:<10} {note}"));
    }

    /// Marks the run failed: it still logs what it measured, but
    /// reports no result.
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }

    /// One line per metric, for the standard-error log.
    pub fn render(&self) -> String {
        self.notes.join("\n")
    }

    /// The final JSON line.  Every run that reaches it has passed all
    /// of its correctness gates, so `correct` is always `true`: a
    /// diverging run exits with an error instead of reporting numbers.
    pub fn to_json(&self) -> Result<String, BoxError> {
        if !self.failures.is_empty() {
            return Err(self.failures.join("; ").into());
        }
        if self.attempted == 0 {
            return Err("the run attempted no operation".into());
        }
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number ({value})").into());
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )?;
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        ))
    }
}
