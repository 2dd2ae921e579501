//! A run's result: a table for people, then the one-line JSON object the
//! benchmark contract asks for as the last line of standard output.

use crate::stats::Floor;
use std::fmt::Write;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Across-window diagnostics for quiet-floor metrics.
    pub spread: Option<Floor>,
    /// Factor from window units to `unit`.
    scale: f64,
}

impl Metric {
    pub fn plain(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric { name: name.into(), unit, value, spread: None, scale: 1.0 }
    }

    /// A quiet-floor metric: the across-window 10th percentile, scaled.
    pub fn floor(name: impl Into<String>, unit: &'static str, f: Floor, scale: f64) -> Self {
        Metric { name: name.into(), unit, value: f.floor * scale, spread: Some(f), scale }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Report { workload, seed, attempted: 0, failed: 0, metrics: Vec::new(), notes: Vec::new() }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Every metric by name with its unit; quiet-floor metrics also show the
    /// across-window quartiles they were taken from.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload {} seed {}", self.workload, self.seed);
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for m in &self.metrics {
            let _ = write!(out, "  {:<28} {:>14.4} {:<6}", m.name, m.value, m.unit);
            if let Some(f) = m.spread {
                let _ = write!(
                    out,
                    " windows={} q1={:.4} median={:.4} q3={:.4}",
                    f.windows,
                    f.q1 * m.scale,
                    f.median * m.scale,
                    f.q3 * m.scale
                );
            }
            out.push('\n');
        }
        out
    }

    /// `{"correct": true, "attempted": n, "failed": n, "metrics": {...}}`.
    /// Only checked runs are reported, so `correct` is always true here: a
    /// failed check ends the process with an error and no result line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
        }
        out.push_str("}}");
        out
    }
}
