//! What a run reports: the check ledger, the metrics, timing summaries,
//! and the deterministic counts compared across runs.

use crate::stats::{summarize, Summary};
use std::fmt::Write as _;
use std::path::Path;
use vegen_engine::json::Json;

/// Output checks: every one is counted, none is dropped.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Count one check; keep the first few failure messages.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run produces.
#[derive(Default)]
pub struct Report {
    pub ledger: Ledger,
    pub metrics: Vec<Metric>,
    /// Timing summaries for the human-readable report.
    pub timings: Vec<(String, Summary)>,
    /// Deterministic counts: identical across runs at one seed, traced or
    /// not.
    pub counts: Vec<(&'static str, f64)>,
    /// Peak resident set of the measured work, when the workload takes
    /// it itself (after its first unit of work, so the figure does not
    /// depend on how many units fit in the time).
    pub peak_rss_mb: Option<f64>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a timing's samples (seconds) under `label`.
    pub fn timing(&mut self, label: impl Into<String>, samples: &[f64]) {
        self.timings.push((label.into(), summarize(samples)));
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    fn counts_json(&self) -> Json {
        Json::Obj(self.counts.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect())
    }

    /// Compare this run's deterministic counts with the record of an
    /// earlier run of the same build at the same seed (traced or not), or
    /// leave the record for a later run to compare against.
    pub fn check_determinism(&mut self, record: &Path, build_id: &str) {
        let mine = Json::obj([("build", Json::str(build_id)), ("counts", self.counts_json())]);
        let earlier = std::fs::read_to_string(record).ok().and_then(|t| Json::parse(&t).ok());
        match earlier {
            Some(prev) if prev.get("build").and_then(Json::as_str) == Some(build_id) => {
                let want = prev.get("counts").cloned().unwrap_or(Json::Null).render();
                let got = self.counts_json().render();
                self.ledger.check(if want == got {
                    Ok(())
                } else {
                    Err(format!("deterministic counts differ from an earlier run: {want} vs {got}"))
                });
            }
            _ => {
                if let Err(e) = std::fs::write(record, mine.render() + "\n") {
                    eprintln!("perfbench: cannot write {}: {e}", record.display());
                }
            }
        }
    }

    /// Human-readable lines (stdout, before the result line).
    pub fn human(&self) -> String {
        let mut s = String::new();
        for (label, summary) in &self.timings {
            let _ = writeln!(s, "timing {label:<28} {summary}");
        }
        for (name, v) in &self.counts {
            let _ = writeln!(s, "count  {name:<28} {v}");
        }
        for f in &self.ledger.failures {
            let _ = writeln!(s, "FAILED {f}");
        }
        s
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, with every value printed with all its digits.
    pub fn result_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.ledger.failed == 0,
            self.ledger.attempted.max(1),
            self.ledger.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
