//! The result line and the small measurements every workload shares.

use crate::loadgen::{median, sorted};
use crate::timed::{CallKind, GemmSpan};
use mirage_tensor::faults::FaultCounts;
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result: the correctness verdict, the operation counts
/// and the metrics of this run (end-to-end untraced, per-layer traced).
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// What broke a correctness check, for the error stream.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed correctness check (the run still reports, but
    /// exits non-zero).
    pub fn violation(&mut self, what: String) {
        self.correct = false;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// GEMM-layer figures of a traced window: exact call counts per
    /// entry point, median call time, MAC rate and computed bytes.
    pub fn push_gemms(&mut self, gemms: &[GemmSpan]) {
        let prepared = gemms
            .iter()
            .filter(|g| g.kind == CallKind::Prepared)
            .count();
        self.push("gemm.prepared_calls", prepared as f64, "count");
        self.push("gemm.raw_calls", (gemms.len() - prepared) as f64, "count");
        let us = gemms.iter().map(|g| g.duration_ns() as f64 / 1e3).collect();
        self.push("gemm.us_per_call_p50", median(&sorted(us)), "us");
        let busy_ns: u64 = gemms.iter().map(GemmSpan::duration_ns).sum();
        let macs: u64 = gemms.iter().map(GemmSpan::macs).sum();
        self.push(
            "gemm.gmac_per_s",
            macs as f64 / busy_ns.max(1) as f64,
            "GMAC/s",
        );
        // Computed, not measured: f32 operand and result bytes per call.
        let bytes: usize = gemms
            .iter()
            .map(|g| 4 * (g.m * g.k + g.k * g.n + g.m * g.n))
            .sum();
        let per_call = bytes as f64 / gemms.len().max(1) as f64;
        self.push("gemm.bytes_per_call", per_call, "B_computed");
    }

    /// The fault-accounting metrics; the correction ratio is 1 when
    /// nothing was detected.
    pub fn push_faults(&mut self, f: FaultCounts) {
        self.push("faults.injected", f.injected as f64, "count");
        self.push("faults.detected", f.detected as f64, "count");
        self.push("faults.corrected", f.corrected as f64, "count");
        self.push("faults.uncorrectable", f.uncorrectable as f64, "count");
        let ratio = if f.detected == 0 {
            1.0
        } else {
            f.corrected as f64 / f.detected as f64
        };
        self.push("faults.correct_ratio", ratio, "ratio");
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_every_metric() {
        let mut o = Outcome::new();
        o.attempted = 3;
        o.push("p50_ms", 1.25, "ms");
        o.push("setup_s", 0.5, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.violation("wrong bits".into());
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }
}
