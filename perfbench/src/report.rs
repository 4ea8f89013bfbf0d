//! Checking outputs, summary statistics, and the result line.

use crate::golden;
use crate::workload::OpResult;
use std::fmt::Write as _;

/// Counts operations attempted and failed across every pass of a run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations run.
    pub attempted: u64,
    /// Operations that returned an error, panicked, differed from their
    /// golden section, or differed from the same operation's reference.
    pub failed: u64,
}

impl Ledger {
    /// Records one pass. Each operation is one attempt; it fails if it
    /// errored, if its section differs from its golden (seeded sections at
    /// the pinned seeds only), or if it differs from the operation of the
    /// same name in `reference`. Failures are explained on stderr.
    pub fn record(&mut self, pass: &[OpResult], pinned: bool, reference: Option<&[OpResult]>) {
        for op in pass {
            self.attempted += 1;
            if let Some(why) = failure(op, pinned, reference) {
                self.failed += 1;
                eprintln!("perfbench: {why}");
            }
        }
        if let Some(reference) = reference {
            if reference.len() != pass.len() {
                self.failed += 1;
                eprintln!("perfbench: a pass ran a different number of operations");
            }
        }
    }
}

fn failure(op: &OpResult, pinned: bool, reference: Option<&[OpResult]>) -> Option<String> {
    let section = match &op.output {
        Ok(section) => section,
        Err(e) => return Some(format!("{} failed: {e}", op.name)),
    };
    if let Some(why) = golden::mismatch(op.name, section, pinned) {
        return Some(why);
    }
    let reference = reference?;
    match reference.iter().find(|r| r.name == op.name) {
        Some(r) if r == op => None,
        _ => Some(format!("{} differs from the reference pass", op.name)),
    }
}

/// The median of `values` (the mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's memory high-water mark (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// This thread's on-CPU and run-queue-wait nanoseconds so far, from
/// `/proc/thread-self/schedstat`; `None` where the kernel does not report
/// them.
pub fn thread_sched_ns() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = stat.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// Named metric values with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. A non-finite value is written as 0 and marks the run
/// incorrect, since JSON cannot carry it.
pub fn result_line(ledger: &Ledger, metrics: &Metrics) -> String {
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.failed == 0 && ledger.attempted > 0 && finite,
        ledger.attempted,
        ledger.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.25, "s");
        m.set("setup_s", 0.5, "s");
        let ledger = Ledger {
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            result_line(&ledger, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    fn op(name: &'static str, output: Result<&str, &str>) -> OpResult {
        OpResult {
            name,
            output: output.map(str::to_owned).map_err(str::to_owned),
            artifacts: String::new(),
        }
    }

    #[test]
    fn every_kind_of_failure_counts_once() {
        let reference = [op("telemetry-export", Ok("a")), op("birthday", Ok("b"))];
        let mut ledger = Ledger::default();
        ledger.record(&reference, false, None);
        assert_eq!((ledger.attempted, ledger.failed), (2, 0));
        // An error, a difference from the reference pass, and (at the
        // pinned seeds) a difference from the golden section.
        ledger.record(&[op("telemetry-export", Err("boom"))], false, None);
        ledger.record(
            &[op("telemetry-export", Ok("x")), op("birthday", Ok("b"))],
            false,
            Some(&reference),
        );
        ledger.record(&[op("birthday", Ok("b"))], true, None);
        assert_eq!((ledger.attempted, ledger.failed), (6, 3));
        // A pass that drops an operation fails as a whole.
        ledger.record(&[op("birthday", Ok("b"))], false, Some(&reference));
        assert_eq!((ledger.attempted, ledger.failed), (7, 4));
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
