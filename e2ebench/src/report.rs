//! What one benchmark run reports, and the small statistics it needs.

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run, before printing.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Operations attempted: searches, or requests plus jobs.
    pub attempted: u64,
    /// Operations that errored, were shed, or failed their job.
    pub failed: u64,
    /// Output checks, each a hard failure when false.
    pub checks: Vec<(String, bool)>,
    /// Values that must repeat exactly for the same seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Digest of the inputs generated from the seed.
    pub inputs: u64,
    /// Extra human-readable lines (not part of the JSON result).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with every value printed at full precision.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (non-finite values become `null`, which the
/// self-check rejects).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The arithmetic mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`): always an observed value,
/// so a tail made of a few distinct slow steps does not interpolate
/// between clusters.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentile of the duration of the step in progress at a uniformly
/// random moment: the smallest duration `d` such that steps no longer
/// than `d` fill at least `p` of the total time.
pub fn time_weighted_percentile(durations: &[f64], p: f64) -> f64 {
    let mut v = durations.to_vec();
    v.sort_by(f64::total_cmp);
    let total: f64 = v.iter().sum();
    let mut covered = 0.0;
    for d in &v {
        covered += d;
        if covered >= p * total {
            return *d;
        }
    }
    f64::NAN
}

/// Peak resident set (VmHWM) of a process, in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A deterministic 64-bit digest (SipHash with fixed keys).
pub fn digest(parts: &[u64]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 10.0);
        assert_eq!(percentile(&v, 0.9), 18.0);
        assert_eq!(percentile(&v, 0.99), 20.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // One long step holding most of the time is the p90 however many
        // short steps surround it.
        let steps = [0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 3.5];
        assert_eq!(time_weighted_percentile(&steps, 0.5), 1.0);
        assert_eq!(time_weighted_percentile(&steps, 0.9), 3.5);
        assert!(time_weighted_percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("wall_s", 1.25, "s");
        r.attempted = 3;
        r.check("ok", true);
        assert_eq!(
            r.json_line(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}"#
        );
    }
}
