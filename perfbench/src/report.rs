//! Metric collection, correctness accounting, summary statistics and the
//! final JSON line.

use std::fmt::Write as _;

/// Everything one run reports: named metrics with units, the operation
/// and failure counts, and the correctness violations found.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted across all phases.
    pub attempted: u64,
    /// Operations that failed, plus one per correctness violation.
    pub failed: u64,
    violations: Vec<String>,
    /// Per phase: (name, attempted, failed).
    tallies: Vec<(String, u64, u64)>,
}

impl Report {
    /// Records metric `name` (printed as it is recorded). A value that is
    /// not finite — a ratio over a zero that should not be — is a
    /// violation.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("  {name:<48} {value:>16.4} {unit}");
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.metrics.push((name, value, unit));
    }

    /// Records the median of `samples` (rounds or runs) as metric `name`,
    /// printing the sample count and range beside it.
    pub fn median_of(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.metric(name, median(samples), unit);
        println!(
            "    (median of {}, range {lo:.4} .. {hi:.4})",
            samples.len()
        );
    }

    /// Records a correctness check; a failed one is a violation and counts
    /// as one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            println!("  VIOLATION: {what}");
            self.violations.push(what);
            self.failed += 1;
        }
    }

    /// Adds operations attempted and failed to `phase`'s tally.
    pub fn tally(&mut self, phase: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        match self.tallies.iter_mut().find(|t| t.0 == phase) {
            Some(t) => {
                t.1 += attempted;
                t.2 += failed;
            }
            None => self.tallies.push((phase.to_string(), attempted, failed)),
        }
    }

    /// Prints each phase's failed share.
    pub fn print_tallies(&self) {
        for (phase, attempted, failed) in &self.tallies {
            let share = ratio(*failed as f64, *attempted as f64);
            println!("  {phase}: failed_share {share:e} ({failed} of {attempted})");
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; such a value already failed
            // its check in `metric`.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile of `sorted` (ascending), `q` in `[0, 1]`; 0 for
/// an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` and returns its (p50, p99).
pub fn p50_p99(v: &mut [u64]) -> (u64, u64) {
    v.sort_unstable();
    (quantile(v, 0.50), quantile(v, 0.99))
}

/// Median of a non-empty list of measurements (mean of the middle two
/// for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive ratios; NaN when there is none or one is
/// not positive.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || !v.iter().all(|&x| x > 0.0) {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}
