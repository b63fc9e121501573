//! Small measurement helpers: percentiles, peak RSS, and the JSON
//! result line.

use std::fmt::Write as _;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank
/// method; `0.0` for no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Above this many samples a single order statistic is already steady
/// and [`quantile_hd`] falls back to [`quantile`].
const HD_MAX_SAMPLES: usize = 4096;

/// The `q`-quantile of `samples` by the Harrell–Davis estimator: a
/// Beta((n+1)q, (n+1)(1−q))-weighted mean of all order statistics. On the
/// hundred-odd latencies of an in-process run it is far steadier than one
/// order statistic, which jumps wherever the sorted latencies have a gap.
#[must_use]
pub fn quantile_hd(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    if n == 0 || n > HD_MAX_SAMPLES {
        return quantile(samples, q);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    let mut below = 0.0;
    let mut acc = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = beta_inc(a, b, (i + 1) as f64 / n as f64);
        acc += (upto - below) * x;
        below = upto;
    }
    acc
}

/// `ln Γ(x)` for `x > 0` (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)·Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum: f64 = C[0] + (1..9).map(|i| C[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The continued fraction of the incomplete beta function (modified
/// Lentz method).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a - 1.0 + 2.0 * m) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 1.0 + 2.0 * m));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-13 {
            break;
        }
    }
    h
}

/// The regularized incomplete beta function `I_x(a, b)`.
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or `0.0` when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// process) in MiB, from `/proc/<pid>/status`.
#[must_use]
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's peak RSS to its current RSS (Linux
/// `clear_refs` code 5), so a later [`peak_rss_mib`] covers only what
/// follows. Best effort: a kernel without it keeps the older peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One named metric with its unit, in print order.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The ordered metric set a run reports.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }

    /// Human-readable `name = value unit` lines.
    #[must_use]
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(out, "  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The `"metrics"` JSON object, keeping only `keep` names.
    #[must_use]
    pub fn to_json(&self, keep: &[&str]) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .filter(|m| keep.contains(&m.name))
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The benchmark's final stdout line.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn incomplete_beta_matches_a_closed_form() {
        // I_0.4(2, 3) = Σ_{j=2}^{4} C(4,j) 0.4^j 0.6^(4−j) = 0.5248.
        assert!((beta_inc(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-10);
        assert!((beta_inc(30.0, 70.0, 0.3) - 0.5).abs() < 0.05);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.25) - 3.625_609_908_221_908f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn harrell_davis_is_a_weighted_mean_of_order_statistics() {
        let odd: Vec<f64> = (1..=5).map(f64::from).collect();
        assert!((quantile_hd(&odd, 0.5) - 3.0).abs() < 1e-9);
        assert!((quantile_hd(&[7.0; 40], 0.9) - 7.0).abs() < 1e-9);
        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = quantile_hd(&ramp, 0.9);
        assert!((89.0..=92.0).contains(&p90), "{p90}");
    }
}
