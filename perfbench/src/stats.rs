//! Summaries of measured samples and the run report the benchmark prints.

use std::fmt::Write as _;

/// Percentiles a tail may be reported at, in per mille, lowest first.
const TAIL_LADDER: [u64; 5] = [750, 900, 950, 990, 999];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` (0 for an empty slice), interpolated
/// linearly between the two nearest order statistics (the sample
/// median for `p` = 50). `p` of 0 or 100 gives the minimum or the
/// maximum.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The smallest of `xs` (0 for an empty slice).
pub fn min(xs: &[f64]) -> f64 {
    percentile(xs, 0.0)
}

/// The tail percentile to report for `n` samples: the highest on the
/// ladder with at least [`TAIL_MIN_BEYOND`] samples beyond it. `None`
/// when even the lowest rung has fewer; the caller then reports the
/// maximum and says so.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&pm| n as u64 * (1000 - pm) >= TAIL_MIN_BEYOND * 1000)
        .map(|&pm| pm as f64 / 10.0)
}

/// A tail summary: the value, the percentile it was read at (100 for
/// the maximum fallback) and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// The percentile it was read at.
    pub pct: f64,
    /// Samples it was read from.
    pub n: usize,
}

/// The tail of `xs` by [`tail_percentile`].
pub fn tail(xs: &[f64]) -> Tail {
    let pct = tail_percentile(xs.len()).unwrap_or(100.0);
    Tail {
        value: percentile(xs, pct),
        pct,
        n: xs.len(),
    }
}

/// True when `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the number was computed from, for the printed table.
    pub note: String,
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sessions, program runs or requests).
    pub attempted: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// Reasons for the first few failures.
    pub failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Free-form report sections printed before the metric table.
    pub sections: Vec<String>,
}

impl Report {
    /// Adds a metric. Panics on an invalid or repeated name — both are
    /// bugs in the benchmark, not in the measured program.
    pub fn put(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name:?} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Records one attempted operation and whether it passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Failed operations over attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable table: one line per metric with its unit.
    pub fn table(&self) -> String {
        let w = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<w$}  {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        out
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics restricted to
    /// `names` in that order.
    pub fn json_line(&self, names: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name:?} was not measured"));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values become 0).
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v:?}");
    s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.9));
    }

    #[test]
    fn tail_falls_back_to_the_maximum() {
        let xs: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Tail {
                value: 15.0,
                pct: 100.0,
                n: 15
            }
        );
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.n), (90.0, 91.0, 101));
    }

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0, 1.0]), 4.0);
        assert_eq!(percentile(&[2.0; 9], 90.0), 2.0);
        assert_eq!(percentile(&[1.0, 9.0, 4.0], 100.0), 9.0);
        assert_eq!(min(&[1.0, 9.0, 4.0]), 1.0);
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 25.0), 26.0);
        assert_eq!(percentile(&xs, 90.0), 91.0);
        assert_eq!(percentile(&xs, 99.9), 100.9);
        // One value per program: the middle program's time, whatever
        // the slow programs around it take.
        assert_eq!(median(&[0.24, 1.9, 0.32, 2.5, 0.29]), 0.32);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "engine.op_self_s.scan_ext",
            "features.verify_calls.bold-font",
            "0x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "a:b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.put("a_s", 1.25, "s", "");
        r.put("b_ms", 3.0, "ms", "");
        r.check(true, String::new);
        let line = r.json_line(&["b_ms", "a_s"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"b_ms\": {\"value\": 3, \"unit\": \"ms\"}, \"a_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        r.check(false, || "boom".into());
        assert!(r
            .json_line(&[])
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        Report::default().put("bad name", 1.0, "s", "");
    }
}
