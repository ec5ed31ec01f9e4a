//! Printing metrics: one readable line each, then the closing JSON line.

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit (`s`, `ns`, `ratio`, ...).
    pub unit: &'static str,
    /// Which clock the value comes from: `host`, `sim` or `count`.
    pub clock: &'static str,
    /// What the value was computed from, e.g. the numerator and
    /// denominator of a ratio.
    pub base: String,
}

impl Metric {
    /// A metric with its base.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        clock: &'static str,
        base: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            clock,
            base: base.into(),
        }
    }

    /// `num / den` as a ratio metric, 0 when `den` is 0; the base names
    /// both.
    pub fn ratio(name: &'static str, clock: &'static str, num: f64, den: f64) -> Metric {
        let value = if den == 0.0 { 0.0 } else { num / den };
        Metric::new(name, value, "ratio", clock, format!("{num} / {den}"))
    }
}

/// The readable line for `m` on `workload`.
pub fn line(workload: &str, m: &Metric) -> String {
    format!(
        "metric {workload} {} = {} {} [{}] ({})",
        m.name, m.value, m.unit, m.clock, m.base
    )
}

/// The closing result line.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `n`, min, median and max of `values`, for a metric's base.
pub fn summary(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{} passes: min {min:.4} median {:.4} max {max:.4}",
        values.len(),
        median(values)
    )
}

/// Peak resident memory of this process in MB (`VmHWM`), if the system
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
