//! In-memory representation of one metric time series.

/// One sample of a metric: which step/epoch it belongs to, when it was
/// taken, and its value. This mirrors yProv4ML's metric records (step,
/// context epoch, wall time, value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPoint {
    /// Global step counter at which the sample was logged.
    pub step: u64,
    /// Epoch the sample belongs to (paper data model, Figure 2).
    pub epoch: u32,
    /// Wall-clock timestamp, microseconds since the Unix epoch.
    pub time_us: i64,
    /// The metric value.
    pub value: f64,
}

/// A named metric series within one context (e.g. `loss` in `training`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Metric name (`loss`, `gpu_power_w`, ...).
    pub name: String,
    /// Context the metric was logged under (`training`, `validation`, ...).
    pub context: String,
    /// The samples, in logging order.
    pub points: Vec<MetricPoint>,
}

impl MetricSeries {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>, context: impl Into<String>) -> Self {
        MetricSeries {
            name: name.into(),
            context: context.into(),
            points: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, p: MetricPoint) {
        self.points.push(p);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were logged.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The storage key `name@context` used by file-backed stores.
    pub fn key(&self) -> String {
        format!("{}@{}", self.name, self.context)
    }

    /// Splits the columnar views: `(steps, epochs, times, values)`.
    pub fn columns(&self) -> (Vec<u64>, Vec<u32>, Vec<i64>, Vec<f64>) {
        let mut steps = Vec::with_capacity(self.points.len());
        let mut epochs = Vec::with_capacity(self.points.len());
        let mut times = Vec::with_capacity(self.points.len());
        let mut values = Vec::with_capacity(self.points.len());
        for p in &self.points {
            steps.push(p.step);
            epochs.push(p.epoch);
            times.push(p.time_us);
            values.push(p.value);
        }
        (steps, epochs, times, values)
    }

    /// Rebuilds a series from its columns. Column lengths must match.
    pub fn from_columns(
        name: impl Into<String>,
        context: impl Into<String>,
        steps: Vec<u64>,
        epochs: Vec<u32>,
        times: Vec<i64>,
        values: Vec<f64>,
    ) -> Option<Self> {
        if steps.len() != epochs.len() || steps.len() != times.len() || steps.len() != values.len()
        {
            return None;
        }
        let points = steps
            .into_iter()
            .zip(epochs)
            .zip(times)
            .zip(values)
            .map(|(((step, epoch), time_us), value)| MetricPoint {
                step,
                epoch,
                time_us,
                value,
            })
            .collect();
        Some(MetricSeries {
            name: name.into(),
            context: context.into(),
            points,
        })
    }

    /// Descriptive statistics over the values, ignoring NaNs.
    pub fn stats(&self) -> SeriesStats {
        let mut stats = SeriesStats::default();
        let mut sum = 0.0;
        let mut finite = 0usize;
        for p in &self.points {
            if p.value.is_nan() {
                stats.nan_count += 1;
                continue;
            }
            finite += 1;
            sum += p.value;
            stats.min = stats.min.min(p.value);
            stats.max = stats.max.max(p.value);
        }
        stats.count = self.points.len();
        if finite > 0 {
            stats.mean = sum / finite as f64;
        } else {
            stats.min = f64::NAN;
            stats.max = f64::NAN;
            stats.mean = f64::NAN;
        }
        stats.last = self.points.last().map(|p| p.value);
        stats
    }
}

/// Summary statistics for a series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesStats {
    /// Total number of points (including NaNs).
    pub count: usize,
    /// Number of NaN values.
    pub nan_count: usize,
    /// Minimum finite value (NaN when none).
    pub min: f64,
    /// Maximum finite value (NaN when none).
    pub max: f64,
    /// Mean of non-NaN values (NaN when none).
    pub mean: f64,
    /// The most recent value, if any.
    pub last: Option<f64>,
}

impl Default for SeriesStats {
    fn default() -> Self {
        SeriesStats {
            count: 0,
            nan_count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            last: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> MetricSeries {
        let mut s = MetricSeries::new("loss", "training");
        for (i, &v) in values.iter().enumerate() {
            s.push(MetricPoint {
                step: i as u64,
                epoch: (i / 2) as u32,
                time_us: i as i64 * 1000,
                value: v,
            });
        }
        s
    }

    #[test]
    fn key_combines_name_and_context() {
        assert_eq!(series(&[]).key(), "loss@training");
    }

    #[test]
    fn columns_roundtrip() {
        let s = series(&[3.0, 2.0, 1.0, 0.5]);
        let (steps, epochs, times, values) = s.columns();
        let back =
            MetricSeries::from_columns("loss", "training", steps, epochs, times, values).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn from_columns_rejects_mismatched_lengths() {
        assert!(MetricSeries::from_columns(
            "m",
            "c",
            vec![1, 2],
            vec![0],
            vec![0, 0],
            vec![0.0, 0.0]
        )
        .is_none());
    }

    #[test]
    fn stats_basic() {
        let s = series(&[3.0, 1.0, 2.0]);
        let st = s.stats();
        assert_eq!(st.count, 3);
        assert_eq!(st.min, 1.0);
        assert_eq!(st.max, 3.0);
        assert!((st.mean - 2.0).abs() < 1e-12);
        assert_eq!(st.last, Some(2.0));
        assert_eq!(st.nan_count, 0);
    }

    #[test]
    fn stats_handles_nan() {
        let s = series(&[1.0, f64::NAN, 3.0]);
        let st = s.stats();
        assert_eq!(st.nan_count, 1);
        assert_eq!(st.min, 1.0);
        assert_eq!(st.max, 3.0);
        assert!((st.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_all_nan() {
        let s = series(&[f64::NAN, f64::NAN]);
        let st = s.stats();
        assert!(st.min.is_nan() && st.max.is_nan() && st.mean.is_nan());
        assert_eq!(st.count, 2);
    }
}
