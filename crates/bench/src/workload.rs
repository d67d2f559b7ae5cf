//! Workload generation for the storage experiments (Table 1 / E1, E6).
//!
//! The paper's 39.82 MB `Original_file.json` is a real training run's
//! provenance with all time series inline. This module synthesizes a
//! run of the same character: a dozen metrics across training,
//! validation and telemetry contexts, hundreds of thousands of samples,
//! values following noisy-but-smooth training curves (which is what
//! makes Gorilla-style compression representative).

use metric_store::series::{MetricPoint, MetricSeries};
use testkit::Rng;
use yprov4ml::collector::RunState;
use yprov4ml::model::{Context, Direction, LogRecord, ParamValue};

/// Metric names modelled after what yProv4ML logs per run.
pub const TABLE1_METRICS: &[(&str, &str)] = &[
    ("loss", "training"),
    ("grad_norm", "training"),
    ("learning_rate", "training"),
    ("samples_per_s", "training"),
    ("loss", "validation"),
    ("accuracy", "validation"),
    ("gpu_power_w", "telemetry"),
    ("gpu_util", "telemetry"),
    ("gpu_mem_bytes", "telemetry"),
    ("cpu_util", "telemetry"),
    ("energy_kwh", "telemetry"),
    ("io_read_bytes", "telemetry"),
];

/// One synthetic metric series of `steps` samples.
pub fn table1_series(name: &str, context: &str, steps: usize, seed: u64) -> MetricSeries {
    let mut rng = Rng::new(seed);
    let mut series = MetricSeries::new(name, context);
    let base_time: i64 = 1_700_000_000_000_000;
    let mut energy = 0.0f64;
    for i in 0..steps {
        let t = i as f64;
        let value = match name {
            "loss" => 2.5 / (1.0 + t * 0.002) + rng.range(-0.02..0.02),
            "grad_norm" => 1.0 / (1.0 + t * 0.001) + rng.range(0.0..0.05),
            "learning_rate" => 1e-3 * 0.5f64.powf(t / 20_000.0),
            "samples_per_s" => 4_000.0 + rng.range(-100.0..100.0),
            "accuracy" => 1.0 - 0.9 / (1.0 + t * 0.001),
            "gpu_power_w" => 260.0 + rng.range(-15.0..15.0),
            "gpu_util" => 0.92 + rng.range(-0.05..0.05),
            "gpu_mem_bytes" => 48.0e9 + rng.range(-1e8..1e8),
            "cpu_util" => 0.30 + rng.range(-0.1..0.1),
            "energy_kwh" => {
                energy += 260.0 * 0.5 / 3.6e6;
                energy
            }
            "io_read_bytes" => (i as f64) * 393_216.0 * 256.0,
            _ => rng.range(0.0..1.0),
        };
        series.push(MetricPoint {
            step: i as u64,
            epoch: (i / 3_125) as u32,
            time_us: base_time + (i as i64) * 500_000,
            value,
        });
    }
    series
}

/// A full synthetic run state with `steps` samples per metric
/// (12 metrics → `12 × steps` samples total) plus typical parameters.
pub fn table1_run_state(steps: usize) -> RunState {
    let mut state = RunState::default();
    for (name, value) in [
        ("architecture", ParamValue::Text("SwinT-V2".into())),
        ("params", ParamValue::Int(600_000_000)),
        ("gpus", ParamValue::Int(64)),
        ("per_gpu_batch", ParamValue::Int(32)),
        ("dataset", ParamValue::Text("MODIS-1km-L1B".into())),
        ("learning_rate", ParamValue::Float(1e-3)),
    ] {
        state.apply(LogRecord::Param {
            name: name.into(),
            value,
            direction: Direction::Input,
        });
    }
    for (idx, (name, ctx)) in TABLE1_METRICS.iter().enumerate() {
        let series = table1_series(name, ctx, steps, 42 + idx as u64);
        for p in &series.points {
            state.apply(LogRecord::Metric {
                name: name.to_string(),
                context: Context::from_name(ctx),
                step: p.step,
                epoch: p.epoch,
                time_us: p.time_us,
                value: p.value,
            });
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_are_deterministic() {
        let a = table1_series("loss", "training", 1000, 7);
        let b = table1_series("loss", "training", 1000, 7);
        assert_eq!(a, b);
        let c = table1_series("loss", "training", 1000, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn run_state_has_expected_volume() {
        let state = table1_run_state(500);
        assert_eq!(state.metric_samples, 500 * TABLE1_METRICS.len());
        assert_eq!(state.metrics.len(), TABLE1_METRICS.len());
        assert_eq!(state.params.len(), 6);
        assert_eq!(state.context_names().len(), 3);
    }

    #[test]
    fn loss_curves_decrease() {
        let s = table1_series("loss", "training", 10_000, 1);
        let early: f64 = s.points[..100].iter().map(|p| p.value).sum::<f64>() / 100.0;
        let late: f64 = s.points[9_900..].iter().map(|p| p.value).sum::<f64>() / 100.0;
        assert!(late < early / 2.0);
    }
}
