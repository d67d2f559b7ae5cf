//! Performance forecasting from historical provenance (paper §3.3).
//!
//! "Having access to a dataset that contains fine-grained information
//! about similar applications could help to understand how the
//! architecture would behave when increasing a particular parameter,
//! without having to train the model from scratch each time."
//!
//! [`LogLinearModel`] fits `log(target) = w · [1, log(params),
//! log(samples), log(gpus)]` by least squares over a set of recorded
//! runs, then predicts the target (walltime, energy, loss offset) of a
//! *planned* configuration "with a single inference step". The log-log
//! form is the right inductive bias: every quantity in this domain
//! follows power laws in the scaling variables.
//!
//! The solver is a plain normal-equations Gaussian elimination — four
//! unknowns do not need a linear-algebra crate.

use crate::compare::RunSummary;
use std::collections::BTreeMap;

/// The scaling features of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunFeatures {
    /// Trainable parameters.
    pub params: f64,
    /// Training samples consumed.
    pub samples: f64,
    /// Data-parallel GPUs.
    pub gpus: f64,
}

impl RunFeatures {
    /// Extracts features from a run summary (the parameters the
    /// `ProvenanceObserver` records). Returns `None` when any is
    /// missing or non-positive.
    fn from_summary(s: &RunSummary) -> Option<RunFeatures> {
        let get =
            |key: &str| -> Option<f64> { s.params.get(key).and_then(|v| v.parse::<f64>().ok()) };
        let f = RunFeatures {
            params: get("params")?,
            samples: get("samples_seen").or_else(|| get("dataset_samples"))?,
            gpus: get("gpus")?,
        };
        (f.params > 0.0 && f.samples > 0.0 && f.gpus > 0.0).then_some(f)
    }

    fn design_row(&self) -> [f64; 4] {
        [1.0, self.params.ln(), self.samples.ln(), self.gpus.ln()]
    }
}

/// A fitted log-linear power-law model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogLinearModel {
    /// Weights for `[1, ln params, ln samples, ln gpus]`.
    pub weights: [f64; 4],
    /// Number of runs it was fitted on.
    pub fitted_on: usize,
    /// Root-mean-square relative error on the training runs.
    pub train_rms_rel_error: f64,
}

/// Errors from fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer runs than unknowns.
    NotEnoughRuns {
        /// Runs provided.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// A target value was non-positive or non-finite (log undefined).
    BadTarget(f64),
    /// The normal equations were singular (degenerate design, e.g. all
    /// runs share the same configuration).
    Singular,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::NotEnoughRuns { got, need } => {
                write!(f, "need at least {need} runs, got {got}")
            }
            FitError::BadTarget(v) => write!(f, "target {v} is not a positive finite number"),
            FitError::Singular => write!(f, "degenerate design matrix (identical runs?)"),
        }
    }
}

impl std::error::Error for FitError {}

impl LogLinearModel {
    /// Fits the model on `(features, target)` pairs.
    fn fit(data: &[(RunFeatures, f64)]) -> Result<LogLinearModel, FitError> {
        const D: usize = 4;
        if data.len() < D {
            return Err(FitError::NotEnoughRuns {
                got: data.len(),
                need: D,
            });
        }
        for (_, y) in data {
            if !(y.is_finite() && *y > 0.0) {
                return Err(FitError::BadTarget(*y));
            }
        }

        // Normal equations: (XᵀX) w = Xᵀy in log space.
        let mut xtx = [[0.0f64; D]; D];
        let mut xty = [0.0f64; D];
        for (f, y) in data {
            let row = f.design_row();
            let ly = y.ln();
            for i in 0..D {
                for j in 0..D {
                    xtx[i][j] += row[i] * row[j];
                }
                xty[i] += row[i] * ly;
            }
        }
        let weights = solve4(xtx, xty).ok_or(FitError::Singular)?;

        let model = LogLinearModel {
            weights,
            fitted_on: data.len(),
            train_rms_rel_error: 0.0,
        };
        let mut sq = 0.0;
        for (f, y) in data {
            let rel = (model.predict(f) - y) / y;
            sq += rel * rel;
        }
        Ok(LogLinearModel {
            train_rms_rel_error: (sq / data.len() as f64).sqrt(),
            ..model
        })
    }

    /// Fits from run summaries, pulling the target from an output
    /// parameter (e.g. `walltime_s`, `energy_kwh`).
    pub fn fit_from_summaries(
        summaries: &[RunSummary],
        target_param: &str,
    ) -> Result<LogLinearModel, FitError> {
        let data: Vec<(RunFeatures, f64)> = summaries
            .iter()
            .filter_map(|s| {
                let f = RunFeatures::from_summary(s)?;
                let y = s.params.get(target_param)?.parse::<f64>().ok()?;
                Some((f, y))
            })
            .collect();
        LogLinearModel::fit(&data)
    }

    /// Predicts the target for a planned configuration.
    pub fn predict(&self, features: &RunFeatures) -> f64 {
        let row = features.design_row();
        let log_y: f64 = row.iter().zip(&self.weights).map(|(x, w)| x * w).sum();
        log_y.exp()
    }

    /// The fitted power-law exponents by feature name.
    pub fn exponents(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("params", self.weights[1]),
            ("samples", self.weights[2]),
            ("gpus", self.weights[3]),
        ])
    }
}

/// Solves a 4×4 linear system with partial pivoting.
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> Option<[f64; 4]> {
    const D: usize = 4;
    for col in 0..D {
        // Pivot.
        let mut pivot = col;
        for row in col + 1..D {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate.
        for row in col + 1..D {
            let factor = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (k, cell) in a[row].iter_mut().enumerate().skip(col) {
                *cell -= factor * pivot_row[k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0f64; D];
    for col in (0..D).rev() {
        let mut sum = b[col];
        for k in col + 1..D {
            sum -= a[col][k] * x[k];
        }
        x[col] = sum / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(params: f64, samples: f64, gpus: f64) -> RunFeatures {
        RunFeatures {
            params,
            samples,
            gpus,
        }
    }

    /// Synthetic ground truth: walltime = 3e-12 · params · samples / gpus.
    fn synthetic_walltime(f: &RunFeatures) -> f64 {
        3e-12 * f.params * f.samples / f.gpus
    }

    fn grid() -> Vec<(RunFeatures, f64)> {
        let mut data = Vec::new();
        for params in [1e8, 2e8, 6e8, 1.4e9] {
            for samples in [1e5, 4e5, 8e5] {
                for gpus in [8.0, 32.0, 128.0] {
                    let f = features(params, samples, gpus);
                    data.push((f, synthetic_walltime(&f)));
                }
            }
        }
        data
    }

    #[test]
    fn recovers_exact_power_law() {
        let model = LogLinearModel::fit(&grid()).unwrap();
        assert!(model.train_rms_rel_error < 1e-9, "exact law, exact fit");
        let exp = model.exponents();
        assert!((exp["params"] - 1.0).abs() < 1e-9);
        assert!((exp["samples"] - 1.0).abs() < 1e-9);
        assert!((exp["gpus"] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn predicts_unseen_configuration() {
        let model = LogLinearModel::fit(&grid()).unwrap();
        // A corner not in the training grid.
        let planned = features(3e8, 2e5, 64.0);
        let predicted = model.predict(&planned);
        let truth = synthetic_walltime(&planned);
        assert!(
            ((predicted - truth) / truth).abs() < 1e-6,
            "predicted {predicted} vs {truth}"
        );
    }

    #[test]
    fn tolerates_noise() {
        let mut data = grid();
        // ±5 % deterministic "noise".
        for (i, (_, y)) in data.iter_mut().enumerate() {
            *y *= 1.0 + 0.05 * ((i as f64 * 0.7).sin());
        }
        let model = LogLinearModel::fit(&data).unwrap();
        assert!(model.train_rms_rel_error < 0.06);
        let planned = features(3e8, 2e5, 64.0);
        let rel = (model.predict(&planned) - synthetic_walltime(&planned)).abs()
            / synthetic_walltime(&planned);
        assert!(rel < 0.1, "rel error {rel}");
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(matches!(
            LogLinearModel::fit(&[]),
            Err(FitError::NotEnoughRuns { .. })
        ));
        // Identical runs → singular.
        let f = features(1e8, 1e5, 8.0);
        let same = vec![(f, 100.0); 10];
        assert!(matches!(
            LogLinearModel::fit(&same),
            Err(FitError::Singular)
        ));
        // Non-positive target.
        let mut data = grid();
        data[0].1 = 0.0;
        assert!(matches!(
            LogLinearModel::fit(&data),
            Err(FitError::BadTarget(_))
        ));
    }

    #[test]
    fn features_from_summary() {
        use std::collections::BTreeMap;
        let s = RunSummary {
            run: "r".into(),
            params: BTreeMap::from([
                ("params".to_string(), "600000000".to_string()),
                ("samples_seen".to_string(), "800000".to_string()),
                ("gpus".to_string(), "64".to_string()),
                ("walltime_s".to_string(), "5400.5".to_string()),
            ]),
            input_params: Default::default(),
            metrics: Default::default(),
            outputs: Vec::new(),
        };
        let f = RunFeatures::from_summary(&s).unwrap();
        assert_eq!(f.gpus, 64.0);
        assert_eq!(f.params, 6e8);
        // Missing a feature → None.
        let mut incomplete = s.clone();
        incomplete.params.remove("gpus");
        assert!(RunFeatures::from_summary(&incomplete).is_none());
    }
}
