//! Chinchilla-style loss curves.
//!
//! The simulator does not train a network; losses follow the
//! parametric form of Hoffmann et al. (2022), which the paper's §3.3
//! explicitly motivates for scaling-study prediction:
//!
//! ```text
//! L(N, D) = E + A / N^alpha + B / D^beta
//! ```
//!
//! with `N` trainable parameters and `D` samples seen. Per-architecture
//! constants encode the study's qualitative findings: MAE's masked
//! objective extracts less signal per sample (larger `B`, smaller
//! `beta` → steeper data hunger), while SwinV2 converges more gently
//! and keeps improving at scale.

use crate::model::Architecture;

/// Parameters of the loss law for one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct LossLaw {
    /// Irreducible loss floor.
    pub e: f64,
    /// Parameter-scaling amplitude.
    pub a: f64,
    /// Parameter-scaling exponent.
    pub alpha: f64,
    /// Data-scaling amplitude.
    pub b: f64,
    /// Data-scaling exponent.
    pub beta: f64,
}

impl LossLaw {
    /// The constants used for each architecture in this reproduction.
    pub fn for_architecture(arch: Architecture) -> Self {
        match arch {
            Architecture::MaeVit => LossLaw {
                e: 0.22,
                a: 240.0,
                alpha: 0.34,
                b: 180.0,
                beta: 0.28,
            },
            Architecture::SwinV2 => LossLaw {
                e: 0.18,
                a: 320.0,
                alpha: 0.36,
                b: 95.0,
                beta: 0.32,
            },
        }
    }

    /// Expected loss after seeing `samples` with a model of `params`.
    pub fn loss(&self, params: u64, samples: f64) -> f64 {
        let n = (params.max(1)) as f64;
        let d = samples.max(1.0);
        self.e + self.a / n.powf(self.alpha) + self.b / d.powf(self.beta)
    }

    /// Loss including a deterministic per-step ripple, so logged curves
    /// look like real training rather than a smooth analytic line. The
    /// ripple decays as training progresses.
    pub fn noisy_loss(&self, params: u64, samples: f64, step: u64) -> f64 {
        let base = self.loss(params, samples);
        // Cheap deterministic hash → [-1, 1).
        let mut x = step.wrapping_mul(0x9E3779B97F4A7C15) ^ params;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51AFD7ED558CCD);
        x ^= x >> 33;
        let unit = (x as f64 / u64::MAX as f64) * 2.0 - 1.0;
        let amplitude = 0.03 * base / (1.0 + samples / 50_000.0);
        (base + unit * amplitude).max(self.e * 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_decreases_with_params_and_data() {
        let law = LossLaw::for_architecture(Architecture::SwinV2);
        let l_small = law.loss(100_000_000, 1e5);
        let l_big_model = law.loss(1_400_000_000, 1e5);
        let l_more_data = law.loss(100_000_000, 1e6);
        assert!(l_big_model < l_small);
        assert!(l_more_data < l_small);
    }

    #[test]
    fn loss_approaches_floor() {
        let law = LossLaw::for_architecture(Architecture::MaeVit);
        let l = law.loss(u64::MAX / 2, 1e30);
        assert!((l - law.e).abs() < 1e-3, "loss {l} vs floor {}", law.e);
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        let law = LossLaw::for_architecture(Architecture::MaeVit);
        assert!(law.loss(0, 0.0).is_finite());
        assert!(law.loss(1, -5.0).is_finite());
    }

    #[test]
    fn mae_needs_more_data_for_same_loss() {
        // At matched params and data, MAE's data term dominates more.
        let mae = LossLaw::for_architecture(Architecture::MaeVit);
        let swin = LossLaw::for_architecture(Architecture::SwinV2);
        let n = 600_000_000u64;
        let d: f64 = 400_000.0;
        let mae_data_term = mae.b / d.powf(mae.beta);
        let swin_data_term = swin.b / d.powf(swin.beta);
        assert!(mae_data_term > swin_data_term);
        // And the gap *widens* as data shrinks (steeper curve).
        let d_small: f64 = 50_000.0;
        let gap_small = mae.b / d_small.powf(mae.beta) - swin.b / d_small.powf(swin.beta);
        let gap_large = mae_data_term - swin_data_term;
        assert!(gap_small > gap_large);
        let _ = n;
    }

    #[test]
    fn noisy_loss_is_deterministic_and_bounded() {
        let law = LossLaw::for_architecture(Architecture::SwinV2);
        let a = law.noisy_loss(200_000_000, 10_000.0, 42);
        let b = law.noisy_loss(200_000_000, 10_000.0, 42);
        assert_eq!(a, b, "same inputs, same ripple");
        let base = law.loss(200_000_000, 10_000.0);
        assert!((a - base).abs() < 0.05 * base);
        assert!(a > 0.0);
    }

    #[test]
    fn ripple_decays_with_progress() {
        let law = LossLaw::for_architecture(Architecture::SwinV2);
        let spread = |samples: f64| {
            let base = law.loss(1_000_000_000, samples);
            (0..200)
                .map(|s| (law.noisy_loss(1_000_000_000, samples, s) - base).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(spread(1e7) < spread(1e3));
    }
}
