//! Device power models.
//!
//! A [`PowerModel`] maps utilization (0..=1) to instantaneous draw in
//! watts. The mapping is affine between an idle floor and a peak
//! envelope with a mild super-linear bend (dynamic power grows faster
//! than utilization because higher occupancy raises clocks and voltage),
//! which matches the shape of published MI250X power traces well enough
//! for trade-off studies.

/// An affine-plus-bend utilization → watts model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Human-readable device name.
    pub name: String,
    /// Draw at zero utilization (fans, HBM refresh, leakage).
    pub idle_w: f64,
    /// Draw at full sustained utilization.
    pub peak_w: f64,
    /// Bend exponent: 1.0 = linear; >1 pushes draw towards the top end.
    pub gamma: f64,
}

impl PowerModel {
    /// Builds a model; `peak_w` must be at least `idle_w` and both
    /// non-negative, `gamma` positive.
    pub fn new(name: impl Into<String>, idle_w: f64, peak_w: f64, gamma: f64) -> Self {
        assert!(idle_w >= 0.0 && peak_w >= idle_w, "peak must dominate idle");
        assert!(gamma > 0.0, "gamma must be positive");
        PowerModel {
            name: name.into(),
            idle_w,
            peak_w,
            gamma,
        }
    }

    /// Instantaneous draw at a utilization in `[0, 1]` (clamped).
    pub fn power_at(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_w + (self.peak_w - self.idle_w) * u.powf(self.gamma)
    }
}

/// One Graphics Compute Die of an AMD Instinct MI250X.
///
/// The MI250X module is rated at 560 W for two GCDs; Frontier treats
/// each GCD as one GPU (the paper trains on "8 GPUs per node" = 8 GCDs).
pub fn mi250x_gcd() -> PowerModel {
    PowerModel::new("MI250X-GCD", 92.0, 280.0, 1.25)
}

/// The 64-core AMD EPYC 7A53 "Trento" host CPU of a Frontier node.
pub fn epyc_7a53() -> PowerModel {
    PowerModel::new("EPYC-7A53", 95.0, 225.0, 1.1)
}

/// Node DRAM + fabric overhead, folded into one pseudo-device.
pub fn node_overhead() -> PowerModel {
    PowerModel::new("node-overhead", 120.0, 160.0, 1.0)
}

/// Aggregate draw of one Frontier-like node: 8 GCDs at `gpu_util`, the
/// host CPU at `cpu_util`, plus fixed node overhead.
pub fn frontier_node_power(gpu_util: f64, cpu_util: f64) -> f64 {
    8.0 * mi250x_gcd().power_at(gpu_util)
        + epyc_7a53().power_at(cpu_util)
        + node_overhead().power_at(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_and_peak_anchors() {
        let m = mi250x_gcd();
        assert_eq!(m.power_at(0.0), m.idle_w);
        assert!((m.power_at(1.0) - m.peak_w).abs() < 1e-9);
    }

    #[test]
    fn clamps_out_of_range_utilization() {
        let m = mi250x_gcd();
        assert_eq!(m.power_at(-3.0), m.idle_w);
        assert!((m.power_at(7.0) - m.peak_w).abs() < 1e-9);
    }

    #[test]
    fn monotone_in_utilization() {
        let m = epyc_7a53();
        let mut prev = -1.0;
        for i in 0..=100 {
            let p = m.power_at(i as f64 / 100.0);
            assert!(p >= prev, "power must not decrease with utilization");
            prev = p;
        }
    }

    #[test]
    fn superlinear_bend() {
        let m = mi250x_gcd();
        // With gamma > 1, half utilization draws less than the midpoint.
        let mid = (m.idle_w + m.peak_w) / 2.0;
        assert!(m.power_at(0.5) < mid);
    }

    #[test]
    fn frontier_node_in_plausible_envelope() {
        // Idle node: somewhere above 1 kW (8 GCD floors + CPU + overhead).
        let idle = frontier_node_power(0.0, 0.0);
        assert!(idle > 900.0 && idle < 1_500.0, "idle draw {idle}");
        // Flat-out node: below the 4 kW node budget but above 2 kW.
        let busy = frontier_node_power(1.0, 0.6);
        assert!(busy > 2_000.0 && busy < 4_000.0, "busy draw {busy}");
    }

    #[test]
    #[should_panic(expected = "peak must dominate idle")]
    fn rejects_inverted_envelope() {
        PowerModel::new("bad", 100.0, 50.0, 1.0);
    }
}
