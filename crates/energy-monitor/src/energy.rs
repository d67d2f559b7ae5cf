//! Energy integration over power samples.

/// Converts joules to kilowatt-hours.
fn joules_to_kwh(j: f64) -> f64 {
    j / 3_600_000.0
}

/// Online trapezoidal integrator over `(t_seconds, watts)` samples.
///
/// Samples must arrive in non-decreasing time order; out-of-order
/// samples are ignored (and counted) rather than corrupting the
/// integral, because real SMI streams occasionally deliver stale
/// readings.
#[derive(Debug, Clone, Default)]
pub struct EnergyAccumulator {
    first: Option<f64>,
    last: Option<(f64, f64)>,
    joules: f64,
    samples: usize,
    dropped: usize,
    peak_w: f64,
}

impl EnergyAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one `(seconds, watts)` sample.
    pub fn add_sample(&mut self, t_s: f64, watts: f64) {
        if !t_s.is_finite() || !watts.is_finite() || watts < 0.0 {
            self.dropped += 1;
            return;
        }
        if let Some((pt, pw)) = self.last {
            if t_s < pt {
                self.dropped += 1;
                return;
            }
            self.joules += (t_s - pt) * (watts + pw) / 2.0;
        }
        if self.first.is_none() {
            self.first = Some(t_s);
        }
        self.last = Some((t_s, watts));
        self.samples += 1;
        self.peak_w = self.peak_w.max(watts);
    }

    /// Total integrated energy in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total integrated energy in kWh.
    pub fn kwh(&self) -> f64 {
        joules_to_kwh(self.joules)
    }

    /// Number of accepted samples.
    pub fn sample_count(&self) -> usize {
        self.samples
    }

    /// Number of rejected (out-of-order or non-finite) samples.
    pub fn dropped_count(&self) -> usize {
        self.dropped
    }

    /// Highest accepted wattage.
    pub fn peak_watts(&self) -> f64 {
        self.peak_w
    }

    /// Mean power over the observed interval (0 when < 2 samples).
    pub fn mean_watts(&self) -> f64 {
        match (self.first, self.last) {
            (Some(t0), Some((t1, _))) if t1 > t0 => self.joules / (t1 - t0),
            _ => 0.0,
        }
    }

    /// Merges another accumulator (for per-device → per-node rollups).
    /// Energies and counters add; the sample chain does not continue.
    pub fn merge(&mut self, other: &EnergyAccumulator) {
        self.joules += other.joules;
        self.samples += other.samples;
        self.dropped += other.dropped;
        self.peak_w = self.peak_w.max(other.peak_w);
        self.first = match (self.first, other.first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last = match (self.last, other.last) {
            (Some(a), Some(b)) => Some(if a.0 >= b.0 { a } else { b }),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_power_integrates_exactly() {
        let mut acc = EnergyAccumulator::new();
        for i in 0..=100 {
            acc.add_sample(i as f64 * 0.1, 250.0);
        }
        assert!((acc.joules() - 2500.0).abs() < 1e-9);
        assert!((acc.mean_watts() - 250.0).abs() < 1e-9);
        assert_eq!(acc.peak_watts(), 250.0);
    }

    #[test]
    fn linear_ramp_matches_closed_form() {
        let mut acc = EnergyAccumulator::new();
        // watts = 100 * t over t in [0, 10] → ∫ = 100 * 10² / 2 = 5000 J.
        for i in 0..=1000 {
            let t = i as f64 * 0.01;
            acc.add_sample(t, 100.0 * t);
        }
        assert!((acc.joules() - 5000.0).abs() < 1.0);
    }

    #[test]
    fn out_of_order_samples_dropped() {
        let mut acc = EnergyAccumulator::new();
        acc.add_sample(1.0, 100.0);
        acc.add_sample(0.5, 100.0); // stale
        acc.add_sample(2.0, 100.0);
        assert_eq!(acc.dropped_count(), 1);
        assert!((acc.joules() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_nonsense_samples() {
        let mut acc = EnergyAccumulator::new();
        acc.add_sample(0.0, 100.0);
        acc.add_sample(f64::NAN, 100.0);
        acc.add_sample(1.0, f64::INFINITY);
        acc.add_sample(1.0, -5.0);
        assert_eq!(acc.dropped_count(), 3);
        assert_eq!(acc.sample_count(), 1);
    }

    #[test]
    fn single_sample_has_zero_energy() {
        let mut acc = EnergyAccumulator::new();
        acc.add_sample(5.0, 300.0);
        assert_eq!(acc.joules(), 0.0);
        assert_eq!(acc.mean_watts(), 0.0);
    }

    #[test]
    fn unit_conversions() {
        assert!((joules_to_kwh(3_600_000.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_energies() {
        let mut a = EnergyAccumulator::new();
        a.add_sample(0.0, 100.0);
        a.add_sample(1.0, 100.0);
        let mut b = EnergyAccumulator::new();
        b.add_sample(0.0, 200.0);
        b.add_sample(2.0, 200.0);
        a.merge(&b);
        assert!((a.joules() - 500.0).abs() < 1e-9);
        assert_eq!(a.peak_watts(), 200.0);
        assert_eq!(a.sample_count(), 4);
    }
}
