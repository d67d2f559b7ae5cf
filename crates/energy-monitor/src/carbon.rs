//! Carbon-intensity conversion.
//!
//! The paper's §3 use cases frame provenance as the substrate for
//! energy-*and-emissions*-aware training decisions; the conversion from
//! kWh to grams of CO₂-equivalent depends on the grid feeding the
//! machine.

/// A grid carbon intensity in gCO₂e per kWh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonIntensity {
    /// Grams of CO₂-equivalent emitted per kilowatt-hour consumed.
    pub g_per_kwh: f64,
}

impl CarbonIntensity {
    /// A custom intensity; must be non-negative and finite.
    pub fn new(g_per_kwh: f64) -> Self {
        assert!(
            g_per_kwh.is_finite() && g_per_kwh >= 0.0,
            "carbon intensity must be a non-negative number"
        );
        CarbonIntensity { g_per_kwh }
    }

    /// US Tennessee Valley grid (~ where Frontier lives), 2024-ish mix.
    pub fn tennessee_valley() -> Self {
        CarbonIntensity::new(415.0)
    }

    /// EU average mix.
    pub fn eu_average() -> Self {
        CarbonIntensity::new(244.0)
    }

    /// A hydro-dominated grid.
    pub fn hydro() -> Self {
        CarbonIntensity::new(24.0)
    }

    /// Emissions in grams for a consumption in kWh.
    pub fn grams_for_kwh(&self, kwh: f64) -> f64 {
        self.g_per_kwh * kwh.max(0.0)
    }

    /// Emissions in kilograms for a consumption in joules.
    pub fn kg_for_joules(&self, joules: f64) -> f64 {
        self.grams_for_kwh(crate::energy::joules_to_kwh(joules)) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_scales_linearly() {
        let ci = CarbonIntensity::new(500.0);
        assert!((ci.grams_for_kwh(2.0) - 1000.0).abs() < 1e-9);
        assert_eq!(ci.grams_for_kwh(-1.0), 0.0);
    }

    #[test]
    fn joules_path_matches_kwh_path() {
        let ci = CarbonIntensity::tennessee_valley();
        let kwh = 3.0;
        let joules = kwh * 3_600_000.0;
        assert!((ci.kg_for_joules(joules) * 1000.0 - ci.grams_for_kwh(kwh)).abs() < 1e-9);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        assert!(CarbonIntensity::hydro().g_per_kwh < CarbonIntensity::eu_average().g_per_kwh);
        assert!(
            CarbonIntensity::eu_average().g_per_kwh < CarbonIntensity::tennessee_valley().g_per_kwh
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_intensity() {
        CarbonIntensity::new(-1.0);
    }
}
