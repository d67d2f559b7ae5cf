//! The workload: a MODIS-like remote-sensing patch dataset.
//!
//! The paper trains on 23 years of MODIS 1 km L1B radiance from Aqua and
//! Terra: ~800,000 patches of 128×128 pixels with 6 channels (one
//! atmospheric variable per channel). Pixels never reach the provenance
//! layer — only volume and shape matter to walltime/energy — so the
//! dataset is described, not materialized.

/// Static description of a training dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name for provenance records.
    pub name: String,
    /// Number of training samples (patches).
    pub samples: u64,
    /// Patch height in pixels.
    pub height: u32,
    /// Patch width in pixels.
    pub width: u32,
    /// Channels per patch.
    pub channels: u32,
    /// Bytes per pixel per channel (fp32 radiances).
    pub bytes_per_value: u32,
}

impl DatasetSpec {
    /// The paper's MODIS workload.
    pub fn modis() -> Self {
        DatasetSpec {
            name: "MODIS-1km-L1B".into(),
            samples: 800_000,
            height: 128,
            width: 128,
            channels: 6,
            bytes_per_value: 4,
        }
    }

    /// A small synthetic dataset for tests and examples.
    pub fn tiny(samples: u64) -> Self {
        DatasetSpec {
            name: format!("synthetic-{samples}"),
            samples,
            height: 32,
            width: 32,
            channels: 3,
            bytes_per_value: 4,
        }
    }

    /// A scaled copy with a different sample count (the paper's data
    /// scaling axis).
    pub fn with_samples(&self, samples: u64) -> Self {
        DatasetSpec {
            samples,
            ..self.clone()
        }
    }

    /// Bytes of one sample.
    pub fn bytes_per_sample(&self) -> u64 {
        self.height as u64 * self.width as u64 * self.channels as u64 * self.bytes_per_value as u64
    }

    /// Total dataset size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.samples * self.bytes_per_sample()
    }

    /// Steps per epoch at a global batch size.
    pub fn steps_per_epoch(&self, global_batch: u32) -> u64 {
        assert!(global_batch > 0, "batch must be positive");
        self.samples.div_ceil(global_batch as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modis_matches_paper_numbers() {
        let d = DatasetSpec::modis();
        assert_eq!(d.samples, 800_000);
        assert_eq!(d.height, 128);
        assert_eq!(d.channels, 6);
        // 128*128*6*4 = 393,216 bytes per patch.
        assert_eq!(d.bytes_per_sample(), 393_216);
        // ~300 GB total.
        let gb = d.total_bytes() as f64 / 1e9;
        assert!(gb > 250.0 && gb < 350.0, "total {gb} GB");
    }

    #[test]
    fn steps_per_epoch_rounds_up() {
        let d = DatasetSpec::tiny(1001);
        assert_eq!(d.steps_per_epoch(100), 11);
        assert_eq!(d.steps_per_epoch(1001), 1);
        assert_eq!(d.steps_per_epoch(2000), 1);
    }

    #[test]
    fn with_samples_scales() {
        let d = DatasetSpec::modis().with_samples(100);
        assert_eq!(d.samples, 100);
        assert_eq!(d.name, "MODIS-1km-L1B");
    }
}
