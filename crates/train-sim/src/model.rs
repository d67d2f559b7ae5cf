//! The architecture zoo: the two model families of the paper's scaling
//! study, at the four sizes used on Frontier.

/// Which architecture family a configuration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Masked Autoencoder with a ViT backbone (He et al., CVPR'22).
    /// Masked pre-training pushes only ~25 % of patch tokens through the
    /// encoder, making each sample cheap but the loss curve steeper in
    /// data (information per sample is lower).
    MaeVit,
    /// Swin Transformer V2 (Liu et al., CVPR'22). Windowed attention
    /// gives better FLOP efficiency and the architecture scales more
    /// gracefully — the paper observes it "performing much better at
    /// scale".
    SwinV2,
}

impl Architecture {
    /// Display name used in reports and provenance records.
    pub fn name(&self) -> &'static str {
        match self {
            Architecture::MaeVit => "MAE-ViT",
            Architecture::SwinV2 => "SwinT-V2",
        }
    }

    /// Fraction of input tokens processed by the expensive encoder path
    /// (MAE masks 75 % of patches during pre-training).
    fn encoder_token_fraction(&self) -> f64 {
        match self {
            Architecture::MaeVit => 0.25,
            Architecture::SwinV2 => 1.0,
        }
    }

    /// Architecture FLOP efficiency: achieved fraction of device peak
    /// (model FLOPs utilization). Windowed attention maps better onto
    /// the hardware than global attention over unmasked tokens.
    pub fn mfu(&self) -> f64 {
        match self {
            Architecture::MaeVit => 0.33,
            Architecture::SwinV2 => 0.42,
        }
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Architecture family.
    pub arch: Architecture,
    /// Total trainable parameters.
    pub params: u64,
    /// Transformer depth.
    pub layers: u32,
    /// Hidden (embedding) width.
    pub hidden: u32,
    /// Attention heads.
    pub heads: u32,
    /// Patch tokens per sample before masking (128×128 image, 16×16
    /// patches → 64 tokens... times channels folding; see
    /// [`crate::dataset::DatasetSpec`]).
    pub tokens_per_sample: u32,
}

impl ModelConfig {
    /// A configuration from family and target parameter count, with
    /// plausible depth/width derived from the size class.
    pub fn sized(arch: Architecture, params: u64) -> Self {
        // Width/depth splits roughly follow the ViT/Swin size ladders.
        let (layers, hidden, heads) = match params {
            p if p <= 150_000_000 => (12, 768, 12),  // ~100 M class
            p if p <= 350_000_000 => (24, 1024, 16), // ~200 M class
            p if p <= 800_000_000 => (32, 1280, 16), // ~600 M class
            _ => (40, 1664, 16),                     // ~1.4 B class
        };
        ModelConfig {
            arch,
            params,
            layers,
            hidden,
            heads,
            tokens_per_sample: 64,
        }
    }

    /// The four sizes of the paper's study for one architecture.
    pub fn paper_ladder(arch: Architecture) -> Vec<ModelConfig> {
        [100_000_000u64, 200_000_000, 600_000_000, 1_400_000_000]
            .into_iter()
            .map(|p| ModelConfig::sized(arch, p))
            .collect()
    }

    /// Human-readable size tag (`100M`, `1.4B`, ...).
    pub fn size_tag(&self) -> String {
        if self.params >= 1_000_000_000 {
            let b = self.params as f64 / 1e9;
            if (b - b.round()).abs() < 1e-9 {
                format!("{}B", b.round() as u64)
            } else {
                format!("{b:.1}B")
            }
        } else {
            format!("{}M", self.params / 1_000_000)
        }
    }

    /// Training FLOPs for one sample (forward + backward).
    ///
    /// The standard `6·N` FLOPs per parameter per token (2 forward,
    /// 4 backward), scaled by the fraction of tokens the encoder
    /// actually processes.
    pub fn flops_per_sample(&self) -> f64 {
        let effective_tokens = self.tokens_per_sample as f64 * self.arch.encoder_token_fraction();
        6.0 * self.params as f64 * effective_tokens
    }

    /// Training FLOPs for one sample during fine-tuning (paper §5: all
    /// layers except the final prediction head are frozen).
    ///
    /// The forward pass still runs the full network on *unmasked*
    /// inputs (fine-tuning uses labeled data, no masking), but the
    /// backward pass only reaches the trainable fraction.
    pub fn flops_per_sample_finetune(&self, frozen_fraction: f64) -> f64 {
        let frozen = frozen_fraction.clamp(0.0, 1.0);
        let tokens = self.tokens_per_sample as f64;
        let forward = 2.0 * self.params as f64 * tokens;
        let backward = 4.0 * self.params as f64 * tokens * (1.0 - frozen);
        forward + backward
    }

    /// Bytes of gradient exchanged per step per replica (fp32 grads).
    pub fn gradient_bytes(&self) -> u64 {
        self.params * 4
    }

    /// Gradient bytes during fine-tuning: only unfrozen parameters sync.
    pub fn gradient_bytes_finetune(&self, frozen_fraction: f64) -> u64 {
        let trainable = 1.0 - frozen_fraction.clamp(0.0, 1.0);
        ((self.params as f64 * trainable) as u64) * 4
    }

    /// Approximate accelerator memory per replica in bytes: parameters,
    /// gradients, Adam moments (all fp32) plus activation headroom.
    pub fn memory_bytes(&self, per_gpu_batch: u32) -> u64 {
        let states = self.params * 4 * 4; // p + g + m + v
        let activations =
            self.tokens_per_sample as u64 * self.hidden as u64 * self.layers as u64 * 4 * 2;
        states + activations * per_gpu_batch as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_has_paper_sizes() {
        let ladder = ModelConfig::paper_ladder(Architecture::MaeVit);
        let sizes: Vec<u64> = ladder.iter().map(|m| m.params).collect();
        assert_eq!(
            sizes,
            vec![100_000_000, 200_000_000, 600_000_000, 1_400_000_000]
        );
        let tags: Vec<String> = ladder.iter().map(|m| m.size_tag()).collect();
        assert_eq!(tags, vec!["100M", "200M", "600M", "1.4B"]);
    }

    #[test]
    fn flops_grow_with_params() {
        let small = ModelConfig::sized(Architecture::SwinV2, 100_000_000);
        let big = ModelConfig::sized(Architecture::SwinV2, 1_400_000_000);
        assert!(big.flops_per_sample() > 10.0 * small.flops_per_sample());
    }

    #[test]
    fn mae_is_cheaper_per_sample_than_swin() {
        let mae = ModelConfig::sized(Architecture::MaeVit, 600_000_000);
        let swin = ModelConfig::sized(Architecture::SwinV2, 600_000_000);
        assert!(mae.flops_per_sample() < swin.flops_per_sample());
        // Exactly the masking ratio.
        let ratio = mae.flops_per_sample() / swin.flops_per_sample();
        assert!((ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn depth_width_ladder_is_monotone() {
        let ladder = ModelConfig::paper_ladder(Architecture::SwinV2);
        for w in ladder.windows(2) {
            assert!(w[1].layers >= w[0].layers);
            assert!(w[1].hidden >= w[0].hidden);
        }
    }

    #[test]
    fn gradient_bytes_are_fp32() {
        let m = ModelConfig::sized(Architecture::MaeVit, 200_000_000);
        assert_eq!(m.gradient_bytes(), 800_000_000);
    }

    #[test]
    fn memory_scales_with_batch() {
        let m = ModelConfig::sized(Architecture::SwinV2, 100_000_000);
        assert!(m.memory_bytes(32) > m.memory_bytes(1));
        // Optimizer states dominate at small batch: ≥ 16 bytes/param.
        assert!(m.memory_bytes(1) >= m.params * 16);
    }

    #[test]
    fn architecture_metadata() {
        assert_eq!(Architecture::MaeVit.name(), "MAE-ViT");
        assert_eq!(Architecture::SwinV2.to_string(), "SwinT-V2");
        assert!(Architecture::SwinV2.mfu() > Architecture::MaeVit.mfu());
        assert!(Architecture::MaeVit.encoder_token_fraction() < 1.0);
    }
}
