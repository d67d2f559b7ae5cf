//! The machine model: a Frontier-like system.
//!
//! Frontier (OLCF): 9,402 nodes, each with one 64-core EPYC CPU and four
//! MI250X modules = 8 Graphics Compute Dies, which the scheduler exposes
//! as 8 GPUs. GCDs within a node talk over Infinity Fabric; nodes talk
//! over a Slingshot-11 network (4 × 25 GB/s NICs per node).

/// Static description of the machine a job runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Machine name in provenance records.
    pub name: String,
    /// GPUs (GCDs) per node.
    pub gpus_per_node: u32,
    /// Sustained dense-math throughput per GCD in FLOP/s (before model
    /// FLOPs utilization is applied).
    pub gpu_peak_flops: f64,
    /// Accelerator memory per GCD in bytes.
    pub gpu_memory_bytes: u64,
    /// Point-to-point bandwidth between GCDs in one node, bytes/s.
    pub intra_node_bw: f64,
    /// Per-hop latency inside a node, seconds.
    pub intra_node_latency: f64,
    /// Node injection bandwidth to the network, bytes/s.
    pub inter_node_bw: f64,
    /// Per-hop latency between nodes, seconds.
    pub inter_node_latency: f64,
    /// Host filesystem read bandwidth per node, bytes/s (data loading).
    pub io_bw: f64,
}

impl MachineConfig {
    /// The Frontier-like preset used throughout the reproduction.
    ///
    /// `gpu_peak_flops` is the MI250X GCD's usable mixed-precision
    /// matrix throughput (≈ 95 TFLOP/s per GCD); model-level efficiency
    /// (MFU) is applied separately per architecture.
    pub fn frontier_like() -> Self {
        MachineConfig {
            name: "frontier-like".into(),
            gpus_per_node: 8,
            gpu_peak_flops: 95.0e12,
            gpu_memory_bytes: 64 * 1024 * 1024 * 1024,
            intra_node_bw: 200.0e9,
            intra_node_latency: 2.0e-6,
            inter_node_bw: 100.0e9, // 4 NICs × 25 GB/s
            inter_node_latency: 8.0e-6,
            io_bw: 5.0e9,
        }
    }

    /// A deliberately small "workstation" preset for tests and examples.
    pub fn workstation() -> Self {
        MachineConfig {
            name: "workstation".into(),
            gpus_per_node: 2,
            gpu_peak_flops: 20.0e12,
            gpu_memory_bytes: 24 * 1024 * 1024 * 1024,
            intra_node_bw: 50.0e9,
            intra_node_latency: 5.0e-6,
            inter_node_bw: 12.5e9,
            inter_node_latency: 20.0e-6,
            io_bw: 2.0e9,
        }
    }

    /// Nodes needed for `gpus` GPUs (ceiling division).
    pub fn nodes_for(&self, gpus: u32) -> u32 {
        gpus.div_ceil(self.gpus_per_node)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.gpus_per_node == 0 {
            return Err("gpus_per_node must be positive".into());
        }
        for (label, v) in [
            ("gpu_peak_flops", self.gpu_peak_flops),
            ("intra_node_bw", self.intra_node_bw),
            ("inter_node_bw", self.inter_node_bw),
            ("io_bw", self.io_bw),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{label} must be positive, got {v}"));
            }
        }
        if self.intra_node_bw < self.inter_node_bw {
            return Err("intra-node links should not be slower than the network".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_preset_is_valid() {
        let m = MachineConfig::frontier_like();
        m.validate().unwrap();
        assert_eq!(m.gpus_per_node, 8);
    }

    #[test]
    fn node_counts() {
        let m = MachineConfig::frontier_like();
        assert_eq!(m.nodes_for(8), 1);
        assert_eq!(m.nodes_for(9), 2);
        assert_eq!(m.nodes_for(128), 16);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut m = MachineConfig::frontier_like();
        m.gpus_per_node = 0;
        assert!(m.validate().is_err());

        let mut m = MachineConfig::frontier_like();
        m.gpu_peak_flops = -1.0;
        assert!(m.validate().is_err());

        let mut m = MachineConfig::frontier_like();
        m.intra_node_bw = 1.0;
        assert!(m.validate().is_err(), "intra slower than inter");
    }

    #[test]
    fn workstation_is_smaller_than_frontier() {
        let w = MachineConfig::workstation();
        let f = MachineConfig::frontier_like();
        w.validate().unwrap();
        assert!(w.gpu_peak_flops < f.gpu_peak_flops);
        assert!(w.gpus_per_node < f.gpus_per_node);
    }
}
