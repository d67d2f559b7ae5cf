//! Communication cost models for DDP gradient synchronization.
//!
//! The all-reduce at the end of every DDP step is modelled with the
//! standard ring formula, applied hierarchically: a ring inside each
//! node over Infinity Fabric, then a ring across nodes over the
//! interconnect, then an intra-node broadcast. Gradient *bucketing*
//! (PyTorch DDP's 25 MB buckets) lets communication overlap the tail of
//! the backward pass; the overlappable fraction is a model parameter.

use crate::machine::MachineConfig;

/// Tunables of the DDP communication model.
#[derive(Debug, Clone, PartialEq)]
pub struct DdpCommConfig {
    /// Gradient bucket size in bytes (PyTorch default 25 MiB).
    pub bucket_bytes: u64,
    /// Fraction of all-reduce time hidden under backward compute.
    pub overlap_fraction: f64,
}

impl Default for DdpCommConfig {
    fn default() -> Self {
        DdpCommConfig {
            bucket_bytes: 25 * 1024 * 1024,
            overlap_fraction: 0.6,
        }
    }
}

/// Ring all-reduce time for `bytes` over `p` participants on a link of
/// `bw` bytes/s with per-step latency `lat`:
/// `2·(p−1)/p · bytes / bw + 2·(p−1)·lat`.
fn ring_allreduce_time(bytes: u64, p: u32, bw: f64, lat: f64) -> f64 {
    if p <= 1 || bytes == 0 {
        return 0.0;
    }
    let p = p as f64;
    2.0 * (p - 1.0) / p * bytes as f64 / bw + 2.0 * (p - 1.0) * lat
}

/// Hierarchical all-reduce across a multi-node job:
/// 1. reduce-scatter + all-gather ring within each node,
/// 2. ring across nodes on the per-node share,
/// 3. the intra-node stage's all-gather half completes the broadcast.
///
/// For single-node jobs this degenerates to one intra-node ring.
fn hierarchical_allreduce_time(bytes: u64, gpus: u32, machine: &MachineConfig) -> f64 {
    if gpus <= 1 || bytes == 0 {
        return 0.0;
    }
    let local = gpus.min(machine.gpus_per_node);
    let nodes = machine.nodes_for(gpus);
    let intra = ring_allreduce_time(
        bytes,
        local,
        machine.intra_node_bw,
        machine.intra_node_latency,
    );
    if nodes <= 1 {
        return intra;
    }
    // Across nodes, each node contributes its reduced share; the wire
    // volume per node is the full gradient (each byte crosses the NIC
    // twice in reduce+broadcast, captured by the ring formula).
    let inter = ring_allreduce_time(
        bytes,
        nodes,
        machine.inter_node_bw,
        machine.inter_node_latency,
    );
    intra + inter
}

/// Result of the per-step communication model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCost {
    /// Raw all-reduce time with no overlap, seconds.
    pub exposed_full: f64,
    /// Time actually added to the step after overlap, seconds.
    pub exposed_after_overlap: f64,
    /// Number of gradient buckets synchronized.
    pub buckets: u64,
}

/// Per-step gradient synchronization cost for a model of
/// `gradient_bytes`, including bucketing overhead and overlap.
pub fn step_comm_cost(
    gradient_bytes: u64,
    gpus: u32,
    machine: &MachineConfig,
    cfg: &DdpCommConfig,
) -> CommCost {
    if gpus <= 1 || gradient_bytes == 0 {
        return CommCost {
            exposed_full: 0.0,
            exposed_after_overlap: 0.0,
            buckets: 0,
        };
    }
    let buckets = gradient_bytes.div_ceil(cfg.bucket_bytes.max(1));
    // Each bucket pays the latency term; bandwidth term is volume-based.
    let one_byte_rings = hierarchical_allreduce_time(gradient_bytes, gpus, machine);
    // Latency overhead of splitting into buckets: recompute with the
    // per-bucket latency multiplied out.
    let local = gpus.min(machine.gpus_per_node) as f64;
    let nodes = machine.nodes_for(gpus) as f64;
    let latency_per_bucket = 2.0 * (local - 1.0).max(0.0) * machine.intra_node_latency
        + if nodes > 1.0 {
            2.0 * (nodes - 1.0) * machine.inter_node_latency
        } else {
            0.0
        };
    let exposed_full = one_byte_rings + latency_per_bucket * (buckets.saturating_sub(1)) as f64;
    let exposed_after_overlap = exposed_full * (1.0 - cfg.overlap_fraction.clamp(0.0, 1.0));
    CommCost {
        exposed_full,
        exposed_after_overlap,
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_gpu_has_no_comm() {
        assert_eq!(ring_allreduce_time(1_000_000, 1, 1e9, 1e-6), 0.0);
        let m = MachineConfig::frontier_like();
        assert_eq!(hierarchical_allreduce_time(1_000_000, 1, &m), 0.0);
        let c = step_comm_cost(1_000_000, 1, &m, &DdpCommConfig::default());
        assert_eq!(c.exposed_after_overlap, 0.0);
        assert_eq!(c.buckets, 0);
    }

    #[test]
    fn ring_formula_matches_closed_form() {
        // 8 ranks, 1 GB, 100 GB/s, zero latency: 2*(7/8)*0.01 s.
        let t = ring_allreduce_time(1_000_000_000, 8, 100.0e9, 0.0);
        assert!((t - 2.0 * 7.0 / 8.0 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn ring_time_grows_sublinearly_with_ranks() {
        // The bandwidth term saturates at 2·bytes/bw as p → ∞.
        let t8 = ring_allreduce_time(1 << 30, 8, 100.0e9, 0.0);
        let t128 = ring_allreduce_time(1 << 30, 128, 100.0e9, 0.0);
        assert!(t128 > t8);
        assert!(t128 < t8 * 1.2, "bandwidth term saturates");
    }

    #[test]
    fn multi_node_costs_more_than_single_node() {
        let m = MachineConfig::frontier_like();
        let bytes = 800_000_000u64; // 200M params fp32
        let t8 = hierarchical_allreduce_time(bytes, 8, &m);
        let t16 = hierarchical_allreduce_time(bytes, 16, &m);
        let t128 = hierarchical_allreduce_time(bytes, 128, &m);
        assert!(
            t16 > t8 * 1.5,
            "crossing the node boundary hurts: {t8} -> {t16}"
        );
        assert!(t128 > t16, "more nodes, more ring steps");
    }

    #[test]
    fn bucketing_counts_and_latency() {
        let m = MachineConfig::frontier_like();
        let cfg = DdpCommConfig::default();
        // 1.4 B params → 5.6 GB grads → 214 buckets of 25 MiB.
        let c = step_comm_cost(5_600_000_000, 128, &m, &cfg);
        assert_eq!(c.buckets, 5_600_000_000u64.div_ceil(25 * 1024 * 1024));
        assert!(c.exposed_full > 0.0);
        assert!(c.exposed_after_overlap < c.exposed_full);
    }

    #[test]
    fn overlap_bounds() {
        let m = MachineConfig::frontier_like();
        let full = step_comm_cost(
            1 << 30,
            64,
            &m,
            &DdpCommConfig {
                overlap_fraction: 0.0,
                ..Default::default()
            },
        );
        let hidden = step_comm_cost(
            1 << 30,
            64,
            &m,
            &DdpCommConfig {
                overlap_fraction: 1.0,
                ..Default::default()
            },
        );
        assert!((full.exposed_after_overlap - full.exposed_full).abs() < 1e-12);
        assert_eq!(hidden.exposed_after_overlap, 0.0);
        // Out-of-range overlap is clamped, not propagated.
        let weird = step_comm_cost(
            1 << 30,
            64,
            &m,
            &DdpCommConfig {
                overlap_fraction: 7.0,
                ..Default::default()
            },
        );
        assert_eq!(weird.exposed_after_overlap, 0.0);
    }
}
