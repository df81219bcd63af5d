//! Slurm-like rank placement and per-rank memory accounting (Table II).

use crate::platform::ClusterSpec;
use lipiz_core::TrainConfig;
use lipiz_tensor::Rng64;

/// Where one rank landed and how fast its core runs this job.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPlacement {
    /// WORLD rank (0 = master).
    pub rank: usize,
    /// Node index in the cluster.
    pub node: usize,
    /// Core index within the node.
    pub core: usize,
    /// Relative execution-time multiplier (1.0 = nominal; > 1 = slowed by
    /// co-located best-effort load).
    pub speed_factor: f64,
}

/// A complete placement of `ranks` onto the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Per-rank placements, rank order.
    pub ranks: Vec<RankPlacement>,
    /// Number of distinct nodes used.
    pub nodes_used: usize,
}

impl Placement {
    /// Place `n_ranks` ranks on `spec`, packing nodes core-by-core (the
    /// Slurm default for a single job). The best-effort queue is modeled as
    /// a per-node multiplicative speed factor drawn from
    /// `N(1, speed_jitter)` clamped to `[0.9, 1.3]`.
    ///
    /// # Panics
    /// Panics if the cluster has fewer cores than ranks.
    pub fn allocate(spec: &ClusterSpec, n_ranks: usize, seed: u64) -> Self {
        assert!(
            n_ranks <= spec.total_cores(),
            "cluster too small: {n_ranks} ranks > {} cores",
            spec.total_cores()
        );
        let mut rng = Rng64::seed_from(seed);
        // One speed factor per node for this job's lifetime.
        let node_speed: Vec<f64> = (0..spec.nodes)
            .map(|_| (1.0 + spec.speed_jitter * rng.gaussian()).clamp(0.9, 1.3))
            .collect();
        let mut ranks = Vec::with_capacity(n_ranks);
        for rank in 0..n_ranks {
            let node = rank / spec.cores_per_node;
            let core = rank % spec.cores_per_node;
            ranks.push(RankPlacement { rank, node, core, speed_factor: node_speed[node] });
        }
        let nodes_used = n_ranks.div_ceil(spec.cores_per_node);
        Self { ranks, nodes_used }
    }

    /// Speed factor of a rank.
    pub fn speed_of(&self, rank: usize) -> f64 {
        self.ranks[rank].speed_factor
    }

    /// Slowest speed factor in the placement.
    pub fn worst_speed(&self) -> f64 {
        self.ranks.iter().map(|r| r.speed_factor).fold(1.0, f64::max)
    }
}

/// Estimated resident memory per rank in bytes, from first principles:
/// the two sub-populations of genomes (the centers train in their slots),
/// their Adam moments, the local dataset copy, and batch buffers.
/// Used to regenerate Table II's memory column.
pub fn estimate_rank_memory_bytes(cfg: &TrainConfig) -> usize {
    let net = cfg.network;
    let g_params = net.latent_dim * net.hidden_units
        + net.hidden_units
        + net.hidden_layers.saturating_sub(1)
            * (net.hidden_units * net.hidden_units + net.hidden_units)
        + net.hidden_units * net.data_dim
        + net.data_dim;
    let d_params = net.data_dim * net.hidden_units
        + net.hidden_units
        + net.hidden_layers.saturating_sub(1)
            * (net.hidden_units * net.hidden_units + net.hidden_units)
        + net.hidden_units
        + 1;
    let s = cfg.subpopulation_size();
    let f32s = 4usize;
    // Two Adam moment vectors per network.
    let moments = (g_params + d_params) * 2 * f32s;
    let subpops = s * (g_params + d_params) * f32s;
    let dataset = cfg.training.dataset_size * net.data_dim * f32s;
    let batches = 4 * cfg.training.batch_size * net.data_dim * f32s;
    moments + subpops + dataset + batches
}

/// Total memory for an `m×m` grid job (all slaves + master), in MB —
/// the Table II row.
pub fn estimate_job_memory_mb(cfg: &TrainConfig) -> usize {
    let per_rank = estimate_rank_memory_bytes(cfg);
    // The master holds configuration + gathered results only; charge it a
    // single rank's buffer conservatively.
    let total = per_rank * (cfg.cells() + 1);
    total / (1024 * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_packs_cores_first() {
        let spec = ClusterSpec::dedicated(3, 4);
        let p = Placement::allocate(&spec, 10, 1);
        assert_eq!(p.ranks[0].node, 0);
        assert_eq!(p.ranks[3].node, 0);
        assert_eq!(p.ranks[4].node, 1);
        assert_eq!(p.ranks[9].node, 2);
        assert_eq!(p.nodes_used, 3);
    }

    #[test]
    fn dedicated_cluster_has_unit_speed() {
        let spec = ClusterSpec::dedicated(2, 8);
        let p = Placement::allocate(&spec, 8, 7);
        assert!(p.ranks.iter().all(|r| (r.speed_factor - 1.0).abs() < 1e-12));
        assert_eq!(p.worst_speed(), 1.0);
    }

    #[test]
    fn best_effort_jitter_is_seeded_and_bounded() {
        let spec = ClusterSpec::cluster_uy();
        let a = Placement::allocate(&spec, 17, 3);
        let b = Placement::allocate(&spec, 17, 3);
        assert_eq!(a, b, "same seed must give same placement");
        let c = Placement::allocate(&spec, 17, 4);
        assert_ne!(a, c, "different seeds should jitter differently");
        for r in &a.ranks {
            assert!((0.9..=1.3).contains(&r.speed_factor));
        }
    }

    #[test]
    #[should_panic(expected = "cluster too small")]
    fn oversubscription_panics() {
        Placement::allocate(&ClusterSpec::dedicated(1, 2), 3, 1);
    }

    #[test]
    fn memory_estimate_scales_with_grid() {
        let cfg2 = {
            let mut c = TrainConfig::paper_table1();
            c.grid = lipiz_core::GridConfig::square(2);
            c
        };
        let cfg4 = {
            let mut c = TrainConfig::paper_table1();
            c.grid = lipiz_core::GridConfig::square(4);
            c
        };
        let m2 = estimate_job_memory_mb(&cfg2);
        let m4 = estimate_job_memory_mb(&cfg4);
        assert!(m4 > m2 * 3, "4x4 should need ~3.4x the memory of 2x2: {m2} vs {m4}");
        // Paper-scale job memory lands in the same order of magnitude as
        // Table II (9216 MB for 2×2 with 60k MNIST): each rank holds the
        // 60k×784 dataset (~188 MB) plus networks.
        assert!(m2 > 500, "2x2 estimate suspiciously small: {m2} MB");
        assert!(m2 < 20_000, "2x2 estimate suspiciously large: {m2} MB");
    }

    #[test]
    fn rank_memory_dominated_by_dataset_at_paper_scale() {
        let cfg = TrainConfig::paper_table1();
        let total = estimate_rank_memory_bytes(&cfg);
        let dataset = cfg.training.dataset_size * cfg.network.data_dim * 4;
        assert!(dataset * 10 > total * 5, "dataset should be > half the footprint");
    }
}
