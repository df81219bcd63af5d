//! Hockney-model communication costs.

/// α + βn point-to-point cost model with flat-tree collectives — the
/// standard first-order model for MPI performance on commodity clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCost {
    /// Per-message latency in seconds (includes software stack overhead).
    pub alpha: f64,
    /// Per-byte transfer time in seconds (1/bandwidth).
    pub beta: f64,
}

impl CommCost {
    /// Defaults for a 10 GbE commodity cluster like Cluster-UY:
    /// ~60 µs MPI latency, ~10 Gbit/s effective bandwidth.
    pub fn cluster_uy() -> Self {
        Self { alpha: 60e-6, beta: 8.0 / 10.0e9 }
    }

    /// Zero-cost model (for isolating compute in ablations).
    pub fn free() -> Self {
        Self { alpha: 0.0, beta: 0.0 }
    }

    /// Point-to-point message of `bytes`.
    pub fn p2p(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }

    /// Flat gather of one `bytes`-sized contribution from each of `p - 1`
    /// non-root ranks.
    pub fn gather(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p - 1) as f64 * self.p2p(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_is_affine() {
        let c = CommCost { alpha: 1e-3, beta: 1e-6 };
        assert!((c.p2p(0) - 1e-3).abs() < 1e-12);
        assert!((c.p2p(1000) - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn collectives_vanish_for_single_rank() {
        let c = CommCost::cluster_uy();
        assert_eq!(c.gather(1, 1000), 0.0);
    }

    #[test]
    fn free_model_is_free() {
        assert_eq!(CommCost::free().p2p(1 << 20), 0.0);
    }

    #[test]
    fn snapshot_scale_sanity() {
        // A cell receiving four paper-scale snapshots (~2.2 MB each) should
        // pay milliseconds-to-seconds, not hours — keeps gather in Table
        // IV's observed ballpark relative to compute.
        let c = CommCost::cluster_uy();
        let t = 4.0 * c.p2p(2_200_000);
        assert!(t > 1e-3 && t < 120.0, "neighbour exchange estimate {t}s");
    }
}
