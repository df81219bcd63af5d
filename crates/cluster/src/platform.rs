//! Cluster hardware description.

/// Static description of a compute cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable platform name.
    pub name: String,
    /// Number of compute nodes.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// RAM per node in MB.
    pub memory_per_node_mb: usize,
    /// Best-effort queue: std-dev of the per-node speed factor (0 for a
    /// dedicated machine). §IV-B: "the availability of computing resources
    /// on the same node is not guaranteed".
    pub speed_jitter: f64,
}

impl ClusterSpec {
    /// The Cluster-UY configuration from §IV-B: up to 30 servers with
    /// 40-core Xeon Gold 6138 and 128 GB RAM, best-effort queue.
    pub fn cluster_uy() -> Self {
        Self {
            name: "Cluster-UY".into(),
            nodes: 30,
            cores_per_node: 40,
            memory_per_node_mb: 128 * 1024,
            speed_jitter: 0.05,
        }
    }

    /// A dedicated (jitter-free) variant, for deterministic tests.
    pub fn dedicated(nodes: usize, cores_per_node: usize) -> Self {
        Self {
            name: "dedicated".into(),
            nodes,
            cores_per_node,
            memory_per_node_mb: 64 * 1024,
            speed_jitter: 0.0,
        }
    }

    /// Total core count.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_uy_matches_paper() {
        let c = ClusterSpec::cluster_uy();
        assert_eq!(c.nodes, 30);
        assert_eq!(c.cores_per_node, 40);
        assert_eq!(c.memory_per_node_mb, 128 * 1024);
        assert_eq!(c.total_cores(), 1200);
        assert!(c.speed_jitter > 0.0, "best-effort queue implies jitter");
    }

    #[test]
    fn dedicated_has_no_jitter() {
        let c = ClusterSpec::dedicated(2, 8);
        assert_eq!(c.speed_jitter, 0.0);
        assert_eq!(c.total_cores(), 16);
    }
}
