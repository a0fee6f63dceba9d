//! Cluster composition: which devices each node carries.
//!
//! The paper's heterogeneous experiments (Table III) use two configurations
//! drawn from the DAS-4 inventory; both are provided here, along with the
//! homogeneous GTX480 partitions used for the scalability studies
//! (Figs. 7–14).

use serde::{Deserialize, Serialize};

/// Devices per node, by hardware-description level name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSpec {
    pub node_devices: Vec<Vec<String>>,
}

impl ClusterSpec {
    /// `nodes` identical nodes carrying one `device` each.
    pub fn homogeneous(nodes: usize, device: &str) -> ClusterSpec {
        ClusterSpec {
            node_devices: vec![vec![device.to_string()]; nodes],
        }
    }

    /// Table III configuration for raytracer and matmul: 15 nodes —
    /// 10 GTX480, 2 C2050, 1 GTX680, 1 Titan, 1 HD7970.
    pub fn paper_hetero_small() -> ClusterSpec {
        let mut nodes = Vec::new();
        for _ in 0..10 {
            nodes.push(vec!["gtx480".to_string()]);
        }
        for _ in 0..2 {
            nodes.push(vec!["c2050".to_string()]);
        }
        nodes.push(vec!["gtx680".to_string()]);
        nodes.push(vec!["titan".to_string()]);
        nodes.push(vec!["hd7970".to_string()]);
        ClusterSpec {
            node_devices: nodes,
        }
    }

    /// Table III configuration for K-means: the small configuration plus
    /// 7 K20 and 1 Xeon Phi. On DAS-4 the Phis are fitted in K20 nodes, so
    /// one node carries both a K20 and a Phi.
    pub fn paper_hetero_kmeans() -> ClusterSpec {
        let mut spec = ClusterSpec::paper_hetero_small();
        for _ in 0..6 {
            spec.node_devices.push(vec!["k20".to_string()]);
        }
        spec.node_devices
            .push(vec!["k20".to_string(), "xeon_phi".to_string()]);
        spec
    }

    /// Table III configuration for N-body: the small configuration plus
    /// 7 K20 and 2 Xeon Phi (two K20 nodes carry a Phi).
    pub fn paper_hetero_nbody() -> ClusterSpec {
        let mut spec = ClusterSpec::paper_hetero_small();
        for _ in 0..5 {
            spec.node_devices.push(vec!["k20".to_string()]);
        }
        for _ in 0..2 {
            spec.node_devices
                .push(vec!["k20".to_string(), "xeon_phi".to_string()]);
        }
        spec
    }

    pub fn nodes(&self) -> usize {
        self.node_devices.len()
    }

    /// Flat count of devices by level name.
    pub fn device_count(&self, name: &str) -> usize {
        self.node_devices
            .iter()
            .flat_map(|d| d.iter())
            .filter(|n| *n == name)
            .count()
    }

    /// Device counts by level name, in first-seen order, the way Table III
    /// states a configuration: `"10 gtx480, 2 c2050, 1 gtx680"`.
    pub fn device_summary(&self) -> String {
        let mut counts: Vec<(&str, usize)> = Vec::new();
        for name in self.node_devices.iter().flatten() {
            match counts.iter_mut().find(|(seen, _)| seen == name) {
                Some((_, count)) => *count += 1,
                None => counts.push((name, 1)),
            }
        }
        let counts: Vec<String> = counts
            .iter()
            .map(|(name, n)| format!("{n} {name}"))
            .collect();
        counts.join(", ")
    }

    /// All distinct device level names in the spec.
    pub fn distinct_devices(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .node_devices
            .iter()
            .flat_map(|d| d.iter().cloned())
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_spec() {
        let s = ClusterSpec::homogeneous(16, "gtx480");
        assert_eq!(s.nodes(), 16);
        assert_eq!(s.device_count("gtx480"), 16);
        assert_eq!(s.distinct_devices(), vec!["gtx480"]);
    }

    #[test]
    fn paper_small_matches_table3() {
        let s = ClusterSpec::paper_hetero_small();
        assert_eq!(s.nodes(), 15);
        assert_eq!(s.device_count("gtx480"), 10);
        assert_eq!(s.device_count("c2050"), 2);
        assert_eq!(s.device_count("gtx680"), 1);
        assert_eq!(s.device_count("titan"), 1);
        assert_eq!(s.device_count("hd7970"), 1);
    }

    #[test]
    fn paper_kmeans_adds_k20s_and_one_phi() {
        let s = ClusterSpec::paper_hetero_kmeans();
        assert_eq!(s.device_count("k20"), 7);
        assert_eq!(s.device_count("xeon_phi"), 1);
        assert_eq!(s.nodes(), 22, "the Phi shares a K20 node");
    }

    #[test]
    fn summaries_state_table3_configurations() {
        assert_eq!(
            ClusterSpec::paper_hetero_small().device_summary(),
            "10 gtx480, 2 c2050, 1 gtx680, 1 titan, 1 hd7970"
        );
        assert_eq!(
            ClusterSpec::paper_hetero_kmeans().device_summary(),
            "10 gtx480, 2 c2050, 1 gtx680, 1 titan, 1 hd7970, 7 k20, 1 xeon_phi"
        );
        assert_eq!(
            ClusterSpec::paper_hetero_nbody().device_summary(),
            "10 gtx480, 2 c2050, 1 gtx680, 1 titan, 1 hd7970, 7 k20, 2 xeon_phi"
        );
    }

    #[test]
    fn paper_nbody_has_two_phis() {
        let s = ClusterSpec::paper_hetero_nbody();
        assert_eq!(s.device_count("k20"), 7);
        assert_eq!(s.device_count("xeon_phi"), 2);
        assert_eq!(s.nodes(), 22);
    }
}
