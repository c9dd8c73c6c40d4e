//! The physical network's parameters.
//!
//! A [`NetworkConfig`] describes the random topology (`d3t_sim` builds
//! it with [`Topology::random`](crate::topology::Topology::random) over
//! [`Pareto`](crate::pareto::Pareto) link delays) and how many of its
//! nodes are repositories. For the paper's base configuration (700 nodes
//! / 100 repositories / average degree 3) the overlay among the source
//! and the repositories has ~10 hops and 20–30 ms average node-to-node
//! delay, matching §6.1 of the paper.

use serde::{Deserialize, Serialize};

/// Parameters for generating the physical network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Total nodes: routers + repositories + the source.
    pub n_nodes: usize,
    /// How many nodes act as repositories.
    pub n_repositories: usize,
    /// Target average node degree of the random graph. The default of 3.0
    /// yields the ~10-hop average repository-to-repository paths the paper
    /// reports for its 700-node network.
    pub avg_degree: f64,
    /// Minimum per-link delay in milliseconds (paper: 2 ms).
    pub link_delay_min_ms: f64,
    /// Mean per-link delay in milliseconds. Uniform random graphs at
    /// average degree 3 have ~6-hop mean paths (`ln V / ln d̄`), so the
    /// default of 4.0 ms calibrates the overlay's mean end-to-end delay
    /// into the paper's stated 20–30 ms band.
    pub link_delay_mean_ms: f64,
    /// Cap on a single link's delay (keeps one pathological Pareto draw
    /// from dominating the topology).
    pub link_delay_cap_ms: f64,
}

impl Default for NetworkConfig {
    /// The paper's base case: 700 nodes = 1 source + 100 repositories +
    /// 599 routers.
    fn default() -> Self {
        Self {
            n_nodes: 700,
            n_repositories: 100,
            avg_degree: 3.0,
            link_delay_min_ms: 2.0,
            link_delay_mean_ms: 4.0,
            link_delay_cap_ms: 60.0,
        }
    }
}

impl NetworkConfig {
    /// Scaled-down configuration for tests and examples.
    pub fn small(n_nodes: usize, n_repositories: usize) -> Self {
        Self { n_nodes, n_repositories, ..Self::default() }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::apsp::{Apsp, OverlayApsp};
    use crate::pareto::Pareto;
    use crate::placement::Placement;
    use crate::topology::{NodeId, Topology};

    /// The topology and overlay nodes of `cfg`, generated as `d3t_sim`
    /// does: topology seed `seed`, placement seed `seed + 1`.
    pub(crate) fn generate(cfg: &NetworkConfig, seed: u64) -> (Topology, Vec<NodeId>) {
        let pareto = Pareto::with_mean(cfg.link_delay_min_ms, cfg.link_delay_mean_ms);
        let topo = Topology::random(cfg.n_nodes, cfg.avg_degree, seed, |rng| {
            pareto.sample_capped(rng, cfg.link_delay_cap_ms)
        });
        let placement = Placement::random(cfg.n_nodes, cfg.n_repositories, seed.wrapping_add(1));
        (topo, placement.overlay_nodes())
    }

    #[test]
    fn base_network_matches_paper_characteristics() {
        let (topo, overlay) = generate(&NetworkConfig::default(), 42);
        let fw = Apsp::floyd_warshall(&topo);
        let mean_hops = fw.mean_hops_among(&overlay);
        let mean_delay = fw.mean_delay_among(&overlay);
        assert!(
            (5.0..=15.0).contains(&mean_hops),
            "expected ~10 hops like the paper, got {mean_hops}"
        );
        assert!(
            (15.0..=45.0).contains(&mean_delay),
            "expected 20-30ms like the paper, got {mean_delay}"
        );
    }

    /// On the paper's Pareto link delays too, the overlay engine agrees
    /// with the Floyd–Warshall routing tables.
    #[test]
    fn overlay_delays_match_apsp() {
        let (topo, overlay) = generate(&NetworkConfig::small(60, 10), 5);
        let fw = Apsp::floyd_warshall(&topo);
        let ov = OverlayApsp::compute(&topo, &overlay);
        for (i, &a) in overlay.iter().enumerate() {
            for (j, &b) in overlay.iter().enumerate() {
                assert!(
                    (ov.delay_ms_at(i, j) - fw.delay_ms(a, b)).abs() < 1e-9,
                    "delay mismatch {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn delay_matrix_is_symmetric_zero_diagonal() {
        let (topo, overlay) = generate(&NetworkConfig::small(80, 15), 3);
        let ov = OverlayApsp::compute(&topo, &overlay);
        for i in 0..ov.len() {
            assert_eq!(ov.delay_ms_at(i, i), 0.0);
            for j in 0..ov.len() {
                assert!((ov.delay_ms_at(i, j) - ov.delay_ms_at(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let run = || {
            let (topo, overlay) = generate(&NetworkConfig::small(50, 10), 4);
            OverlayApsp::compute(&topo, &overlay)
        };
        assert_eq!(run(), run());
    }
}
