//! The assembled physical network facade.
//!
//! [`PhysicalNetwork`] owns a random topology, a role placement, and a
//! dense matrix of shortest-path delays among the *overlay* nodes (source +
//! repositories) — which is all the dissemination layer ever queries.
//!
//! For the paper's base configuration (700 nodes / 100 repositories /
//! average degree 3) the resulting overlay has ~10 hops and 20–30 ms
//! average node-to-node delay, matching §6.1 of the paper. Delay sweeps
//! (Figures 5 and 7b) are done by uniformly scaling the matrix — shortest
//! paths are invariant under uniform scaling, so no recomputation is
//! needed.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::apsp::OverlayApsp;
use crate::pareto::Pareto;
use crate::placement::Placement;
use crate::topology::{NodeId, Topology};

/// Parameters for generating a [`PhysicalNetwork`].
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

    /// The paper's large configuration: 2100 nodes, 300 repositories
    /// (§6.3.5 scalability study).
    pub fn large() -> Self {
        Self { n_nodes: 2100, n_repositories: 300, ..Self::default() }
    }
}

/// A generated physical network with precomputed overlay delays.
#[derive(Debug, Clone)]
pub struct PhysicalNetwork {
    placement: Placement,
    /// Overlay node ids: `overlay[0]` is the source.
    overlay: Vec<NodeId>,
    /// Maps a topology node id to its index in `overlay` (usize::MAX when
    /// the node is a router).
    overlay_index: Vec<usize>,
    /// Dense `m × m` delay matrix among overlay nodes (ms).
    delay: Vec<f64>,
    /// Dense `m × m` hop matrix among overlay nodes.
    hops: Vec<u32>,
    /// Cumulative delay scale applied via [`Self::scale_delays`].
    delay_scale: f64,
    n_topology_nodes: usize,
}

impl PhysicalNetwork {
    /// Generates the topology, places roles, and computes overlay delays.
    ///
    /// Shortest paths from each overlay node are found by [`OverlayApsp`]
    /// over link delays (equivalent to the paper's Floyd–Warshall routing
    /// tables but only materializing the cells the overlay needs).
    pub fn generate(cfg: &NetworkConfig, seed: u64) -> Self {
        let pareto = Pareto::with_mean(cfg.link_delay_min_ms, cfg.link_delay_mean_ms);
        let cap = cfg.link_delay_cap_ms;
        let topo = Topology::random(cfg.n_nodes, cfg.avg_degree, seed, |rng: &mut StdRng| {
            pareto.sample_capped(rng, cap)
        });
        let placement = Placement::random(cfg.n_nodes, cfg.n_repositories, seed.wrapping_add(1));
        Self::from_parts(&topo, placement)
    }

    /// Builds the overlay matrices from an explicit topology + placement
    /// (used by tests that need hand-crafted networks).
    ///
    /// Delegates to [`OverlayApsp`]: one search per overlay node over a
    /// CSR view of the graph, fanned out across threads, instead of the
    /// paper's full `O(V³)` Floyd–Warshall routing tables.
    pub fn from_parts(topo: &Topology, placement: Placement) -> Self {
        assert!(topo.is_connected(), "physical network must be connected");
        let mut overlay_index = vec![usize::MAX; topo.n_nodes()];
        for (i, &node) in placement.overlay_nodes().iter().enumerate() {
            overlay_index[node] = i;
        }
        let apsp = OverlayApsp::compute(topo, &placement.overlay_nodes());
        let (overlay, delay, hops) = apsp.into_parts();
        Self {
            placement,
            overlay,
            overlay_index,
            delay,
            hops,
            delay_scale: 1.0,
            n_topology_nodes: topo.n_nodes(),
        }
    }

    /// The source node id.
    pub fn source(&self) -> NodeId {
        self.placement.source
    }

    /// Repository node ids (sorted).
    pub fn repositories(&self) -> &[NodeId] {
        &self.placement.repositories
    }

    /// Total nodes in the underlying topology.
    pub fn n_topology_nodes(&self) -> usize {
        self.n_topology_nodes
    }

    /// Shortest-path delay between two overlay nodes in milliseconds.
    ///
    /// # Panics
    /// Panics if either node is a router (not part of the overlay).
    pub fn delay_ms(&self, a: NodeId, b: NodeId) -> f64 {
        let m = self.overlay.len();
        self.delay[self.idx(a) * m + self.idx(b)]
    }

    /// Hop count of the shortest-delay path between two overlay nodes.
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> u32 {
        let m = self.overlay.len();
        self.hops[self.idx(a) * m + self.idx(b)]
    }

    fn idx(&self, node: NodeId) -> usize {
        let i = self.overlay_index.get(node).copied().unwrap_or(usize::MAX);
        assert!(i != usize::MAX, "node {node} is not an overlay node");
        i
    }

    /// Mean pairwise delay among all overlay nodes (ms) — the paper's
    /// "average node-node delay".
    pub fn mean_overlay_delay_ms(&self) -> f64 {
        let m = self.overlay.len();
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in 0..m {
            for j in (i + 1)..m {
                sum += self.delay[i * m + j];
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Mean pairwise hop count among overlay nodes.
    pub fn mean_overlay_hops(&self) -> f64 {
        let m = self.overlay.len();
        let mut sum = 0u64;
        let mut count = 0usize;
        for i in 0..m {
            for j in (i + 1)..m {
                sum += self.hops[i * m + j] as u64;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Uniformly scales every overlay delay by `factor`. Shortest paths are
    /// invariant under uniform scaling, so this is exact.
    pub fn scale_delays(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite(), "scale factor must be positive");
        for d in &mut self.delay {
            *d *= factor;
        }
        self.delay_scale *= factor;
    }

    /// Rescales delays so that [`Self::mean_overlay_delay_ms`] equals
    /// `target_ms` — how the communication-delay sweeps (Figures 5, 7b) set
    /// their x-axis. Returns the factor applied.
    pub fn scale_to_mean_delay(&mut self, target_ms: f64) -> f64 {
        assert!(target_ms > 0.0, "target delay must be positive");
        let current = self.mean_overlay_delay_ms();
        assert!(current > 0.0, "cannot rescale a zero-delay network");
        let factor = target_ms / current;
        self.scale_delays(factor);
        factor
    }

    /// Cumulative scale factor applied so far.
    pub fn delay_scale(&self) -> f64 {
        self.delay_scale
    }

    /// Consumes the network into its row-major delay matrix (ms, scaled)
    /// over `[source, repositories...]`, releasing the hop matrix — for
    /// callers that keep only the delays and would otherwise copy them
    /// cell by cell through [`Self::delay_ms`].
    pub fn into_overlay_delays(self) -> Vec<f64> {
        debug_assert_eq!(self.overlay, self.placement.overlay_nodes());
        self.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::Apsp;

    #[test]
    fn base_network_matches_paper_characteristics() {
        let net = PhysicalNetwork::generate(&NetworkConfig::default(), 42);
        let mean_hops = net.mean_overlay_hops();
        let mean_delay = net.mean_overlay_delay_ms();
        assert!(
            (5.0..=15.0).contains(&mean_hops),
            "expected ~10 hops like the paper, got {mean_hops}"
        );
        assert!(
            (15.0..=45.0).contains(&mean_delay),
            "expected 20-30ms like the paper, got {mean_delay}"
        );
    }

    #[test]
    fn overlay_delays_match_apsp() {
        let cfg = NetworkConfig::small(60, 10);
        let pareto = Pareto::with_mean(cfg.link_delay_min_ms, cfg.link_delay_mean_ms);
        let topo = Topology::random(cfg.n_nodes, cfg.avg_degree, 5, |rng: &mut StdRng| {
            pareto.sample_capped(rng, cfg.link_delay_cap_ms)
        });
        let placement = Placement::random(cfg.n_nodes, cfg.n_repositories, 6);
        let net = PhysicalNetwork::from_parts(&topo, placement);
        let apsp = Apsp::floyd_warshall(&topo);
        let overlay = net.placement.overlay_nodes();
        for &a in &overlay {
            for &b in &overlay {
                assert!(
                    (net.delay_ms(a, b) - apsp.delay_ms(a, b)).abs() < 1e-9,
                    "delay mismatch {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn delay_matrix_is_symmetric_zero_diagonal() {
        let net = PhysicalNetwork::generate(&NetworkConfig::small(80, 15), 3);
        let overlay = net.placement.overlay_nodes();
        for &a in &overlay {
            assert_eq!(net.delay_ms(a, a), 0.0);
            for &b in &overlay {
                assert!((net.delay_ms(a, b) - net.delay_ms(b, a)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn scale_to_mean_delay_hits_target() {
        let mut net = PhysicalNetwork::generate(&NetworkConfig::small(100, 20), 9);
        let f = net.scale_to_mean_delay(75.0);
        assert!((net.mean_overlay_delay_ms() - 75.0).abs() < 1e-6);
        assert!(f > 0.0);
        assert!((net.delay_scale() - f).abs() < 1e-12);
    }

    #[test]
    fn into_overlay_delays_is_the_scaled_matrix_in_placement_order() {
        let mut net = PhysicalNetwork::generate(&NetworkConfig::small(90, 12), 21);
        net.scale_to_mean_delay(40.0);
        let mut order = vec![net.source()];
        order.extend_from_slice(net.repositories());
        let cells: Vec<f64> = order
            .iter()
            .flat_map(|&a| order.iter().map(move |&b| (a, b)))
            .map(|(a, b)| net.delay_ms(a, b))
            .collect();
        assert_eq!(net.into_overlay_delays(), cells);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PhysicalNetwork::generate(&NetworkConfig::small(50, 10), 4);
        let b = PhysicalNetwork::generate(&NetworkConfig::small(50, 10), 4);
        assert_eq!(a.delay, b.delay);
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    #[should_panic(expected = "not an overlay node")]
    fn querying_router_delay_panics() {
        let net = PhysicalNetwork::generate(&NetworkConfig::small(50, 5), 4);
        let router = (0..50).find(|n| *n != net.source() && !net.repositories().contains(n));
        net.delay_ms(net.source(), router.unwrap());
    }
}
