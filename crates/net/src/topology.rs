//! Random connected network topologies.
//!
//! The paper's physical network "was randomly generated, consisting of
//! nodes (routers and repositories) and links". We build a connected
//! random graph the standard way: a uniform random spanning tree over all
//! nodes guarantees connectivity, then extra edges are sprinkled uniformly
//! at random until the requested average degree is reached. Link delays are
//! attached by the caller (see [`crate::network`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Index of a node in a [`Topology`].
pub type NodeId = usize;

/// An undirected link between two nodes, weighted by its propagation delay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation + processing delay of this link, in milliseconds.
    pub delay_ms: f64,
}

/// An undirected graph of `n_nodes` nodes with delay-weighted links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    n_nodes: usize,
    links: Vec<Link>,
    /// Adjacency list: for each node, `(neighbor, link index)` pairs.
    adj: Vec<Vec<(NodeId, usize)>>,
}

impl Topology {
    /// Builds a topology from explicit links.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or non-positive delays.
    pub fn new(n_nodes: usize, links: Vec<Link>) -> Self {
        for l in &links {
            assert!(l.a < n_nodes && l.b < n_nodes, "link endpoint out of range");
            assert!(l.a != l.b, "self-loops are not allowed");
            assert!(l.delay_ms > 0.0 && l.delay_ms.is_finite(), "link delay must be positive");
        }
        let mut adj = vec![Vec::new(); n_nodes];
        for (i, l) in links.iter().enumerate() {
            adj[l.a].push((l.b, i));
            adj[l.b].push((l.a, i));
        }
        Self { n_nodes, links, adj }
    }

    /// Generates a connected random topology.
    ///
    /// * `n_nodes` — total node count (routers + repositories + source);
    /// * `avg_degree` — target average node degree (≥ 2.0 ensures the
    ///   spanning tree plus some redundancy, like real WAN graphs);
    /// * `delay_of` — called once per created link to assign its delay.
    ///
    /// The construction is: random-permutation spanning tree (each node
    /// after the first attaches to a uniformly random earlier node), then
    /// uniformly random extra edges (no duplicates, no self-loops) until
    /// `n_nodes * avg_degree / 2` links exist.
    pub fn random<F>(n_nodes: usize, avg_degree: f64, seed: u64, mut delay_of: F) -> Self
    where
        F: FnMut(&mut StdRng) -> f64,
    {
        assert!(n_nodes >= 2, "need at least two nodes");
        assert!(avg_degree >= 2.0, "average degree must be at least 2");
        let mut rng = StdRng::seed_from_u64(seed);

        // Random attachment order so that tree depth is O(log n) on average.
        let mut order: Vec<NodeId> = (0..n_nodes).collect();
        for i in (1..n_nodes).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }

        let target_links = ((n_nodes as f64 * avg_degree) / 2.0).round() as usize;
        let mut links = Vec::with_capacity(target_links.max(n_nodes - 1));
        #[expect(
            clippy::disallowed_types,
            reason = "HashSet used for contains/insert dedup only; iteration order never observed"
        )]
        let mut seen = std::collections::HashSet::with_capacity(target_links * 2);
        let key = |a: NodeId, b: NodeId| if a < b { (a, b) } else { (b, a) };

        for i in 1..n_nodes {
            let child = order[i];
            let parent = order[rng.gen_range(0..i)];
            seen.insert(key(child, parent));
            links.push(Link { a: child, b: parent, delay_ms: delay_of(&mut rng) });
        }
        let mut attempts = 0usize;
        while links.len() < target_links && attempts < target_links * 50 {
            attempts += 1;
            let a = rng.gen_range(0..n_nodes);
            let b = rng.gen_range(0..n_nodes);
            if a == b || seen.contains(&key(a, b)) {
                continue;
            }
            seen.insert(key(a, b));
            links.push(Link { a, b, delay_ms: delay_of(&mut rng) });
        }
        Self::new(n_nodes, links)
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// `(neighbor, link index)` pairs for `node`.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, usize)] {
        &self.adj[node]
    }

    /// Average node degree.
    pub fn avg_degree(&self) -> f64 {
        2.0 * self.links.len() as f64 / self.n_nodes as f64
    }

    /// True if every node is reachable from node 0.
    pub fn is_connected(&self) -> bool {
        if self.n_nodes == 0 {
            return true;
        }
        let mut visited = vec![false; self.n_nodes];
        let mut stack = vec![0];
        visited[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in &self.adj[u] {
                if !visited[v] {
                    visited[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.n_nodes
    }

    /// Builds a compressed-sparse-row view of the graph for cache-friendly
    /// traversal (the shortest-path hot loop).
    pub fn csr(&self) -> Csr {
        Csr::from_topology(self)
    }
}

/// Compressed-sparse-row adjacency: all neighbor lists in two flat arrays,
/// indexed by a per-node offset table. Traversing a node's neighborhood is
/// one contiguous scan instead of a pointer chase through per-node `Vec`s:
/// the lane-batched sweep in [`crate::apsp`] does one such scan each time
/// it dequeues a node.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// `offsets[u]..offsets[u + 1]` indexes `u`'s slice of the arrays.
    offsets: Vec<u32>,
    /// Neighbor node ids, grouped by origin node.
    targets: Vec<u32>,
    /// Delay of the link to the corresponding target, ms.
    weights_ms: Vec<f64>,
}

impl Csr {
    /// Flattens a topology's adjacency lists (two entries per undirected
    /// link).
    pub fn from_topology(topo: &Topology) -> Self {
        let n = topo.n_nodes();
        assert!(n < u32::MAX as usize, "topology too large for u32 CSR indices");
        assert!(
            topo.links().len() * 2 < u32::MAX as usize,
            "topology has too many links for u32 CSR offsets"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(topo.links().len() * 2);
        let mut weights_ms = Vec::with_capacity(topo.links().len() * 2);
        offsets.push(0u32);
        for u in 0..n {
            for &(v, li) in topo.neighbors(u) {
                targets.push(v as u32);
                weights_ms.push(topo.links()[li].delay_ms);
            }
            offsets.push(targets.len() as u32);
        }
        Self { offsets, targets, weights_ms }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (twice the link count).
    pub fn n_edges(&self) -> usize {
        self.targets.len()
    }

    /// The graph without its pendant trees: nodes left with a single link
    /// are dropped, repeatedly, unless listed in `keep`. Node ids, and the
    /// order of every surviving neighbor list, are unchanged.
    ///
    /// A dropped tree hangs off the rest by one node, so no simple path
    /// between two surviving nodes enters it: shortest paths among the
    /// survivors — every path from a `keep` node to a `keep` node — are
    /// the same link sequences as in `self`.
    pub fn strip_pendant_trees(&self, keep: &[NodeId]) -> Csr {
        let n = self.n_nodes();
        let mut kept = vec![false; n];
        for &node in keep {
            kept[node] = true;
        }
        // Links to nodes still present; 0 once a node is dropped.
        let mut degree: Vec<u32> = self.offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let mut leaves: Vec<usize> = (0..n).filter(|&u| degree[u] == 1 && !kept[u]).collect();
        while let Some(u) = leaves.pop() {
            degree[u] = 0;
            // Absent when the other end of a two-node component went first.
            if let Some(&v) = self.neighbors(u).0.iter().find(|&&v| degree[v as usize] > 0) {
                let v = v as usize;
                degree[v] -= 1;
                if degree[v] == 1 && !kept[v] {
                    leaves.push(v);
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.targets.len());
        let mut weights_ms = Vec::with_capacity(self.targets.len());
        offsets.push(0u32);
        for u in 0..n {
            if degree[u] > 0 {
                let (ts, ws) = self.neighbors(u);
                for (&v, &w) in ts.iter().zip(ws) {
                    if degree[v as usize] > 0 {
                        targets.push(v);
                        weights_ms.push(w);
                    }
                }
            }
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets, weights_ms }
    }

    /// `(neighbor, delay_ms)` pairs of `node`, as parallel slices.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> (&[u32], &[f64]) {
        let start = self.offsets[node] as usize;
        let end = self.offsets[node + 1] as usize;
        (&self.targets[start..end], &self.weights_ms[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_delay(_: &mut StdRng) -> f64 {
        1.0
    }

    #[test]
    fn random_topology_is_connected() {
        for seed in 0..5 {
            let t = Topology::random(200, 3.5, seed, fixed_delay);
            assert!(t.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn random_topology_hits_target_degree() {
        let t = Topology::random(500, 4.0, 1, fixed_delay);
        assert!((t.avg_degree() - 4.0).abs() < 0.3, "avg degree {}", t.avg_degree());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Topology::random(100, 3.0, 9, fixed_delay);
        let b = Topology::random(100, 3.0, 9, fixed_delay);
        assert_eq!(a, b);
    }

    #[test]
    fn no_self_loops_or_duplicate_links() {
        let t = Topology::random(150, 4.0, 3, fixed_delay);
        #[expect(
            clippy::disallowed_types,
            reason = "HashSet used for contains/insert dedup only; iteration order never observed"
        )]
        let mut seen = std::collections::HashSet::new();
        for l in t.links() {
            assert_ne!(l.a, l.b);
            let k = if l.a < l.b { (l.a, l.b) } else { (l.b, l.a) };
            assert!(seen.insert(k), "duplicate link {k:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_links() {
        let _ = Topology::new(2, vec![Link { a: 0, b: 5, delay_ms: 1.0 }]);
    }

    #[test]
    fn two_node_graph_works() {
        let t = Topology::random(2, 2.0, 0, fixed_delay);
        assert!(t.is_connected());
        assert!(!t.links().is_empty());
    }

    #[test]
    fn strip_pendant_trees_keeps_cycles_and_kept_nodes() {
        // Triangle 0-1-2 with the tail 2-3-4-5 and the spur 3-6.
        let link = |a, b| Link { a, b, delay_ms: (a + b) as f64 };
        let links = vec![
            link(0, 1),
            link(1, 2),
            link(2, 0),
            link(2, 3),
            link(3, 4),
            link(4, 5),
            link(3, 6),
        ];
        let csr = Topology::new(7, links).csr();
        // Keeping 4: 5 and 6 go, the path to 4 stays.
        let stripped = csr.strip_pendant_trees(&[4]);
        assert_eq!(stripped.n_nodes(), 7);
        assert_eq!(stripped.neighbors(3), (&[2u32, 4][..], &[5.0, 7.0][..]));
        assert_eq!(stripped.neighbors(4), (&[3u32][..], &[7.0][..]));
        assert_eq!(stripped.neighbors(5).0.len() + stripped.neighbors(6).0.len(), 0);
        assert_eq!(stripped.neighbors(2), csr.neighbors(2));
        // Keeping nothing: only the triangle survives.
        assert_eq!(csr.strip_pendant_trees(&[]).n_edges(), 6);
        // Keeping the tips of both branches: nothing to strip.
        assert_eq!(csr.strip_pendant_trees(&[5, 6]), csr);
    }

    #[test]
    fn csr_mirrors_adjacency_lists() {
        let t = Topology::random(120, 3.5, 21, |rng| rng.gen_range(1.0..9.0));
        let csr = t.csr();
        assert_eq!(csr.n_nodes(), t.n_nodes());
        assert_eq!(csr.n_edges(), t.links().len() * 2);
        for u in 0..t.n_nodes() {
            let (targets, weights) = csr.neighbors(u);
            let adj = t.neighbors(u);
            assert_eq!(targets.len(), adj.len());
            for ((&v, &w), &(av, ali)) in targets.iter().zip(weights).zip(adj) {
                assert_eq!(v as usize, av);
                assert_eq!(w, t.links()[ali].delay_ms);
            }
        }
    }
}
