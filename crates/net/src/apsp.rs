//! Shortest paths: the overlay-targeted engine and its Floyd–Warshall
//! oracle.
//!
//! The paper: "The routing tables of all the nodes are generated using an
//! all-pairs shortest path algorithm (by Floyd and Warshall)". The overlay
//! layer, however, only ever queries delays among the *overlay* nodes —
//! the source plus the repositories, ~100 of the 700–2100 physical nodes —
//! so materializing the full `V × V` matrix in `O(V³)` is wasted work.
//!
//! [`OverlayApsp`] computes exactly the `m × m` sub-matrix the overlay
//! needs, over a CSR view of the graph whose pendant trees without an
//! overlay node are stripped ([`Csr::strip_pendant_trees`]: no path
//! between two other nodes enters one). Sources go 32 to a batch: each
//! node holds a row of 32 labels, one lane per source, and a FIFO
//! worklist holds the nodes whose labels improved since they were last
//! relaxed. Relaxing a link updates every lane at once and re-queues its
//! target if any lane improved. The batches are split into one
//! contiguous run per pool thread, with one workspace each (the `V`-wide
//! label rows and the worklist), refilled per batch; the run copies the
//! `m` overlay columns of each lane straight into that source's row of
//! the result, so memory is `O(m² + threads · 32 · V)`.
//!
//! Results are bit-identical regardless of thread count or of which
//! sources share a batch (every lane is solved on its own and written to
//! its own row), and to a binary-heap [`dijkstra`], which the tests keep
//! as the reference. The sweep stops only when no link improves any
//! label: no neighbor's label plus the link delay lies below a node's.
//! Every label is the left-to-right `f64` sum of some walk's delays, and
//! rounded addition is monotone (`a ≤ b` implies `a + w ≤ b + w`), so
//! link by link along the walk with the smallest such sum the fixed
//! point is no larger: each label is that minimum, whatever the order in
//! which labels were tried. The heap search ends at the same fixed point.
//!
//! Two cheaper-looking routes would change bits and are not taken.
//! `D[i][j]` and `D[j][i]` add the same links in opposite orders and
//! differ in their last bits, and callers read the directed cell, so the
//! matrix is not filled by symmetry. Contracting chains of degree-2
//! routers into single links re-associates the sums.
//!
//! [`Apsp::floyd_warshall`] is kept as the independent oracle the property
//! tests compare against (and it remains the reference implementation of
//! the paper's routing construction, hop counts included).

use std::collections::VecDeque;

use rayon::prelude::*;

use crate::topology::{Csr, NodeId, Topology};

/// Dense all-pairs shortest-path matrices (delay in ms and hop counts).
#[derive(Debug, Clone)]
pub struct Apsp {
    n: usize,
    /// Row-major `n × n` delay matrix; `f64::INFINITY` when unreachable.
    delay: Vec<f64>,
    /// Row-major `n × n` hop matrix; `u32::MAX` when unreachable.
    hops: Vec<u32>,
}

impl Apsp {
    /// Runs Floyd–Warshall on `topo` (O(n³); fine for the paper's 700–2100
    /// node networks, and computed once per experiment).
    pub fn floyd_warshall(topo: &Topology) -> Self {
        let n = topo.n_nodes();
        let mut delay = vec![f64::INFINITY; n * n];
        let mut hops = vec![u32::MAX; n * n];
        for i in 0..n {
            delay[i * n + i] = 0.0;
            hops[i * n + i] = 0;
        }
        for l in topo.links() {
            let (a, b) = (l.a, l.b);
            if l.delay_ms < delay[a * n + b] {
                delay[a * n + b] = l.delay_ms;
                delay[b * n + a] = l.delay_ms;
                hops[a * n + b] = 1;
                hops[b * n + a] = 1;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = delay[i * n + k];
                if dik.is_infinite() {
                    continue;
                }
                let hik = hops[i * n + k];
                // Manual row slices help the optimizer elide bounds checks.
                let (row_k_start, row_i_start) = (k * n, i * n);
                for j in 0..n {
                    let alt = dik + delay[row_k_start + j];
                    if alt < delay[row_i_start + j] {
                        delay[row_i_start + j] = alt;
                        hops[row_i_start + j] = hik + hops[row_k_start + j];
                    }
                }
            }
        }
        Self { n, delay, hops }
    }

    /// Number of nodes covered.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Shortest-path delay between `a` and `b` in milliseconds
    /// (`f64::INFINITY` when disconnected).
    pub fn delay_ms(&self, a: NodeId, b: NodeId) -> f64 {
        self.delay[a * self.n + b]
    }

    /// Hop count along the shortest-delay path (`u32::MAX` when
    /// disconnected).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.hops[a * self.n + b]
    }

    /// Mean shortest-path delay over the given node pairs (each unordered
    /// pair counted once), used to report the network's "average node-node
    /// delay" and to normalize delay sweeps.
    pub fn mean_delay_among(&self, nodes: &[NodeId]) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let d = self.delay_ms(a, b);
                if d.is_finite() {
                    sum += d;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Mean hop count over the given node pairs.
    pub fn mean_hops_among(&self, nodes: &[NodeId]) -> f64 {
        let mut sum = 0u64;
        let mut count = 0usize;
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let h = self.hops(a, b);
                if h != u32::MAX {
                    sum += h as u64;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

/// Shortest paths *among a set of overlay nodes*: the `m × m` delay
/// matrix the dissemination layer actually queries, computed without
/// touching the other `V − m` rows of the full APSP problem.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayApsp {
    /// The overlay nodes, in the order rows/columns are indexed.
    nodes: Vec<NodeId>,
    /// Row-major `m × m` delay matrix (ms); `f64::INFINITY` if unreachable.
    delay: Vec<f64>,
}

impl OverlayApsp {
    /// Runs one lane-batched shortest-delay search per 32 overlay
    /// nodes over a CSR view of `topo`, in parallel, keeping only the
    /// overlay columns of each row.
    ///
    /// # Panics
    /// Panics if `overlay` contains an out-of-range node id.
    pub fn compute(topo: &Topology, overlay: &[NodeId]) -> Self {
        let n = topo.n_nodes();
        for &node in overlay {
            assert!(node < n, "overlay node {node} out of range");
        }
        let m = overlay.len();
        let graph = topo.csr().strip_pendant_trees(overlay);
        // Zero pages, first touched by the worker that fills them: the
        // gather below overwrites every cell.
        let mut delay = vec![0.0; m * m];
        // One task per pool thread, owning a contiguous run of whole
        // batches and their rows of the result. The workspaces are
        // allocated here, on the calling thread: a worker's allocator
        // arena would keep their pages after the pool exits.
        let batches = m.div_ceil(LANES);
        let threads = rayon::current_num_threads().clamp(1, batches.max(1));
        let per_task = batches.div_ceil(threads).max(1) * LANES;
        let tasks: Vec<_> = overlay
            .chunks(per_task)
            .zip(delay.chunks_mut((per_task * m).max(1)))
            .map(|(sources, rows)| (Sweep::new(n), sources, rows))
            .collect();
        // Every batch and every lane is solved on its own: any pool width
        // and any grouping of sources gives the serial result.
        tasks.into_par_iter().for_each(|(mut sweep, sources, rows)| {
            for (batch, rows) in sources.chunks(LANES).zip(rows.chunks_mut(LANES * m)) {
                sweep.run(&graph, batch);
                for (lane, row) in rows.chunks_mut(m).enumerate() {
                    for (d, &dst) in row.iter_mut().zip(overlay) {
                        *d = sweep.labels[dst][lane];
                    }
                }
            }
        });
        Self { nodes: overlay.to_vec(), delay }
    }

    /// Number of overlay nodes covered.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the overlay set is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The overlay nodes, in row/column order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Delay between the `i`-th and `j`-th overlay nodes, ms.
    pub fn delay_ms_at(&self, i: usize, j: usize) -> f64 {
        self.delay[i * self.nodes.len() + j]
    }

    /// Consumes the result into its row-major `m × m` delay matrix, rows
    /// and columns in [`Self::nodes`] order.
    pub fn into_delays(self) -> Vec<f64> {
        self.delay
    }
}

/// Overlay sources one [`Sweep`] relaxes together, one per label lane.
const LANES: usize = 32;

/// A node's labels: lane `k` is its delay from the batch's `k`-th source.
type Labels = [f64; LANES];

/// The per-task workspace of the lane-batched search: a `V`-wide array
/// of label rows, and a FIFO worklist of the nodes whose labels improved
/// since they were last relaxed, with a flag per node for membership.
struct Sweep {
    labels: Vec<Labels>,
    queued: Vec<bool>,
    worklist: VecDeque<u32>,
}

impl Sweep {
    fn new(n_nodes: usize) -> Self {
        Self {
            labels: vec![[f64::INFINITY; LANES]; n_nodes],
            queued: vec![false; n_nodes],
            worklist: VecDeque::with_capacity(n_nodes),
        }
    }

    /// Labels every node, in lane `k`, with its minimal delay from
    /// `sources[k]`; unreachable nodes and unused lanes keep `INFINITY`.
    ///
    /// A node is queued whenever one of its lanes improves and relaxes
    /// every link with all lanes once dequeued, so when the worklist runs
    /// dry no link improves any label.
    fn run(&mut self, csr: &Csr, sources: &[NodeId]) {
        let Self { labels, queued, worklist } = self;
        labels.fill([f64::INFINITY; LANES]);
        for (lane, &src) in sources.iter().enumerate() {
            labels[src][lane] = 0.0;
            if !queued[src] {
                queued[src] = true;
                worklist.push_back(src as u32);
            }
        }
        while let Some(u) = worklist.pop_front() {
            let u = u as usize;
            queued[u] = false;
            let from = labels[u];
            let (targets, weights) = csr.neighbors(u);
            for (&v, &w) in targets.iter().zip(weights) {
                let v = v as usize;
                if relax(&mut labels[v], &from, w) && !queued[v] {
                    queued[v] = true;
                    worklist.push_back(v as u32);
                }
            }
        }
    }
}

/// Lowers each lane of `to` to `from + w` where that is strictly smaller;
/// true if any lane improved. A sum that overflowed to infinity is no
/// path: it is not below any label.
#[inline]
fn relax(to: &mut Labels, from: &Labels, w: f64) -> bool {
    let mut improved = false;
    for (d, &f) in to.iter_mut().zip(from) {
        let alt = f + w;
        improved |= alt < *d;
        *d = if alt < *d { alt } else { *d };
    }
    improved
}

/// Single-source Dijkstra over link delays — the independent oracle used by
/// tests to validate Floyd–Warshall and, bit for bit, [`OverlayApsp`]; and
/// handy when only one row of the matrix is needed.
pub fn dijkstra(topo: &Topology, src: NodeId) -> Vec<f64> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry {
        dist: f64,
        node: NodeId,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on dist; ties broken by node id for determinism.
            other.dist.total_cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = topo.n_nodes();
    let mut dist = vec![f64::INFINITY; n];
    dist[src] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Entry { dist: 0.0, node: src });
    while let Some(Entry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, li) in topo.neighbors(u) {
            let alt = d + topo.links()[li].delay_ms;
            if alt < dist[v] {
                dist[v] = alt;
                heap.push(Entry { dist: alt, node: v });
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::tests::generate;
    use crate::network::NetworkConfig;
    use crate::topology::Link;

    /// The bit-for-bit reference for [`OverlayApsp::compute`]: one heap
    /// [`dijkstra`] per overlay node over the whole graph, overlay columns
    /// kept.
    fn heap_reference(topo: &Topology, overlay: &[NodeId]) -> Vec<f64> {
        let mut delay = Vec::new();
        for &src in overlay {
            let dist_row = dijkstra(topo, src);
            delay.extend(overlay.iter().map(|&dst| dist_row[dst]));
        }
        delay
    }

    /// `==` on the matrix: every delay bit.
    fn assert_equals_heap_reference(topo: &Topology, overlay: &[NodeId], what: &str) {
        let ov = OverlayApsp::compute(topo, overlay);
        assert_eq!(ov.nodes(), overlay, "{what}: node order");
        assert!(ov.into_delays() == heap_reference(topo, overlay), "{what}: delays differ");
    }

    fn line_graph(n: usize) -> Topology {
        let links = (0..n - 1).map(|i| Link { a: i, b: i + 1, delay_ms: (i + 1) as f64 }).collect();
        Topology::new(n, links)
    }

    #[test]
    fn line_graph_distances() {
        let topo = line_graph(5);
        let apsp = Apsp::floyd_warshall(&topo);
        // delay(0,4) = 1 + 2 + 3 + 4 = 10, hops = 4
        assert_eq!(apsp.delay_ms(0, 4), 10.0);
        assert_eq!(apsp.hops(0, 4), 4);
        assert_eq!(apsp.delay_ms(2, 2), 0.0);
        assert_eq!(apsp.hops(2, 2), 0);
    }

    #[test]
    fn shortcut_beats_long_path() {
        let topo = Topology::new(
            4,
            vec![
                Link { a: 0, b: 1, delay_ms: 1.0 },
                Link { a: 1, b: 2, delay_ms: 1.0 },
                Link { a: 2, b: 3, delay_ms: 1.0 },
                Link { a: 0, b: 3, delay_ms: 2.5 },
            ],
        );
        let apsp = Apsp::floyd_warshall(&topo);
        assert_eq!(apsp.delay_ms(0, 3), 2.5);
        assert_eq!(apsp.hops(0, 3), 1);
    }

    #[test]
    fn matches_dijkstra_on_random_graph() {
        let topo = Topology::random(80, 3.5, 5, |rng| {
            use rand::Rng;
            rng.gen_range(1.0..20.0)
        });
        let apsp = Apsp::floyd_warshall(&topo);
        for src in [0usize, 17, 42] {
            let d = dijkstra(&topo, src);
            for (v, &dv) in d.iter().enumerate() {
                assert!(
                    (apsp.delay_ms(src, v) - dv).abs() < 1e-9,
                    "mismatch {src}->{v}: fw={} dij={dv}",
                    apsp.delay_ms(src, v),
                );
            }
        }
    }

    #[test]
    fn symmetry_and_triangle_inequality() {
        let topo = Topology::random(60, 3.0, 11, |_| 2.0);
        let apsp = Apsp::floyd_warshall(&topo);
        for a in 0..60 {
            for b in 0..60 {
                assert!((apsp.delay_ms(a, b) - apsp.delay_ms(b, a)).abs() < 1e-9);
                for c in 0..60 {
                    assert!(
                        apsp.delay_ms(a, b) <= apsp.delay_ms(a, c) + apsp.delay_ms(c, b) + 1e-9
                    );
                }
            }
        }
    }

    /// Property: on random topologies with continuously distributed link
    /// delays, the overlay-targeted engine reproduces the Floyd–Warshall
    /// oracle's delays for every overlay pair.
    #[test]
    fn overlay_apsp_matches_floyd_warshall_oracle() {
        use rand::Rng;
        for seed in 0..8u64 {
            let n = 40 + (seed as usize * 17) % 80;
            let topo = Topology::random(n, 3.0 + (seed % 3) as f64 * 0.5, seed, |rng| {
                rng.gen_range(1.0..30.0)
            });
            // An arbitrary overlay subset, including node 0 as the "source".
            let overlay: Vec<NodeId> = (0..n).filter(|&v| v == 0 || v % 3 == 1).collect();
            let fw = Apsp::floyd_warshall(&topo);
            let ov = OverlayApsp::compute(&topo, &overlay);
            assert_eq!(ov.len(), overlay.len());
            for (i, &a) in overlay.iter().enumerate() {
                for (j, &b) in overlay.iter().enumerate() {
                    assert!(
                        (ov.delay_ms_at(i, j) - fw.delay_ms(a, b)).abs() < 1e-9,
                        "seed {seed}: delay mismatch {a}->{b}: overlay {} fw {}",
                        ov.delay_ms_at(i, j),
                        fw.delay_ms(a, b),
                    );
                }
            }
        }
    }

    /// With quantized delays, equal-delay alternatives exist; whichever
    /// one each engine settles on, the delays agree.
    #[test]
    fn overlay_apsp_on_tied_paths_matches_floyd_warshall_delays() {
        for seed in 0..4u64 {
            let topo = Topology::random(70, 4.0, seed, |_| 5.0);
            let overlay: Vec<NodeId> = (0..70).step_by(5).collect();
            let fw = Apsp::floyd_warshall(&topo);
            let ov = OverlayApsp::compute(&topo, &overlay);
            for (i, &a) in overlay.iter().enumerate() {
                for (j, &b) in overlay.iter().enumerate() {
                    assert!((ov.delay_ms_at(i, j) - fw.delay_ms(a, b)).abs() < 1e-9);
                }
            }
        }
    }

    /// The parallel fan-out must be invisible: any forced pool width
    /// produces the same matrices as the default pool. (Each source's row
    /// is computed independently, so this holds by construction; the test
    /// pins it.)
    #[test]
    fn overlay_apsp_is_thread_count_invariant() {
        let topo = Topology::random(90, 3.5, 13, |rng| {
            use rand::Rng;
            rng.gen_range(2.0..40.0)
        });
        let overlay: Vec<NodeId> = (0..90).step_by(4).collect();
        let baseline = OverlayApsp::compute(&topo, &overlay);
        for width in [1usize, 2, 7] {
            let pinned = rayon::with_num_threads(width, || OverlayApsp::compute(&topo, &overlay));
            assert_eq!(baseline, pinned, "width {width} diverged");
        }
    }

    #[test]
    fn mean_delay_and_hops() {
        let topo = line_graph(4); // delays 1,2,3
        let apsp = Apsp::floyd_warshall(&topo);
        let nodes = [0, 1, 2, 3];
        // pairs: (0,1)=1 (0,2)=3 (0,3)=6 (1,2)=2 (1,3)=5 (2,3)=3 → mean 20/6
        assert!((apsp.mean_delay_among(&nodes) - 20.0 / 6.0).abs() < 1e-9);
        // hops: 1,2,3,1,2,1 → mean 10/6
        assert!((apsp.mean_hops_among(&nodes) - 10.0 / 6.0).abs() < 1e-9);
    }

    /// The link-delay families of the bit-equality suite. The last two
    /// span more than 32× between the shortest and the longest link, so
    /// a label is often improved again after it was first relaxed.
    fn link_delay(family: usize, rng: &mut rand::rngs::StdRng) -> f64 {
        use rand::Rng;
        match family {
            0 => rng.gen_range(1.0..30.0),
            // Equal-delay alternatives everywhere.
            1 => 5.0,
            2 => [1.0, 2.0, 3.0][rng.gen_range(0..3usize)],
            3 => 10f64.powf(rng.gen_range(-3.0..3.0)),
            _ => rng.gen_range(1e-6..1e3),
        }
    }

    /// Property: the lane-batched engine returns the heap reference's
    /// matrix bit for bit — over five link-delay families, average
    /// degrees 2.0–4.5 (2.0 is a pure tree, nearly all of it pruned),
    /// overlay densities 1/2–1/8 with sizes off the batch size, and pool
    /// widths 1, 2 and 7.
    #[test]
    fn overlay_apsp_equals_heap_reference_bit_for_bit() {
        for seed in 0..40u64 {
            let family = (seed % 5) as usize;
            let n = 60 + (seed as usize * 37) % 240;
            let avg_degree = 2.0 + (seed % 6) as f64 * 0.5;
            let topo = Topology::random(n, avg_degree, seed, |rng| link_delay(family, rng));
            let stride = 2 + (seed as usize / 5) % 7;
            let overlay: Vec<NodeId> =
                (0..n).filter(|v| (v + seed as usize).is_multiple_of(stride)).collect();
            let what = format!("seed {seed} family {family} degree {avg_degree} 1/{stride}");
            let width = [1usize, 2, 7][(seed % 3) as usize];
            rayon::with_num_threads(width, || assert_equals_heap_reference(&topo, &overlay, &what));
        }
        // Sizes around the batch size, on one graph.
        let topo = Topology::random(240, 3.0, 99, |rng| link_delay(0, rng));
        for m in [LANES - 1, LANES, LANES + 1, 3 * LANES + 5] {
            let overlay: Vec<NodeId> = (0..m).map(|i| i * 240 / m).collect();
            for width in [1usize, 2, 7] {
                let what = format!("{m} sources, width {width}");
                rayon::with_num_threads(width, || {
                    assert_equals_heap_reference(&topo, &overlay, &what)
                });
            }
        }
    }

    /// Which lane and which batch a source lands in moves no bit: the
    /// overlay rotated by `r` gives the same matrix, rotated by `r`.
    #[test]
    fn overlay_apsp_is_lane_position_invariant() {
        let overlay: Vec<NodeId> = (0..2 * LANES + 9).map(|i| i * 2).collect();
        let m = overlay.len();
        for family in 0..5 {
            let topo =
                Topology::random(160, 3.0, 31 + family as u64, |rng| link_delay(family, rng));
            let base = OverlayApsp::compute(&topo, &overlay);
            for r in [1, 7, LANES - 1, LANES, LANES + 3, 2 * LANES + 1] {
                let rotated = [&overlay[r..], &overlay[..r]].concat();
                let expected: Vec<f64> = (0..m * m)
                    .map(|c| base.delay_ms_at((c / m + r) % m, (c % m + r) % m))
                    .collect();
                let ov = OverlayApsp::compute(&topo, &rotated);
                assert!(ov.into_delays() == expected, "family {family}, rotated by {r}");
            }
        }
    }

    /// The paper's largest network: 2 100 nodes, 300 repositories, the
    /// Pareto link delays.
    #[test]
    fn overlay_apsp_on_largest_paper_network_equals_heap_reference() {
        let (topo, overlay) = generate(&NetworkConfig::small(2_100, 300), 11);
        assert_equals_heap_reference(&topo, &overlay, "2 100 nodes, 300 repositories");
    }

    /// The `build-2500r` fabric: 17 500 nodes, 2 501 overlay nodes,
    /// Pareto(2 ms, mean 4 ms) link delays capped at 60 ms. Minutes in a
    /// debug build; `cargo test --release -p d3t-net -- --ignored`.
    #[test]
    #[ignore = "release-mode scale test"]
    fn overlay_apsp_on_build_2500r_fabric_equals_heap_reference() {
        let (topo, overlay) = generate(&NetworkConfig::small(17_500, 2_500), 7);
        assert_eq!(overlay.len(), 2_501);
        assert_equals_heap_reference(&topo, &overlay, "17 500 nodes, 2 500 repositories");
    }

    /// The queue and the pruning assume neither connectivity nor a
    /// non-trivial overlay.
    #[test]
    fn overlay_apsp_degenerate_inputs() {
        // Two components, {0,1,2} and {3,4}, and an isolated node 5.
        let split = Topology::new(
            6,
            vec![
                Link { a: 0, b: 1, delay_ms: 1.5 },
                Link { a: 1, b: 2, delay_ms: 2.5 },
                Link { a: 3, b: 4, delay_ms: 4.0 },
            ],
        );
        let ov = OverlayApsp::compute(&split, &[0, 2, 4, 5]);
        assert_eq!(ov.delay_ms_at(0, 1), 4.0);
        assert_eq!(ov.delay_ms_at(1, 0), 4.0);
        for (i, j) in [(0, 2), (2, 0), (1, 2), (0, 3), (3, 0), (2, 3), (3, 2)] {
            assert_eq!(ov.delay_ms_at(i, j), f64::INFINITY, "({i},{j})");
        }
        for i in 0..4 {
            assert_eq!(ov.delay_ms_at(i, i), 0.0);
        }
        assert_equals_heap_reference(&split, &[0, 2, 4, 5], "disconnected");

        let topo = Topology::random(50, 3.0, 17, |rng| link_delay(0, rng));
        let empty = OverlayApsp::compute(&topo, &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.into_delays(), vec![]);
        let one = OverlayApsp::compute(&topo, &[7]);
        assert_eq!(one.nodes(), [7]);
        assert_eq!(one.into_delays(), vec![0.0]);

        let dup = OverlayApsp::compute(&topo, &[3, 9, 3]);
        assert_eq!(dup.delay_ms_at(0, 2), 0.0);
        assert_eq!(dup.delay_ms_at(0, 1), dup.delay_ms_at(2, 1));
        assert_eq!(dup.delay_ms_at(1, 0), dup.delay_ms_at(1, 2));
        assert_equals_heap_reference(&topo, &[3, 9, 3], "duplicate ids");

        // Nothing to prune; almost everything to prune.
        assert_equals_heap_reference(&topo, &(0..50).collect::<Vec<_>>(), "every node");
        let tree = Topology::random(200, 2.0, 23, |rng| link_delay(0, rng));
        let few: Vec<NodeId> = (0..200).step_by(40).collect();
        assert!(tree.csr().strip_pendant_trees(&few).n_edges() < tree.csr().n_edges() / 2);
        assert_equals_heap_reference(&tree, &few, "spanning tree plus one link");

        // Parallel links: the cheaper one counts, whichever comes first.
        let parallel = Topology::new(
            3,
            vec![
                Link { a: 0, b: 1, delay_ms: 9.0 },
                Link { a: 0, b: 1, delay_ms: 2.0 },
                Link { a: 1, b: 2, delay_ms: 1.0 },
                Link { a: 1, b: 2, delay_ms: 6.0 },
            ],
        );
        let ov = OverlayApsp::compute(&parallel, &[0, 2]);
        assert_eq!(ov.delay_ms_at(0, 1), 3.0);
        assert_equals_heap_reference(&parallel, &[0, 1, 2], "parallel links");

        // A path sum that overflows f64 is no path, not a label.
        let huge = Topology::new(
            3,
            vec![Link { a: 0, b: 1, delay_ms: 1e308 }, Link { a: 1, b: 2, delay_ms: 1e308 }],
        );
        let ov = OverlayApsp::compute(&huge, &[0, 2]);
        assert_eq!(ov.delay_ms_at(0, 1), f64::INFINITY);
    }
}
