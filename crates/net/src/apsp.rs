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
//! needs: one single-source search per overlay node over a CSR view of
//! the graph, the sources fanned out over a rayon-style thread pool in
//! fixed-size tasks. Nothing `V`-wide outlives a source and no source
//! allocates:
//!
//! * a task owns one workspace — the `V`-wide delay labels and the
//!   queue — refilled per source, and itself copies the
//!   `m` overlay columns of each finished search into that source's row
//!   of the result, so memory is `O(m² + threads · V)`;
//! * pendant trees that hold no overlay node are stripped first
//!   ([`Csr::strip_pendant_trees`]): no path between two other nodes
//!   enters one;
//! * the queue is a circular array of buckets keyed on
//!   `floor(delay / width)`, drained in increasing order — `O(V + E)`
//!   bucket operations per source, `O(m · (V + E))` in all, in place of
//!   a binary heap's `O(m · E log V)`.
//!
//! Results are bit-identical regardless of thread count (each source is
//! solved independently and written to its own row) and to a binary-heap
//! [`dijkstra`], which the tests keep as the reference. A node's label is
//! the minimum, over its neighbors' final labels, of the left-to-right
//! `f64` sum of link delays; the queue only decides in which order labels
//! are tried. With buckets as wide as the smallest link — every paper
//! configuration — no relaxation lands in the bucket being drained (bar
//! a last-place rounding at its upper edge), so nodes are relaxed from
//! final labels only, exactly as under the heap. Otherwise (link delays
//! spanning more than `MAX_BUCKET_SPAN`) a node can also be relaxed
//! from a label its neighbor later improves, and the drain relaxes it
//! again from the improved one, so the minimum is the same.
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
    /// Runs one shortest-delay search per overlay node over a CSR view of
    /// `topo`, in parallel, keeping only the overlay columns of each row.
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
        let queue = BucketLayout::of(&graph);
        // Zero pages, first touched by the worker that fills them: the
        // gather below overwrites every cell.
        let mut delay = vec![0.0; m * m];
        // One independent single-source problem per overlay node, each
        // written to its own row: any pool width gives the serial result.
        let row_block = (SOURCES_PER_TASK * m).max(1);
        let tasks: Vec<_> =
            overlay.chunks(SOURCES_PER_TASK).zip(delay.chunks_mut(row_block)).collect();
        tasks.into_par_iter().for_each(|(sources, delay_rows)| {
            let mut search = Search::new(n, queue);
            for (&src, delay_row) in sources.iter().zip(delay_rows.chunks_mut(m)) {
                search.run(&graph, src);
                for (d, &dst) in delay_row.iter_mut().zip(overlay) {
                    *d = search.dist[dst];
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

/// Overlay sources handed to the pool as one task. The task owns one
/// [`Search`], refilled rather than reallocated between its sources.
const SOURCES_PER_TASK: usize = 8;

/// Bound on `max link delay / bucket width`, and so on the bucket count
/// of a search, when link delays span more than this ratio.
const MAX_BUCKET_SPAN: f64 = 32.0;

/// How label delays map onto the circular bucket array of a [`Search`].
#[derive(Debug, Clone, Copy)]
struct BucketLayout {
    /// Reciprocal of the bucket width, 1/ms.
    inv_width: f64,
    /// Buckets in the circular array, a power of two.
    n_buckets: usize,
}

impl BucketLayout {
    /// `width = max(min link delay, max link delay / MAX_BUCKET_SPAN)`. A
    /// relaxation moves a label forward by at most `max / width` buckets
    /// (plus one for rounding), so `ceil(max / width) + 2` buckets never
    /// wrap onto the one being drained. When the width is the minimum
    /// link delay — the paper's 2 ms floor under a 60 ms cap — no
    /// relaxation lands in the bucket being drained either.
    fn of(csr: &Csr) -> Self {
        let weights = (0..csr.n_nodes()).flat_map(|u| csr.neighbors(u).1);
        let (min, max) =
            weights.fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
        // A graph without links has one label, the source's: bucket 0.
        let width = min.max(max / MAX_BUCKET_SPAN);
        let n_buckets = ((max / width).ceil() as usize + 2).next_power_of_two();
        Self { inv_width: 1.0 / width, n_buckets }
    }
}

/// A queued label: `node` reached at `dist`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    dist: f64,
    node: u32,
}

/// The per-task workspace of the single-source search: the `V`-wide label
/// array and a monotone bucket queue keyed on `floor(dist / width)`.
struct Search {
    dist: Vec<f64>,
    buckets: Vec<Vec<Entry>>,
    inv_width: f64,
}

impl Search {
    fn new(n_nodes: usize, queue: BucketLayout) -> Self {
        Self {
            dist: vec![f64::INFINITY; n_nodes],
            buckets: vec![Vec::new(); queue.n_buckets],
            inv_width: queue.inv_width,
        }
    }

    /// Labels every node reachable from `src` with its minimal delay; the
    /// rest keep `INFINITY`.
    ///
    /// Buckets are drained in increasing order. A label only ever moves
    /// forward (`d + w >= d`, and the bucket index is monotone in the
    /// delay), so when a bucket is reached every label that can improve
    /// one of its nodes is either final or inside it; an improvement that
    /// lands inside it is appended and relaxed again in the same drain.
    fn run(&mut self, csr: &Csr, src: NodeId) {
        let Self { dist, buckets, inv_width } = self;
        dist.fill(f64::INFINITY);
        dist[src] = 0.0;
        let mask = buckets.len() - 1;
        buckets[0].push(Entry { dist: 0.0, node: src as u32 });
        let (mut current, mut last) = (0usize, 0usize);
        while current <= last {
            let slot = current & mask;
            let mut next = 0;
            while let Some(&Entry { dist: d, node: u }) = buckets[slot].get(next) {
                next += 1;
                let u = u as usize;
                // Labels only improve, so a superseded entry differs.
                if d != dist[u] {
                    continue;
                }
                let (targets, weights) = csr.neighbors(u);
                for (&v, &w) in targets.iter().zip(weights) {
                    let vu = v as usize;
                    let alt = d + w;
                    // A sum that overflowed to infinity is no path: it is
                    // not below the unreached label, so only finite labels
                    // are stored and `bucket` is in range.
                    if alt < dist[vu] {
                        dist[vu] = alt;
                        let bucket = (alt * *inv_width) as usize;
                        debug_assert!(bucket >= current && bucket - current <= mask);
                        last = last.max(bucket);
                        buckets[bucket & mask].push(Entry { dist: alt, node: v });
                    }
                }
            }
            buckets[slot].clear();
            current += 1;
        }
    }
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
            other
                .dist
                .partial_cmp(&self.dist)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.node.cmp(&self.node))
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
    /// span more than `MAX_BUCKET_SPAN`, so buckets are wider than the
    /// smallest link and labels improve inside the bucket being drained.
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

    /// Property: the bucket-queue engine returns the heap reference's
    /// matrix bit for bit — over five link-delay families, average
    /// degrees 2.0–4.5 (2.0 is a pure tree, nearly all of it pruned),
    /// overlay densities 1/2–1/8 with sizes off the task size, and pool
    /// widths 1, 2 and 7.
    #[test]
    fn overlay_apsp_equals_heap_reference_bit_for_bit() {
        let mut wide_layouts = 0;
        for seed in 0..40u64 {
            let family = (seed % 5) as usize;
            let n = 60 + (seed as usize * 37) % 240;
            let avg_degree = 2.0 + (seed % 6) as f64 * 0.5;
            let topo = Topology::random(n, avg_degree, seed, |rng| link_delay(family, rng));
            let (lo, hi) = topo.links().iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), l| {
                (lo.min(l.delay_ms), hi.max(l.delay_ms))
            });
            wide_layouts += usize::from(hi / lo > MAX_BUCKET_SPAN);
            let stride = 2 + (seed as usize / 5) % 7;
            let overlay: Vec<NodeId> =
                (0..n).filter(|v| (v + seed as usize).is_multiple_of(stride)).collect();
            let what = format!("seed {seed} family {family} degree {avg_degree} 1/{stride}");
            let width = [1usize, 2, 7][(seed % 3) as usize];
            rayon::with_num_threads(width, || assert_equals_heap_reference(&topo, &overlay, &what));
        }
        assert!(wide_layouts >= 8, "the wide-bucket path went untested");
        // Sizes around the task size, on one graph.
        let topo = Topology::random(90, 3.0, 99, |rng| link_delay(0, rng));
        for m in
            [SOURCES_PER_TASK - 1, SOURCES_PER_TASK, SOURCES_PER_TASK + 1, 3 * SOURCES_PER_TASK + 5]
        {
            let overlay: Vec<NodeId> = (0..m).map(|i| i * 90 / m).collect();
            for width in [1usize, 2, 7] {
                let what = format!("{m} sources, width {width}");
                rayon::with_num_threads(width, || {
                    assert_equals_heap_reference(&topo, &overlay, &what)
                });
            }
        }
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
