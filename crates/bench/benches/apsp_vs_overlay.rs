//! Old vs new experiment-setup path: full Floyd–Warshall APSP against the
//! overlay-targeted multi-source search, at the paper's network sizes
//! (700 base, 2100 scalability study, 1500 in between).
//!
//! The overlay only needs delays among the source + ~100 repositories, so
//! the `O(V³)` Floyd–Warshall construction is replaced by `m` bucket-queue
//! searches over the CSR fanned out over threads (`O(m · (V + E))` time,
//! `O(m² + threads · V)` memory). The acceptance bar for the switch:
//! `Prepared::build` at 2100 physical nodes / 100 repositories must be
//! ≥ 10× faster than the Floyd–Warshall path — in practice the gap is
//! orders of magnitude at every size.
//!
//! Note: the Floyd–Warshall side runs the cubic algorithm to completion
//! once per sample; expect the 2100-node group to take minutes of wall
//! clock. That cost is the point of the comparison.

use criterion::{black_box, BenchmarkId, Criterion};
use d3t_net::apsp::{Apsp, OverlayApsp};
use d3t_net::{NodeId, Pareto, Topology};
use d3t_sim::{Prepared, SimConfig};

/// Paper-shaped network sizes: base case, midpoint, scalability study.
const SIZES: &[usize] = &[700, 1500, 2100];

/// Number of overlay nodes (source + repositories), paper base case.
const OVERLAY: usize = 101;

fn paper_topology(n: usize) -> Topology {
    let pareto = Pareto::with_mean(2.0, 4.0);
    Topology::random(n, 3.0, 0x5EED ^ n as u64, |rng| pareto.sample_capped(rng, 60.0))
}

/// An overlay set of `OVERLAY` nodes spread across the id space.
fn overlay_nodes(n: usize) -> Vec<NodeId> {
    (0..OVERLAY).map(|i| i * n / OVERLAY).collect()
}

fn overlay_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("apsp");
    for &n in SIZES {
        let topo = paper_topology(n);
        let overlay = overlay_nodes(n);
        group.bench_with_input(BenchmarkId::new("overlay_dijkstra", n), &n, |b, _| {
            b.iter(|| black_box(OverlayApsp::compute(&topo, &overlay)));
        });
    }
    group.finish();
}

fn floyd_warshall(c: &mut Criterion) {
    let mut group = c.benchmark_group("apsp");
    for &n in SIZES {
        let topo = paper_topology(n);
        group.bench_with_input(BenchmarkId::new("floyd_warshall", n), &n, |b, _| {
            b.iter(|| black_box(Apsp::floyd_warshall(&topo)));
        });
    }
    group.finish();
}

/// End-to-end experiment setup at the scalability-study network size:
/// everything `Prepared::build` does (traces, workload, network with
/// overlay APSP, LeLA construction). Compare against
/// `apsp/floyd_warshall/2100` above — the old path paid that cost *on top
/// of* all of this.
fn prepared_build_2100(c: &mut Criterion) {
    let mut cfg = SimConfig::small_for_tests(100, 20, 500, 50.0);
    cfg.network.n_nodes = 2100;
    cfg.network.n_repositories = 100;
    c.bench_function("prepared_build/2100_nodes_100_repos", |b| {
        b.iter(|| black_box(Prepared::build(&cfg)));
    });
}

fn config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(1500))
}

criterion::criterion_group! {
    name = benches;
    config = config();
    targets = overlay_dijkstra, prepared_build_2100, floyd_warshall
}
criterion::criterion_main!(benches);
