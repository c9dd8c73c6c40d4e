//! §6.3.5 — cost of growing the system (repositories and network), plus
//! the network substrate itself (topology + shortest paths) and the
//! quadratic layers of the build: LeLA and the passes over the overlay
//! delay matrix, at the benchmark's 600- and 2 500-repository scales.

use criterion::{black_box, BatchSize, BenchmarkId, Criterion};
use d3t_core::lela::{build_d3g, DelayMatrix, DelayMicros, LelaConfig, OverlayDelays};
use d3t_core::overlay::NodeIdx;
use d3t_experiments::Scale;
use d3t_net::apsp::Apsp;
use d3t_net::{NetworkConfig, PhysicalNetwork, Topology};
use d3t_sim::{Prepared, SimConfig};

fn sim_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    for repos in [10usize, 30] {
        group.bench_with_input(BenchmarkId::new("run_repos", repos), &repos, |b, &r| {
            let mut cfg = SimConfig::small_for_tests(r, 10, 300, 50.0);
            cfg.controlled = true;
            cfg.coop_res = r;
            b.iter(|| black_box(d3t_sim::run(&cfg)));
        });
    }
    group.finish();
}

fn network_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    for nodes in [140usize, 700] {
        group.bench_with_input(BenchmarkId::new("network_gen_nodes", nodes), &nodes, |b, &n| {
            let cfg = NetworkConfig::small(n, n / 7);
            b.iter(|| black_box(PhysicalNetwork::generate(&cfg, 5)));
        });
    }
    group.finish();
}

fn floyd_warshall(c: &mut Criterion) {
    let topo = Topology::random(150, 3.0, 4, |_| 2.0);
    c.bench_function("scale/floyd_warshall_150", |b| {
        b.iter(|| black_box(Apsp::floyd_warshall(&topo)));
    });
}

/// A prepared run at `d3t-bench`'s shape for `n_repos` repositories
/// (100 items, 7 physical nodes per repository); few ticks, since only
/// the overlay is wanted.
fn overlay_at(n_repos: usize) -> Prepared {
    Scale { n_repos, n_items: 100, n_ticks: 10, n_network_nodes: 7 * n_repos, ..Scale::paper() }
        .prepared()
}

/// LeLA alone over a prepared run's workload and delays, as
/// `Prepared::build` configures it; every iteration must rebuild the d3g
/// the prepared run holds.
fn bench_lela(group: &mut criterion::BenchmarkGroup<'_>, id: &str, p: &Prepared) {
    let cfg = p.config();
    let lela = LelaConfig {
        coop_degree: p.coop_degree,
        pref_band_pct: cfg.pref_band_pct,
        pref_fn: cfg.pref_fn,
        join_order: cfg.join_order,
        seed: cfg.sub_seed("lela"),
    };
    group.bench_function(id, |b| {
        b.iter(|| {
            let d3g = build_d3g(&p.workload, &p.delays, &lela);
            assert!(d3g == p.d3g, "LeLA rebuilt a different d3g");
            d3g
        });
    });
}

/// The build's n² layers in isolation — the same-process home of
/// `d3t-bench`'s `core.lela_s`, `net.delay_matrix_s` (its validation
/// half) and `core.delay_micros_s`.
fn quadratic_build_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("lela");
    bench_lela(&mut group, "600r", &overlay_at(600));
    let p = overlay_at(2500);
    bench_lela(&mut group, "2500r", &p);
    group.finish();

    let n = p.delays.len();
    let row = |a| p.delays.row_ms(NodeIdx(a as u32)).expect("a DelayMatrix holds rows");
    c.bench_function(&format!("delay_matrix_new/{n}"), |b| {
        b.iter_batched(
            || (0..n).flat_map(row).copied().collect::<Vec<f64>>(),
            |cells| DelayMatrix::new(n, cells),
            BatchSize::PerIteration,
        );
    });
    c.bench_function(&format!("delay_micros/{n}"), |b| {
        b.iter(|| DelayMicros::from_delays(&p.delays, n));
    });
}

d3t_bench::quick_criterion!(
    cfg,
    sim_scaling,
    network_generation,
    floyd_warshall,
    quadratic_build_layers
);
