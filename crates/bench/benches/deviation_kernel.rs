//! The batched deviation-check kernel on hot row shapes.
//!
//! Three levels, all at paper-relevant sizes:
//!
//! * **raw scans** — `d3t_core::dissemination::kernel` functions on
//!   synthetic contiguous rows (the wide-fanout deviation scan and the
//!   centralized per-unique-tolerance tag scan), reported as checks/sec;
//! * **disseminator rows** — the same scans driven through the real
//!   `Disseminator` entry points: the allocation-free kernel path
//!   (`on_source_update_into`) against the allocating scalar oracle
//!   (`on_source_update`), on a 600-dependent fanout row and on a
//!   128-class centralized tolerance list;
//! * **paper-scale components** — the per-source-change costs that
//!   dominate the protocol+fidelity half of a whole run: the fidelity
//!   tracker's per-item pair scan and the disseminator's source decision,
//!   replayed over a real `Prepared::build` change stream at 600 repos /
//!   100 items.
//!
//! The kernel/oracle pairs double as a checks-count cross-check: both
//! paths must report identical totals.

use std::time::Instant;

use criterion::{black_box, Criterion};
use d3t_core::coherency::Coherency;
use d3t_core::dissemination::{kernel, Disseminator, EdgeState, ForwardScratch, Protocol};
use d3t_core::fidelity::FidelityTracker;
use d3t_core::graph::D3g;
use d3t_core::item::ItemId;
use d3t_core::overlay::{NodeIdx, SOURCE};
use d3t_sim::{Prepared, QueueBackend, SimConfig};

/// A star d3g: the source fans straight out to `n` repositories with
/// cents-quantized tolerances — the widest row shape a source change
/// scans.
fn star(n: usize) -> D3g {
    let mut g = D3g::new(n, 1);
    for r in 0..n {
        let c = Coherency::new(0.05 + (r % 97) as f64 / 100.0);
        g.add_edge(SOURCE, NodeIdx::repo(r), ItemId(0), c);
    }
    g
}

/// A slow cents random walk: most steps violate only the tightest
/// tolerances, like real trace streams.
fn walk(len: usize) -> Vec<f64> {
    let mut v = 1000i64;
    let mut x = 0x5EEDu64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = (v + (x % 13) as i64 - 6).max(1);
            v as f64 / 100.0
        })
        .collect()
}

fn raw_scans(c: &mut Criterion) {
    let n = 600;
    let edges: Vec<EdgeState> = (0..n)
        .map(|j| EdgeState {
            c: 0.05 + (j % 97) as f64 / 100.0,
            last: 10.0 + (j % 31) as f64 * 0.01,
            node: j as u32 + 1,
        })
        .collect();
    let mut out = Vec::new();
    // One-shot throughput print (criterion's wall times are per-call).
    let reps = 200_000u64;
    let start = Instant::now();
    let mut checks = 0u64;
    for i in 0..reps {
        out.clear();
        let v = 10.0 + (i % 67) as f64 * 0.01;
        checks += kernel::deviation_scan(v, 0.0, &edges, &mut out);
    }
    let wall = start.elapsed().as_secs_f64();
    println!("KERNEL shape=fanout600 checks={checks} checks_per_sec={:.0}", checks as f64 / wall);
    c.bench_function("deviation_kernel/raw/fanout600", |b| {
        b.iter(|| {
            out.clear();
            black_box(kernel::deviation_scan(black_box(10.3), 0.0, &edges, &mut out))
        })
    });

    let classes = 128;
    let tag_cs: Vec<f64> = (0..classes).map(|j| 0.01 + j as f64 * 0.01).collect();
    let mut tag_lasts = vec![10.0; classes];
    let start = Instant::now();
    let mut class_checks = 0u64;
    for i in 0..reps {
        let v = 10.0 + (i % 67) as f64 * 0.005;
        class_checks += kernel::tag_scan(v, &tag_cs, &mut tag_lasts).1;
    }
    let wall = start.elapsed().as_secs_f64();
    println!(
        "KERNEL shape=classes128 checks={class_checks} checks_per_sec={:.0}",
        class_checks as f64 / wall
    );
    c.bench_function("deviation_kernel/raw/classes128", |b| {
        b.iter(|| black_box(kernel::tag_scan(black_box(10.2), &tag_cs, &mut tag_lasts)))
    });
}

fn disseminator_rows(c: &mut Criterion) {
    let g = star(600);
    let values = walk(4096);

    // Kernel path vs scalar oracle on the same wide-fanout row; the
    // check totals must agree (the Figure-11 comparability invariant).
    let mut kern = Disseminator::new(Protocol::Distributed, &g, &[10.0]);
    let mut scratch = ForwardScratch::new();
    let start = Instant::now();
    let mut kernel_checks = 0u64;
    for &v in &values {
        kern.on_source_update_into(ItemId(0), v, &mut scratch);
        kernel_checks += scratch.checks();
    }
    let kernel_wall = start.elapsed().as_secs_f64();

    let mut oracle = Disseminator::new(Protocol::Distributed, &g, &[10.0]);
    let start = Instant::now();
    let mut oracle_checks = 0u64;
    for &v in &values {
        oracle_checks += oracle.on_source_update(ItemId(0), v).checks;
    }
    let oracle_wall = start.elapsed().as_secs_f64();
    assert_eq!(kernel_checks, oracle_checks, "kernel and oracle must count alike");
    println!(
        "KERNEL shape=disseminator_fanout600 checks={kernel_checks} \
         checks_per_sec={:.0} oracle_checks_per_sec={:.0}",
        kernel_checks as f64 / kernel_wall,
        oracle_checks as f64 / oracle_wall,
    );

    let mut group = c.benchmark_group("deviation_kernel/disseminator600");
    group.bench_function("kernel_into", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % values.len();
            kern.on_source_update_into(ItemId(0), values[i], &mut scratch);
            black_box(scratch.checks())
        })
    });
    group.bench_function("scalar_oracle", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % values.len();
            black_box(oracle.on_source_update(ItemId(0), values[i]).checks)
        })
    });
    group.finish();
}

/// Per-source-change component costs over a real paper-scale change
/// stream: fidelity pair scan and disseminator source decision.
fn paper_scale_components(_c: &mut Criterion) {
    let mut cfg = SimConfig::small_for_tests(600, 100, 10_000, 50.0);
    cfg.queue = QueueBackend::Calendar;
    let prepared = Prepared::build(&cfg);
    let changes = &prepared.changes;

    let mut fidelity = FidelityTracker::new(&prepared.workload, &prepared.initial_values, 0);
    let start = Instant::now();
    for (i, &(at_ms, item, value)) in changes.iter().enumerate() {
        fidelity.source_update(at_ms * 1000 + i as u64, item, value);
    }
    let fid_wall = start.elapsed().as_secs_f64();

    let mut d = Disseminator::new(Protocol::Distributed, &prepared.d3g, &prepared.initial_values);
    let mut scratch = ForwardScratch::new();
    let mut checks = 0u64;
    let start = Instant::now();
    for &(_, item, value) in changes {
        d.on_source_update_into(item, value, &mut scratch);
        checks += scratch.checks();
    }
    let diss_wall = start.elapsed().as_secs_f64();

    println!(
        "COMPONENTS changes={} fidelity_scan_s={fid_wall:.3} source_decide_s={diss_wall:.3} \
         source_checks={checks}",
        changes.len()
    );
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(50))
        .measurement_time(std::time::Duration::from_millis(300))
}

criterion::criterion_group! {
    name = benches;
    config = config();
    targets = raw_scans, disseminator_rows, paper_scale_components
}
criterion::criterion_main!(benches);
