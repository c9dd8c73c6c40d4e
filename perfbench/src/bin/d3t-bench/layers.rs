//! The traced run: splits `SimConfig → report` by layer.
//!
//! Spans are recorded here, in the harness, around calls into each
//! layer's *public* functions — nothing inside the library crates is
//! instrumented. The workload's base configuration is built twice: once
//! stage by stage (`traces` → `net` → `core`), once through the opaque
//! `Prepared::build`, and the run fails unless both give the same d3g
//! and the stages account for the opaque build's time. The drive is
//! split by the session's own always-on `PhaseStats`, then repeated on
//! the heap queue and on the sealed oracle engine for same-process
//! ratios. Layers only one workload exercises follow as `extra`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use d3t_core::digest::debug_hash;
use d3t_core::dissemination::Disseminator;
use d3t_core::graph::D3g;
use d3t_core::item::ItemId;
use d3t_core::lela::{build_d3g, DelayMatrix, DelayMicros, LelaConfig};
use d3t_core::workload::{Workload as UserWorkload, WorkloadConfig};
use d3t_net::placement::Placement;
use d3t_net::{NetworkConfig, OverlayApsp, Pareto, Topology};
use d3t_perfbench::spec::FIGURE_IDS;
use d3t_perfbench::stats::median;
use d3t_sim::engine::{build_source_stream, SourceChange};
use d3t_sim::{CalendarQueue, EventKind, HeapQueue, Prepared, RunReport, SimConfig, TreeStrategy};
use d3t_traces::{generate_ensemble, EnsembleConfig, Trace};

use crate::harness::{calibrate, peak_rss_mb, Metrics, Outcome, Outputs, Tracer};
use crate::workloads::{
    cold_twin, fault_plans, record_figures, record_whatif, render, sweep_figures, warm_cores,
    whatif_pass,
};
use crate::{Opts, Workload};

/// What the staged build produced, kept to compare with the opaque one.
struct Staged {
    traces: Vec<Trace>,
    delays: DelayMatrix,
    d3g: D3g,
    changes: Vec<SourceChange>,
    apsp_rows: usize,
    apsp_peak_rss_mb: f64,
}

/// The stages of `Prepared::build`, in its order, one span per call.
const BUILD_STAGES: [&str; 9] = [
    "traces.generate",
    "net.topology",
    "net.apsp",
    "net.delay_matrix",
    "core.workload",
    "core.lela",
    "prepared.merge_changes",
    "core.delay_micros",
    "prepared.source_stream",
];

/// The stage split is taken over at least this many staged/opaque build
/// pairs and this much total `Prepared::build` time.
const MIN_PAIRS: usize = 5;
const MIN_BUILD_SECS: f64 = 0.25;

/// `Prepared::build` merges the per-item change sequences with a
/// private k-way heap merge on `(at_ms, item)`; at quick scale that is a
/// fifth of the build. This is the same merge over the public
/// `Trace::changes`, so the stage can be timed; the run checks its
/// output equals `Prepared::changes`.
fn merge_changes(traces: &[Trace]) -> Vec<SourceChange> {
    let streams: Vec<_> = traces.iter().map(Trace::changes).collect();
    // Index 0 of each stream is the initial value, not a change.
    let mut heads: BinaryHeap<Reverse<(u64, usize, usize)>> = streams
        .iter()
        .enumerate()
        .filter_map(|(item, s)| s.get(1).map(|tick| Reverse((tick.at_ms, item, 1))))
        .collect();
    let mut changes = Vec::with_capacity(streams.iter().map(|s| s.len().saturating_sub(1)).sum());
    while let Some(Reverse((at_ms, item, pos))) = heads.pop() {
        changes.push((at_ms, ItemId(item as u32), streams[item][pos].value));
        if let Some(next) = streams[item].get(pos + 1) {
            heads.push(Reverse((next.at_ms, item, pos + 1)));
        }
    }
    changes
}

fn staged_build(cfg: &SimConfig, t: &mut Tracer) -> Staged {
    assert!(
        cfg.tree == TreeStrategy::Lela
            && !cfg.controlled
            && cfg.target_mean_comm_delay_ms.is_none(),
        "the staged build mirrors `Prepared::build` for base configs only"
    );
    t.span("staged.build", |t| {
        let (traces, _) = t.span("traces.generate", |_| {
            let ensemble = EnsembleConfig {
                n_items: cfg.n_items,
                n_ticks: cfg.n_ticks,
                ..cfg.ensemble.clone()
            };
            generate_ensemble(&ensemble, cfg.sub_seed("traces"))
        });
        let net = NetworkConfig { n_repositories: cfg.n_repos, ..cfg.network.clone() };
        let seed = cfg.sub_seed("topology");
        let ((topo, overlay), _) = t.span("net.topology", |_| {
            let pareto = Pareto::with_mean(net.link_delay_min_ms, net.link_delay_mean_ms);
            let topo = Topology::random(net.n_nodes, net.avg_degree, seed, |rng| {
                pareto.sample_capped(rng, net.link_delay_cap_ms)
            });
            let placement =
                Placement::random(net.n_nodes, net.n_repositories, seed.wrapping_add(1));
            (topo, placement.overlay_nodes())
        });
        let (apsp, _) = t.span("net.apsp", |_| OverlayApsp::compute(&topo, &overlay));
        let apsp_peak_rss_mb = peak_rss_mb();
        // Overlay index 0 = source, i + 1 = i-th repository, which is
        // `Placement::overlay_nodes` order.
        let (delays, _) = t.span("net.delay_matrix", |_| {
            let n = apsp.len();
            let mut m = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        m[i * n + j] = apsp.delay_ms_at(i, j);
                    }
                }
            }
            DelayMatrix::new(n, m)
        });
        let apsp_rows = apsp.len();
        drop((apsp, topo));
        let (workload, _) = t.span("core.workload", |_| {
            UserWorkload::generate(
                &WorkloadConfig::paper(cfg.n_repos, cfg.n_items, cfg.t_stringent_pct),
                cfg.sub_seed("workload"),
            )
        });
        let (d3g, _) = t.span("core.lela", |_| {
            let lela = LelaConfig {
                coop_degree: cfg.coop_res,
                pref_band_pct: cfg.pref_band_pct,
                pref_fn: cfg.pref_fn,
                join_order: cfg.join_order,
                seed: cfg.sub_seed("lela"),
            };
            build_d3g(&workload, &delays, &lela)
        });
        let (changes, _) = t.span("prepared.merge_changes", |_| merge_changes(&traces));
        let end_us = traces.iter().map(Trace::duration_ms).max().unwrap_or(0) * 1000;
        t.span("core.delay_micros", |_| DelayMicros::from_delays(&delays, d3g.n_nodes()));
        t.span("prepared.source_stream", |_| build_source_stream(&changes, end_us));
        Staged { traces, delays, d3g, changes, apsp_rows, apsp_peak_rss_mb }
    })
    .0
}

pub fn run(opts: &Opts, t: &mut Tracer) -> Outcome {
    let scale = opts.scale();
    let cfg = scale.base_config();
    let mut m = Metrics::default();
    let mut outputs = Outputs::default();

    // One discarded build first: it pays the process's first-touch page
    // faults, which would otherwise all land on whichever build of the
    // first pair runs first. Then both builds, back to back, in at least
    // MIN_PAIRS pairs and until the opaque one has been timed for
    // MIN_BUILD_SECS in total (hundreds of pairs at the smoke test's
    // scale). Each `*_s` below is the median over pairs, and the gated
    // ratio the median of the per-pair ratios: the two builds of a pair
    // are adjacent in time, so the host's minute-scale drift cancels
    // within a pair and a second-long burst spoils only that pair.
    // `net.apsp_peak_rss_mb` is VmHWM right after the first staged APSP;
    // only builds have run by then, and the APSP's per-source rows are
    // the high-water mark of a build.
    warm_cores(t, opts);
    t.span("warmup.build", |_| Prepared::build(&cfg));
    let mut stage_s = vec![Vec::new(); BUILD_STAGES.len()];
    let (mut build_s, mut ratios) = (Vec::new(), Vec::new());
    let mut apsp_peak_rss_mb = f64::NAN;
    let (staged, mut p) = loop {
        let from = t.spans.len();
        let staged = staged_build(&cfg, t);
        if build_s.is_empty() {
            apsp_peak_rss_mb = staged.apsp_peak_rss_mb;
        }
        let (p, secs) = t.span("prepared.build", |_| Prepared::build(&cfg));
        let stages = BUILD_STAGES.map(|name| t.secs_since(from, name));
        for (samples, secs) in stage_s.iter_mut().zip(stages) {
            samples.push(secs);
        }
        ratios.push(stages.iter().sum::<f64>() / secs);
        build_s.push(secs);
        if build_s.len() >= MIN_PAIRS && build_s.iter().sum::<f64>() >= MIN_BUILD_SECS {
            break (staged, p);
        }
    };
    outputs.check(staged.d3g == p.d3g, || "staged d3g differs from Prepared::build's".into());
    outputs.check(staged.delays == p.delays, || "staged delay matrix differs".into());
    outputs.check(staged.traces == p.traces, || "staged traces differ".into());
    outputs.check(staged.changes == p.changes, || "staged change list differs".into());
    let apsp_rows = staged.apsp_rows;
    drop(staged);
    let ratio = median(&ratios).unwrap_or(f64::NAN);
    outputs.check((0.90..=1.15).contains(&ratio), || {
        format!("build stages sum to {ratio:.3} of the build they split (per pair: {ratios:.3?})")
    });

    for (name, samples) in BUILD_STAGES.iter().zip(&stage_s) {
        m.put_median(&format!("{name}_s"), "s", samples);
    }
    m.put_median("prepared.build_s", "s", &build_s);
    let build_s = median(&build_s).unwrap_or(f64::NAN);
    let stage_sum: f64 = stage_s.iter().filter_map(|s| median(s)).sum();
    m.put("prepared.unattributed_s", "s", build_s - stage_sum);
    m.put("prepared.stage_sum_ratio", "ratio", ratio);
    m.put("traces.ticks", "count", p.traces.iter().map(Trace::len).sum::<usize>() as f64);
    m.put("net.apsp_rows", "count", apsp_rows as f64);
    m.put("net.apsp_peak_rss_mb", "MB", apsp_peak_rss_mb);
    m.put("core.lela_joins", "count", cfg.n_repos as f64);
    m.put("core.d3g_max_depth", "count", p.d3g.max_depth() as f64);
    let (_, compile_s) = t.span("core.disseminator_compile", |_| {
        Disseminator::new(cfg.protocol, &p.d3g, &p.initial_values)
    });
    m.put("core.disseminator_compile_s", "s", compile_s);

    // The drive, split by the session's own phase counters: each
    // phase's share of the TSC cycles times the measured drain wall.
    // A discarded drive first, so the session's is not the one cold
    // drive among the four compared below.
    t.span("warmup.run", |_| p.run());
    let mut calib = vec![calibrate(t)];
    let (mut session, construct_s) = t.span("session.construct", |_| p.session());
    let ((), drive_s) = t.span("session.drive", |_| session.drain_to_end());
    calib.push(calibrate(t));
    let phases = *session.phase_stats();
    let (fidelity, sim) = session.run_to_end();
    let report = p.report(fidelity, sim);
    let base = debug_hash(&report);
    m.put("session.construct_s", "s", construct_s);
    m.put("session.drive_s", "s", drive_s);
    let total_cycles = phases.total_cycles().max(1) as f64;
    for (name, c) in phases.named() {
        m.put(&format!("session.{name}_s"), "s", drive_s * c.cycles as f64 / total_cycles);
    }
    for (name, c) in phases.named() {
        m.put(&format!("session.{name}_ops"), "count", c.ops as f64);
    }
    m.put("session.runs", "count", phases.runs as f64);
    m.put("session.mean_run_len", "count", phases.process.ops as f64 / phases.runs.max(1) as f64);
    m.put("session.ns_per_event", "ns", drive_s * 1e9 / sim.events.max(1) as f64);

    // The same drive on the alternatives open item 3 has to choose
    // between, in this process, with their outputs checked equal.
    let same = |outputs: &mut Outputs, what: &str, r: &RunReport| {
        let hash = debug_hash(r);
        outputs
            .check(hash == base, || format!("{what} report {hash:#018x} != session {base:#018x}"));
    };
    let session_s = construct_s + drive_s;
    let (r, heap_s) = t.span("queue.heap_drive", |_| p.run_with::<HeapQueue<EventKind>>());
    same(&mut outputs, "heap-queue", &r);
    m.put("queue.heap_drive_s", "s", heap_s);
    m.put("queue.calendar_vs_heap_x", "x", heap_s / session_s);
    let ((fidelity, metrics), oracle_s) =
        t.span("engine.oracle_drive", |_| p.engine::<CalendarQueue<EventKind>>().run());
    same(&mut outputs, "oracle-engine", &p.report(fidelity, metrics));
    m.put("engine.oracle_drive_s", "s", oracle_s);
    m.put("engine.session_vs_oracle_x", "x", oracle_s / session_s);
    let (r, run_s) = t.span("prepared.run", |_| p.run());
    same(&mut outputs, "Prepared::run", &r);
    calib.push(calibrate(t));

    m.put("sim.events", "count", sim.events as f64);
    m.put("sim.messages", "count", sim.messages as f64);
    m.put("sim.undelivered", "count", sim.undelivered as f64);
    m.put("sim.source_checks", "count", sim.source_checks as f64);
    m.put("sim.repo_checks", "count", sim.repo_checks as f64);
    m.put("sim.loss_pct", "%", report.loss_pct());
    m.put("host.nproc", "count", rayon::current_num_threads() as f64);
    m.put_median("host.calib_s", "s", &calib);
    // The same work with and without spans around its parts: staged
    // build + session drive vs opaque build + `run()`.
    let traced = t.secs("staged.build") / ratios.len() as f64 + session_s;
    m.put("trace.overhead_pct", "%", 100.0 * (traced - (build_s + run_s)) / (build_s + run_s));

    // The base drive is one of the workload's outputs, except on
    // `whatif-600r`, whose outputs are the four faulted branches.
    let base_key = match opts.workload {
        Workload::FiguresQuick => Some("base-cell"),
        Workload::Drive600r | Workload::Build2500r => Some("drive"),
        Workload::Whatif600r => None,
    };
    if let Some(key) = base_key {
        outputs.record(key, base);
        outputs.events = sim.events;
        outputs.messages = sim.messages;
    }

    let mut extra = Metrics::default();
    match opts.workload {
        Workload::FiguresQuick => {
            drop(p);
            // A serial pass gives each figure's own cost; the parallel
            // sweep over the same ids gives the scheduler's efficiency.
            let mut serial_sum = 0.0;
            let texts: Vec<String> = FIGURE_IDS
                .iter()
                .map(|id| {
                    let (text, secs) = t.span(&format!("experiments.{id}"), |_| render(id, &scale));
                    extra.put(&format!("experiments.{id}_s"), "s", secs);
                    serial_sum += secs;
                    text
                })
                .collect();
            record_figures(&texts, &mut outputs);
            let (texts, sweep_s) = sweep_figures(&scale, t);
            record_figures(&texts, &mut outputs);
            let threads = rayon::current_num_threads() as f64;
            extra.put("experiments.serial_sum_s", "s", serial_sum);
            extra.put("experiments.sweep_s", "s", sweep_s);
            extra.put("experiments.threads", "count", threads);
            extra.put("experiments.parallel_efficiency", "ratio", serial_sum / (threads * sweep_s));
        }
        Workload::Drive600r => {}
        Workload::Build2500r => {
            // Informational: the sharded drive is too noisy on a small
            // VM to gate on, so it is a layer metric, not a workload.
            p.set_shards(2);
            let (r, shard_s) = t.span("shard.drive_2", |_| p.run());
            let equal = debug_hash(&r) == base;
            outputs.check(equal, || "2-shard report differs from the sequential drive".into());
            extra.put("shard.drive_s_2", "s", shard_s);
            extra.put("shard.speedup_x_2", "x", run_s / shard_s);
            extra.put("shard.digest_equal", "count", f64::from(u8::from(equal)));
        }
        Workload::Whatif600r => {
            let fork_us = p.end_us / 2;
            let plans = fault_plans(&p, fork_us);
            let pass = whatif_pass(&p, &plans, fork_us, t);
            let cold: Vec<(f64, RunReport)> =
                plans.iter().map(|(_, plan)| cold_twin(&p, plan, t)).collect();
            let events = record_whatif(&plans, &pass.warm, &cold, &mut outputs);
            outputs.events = events;
            outputs.messages = cold.iter().map(|(_, r)| r.metrics.messages).sum();
            let cold_s: f64 = cold.iter().map(|(s, _)| s).sum();
            let warm_s: f64 = pass.warm.iter().map(|(restore, drive, _)| restore + drive).sum();
            let n = plans.len() as f64;
            extra.put("snapshot.capture_s", "s", pass.capture_s);
            extra.put("snapshot.restore_s", "s", t.secs("snapshot.restore") / n);
            extra.put("snapshot.bytes", "count", pass.snapshot_bytes as f64);
            extra.put("snapshot.pending_events", "count", pass.pending_events as f64);
            extra.put(
                "snapshot.amortization_x",
                "x",
                cold_s / (pass.prefix_s + pass.capture_s + warm_s),
            );
            extra.put("fault.cold_drive_s", "s", cold_s / n);
            extra.put("fault.warm_drive_s", "s", t.secs("fault.warm_drive") / n);
            extra.put("fault.overhead_x", "x", cold_s / n / run_s);
            let total = |f: fn(&d3t_sim::Metrics) -> u64| {
                cold.iter().map(|(_, r)| f(&r.metrics)).sum::<u64>() as f64
            };
            extra.put("fault.lost", "count", total(|m| m.lost));
            extra.put("fault.retransmits", "count", total(|m| m.retransmits));
            extra.put("fault.reparented", "count", total(|m| m.reparented));
            extra.put("fault.dropped", "count", total(|m| m.dropped));
        }
    }
    Outcome { metrics: m, extra, outputs }
}
