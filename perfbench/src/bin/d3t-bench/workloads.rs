//! The untraced run: each workload's timed section, sampled until the
//! `--seconds` budget and the workload's minimum sample count are both
//! met, reported as medians. No span is recorded here.
//!
//! Hashing a report (`debug_hash` formats every pair loss) is always
//! done outside the timed sections.

use d3t_core::digest::debug_hash;
use d3t_core::item::ItemId;
use d3t_core::overlay::NodeIdx;
use d3t_experiments::{
    ablations, baseline, controlled, dynamics, filtering, lela_params, nocoop, protocols, pullpush,
    scalability, sweep, table1, Scale,
};
use d3t_perfbench::spec::FIGURE_IDS;
use d3t_sim::{
    CrashSpec, DegradeWindow, FaultPlan, LossWindow, Metrics as SimMetrics, Prepared, RepairPolicy,
    RepairSpec, RunReport,
};

use crate::harness::{peak_rss_mb, Metrics, Outcome, Outputs, Tracer};
use crate::{Opts, Workload};

pub fn run(opts: &Opts, t: &mut Tracer) -> Outcome {
    let mut metrics = Metrics::default();
    let mut outputs = Outputs::default();
    match opts.workload {
        Workload::FiguresQuick => figures(opts, t, &mut metrics, &mut outputs),
        // 3 passes x {build, drive + 2 more drives}: 9 drive samples.
        Workload::Drive600r => build_and_drive(opts, t, 2, &mut metrics, &mut outputs),
        // The same shape: the build is the expensive sample here, but
        // the DRAM-bound drive is the noisy one (6 samples spread 26 %
        // over five runs), so it gets as many.
        Workload::Build2500r => build_and_drive(opts, t, 2, &mut metrics, &mut outputs),
        Workload::Whatif600r => whatif(opts, t, &mut metrics, &mut outputs),
    }
    metrics.put("peak_rss_mb", "MB", peak_rss_mb());
    Outcome { metrics, extra: Metrics::default(), outputs }
}

/// Passes every pass-structured workload takes at least.
const MIN_PASSES: usize = 3;

/// `true` while a pass loop should take another pass.
fn more(passes: usize, opts: &Opts, t: &Tracer) -> bool {
    passes < MIN_PASSES || t.clock.secs() < opts.seconds
}

/// Spins on every core for a second (20 ms at the smoke test's scale).
/// On the sizing host (a 2-vCPU VM) a vCPU that sat idle through a
/// single-threaded drive runs the next short parallel section — trace
/// generation, the overlay APSP — at about half speed for the first
/// second: a 600-repo build reads 0.34 s cold and 0.19 s ± 4 % warm.
/// That is the host, not the code, so every timed build starts from
/// warm cores.
pub fn warm_cores(t: &Tracer, opts: &Opts) {
    let until = t.clock.secs() + if opts.tiny { 0.02 } else { 1.0 };
    let cores: Vec<usize> = (0..rayon::current_num_threads()).collect();
    sweep::par_map(cores, |_| {
        while t.clock.secs() < until {
            std::hint::spin_loop();
        }
    });
}

/// One timed `Prepared::run`; the report is hashed and recorded after
/// the clock stops.
fn timed_drive(
    p: &Prepared,
    t: &mut Tracer,
    key: &str,
    outputs: &mut Outputs,
) -> (f64, SimMetrics) {
    let (report, secs) = t.span("prepared.run", |_| p.run());
    if outputs.record(key, debug_hash(&report)) {
        outputs.events += report.metrics.events;
        outputs.messages += report.metrics.messages;
    }
    (secs, report.metrics)
}

/// `drive-600r` and `build-2500r`: passes of {`Prepared::build`;
/// `run()`} — the time to answer from a `SimConfig` — plus
/// `extra_drives` more `run()` per pass on the same `Prepared`.
fn build_and_drive(
    opts: &Opts,
    t: &mut Tracer,
    extra_drives: usize,
    metrics: &mut Metrics,
    outputs: &mut Outputs,
) {
    let cfg = opts.scale().base_config();
    let (mut setup, mut wall, mut drive) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = 0;
    while more(wall.len(), opts, t) {
        warm_cores(t, opts);
        // The previous pass's `Prepared` is gone by now, so peak RSS is
        // one build + one drive, as for a `repro` user.
        let (p, build_s) = t.span("prepared.build", |_| Prepared::build(&cfg));
        let (drive_s, m) = timed_drive(&p, t, "drive", outputs);
        setup.push(build_s);
        wall.push(build_s + drive_s);
        drive.push(drive_s);
        events = m.events;
        for _ in 0..extra_drives {
            drive.push(timed_drive(&p, t, "drive", outputs).0);
        }
    }
    metrics.put_median("setup_s", "s", &setup);
    metrics.put_median("wall_s", "s", &wall);
    let per_s: Vec<f64> = drive.iter().map(|s| events as f64 / s).collect();
    metrics.put_median("drive_events_per_s", "events/s", &per_s);
}

/// One figure or table as `repro <id>` prints it.
pub fn render(id: &str, scale: &Scale) -> String {
    match id {
        "table1" => table1::table1(scale.n_ticks, scale.seed),
        "fig3" => baseline::fig3(scale).render(),
        "fig4" => protocols::fig4(),
        "fig5" => nocoop::fig5(scale).render(),
        "fig6" => nocoop::fig6(scale).render(),
        "fig7a" => controlled::fig7a(scale).render(),
        "fig7b" => controlled::fig7b(scale).render(),
        "fig7c" => controlled::fig7c(scale).render(),
        "fig8" => filtering::fig8(scale).render(),
        "fig9" => lela_params::fig9(scale).render(),
        "fig10" => lela_params::fig10(scale).render(),
        "fig11" => protocols::fig11(scale).render(),
        "scale" => scalability::scale_study(scale).render(),
        "ablate-f" => ablations::f_sensitivity(scale).render(),
        "ablate-join" => ablations::join_order_study(scale).render(),
        "ablate-protocols" => ablations::protocol_fidelity(scale).render(),
        "ext-pull" => pullpush::pull_vs_push(scale).render(),
        "dynamics" => dynamics::dynamics(scale).render(),
        other => unreachable!("`{other}` is not in FIGURE_IDS"),
    }
}

/// `repro all`: the 18 ids fanned out over all cores by the sweep
/// runner, texts back in id order.
pub fn sweep_figures(scale: &Scale, t: &mut Tracer) -> (Vec<String>, f64) {
    t.span("experiments.sweep", |_| sweep::par_map(FIGURE_IDS.to_vec(), |id| render(id, scale)))
}

/// Hashes the rendered figures in id order into `outputs`.
pub fn record_figures(texts: &[String], outputs: &mut Outputs) {
    for (id, text) in FIGURE_IDS.iter().zip(texts) {
        outputs.record(id, debug_hash(text));
    }
}

/// Builds of the base cell `figures-quick` times for `setup_s` (a 10 ms
/// build keeps getting faster over its first ten repeats; with 9 the
/// median sat on that slope and moved 29 % between runs), and timed
/// drives of it for `drive_events_per_s` (after two warm-ups; 45 of
/// these 65 ms drives span 3 s — with 15 one noisy second decided the
/// median, and ten seeds spread 15 %).
const CELL_BUILDS: usize = 31;
const CELL_DRIVES: usize = 45;

/// `figures-quick`: `repro all` — one `sweep::par_map` over the 18
/// public figure functions on all cores. The figure functions return
/// text, not counters, so set-up and drive throughput are sampled on the
/// base-config cell every figure's grid is built around.
fn figures(opts: &Opts, t: &mut Tracer, metrics: &mut Metrics, outputs: &mut Outputs) {
    let scale = opts.scale();
    let cfg = scale.base_config();
    let mut setup = Vec::new();
    let mut cell = None;
    warm_cores(t, opts);
    for _ in 0..CELL_BUILDS {
        drop(cell.take());
        let (p, secs) = t.span("prepared.build", |_| Prepared::build(&cfg));
        setup.push(secs);
        cell = Some(p);
    }
    let cell = cell.expect("CELL_BUILDS > 0");
    let mut per_s = Vec::new();
    for i in 0..CELL_DRIVES + 2 {
        let (secs, m) = timed_drive(&cell, t, "base-cell", outputs);
        if i >= 2 {
            per_s.push(m.events as f64 / secs);
        }
    }
    drop(cell);

    let mut wall = Vec::new();
    while wall.is_empty() || t.clock.secs() < opts.seconds {
        let (texts, secs) = sweep_figures(&scale, t);
        wall.push(secs);
        record_figures(&texts, outputs);
    }
    metrics.put_median("setup_s", "s", &setup);
    metrics.put_median("wall_s", "s", &wall);
    metrics.put_median("drive_events_per_s", "events/s", &per_s);
}

/// The repositories the crash plans take down: one in twenty, taken at
/// evenly spaced ranks of "dissemination edges served" (a stratified
/// sample of the overlay). What a crash costs is set by how many
/// subscriptions it orphans; fixed repository indices made that — and
/// `wall_s` — swing 2× from seed to seed (2.1–4.5 s over ten seeds),
/// while every rank-stratified burst orphans about the same share.
fn crash_victims(p: &Prepared) -> Vec<usize> {
    let cfg = p.config();
    let mut ranked: Vec<(usize, usize)> = (0..cfg.n_repos)
        .map(|repo| {
            let edges = (0..cfg.n_items)
                .map(|item| p.d3g.children_of(NodeIdx::repo(repo), ItemId(item as u32)).len())
                .sum();
            (edges, repo)
        })
        .collect();
    ranked.sort_unstable();
    let n = (cfg.n_repos / 20).max(2);
    (0..n).map(|i| ranked[(2 * i + 1) * cfg.n_repos / (2 * n)].1).collect()
}

/// The four what-if scenarios, all strictly after the fork instant
/// `fork_us` so a warm branch (resume + adopt) is bit-identical to its
/// cold twin (plan installed from t = 0).
pub fn fault_plans(p: &Prepared, fork_us: u64) -> Vec<(&'static str, FaultPlan)> {
    let (seed, end_us) = (p.config().seed, p.end_us);
    let victims = crash_victims(p);
    // Backoff saturates at 20 s so a permanent crash is not retried
    // thousands of times over the rest of the horizon.
    let repair = RepairSpec {
        policy: RepairPolicy::Reparent,
        detect_timeout_us: 150_000,
        base_backoff_us: 100_000,
        max_backoff_us: 20_000_000,
    };
    let (from_us, to_us) = (fork_us + end_us / 20, fork_us + end_us / 4);
    let crash_burst = FaultPlan {
        crashes: victims
            .iter()
            .map(|&repo| CrashSpec { repo, at_us: from_us, recover_at_us: None, subtree: false })
            .collect(),
        repair,
        seed: seed ^ 0xB1A5,
        ..FaultPlan::default()
    };
    let churn = FaultPlan {
        crashes: victims
            .iter()
            .enumerate()
            .map(|(k, &repo)| CrashSpec {
                repo,
                at_us: from_us + k as u64 * 5_000,
                recover_at_us: Some(to_us + k as u64 * 7_000),
                subtree: false,
            })
            .collect(),
        repair,
        seed: seed ^ 0xC1C1,
        ..FaultPlan::default()
    };
    let loss_window = FaultPlan {
        loss: vec![LossWindow { prob: 0.10, from_us, to_us }],
        seed: seed ^ 0x1055,
        ..FaultPlan::default()
    };
    let degrade_window = FaultPlan {
        degrade: vec![DegradeWindow { from_us, to_us, min_extra_ms: 5.0, mean_extra_ms: 20.0 }],
        seed: seed ^ 0xDE64,
        ..FaultPlan::default()
    };
    vec![
        ("crash-burst", crash_burst),
        ("churn", churn),
        ("loss-window", loss_window),
        ("degrade-window", degrade_window),
    ]
}

/// What one what-if pass produced, reports still unhashed.
pub struct WhatifPass {
    pub prefix_s: f64,
    pub capture_s: f64,
    pub snapshot_bytes: usize,
    pub pending_events: usize,
    /// Per plan: `(restore seconds, drive seconds, report)`.
    pub warm: Vec<(f64, f64, RunReport)>,
}

/// The answer a what-if user waits for: drive the shared prefix to the
/// fork, capture one snapshot, resume every scenario from it.
pub fn whatif_pass(
    p: &Prepared,
    plans: &[(&'static str, FaultPlan)],
    fork_us: u64,
    t: &mut Tracer,
) -> WhatifPass {
    let (mut prefix, prefix_s) = t.span("whatif.prefix", |_| {
        let mut s = p.session();
        s.run_until(fork_us);
        s
    });
    let (snap, capture_s) = t.span("snapshot.capture", |_| prefix.snapshot());
    drop(prefix);
    let warm = plans
        .iter()
        .map(|(_, plan)| {
            let (mut s, restore_s) = t.span("snapshot.restore", |_| p.resume(&snap));
            let ((fidelity, m), drive_s) = t.span("fault.warm_drive", |_| {
                s.adopt_fault_plan(plan);
                s.run_to_end()
            });
            (restore_s, drive_s, p.report(fidelity, m))
        })
        .collect();
    WhatifPass {
        prefix_s,
        capture_s,
        snapshot_bytes: snap.size_bytes(),
        pending_events: snap.pending_events(),
        warm,
    }
}

/// The cold twin of one scenario: a fresh session carrying the plan
/// from t = 0, driven to the end. Returns `(seconds, report)`.
pub fn cold_twin(p: &Prepared, plan: &FaultPlan, t: &mut Tracer) -> (f64, RunReport) {
    let ((fidelity, m), secs) = t.span("fault.cold_drive", |_| {
        let mut s = p.session();
        s.install_fault_plan(plan);
        s.run_to_end()
    });
    (secs, p.report(fidelity, m))
}

/// Records a pass's warm branches and cold twins under one key per
/// plan, so warm ≡ cold and pass ≡ pass are the same check. Returns the
/// cold twins' total events.
pub fn record_whatif(
    plans: &[(&'static str, FaultPlan)],
    warm: &[(f64, f64, RunReport)],
    cold: &[(f64, RunReport)],
    outputs: &mut Outputs,
) -> u64 {
    let mut events = 0;
    for (((name, _), (_, _, warm)), (_, cold)) in plans.iter().zip(warm).zip(cold) {
        outputs.record(name, debug_hash(warm));
        outputs.record(name, debug_hash(cold));
        events += cold.metrics.events;
    }
    events
}

/// `whatif-600r`: passes of {build; prefix; capture; four warm
/// branches} for `wall_s`, then — outside it — the four cold twins,
/// which check the branches and give the faulted drive's throughput.
fn whatif(opts: &Opts, t: &mut Tracer, metrics: &mut Metrics, outputs: &mut Outputs) {
    let cfg = opts.scale().base_config();
    let (mut setup, mut wall, mut per_s) = (Vec::new(), Vec::new(), Vec::new());
    while more(wall.len(), opts, t) {
        warm_cores(t, opts);
        let t0 = t.clock.secs();
        let (p, build_s) = t.span("prepared.build", |_| Prepared::build(&cfg));
        let fork_us = p.end_us / 2;
        let plans = fault_plans(&p, fork_us);
        let pass = whatif_pass(&p, &plans, fork_us, t);
        wall.push(t.clock.secs() - t0);
        setup.push(build_s);

        let cold: Vec<(f64, RunReport)> =
            plans.iter().map(|(_, plan)| cold_twin(&p, plan, t)).collect();
        let first_pass = outputs.hashes.is_empty();
        let events = record_whatif(&plans, &pass.warm, &cold, outputs);
        if first_pass {
            outputs.events = events;
            outputs.messages = cold.iter().map(|(_, r)| r.metrics.messages).sum();
        }
        per_s.push(events as f64 / cold.iter().map(|(s, _)| s).sum::<f64>());
    }
    metrics.put_median("setup_s", "s", &setup);
    metrics.put_median("wall_s", "s", &wall);
    metrics.put_median("drive_events_per_s", "events/s", &per_s);
}
