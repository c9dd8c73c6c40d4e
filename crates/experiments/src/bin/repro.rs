//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                       # every experiment at quick scale
//! repro fig3 fig11                # a subset
//! repro all --paper               # the full 10 000-tick horizon
//! repro fig3 --ticks 1000         # custom horizon
//! repro all --serial              # disable the parallel fan-out
//! repro all --queue heap          # schedule on the heap fallback
//! repro smoke                     # one timed run, machine-readable line
//! repro filter                    # timed run per protocol, FILTER lines
//! repro queue-json                # per-backend queue perf as one JSON doc
//! repro phases                    # per-phase drain telemetry, PHASE lines + JSON
//! repro resilience                # fault sweep, RESILIENCE lines + JSON
//! repro scale-out                 # sharded drive at 1/2/4 shards, SHARD lines + JSON
//! repro list                      # enumerate experiment ids
//! ```
//!
//! `smoke` runs a single base-config cell at the requested scale and
//! prints one machine-readable line CI tracks across PRs:
//!
//! ```text
//! SMOKE queue=calendar events=243210 wall_us=181034 events_per_sec=1343448
//! ```
//!
//! `filter` runs the fig8/fig11 filtering smoke — one base-config cell
//! per dissemination protocol — and prints one machine-readable line per
//! protocol so the deviation-check path (the batched kernel) is tracked
//! across PRs like `SMOKE`/`DYNAMICS`:
//!
//! ```text
//! FILTER protocol=distributed checks=1796242 checks_per_sec=10683185
//! ```
//!
//! `resilience` runs the robustness sweep (crash-burst size × loss rate ×
//! repair policy over identical prepared inputs) and prints one
//! machine-readable line per faulted cell plus a JSON document `ci.sh`
//! lands in `BENCH_resilience.json`:
//!
//! ```text
//! RESILIENCE burst=4 loss_rate=0.10 policy=reparent loss_pct=… mttr_ms=… retransmits=… reparented=… lost=…
//! ```
//!
//! `phases` runs one base-config cell and splits its wall clock across
//! the session's four drain phases from the always-on cycle counters
//! (exact per-run totals, split by the one run in 64 that is stamped per
//! event) — one `PHASE` line per phase (they sum to the run's wall time)
//! plus a JSON document `ci.sh` lands in `BENCH_phases.json`:
//!
//! ```text
//! PHASE name=process events=243210 wall_us=93011
//! ```
//!
//! `scale-out` drives **one** prepared input through the sharded engine
//! at 1, 2 and 4 shards — one `SHARD` line per count carrying both the
//! timing and the report digest, plus a JSON document `ci.sh` lands in
//! `BENCH_shard.json`. The digests must agree across shard counts (the
//! determinism gate CI always enforces); the speedup column is the perf
//! acceptance, gated only on multi-core machines:
//!
//! ```text
//! SHARD shards=4 events=243210 wall_us=67218 events_per_sec=3618224 speedup=2.69 report_hash=0x…
//! ```
//!
//! Requested experiments fan out over the parallel sweep runner
//! (`d3t_experiments::sweep`): each id renders independently on a worker
//! thread and results print in request order, byte-identical to a serial
//! run (every experiment derives its randomness from its own seeded
//! config). `RAYON_NUM_THREADS` bounds the worker count.

use std::time::Instant;

use d3t_experiments::{
    ablations, baseline, controlled, dynamics, filtering, lela_params, nocoop, protocols, pullpush,
    resilience, scalability, sweep, table1, whatif, Scale,
};
use d3t_sim::QueueBackend;

const IDS: &[&str] = &[
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7a",
    "fig7b",
    "fig7c",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "scale",
    "ablate-f",
    "ablate-join",
    "ablate-protocols",
    "ext-pull",
    "dynamics",
];

fn render(id: &str, scale: &Scale) -> String {
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
        _ => unreachable!("id list is closed"),
    }
}

/// One timed base-config run; the single line CI greps for event-loop
/// throughput tracking.
fn smoke(scale: &Scale) {
    let prepared = scale.prepared();
    let cfg = prepared.config().clone();
    let start = Instant::now();
    let report = prepared.run();
    let wall_us = start.elapsed().as_micros().max(1) as u64;
    let events = report.metrics.events;
    let events_per_sec = (events as f64 / (wall_us as f64 / 1e6)).round() as u64;
    let queue = match cfg.queue {
        QueueBackend::Calendar => "calendar",
        QueueBackend::Heap => "heap",
    };
    println!(
        "SMOKE queue={queue} events={events} wall_us={wall_us} events_per_sec={events_per_sec}"
    );
}

/// One timed base-config run per scheduler backend, emitting **both**
/// machine-readable formats from the same runs (so CI pays for each
/// backend once): the per-backend `SMOKE` grep lines, and one JSON
/// document — `ci.sh` splits the two and lands the JSON in
/// `BENCH_queue.json`, so the queue's perf trajectory (events/s,
/// hot-tier queue ops/s, slot bytes) is a structured artifact across
/// PRs. Serde is still a no-op shim in this build environment, so the
/// document is rendered by hand; the shape is stable and additive.
fn queue_json(scale: &Scale) {
    use d3t_sim::{CalendarQueue, EventKind, EventQueue, HeapQueue, Prepared};
    let prepared = Prepared::build(&scale.base_config());
    println!("{{");
    println!(
        "  \"scale\": {{\"repos\": {}, \"items\": {}, \"ticks\": {}, \"seed\": {}}},",
        scale.n_repos, scale.n_items, scale.n_ticks, scale.seed
    );
    println!("  \"backends\": [");
    for (i, name) in ["calendar", "heap"].iter().enumerate() {
        let start = Instant::now();
        let (report, slot_bytes) = match *name {
            "calendar" => (
                prepared.run_with::<CalendarQueue<EventKind>>(),
                <CalendarQueue<EventKind> as EventQueue<EventKind>>::SLOT_BYTES,
            ),
            _ => (
                prepared.run_with::<HeapQueue<EventKind>>(),
                <HeapQueue<EventKind> as EventQueue<EventKind>>::SLOT_BYTES,
            ),
        };
        let wall_us = start.elapsed().as_micros().max(1) as u64;
        let events = report.metrics.events;
        let events_per_sec = (events as f64 / (wall_us as f64 / 1e6)).round() as u64;
        // One hot-tier push + pop per delivered message (the pre-seeded
        // source stream is merged, not enqueued).
        let queue_ops = 2 * (report.metrics.messages - report.metrics.undelivered);
        let queue_ops_per_sec = (queue_ops as f64 / (wall_us as f64 / 1e6)).round() as u64;
        println!(
            "SMOKE queue={name} events={events} wall_us={wall_us} \
             events_per_sec={events_per_sec}"
        );
        let comma = if i == 0 { "," } else { "" };
        println!(
            "    {{\"queue\": \"{name}\", \"slot_bytes\": {slot_bytes}, \"events\": {events}, \
             \"wall_us\": {wall_us}, \"events_per_sec\": {events_per_sec}, \
             \"queue_ops\": {queue_ops}, \"queue_ops_per_sec\": {queue_ops_per_sec}}}{comma}"
        );
    }
    println!("  ]");
    println!("}}");
}

/// One timed base-config run through the session's drain, attributing
/// wall time to its four phases (queue / process / fidelity /
/// transmit) from the always-on cycle counters. Emits one
/// greppable `PHASE` line per phase plus one JSON document — `ci.sh`
/// splits the two and lands the JSON in `BENCH_phases.json`, so the
/// drain's per-phase cost structure is a tracked artifact across PRs.
///
/// Cycle counters are relative (the TSC is never converted to time on
/// its own); each phase's `wall_us` is its cycle share of the measured
/// whole-run wall clock, so the four values sum to the run's wall time
/// by construction (asserted within 5%: only flooring is lost). What
/// can silently break is a phase losing its stamps — the timed runs'
/// split feeds three of the four — so every share must be non-zero.
fn phases(scale: &Scale) {
    use d3t_sim::{CalendarQueue, EventKind, HeapQueue, NoopObserver, PhaseStats};
    let prepared = scale.prepared();
    let cfg = prepared.config().clone();
    fn timed<Q: d3t_sim::EventQueue<EventKind>>(
        prepared: &d3t_sim::Prepared,
    ) -> (PhaseStats, u64, u64) {
        let mut session = prepared.session_with::<Q, _>(NoopObserver);
        let start = Instant::now();
        session.drain_to_end();
        let wall_us = start.elapsed().as_micros().max(1) as u64;
        (*session.phase_stats(), session.metrics().events, wall_us)
    }
    let (queue, (stats, events, wall_us)) = match cfg.queue {
        QueueBackend::Calendar => ("calendar", timed::<CalendarQueue<EventKind>>(&prepared)),
        QueueBackend::Heap => ("heap", timed::<HeapQueue<EventKind>>(&prepared)),
    };
    let total_cycles = stats.total_cycles().max(1);
    let parts: Vec<(&str, u64, u64, u64)> = stats
        .named()
        .iter()
        .map(|(name, c)| {
            let w = ((c.cycles as u128 * wall_us as u128) / total_cycles as u128) as u64;
            (*name, c.ops, w, c.cycles)
        })
        .collect();
    let attributed: u64 = parts.iter().map(|p| p.2).sum();
    // Proportional flooring loses at most 4 µs total.
    if stats.total_cycles() > 0 {
        assert!(
            (attributed as f64 - wall_us as f64).abs() <= 0.05 * wall_us as f64,
            "phase wall attribution drifted: {attributed} of {wall_us} µs"
        );
        for (name, _, w, _) in &parts {
            assert!(*w > 0, "phase `{name}` was attributed no wall time of {wall_us} µs");
        }
    }
    for (name, ops, w, _) in &parts {
        println!("PHASE name={name} events={ops} wall_us={w}");
    }
    println!("{{");
    println!(
        "  \"scale\": {{\"repos\": {}, \"items\": {}, \"ticks\": {}, \"seed\": {}}},",
        scale.n_repos, scale.n_items, scale.n_ticks, scale.seed
    );
    println!(
        "  \"queue\": \"{queue}\", \"events\": {events}, \"wall_us\": {wall_us}, \
         \"runs\": {},",
        stats.runs
    );
    println!("  \"phases\": [");
    for (i, (name, ops, w, cycles)) in parts.iter().enumerate() {
        let comma = if i + 1 < parts.len() { "," } else { "" };
        println!(
            "    {{\"phase\": \"{name}\", \"events\": {ops}, \"wall_us\": {w}, \
             \"cycles\": {cycles}}}{comma}"
        );
    }
    println!("  ]");
    println!("}}");
}

/// The robustness sweep — crash-burst size × loss rate × repair policy
/// over identical prepared inputs — emitting **both** tracked formats
/// from the same runs: one greppable `RESILIENCE` line per faulted cell
/// (overall and post-burst survivor fidelity, MTTR, loss/retransmit/
/// re-parent counters) and one JSON document `ci.sh` lands in
/// `BENCH_resilience.json`. Serde is still a no-op shim in this build
/// environment, so the document is rendered by hand; the shape is stable
/// and additive.
fn resilience_json(scale: &Scale) {
    let report = resilience::resilience_report(scale);
    for cell in &report.cells {
        println!("{}", cell.machine_line());
    }
    println!("{{");
    println!(
        "  \"scale\": {{\"repos\": {}, \"items\": {}, \"ticks\": {}, \"seed\": {}}},",
        scale.n_repos, scale.n_items, scale.n_ticks, scale.seed
    );
    println!("  \"cells\": [");
    for (i, c) in report.cells.iter().enumerate() {
        let comma = if i + 1 < report.cells.len() { "," } else { "" };
        println!(
            "    {{\"burst\": {}, \"loss_rate\": {:.2}, \"policy\": \"{}\", \
             \"loss_pct\": {:.4}, \"post_loss_pct\": {:.4}, \
             \"baseline_post_loss_pct\": {:.4}, \"post_gap_pct\": {:.4}, \
             \"mttr_ms\": {:.1}, \"fault_window_loss_pct\": {:.4}, \
             \"lost\": {}, \"retransmits\": {}, \"reparented\": {}}}{comma}",
            c.burst,
            c.loss_rate,
            resilience::policy_name(c.policy),
            c.loss_pct,
            c.post_loss_pct,
            c.baseline_post_loss_pct,
            c.post_gap_pct(),
            c.mttr_ms,
            c.fault_window_loss_pct,
            c.lost,
            c.retransmits,
            c.reparented,
        );
    }
    println!("  ]");
    println!("}}");
}

/// FNV-1a over the full `Debug` rendering of a run report — every
/// float bit pattern, counter and pair loss lands in the digest, so
/// two shard counts agreeing on the hash agree on the whole report.
fn report_hash(report: &impl std::fmt::Debug) -> u64 {
    d3t_core::digest::debug_hash(report)
}

/// The sharded-engine scale-out cell: one prepared input, driven at
/// 1, 2 and 4 shards, emitting one greppable `SHARD` line per count
/// plus a JSON document `ci.sh` lands in `BENCH_shard.json`.
///
/// The `report_hash` field is the determinism gate: every shard count
/// must agree on it (the sharded drive is bit-identical to the
/// sequential oracle), and that gate holds on any machine. `speedup`
/// is informational on shared CI runners — the perf acceptance
/// (>1.5× at 4 shards, 10k+ repositories) is asserted by `ci.sh`
/// only where `D3T_SKIP_PERF_GATE` is unset.
fn scale_out(scale: &Scale) {
    let mut prepared = scale.prepared();
    let mut cells: Vec<(usize, u64, u64, u64, u64)> = Vec::new();
    let mut base_eps = 0f64;
    for n_shards in [1usize, 2, 4] {
        prepared.set_shards(n_shards);
        let start = Instant::now();
        let report = prepared.run();
        let wall_us = start.elapsed().as_micros().max(1) as u64;
        let events = report.metrics.events;
        let events_per_sec = (events as f64 / (wall_us as f64 / 1e6)).round() as u64;
        if n_shards == 1 {
            base_eps = events_per_sec as f64;
        }
        let speedup_x100 = (events_per_sec as f64 / base_eps * 100.0).round() as u64;
        let hash = report_hash(&report);
        println!(
            "SHARD shards={n_shards} events={events} wall_us={wall_us} \
             events_per_sec={events_per_sec} speedup={}.{:02} report_hash={hash:#018x}",
            speedup_x100 / 100,
            speedup_x100 % 100,
        );
        cells.push((n_shards, events, wall_us, events_per_sec, hash));
    }
    println!("{{");
    println!(
        "  \"scale\": {{\"repos\": {}, \"items\": {}, \"ticks\": {}, \"seed\": {}}},",
        scale.n_repos, scale.n_items, scale.n_ticks, scale.seed
    );
    println!("  \"shards\": [");
    for (i, (n, events, wall_us, eps, hash)) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        println!(
            "    {{\"shards\": {n}, \"events\": {events}, \"wall_us\": {wall_us}, \
             \"events_per_sec\": {eps}, \"speedup\": {:.2}, \"report_hash\": \"{hash:#018x}\"}}\
             {comma}",
            *eps as f64 / base_eps,
        );
    }
    println!("  ]");
    println!("}}");
}

/// The snapshot/branch amortization cell: one shared prefix to the
/// half-run fork, one warm [`Snapshot`](d3t_sim::Snapshot), then
/// `n_branches` divergent what-if scenarios each driven cold (full
/// re-simulation) and warm (resume from the snapshot), digests
/// compared per branch.
///
/// The `equal=` field on every `WHATIF` line is the correctness gate —
/// warm must be bit-identical to cold on any machine. `speedup` in the
/// JSON totals is the amortization figure of merit
/// (Σ cold / (prefix + capture + Σ warm), per-cell walls so it is
/// scheduler-independent); `ci.sh` asserts it ≥ 1.5 at 8 branches and
/// capture ≤ 5% of one run only where `D3T_SKIP_PERF_GATE` is unset.
fn whatif_cmd(scale: &Scale, n_branches: usize) {
    let rep = whatif::whatif_report(scale, n_branches);
    for cell in &rep.cells {
        println!("{}", cell.machine_line());
    }
    println!("{}", rep.snapshot_line());
    println!("{{");
    println!(
        "  \"scale\": {{\"repos\": {}, \"items\": {}, \"ticks\": {}, \"seed\": {}}},",
        scale.n_repos, scale.n_items, scale.n_ticks, scale.seed
    );
    println!(
        "  \"snapshot\": {{\"bytes\": {}, \"capture_us\": {}, \"restore_us\": {}, \
         \"pending_events\": {}, \"fork_us\": {}, \"end_us\": {}, \"state_digest\": \"{:#018x}\"}},",
        rep.snapshot_bytes,
        rep.capture_us,
        rep.restore_us,
        rep.pending_events,
        rep.fork_us,
        rep.end_us,
        rep.state_digest,
    );
    println!("  \"branches\": [");
    for (i, c) in rep.cells.iter().enumerate() {
        let comma = if i + 1 < rep.cells.len() { "," } else { "" };
        println!(
            "    {{\"name\": \"{}\", \"loss_pct\": {:.4}, \"cold_wall_us\": {}, \
             \"warm_wall_us\": {}, \"report_hash\": \"{:#018x}\", \"equal\": {}}}{comma}",
            c.name,
            c.loss_pct,
            c.cold_wall_us,
            c.warm_wall_us,
            c.warm_hash,
            c.equal(),
        );
    }
    println!("  ],");
    println!(
        "  \"totals\": {{\"branches\": {}, \"prefix_wall_us\": {}, \"cold_total_us\": {}, \
         \"warm_total_us\": {}, \"speedup\": {:.2}, \"capture_pct_of_run\": {:.3}}}",
        rep.cells.len(),
        rep.prefix_wall_us,
        rep.cold_total_us(),
        rep.warm_total_us(),
        rep.speedup(),
        rep.capture_pct_of_run(),
    );
    println!("}}");
}

/// One timed base-config run per protocol; the `FILTER` lines CI greps
/// for check-path throughput tracking (the fig8 flood baseline and the
/// fig11 centralized/distributed comparison at matched workloads).
fn filter_smoke(scale: &Scale) {
    use d3t_core::dissemination::Protocol;
    for (name, protocol) in [
        ("flood", Protocol::FloodAll),
        ("naive", Protocol::Naive),
        ("distributed", Protocol::Distributed),
        ("centralized", Protocol::Centralized),
    ] {
        let mut cfg = scale.base_config();
        cfg.protocol = protocol;
        let prepared = d3t_sim::Prepared::build(&cfg);
        let start = Instant::now();
        let report = prepared.run();
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        let checks = report.metrics.total_checks();
        println!(
            "FILTER protocol={name} checks={checks} checks_per_sec={}",
            (checks as f64 / wall).round() as u64
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted: Vec<String> = Vec::new();
    let mut scale = Scale::quick();
    let mut serial = false;
    let mut run_smoke = false;
    let mut run_filter = false;
    let mut run_queue_json = false;
    let mut run_phases = false;
    let mut run_resilience = false;
    let mut run_scale_out = false;
    let mut run_whatif = false;
    let mut n_branches = 8usize;
    let mut queue: Option<QueueBackend> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::paper(),
            "--tiny" => scale = Scale::tiny(),
            "--serial" => serial = true,
            "--heap" => queue = Some(QueueBackend::Heap),
            "--queue" => {
                let v = iter.next().expect("--queue needs `calendar` or `heap`");
                queue = Some(match v.as_str() {
                    "calendar" => QueueBackend::Calendar,
                    "heap" => QueueBackend::Heap,
                    other => panic!("unknown queue backend `{other}`"),
                });
            }
            "smoke" => run_smoke = true,
            "filter" => run_filter = true,
            "queue-json" => run_queue_json = true,
            "phases" => run_phases = true,
            "resilience" => run_resilience = true,
            "scale-out" => run_scale_out = true,
            "whatif" => run_whatif = true,
            "--branches" => {
                let v = iter.next().expect("--branches needs a value");
                n_branches = v.parse().expect("--branches must be an integer");
            }
            "--ticks" => {
                let v = iter.next().expect("--ticks needs a value");
                scale.n_ticks = v.parse().expect("--ticks must be an integer");
            }
            "--seed" => {
                let v = iter.next().expect("--seed needs a value");
                scale.seed = v.parse().expect("--seed must be an integer");
            }
            "--repos" => {
                let v = iter.next().expect("--repos needs a value");
                scale.n_repos = v.parse().expect("--repos must be an integer");
                // Keep the paper's 7-nodes-per-repository fabric ratio.
                scale.n_network_nodes = scale.n_repos * 7;
            }
            "--items" => {
                let v = iter.next().expect("--items needs a value");
                scale.n_items = v.parse().expect("--items must be an integer");
            }
            "list" => {
                for id in IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => wanted.extend(IDS.iter().map(|s| s.to_string())),
            other if IDS.contains(&other) => wanted.push(other.to_string()),
            other => {
                eprintln!("unknown argument `{other}`; try `repro list`");
                std::process::exit(2);
            }
        }
    }
    if let Some(q) = queue {
        scale.queue = q;
    }
    if run_smoke
        || run_filter
        || run_queue_json
        || run_phases
        || run_resilience
        || run_scale_out
        || run_whatif
    {
        if !wanted.is_empty() {
            eprintln!(
                "`smoke`/`filter`/`queue-json`/`phases`/`resilience`/`scale-out`/`whatif` run \
                 timed cells and cannot be combined with experiment ids"
            );
            std::process::exit(2);
        }
        if run_smoke {
            smoke(&scale);
        }
        if run_filter {
            filter_smoke(&scale);
        }
        if run_queue_json {
            queue_json(&scale);
        }
        if run_phases {
            phases(&scale);
        }
        if run_resilience {
            resilience_json(&scale);
        }
        if run_scale_out {
            scale_out(&scale);
        }
        if run_whatif {
            whatif_cmd(&scale, n_branches);
        }
        return;
    }
    if wanted.is_empty() {
        wanted.extend(IDS.iter().map(|s| s.to_string()));
    }
    wanted.dedup();

    println!(
        "# d3t reproduction — {} repositories, {} items, {} ticks, seed {:#x}\n",
        scale.n_repos, scale.n_items, scale.n_ticks, scale.seed
    );
    let total = Instant::now();
    let run_one = |id: String| {
        let start = Instant::now();
        let rendered = render(&id, &scale);
        (id, rendered, start.elapsed().as_secs_f64())
    };
    let results: Vec<(String, String, f64)> = if serial {
        wanted.into_iter().map(run_one).collect()
    } else {
        sweep::par_map(wanted, run_one)
    };
    // Parallel timings overlap on shared cores, so per-id numbers are
    // upper bounds; `--serial` gives uncontended measurements.
    let qualifier = if serial { "" } else { ", concurrent" };
    for (id, rendered, secs) in results {
        println!("{rendered}");
        println!("  [{id} took {secs:.1}s{qualifier}]\n");
    }
    println!("# wall clock: {:.1}s", total.elapsed().as_secs_f64());
}
