//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                       # every experiment at quick scale
//! repro fig3 fig11                # a subset
//! repro all --paper               # the full 10 000-tick horizon
//! repro fig3 --ticks 1000         # custom horizon
//! repro all --serial              # disable the parallel fan-out
//! repro all --queue heap          # schedule on the heap fallback
//! repro filter                    # timed run per protocol, FILTER lines
//! repro resilience                # fault sweep, RESILIENCE lines
//! repro whatif --branches 8       # snapshot fan-out, WHATIF + SNAPSHOT lines
//! repro list                      # enumerate experiment ids
//! ```
//!
//! What these commands *cost* — events/s, per-phase drain shares, queue
//! backends, build stages, peak RSS — is measured by `d3t-bench`
//! (`perfbench/`), not here; the three cell commands below print results
//! a reader or CI checks for correctness.
//!
//! `filter` runs the fig8/fig11 filtering smoke — one base-config cell
//! per dissemination protocol — and prints one line per protocol; CI
//! fails unless all four report:
//!
//! ```text
//! FILTER protocol=distributed checks=1796242 checks_per_sec=10683185
//! ```
//!
//! `resilience` runs the robustness sweep (crash-burst size × loss rate ×
//! repair policy over identical prepared inputs) and prints one line per
//! faulted cell:
//!
//! ```text
//! RESILIENCE burst=4 loss_rate=0.10 policy=reparent loss_pct=… mttr_ms=… retransmits=… reparented=… lost=…
//! ```
//!
//! `whatif` simulates one shared prefix to the half-run fork, snapshots
//! it, and drives `--branches N` divergent scenarios each cold and warm;
//! `equal=true` on every line (warm report hash = cold twin's) is the
//! correctness gate CI enforces:
//!
//! ```text
//! WHATIF branch=failure-burst-1 loss_pct=… cold_wall_us=… warm_wall_us=… report_hash=0x… equal=true
//! SNAPSHOT bytes=… capture_us=… restore_us=… pending_events=… digest=0x…
//! AMORTIZATION branches=… prefix_wall_us=… cold_total_us=… warm_total_us=… speedup=…
//! ```
//!
//! Requested experiments fan out over the parallel sweep runner
//! (`d3t_experiments::sweep`): each id renders independently on a worker
//! thread and results print in request order, byte-identical to a serial
//! run (every experiment derives its randomness from its own seeded
//! config). `RAYON_NUM_THREADS` bounds the worker count. The timing line
//! under each figure also says what its serial cell runner did — how many
//! cells it drove, how many repeated the previous cell and reused its
//! report, and which build stages it had to redo:
//!
//! ```text
//!   [fig7a took 1.7s, concurrent; cells=77 driven=21 reused=56 builds: full=1 network=0 workload=6 d3g=20]
//! ```

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

/// One experiment's printed text and, for the figures that run their
/// cells through a [`sweep::SerialSweep`], what that runner did.
fn render(id: &str, scale: &Scale) -> (String, Option<sweep::SweepCounters>) {
    let fig = match id {
        "table1" => return (table1::table1(scale.n_ticks, scale.seed), None),
        "fig3" => baseline::fig3(scale),
        "fig4" => return (protocols::fig4(), None),
        "fig5" => nocoop::fig5(scale),
        "fig6" => nocoop::fig6(scale),
        "fig7a" => controlled::fig7a(scale),
        "fig7b" => controlled::fig7b(scale),
        "fig7c" => controlled::fig7c(scale),
        "fig8" => filtering::fig8(scale),
        "fig9" => lela_params::fig9(scale),
        "fig10" => lela_params::fig10(scale),
        "fig11" => protocols::fig11(scale),
        "scale" => scalability::scale_study(scale),
        "ablate-f" => ablations::f_sensitivity(scale),
        "ablate-join" => ablations::join_order_study(scale),
        "ablate-protocols" => ablations::protocol_fidelity(scale),
        "ext-pull" => pullpush::pull_vs_push(scale),
        "dynamics" => dynamics::dynamics(scale),
        _ => unreachable!("id list is closed"),
    };
    (fig.render(), fig.sweep)
}

/// The robustness sweep — crash-burst size × loss rate × repair policy
/// over identical prepared inputs — as one `RESILIENCE` line per faulted
/// cell (overall and post-burst survivor fidelity, MTTR, loss/retransmit/
/// re-parent counters).
fn resilience_cmd(scale: &Scale) {
    for cell in &resilience::resilience_report(scale).cells {
        println!("{}", cell.machine_line());
    }
}

/// The snapshot/branch cell: one shared prefix to the half-run fork, one
/// warm [`Snapshot`](d3t_sim::Snapshot), then `n_branches` divergent
/// what-if scenarios each driven cold (full re-simulation) and warm
/// (resume from the snapshot), digests compared per branch — `equal=` on
/// every `WHATIF` line must read `true` on any machine.
fn whatif_cmd(scale: &Scale, n_branches: usize) {
    let rep = whatif::whatif_report(scale, n_branches);
    for cell in &rep.cells {
        println!("{}", cell.machine_line());
    }
    println!("{}", rep.snapshot_line());
    println!("{}", rep.amortization_line());
}

/// One timed base-config run per protocol, one `FILTER` line each (the
/// fig8 flood baseline and the fig11 centralized/distributed comparison
/// at matched workloads); CI checks that all four report. The protocol
/// is a drive-time field, so one build serves all four: each cell
/// re-targets it (nothing is rebuilt) and only the drive is timed.
fn filter_smoke(scale: &Scale) {
    use d3t_core::dissemination::Protocol;
    let mut cfg = scale.base_config();
    let mut prepared = d3t_sim::Prepared::build(&cfg);
    for (name, protocol) in [
        ("flood", Protocol::FloodAll),
        ("naive", Protocol::Naive),
        ("distributed", Protocol::Distributed),
        ("centralized", Protocol::Centralized),
    ] {
        cfg.protocol = protocol;
        prepared.retarget(&cfg);
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

/// A usage error: one line on stderr, exit status 2.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}; try `repro list`");
    std::process::exit(2)
}

/// The integer value following `flag`; a missing or malformed one is a
/// usage error, not a panic.
fn int<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    let Some(v) = value else { usage(&format!("`{flag}` needs a value")) };
    v.parse()
        .unwrap_or_else(|_| usage(&format!("`{flag}` needs a non-negative integer, got `{v}`")))
}

/// [`int`] for the three sizes no experiment can run at zero (the
/// library asserts on an empty fabric, item set or trace).
fn positive(flag: &str, value: Option<&String>) -> usize {
    match int(flag, value) {
        0 => usage(&format!("`{flag}` needs a positive integer")),
        n => n,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut requested: Vec<&str> = Vec::new();
    let mut scale = Scale::quick();
    let mut serial = false;
    let (mut run_filter, mut run_resilience, mut run_whatif) = (false, false, false);
    let mut n_branches = 8usize;
    let mut queue: Option<QueueBackend> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::paper(),
            "--tiny" => scale = Scale::tiny(),
            "--serial" => serial = true,
            "--heap" => queue = Some(QueueBackend::Heap),
            "--queue" => {
                queue = Some(match iter.next().map(String::as_str) {
                    Some("calendar") => QueueBackend::Calendar,
                    Some("heap") => QueueBackend::Heap,
                    Some(other) => usage(&format!("unknown queue backend `{other}`")),
                    None => usage("`--queue` needs `calendar` or `heap`"),
                });
            }
            "filter" => run_filter = true,
            "resilience" => run_resilience = true,
            "whatif" => run_whatif = true,
            "--branches" => n_branches = int(arg, iter.next()),
            "--ticks" => scale.n_ticks = positive(arg, iter.next()),
            "--seed" => scale.seed = int(arg, iter.next()),
            "--repos" => {
                scale.n_repos = positive(arg, iter.next());
                // Keep the paper's 7-nodes-per-repository fabric ratio.
                scale.n_network_nodes = scale.n_repos * 7;
            }
            "--items" => scale.n_items = positive(arg, iter.next()),
            "list" => {
                for id in IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => requested.extend(IDS),
            other if IDS.contains(&other) => requested.push(other),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if let Some(q) = queue {
        scale.queue = q;
    }
    if run_filter || run_resilience || run_whatif {
        if !requested.is_empty() {
            usage(
                "`filter`/`resilience`/`whatif` run timed cells and cannot be combined with \
                 experiment ids",
            );
        }
        if run_filter {
            filter_smoke(&scale);
        }
        if run_resilience {
            resilience_cmd(&scale);
        }
        if run_whatif {
            whatif_cmd(&scale, n_branches);
        }
        return;
    }
    if requested.is_empty() {
        requested.extend(IDS);
    }
    // Each id renders once, where it was first requested.
    let mut wanted: Vec<&str> = Vec::new();
    for id in requested {
        if !wanted.contains(&id) {
            wanted.push(id);
        }
    }

    println!(
        "# d3t reproduction — {} repositories, {} items, {} ticks, seed {:#x}\n",
        scale.n_repos, scale.n_items, scale.n_ticks, scale.seed
    );
    let total = Instant::now();
    let run_one = |id| {
        let start = Instant::now();
        let (rendered, cells) = render(id, &scale);
        (id, rendered, cells, start.elapsed().as_secs_f64())
    };
    let results: Vec<_> = if serial {
        wanted.into_iter().map(run_one).collect()
    } else {
        sweep::par_map(wanted, run_one)
    };
    // Parallel timings overlap on shared cores, so per-id numbers are
    // upper bounds; `--serial` gives uncontended measurements.
    let qualifier = if serial { "" } else { ", concurrent" };
    for (id, rendered, cells, secs) in results {
        println!("{rendered}");
        let cells = cells.map(|c| format!("; {c}")).unwrap_or_default();
        println!("  [{id} took {secs:.1}s{qualifier}{cells}]\n");
    }
    println!("# wall clock: {:.1}s", total.elapsed().as_secs_f64());
}
