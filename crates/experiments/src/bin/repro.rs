//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                       # every experiment at quick scale
//! repro fig3 fig11                # a subset
//! repro all --paper               # the full 10 000-tick horizon
//! repro fig3 --ticks 1000         # custom horizon
//! repro all --serial              # disable the parallel fan-out
//! repro fig4 --seed 0x5eed        # decimal or 0x-hex, as the header prints it
//! repro filter                    # one run per protocol, FILTER lines
//! repro resilience                # fault sweep, RESILIENCE lines
//! repro whatif --branches 8       # snapshot fan-out, WHATIF + SNAPSHOT lines
//! repro list                      # enumerate experiment ids
//! ```
//!
//! At most one preset (`--tiny`, `--paper`; quick scale when none) is
//! given, and the size and seed options override it wherever they stand
//! on the line.
//!
//! What these commands *cost* — events/s, per-phase drain shares, queue
//! types, build stages, snapshot capture and restore, peak RSS — is
//! measured by `d3t-bench` (`perfbench/`), not here; the three cell
//! commands below print results a reader or CI checks for correctness.
//!
//! `filter` runs the fig8/fig11 filtering smoke — one base-config cell
//! per dissemination protocol — and prints one line per protocol; CI
//! fails unless all four report:
//!
//! ```text
//! FILTER protocol=distributed checks=1796242
//! ```
//!
//! `resilience` and `whatif` print the lines their modules document
//! (`d3t_experiments::{resilience, whatif}`): one `RESILIENCE` line per
//! faulted cell of the robustness sweep, and one `WHATIF` line per branch
//! of the snapshot fan-out plus a `SNAPSHOT` line. `equal=true` on every
//! `WHATIF` line (warm report hash = cold twin's) is the correctness gate
//! CI enforces.
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
//!
//! Output may be cut short by its reader (`repro all | head`): a closed
//! pipe ends the run quietly with status 0.

#![expect(
    clippy::disallowed_types,
    reason = "`took`/`wall clock` lines need wall time around whole runs"
)]

use std::io::Write;
use std::time::Instant;

use d3t_experiments::{
    ablations, baseline, controlled, dynamics, filtering, lela_params, nocoop, protocols, pullpush,
    resilience, scalability, sweep, table1, whatif, Scale,
};

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

/// One experiment's printed text and, for the figures that are a
/// [`sweep::grid`], what its serial cell runner did.
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

/// `repro resilience`: one `RESILIENCE` line per faulted cell.
fn resilience_cmd(scale: &Scale) {
    for cell in &resilience::resilience_report(scale).cells {
        out(cell.machine_line());
    }
}

/// `repro whatif`: one `WHATIF` line per branch, then the `SNAPSHOT` line.
fn whatif_cmd(scale: &Scale, n_branches: usize) {
    let rep = whatif::whatif_report(scale, n_branches);
    for cell in &rep.cells {
        out(cell.machine_line());
    }
    out(rep.snapshot_line());
}

/// One base-config run per protocol, one `FILTER` line each (the fig8
/// flood baseline and the fig11 centralized/distributed comparison at
/// matched workloads); CI checks that all four report. The protocol is
/// a drive-time field, so one build serves all four: each cell
/// re-targets it and nothing is rebuilt.
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
        out(format_args!(
            "FILTER protocol={name} checks={}",
            prepared.run().metrics.total_checks()
        ));
    }
}

/// Writes one line to stdout — every line `repro` prints goes through
/// here. A reader that went away (a closed pipe) ends the run with
/// status 0, since everything it asked for was delivered; any other
/// write error is reported on stderr with status 1.
fn out(line: impl std::fmt::Display) {
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("repro: cannot write to stdout: {e}");
        std::process::exit(1);
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

/// `--seed`'s value: a decimal integer, or `0x`-prefixed hex — the form
/// the header line prints, so a printed seed can be passed back in.
fn seed(value: Option<&String>) -> u64 {
    match value.and_then(|v| v.strip_prefix("0x")) {
        Some(hex) => u64::from_str_radix(hex, 16).unwrap_or_else(|_| {
            usage(&format!("`--seed` needs a non-negative integer, got `0x{hex}`"))
        }),
        None => int("--seed", value),
    }
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
    let mut preset = None;
    let (mut ticks, mut seed_value, mut repos, mut items) = (None, None, None, None);
    let mut serial = false;
    let (mut run_filter, mut run_resilience, mut run_whatif) = (false, false, false);
    let mut n_branches = 8usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" | "--tiny" if preset.is_some() => {
                usage("`--tiny` and `--paper` are presets; give at most one")
            }
            "--paper" => preset = Some(Scale::paper()),
            "--tiny" => preset = Some(Scale::tiny()),
            "--serial" => serial = true,
            "filter" => run_filter = true,
            "resilience" => run_resilience = true,
            "whatif" => run_whatif = true,
            "--branches" => n_branches = int(arg, iter.next()),
            "--ticks" => ticks = Some(positive(arg, iter.next())),
            "--seed" => seed_value = Some(seed(iter.next())),
            "--repos" => repos = Some(positive(arg, iter.next())),
            "--items" => items = Some(positive(arg, iter.next())),
            "list" => {
                for id in IDS {
                    out(id);
                }
                return;
            }
            "all" => requested.extend(IDS),
            other if IDS.contains(&other) => requested.push(other),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    // The preset first, then every override, whatever their order.
    let mut scale = preset.unwrap_or_else(Scale::quick);
    scale.n_ticks = ticks.unwrap_or(scale.n_ticks);
    scale.seed = seed_value.unwrap_or(scale.seed);
    scale.n_items = items.unwrap_or(scale.n_items);
    if let Some(n) = repos {
        scale.n_repos = n;
        // Keep the paper's 7-nodes-per-repository fabric ratio.
        scale.n_network_nodes = n * 7;
    }
    if run_filter || run_resilience || run_whatif {
        if !requested.is_empty() {
            usage(
                "`filter`/`resilience`/`whatif` run cells of their own and cannot be combined \
                 with experiment ids",
            );
        }
        // A one-tick trace spans no time, so no fault window fits in it.
        if (run_resilience || run_whatif) && scale.n_ticks < 2 {
            usage("`resilience`/`whatif` inject faults over time and need `--ticks` of at least 2");
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

    out(format_args!(
        "# d3t reproduction — {} repositories, {} items, {} ticks, seed {:#x}\n",
        scale.n_repos, scale.n_items, scale.n_ticks, scale.seed
    ));
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
        out(rendered);
        let cells = cells.map(|c| format!("; {c}")).unwrap_or_default();
        out(format_args!("  [{id} took {secs:.1}s{qualifier}{cells}]\n"));
    }
    out(format_args!("# wall clock: {:.1}s", total.elapsed().as_secs_f64()));
}
