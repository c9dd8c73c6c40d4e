//! What the benchmark measures: workloads, end-to-end metrics with their
//! regression bounds, and the per-layer metrics every traced run reports.
//! `BENCHMARK.json` at the repository root is [`manifest`] rendered; the
//! harness, `compare` and the smoke test all read these tables, so the
//! names exist once.

use crate::json::{obj, Json};

/// Seed every workload uses unless `--seed` says otherwise — the
/// repository's own default (`SimConfig::default().seed`), and the only
/// seed `golden.json` pins.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
/// Every workload also has a minimum sample count, which on the sizing
/// host already fills this budget; a slower host keeps the counts and
/// runs longer.
pub const RUN_SECONDS: u64 = 15;

/// The directory (relative to the repository root) that holds the
/// benchmark and nothing else.
pub const BENCH_DIR: &str = "perfbench";

/// What the driver runs from the repository root; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "d3t-bench",
    "--",
    "run",
];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "figures-quick",
        why:
            "the paper user's command (repro all, quick scale): ~500 small cache-resident \
              build+drive cells over every protocol and tree shape, scheduled by experiments::sweep",
    },
    WorkloadSpec {
        name: "drive-600r",
        why: "600 repos x 10 000 ticks (13.6 M events): the sequential steady-state drive does \
              ~85 % of the work; the anchor of every BENCH line since PR 2",
    },
    WorkloadSpec {
        name: "build-2500r",
        why: "2 500 repos on a 17 500-node fabric x 1 000 ticks: the quadratic build layers \
              (overlay APSP, LeLA) and peak RSS dominate; the drive is past the throughput cliff",
    },
    WorkloadSpec {
        name: "whatif-600r",
        why: "600 repos: prefix + snapshot + four faulted branches (crash burst, churn, loss, \
              degradation) warm and cold; the same drive with control timeline, repair and restore",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Host-side costs a user of the simulator pays, measured with tracing
/// off. `failed_ops` and `sim_digest` of the issue are not rows here:
/// the contract wants metrics that are never 0 and numeric, so failures
/// travel as the result's `failed`/`attempted` and the digest as its
/// `sim_digest` string (both compared by `d3t-bench compare`).
///
/// Every bound is the contract's maximum because that is what the
/// sizing host resolves: over two sets of ten seeds per workload, the
/// interquartile spread of `wall_s` read 5–22 %, of
/// `drive_events_per_s` 6–15 % and of `peak_rss_mb` 0.1–11 % (glibc
/// arena placement on 50 MB processes), with minute-long periods in
/// which the same seed runs 30 % slower. `compare` prints the spreads,
/// so on a quieter host a reader can judge finer than the bound.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "drive_events_per_s", unit: "events/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn cost(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower }
}

const fn gain(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Higher }
}

/// Layer metrics defined on every workload's base configuration, so
/// every traced run reports exactly this set. Layers only one workload
/// exercises (`experiments.*`, `shard.*`, `snapshot.*`, `fault.*`) are
/// reported in that workload's `extra` block and trace file instead.
pub const PER_LAYER: [Layer; 44] = [
    cost("traces.generate_s", "s"),
    cost("traces.ticks", "count"),
    cost("net.topology_s", "s"),
    cost("net.apsp_s", "s"),
    cost("net.apsp_rows", "count"),
    cost("net.apsp_peak_rss_mb", "MB"),
    cost("net.delay_matrix_s", "s"),
    cost("core.workload_s", "s"),
    cost("core.lela_s", "s"),
    cost("core.lela_joins", "count"),
    cost("core.delay_micros_s", "s"),
    cost("core.disseminator_compile_s", "s"),
    cost("core.d3g_max_depth", "count"),
    cost("prepared.build_s", "s"),
    cost("prepared.merge_changes_s", "s"),
    cost("prepared.source_stream_s", "s"),
    cost("prepared.unattributed_s", "s"),
    gain("prepared.stage_sum_ratio", "ratio"),
    cost("session.construct_s", "s"),
    cost("session.drive_s", "s"),
    cost("session.queue_s", "s"),
    cost("session.process_s", "s"),
    cost("session.fidelity_s", "s"),
    cost("session.transmit_s", "s"),
    cost("session.queue_ops", "count"),
    cost("session.process_ops", "count"),
    cost("session.fidelity_ops", "count"),
    cost("session.transmit_ops", "count"),
    cost("session.runs", "count"),
    gain("session.mean_run_len", "count"),
    cost("session.ns_per_event", "ns"),
    cost("queue.heap_drive_s", "s"),
    gain("queue.calendar_vs_heap_x", "x"),
    cost("engine.oracle_drive_s", "s"),
    gain("engine.session_vs_oracle_x", "x"),
    cost("sim.events", "count"),
    cost("sim.messages", "count"),
    cost("sim.undelivered", "count"),
    cost("sim.source_checks", "count"),
    cost("sim.repo_checks", "count"),
    cost("sim.loss_pct", "%"),
    gain("host.nproc", "count"),
    cost("host.calib_s", "s"),
    cost("trace.overhead_pct", "%"),
];

/// The `repro` experiment ids `figures-quick` renders, in `repro list`
/// order.
pub const FIGURE_IDS: [&str; 18] = [
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

/// The root `BENCHMARK.json`, in the key order the contract shows.
pub fn manifest() -> Json {
    obj([
        ("command", Json::Arr(COMMAND.into_iter().map(Json::from).collect())),
        ("paths", Json::Arr(vec![BENCH_DIR.into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the benchmark contract refuses a manifest over.
    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok), "{unit}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");

        let doc = manifest();
        assert!(doc.pretty().len() < 64 * 1024);
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains("  "), "{why}");
        }
        for part in doc.get("command").and_then(Json::as_arr).unwrap() {
            let part = part.as_str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
