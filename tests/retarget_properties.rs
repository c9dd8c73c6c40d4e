//! `Prepared::retarget` and the serial-sweep runner built on it are
//! `Prepared::build` and `d3t_sim::run`, bit for bit.
//!
//! One seeded random walk per seed over the whole `SimConfig` space at
//! `small_for_tests` scale: each step changes one to three fields — drawn
//! from small value sets, so a change is often a *return* to a value seen
//! before — or jumps straight back to the configuration two steps ago
//! (A → B → A, the case a stale-stage bug survives longest in). After
//! every step:
//!
//! * the re-targeted `Prepared`'s public fields equal a fresh
//!   `Prepared::build`'s, and its `run()` equals the fresh one's (which
//!   covers the private µs matrix, source stream and overlay statistics);
//! * `SerialSweep::run` returns that same report, by `==` and by its
//!   formatted representation — whether it drove the cell or reused the
//!   previous cell's report.
//!
//! Nothing here reads a clock.

use d3t::core::dissemination::Protocol;
use d3t::core::lela::{JoinOrder, PreferenceFunction};
use d3t::experiments::sweep::SerialSweep;
use d3t::net::NetworkConfig;
use d3t::sim::{Prepared, SimConfig, TreeStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 3] = [0x5EED, 4242, 9];
const STEPS: usize = 240;

fn pick<T: Clone>(rng: &mut StdRng, values: &[T]) -> T {
    values[rng.gen_range(0..values.len())].clone()
}

/// Field classes [`mutate`] draws from — every field of `SimConfig`.
const N_FIELDS: usize = 18;

/// Re-draws one field class of `cfg`; returns its name for failure
/// messages.
fn mutate(cfg: &mut SimConfig, field: usize, rng: &mut StdRng) -> &'static str {
    match field {
        0 => {
            cfg.t_stringent_pct = pick(rng, &[0.0, 50.0, 80.0, 100.0]);
            "t_stringent_pct"
        }
        1 => {
            cfg.tree = pick(rng, &[TreeStrategy::Lela, TreeStrategy::Flat]);
            "tree"
        }
        2 => {
            cfg.coop_res = pick(rng, &[1, 2, 3, 5, 12]);
            "coop_res"
        }
        3 => {
            cfg.controlled = !cfg.controlled;
            "controlled"
        }
        4 => {
            cfg.coop_f = pick(rng, &[10.0, 50.0, 200.0]);
            "coop_f"
        }
        5 => {
            cfg.protocol = pick(
                rng,
                &[
                    Protocol::Distributed,
                    Protocol::Centralized,
                    Protocol::Naive,
                    Protocol::FloodAll,
                ],
            );
            "protocol"
        }
        6 => {
            cfg.pref_fn = pick(rng, &[PreferenceFunction::P1, PreferenceFunction::P2]);
            "pref_fn"
        }
        7 => {
            cfg.pref_band_pct = pick(rng, &[1.0, 5.0, 25.0]);
            "pref_band_pct"
        }
        8 => {
            cfg.join_order =
                pick(rng, &[JoinOrder::Random, JoinOrder::Sequential, JoinOrder::StringentFirst]);
            "join_order"
        }
        9 => {
            cfg.comp_delay_ms = pick(rng, &[1.0, 12.5, 25.0]);
            "comp_delay_ms"
        }
        10 => {
            cfg.target_mean_comm_delay_ms = pick(rng, &[None, Some(10.0), Some(80.0)]);
            "target_mean_comm_delay_ms"
        }
        11 => {
            cfg.n_repos = pick(rng, &[8, 12]);
            cfg.network = NetworkConfig {
                n_nodes: cfg.n_repos * 7,
                n_repositories: cfg.n_repos,
                ..cfg.network.clone()
            };
            "n_repos"
        }
        12 => {
            cfg.network.link_delay_mean_ms = pick(rng, &[4.0, 6.0]);
            "network.link_delay_mean_ms"
        }
        13 => {
            cfg.n_items = pick(rng, &[3, 5]);
            "n_items"
        }
        14 => {
            cfg.n_ticks = pick(rng, &[150, 250]);
            "n_ticks"
        }
        15 => {
            cfg.ensemble.step_std_range = pick(rng, &[(0.02, 0.04), (0.05, 0.1)]);
            "ensemble.step_std_range"
        }
        16 => {
            cfg.n_shards = pick(rng, &[1, 2]);
            "n_shards"
        }
        _ => {
            cfg.seed = pick(rng, &[0x5EED, 7, 99]);
            "seed"
        }
    }
}

#[test]
fn retargeted_runs_equal_fresh_builds_along_a_random_walk() {
    for walk_seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(0x2E7A_26E7 ^ (walk_seed << 8));
        let mut cfg = SimConfig::small_for_tests(8, 3, 150, 50.0);
        cfg.seed = walk_seed;
        let mut history = vec![cfg.clone()];
        let mut prepared = Prepared::build(&cfg);
        let mut sweep = SerialSweep::new();
        let mut touched = [false; N_FIELDS];
        for step in 0..STEPS {
            let what = if history.len() >= 2 && rng.gen_range(0..4u32) == 0 {
                cfg = history[history.len() - 2].clone();
                "back to the configuration two steps ago".to_string()
            } else {
                let names: Vec<&str> = (0..rng.gen_range(1..=3usize))
                    .map(|_| {
                        let field = rng.gen_range(0..N_FIELDS);
                        touched[field] = true;
                        mutate(&mut cfg, field, &mut rng)
                    })
                    .collect();
                names.join(" + ")
            };
            history.push(cfg.clone());
            let at = format!("walk {walk_seed:#x} step {step} ({what})");

            prepared.retarget(&cfg);
            let fresh = Prepared::build(&cfg);
            assert_eq!(prepared.config(), &cfg, "{at}");
            assert_eq!(prepared.traces, fresh.traces, "{at}: traces");
            assert_eq!(prepared.delays, fresh.delays, "{at}: delays");
            assert_eq!(prepared.workload, fresh.workload, "{at}: workload");
            assert_eq!(prepared.d3g, fresh.d3g, "{at}: d3g");
            assert_eq!(prepared.changes, fresh.changes, "{at}: changes");
            assert_eq!(prepared.initial_values, fresh.initial_values, "{at}: initial_values");
            assert_eq!(prepared.end_us, fresh.end_us, "{at}: end_us");
            assert_eq!(prepared.coop_degree, fresh.coop_degree, "{at}: coop_degree");

            // `d3t_sim::run(&cfg)` is `Prepared::build(&cfg).run()`.
            let reference = fresh.run();
            assert_eq!(prepared.run(), reference, "{at}: re-targeted run");
            let swept = sweep.run(&cfg);
            assert_eq!(swept, reference, "{at}: runner report");
            assert_eq!(format!("{swept:?}"), format!("{reference:?}"), "{at}: runner report repr");
        }
        assert!(touched.iter().all(|&t| t), "walk {walk_seed:#x} left a field class untouched");
        let counters = sweep.counters();
        assert_eq!(counters.cells(), STEPS);
        // The walk is only a test of reuse if it reuses, and only a test
        // of re-targeting if it mostly does not rebuild everything.
        assert!(counters.reused > 0, "{counters}");
        assert!(counters.full_builds < STEPS / 2, "{counters}");
        assert!(
            counters.network_builds > 0 && counters.workload_builds > 0 && counters.d3g_builds > 0,
            "{counters}"
        );
    }
}

/// `report_changed` follows what a report can depend on, not what was
/// rebuilt: a re-target that changes nothing reports so; `coop_res`
/// under a flat tree, which ignores the degree, still moves
/// `coop_degree_used`; and a drive-time field forces a drive even where
/// reports are known not to depend on it (`n_shards`) — that
/// independence is other suites' claim.
#[test]
fn report_changed_follows_the_report_not_the_overlay() {
    let mut cfg = SimConfig::small_for_tests(8, 3, 150, 50.0);
    cfg.tree = TreeStrategy::Flat;
    let mut prepared = Prepared::build(&cfg);
    let same = prepared.retarget(&cfg);
    assert!(!same.report_changed && !same.d3g && !same.full());

    let before = prepared.run();
    cfg.coop_res += 1;
    assert!(prepared.retarget(&cfg).report_changed);
    let after = prepared.run();
    assert_eq!(after.coop_degree_used, before.coop_degree_used + 1);
    assert_eq!(after, d3t::sim::run(&cfg));

    cfg.n_shards = 2;
    let r = prepared.retarget(&cfg);
    assert!(r.report_changed && !(r.traces || r.network || r.workload || r.d3g), "{r:?}");
    assert_eq!(prepared.run(), after);
}
