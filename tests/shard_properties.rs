//! Equivalence and determinism properties of the sharded engine.
//!
//! The conservative parallel drive (`SimConfig::n_shards > 1`) claims
//! two hard invariants, and this file is their enforcement:
//!
//! 1. **N-shard ≡ 1-shard, bit for bit.** For every protocol × seed ×
//!    shard count, the sharded run's `RunReport` equals the
//!    sealed sequential oracle's — `PartialEq` over every field *and*
//!    the `Debug` rendering, so no float bit-pattern drift can hide.
//!    The partition, the epoch batching, the outbox re-stamping and
//!    the replica mirrors are all invisible in the report.
//!
//! 2. **Fixed `(seed, N)` is deterministic.** Re-running the same
//!    sharded configuration reproduces the report exactly — the
//!    coordinator's barrier discipline leaves the OS scheduler nothing
//!    to perturb.
//!
//! Plus the fault interaction the design doc singles out: a crash /
//! reparent burst whose orphans re-home *across* a shard boundary must
//! not be able to tell how many shards processed it.

use d3t::sim::{CrashSpec, FaultPlan, Prepared, RepairPolicy, RepairSpec, SimConfig};

use d3t::core::dissemination::Protocol;

/// The sharded-run battery: small enough to run every combination in a
/// few seconds, large enough that every shard owns work and the epochs
/// exchange real traffic.
fn base_cfg(protocol: Protocol, seed: u64, coop: usize) -> SimConfig {
    let mut cfg = SimConfig::small_for_tests(10, 5, 400, 50.0);
    cfg.protocol = protocol;
    cfg.seed = seed;
    cfg.coop_res = coop;
    cfg
}

#[test]
fn sharded_reports_match_the_sequential_oracle() {
    for (i, protocol) in
        [Protocol::Distributed, Protocol::Centralized, Protocol::Naive].iter().enumerate()
    {
        for seed in [0x5EEDu64, 97, 31_337] {
            let cfg = base_cfg(*protocol, seed, 1 + i * 3);
            let sequential = Prepared::build(&cfg).run();
            for n_shards in [2usize, 3, 4] {
                let mut sharded_cfg = cfg.clone();
                sharded_cfg.n_shards = n_shards;
                let sharded = Prepared::build(&sharded_cfg).run();
                assert_eq!(sequential, sharded, "{protocol:?} seed {seed} N={n_shards} diverged");
                assert_eq!(format!("{sequential:?}"), format!("{sharded:?}"));
            }
        }
    }
}

#[test]
fn sharded_runs_are_deterministic_for_fixed_seed_and_shard_count() {
    for n_shards in [2usize, 4] {
        let mut cfg = base_cfg(Protocol::Distributed, 0xD37, 4);
        cfg.n_shards = n_shards;
        let a = Prepared::build(&cfg).run();
        let b = Prepared::build(&cfg).run();
        assert_eq!(a, b, "N={n_shards} not deterministic across repeats");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

/// A crash + staggered-reparent burst whose foster walk crosses shard
/// boundaries (the victim's dependents re-home to ancestors the
/// partitioner may have placed anywhere) must stay bit-identical for
/// every shard count — the mirror fan-out and barrier-time value logs
/// carry exactly the state the repairs read.
#[test]
fn crash_reparent_bursts_cross_shard_boundaries_bit_identically() {
    for protocol in [Protocol::Distributed, Protocol::Centralized] {
        let mut cfg = base_cfg(protocol, 0xFA11, 3);
        let end = {
            // The horizon of this workload, to place faults inside it.
            let p = Prepared::build(&cfg);
            p.end_us
        };
        cfg.fault = FaultPlan {
            crashes: vec![
                CrashSpec { repo: 2, at_us: end / 4, recover_at_us: Some(end / 2), subtree: false },
                CrashSpec { repo: 5, at_us: end / 3, recover_at_us: None, subtree: true },
            ],
            repair: RepairSpec {
                policy: RepairPolicy::Reparent,
                detect_timeout_us: end / 64,
                base_backoff_us: end / 128,
                max_backoff_us: end / 16,
            },
            seed: 7,
            ..FaultPlan::default()
        };
        let mut reports = Vec::new();
        for n_shards in [1usize, 2, 3, 4] {
            let mut sharded_cfg = cfg.clone();
            sharded_cfg.n_shards = n_shards;
            reports.push((n_shards, Prepared::build(&sharded_cfg).run()));
        }
        let (_, reference) = &reports[0];
        assert!(
            reference.metrics.reparented > 0,
            "{protocol:?}: the burst must actually exercise the repair path"
        );
        for (n_shards, report) in &reports[1..] {
            assert_eq!(
                reference, report,
                "{protocol:?} N={n_shards} diverged from the sequential faulted run"
            );
            assert_eq!(format!("{reference:?}"), format!("{report:?}"));
        }
    }
}
