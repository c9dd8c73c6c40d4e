//! Equivalence and determinism properties of the sharded engine.
//!
//! The conservative parallel drive (`SimConfig::n_shards > 1`) claims
//! two hard invariants, and this file is their enforcement:
//!
//! 1. **N-shard ≡ 1-shard, bit for bit.** For every protocol × seed ×
//!    shard count, the sharded run's `RunReport` equals the
//!    sealed sequential oracle's — `PartialEq` over every field *and*
//!    the `Debug` rendering, so no float bit-pattern drift can hide.
//!    The owner map, the epoch batching, the outbox re-stamping and
//!    the replica mirrors are all invisible in the report.
//!
//! 2. **Fixed `(seed, N)` is deterministic.** Re-running the same
//!    sharded configuration reproduces the report exactly — the
//!    coordinator's barrier discipline leaves the OS scheduler nothing
//!    to perturb.
//!
//! The sharded drive carries no fault plan (plans run on sessions, which
//! drive sequentially), so these are fault-free runs.

use d3t::sim::{Prepared, SimConfig};

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
            // 10 is one repository per shard; 20 takes `run_sharded`'s
            // clamp to the repository count.
            for n_shards in [2usize, 3, 4, 10, 20] {
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
