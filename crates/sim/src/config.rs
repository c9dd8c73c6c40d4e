//! Simulation configuration — one struct per §6.1 experiment knob.

use d3t_core::dissemination::Protocol;
use d3t_core::lela::{JoinOrder, PreferenceFunction};
use d3t_net::NetworkConfig;
use d3t_traces::EnsembleConfig;
use serde::{Deserialize, Serialize};

/// How the dissemination overlay is built.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TreeStrategy {
    /// LeLA (§4) with the configured degree of cooperation.
    Lela,
    /// No cooperation: the source directly serves every repository
    /// (Figures 5 and 6).
    Flat,
}

/// Complete description of one simulation run. `Default` reproduces the
/// paper's base case: 100 repositories and 600 routers around one source,
/// 100 items of 10 000 ticks, 12.5 ms computational delay, the distributed
/// protocol, and T = 50% stringent tolerances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of repositories.
    pub n_repos: usize,
    /// Number of data items.
    pub n_items: usize,
    /// Ticks per item trace.
    pub n_ticks: usize,
    /// The paper's `T`: percentage of items with stringent tolerances.
    pub t_stringent_pct: f64,
    /// Overlay construction strategy.
    pub tree: TreeStrategy,
    /// `coopRes`: the cooperative-resource bound each repository offers
    /// (the x-axis of Figures 3, 7a, 8, 9, 10).
    pub coop_res: usize,
    /// When true, the degree of cooperation is capped by Eq. (2)
    /// ("controlled cooperation", §6.3.2) instead of using `coop_res`
    /// directly.
    pub controlled: bool,
    /// The Eq. (2) constant `f` (paper footnote 1).
    pub coop_f: f64,
    /// Dissemination protocol.
    pub protocol: Protocol,
    /// LeLA preference function.
    pub pref_fn: PreferenceFunction,
    /// LeLA candidate band in percent (the paper's `P%`).
    pub pref_band_pct: f64,
    /// LeLA join order.
    pub join_order: JoinOrder,
    /// Per-dependent computational delay at every node, ms (paper: 12.5).
    pub comp_delay_ms: f64,
    /// If set, the overlay delay matrix is scaled uniformly so that its
    /// mean pairwise delay equals this value, ms (the x-axis of Figures 5
    /// and 7b); the topology and its shortest paths stay as generated.
    pub target_mean_comm_delay_ms: Option<f64>,
    /// Physical network shape. `n_repositories` is overridden by
    /// `n_repos`.
    pub network: NetworkConfig,
    /// Trace-ensemble shape. `n_items`/`n_ticks` are overridden by the
    /// fields above.
    pub ensemble: EnsembleConfig,
    /// Number of engine shards [`Prepared::run`](crate::Prepared::run)
    /// may spread across cores (clamped to the repository count). `1` —
    /// the default — is the sealed sequential engine. `> 1` drives the
    /// conservative parallel engine (`crate::shard`): the overlay is
    /// partitioned once, each shard drains epochs of the shared
    /// lookahead window concurrently, and cross-shard sends exchange at
    /// deterministic barriers. Reports are shard-count *deterministic*
    /// (a pure function of `(config, seed, n_shards)`) and bit-identical
    /// to the sequential engine. Zero lookahead and an unbounded horizon
    /// fall back to `1`. Sessions — and with them every fault plan —
    /// always drive sequentially.
    pub n_shards: usize,
    /// Master seed; all substreams derive from it.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            n_repos: 100,
            n_items: 100,
            n_ticks: 10_000,
            t_stringent_pct: 50.0,
            tree: TreeStrategy::Lela,
            coop_res: 4,
            controlled: false,
            coop_f: 50.0,
            protocol: Protocol::Distributed,
            pref_fn: PreferenceFunction::P1,
            pref_band_pct: 5.0,
            join_order: JoinOrder::Random,
            comp_delay_ms: 12.5,
            target_mean_comm_delay_ms: None,
            network: NetworkConfig::default(),
            ensemble: EnsembleConfig::default(),
            n_shards: 1,
            seed: 0x5EED,
        }
    }
}

impl SimConfig {
    /// A scaled-down configuration for unit tests and examples:
    /// `n_repos` repositories, `n_items` items, `n_ticks` ticks, `t`%
    /// stringent, on a proportionally smaller router fabric.
    pub fn small_for_tests(n_repos: usize, n_items: usize, n_ticks: usize, t: f64) -> Self {
        Self {
            n_repos,
            n_items,
            n_ticks,
            t_stringent_pct: t,
            network: NetworkConfig::small(n_repos * 7, n_repos),
            ensemble: EnsembleConfig::small(n_items, n_ticks),
            ..Self::default()
        }
    }

    /// Derives the seed for a named substream, so that e.g. the workload
    /// and the topology never share RNG state.
    pub fn sub_seed(&self, stream: &str) -> u64 {
        // FNV-1a over the stream name, mixed with the master seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in stream.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_base_case() {
        let c = SimConfig::default();
        assert_eq!(c.n_repos, 100);
        assert_eq!(c.n_items, 100);
        assert_eq!(c.n_ticks, 10_000);
        assert_eq!(c.comp_delay_ms, 12.5);
        assert_eq!(c.network.n_nodes, 700);
    }

    #[test]
    fn sub_seeds_differ_by_stream_and_master() {
        let a = SimConfig::default();
        let b = SimConfig { seed: 1, ..SimConfig::default() };
        assert_ne!(a.sub_seed("workload"), a.sub_seed("topology"));
        assert_ne!(a.sub_seed("workload"), b.sub_seed("workload"));
        assert_eq!(a.sub_seed("workload"), a.sub_seed("workload"));
    }

    #[test]
    fn small_config_scales_network() {
        let c = SimConfig::small_for_tests(10, 5, 100, 0.0);
        assert_eq!(c.network.n_repositories, 10);
        assert_eq!(c.network.n_nodes, 70);
    }
}
