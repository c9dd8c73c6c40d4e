//! Experiment scale presets.

use d3t_net::NetworkConfig;
use d3t_sim::{Prepared, QueueBackend, SimConfig};

/// How big an experiment to run. The paper's full scale is the default for
/// published numbers; `quick` keeps every shape with a shorter horizon;
/// `tiny` is for unit tests and Criterion benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of repositories (paper: 100).
    pub n_repos: usize,
    /// Number of data items (paper: 100).
    pub n_items: usize,
    /// Ticks per trace (paper: 10 000 at 1 Hz).
    pub n_ticks: usize,
    /// Total physical nodes (paper: 700).
    pub n_network_nodes: usize,
    /// Master seed shared by all experiments at this scale.
    pub seed: u64,
    /// Scheduler backend every experiment cell runs with (`repro --queue
    /// heap` forces the fallback; results are backend independent).
    pub queue: QueueBackend,
}

impl Scale {
    /// The paper's base configuration.
    pub fn paper() -> Self {
        Self {
            n_repos: 100,
            n_items: 100,
            n_ticks: 10_000,
            n_network_nodes: 700,
            seed: 0x5EED,
            queue: QueueBackend::default(),
        }
    }

    /// Full topology and workload, shorter observation window. Shapes are
    /// unchanged; absolute message counts scale with the horizon.
    pub fn quick() -> Self {
        Self { n_ticks: 2_500, ..Self::paper() }
    }

    /// Miniature scale for tests and benches.
    pub fn tiny() -> Self {
        Self { n_repos: 20, n_items: 10, n_ticks: 400, n_network_nodes: 140, ..Self::paper() }
    }

    /// A [`SimConfig`] at this scale with the paper's defaults everywhere
    /// else.
    pub fn base_config(&self) -> SimConfig {
        let defaults = SimConfig::default();
        SimConfig {
            n_repos: self.n_repos,
            n_items: self.n_items,
            n_ticks: self.n_ticks,
            network: NetworkConfig {
                n_nodes: self.n_network_nodes,
                n_repositories: self.n_repos,
                ..NetworkConfig::default()
            },
            seed: self.seed,
            queue: self.queue,
            ..defaults
        }
    }

    /// A fully prepared base-config run at this scale — the entry point
    /// for experiments that drive a steppable session (dynamics, resilience, whatif)
    /// instead of a sealed sweep cell.
    pub fn prepared(&self) -> Prepared {
        Prepared::build(&self.base_config())
    }

    /// Degrees of cooperation swept on figure x-axes, capped to the
    /// repository count.
    pub fn degree_grid(&self) -> Vec<usize> {
        [1usize, 2, 4, 8, 12, 16, 24, 32, 48, 64, 100]
            .into_iter()
            .filter(|&d| d <= self.n_repos)
            .collect()
    }

    /// A sparser degree grid for the parameter-sensitivity figures
    /// (9 and 10), which multiply series count by configurations.
    pub fn degree_grid_sparse(&self) -> Vec<usize> {
        [1usize, 2, 4, 8, 16, 32, 64, 100].into_iter().filter(|&d| d <= self.n_repos).collect()
    }

    /// The paper's `T` grid (Figures 3, 5, 6, 7).
    pub fn t_grid(&self) -> Vec<f64> {
        vec![0.0, 20.0, 50.0, 70.0, 80.0, 90.0, 100.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let p = Scale::paper();
        assert_eq!(p.n_ticks, 10_000);
        assert_eq!(Scale::quick().n_repos, p.n_repos);
        assert!(Scale::tiny().n_ticks < 1000);
    }

    #[test]
    fn degree_grid_respects_repo_count() {
        let t = Scale::tiny();
        assert!(t.degree_grid().iter().all(|&d| d <= 20));
        assert!(Scale::paper().degree_grid().contains(&100));
    }

    #[test]
    fn base_config_matches_scale() {
        let s = Scale::tiny();
        let c = s.base_config();
        assert_eq!(c.n_repos, 20);
        assert_eq!(c.network.n_nodes, 140);
        assert_eq!(c.network.n_repositories, 20);
    }
}
