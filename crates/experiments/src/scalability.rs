//! §6.3.5 — scalability with the number of repositories.
//!
//! The paper grows the system from 100 repositories / 700 nodes to 300
//! repositories / 2100 nodes and reports that, with controlled
//! cooperation, the loss of fidelity increases by less than 5%.

use crate::figure::{Figure, Series};
use crate::scale::Scale;
use crate::sweep;

/// Repository counts examined (the paper quotes the 100 and 300 points).
pub const REPO_GRID: [usize; 3] = [100, 200, 300];

/// Runs the scalability study at `T = 50%` with controlled cooperation.
///
/// The physical network keeps the paper's 1:7 repository-to-node ratio.
/// The grid cells fan out over [`sweep::par_map`] — they are
/// the most expensive cells in the whole reproduction (up to 2100-node
/// networks), and results are identical to the serial path.
pub fn scale_study(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "scale",
        "Scalability: loss of fidelity vs number of repositories (controlled cooperation)",
        "repositories",
        "loss of fidelity, %",
    );
    let ratio = (scale.n_network_nodes as f64 / scale.n_repos as f64).max(2.0);
    let repo_counts: Vec<usize> = REPO_GRID
        .iter()
        // Keep the workload scale consistent with the preset (tiny scale
        // shrinks repository counts proportionally).
        .map(|&n| (n * scale.n_repos / 100).max(4))
        .collect();
    let cells: Vec<_> = repo_counts
        .iter()
        .map(|&n_repos| {
            let mut cfg = scale.base_config();
            cfg.n_repos = n_repos;
            cfg.network.n_repositories = n_repos;
            cfg.network.n_nodes = (n_repos as f64 * ratio) as usize;
            cfg.coop_res = n_repos.min(100);
            cfg.controlled = true;
            cfg
        })
        .collect();
    let points: Vec<(f64, f64)> = repo_counts
        .iter()
        .zip(sweep::par_map(cells, |cfg| d3t_sim::run(&cfg)))
        .map(|(&n_repos, r)| (n_repos as f64, r.loss_pct()))
        .collect();
    let first = points.first().map(|&(_, y)| y).unwrap_or(0.0);
    let last = points.last().map(|&(_, y)| y).unwrap_or(0.0);
    fig.push_series(Series::new("T=50, controlled", points));
    fig.note(format!(
        "loss increase from smallest to largest system: {:.2} points \
         (paper: < 5% when going 100 -> 300 repositories)",
        last - first
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_study_stays_bounded() {
        let mut scale = Scale::tiny();
        scale.n_ticks = 300;
        let fig = scale_study(&scale);
        let s = &fig.series[0];
        assert_eq!(s.points.len(), 3);
        let first = s.points.first().unwrap().1;
        let last = s.points.last().unwrap().1;
        assert!(
            last - first < 25.0,
            "controlled cooperation should curb growth: {first} -> {last}"
        );
    }
}
