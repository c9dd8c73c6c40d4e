//! Figure 3 — the need for limiting cooperation.
//!
//! Loss of fidelity vs the degree of cooperation for seven `T` values.
//! The paper's headline U-shape: a chain (degree 1) loses fidelity to
//! accumulated communication delay, a flat tree (degree = #repositories)
//! loses it to computational queueing at the source, and the minimum sits
//! at a handful of dependents per repository.

use d3t_sim::{RunReport, SimConfig};

use crate::figure::{degree_axis, t_label, Figure};
use crate::scale::Scale;
use crate::sweep;

/// Runs the Figure 3 sweep.
pub fn fig3(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "fig3",
        "Need for Limiting Cooperation (loss of fidelity vs degree of cooperation)",
        "degree",
        "loss of fidelity, %",
    );
    let (ts, degrees) = (scale.t_grid(), scale.degree_grid());
    let g = sweep::grid(&ts, &degrees, |&t_stringent_pct, &coop_res| SimConfig {
        t_stringent_pct,
        coop_res,
        ..scale.base_config()
    });
    g.plot(&mut fig, ts.iter().map(t_label), degree_axis(&degrees), RunReport::loss_pct);
    // The first column is degree 1 (a chain), the last the flattest tree.
    let depths = |col: usize| g.reports.iter().map(move |row| row[col].max_tree_depth);
    let chain_diameter = depths(0).max().unwrap_or(0);
    let flat_diameter = depths(degrees.len() - 1).min().unwrap_or(usize::MAX);
    fig.note(format!(
        "d3t diameter: {chain_diameter} at degree 1 (paper: ~101 for the chain), \
         {flat_diameter} at degree {} (paper: 2 when the source serves everyone)",
        degrees.last().unwrap()
    ));
    if let Some(s) = fig.series_named("T=100") {
        if let Some(x) = s.argmin_x() {
            fig.note(format!("T=100 minimum at degree {} (paper: between 3 and 20)", x as i64));
        }
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_tiny_has_u_shape_ordering() {
        // At tiny scale the curve still orders: stringent workloads lose
        // more fidelity than lenient ones at the extremes.
        let mut scale = Scale::tiny();
        scale.n_ticks = 300;
        let fig = fig3(&scale);
        assert_eq!(fig.series.len(), 7);
        let t100 = fig.series_named("T=100").unwrap();
        let t0 = fig.series_named("T=0").unwrap();
        assert!(t100.y_max().unwrap() >= t0.y_max().unwrap());
        for s in &fig.series {
            for &(_, y) in &s.points {
                assert!((0.0..=100.0).contains(&y));
            }
        }
    }
}
