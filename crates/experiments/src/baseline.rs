//! Figure 3 — the need for limiting cooperation.
//!
//! Loss of fidelity vs the degree of cooperation for seven `T` values.
//! The paper's headline U-shape: a chain (degree 1) loses fidelity to
//! accumulated communication delay, a flat tree (degree = #repositories)
//! loses it to computational queueing at the source, and the minimum sits
//! at a handful of dependents per repository.

use crate::figure::{Figure, Series};
use crate::scale::Scale;
use crate::sweep::SerialSweep;

/// Runs the Figure 3 sweep.
pub fn fig3(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "fig3",
        "Need for Limiting Cooperation (loss of fidelity vs degree of cooperation)",
        "degree",
        "loss of fidelity, %",
    );
    let mut sweep = SerialSweep::new();
    let degrees = scale.degree_grid();
    let mut chain_diameter = 0usize;
    let mut flat_diameter = usize::MAX;
    for t in scale.t_grid() {
        let mut points = Vec::with_capacity(degrees.len());
        for &d in &degrees {
            let mut cfg = scale.base_config();
            cfg.t_stringent_pct = t;
            cfg.coop_res = d;
            let report = sweep.run(&cfg);
            points.push((d as f64, report.loss_pct()));
            if d == 1 {
                chain_diameter = chain_diameter.max(report.max_tree_depth);
            }
            if d == *degrees.last().unwrap() {
                flat_diameter = flat_diameter.min(report.max_tree_depth);
            }
        }
        fig.push_series(Series::new(format!("T={}", t as i64), points));
    }
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
    fig.sweep = Some(sweep.counters());
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
