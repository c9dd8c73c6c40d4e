//! Figures 9 and 10 — sensitivity to LeLA's parameters.
//!
//! Figure 9 varies the preference band `P%` (how far from the minimum
//! preference a repository may still be chosen as a parent), with and
//! without controlled cooperation. Figure 10 swaps the preference function
//! (`P1` uses data availability, `P2` ignores it). The paper's point:
//! once the degree of cooperation is controlled, neither parameter
//! matters much — the curves marked `…W` cluster within ~1%.

use d3t_core::lela::PreferenceFunction;

use crate::figure::{Figure, Series};
use crate::scale::Scale;
use crate::sweep::SerialSweep;

/// Figure 9: effect of different `P%` values.
pub fn fig9(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "fig9",
        "Effect of Different P% Values (T = 50%; `…W` = with controlled cooperation)",
        "degree",
        "loss of fidelity, %",
    );
    let mut sweep = SerialSweep::new();
    for &(band, controlled) in &[
        (1.0, false),
        (5.0, false),
        (10.0, false),
        (25.0, false),
        (1.0, true),
        (5.0, true),
        (10.0, true),
        (25.0, true),
    ] {
        let mut points = Vec::new();
        for &d in &scale.degree_grid_sparse() {
            let mut cfg = scale.base_config();
            cfg.coop_res = d;
            cfg.pref_band_pct = band;
            cfg.controlled = controlled;
            points.push((d as f64, sweep.run(&cfg).loss_pct()));
        }
        let label =
            if controlled { format!("P={}W", band as i64) } else { format!("P={}", band as i64) };
        fig.push_series(Series::new(label, points));
    }
    let spread = controlled_spread(&fig);
    fig.note(format!(
        "controlled-cooperation curves stay within {spread:.2} loss points of one another \
         (paper: ~1%)"
    ));
    fig.sweep = Some(sweep.counters());
    fig
}

/// Figure 10: effect of the preference function.
pub fn fig10(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "fig10",
        "Effect of Different Preference Functions (T = 50%; `…W` = controlled cooperation)",
        "degree",
        "loss of fidelity, %",
    );
    let mut sweep = SerialSweep::new();
    for &(pf, controlled) in &[
        (PreferenceFunction::P1, false),
        (PreferenceFunction::P2, false),
        (PreferenceFunction::P1, true),
        (PreferenceFunction::P2, true),
    ] {
        let mut points = Vec::new();
        for &d in &scale.degree_grid_sparse() {
            let mut cfg = scale.base_config();
            cfg.coop_res = d;
            cfg.pref_fn = pf;
            cfg.controlled = controlled;
            points.push((d as f64, sweep.run(&cfg).loss_pct()));
        }
        let base = if pf == PreferenceFunction::P1 { "P1" } else { "P2" };
        let label = if controlled { format!("{base}W") } else { base.to_string() };
        fig.push_series(Series::new(label, points));
    }
    let spread = controlled_spread(&fig);
    fig.note(format!(
        "preference-function choice moves controlled-cooperation loss by at most \
         {spread:.2} points (paper: insignificant once the degree is chosen)"
    ));
    fig.sweep = Some(sweep.counters());
    fig
}

/// Max pairwise gap between the controlled (`…W`) series, point-wise.
fn controlled_spread(fig: &Figure) -> f64 {
    let controlled: Vec<&Series> = fig.series.iter().filter(|s| s.label.ends_with('W')).collect();
    let mut spread = 0.0f64;
    if let Some(first) = controlled.first() {
        for &(x, _) in &first.points {
            let ys: Vec<f64> = controlled.iter().filter_map(|s| s.y_at(x)).collect();
            if let (Some(min), Some(max)) = (
                ys.iter().copied().min_by(f64::total_cmp),
                ys.iter().copied().max_by(f64::total_cmp),
            ) {
                spread = spread.max(max - min);
            }
        }
    }
    spread
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_controlled_curves_cluster() {
        let mut scale = Scale::tiny();
        scale.n_ticks = 300;
        let fig = fig10(&scale);
        assert_eq!(fig.series.len(), 4);
        assert!(controlled_spread(&fig) <= 20.0, "spread {}", controlled_spread(&fig));
    }
}
