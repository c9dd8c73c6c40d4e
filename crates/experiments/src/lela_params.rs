//! Figures 9 and 10 — sensitivity to LeLA's parameters.
//!
//! Figure 9 varies the preference band `P%` (how far from the minimum
//! preference a repository may still be chosen as a parent), with and
//! without controlled cooperation. Figure 10 swaps the preference function
//! (`P1` uses data availability, `P2` ignores it). The paper's point:
//! once the degree of cooperation is controlled, neither parameter
//! matters much — the curves marked `…W` cluster within ~1%.

use d3t_core::lela::PreferenceFunction;
use d3t_sim::{RunReport, SimConfig};

use crate::figure::{degree_axis, Figure, Series};
use crate::scale::Scale;
use crate::sweep;

/// The suffix of a series under controlled cooperation.
fn w(controlled: bool) -> &'static str {
    if controlled {
        "W"
    } else {
        ""
    }
}

/// Figure 9: effect of different `P%` values.
pub fn fig9(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "fig9",
        "Effect of Different P% Values (T = 50%; `…W` = with controlled cooperation)",
        "degree",
        "loss of fidelity, %",
    );
    let series = [false, true].map(|c| [1.0, 5.0, 10.0, 25.0].map(|band| (band, c))).concat();
    let degrees = scale.degree_grid_sparse();
    let g = sweep::grid(&series, &degrees, |&(pref_band_pct, controlled), &coop_res| SimConfig {
        coop_res,
        pref_band_pct,
        controlled,
        ..scale.base_config()
    });
    let labels = series.iter().map(|&(band, c)| format!("P={}{}", band as i64, w(c)));
    g.plot(&mut fig, labels, degree_axis(&degrees), RunReport::loss_pct);
    let spread = controlled_spread(&fig);
    fig.note(format!(
        "controlled-cooperation curves stay within {spread:.2} loss points of one another \
         (paper: ~1%)"
    ));
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
    let series = [false, true]
        .map(|c| [PreferenceFunction::P1, PreferenceFunction::P2].map(|pf| (pf, c)))
        .concat();
    let degrees = scale.degree_grid_sparse();
    let g = sweep::grid(&series, &degrees, |&(pref_fn, controlled), &coop_res| SimConfig {
        coop_res,
        pref_fn,
        controlled,
        ..scale.base_config()
    });
    let labels = series.iter().map(|&(pf, c)| format!("{pf:?}{}", w(c)));
    g.plot(&mut fig, labels, degree_axis(&degrees), RunReport::loss_pct);
    let spread = controlled_spread(&fig);
    fig.note(format!(
        "preference-function choice moves controlled-cooperation loss by at most \
         {spread:.2} points (paper: insignificant once the degree is chosen)"
    ));
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
