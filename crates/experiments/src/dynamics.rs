//! Mid-run dynamics: fidelity through a repository failure burst.
//!
//! Two runs over identical inputs (same traces, same overlay, same
//! protocol): a **static** baseline, and a **churn** run in which 20% of
//! the repositories fail-stop at 30% of the horizon and recover at 60%.
//! Both runs collect a windowed fidelity time series through the
//! [`WindowedFidelity`] observer, so the figure shows the loss *before*,
//! *during*, and *after* the burst — the shape a single end-of-run number
//! cannot: loss climbs while the failed repositories (and the subtrees
//! they relay for) starve, then falls back once recovery lets updates
//! flow again.
//!
//! The render includes one machine-readable note line CI tracks:
//!
//! ```text
//! DYNAMICS loss_pct_static=… loss_pct_churn=… dropped=…
//! ```

use d3t_sim::{Dynamic, WindowedFidelity};

use crate::figure::{Figure, Series};
use crate::scale::Scale;

/// Windows per run in the time series.
const N_WINDOWS: u64 = 20;

/// Fraction of the horizon at which the burst starts / ends.
const FAIL_AT: (u64, u64) = (3, 10);
const RECOVER_AT: (u64, u64) = (6, 10);

/// Every 5th repository fails — 20% of the fleet, spread across the
/// join order so the burst hits relays as well as leaves.
fn burst_victims(n_repos: usize) -> Vec<usize> {
    (0..n_repos).step_by(5).collect()
}

/// Runs the failure-burst experiment at the given scale.
pub fn dynamics(scale: &Scale) -> Figure {
    let prepared = scale.prepared();
    let end_us = prepared.end_us;
    let window_us = (end_us / N_WINDOWS).max(1);
    let n_pairs = prepared.n_measured_pairs();
    let fail_us = end_us * FAIL_AT.0 / FAIL_AT.1;
    let recover_us = end_us * RECOVER_AT.0 / RECOVER_AT.1;

    // Static baseline: same observer, no injections.
    let (static_rep, _static_m, static_obs) =
        prepared.session_observing(WindowedFidelity::new(window_us, n_pairs)).finish();

    // Churn run: fail the victims at 30%, recover them at 60%.
    let victims = burst_victims(prepared.config().n_repos);
    let mut session = prepared.session_observing(WindowedFidelity::new(window_us, n_pairs));
    session.run_until(fail_us);
    for &repo in &victims {
        session.inject(Dynamic::FailRepo { repo }).expect("victim exists");
    }
    session.run_until(recover_us);
    for &repo in &victims {
        session.inject(Dynamic::RecoverRepo { repo }).expect("victim exists");
    }
    let (churn_rep, churn_m, churn_obs) = session.finish();

    let mut fig = Figure::new(
        "dynamics",
        "fidelity before/during/after a repository failure burst",
        "window (s)",
        "windowed loss of fidelity (%), static vs 20% fail-stop burst",
    );
    fig.push_series(Series::new("static", static_obs.series()));
    fig.push_series(Series::new("churn", churn_obs.series()));
    fig.note(format!(
        "burst: {} of {} repositories down {:.0}s..{:.0}s of {:.0}s",
        victims.len(),
        prepared.config().n_repos,
        fail_us as f64 / 1e6,
        recover_us as f64 / 1e6,
        end_us as f64 / 1e6,
    ));
    let phases =
        [("before", 0, fail_us), ("during", fail_us, recover_us), ("after", recover_us, end_us)];
    for (name, lo, hi) in phases {
        fig.note(format!(
            "{name}: static {:.2}% vs churn {:.2}%",
            static_obs.loss_pct_between(lo, hi),
            churn_obs.loss_pct_between(lo, hi),
        ));
    }
    fig.note(format!(
        "DYNAMICS loss_pct_static={:.4} loss_pct_churn={:.4} dropped={}",
        static_rep.loss_pct, churn_rep.loss_pct, churn_m.dropped
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_degrades_under_the_burst_and_recovers_after() {
        let fig = dynamics(&Scale::tiny());
        let static_s = fig.series_named("static").unwrap();
        let churn_s = fig.series_named("churn").unwrap();
        assert_eq!(static_s.points.len(), churn_s.points.len());

        // 20 windows; the burst spans 30%..60% of the horizon, i.e.
        // window indices 6..12 exactly.
        assert_eq!(static_s.points.len(), 20);
        let mean = |s: &Series, lo: usize, hi: usize| {
            let pts = &s.points[lo..hi];
            pts.iter().map(|&(_, y)| y).sum::<f64>() / pts.len() as f64
        };
        let before_gap = mean(churn_s, 0, 6) - mean(static_s, 0, 6);
        let during_gap = mean(churn_s, 6, 12) - mean(static_s, 6, 12);
        let after_gap = mean(churn_s, 12, 20) - mean(static_s, 12, 20);
        assert!(before_gap.abs() < 1e-9, "identical runs before the burst, gap {before_gap}");
        assert!(during_gap > 1.0, "the burst must visibly cost fidelity, gap {during_gap}");
        assert!(
            after_gap < during_gap / 2.0,
            "fidelity must recover after the burst: during gap {during_gap}, after gap {after_gap}"
        );
    }

    #[test]
    fn machine_readable_line_present_and_ordered() {
        let fig = dynamics(&Scale::tiny());
        let line =
            fig.notes.iter().find(|n| n.starts_with("DYNAMICS ")).expect("DYNAMICS note present");
        assert!(line.contains("loss_pct_static="));
        assert!(line.contains("loss_pct_churn="));
        let get = |key: &str| -> f64 {
            line.split_whitespace().find_map(|tok| tok.strip_prefix(key)).unwrap().parse().unwrap()
        };
        assert!(
            get("loss_pct_churn=") > get("loss_pct_static="),
            "churn must lose more fidelity overall: {line}"
        );
    }
}
