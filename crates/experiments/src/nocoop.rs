//! Figures 5 and 6 — performance in the absence of cooperation.
//!
//! The source serves every repository directly (a flat, one-level d3t).
//! Figure 5 sweeps the average communication delay, Figure 6 the
//! per-dependent computational delay. The paper's conclusion: without
//! cooperation the loss is dominated by computational queueing at the
//! source — raising communication delays barely moves the curves, raising
//! computational delays wrecks them, especially at stringent `T`.

use d3t_sim::{RunReport, SimConfig, TreeStrategy};

use crate::figure::{t_label, Figure};
use crate::scale::Scale;
use crate::sweep;

/// Communication-delay grid of Figure 5 (ms).
pub const COMM_GRID: [f64; 6] = [5.0, 25.0, 50.0, 75.0, 100.0, 125.0];

/// Computational-delay grid of Figure 6 (ms).
pub const COMP_GRID: [f64; 6] = [1.0, 5.0, 10.0, 12.5, 20.0, 25.0];

/// Figure 5: no cooperation, varying communication delays.
pub fn fig5(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "fig5",
        "Performance without Cooperation, varying Communication Delays",
        "comm delay ms",
        "loss of fidelity, %",
    );
    let ts = scale.t_grid();
    let g = sweep::grid(&ts, &COMM_GRID, |&t_stringent_pct, &comm| SimConfig {
        t_stringent_pct,
        tree: TreeStrategy::Flat,
        target_mean_comm_delay_ms: Some(comm),
        ..scale.base_config()
    });
    g.plot(&mut fig, ts.iter().map(t_label), COMM_GRID, RunReport::loss_pct);
    fig.note(
        "flat curves: with direct dissemination the loss comes from source \
         computation, not the network (paper §6.3.2)",
    );
    fig
}

/// Figure 6: no cooperation, varying computational delays.
pub fn fig6(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "fig6",
        "Performance without Cooperation, varying Computation Delays",
        "comp delay ms",
        "loss of fidelity, %",
    );
    let ts = scale.t_grid();
    let g = sweep::grid(&ts, &COMP_GRID, |&t_stringent_pct, &comp_delay_ms| SimConfig {
        t_stringent_pct,
        tree: TreeStrategy::Flat,
        comp_delay_ms,
        ..scale.base_config()
    });
    g.plot(&mut fig, ts.iter().map(t_label), COMP_GRID, RunReport::loss_pct);
    fig.note("loss worsens with computational delay, most for stringent T (paper §6.3.2)");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_tiny_loss_monotone_in_comp_delay_for_stringent_t() {
        let mut scale = Scale::tiny();
        scale.n_ticks = 300;
        let fig = fig6(&scale);
        let s = fig.series_named("T=100").unwrap();
        let first = s.points.first().unwrap().1;
        let last = s.points.last().unwrap().1;
        assert!(last >= first, "loss should not improve with slower CPUs: {first} -> {last}");
    }
}
