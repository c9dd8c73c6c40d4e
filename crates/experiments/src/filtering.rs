//! Figure 8 — the importance of filtering during update propagation.
//!
//! The paper compares a system that disseminates *every* update to every
//! interested repository against one that forwards only updates needed to
//! meet the coherency tolerances. We run both on the same `T = 50%`
//! workload: the "all updates" series uses the [`Protocol::FloodAll`]
//! policy, the "filtered" series the distributed protocol. (The paper
//! emulated flooding with an all-stringent `T = 100%` workload; a real
//! flood switch makes the comparison at matched workloads, which is
//! strictly fairer to the flooding side.)

use d3t_core::dissemination::Protocol;

use crate::figure::{Figure, Series};
use crate::scale::Scale;
use crate::sweep::SerialSweep;

/// Runs the Figure 8 comparison.
pub fn fig8(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "fig8",
        "Importance of Filtering during Update Propagation (T = 50%)",
        "degree",
        "loss of fidelity, %",
    );
    let mut sweep = SerialSweep::new();
    let mut flood_msgs = 0u64;
    let mut filtered_msgs = 0u64;
    for (label, protocol) in
        [("All updates", Protocol::FloodAll), ("Filtered", Protocol::Distributed)]
    {
        let mut points = Vec::new();
        for &d in &scale.degree_grid() {
            let mut cfg = scale.base_config();
            cfg.coop_res = d;
            cfg.protocol = protocol;
            let r = sweep.run(&cfg);
            points.push((d as f64, r.loss_pct()));
            if d == 4 {
                match protocol {
                    Protocol::FloodAll => flood_msgs = r.metrics.messages,
                    _ => filtered_msgs = r.metrics.messages,
                }
            }
        }
        fig.push_series(Series::new(label, points));
    }
    fig.note(format!(
        "messages at degree 4: {flood_msgs} flooded vs {filtered_msgs} filtered \
         ({:.1}x reduction from coherency-based filtering)",
        flood_msgs as f64 / filtered_msgs.max(1) as f64
    ));
    fig.sweep = Some(sweep.counters());
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtering_never_loses_to_flooding() {
        let mut scale = Scale::tiny();
        scale.n_ticks = 300;
        let fig = fig8(&scale);
        let flood = fig.series_named("All updates").unwrap();
        let filt = fig.series_named("Filtered").unwrap();
        for (&(x, fy), &(_, gy)) in flood.points.iter().zip(&filt.points) {
            assert!(gy <= fy + 1.0, "filtered worse than flood at degree {x}: {gy} vs {fy}");
        }
    }
}
