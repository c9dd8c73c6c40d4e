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
use d3t_sim::{RunReport, SimConfig};

use crate::figure::{degree_axis, Figure};
use crate::scale::Scale;
use crate::sweep;

/// Runs the Figure 8 comparison.
pub fn fig8(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "fig8",
        "Importance of Filtering during Update Propagation (T = 50%)",
        "degree",
        "loss of fidelity, %",
    );
    let series = [("All updates", Protocol::FloodAll), ("Filtered", Protocol::Distributed)];
    let degrees = scale.degree_grid();
    let g = sweep::grid(&series, &degrees, |&(_, protocol), &coop_res| SimConfig {
        coop_res,
        protocol,
        ..scale.base_config()
    });
    g.plot(&mut fig, series.map(|(l, _)| l), degree_axis(&degrees), RunReport::loss_pct);
    let messages_at_4 = |row: usize| {
        degrees.iter().position(|&d| d == 4).map_or(0, |x| g.reports[row][x].metrics.messages)
    };
    let (flood_msgs, filtered_msgs) = (messages_at_4(0), messages_at_4(1));
    fig.note(format!(
        "messages at degree 4: {flood_msgs} flooded vs {filtered_msgs} filtered \
         ({:.1}x reduction from coherency-based filtering)",
        flood_msgs as f64 / filtered_msgs.max(1) as f64
    ));
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
