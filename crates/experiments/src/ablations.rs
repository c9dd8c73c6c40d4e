//! Ablations of design choices DESIGN.md calls out.
//!
//! * [`f_sensitivity`] — the paper's footnote 1: fidelity is insensitive
//!   to the Eq.-2 constant `f` once `f ≥ 50`.
//! * [`join_order_study`] — §5's observation that repositories with
//!   stringent coherency requirements should sit close to the source:
//!   LeLA join order is the mechanism that places them.
//! * [`protocol_fidelity`] — all three filters compared end to end, the
//!   naive one included, quantifying what ignoring Eq. (7) costs.

use d3t_core::dissemination::Protocol;
use d3t_core::lela::JoinOrder;

use crate::figure::{Figure, Series};
use crate::scale::Scale;
use crate::sweep::SerialSweep;

/// Eq.-2 constant sensitivity (paper footnote 1).
pub fn f_sensitivity(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "ablate-f",
        "Sensitivity of controlled cooperation to the Eq.(2) constant f (T = 50%)",
        "f",
        "loss of fidelity, %",
    );
    let mut sweep = SerialSweep::new();
    let mut points = Vec::new();
    let mut degrees = Vec::new();
    for f in [10.0, 25.0, 50.0, 100.0, 200.0] {
        let mut cfg = scale.base_config();
        cfg.coop_res = scale.n_repos;
        cfg.controlled = true;
        cfg.coop_f = f;
        let r = sweep.run(&cfg);
        points.push((f, r.loss_pct()));
        degrees.push((f, r.coop_degree_used));
    }
    fig.push_series(Series::new("T=50, controlled", points));
    fig.note(format!(
        "degrees chosen: {} (paper: f >= 50 keeps fidelity high; variation ~1%)",
        degrees.iter().map(|(f, d)| format!("f={f}->{d}")).collect::<Vec<_>>().join(", ")
    ));
    fig.sweep = Some(sweep.counters());
    fig
}

/// LeLA join-order ablation at the paper's base degree.
pub fn join_order_study(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "ablate-join",
        "LeLA join order: who ends up near the source (T = 50%, degree 4)",
        "order (0=random 1=sequential 2=stringent-first)",
        "loss of fidelity, %",
    );
    let mut sweep = SerialSweep::new();
    let mut points = Vec::new();
    let mut notes = Vec::new();
    for (i, (label, order)) in [
        ("random", JoinOrder::Random),
        ("sequential", JoinOrder::Sequential),
        ("stringent-first", JoinOrder::StringentFirst),
    ]
    .into_iter()
    .enumerate()
    {
        let mut cfg = scale.base_config();
        cfg.coop_res = 4;
        cfg.join_order = order;
        let r = sweep.run(&cfg);
        points.push((i as f64, r.loss_pct()));
        notes.push(format!("{label}: loss {:.2}%", r.loss_pct()));
    }
    fig.push_series(Series::new("T=50, degree 4", points));
    fig.note(notes.join("; "));
    fig.sweep = Some(sweep.counters());
    fig
}

/// End-to-end fidelity of the three protocols at the base configuration —
/// quantifies the missed-update cost of the naive filter.
pub fn protocol_fidelity(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "ablate-protocols",
        "Protocol fidelity at the base configuration (degree 4, T = 50%)",
        "0=naive 1=distributed 2=centralized",
        "loss of fidelity, %",
    );
    let mut sweep = SerialSweep::new();
    let mut points = Vec::new();
    let mut msgs = Vec::new();
    for (i, protocol) in
        [Protocol::Naive, Protocol::Distributed, Protocol::Centralized].into_iter().enumerate()
    {
        let mut cfg = scale.base_config();
        cfg.coop_res = 4;
        cfg.protocol = protocol;
        let r = sweep.run(&cfg);
        points.push((i as f64, r.loss_pct()));
        msgs.push(r.metrics.messages);
    }
    fig.push_series(Series::new("loss", points));
    fig.note(format!(
        "messages naive/distributed/centralized: {} / {} / {} — the naive filter sends \
         fewer updates and pays for it in missed-update violations",
        msgs[0], msgs[1], msgs[2]
    ));
    fig.sweep = Some(sweep.counters());
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_never_beats_distributed_on_fidelity() {
        let mut scale = Scale::tiny();
        scale.n_ticks = 300;
        let fig = protocol_fidelity(&scale);
        let s = &fig.series[0];
        let naive = s.y_at(0.0).unwrap();
        let dist = s.y_at(1.0).unwrap();
        assert!(dist <= naive + 1e-9, "distributed {dist} worse than naive {naive}");
    }
}
