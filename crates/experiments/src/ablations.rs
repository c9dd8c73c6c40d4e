//! Ablations of the reproduction's design choices.
//!
//! * [`f_sensitivity`] — the paper's footnote 1: fidelity is insensitive
//!   to the Eq.-2 constant `f` once `f ≥ 50` (the Eq. (2) decoding it
//!   exercises is written out in `d3t_core::coop`'s module docs).
//! * [`join_order_study`] — §5's observation that repositories with
//!   stringent coherency requirements should sit close to the source:
//!   LeLA join order is the mechanism that places them.
//! * [`protocol_fidelity`] — all three filters compared end to end, the
//!   naive one included, quantifying what ignoring Eq. (7) costs.

use d3t_core::dissemination::Protocol;
use d3t_core::lela::JoinOrder;
use d3t_sim::{RunReport, SimConfig};

use crate::figure::Figure;
use crate::scale::Scale;
use crate::sweep;

/// Eq.-2 constant sensitivity (paper footnote 1).
pub fn f_sensitivity(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "ablate-f",
        "Sensitivity of controlled cooperation to the Eq.(2) constant f (T = 50%)",
        "f",
        "loss of fidelity, %",
    );
    let fs = [10.0, 25.0, 50.0, 100.0, 200.0];
    let g = sweep::grid(&[()], &fs, |_, &coop_f| SimConfig {
        coop_res: scale.n_repos,
        controlled: true,
        coop_f,
        ..scale.base_config()
    });
    g.plot(&mut fig, ["T=50, controlled"], fs, RunReport::loss_pct);
    let degrees: Vec<String> = fs
        .iter()
        .zip(&g.reports[0])
        .map(|(f, r)| format!("f={f}->{}", r.coop_degree_used))
        .collect();
    fig.note(format!(
        "degrees chosen: {} (paper: f >= 50 keeps fidelity high; variation ~1%)",
        degrees.join(", ")
    ));
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
    let orders = [
        ("random", JoinOrder::Random),
        ("sequential", JoinOrder::Sequential),
        ("stringent-first", JoinOrder::StringentFirst),
    ];
    let g = sweep::grid(&[()], &orders, |_, &(_, join_order)| SimConfig {
        coop_res: 4,
        join_order,
        ..scale.base_config()
    });
    g.plot(&mut fig, ["T=50, degree 4"], [0.0, 1.0, 2.0], RunReport::loss_pct);
    let notes: Vec<String> = orders
        .iter()
        .zip(&g.reports[0])
        .map(|((label, _), r)| format!("{label}: loss {:.2}%", r.loss_pct()))
        .collect();
    fig.note(notes.join("; "));
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
    let protocols = [Protocol::Naive, Protocol::Distributed, Protocol::Centralized];
    let g = sweep::grid(&[()], &protocols, |_, &protocol| SimConfig {
        coop_res: 4,
        protocol,
        ..scale.base_config()
    });
    g.plot(&mut fig, ["loss"], [0.0, 1.0, 2.0], RunReport::loss_pct);
    let msgs: Vec<u64> = g.reports[0].iter().map(|r| r.metrics.messages).collect();
    fig.note(format!(
        "messages naive/distributed/centralized: {} / {} / {} — the naive filter sends \
         fewer updates and pays for it in missed-update violations",
        msgs[0], msgs[1], msgs[2]
    ));
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
