//! Figure 4 (missed-updates narrative) and Figure 11 (centralized vs
//! distributed dissemination overheads).

use d3t_core::coherency::Coherency;
use d3t_core::dissemination::{Disseminator, Protocol};
use d3t_core::graph::D3g;
use d3t_core::item::ItemId;
use d3t_core::overlay::{NodeIdx, SOURCE};
use d3t_sim::{RunReport, SimConfig};

use crate::figure::Figure;
use crate::scale::Scale;
use crate::sweep;

/// Figure 4: replays the paper's worked example (S → P at c=0.3 → Q at
/// c=0.5; source values 1.0, 1.2, 1.4, 1.5, 1.7, 2.0) under the naive and
/// distributed filters, returning a textual narrative.
pub fn fig4() -> String {
    use std::fmt::Write as _;
    let c = Coherency::new;
    let mut g = D3g::new(2, 1);
    let (p, q) = (NodeIdx::repo(0), NodeIdx::repo(1));
    g.add_edge(SOURCE, p, ItemId(0), c(0.3));
    g.add_edge(p, q, ItemId(0), c(0.5));
    let values = [1.2, 1.4, 1.5, 1.7, 2.0];

    let mut out = String::new();
    let _ = writeln!(out, "== fig4 — Need for Careful Dissemination of Changes ==");
    let _ = writeln!(out, "   S -> P (c_p=0.3) -> Q (c_q=0.5); source: 1.0 {values:?}");
    for protocol in [Protocol::Naive, Protocol::Distributed] {
        let mut d = Disseminator::new(protocol, &g, &[1.0]);
        let _ = writeln!(out, "   {protocol:?}:");
        for v in values {
            let out_src = d.run_zero_delay(&g, [(ItemId(0), v)]);
            let _ = writeln!(
                out,
                "     S={v:<4} P={:<4} Q={:<4} {}",
                d.value_at(p, ItemId(0)),
                d.value_at(q, ItemId(0)),
                if out_src.violations.is_empty() {
                    "ok".to_string()
                } else {
                    format!("VIOLATION at Q (|{v} - {}| > 0.5)", d.value_at(q, ItemId(0)))
                }
            );
        }
    }
    let _ = writeln!(
        out,
        "   naive (Eq.3 only) strands Q at 1.0 when the source reaches 1.7; the\n   \
         distributed filter (Eq.3 or Eq.7) pushes the 1.4 'rescue' update instead."
    );
    out
}

/// Figure 11: number of server checks (a) and messages (b) for the
/// centralized vs distributed approaches on the base configuration.
///
/// The x-axis is a category index: 0 = centralized, 1 = distributed.
pub fn fig11(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "fig11",
        "Comparing Centralized and Distributed Data Dissemination (base config, degree 4)",
        "0=centralized 1=distributed",
        "counts",
    );
    let protocols = [Protocol::Centralized, Protocol::Distributed];
    let g = sweep::grid(&[()], &protocols, |_, &protocol| SimConfig {
        coop_res: 4,
        protocol,
        ..scale.base_config()
    });
    // One row, plotted once per count.
    let xs = [0.0, 1.0];
    g.plot(&mut fig, ["source checks"], xs, |r| r.metrics.source_checks as f64);
    g.plot(&mut fig, ["total checks"], xs, |r| r.metrics.total_checks() as f64);
    g.plot(&mut fig, ["messages"], xs, |r| r.metrics.messages as f64);
    g.plot(&mut fig, ["loss %"], xs, RunReport::loss_pct);
    let (c, d) = (&g.reports[0][0], &g.reports[0][1]);
    fig.note(format!(
        "centralized source does {:.0}% more checks than distributed \
         (paper: nearly 50% more)",
        (c.metrics.source_checks as f64 / d.metrics.source_checks.max(1) as f64 - 1.0) * 100.0
    ));
    fig.note(format!(
        "messages: centralized {} vs distributed {} (paper: equal counts)",
        c.metrics.messages, d.metrics.messages
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_narrative_shows_violation_then_rescue() {
        let text = fig4();
        assert!(text.contains("VIOLATION at Q"));
        assert!(text.contains("Naive"));
        assert!(text.contains("Distributed"));
        // The distributed section must be violation-free.
        let dist_part = text.split("Distributed:").nth(1).unwrap();
        assert!(!dist_part.contains("VIOLATION"));
    }

    #[test]
    fn fig11_centralized_checks_exceed_distributed() {
        let mut scale = Scale::tiny();
        scale.n_ticks = 300;
        let fig = fig11(&scale);
        let checks = fig.series_named("source checks").unwrap();
        let central = checks.y_at(0.0).unwrap();
        let dist = checks.y_at(1.0).unwrap();
        assert!(central > dist, "centralized {central} <= distributed {dist}");
    }
}
