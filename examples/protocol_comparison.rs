//! Compare the three dissemination filters on the same workload.
//!
//! ```text
//! cargo run --release --example protocol_comparison
//! ```
//!
//! Runs naive (Eq. 3 only), distributed (Eq. 3 ∨ Eq. 7) and centralized
//! (source-tagged) dissemination over an identical LeLA overlay and trace
//! ensemble, reporting fidelity, messages and checks — the §5/§6.3.4
//! trade-off in one table. The four cells differ only in the protocol,
//! which no build stage reads, so they run through one `SerialSweep`:
//! one build, four drives.

use d3t::core::dissemination::Protocol;
use d3t::experiments::sweep::SerialSweep;
use d3t::sim::SimConfig;

fn main() {
    let base = SimConfig::small_for_tests(40, 30, 2_000, 70.0);
    let mut sweep = SerialSweep::new();
    println!(
        "{:<14} {:>8} {:>10} {:>14} {:>12}",
        "protocol", "loss %", "messages", "source checks", "repo checks"
    );
    for (name, protocol) in [
        ("naive", Protocol::Naive),
        ("distributed", Protocol::Distributed),
        ("centralized", Protocol::Centralized),
        ("flood-all", Protocol::FloodAll),
    ] {
        let mut cfg = base.clone();
        cfg.protocol = protocol;
        let r = sweep.run(&cfg);
        println!(
            "{:<14} {:>8.2} {:>10} {:>14} {:>12}",
            name,
            r.loss_pct(),
            r.metrics.messages,
            r.metrics.source_checks,
            r.metrics.repo_checks
        );
    }
    println!("\n[{}]", sweep.counters());
    println!(
        "\nnaive sends the fewest messages but misses updates (Figure 4);\n\
         distributed and centralized deliver the same coherency, differing in\n\
         where the checking burden falls; flooding maximizes both overheads."
    );
}
