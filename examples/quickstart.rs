//! Quickstart: build the paper's system end to end and print the report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates 20 synthetic stock traces, a 210-node physical network with
//! 30 repositories, a LeLA dissemination graph at the Eq.(2)-controlled
//! degree of cooperation, runs the distributed dissemination protocol, and
//! prints fidelity and overhead numbers — then replays the same inputs
//! through the steppable [`Session`](d3t::sim::Session) API to show the
//! two surfaces are bit-identical. For mid-run dynamics
//! (`Session::inject`) and fault plans see `repro dynamics` and
//! `repro resilience` (`crates/experiments/src/{dynamics,resilience}.rs`).

use d3t::sim::{run, Prepared, SimConfig};

fn main() {
    let mut cfg = SimConfig::small_for_tests(30, 20, 2_000, 50.0);
    cfg.coop_res = 30; // offer plenty of resources...
    cfg.controlled = true; // ...but let Eq.(2) decide how many to use

    let report = run(&cfg);

    println!("d3t quickstart — {} repositories, {} items", cfg.n_repos, cfg.n_items);
    println!("  degree of cooperation (Eq. 2): {}", report.coop_degree_used);
    println!("  mean overlay delay:            {:.1} ms", report.mean_comm_delay_ms);
    println!(
        "  dissemination tree depth:      max {} / mean {:.1}",
        report.max_tree_depth, report.mean_tree_depth
    );
    println!("  loss of fidelity:              {:.2}%", report.loss_pct());
    println!("  fidelity:                      {:.2}%", report.fidelity.fidelity_pct());
    println!("  messages sent:                 {}", report.metrics.messages);
    println!(
        "  filter checks (source/repo):   {} / {}",
        report.metrics.source_checks, report.metrics.repo_checks
    );
    println!("  source updates considered:     {}", report.metrics.source_updates);

    assert!(report.loss_pct() < 50.0, "a controlled overlay should keep fidelity high");

    // The same prepared inputs, driven incrementally: run to half time,
    // peek at the live counters, then finish. A session with the default
    // no-op observer is bit-identical to the sealed run above.
    let prepared = Prepared::build(&cfg);
    let mut session = prepared.session();
    session.run_until(prepared.end_us / 2);
    println!(
        "  at half time:                  {} events done, {} messages, {} pending",
        session.metrics().events,
        session.metrics().messages,
        session.pending()
    );
    let (fidelity, metrics) = session.run_to_end();
    assert_eq!(fidelity, report.fidelity, "steppable and sealed runs agree bit-for-bit");
    assert_eq!(metrics, report.metrics);
    println!("  steppable rerun:               identical report, as guaranteed");
}
