//! Eq. (2) in action: how the controlled degree of cooperation adapts to
//! communication and computational delays, and what that buys.
//!
//! ```text
//! cargo run --release --example adaptive_degree
//! ```

use d3t::core::coop::{controlled_degree, CoopParams};
use d3t::experiments::sweep::SerialSweep;
use d3t::sim::SimConfig;

fn main() {
    println!("Eq.(2): coopDegree = min(coopRes, max(1, round((f/25) * comm/comp)))\n");
    println!("{:>10} {:>10} {:>8}", "comm ms", "comp ms", "degree");
    for (comm, comp) in [
        (5.0, 12.5),
        (25.0, 12.5),
        (75.0, 12.5),
        (125.0, 12.5),
        (25.0, 1.0),
        (25.0, 5.0),
        (25.0, 25.0),
    ] {
        let d = controlled_degree(CoopParams::new(comm, comp, 100));
        println!("{comm:>10.1} {comp:>10.1} {d:>8}");
    }

    println!("\nFixed large degree vs Eq.(2)-controlled, as computational delay grows:");
    println!(
        "{:>10} {:>16} {:>16} {:>10}",
        "comp ms", "fixed-32 loss %", "controlled loss %", "degree"
    );
    // One runner for the six cells: traces, network and workload are built
    // once, and each cell rebuilds only the overlay its degree asks for.
    let mut sweep = SerialSweep::new();
    for comp in [5.0, 12.5, 25.0] {
        let mut fixed = SimConfig::small_for_tests(40, 30, 1_500, 80.0);
        fixed.coop_res = 32;
        fixed.comp_delay_ms = comp;
        let fixed_report = sweep.run(&fixed);

        let mut ctrl = fixed.clone();
        ctrl.controlled = true;
        let ctrl_report = sweep.run(&ctrl);

        println!(
            "{comp:>10.1} {:>16.2} {:>16.2} {:>10}",
            fixed_report.loss_pct(),
            ctrl_report.loss_pct(),
            ctrl_report.coop_degree_used
        );
    }
    println!(
        "\nAdapting the fan-out to the delay regime is what flattens the paper's\nFigure-7 curves."
    );
}
