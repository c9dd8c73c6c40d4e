//! What-if capacity planning from a warm snapshot: simulate the shared
//! prefix once, then branch divergent futures from the fork instant
//! instead of re-simulating from t = 0 per scenario.
//!
//! ```text
//! cargo run --release --example whatif
//! ```
//!
//! The planning question: *if 20% of the fleet fail-stops at peak, does
//! the surviving overlay hold fidelity?* The answer needs two runs that
//! agree on everything up to the peak — a baseline and a burst branch.
//! This demo drives the common prefix to the half-run fork exactly once,
//! captures a [`Snapshot`] there (milliseconds, a few hundred KiB at
//! paper-ish scale), and resumes both branches warm. Each branch's
//! run-to-end is bit-identical to a cold run of the same scenario — the
//! snapshot contract property-tested in `tests/snapshot_properties.rs` —
//! so branching buys wall time, never accuracy.
//!
//! Each resumed branch collects its own [`WindowedFidelity`] series; the
//! table prints them side by side from the fork on, with the burst
//! window marked. The closing lines report the amortization arithmetic
//! for this 2-branch fan-out and where it goes as branches are added
//! (`repro whatif --branches 8` prints the measured 8-branch figure;
//! `d3t-bench` tracks it as `snapshot.amortization_x` on `whatif-600r`).

use std::time::Instant;

use d3t::sim::{
    CalendarQueue, CrashSpec, EventKind, FaultPlan, Prepared, RepairPolicy, RepairSpec, SimConfig,
    WindowedFidelity,
};

fn main() {
    let mut cfg = SimConfig::small_for_tests(30, 20, 2_000, 50.0);
    cfg.coop_res = 4;
    let prepared = Prepared::build(&cfg);
    let end_us = prepared.end_us;
    let fork_us = end_us / 2;
    let window_us = end_us / 20;
    let n_pairs = prepared.n_measured_pairs();

    // The shared prefix, simulated exactly once.
    let t0 = Instant::now();
    let mut prefix = prepared.session();
    prefix.run_until(fork_us);
    let prefix_wall_us = t0.elapsed().as_micros() as u64;
    let t0 = Instant::now();
    let snap = prefix.snapshot();
    let capture_us = t0.elapsed().as_micros() as u64;
    println!(
        "shared prefix simulated once to t={:.0}s in {:.1}ms; snapshot captured in {}µs \
         ({:.0} KiB, {} in-flight events)",
        fork_us as f64 / 1e6,
        prefix_wall_us as f64 / 1e3,
        capture_us,
        snap.size_bytes() as f64 / 1024.0,
        snap.pending_events(),
    );

    // 20% of the fleet fail-stops shortly after the fork, permanently;
    // survivors re-home via self-healing re-parenting. Backoff saturates
    // high because the victims never come back.
    let victims: Vec<usize> = (0..cfg.n_repos).step_by(5).collect();
    let burst_us = fork_us + end_us / 50;
    let plan = FaultPlan {
        crashes: victims
            .iter()
            .map(|&repo| CrashSpec { repo, at_us: burst_us, recover_at_us: None, subtree: false })
            .collect(),
        repair: RepairSpec {
            policy: RepairPolicy::Reparent,
            detect_timeout_us: 150_000,
            base_backoff_us: 100_000,
            max_backoff_us: 20_000_000,
        },
        seed: 0x20FF,
        ..FaultPlan::default()
    };

    // Both branches resume from the same warm snapshot; only the burst
    // branch adopts the fault plan (all its events are post-fork, so it
    // is bit-identical to a cold run carrying the plan from t = 0).
    let run_branch = |plan: Option<&FaultPlan>| {
        let t0 = Instant::now();
        let mut s = prepared.resume_with::<CalendarQueue<EventKind>, _>(
            &snap,
            WindowedFidelity::new(window_us, n_pairs),
        );
        if let Some(plan) = plan {
            s.adopt_fault_plan(plan);
        }
        let (report, metrics, obs) = s.finish();
        (report, metrics, obs, t0.elapsed().as_micros() as u64)
    };
    let (base_rep, _, base_obs, base_wall_us) = run_branch(None);
    let (burst_rep, burst_m, burst_obs, burst_wall_us) = run_branch(Some(&plan));

    println!(
        "\nbranched at peak: {} of {} repositories fail-stop at t={:.0}s \
         ({} subscriptions re-homed by repair)",
        victims.len(),
        cfg.n_repos,
        burst_us as f64 / 1e6,
        burst_m.reparented,
    );
    println!("\n  window      baseline %   20% burst %");
    for (b, f) in base_obs.series().iter().zip(burst_obs.series().iter()) {
        if (b.0 * 1e6) < fork_us as f64 {
            continue; // identical shared prefix
        }
        let mark = if b.0 * 1e6 >= burst_us as f64 { "  ◀ victims down" } else { "" };
        println!("  {:>6.0}s    {:>9.2}    {:>9.2}{}", b.0, b.1, f.1, mark);
    }
    println!(
        "\noverall loss of fidelity: baseline {:.2}%, burst {:.2}%",
        base_rep.loss_pct, burst_rep.loss_pct
    );
    assert!(burst_rep.loss_pct > base_rep.loss_pct, "losing 20% of the fleet must cost fidelity");

    // The amortization arithmetic for this fan-out: cold, each branch
    // would re-simulate the prefix; warm, the prefix is paid once.
    let cold_us = 2 * prefix_wall_us + base_wall_us + burst_wall_us;
    let warm_us = prefix_wall_us + capture_us + base_wall_us + burst_wall_us;
    println!(
        "\n2 branches: cold ≈ {:.1}ms, warm = {:.1}ms ({:.2}×); every added branch saves \
         another prefix re-simulation ({:.1}ms)",
        cold_us as f64 / 1e3,
        warm_us as f64 / 1e3,
        cold_us as f64 / warm_us as f64,
        prefix_wall_us as f64 / 1e3,
    );
}
