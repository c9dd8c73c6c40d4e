//! What-if fan-out from a warm snapshot: amortize one shared prefix
//! across N divergent futures.
//!
//! Capacity planning asks branching questions — *what if 20% of the
//! fleet fails at peak? what if users tighten their tolerances? what
//! if a loss window opens?* — whose answers share everything up to the
//! decision instant. Cold sweeps re-simulate that shared prefix once
//! per scenario. This driver simulates it **once**, captures a
//! [`Snapshot`](d3t_sim::Snapshot) at the fork, and resumes every
//! branch from the warm state; each branch's run-to-end is
//! bit-identical to its cold twin (the `equal=` field on every
//! `WHATIF` line is an always-on CI gate, compared via the shared
//! FNV-1a report digest), so what branching saves is pure
//! amortization, never approximation.
//!
//! The trail `repro whatif` prints, greppable by `ci.sh`:
//!
//! ```text
//! WHATIF branch=failure-burst-1 loss_pct=… report_hash=0x… equal=true
//! SNAPSHOT bytes=… pending_events=… digest=0x…
//! ```
//!
//! What the fan-out saves is measured by `d3t-bench` on `whatif-600r`
//! (`wall_s`, `snapshot.amortization_x`, `snapshot.capture_s`,
//! `snapshot.restore_s`), not here.

use d3t_core::coherency::Coherency;
use d3t_core::digest::debug_hash;
use d3t_sim::{
    CrashSpec, DegradeWindow, Dynamic, EventKind, EventQueue, FaultPlan, LossWindow, Observer,
    Prepared, RepairPolicy, RepairSpec, Session,
};

use crate::scale::Scale;
use crate::sweep;

/// What a branch does to its session at the fork instant. Fault plans
/// are *adopted* (compiled against the branched overlay, with any
/// already-due controls fired — none, for strictly-post-fork
/// scenarios); dynamics are injected at `now_us = fork_us` exactly as
/// a cold driver would after `run_until(fork_us)`.
enum Action {
    /// The control branch: no divergence, pure resume.
    Baseline,
    /// A declarative seeded fault scenario, events strictly post-fork.
    Plan(FaultPlan),
    /// Mid-run dynamics applied at the fork instant.
    Inject(Vec<Dynamic>),
}

struct Branch {
    name: String,
    action: Action,
}

/// One branch's outcome: the report digests of both drives of the same
/// scenario — cold (fresh session, full prefix, then the scenario) and
/// warm (restore from the shared snapshot, then the scenario).
#[derive(Debug, Clone)]
pub struct WhatIfCell {
    /// Scenario label (template name + branch index).
    pub name: String,
    /// Overall loss of fidelity the branch ends with (%).
    pub loss_pct: f64,
    /// FNV-1a digest of the cold drive's `(fidelity, metrics)` report.
    pub cold_hash: u64,
    /// FNV-1a digest of the warm drive's report.
    pub warm_hash: u64,
}

impl WhatIfCell {
    /// The per-branch correctness gate: warm equals cold, bit for bit.
    pub fn equal(&self) -> bool {
        self.warm_hash == self.cold_hash
    }

    /// The greppable `WHATIF` line.
    pub fn machine_line(&self) -> String {
        format!(
            "WHATIF branch={} loss_pct={:.4} report_hash={:#018x} equal={}",
            self.name,
            self.loss_pct,
            self.warm_hash,
            self.equal(),
        )
    }
}

/// The full fan-out: the shared snapshot plus every branch cell.
#[derive(Debug, Clone)]
pub struct WhatIfReport {
    /// Captured snapshot size (bytes).
    pub snapshot_bytes: u64,
    /// Arrivals in flight in the snapshot at the fork.
    pub pending_events: usize,
    /// `state_digest` of the restored fork state — the O(1) divergence
    /// oracle for anyone re-deriving this fork.
    pub state_digest: u64,
    /// Per-branch outcomes, in branch order.
    pub cells: Vec<WhatIfCell>,
}

impl WhatIfReport {
    /// The greppable `SNAPSHOT` line.
    pub fn snapshot_line(&self) -> String {
        format!(
            "SNAPSHOT bytes={} pending_events={} digest={:#018x}",
            self.snapshot_bytes, self.pending_events, self.state_digest,
        )
    }
}

/// Builds `n` branches by cycling the scenario templates, each
/// instance re-seeded and re-targeted by its index so repeats diverge.
fn branches(prepared: &Prepared, fork_us: u64, n: usize) -> Vec<Branch> {
    let end_us = prepared.end_us;
    let n_repos = prepared.config().n_repos;
    let n_items = prepared.config().n_items;
    // Backoff saturates at 20 s: against a permanent crash a 300 ms cap
    // would retry the dead repo thousands of times over the remaining
    // horizon, turning every failure branch into a control-event storm
    // that measures the repair scheduler rather than the scenario.
    let repair = RepairSpec {
        policy: RepairPolicy::Reparent,
        detect_timeout_us: 150_000,
        base_backoff_us: 100_000,
        max_backoff_us: 20_000_000,
    };
    (0..n)
        .map(|idx| {
            let i = idx as u64;
            match idx % 5 {
                0 => Branch { name: format!("baseline-{idx}"), action: Action::Baseline },
                1 => {
                    // A failure burst shortly after the fork: a handful
                    // of spread-out repositories crash for good and the
                    // overlay re-parents around them. Victims and burst
                    // instant rotate with the branch index so repeated
                    // instances are genuinely different futures.
                    // Skip the first repositories: they sit near the
                    // overlay root, and losing a hub turns the branch
                    // into a full-tree repair storm that would swamp
                    // the amortization signal all branches share.
                    let stride = (n_repos / 5).max(1);
                    let crashes = (0..n_repos)
                        .skip(1 + (1 + idx) % stride.max(2))
                        .step_by(stride)
                        .map(|repo| CrashSpec {
                            repo,
                            at_us: fork_us + end_us / 20 + i * 3_000 + (repo as u64) * 500,
                            recover_at_us: None,
                            subtree: false,
                        })
                        .collect();
                    let plan =
                        FaultPlan { crashes, repair, seed: 0xB1A5 ^ i, ..Default::default() };
                    Branch { name: format!("failure-burst-{idx}"), action: Action::Plan(plan) }
                }
                2 => {
                    // Crash/recover churn: a few staggered outages that
                    // all resolve well before the horizon.
                    let stride = (n_repos / 6).max(1);
                    let crashes = (0..n_repos)
                        .skip(1 + idx % stride.max(2))
                        .step_by(stride)
                        .enumerate()
                        .map(|(k, repo)| CrashSpec {
                            repo,
                            at_us: fork_us + end_us / 10 + i * 2_000 + (k as u64) * 5_000,
                            recover_at_us: Some(fork_us + end_us / 6 + (k as u64) * 7_000),
                            subtree: false,
                        })
                        .collect();
                    let plan =
                        FaultPlan { crashes, repair, seed: 0xC1C1 ^ i, ..Default::default() };
                    Branch { name: format!("churn-storm-{idx}"), action: Action::Plan(plan) }
                }
                3 => {
                    // A lossy, degraded network window opening shortly
                    // after the fork.
                    let from_us = fork_us + end_us / 20 + i * 2_000;
                    let to_us = from_us + end_us / 6;
                    let plan = FaultPlan {
                        loss: vec![LossWindow { prob: 0.2, from_us, to_us }],
                        degrade: vec![DegradeWindow {
                            from_us,
                            to_us,
                            min_extra_ms: 2.0,
                            mean_extra_ms: 8.0,
                        }],
                        seed: 0x1055 ^ i,
                        ..Default::default()
                    };
                    Branch { name: format!("loss-window-{idx}"), action: Action::Plan(plan) }
                }
                _ => {
                    // A renegotiation storm: every fourth repository
                    // halves the tolerance of its first measured item
                    // at the fork instant.
                    let workload = &prepared.workload;
                    let mut dynamics = Vec::new();
                    for repo in (0..n_repos).skip(idx % 4).step_by(4) {
                        for item in 0..n_items {
                            let item = d3t_core::item::ItemId(item as u32);
                            if let Some(c) = workload.need(repo, item) {
                                dynamics.push(Dynamic::SetTolerance {
                                    repo,
                                    item,
                                    c: Coherency::new(c.value() * 0.5),
                                });
                                break;
                            }
                        }
                    }
                    Branch { name: format!("renegotiate-{idx}"), action: Action::Inject(dynamics) }
                }
            }
        })
        .collect()
}

/// Applies a branch's divergence to a session sitting at the fork.
fn apply<Q: EventQueue<EventKind>, O: Observer>(session: &mut Session<Q, O>, action: &Action) {
    match action {
        Action::Baseline => {}
        Action::Plan(plan) => session.adopt_fault_plan(plan),
        Action::Inject(dynamics) => {
            for d in dynamics {
                session.inject(*d).expect("branch dynamics target measured pairs");
            }
        }
    }
}

/// Runs the what-if fan-out: one shared prefix to `end_us / 2`, one
/// snapshot, then `n_branches` scenario branches — each driven both
/// cold (fresh session, full prefix) and warm (resume from the shared
/// snapshot) over the parallel sweep runner, digests compared.
pub fn whatif_report(scale: &Scale, n_branches: usize) -> WhatIfReport {
    let prepared = scale.prepared();
    let fork_us = prepared.end_us / 2;

    let mut prefix = prepared.session();
    prefix.run_until(fork_us);
    let snap = prefix.snapshot();
    let state_digest = prepared.resume(&snap).state_digest();

    let cells = sweep::par_map(branches(&prepared, fork_us, n_branches), |b| {
        let mut cold = prepared.session();
        cold.run_until(fork_us);
        apply(&mut cold, &b.action);
        let cold_out = cold.run_to_end();

        let mut warm = prepared.resume(&snap);
        apply(&mut warm, &b.action);
        let warm_out = warm.run_to_end();

        WhatIfCell {
            name: b.name,
            loss_pct: warm_out.0.loss_pct,
            cold_hash: debug_hash(&cold_out),
            warm_hash: debug_hash(&warm_out),
        }
    });

    WhatIfReport {
        snapshot_bytes: snap.size_bytes() as u64,
        pending_events: snap.pending_events(),
        state_digest,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> WhatIfReport {
        whatif_report(&Scale::tiny(), 5)
    }

    #[test]
    fn every_branch_is_bit_identical_warm_vs_cold() {
        let rep = report();
        assert_eq!(rep.cells.len(), 5);
        for c in &rep.cells {
            assert!(c.equal(), "{}: warm {:#x} != cold {:#x}", c.name, c.warm_hash, c.cold_hash);
        }
    }

    #[test]
    fn scenarios_actually_diverge_from_the_baseline() {
        let rep = report();
        let baseline = &rep.cells[0];
        assert!(baseline.name.starts_with("baseline"));
        // Every non-baseline template must change the outcome — a
        // branch that matches the baseline report simulated nothing.
        for c in &rep.cells[1..] {
            assert_ne!(
                c.warm_hash, baseline.warm_hash,
                "{} did not diverge from the baseline",
                c.name
            );
        }
    }

    #[test]
    fn snapshot_telemetry_is_populated() {
        let rep = report();
        assert!(rep.snapshot_bytes > 0);
        assert!(rep.state_digest != 0);
        let line = rep.snapshot_line();
        assert!(line.starts_with("SNAPSHOT bytes=") && line.contains("digest=0x"));
        for c in &rep.cells {
            assert!(c.machine_line().starts_with("WHATIF branch="));
        }
    }
}
