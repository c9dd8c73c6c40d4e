//! Resilience: post-burst fidelity under self-healing vs passive repair.
//!
//! The robustness sweep of the fault model (`d3t_sim::fault`): a
//! correlated crash burst takes out the busiest relay repositories **for
//! good** at 30% of the horizon, optionally under a per-link loss window,
//! and the run is repeated per [`RepairPolicy`] over identical prepared
//! inputs. Under `Reparent` the orphaned dependents detect the silence
//! and re-home onto surviving ancestors, so the service the overlay still
//! owes recovers; under `None` the orphaned subtrees starve until the end
//! of the run.
//!
//! Fidelity is measured over **survivors only**: the crashed victims' own
//! `(repo, item)` pairs are censored from the windowed series (they are
//! dead by design — no policy can serve them), so the post-burst numbers
//! compare what re-parenting actually buys. The sweep grid is burst size
//! × loss rate × repair policy; every faulted cell emits one
//! machine-readable note line CI tracks:
//!
//! ```text
//! RESILIENCE burst=4 loss_rate=0.10 policy=reparent loss_pct=… post_loss_pct=… \
//!   baseline_post_loss_pct=… mttr_ms=… fault_window_loss_pct=… retransmits=… reparented=… lost=…
//! ```

use d3t_core::item::ItemId;
use d3t_core::overlay::NodeIdx;
use d3t_sim::{
    CrashSpec, FaultMonitor, FaultPlan, LossWindow, Observer, Prepared, RepairPolicy, RepairSpec,
    WindowedFidelity,
};

use crate::figure::{Figure, Series};
use crate::scale::Scale;

/// Windows per run in the time series.
const N_WINDOWS: u64 = 20;

/// Fraction of the horizon at which the burst strikes.
const CRASH_AT: (u64, u64) = (3, 10);

/// Fraction of the horizon after which the run counts as "post-burst":
/// detection, staggered re-parenting, and the violation intervals opened
/// by the burst have all had time to settle.
const POST_AT: (u64, u64) = (5, 10);

/// Loss-window probabilities swept (0 isolates the crash/repair effect).
const LOSS_RATES: [f64; 2] = [0.0, 0.10];

/// One cell of the sweep, with everything the machine line reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceCell {
    /// Repositories crashed (permanently) at the burst instant.
    pub burst: usize,
    /// Per-message loss probability from the burst to the end of the run.
    pub loss_rate: f64,
    /// Repair policy in force.
    pub policy: RepairPolicy,
    /// Whole-run loss of fidelity over *all* measured pairs, percent
    /// (victims included — the headline cost of the scenario).
    pub loss_pct: f64,
    /// Post-burst windowed loss over surviving pairs, percent.
    pub post_loss_pct: f64,
    /// The same post-burst survivor loss for the fault-free baseline.
    pub baseline_post_loss_pct: f64,
    /// Mean time-to-repair across crash incidents, ms (end of run when
    /// nothing repaired a victim's dependents).
    pub mttr_ms: f64,
    /// Loss of fidelity restricted to fault windows, percent.
    pub fault_window_loss_pct: f64,
    /// Send attempts destroyed by the loss window.
    pub lost: u64,
    /// Retransmissions attempted after losses.
    pub retransmits: u64,
    /// Dependent subscriptions re-homed away from dead parents.
    pub reparented: u64,
}

impl ResilienceCell {
    /// How far post-burst survivor fidelity sits above the fault-free
    /// baseline, percentage points.
    pub fn post_gap_pct(&self) -> f64 {
        self.post_loss_pct - self.baseline_post_loss_pct
    }

    /// The greppable CI line (`RESILIENCE …`), one per faulted cell.
    pub fn machine_line(&self) -> String {
        format!(
            "RESILIENCE burst={} loss_rate={:.2} policy={} loss_pct={:.4} \
             post_loss_pct={:.4} baseline_post_loss_pct={:.4} mttr_ms={:.1} \
             fault_window_loss_pct={:.4} retransmits={} reparented={} lost={}",
            self.burst,
            self.loss_rate,
            policy_name(self.policy),
            self.loss_pct,
            self.post_loss_pct,
            self.baseline_post_loss_pct,
            self.mttr_ms,
            self.fault_window_loss_pct,
            self.retransmits,
            self.reparented,
            self.lost,
        )
    }
}

/// The figure plus the raw sweep cells (for `repro resilience` and the
/// acceptance assertions).
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Time-series figure: baseline vs both policies at the heaviest
    /// loss-free burst.
    pub fig: Figure,
    /// Every faulted cell, in sweep order (burst, then loss, then policy).
    pub cells: Vec<ResilienceCell>,
}

/// Stable display name for a policy.
pub fn policy_name(policy: RepairPolicy) -> &'static str {
    match policy {
        RepairPolicy::None => "none",
        RepairPolicy::Reparent => "reparent",
    }
}

/// Windowed fidelity over surviving repositories only: violation
/// transitions on a crashed victim's own pairs are censored so the series
/// measures the service the overlay can still deliver, not the nodes the
/// scenario killed.
struct SurvivorFidelity {
    inner: WindowedFidelity,
    victim: Vec<bool>,
}

impl SurvivorFidelity {
    fn new(window_us: u64, n_pairs: usize, victim: Vec<bool>) -> Self {
        Self { inner: WindowedFidelity::new(window_us, n_pairs), victim }
    }
}

impl Observer for SurvivorFidelity {
    fn on_violation_open(&mut self, at_us: u64, repo: usize, item: ItemId) {
        if !self.victim[repo] {
            self.inner.on_violation_open(at_us, repo, item);
        }
    }
    fn on_violation_close(&mut self, at_us: u64, repo: usize, item: ItemId) {
        if !self.victim[repo] {
            self.inner.on_violation_close(at_us, repo, item);
        }
    }
    fn on_end(&mut self, end_us: u64) {
        self.inner.on_end(end_us);
    }
}

/// Repositories ranked by how many dependent subscriptions they relay,
/// busiest first (ties to the lower index) — the victims worth crashing.
fn ranked_relays(p: &Prepared) -> Vec<usize> {
    let s = p.session();
    let d = s.disseminator();
    let mut ranked: Vec<(usize, usize)> =
        (0..p.config().n_repos).map(|r| (r, d.dependents_of(NodeIdx::repo(r)).len())).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.into_iter().map(|(r, _)| r).collect()
}

/// Burst sizes swept: a single busiest relay, and 20% of the fleet.
fn burst_grid(n_repos: usize) -> [usize; 2] {
    [1, (n_repos / 5).max(2)]
}

/// Runs the full sweep at the given scale and returns the figure plus
/// every cell.
pub fn resilience_report(scale: &Scale) -> ResilienceReport {
    let p = scale.prepared();
    let end_us = p.end_us;
    let window_us = (end_us / N_WINDOWS).max(1);
    let n_repos = p.config().n_repos;
    let crash_us = end_us * CRASH_AT.0 / CRASH_AT.1;
    let post_us = end_us * POST_AT.0 / POST_AT.1;

    let ranked = ranked_relays(&p);
    let bursts = burst_grid(n_repos);
    let heavy = bursts[1];

    let mut fig = Figure::new(
        "resilience",
        "post-burst fidelity: self-healing re-parenting vs passive fail-stop",
        "window (s)",
        "windowed loss of fidelity over surviving pairs (%), by repair policy",
    );
    let mut cells = Vec::new();

    for burst in bursts {
        let victims = &ranked[..burst.min(ranked.len())];
        let mut victim = vec![false; n_repos];
        for &v in victims {
            victim[v] = true;
        }
        let survivor_pairs: usize =
            (0..n_repos).filter(|&r| !victim[r]).map(|r| p.workload.items_of(r).count()).sum();

        // Fault-free baseline over the same survivor set — the band the
        // repaired overlay is asked to return to.
        let (base_rep, _base_m, base_obs) = p
            .session_observing(SurvivorFidelity::new(window_us, survivor_pairs, victim.clone()))
            .finish();
        let baseline_post = base_obs.inner.loss_pct_between(post_us, end_us);
        if burst == heavy {
            fig.push_series(Series::new("baseline", base_obs.inner.series()));
            fig.note(format!(
                "burst at {:.0}s of {:.0}s: {} busiest relays down for good; \
                 survivors hold {} of {} measured pairs; baseline loss {:.2}%",
                crash_us as f64 / 1e6,
                end_us as f64 / 1e6,
                burst,
                survivor_pairs,
                p.n_measured_pairs(),
                base_rep.loss_pct,
            ));
        }

        for loss_rate in LOSS_RATES {
            for policy in [RepairPolicy::None, RepairPolicy::Reparent] {
                let plan = FaultPlan {
                    crashes: victims
                        .iter()
                        .map(|&repo| CrashSpec {
                            repo,
                            at_us: crash_us,
                            recover_at_us: None,
                            subtree: false,
                        })
                        .collect(),
                    loss: if loss_rate > 0.0 {
                        vec![LossWindow { prob: loss_rate, from_us: crash_us, to_us: end_us }]
                    } else {
                        Vec::new()
                    },
                    repair: RepairSpec { policy, ..RepairSpec::default() },
                    seed: scale.seed ^ 0xFA17,
                    ..FaultPlan::default()
                };
                let mut session = p.session_observing((
                    SurvivorFidelity::new(window_us, survivor_pairs, victim.clone()),
                    FaultMonitor::new(),
                ));
                session.install_fault_plan(&plan);
                let (rep, m, (sf, monitor)) = session.finish();
                let cell = ResilienceCell {
                    burst,
                    loss_rate,
                    policy,
                    loss_pct: rep.loss_pct,
                    post_loss_pct: sf.inner.loss_pct_between(post_us, end_us),
                    baseline_post_loss_pct: baseline_post,
                    mttr_ms: monitor.mttr_ms(),
                    fault_window_loss_pct: monitor.fault_window_loss_pct(survivor_pairs),
                    lost: m.lost,
                    retransmits: m.retransmits,
                    reparented: m.reparented,
                };
                if burst == heavy && loss_rate == 0.0 {
                    fig.push_series(Series::new(policy_name(policy), sf.inner.series()));
                }
                fig.note(cell.machine_line());
                cells.push(cell);
            }
        }
    }

    ResilienceReport { fig, cells }
}

/// Runs the sweep and returns just the figure (the `repro` render path).
pub fn resilience(scale: &Scale) -> Figure {
    resilience_report(scale).fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(r: &ResilienceReport, burst: usize, loss: f64, policy: RepairPolicy) -> ResilienceCell {
        r.cells
            .iter()
            .find(|c| c.burst == burst && c.loss_rate == loss && c.policy == policy)
            .expect("cell present")
            .clone()
    }

    /// The acceptance criterion of the robustness PR: after a permanent
    /// burst, `Reparent` returns post-burst survivor fidelity to within
    /// the paper band of the no-fault baseline, while `None` does not.
    #[test]
    fn reparent_recovers_post_burst_fidelity_but_none_does_not() {
        let r = resilience_report(&Scale::tiny());
        let heavy = burst_grid(Scale::tiny().n_repos)[1];
        let fix = cell(&r, heavy, 0.0, RepairPolicy::Reparent);
        let none = cell(&r, heavy, 0.0, RepairPolicy::None);
        assert_eq!(fix.baseline_post_loss_pct, none.baseline_post_loss_pct, "shared baseline");

        // Self-healing: within one percentage point of the no-fault band.
        assert!(
            fix.post_gap_pct() < 1.0,
            "reparent must return to the baseline band: gap {:.3} pts (post {:.3} vs base {:.3})",
            fix.post_gap_pct(),
            fix.post_loss_pct,
            fix.baseline_post_loss_pct
        );
        // Passive fail-stop: the orphaned subtrees keep starving.
        assert!(
            none.post_gap_pct() > 2.0 * fix.post_gap_pct().max(0.25),
            "policy None must stay degraded: gap {:.3} pts vs reparent {:.3} pts",
            none.post_gap_pct(),
            fix.post_gap_pct()
        );
        // The repair machinery actually fired, and only under Reparent.
        assert!(fix.reparented > 0, "no dependents re-homed");
        assert_eq!(none.reparented, 0, "policy None must not re-parent");
        // MTTR: re-parenting repairs within the detection timescale;
        // without repair the incidents stay open to the end of the run.
        assert!(
            fix.mttr_ms < none.mttr_ms / 10.0,
            "mttr: reparent {:.1}ms vs none {:.1}ms",
            fix.mttr_ms,
            none.mttr_ms
        );
    }

    #[test]
    fn loss_window_drives_retransmissions() {
        let r = resilience_report(&Scale::tiny());
        for c in &r.cells {
            if c.loss_rate > 0.0 {
                assert!(c.lost > 0, "loss cell recorded no losses: {}", c.machine_line());
                assert!(c.retransmits > 0, "no retransmits: {}", c.machine_line());
                assert!(c.retransmits <= c.lost, "more retries than losses");
            } else {
                assert_eq!(c.lost, 0, "loss-free cell lost messages: {}", c.machine_line());
                assert_eq!(c.retransmits, 0, "loss-free cell retransmitted");
            }
        }
    }

    #[test]
    fn figure_series_agree_before_the_burst_and_separate_after() {
        let r = resilience_report(&Scale::tiny());
        let base = r.fig.series_named("baseline").expect("baseline series");
        let fix = r.fig.series_named("reparent").expect("reparent series");
        let none = r.fig.series_named("none").expect("none series");
        assert_eq!(base.points.len(), N_WINDOWS as usize);
        assert_eq!(fix.points.len(), none.points.len());

        // The burst lands at 30% of the horizon = window 6 of 20; before
        // it, nothing has diverged (the plans draw nothing until then).
        for i in 0..6 {
            assert_eq!(fix.points[i], base.points[i], "window {i} diverged pre-burst");
            assert_eq!(none.points[i], base.points[i], "window {i} diverged pre-burst");
        }
        // Post-burst windows (50%.. = 10..20): starvation beats repair.
        let tail = |s: &Series| s.points[10..].iter().map(|&(_, y)| y).sum::<f64>() / 10.0;
        assert!(
            tail(none) > tail(fix),
            "post-burst: none {:.3}% must exceed reparent {:.3}%",
            tail(none),
            tail(fix)
        );
    }

    #[test]
    fn machine_lines_cover_the_whole_grid() {
        let r = resilience_report(&Scale::tiny());
        assert_eq!(r.cells.len(), 8, "2 bursts x 2 loss rates x 2 policies");
        let lines: Vec<&String> =
            r.fig.notes.iter().filter(|n| n.starts_with("RESILIENCE ")).collect();
        assert_eq!(lines.len(), 8);
        for line in lines {
            for key in [
                "burst=",
                "loss_rate=",
                "policy=",
                "loss_pct=",
                "mttr_ms=",
                "retransmits=",
                "reparented=",
                "lost=",
            ] {
                assert!(line.contains(key), "`{key}` missing from {line}");
            }
            // CI's grep relies on this key order inside the line.
            let pos = |key: &str| line.find(key).unwrap();
            assert!(pos("loss_pct=") < pos("mttr_ms="));
            assert!(pos("mttr_ms=") < pos("retransmits="));
            assert!(pos("retransmits=") < pos("reparented="));
        }
    }
}
