//! Deterministic fault injection and overlay self-healing — the failure
//! model of the robustness experiments.
//!
//! A [`FaultPlan`] declares *what goes wrong and when*: crash/recover
//! schedules (optionally taking out a node's whole current d3g subtree as
//! one correlated burst), per-link message-loss windows, and heavy-tailed
//! link-delay degradation windows drawn from the paper's Pareto sampler
//! (`d3t_net::Pareto`). The plan is pure data — `Clone`/`PartialEq`/serde
//! — so scenarios are config, not code.
//!
//! Installing a plan into a `Session` *compiles* it against the compiled
//! d3g into a time-sorted control timeline, merged into the drive loop
//! exactly like the pre-seeded source-change stream: control events apply
//! **before** any simulation event at the same timestamp, and drain
//! runs never cross a control instant, so liveness and loss state
//! are constant within a run. That, plus a single seeded RNG advanced
//! once per send decision in original event order, is the whole
//! determinism argument: for a fixed `(seed, plan)` a faulted run is
//! bit-identical across queue backends and drive splits, and an inert plan
//! never draws from the RNG at all, keeping fault-free runs bit-identical
//! to the sealed scalar oracle.
//!
//! Repair ([`RepairPolicy::Reparent`]) is the paper-style resiliency
//! mechanism: dependents of a crashed parent detect the silence after a
//! detection timeout (a lease on expected traffic), then re-parent onto
//! the nearest surviving ancestor with capped, per-dependent staggered
//! backoff — moving the child's edge into its foster's row of the
//! compiled CSR forwarding table (`Disseminator::reparent`). Recovery
//! re-attaches the original edges (`Disseminator::restore_children_of`).
//!
//! # Cost
//!
//! Without a plan the drive pays one predictable branch per pop and per
//! send. With one it pays for what fires: each control once, and one RNG
//! draw per send while a loss or degradation window is open. A
//! re-parented child's edge sits in its foster's CSR row, so repair
//! pays O(item holders + live adoptions) per operation (re-parenting,
//! restoring, enumerating a crashed node's dependents) and decisions
//! pay nothing: a repaired overlay forwards on the fault-free path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use d3t_core::dissemination::Disseminator;
use d3t_core::item::ItemId;
use d3t_core::overlay::NodeIdx;
use d3t_net::Pareto;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::observer::{FaultObservation, Observer};

/// What the overlay does about a crashed parent's orphaned dependents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairPolicy {
    /// Nothing: the subtree starves until (and unless) the parent
    /// recovers — the paper's passive fail-stop baseline.
    #[default]
    None,
    /// Dependents detect the dead parent after
    /// [`RepairSpec::detect_timeout_us`] and re-parent onto the nearest
    /// surviving ancestor with capped staggered backoff; recovery
    /// re-attaches the original edge.
    Reparent,
}

/// One scheduled fail-stop crash (and optional recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// 0-based repository number (`NodeIdx::repo` numbering).
    pub repo: usize,
    /// Crash instant, µs.
    pub at_us: u64,
    /// Recovery instant, µs (`None` = down for the rest of the run).
    pub recover_at_us: Option<u64>,
    /// Correlated burst: also crash (and recover) every node in the
    /// repo's current d3g subtree, expanded at install time.
    pub subtree: bool,
}

/// One window of i.i.d. per-message loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossWindow {
    /// Probability each send attempt is destroyed, in `[0, 1)`.
    pub prob: f64,
    /// Window start, µs (inclusive).
    pub from_us: u64,
    /// Window end, µs (exclusive).
    pub to_us: u64,
}

/// One window of heavy-tailed link-delay degradation: every send gains
/// extra latency drawn from a Pareto distribution (the paper's link-delay
/// family, `d3t_net::Pareto::with_mean`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeWindow {
    /// Window start, µs (inclusive).
    pub from_us: u64,
    /// Window end, µs (exclusive).
    pub to_us: u64,
    /// Minimum extra delay per message, ms (> 0).
    pub min_extra_ms: f64,
    /// Mean extra delay per message, ms (> min).
    pub mean_extra_ms: f64,
}

/// Sender-side retransmission parameters for lost messages. Receiver
/// dedup holds by construction: the loss model resolves all attempts at
/// send time and schedules at most one arrival per logical message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetransmitSpec {
    /// Retransmissions attempted after the first loss before the message
    /// is abandoned (sender-side state stays stale, so the next violating
    /// change retries — the same recovery story as fail-stop drops).
    pub max_retries: u32,
    /// Backoff added before the first retransmission, µs; doubles per
    /// attempt.
    pub base_backoff_us: u64,
    /// Backoff cap, µs.
    pub max_backoff_us: u64,
}

impl Default for RetransmitSpec {
    fn default() -> Self {
        Self { max_retries: 4, base_backoff_us: 50_000, max_backoff_us: 800_000 }
    }
}

/// Detection and re-parenting parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairSpec {
    /// The repair policy in force.
    pub policy: RepairPolicy,
    /// How long after the crash a dependent's lease on expected traffic
    /// expires, µs.
    pub detect_timeout_us: u64,
    /// Re-parenting backoff for the first orphan, µs; doubles per orphan
    /// rank (staggering the thundering herd deterministically).
    pub base_backoff_us: u64,
    /// Re-parenting backoff cap, µs.
    pub max_backoff_us: u64,
}

impl Default for RepairSpec {
    fn default() -> Self {
        Self {
            policy: RepairPolicy::None,
            detect_timeout_us: 200_000,
            base_backoff_us: 25_000,
            max_backoff_us: 400_000,
        }
    }
}

/// A declarative, seeded failure scenario. The default plan is inert:
/// installing it changes nothing, draws nothing, and keeps the run
/// bit-identical to a plan-free one.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Crash/recover schedule.
    pub crashes: Vec<CrashSpec>,
    /// Message-loss windows.
    pub loss: Vec<LossWindow>,
    /// Link-delay degradation windows.
    pub degrade: Vec<DegradeWindow>,
    /// Retransmission behavior while a loss window is active.
    pub retransmit: RetransmitSpec,
    /// Detection + repair behavior for crashed parents.
    pub repair: RepairSpec,
    /// Seed of the plan's private RNG (loss draws, degradation draws).
    /// Independent of `SimConfig::seed` so the same scenario can be run
    /// over different workloads and vice versa.
    pub seed: u64,
}

impl FaultPlan {
    /// Whether installing this plan can have any effect at all. A
    /// `Reparent` policy is an effect even without crashes of its own:
    /// it repairs the crashes a session injects.
    pub fn is_inert(&self) -> bool {
        self.crashes.is_empty()
            && self.loss.iter().all(|l| l.prob <= 0.0)
            && self.degrade.is_empty()
            && self.repair.policy == RepairPolicy::None
    }

    /// Checks the plan against an overlay of `n_repos` repositories —
    /// everything installation relies on, whatever the run length (an
    /// event past the end of a run is dropped, not excused). Crashes
    /// are checked first, then loss, then degradation windows, each in
    /// plan order; the first offence is returned.
    pub fn validate(&self, n_repos: usize) -> Result<(), FaultPlanError> {
        for spec in &self.crashes {
            if spec.repo >= n_repos {
                return Err(FaultPlanError::RepoOutOfRange { repo: spec.repo, n_repos });
            }
            if let Some(recover_at_us) = spec.recover_at_us.filter(|&r| r <= spec.at_us) {
                return Err(FaultPlanError::RecoveryNotAfterCrash {
                    repo: spec.repo,
                    at_us: spec.at_us,
                    recover_at_us,
                });
            }
        }
        for w in &self.loss {
            if !(0.0..1.0).contains(&w.prob) {
                return Err(FaultPlanError::LossProbability { prob: w.prob });
            }
            if w.from_us >= w.to_us {
                return Err(FaultPlanError::EmptyLossWindow { from_us: w.from_us, to_us: w.to_us });
            }
        }
        for w in &self.degrade {
            if w.from_us >= w.to_us {
                return Err(FaultPlanError::EmptyDegradeWindow {
                    from_us: w.from_us,
                    to_us: w.to_us,
                });
            }
            // Exactly what `Pareto::with_mean` accepts.
            let (min, mean) = (w.min_extra_ms, w.mean_extra_ms);
            if !(min > 0.0 && mean > min && mean.is_finite()) {
                return Err(FaultPlanError::DegradeParams {
                    min_extra_ms: min,
                    mean_extra_ms: mean,
                });
            }
        }
        Ok(())
    }
}

/// Why a [`FaultPlan`] cannot be installed — one variant per check of
/// [`FaultPlan::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A crash names a repository the overlay does not have.
    RepoOutOfRange {
        /// The offending 0-based repository number.
        repo: usize,
        /// Repositories in the overlay.
        n_repos: usize,
    },
    /// A crash recovers at or before the instant it happens.
    RecoveryNotAfterCrash {
        /// The crashing repository.
        repo: usize,
        /// Crash instant, µs.
        at_us: u64,
        /// The offending recovery instant, µs.
        recover_at_us: u64,
    },
    /// A loss probability outside `[0, 1)` (NaN included).
    LossProbability {
        /// The offending probability.
        prob: f64,
    },
    /// A loss window that ends at or before it starts.
    EmptyLossWindow {
        /// Window start, µs.
        from_us: u64,
        /// Window end, µs.
        to_us: u64,
    },
    /// A degradation window that ends at or before it starts.
    EmptyDegradeWindow {
        /// Window start, µs.
        from_us: u64,
        /// Window end, µs.
        to_us: u64,
    },
    /// Extra-delay parameters no Pareto distribution has: the sampler
    /// needs a finite `mean > min > 0`.
    DegradeParams {
        /// The offending minimum, ms.
        min_extra_ms: f64,
        /// The offending mean, ms.
        mean_extra_ms: f64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultPlanError::RepoOutOfRange { repo, .. } => {
                write!(f, "crash spec repo {repo} out of range")
            }
            FaultPlanError::RecoveryNotAfterCrash { .. } => {
                write!(f, "recovery must follow the crash")
            }
            FaultPlanError::LossProbability { .. } => {
                write!(f, "loss probability must be in [0, 1)")
            }
            FaultPlanError::EmptyLossWindow { .. } => {
                write!(f, "loss window must have positive length")
            }
            FaultPlanError::EmptyDegradeWindow { .. } => {
                write!(f, "degradation window must have positive length")
            }
            // `Pareto::with_mean`'s own wording, in its order of checks.
            FaultPlanError::DegradeParams { min_extra_ms, mean_extra_ms } => {
                f.write_str(match (min_extra_ms > 0.0, mean_extra_ms > min_extra_ms) {
                    (false, _) => "min must be positive",
                    (true, false) => "mean must exceed min for a Pareto distribution",
                    (true, true) => "alpha must be positive",
                })
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One compiled control event on the fault timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultEvent {
    /// Fail-stop `node` (overlay index).
    Crash { node: u32 },
    /// Reactivate `node`, restoring children adopted away from it.
    Recover { node: u32 },
    /// A loss window opens with the given per-message probability.
    LossStart { prob: f64 },
    /// The loss window closes.
    LossEnd,
    /// A degradation window opens (Pareto parameters in ms).
    DegradeStart { min_ms: f64, mean_ms: f64 },
    /// The degradation window closes.
    DegradeEnd,
}

/// One pending re-parenting action, scheduled when a parent crashes and
/// executed when the dependent's detection timeout + backoff expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RepairOp {
    /// The orphaned child (overlay index).
    pub(crate) child: u32,
    /// The item whose subscription is orphaned.
    pub(crate) item: u32,
    /// The crashed parent the child is detaching from.
    pub(crate) dead: u32,
}

/// A due control action popped off [`FaultState`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultControl {
    /// A compiled timeline event.
    Timeline(FaultEvent),
    /// A scheduled repair action.
    Repair(RepairOp),
}

/// The session-side runtime of an installed plan: the compiled timeline
/// with a cursor (merged into the drive loop like the source-change
/// stream), the pending-repair heap, and the live loss/degrade state the
/// send paths consult.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Time-sorted control events; ties keep plan emission order.
    timeline: Vec<(u64, FaultEvent)>,
    cursor: usize,
    /// Pending repairs ordered by `(due time, schedule sequence)` — the
    /// sequence makes equal-time pops deterministic.
    repairs: BinaryHeap<Reverse<(u64, u64, RepairOp)>>,
    repair_seq: u64,
    /// Current per-message loss probability (0 outside loss windows).
    pub(crate) loss_prob: f64,
    /// Current extra-delay sampler (None outside degradation windows).
    pub(crate) degrade: Option<Pareto>,
    /// The plan's private RNG — advanced once per loss/degradation
    /// decision, in original event order on every drive path.
    pub(crate) rng: StdRng,
    /// Retransmission parameters.
    pub(crate) retransmit: RetransmitSpec,
    /// Repair policy in force.
    pub(crate) policy: RepairPolicy,
    detect_timeout_us: u64,
    repair_base_backoff_us: u64,
    repair_max_backoff_us: u64,
}

impl FaultState {
    /// The state of "no plan installed": nothing scheduled, nothing
    /// active, RNG never drawn.
    pub(crate) fn inert() -> Self {
        Self {
            timeline: Vec::new(),
            cursor: 0,
            repairs: BinaryHeap::new(),
            repair_seq: 0,
            loss_prob: 0.0,
            degrade: None,
            rng: StdRng::seed_from_u64(0),
            retransmit: RetransmitSpec::default(),
            policy: RepairPolicy::None,
            detect_timeout_us: 0,
            repair_base_backoff_us: 0,
            repair_max_backoff_us: 0,
        }
    }

    /// Compiles `plan` against the current overlay into a time-sorted
    /// control timeline, or says why the plan is malformed
    /// ([`FaultPlan::validate`]). Subtree bursts are expanded here (the
    /// d3g topology at install time), which is why installation needs
    /// the disseminator. Events at or past `end_us` are dropped — they
    /// could never be applied.
    pub(crate) fn compile(
        plan: &FaultPlan,
        d: &Disseminator,
        end_us: u64,
    ) -> Result<Self, FaultPlanError> {
        plan.validate(d.n_nodes() - 1)?;
        let mut timeline: Vec<(u64, FaultEvent)> = Vec::new();
        for spec in &plan.crashes {
            if spec.at_us >= end_us {
                continue;
            }
            let root = NodeIdx::repo(spec.repo);
            let victims = if spec.subtree { subtree_of(d, root) } else { vec![root] };
            for v in victims {
                timeline.push((spec.at_us, FaultEvent::Crash { node: v.0 }));
                if let Some(r) = spec.recover_at_us.filter(|&r| r < end_us) {
                    timeline.push((r, FaultEvent::Recover { node: v.0 }));
                }
            }
        }
        for w in &plan.loss {
            if w.prob == 0.0 || w.from_us >= end_us {
                continue;
            }
            timeline.push((w.from_us, FaultEvent::LossStart { prob: w.prob }));
            if w.to_us < end_us {
                timeline.push((w.to_us, FaultEvent::LossEnd));
            }
        }
        for w in &plan.degrade {
            if w.from_us >= end_us {
                continue;
            }
            timeline.push((
                w.from_us,
                FaultEvent::DegradeStart { min_ms: w.min_extra_ms, mean_ms: w.mean_extra_ms },
            ));
            if w.to_us < end_us {
                timeline.push((w.to_us, FaultEvent::DegradeEnd));
            }
        }
        // Stable: equal-time events keep plan emission order.
        timeline.sort_by_key(|&(at, _)| at);
        Ok(Self {
            timeline,
            cursor: 0,
            repairs: BinaryHeap::new(),
            repair_seq: 0,
            loss_prob: 0.0,
            degrade: None,
            rng: StdRng::seed_from_u64(plan.seed),
            retransmit: plan.retransmit,
            policy: plan.repair.policy,
            detect_timeout_us: plan.repair.detect_timeout_us,
            repair_base_backoff_us: plan.repair.base_backoff_us,
            repair_max_backoff_us: plan.repair.max_backoff_us,
        })
    }

    /// Whether no control event can ever fire again. (Loss/degrade state
    /// may still be active — that is consulted at send time, not here.)
    pub(crate) fn is_idle(&self) -> bool {
        self.cursor >= self.timeline.len() && self.repairs.is_empty()
    }

    /// Time of the next pending control event (`u64::MAX` when idle).
    pub(crate) fn next_at(&self) -> u64 {
        let t = self.timeline.get(self.cursor).map_or(u64::MAX, |&(at, _)| at);
        let r = self.repairs.peek().map_or(u64::MAX, |Reverse((at, _, _))| *at);
        t.min(r)
    }

    /// Pops the globally next control action (timeline events win ties
    /// against repairs at the same instant).
    pub(crate) fn pop_next(&mut self) -> Option<(u64, FaultControl)> {
        let t = self.timeline.get(self.cursor).map_or(u64::MAX, |&(at, _)| at);
        let r = self.repairs.peek().map_or(u64::MAX, |Reverse((at, _, _))| *at);
        if t == u64::MAX && r == u64::MAX {
            return None;
        }
        if t <= r {
            let ev = self.timeline[self.cursor].1;
            self.cursor += 1;
            Some((t, FaultControl::Timeline(ev)))
        } else {
            // d3t-lint: allow(P001) -- this branch is only taken after a successful repairs.peek()
            let Reverse((at, _, op)) = self.repairs.pop().expect("peeked above");
            Some((at, FaultControl::Repair(op)))
        }
    }

    /// Schedules the re-parenting of one orphaned dependent: detection
    /// timeout plus capped exponential backoff staggered by the orphan's
    /// enumeration rank.
    pub(crate) fn schedule_repair(&mut self, crash_at_us: u64, rank: usize, op: RepairOp) {
        let backoff = self
            .repair_base_backoff_us
            .saturating_mul(1u64 << rank.min(20))
            .min(self.repair_max_backoff_us);
        let due = crash_at_us.saturating_add(self.detect_timeout_us).saturating_add(backoff);
        self.repairs.push(Reverse((due, self.repair_seq, op)));
        self.repair_seq += 1;
    }

    /// Whether the send paths must consult the loss/degradation model at
    /// all — false in every fault-free run, so the hot path pays one
    /// predictable branch.
    #[inline]
    pub(crate) fn link_active(&self) -> bool {
        self.loss_prob > 0.0 || self.degrade.is_some()
    }

    /// Approximate owned size in bytes (timeline + repair heap +
    /// header) — snapshot telemetry only.
    pub(crate) fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.timeline.len() * std::mem::size_of::<(u64, FaultEvent)>()
            + self.repairs.len() * std::mem::size_of::<Reverse<(u64, u64, RepairOp)>>()
    }
}

/// Every node in `root`'s current d3g subtree (root included): the
/// transitive closure of [`Disseminator::dependents_of`] across items,
/// deduplicated, in deterministic BFS order.
fn subtree_of(d: &Disseminator, root: NodeIdx) -> Vec<NodeIdx> {
    let mut seen = vec![false; d.n_nodes()];
    let mut order = vec![root];
    seen[root.index()] = true;
    let mut head = 0;
    while head < order.len() {
        let node = order[head];
        head += 1;
        for (_, child) in d.dependents_of(node) {
            if !seen[child.index()] {
                seen[child.index()] = true;
                order.push(child);
            }
        }
    }
    order
}

/// One crash incident tracked by [`FaultMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultIncident {
    /// The crashed node.
    pub node: NodeIdx,
    /// Crash instant, µs.
    pub crashed_at_us: u64,
    /// When service was restored for the node's dependents: the last
    /// re-parenting under `Reparent`, the recovery instant under `None`,
    /// or the end of the run if neither happened (set by `on_end`).
    pub repaired_at_us: Option<u64>,
    /// Recovery instant, if the node recovered.
    pub recovered_at_us: Option<u64>,
    /// Dependent subscriptions re-parented away during the incident.
    pub reparented: u64,
}

/// MTTR / fault-window-fidelity observer: tracks every crash incident to
/// its repair (last re-parenting, recovery, or end of run) and integrates
/// open-violation pair-time over the union of fault windows (crash →
/// recovery-or-end), i.e. the fidelity actually delivered *while the
/// overlay was degraded* — the number the resilience experiment compares
/// across repair policies.
#[derive(Debug, Clone, Default)]
pub struct FaultMonitor {
    incidents: Vec<FaultIncident>,
    /// Crashed-and-not-yet-recovered node count.
    down: u64,
    /// Currently open violation intervals.
    open_viol: u64,
    integrated_to_us: u64,
    fault_pair_us: u64,
    fault_window_us: u64,
}

impl FaultMonitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        Self::default()
    }

    fn integrate_to(&mut self, to_us: u64) {
        if to_us > self.integrated_to_us {
            if self.down > 0 {
                let span = to_us - self.integrated_to_us;
                self.fault_window_us += span;
                self.fault_pair_us += span * self.open_viol;
            }
            self.integrated_to_us = to_us;
        }
    }

    /// Every crash incident observed, in crash order. Complete only
    /// after `on_end`.
    pub fn incidents(&self) -> &[FaultIncident] {
        &self.incidents
    }

    /// Mean time-to-repair over all incidents, µs (0 when no incident
    /// occurred). Meaningful after `on_end`.
    pub fn mttr_us(&self) -> f64 {
        if self.incidents.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .incidents
            .iter()
            .map(|i| i.repaired_at_us.unwrap_or(i.crashed_at_us) - i.crashed_at_us)
            .sum();
        total as f64 / self.incidents.len() as f64
    }

    /// Mean time-to-repair in milliseconds.
    pub fn mttr_ms(&self) -> f64 {
        self.mttr_us() / 1e3
    }

    /// Total time at least one node was down, µs.
    pub fn fault_window_us(&self) -> u64 {
        self.fault_window_us
    }

    /// Mean loss of fidelity restricted to fault windows, percent.
    pub fn fault_window_loss_pct(&self, n_pairs: usize) -> f64 {
        if self.fault_window_us == 0 || n_pairs == 0 {
            return 0.0;
        }
        self.fault_pair_us as f64 / (self.fault_window_us as f64 * n_pairs as f64) * 100.0
    }
}

impl Observer for FaultMonitor {
    fn on_violation_open(&mut self, at_us: u64, _repo: usize, _item: ItemId) {
        self.integrate_to(at_us);
        self.open_viol += 1;
    }

    fn on_violation_close(&mut self, at_us: u64, _repo: usize, _item: ItemId) {
        self.integrate_to(at_us);
        // d3t-lint: allow(P001) -- the tracker emits open/close strictly paired per (item, repo)
        self.open_viol = self.open_viol.checked_sub(1).expect("close without open");
    }

    fn on_fault(&mut self, at_us: u64, fault: &FaultObservation) {
        match *fault {
            FaultObservation::Crash { node } => {
                self.integrate_to(at_us);
                self.down += 1;
                self.incidents.push(FaultIncident {
                    node,
                    crashed_at_us: at_us,
                    repaired_at_us: None,
                    recovered_at_us: None,
                    reparented: 0,
                });
            }
            FaultObservation::Recover { node } => {
                self.integrate_to(at_us);
                // d3t-lint: allow(P001) -- the fault state machine never emits Recover for an up node
                self.down = self.down.checked_sub(1).expect("recover without crash");
                if let Some(i) = self
                    .incidents
                    .iter_mut()
                    .find(|i| i.node == node && i.recovered_at_us.is_none())
                {
                    i.recovered_at_us = Some(at_us);
                    i.repaired_at_us.get_or_insert(at_us);
                }
            }
            FaultObservation::Reparent { from, .. } => {
                if let Some(i) = self
                    .incidents
                    .iter_mut()
                    .find(|i| i.node == from && i.recovered_at_us.is_none())
                {
                    // Service is restored when the *last* orphan re-homes.
                    i.repaired_at_us = Some(at_us);
                    i.reparented += 1;
                }
            }
            FaultObservation::Lost { .. } | FaultObservation::Retransmit { .. } => {}
        }
    }

    fn on_end(&mut self, end_us: u64) {
        self.integrate_to(end_us);
        for i in &mut self.incidents {
            i.repaired_at_us.get_or_insert(end_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_inert());
        // Zero-probability loss windows are inert too.
        let plan = FaultPlan {
            loss: vec![LossWindow { prob: 0.0, from_us: 0, to_us: 100 }],
            ..FaultPlan::default()
        };
        assert!(plan.is_inert());
        // A repair policy acts on injected crashes.
        let plan = FaultPlan {
            repair: RepairSpec { policy: RepairPolicy::Reparent, ..RepairSpec::default() },
            ..FaultPlan::default()
        };
        assert!(!plan.is_inert());
    }

    #[test]
    fn monitor_tracks_mttr_and_fault_windows() {
        let mut m = FaultMonitor::new();
        let n = NodeIdx::repo(3);
        m.on_fault(1_000, &FaultObservation::Crash { node: n });
        // A violation spans 2000..5000 while the node is down.
        m.on_violation_open(2_000, 0, ItemId(0));
        m.on_fault(
            4_000,
            &FaultObservation::Reparent {
                child: NodeIdx::repo(5),
                from: n,
                to: SOURCE_N,
                item: ItemId(0),
            },
        );
        m.on_violation_close(5_000, 0, ItemId(0));
        m.on_fault(9_000, &FaultObservation::Recover { node: n });
        m.on_end(10_000);
        let inc = m.incidents()[0];
        assert_eq!(inc.repaired_at_us, Some(4_000), "repair = last reparent, not recovery");
        assert_eq!(inc.recovered_at_us, Some(9_000));
        assert_eq!(inc.reparented, 1);
        assert!((m.mttr_us() - 3_000.0).abs() < 1e-9);
        assert_eq!(m.fault_window_us(), 8_000, "down 1000..9000");
        // 3000 pair-µs of violation over 8000 µs × 1 pair = 37.5%.
        assert!((m.fault_window_loss_pct(1) - 37.5).abs() < 1e-9);
    }

    #[test]
    fn unrepaired_incident_is_capped_at_end() {
        let mut m = FaultMonitor::new();
        m.on_fault(2_000, &FaultObservation::Crash { node: NodeIdx::repo(0) });
        m.on_end(10_000);
        assert_eq!(m.incidents()[0].repaired_at_us, Some(10_000));
        assert!((m.mttr_us() - 8_000.0).abs() < 1e-9);
    }

    const SOURCE_N: NodeIdx = d3t_core::overlay::SOURCE;
}
