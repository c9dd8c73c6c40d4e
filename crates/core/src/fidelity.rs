//! The fidelity metric — §6.2 of the paper.
//!
//! Fidelity of a (repository, item) pair is the fraction of observation
//! time during which `|P(t) − S(t)| ≤ c`. Both `S` (source) and `P`
//! (repository copy) are piecewise-constant, so the deviation only changes
//! at source ticks and repository-arrival instants; the tracker does exact
//! interval accounting over those events.
//!
//! Times are **integer microseconds** end to end — the same currency the
//! discrete-event engine schedules in — so the accounting is exact integer
//! arithmetic until the final percentage division.
//!
//! Aggregation follows the paper: "The fidelity of a repository is the mean
//! fidelity over all data items stored at that repository, while the
//! overall fidelity of the system is the mean fidelity of all
//! repositories." Results are reported as **loss of fidelity** =
//! `100·(1 − fidelity)` percent.
//!
//! Only *user* needs are measured: items a repository carries purely to
//! relay to dependents (LeLA augmentation) do not contribute to its
//! fidelity, matching the paper's user-centric definition.

use serde::{Deserialize, Serialize};

use crate::coherency::Coherency;
use crate::item::ItemId;
use crate::overlay::NodeIdx;
use crate::workload::Workload;

/// The hot per-stream state the update calls touch, packed into 16
/// bytes (four records per cache line, never straddling) so both the
/// per-arrival access and the per-source-tick slice scan stay cheap.
///
/// `c` encodes three things in one float: its **magnitude** is the
/// tolerance, its **sign bit** marks "a violation interval is open"
/// (`-0.0` covers the EXACT tolerance), and **NaN** marks an unmeasured
/// `(repo, item)` slot — NaN fails every violation test and never has
/// the sign set by a transition, so holes are inert without a branch.
/// The open interval's start time and the accumulated violation time
/// live in parallel cold arrays touched only on the (rare) transitions
/// and in the final report.
#[derive(Debug, Clone)]
struct PairHot {
    /// `sign → interval open` | `|c| → tolerance` | `NaN → unmeasured`.
    c: f64,
    repo_value: f64,
}

/// Exact interval-accounting fidelity tracker.
///
/// Layout is tuned for the engine's two hot calls, and **indexed
/// directly by `(item, overlay node)`** — `pairs[item * (n_repos + 1) +
/// node]`, unmeasured slots carrying a NaN tolerance — so an arrival
/// reaches its 16-byte hot pair record in one indexed load with *no
/// pair-table indirection* (the address depends only on the event, which
/// is what lets the simulator prefetch it a few events ahead), while a
/// source tick still walks one contiguous slice. Cold state (violation
/// totals) sits in a parallel array only transitions and the report
/// read.
#[derive(Debug, Clone)]
pub struct FidelityTracker {
    n_repos: usize,
    /// Number of measured (non-NaN) slots.
    n_measured: usize,
    /// Current source value per item.
    source_value: Vec<f64>,
    /// Hot state per `(item, node)` slot, row stride `n_repos + 1`
    /// (index 0 of each row is the source — always an inert hole).
    pairs: Vec<PairHot>,
    /// Cold: start of the slot's open violation interval (valid only
    /// while the hot record's sign bit is set).
    violation_started: Vec<u64>,
    /// Cold: violating time accumulated per slot, µs.
    violation_total_us: Vec<u64>,
    start_us: u64,
}

impl FidelityTracker {
    /// Starts tracking at time `start_us` (µs) with every repository
    /// coherent at `initial_values[item]`.
    pub fn new(workload: &Workload, initial_values: &[f64], start_us: u64) -> Self {
        assert_eq!(initial_values.len(), workload.n_items(), "one initial value per item");
        let n_items = workload.n_items();
        let n_repos = workload.n_repos();
        let stride = n_repos + 1;
        let mut pairs = Vec::with_capacity(n_items * stride);
        for &v in initial_values {
            for _ in 0..stride {
                pairs.push(PairHot { c: f64::NAN, repo_value: v });
            }
        }
        let mut n_measured = 0usize;
        for repo in 0..n_repos {
            for (item, c) in workload.items_of(repo) {
                pairs[item.index() * stride + repo + 1].c = c.value();
                n_measured += 1;
            }
        }
        Self {
            n_repos,
            n_measured,
            source_value: initial_values.to_vec(),
            violation_started: vec![0; pairs.len()],
            violation_total_us: vec![0; pairs.len()],
            pairs,
            start_us,
        }
    }

    /// Flat slot of `(item, node)` in the hot array.
    #[inline]
    fn slot(&self, item: ItemId, node_index: usize) -> usize {
        item.index() * (self.n_repos + 1) + node_index
    }

    /// Records a new source value at time `at_us` (µs) and re-evaluates
    /// every measured pair on the item — one contiguous slice scan.
    pub fn source_update(&mut self, at_us: u64, item: ItemId, value: f64) {
        self.source_update_sink(at_us, item, value, &mut |_, _, _| {});
    }

    /// [`FidelityTracker::source_update`] that also reports every
    /// violation-interval transition to `sink` as
    /// `(repo, item, opened)` — `opened == true` when a violation interval
    /// starts at `at_us`, `false` when one closes. A no-op closure
    /// monomorphizes to exactly the unobserved scan.
    pub fn source_update_sink<F: FnMut(usize, ItemId, bool)>(
        &mut self,
        at_us: u64,
        item: ItemId,
        value: f64,
        sink: &mut F,
    ) {
        self.source_value[item.index()] = value;
        // The item's full node row minus the source hole at index 0;
        // unmeasured holes are NaN-inert.
        let lo = self.slot(item, 1);
        let hi = self.slot(item, self.n_repos + 1);
        let starts = &mut self.violation_started[lo..hi];
        let totals = &mut self.violation_total_us[lo..hi];
        let pairs = &mut self.pairs[lo..hi];
        let n = pairs.len();
        // Same chunked mask-accumulate shape as the dissemination check
        // kernel: a branch-free "state must flip" predicate per 8-lane
        // chunk (the 16-byte records interleave exactly the two floats
        // the predicate needs), with the scalar interval bookkeeping and
        // sink reserved for the rare set bits, in ascending slot order.
        const LANES: usize = 8;
        let mut base = 0usize;
        while base + LANES <= n {
            let mut mask = 0u32;
            for lane in 0..LANES {
                let p = &pairs[base + lane];
                let violating =
                    (value - p.repo_value).abs() > p.c.abs() + crate::coherency::VALUE_EPSILON;
                mask |= ((violating != p.c.is_sign_negative()) as u32) << lane;
            }
            while mask != 0 {
                let k = base + mask.trailing_zeros() as usize;
                #[expect(
                    clippy::expect_used,
                    reason = "the mask bit was set iff transition() returns Some"
                )]
                let opened =
                    Self::transition(&mut pairs[k], &mut starts[k], &mut totals[k], at_us, value)
                        .expect("predicate said the state flips");
                sink(k, item, opened);
                mask &= mask - 1;
            }
            base += LANES;
        }
        for k in base..n {
            if let Some(opened) =
                Self::transition(&mut pairs[k], &mut starts[k], &mut totals[k], at_us, value)
            {
                sink(k, item, opened);
            }
        }
    }

    /// Records an update arriving at a repository at time `at_us` (µs).
    /// Arrivals for unmeasured (relay-only) items are ignored.
    pub fn repo_update(&mut self, at_us: u64, node: NodeIdx, item: ItemId, value: f64) {
        self.repo_update_sink(at_us, node, item, value, &mut |_, _, _| {});
    }

    /// [`FidelityTracker::repo_update`] with the same transition `sink` as
    /// [`FidelityTracker::source_update_sink`].
    pub fn repo_update_sink<F: FnMut(usize, ItemId, bool)>(
        &mut self,
        at_us: u64,
        node: NodeIdx,
        item: ItemId,
        value: f64,
        sink: &mut F,
    ) {
        assert!(!node.is_source(), "the source has no measured pairs");
        let sv = self.source_value[item.index()];
        let j = self.slot(item, node.index());
        let p = &mut self.pairs[j];
        // Unconditional: an unmeasured (relay-only) slot is NaN-inert,
        // so recording its value is harmless and branch-free.
        p.repo_value = value;
        if let Some(opened) = Self::transition(
            p,
            &mut self.violation_started[j],
            &mut self.violation_total_us[j],
            at_us,
            sv,
        ) {
            sink(node.index() - 1, item, opened);
        }
    }

    /// Renegotiates the tolerance of one measured `(repo, item)` pair at
    /// time `at_us` (µs) — the incremental mutation entry point mid-run
    /// dynamics use. The pair's open-violation state is re-evaluated **at
    /// the mutation instant** against the current source and repository
    /// values: tightening may open an interval at exactly `at_us`,
    /// loosening may close one. Transitions are reported through `sink`
    /// like the update calls. Returns the tolerance previously in force,
    /// or `None` (and changes nothing) when the pair is not measured.
    pub fn set_tolerance<F: FnMut(usize, ItemId, bool)>(
        &mut self,
        at_us: u64,
        repo: usize,
        item: ItemId,
        c: Coherency,
        sink: &mut F,
    ) -> Option<Coherency> {
        let j = self.slot(item, repo + 1);
        if self.pairs[j].c.is_nan() {
            return None;
        }
        let sv = self.source_value[item.index()];
        let p = &mut self.pairs[j];
        let old = Coherency::new(p.c.abs());
        // Install the new magnitude, carrying the open flag over — the
        // transition below re-evaluates it at the mutation instant.
        p.c = if p.c.is_sign_negative() { -c.value() } else { c.value() };
        if let Some(opened) = Self::transition(
            p,
            &mut self.violation_started[j],
            &mut self.violation_total_us[j],
            at_us,
            sv,
        ) {
            sink(repo, item, opened);
        }
        Some(old)
    }

    /// The tolerance currently in force for a measured pair (`None` when
    /// the repository does not measure the item).
    pub fn tolerance_of(&self, repo: usize, item: ItemId) -> Option<Coherency> {
        let c = self.pairs[self.slot(item, repo + 1)].c;
        if c.is_nan() {
            None
        } else {
            Some(Coherency::new(c.abs()))
        }
    }

    /// Closes `finish`-style any still-open intervals in place (shared by
    /// nothing else; kept next to `finish` for clarity).
    fn settle_open_intervals(&mut self, end_us: u64) {
        for (j, p) in self.pairs.iter_mut().enumerate() {
            if p.c.is_sign_negative() {
                self.violation_total_us[j] += end_us - self.violation_started[j];
                p.c = p.c.abs();
            }
        }
    }

    /// Measured slots in report order (item-major, repositories
    /// ascending): `(slot, repo, item, tolerance)`.
    fn measured(&self) -> impl Iterator<Item = (usize, usize, ItemId, Coherency)> + '_ {
        let stride = self.n_repos + 1;
        self.pairs.iter().enumerate().filter_map(move |(j, p)| {
            if p.c.is_nan() {
                None
            } else {
                Some((j, j % stride - 1, ItemId((j / stride) as u32), Coherency::new(p.c.abs())))
            }
        })
    }

    /// Number of measured (repository, item) pairs.
    pub fn n_pairs(&self) -> usize {
        self.n_measured
    }

    /// Hints the CPU to pull the pair record an imminent
    /// [`FidelityTracker::repo_update`] for `(node, item)` will touch —
    /// the slot address depends only on the event, which is what lets an
    /// event loop that knows its next few deliveries overlap their cache
    /// misses. No-op off x86-64; never faults.
    #[inline]
    pub fn prefetch_pair(&self, node: NodeIdx, item: ItemId) {
        crate::prefetch::read(&self.pairs[self.slot(item, node.index())]);
    }

    /// Applies the pair's violation-interval state machine at `at_us`.
    /// Returns `Some(true)` when a violation interval opens, `Some(false)`
    /// when one closes, `None` when the state is unchanged (always, for a
    /// NaN-tolerance hole: the test compares false and a hole's sign bit
    /// is never set). `started`/`total_us` are the pair's cold interval
    /// bookkeeping, touched only when the state actually flips.
    #[inline]
    fn transition(
        p: &mut PairHot,
        started: &mut u64,
        total_us: &mut u64,
        at_us: u64,
        source_value: f64,
    ) -> Option<bool> {
        // Raw Eq.-3 test (`Coherency::violated_by` on the magnitude):
        // NaN tolerance compares false, keeping holes closed forever.
        let violating_now =
            (source_value - p.repo_value).abs() > p.c.abs() + crate::coherency::VALUE_EPSILON;
        if violating_now == p.c.is_sign_negative() {
            return None;
        }
        if violating_now {
            *started = at_us;
            p.c = -p.c.abs();
            Some(true)
        } else {
            *total_us += at_us - *started;
            p.c = p.c.abs();
            Some(false)
        }
    }

    /// Measured pairs whose violation interval is currently open, as
    /// `(repo, item, started_us)` in slot order. Resuming a session
    /// from a snapshot replays these into the fresh observer so
    /// windowed-fidelity style observers start with the same open
    /// intervals the uninterrupted run was carrying.
    pub fn open_violations(&self) -> impl Iterator<Item = (usize, ItemId, u64)> + '_ {
        let stride = self.n_repos + 1;
        self.pairs.iter().enumerate().filter_map(move |(j, p)| {
            if !p.c.is_nan() && p.c.is_sign_negative() {
                Some((j % stride - 1, ItemId((j / stride) as u32), self.violation_started[j]))
            } else {
                None
            }
        })
    }

    /// Approximate owned size of the tracker state in bytes (hot and
    /// cold arrays + header) — snapshot telemetry only.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.source_value.len() * std::mem::size_of::<f64>()
            + self.pairs.len() * std::mem::size_of::<PairHot>()
            + (self.violation_started.len() + self.violation_total_us.len())
                * std::mem::size_of::<u64>()
    }

    /// Folds the tracker's complete state — every tolerance/sign bit
    /// pattern, repository copy, interval start and accumulated total —
    /// into `h`, for the snapshot `state_digest` equality gates.
    pub fn digest_into(&self, h: &mut crate::digest::Fnv1a) {
        h.write_usize(self.n_repos);
        h.write_usize(self.n_measured);
        h.write_u64(self.start_us);
        for &v in &self.source_value {
            h.write_f64(v);
        }
        for (j, p) in self.pairs.iter().enumerate() {
            h.write_f64(p.c);
            h.write_f64(p.repo_value);
            // Interval starts are only meaningful while the sign bit is
            // set; digest them gated so a closed slot's stale start
            // cannot split digests of behaviorally identical trackers.
            if p.c.is_sign_negative() {
                h.write_u64(self.violation_started[j]);
            }
            h.write_u64(self.violation_total_us[j]);
        }
    }

    /// Closes all open violation intervals at `end_us` (µs) and produces
    /// the report. The tracker may not be used afterwards.
    pub fn finish(mut self, end_us: u64) -> FidelityReport {
        assert!(end_us >= self.start_us, "end must not precede start");
        let duration_us = end_us - self.start_us;
        self.settle_open_intervals(end_us);
        let mut per_repo_loss = vec![0.0f64; self.n_repos];
        let mut per_repo_n = vec![0usize; self.n_repos];
        let mut pair_losses = Vec::with_capacity(self.n_measured);
        for (j, repo, item, coherency) in self.measured() {
            let loss = if duration_us > 0 {
                (self.violation_total_us[j] as f64 / duration_us as f64).clamp(0.0, 1.0) * 100.0
            } else {
                0.0
            };
            per_repo_loss[repo] += loss;
            per_repo_n[repo] += 1;
            pair_losses.push(PairLoss { repo, item, coherency, loss_pct: loss });
        }
        let repo_loss: Vec<f64> = per_repo_loss
            .iter()
            .zip(&per_repo_n)
            .map(|(&l, &n)| if n > 0 { l / n as f64 } else { 0.0 })
            .collect();
        let measured: Vec<f64> =
            repo_loss.iter().zip(&per_repo_n).filter(|(_, &n)| n > 0).map(|(&l, _)| l).collect();
        let overall = if measured.is_empty() {
            0.0
        } else {
            measured.iter().sum::<f64>() / measured.len() as f64
        };
        FidelityReport {
            loss_pct: overall,
            per_repo_loss_pct: repo_loss,
            pair_losses,
            duration_ms: duration_us as f64 / 1000.0,
        }
    }
}

/// Loss of one measured (repository, item) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairLoss {
    /// 0-based repository number.
    pub repo: usize,
    /// The measured item.
    pub item: ItemId,
    /// The tolerance it was measured against.
    pub coherency: Coherency,
    /// Percentage of the observation window spent out of tolerance.
    pub loss_pct: f64,
}

/// Aggregated fidelity results for one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// System-wide loss of fidelity in percent (the paper's y-axis).
    pub loss_pct: f64,
    /// Mean loss per repository (index = 0-based repository number).
    pub per_repo_loss_pct: Vec<f64>,
    /// Every measured pair's loss.
    pub pair_losses: Vec<PairLoss>,
    /// Observation window length, ms.
    pub duration_ms: f64,
}

impl FidelityReport {
    /// System-wide fidelity in percent.
    pub fn fidelity_pct(&self) -> f64 {
        100.0 - self.loss_pct
    }

    /// The worst repository's loss.
    pub fn max_repo_loss_pct(&self) -> f64 {
        self.per_repo_loss_pct.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: f64) -> Coherency {
        Coherency::new(v)
    }

    fn one_pair(tol: f64) -> (Workload, FidelityTracker) {
        let w = Workload::from_needs(vec![vec![Some(c(tol))]]);
        let t = FidelityTracker::new(&w, &[1.0], 0);
        (w, t)
    }

    #[test]
    fn perfectly_coherent_run_has_zero_loss() {
        let (_w, mut t) = one_pair(0.5);
        t.source_update(100000, ItemId(0), 1.2);
        t.source_update(200000, ItemId(0), 1.4);
        let r = t.finish(1000000);
        assert_eq!(r.loss_pct, 0.0);
        assert_eq!(r.fidelity_pct(), 100.0);
    }

    #[test]
    fn violation_interval_measured_exactly() {
        let (_w, mut t) = one_pair(0.5);
        // Source jumps out of tolerance at t=100; repo catches up at t=350.
        t.source_update(100000, ItemId(0), 2.0);
        t.repo_update(350000, NodeIdx::repo(0), ItemId(0), 2.0);
        let r = t.finish(1000000);
        // 250ms of violation over 1000ms = 25% loss.
        assert!((r.loss_pct - 25.0).abs() < 1e-9, "{}", r.loss_pct);
    }

    #[test]
    fn open_violation_charged_to_end() {
        let (_w, mut t) = one_pair(0.5);
        t.source_update(600000, ItemId(0), 2.0);
        let r = t.finish(1000000);
        assert!((r.loss_pct - 40.0).abs() < 1e-9, "{}", r.loss_pct);
    }

    #[test]
    fn violation_toggles_accumulate() {
        let (_w, mut t) = one_pair(0.5);
        t.source_update(100000, ItemId(0), 2.0); // violate
        t.source_update(200000, ItemId(0), 1.2); // back in tolerance
        t.source_update(700000, ItemId(0), 3.0); // violate again
        t.repo_update(800000, NodeIdx::repo(0), ItemId(0), 3.0);
        let r = t.finish(1000000);
        assert!((r.loss_pct - 20.0).abs() < 1e-9, "{}", r.loss_pct);
    }

    #[test]
    fn repo_update_for_unmeasured_item_is_ignored() {
        let w = Workload::from_needs(vec![vec![Some(c(0.5)), None]]);
        let mut t = FidelityTracker::new(&w, &[1.0, 1.0], 0);
        t.repo_update(10000, NodeIdx::repo(0), ItemId(1), 99.0);
        let r = t.finish(100000);
        assert_eq!(r.loss_pct, 0.0);
    }

    #[test]
    fn aggregation_means_items_then_repos() {
        // Repo0: two items, one violated 100% of the window, one clean
        // → repo0 loss 50%. Repo1: one clean item → 0%. System: 25%.
        let w = Workload::from_needs(vec![
            vec![Some(c(0.1)), Some(c(10.0))],
            vec![None, Some(c(10.0))],
        ]);
        let mut t = FidelityTracker::new(&w, &[1.0, 1.0], 0);
        t.source_update(0, ItemId(0), 5.0); // violates repo0/item0 forever
        let r = t.finish(1000000);
        assert!((r.per_repo_loss_pct[0] - 50.0).abs() < 1e-9);
        assert_eq!(r.per_repo_loss_pct[1], 0.0);
        assert!((r.loss_pct - 25.0).abs() < 1e-9);
        assert!((r.max_repo_loss_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn pair_losses_enumerate_measured_pairs() {
        let w = Workload::from_needs(vec![vec![Some(c(0.1)), Some(c(0.2))]]);
        let t = FidelityTracker::new(&w, &[1.0, 1.0], 0);
        let r = t.finish(10000);
        assert_eq!(r.pair_losses.len(), 2);
        assert_eq!(r.pair_losses[0].item, ItemId(0));
        assert_eq!(r.pair_losses[1].coherency, c(0.2));
    }

    #[test]
    fn zero_duration_run_reports_zero_loss() {
        let (_w, t) = one_pair(0.5);
        let r = t.finish(0);
        assert_eq!(r.loss_pct, 0.0);
        assert_eq!(r.duration_ms, 0.0);
    }

    #[test]
    fn sink_reports_open_and_close_transitions() {
        let (_w, mut t) = one_pair(0.5);
        let mut log = Vec::new();
        let mut sink = |repo: usize, item: ItemId, opened: bool| log.push((repo, item, opened));
        t.source_update_sink(100, ItemId(0), 2.0, &mut sink); // opens
        t.source_update_sink(200, ItemId(0), 2.1, &mut sink); // still open: no event
        t.repo_update_sink(300, NodeIdx::repo(0), ItemId(0), 2.1, &mut sink); // closes
        assert_eq!(log, vec![(0, ItemId(0), true), (0, ItemId(0), false)]);
    }

    #[test]
    fn tightening_tolerance_opens_violation_at_the_mutation_instant() {
        let (_w, mut t) = one_pair(0.5);
        // Source drifts to 1.3: within ±0.5, no violation.
        t.source_update(100_000, ItemId(0), 1.3);
        let mut opened = Vec::new();
        let old = t.set_tolerance(400_000, 0, ItemId(0), c(0.1), &mut |r, i, o| {
            opened.push((r, i, o));
        });
        assert_eq!(old, Some(c(0.5)));
        assert_eq!(opened, vec![(0, ItemId(0), true)], "|1.3-1.0| > 0.1 must open at t=400ms");
        assert_eq!(t.tolerance_of(0, ItemId(0)), Some(c(0.1)));
        let r = t.finish(1_000_000);
        // Violation runs from the mutation instant to the end: 60%.
        assert!((r.loss_pct - 60.0).abs() < 1e-9, "{}", r.loss_pct);
    }

    #[test]
    fn loosening_tolerance_closes_violation_at_the_mutation_instant() {
        let (_w, mut t) = one_pair(0.5);
        t.source_update(100_000, ItemId(0), 2.0); // opens (|2.0-1.0| > 0.5)
        let mut log = Vec::new();
        t.set_tolerance(300_000, 0, ItemId(0), c(5.0), &mut |r, i, o| log.push((r, i, o)));
        assert_eq!(log, vec![(0, ItemId(0), false)]);
        let r = t.finish(1_000_000);
        // Only the 100ms..300ms interval counts: 20%.
        assert!((r.loss_pct - 20.0).abs() < 1e-9, "{}", r.loss_pct);
    }

    #[test]
    fn set_tolerance_on_unmeasured_pair_is_rejected() {
        let w = Workload::from_needs(vec![vec![Some(c(0.5)), None]]);
        let mut t = FidelityTracker::new(&w, &[1.0, 1.0], 0);
        let mut called = false;
        let old = t.set_tolerance(1000, 0, ItemId(1), c(0.1), &mut |_, _, _| called = true);
        assert_eq!(old, None);
        assert!(!called);
        assert_eq!(t.tolerance_of(0, ItemId(1)), None);
        assert_eq!(t.n_pairs(), 1);
    }
}
