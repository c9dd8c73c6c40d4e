//! Pull-based coherency maintenance with adaptive Time-To-Refresh (TTR).
//!
//! §8 of the paper names pull, adaptive push-pull combinations, and leases
//! as the dissemination mechanisms to evaluate next over the repository
//! overlay, citing the companion work (Bhide et al., *Adaptive Push-Pull:
//! Disseminating Dynamic Web Data*, IEEE ToC 2002). This module implements
//! that client side so the experiments can compare push against pull on
//! identical traces:
//!
//! * [`TtrPolicy::Fixed`] — poll every `ttr` ms, the classic web-cache
//!   baseline;
//! * [`TtrPolicy::Adaptive`] — the adaptive-TTR estimator: after each
//!   poll, the next TTR shrinks when the observed change approaches the
//!   tolerance `c` and grows when the data is quiescent, clamped to
//!   `[ttr_min, ttr_max]`;
//! * [`PushPull`] — the adaptive combination: a repository is *pulled*
//!   until its observed violation rate exceeds a threshold, then switches
//!   to push (and back), modeling the push-pull adaptation the companion
//!   paper proposes.
//!
//! [`simulate_pull`] replays a trace against a policy and returns the same
//! loss-of-fidelity metric the push experiments report, plus the poll
//! count (the pull analogue of message overhead).

use serde::{Deserialize, Serialize};

use crate::coherency::Coherency;
use d3t_traces::Trace;

/// How a pulling repository schedules its next refresh.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TtrPolicy {
    /// Poll every `ttr_ms` milliseconds.
    Fixed {
        /// The constant refresh interval.
        ttr_ms: f64,
    },
    /// Adaptive TTR (Bhide et al. §3): the next interval is scaled by how
    /// close the last observed change came to the tolerance.
    ///
    /// After a poll that observed a value change of magnitude `d` over an
    /// interval `ttr`, the most aggressive estimate of the time to drift
    /// by `c` is `ttr_next = ttr · (c / d)` (linear extrapolation of the
    /// observed rate). That estimate is damped by `alpha` against the
    /// previous TTR and clamped to `[ttr_min_ms, ttr_max_ms]`; a poll that
    /// observed no change multiplies the TTR by `growth`.
    Adaptive {
        /// Lower clamp — never poll faster than this.
        ttr_min_ms: f64,
        /// Upper clamp — never poll slower than this.
        ttr_max_ms: f64,
        /// Damping weight on the new estimate, in `(0, 1]`.
        alpha: f64,
        /// Multiplicative TTR growth on quiescent polls (> 1).
        growth: f64,
    },
}

impl TtrPolicy {
    /// The companion paper's default adaptive parameters, scaled for the
    /// 1 Hz stock traces.
    pub fn adaptive_default() -> Self {
        // React sharply to observed change (high alpha), creep up slowly
        // on quiescence — the companion paper's conservative stance that
        // "a poll that came back different was probably already late".
        Self::Adaptive { ttr_min_ms: 1_000.0, ttr_max_ms: 30_000.0, alpha: 0.9, growth: 1.1 }
    }

    /// Validates parameters, panicking on nonsense.
    pub fn validate(&self) {
        match *self {
            Self::Fixed { ttr_ms } => {
                assert!(ttr_ms > 0.0 && ttr_ms.is_finite(), "ttr must be positive");
            }
            Self::Adaptive { ttr_min_ms, ttr_max_ms, alpha, growth } => {
                assert!(ttr_min_ms > 0.0, "ttr_min must be positive");
                assert!(ttr_max_ms >= ttr_min_ms, "ttr_max must be >= ttr_min");
                assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
                assert!(growth > 1.0, "growth must exceed 1");
            }
        }
    }

    /// Computes the next TTR given the previous one and the poll outcome.
    ///
    /// `observed_delta` is the absolute value change seen by this poll;
    /// `c` is the repository's tolerance for the item.
    pub fn next_ttr(&self, prev_ttr_ms: f64, observed_delta: f64, c: Coherency) -> f64 {
        match *self {
            Self::Fixed { ttr_ms } => ttr_ms,
            Self::Adaptive { ttr_min_ms, ttr_max_ms, alpha, growth } => {
                let proposed = if observed_delta <= f64::EPSILON {
                    prev_ttr_ms * growth
                } else {
                    // Time to drift by c at the observed rate.
                    let estimate = prev_ttr_ms * (c.value() / observed_delta).max(0.0);
                    alpha * estimate + (1.0 - alpha) * prev_ttr_ms
                };
                proposed.clamp(ttr_min_ms, ttr_max_ms)
            }
        }
    }

    /// The interval used for the very first poll.
    pub fn initial_ttr(&self) -> f64 {
        match *self {
            Self::Fixed { ttr_ms } => ttr_ms,
            // Start aggressive and let quiescence earn a longer TTR.
            Self::Adaptive { ttr_min_ms, .. } => ttr_min_ms,
        }
    }
}

/// Outcome of replaying one trace under a pull policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PullOutcome {
    /// Loss of fidelity, percent of the observation window out of
    /// tolerance (same metric as the push experiments).
    pub loss_pct: f64,
    /// Refresh requests issued (the pull analogue of messages; each poll
    /// costs a round trip to the source regardless of whether the value
    /// changed).
    pub polls: u64,
    /// Polls that returned a value differing from the cached copy.
    pub useful_polls: u64,
}

/// Replays `trace` for a repository with tolerance `c` refreshing per
/// `policy`, with a fixed network round-trip of `rtt_ms` per poll (the
/// pulled value is the source value at poll departure, installed at poll
/// completion).
pub fn simulate_pull(trace: &Trace, c: Coherency, policy: &TtrPolicy, rtt_ms: f64) -> PullOutcome {
    policy.validate();
    assert!(rtt_ms >= 0.0, "round-trip time must be >= 0");
    let ticks = trace.ticks();
    let [first, .., last] = ticks else {
        return PullOutcome { loss_pct: 0.0, polls: 0, useful_polls: 0 };
    };
    let end_ms = last.at_ms as f64;
    let mut cached = first.value;
    let mut ttr = policy.initial_ttr();
    let mut next_poll = ttr;
    let mut polls = 0u64;
    let mut useful = 0u64;

    // Exact violation accounting by walking ticks and poll instants in
    // time order. `violation_since` marks an open out-of-tolerance span.
    let mut violation_ms = 0.0f64;
    let mut violation_since: Option<f64> = None;
    let mut idx = 1usize; // ticks[0] is the initial coherent value
    let mut source = first.value;

    let step = |at: f64, source: f64, cached: f64, open: &mut Option<f64>, total: &mut f64| {
        let violating = c.violated_by(source, cached);
        match (*open, violating) {
            (None, true) => *open = Some(at),
            (Some(since), false) => {
                *total += at - since;
                *open = None;
            }
            _ => {}
        }
    };

    loop {
        let tick_at = ticks.get(idx).map(|t| t.at_ms as f64);
        let poll_due = next_poll.min(end_ms);
        match tick_at {
            Some(t) if t <= poll_due => {
                source = ticks[idx].value;
                step(t, source, cached, &mut violation_since, &mut violation_ms);
                idx += 1;
            }
            _ => {
                if poll_due >= end_ms {
                    break;
                }
                // Poll departs now; the response installs rtt later with
                // the value as of departure.
                polls += 1;
                let fetched = source;
                let install_at = (poll_due + rtt_ms).min(end_ms);
                let delta = (fetched - cached).abs();
                if delta > f64::EPSILON {
                    useful += 1;
                }
                cached = fetched;
                // Between departure and install the old copy persisted;
                // the source may not tick in that window (rtt is small),
                // so evaluating at install time is exact for rtt <= one
                // tick interval and conservative otherwise.
                step(install_at, source, cached, &mut violation_since, &mut violation_ms);
                ttr = policy.next_ttr(ttr, delta, c);
                next_poll = poll_due + ttr;
            }
        }
    }
    if let Some(since) = violation_since {
        violation_ms += end_ms - since;
    }
    PullOutcome {
        loss_pct: (violation_ms / end_ms * 100.0).clamp(0.0, 100.0),
        polls,
        useful_polls: useful,
    }
}

/// Adaptive push-pull: serve a repository by pull while its measured loss
/// stays under `switch_loss_pct`, escalating to push (loss ≈ push loss,
/// cost ≈ push messages) when the item proves too volatile — the
/// adaptation rule of the companion paper, evaluated per (item,
/// tolerance).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PushPull {
    /// Pull policy used while in the pull regime.
    pub pull: TtrPolicy,
    /// Loss threshold (percent) beyond which the repository switches to
    /// push.
    pub switch_loss_pct: f64,
}

/// Outcome of the adaptive push-pull decision for one (trace, tolerance).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PushPullOutcome {
    /// Whether the adaptation settled on push.
    pub chose_push: bool,
    /// Resulting loss of fidelity, percent.
    pub loss_pct: f64,
    /// Messages or polls spent.
    pub cost: u64,
}

impl PushPull {
    /// Evaluates the adaptation: runs the pull policy; if its loss exceeds
    /// the threshold, falls back to push (whose zero-queue loss is the
    /// per-update delivery delay `rtt/2`, approximated here by counting
    /// tolerance-violating changes and charging each half an RTT).
    pub fn evaluate(&self, trace: &Trace, c: Coherency, rtt_ms: f64) -> PushPullOutcome {
        let pulled = simulate_pull(trace, c, &self.pull, rtt_ms);
        if pulled.loss_pct <= self.switch_loss_pct {
            return PushPullOutcome {
                chose_push: false,
                loss_pct: pulled.loss_pct,
                cost: pulled.polls,
            };
        }
        // Push regime: every tolerance-violating change is delivered one
        // half-RTT late.
        let mut pushes = 0u64;
        let mut last_sent = trace.ticks()[0].value;
        for t in trace.changes().iter().skip(1) {
            if c.violated_by(t.value, last_sent) {
                pushes += 1;
                last_sent = t.value;
            }
        }
        let end_ms = trace.duration_ms() as f64;
        let loss = if end_ms > 0.0 {
            (pushes as f64 * (rtt_ms / 2.0) / end_ms * 100.0).clamp(0.0, 100.0)
        } else {
            0.0
        };
        PushPullOutcome { chose_push: true, loss_pct: loss, cost: pushes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3t_traces::{PriceModel, TraceGenerator};

    fn c(v: f64) -> Coherency {
        Coherency::new(v)
    }

    fn volatile_trace() -> Trace {
        TraceGenerator::new(PriceModel::sparse_random_walk(0.6, 0.05), 30.0, 1000)
            .with_name("VOL")
            .generate(3000, 9)
    }

    fn quiet_trace() -> Trace {
        TraceGenerator::new(PriceModel::sparse_random_walk(0.01, 0.01), 30.0, 1000)
            .with_name("QUIET")
            .generate(3000, 9)
    }

    #[test]
    fn fixed_ttr_polls_at_expected_rate() {
        let t = quiet_trace();
        let out = simulate_pull(&t, c(0.5), &TtrPolicy::Fixed { ttr_ms: 10_000.0 }, 20.0);
        // ~3000s of trace / 10s TTR ≈ 300 polls.
        assert!((280..=305).contains(&(out.polls as i64)), "{}", out.polls);
    }

    #[test]
    fn faster_polling_never_hurts_fidelity() {
        let t = volatile_trace();
        let fast = simulate_pull(&t, c(0.05), &TtrPolicy::Fixed { ttr_ms: 1_000.0 }, 20.0);
        let slow = simulate_pull(&t, c(0.05), &TtrPolicy::Fixed { ttr_ms: 30_000.0 }, 20.0);
        assert!(fast.loss_pct <= slow.loss_pct);
        assert!(fast.polls > slow.polls);
    }

    /// A trace with a quiet hour, a volatile burst, then quiet again —
    /// the regime where adaptation pays (uniformly volatile data gives a
    /// fixed poller nothing to waste, so there adaptive merely matches).
    fn bursty_trace() -> Trace {
        let mut ticks = Vec::new();
        let mut v: f64 = 30.0;
        for i in 0..3000u64 {
            if (1000..2000).contains(&i) {
                v += if i % 2 == 0 { 0.06 } else { -0.05 };
            }
            ticks.push((i * 1000, (v * 100.0).round() / 100.0));
        }
        Trace::from_pairs("BURST", ticks)
    }

    #[test]
    fn adaptive_ttr_bounds_loss_at_a_fraction_of_the_poll_cost() {
        // The value proposition of adaptive TTR on regime-switching data:
        // loss stays bounded while spending a small fraction of the polls
        // a tolerance-safe fixed interval would need. (Exact matched-
        // budget comparisons are fragile — the estimator pays a ramp-up
        // cost entering each regime — so the claim is cost-shaped.)
        let t = bursty_trace();
        let adaptive = simulate_pull(&t, c(0.10), &TtrPolicy::adaptive_default(), 20.0);
        // A fixed poller needs ~the violation period (~18 s here) to stay
        // coherent; per-second polling is the safe upper bound: 3000
        // polls. Adaptive must get within a few percent loss with <10%
        // of that budget.
        assert!(adaptive.polls < 300, "polls {}", adaptive.polls);
        assert!(adaptive.loss_pct < 10.0, "loss {}", adaptive.loss_pct);
        // And the dense fixed poller is indeed near-perfect but 20x the
        // cost — the trade the adaptive policy is navigating.
        let dense = simulate_pull(&t, c(0.10), &TtrPolicy::Fixed { ttr_ms: 1_000.0 }, 20.0);
        assert!(dense.loss_pct < 0.5);
        assert!(dense.polls > 10 * adaptive.polls);
    }

    #[test]
    fn adaptive_ttr_backs_off_on_quiet_data() {
        let quiet = quiet_trace();
        let volatile = volatile_trace();
        let p = TtrPolicy::adaptive_default();
        let q = simulate_pull(&quiet, c(0.10), &p, 20.0);
        let v = simulate_pull(&volatile, c(0.05), &p, 20.0);
        assert!(
            q.polls < v.polls / 2,
            "quiet data should be polled far less: {} vs {}",
            q.polls,
            v.polls
        );
    }

    #[test]
    fn next_ttr_clamps_and_grows() {
        let p =
            TtrPolicy::Adaptive { ttr_min_ms: 100.0, ttr_max_ms: 1_000.0, alpha: 1.0, growth: 2.0 };
        // No change observed → doubles, clamped at max.
        assert_eq!(p.next_ttr(600.0, 0.0, c(0.1)), 1_000.0);
        // Huge change → shrinks, clamped at min.
        assert_eq!(p.next_ttr(600.0, 10.0, c(0.1)), 100.0);
        // Moderate change: estimate = 600 * (0.1/0.2) = 300.
        assert!((p.next_ttr(600.0, 0.2, c(0.1)) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn push_pull_switches_only_for_volatile_items() {
        let pp = PushPull { pull: TtrPolicy::adaptive_default(), switch_loss_pct: 2.0 };
        let quiet = pp.evaluate(&quiet_trace(), c(0.5), 40.0);
        assert!(!quiet.chose_push, "quiet item should stay pulled");
        let hot = pp.evaluate(&volatile_trace(), c(0.02), 40.0);
        assert!(hot.chose_push, "volatile tight item should escalate to push");
        assert!(hot.loss_pct < 20.0, "push keeps volatile items coherent");
    }

    #[test]
    fn zero_length_trace_is_trivially_coherent() {
        let t = Trace::from_pairs("Z", [(0u64, 1.0)]);
        let out = simulate_pull(&t, c(0.1), &TtrPolicy::Fixed { ttr_ms: 100.0 }, 5.0);
        assert_eq!(out.loss_pct, 0.0);
        assert_eq!(out.polls, 0);
    }

    #[test]
    #[should_panic(expected = "ttr must be positive")]
    fn rejects_bad_fixed_ttr() {
        let t = quiet_trace();
        let _ = simulate_pull(&t, c(0.1), &TtrPolicy::Fixed { ttr_ms: 0.0 }, 5.0);
    }
}
