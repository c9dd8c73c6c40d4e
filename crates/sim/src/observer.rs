//! Typed observation of a running [`Session`](crate::session::Session).
//!
//! An [`Observer`] receives a callback for every semantically interesting
//! event the session processes: source changes, update sends and
//! deliveries, violation-interval transitions, and a per-event queue-depth
//! sample. The session is generic over its observer, so the compiler
//! monomorphizes the event loop per observer type:
//!
//! * with [`NoopObserver`] (the default, and what `d3t_sim::run` uses)
//!   every callback is an empty inlined body — the loop compiles to the
//!   same code as the observer-free reference engine (`d3t-bench`
//!   tracks the ratio as `engine.session_vs_oracle_x`);
//! * a real observer pays exactly for what it touches — there is no
//!   dynamic dispatch, no event buffering, and no allocation unless the
//!   observer itself allocates.
//!
//! Two built-ins cover the common needs: [`WindowedFidelity`] integrates
//! open-violation pair-time into fixed windows (the fidelity *time
//! series* a single end-of-run loss percentage cannot show), and
//! [`EventTrace`] records a bounded structured event log. Observers
//! compose in pairs: `(A, B)` is itself an observer.

use d3t_core::dissemination::Update;
use d3t_core::item::ItemId;
use d3t_core::overlay::NodeIdx;

/// One fault-plan action the session observed — crash/recover schedule
/// points, message-loss outcomes, and overlay self-healing steps. See
/// the crate-level "Failure model" section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultObservation {
    /// `node` crashed (fail-stop).
    Crash {
        /// The crashed repository node.
        node: NodeIdx,
    },
    /// `node` recovered; any children adopted away from it were handed
    /// back first.
    Recover {
        /// The recovered repository node.
        node: NodeIdx,
    },
    /// `child`'s subscription to `item` was re-parented from the dead
    /// `from` onto the surviving ancestor `to`.
    Reparent {
        /// The orphaned dependent.
        child: NodeIdx,
        /// Its crashed parent.
        from: NodeIdx,
        /// The surviving ancestor now serving it.
        to: NodeIdx,
        /// The re-parented item.
        item: ItemId,
    },
    /// One send attempt from `from` to `to` was destroyed by the loss
    /// model.
    Lost {
        /// Sender of the destroyed attempt.
        from: NodeIdx,
        /// Intended recipient.
        to: NodeIdx,
    },
    /// A retransmission was scheduled after a lost attempt (capped
    /// exponential backoff; the attempt it retries was reported as
    /// [`FaultObservation::Lost`]).
    Retransmit {
        /// Retransmitting sender.
        from: NodeIdx,
        /// Recipient.
        to: NodeIdx,
    },
}

/// Callbacks a [`Session`](crate::session::Session) issues while it runs.
/// Every method has a no-op default, so an observer implements only what
/// it needs. Times are the engine's integer microseconds.
pub trait Observer {
    /// The source observed a new value for `item` (trace tick or injected
    /// hot-swap).
    fn on_source_change(&mut self, at_us: u64, item: ItemId, value: f64) {
        let _ = (at_us, item, value);
    }

    /// `from` finished preparing `update` for `to`; it will arrive at
    /// `arrival_us` (which may lie past the horizon, in which case it is
    /// counted but never delivered).
    fn on_send(
        &mut self,
        at_us: u64,
        from: NodeIdx,
        to: NodeIdx,
        update: &Update,
        arrival_us: u64,
    ) {
        let _ = (at_us, from, to, update, arrival_us);
    }

    /// `update` was delivered to `node`.
    fn on_delivery(&mut self, at_us: u64, node: NodeIdx, update: &Update) {
        let _ = (at_us, node, update);
    }

    /// `update` arrived at a failed repository and was dropped.
    fn on_dropped(&mut self, at_us: u64, node: NodeIdx, update: &Update) {
        let _ = (at_us, node, update);
    }

    /// A measured `(repo, item)` pair left its coherency tolerance at
    /// `at_us` (a violation interval opened).
    fn on_violation_open(&mut self, at_us: u64, repo: usize, item: ItemId) {
        let _ = (at_us, repo, item);
    }

    /// A previously violating `(repo, item)` pair came back within
    /// tolerance at `at_us`.
    fn on_violation_close(&mut self, at_us: u64, repo: usize, item: ItemId) {
        let _ = (at_us, repo, item);
    }

    /// One scheduler event was fully processed; `pending` is the number of
    /// events still queued — the queue-stats feed for backlog dashboards.
    fn on_event(&mut self, at_us: u64, pending: usize) {
        let _ = (at_us, pending);
    }

    /// A fault action was applied at `at_us` — crash, recovery,
    /// re-parenting, a lost send attempt, or a retransmission. Crashes
    /// and recoveries come from an installed fault plan's timeline or
    /// from an injected `Dynamic::FailRepo` / `RecoverRepo`; the rest
    /// only from an installed plan.
    fn on_fault(&mut self, at_us: u64, fault: &FaultObservation) {
        let _ = (at_us, fault);
    }

    /// The observation window closed at `end_us` (called once, from
    /// `Session::finish` / `run_to_end`).
    fn on_end(&mut self, end_us: u64) {
        let _ = end_us;
    }
}

/// The do-nothing observer: every callback is an empty inlined body, so a
/// `Session<_, NoopObserver>` compiles to the unobserved event loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Two observers driven in sequence — lets a session e.g. collect a
/// fidelity time series *and* an event trace in one run.
impl<A: Observer, B: Observer> Observer for (A, B) {
    fn on_source_change(&mut self, at_us: u64, item: ItemId, value: f64) {
        self.0.on_source_change(at_us, item, value);
        self.1.on_source_change(at_us, item, value);
    }
    fn on_send(
        &mut self,
        at_us: u64,
        from: NodeIdx,
        to: NodeIdx,
        update: &Update,
        arrival_us: u64,
    ) {
        self.0.on_send(at_us, from, to, update, arrival_us);
        self.1.on_send(at_us, from, to, update, arrival_us);
    }
    fn on_delivery(&mut self, at_us: u64, node: NodeIdx, update: &Update) {
        self.0.on_delivery(at_us, node, update);
        self.1.on_delivery(at_us, node, update);
    }
    fn on_dropped(&mut self, at_us: u64, node: NodeIdx, update: &Update) {
        self.0.on_dropped(at_us, node, update);
        self.1.on_dropped(at_us, node, update);
    }
    fn on_violation_open(&mut self, at_us: u64, repo: usize, item: ItemId) {
        self.0.on_violation_open(at_us, repo, item);
        self.1.on_violation_open(at_us, repo, item);
    }
    fn on_violation_close(&mut self, at_us: u64, repo: usize, item: ItemId) {
        self.0.on_violation_close(at_us, repo, item);
        self.1.on_violation_close(at_us, repo, item);
    }
    fn on_event(&mut self, at_us: u64, pending: usize) {
        self.0.on_event(at_us, pending);
        self.1.on_event(at_us, pending);
    }
    fn on_fault(&mut self, at_us: u64, fault: &FaultObservation) {
        self.0.on_fault(at_us, fault);
        self.1.on_fault(at_us, fault);
    }
    fn on_end(&mut self, end_us: u64) {
        self.0.on_end(end_us);
        self.1.on_end(end_us);
    }
}

/// One point of a [`WindowedFidelity`] time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// Window start, µs.
    pub start_us: u64,
    /// Portion of the window actually observed, µs (the last window may be
    /// partial).
    pub covered_us: u64,
    /// Violating pair-time accumulated inside the window, pair-µs.
    pub violation_pair_us: u64,
}

impl WindowPoint {
    /// Mean loss of fidelity over the window in percent, given the number
    /// of measured pairs.
    pub fn loss_pct(&self, n_pairs: usize) -> f64 {
        if self.covered_us == 0 || n_pairs == 0 {
            return 0.0;
        }
        self.violation_pair_us as f64 / (self.covered_us as f64 * n_pairs as f64) * 100.0
    }
}

/// Windowed fidelity time series: integrates the number of concurrently
/// open violation intervals over time, bucketed into fixed windows.
///
/// The end-of-run [`FidelityReport`](d3t_core::fidelity::FidelityReport)
/// collapses a whole run into one number; this observer is what shows
/// fidelity *degrading during* a failure burst and *recovering after* it.
/// Cost: O(1) per violation transition, zero per ordinary event.
#[derive(Debug, Clone)]
pub struct WindowedFidelity {
    window_us: u64,
    n_pairs: usize,
    /// Number of violation intervals currently open.
    open: u64,
    /// Time up to which `open` has been integrated.
    integrated_to_us: u64,
    windows: Vec<WindowPoint>,
}

impl WindowedFidelity {
    /// A series with the given window length over `n_pairs` measured
    /// pairs (see `Prepared::n_measured_pairs`).
    pub fn new(window_us: u64, n_pairs: usize) -> Self {
        assert!(window_us > 0, "window must be positive");
        Self { window_us, n_pairs, open: 0, integrated_to_us: 0, windows: Vec::new() }
    }

    /// Advances the integral of `open` violation pairs to `to_us`,
    /// splitting across window boundaries.
    fn integrate_to(&mut self, to_us: u64) {
        while self.integrated_to_us < to_us {
            let w = (self.integrated_to_us / self.window_us) as usize;
            while self.windows.len() <= w {
                let start_us = self.windows.len() as u64 * self.window_us;
                self.windows.push(WindowPoint { start_us, covered_us: 0, violation_pair_us: 0 });
            }
            let window_end = (w as u64 + 1) * self.window_us;
            let upto = to_us.min(window_end);
            let span = upto - self.integrated_to_us;
            self.windows[w].covered_us += span;
            self.windows[w].violation_pair_us += span * self.open;
            self.integrated_to_us = upto;
        }
    }

    /// The completed series. Only meaningful after `on_end` (i.e. after
    /// `Session::finish` / `run_to_end`).
    pub fn windows(&self) -> &[WindowPoint] {
        &self.windows
    }

    /// Number of measured pairs the series normalizes by.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// `(window start seconds, loss %)` pairs — plot-ready.
    pub fn series(&self) -> Vec<(f64, f64)> {
        self.windows.iter().map(|w| (w.start_us as f64 / 1e6, w.loss_pct(self.n_pairs))).collect()
    }

    /// Loss of fidelity in percent over the windows starting in
    /// `[lo_us, hi_us)`, merged into one window — each weighted by the
    /// span it covers (0 when they cover none).
    pub fn loss_pct_between(&self, lo_us: u64, hi_us: u64) -> f64 {
        let (viol, covered) = self
            .windows
            .iter()
            .filter(|w| (lo_us..hi_us).contains(&w.start_us))
            .fold((0, 0), |(v, c), w| (v + w.violation_pair_us, c + w.covered_us));
        WindowPoint { start_us: lo_us, covered_us: covered, violation_pair_us: viol }
            .loss_pct(self.n_pairs)
    }
}

impl Observer for WindowedFidelity {
    fn on_violation_open(&mut self, at_us: u64, _repo: usize, _item: ItemId) {
        self.integrate_to(at_us);
        self.open += 1;
    }
    #[expect(
        clippy::expect_used,
        reason = "the tracker emits open/close strictly paired per (item, repo)"
    )]
    fn on_violation_close(&mut self, at_us: u64, _repo: usize, _item: ItemId) {
        self.integrate_to(at_us);
        self.open = self.open.checked_sub(1).expect("close without open");
    }
    fn on_end(&mut self, end_us: u64) {
        self.integrate_to(end_us);
    }
}

/// One recorded [`EventTrace`] entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// The source observed a new value.
    SourceChange {
        /// Event time, µs.
        at_us: u64,
        /// The item that changed.
        item: ItemId,
        /// Its new value.
        value: f64,
    },
    /// An update left a node for a dependent.
    Send {
        /// Send time, µs.
        at_us: u64,
        /// Sender.
        from: NodeIdx,
        /// Recipient.
        to: NodeIdx,
        /// The item being pushed.
        item: ItemId,
        /// Scheduled arrival, µs.
        arrival_us: u64,
    },
    /// An update was delivered.
    Delivery {
        /// Delivery time, µs.
        at_us: u64,
        /// Receiving node.
        node: NodeIdx,
        /// The delivered item.
        item: ItemId,
    },
    /// An update was dropped at a failed repository.
    Dropped {
        /// Drop time, µs.
        at_us: u64,
        /// The failed node.
        node: NodeIdx,
        /// The dropped item.
        item: ItemId,
    },
    /// A violation interval opened (`open == true`) or closed.
    Violation {
        /// Transition time, µs.
        at_us: u64,
        /// 0-based repository number.
        repo: usize,
        /// The measured item.
        item: ItemId,
        /// Opened or closed.
        open: bool,
    },
}

/// Bounded structured event log: records up to `cap` events, then counts
/// the overflow instead of growing without bound.
#[derive(Debug, Clone)]
pub struct EventTrace {
    events: Vec<TraceEvent>,
    cap: usize,
    /// Events that arrived after the log was full.
    pub truncated: u64,
}

impl EventTrace {
    /// A log that keeps at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self { events: Vec::with_capacity(cap.min(4096)), cap, truncated: 0 }
    }

    /// The recorded events, in processing order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    fn record(&mut self, e: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(e);
        } else {
            self.truncated += 1;
        }
    }
}

impl Observer for EventTrace {
    fn on_source_change(&mut self, at_us: u64, item: ItemId, value: f64) {
        self.record(TraceEvent::SourceChange { at_us, item, value });
    }
    fn on_send(
        &mut self,
        at_us: u64,
        from: NodeIdx,
        to: NodeIdx,
        update: &Update,
        arrival_us: u64,
    ) {
        self.record(TraceEvent::Send { at_us, from, to, item: update.item, arrival_us });
    }
    fn on_delivery(&mut self, at_us: u64, node: NodeIdx, update: &Update) {
        self.record(TraceEvent::Delivery { at_us, node, item: update.item });
    }
    fn on_dropped(&mut self, at_us: u64, node: NodeIdx, update: &Update) {
        self.record(TraceEvent::Dropped { at_us, node, item: update.item });
    }
    fn on_violation_open(&mut self, at_us: u64, repo: usize, item: ItemId) {
        self.record(TraceEvent::Violation { at_us, repo, item, open: true });
    }
    fn on_violation_close(&mut self, at_us: u64, repo: usize, item: ItemId) {
        self.record(TraceEvent::Violation { at_us, repo, item, open: false });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_fidelity_integrates_across_boundaries() {
        // Window 100ms, 2 pairs. One violation open 150ms..250ms: 50ms in
        // window 1 and 50ms in window 2.
        let mut w = WindowedFidelity::new(100_000, 2);
        w.on_violation_open(150_000, 0, ItemId(0));
        w.on_violation_close(250_000, 0, ItemId(0));
        w.on_end(400_000);
        let pts = w.windows();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].violation_pair_us, 0);
        assert_eq!(pts[1].violation_pair_us, 50_000);
        assert_eq!(pts[2].violation_pair_us, 50_000);
        assert_eq!(pts[3].violation_pair_us, 0);
        // 50ms of one violating pair over a 100ms window of 2 pairs = 25%.
        assert!((pts[1].loss_pct(2) - 25.0).abs() < 1e-9);
        assert_eq!(w.series().len(), 4);
        assert_eq!(w.series()[1], (0.1, 25.0));
    }

    #[test]
    fn windowed_fidelity_counts_overlapping_violations() {
        let mut w = WindowedFidelity::new(100_000, 4);
        w.on_violation_open(0, 0, ItemId(0));
        w.on_violation_open(50_000, 1, ItemId(0));
        w.on_violation_close(100_000, 0, ItemId(0));
        w.on_violation_close(100_000, 1, ItemId(0));
        w.on_end(100_000);
        // 0..50ms one open, 50..100ms two open: 150k pair-µs of 400k.
        assert_eq!(w.windows()[0].violation_pair_us, 150_000);
        assert!((w.windows()[0].loss_pct(4) - 37.5).abs() < 1e-9);
    }

    #[test]
    fn partial_last_window_normalizes_by_covered_span() {
        let mut w = WindowedFidelity::new(100_000, 1);
        w.on_violation_open(220_000, 0, ItemId(0));
        w.on_end(250_000);
        let last = *w.windows().last().unwrap();
        assert_eq!(last.covered_us, 50_000);
        assert_eq!(last.violation_pair_us, 30_000);
        assert!((last.loss_pct(1) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn loss_between_merges_the_windows_starting_in_range() {
        // Windows of 100 ms over 2 pairs: one pair violating 50..250 ms,
        // and a partial last window (300..350 ms) fully violating.
        let mut w = WindowedFidelity::new(100_000, 2);
        w.on_violation_open(50_000, 0, ItemId(0));
        w.on_violation_close(250_000, 0, ItemId(0));
        w.on_violation_open(300_000, 1, ItemId(0));
        w.on_end(350_000);
        // Window 0: 50k of 200k pair-µs; window 1: 100k of 200k.
        assert!((w.loss_pct_between(0, 100_000) - 25.0).abs() < 1e-9);
        assert!((w.loss_pct_between(0, 200_000) - 37.5).abs() < 1e-9);
        // A window counts by its start: [150 ms, 300 ms) holds window 2
        // (50k of 200k) only.
        assert!((w.loss_pct_between(150_000, 300_000) - 25.0).abs() < 1e-9);
        // The partial window weighs by the 50 ms it covers: windows 2 + 3
        // hold 50k + 50k violating pair-µs over (100k + 50k) × 2 pairs.
        assert!((w.loss_pct_between(200_000, u64::MAX) - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(w.loss_pct_between(400_000, 500_000), 0.0, "no window starts there");
        assert_eq!(WindowedFidelity::new(100_000, 0).loss_pct_between(0, u64::MAX), 0.0);
    }

    #[test]
    fn event_trace_caps_and_counts_overflow() {
        let mut t = EventTrace::with_capacity(2);
        t.on_source_change(1, ItemId(0), 1.0);
        t.on_violation_open(2, 0, ItemId(0));
        t.on_violation_close(3, 0, ItemId(0));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.truncated, 1);
        assert_eq!(
            t.events()[0],
            TraceEvent::SourceChange { at_us: 1, item: ItemId(0), value: 1.0 }
        );
    }

    #[test]
    fn tuple_observer_drives_both() {
        let mut pair = (EventTrace::with_capacity(10), EventTrace::with_capacity(10));
        pair.on_source_change(5, ItemId(1), 2.0);
        assert_eq!(pair.0.events(), pair.1.events());
        assert_eq!(pair.0.events().len(), 1);
    }
}
