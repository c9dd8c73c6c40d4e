//! The steppable simulation session — the simulator's public surface.
//!
//! A [`Session`] owns exactly the state the sealed reference engine owns,
//! plus an [`Observer`] and the fail-stop liveness mask, and decomposes
//! the run-to-completion loop into resumable pieces:
//!
//! ```text
//!   Prepared::build(cfg)
//!        │ session() / session_with::<Q, O>()
//!        ▼
//!   Session ──step()──────────────▶ one event processed
//!        │  ──run_until(t_us)─────▶ every event ≤ t, then now = t
//!        │  ──inject(Dynamic)─────▶ fail / recover / renegotiate / swap
//!        │         ▲                (applied at now, violations
//!        │         │ repeatable      re-evaluated at that instant)
//!        │         ▼
//!        └──run_to_end() / finish()─▶ (FidelityReport, Metrics[, O])
//! ```
//!
//! Determinism is unchanged: a session driven by any interleaving of
//! `step` / `run_until` / `run_to_end` (with no injections) produces the
//! `(FidelityReport, Metrics)` of the sealed [`Engine::run`] loop
//! bit-for-bit, on either queue backend — property-tested at the
//! workspace root. Observation is free when unused: the observer is a
//! type parameter, so the [`NoopObserver`] session monomorphizes to the
//! reference loop (`d3t-bench`'s `engine.session_vs_oracle_x`).
//!
//! The session is also the **allocation-free hot path**: forwarding
//! decisions go through the disseminator's batched check kernel
//! (`on_source_update_into` / `on_repo_update_into`) into a reusable
//! [`ForwardScratch`], so the steady-state deliver loop never touches
//! the heap; queue traffic is bulk (see the engine's performance model).
//!
//! # Performance model: one scalar run drain
//!
//! `drain` is the only drive loop (`run_until` is the same loop with a
//! time limit; [`Session::step`] is the only single-event entry). It pops
//! a **reorder-free run**: every transmission scheduled by processing an
//! event at `t` arrives at or after `t + comp_delay + min link delay`,
//! so queued events inside that window are already in final order. Each
//! event of the run (at most `RUN_CAP`) then goes through the one scalar
//! `process` body — decide, fidelity, transmit, `push_batch` — exactly
//! as `step` would drive it. The run buys two things and nothing else:
//! one bulk pop per ~8 events at the paper's 100 repositories (~32 at
//! 600), and knowing the next few events, so the disseminator row and
//! fidelity pair of the arrival `PREFETCH_AHEAD` events ahead are
//! prefetched while the current one is processed (without it the
//! 2 500-repository drive loses 23 %: both tables are tens of MB there).
//!
//! Per-phase telemetry ([`PhaseStats`]) is always on, and sampled: a
//! TSC read costs tens of ns under some hypervisors, a visible share of
//! a run that averages 8 events, so only one run in `TIMED_RUN_EVERY`
//! reads the clock — at its pop, at the decide → fidelity → transmit →
//! push boundaries of each of its events, and at its end. Every other
//! run reads none. The four phases partition the sampled runs' cycles,
//! and their shares stand for the drain's.
//!
//! Three measured dead ends, recorded so they are not re-tried:
//!
//! * **Whole-run prefetch at pop time** — floods the line-fill buffers;
//!   the in-loop distance-4 stream wins by ~8 %.
//! * **Sorting a run's sends by arrival time before the bulk push** —
//!   pop-order invisible but ~15 % slower, measured when the drive still
//!   scheduled on an adaptive calendar queue: event-order send groups
//!   already mostly appended at their bucket's back.
//! * **A five-pass batched pipeline** — gather a run into SoA touches,
//!   sort by item, one decision sweep, one fidelity sweep, an ordered
//!   scatter. It ran at **0.68×** this plain loop *without prefetch* at
//!   100 repositories, 0.95× at 600 and 1.10× at 2 500, all of that win
//!   the k+4 row/pair prefetch (a 600-repository run averages ~32 events
//!   over ~100 items: nothing to group). This loop with the same
//!   prefetch beat it on every workload in ≈ 750 fewer lines.
//!
//! # Performance model: snapshot and resume
//!
//! [`Session::snapshot`] bulk-clones the already-flat state arrays —
//! disseminator rows + CSR edges, fidelity hot/cold columns, tag table,
//! pending queue events (decoded via one [`EventQueue::snapshot_events`]
//! visit), fault-plan runtime — into an owned [`Snapshot`]; nothing is
//! serialized and nothing per-event is allocated beyond the destination
//! vectors. Measured at the bench anchor scale (600 repositories /
//! 100 items / 10k ticks, ~5.0 MB captured): capture ~0.7 ms, restore
//! ~5 ms (restore re-pushes pending events with fresh stamps and
//! replays open violations into the observer), against a full-run wall
//! of seconds — comfortably inside the ≤ 5%-of-one-run CI budget, so
//! forking N what-if branches from a warm snapshot costs N× the
//! *suffix* plus one prefix instead of N× the whole run. The shared
//! immutable inputs (delay matrix, packed source stream) are `Arc`s
//! cloned per session, so warm branches and sweep cells don't re-derive
//! them.

use d3t_core::digest::Fnv1a;
use d3t_core::dissemination::{Disseminator, ForwardScratch, Target, Update};
use d3t_core::fidelity::{FidelityReport, FidelityTracker};
use d3t_core::overlay::{NodeIdx, SOURCE};

use crate::dynamics::{Dynamic, DynamicError};
use crate::engine::{Engine, Event, EventKind, TagTable};
use crate::fault::{
    FaultControl, FaultEvent, FaultPlan, FaultPlanError, FaultState, RepairOp, RepairPolicy,
};
use crate::metrics::Metrics;
use crate::observer::{FaultObservation, NoopObserver, Observer};
use crate::queue::{EventQueue, HeapQueue};
use crate::snapshot::{Snapshot, STATE_DIGEST_SEED};
use crate::Arc;

/// A live, steppable simulation run. Construct via
/// [`Prepared::session`](crate::Prepared::session) /
/// [`session_with`](crate::Prepared::session_with), or from a manually
/// assembled [`Engine`] with [`Session::from_engine`].
pub struct Session<Q: EventQueue<EventKind> = HeapQueue<EventKind>, O: Observer = NoopObserver> {
    comp_delay_us: u64,
    disseminator: Disseminator,
    fidelity: FidelityTracker,
    metrics: Metrics,
    busy_until_us: Vec<u64>,
    queue: Q,
    next_seq: u64,
    end_us: u64,
    observer: O,
    /// Simulation time: the latest event processed or `run_until` target.
    now_us: u64,
    /// Decodes the NaN-boxed tag ids of centralized arrivals.
    tags: TagTable,
    /// The pre-seeded source changes, streamed rather than enqueued (see
    /// the engine's field docs): the stream head outranks equal-time
    /// queue entries.
    source_stream: Arc<Vec<(u64, EventKind)>>,
    /// Next unprocessed `source_stream` entry.
    stream_cursor: usize,
    /// Reused forwarding-decision buffer: the disseminator's batched
    /// check kernel fills it in place, so the steady-state deliver path
    /// performs zero heap allocations (the sealed reference engine keeps
    /// allocating per event — it drives the scalar oracle).
    scratch: ForwardScratch,
    /// Reused send-group buffer `transmit` assembles arrivals in before
    /// handing the whole group to `EventQueue::push_batch`.
    send_buf: Vec<(u64, EventKind)>,
    /// Reused drain buffer `EventQueue::pop_run` fills.
    run_buf: Vec<(u64, EventKind)>,
    /// How far ahead of the earliest pending event the drain loop may
    /// pop a run of events before processing any of them: every
    /// transmission scheduled by processing an event at `t` arrives at
    /// or after `t + comp_delay + min link delay`, so events inside that
    /// window are already in final order. `0` (zero-delay
    /// configurations) degrades every run to a single event.
    batch_window_us: u64,
    /// Always-on per-phase cycle/op counters for the drain loop.
    phases: PhaseStats,
    /// The sampled cycle accumulators `phases`' four `cycles` fields are
    /// settled from at the end of every drain.
    clock: PhaseClock,
    /// Runtime of the installed [`FaultPlan`]: the compiled control
    /// timeline (merged into the drive loop like the source stream, with
    /// controls preceding equal-time simulation events), the pending
    /// repair heap, and the live loss/degradation state the send paths
    /// consult. Inert — one predictable branch per pop and per send —
    /// unless a plan was installed. An installed plan costs its
    /// controls and one RNG draw per send inside a loss or degradation
    /// window. What a faulted drive, repaired crash burst included, costs
    /// over the fault-free one is `d3t-bench`'s `fault.overhead_x` on `whatif-600r`.
    faults: FaultState,
}

/// Most events one reorder-free run may hold — also the shard drains'
/// cap. Window-limited runs average ~8 events at 100 repositories and
/// ~32 at 600, so the cap rarely binds; it keeps the run buffer a few
/// KiB. Any cap is bit-identical.
pub(crate) const RUN_CAP: usize = 128;

/// How many events ahead of the one being processed the drain prefetches
/// an arrival's disseminator row and fidelity pair. Four keeps both
/// tables one access ahead of the loop; issuing a whole run's prefetches
/// at pop time floods the line-fill buffers (measured ~8 % slower).
const PREFETCH_AHEAD: usize = 4;

/// One run in this many reads the clock, with per-event phase stamps
/// (see [`PhaseStats`]); the first run of a session is one of them, so
/// any drain that processed an event has a split to report.
const TIMED_RUN_EVERY: u64 = 64;

/// One phase's always-on telemetry: TSC cycles spent and operations
/// performed (events, messages or queue ops — see
/// [`PhaseStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounter {
    /// TSC cycles attributed to the phase (0 off x86-64).
    pub cycles: u64,
    /// Operations the phase performed.
    pub ops: u64,
}

/// Cheap always-on per-phase counters for the drain loop, kept separate
/// from [`Metrics`] (which is compared bit-for-bit across drive modes —
/// wall-clock telemetry must never participate in that identity).
/// `ops` are exact. Every `cycles` count is **sampled**: only the one
/// run in `TIMED_RUN_EVERY` that is driven with per-event stamps reads
/// the TSC, and its pop and body cycles are split across `queue` /
/// `process` / `fidelity` / `transmit`, so the four phases partition
/// the sampled runs' cycles, not the drain's. Per-phase wall time is
/// recovered by scaling each phase's cycle *share* against a measured
/// wall clock. [`Session::step`] is not instrumented.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Popping runs out of the queue/stream merge (and applying due
    /// fault controls) plus the per-event bulk push (`ops` = events
    /// popped + sends pushed).
    pub queue: PhaseCounter,
    /// Classify, liveness gate and the protocol decision, from the end
    /// of the previous event's push (`ops` = events).
    pub process: PhaseCounter,
    /// The violation-interval transitions and their observer callbacks
    /// (`ops` = events that reached the tracker: all but dropped
    /// arrivals).
    pub fidelity: PhaseCounter,
    /// Send arithmetic and assembly, link faults and `on_send` taps
    /// (`ops` = deliverable messages enqueued).
    pub transmit: PhaseCounter,
    /// Runs popped (`process.ops / runs` is the mean run size).
    pub runs: u64,
}

/// Indices into [`PhaseClock::split`].
const PROCESS: usize = 0;
const FIDELITY: usize = 1;
const TRANSMIT: usize = 2;
const PUSH: usize = 3;

/// The raw cycle accumulators behind [`PhaseStats`], all over the timed
/// runs only: their pop and body totals, and the four-way split of
/// their bodies, which [`PhaseClock::settle`] scales up to the body
/// total.
#[derive(Debug, Default)]
struct PhaseClock {
    /// The latest stamp: closes one span and opens the next.
    last: u64,
    /// Cycles popping timed runs.
    pop: u64,
    /// Cycles driving timed runs, from the end of the pop to the end of
    /// the run.
    body: u64,
    /// Timed runs only: body cycles by [`PROCESS`] / [`FIDELITY`] /
    /// [`TRANSMIT`] / [`PUSH`].
    split: [u64; 4],
}

impl PhaseClock {
    /// Writes the four `cycles` fields: `body` apportioned by `split`.
    fn settle(&self, phases: &mut PhaseStats) {
        let timed = self.split.iter().sum::<u64>().max(1);
        let share = |k: usize| (self.body as u128 * self.split[k] as u128 / timed as u128) as u64;
        phases.queue.cycles = self.pop + share(PUSH);
        phases.process.cycles = share(PROCESS);
        phases.fidelity.cycles = share(FIDELITY);
        phases.transmit.cycles = share(TRANSMIT);
    }
}

impl PhaseStats {
    /// The phases in canonical order, with their names.
    pub fn named(&self) -> [(&'static str, PhaseCounter); 4] {
        [
            ("queue", self.queue),
            ("process", self.process),
            ("fidelity", self.fidelity),
            ("transmit", self.transmit),
        ]
    }

    /// Total cycles attributed across all phases.
    pub fn total_cycles(&self) -> u64 {
        self.named().iter().map(|(_, c)| c.cycles).sum()
    }
}

/// The TSC, for relative per-phase attribution (never converted to time
/// without an external wall-clock calibration). Always 0 off x86-64 —
/// the phase counters then degrade to op counts.
#[inline]
fn cycles() -> u64 {
    #[cfg(target_arch = "x86_64")]
    #[expect(
        clippy::disallowed_methods,
        reason = "relative per-phase cycle attribution only; never a sim timebase"
    )]
    {
        // SAFETY: RDTSC is unprivileged and side-effect-free.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

/// Applies the installed plan's link model to one scheduled arrival:
/// heavy-tailed delay degradation first, then the loss/retransmission
/// loop — each lost attempt pays a capped doubling backoff until the
/// retry budget runs out, at which point the message is abandoned
/// (`None`; the sender's omniscient mirror stays ahead, so the next
/// violating change retries — the same recovery story as fail-stop
/// drops). Receiver dedup holds by construction: all attempts resolve
/// here at send time, so at most one arrival is ever enqueued per
/// logical message.
///
/// A free function over the session's disjoint fields (not a method)
/// so the send loop can call it while other fields are borrowed. Called
/// once per send decision in original event order on every drive path —
/// that single discipline is what makes faulted runs bit-identical
/// across queue backends and drive splits.
#[inline]
fn faulty_arrival<O: Observer>(
    faults: &mut FaultState,
    metrics: &mut Metrics,
    observer: &mut O,
    at_us: u64,
    from: NodeIdx,
    to: NodeIdx,
    mut arrival_us: u64,
) -> Option<u64> {
    use rand::Rng;
    if let Some(pareto) = faults.degrade {
        let extra_ms = pareto.sample(&mut faults.rng);
        arrival_us = arrival_us.saturating_add((extra_ms * 1000.0).round() as u64);
    }
    if faults.loss_prob > 0.0 {
        let spec = faults.retransmit;
        let mut backoff = spec.base_backoff_us;
        let mut attempt = 0u32;
        while faults.rng.gen::<f64>() < faults.loss_prob {
            metrics.lost += 1;
            observer.on_fault(at_us, &FaultObservation::Lost { from, to });
            if attempt >= spec.max_retries {
                return None;
            }
            attempt += 1;
            metrics.retransmits += 1;
            observer.on_fault(at_us, &FaultObservation::Retransmit { from, to });
            arrival_us = arrival_us.saturating_add(backoff);
            backoff = backoff.saturating_mul(2).min(spec.max_backoff_us);
        }
    }
    Some(arrival_us)
}

/// Folds one scheduled event into `h` in decoded form: NaN-boxed
/// tag-table ids are resolved to their `(value, tag)` pairs first, so
/// digests agree across sessions whose tables interned the same pairs
/// under different ids. Source changes fold the node sentinel and an
/// impossible tag pattern, keeping the two event shapes disjoint in the
/// stream.
fn digest_event(h: &mut Fnv1a, at_us: u64, kind: EventKind, tags: &TagTable) {
    h.write_u64(at_us);
    match kind.classify(tags) {
        Event::SourceChange { item, value } => {
            h.write_u64(u64::from(u32::MAX));
            h.write_u64(u64::from(item.0));
            h.write_f64(value);
            h.write_u64(u64::MAX);
        }
        Event::Arrival { node, update } => {
            h.write_u64(u64::from(node.0));
            h.write_u64(u64::from(update.item.0));
            h.write_f64(update.value);
            // A real tag is finite, so its bit pattern is never the
            // all-ones NaN used as the "untagged" sentinel.
            h.write_u64(update.tag.map_or(u64::MAX, |c| c.value().to_bits()));
        }
    }
}

impl<Q: EventQueue<EventKind>, O: Observer> Session<Q, O> {
    /// Wraps an assembled engine into a steppable session. The engine's
    /// construction (input conversion, queue seeding) is the single
    /// shared path — a session starts from exactly the state
    /// [`Engine::run`] would have started from.
    pub fn from_engine(engine: Engine<Q>, observer: O) -> Self {
        let batch_window_us = engine.comp_delay_us.saturating_add(engine.min_link_us);
        Self {
            batch_window_us,
            comp_delay_us: engine.comp_delay_us,
            disseminator: engine.disseminator,
            fidelity: engine.fidelity,
            metrics: engine.metrics,
            busy_until_us: engine.busy_until_us,
            queue: engine.queue,
            next_seq: engine.next_seq,
            end_us: engine.end_us,
            observer,
            now_us: 0,
            tags: engine.tags,
            source_stream: engine.source_stream,
            stream_cursor: engine.stream_cursor,
            scratch: ForwardScratch::new(),
            send_buf: Vec::new(),
            run_buf: Vec::new(),
            phases: PhaseStats::default(),
            clock: PhaseClock::default(),
            faults: FaultState::inert(),
        }
    }

    /// Installs a [`FaultPlan`], compiling it against the current overlay
    /// into the control timeline the drive loop merges. Control events
    /// apply **before** any simulation event at the same instant
    /// (mirroring the stream-before-queue tie rule: state changes precede
    /// the traffic that observes them), and drain runs never cross a
    /// control instant. Installing a new plan replaces the
    /// previous one wholesale; install before driving — controls already
    /// in the past would fire late, clamped to `now_us`.
    ///
    /// # Panics
    /// Panics, with the [`FaultPlanError`]'s message, on a plan
    /// [`FaultPlan::validate`] rejects; a caller whose plan is data it
    /// did not write uses [`Session::try_install_fault_plan`].
    #[expect(
        clippy::panic,
        reason = "documented `# Panics` contract; the fallible twin is try_install_fault_plan"
    )]
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        if let Err(e) = self.try_install_fault_plan(plan) {
            panic!("{e}");
        }
    }

    /// [`Session::install_fault_plan`] for plans from outside the
    /// program: a malformed plan is reported, and the session — its
    /// previously installed plan included — is left exactly as it was.
    pub fn try_install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), FaultPlanError> {
        self.faults = FaultState::compile(plan, &self.disseminator, self.end_us)?;
        Ok(())
    }

    /// Installs a [`FaultPlan`] on a *branched* session (typically one
    /// just resumed from a [`Snapshot`]): compiles the plan against the
    /// **current** overlay, then immediately fires any controls due at
    /// or before `now_us` — exactly what a run that had carried the
    /// plan from t = 0 would have applied by now. A branch whose plan
    /// is entirely in the future (the what-if shape: scenario events
    /// strictly after the fork instant) is therefore bit-identical to a
    /// cold run carrying the same plan from the start, provided the
    /// shared prefix was fault-free.
    pub fn adopt_fault_plan(&mut self, plan: &FaultPlan) {
        self.install_fault_plan(plan);
        while !self.faults.is_idle() && self.faults.next_at() <= self.now_us {
            self.apply_next_control();
        }
    }

    /// Captures everything the session's future depends on into a
    /// compact owned [`Snapshot`]: bulk clones of the already-flat
    /// protocol/fidelity/fault state plus one ordered, non-mutating
    /// queue walk. Valid at any quiescent step boundary (between
    /// `step` / `run_until` calls). [`Prepared::resume`] reconstructs a
    /// session whose run-to-end is bit-identical to this session run
    /// uninterrupted.
    ///
    /// Changes nothing: the receiver stays `&mut` only for source
    /// compatibility.
    ///
    /// [`Prepared::resume`]: crate::Prepared::resume
    pub fn snapshot(&mut self) -> Snapshot {
        let mut queue_events = Vec::with_capacity(self.queue.len());
        self.queue.snapshot_events(&mut queue_events);
        Snapshot {
            now_us: self.now_us,
            end_us: self.end_us,
            stream_cursor: self.stream_cursor,
            busy_until_us: self.busy_until_us.clone(),
            disseminator: self.disseminator.clone(),
            fidelity: self.fidelity.clone(),
            metrics: self.metrics,
            tags: self.tags.clone(),
            queue_events,
            faults: self.faults.clone(),
        }
    }

    /// Overwrites this freshly built session's mutable state with the
    /// snapshot's — the restore half of [`Prepared::resume`]. The
    /// pending events are re-pushed into a fresh queue with ascending
    /// stamps restarted at 0: capture order is pop order, so the
    /// replay reproduces the original total `(at_us, seq)` order,
    /// FIFO ties included, and every later stamp stays strictly above
    /// the restored ones. Still-open violation intervals are replayed
    /// into the (fresh) observer so stateful observers start coherent.
    ///
    /// [`Prepared::resume`]: crate::Prepared::resume
    pub(crate) fn restore_from(&mut self, snap: &Snapshot) {
        debug_assert_eq!(self.end_us, snap.end_us, "snapshot from a different horizon");
        debug_assert_eq!(
            self.busy_until_us.len(),
            snap.busy_until_us.len(),
            "snapshot from a different overlay"
        );
        self.disseminator = snap.disseminator.clone();
        self.fidelity = snap.fidelity.clone();
        self.metrics = snap.metrics;
        self.busy_until_us.clone_from(&snap.busy_until_us);
        self.tags = snap.tags.clone();
        self.faults = snap.faults.clone();
        self.now_us = snap.now_us;
        self.stream_cursor = snap.stream_cursor;
        let mut queue = Q::with_capacity(snap.queue_events.len());
        queue.push_batch(0, &snap.queue_events);
        self.queue = queue;
        self.next_seq = snap.queue_events.len() as u64;
        let Self { fidelity, observer, .. } = self;
        for (repo, item, started_us) in fidelity.open_violations() {
            observer.on_violation_open(started_us, repo, item);
        }
    }

    /// Seeded FNV-1a over the session's canonical state — O(state) to
    /// compute, O(1) to compare: two sessions with equal digests hold
    /// equal protocol, fidelity, fault, clock and pending-event state,
    /// so their runs-to-end produce equal reports (the divergence
    /// gate `repro whatif` and the cross-backend property tests use).
    ///
    /// Scheduled events are digested in *decoded* form (tag-table ids
    /// resolved to their `(value, tag)` pairs) and the stamp counter is
    /// skipped, so a resumed session digests equal to its source —
    /// tag-table ids and restarted stamps are representation, not
    /// state. `now_us` is also skipped: it does not affect run-to-end
    /// behavior, only where a next injection would land.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv1a::with_seed(STATE_DIGEST_SEED);
        self.disseminator.digest_into(&mut h);
        self.fidelity.digest_into(&mut h);
        h.write_bytes(format!("{:?}", self.metrics).as_bytes());
        for &b in &self.busy_until_us {
            h.write_u64(b);
        }
        h.write_usize(self.stream_cursor);
        let mut pending = Vec::with_capacity(self.queue.len());
        self.queue.snapshot_events(&mut pending);
        h.write_usize(pending.len());
        for &(at_us, kind) in &pending {
            digest_event(&mut h, at_us, kind, &self.tags);
        }
        // The fault runtime via its `Debug` bytes: controls apply in
        // one deterministic order on every drive path, so equal
        // behavior renders equal bytes (including the RNG state).
        h.write_bytes(format!("{:?}", self.faults).as_bytes());
        h.finish()
    }

    /// Per-phase drain telemetry accumulated so far (zeroes until a
    /// drain has run; see [`PhaseStats`]).
    pub fn phase_stats(&self) -> &PhaseStats {
        &self.phases
    }

    /// Drains every remaining event through the hot loop **without**
    /// consuming the session — what [`Session::finish`] runs
    /// internally, exposed so callers can read [`Session::phase_stats`] /
    /// [`Session::metrics`] after the run before producing the report.
    /// Advances `now_us` to the horizon.
    pub fn drain_to_end(&mut self) {
        self.drain(self.end_us);
        self.now_us = self.now_us.max(self.end_us);
    }

    /// Current simulation time, µs: the latest processed event time or
    /// `run_until` target, whichever is later. Injections apply here.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Observation horizon, µs.
    pub fn end_us(&self) -> u64 {
        self.end_us
    }

    /// Events still scheduled (including unprocessed pre-seeded source
    /// changes).
    pub fn pending(&self) -> usize {
        self.queue.len() + (self.source_stream.len() - self.stream_cursor)
    }

    /// Unpacks a scheduled event's payload (e.g. what [`Session::step`]
    /// returned) into the ergonomic [`Event`] view, resolving any
    /// centralized tag through this session's side table.
    pub fn classify(&self, kind: EventKind) -> Event {
        kind.classify(&self.tags)
    }

    /// Counters accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The observer, for mid-run inspection.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Protocol state, for mid-run inspection (e.g. `value_at`).
    pub fn disseminator(&self) -> &Disseminator {
        &self.disseminator
    }

    /// Whether the repository is currently up (fail-stop dynamics). The
    /// disseminator's liveness mask is the single source of truth.
    pub fn is_alive(&self, repo: usize) -> bool {
        self.disseminator.is_active(NodeIdx::repo(repo))
    }

    /// Processes the next scheduled event, returning its `(time µs,
    /// payload)`, or `None` when no events remain. Advances `now_us` to
    /// the event time. The only single-event entry: everything else
    /// drives through the run drain.
    pub fn step(&mut self) -> Option<(u64, EventKind)> {
        let (at_us, kind) = self.pop_next_with_faults(self.end_us)?;
        self.process::<false>(at_us, kind, 0);
        Some((at_us, kind))
    }

    /// Processes every event scheduled at or before `t_us` (clamped to
    /// the horizon), then advances `now_us` to the target so injections
    /// happen at exactly the requested instant. Returns the number of
    /// events processed. Asking for a time already passed processes
    /// nothing. Later events are never popped, so an injection's sends
    /// interleave with them through the queue like any other arrival.
    pub fn run_until(&mut self, t_us: u64) -> u64 {
        let t_us = t_us.min(self.end_us);
        let processed = self.drain(t_us);
        self.now_us = self.now_us.max(t_us);
        processed
    }

    /// Drains every remaining event and produces the final report — the
    /// sealed-run semantics. Use [`Session::finish`] to get the observer
    /// back as well.
    pub fn run_to_end(self) -> (FidelityReport, Metrics) {
        let (report, metrics, _) = self.finish();
        (report, metrics)
    }

    /// [`Session::run_to_end`] returning the observer (and whatever it
    /// collected) alongside the report.
    pub fn finish(mut self) -> (FidelityReport, Metrics, O) {
        self.drain(self.end_us);
        let Self { fidelity, metrics, mut observer, end_us, .. } = self;
        observer.on_end(end_us);
        (fidelity.finish(end_us), metrics, observer)
    }

    /// Processes every event at or before `limit_us` — the one drive
    /// loop, behind [`Session::finish`] / [`Session::run_to_end`] /
    /// [`Session::run_until`]. Returns the number of events processed.
    ///
    /// Events are popped in **reorder-free runs** ([`Session::pop_run_mixed`])
    /// inside the safety window (`batch_window_us`): processing an event
    /// at `t` can only schedule arrivals at or after `t + comp_delay +
    /// min link delay`, so a run of events closer together than that is
    /// already in its final order — nothing processing them can schedule
    /// may interleave. Pre-seeded source-stream events merge into the
    /// same runs (they are known upfront, not generated by the run, so
    /// the window argument covers them too). Each event then goes
    /// through [`Session::process`] exactly as [`Session::step`] would
    /// drive it, with the events the run still holds added to the
    /// `on_event` pending sample.
    fn drain(&mut self, limit_us: u64) -> u64 {
        let mut run = std::mem::take(&mut self.run_buf);
        let mut processed = 0u64;
        loop {
            let timed = self.phases.runs.is_multiple_of(TIMED_RUN_EVERY);
            let t0 = if timed { cycles() } else { 0 };
            run.clear();
            if self.pop_run_mixed(limit_us, &mut run) == 0 {
                // Nothing poppable in bulk: a due fault control, a
                // zero-window stream head, a `u64::MAX` residue arrival,
                // or done — the scalar merge is the one source of truth
                // for that precedence.
                match self.pop_next_with_faults(limit_us) {
                    Some(ev) => run.push(ev),
                    None => break,
                }
            }
            let (seq0, dropped0) = (self.next_seq, self.metrics.dropped);
            if timed {
                let t1 = cycles();
                self.clock.pop += t1.wrapping_sub(t0);
                self.clock.last = t1;
                self.drive_run::<true>(&run);
                self.clock.body += cycles().wrapping_sub(t1);
            } else {
                self.drive_run::<false>(&run);
            }
            let n = run.len() as u64;
            let sends = self.next_seq - seq0;
            self.phases.queue.ops += n + sends;
            self.phases.process.ops += n;
            self.phases.fidelity.ops += n - (self.metrics.dropped - dropped0);
            self.phases.transmit.ops += sends;
            self.phases.runs += 1;
            processed += n;
        }
        self.clock.settle(&mut self.phases);
        self.run_buf = run;
        processed
    }

    /// Drives one popped run through [`Session::process`], prefetching
    /// the per-arrival state [`PREFETCH_AHEAD`] events ahead.
    fn drive_run<const TIMED: bool>(&mut self, run: &[(u64, EventKind)]) {
        for (k, &(at_us, kind)) in run.iter().enumerate() {
            if let Some((node, item)) =
                run.get(k + PREFETCH_AHEAD).and_then(|&(_, ahead)| ahead.arrival_target())
            {
                self.disseminator.prefetch_row(node, item);
                self.fidelity.prefetch_pair(node, item);
            }
            self.process::<TIMED>(at_us, kind, run.len() - 1 - k);
        }
    }

    /// On a timed run, closes the span open since the previous stamp
    /// into `phase`; compiles to nothing otherwise.
    #[inline]
    fn lap<const TIMED: bool>(&mut self, phase: usize) {
        if TIMED {
            let t = cycles();
            self.clock.split[phase] += t.wrapping_sub(self.clock.last);
            self.clock.last = t;
        }
    }

    /// Pops one reorder-free run of up to [`RUN_CAP`] events, none later
    /// than `limit_us`, into `buf`, merging the queue and the pre-seeded
    /// source stream — events land in exactly the order the scalar merge
    /// ([`Session::next_event`]) would produce them. Returns the number
    /// popped; `0` means the next thing due is a fault control, or only
    /// a `u64::MAX`-residue event (or nothing) remains within the limit.
    ///
    /// Two shapes:
    /// * queue head strictly below the stream head → a pure queue run
    ///   ([`EventQueue::pop_run`]) capped at the stream head, which
    ///   outranks every equal-time arrival;
    /// * stream head first → a stream-led mixed run: the window anchors
    ///   at the stream head (the global minimum), and queue segments
    ///   (`pop_run` with a saturating window pops everything strictly
    ///   below a cap) alternate with greedy equal-time stream
    ///   consumption until the window or the cap is exhausted. Stream
    ///   events are pre-seeded — not generated by processing the run —
    ///   so the safety-window argument covers them unchanged.
    fn pop_run_mixed(&mut self, limit_us: u64, buf: &mut Vec<(u64, EventKind)>) -> usize {
        // Runs never cross a fault-control instant: liveness, loss and
        // degradation state stay constant within a run. Idle fault state
        // caps at `u64::MAX` — no cost, no effect. The time limit is one
        // more strict cap, so an event past it is never popped.
        let stop_at = self.faults.next_at().min(limit_us.saturating_add(1));
        let head_at = self.source_stream.get(self.stream_cursor).map(|&(at_us, _)| at_us);
        let cap0 = head_at.unwrap_or(u64::MAX).min(stop_at);
        let n = self.queue.pop_run(self.batch_window_us, cap0, RUN_CAP, buf);
        if n > 0 {
            return n;
        }
        // Queue has nothing strictly below the stream head, so the head
        // (if any) is the global minimum and anchors the window — unless
        // a control fires at or before it or it lies past the limit:
        // defer to the scalar merge then.
        let Some(first_at) = head_at.filter(|&at_us| at_us < stop_at) else { return 0 };
        let limit = first_at.saturating_add(self.batch_window_us).min(stop_at);
        let mut n = 0usize;
        while n < RUN_CAP {
            let s_at = self.source_stream.get(self.stream_cursor).map_or(u64::MAX, |&(a, _)| a);
            let seg_cap = s_at.min(limit);
            n += self.queue.pop_run(u64::MAX, seg_cap, RUN_CAP - n, buf);
            if n >= RUN_CAP || s_at >= limit {
                break;
            }
            // All stream events at exactly `s_at` precede every
            // equal-time queue arrival; take them greedily.
            while n < RUN_CAP {
                match self.source_stream.get(self.stream_cursor) {
                    Some(&ev) if ev.0 == s_at => {
                        buf.push(ev);
                        self.stream_cursor += 1;
                        n += 1;
                    }
                    _ => break,
                }
            }
        }
        n
    }

    /// Applies a [`Dynamic`] at the session's current time. Violation
    /// accounting is re-evaluated at exactly this instant: a tightened
    /// tolerance may open an interval *now*, a loosened one may close
    /// one, a hot-swap is a full source update. On error the simulation
    /// state is unchanged.
    pub fn inject(&mut self, dynamic: Dynamic) -> Result<(), DynamicError> {
        let at_us = self.now_us;
        match dynamic {
            Dynamic::FailRepo { repo } => {
                let node = self.check_repo(repo)?;
                self.apply_fault_event(at_us, FaultEvent::Crash { node: node.0 });
            }
            Dynamic::RecoverRepo { repo } => {
                let node = self.check_repo(repo)?;
                self.apply_fault_event(at_us, FaultEvent::Recover { node: node.0 });
            }
            Dynamic::SetTolerance { repo, item, c } => {
                let node = self.check_repo(repo)?;
                self.check_item(item)?;
                let fidelity = &mut self.fidelity;
                let observer = &mut self.observer;
                let old = fidelity.set_tolerance(at_us, repo, item, c, &mut |r, i, opened| {
                    if opened {
                        observer.on_violation_open(at_us, r, i);
                    } else {
                        observer.on_violation_close(at_us, r, i);
                    }
                });
                if old.is_none() {
                    return Err(DynamicError::UnmeasuredPair { repo, item });
                }
                self.disseminator.renegotiate(node, item, c);
            }
            Dynamic::HotSwapItem { item, value } => {
                self.check_item(item)?;
                if !value.is_finite() {
                    return Err(DynamicError::NonFiniteValue);
                }
                self.metrics.source_updates += 1;
                self.observer.on_source_change(at_us, item, value);
                self.apply_source_change::<false>(at_us, item, value);
            }
        }
        self.metrics.injected += 1;
        Ok(())
    }

    fn check_repo(&self, repo: usize) -> Result<NodeIdx, DynamicError> {
        let node = NodeIdx::repo(repo);
        if node.index() >= self.disseminator.n_nodes() {
            Err(DynamicError::UnknownRepo { repo })
        } else {
            Ok(node)
        }
    }

    fn check_item(&self, item: d3t_core::item::ItemId) -> Result<(), DynamicError> {
        if item.index() >= self.disseminator.n_items() {
            Err(DynamicError::UnknownItem { item })
        } else {
            Ok(())
        }
    }

    /// The globally minimal scheduled event: the two-way merge of the
    /// pre-seeded source stream and the queue of in-flight arrivals. A
    /// stream event predates every equal-time arrival (all pre-seeded
    /// stamps are below every arrival stamp), which the strictly-capped
    /// queue pop enforces without ever over-popping, so nothing is
    /// parked back.
    fn next_event(&mut self) -> Option<(u64, EventKind)> {
        let head = self.source_stream.get(self.stream_cursor).copied();
        let cap_us = head.map_or(u64::MAX, |(at_us, _)| at_us);
        if let Some(popped) = self.queue.pop_lt(cap_us) {
            return Some(popped);
        }
        if head.is_some() {
            self.stream_cursor += 1;
            return head;
        }
        // Only events at exactly `u64::MAX` remain reachable here.
        self.queue.pop()
    }

    /// The merge of [`Session::next_event`] with the fault timeline and
    /// a time limit: pops the next simulation event at or before
    /// `limit_us`, first applying every due fault control. A control at
    /// `t` applies before any simulation event at `t` (state changes
    /// precede the traffic that observes them), and controls up to
    /// `limit_us` apply even when no simulation event remains at or
    /// before them — so `run_until` leaves the fault state current at
    /// its target instant. Neither a control nor an event past
    /// `limit_us` is ever taken early: the merge peeks before it pops.
    fn pop_next_with_faults(&mut self, limit_us: u64) -> Option<(u64, EventKind)> {
        loop {
            let head_at = self.source_stream.get(self.stream_cursor).map(|&(at_us, _)| at_us);
            let next_at = match (head_at, self.queue.peek_at()) {
                (Some(s), Some(q)) => Some(s.min(q)),
                (s, q) => s.or(q),
            };
            let f_at = self.faults.next_at();
            if !self.faults.is_idle() && f_at <= limit_us && next_at.is_none_or(|at| f_at <= at) {
                self.apply_next_control();
            } else if next_at.is_some_and(|at| at <= limit_us) {
                return self.next_event();
            } else {
                return None;
            }
        }
    }

    /// Applies the single next due control action — a compiled timeline
    /// event or a pending repair — at its scheduled instant (clamped to
    /// `now_us` for plans installed mid-run).
    fn apply_next_control(&mut self) {
        let Some((at_us, ctl)) = self.faults.pop_next() else { return };
        let at_us = at_us.max(self.now_us);
        self.now_us = at_us;
        match ctl {
            FaultControl::Timeline(ev) => self.apply_fault_event(at_us, ev),
            FaultControl::Repair(op) => self.apply_repair(at_us, op),
        }
    }

    /// Applies one compiled timeline event. Crash/recover guards make
    /// redundant events (overlapping subtree bursts, recovery of a node
    /// that never went down) no-ops, so overlapping plan windows compose.
    fn apply_fault_event(&mut self, at_us: u64, ev: FaultEvent) {
        match ev {
            FaultEvent::Crash { node } => {
                let node = NodeIdx(node);
                if !self.disseminator.is_active(node) {
                    return;
                }
                self.disseminator.set_node_active(node, false);
                self.observer.on_fault(at_us, &FaultObservation::Crash { node });
                if self.faults.policy == RepairPolicy::Reparent {
                    // Enumerate the orphans now (the topology at crash
                    // time) and schedule their staggered re-parenting;
                    // execution re-checks that the parent is still dead
                    // and the child still attached to it.
                    for (rank, (item, child)) in
                        self.disseminator.dependents_of(node).into_iter().enumerate()
                    {
                        self.faults.schedule_repair(
                            at_us,
                            rank,
                            RepairOp { child: child.0, item: item.0, dead: node.0 },
                        );
                    }
                }
            }
            FaultEvent::Recover { node } => {
                let node = NodeIdx(node);
                if self.disseminator.is_active(node) {
                    return;
                }
                // Re-attach adopted-away children first, then reactivate:
                // reactivation's centralized class resync then covers the
                // restored dependents too.
                self.disseminator.restore_children_of(node);
                self.disseminator.set_node_active(node, true);
                self.observer.on_fault(at_us, &FaultObservation::Recover { node });
            }
            FaultEvent::LossStart { prob } => self.faults.loss_prob = prob,
            FaultEvent::LossEnd => self.faults.loss_prob = 0.0,
            FaultEvent::DegradeStart { min_ms, mean_ms } => {
                self.faults.degrade = Some(d3t_net::Pareto::with_mean(min_ms, mean_ms));
            }
            FaultEvent::DegradeEnd => self.faults.degrade = None,
        }
    }

    /// Executes one due re-parenting: the orphan detaches from its dead
    /// parent and re-homes onto the nearest surviving ancestor. Stale ops
    /// — the parent already recovered, or the child was already re-homed
    /// — are dropped silently.
    fn apply_repair(&mut self, at_us: u64, op: RepairOp) {
        let dead = NodeIdx(op.dead);
        let child = NodeIdx(op.child);
        let item = d3t_core::item::ItemId(op.item);
        if self.disseminator.is_active(dead)
            || self.disseminator.parent_of(child, item) != Some(dead)
        {
            return;
        }
        // Walk up from the dead parent to the nearest surviving ancestor
        // (the source never crashes, so the walk terminates).
        let mut foster = dead;
        loop {
            foster = self.disseminator.parent_of(foster, item).unwrap_or(SOURCE);
            if foster.is_source() || self.disseminator.is_active(foster) {
                break;
            }
        }
        self.disseminator.reparent(child, item, foster);
        self.metrics.reparented += 1;
        self.observer
            .on_fault(at_us, &FaultObservation::Reparent { child, from: dead, to: foster, item });
    }

    /// One event through the full pipeline — the body of the reference
    /// engine's loop, with observer taps and the liveness gate added.
    /// `held` counts events the drain has popped but not yet processed,
    /// so `on_event`'s pending sample stays identical to a one-at-a-time
    /// drive. `TIMED` stamps the phase boundaries (see [`PhaseStats`]).
    fn process<const TIMED: bool>(&mut self, at_us: u64, kind: EventKind, held: usize) {
        self.metrics.events += 1;
        self.now_us = at_us;
        match kind.classify(&self.tags) {
            Event::SourceChange { item, value } => {
                self.metrics.source_updates += 1;
                self.observer.on_source_change(at_us, item, value);
                self.apply_source_change::<TIMED>(at_us, item, value);
            }
            Event::Arrival { node, update } => {
                if !self.disseminator.is_active(node) {
                    self.metrics.dropped += 1;
                    self.observer.on_dropped(at_us, node, &update);
                } else {
                    self.observer.on_delivery(at_us, node, &update);
                    // The forwarding decision runs before the fidelity
                    // update: their states are disjoint, so the order is
                    // free, and the observer still sees delivery →
                    // violations → sends.
                    //
                    // The scratch is taken out of `self` for the
                    // decision + transmit (a pointer move, not an
                    // allocation) so the disjoint borrows stay obvious.
                    let mut scratch = std::mem::take(&mut self.scratch);
                    self.disseminator.on_repo_update_into(node, update, &mut scratch);
                    self.metrics.repo_checks += scratch.checks();
                    self.lap::<TIMED>(PROCESS);
                    let fidelity = &mut self.fidelity;
                    let observer = &mut self.observer;
                    fidelity.repo_update_sink(
                        at_us,
                        node,
                        update.item,
                        update.value,
                        &mut |repo, item, opened| {
                            if opened {
                                observer.on_violation_open(at_us, repo, item);
                            } else {
                                observer.on_violation_close(at_us, repo, item);
                            }
                        },
                    );
                    self.lap::<TIMED>(FIDELITY);
                    self.transmit::<TIMED>(node, at_us, scratch.update(), scratch.to(), Some(kind));
                    self.scratch = scratch;
                }
            }
        }
        self.observer.on_event(at_us, self.pending() + held);
    }

    /// Fidelity + filtering + dissemination of one source-side value,
    /// shared by trace ticks and injected hot-swaps, in the arrival
    /// path's order.
    fn apply_source_change<const TIMED: bool>(
        &mut self,
        at_us: u64,
        item: d3t_core::item::ItemId,
        value: f64,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.disseminator.on_source_update_into(item, value, &mut scratch);
        self.metrics.source_checks += scratch.checks();
        self.lap::<TIMED>(PROCESS);
        let fidelity = &mut self.fidelity;
        let observer = &mut self.observer;
        fidelity.source_update_sink(at_us, item, value, &mut |repo, it, opened| {
            if opened {
                observer.on_violation_open(at_us, repo, it);
            } else {
                observer.on_violation_close(at_us, repo, it);
            }
        });
        self.lap::<TIMED>(FIDELITY);
        self.transmit::<TIMED>(SOURCE, at_us, scratch.update(), scratch.to(), None);
        self.scratch = scratch;
    }

    /// Serially prepares and sends `update` from `node` to each
    /// recipient — identical arithmetic to the reference engine, with
    /// each link delay the one stamped into the target's edge, plus the
    /// per-message `on_send` tap. The send group is assembled in the
    /// reused `send_buf` and enqueued with one
    /// [`EventQueue::push_batch`]; `relayed` is the event being
    /// forwarded, when there is one, so a centralized relay reuses its
    /// interned tag pair instead of growing the side table.
    fn transmit<const TIMED: bool>(
        &mut self,
        node: NodeIdx,
        now_us: u64,
        update: Update,
        to: &[Target],
        relayed: Option<EventKind>,
    ) {
        if to.is_empty() {
            return;
        }
        let template = EventKind::arrival_template(update, relayed, &mut self.tags);
        let mut cpu = self.busy_until_us[node.index()].max(now_us);
        self.send_buf.clear();
        for &Target { node: child, delay_us } in to {
            cpu += self.comp_delay_us;
            self.metrics.messages += 1;
            let mut arrival_us = cpu + u64::from(delay_us);
            if self.faults.link_active() {
                match faulty_arrival(
                    &mut self.faults,
                    &mut self.metrics,
                    &mut self.observer,
                    now_us,
                    node,
                    child,
                    arrival_us,
                ) {
                    Some(a) => arrival_us = a,
                    None => continue,
                }
            }
            self.observer.on_send(now_us, node, child, &update, arrival_us);
            if arrival_us > self.end_us {
                self.metrics.undelivered += 1;
                continue;
            }
            self.send_buf.push((arrival_us, template.at_node(child)));
        }
        self.busy_until_us[node.index()] = cpu;
        self.lap::<TIMED>(TRANSMIT);
        self.queue.push_batch(self.next_seq, &self.send_buf);
        self.next_seq += self.send_buf.len() as u64;
        self.lap::<TIMED>(PUSH);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ms_to_us, SourceChange};
    use crate::observer::EventTrace;
    use d3t_core::coherency::Coherency;
    use d3t_core::dissemination::Protocol;
    use d3t_core::graph::D3g;
    use d3t_core::item::ItemId;
    use d3t_core::lela::DelayMatrix;
    use d3t_core::workload::Workload;

    fn c(v: f64) -> Coherency {
        Coherency::new(v)
    }

    /// S → A (c=0.1): one item, one repo — the engine tests' fixture.
    fn tiny() -> (D3g, Workload) {
        let w = Workload::from_needs(vec![vec![Some(c(0.1))]]);
        let mut g = D3g::new(1, 1);
        g.add_edge(SOURCE, NodeIdx::repo(0), ItemId(0), c(0.1));
        (g, w)
    }

    fn tiny_session(
        changes: &[SourceChange],
        comm_ms: f64,
        comp_ms: f64,
        end_ms: f64,
    ) -> Session<HeapQueue<EventKind>, NoopObserver> {
        let (g, w) = tiny();
        let delays = DelayMatrix::uniform(2, comm_ms);
        let d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let engine = Engine::new(&g, &w, &delays, d, changes, &[1.0], comp_ms, ms_to_us(end_ms));
        Session::from_engine(engine, NoopObserver)
    }

    #[test]
    fn stepped_session_matches_sealed_engine() {
        let changes: Vec<SourceChange> =
            (1..500).map(|i| (i * 20, ItemId(0), 1.0 + (i % 17) as f64 * 0.03)).collect();
        let (g, w) = tiny();
        let delays = DelayMatrix::uniform(2, 25.0);
        let mk = || Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let sealed = Engine::new(&g, &w, &delays, mk(), &changes, &[1.0], 12.5, 10_000_000).run();
        let mut stepped = tiny_session(&changes, 25.0, 12.5, 10_000.0);
        let mut n = 0u64;
        while stepped.step().is_some() {
            n += 1;
        }
        let by_step = stepped.run_to_end();
        assert_eq!(by_step, sealed);
        assert_eq!(n, sealed.1.events);
    }

    #[test]
    fn run_until_splits_are_invisible() {
        let changes: Vec<SourceChange> =
            (1..300).map(|i| (i * 30, ItemId(0), 1.0 + (i % 11) as f64 * 0.04)).collect();
        let whole = tiny_session(&changes, 10.0, 5.0, 10_000.0).run_to_end();
        let mut split = tiny_session(&changes, 10.0, 5.0, 10_000.0);
        for t_ms in [1_000u64, 1_000, 4_321, 9_999] {
            split.run_until(t_ms * 1000);
        }
        assert_eq!(split.now_us(), 9_999_000);
        assert_eq!(split.run_to_end(), whole);
    }

    #[test]
    fn fail_and_recover_account_staleness_exactly() {
        // Fail A before the t=1000ms change (value 2.0): the arrival is
        // dropped, so the violation opened at 1000 persists. Recover at
        // 2000; the t=3000 change (3.0) arrives 3000+comp50+comm200=3250
        // and closes it. Loss = (3250-1000)/10000 = 22.5%.
        let changes = [(1000u64, ItemId(0), 2.0), (3000, ItemId(0), 3.0)];
        let mut s = tiny_session(&changes, 200.0, 50.0, 10_000.0);
        s.inject(Dynamic::FailRepo { repo: 0 }).unwrap();
        assert!(!s.is_alive(0));
        s.run_until(2_000_000);
        s.inject(Dynamic::RecoverRepo { repo: 0 }).unwrap();
        assert!(s.is_alive(0));
        let (rep, m) = s.run_to_end();
        assert_eq!(m.dropped, 1, "the first arrival hit the dead repo");
        assert_eq!(m.injected, 2);
        assert_eq!(m.messages, 2);
        assert!((rep.loss_pct - 22.5).abs() < 1e-6, "loss {}", rep.loss_pct);
    }

    #[test]
    fn centralized_fail_and_recover_still_repairs() {
        // Same shape as the distributed fail/recover test, but under the
        // centralized protocol, whose class-indexed sender state advances
        // even for dropped sends — recovery must resync the class so the
        // t=3000ms change (3.0) still reaches A and closes the violation
        // at 3250ms: loss = (3250-1000)/10000 = 22.5%.
        let changes = [(1000u64, ItemId(0), 2.0), (3000, ItemId(0), 3.0)];
        let (g, w) = tiny();
        let delays = DelayMatrix::uniform(2, 200.0);
        let d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        let engine = Engine::new(&g, &w, &delays, d, &changes, &[1.0], 50.0, ms_to_us(10_000.0));
        let mut s = Session::from_engine(engine, NoopObserver);
        s.inject(Dynamic::FailRepo { repo: 0 }).unwrap();
        s.run_until(2_000_000);
        s.inject(Dynamic::RecoverRepo { repo: 0 }).unwrap();
        let (rep, m) = s.run_to_end();
        assert_eq!(m.dropped, 1);
        assert!((rep.loss_pct - 22.5).abs() < 1e-6, "loss {}", rep.loss_pct);
    }

    #[test]
    fn tightened_tolerance_opens_violation_at_injection_instant() {
        // A drift of 0.05 is fine under c=0.1; tightening to 0.01 at
        // t=2000ms opens a violation lasting to the end: 80% loss.
        let changes = [(1000u64, ItemId(0), 1.05)];
        let mut s = tiny_session(&changes, 200.0, 50.0, 10_000.0);
        s.run_until(2_000_000);
        s.inject(Dynamic::SetTolerance { repo: 0, item: ItemId(0), c: c(0.01) }).unwrap();
        let (rep, m) = s.run_to_end();
        assert_eq!(m.messages, 0, "no further source changes, so nothing is pushed");
        assert!((rep.loss_pct - 80.0).abs() < 1e-6, "loss {}", rep.loss_pct);
    }

    #[test]
    fn loosened_tolerance_closes_violation_at_injection_instant() {
        // The 2.0 change at t=1000 opens a violation; its update is still
        // in flight (comm 5000ms) when the tolerance loosens to 2.0 at
        // t=3000, closing the interval there: 20% loss.
        let changes = [(1000u64, ItemId(0), 2.0)];
        let mut s = tiny_session(&changes, 5_000.0, 12.5, 10_000.0);
        s.run_until(3_000_000);
        s.inject(Dynamic::SetTolerance { repo: 0, item: ItemId(0), c: c(2.0) }).unwrap();
        let (rep, _m) = s.run_to_end();
        assert!((rep.loss_pct - 20.0).abs() < 1e-6, "loss {}", rep.loss_pct);
    }

    #[test]
    fn hot_swap_disseminates_like_a_source_change() {
        // Swap to 5.0 at t=500ms: violation opens at 500, the pushed
        // update arrives at 500+50+200=750 and closes it: 2.5% loss.
        let mut s = tiny_session(&[], 200.0, 50.0, 10_000.0);
        s.run_until(500_000);
        s.inject(Dynamic::HotSwapItem { item: ItemId(0), value: 5.0 }).unwrap();
        let (rep, m) = s.run_to_end();
        assert_eq!(m.messages, 1);
        assert_eq!(m.source_updates, 1);
        assert_eq!(m.injected, 1);
        assert!((rep.loss_pct - 2.5).abs() < 1e-6, "loss {}", rep.loss_pct);
    }

    #[test]
    fn injection_interleaves_with_held_back_lookahead() {
        // run_until(500ms) leaves the t=1000ms change unpopped in the
        // source stream; a hot-swap at 500ms schedules an arrival at
        // 750ms that must be processed *before* it.
        let changes = [(1000u64, ItemId(0), 1.05)];
        let (g, w) = tiny();
        let delays = DelayMatrix::uniform(2, 200.0);
        let d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let engine = Engine::new(&g, &w, &delays, d, &changes, &[1.0], 50.0, 10_000_000);
        let mut s = Session::from_engine(engine, EventTrace::with_capacity(64));
        s.run_until(500_000);
        s.inject(Dynamic::HotSwapItem { item: ItemId(0), value: 5.0 }).unwrap();
        let (_rep, _m, trace) = s.finish();
        let times: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                crate::observer::TraceEvent::Delivery { at_us, .. } => Some(at_us),
                crate::observer::TraceEvent::SourceChange { at_us, .. } => Some(at_us),
                _ => None,
            })
            .collect();
        let sorted = {
            let mut v = times.clone();
            v.sort_unstable();
            v
        };
        assert_eq!(times, sorted, "events must replay in global time order: {times:?}");
        assert!(times.contains(&750_000), "injected arrival delivered at 750ms");
        assert!(times.contains(&1_000_000), "later trace change still processed");
    }

    /// S → P (c=0.3) → C (c=0.5): the chain fixture for repair tests.
    fn chain_session<O: Observer>(
        comm_ms: f64,
        comp_ms: f64,
        end_ms: f64,
        observer: O,
    ) -> Session<HeapQueue<EventKind>, O> {
        let w = Workload::from_needs(vec![vec![Some(c(0.3))], vec![Some(c(0.5))]]);
        let mut g = D3g::new(2, 1);
        g.add_edge(SOURCE, NodeIdx::repo(0), ItemId(0), c(0.3));
        g.add_edge(NodeIdx::repo(0), NodeIdx::repo(1), ItemId(0), c(0.5));
        let delays = DelayMatrix::uniform(3, comm_ms);
        let d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let changes = [(1000u64, ItemId(0), 2.0), (3000, ItemId(0), 3.0)];
        let engine = Engine::new(&g, &w, &delays, d, &changes, &[1.0], comp_ms, ms_to_us(end_ms));
        Session::from_engine(engine, observer)
    }

    #[test]
    fn fault_plan_crash_recover_matches_injected_dynamics() {
        // The plan-driven twin of `fail_and_recover_account_staleness_exactly`:
        // crash before the t=1000ms change, recover at 2000ms — identical
        // fidelity, but scheduled declaratively and observable.
        let changes = [(1000u64, ItemId(0), 2.0), (3000, ItemId(0), 3.0)];
        let plan = crate::fault::FaultPlan {
            crashes: vec![crate::fault::CrashSpec {
                repo: 0,
                at_us: 500_000,
                recover_at_us: Some(2_000_000),
                subtree: false,
            }],
            ..Default::default()
        };
        for stepped in [true, false] {
            let mut s = tiny_session(&changes, 200.0, 50.0, 10_000.0);
            s.install_fault_plan(&plan);
            while stepped && s.step().is_some() {}
            let (rep, m) = s.run_to_end();
            assert_eq!(m.dropped, 1, "stepped {stepped}");
            assert_eq!(m.injected, 0, "plans are not injections");
            assert!((rep.loss_pct - 22.5).abs() < 1e-6, "stepped {stepped} loss {}", rep.loss_pct);
        }
    }

    #[test]
    fn crash_boundary_is_exact_on_scalar_and_batched_paths() {
        // On the scalar `step()` loop and on the run drain alike:
        // arrivals land at 1250 and 3250 ms. A crash at *exactly* the
        // first arrival instant applies before the equal-time arrival
        // (controls precede simulation events), so the violation opened
        // at 1000ms runs to the 3250ms repair: 22.5% loss. One µs later
        // and the arrival is delivered first: the violation closes at
        // 1250ms and only the 3000–3250ms interval remains: 5% loss.
        let changes = [(1000u64, ItemId(0), 2.0), (3000, ItemId(0), 3.0)];
        for (crash_at, expect_dropped, expect_loss) in
            [(1_250_000u64, 1u64, 22.5f64), (1_250_001, 0, 5.0)]
        {
            let plan = crate::fault::FaultPlan {
                crashes: vec![crate::fault::CrashSpec {
                    repo: 0,
                    at_us: crash_at,
                    recover_at_us: Some(2_000_000),
                    subtree: false,
                }],
                ..Default::default()
            };
            for stepped in [true, false] {
                let mut s = tiny_session(&changes, 200.0, 50.0, 10_000.0);
                s.install_fault_plan(&plan);
                while stepped && s.step().is_some() {}
                let (rep, m) = s.run_to_end();
                assert_eq!(m.dropped, expect_dropped, "crash at {crash_at} stepped {stepped}");
                assert!(
                    (rep.loss_pct - expect_loss).abs() < 1e-6,
                    "crash at {crash_at} stepped {stepped}: loss {}",
                    rep.loss_pct
                );
            }
        }
    }

    #[test]
    fn reparent_policy_rehomes_orphan_and_restores_on_recovery() {
        // Crash the relay P at 500ms with no recovery. Under `Reparent`,
        // C detects the dead parent (detect 100ms + backoff 50ms, due at
        // 650ms) and re-homes onto the source: the 2.0 change at 1000ms
        // reaches C at 1300ms (second in the source's send queue). Under
        // `None`, C starves for the rest of the run.
        let mk_plan = |policy| crate::fault::FaultPlan {
            crashes: vec![crate::fault::CrashSpec {
                repo: 0,
                at_us: 500_000,
                recover_at_us: None,
                subtree: false,
            }],
            repair: crate::fault::RepairSpec {
                policy,
                detect_timeout_us: 100_000,
                base_backoff_us: 50_000,
                max_backoff_us: 400_000,
            },
            ..Default::default()
        };
        let run = |policy| {
            let mut s = chain_session(200.0, 50.0, 10_000.0, NoopObserver);
            s.install_fault_plan(&mk_plan(policy));
            let reparented_mid = {
                s.run_until(700_000);
                s.metrics().reparented
            };
            let (rep, m) = s.run_to_end();
            (rep, m, reparented_mid)
        };
        let (rep_fix, m_fix, mid) = run(crate::fault::RepairPolicy::Reparent);
        assert_eq!(mid, 1, "repair executed at 650ms, before the first change");
        assert_eq!(m_fix.reparented, 1);
        let (rep_none, m_none, _) = run(crate::fault::RepairPolicy::None);
        assert_eq!(m_none.reparented, 0);
        // P's own pair is violated from 1000ms to the end either way
        // (45% of the pair-time); C's pair adds (1300-1000) + (3300-3000)
        // µs under repair vs 10000-1000 unrepaired.
        assert!(
            rep_fix.loss_pct < rep_none.loss_pct - 20.0,
            "repair {} vs none {}",
            rep_fix.loss_pct,
            rep_none.loss_pct
        );
        // Deterministic repeat.
        let (rep_fix2, m_fix2, _) = run(crate::fault::RepairPolicy::Reparent);
        assert_eq!((rep_fix, m_fix), (rep_fix2, m_fix2));
    }

    #[test]
    fn recovery_restores_original_topology_after_reparent() {
        // Crash P at 500ms, repair C onto the source at 650ms, recover P
        // at 2000ms: the adoption must unwind, so the 3.0 change at
        // 3000ms flows S→P→C again (P hears it at 3250ms and relays, so
        // C hears it at 3500ms — not at 3300ms via the source).
        let plan = crate::fault::FaultPlan {
            crashes: vec![crate::fault::CrashSpec {
                repo: 0,
                at_us: 500_000,
                recover_at_us: Some(2_000_000),
                subtree: false,
            }],
            repair: crate::fault::RepairSpec {
                policy: crate::fault::RepairPolicy::Reparent,
                detect_timeout_us: 100_000,
                base_backoff_us: 50_000,
                max_backoff_us: 400_000,
            },
            ..Default::default()
        };
        let mut s = chain_session(200.0, 50.0, 10_000.0, EventTrace::with_capacity(64));
        s.install_fault_plan(&plan);
        s.run_until(2_500_000);
        assert_eq!(s.disseminator().adoption_count(), 0, "recovery unwound the adoption");
        assert_eq!(s.disseminator().parent_of(NodeIdx::repo(1), ItemId(0)), Some(NodeIdx::repo(0)));
        let (_rep, m, trace) = s.finish();
        assert_eq!(m.reparented, 1);
        let c_deliveries: Vec<u64> = trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                crate::observer::TraceEvent::Delivery { at_us, node, .. }
                    if node == NodeIdx::repo(1) =>
                {
                    Some(at_us)
                }
                _ => None,
            })
            .collect();
        assert!(
            c_deliveries.contains(&1_300_000),
            "2.0 reached C directly from the source: {c_deliveries:?}"
        );
        assert!(
            c_deliveries.contains(&3_500_000),
            "3.0 flowed S→P→C after recovery: {c_deliveries:?}"
        );
    }

    #[test]
    fn loss_and_degrade_windows_are_deterministic_and_observable() {
        // A 60% loss window over the whole run forces retransmissions
        // (capped backoff), and a degradation window inflates arrivals;
        // both must be bit-deterministic for a fixed (seed, plan) and
        // inert once the window closes.
        let changes: Vec<SourceChange> =
            (1..40).map(|i| (i * 200, ItemId(0), 1.0 + i as f64 * 0.2)).collect();
        let plan = crate::fault::FaultPlan {
            loss: vec![crate::fault::LossWindow { prob: 0.6, from_us: 0, to_us: 4_000_000 }],
            degrade: vec![crate::fault::DegradeWindow {
                from_us: 2_000_000,
                to_us: 5_000_000,
                min_extra_ms: 10.0,
                mean_extra_ms: 40.0,
            }],
            seed: 9,
            ..Default::default()
        };
        let run = |stepped: bool| {
            let mut s = tiny_session(&changes, 25.0, 12.5, 10_000.0);
            s.install_fault_plan(&plan);
            while stepped && s.step().is_some() {}
            s.run_to_end()
        };
        let (rep1, m1) = run(true);
        assert!(m1.lost > 0, "60% loss must destroy some attempts");
        assert!(m1.retransmits > 0, "retransmissions must fire");
        assert!(m1.retransmits <= m1.lost, "every retransmit follows a loss");
        assert_eq!(run(false), (rep1.clone(), m1), "the run drain diverged");
        assert_eq!(run(true), (rep1, m1), "the repeat diverged");
    }

    #[test]
    fn invalid_dynamics_are_rejected_without_side_effects() {
        let mut s = tiny_session(&[(1000, ItemId(0), 1.05)], 10.0, 1.0, 10_000.0);
        assert_eq!(
            s.inject(Dynamic::FailRepo { repo: 7 }),
            Err(DynamicError::UnknownRepo { repo: 7 })
        );
        assert_eq!(
            s.inject(Dynamic::HotSwapItem { item: ItemId(3), value: 1.0 }),
            Err(DynamicError::UnknownItem { item: ItemId(3) })
        );
        assert_eq!(
            s.inject(Dynamic::HotSwapItem { item: ItemId(0), value: f64::NAN }),
            Err(DynamicError::NonFiniteValue)
        );
        let (rep, m) = s.run_to_end();
        assert_eq!(m.injected, 0);
        assert_eq!(rep.loss_pct, 0.0);
    }

    #[test]
    fn set_tolerance_on_unmeasured_pair_is_rejected() {
        // Repo 0 measures item 0 only; item 1 exists but is unmeasured.
        let w = Workload::from_needs(vec![vec![Some(c(0.1)), None]]);
        let mut g = D3g::new(1, 2);
        g.add_edge(SOURCE, NodeIdx::repo(0), ItemId(0), c(0.1));
        let delays = DelayMatrix::uniform(2, 10.0);
        let d = Disseminator::new(Protocol::Distributed, &g, &[1.0, 1.0]);
        let engine = Engine::new(&g, &w, &delays, d, &[], &[1.0, 1.0], 1.0, 1_000_000);
        let mut s = Session::from_engine(engine, NoopObserver);
        assert_eq!(
            s.inject(Dynamic::SetTolerance { repo: 0, item: ItemId(1), c: c(0.5) }),
            Err(DynamicError::UnmeasuredPair { repo: 0, item: ItemId(1) })
        );
    }

    #[test]
    fn observer_sees_the_full_event_stream() {
        let changes = [(1000u64, ItemId(0), 2.0)];
        let (g, w) = tiny();
        let delays = DelayMatrix::uniform(2, 200.0);
        let d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let engine = Engine::new(&g, &w, &delays, d, &changes, &[1.0], 50.0, 10_000_000);
        let s = Session::from_engine(engine, EventTrace::with_capacity(16));
        let (_rep, m, trace) = s.finish();
        use crate::observer::TraceEvent as E;
        let ev = trace.events();
        assert_eq!(m.messages, 1);
        assert!(matches!(ev[0], E::SourceChange { at_us: 1_000_000, .. }));
        assert!(matches!(ev[1], E::Violation { at_us: 1_000_000, open: true, .. }));
        assert!(matches!(ev[2], E::Send { at_us: 1_000_000, arrival_us: 1_250_000, .. }));
        assert!(matches!(ev[3], E::Delivery { at_us: 1_250_000, .. }));
        assert!(matches!(ev[4], E::Violation { at_us: 1_250_000, open: false, .. }));
        assert_eq!(ev.len(), 5);
    }
}
