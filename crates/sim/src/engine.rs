//! The discrete-event engine.
//!
//! # Cost model
//!
//! * **Communication**: a message from node `a` to node `b` arrives
//!   `delay(a, b)` after it leaves `a`'s CPU (the physical network's
//!   shortest-path delay between the two overlay nodes).
//! * **Computation**: each node is a serial processor. Forwarding one
//!   update to one dependent occupies the CPU for the configured
//!   computational delay (the paper's 12.5 ms: "the time to perform any
//!   checks ... and the time to prepare an update for transmission").
//!   Filter evaluations that do *not* result in a transmission are counted
//!   (the "checks" metric of Figure 11) but take negligible time — this
//!   matches the paper's observation that unfiltered dissemination, not
//!   filtering itself, is what saturates nodes (Figures 5, 6, 8), and its
//!   Eq.-2 assumption that only the interested fraction of dependents
//!   contributes to the effective computational delay.
//! * A node's CPU work is FIFO: an update arriving while the CPU is busy
//!   starts processing when the CPU frees up (this queueing is the
//!   mechanism behind the U-curve's rising half).
//!
//! # Engine vs. Session
//!
//! [`Engine::run`] is the original sealed run-to-completion loop, kept
//! **verbatim** as the reference implementation: it has no observer
//! plumbing, no stepping, and no dynamics, so it is the measuring stick
//! the [`Session`](crate::session::Session) redesign is judged against.
//! Since the dissemination kernel landed it carries a second oracle
//! duty: this loop drives the disseminator's allocating **scalar
//! oracle** methods over scalar queue ops, while the session runs the
//! batched allocation-free kernel path and bulk queue ops — so the
//! bit-identity property tests double as whole-run cross-checks of
//! both. The product path ([`crate::run`] / `Prepared::run`) drives a
//! `Session` with the no-op observer; compat tests assert its
//! `(FidelityReport, Metrics)` is bit-identical to this loop on every
//! input, and `d3t-bench` tracks the session's speed relative to it
//! (`engine.session_vs_oracle_x`). New capability goes into `Session`;
//! this loop only changes when the simulation semantics themselves do.
//!
//! # Performance model
//!
//! The engine runs on an **integer-microsecond timebase end to end**:
//!
//! * All float inputs are converted to `u64` µs exactly once, at
//!   construction — each d3g edge's delay into its edge record
//!   ([`Disseminator::stamp_delays`]; the drive reads delays only along
//!   edges, so it holds no n² µs table), the per-dependent computational
//!   delay into a single `u64`, and each source change's millisecond
//!   timestamp via a saturating `× 1000`. This oracle loop instead
//!   rounds each send's delay through the same [`DelayMatrix::us`],
//!   which cross-checks the stamps on every run.
//! * From then on the hot loop — queue pops, CPU-queue accounting
//!   (`busy_until_us`), arrival scheduling, and horizon checks — is pure
//!   `u64` arithmetic. There are no per-event `f64 ↔ u64` round-trips, so
//!   nothing in the event loop can accumulate rounding error, and runs are
//!   **bit-deterministic by construction** rather than by numerical
//!   accident.
//! * Fidelity accounting ([`FidelityTracker`]) shares the same µs
//!   currency: violation intervals are summed in integer µs and divided
//!   into a percentage only when the report is produced.
//! * Events are ordered by `(time_us, sequence number)`; ties resolve in
//!   creation order. The scheduler is a type parameter behind the
//!   [`EventQueue`] trait (every product drive uses [`HeapQueue`]); it
//!   changes wall clock and memory only, never results.
//! * **The pre-seeded source changes never enter the queue.** They are
//!   compiled at construction into a time-sorted `(at_us, payload)`
//!   stream that the run loops *merge* with the queue: every pre-seeded
//!   stamp is below every arrival stamp, so "stream head wins time
//!   ties" reproduces the total `(time, creation)` order exactly, via
//!   the queue's strictly-capped `pop_lt` / `pop_run` primitives. A
//!   million seeded changes at paper scale thus cost two sequential
//!   array reads each instead of two transits of a multi-megabyte
//!   overflow heap — the queue holds only the in-flight arrivals
//!   (thousands), keeping both backends cache-resident.
//! * Queue traffic is sized and batched for memory bandwidth: the
//!   payload is packed to 16 bytes ([`EventKind`], with centralized
//!   tags NaN-boxed through a [`TagTable`] side table), a heap slot
//!   totals 32 bytes with its `(at_us, seq)` key (both pinned by
//!   compile-time asserts below), the session's transmit enqueues each
//!   send group with one
//!   [`push_batch`](crate::queue::EventQueue::push_batch), and its
//!   drain pops reorder-free runs with one
//!   [`pop_run`](crate::queue::EventQueue::pop_run) inside the
//!   `comp_delay + min link delay` safety window, then processes the
//!   run one event at a time while prefetching the row and pair state
//!   of the arrival four events ahead. See [`crate::queue`], whose
//!   `pop_run` window also bounds `crate::shard`'s epochs.
//! * The per-event protocol and accounting state is laid out flat and
//!   hot/cold split: the disseminator walks one 32-byte row record plus
//!   one interleaved CSR edge run per decision (the batched check
//!   kernel — see `d3t_core::dissemination::kernel`), and the fidelity
//!   tracker reaches its 16-byte pair record by direct `(item, node)`
//!   indexing — no nested-`Vec` pointer chasing and no table
//!   indirection anywhere in the loop.
//!
//! Experiment setup cost lives in [`crate::prepared`], not here.

use d3t_core::dissemination::{Disseminator, Update};
use d3t_core::fidelity::{FidelityReport, FidelityTracker};
use d3t_core::graph::D3g;
use d3t_core::item::ItemId;
use d3t_core::lela::DelayMatrix;
use d3t_core::overlay::NodeIdx;
use d3t_core::workload::Workload;

use crate::metrics::Metrics;
use crate::queue::{EventQueue, HeapQueue};
use crate::Arc;

/// One source change: `(time_ms, item, value)`.
pub type SourceChange = (u64, ItemId, f64);

/// Payload of one scheduled event, packed to **16 bytes**. The
/// scheduling key `(at_us, seq)` lives in the event queue, not here.
///
/// Queue traffic is memory-traffic bound at paper scale (millions of
/// pushes and pops per run), so the payload carries exactly one word of
/// float state: `bits` is the event's value
/// for source changes and untagged arrivals, or — for centralized tagged
/// arrivals — a **NaN-boxed [`TagTable`] index** resolving to the
/// `(value, tag)` pair the update carries. A finite value can never
/// collide with the box (its exponent bits are not all ones), and the
/// engine rejects NaN source values at construction, so the two readings
/// never overlap. The source/arrival distinction collapses into a
/// node-index sentinel as before.
///
/// With its `(at_us, seq)` key this packs a heap slot to 32 bytes
/// (`size_of` pinned by compile-time asserts below). Use
/// [`EventKind::classify`] (or `Session::classify`) to get the ergonomic
/// [`Event`] view back; for untagged events it compiles to a couple of
/// register tests, and only centralized tagged arrivals read the side
/// table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventKind {
    /// `f64` bits of the event's value, or a NaN-boxed [`TagTable`] id.
    bits: u64,
    /// The item the event concerns.
    item: u32,
    /// Receiving node, or [`SOURCE_EVENT`] for a source change.
    node: u32,
}

/// High word of a NaN-boxed tag id: quiet-NaN exponent + mantissa MSB.
/// No finite `f64` shares it, and the all-ones low word can't either, so
/// any 32-bit id in the low word is unambiguous (given non-NaN values,
/// which the engine asserts at the source).
const TAG_BOX_HI: u64 = 0x7FF8_0000;
/// `node` sentinel marking a source change ([`NodeIdx`] is dense, and
/// `u32::MAX` overlay nodes are unrepresentable anyway).
const SOURCE_EVENT: u32 = u32::MAX;

/// Side table resolving the NaN-boxed ids of centralized tagged arrivals
/// to the `(value, tag)` pair the update carries. Grows by one entry per
/// *tagged source update* (relays reuse the incoming event's id, see
/// `EventKind::arrival_template`); untagged protocols never touch it.
#[derive(Debug, Clone, Default)]
pub struct TagTable {
    pairs: Vec<(f64, f64)>,
}

impl TagTable {
    /// Approximate owned size in bytes — snapshot telemetry only.
    pub(crate) fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.pairs.len() * std::mem::size_of::<(f64, f64)>()
    }

    /// Appends a `(value, tag)` pair, returning its id.
    #[inline]
    fn intern(&mut self, value: f64, tag: f64) -> u32 {
        let id = self.pairs.len();
        assert!(id <= u32::MAX as usize, "tag table overflow: too many tagged source updates");
        self.pairs.push((value, tag));
        id as u32
    }

    /// The pair behind a previously interned id.
    #[inline]
    fn pair(&self, id: u32) -> (f64, f64) {
        self.pairs[id as usize]
    }
}

/// The unpacked view of an [`EventKind`] — what the run loops match on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The source observes a new value.
    SourceChange {
        /// The item that changed.
        item: ItemId,
        /// Its new value.
        value: f64,
    },
    /// An update arrives at a repository.
    Arrival {
        /// The receiving repository.
        node: NodeIdx,
        /// The update being delivered.
        update: Update,
    },
}

impl EventKind {
    /// Packs a source change. Values must not be NaN (asserted at engine
    /// construction and on injection) — a NaN bit pattern is reserved
    /// for the tag box.
    #[inline]
    pub fn source_change(item: ItemId, value: f64) -> Self {
        debug_assert!(!value.is_nan(), "NaN source values cannot be scheduled");
        Self { bits: value.to_bits(), item: item.0, node: SOURCE_EVENT }
    }

    /// Whether `bits` holds a NaN-boxed tag id rather than raw value bits.
    #[inline]
    fn is_boxed(bits: u64) -> bool {
        (bits >> 32) == TAG_BOX_HI
    }

    /// Packs `update` into an arrival payload addressed to a placeholder
    /// node — [`EventKind::at_node`] stamps the recipient per send. A
    /// tagged update interns its `(value, tag)` pair **unless** `reuse`
    /// (the event being relayed) already carries the identical pair, in
    /// which case its id is forwarded — the steady state for centralized
    /// relays, which keeps the table's growth at one entry per tagged
    /// source update.
    #[inline]
    pub(crate) fn arrival_template(
        update: Update,
        reuse: Option<EventKind>,
        tags: &mut TagTable,
    ) -> Self {
        let bits = match update.tag {
            None => {
                debug_assert!(!update.value.is_nan(), "NaN values cannot be scheduled");
                update.value.to_bits()
            }
            Some(tag) => match reuse {
                Some(k) if k.reuses(&update, tags) => k.bits,
                _ => (TAG_BOX_HI << 32) | u64::from(tags.intern(update.value, tag.value())),
            },
        };
        Self { bits, item: update.item.0, node: SOURCE_EVENT }
    }

    /// Whether this event's payload bits already encode exactly `update`
    /// (same value and tag, bit for bit), so a relay can forward them.
    #[inline]
    fn reuses(self, update: &Update, tags: &TagTable) -> bool {
        if self.item != update.item.0 || !Self::is_boxed(self.bits) {
            return false;
        }
        let (value, tag) = tags.pair(self.bits as u32);
        value.to_bits() == update.value.to_bits()
            && update.tag.is_some_and(|c| c.value().to_bits() == tag.to_bits())
    }

    /// The template re-addressed to `node`.
    #[inline]
    pub(crate) fn at_node(self, node: NodeIdx) -> Self {
        Self { node: node.0, ..self }
    }

    /// Packs an update arrival at `node` (scalar construction; hot loops
    /// build one `EventKind::arrival_template` per send group instead).
    #[inline]
    pub fn arrival(node: NodeIdx, update: Update, tags: &mut TagTable) -> Self {
        Self::arrival_template(update, None, tags).at_node(node)
    }

    /// The `(node, item)` an arrival touches — all a prefetch needs, with
    /// no tag-table read; `None` for a source change.
    #[inline]
    pub(crate) fn arrival_target(self) -> Option<(NodeIdx, ItemId)> {
        (self.node != SOURCE_EVENT).then_some((NodeIdx(self.node), ItemId(self.item)))
    }

    /// Unpacks into the ergonomic [`Event`] view. `tags` must be the
    /// table of the engine/session that scheduled the event (the
    /// `Session::classify` helper passes it for you).
    #[inline]
    pub fn classify(self, tags: &TagTable) -> Event {
        if self.node == SOURCE_EVENT {
            return Event::SourceChange {
                item: ItemId(self.item),
                value: f64::from_bits(self.bits),
            };
        }
        let (value, tag) = if Self::is_boxed(self.bits) {
            let (value, tag) = tags.pair(self.bits as u32);
            (value, Some(d3t_core::coherency::Coherency::new(tag)))
        } else {
            (f64::from_bits(self.bits), None)
        };
        Event::Arrival {
            node: NodeIdx(self.node),
            update: Update { item: ItemId(self.item), value, tag },
        }
    }
}

// The whole point of the packing: a 16-byte payload inside a 32-byte
// heap slot. Checked at compile time so a future field can't silently
// regrow the hot path's memory traffic.
const _: () = assert!(std::mem::size_of::<EventKind>() == 16);
const _: () = assert!(
    <HeapQueue<EventKind> as EventQueue<EventKind>>::SLOT_BYTES <= 32,
    "heap slots must stay within 32 bytes"
);

/// Rounds a millisecond duration to integer microseconds (used only at
/// construction time; the event loop never converts).
pub fn ms_to_us(ms: f64) -> u64 {
    (ms * 1000.0).round() as u64
}

/// Converts a millisecond timestamp to µs, saturating at `u64::MAX`
/// instead of wrapping — an adversarial timestamp must never overflow
/// into the simulation's past.
pub fn change_at_us(at_ms: u64) -> u64 {
    at_ms.saturating_mul(1000)
}

/// Packs merged source changes into the `(at_us, payload)` stream the
/// run loops merge with the queue. Built once per prepared run and
/// shared across every session of it.
pub fn build_source_stream(changes: &[SourceChange], end_us: u64) -> Vec<(u64, EventKind)> {
    let source_stream: Vec<(u64, EventKind)> = changes
        .iter()
        .map(|&(at_ms, item, value)| {
            let at_us = change_at_us(at_ms);
            debug_assert!(at_us <= end_us, "change beyond horizon");
            // NaN bit patterns are reserved for the payload's tag box.
            assert!(!value.is_nan(), "source change values must not be NaN");
            (at_us, EventKind::source_change(item, value))
        })
        .collect();
    // Hard assert: the stream-merge run loops rely on this order for
    // correctness (an unsorted stream would silently reorder events
    // in release builds), and the check is O(n) once per run.
    assert!(
        source_stream.windows(2).all(|w| w[0].0 <= w[1].0),
        "source changes must arrive time-sorted"
    );
    source_stream
}

/// The assembled simulator, ready to run one dissemination experiment.
/// The scheduler backend is a type parameter, defaulting to the binary
/// heap; results are backend independent by construction. Everything the
/// event loop needs is compiled into flat owned state at construction —
/// the d3g is not referenced after [`Engine::new`] returns.
pub struct Engine<Q: EventQueue<EventKind> = HeapQueue<EventKind>> {
    /// The overlay delays (a shared clone): this oracle loop rounds the
    /// delay of each send from them, where the session reads the delay
    /// stamped into the edge.
    delays: DelayMatrix,
    /// The smallest delay between two distinct overlay nodes, µs — the
    /// session's batch window less the computational delay.
    pub(crate) min_link_us: u64,
    /// Per-dependent CPU occupancy, µs.
    pub(crate) comp_delay_us: u64,
    pub(crate) disseminator: Disseminator,
    pub(crate) fidelity: FidelityTracker,
    pub(crate) metrics: Metrics,
    /// Per-node CPU availability, µs.
    pub(crate) busy_until_us: Vec<u64>,
    pub(crate) queue: Q,
    pub(crate) next_seq: u64,
    /// Observation horizon, µs.
    pub(crate) end_us: u64,
    /// Decodes the NaN-boxed tag ids of centralized arrivals.
    pub(crate) tags: TagTable,
    /// The pre-seeded source changes, `(at_us, payload)` packed, sorted
    /// and **streamed**, not enqueued (see the module doc). Shared:
    /// re-packing ticks × items tuples per session dominates warm-branch
    /// construction cost.
    pub(crate) source_stream: Arc<Vec<(u64, EventKind)>>,
    /// Next unprocessed `source_stream` entry.
    pub(crate) stream_cursor: usize,
}

impl Engine {
    /// Builds an engine over a constructed d3g, scheduling with the
    /// default [`HeapQueue`]. Use [`Engine::with_queue`] to pick a
    /// different backend.
    ///
    /// * `workload` — the *user* needs (fidelity is measured against
    ///   these, not against LeLA-augmented requirements);
    /// * `delays` — the overlay delay matrix, checked and stamped into
    ///   the disseminator's edges in µs;
    /// * `changes` — the merged, time-sorted source change stream;
    /// * `initial_values[item]` — the value every node starts coherent at;
    /// * `comp_delay_ms` — per-dependent CPU time (converted once to µs);
    /// * `end_us` — the observation horizon in µs (normally the trace
    ///   duration).
    #[allow(clippy::too_many_arguments, reason = "one parameter per §6.1 experiment input")]
    pub fn new(
        d3g: &D3g,
        workload: &Workload,
        delays: &DelayMatrix,
        disseminator: Disseminator,
        changes: &[SourceChange],
        initial_values: &[f64],
        comp_delay_ms: f64,
        end_us: u64,
    ) -> Self {
        Engine::with_queue(
            d3g,
            workload,
            delays,
            disseminator,
            changes,
            initial_values,
            comp_delay_ms,
            end_us,
        )
    }
}

impl<Q: EventQueue<EventKind>> Engine<Q> {
    /// [`Engine::new`] with an explicit scheduler backend:
    /// `Engine::<CalendarQueue<EventKind>>::with_queue(...)`.
    ///
    /// # Panics
    /// As [`DelayMatrix::min_offdiag_us`], on a delay that does not fit
    /// the `u32` µs an edge record holds.
    #[allow(clippy::too_many_arguments, reason = "one parameter per §6.1 experiment input")]
    pub fn with_queue(
        d3g: &D3g,
        workload: &Workload,
        delays: &DelayMatrix,
        disseminator: Disseminator,
        changes: &[SourceChange],
        initial_values: &[f64],
        comp_delay_ms: f64,
        end_us: u64,
    ) -> Self {
        Self::with_queue_shared(
            d3g,
            workload,
            delays.clone(),
            delays.min_offdiag_us(),
            disseminator,
            Arc::new(build_source_stream(changes, end_us)),
            initial_values,
            comp_delay_ms,
            end_us,
        )
    }

    /// [`Engine::with_queue`] over *pre-built* shared inputs: the delay
    /// matrix (already checked, with its smallest off-diagonal µs) and
    /// the packed source stream are immutable for the lifetime of a
    /// prepared run, so callers constructing many sessions of the same
    /// inputs (sweep cells, warm what-if branches) share them and skip
    /// the O(n²) check and the O(ticks × items) stream materialization
    /// per session. Stamps the edges of `disseminator`.
    #[allow(clippy::too_many_arguments, reason = "one parameter per §6.1 experiment input")]
    pub(crate) fn with_queue_shared(
        d3g: &D3g,
        workload: &Workload,
        delays: DelayMatrix,
        min_link_us: u64,
        mut disseminator: Disseminator,
        source_stream: Arc<Vec<(u64, EventKind)>>,
        initial_values: &[f64],
        comp_delay_ms: f64,
        end_us: u64,
    ) -> Self {
        assert!(comp_delay_ms >= 0.0, "computational delay must be >= 0");
        disseminator.stamp_delays(&delays);
        let n_changes = source_stream.len();
        Self {
            delays,
            min_link_us,
            comp_delay_us: ms_to_us(comp_delay_ms),
            disseminator,
            fidelity: FidelityTracker::new(workload, initial_values, 0),
            metrics: Metrics::default(),
            busy_until_us: vec![0u64; d3g.n_nodes()],
            // The queue holds in-flight arrivals only (the source stream
            // is merged at pop time), so size it for churn, not for the
            // whole horizon's worth of pre-seeded changes.
            queue: Q::with_capacity(n_changes.min(1 << 15)),
            next_seq: 0,
            end_us,
            tags: TagTable::default(),
            source_stream,
            stream_cursor: 0,
        }
    }

    /// Runs to completion and returns the fidelity report plus overhead
    /// counters.
    pub fn run(mut self) -> (FidelityReport, Metrics) {
        loop {
            // Two-way merge: the queue may only deliver strictly below
            // the stream head (equal-time stream events were created
            // first), otherwise the head itself is due. Once the stream
            // is spent, the plain pop also reaches arrivals sitting at
            // exactly `u64::MAX` (saturated timestamps).
            let head = self.source_stream.get(self.stream_cursor).copied();
            let cap_us = head.map_or(u64::MAX, |(at_us, _)| at_us);
            let (at_us, kind) = match self.queue.pop_lt(cap_us) {
                Some(ev) => ev,
                None => match head {
                    Some(ev) => {
                        self.stream_cursor += 1;
                        ev
                    }
                    None => match self.queue.pop() {
                        Some(ev) => ev,
                        None => break,
                    },
                },
            };
            self.metrics.events += 1;
            match kind.classify(&self.tags) {
                Event::SourceChange { item, value } => {
                    self.metrics.source_updates += 1;
                    self.fidelity.source_update(at_us, item, value);
                    let fwd = self.disseminator.on_source_update(item, value);
                    self.metrics.source_checks += fwd.checks;
                    self.transmit(d3t_core::overlay::SOURCE, at_us, fwd.update, &fwd.to, None);
                }
                Event::Arrival { node, update } => {
                    self.fidelity.repo_update(at_us, node, update.item, update.value);
                    let fwd = self.disseminator.on_repo_update(node, update);
                    self.metrics.repo_checks += fwd.checks;
                    self.transmit(node, at_us, fwd.update, &fwd.to, Some(kind));
                }
            }
        }
        (self.fidelity.finish(self.end_us), self.metrics)
    }

    /// Serially prepares and sends `update` from `node` to each recipient.
    /// Integer arithmetic after one rounding per send: CPU queueing, link
    /// delay, horizon check.
    /// `relayed` is the event being forwarded, when there is one — its
    /// interned tag pair is reused instead of re-interned.
    fn transmit(
        &mut self,
        node: NodeIdx,
        now_us: u64,
        update: Update,
        to: &[NodeIdx],
        relayed: Option<EventKind>,
    ) {
        if to.is_empty() {
            return;
        }
        let template = EventKind::arrival_template(update, relayed, &mut self.tags);
        let mut cpu = self.busy_until_us[node.index()].max(now_us);
        for &child in to {
            cpu += self.comp_delay_us;
            self.metrics.messages += 1;
            let arrival_us = cpu + u64::from(self.delays.us(node, child));
            if arrival_us > self.end_us {
                self.metrics.undelivered += 1;
                continue;
            }
            self.queue.push(arrival_us, self.next_seq, template.at_node(child));
            self.next_seq += 1;
        }
        self.busy_until_us[node.index()] = cpu;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::CalendarQueue;
    use d3t_core::coherency::Coherency;
    use d3t_core::dissemination::Protocol;
    use d3t_core::lela::DelayMatrix;
    use d3t_core::overlay::SOURCE;

    fn c(v: f64) -> Coherency {
        Coherency::new(v)
    }

    /// S → A (c=0.1): one item, one repo.
    fn tiny() -> (D3g, Workload) {
        let w = Workload::from_needs(vec![vec![Some(c(0.1))]]);
        let mut g = D3g::new(1, 1);
        g.add_edge(SOURCE, NodeIdx::repo(0), ItemId(0), c(0.1));
        (g, w)
    }

    fn run_tiny(
        changes: &[SourceChange],
        comm_ms: f64,
        comp_ms: f64,
        end_ms: f64,
    ) -> (FidelityReport, Metrics) {
        let (g, w) = tiny();
        let delays = DelayMatrix::uniform(2, comm_ms);
        let d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        Engine::new(&g, &w, &delays, d, changes, &[1.0], comp_ms, ms_to_us(end_ms)).run()
    }

    #[test]
    fn zero_delay_run_has_zero_loss() {
        let changes: Vec<SourceChange> =
            (1..100).map(|i| (i * 100, ItemId(0), 1.0 + i as f64 * 0.05)).collect();
        let delays = DelayMatrix::uniform(2, 0.0);
        let (g, w) = tiny();
        let d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let (rep, m) = Engine::new(&g, &w, &delays, d, &changes, &[1.0], 0.0, 10_000_000).run();
        assert_eq!(rep.loss_pct, 0.0);
        assert!(m.messages > 0);
    }

    #[test]
    fn loss_equals_delay_fraction_for_single_violating_update() {
        // One violating change at t=1000ms; comm 200ms + comp 50ms → repo
        // is stale for 250ms of a 10s window = 2.5% loss.
        let (rep, m) = run_tiny(&[(1000, ItemId(0), 2.0)], 200.0, 50.0, 10_000.0);
        assert!((rep.loss_pct - 2.5).abs() < 1e-6, "loss {}", rep.loss_pct);
        assert_eq!(m.messages, 1);
        assert_eq!(m.source_checks, 1);
        assert_eq!(m.undelivered, 0);
    }

    #[test]
    fn non_violating_changes_cost_checks_but_no_messages() {
        let (rep, m) = run_tiny(&[(1000, ItemId(0), 1.05)], 200.0, 50.0, 10_000.0);
        assert_eq!(rep.loss_pct, 0.0);
        assert_eq!(m.messages, 0);
        assert_eq!(m.source_checks, 1);
        assert_eq!(m.source_updates, 1);
        assert_eq!(m.events, 1, "one source change, no arrivals");
    }

    #[test]
    fn cpu_queueing_serializes_sends() {
        // Two violating changes 1ms apart with comp=100ms: the second
        // transmission waits for the first, so the repo is stale from
        // t=1000 until (1001→cpu busy till 1100+100=1200) +comm 10 = 1210.
        let changes = [(1000, ItemId(0), 2.0), (1001, ItemId(0), 3.0)];
        let (rep, _m) = run_tiny(&changes, 10.0, 100.0, 10_000.0);
        // Violation: from 1000 to 1210 (second update's arrival restores
        // coherency; the first arrival at 1110 still leaves |3.0-2.0|>0.1).
        let expected = (1210.0 - 1000.0) / 10_000.0 * 100.0;
        assert!((rep.loss_pct - expected).abs() < 0.05, "loss {}", rep.loss_pct);
    }

    #[test]
    fn messages_past_horizon_are_counted_but_undelivered() {
        let (rep, m) = run_tiny(&[(9_990, ItemId(0), 2.0)], 200.0, 50.0, 10_000.0);
        assert_eq!(m.messages, 1);
        assert_eq!(m.undelivered, 1);
        // Violation runs from 9990 to the end: 0.1% loss.
        assert!((rep.loss_pct - 0.1).abs() < 1e-6, "loss {}", rep.loss_pct);
    }

    #[test]
    fn deterministic_across_runs() {
        let changes: Vec<SourceChange> =
            (1..500).map(|i| (i * 20, ItemId(0), 1.0 + (i % 17) as f64 * 0.03)).collect();
        let a = run_tiny(&changes, 25.0, 12.5, 10_000.0);
        let b = run_tiny(&changes, 25.0, 12.5, 10_000.0);
        assert_eq!(a.0.loss_pct, b.0.loss_pct);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn heap_and_calendar_backends_agree_bit_for_bit() {
        let changes: Vec<SourceChange> =
            (1..800).map(|i| (i * 11, ItemId(0), 1.0 + (i % 23) as f64 * 0.02)).collect();
        let (g, w) = tiny();
        let delays = DelayMatrix::uniform(2, 7.0);
        let mk = || Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let heap = Engine::new(&g, &w, &delays, mk(), &changes, &[1.0], 3.0, 10_000_000).run();
        let cal = Engine::<CalendarQueue<EventKind>>::with_queue(
            &g,
            &w,
            &delays,
            mk(),
            &changes,
            &[1.0],
            3.0,
            10_000_000,
        )
        .run();
        assert_eq!(cal, heap);
    }

    #[test]
    fn sub_microsecond_delays_round_once_at_construction() {
        // 0.0004 ms rounds to 0 µs; 0.0006 ms rounds to 1 µs. The engine
        // must schedule with the rounded values, not re-round per event.
        let (g, w) = tiny();
        let d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let delays = DelayMatrix::uniform(2, 0.0006);
        let changes = [(1000u64, ItemId(0), 2.0)];
        let (rep, _) = Engine::new(&g, &w, &delays, d, &changes, &[1.0], 0.0, 2_000_000).run();
        // Violation lasts exactly 1 µs of the 2 s window.
        let expected = 1.0 / 2_000_000.0 * 100.0;
        assert!((rep.loss_pct - expected).abs() < 1e-9, "loss {}", rep.loss_pct);
    }

    #[test]
    fn change_at_us_saturates_at_the_u64_boundary() {
        assert_eq!(change_at_us(0), 0);
        assert_eq!(change_at_us(5), 5_000);
        let edge = u64::MAX / 1000;
        assert_eq!(change_at_us(edge), edge * 1000);
        // One past the largest convertible timestamp: must clamp, not wrap.
        assert_eq!(change_at_us(edge + 1), u64::MAX);
        assert_eq!(change_at_us(u64::MAX), u64::MAX);
    }

    #[test]
    fn overflowing_change_timestamp_does_not_wrap_into_the_past() {
        // `at_ms * 1000` would overflow (panic in debug, wrap to a small
        // timestamp in release); the saturating conversion schedules the
        // change at the far end of time instead. A non-violating value
        // keeps everything else inert.
        let (g, w) = tiny();
        let d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let delays = DelayMatrix::uniform(2, 1.0);
        let changes = [(u64::MAX / 1000 + 1, ItemId(0), 1.05)];
        let (rep, m) = Engine::new(&g, &w, &delays, d, &changes, &[1.0], 0.0, u64::MAX).run();
        assert_eq!(m.source_updates, 1);
        assert_eq!(m.messages, 0);
        assert_eq!(rep.loss_pct, 0.0);
    }
}
