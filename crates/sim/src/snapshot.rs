//! # Snapshot/branch/replay — warm checkpoints of a live session
//!
//! A [`Snapshot`] is a compact owned copy of everything a
//! [`Session`](crate::Session)'s future depends on, taken at any
//! quiescent step boundary (between `step` / `run_until` calls, where
//! no popped run is half-processed). Only a session is captured: the
//! sharded drive of `Prepared::run` keeps no state a snapshot could
//! merge.
//!
//! The design premise is that the engine's state is already **flat**:
//! CSR row/edge tables, 16-byte fidelity pair records, a `Vec` of
//! pending events per queue tier, plain counter structs. Capture is
//! therefore bulk `Vec` clones plus one ordered queue walk — no
//! per-element encoding, no graph chasing — which keeps checkpoint
//! cost in milliseconds at paper scale (see the cost model in
//! `sim::session`'s performance notes).
//!
//! ## What is captured, and in what form
//!
//! * **Pending events** — the queue's events in exactly pop order
//!   ([`EventQueue::snapshot_events`](crate::EventQueue::snapshot_events));
//!   no drive entry ever holds a popped event across a step boundary,
//!   so the queue is all of them. Events keep their raw [`EventKind`] payloads; the
//!   NaN-boxed tag ids they may carry stay meaningful because the
//!   [`TagTable`] is captured alongside them. Creation stamps are
//!   **not** stored: capture order *is* pop order, so restore re-pushes
//!   with fresh ascending stamps and reproduces the total order,
//!   FIFO ties included.
//! * **Protocol & fidelity state** — `Disseminator` and
//!   `FidelityTracker` clones (bulk flat-array copies).
//! * **Fault runtime** — the compiled `FaultState` clone: timeline
//!   cursor, pending repair heap, live loss/degradation windows and
//!   the plan RNG, so a snapshot taken mid-fault-window resumes
//!   mid-window, pending retransmission backoffs and all.
//! * **Cursors & counters** — simulation clock, source-stream cursor,
//!   per-node busy clocks, metrics. The pre-seeded source stream
//!   itself is *not* captured: it is pure configuration, rebuilt
//!   identically by [`Prepared::resume`](crate::Prepared::resume).
//!
//! ## The bit-identity contract
//!
//! `Prepared::resume(&snapshot)` reconstructs a session whose
//! run-to-end is bit-identical to the uninterrupted run — same
//! `FidelityReport`, same `Metrics`, on either queue backend, with an
//! active fault plan (property-tested at the
//! workspace root in `tests/snapshot_properties.rs`). The one
//! non-semantic difference a resumed session carries is its stamp
//! counter (restarted at the pending-event count), which is why
//! [`Session::state_digest`](crate::Session::state_digest) hashes
//! events in *decoded* form and skips the counter entirely.

use d3t_core::dissemination::Disseminator;
use d3t_core::fidelity::FidelityTracker;

use crate::engine::{EventKind, TagTable};
use crate::fault::FaultState;
use crate::metrics::Metrics;

/// Domain seed separating
/// [`Session::state_digest`](crate::session::Session::state_digest)
/// values from plain report hashes (both are FNV-1a; equal byte streams
/// must not collide across the two uses).
pub const STATE_DIGEST_SEED: u64 = 0x5eed_d161_e575_a7e5;

/// A compact owned checkpoint of a live session. Construct with
/// [`Session::snapshot`](crate::Session::snapshot); reconstruct a
/// session with [`Prepared::resume`](crate::Prepared::resume) /
/// [`resume_with`](crate::Prepared::resume_with).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulation clock at capture.
    pub(crate) now_us: u64,
    /// Observation horizon (must match the resuming [`Prepared`]'s).
    pub(crate) end_us: u64,
    /// Next unprocessed pre-seeded source change.
    pub(crate) stream_cursor: usize,
    /// Per-node serial-send busy clocks.
    pub(crate) busy_until_us: Vec<u64>,
    /// Protocol state (CSR tables, liveness, adoptions, source lists).
    pub(crate) disseminator: Disseminator,
    /// Exact interval-accounting fidelity state.
    pub(crate) fidelity: FidelityTracker,
    /// Counters accumulated up to the capture instant.
    pub(crate) metrics: Metrics,
    /// Tag side table the captured events' NaN-boxed ids resolve in.
    pub(crate) tags: TagTable,
    /// The queue's pending events in exactly pop order.
    pub(crate) queue_events: Vec<(u64, EventKind)>,
    /// Fault-plan runtime: timeline cursor, repair heap, live windows,
    /// plan RNG.
    pub(crate) faults: FaultState,
}

impl Snapshot {
    /// Simulation time the snapshot was captured at, µs.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Observation horizon of the captured run, µs.
    pub fn end_us(&self) -> u64 {
        self.end_us
    }

    /// Arrivals in flight at capture (the unprocessed pre-seeded source
    /// changes are configuration, not captured).
    pub fn pending_events(&self) -> usize {
        self.queue_events.len()
    }

    /// Approximate owned size of the snapshot in bytes — the flat
    /// arrays it bulk-cloned plus its own header. Telemetry only
    /// (capacity slack and allocator overhead are not counted).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.busy_until_us.len() * std::mem::size_of::<u64>()
            + self.disseminator.state_bytes()
            + self.fidelity.state_bytes()
            + self.tags.state_bytes()
            + self.queue_events.len() * std::mem::size_of::<(u64, EventKind)>()
            + self.faults.state_bytes()
    }
}
