//! # d3t-sim — the discrete-event simulator
//!
//! Drives a constructed d3g with real trace streams through a simulated
//! network, reproducing the paper's evaluation methodology (§6.1):
//!
//! * the source observes each item's trace; every *change* is considered
//!   for dissemination;
//! * nodes process dissemination work **serially**: preparing an update for
//!   one dependent costs the configured computational delay (12.5 ms by
//!   default), so a node with many dependents queues — the effect that
//!   makes very high degrees of cooperation counterproductive (the rising
//!   half of the paper's U-curve);
//! * each transmitted update reaches the dependent after the physical
//!   network's shortest-path delay between the two overlay nodes;
//! * fidelity is accounted exactly from the interleaving of source changes
//!   and repository arrivals.
//!
//! # The Session model
//!
//! The public surface is built around a steppable [`Session`] rather than
//! a sealed run. One lifecycle:
//!
//! ```text
//!   SimConfig ──Prepared::build()──▶ Prepared        (inputs, overlay)
//!                                       │ session() / session_with::<Q, O>()
//!                                       ▼
//!   ┌──────────────────────────── Session<Q, O> ────────────────────────┐
//!   │ step()          process exactly one event                         │
//!   │ run_until(t)    process every event ≤ t, set now = t              │
//!   │ inject(d)       apply a Dynamic at now (fail / recover /          │
//!   │                 renegotiate tolerance / hot-swap an item)         │
//!   │ observer()      peek at whatever O collected so far               │
//!   └──────────────┬─────────────────────────────────────────────────────┘
//!                  │ run_to_end() / finish()
//!                  ▼
//!        (FidelityReport, Metrics[, O])
//! ```
//!
//! [`run`] (and `Prepared::run`) remain as thin compatibility wrappers:
//! they drive a `Session` with the [`NoopObserver`] to completion and are
//! **bit-identical** to the pre-session engine on every input — the
//! sealed [`Engine`] loop is kept verbatim as the reference oracle the
//! property tests compare against.
//!
//! # Observer cost model
//!
//! A session is monomorphized per [`Observer`] type:
//!
//! * `Session<_, NoopObserver>` inlines empty callbacks everywhere — the
//!   event loop compiles down to the unobserved reference loop (its
//!   speed relative to that loop is `d3t-bench`'s
//!   `engine.session_vs_oracle_x`);
//! * a real observer ([`WindowedFidelity`] time series, [`EventTrace`]
//!   logs, or your own) pays only for the callbacks it implements; there
//!   is no dynamic dispatch and no event buffering;
//! * violation open/close callbacks are driven by the fidelity tracker's
//!   exact interval accounting, so a time-series observer sees every
//!   transition without scanning any state.
//!
//! # Mid-run dynamics
//!
//! [`Session::inject`] applies a [`Dynamic`] at the session's current
//! time: fail-stop repository crashes and recoveries, per `(repo, item)`
//! tolerance renegotiation (the disseminator patches its compiled CSR
//! forwarding table in place), and item hot-swaps. Violation accounting
//! is re-evaluated at exactly the mutation instant. See the `dynamics`
//! and `resilience` experiments (`repro dynamics`, `repro resilience`)
//! for the end-to-end picture.
//!
//! # Failure model
//!
//! A [`FaultPlan`] is a declarative, seeded failure scenario — pure data,
//! installed on a live session with [`Session::install_fault_plan`], or
//! with [`Session::adopt_fault_plan`] on a branch resumed from a
//! [`Snapshot`]. A [`SimConfig`] carries none, so [`run`] and
//! `Prepared::run` are always fault-free. A plan holds:
//!
//! * **Crash/recover schedules** ([`CrashSpec`]): fail-stop a repository
//!   at an instant, optionally recovering later, optionally taking out
//!   its whole current d3g subtree as one correlated burst;
//! * **Loss windows** ([`LossWindow`]): i.i.d. per-message destruction
//!   with sender-side retransmission under capped exponential backoff
//!   ([`RetransmitSpec`]). Receiver dedup holds by construction: all
//!   attempts for a logical message resolve at send time, so at most one
//!   arrival is ever scheduled;
//! * **Degradation windows** ([`DegradeWindow`]): every send gains extra
//!   heavy-tailed latency drawn from the paper's Pareto link-delay
//!   family (`d3t_net::Pareto`).
//!
//! Installing a plan *compiles* it against the built overlay into a
//! time-sorted control timeline merged into the drive loop exactly like
//! the pre-seeded source-change stream: controls apply **before** any
//! simulation event at the same timestamp, and drain runs never
//! cross a control instant, so liveness and loss state are constant
//! within a run.
//!
//! Repair is the paper-style resiliency story. Under
//! [`RepairPolicy::Reparent`], the dependents of a crashed parent detect
//! the silence after a detection timeout (a lease on expected traffic)
//! and re-home onto the nearest surviving ancestor with capped,
//! per-dependent staggered backoff — moving the child's edge into its
//! foster's row of the compiled CSR forwarding table and tightening the
//! foster chain to keep Eq. (1). Repair pays O(item holders + live
//! adoptions) per operation; decisions pay nothing. Recovery re-attaches
//! the original edges. Under [`RepairPolicy::None`] the
//! orphaned subtrees simply starve — the passive fail-stop baseline.
//! [`Metrics`] counts `lost`, `retransmits`, and `reparented`; the
//! [`FaultMonitor`] observer tracks per-incident MTTR and
//! fault-window fidelity. An injected [`Dynamic::FailRepo`] /
//! [`Dynamic::RecoverRepo`] takes the same crash / recovery path as a
//! plan's timeline event: the installed repair policy re-homes its
//! orphans, and observers see it through `on_fault`.
//!
//! Determinism survives all of it: loss and degradation consume a single
//! plan-seeded RNG advanced once per decision in original event order,
//! so for a fixed `(seed, plan)` a faulted run is bit-identical across
//! queue backends and drive splits, and an inert plan draws nothing at all
//! — fault-free runs stay bit-identical to the sealed reference engine
//! (`tests/fault_properties.rs` holds both ends).
//!
//! The simulation is fully deterministic: a seeded configuration always
//! produces bit-identical reports, whatever mix of stepping, observers,
//! and queue backends drives it.
//!
//! ```
//! use d3t_sim::{run, Dynamic, Prepared, SimConfig};
//!
//! let cfg = SimConfig::small_for_tests(10, 5, 500, 50.0);
//! // One-shot (the compatibility path)...
//! let report = run(&cfg);
//! assert!(report.fidelity.loss_pct <= 100.0);
//!
//! // ...or steppable with mid-run dynamics.
//! let prepared = Prepared::build(&cfg);
//! let mut session = prepared.session();
//! session.run_until(prepared.end_us / 2);
//! session.inject(Dynamic::FailRepo { repo: 0 }).unwrap();
//! let (fidelity, metrics) = session.run_to_end();
//! assert!(metrics.injected == 1 && fidelity.loss_pct <= 100.0);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::undocumented_unsafe_blocks,
    reason = "P001 and U001: library code documents every panic and every unsafe block"
)]

pub mod config;
pub mod dynamics;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod observer;
pub mod prepared;
pub mod queue;
pub mod report;
pub mod session;
pub(crate) mod shard;
pub mod snapshot;

pub use config::{SimConfig, TreeStrategy};
pub use dynamics::{Dynamic, DynamicError};
pub use engine::{Engine, Event, EventKind, TagTable};
pub use fault::{
    CrashSpec, DegradeWindow, FaultIncident, FaultMonitor, FaultPlan, FaultPlanError, LossWindow,
    RepairPolicy, RepairSpec, RetransmitSpec,
};
pub use metrics::Metrics;
pub use observer::{
    EventTrace, FaultObservation, NoopObserver, Observer, TraceEvent, WindowPoint, WindowedFidelity,
};
pub use prepared::{Prepared, Retargeted};
pub use queue::{CalendarQueue, EventQueue, HeapQueue};
pub use report::RunReport;
pub use session::{PhaseCounter, PhaseStats, Session};
pub use snapshot::Snapshot;

/// The one `std::sync` type the sequential drive uses.
#[expect(
    clippy::disallowed_types,
    reason = "Arc shares immutable prepared inputs by refcount; no locks, no scheduling"
)]
pub(crate) type Arc<T> = std::sync::Arc<T>;

/// Prepares and runs a complete simulation from a configuration — the
/// sealed-run compatibility wrapper over [`Session`], bit-identical to
/// the pre-session engine. A sequence of runs whose configurations
/// differ in a few fields is cheaper through one `Prepared` and
/// [`Prepared::retarget`], which rebuilds only what those fields feed.
pub fn run(cfg: &SimConfig) -> RunReport {
    Prepared::build(cfg).run()
}
