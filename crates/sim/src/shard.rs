//! Conservative parallel DES: the d3g sharded across cores, with
//! epoch-batched cross-shard inboxes.
//!
//! The sequential engine's run drain already rests on a
//! lookahead bound: processing an event at `t` can only schedule
//! arrivals at or after `t + comp_delay + min off-diagonal link delay`
//! (the safety window `W`, see the queue module's performance model).
//! This module turns that *temporal* batching license into a *spatial*
//! one: partition the overlay into `N` shards ([`d3t_net::partition`]
//! over the tolerance-weighted d3g edge graph, source pinned to shard
//! 0), give every shard its own calendar queue, busy-clock and run
//! drain, and let all of them drain the same epoch `[t_min, T)` —
//! `T = min(t_min + W, next fault control)` — concurrently. No event
//! inside an epoch can generate work inside it, so the shards never
//! need to talk until the barrier.
//!
//! # The epoch protocol
//!
//! One coordinator (the calling thread) plus `N` persistent workers,
//! meeting at two barriers per epoch:
//!
//! ```text
//!   coordinator                         workers (one per shard)
//!   ───────────                         ───────────────────────
//!   apply value logs, route outboxes
//!   t_min = min(peek_at, stream head)
//!   apply fault controls ≤ t_min
//!   T = min(t_min + W, next control)
//!   ── start barrier ──────────────────▶ drain_epoch(T)
//!   ◀───────────────────── finish barrier ──
//! ```
//!
//! Workers are parked at the start barrier whenever the coordinator
//! holds the shard locks, so every cross-shard interaction happens in
//! one deterministic, single-threaded stretch — the report of a run is
//! a pure function of `(config, seed, n_shards)`, whatever the OS makes
//! of the threads.
//!
//! # Outboxes and the stamp contract
//!
//! No shard pushes into any event queue during an epoch — not even its
//! own. Every send decision lands in the shard's **outbox** keyed by
//! `(event time, phase, generator, child ordinal)`, where `phase`
//! orders source-tick sends (stream index as generator) before
//! arrival-relay sends (the generating event's creation stamp `g`) at
//! equal times. That key reproduces the *global sequential creation
//! order*, so the coordinator merges all outboxes, assigns consecutive
//! stamps from one counter, and pushes each arrival — plus its mirrors
//! — in merged order. Each queue receives an ascending-stamp
//! subsequence, preserving the strictly-increasing-stamp push contract
//! both backends' FIFO tie-breaking relies on.
//!
//! # Replicas, mirrors and value logs
//!
//! Each shard owns a full [`Disseminator`] replica. Forwarding
//! decisions at a node read only that node's row plus the per-edge
//! `last_sent` mirrors of its children, so a delivery to `child` must
//! be *mirrored* to the shards that may decide over `child`'s edge: the
//! owner of its parent — or, once crashes can re-home orphans, the
//! owners of every original proper ancestor (fosters never leave that
//! chain). Mirror arrivals replay the delivery's state write
//! ([`Disseminator::record_replica`]) without counting, measuring or
//! forwarding anything. The centralized protocol's recovery resync
//! additionally reads *every* holder's row, so faulted centralized runs
//! keep a value log per shard, replayed onto the other replicas at each
//! barrier — before any control can trigger a resync.
//!
//! # Equivalence and fallbacks
//!
//! `n_shards ≤ 1`, zero-lookahead configs, unbounded horizons and lossy
//! / degraded link plans fall back to the sequential drain silently —
//! the sharded path never changes semantics, only wall clock. An
//! N-shard run is deterministic for fixed `(seed, N)`, and
//! bit-identical to the sealed scalar oracle's report —
//! property-tested at the workspace root (`tests/shard_properties.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use d3t_core::coherency::Coherency;
use d3t_core::dissemination::{Disseminator, ForwardScratch, Protocol, Update};
use d3t_core::fidelity::{FidelityReport, FidelityTracker, PairLoss};
use d3t_core::graph::D3g;
use d3t_core::item::ItemId;
use d3t_core::lela::DelayMicros;
use d3t_core::overlay::{NodeIdx, SOURCE};
use d3t_core::workload::Workload;

use crate::engine::{change_at_us, ms_to_us, Event, EventKind, TagTable};
use crate::fault::{FaultControl, FaultEvent, FaultState, RepairOp, RepairPolicy};
use crate::metrics::Metrics;
use crate::prepared::Prepared;
use crate::queue::{CalendarQueue, EventQueue};
use crate::report::RunReport;
use crate::session::RUN_CAP;
use crate::snapshot::Snapshot;

/// One queued event on a shard: the packed payload plus its global
/// creation stamp `g`. The stamp rides along because relays key their
/// outbox entries by the generating event's stamp, and because whether
/// an arrival is a mirror is derived (`owner[node] != shard`), not
/// stored — the payload stays `Copy` and 24 bytes.
#[derive(Debug, Clone, Copy)]
struct ShardEvent {
    kind: EventKind,
    g: u64,
}

/// One staged send awaiting the barrier. `(at_ev, phase, sec, k)` is
/// globally unique and sorts into the sequential creation order:
/// source-tick sends (`phase` 0, `sec` = stream index) precede
/// equal-time relay sends (`phase` 1, `sec` = generating stamp), and
/// `k` is the child's ordinal within the send group.
#[derive(Debug, Clone, Copy)]
struct OutEntry {
    at_ev: u64,
    phase: u8,
    sec: u64,
    k: u32,
    arrival_us: u64,
    child: NodeIdx,
    update: Update,
}

/// Static mirror fan-out: for every `(item, child)`, the shards owning
/// an original proper ancestor of `child` (owner of `child` excluded).
/// Only built when the plan contains crashes — without re-homing, the
/// only cross-shard reader of a delivery is the child's parent.
struct MirrorCsr {
    xadj: Vec<u32>,
    targets: Vec<u32>,
    n_nodes: usize,
}

impl MirrorCsr {
    fn targets(&self, item: ItemId, node: NodeIdx) -> &[u32] {
        let r = item.index() * self.n_nodes + node.index();
        &self.targets[self.xadj[r] as usize..self.xadj[r + 1] as usize]
    }
}

/// Read-only state shared by every shard and the coordinator.
struct EpochCtx<'a> {
    delays: &'a DelayMicros,
    stream: &'a [(u64, EventKind)],
    owner: &'a [u32],
    d3g: &'a D3g,
    mirrors: Option<&'a MirrorCsr>,
}

/// Everything one shard owns: a full disseminator replica, the
/// fidelity tracker restricted to its repositories, its slice of the
/// busy clocks (full-size, but only owned nodes are ever written), a
/// private queue + tag table, and the epoch outbox.
struct ShardState<Q> {
    id: u32,
    dis: Disseminator,
    fid: FidelityTracker,
    metrics: Metrics,
    busy_until_us: Vec<u64>,
    queue: Q,
    tags: TagTable,
    /// Per-item `(value bits, tag bits, template)` memo: the per-shard
    /// tag tables grow by interning, so the router reuses the previous
    /// template when a tagged update repeats (the steady state for
    /// centralized fan-out). `u64::MAX` value bits are a NaN pattern no
    /// real value can carry — a safe empty sentinel.
    tag_cache: Vec<(u64, u64, EventKind)>,
    cursor: usize,
    outbox: Vec<OutEntry>,
    value_log: Vec<(ItemId, NodeIdx, f64)>,
    log_values: bool,
    buf: Vec<(u64, ShardEvent)>,
    scratch: ForwardScratch,
    comp_delay_us: u64,
    end_us: u64,
}

impl<Q: EventQueue<ShardEvent>> ShardState<Q> {
    /// Drains everything this shard can see strictly below `t_end`:
    /// queue runs below the stream head, the stream's ticks at their
    /// turn (stream wins equal-time ties, exactly like the sequential
    /// merge). Nothing is pushed back — sends stage into the outbox.
    fn drain_epoch(&mut self, t_end: u64, ctx: &EpochCtx<'_>) {
        loop {
            let s_at = ctx.stream.get(self.cursor).map_or(u64::MAX, |e| e.0);
            let cap = s_at.min(t_end);
            let mut buf = std::mem::take(&mut self.buf);
            buf.clear();
            let n = self.queue.pop_run(u64::MAX, cap, RUN_CAP, &mut buf);
            if n > 0 {
                self.process_run(&buf, ctx);
                self.buf = buf;
                continue;
            }
            self.buf = buf;
            if s_at >= t_end {
                break;
            }
            let (at_us, kind) = ctx.stream[self.cursor];
            self.cursor += 1;
            self.process_tick(at_us, kind, ctx);
        }
    }

    /// One source tick. Shard 0 plays the source — full decision,
    /// metrics and send staging; every other shard replays the state
    /// write on its replica and keeps its fidelity clock in sync.
    fn process_tick(&mut self, at_us: u64, kind: EventKind, ctx: &EpochCtx<'_>) {
        let Event::SourceChange { item, value } = kind.classify(&self.tags) else {
            unreachable!("the source stream holds source changes only");
        };
        if self.id == 0 {
            self.metrics.events += 1;
            self.metrics.source_updates += 1;
            let mut scratch = std::mem::take(&mut self.scratch);
            self.dis.on_source_update_into(item, value, &mut scratch);
            self.metrics.source_checks += scratch.checks();
            self.fid.source_update(at_us, item, value);
            let sec = (self.cursor - 1) as u64;
            self.stage_sends(SOURCE, at_us, scratch.update(), scratch.to(), 0, sec, ctx);
            self.scratch = scratch;
        } else {
            self.dis.record_replica(item, SOURCE, value);
            self.fid.source_update(at_us, item, value);
        }
    }

    /// One popped run of arrivals, each through the same scalar kernels
    /// the session's `process` drives. Mirror arrivals (owner of the
    /// node is another shard) replay only the state write on this
    /// replica — what a later decision at an owned ancestor reads: no
    /// metrics, no fidelity slot (theirs are unmeasured here) and no
    /// sends, which the owning shard already decided and routed.
    fn process_run(&mut self, run: &[(u64, ShardEvent)], ctx: &EpochCtx<'_>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for &(at_us, ev) in run {
            let Event::Arrival { node, update } = ev.kind.classify(&self.tags) else {
                unreachable!("shard queues hold arrivals only");
            };
            let owned = ctx.owner[node.index()] == self.id;
            if owned {
                self.metrics.events += 1;
            }
            if !self.dis.is_active(node) {
                if owned {
                    self.metrics.dropped += 1;
                }
                continue;
            }
            if !owned {
                self.dis.record_replica(update.item, node, update.value);
                continue;
            }
            self.dis.on_repo_update_into(node, update, &mut scratch);
            self.metrics.repo_checks += scratch.checks();
            self.fid.repo_update(at_us, node, update.item, update.value);
            if self.log_values {
                self.value_log.push((update.item, node, update.value));
            }
            self.stage_sends(node, at_us, scratch.update(), scratch.to(), 1, ev.g, ctx);
        }
        self.scratch = scratch;
    }

    /// Stages one send group into the outbox — identical arithmetic to
    /// the sequential `transmit` (serial CPU occupancy, per-child link
    /// delay, horizon filter), minus the queue push: stamps are
    /// assigned by the coordinator at the barrier.
    #[allow(clippy::too_many_arguments)] // the transmit signature plus the outbox key
    fn stage_sends(
        &mut self,
        node: NodeIdx,
        at_us: u64,
        update: Update,
        to: &[NodeIdx],
        phase: u8,
        sec: u64,
        ctx: &EpochCtx<'_>,
    ) {
        if to.is_empty() {
            return;
        }
        let delay_row = ctx.delays.row(node);
        let mut cpu = self.busy_until_us[node.index()].max(at_us);
        for (k, &child) in to.iter().enumerate() {
            cpu += self.comp_delay_us;
            self.metrics.messages += 1;
            let arrival_us = cpu + u64::from(delay_row[child.index()]);
            if arrival_us > self.end_us {
                self.metrics.undelivered += 1;
                continue;
            }
            self.outbox.push(OutEntry {
                at_ev: at_us,
                phase,
                sec,
                k: k as u32,
                arrival_us,
                child,
                update,
            });
        }
        self.busy_until_us[node.index()] = cpu;
    }

    /// The arrival template for `update` against this shard's tag
    /// table, memoized per item so repeated tagged fan-out reuses one
    /// interned pair instead of growing the table per message.
    fn route_template(&mut self, update: Update) -> EventKind {
        let Some(tag) = update.tag else {
            return EventKind::arrival_template(update, None, &mut self.tags);
        };
        let key = (update.value.to_bits(), tag.value().to_bits());
        let slot = &mut self.tag_cache[update.item.index()];
        if (slot.0, slot.1) == key {
            return slot.2;
        }
        let template = EventKind::arrival_template(update, None, &mut self.tags);
        *slot = (key.0, key.1, template);
        template
    }
}

/// Pushes one stamped arrival into `shard`'s queue — the only function
/// (with [`route_outboxes`]) allowed to touch a shard queue from the
/// exchange side; everything else stages through outboxes.
fn route_entry<Q: EventQueue<ShardEvent>>(shard: &mut ShardState<Q>, e: &OutEntry, g: u64) {
    let kind = shard.route_template(e.update).at_node(e.child);
    shard.queue.push(e.arrival_us, g, ShardEvent { kind, g });
}

/// Merges every shard's outbox into global creation order, assigns
/// consecutive stamps from the run-wide counter, and delivers each
/// arrival to its owner plus mirror shards. Pushing in merged order
/// hands every queue an ascending-stamp subsequence — the push
/// contract holds per queue by construction.
fn route_outboxes<Q: EventQueue<ShardEvent>>(
    guards: &mut [MutexGuard<'_, ShardState<Q>>],
    merged: &mut Vec<OutEntry>,
    next_seq: &mut u64,
    ctx: &EpochCtx<'_>,
) {
    merged.clear();
    for s in guards.iter_mut() {
        merged.append(&mut s.outbox);
    }
    merged.sort_unstable_by_key(|e| (e.at_ev, e.phase, e.sec, e.k));
    for e in merged.iter() {
        let g = *next_seq;
        *next_seq += 1;
        let own = ctx.owner[e.child.index()];
        route_entry(&mut guards[own as usize], e, g);
        match ctx.mirrors {
            Some(m) => {
                for &ms in m.targets(e.update.item, e.child) {
                    route_entry(&mut guards[ms as usize], e, g);
                }
            }
            None => {
                // Crash-free plans: the only cross-shard reader of this
                // delivery is the child's (static) parent.
                let parent = ctx.d3g.parent_of(e.child, e.update.item).unwrap_or(SOURCE);
                let pm = ctx.owner[parent.index()];
                if pm != own {
                    route_entry(&mut guards[pm as usize], e, g);
                }
            }
        }
    }
    merged.clear();
}

/// Replays every owner-logged delivery onto the other replicas —
/// centralized faulted runs only, where a recovery resync reads all
/// holders' rows. Runs before controls so a resync at this barrier
/// sees exactly the state the sequential drive would.
fn apply_value_logs<Q: EventQueue<ShardEvent>>(guards: &mut [MutexGuard<'_, ShardState<Q>>]) {
    for s in 0..guards.len() {
        if guards[s].value_log.is_empty() {
            continue;
        }
        let mut log = std::mem::take(&mut guards[s].value_log);
        for &(item, node, value) in &log {
            for (r, g) in guards.iter_mut().enumerate() {
                if r != s {
                    g.dis.record_replica(item, node, value);
                }
            }
        }
        log.clear();
        guards[s].value_log = log;
    }
}

/// Applies the single next due fault control across every replica —
/// the coordinator-side mirror of the session's `apply_next_control`,
/// with shard 0's replica as the guard/enumeration oracle.
fn apply_control<Q: EventQueue<ShardEvent>>(
    faults: &mut FaultState,
    guards: &mut [MutexGuard<'_, ShardState<Q>>],
    reparented: &mut u64,
) {
    let Some((at_us, ctl)) = faults.pop_next() else { return };
    match ctl {
        FaultControl::Timeline(ev) => match ev {
            FaultEvent::Crash { node } => {
                let node = NodeIdx(node);
                if !guards[0].dis.is_active(node) {
                    return;
                }
                for g in guards.iter_mut() {
                    g.dis.set_node_active(node, false);
                }
                if faults.policy == RepairPolicy::Reparent {
                    for (rank, (item, child)) in
                        guards[0].dis.dependents_of(node).into_iter().enumerate()
                    {
                        faults.schedule_repair(
                            at_us,
                            rank,
                            RepairOp { child: child.0, item: item.0, dead: node.0 },
                        );
                    }
                }
            }
            FaultEvent::Recover { node } => {
                let node = NodeIdx(node);
                if guards[0].dis.is_active(node) {
                    return;
                }
                for g in guards.iter_mut() {
                    g.dis.restore_children_of(node);
                    g.dis.set_node_active(node, true);
                }
            }
            // Lossy / degraded plans fall back to the sequential drive;
            // only inert loss boundaries (prob 0) can reach here.
            FaultEvent::LossStart { prob } => faults.loss_prob = prob,
            FaultEvent::LossEnd => faults.loss_prob = 0.0,
            FaultEvent::DegradeStart { min_ms, mean_ms } => {
                faults.degrade = Some(d3t_net::Pareto::with_mean(min_ms, mean_ms));
            }
            FaultEvent::DegradeEnd => faults.degrade = None,
        },
        FaultControl::Repair(op) => {
            let dead = NodeIdx(op.dead);
            let child = NodeIdx(op.child);
            let item = ItemId(op.item);
            if guards[0].dis.is_active(dead) || guards[0].dis.parent_of(child, item) != Some(dead) {
                return;
            }
            let mut foster = dead;
            loop {
                foster = guards[0].dis.parent_of(foster, item).unwrap_or(SOURCE);
                if foster.is_source() || guards[0].dis.is_active(foster) {
                    break;
                }
            }
            for g in guards.iter_mut() {
                g.dis.reparent(child, item, foster);
            }
            *reparented += 1;
        }
    }
}

/// Tolerance-weighted partition of the overlay: one vertex per d3g
/// node, one undirected edge per parent link (accumulated across
/// items), weighted inversely to the edge's effective tolerance — the
/// tighter the coherency, the chattier the edge, the more it wants to
/// stay intra-shard. Vertex weights follow items held, so load
/// balances by fan-in rather than node count. The source is pinned to
/// shard 0 by a deterministic label swap.
fn partition_overlay(d3g: &D3g, n_shards: usize, seed: u64) -> Vec<u32> {
    let n = d3g.n_nodes();
    let mut acc: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for item in 0..d3g.n_items() {
        let item = ItemId(item as u32);
        for node in 1..n {
            let node = NodeIdx(node as u32);
            let Some(parent) = d3g.parent_of(node, item) else { continue };
            let tol = d3g.effective(node, item).map_or(0.0, Coherency::value);
            let w = (1e6 / (1.0 + tol)) as u64 + 1;
            let key = (node.0.min(parent.0), node.0.max(parent.0));
            *acc.entry(key).or_insert(0) += w;
        }
    }
    let mut deg = vec![0u32; n];
    for &(a, b) in acc.keys() {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    let mut xadj = Vec::with_capacity(n + 1);
    let mut total = 0u32;
    xadj.push(0);
    for &d in &deg {
        total += d;
        xadj.push(total);
    }
    let mut adjncy = vec![0u32; total as usize];
    let mut adjwgt = vec![0u64; total as usize];
    let mut fill: Vec<u32> = xadj[..n].to_vec();
    for (&(a, b), &w) in &acc {
        for (u, v) in [(a, b), (b, a)] {
            let slot = fill[u as usize] as usize;
            adjncy[slot] = v;
            adjwgt[slot] = w;
            fill[u as usize] += 1;
        }
    }
    let vwgt: Vec<u64> =
        (0..n).map(|v| 1 + d3g.items_held(NodeIdx(v as u32)).count() as u64).collect();
    let mut part = d3t_net::partition::partition(&xadj, &adjncy, &adjwgt, &vwgt, n_shards, seed);
    let s = part[0];
    if s != 0 {
        for p in part.iter_mut() {
            if *p == s {
                *p = 0;
            } else if *p == 0 {
                *p = s;
            }
        }
    }
    part
}

/// Builds the crash-mode mirror fan-out: every original proper
/// ancestor's owner, minus the child's own shard. Fosters picked by
/// the repair walk always sit on the child's original ancestor chain,
/// so this static set covers every parent the child can ever have.
fn build_mirror_csr(d3g: &D3g, owner: &[u32]) -> MirrorCsr {
    let n = d3g.n_nodes();
    let mut xadj = Vec::with_capacity(d3g.n_items() * n + 1);
    let mut targets = Vec::new();
    let mut set: Vec<u32> = Vec::new();
    xadj.push(0u32);
    for item in 0..d3g.n_items() {
        let item = ItemId(item as u32);
        for node in 0..n {
            let node = NodeIdx(node as u32);
            set.clear();
            if !node.is_source() {
                let own = owner[node.index()];
                let mut anc = d3g.parent_of(node, item);
                while let Some(a) = anc {
                    let s = owner[a.index()];
                    if s != own && !set.contains(&s) {
                        set.push(s);
                    }
                    if a.is_source() {
                        break;
                    }
                    anc = d3g.parent_of(a, item);
                }
                set.sort_unstable();
            }
            targets.extend_from_slice(&set);
            xadj.push(targets.len() as u32);
        }
    }
    MirrorCsr { xadj, targets, n_nodes: n }
}

/// Entry point from [`Prepared::run`]: runs the sharded drive when the
/// configuration can use it. Returns `None` whenever sharding cannot
/// preserve its semantics (single shard, zero lookahead, unbounded
/// horizon, lossy or degraded links — those draw per-send randomness in
/// processing order, which has no deterministic parallel schedule) —
/// the caller runs the sequential engine instead.
pub(crate) fn run_sharded(prepared: &Prepared) -> Option<RunReport> {
    let cfg = prepared.config();
    let n_shards = cfg.n_shards.min(prepared.workload.n_repos().max(1));
    let plan = &cfg.fault;
    let lossy = plan.loss.iter().any(|l| l.prob > 0.0) || !plan.degrade.is_empty();
    if n_shards <= 1 || prepared.end_us == u64::MAX || lossy {
        return None;
    }
    let delays: &DelayMicros = prepared.delay_micros();
    let w = ms_to_us(cfg.comp_delay_ms).saturating_add(delays.min_offdiag_us());
    if w == 0 || w == u64::MAX {
        return None;
    }
    Some(run_impl::<CalendarQueue<ShardEvent>>(prepared, delays, n_shards, w))
}

/// Everything the epoch loop leaves behind when the coordinator exits:
/// the shard states (queues still holding every event past the drive
/// cap), the fault runtime, and the run-wide bookkeeping the report
/// and snapshot merges need.
struct Driven<Q> {
    states: Vec<ShardState<Q>>,
    faults: FaultState,
    reparented: u64,
    owner: Vec<u32>,
}

/// The epoch loop proper: drives every shard until no event at or
/// before `until_us` remains — and every fault control due by then has
/// applied — leaving later events parked in the shard queues.
/// `until_us = u64::MAX` is the full run. A capped drive never lets an
/// epoch extend past `until_us + 1` and never fires a later control,
/// so it stops in exactly the state the sequential
/// `run_until(until_us)` reaches.
fn drive<Q: EventQueue<ShardEvent> + Send>(
    prepared: &Prepared,
    delays: &DelayMicros,
    n_shards: usize,
    w: u64,
    until_us: u64,
) -> Driven<Q> {
    let cfg = prepared.config();
    let d3g = &prepared.d3g;
    let n_nodes = d3g.n_nodes();
    let end_us = prepared.end_us;
    let comp_delay_us = ms_to_us(cfg.comp_delay_ms);

    // The pre-seeded source stream, identical to the engine's (shared
    // read-only; every shard keeps a private cursor but they advance in
    // lockstep — each shard consumes every tick).
    let stream: Vec<(u64, EventKind)> = prepared
        .changes
        .iter()
        .map(|&(at_ms, item, value)| {
            let at_us = change_at_us(at_ms);
            debug_assert!(at_us <= end_us, "change beyond horizon");
            assert!(!value.is_nan(), "source change values must not be NaN");
            (at_us, EventKind::source_change(item, value))
        })
        .collect();
    assert!(stream.windows(2).all(|p| p[0].0 <= p[1].0), "source changes must arrive time-sorted");

    let owner = partition_overlay(d3g, n_shards, cfg.seed);
    let has_crashes = !cfg.fault.crashes.is_empty();
    let mirrors = if has_crashes { Some(build_mirror_csr(d3g, &owner)) } else { None };
    let log_values = has_crashes && cfg.protocol == Protocol::Centralized;

    let base = Disseminator::new(cfg.protocol, d3g, &prepared.initial_values);
    let mut faults = if cfg.fault.is_inert() {
        FaultState::inert()
    } else {
        // d3t-lint: allow(P001) -- a malformed SimConfig::fault is caller misuse, same contract as Session::install_fault_plan
        FaultState::compile(&cfg.fault, &base, end_us).unwrap_or_else(|e| panic!("{e}"))
    };
    let n_items = prepared.workload.n_items();
    let n_repos = prepared.workload.n_repos();

    let shards: Vec<Mutex<ShardState<Q>>> = (0..n_shards as u32)
        .map(|id| {
            // The shard's fidelity view: unowned repositories keep
            // all-None needs, so their slots are NaN-unmeasured — the
            // tracker sweeps them inertly and reports them as zero.
            let needs: Vec<Vec<Option<Coherency>>> = (0..n_repos)
                .map(|r| {
                    if owner[r + 1] == id {
                        (0..n_items).map(|i| prepared.workload.need(r, ItemId(i as u32))).collect()
                    } else {
                        vec![None; n_items]
                    }
                })
                .collect();
            let wl = Workload::from_needs(needs);
            Mutex::new(ShardState {
                id,
                dis: base.clone(),
                fid: FidelityTracker::new(&wl, &prepared.initial_values, 0),
                metrics: Metrics::default(),
                busy_until_us: vec![0u64; n_nodes],
                queue: Q::with_capacity(1 << 12),
                tags: TagTable::default(),
                tag_cache: vec![
                    (u64::MAX, u64::MAX, EventKind::source_change(ItemId(0), 0.0));
                    n_items
                ],
                cursor: 0,
                outbox: Vec::new(),
                value_log: Vec::new(),
                log_values,
                buf: Vec::new(),
                scratch: ForwardScratch::default(),
                comp_delay_us,
                end_us,
            })
        })
        .collect();

    let epoch_end = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Barrier::new(n_shards + 1);
    let finish = Barrier::new(n_shards + 1);
    let ctx = EpochCtx { delays, stream: &stream, owner: &owner, d3g, mirrors: mirrors.as_ref() };
    let mut reparented = 0u64;

    std::thread::scope(|scope| {
        for sm in &shards {
            let (ctx, epoch_end, done) = (&ctx, &epoch_end, &done);
            let (start, finish) = (&start, &finish);
            scope.spawn(move || loop {
                start.wait();
                if done.load(Ordering::Acquire) {
                    return;
                }
                let t_end = epoch_end.load(Ordering::Acquire);
                sm.lock().unwrap().drain_epoch(t_end, ctx);
                finish.wait();
            });
        }
        // The coordinator: every cross-shard effect happens here, with
        // all workers parked at the start barrier — one deterministic
        // single-threaded stretch per epoch, whatever the scheduler
        // does to the worker threads.
        let mut merged: Vec<OutEntry> = Vec::new();
        let mut next_seq = 0u64;
        loop {
            let t_end = {
                let mut guards: Vec<MutexGuard<'_, ShardState<Q>>> =
                    shards.iter().map(|m| m.lock().unwrap()).collect();
                apply_value_logs(&mut guards);
                route_outboxes(&mut guards, &mut merged, &mut next_seq, &ctx);
                let mut t_min = u64::MAX;
                for g in guards.iter_mut() {
                    t_min = t_min.min(g.queue.peek_at().unwrap_or(u64::MAX));
                }
                if let Some(&(at, _)) = stream.get(guards[0].cursor) {
                    t_min = t_min.min(at);
                }
                // Controls due at or before the next event apply now —
                // the same precedence the sequential three-way merge
                // gives them (controls outrank equal-time events, and
                // trailing controls within the horizon still land) —
                // but never past the drive cap: `run_until` leaves
                // later controls pending, so a capped drive must too.
                while !faults.is_idle() && faults.next_at() <= t_min.min(end_us).min(until_us) {
                    apply_control(&mut faults, &mut guards, &mut reparented);
                }
                if t_min == u64::MAX || t_min > until_us {
                    break;
                }
                t_min.saturating_add(w).min(faults.next_at()).min(until_us.saturating_add(1))
            };
            epoch_end.store(t_end, Ordering::Release);
            start.wait();
            finish.wait();
        }
        done.store(true, Ordering::Release);
        start.wait();
    });

    let states: Vec<ShardState<Q>> = shards.into_iter().map(|m| m.into_inner().unwrap()).collect();
    Driven { states, faults, reparented, owner }
}

fn run_impl<Q: EventQueue<ShardEvent> + Send>(
    prepared: &Prepared,
    delays: &DelayMicros,
    n_shards: usize,
    w: u64,
) -> RunReport {
    let Driven { states, reparented, owner, .. } =
        drive::<Q>(prepared, delays, n_shards, w, u64::MAX);
    let end_us = prepared.end_us;
    let n_repos = prepared.workload.n_repos();

    let mut metrics = Metrics::default();
    for s in &states {
        let m = &s.metrics;
        metrics.messages += m.messages;
        metrics.source_checks += m.source_checks;
        metrics.repo_checks += m.repo_checks;
        metrics.source_updates += m.source_updates;
        metrics.undelivered += m.undelivered;
        metrics.events += m.events;
        metrics.dropped += m.dropped;
        metrics.injected += m.injected;
        metrics.lost += m.lost;
        metrics.retransmits += m.retransmits;
        metrics.reparented += m.reparented;
    }
    metrics.reparented += reparented;

    // Merge the per-shard fidelity reports back into the sequential
    // report, bit for bit: per-repo values come from the owner (the
    // only shard that measured them, accumulated in the same item
    // order), pairs re-sort into the tracker's item-major report
    // order, and the overall mean re-runs the same repo-ascending sum.
    let reports: Vec<(u32, FidelityReport)> =
        states.into_iter().map(|s| (s.id, s.fid.finish(end_us))).collect();
    let mut per_repo = vec![0.0f64; n_repos];
    let mut pair_losses: Vec<PairLoss> = Vec::new();
    let mut duration_ms = 0.0;
    for (id, rep) in &reports {
        duration_ms = rep.duration_ms;
        for (r, loss) in per_repo.iter_mut().enumerate() {
            if owner[r + 1] == *id {
                *loss = rep.per_repo_loss_pct[r];
            }
        }
        pair_losses.extend(rep.pair_losses.iter().copied());
    }
    pair_losses.sort_unstable_by_key(|p| (p.item.index(), p.repo));
    let mut pairs_of = vec![0usize; n_repos];
    for p in &pair_losses {
        pairs_of[p.repo] += 1;
    }
    let measured: Vec<f64> =
        (0..n_repos).filter(|&r| pairs_of[r] > 0).map(|r| per_repo[r]).collect();
    let loss_pct = if measured.is_empty() {
        0.0
    } else {
        measured.iter().sum::<f64>() / measured.len() as f64
    };
    let fidelity =
        FidelityReport { loss_pct, per_repo_loss_pct: per_repo, pair_losses, duration_ms };
    prepared.report(fidelity, metrics)
}

/// Barrier-time snapshot entry from [`Prepared::snapshot_at`]: runs
/// the sharded drive to the epoch barrier at `t_us` and merges the
/// shard states into one sequential-equivalent [`Snapshot`]. Returns
/// `None` whenever the sharded drive itself would fall back to the
/// sequential engine (single shard, unbounded horizon, lossy or
/// degraded plans, zero lookahead) — the caller snapshots a sequential
/// session instead.
pub(crate) fn snapshot_sharded(prepared: &Prepared, t_us: u64) -> Option<Snapshot> {
    let cfg = prepared.config();
    let n_shards = cfg.n_shards.min(prepared.workload.n_repos().max(1));
    let plan = &cfg.fault;
    let lossy = plan.loss.iter().any(|l| l.prob > 0.0) || !plan.degrade.is_empty();
    if n_shards <= 1 || prepared.end_us == u64::MAX || lossy {
        return None;
    }
    let delays: &DelayMicros = prepared.delay_micros();
    let w = ms_to_us(cfg.comp_delay_ms).saturating_add(delays.min_offdiag_us());
    if w == 0 || w == u64::MAX {
        return None;
    }
    let t_us = t_us.min(prepared.end_us);
    Some(snapshot_impl::<CalendarQueue<ShardEvent>>(prepared, delays, n_shards, w, t_us))
}

/// The snapshot-side merge — the state analogue of `run_impl`'s report
/// merge, built on the same ownership argument:
///
/// * **disseminator** — shard 0's replica (authoritative for the
///   source row and `source_lists`), every other node's received value
///   and parent-edge mirror adopted from its owner — the shard that
///   processed its real deliveries (every replica replays the same
///   repairs, so a re-parented child's edge sits in the same slot of
///   its foster's row everywhere);
/// * **fidelity** — a fresh full-workload tracker (correct
///   measured-pair census where every shard's is partial), source
///   column from shard 0, each repository column from its owner;
/// * **pending events** — each shard's non-mutating queue walk with
///   mirror copies dropped (the owner's copy is the real one), merged
///   by `(at_us, g)`: run-wide stamps reproduce the sequential
///   `(at_us, seq)` pop order exactly, and payloads are re-interned
///   into one fresh tag table (ids are representation — the digest
///   and the restore both decode);
/// * **metrics, fault runtime, busy clocks** — the run-end merges,
///   applied at the barrier (the coordinator's `FaultState` *is* the
///   sequential one: same compile, same pops, same repair schedule).
fn snapshot_impl<Q: EventQueue<ShardEvent> + Send>(
    prepared: &Prepared,
    delays: &DelayMicros,
    n_shards: usize,
    w: u64,
    t_us: u64,
) -> Snapshot {
    let Driven { states, faults, reparented, owner } =
        drive::<Q>(prepared, delays, n_shards, w, t_us);
    let n_nodes = prepared.d3g.n_nodes();
    let n_repos = prepared.workload.n_repos();

    let mut metrics = Metrics::default();
    for s in &states {
        let m = &s.metrics;
        metrics.messages += m.messages;
        metrics.source_checks += m.source_checks;
        metrics.repo_checks += m.repo_checks;
        metrics.source_updates += m.source_updates;
        metrics.undelivered += m.undelivered;
        metrics.events += m.events;
        metrics.dropped += m.dropped;
        metrics.injected += m.injected;
        metrics.lost += m.lost;
        metrics.retransmits += m.retransmits;
        metrics.reparented += m.reparented;
    }
    metrics.reparented += reparented;

    let mut busy_until_us = vec![0u64; n_nodes];
    for (i, b) in busy_until_us.iter_mut().enumerate() {
        *b = states[owner[i] as usize].busy_until_us[i];
    }

    let mut disseminator = states[0].dis.clone();
    for (i, &o) in owner.iter().enumerate().take(n_nodes) {
        let o = o as usize;
        if o != 0 {
            disseminator.copy_node_state_from(&states[o].dis, NodeIdx(i as u32));
        }
    }

    let mut fidelity = FidelityTracker::new(&prepared.workload, &prepared.initial_values, 0);
    fidelity.copy_source_from(&states[0].fid);
    for r in 0..n_repos {
        fidelity.copy_repo_from(&states[owner[r + 1] as usize].fid, r);
    }

    let mut decoded: Vec<(u64, u64, NodeIdx, Update)> = Vec::new();
    let mut pending: Vec<(u64, ShardEvent)> = Vec::new();
    for s in &states {
        pending.clear();
        s.queue.snapshot_events(&mut pending);
        for &(at_us, ev) in &pending {
            let Event::Arrival { node, update } = ev.kind.classify(&s.tags) else {
                unreachable!("shard queues hold arrivals only");
            };
            if owner[node.index()] == s.id {
                decoded.push((at_us, ev.g, node, update));
            }
        }
    }
    decoded.sort_unstable_by_key(|&(at_us, g, _, _)| (at_us, g));

    let mut tags = TagTable::default();
    let queue_events: Vec<(u64, EventKind)> = decoded
        .iter()
        .map(|&(at_us, _, node, update)| (at_us, EventKind::arrival(node, update, &mut tags)))
        .collect();

    Snapshot {
        now_us: t_us,
        end_us: prepared.end_us,
        stream_cursor: states[0].cursor,
        busy_until_us,
        disseminator,
        fidelity,
        metrics,
        tags,
        queue_events,
        faults,
    }
}
