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
//! drain, and let all of them drain the same epoch `[t_min, t_min + W)`
//! concurrently. No event inside an epoch can generate work inside it,
//! so the shards never need to talk until the barrier.
//!
//! # The epoch protocol
//!
//! One coordinator (the calling thread) plus `N` persistent workers,
//! meeting at two barriers per epoch:
//!
//! ```text
//!   coordinator                         workers (one per shard)
//!   ───────────                         ───────────────────────
//!   route outboxes
//!   t_min = min(peek_at, stream head)
//!   T = t_min + W
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
//! stamps from one counter, and pushes each arrival — plus its mirror
//! — in merged order. Each queue receives an ascending-stamp
//! subsequence, preserving the strictly-increasing-stamp push contract
//! both backends' FIFO tie-breaking relies on.
//!
//! # Replicas and parent-owner mirrors
//!
//! Each shard owns a full [`Disseminator`] replica. Forwarding
//! decisions at a node read only that node's row plus the per-edge
//! `last_sent` mirrors of its children, so a delivery to `child` must
//! be *mirrored* to the one other shard that decides over `child`'s
//! edge: the owner of its parent. The overlay never changes during a
//! sharded drive, so that parent is the static d3g one. Mirror arrivals
//! replay the delivery's state write
//! ([`Disseminator::record_replica`]) without counting, measuring or
//! forwarding anything.
//!
//! # Equivalence and fallbacks
//!
//! The drive carries no fault plan: failures are installed on a
//! [`Session`](crate::Session), which drives sequentially. A single
//! shard, zero lookahead and an unbounded horizon fall back to the
//! sequential drain — the sharded path never changes semantics, only
//! wall clock. An N-shard run is deterministic for fixed `(seed, N)`,
//! and bit-identical to the sealed scalar oracle's report —
//! property-tested at the workspace root (`tests/shard_properties.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use d3t_core::coherency::Coherency;
use d3t_core::dissemination::{Disseminator, ForwardScratch, Target, Update};
use d3t_core::fidelity::{FidelityReport, FidelityTracker, PairLoss};
use d3t_core::graph::D3g;
use d3t_core::item::ItemId;
use d3t_core::overlay::{NodeIdx, SOURCE};
use d3t_core::workload::Workload;

use crate::engine::{change_at_us, ms_to_us, Event, EventKind, TagTable};
use crate::metrics::Metrics;
use crate::prepared::Prepared;
use crate::queue::{CalendarQueue, EventQueue};
use crate::report::RunReport;
use crate::session::RUN_CAP;

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

/// Read-only state shared by every shard and the coordinator.
struct EpochCtx<'a> {
    stream: &'a [(u64, EventKind)],
    owner: &'a [u32],
    d3g: &'a D3g,
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
            self.process_tick(at_us, kind);
        }
    }

    /// One source tick. Shard 0 plays the source — full decision,
    /// metrics and send staging; every other shard replays the state
    /// write on its replica and keeps its fidelity clock in sync.
    fn process_tick(&mut self, at_us: u64, kind: EventKind) {
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
            self.stage_sends(SOURCE, at_us, scratch.update(), scratch.to(), 0, sec);
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
            if ctx.owner[node.index()] != self.id {
                self.dis.record_replica(update.item, node, update.value);
                continue;
            }
            self.metrics.events += 1;
            self.dis.on_repo_update_into(node, update, &mut scratch);
            self.metrics.repo_checks += scratch.checks();
            self.fid.repo_update(at_us, node, update.item, update.value);
            self.stage_sends(node, at_us, scratch.update(), scratch.to(), 1, ev.g);
        }
        self.scratch = scratch;
    }

    /// Stages one send group into the outbox — identical arithmetic to
    /// the sequential `transmit` (serial CPU occupancy, per-child link
    /// delay, horizon filter), minus the queue push: stamps are
    /// assigned by the coordinator at the barrier.
    fn stage_sends(
        &mut self,
        node: NodeIdx,
        at_us: u64,
        update: Update,
        to: &[Target],
        phase: u8,
        sec: u64,
    ) {
        if to.is_empty() {
            return;
        }
        let mut cpu = self.busy_until_us[node.index()].max(at_us);
        for (k, &Target { node: child, delay_us }) in to.iter().enumerate() {
            cpu += self.comp_delay_us;
            self.metrics.messages += 1;
            let arrival_us = cpu + u64::from(delay_us);
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
/// arrival to its owner plus, when another shard owns it, the child's
/// parent — the only other reader of the delivery. Pushing in merged
/// order hands every queue an ascending-stamp subsequence — the push
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
        let parent = ctx.d3g.parent_of(e.child, e.update.item).unwrap_or(SOURCE);
        let pm = ctx.owner[parent.index()];
        if pm != own {
            route_entry(&mut guards[pm as usize], e, g);
        }
    }
    merged.clear();
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

/// Entry point from [`Prepared::run`]: runs the sharded drive when the
/// configuration can use it. Returns `None` when it cannot (single
/// shard, zero lookahead, unbounded horizon) — the caller runs the
/// sequential engine instead.
pub(crate) fn run_sharded(prepared: &Prepared) -> Option<RunReport> {
    let cfg = prepared.config();
    let n_shards = cfg.n_shards.min(prepared.workload.n_repos().max(1));
    if n_shards <= 1 || prepared.end_us == u64::MAX {
        return None;
    }
    let w = ms_to_us(cfg.comp_delay_ms).saturating_add(prepared.min_link_us());
    if w == 0 || w == u64::MAX {
        return None;
    }
    Some(run_impl::<CalendarQueue<ShardEvent>>(prepared, n_shards, w))
}

/// The epoch loop proper: drives every shard until no event remains.
/// Returns the shard states and the partition they ran on.
fn drive<Q: EventQueue<ShardEvent> + Send>(
    prepared: &Prepared,
    n_shards: usize,
    w: u64,
) -> (Vec<ShardState<Q>>, Vec<u32>) {
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
    let mut base = Disseminator::new(cfg.protocol, d3g, &prepared.initial_values);
    base.stamp_delays(&prepared.delays);
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
    let ctx = EpochCtx { stream: &stream, owner: &owner, d3g };

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
            let t_min = {
                let mut guards: Vec<MutexGuard<'_, ShardState<Q>>> =
                    shards.iter().map(|m| m.lock().unwrap()).collect();
                route_outboxes(&mut guards, &mut merged, &mut next_seq, &ctx);
                let mut t_min = u64::MAX;
                for g in guards.iter_mut() {
                    t_min = t_min.min(g.queue.peek_at().unwrap_or(u64::MAX));
                }
                if let Some(&(at, _)) = stream.get(guards[0].cursor) {
                    t_min = t_min.min(at);
                }
                t_min
            };
            if t_min == u64::MAX {
                break;
            }
            epoch_end.store(t_min.saturating_add(w), Ordering::Release);
            start.wait();
            finish.wait();
        }
        done.store(true, Ordering::Release);
        start.wait();
    });

    let states = shards.into_iter().map(|m| m.into_inner().unwrap()).collect();
    (states, owner)
}

fn run_impl<Q: EventQueue<ShardEvent> + Send>(
    prepared: &Prepared,
    n_shards: usize,
    w: u64,
) -> RunReport {
    let (states, owner) = drive::<Q>(prepared, n_shards, w);
    let end_us = prepared.end_us;
    let n_repos = prepared.workload.n_repos();

    // The counters a shard writes; the fault-only ones stay zero.
    let mut metrics = Metrics::default();
    for s in &states {
        let m = &s.metrics;
        metrics.messages += m.messages;
        metrics.source_checks += m.source_checks;
        metrics.repo_checks += m.repo_checks;
        metrics.source_updates += m.source_updates;
        metrics.undelivered += m.undelivered;
        metrics.events += m.events;
    }

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
