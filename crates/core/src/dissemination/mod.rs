//! Update-dissemination protocols — §5 of the paper.
//!
//! Given a constructed d3g, a node receiving an update must decide which
//! dependents to push it to. Three policies are implemented:
//!
//! * [`naive`] — Eq. (3) only: push to `q` iff `|v − last_q| > c_q`.
//!   Necessary but **not sufficient**; Figure 4 of the paper (reproduced in
//!   this module's tests) shows it silently strands dependents.
//! * [`distributed`] — Eq. (3) ∨ Eq. (7): push iff
//!   `|v − last_q| > c_q − c_p`. Guarantees no missed updates with only
//!   per-edge state.
//! * [`centralized`] — the source tags each update with the largest
//!   violated coherency tolerance in the system; repositories forward by
//!   comparing their dependents' tolerances against the tag.
//!
//! All protocol state lives in [`Disseminator`], which is driven either by
//! the discrete-event simulator (`d3t-sim`) or directly (zero-delay
//! semantics) via [`Disseminator::run_zero_delay`] — the configuration
//! under which the paper proves both non-naive protocols achieve 100%
//! fidelity.
//!
//! # Performance model
//!
//! Every per-event decision is one scan over one contiguous CSR row, and
//! all four protocols are parameterizations of the batched check kernel
//! in [`kernel`]:
//!
//! * The d3g is compiled once into **structure-of-arrays CSR**: per edge,
//!   the dependent (`child_node`), its effective coherency (`child_c`)
//!   and the last value sent to it (`child_last`) sit in three parallel
//!   flat arrays sliced by the per-row records. Keeping `last_sent`
//!   **per edge** (mirrored from the receiver-indexed row record on
//!   every delivery, see `Disseminator::record_at`) is what turns the
//!   deviation filter from a gather (`last[child.index()]`) into a pure
//!   sequential sweep the compiler autovectorizes — see [`kernel`] for
//!   the chunked mask-accumulate shape and [`kernel::ForwardScratch`]
//!   for the allocation-free caller contract.
//! * The hot entry points are the sink-style
//!   [`Disseminator::on_source_update_into`] /
//!   [`Disseminator::on_repo_update_into`]: they fill a caller-owned
//!   [`ForwardScratch`] and never allocate once its buffer has grown to
//!   the widest row. The [`Forwarding`]-returning methods remain as the
//!   branchy **scalar oracle** (one allocation per decision, reads the
//!   receiver-indexed array) — `tests/kernel_properties.rs` pins both
//!   paths bit-identical decision by decision, and the sealed
//!   `Engine::run` loop in `d3t-sim` drives the oracle so whole runs are
//!   cross-checked too.
//! * The centralized source's per-item unique-tolerance list is two
//!   parallel sorted arrays (`SourceList`); tagging is a branch-free
//!   max-violated scan plus one prefix `fill` ([`kernel::tag_scan`]).
//! * **Checks accounting invariant:** every scan performs exactly one
//!   filter evaluation per candidate — per CSR-row dependent for the
//!   tree filters (forwarded or not, flood included) and per unique
//!   tolerance class for the centralized source's tag scan (violated or
//!   not, no early exit) — so Figure 11's check counts compare protocols
//!   apples-to-apples. The invariant is pinned by
//!   `checks_count_one_evaluation_per_candidate` below.
//! * Each edge also carries its own µs delay
//!   ([`Disseminator::stamp_delays`]): a decision hands the sender each
//!   target with its edge's delay, so the drive holds no n² µs table.
//! * A child re-parented by `RepairPolicy::Reparent` (in `d3t-sim`)
//!   moves into its foster's CSR row, stamped with the foster's delay:
//!   repair pays O(item holders + live adoptions) per operation,
//!   decisions pay nothing (`adoption` module).
//! * The row table is tens of MB at scale, so an event loop that knows
//!   its next few deliveries hints them with
//!   [`Disseminator::prefetch_row`] a short distance ahead (see
//!   `d3t-sim::session` for the measured distance).

mod adoption;
pub mod centralized;
pub mod distributed;
pub mod kernel;
pub mod naive;

use serde::{Deserialize, Serialize};

use crate::coherency::Coherency;
use crate::graph::D3g;
use crate::item::ItemId;
use crate::lela::DelayMatrix;
use crate::overlay::{NodeIdx, SOURCE};

pub use kernel::{EdgeState, ForwardScratch, Target};

/// Which dissemination policy a [`Disseminator`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Protocol {
    /// Eq. (3) only — the strawman with the missed-updates problem.
    Naive,
    /// Eq. (3) ∨ Eq. (7) — the repository-based approach (§5.1).
    Distributed,
    /// Source-tagged dissemination — the source-based approach (§5.2).
    Centralized,
    /// Push every source update to every interested repository, ignoring
    /// tolerances. Emulates the unfiltered system of Figure 8.
    FloodAll,
}

/// One update traveling through the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Update {
    /// The item that changed.
    pub item: ItemId,
    /// Its new value.
    pub value: f64,
    /// Tag attached by the centralized source: the largest violated
    /// tolerance. `None` for the other protocols.
    pub tag: Option<Coherency>,
}

/// The forwarding decision a node makes for one incoming update — the
/// allocating return value of the **scalar oracle** methods
/// ([`Disseminator::on_source_update`] /
/// [`Disseminator::on_repo_update`]). The allocation-free hot path fills
/// a reusable [`ForwardScratch`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Forwarding {
    /// Dependents the update must be pushed to.
    pub to: Vec<NodeIdx>,
    /// The update as it should be forwarded (tag preserved).
    pub update: Update,
    /// Number of filter evaluations performed making this decision —
    /// the "checks" metric of Figure 11.
    pub checks: u64,
}

/// Centralized-only per-item source state: the sorted, deduplicated
/// unique-tolerance classes present in the d3g (`c`) and the last value
/// disseminated to each class (`last`), as two parallel arrays so the
/// tag scan streams both contiguously.
#[derive(Debug, Clone, Default)]
pub(super) struct SourceList {
    pub(super) c: Vec<f64>,
    pub(super) last: Vec<f64>,
}

/// All per-node protocol state for one d3g.
///
/// `last_sent[(parent-side) item][child]` bookkeeping lives with the
/// *sender*, exactly as §5.1 describes: a repository `p` remembers, per
/// dependent `q` and item, the last value it pushed to `q`. Because each
/// node has exactly one parent per item, that record equals the
/// receiver's "last received" — the state is kept **twice**, once
/// receiver-indexed (the row record's `last`, the `value_at` view) and
/// once per CSR edge (`child_edges[..].last`, the contiguous row the
/// kernel scans), with `Disseminator::record_at` the single writer that
/// keeps the mirror exact.
#[derive(Debug, Clone)]
pub struct Disseminator {
    protocol: Protocol,
    /// Centralized-only: per item, the unique-tolerance class list.
    source_lists: Vec<SourceList>,
    n_items: usize,
    /// Row stride of `last_received`.
    n_nodes: usize,
    /// Per-row hot metadata, one 32-byte record per
    /// `item * n_nodes + node` row — everything an arrival needs to know
    /// about its row in **one cache line touch** (CSR bounds, own
    /// effective coherency, the edge slot in the parent's row).
    rows: Vec<RowMeta>,
    /// CSR forwarding table compiled from the d3g at construction:
    /// `child_edges[start..start + len]` (bounds from [`RowMeta`]) are
    /// the dependents of a row, each edge one interleaved
    /// `(effective coherency, last sent, node, delay)` record, so a
    /// forwarding decision streams through one flat array instead of
    /// chasing the d3g's nested `Vec`s and re-deriving `effective()` per
    /// event.
    child_edges: Vec<EdgeState>,
    /// Parent per `item * n_nodes + node` row ([`NO_PARENT`] for the
    /// source and for nodes not holding the item). Every holder has
    /// exactly one parent per item, so this doubles as the holds-item
    /// mask; it is what lets [`Disseminator::renegotiate`] patch the CSR
    /// in place instead of recompiling the d3g.
    parent: Vec<u32>,
    /// Fail-stop state per node: an inactive repository neither records
    /// nor forwards updates (see [`Disseminator::set_node_active`]).
    /// Fixed length, hence a boxed slice.
    active: Box<[bool]>,
    /// Live re-parenting registry (see [`Disseminator::reparent`]):
    /// children served by a foster parent because their original parent
    /// crashed. Each adoptee's edge sits in its foster's CSR row: repair
    /// pays O(item holders + live adoptions) per operation, decisions
    /// pay nothing.
    adoptions: Vec<adoption::Adoption>,
    /// The overlay delays the edges were stamped from (a shared clone),
    /// kept so a repair stamps the edges it moves. `None` until
    /// [`Disseminator::stamp_delays`]: every edge then carries 0 µs.
    delays: Option<DelayMatrix>,
}

/// Hot per-row record: the node's current copy of the row's item, CSR
/// bounds, the node's own effective coherency, and the node's edge slot
/// in its parent's row. Exactly 32 bytes (a power of two, so a record
/// never straddles a cache line): everything an arrival reads *and* the
/// value write it performs land in a single line fill instead of three
/// parallel-array misses.
#[derive(Debug, Clone, Copy)]
struct RowMeta {
    /// Last value the row's node *received* for the row's item (for the
    /// source: the last raw value) — the receiver-indexed view backing
    /// [`Disseminator::value_at`]; the kernel scans the per-edge
    /// `child_edges` mirror instead.
    last: f64,
    /// The node's effective coherency for the row's item (raw value;
    /// `0.0` = EXACT for the source and for rows whose node does not
    /// hold the item — never read by the protocols, which only walk
    /// edges the d3g created).
    eff: f64,
    /// First edge of the row in the CSR arrays.
    start: u32,
    /// Number of edges in the row.
    len: u32,
    /// The CSR edge slot of this node inside its parent's row
    /// ([`NO_EDGE`] where `parent` is [`NO_PARENT`]). Makes the
    /// per-edge mirror write and the renegotiation patch O(1) instead
    /// of a parent-row scan.
    parent_edge: u32,
    /// The `parent_edge` compilation gave the node: its place among its
    /// original parent's children when a repair rebuilds the item's
    /// span. Fixed at construction, so not digested.
    home: u32,
}

const _: () = assert!(std::mem::size_of::<RowMeta>() == 32);

/// `parent` sentinel: the row's node has no dissemination parent.
const NO_PARENT: u32 = u32::MAX;
/// `parent_edge` sentinel: the row's node sits in no parent's CSR row.
const NO_EDGE: u32 = u32::MAX;

impl Disseminator {
    /// Initializes protocol state for `d3g`, with every node assumed
    /// coherent at `initial_values[item]` (the first tick of each trace).
    pub fn new(protocol: Protocol, d3g: &D3g, initial_values: &[f64]) -> Self {
        assert_eq!(initial_values.len(), d3g.n_items(), "one initial value per item");
        let n_items = d3g.n_items();
        let n_nodes = d3g.n_nodes();
        let mut child_edges: Vec<EdgeState> = Vec::new();
        let mut rows = Vec::with_capacity(n_items * n_nodes);
        let mut parent = vec![NO_PARENT; n_items * n_nodes];
        // A child's row may precede its parent's in row order, so edge
        // slots are collected first and folded into the row records after
        // the full CSR is laid out.
        let mut parent_edge = vec![NO_EDGE; n_items * n_nodes];
        for i in 0..n_items {
            let item = ItemId(i as u32);
            for n in 0..n_nodes {
                let node = NodeIdx(n as u32);
                let start = child_edges.len() as u32;
                for &ch in d3g.children_of(node, item) {
                    let c = d3g
                        .effective(ch, item)
                        // d3t-lint: allow(P001) -- d3g.validate() guarantees every child edge has an effective coherency
                        .expect("child subscribed to an item it does not hold");
                    parent[i * n_nodes + ch.index()] = node.0;
                    parent_edge[i * n_nodes + ch.index()] = child_edges.len() as u32;
                    child_edges.push(EdgeState {
                        c: c.value(),
                        last: initial_values[i],
                        node: ch.0,
                        delay_us: 0,
                    });
                }
                rows.push(RowMeta {
                    last: initial_values[i],
                    eff: d3g.effective(node, item).unwrap_or(Coherency::EXACT).value(),
                    start,
                    len: child_edges.len() as u32 - start,
                    parent_edge: NO_EDGE,
                    home: NO_EDGE,
                });
            }
        }
        for (row, pe) in rows.iter_mut().zip(parent_edge) {
            row.parent_edge = pe;
            row.home = pe;
        }
        let source_lists = if protocol == Protocol::Centralized {
            (0..n_items)
                .map(|i| {
                    let item = ItemId(i as u32);
                    let mut cs: Vec<Coherency> = (1..d3g.n_nodes())
                        .filter_map(|n| d3g.effective(NodeIdx(n as u32), item))
                        .collect();
                    cs.sort();
                    cs.dedup();
                    SourceList {
                        last: vec![initial_values[i]; cs.len()],
                        c: cs.into_iter().map(Coherency::value).collect(),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            protocol,
            source_lists,
            n_items,
            n_nodes,
            rows,
            child_edges,
            parent,
            active: vec![true; n_nodes].into_boxed_slice(),
            adoptions: Vec::new(),
            delays: None,
        }
    }

    /// Stamps every CSR edge with its one-way delay in µs —
    /// [`DelayMatrix::us`] from the row's node to the dependent — and
    /// keeps a clone of `delays` (a pointer copy), so a repair stamps
    /// the edges it moves. The drive schedules every send from these
    /// stamps; callers stamp right after compiling.
    ///
    /// # Panics
    /// Panics if `delays` covers fewer nodes than the overlay.
    pub fn stamp_delays(&mut self, delays: &DelayMatrix) {
        assert!(delays.len() >= self.n_nodes, "the delay matrix must cover every overlay node");
        for (r, meta) in self.rows.iter().enumerate() {
            let node = NodeIdx((r % self.n_nodes) as u32);
            for e in &mut self.child_edges[meta.start as usize..][..meta.len as usize] {
                e.delay_us = delays.us(node, NodeIdx(e.node));
            }
        }
        self.delays = Some(delays.clone());
    }

    /// The protocol in force.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The last value `node` received for `item` (receiver-indexed view).
    #[inline]
    fn last(&self, item: ItemId, node: NodeIdx) -> f64 {
        self.rows[item.index() * self.n_nodes + node.index()].last
    }

    /// Records a freshly received value: writes the receiver-indexed
    /// row record **and** the node's per-edge mirror in its parent's
    /// CSR row (via [`Disseminator::record_at`], the single writer that
    /// keeps both views of "last sent to q" exact).
    #[inline]
    fn record(&mut self, item: ItemId, node: NodeIdx, value: f64) {
        let row = item.index() * self.n_nodes + node.index();
        let e = self.rows[row].parent_edge;
        self.record_at(row, e, value);
    }

    /// The single writer of a node's received value: updates the row
    /// record and, when the row has a parent, the per-edge `last_sent`
    /// mirror in the parent's CSR run. Every delivery goes through here
    /// (callers that already hold the row's metadata pass it in to
    /// avoid a reload), which is what keeps the two views exact mirrors.
    #[inline]
    fn record_at(&mut self, row: usize, parent_edge: u32, value: f64) {
        self.rows[row].last = value;
        if parent_edge != NO_EDGE {
            self.child_edges[parent_edge as usize].last = value;
        }
    }

    /// Replays a delivery's state write on a **replica** disseminator
    /// that did not process the delivery itself — the sharded engine's
    /// reconciliation primitive (mirror arrivals and source ticks on
    /// non-owning shards). Identical to what processing the
    /// delivery would have written: the receiver-indexed row record and
    /// the per-edge `last_sent` mirror in the parent's CSR run. Makes
    /// no forwarding decision and touches no liveness or adoption
    /// state.
    #[inline]
    pub fn record_replica(&mut self, item: ItemId, node: NodeIdx, value: f64) {
        self.record(item, node, value);
    }

    /// CSR bounds of `node`'s row for `item`.
    #[inline]
    fn row_range(&self, node: NodeIdx, item: ItemId) -> std::ops::Range<usize> {
        let m = self.rows[item.index() * self.n_nodes + node.index()];
        m.start as usize..(m.start + m.len) as usize
    }

    /// One compiled CSR edge (scalar-oracle access; the kernel paths
    /// slice the edge array directly).
    #[inline]
    fn edge(&self, e: usize) -> EdgeState {
        self.child_edges[e]
    }

    /// The compiled `(dependent, effective c)` entries of `node`'s row
    /// for `item` (test helper; the hot paths slice the edge array
    /// directly).
    #[cfg(test)]
    pub(crate) fn children_of_compiled(
        &self,
        node: NodeIdx,
        item: ItemId,
    ) -> Vec<(NodeIdx, Coherency)> {
        self.row_range(node, item)
            .map(|e| (NodeIdx(self.child_edges[e].node), Coherency::new(self.child_edges[e].c)))
            .collect()
    }

    /// The effective coherency `node` holds `item` at (EXACT for the
    /// source).
    #[inline]
    fn eff_of(&self, node: NodeIdx, item: ItemId) -> Coherency {
        Coherency::new(self.rows[item.index() * self.n_nodes + node.index()].eff)
    }

    /// Handles a raw source tick: decides which of the source's dependents
    /// receive the update, filling the caller-owned `out` scratch. Works
    /// entirely off the CSR snapshot compiled in [`Disseminator::new`] —
    /// the d3g is not consulted after construction — and performs **no
    /// heap allocation** once `out` has warmed up: this is the kernel
    /// hot path the simulator's deliver loop runs.
    pub fn on_source_update_into(&mut self, item: ItemId, value: f64, out: &mut ForwardScratch) {
        self.record(item, SOURCE, value);
        match self.protocol {
            Protocol::Centralized => {
                let list = &mut self.source_lists[item.index()];
                let (hit, checks) = kernel::tag_scan(value, &list.c, &mut list.last);
                match hit {
                    None => out.reset(Update { item, value, tag: None }, checks),
                    Some(k) => {
                        let tag = list.c[k];
                        out.reset(Update { item, value, tag: Some(Coherency::new(tag)) }, checks);
                        let r = self.row_range(SOURCE, item);
                        out.checks += kernel::tag_filter(tag, &self.child_edges[r], &mut out.to);
                    }
                }
            }
            Protocol::Naive | Protocol::Distributed => {
                let bias = match self.protocol {
                    Protocol::Distributed => self.eff_of(SOURCE, item).value(),
                    _ => 0.0,
                };
                out.reset(Update { item, value, tag: None }, 0);
                let r = self.row_range(SOURCE, item);
                out.checks = kernel::deviation_scan(value, bias, &self.child_edges[r], &mut out.to);
            }
            Protocol::FloodAll => {
                out.reset(Update { item, value, tag: None }, 0);
                let r = self.row_range(SOURCE, item);
                out.checks = kernel::flood(&self.child_edges[r], &mut out.to);
            }
        }
    }

    /// Handles an update arriving at repository `node`: records the new
    /// local value and decides which dependents to forward to, filling
    /// the caller-owned `out` scratch — the allocation-free counterpart
    /// of [`Disseminator::on_repo_update`].
    pub fn on_repo_update_into(&mut self, node: NodeIdx, update: Update, out: &mut ForwardScratch) {
        assert!(!node.is_source(), "use on_source_update_into for the source");
        out.reset(update, 0);
        if !self.active[node.index()] {
            // Fail-stop: a crashed repository neither records the value
            // nor forwards it (see the scalar oracle for the recovery
            // story).
            return;
        }
        // One row-record load serves the whole arrival: the value cell,
        // the mirror slot, CSR bounds, and the node's own coherency for
        // the Eq.-7 bias — the value write lands in the line the load
        // just filled.
        let row = update.item.index() * self.n_nodes + node.index();
        let meta = self.rows[row];
        self.record_at(row, meta.parent_edge, update.value);
        let r = meta.start as usize..(meta.start + meta.len) as usize;
        out.checks = match self.protocol {
            Protocol::Centralized => {
                // d3t-lint: allow(P001) -- the source arm stamps a tag on every centralized update
                let tag = update.tag.expect("centralized updates always carry a tag");
                kernel::tag_filter(tag.value(), &self.child_edges[r], &mut out.to)
            }
            Protocol::Naive => {
                kernel::deviation_scan(update.value, 0.0, &self.child_edges[r], &mut out.to)
            }
            Protocol::Distributed => {
                kernel::deviation_scan(update.value, meta.eff, &self.child_edges[r], &mut out.to)
            }
            Protocol::FloodAll => kernel::flood(&self.child_edges[r], &mut out.to),
        };
    }

    /// Handles a raw source tick through the branchy **scalar oracle**,
    /// allocating a fresh [`Forwarding`] — the reference implementation
    /// the kernel path is property-tested against (and what the sealed
    /// `Engine::run` oracle loop in `d3t-sim` drives). Unlike the kernel
    /// it reads the receiver-indexed array, so the tests also pin the
    /// per-edge `child_last` mirror.
    pub fn on_source_update(&mut self, item: ItemId, value: f64) -> Forwarding {
        match self.protocol {
            Protocol::Centralized => self.centralized_source(item, value),
            Protocol::Naive | Protocol::Distributed => {
                self.record(item, SOURCE, value);
                self.per_child_filter(SOURCE, Update { item, value, tag: None })
            }
            Protocol::FloodAll => {
                self.record(item, SOURCE, value);
                self.flood(SOURCE, Update { item, value, tag: None })
            }
        }
    }

    /// Scalar-oracle counterpart of [`Disseminator::on_repo_update_into`]
    /// (see [`Disseminator::on_source_update`] for the role split).
    pub fn on_repo_update(&mut self, node: NodeIdx, update: Update) -> Forwarding {
        assert!(!node.is_source(), "use on_source_update for the source");
        if !self.active[node.index()] {
            // Fail-stop: a crashed repository neither records the value
            // nor forwards it. Its parent's record of "last sent" stays
            // stale, so the parent keeps retrying on later changes —
            // recovery is automatic once a delivery lands.
            return Forwarding { to: Vec::new(), update, checks: 0 };
        }
        self.record(update.item, node, update.value);
        match self.protocol {
            Protocol::Centralized => centralized::forward(self, node, update),
            Protocol::Naive | Protocol::Distributed => self.per_child_filter(node, update),
            Protocol::FloodAll => self.flood(node, update),
        }
    }

    /// The last value `node` received for `item` (its current copy).
    pub fn value_at(&self, node: NodeIdx, item: ItemId) -> f64 {
        self.last(item, node)
    }

    /// Hints the CPU to pull the row record an imminent
    /// [`Disseminator::on_repo_update_into`] for `(node, item)` will
    /// touch — lets an event loop that knows its next few deliveries
    /// overlap their cache misses. No-op off x86-64; never faults.
    #[inline]
    pub fn prefetch_row(&self, node: NodeIdx, item: ItemId) {
        crate::prefetch::read(&self.rows[item.index() * self.n_nodes + node.index()]);
    }

    fn per_child_filter(&mut self, node: NodeIdx, update: Update) -> Forwarding {
        // Monomorphized per protocol so the filter inlines into the loop.
        match self.protocol {
            Protocol::Naive => self.filter_with(node, update, naive::should_forward),
            Protocol::Distributed => self.filter_with(node, update, distributed::should_forward),
            _ => unreachable!("per_child_filter only serves naive/distributed"),
        }
    }

    #[inline]
    fn filter_with(
        &mut self,
        node: NodeIdx,
        update: Update,
        decide: impl Fn(f64, f64, Coherency, Coherency) -> bool,
    ) -> Forwarding {
        let c_self = self.eff_of(node, update.item);
        let base = update.item.index() * self.n_nodes;
        let mut to = Vec::new();
        let mut checks = 0u64;
        for e in self.row_range(node, update.item) {
            checks += 1;
            let child = NodeIdx(self.child_edges[e].node);
            // Receiver-indexed gather — deliberately NOT the kernel's
            // per-edge mirror, so the property tests cross-check the two
            // views of "last sent" against each other.
            let last = self.rows[base + child.index()].last;
            if decide(update.value, last, c_self, Coherency::new(self.child_edges[e].c)) {
                to.push(child);
            }
        }
        Forwarding { to, update, checks }
    }

    fn flood(&mut self, node: NodeIdx, update: Update) -> Forwarding {
        let to: Vec<NodeIdx> =
            self.row_range(node, update.item).map(|e| NodeIdx(self.child_edges[e].node)).collect();
        let checks = to.len() as u64;
        Forwarding { to, update, checks }
    }

    fn centralized_source(&mut self, item: ItemId, value: f64) -> Forwarding {
        self.record(item, SOURCE, value);
        let (tag, checks) = centralized::tag_update(self, item, value);
        match tag {
            None => {
                Forwarding { to: Vec::new(), update: Update { item, value, tag: None }, checks }
            }
            Some(tag) => {
                let update = Update { item, value, tag: Some(tag) };
                let mut fwd = centralized::forward(self, SOURCE, update);
                fwd.checks += checks;
                fwd
            }
        }
    }

    /// Runs a whole multi-item update sequence through the overlay with
    /// zero communication and computation delays, returning the final
    /// value each node holds plus aggregate message/check counts.
    ///
    /// This is the semantics under which the paper argues the distributed
    /// and centralized protocols achieve 100% fidelity; the property tests
    /// verify exactly that claim. The cascade is driven through the same
    /// allocation-free kernel path (`*_into`) the simulator runs — the
    /// scratch and work stack are reused across the whole sequence — so
    /// the zero-delay theorem tests exercise the production code, not a
    /// fork of the old per-event loop.
    pub fn run_zero_delay(
        &mut self,
        d3g: &D3g,
        updates: impl IntoIterator<Item = (ItemId, f64)>,
    ) -> ZeroDelayOutcome {
        let mut messages = 0u64;
        let mut checks = 0u64;
        let mut on_violation: Vec<(ItemId, f64)> = Vec::new();
        let mut scratch = ForwardScratch::new();
        let mut stack: Vec<(NodeIdx, Update)> = Vec::new();
        for (item, value) in updates {
            self.on_source_update_into(item, value, &mut scratch);
            checks += scratch.checks();
            stack.extend(scratch.to().iter().map(|t| (t.node, scratch.update())));
            while let Some((node, update)) = stack.pop() {
                messages += 1;
                self.on_repo_update_into(node, update, &mut scratch);
                checks += scratch.checks();
                stack.extend(scratch.to().iter().map(|t| (t.node, scratch.update())));
            }
            // After the cascade settles, record any coherency violation.
            for n in 1..d3g.n_nodes() {
                let node = NodeIdx(n as u32);
                if let Some(c) = d3g.effective(node, item) {
                    if c.violated_by(value, self.value_at(node, item)) {
                        on_violation.push((item, value));
                    }
                }
            }
        }
        ZeroDelayOutcome { messages, checks, violations: on_violation }
    }

    /// Marks a repository failed (`active = false`) or recovered
    /// (`active = true`) — the CSR row-disable mutation entry point.
    ///
    /// While inactive, [`Disseminator::on_repo_update`] is a no-op for the
    /// node: it records nothing and forwards to nobody, so its whole
    /// subtree starves (fail-stop semantics). Recovery needs no explicit
    /// resynchronization from the caller:
    ///
    /// * under the naive/distributed protocols senders are oblivious —
    ///   their per-dependent state is receiver-indexed and only advances
    ///   on actual deliveries, so the next violating source change is
    ///   retried and its delivery restores coherency;
    /// * under the centralized protocol the class-indexed `last_sent`
    ///   *does* advance while the node is down (the source cannot know a
    ///   class member missed the send), so recovery marks the node's
    ///   tolerance classes stale with its actual (pre-failure) copies —
    ///   the next source change then re-violates those classes and the
    ///   resend flows down to the recovered node.
    pub fn set_node_active(&mut self, node: NodeIdx, active: bool) {
        assert!(!node.is_source(), "the source cannot fail");
        let was_active = self.active[node.index()];
        self.active[node.index()] = active;
        if active && !was_active && self.protocol == Protocol::Centralized {
            self.resync_centralized(node);
        }
    }

    /// Restores the tolerance-class invariant for every item the
    /// recovering node holds (its stale copies drag the affected classes'
    /// `last_sent` back, so tagging re-violates on the next change; at
    /// worst this re-sends to class members that were already fresh).
    fn resync_centralized(&mut self, node: NodeIdx) {
        for i in 0..self.n_items {
            if self.parent[i * self.n_nodes + node.index()] != NO_PARENT {
                self.rebuild_source_list(ItemId(i as u32));
            }
        }
    }

    /// Whether the node currently participates in dissemination.
    pub fn is_active(&self, node: NodeIdx) -> bool {
        self.active[node.index()]
    }

    /// Renegotiates the *user* tolerance `node` holds `item` at — the CSR
    /// row-patch mutation entry point. Returns the node's new effective
    /// coherency.
    ///
    /// The effective coherency is re-derived as `user_c` tightened by
    /// every dependent in the node's CSR row (adoptees included; children
    /// adopted away re-tighten it when restored), then the sender-side
    /// CSR entry in the parent's row is patched in place (an O(1) write
    /// through `parent_edge`). Tightening propagates **up** the parent
    /// chain so Eq. (1) (`c_parent ≤ c_child` on every edge) keeps
    /// holding; loosening never relaxes ancestors (they stay
    /// conservatively tight, which costs messages but can never miss an
    /// update). Under the centralized protocol the source's
    /// unique-tolerance list is rebuilt: persisting tolerance classes
    /// keep their last-disseminated value, new classes start at the
    /// source's current value (renegotiation is prospective — it filters
    /// from "now", it does not replay history).
    ///
    /// # Panics
    /// Panics for the source or for a node that does not hold the item.
    pub fn renegotiate(&mut self, node: NodeIdx, item: ItemId, user_c: Coherency) -> Coherency {
        assert!(!node.is_source(), "the source's coherency is not negotiable");
        let base = item.index() * self.n_nodes;
        assert!(
            self.parent[base + node.index()] != NO_PARENT,
            "{node} does not hold {item:?}; only held items can be renegotiated"
        );
        let mut new_eff = user_c;
        for e in self.row_range(node, item) {
            new_eff = new_eff.tighten(Coherency::new(self.child_edges[e].c));
        }
        self.settle_eff(node, item, new_eff);
        new_eff
    }

    /// Installs `c` as `node`'s effective coherency for `item`, then
    /// walks up: patches the node's entry in its parent's row and keeps
    /// tightening ancestors while the child is now more stringent
    /// (Eq. (1); ancestors are never relaxed). Rebuilds the centralized
    /// source list.
    fn settle_eff(&mut self, node: NodeIdx, item: ItemId, c: Coherency) {
        let base = item.index() * self.n_nodes;
        self.rows[base + node.index()].eff = c.value();
        let mut child = node;
        loop {
            let parent = self.parent[base + child.index()];
            if parent == NO_PARENT {
                break;
            }
            self.child_edges[self.rows[base + child.index()].parent_edge as usize].c = c.value();
            let pr = base + parent as usize;
            if NodeIdx(parent).is_source() || c.value() >= self.rows[pr].eff {
                break;
            }
            self.rows[pr].eff = c.value();
            child = NodeIdx(parent);
        }
        if self.protocol == Protocol::Centralized {
            self.rebuild_source_list(item);
        }
    }

    /// The dissemination parent `node` currently receives `item` from
    /// (`None` for the source and for nodes not holding the item).
    /// Reflects live re-parenting: an adopted child reports its foster
    /// parent until restored.
    #[inline]
    pub fn parent_of(&self, node: NodeIdx, item: ItemId) -> Option<NodeIdx> {
        match self.parent[item.index() * self.n_nodes + node.index()] {
            NO_PARENT => None,
            p => Some(NodeIdx(p)),
        }
    }

    /// Recomputes the centralized source's unique-tolerance list for
    /// `item` from the current effective coherencies. Each class's
    /// `last_sent` is set to its **stalest member's** actual copy — the
    /// invariant static operation maintains implicitly ("every member
    /// holds at least the class's last value"), re-established here after
    /// a mutation broke it. Anything else can strand a member: seeding a
    /// new class from the source's own value, or letting a renegotiated
    /// node join an existing class with a fresher `last_sent`, leaves the
    /// stale member violating while a slowly drifting source never
    /// re-tags the class. The reset can only make tagging fire *earlier*
    /// (a duplicate send to fresh members), never miss an update.
    fn rebuild_source_list(&mut self, item: ItemId) {
        let src_val = self.last(item, SOURCE);
        let base = item.index() * self.n_nodes;
        let mut cs: Vec<Coherency> = (1..self.n_nodes)
            .filter(|&n| self.parent[base + n] != NO_PARENT)
            .map(|n| Coherency::new(self.rows[base + n].eff))
            .collect();
        cs.sort();
        cs.dedup();
        let mut list = SourceList::default();
        for c in cs {
            let mut last = src_val;
            let mut worst_drift = -1.0f64;
            for n in 1..self.n_nodes {
                if self.parent[base + n] != NO_PARENT && self.rows[base + n].eff == c.value() {
                    let copy = self.rows[base + n].last;
                    let drift = (src_val - copy).abs();
                    if drift > worst_drift {
                        worst_drift = drift;
                        last = copy;
                    }
                }
            }
            list.c.push(c.value());
            list.last.push(last);
        }
        self.source_lists[item.index()] = list;
    }

    /// Number of items covered.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of overlay nodes (source + repositories).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    pub(crate) fn source_list_mut(&mut self, item: ItemId) -> &mut SourceList {
        &mut self.source_lists[item.index()]
    }

    /// The centralized source's `(class tolerance, last sent)` pairs for
    /// `item` (test helper).
    #[cfg(test)]
    pub(crate) fn source_list_pairs(&self, item: ItemId) -> Vec<(Coherency, f64)> {
        let list = &self.source_lists[item.index()];
        list.c.iter().zip(&list.last).map(|(&c, &l)| (Coherency::new(c), l)).collect()
    }

    /// Approximate owned size of the protocol state in bytes (flat
    /// arrays + header) — snapshot telemetry only.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.rows.len() * std::mem::size_of::<RowMeta>()
            + self.child_edges.len() * std::mem::size_of::<EdgeState>()
            + self.parent.len() * std::mem::size_of::<u32>()
            + self.active.len()
            + self.adoptions.len() * std::mem::size_of::<adoption::Adoption>()
            + self
                .source_lists
                .iter()
                .map(|l| (l.c.len() + l.last.len()) * std::mem::size_of::<f64>())
                .sum::<usize>()
    }

    /// Folds the disseminator's complete logical state — structure and
    /// values, every float by bit pattern — into `h`. Two disseminators
    /// digesting equal are byte-equal in every field a future decision
    /// can read, which is what the snapshot `state_digest` gates on. An
    /// edge's delay is a function of its row and dependent under the
    /// run's fixed delay matrix, so it is not digested.
    pub fn digest_into(&self, h: &mut crate::digest::Fnv1a) {
        h.write_u64(self.protocol as u64);
        h.write_usize(self.n_items);
        h.write_usize(self.n_nodes);
        for r in &self.rows {
            h.write_f64(r.last);
            h.write_f64(r.eff);
            h.write_u64(u64::from(r.start));
            h.write_u64(u64::from(r.len));
            h.write_u64(u64::from(r.parent_edge));
        }
        for e in &self.child_edges {
            h.write_f64(e.c);
            h.write_f64(e.last);
            h.write_u64(u64::from(e.node));
        }
        for &p in &self.parent {
            h.write_u64(u64::from(p));
        }
        for &a in &self.active {
            h.write_u8(u8::from(a));
        }
        h.write_usize(self.adoptions.len());
        for a in &self.adoptions {
            a.digest_into(h);
        }
        for list in &self.source_lists {
            h.write_usize(list.c.len());
            for (&c, &last) in list.c.iter().zip(&list.last) {
                h.write_f64(c);
                h.write_f64(last);
            }
        }
    }
}

/// Result of a zero-delay cascade run.
#[derive(Debug, Clone, PartialEq)]
pub struct ZeroDelayOutcome {
    /// Total update transmissions.
    pub messages: u64,
    /// Total filter evaluations.
    pub checks: u64,
    /// `(item, source value)` pairs for which some repository ended the
    /// cascade outside its tolerance — must be empty for the distributed
    /// and centralized protocols.
    pub violations: Vec<(ItemId, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    pub(super) fn c(v: f64) -> Coherency {
        Coherency::new(v)
    }

    /// The nodes a kernel decision selected, for comparison with the
    /// scalar oracle's `Forwarding::to` (which carries no delays).
    pub(super) fn target_nodes(scratch: &ForwardScratch) -> Vec<NodeIdx> {
        scratch.to().iter().map(|t| t.node).collect()
    }

    /// The exact Figure-4 scenario: S → P (c=0.3) → Q (c=0.5), values
    /// 1.0, 1.2, 1.4, 1.5, 1.7, 2.0.
    pub(super) fn figure4_graph() -> (D3g, NodeIdx, NodeIdx) {
        let w = Workload::from_needs(vec![vec![Some(c(0.3))], vec![Some(c(0.5))]]);
        let mut g = D3g::new(w.n_repos(), 1);
        let (p, q) = (NodeIdx::repo(0), NodeIdx::repo(1));
        g.add_edge(SOURCE, p, ItemId(0), c(0.3));
        g.add_edge(p, q, ItemId(0), c(0.5));
        (g, p, q)
    }

    #[test]
    fn figure4_naive_misses_an_update() {
        let (g, _p, q) = figure4_graph();
        let mut d = Disseminator::new(Protocol::Naive, &g, &[1.0]);
        let out = d.run_zero_delay(&g, [1.2, 1.4, 1.5, 1.7, 2.0].map(|v| (ItemId(0), v)));
        // Per the paper: Q should have been within 0.5 of 1.5, but the 1.4
        // update never reached it, so when the source hits 1.7 Q still
        // holds 1.0 — a violation.
        assert_eq!(
            out.violations,
            vec![(ItemId(0), 1.7)],
            "the 1.7 source value must strand Q at 1.0, exactly as Figure 4 shows"
        );
        // The later 2.0 update does reach Q — the violation was transient,
        // which is why fidelity (a time fraction) is the right metric.
        assert_eq!(d.value_at(q, ItemId(0)), 2.0);
    }

    #[test]
    fn figure4_distributed_pushes_the_rescue_update() {
        let (g, p, q) = figure4_graph();
        let mut d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        // 1.2: within 0.3 of 1.0 → P doesn't even get it.
        let f = d.on_source_update(ItemId(0), 1.2);
        assert!(f.to.is_empty());
        // 1.4: |1.4-1.0| > 0.3 → P gets it; P must forward to Q because
        // |1.4 - 1.0| = 0.4 > c_q - c_p = 0.2 (Eq. 7), even though Eq. 3
        // alone (0.4 > 0.5) would not fire.
        let f = d.on_source_update(ItemId(0), 1.4);
        assert_eq!(f.to, vec![p]);
        let f = d.on_repo_update(p, f.update);
        assert_eq!(f.to, vec![q], "Eq.(7) must push 1.4 to Q");
        let f = d.on_repo_update(q, f.update);
        assert!(f.to.is_empty());
        assert_eq!(d.value_at(q, ItemId(0)), 1.4);
    }

    #[test]
    fn figure4_distributed_full_run_has_no_violations() {
        let (g, _, _) = figure4_graph();
        let mut d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let out = d.run_zero_delay(&g, [1.2, 1.4, 1.5, 1.7, 2.0].map(|v| (ItemId(0), v)));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn figure4_centralized_full_run_has_no_violations() {
        let (g, _, _) = figure4_graph();
        let mut d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        let out = d.run_zero_delay(&g, [1.2, 1.4, 1.5, 1.7, 2.0].map(|v| (ItemId(0), v)));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn flood_forwards_everything() {
        let (g, p, _q) = figure4_graph();
        let mut d = Disseminator::new(Protocol::FloodAll, &g, &[1.0]);
        let f = d.on_source_update(ItemId(0), 1.01);
        assert_eq!(f.to, vec![p], "flood ignores tolerances");
    }

    #[test]
    fn failed_node_records_and_forwards_nothing() {
        let (g, p, q) = figure4_graph();
        let mut d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        d.set_node_active(p, false);
        assert!(!d.is_active(p));
        let f = d.on_source_update(ItemId(0), 2.0);
        assert_eq!(f.to, vec![p], "senders are oblivious to the failure");
        let f = d.on_repo_update(p, f.update);
        assert!(f.to.is_empty(), "a failed node must not forward");
        assert_eq!(f.checks, 0);
        assert_eq!(d.value_at(p, ItemId(0)), 1.0, "a failed node must not record");
        // Recovery: the next violating change flows through again because
        // the sender-side record never advanced.
        d.set_node_active(p, true);
        let f = d.on_source_update(ItemId(0), 3.0);
        assert_eq!(f.to, vec![p]);
        let f = d.on_repo_update(p, f.update);
        assert_eq!(f.to, vec![q]);
        assert_eq!(d.value_at(p, ItemId(0)), 3.0);
    }

    #[test]
    fn renegotiate_tightening_propagates_up_the_chain() {
        // S → P (0.3) → Q (0.5); tightening Q to 0.1 must tighten P too
        // (Eq. 1: the parent serves the child at least as stringently).
        let (g, p, q) = figure4_graph();
        let mut d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let eff = d.renegotiate(q, ItemId(0), c(0.1));
        assert_eq!(eff, c(0.1));
        assert_eq!(d.eff_of(q, ItemId(0)), c(0.1));
        assert_eq!(d.eff_of(p, ItemId(0)), c(0.1), "ancestor tightened");
        let row = d.children_of_compiled(p, ItemId(0));
        assert_eq!(row[0], (q, c(0.1)), "CSR entry patched");
        let row = d.children_of_compiled(SOURCE, ItemId(0));
        assert_eq!(row[0], (p, c(0.1)), "source row patched");
        // A 0.2 drift now violates Q's tightened requirement end to end.
        let f = d.on_source_update(ItemId(0), 1.2);
        assert_eq!(f.to, vec![p]);
        let f = d.on_repo_update(p, f.update);
        assert_eq!(f.to, vec![q]);
    }

    #[test]
    fn renegotiate_loosening_never_relaxes_ancestors_or_relayed_children() {
        let (g, p, q) = figure4_graph();
        let mut d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        // Loosen Q: P keeps its own 0.3 (never relaxed), Q's entry patched.
        let eff = d.renegotiate(q, ItemId(0), c(0.9));
        assert_eq!(eff, c(0.9));
        assert_eq!(d.eff_of(p, ItemId(0)), c(0.3));
        assert_eq!(d.children_of_compiled(p, ItemId(0))[0].1, c(0.9));
        // Loosen P above its child: the relay obligation keeps it at 0.9.
        let eff = d.renegotiate(p, ItemId(0), c(2.0));
        assert_eq!(eff, c(0.9), "eff = tighten(user 2.0, child 0.9)");
        assert_eq!(d.children_of_compiled(SOURCE, ItemId(0))[0].1, c(0.9));
    }

    /// Star: S → A (0.1), S → B (0.4), centralized.
    fn centralized_star() -> (D3g, NodeIdx, NodeIdx) {
        let mut g = D3g::new(2, 1);
        let (a, b) = (NodeIdx::repo(0), NodeIdx::repo(1));
        g.add_edge(SOURCE, a, ItemId(0), c(0.1));
        g.add_edge(SOURCE, b, ItemId(0), c(0.4));
        (g, a, b)
    }

    #[test]
    fn renegotiate_rebuilds_centralized_source_list_from_stalest_member() {
        let (g, a, b) = centralized_star();
        let mut d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        let f = d.on_source_update(ItemId(0), 1.2); // tag 0.1: serves A
        let _ = d.on_repo_update(a, f.update); // ...and A holds it
        d.renegotiate(b, ItemId(0), c(0.2));
        let list = d.source_list_pairs(ItemId(0));
        assert_eq!(list.len(), 2);
        assert_eq!(list[0], (c(0.1), 1.2), "A's class: A holds 1.2");
        // B never received 1.2 (it was only tagged 0.1), so its new class
        // must be seeded with B's actual copy, not the source's value.
        assert_eq!(list[1], (c(0.2), 1.0), "new class seeded from stalest member");
    }

    #[test]
    fn centralized_tightening_repairs_on_the_next_change() {
        // Source moves 1.0 → 1.3: tagged 0.1, so A refreshes but B (0.4)
        // does not. B then tightens to 0.1, *joining A's class*. If the
        // merged class kept A's fresh last (1.3), a slow source (next
        // value 1.35) would never re-violate it and B would hold 1.0
        // forever; the stalest-member rule drags the class back to 1.0.
        let (g, a, b) = centralized_star();
        let mut d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        let f = d.on_source_update(ItemId(0), 1.3);
        assert_eq!(f.to, vec![a], "tag 0.1 serves only A");
        let _ = d.on_repo_update(a, f.update);
        d.renegotiate(b, ItemId(0), c(0.1));
        assert_eq!(d.source_list_pairs(ItemId(0)), vec![(c(0.1), 1.0)]);
        let f = d.on_source_update(ItemId(0), 1.35);
        assert!(f.to.contains(&b), "stalest-member class must re-tag B on the next change");
        let f = d.on_repo_update(b, f.update);
        assert!(f.to.is_empty());
        assert_eq!(d.value_at(b, ItemId(0)), 1.35);
    }

    #[test]
    fn centralized_recovery_resyncs_the_nodes_classes() {
        // B (c=0.4) fails; the source jumps to 5.0 — tag_update advances
        // B's class to 5.0 even though the send was lost. Without the
        // recovery resync, later values near 5.0 never re-violate the
        // class and B stays at 1.0 to the end of time.
        let (g, _a, b) = centralized_star();
        let mut d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        d.set_node_active(b, false);
        let f = d.on_source_update(ItemId(0), 5.0);
        assert!(f.to.contains(&b), "the source is oblivious and still sends");
        let _ = d.on_repo_update(b, f.update); // dropped: B is down
        assert_eq!(d.value_at(b, ItemId(0)), 1.0);
        d.set_node_active(b, true);
        let f = d.on_source_update(ItemId(0), 5.05);
        assert!(f.to.contains(&b), "recovery must mark B's class stale");
        let _ = d.on_repo_update(b, f.update);
        assert_eq!(d.value_at(b, ItemId(0)), 5.05);
    }

    #[test]
    fn value_at_tracks_received_updates() {
        let (g, p, q) = figure4_graph();
        let mut d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        assert_eq!(d.value_at(q, ItemId(0)), 1.0);
        let f = d.on_source_update(ItemId(0), 2.0);
        assert_eq!(f.to, vec![p]);
        let f = d.on_repo_update(p, f.update);
        let _ = d.on_repo_update(q, f.update);
        assert_eq!(d.value_at(p, ItemId(0)), 2.0);
        assert_eq!(d.value_at(q, ItemId(0)), 2.0);
    }

    /// The kernel path must make the same decisions, forward the same
    /// update, and count the same checks as the scalar oracle on the
    /// Figure-4 walkthrough (the broad randomized version lives in
    /// `tests/kernel_properties.rs`).
    #[test]
    fn kernel_path_mirrors_scalar_oracle_on_figure4() {
        for protocol in
            [Protocol::Naive, Protocol::Distributed, Protocol::Centralized, Protocol::FloodAll]
        {
            let (g, _p, _q) = figure4_graph();
            let mut oracle = Disseminator::new(protocol, &g, &[1.0]);
            let mut kern = Disseminator::new(protocol, &g, &[1.0]);
            let mut scratch = ForwardScratch::new();
            for v in [1.2, 1.4, 1.5, 1.7, 2.0] {
                let f = oracle.on_source_update(ItemId(0), v);
                kern.on_source_update_into(ItemId(0), v, &mut scratch);
                assert_eq!(target_nodes(&scratch), f.to, "{protocol:?} source targets");
                assert_eq!(scratch.update(), f.update, "{protocol:?} source update");
                assert_eq!(scratch.checks(), f.checks, "{protocol:?} source checks");
                let mut pending: Vec<(NodeIdx, Update)> =
                    f.to.iter().map(|&n| (n, f.update)).collect();
                while let Some((node, update)) = pending.pop() {
                    let f = oracle.on_repo_update(node, update);
                    kern.on_repo_update_into(node, update, &mut scratch);
                    assert_eq!(target_nodes(&scratch), f.to, "{protocol:?} repo targets");
                    assert_eq!(scratch.checks(), f.checks, "{protocol:?} repo checks");
                    pending.extend(f.to.iter().map(|&n| (n, f.update)));
                }
            }
        }
    }

    /// The Figure-11 comparability invariant: every forwarding decision
    /// evaluates the filter **exactly once per candidate** — per CSR-row
    /// dependent for the tree filters (whether or not the update is
    /// forwarded, flood included) and per unique tolerance class for the
    /// centralized source's tag scan (no early exit) — on both the
    /// scalar-oracle and kernel paths.
    #[test]
    fn checks_count_one_evaluation_per_candidate() {
        // S fans out to 3 repos (tolerances 0.1 / 0.3 / 0.3); repo 0
        // relays to a 4th at 0.5 — so the centralized list holds three
        // unique classes {0.1, 0.3, 0.5} over the four holders.
        let mut g = D3g::new(4, 1);
        let (r0, r1, r2, r3) =
            (NodeIdx::repo(0), NodeIdx::repo(1), NodeIdx::repo(2), NodeIdx::repo(3));
        g.add_edge(SOURCE, r0, ItemId(0), c(0.1));
        g.add_edge(SOURCE, r1, ItemId(0), c(0.3));
        g.add_edge(SOURCE, r2, ItemId(0), c(0.3));
        g.add_edge(r0, r3, ItemId(0), c(0.5));
        let mut scratch = ForwardScratch::new();
        for (protocol, source_checks_quiet, source_checks_loud) in [
            // 3 source-row candidates, scanned whether or not they fire.
            (Protocol::Naive, 3, 3),
            (Protocol::Distributed, 3, 3),
            (Protocol::FloodAll, 3, 3),
            // 3 tolerance classes scanned always; +3 row candidates only
            // when a class violates and the update actually enters the
            // tree.
            (Protocol::Centralized, 3, 3 + 3),
        ] {
            let mut d = Disseminator::new(protocol, &g, &[1.0]);
            // Quiet change (nothing violates): full candidate scan still
            // counted.
            let f = d.on_source_update(ItemId(0), 1.01);
            assert_eq!(f.checks, source_checks_quiet, "{protocol:?} quiet");
            if protocol != Protocol::FloodAll {
                assert!(f.to.is_empty(), "{protocol:?}: 0.01 drift addresses nobody");
            }
            // Loud change (everything violates): same per-candidate count.
            let f = d.on_source_update(ItemId(0), 9.0);
            assert_eq!(f.checks, source_checks_loud, "{protocol:?} loud");
            // Repo decisions: one check per CSR-row dependent (r0 has one,
            // r1 has none), regardless of the outcome.
            let f0 = d.on_repo_update(r0, f.update);
            assert_eq!(f0.checks, 1, "{protocol:?} relay row");
            let f1 = d.on_repo_update(r1, f.update);
            assert_eq!(f1.checks, 0, "{protocol:?} leaf row");
            // The kernel path counts identically.
            let mut k = Disseminator::new(protocol, &g, &[1.0]);
            k.on_source_update_into(ItemId(0), 1.01, &mut scratch);
            assert_eq!(scratch.checks(), source_checks_quiet, "{protocol:?} kernel quiet");
            k.on_source_update_into(ItemId(0), 9.0, &mut scratch);
            assert_eq!(scratch.checks(), source_checks_loud, "{protocol:?} kernel loud");
            let update = scratch.update();
            k.on_repo_update_into(r0, update, &mut scratch);
            assert_eq!(scratch.checks(), 1, "{protocol:?} kernel relay row");
            k.on_repo_update_into(r1, update, &mut scratch);
            assert_eq!(scratch.checks(), 0, "{protocol:?} kernel leaf row");
        }
    }
}
