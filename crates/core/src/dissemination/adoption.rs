//! The adoption registry — live re-parenting state of a
//! [`Disseminator`] (the overlay self-healing of `RepairPolicy::Reparent`
//! in `d3t-sim`).
//!
//! A re-parented child is *adopted*: recorded in a registry, served by
//! its foster parent, and handed back when the original parent recovers.
//! Its edge moves into the foster's CSR row, re-stamped with the
//! foster→child delay (so a send never travels a stale one), and back,
//! re-stamped again, on restore: each item's rows tile one
//! contiguous span with one edge per holder, and a repair rebuilds the
//! touched item's span so that, in node order, each row lists the node's
//! own compiled children still attached to it (in compiled order, kept
//! by `RowMeta::home`), then the children it fosters (in registry order).
//!
//! The registry is one canonical `Vec<Adoption>` — push on first
//! adoption, in-place foster rewrite on re-adoption, `swap_remove` on
//! restore. Its *current order* is observable: it is a foster's send
//! order to its adoptees, send order sets serial-send arrival times, and
//! the vector is part of [`Disseminator::digest_into`]. Every operation
//! is a linear pass over the registry plus a span rebuild: repair pays
//! O(item holders + live adoptions) per operation; decisions pay nothing.

use super::{Disseminator, EdgeState, NO_PARENT};
use crate::coherency::Coherency;
use crate::item::ItemId;
use crate::overlay::NodeIdx;

/// One re-parented child, served by `foster` until
/// [`Disseminator::restore_children_of`] hands it back to `original`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Adoption {
    /// Item of the re-parented subscription.
    item: u32,
    /// The re-parented child node.
    child: u32,
    /// The surviving ancestor currently serving the child.
    foster: u32,
    /// The crashed original parent (restore target on recovery).
    original: u32,
}

impl Adoption {
    /// Folds every field into `h`, for [`Disseminator::digest_into`].
    pub(super) fn digest_into(&self, h: &mut crate::digest::Fnv1a) {
        for v in [self.item, self.child, self.foster, self.original] {
            h.write_u64(u64::from(v));
        }
    }
}

impl Disseminator {
    /// Every `(item, child)` subscription `node` currently serves: its own
    /// compiled dependents that have not been adopted away, then children
    /// it has adopted, in registry order — the deterministic enumeration
    /// the repair layer walks when `node` crashes.
    pub fn dependents_of(&self, node: NodeIdx) -> Vec<(ItemId, NodeIdx)> {
        // A row ends with the node's adoptees; count them per item.
        let mut fostered = vec![0; self.n_items];
        let mut adopted = Vec::new();
        for a in self.adoptions.iter().filter(|a| a.foster == node.0) {
            fostered[a.item as usize] += 1;
            adopted.push((ItemId(a.item), NodeIdx(a.child)));
        }
        let mut deps = Vec::new();
        for (i, k) in fostered.into_iter().enumerate() {
            let item = ItemId(i as u32);
            let row = self.row_range(node, item);
            let own = &self.child_edges[row.start..row.end - k];
            deps.extend(own.iter().map(|e| (item, NodeIdx(e.node))));
        }
        deps.extend(adopted);
        deps
    }

    /// Re-parents `child`'s subscription to `item` onto the surviving
    /// ancestor `foster` — the overlay self-healing mutation entry point.
    ///
    /// The registry records the adoption (a re-adoption after a foster
    /// crash keeps the first one's original parent, whose recovery
    /// restores the pristine topology), `parent` is rewritten, the child's
    /// edge moves into `foster`'s row, and `foster`'s chain is tightened
    /// to the child where Eq. (1) needs it (never relaxed).
    ///
    /// # Panics
    /// Panics if `child` does not hold `item`, if `foster == child`, or
    /// if `child`'s current parent is alive.
    pub fn reparent(&mut self, child: NodeIdx, item: ItemId, foster: NodeIdx) {
        assert!(child != foster, "a node cannot adopt itself");
        let base = item.index() * self.n_nodes;
        let old = self.parent[base + child.index()];
        assert!(old != NO_PARENT, "{child} does not hold {item:?}; nothing to re-parent");
        assert!(
            !self.active[old as usize],
            "re-parenting is only defined away from a crashed parent, whose recovery \
             hands the child back"
        );
        debug_assert!(
            foster.is_source() || self.parent[base + foster.index()] != NO_PARENT,
            "the foster parent must hold the item it adopts a dependent for"
        );
        if old == foster.0 {
            return;
        }
        match self.adoptions.iter_mut().find(|a| a.item == item.0 && a.child == child.0) {
            Some(a) => a.foster = foster.0,
            None => self.adoptions.push(Adoption {
                item: item.0,
                child: child.0,
                foster: foster.0,
                original: old,
            }),
        }
        self.parent[base + child.index()] = foster.0;
        self.tighten_foster_chain(child, item, foster);
        self.recompile(item);
    }

    /// Eq. (1) for an edge that just moved under `foster` (an adoption or
    /// a restore): the foster chain must serve the child at least as
    /// stringently as the child holds the item.
    fn tighten_foster_chain(&mut self, child: NodeIdx, item: ItemId, foster: NodeIdx) {
        let base = item.index() * self.n_nodes;
        let c = self.rows[base + child.index()].eff;
        if !foster.is_source() && c < self.rows[base + foster.index()].eff {
            self.settle_eff(foster, item, Coherency::new(c));
        }
    }

    /// Hands every child adopted away from `node` back to it (recovery
    /// re-attaches the original edges), returning how many subscriptions
    /// were restored. Effective coherencies tightened during adoption are
    /// left in place — conservatively tight, never missing an update —
    /// matching the renegotiation loosening rule; `node`'s own chain is
    /// tightened to each returning child where Eq. (1) needs it (after a
    /// renegotiation while the child was away).
    pub fn restore_children_of(&mut self, node: NodeIdx) -> usize {
        let mut restored = Vec::new();
        let mut touched = Vec::new();
        let mut k = 0;
        while k < self.adoptions.len() {
            let a = self.adoptions[k];
            if a.original != node.0 {
                k += 1;
                continue;
            }
            self.adoptions.swap_remove(k);
            restored.push(a);
            touched.push(a.item);
            // The tail entry moved into the hole, reordering its foster's
            // adoptees.
            touched.extend(self.adoptions.get(k).map(|m| m.item));
        }
        for a in &restored {
            self.parent[a.item as usize * self.n_nodes + a.child as usize] = node.0;
            self.tighten_foster_chain(NodeIdx(a.child), ItemId(a.item), node);
        }
        touched.sort_unstable();
        touched.dedup();
        for item in touched {
            self.recompile(ItemId(item));
        }
        restored.len()
    }

    /// Rebuilds `item`'s span in the row order the module doc pins. Every
    /// edge is re-read from its child's row record — `record_at` and the
    /// Eq. (1) walks keep the edge's `(c, last)` equal to the child's
    /// `(eff, last)` — and re-stamped with its row's delay to the child,
    /// so only the layout and the delays of moved edges change.
    fn recompile(&mut self, item: ItemId) {
        let (n, base) = (self.n_nodes, item.index() * self.n_nodes);
        let (start, last) = (self.rows[base].start, self.rows[base + n - 1]);
        let home = |d: &Self, child: u32| (d.rows[base + child as usize].home - start) as usize;
        // Holders by compiled slot, adoptees blanked: the registry lists them.
        let mut compiled = vec![None; (last.start + last.len - start) as usize];
        for e in &self.child_edges[start as usize..(last.start + last.len) as usize] {
            compiled[home(self, e.node)] = Some(e.node);
        }
        let adopted = self.adoptions.iter().filter(|a| a.item == item.0);
        let fostered: Vec<(u32, u32)> = adopted.map(|a| (a.foster, a.child)).collect();
        for &(_, child) in &fostered {
            compiled[home(self, child)] = None;
        }
        let own = compiled.into_iter().flatten().map(|ch| (self.parent[base + ch as usize], ch));
        let placed: Vec<(u32, u32)> = own.chain(fostered).collect();
        // Row lengths, then bounds, then each edge at its row's cursor.
        let mut cursor = vec![0u32; n];
        for &(row, _) in &placed {
            cursor[row as usize] += 1;
        }
        let mut at = start;
        for (node, slot) in cursor.iter_mut().enumerate() {
            let meta = &mut self.rows[base + node];
            (meta.start, meta.len) = (at, *slot);
            *slot = at;
            at += meta.len;
        }
        for (row, child) in placed {
            let delay_us = self.delay_us(NodeIdx(row), NodeIdx(child));
            let slot = &mut cursor[row as usize];
            let meta = &mut self.rows[base + child as usize];
            meta.parent_edge = *slot;
            self.child_edges[*slot as usize] =
                EdgeState { c: meta.eff, last: meta.last, node: child, delay_us };
            *slot += 1;
        }
    }

    /// The µs delay of the edge `from → to` a repair moves: the stamped
    /// matrix's, or 0 on a disseminator never stamped.
    fn delay_us(&self, from: NodeIdx, to: NodeIdx) -> u32 {
        self.delays.as_ref().map_or(0, |d| d.us(from, to))
    }

    /// Number of currently re-parented subscriptions.
    pub fn adoption_count(&self) -> usize {
        self.adoptions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{c, figure4_graph, target_nodes};
    use super::super::{ForwardScratch, Protocol, Target, Update};
    use super::*;
    use crate::coherency::VALUE_EPSILON;
    use crate::graph::D3g;
    use crate::lela::{build_d3g, DelayMatrix, LelaConfig};
    use crate::overlay::SOURCE;
    use crate::workload::Workload;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn reparent_serves_child_from_surviving_ancestor_and_restores() {
        // S → P (0.3) → Q (0.5): P crashes, Q is adopted by S.
        let (g, p, q) = figure4_graph();
        let mut d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        d.set_node_active(p, false);
        d.reparent(q, ItemId(0), SOURCE);
        assert_eq!(d.adoption_count(), 1);
        assert_eq!(d.parent_of(q, ItemId(0)), Some(SOURCE));
        // The source now checks its own row (P) plus the adopted edge (Q).
        let f = d.on_source_update(ItemId(0), 2.0);
        assert_eq!(f.checks, 2, "one check per candidate incl. the adopted edge");
        assert!(f.to.contains(&q), "|2.0 − 1.0| > 0.5 must reach the adopted child");
        let f_q = d.on_repo_update(q, f.update);
        assert!(f_q.to.is_empty());
        assert_eq!(d.value_at(q, ItemId(0)), 2.0, "adopted delivery records normally");
        // The crashed parent's own enumeration no longer claims Q...
        assert!(d.dependents_of(p).is_empty());
        // ...the foster's does.
        assert_eq!(d.dependents_of(SOURCE), vec![(ItemId(0), p), (ItemId(0), q)]);
        // Recovery re-attaches the original edge exactly.
        assert_eq!(d.restore_children_of(p), 1);
        d.set_node_active(p, true);
        assert_eq!(d.adoption_count(), 0);
        assert_eq!(d.parent_of(q, ItemId(0)), Some(p));
        let f = d.on_source_update(ItemId(0), 4.0);
        assert_eq!(f.to, vec![p], "post-restore the source serves only its own row");
        let f = d.on_repo_update(p, f.update);
        assert_eq!(f.to, vec![q], "P relays to Q again, mirror state intact");
    }

    #[test]
    fn reparent_kernel_path_matches_scalar_oracle() {
        let (g, p, q) = figure4_graph();
        let mut oracle = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        let mut kern = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        for d in [&mut oracle, &mut kern] {
            d.set_node_active(p, false);
            d.reparent(q, ItemId(0), SOURCE);
        }
        let mut scratch = ForwardScratch::new();
        for v in [1.2, 1.4, 1.7, 2.6, 2.61] {
            let f = oracle.on_source_update(ItemId(0), v);
            kern.on_source_update_into(ItemId(0), v, &mut scratch);
            assert_eq!(target_nodes(&scratch), f.to, "adopted targets must match at {v}");
            assert_eq!(scratch.checks(), f.checks, "adopted checks must match at {v}");
            for &n in &f.to {
                if oracle.is_active(n) || n == q {
                    let fr = oracle.on_repo_update(n, f.update);
                    kern.on_repo_update_into(n, f.update, &mut scratch);
                    assert_eq!(target_nodes(&scratch), fr.to);
                }
            }
        }
    }

    /// S → A (0.4), S → P (0.3), P → C (0.35).
    fn sibling_foster_graph() -> (D3g, NodeIdx, NodeIdx, NodeIdx) {
        let mut g = D3g::new(3, 1);
        let (a, p, ch) = (NodeIdx::repo(0), NodeIdx::repo(1), NodeIdx::repo(2));
        g.add_edge(SOURCE, a, ItemId(0), c(0.4));
        g.add_edge(SOURCE, p, ItemId(0), c(0.3));
        g.add_edge(p, ch, ItemId(0), c(0.35));
        (g, a, p, ch)
    }

    #[test]
    fn reparent_tightens_a_looser_foster_chain() {
        // Centralized. P crashes and C is adopted by the *sibling* A:
        // Eq. (1) forces A's chain down to 0.35, patches A's source edge,
        // and rebuilds the tolerance classes.
        let (g, a, p, ch) = sibling_foster_graph();
        let mut d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        d.set_node_active(p, false);
        d.reparent(ch, ItemId(0), a);
        assert_eq!(d.eff_of(a, ItemId(0)), c(0.35), "foster tightened to the adopted edge");
        assert_eq!(d.children_of_compiled(SOURCE, ItemId(0))[0].1, c(0.35), "source row patched");
        let f = d.on_source_update(ItemId(0), 1.38);
        assert_eq!(f.update.tag, Some(c(0.35)), "0.38 drift violates the 0.35 class");
        assert_eq!(f.to, vec![a, p], "the dead sibling's slot is still addressed (oblivious)");
        let f = d.on_repo_update(a, f.update);
        assert_eq!(f.to, vec![ch], "A relays to its adopted child");
        let _ = d.on_repo_update(ch, f.update);
        assert_eq!(d.value_at(ch, ItemId(0)), 1.38);
    }

    #[test]
    fn renegotiating_a_foster_keeps_its_adoptees_tolerance() {
        // P crashes, C is adopted by A, then A's user loosens to 2.0. A
        // still relays to C, so Eq. (1) holds A at 0.35.
        let (g, a, p, ch) = sibling_foster_graph();
        let mut d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        d.set_node_active(p, false);
        d.reparent(ch, ItemId(0), a);
        assert_eq!(d.renegotiate(a, ItemId(0), c(2.0)), c(0.35), "A relays to C at 0.35");
        assert_eq!(d.children_of_compiled(SOURCE, ItemId(0))[0], (a, c(0.35)));
        assert_csr_consistent("after renegotiation", &d);
    }

    #[test]
    fn restore_retightens_an_original_renegotiated_while_its_child_was_away() {
        // S → P (0.3) → Q (0.5): P crashes, Q is adopted by S, and P's
        // user loosens to 2.0 while Q is away. Recovery hands Q back, so
        // P must serve it at 0.5 again.
        let (g, p, q) = figure4_graph();
        let mut d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        d.set_node_active(p, false);
        d.reparent(q, ItemId(0), SOURCE);
        d.renegotiate(p, ItemId(0), c(2.0));
        assert_eq!(d.restore_children_of(p), 1);
        d.set_node_active(p, true);
        assert_eq!(d.eff_of(p, ItemId(0)), c(0.5), "Eq. (1) on the restored edge");
        assert_eq!(d.children_of_compiled(SOURCE, ItemId(0)), vec![(p, c(0.5))]);
        assert_csr_consistent("after restore", &d);
    }

    // ---- The linear oracle: the registry operations over a pristine
    // CSR. An oracle disseminator is only ever mutated through these, so
    // its rows stay as compiled — an adopted child's edge stays in its
    // dead parent's row — and its decisions are its row scan plus
    // `filter_adopted`, a scalar filter over the registry.

    /// Filters `node`'s adoptees for `update.item`, in registry order,
    /// into `out_to` with exactly the kernel's predicates (same bias, same
    /// epsilon), one check per candidate; each target carries the
    /// foster→child delay.
    fn filter_adopted(
        o: &Disseminator,
        node: NodeIdx,
        update: Update,
        out_to: &mut Vec<Target>,
    ) -> u64 {
        // A quiet centralized source tick never enters the tree: the row
        // scan is skipped (and not counted), so adopted edges are too.
        if o.protocol == Protocol::Centralized && update.tag.is_none() {
            return 0;
        }
        let base = update.item.index() * o.n_nodes;
        let mut checks = 0u64;
        for a in o.adoptions.iter().filter(|a| a.foster == node.0 && a.item == update.item.0) {
            let e = o.child_edges[o.rows[base + a.child as usize].parent_edge as usize];
            checks += 1;
            let keep = match o.protocol {
                Protocol::Centralized => e.c <= update.tag.expect("checked above").value(),
                Protocol::Naive => (update.value - e.last).abs() > e.c + VALUE_EPSILON,
                Protocol::Distributed => {
                    let bias = o.rows[base + node.index()].eff;
                    (update.value - e.last).abs() > e.c - bias + VALUE_EPSILON
                }
                Protocol::FloodAll => true,
            };
            if keep {
                let child = NodeIdx(a.child);
                out_to.push(Target { node: child, delay_us: o.delay_us(node, child) });
            }
        }
        checks
    }

    fn linear_reparent(o: &mut Disseminator, child: NodeIdx, item: ItemId, foster: NodeIdx) {
        let base = item.index() * o.n_nodes;
        let old = o.parent[base + child.index()];
        if old == foster.0 {
            return;
        }
        match o.adoptions.iter_mut().find(|a| a.item == item.0 && a.child == child.0) {
            Some(a) => a.foster = foster.0,
            None => o.adoptions.push(Adoption {
                item: item.0,
                child: child.0,
                foster: foster.0,
                original: old,
            }),
        }
        o.parent[base + child.index()] = foster.0;
        o.tighten_foster_chain(child, item, foster);
    }

    fn linear_restore_children_of(o: &mut Disseminator, node: NodeIdx) -> usize {
        let mut restored = 0;
        let mut k = 0;
        while k < o.adoptions.len() {
            let a = o.adoptions[k];
            if a.original == node.0 {
                o.parent[a.item as usize * o.n_nodes + a.child as usize] = node.0;
                o.adoptions.swap_remove(k);
                o.tighten_foster_chain(NodeIdx(a.child), ItemId(a.item), node);
                restored += 1;
            } else {
                k += 1;
            }
        }
        restored
    }

    fn linear_dependents_of(o: &Disseminator, node: NodeIdx) -> Vec<(ItemId, NodeIdx)> {
        let mut deps = Vec::new();
        for i in 0..o.n_items {
            let item = ItemId(i as u32);
            for e in o.row_range(node, item) {
                let child = o.child_edges[e].node;
                if o.parent[i * o.n_nodes + child as usize] == node.0 {
                    deps.push((item, NodeIdx(child)));
                }
            }
        }
        for a in &o.adoptions {
            if a.foster == node.0 {
                deps.push((ItemId(a.item), NodeIdx(a.child)));
            }
        }
        deps
    }

    /// `renegotiate` over the dependents [`linear_dependents_of`] lists.
    fn linear_renegotiate(o: &mut Disseminator, node: NodeIdx, item: ItemId, user: f64) -> f64 {
        let deps: Vec<NodeIdx> = linear_dependents_of(o, node)
            .into_iter()
            .filter_map(|(i, ch)| (i == item).then_some(ch))
            .collect();
        let base = item.index() * o.n_nodes;
        let mut eff = c(user);
        for ch in deps {
            eff = eff.tighten(c(o.rows[base + ch.index()].eff));
        }
        o.settle_eff(node, item, eff);
        eff.value()
    }

    /// One decision on both disseminators; asserts targets (order
    /// included), forwarded update and checks agree.
    fn lockstep_decide(
        label: &str,
        d: &mut Disseminator,
        o: &mut Disseminator,
        at: Option<NodeIdx>,
        update: Update,
        ds: &mut ForwardScratch,
        os: &mut ForwardScratch,
    ) {
        match at {
            None => {
                d.on_source_update_into(update.item, update.value, ds);
                o.on_source_update_into(update.item, update.value, os);
                os.checks += filter_adopted(o, SOURCE, os.update, &mut os.to);
            }
            Some(node) => {
                d.on_repo_update_into(node, update, ds);
                o.on_repo_update_into(node, update, os);
                if o.is_active(node) {
                    os.checks += filter_adopted(o, node, update, &mut os.to);
                }
            }
        }
        assert_eq!(ds.to(), os.to(), "{label}: targets diverged at {at:?}");
        assert_eq!(ds.update(), os.update(), "{label}: forwarded update diverged at {at:?}");
        assert_eq!(ds.checks(), os.checks(), "{label}: checks diverged at {at:?}");
    }

    /// A full zero-delay cascade of one source change on both.
    fn lockstep_cascade(
        label: &str,
        d: &mut Disseminator,
        o: &mut Disseminator,
        item: ItemId,
        value: f64,
    ) {
        let (mut ds, mut os) = (ForwardScratch::new(), ForwardScratch::new());
        lockstep_decide(label, d, o, None, Update { item, value, tag: None }, &mut ds, &mut os);
        let mut stack: Vec<(NodeIdx, Update)> =
            ds.to().iter().map(|t| (t.node, ds.update())).collect();
        while let Some((node, update)) = stack.pop() {
            lockstep_decide(label, d, o, Some(node), update, &mut ds, &mut os);
            stack.extend(ds.to().iter().map(|t| (t.node, ds.update())));
        }
    }

    /// The compiled CSR after any mutation: each item's rows tile one
    /// contiguous span in node order; every holder appears exactly once,
    /// inside its current parent's row; `parent_edge` points at that
    /// slot; the edge mirrors the child's row record bit for bit; it
    /// carries the delay from its current row's node to the child,
    /// `round(delay_ms · 1000)` µs (0 unstamped); and every edge
    /// satisfies Eq. (1), `eff(parent) ≤ eff(child)`.
    fn assert_csr_consistent(label: &str, d: &Disseminator) {
        let mut at = 0u32;
        for i in 0..d.n_items {
            let base = i * d.n_nodes;
            let mut edges = 0;
            for n in 0..d.n_nodes {
                let meta = d.rows[base + n];
                assert_eq!(meta.start, at, "{label}: rows must tile the item's span");
                at += meta.len;
                for e in meta.start..at {
                    let edge = d.child_edges[e as usize];
                    let child = d.rows[base + edge.node as usize];
                    assert_eq!(d.parent[base + edge.node as usize], n as u32, "{label}: row");
                    assert_eq!(child.parent_edge, e, "{label}: parent_edge");
                    assert_eq!(
                        (edge.c.to_bits(), edge.last.to_bits()),
                        (child.eff.to_bits(), child.last.to_bits()),
                        "{label}: edge {e} mirrors its child's row"
                    );
                    let (from, to) = (NodeIdx(n as u32), NodeIdx(edge.node));
                    let want_us =
                        d.delays.as_ref().map_or(0.0, |m| (m.delay_ms(from, to) * 1000.0).round());
                    assert_eq!(
                        f64::from(edge.delay_us),
                        want_us,
                        "{label}: edge {e} carries the delay {from} -> {to}"
                    );
                    assert!(meta.eff <= child.eff, "{label}: Eq. (1) at edge {e}");
                    edges += 1;
                }
            }
            let holders = (0..d.n_nodes).filter(|&n| d.parent[base + n] != NO_PARENT).count();
            assert_eq!(edges, holders, "{label}: one edge per holder");
        }
        assert_eq!(at as usize, d.child_edges.len(), "{label}: spans cover the edge array");
    }

    /// Everything observable agrees between the rebuilt disseminator and
    /// the linear oracle, and the rebuilt CSR is consistent.
    fn assert_matches_oracle(label: &str, d: &Disseminator, o: &Disseminator) {
        assert_eq!(d.adoptions, o.adoptions, "{label}: registry order diverged");
        assert_eq!(d.parent, o.parent, "{label}: parents diverged");
        let rows = |x: &Disseminator| -> Vec<(u64, u64)> {
            x.rows.iter().map(|r| (r.last.to_bits(), r.eff.to_bits())).collect()
        };
        assert_eq!(rows(d), rows(o), "{label}: row records diverged");
        let lists = |x: &Disseminator| -> Vec<(Vec<f64>, Vec<f64>)> {
            x.source_lists.iter().map(|l| (l.c.clone(), l.last.clone())).collect()
        };
        assert_eq!(lists(d), lists(o), "{label}: source lists diverged");
        for n in 0..d.n_nodes {
            let node = NodeIdx(n as u32);
            assert_eq!(d.dependents_of(node), linear_dependents_of(o, node), "{label}: {node}");
        }
        assert_csr_consistent(label, d);
    }

    fn random_d3g(rng: &mut StdRng) -> D3g {
        let (n_repos, n_items) = (rng.gen_range(6..=16usize), rng.gen_range(1..=4usize));
        let mut rows: Vec<Vec<Option<Coherency>>> = (0..n_repos)
            .map(|_| {
                (0..n_items)
                    .map(|_| {
                        (rng.gen_range(0..5u32) < 4)
                            .then(|| c(rng.gen_range(1..=100u32) as f64 / 100.0))
                    })
                    .collect()
            })
            .collect();
        for (i, row) in rows.iter_mut().enumerate() {
            if row.iter().all(Option::is_none) {
                row[i % n_items] = Some(c(0.25));
            }
        }
        let workload = Workload::from_needs(rows);
        let delays = DelayMatrix::uniform(n_repos + 1, 10.0);
        // Low degrees make deep trees: fosters that crash in turn.
        let degree = rng.gen_range(1..=3usize);
        build_d3g(&workload, &delays, &LelaConfig::new(degree, rng.gen_range(0..64)))
    }

    /// A symmetric matrix with a distinct random delay per pair, so an
    /// edge that kept a previous row's delay reads wrong.
    fn ragged_delays(seed: u64, n: usize) -> DelayMatrix {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut m = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = rng.gen_range(0.5..200.0);
                (m[i * n + j], m[j * n + i]) = (d, d);
            }
        }
        DelayMatrix::new(n, m)
    }

    /// Random crash / re-parent / re-adopt-after-foster-crash / recover /
    /// renegotiate / update sequences: after every step the rebuilt CSR
    /// is consistent — every edge stamped with its current row's delay —
    /// and agrees with the linear oracle on everything observable, the
    /// delay each target is sent over included.
    #[test]
    fn indexed_registry_matches_linear_oracle_on_random_sequences() {
        let protocols =
            [Protocol::Naive, Protocol::Distributed, Protocol::Centralized, Protocol::FloodAll];
        let (mut re_adoptions, mut reordering_restores, mut renegotiations) = (0, 0, 0);
        for (p, &protocol) in protocols.iter().enumerate() {
            for seed in 0..12u64 {
                let rng = &mut StdRng::seed_from_u64(0xAD0B7 + 97 * seed + p as u64);
                let g = random_d3g(rng);
                let n_items = g.n_items();
                let n_repos = g.n_nodes() - 1;
                let init: Vec<f64> = (0..n_items).map(|i| 10.0 + i as f64).collect();
                let mut d = Disseminator::new(protocol, &g, &init);
                d.stamp_delays(&ragged_delays(seed, g.n_nodes()));
                assert_csr_consistent("stamped", &d);
                let mut o = d.clone();
                // Orphans awaiting their staggered repair: (child, item, dead).
                let mut pending: Vec<(NodeIdx, ItemId, NodeIdx)> = Vec::new();
                for step in 0..80 {
                    let label = format!("{protocol:?}/seed {seed}/step {step}");
                    let node = NodeIdx::repo(rng.gen_range(0..n_repos));
                    let item = ItemId(rng.gen_range(0..n_items) as u32);
                    match rng.gen_range(0..11u32) {
                        0..=2 if d.is_active(node) => {
                            d.set_node_active(node, false);
                            o.set_node_active(node, false);
                            let orphans = d.dependents_of(node);
                            assert_eq!(orphans, linear_dependents_of(&o, node), "{label}");
                            pending.extend(orphans.into_iter().map(|(i, ch)| (ch, i, node)));
                        }
                        3..=4 if !d.is_active(node) => {
                            let last = d.adoptions.last().copied();
                            let restored = d.restore_children_of(node);
                            assert_eq!(restored, linear_restore_children_of(&mut o, node));
                            d.set_node_active(node, true);
                            o.set_node_active(node, true);
                            // A survivor moved off the tail: order changed.
                            let moved = last.is_some_and(|l| {
                                l.original != node.0 && d.adoptions.last() != Some(&l)
                            });
                            reordering_restores += usize::from(moved);
                        }
                        5..=7 => {
                            // Repair a random half of the waiting orphans,
                            // dropping stale ops exactly like the session.
                            let mut k = 0;
                            while k < pending.len() {
                                if rng.gen_range(0..2u32) == 0 {
                                    k += 1;
                                    continue;
                                }
                                let (child, item, dead) = pending.swap_remove(k);
                                if d.is_active(dead) || d.parent_of(child, item) != Some(dead) {
                                    continue;
                                }
                                let mut foster = dead;
                                loop {
                                    foster = d.parent_of(foster, item).unwrap_or(SOURCE);
                                    if foster.is_source() || d.is_active(foster) {
                                        break;
                                    }
                                }
                                re_adoptions += usize::from(
                                    d.adoptions
                                        .iter()
                                        .any(|a| a.item == item.0 && a.child == child.0),
                                );
                                d.reparent(child, item, foster);
                                linear_reparent(&mut o, child, item, foster);
                            }
                        }
                        8 if d.parent_of(node, item).is_some() => {
                            let user = rng.gen_range(1..=100u32) as f64 / 100.0;
                            let eff = d.renegotiate(node, item, c(user)).value();
                            assert_eq!(
                                eff,
                                linear_renegotiate(&mut o, node, item, user),
                                "{label}"
                            );
                            renegotiations += 1;
                        }
                        _ => {
                            let value = 10.0 + rng.gen_range(0..400u32) as f64 / 100.0;
                            lockstep_cascade(&label, &mut d, &mut o, item, value);
                        }
                    }
                    assert_matches_oracle(&label, &d, &o);
                }
            }
        }
        assert!(re_adoptions > 20, "the sequences must re-adopt after foster crashes");
        assert!(reordering_restores > 20, "the sequences must reorder survivors on restore");
        assert!(renegotiations > 100, "the sequences must renegotiate");
    }

    /// Restoring one original `swap_remove`s its entry out of the registry
    /// and moves the tail entry into the hole — which reorders *another*
    /// foster's adoptees, and with them its send order.
    #[test]
    fn restoring_one_original_reorders_another_fosters_adoptees() {
        // S → G → R → r and S → F → Q → {x, y}.
        let mut g = D3g::new(7, 1);
        let [gg, f, r_, q, r, x, y] = [0, 1, 2, 3, 4, 5, 6].map(NodeIdx::repo);
        let item = ItemId(0);
        for (parent, child) in
            [(SOURCE, gg), (SOURCE, f), (gg, r_), (f, q), (r_, r), (q, x), (q, y)]
        {
            g.add_edge(parent, child, item, c(0.1));
        }
        let mut d = Disseminator::new(Protocol::FloodAll, &g, &[1.0]);
        let mut o = d.clone();
        for dd in [&mut d, &mut o] {
            dd.set_node_active(r_, false);
            dd.set_node_active(q, false);
        }
        // Registry: [r→G, x→F, y→F].
        for (child, foster) in [(r, gg), (x, f), (y, f)] {
            d.reparent(child, item, foster);
            linear_reparent(&mut o, child, item, foster);
        }
        let update = Update { item, value: 2.0, tag: None };
        let (mut s, mut os) = (ForwardScratch::new(), ForwardScratch::new());
        lockstep_decide("before", &mut d, &mut o, Some(f), update, &mut s, &mut os);
        assert_eq!(target_nodes(&s), [q, x, y], "own row first, then adoptees in registry order");
        // R recovers: entry 0 goes, the tail (y→F) fills the hole.
        assert_eq!(d.restore_children_of(r_), 1);
        assert_eq!(linear_restore_children_of(&mut o, r_), 1);
        assert_matches_oracle("after restore", &d, &o);
        lockstep_decide("after", &mut d, &mut o, Some(f), update, &mut s, &mut os);
        assert_eq!(target_nodes(&s), [q, y, x], "F's adoptees swapped places");
        assert_eq!(d.dependents_of(f), vec![(item, q), (item, y), (item, x)]);
        assert_eq!(d.children_of_compiled(gg, item), vec![(r_, c(0.1))], "G's row is its own");
    }

    /// With 1 000 live adoptions, each adoptee is checked exactly once per
    /// cascade — by its foster, as one more edge of the foster's row.
    #[test]
    fn a_decision_visits_only_its_own_rows_adoptees() {
        // S → G_j (10) → P_jk (100 each) → C_jk; every P crashes and
        // every C is adopted by its grandparent.
        const FOSTERS: usize = 10;
        const PER_FOSTER: usize = 100;
        let n = FOSTERS * PER_FOSTER;
        let item = ItemId(0);
        let mut g = D3g::new(FOSTERS + 2 * n, 1);
        let foster = |j: usize| NodeIdx::repo(j);
        let parent = |k: usize| NodeIdx::repo(FOSTERS + k);
        let child = |k: usize| NodeIdx::repo(FOSTERS + n + k);
        for j in 0..FOSTERS {
            g.add_edge(SOURCE, foster(j), item, c(0.1));
        }
        for k in 0..n {
            g.add_edge(foster(k % FOSTERS), parent(k), item, c(0.1));
            g.add_edge(parent(k), child(k), item, c(0.1));
        }
        let mut d = Disseminator::new(Protocol::Distributed, &g, &[1.0]);
        for k in 0..n {
            d.set_node_active(parent(k), false);
        }
        let mut o = d.clone();
        for k in 0..n {
            d.reparent(child(k), item, foster(k % FOSTERS));
            linear_reparent(&mut o, child(k), item, foster(k % FOSTERS));
        }
        assert_eq!(d.adoption_count(), n);
        assert_matches_oracle("1000 adoptions", &d, &o);

        // One cascade: the source, 10 fosters, 1 000 dead parents
        // (dropped before any scan) and 1 000 adopted leaves.
        let mut s = ForwardScratch::new();
        d.on_source_update_into(item, 5.0, &mut s);
        let (mut decisions, mut checks) = (1u64, s.checks());
        let mut stack: Vec<NodeIdx> = target_nodes(&s);
        while let Some(node) = stack.pop() {
            if !d.is_active(node) {
                continue;
            }
            decisions += 1;
            d.on_repo_update_into(node, s.update(), &mut s);
            checks += s.checks();
            stack.extend(target_nodes(&s));
        }
        assert_eq!(decisions, 1 + FOSTERS as u64 + n as u64);
        // Own edges: the source's 10 fosters and the fosters' 1 000 dead
        // parents; every other check is an adoptee's.
        let adopted_checks = checks - (FOSTERS + n) as u64;
        assert_eq!(adopted_checks, n as u64, "every adoptee is checked once, by its foster");
        lockstep_cascade("cost", &mut d, &mut o, item, 9.0);
    }
}
