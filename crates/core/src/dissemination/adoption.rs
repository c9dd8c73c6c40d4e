//! The adoption registry — live re-parenting state of a
//! [`Disseminator`] (the overlay self-healing of `RepairPolicy::Reparent`
//! in `d3t-sim`).
//!
//! A re-parented child's CSR edge slot cannot move (rows are contiguous
//! spans), so it stays inside the crashed parent's row and the child is
//! *adopted*: recorded in a registry, served by its foster parent after
//! the foster's own CSR-row scan, and handed back when the original
//! parent recovers.
//!
//! # Performance model
//!
//! The registry is one canonical `Vec<Adoption>` — push on first
//! adoption, in-place foster rewrite on re-adoption, `swap_remove` on
//! restore. Its *current order* is observable: a foster pushes to its
//! adoptees in registry order, send order sets serial-send arrival times,
//! and the vector is part of [`Disseminator::digest_into`]. Scanning it
//! per decision made a repaired overlay cost O(events × live adoptions),
//! so the vector is served through a derived index (allocated by the
//! first adoption, never in a fault-free run; cloned with the
//! disseminator; not digested) that makes every operation cost what it
//! touches:
//!
//! * **decision** — `RowMeta::adoptees` names the `(item, foster)` row's
//!   adoptee list, children in ascending registry position: a row
//!   fostering nobody pays one branch on a field the arrival has already
//!   loaded, a row with `k` adoptees pays `k` scattered edge checks;
//! * **re-parent** — `slot_of[(item, child)]` finds the child's entry in
//!   O(1); linking it into a list is a binary search of that list;
//! * **restore** — `away_from[original]` names the entries to drop; they
//!   are removed in ascending position with exactly the linear sweep's
//!   `swap_remove` sequence, each move re-filing one entry in its list;
//! * **crash enumeration** — [`Disseminator::dependents_of`] merges the
//!   node's per-item lists by registry position.

use super::{Disseminator, Protocol, RowMeta, Update, NO_ADOPTEES, NO_EDGE, NO_PARENT};
use crate::coherency::{Coherency, VALUE_EPSILON};
use crate::item::ItemId;
use crate::overlay::NodeIdx;

/// One re-parented child: the CSR edge slot stays physically inside the
/// original parent's row (rows are contiguous spans, so the slot cannot
/// move), but the child is *logically* served by `foster` until
/// [`Disseminator::restore_children_of`] hands it back. Keeping the slot
/// in place means `record_at`'s per-edge mirror and `renegotiate`'s O(1)
/// `parent_edge` patch keep writing the same memory whether or not the
/// child is adopted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Adoption {
    /// Item of the re-parented subscription.
    item: u32,
    /// The re-parented child node.
    child: u32,
    /// The surviving ancestor currently serving the child.
    foster: u32,
    /// The crashed original parent (restore target on recovery).
    original: u32,
}

/// The canonical adoption list plus its lazily allocated index.
#[derive(Debug, Clone, Default)]
pub(super) struct Registry {
    /// Every live adoption, in the order the module doc pins.
    entries: Vec<Adoption>,
    /// Derived lookup structure over `entries`; `None` until the first
    /// adoption, so fault-free runs and their snapshots carry nothing.
    index: Option<Box<Index>>,
}

/// `slot_of` sentinel: the row's node is not adopted for the row's item.
const NO_SLOT: u32 = u32::MAX;

/// Derived views of [`Registry::entries`]; every field is a function of
/// the entries (and of the history of list ids, which nothing observes).
#[derive(Debug, Clone)]
struct Index {
    /// Per `item * n_nodes + child` row: the position of the child's
    /// entry in the registry ([`NO_SLOT`] when not adopted).
    slot_of: Vec<u32>,
    /// Adoptee lists, one per `(item, foster)` row currently fostering
    /// someone; `RowMeta::adoptees` is the row's id here. Each holds the
    /// row's adopted children in ascending registry position.
    lists: Vec<Vec<u32>>,
    /// Ids of emptied lists, reused before `lists` grows.
    free: Vec<u32>,
    /// Per original parent: the `item * n_nodes + child` rows adopted
    /// away from it, in no particular order.
    away_from: Vec<Vec<u32>>,
}

impl Index {
    fn new(n_rows: usize, n_nodes: usize) -> Self {
        assert!(n_rows <= u32::MAX as usize, "row ids are stored as u32");
        Self {
            slot_of: vec![NO_SLOT; n_rows],
            lists: Vec::new(),
            free: Vec::new(),
            away_from: vec![Vec::new(); n_nodes],
        }
    }

    /// Files `child` (registry position `slot`, item rows starting at
    /// `base`) in the adoptee list of the foster row `meta`, keeping the
    /// list in ascending registry position.
    fn link(&mut self, meta: &mut RowMeta, base: usize, child: u32, slot: u32) {
        if meta.adoptees == NO_ADOPTEES {
            meta.adoptees = self.free.pop().unwrap_or_else(|| {
                self.lists.push(Vec::new());
                (self.lists.len() - 1) as u32
            });
        }
        let slot_of = &self.slot_of;
        let list = &mut self.lists[meta.adoptees as usize];
        let at = list.partition_point(|&c| slot_of[base + c as usize] < slot);
        list.insert(at, child);
    }

    /// Drops the child at registry position `slot` from the adoptee list
    /// of the foster row `meta`, releasing the list once it is empty so
    /// the row is back to paying nothing.
    fn unlink(&mut self, meta: &mut RowMeta, base: usize, slot: u32) {
        let slot_of = &self.slot_of;
        let list = &mut self.lists[meta.adoptees as usize];
        let at = list.partition_point(|&c| slot_of[base + c as usize] < slot);
        debug_assert_eq!(slot_of[base + list[at] as usize], slot, "adoptee list out of sync");
        list.remove(at);
        if list.is_empty() {
            self.free.push(meta.adoptees);
            meta.adoptees = NO_ADOPTEES;
        }
    }

    fn state_bytes(&self) -> usize {
        let nested = |v: &[Vec<u32>]| {
            v.iter().map(|l| std::mem::size_of::<Vec<u32>>() + l.len() * 4).sum::<usize>()
        };
        std::mem::size_of::<Self>()
            + (self.slot_of.len() + self.free.len()) * 4
            + nested(&self.lists)
            + nested(&self.away_from)
    }
}

impl Registry {
    /// The index, for a caller holding proof it exists: a row's
    /// `adoptees` id, which only [`Index::link`] hands out.
    fn index(&self) -> &Index {
        // d3t-lint: allow(P001) -- a fostering row implies `register_adoption` ran, which allocates the index
        self.index.as_deref().expect("a fostering row implies the index")
    }

    /// Owned bytes beyond the disseminator's header: the entries and,
    /// once allocated, the index.
    pub(super) fn state_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Adoption>()
            + self.index.as_ref().map_or(0, |ix| ix.state_bytes())
    }

    /// Folds the canonical entries — count, then every field in registry
    /// order — into `h`. The index is derived and stays out.
    pub(super) fn digest_into(&self, h: &mut crate::digest::Fnv1a) {
        h.write_usize(self.entries.len());
        for a in &self.entries {
            h.write_u64(u64::from(a.item));
            h.write_u64(u64::from(a.child));
            h.write_u64(u64::from(a.foster));
            h.write_u64(u64::from(a.original));
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Registry / adoptee-list entries the decision paths enumerated on
    /// this thread — what the cost test compares against the adopted
    /// candidates actually checked.
    static VISITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Disseminator {
    /// The adoptee-list id of `node`'s row for `item`.
    #[inline]
    pub(super) fn adoptees_of(&self, node: NodeIdx, item: ItemId) -> u32 {
        self.rows[item.index() * self.n_nodes + node.index()].adoptees
    }

    /// Appends `node`'s *adopted* dependents for `update` to `out_to`,
    /// returning the filter evaluations performed — the scalar tail every
    /// decision path (kernel and oracle alike) runs after its CSR-row
    /// scan. `adoptees` is the row's `RowMeta::adoptees`, which the
    /// caller has in hand: a row fostering nobody takes one branch here
    /// and nothing else.
    #[inline]
    pub(super) fn adopted_into(
        &self,
        node: NodeIdx,
        update: Update,
        adoptees: u32,
        out_to: &mut Vec<NodeIdx>,
    ) -> u64 {
        if adoptees == NO_ADOPTEES {
            return 0;
        }
        self.scan_adopted(node, update, adoptees, out_to)
    }

    /// The out-of-line body of [`Disseminator::adopted_into`] — only runs
    /// for a row that currently fosters at least one child, over exactly
    /// that row's adoptees.
    fn scan_adopted(
        &self,
        node: NodeIdx,
        update: Update,
        adoptees: u32,
        out_to: &mut Vec<NodeIdx>,
    ) -> u64 {
        let list = &self.adoptions.index().lists[adoptees as usize];
        #[cfg(test)]
        VISITED.with(|v| v.set(v.get() + list.len() as u64));
        self.filter_adopted(node, update, list.iter().copied(), out_to)
    }

    /// Filters `children` — `node`'s adoptees for `update.item`, in
    /// registry order — into `out_to`. Adopted edges are scattered
    /// through other rows, so they are filtered one by one with exactly
    /// the kernel's predicates (same bias, same epsilon) and count one
    /// check per candidate, keeping the Figure-11 accounting invariant.
    #[inline]
    fn filter_adopted(
        &self,
        node: NodeIdx,
        update: Update,
        children: impl Iterator<Item = u32>,
        out_to: &mut Vec<NodeIdx>,
    ) -> u64 {
        // A quiet centralized source tick never enters the tree: the
        // kernel path skips its row scan in that case, so adopted edges
        // are skipped (and not counted) too.
        if self.protocol == Protocol::Centralized && update.tag.is_none() {
            return 0;
        }
        let base = update.item.index() * self.n_nodes;
        let mut checks = 0u64;
        for child in children {
            let e = self.child_edges[self.rows[base + child as usize].parent_edge as usize];
            checks += 1;
            let keep = match self.protocol {
                // d3t-lint: allow(P001) -- the protocol match above only reaches here with a tagged update
                Protocol::Centralized => e.c <= update.tag.expect("tag checked above").value(),
                Protocol::Naive => (update.value - e.last).abs() > e.c + VALUE_EPSILON,
                Protocol::Distributed => {
                    let bias = self.rows[base + node.index()].eff;
                    (update.value - e.last).abs() > e.c - bias + VALUE_EPSILON
                }
                Protocol::FloodAll => true,
            };
            if keep {
                out_to.push(NodeIdx(child));
            }
        }
        checks
    }

    /// Every `(item, child)` subscription `node` currently serves: its own
    /// CSR-row dependents that have not been adopted away, then children
    /// it has adopted, in registry order — the deterministic enumeration
    /// the repair layer walks when `node` crashes.
    pub fn dependents_of(&self, node: NodeIdx) -> Vec<(ItemId, NodeIdx)> {
        let mut deps = Vec::new();
        // Registry positions of the node's adoptees across its item rows.
        let mut slots: Vec<u32> = Vec::new();
        for i in 0..self.n_items {
            let item = ItemId(i as u32);
            let base = i * self.n_nodes;
            let meta = self.rows[base + node.index()];
            for e in meta.start as usize..(meta.start + meta.len) as usize {
                let child = self.child_edges[e].node;
                if self.parent[base + child as usize] == node.0 {
                    deps.push((item, NodeIdx(child)));
                }
            }
            if meta.adoptees != NO_ADOPTEES {
                let index = self.adoptions.index();
                let list = &index.lists[meta.adoptees as usize];
                slots.extend(list.iter().map(|&c| index.slot_of[base + c as usize]));
            }
        }
        slots.sort_unstable();
        deps.extend(slots.iter().map(|&s| {
            let a = self.adoptions.entries[s as usize];
            (ItemId(a.item), NodeIdx(a.child))
        }));
        deps
    }

    /// Re-parents `child`'s subscription to `item` onto the surviving
    /// ancestor `foster` — the overlay self-healing mutation entry point.
    ///
    /// The child's CSR edge slot cannot move (rows are contiguous spans),
    /// so it stays physically inside the original parent's row and is
    /// *adopted*: the decision paths serve it from `foster`'s scans via
    /// the adoption registry, `parent` is rewritten so renegotiation and
    /// repair walk the live chain, and `parent_edge` is untouched so the
    /// per-edge `last_sent` mirror keeps working unchanged. Eq. (1) is
    /// preserved by tightening `foster`'s ancestor chain to the child's
    /// edge tolerance where needed (ancestors are never relaxed —
    /// conservatively tight, exactly like [`Disseminator::renegotiate`]).
    /// A child whose foster crashes too can be re-adopted: the original
    /// parent recorded by the first adoption is kept, so recovery of that
    /// original restores the pristine topology.
    ///
    /// # Panics
    /// Panics if `child` does not hold `item`, if `foster == child`, or
    /// if `child` has no parent to be re-parented from.
    pub fn reparent(&mut self, child: NodeIdx, item: ItemId, foster: NodeIdx) {
        assert!(child != foster, "a node cannot adopt itself");
        let base = item.index() * self.n_nodes;
        let old = self.parent[base + child.index()];
        assert!(old != NO_PARENT, "{child} does not hold {item:?}; nothing to re-parent");
        assert!(
            !self.active[old as usize],
            "re-parenting is only defined away from a crashed parent: the child's edge \
             slot stays physically in the old parent's row, so a live old parent would \
             still scan it and double-serve the child"
        );
        debug_assert!(
            foster.is_source() || self.parent[base + foster.index()] != NO_PARENT,
            "the foster parent must hold the item it adopts a dependent for"
        );
        if old == foster.0 {
            return;
        }
        self.register_adoption(child, item, foster, old);
        self.parent[base + child.index()] = foster.0;
        self.tighten_foster_chain(child, item, foster);
    }

    /// The registry half of [`Disseminator::reparent`]: a first adoption
    /// is pushed (recording `old` as the original parent), a re-adoption
    /// rewrites its entry's foster in place; either way the child is
    /// filed under its new foster row.
    fn register_adoption(&mut self, child: NodeIdx, item: ItemId, foster: NodeIdx, old: u32) {
        let (n_rows, n_nodes) = (self.rows.len(), self.n_nodes);
        let base = item.index() * n_nodes;
        let row = base + child.index();
        let entries = &mut self.adoptions.entries;
        let index =
            self.adoptions.index.get_or_insert_with(|| Box::new(Index::new(n_rows, n_nodes)));
        let mut slot = index.slot_of[row];
        if slot == NO_SLOT {
            slot = entries.len() as u32;
            entries.push(Adoption {
                item: item.0,
                child: child.0,
                foster: foster.0,
                original: old,
            });
            index.slot_of[row] = slot;
            index.away_from[old as usize].push(row as u32);
        } else {
            let a = &mut entries[slot as usize];
            index.unlink(&mut self.rows[base + a.foster as usize], base, slot);
            a.foster = foster.0;
        }
        index.link(&mut self.rows[base + foster.index()], base, child.0, slot);
    }

    /// Eq. (1) for a fresh adoption: the foster chain must serve the
    /// child at least as stringently as its edge demands. Same upward
    /// walk as `renegotiate`, starting at the foster.
    fn tighten_foster_chain(&mut self, child: NodeIdx, item: ItemId, foster: NodeIdx) {
        let base = item.index() * self.n_nodes;
        let edge = self.rows[base + child.index()].parent_edge as usize;
        let c = Coherency::new(self.child_edges[edge].c);
        let mut node = foster;
        let mut tightened = false;
        while !node.is_source() {
            let r = base + node.index();
            if c.value() >= self.rows[r].eff {
                break;
            }
            self.rows[r].eff = c.value();
            tightened = true;
            let pe = self.rows[r].parent_edge;
            if pe != NO_EDGE {
                self.child_edges[pe as usize].c = c.value();
            }
            match self.parent[r] {
                NO_PARENT => break,
                p => node = NodeIdx(p),
            }
        }
        if tightened && self.protocol == Protocol::Centralized {
            self.rebuild_source_list(item);
        }
    }

    /// Hands every child adopted away from `node` back to it (recovery
    /// re-attaches the original edges), returning how many subscriptions
    /// were restored. Effective coherencies tightened during adoption are
    /// left in place — conservatively tight, never missing an update —
    /// matching the renegotiation loosening rule.
    pub fn restore_children_of(&mut self, node: NodeIdx) -> usize {
        let n_nodes = self.n_nodes;
        let entries = &mut self.adoptions.entries;
        let Some(index) = self.adoptions.index.as_deref_mut() else { return 0 };
        let slot_of = &index.slot_of;
        let mut slots: Vec<u32> =
            index.away_from[node.index()].drain(..).map(|row| slot_of[row as usize]).collect();
        // The registry order a linear `swap_remove` sweep would leave —
        // the order survivors are served in from here on: visit the
        // doomed positions in ascending order, and stay on a position
        // while the entry swapped into it from the tail is doomed too.
        slots.sort_unstable();
        for &k in &slots {
            while entries.get(k as usize).is_some_and(|a| a.original == node.0) {
                let a = entries.swap_remove(k as usize);
                let base = a.item as usize * n_nodes;
                index.unlink(&mut self.rows[base + a.foster as usize], base, k);
                index.slot_of[base + a.child as usize] = NO_SLOT;
                self.parent[base + a.child as usize] = node.0;
                // Re-file the entry the removal moved from the tail to `k`.
                if let Some(&m) = entries.get(k as usize) {
                    let base = m.item as usize * n_nodes;
                    let meta = &mut self.rows[base + m.foster as usize];
                    index.unlink(meta, base, entries.len() as u32);
                    index.slot_of[base + m.child as usize] = k;
                    index.link(meta, base, m.child, k);
                }
            }
        }
        slots.len()
    }

    /// Number of currently re-parented subscriptions.
    pub fn adoption_count(&self) -> usize {
        self.adoptions.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{c, figure4_graph};
    use super::super::ForwardScratch;
    use super::*;
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
            assert_eq!(scratch.to(), &f.to[..], "adopted targets must match at {v}");
            assert_eq!(scratch.checks(), f.checks, "adopted checks must match at {v}");
            for &n in &f.to {
                if oracle.is_active(n) || n == q {
                    let fr = oracle.on_repo_update(n, f.update);
                    kern.on_repo_update_into(n, f.update, &mut scratch);
                    assert_eq!(scratch.to(), &fr.to[..]);
                }
            }
        }
    }

    #[test]
    fn reparent_tightens_a_looser_foster_chain() {
        // S → A (0.4), S → P (0.3), P → C (0.35), centralized. P crashes
        // and C is adopted by the *sibling* A: Eq. (1) forces A's chain
        // down to 0.35, patches A's source edge, and rebuilds the
        // tolerance classes.
        let mut g = D3g::new(3, 1);
        let (a, p, ch) = (NodeIdx::repo(0), NodeIdx::repo(1), NodeIdx::repo(2));
        g.add_edge(SOURCE, a, ItemId(0), c(0.4));
        g.add_edge(SOURCE, p, ItemId(0), c(0.3));
        g.add_edge(p, ch, ItemId(0), c(0.35));
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

    // ---- The linear oracle: the registry algorithms as they were before
    // the index, verbatim, over the raw entries. An oracle disseminator
    // is only ever mutated through these, so its index stays unallocated
    // and its rows' `adoptees` unset; its decisions are its CSR-row scan
    // plus `linear_adopted_into`.

    fn linear_adopted_into(
        o: &Disseminator,
        node: NodeIdx,
        update: Update,
        out_to: &mut Vec<NodeIdx>,
    ) -> u64 {
        let entries = &o.adoptions.entries;
        if entries.is_empty() {
            return 0;
        }
        VISITED.with(|v| v.set(v.get() + entries.len() as u64));
        let mine = entries.iter().filter(|a| a.foster == node.0 && a.item == update.item.0);
        o.filter_adopted(node, update, mine.map(|a| a.child), out_to)
    }

    fn linear_reparent(o: &mut Disseminator, child: NodeIdx, item: ItemId, foster: NodeIdx) {
        let base = item.index() * o.n_nodes;
        let old = o.parent[base + child.index()];
        if old == foster.0 {
            return;
        }
        match o.adoptions.entries.iter_mut().find(|a| a.item == item.0 && a.child == child.0) {
            Some(a) => a.foster = foster.0,
            None => o.adoptions.entries.push(Adoption {
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
        while k < o.adoptions.entries.len() {
            let a = o.adoptions.entries[k];
            if a.original == node.0 {
                o.parent[a.item as usize * o.n_nodes + a.child as usize] = node.0;
                o.adoptions.entries.swap_remove(k);
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
        for a in &o.adoptions.entries {
            if a.foster == node.0 {
                deps.push((ItemId(a.item), NodeIdx(a.child)));
            }
        }
        deps
    }

    /// One decision on both disseminators; asserts targets (order
    /// included), forwarded update and checks agree and returns them.
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
                os.checks += linear_adopted_into(o, SOURCE, os.update, &mut os.to);
            }
            Some(node) => {
                d.on_repo_update_into(node, update, ds);
                o.on_repo_update_into(node, update, os);
                if o.is_active(node) {
                    os.checks += linear_adopted_into(o, node, update, &mut os.to);
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
        let mut stack: Vec<(NodeIdx, Update)> = ds.to().iter().map(|&n| (n, ds.update())).collect();
        while let Some((node, update)) = stack.pop() {
            lockstep_decide(label, d, o, Some(node), update, &mut ds, &mut os);
            stack.extend(ds.to().iter().map(|&n| (n, ds.update())));
        }
    }

    fn digest(d: &Disseminator) -> u64 {
        let mut h = crate::digest::Fnv1a::new();
        d.digest_into(&mut h);
        h.finish()
    }

    /// Every derived view agrees with the canonical entries.
    fn assert_index_consistent(d: &Disseminator) {
        let entries = &d.adoptions.entries;
        let Some(index) = &d.adoptions.index else {
            assert!(entries.is_empty());
            assert!(d.rows.iter().all(|r| r.adoptees == NO_ADOPTEES));
            return;
        };
        let row_of = |a: &Adoption| a.item as usize * d.n_nodes + a.child as usize;
        for (k, a) in entries.iter().enumerate() {
            assert_eq!(index.slot_of[row_of(a)], k as u32, "slot_of out of sync");
        }
        assert_eq!(index.slot_of.iter().filter(|&&s| s != NO_SLOT).count(), entries.len());
        let mut listed = 0;
        let mut ids: Vec<u32> = index.free.clone();
        for (r, meta) in d.rows.iter().enumerate() {
            if meta.adoptees == NO_ADOPTEES {
                continue;
            }
            ids.push(meta.adoptees);
            let (item, foster) = (r / d.n_nodes, r % d.n_nodes);
            let list = &index.lists[meta.adoptees as usize];
            assert!(!list.is_empty(), "an emptied list must be released");
            let slots: Vec<u32> =
                list.iter().map(|&ch| index.slot_of[item * d.n_nodes + ch as usize]).collect();
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "adoptees not in registry order");
            for &s in &slots {
                let a = entries[s as usize];
                assert_eq!((a.item as usize, a.foster as usize), (item, foster));
            }
            listed += list.len();
        }
        assert_eq!(listed, entries.len(), "every adoption is filed under exactly one row");
        ids.sort_unstable();
        assert!(ids.windows(2).all(|w| w[0] != w[1]), "a list id is owned twice");
        assert_eq!(ids.len(), index.lists.len(), "a list id leaked");
        for (n, rows) in index.away_from.iter().enumerate() {
            let mut got = rows.clone();
            let mut want: Vec<u32> = entries
                .iter()
                .filter(|a| a.original as usize == n)
                .map(|a| row_of(a) as u32)
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "away_from[{n}] out of sync");
        }
    }

    /// Everything observable about the registry agrees between the
    /// indexed disseminator and the linear oracle.
    fn assert_same_registry(label: &str, d: &Disseminator, o: &Disseminator) {
        assert_eq!(d.adoptions.entries, o.adoptions.entries, "{label}: registry order diverged");
        assert_eq!(digest(d), digest(o), "{label}: digest diverged");
        for n in 0..d.n_nodes {
            let node = NodeIdx(n as u32);
            assert_eq!(d.dependents_of(node), linear_dependents_of(o, node), "{label}: {node}");
            for i in 0..d.n_items {
                let item = ItemId(i as u32);
                assert_eq!(d.parent_of(node, item), o.parent_of(node, item), "{label}");
            }
        }
        assert_index_consistent(d);
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

    /// Random crash / re-parent / re-adopt-after-foster-crash / recover /
    /// update sequences: after every step the indexed registry and the
    /// linear oracle agree on everything observable.
    #[test]
    fn indexed_registry_matches_linear_oracle_on_random_sequences() {
        let protocols =
            [Protocol::Naive, Protocol::Distributed, Protocol::Centralized, Protocol::FloodAll];
        let mut re_adoptions = 0;
        let mut reordering_restores = 0;
        for (p, &protocol) in protocols.iter().enumerate() {
            for seed in 0..12u64 {
                let rng = &mut StdRng::seed_from_u64(0xAD0B7 + 97 * seed + p as u64);
                let g = random_d3g(rng);
                let n_items = g.n_items();
                let n_repos = g.n_nodes() - 1;
                let init: Vec<f64> = (0..n_items).map(|i| 10.0 + i as f64).collect();
                let mut d = Disseminator::new(protocol, &g, &init);
                let mut o = d.clone();
                // Orphans awaiting their staggered repair: (child, item, dead).
                let mut pending: Vec<(NodeIdx, ItemId, NodeIdx)> = Vec::new();
                for step in 0..80 {
                    let label = format!("{protocol:?}/seed {seed}/step {step}");
                    let node = NodeIdx::repo(rng.gen_range(0..n_repos));
                    match rng.gen_range(0..10u32) {
                        0..=2 if d.is_active(node) => {
                            d.set_node_active(node, false);
                            o.set_node_active(node, false);
                            let orphans = d.dependents_of(node);
                            assert_eq!(orphans, linear_dependents_of(&o, node), "{label}");
                            pending.extend(orphans.into_iter().map(|(i, ch)| (ch, i, node)));
                        }
                        3..=4 if !d.is_active(node) => {
                            let last = d.adoptions.entries.last().copied();
                            let restored = d.restore_children_of(node);
                            assert_eq!(restored, linear_restore_children_of(&mut o, node));
                            d.set_node_active(node, true);
                            o.set_node_active(node, true);
                            // A survivor moved off the tail: order changed.
                            let moved = last.is_some_and(|l| {
                                l.original != node.0 && d.adoptions.entries.last() != Some(&l)
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
                                let row = item.index() * d.n_nodes + child.index();
                                let adopted = d.adoptions.index.as_ref();
                                re_adoptions += usize::from(
                                    adopted.is_some_and(|ix| ix.slot_of[row] != NO_SLOT),
                                );
                                d.reparent(child, item, foster);
                                linear_reparent(&mut o, child, item, foster);
                            }
                        }
                        _ => {
                            let item = ItemId(rng.gen_range(0..n_items) as u32);
                            let value = 10.0 + rng.gen_range(0..400u32) as f64 / 100.0;
                            lockstep_cascade(&label, &mut d, &mut o, item, value);
                        }
                    }
                    assert_same_registry(&label, &d, &o);
                }
            }
        }
        assert!(re_adoptions > 20, "the sequences must re-adopt after foster crashes");
        assert!(reordering_restores > 20, "the sequences must reorder survivors on restore");
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
        assert_eq!(s.to(), &[q, x, y], "own row first, then adoptees in registry order");
        // R recovers: entry 0 goes, the tail (y→F) fills the hole.
        assert_eq!(d.restore_children_of(r_), 1);
        assert_eq!(linear_restore_children_of(&mut o, r_), 1);
        assert_same_registry("after restore", &d, &o);
        lockstep_decide("after", &mut d, &mut o, Some(f), update, &mut s, &mut os);
        assert_eq!(s.to(), &[q, y, x], "F's adoptees swapped places");
        assert_eq!(d.dependents_of(f), vec![(item, q), (item, y), (item, x)]);
        assert_eq!(d.adoptees_of(gg, item), NO_ADOPTEES, "G fosters nobody again");
    }

    /// With 1 000 live adoptions, a decision enumerates exactly the
    /// adopted candidates it checks — where the linear scan looked at
    /// the whole registry every time.
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
        assert_same_registry("1000 adoptions", &d, &o);

        // One cascade: the source, 10 fosters, 1 000 dead parents
        // (dropped before any scan) and 1 000 adopted leaves.
        let visited = || VISITED.with(|v| v.get());
        let before = visited();
        let mut s = ForwardScratch::new();
        let (mut decisions, mut adopted_checks) = (1u64, 0u64);
        d.on_source_update_into(item, 5.0, &mut s);
        adopted_checks += s.checks() - FOSTERS as u64;
        let mut stack: Vec<NodeIdx> = s.to().to_vec();
        while let Some(node) = stack.pop() {
            if !d.is_active(node) {
                continue;
            }
            decisions += 1;
            d.on_repo_update_into(node, s.update(), &mut s);
            adopted_checks += s.checks() - d.children_of_compiled(node, item).len() as u64;
            stack.extend_from_slice(s.to());
        }
        assert_eq!(decisions, 1 + FOSTERS as u64 + n as u64);
        assert_eq!(adopted_checks, n as u64, "every adoptee is checked once, by its foster");
        assert_eq!(visited() - before, adopted_checks, "entries visited == candidates checked");

        // The linear oracle pays the whole registry on every decision.
        let before = visited();
        lockstep_cascade("cost", &mut d, &mut o, item, 9.0);
        assert_eq!(visited() - before, adopted_checks + decisions * n as u64);
    }
}
