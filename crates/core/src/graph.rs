//! The dynamic data dissemination graph (`d3g`) and per-item trees (`d3t`).
//!
//! §2 of the paper: repositories storing a data item are logically
//! connected into a *dynamic data dissemination tree* rooted at the source;
//! the union of the per-item trees over all items is the dissemination
//! graph built during repository insertion. This module owns that
//! structure and its invariants:
//!
//! * per item, every holding node other than the source has exactly one
//!   parent, and following parents always reaches the source (tree
//!   property);
//! * along every edge the parent's *effective* coherency is at least as
//!   stringent as the child's (Eq. 1);
//! * a node's distinct-children count (its "push connections") never
//!   exceeds its degree of cooperation — enforced by the construction
//!   algorithms, checkable via [`D3g::validate`].

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::coherency::Coherency;
use crate::item::ItemId;
use crate::overlay::{NodeIdx, SOURCE};
use crate::workload::Workload;

/// The dissemination graph over `1 + n_repos` overlay nodes and `n_items`
/// items.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct D3g {
    n_nodes: usize,
    n_items: usize,
    /// `effective[node * n_items + item]`: the coherency at which the node
    /// holds the item (its own need, possibly tightened to serve
    /// dependents), as a raw tolerance; [`NOT_HELD`] (`+∞`, which
    /// [`Coherency::new`] rejects) when the node does not hold the item.
    /// One flat table so LeLA's candidate scan reads a node's items as one
    /// dense row. The source implicitly holds everything at
    /// [`Coherency::EXACT`] and is stored that way.
    effective: Vec<f64>,
    /// `parent[item][node]`: who serves `item` to `node`.
    parent: Vec<Vec<Option<NodeIdx>>>,
    /// `children[item][node]`: whom `node` serves `item` to.
    children: Vec<Vec<Vec<NodeIdx>>>,
    /// Distinct dependents per node (one push connection per child,
    /// regardless of how many items flow over it).
    child_set: Vec<BTreeSet<NodeIdx>>,
    /// Distinct parents per node across items, ascending — the mirror of
    /// `child_set`, kept as edges are added so the augmentation cascade
    /// never rescans every item's parent pointer to rebuild it.
    parent_set: Vec<Vec<NodeIdx>>,
    /// Level of each node in the construction (source = 0); `u32::MAX`
    /// until the node joins.
    level: Vec<u32>,
}

/// The `effective` cell of an item a node does not hold. Larger than every
/// tolerance, so "holds it at least as stringently as `c`" is the single
/// comparison `cell <= c`.
const NOT_HELD: f64 = f64::INFINITY;

/// Shape statistics of one item's dissemination tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct D3tStats {
    /// Nodes holding the item (including the source).
    pub n_nodes: usize,
    /// Longest root-to-leaf path, in edges.
    pub depth: usize,
    /// Largest per-item fan-out of any node.
    pub max_fanout: usize,
}

impl D3g {
    /// An empty graph: the source holds every item exactly; no repository
    /// has joined yet.
    pub fn new(n_repos: usize, n_items: usize) -> Self {
        let n_nodes = n_repos + 1;
        let mut effective = vec![NOT_HELD; n_nodes * n_items];
        effective[SOURCE.index() * n_items..][..n_items].fill(Coherency::EXACT.value());
        let mut level = vec![u32::MAX; n_nodes];
        level[SOURCE.index()] = 0;
        Self {
            n_nodes,
            n_items,
            effective,
            parent: vec![vec![None; n_nodes]; n_items],
            children: vec![vec![Vec::new(); n_nodes]; n_items],
            child_set: vec![BTreeSet::new(); n_nodes],
            parent_set: vec![Vec::new(); n_nodes],
            level,
        }
    }

    /// Builds the no-cooperation configuration of Figures 5/6: the source
    /// directly serves every interested repository.
    pub fn flat(workload: &Workload) -> Self {
        let mut g = Self::new(workload.n_repos(), workload.n_items());
        for r in 0..workload.n_repos() {
            let node = NodeIdx::repo(r);
            g.set_level(node, 1);
            for (item, c) in workload.items_of(r) {
                g.add_edge(SOURCE, node, item, c);
            }
        }
        g
    }

    /// Number of overlay nodes (source + repositories).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Records that `parent` serves `item` to `child` at coherency `c`
    /// (the child's effective requirement, tightened against any previous
    /// requirement it had).
    ///
    /// # Panics
    /// Panics if `child` already has a parent for `item`, if `parent`
    /// doesn't hold the item at stringency ≤ `c`, or on a self-edge.
    pub fn add_edge(&mut self, parent: NodeIdx, child: NodeIdx, item: ItemId, c: Coherency) {
        assert!(parent != child, "self-edges are not allowed");
        assert!(!child.is_source(), "the source cannot be a dependent");
        let (pi, ci, ii) = (parent.index(), child.index(), item.index());
        assert!(self.parent[ii][ci].is_none(), "{child} already has a parent for {item}");
        let held = self.effective(parent, item);
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract of add_edge (caller misuse, not a run-time path)"
        )]
        let pc = held.unwrap_or_else(|| panic!("{parent} does not hold {item}"));
        assert!(
            pc.at_least_as_stringent_as(c),
            "Eq.(1) violated: parent {parent} holds {item} at {pc}, child needs {c}"
        );
        self.parent[ii][ci] = Some(parent);
        self.children[ii][pi].push(child);
        self.child_set[pi].insert(child);
        let parents = &mut self.parent_set[ci];
        if let Err(at) = parents.binary_search(&parent) {
            parents.insert(at, parent);
        }
        self.tighten_effective(child, item, c);
    }

    /// Tightens (or establishes) a node's effective coherency for an item
    /// without wiring edges — used by the augmentation cascade before the
    /// upward path exists.
    pub fn tighten_effective(&mut self, node: NodeIdx, item: ItemId, c: Coherency) {
        // `NOT_HELD` is +∞, so establishing is tightening.
        let slot = &mut self.effective[node.index() * self.n_items + item.index()];
        if c.value() < *slot {
            *slot = c.value();
        }
    }

    /// The coherency at which `node` holds `item`, if it does.
    pub fn effective(&self, node: NodeIdx, item: ItemId) -> Option<Coherency> {
        let c = self.effective[node.index() * self.n_items + item.index()];
        (c != NOT_HELD).then(|| Coherency::new(c))
    }

    /// `node`'s row of the effective table: one raw tolerance per item,
    /// [`NOT_HELD`] where the node does not hold it.
    pub(crate) fn effective_row(&self, node: NodeIdx) -> &[f64] {
        &self.effective[node.index() * self.n_items..][..self.n_items]
    }

    /// Who serves `item` to `node`.
    pub fn parent_of(&self, node: NodeIdx, item: ItemId) -> Option<NodeIdx> {
        self.parent[item.index()][node.index()]
    }

    /// Whom `node` pushes `item` to.
    pub fn children_of(&self, node: NodeIdx, item: ItemId) -> &[NodeIdx] {
        &self.children[item.index()][node.index()]
    }

    /// The node's distinct dependents across all items (its push
    /// connections).
    pub fn dependents(&self, node: NodeIdx) -> &BTreeSet<NodeIdx> {
        &self.child_set[node.index()]
    }

    /// Number of distinct dependents of `node`.
    pub fn n_dependents(&self, node: NodeIdx) -> usize {
        self.child_set[node.index()].len()
    }

    /// All distinct parents of `node` across items, ascending (used by the
    /// augmentation cascade's "ask one of its parents" step).
    pub fn parents(&self, node: NodeIdx) -> &[NodeIdx] {
        &self.parent_set[node.index()]
    }

    /// Sets a node's construction level.
    pub fn set_level(&mut self, node: NodeIdx, level: u32) {
        self.level[node.index()] = level;
    }

    /// The node's construction level (`None` before it joins).
    pub fn level(&self, node: NodeIdx) -> Option<u32> {
        let l = self.level[node.index()];
        (l != u32::MAX).then_some(l)
    }

    /// Items held by `node`, with their effective coherencies.
    pub fn items_held(&self, node: NodeIdx) -> impl Iterator<Item = (ItemId, Coherency)> + '_ {
        self.effective_row(node)
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != NOT_HELD)
            .map(|(i, &c)| (ItemId(i as u32), Coherency::new(c)))
    }

    /// Depth of `node` in `item`'s tree (edges from the source), or `None`
    /// if the node doesn't hold the item.
    pub fn depth_in_item_tree(&self, node: NodeIdx, item: ItemId) -> Option<usize> {
        if node.is_source() {
            return Some(0);
        }
        self.effective(node, item)?;
        let mut cur = node;
        let mut depth = 0usize;
        while let Some(p) = self.parent_of(cur, item) {
            depth += 1;
            assert!(depth <= self.n_nodes, "cycle in d3t for {item}");
            if p.is_source() {
                return Some(depth);
            }
            cur = p;
        }
        None
    }

    /// Shape statistics for one item's tree.
    pub fn d3t_stats(&self, item: ItemId) -> D3tStats {
        self.walk_tree(item, &mut Vec::new(), &mut Vec::new())
    }

    /// [`D3g::d3t_stats`] from one breadth-first walk down the child lists
    /// (every holder has one parent, so the walk meets each once and the
    /// level count is the longest path). `level` and `below` are scratch.
    fn walk_tree(
        &self,
        item: ItemId,
        level: &mut Vec<NodeIdx>,
        below: &mut Vec<NodeIdx>,
    ) -> D3tStats {
        let mut stats = D3tStats { n_nodes: 1, depth: 0, max_fanout: 0 };
        level.clear();
        level.push(SOURCE);
        loop {
            below.clear();
            for &node in level.iter() {
                let children = self.children_of(node, item);
                stats.max_fanout = stats.max_fanout.max(children.len());
                below.extend_from_slice(children);
            }
            if below.is_empty() {
                return stats;
            }
            stats.n_nodes += below.len();
            stats.depth += 1;
            std::mem::swap(level, below);
        }
    }

    /// The maximum tree depth over all items — the paper's "diameter of
    /// the repository layout network" measured in overlay hops from the
    /// source (their chain of 100 repositories has diameter ~101).
    pub fn max_depth(&self) -> usize {
        self.depth_summary().0
    }

    /// Mean tree depth over items (counting only items someone holds).
    pub fn mean_depth(&self) -> f64 {
        self.depth_summary().1
    }

    /// [`D3g::max_depth`] and [`D3g::mean_depth`] from one sweep over the
    /// item trees.
    pub fn depth_summary(&self) -> (usize, f64) {
        let (mut max, mut sum, mut held) = (0usize, 0usize, 0usize);
        let (mut level, mut below) = (Vec::new(), Vec::new());
        for i in 0..self.n_items {
            let depth = self.walk_tree(ItemId(i as u32), &mut level, &mut below).depth;
            max = max.max(depth);
            if depth > 0 {
                sum += depth;
                held += 1;
            }
        }
        (max, if held == 0 { 0.0 } else { sum as f64 / held as f64 })
    }

    /// Checks every structural invariant; returns a description of the
    /// first violation found.
    pub fn validate(&self, max_dependents: Option<usize>) -> Result<(), String> {
        // Source holds everything exactly.
        for i in 0..self.n_items {
            if self.effective(SOURCE, ItemId(i as u32)) != Some(Coherency::EXACT) {
                return Err(format!("source does not hold item#{i} exactly"));
            }
        }
        for item_i in 0..self.n_items {
            let item = ItemId(item_i as u32);
            for node_i in 1..self.n_nodes {
                let node = NodeIdx(node_i as u32);
                let (held, parent) = (self.effective(node, item), self.parent_of(node, item));
                match (held, parent) {
                    (None, Some(p)) => {
                        return Err(format!("{node} has parent {p} for {item} but no effective c"))
                    }
                    (Some(c), Some(p)) => {
                        let pc = self
                            .effective(p, item)
                            .ok_or_else(|| format!("parent {p} of {node} lacks {item}"))?;
                        if !pc.at_least_as_stringent_as(c) {
                            return Err(format!(
                                "Eq.(1) violated on {p}->{node} for {item}: {pc} > {c}"
                            ));
                        }
                        if !self.children_of(p, item).contains(&node) {
                            return Err(format!("{p} missing child link to {node} for {item}"));
                        }
                        if self.depth_in_item_tree(node, item).is_none() {
                            return Err(format!("{node} unreachable from source for {item}"));
                        }
                    }
                    (Some(_), None) => {
                        return Err(format!("{node} holds {item} but has no parent"));
                    }
                    (None, None) => {}
                }
            }
            // children lists must mirror parent pointers
            for node_i in 0..self.n_nodes {
                let node = NodeIdx(node_i as u32);
                for &ch in self.children_of(node, item) {
                    if self.parent_of(ch, item) != Some(node) {
                        return Err(format!("dangling child {ch} under {node} for {item}"));
                    }
                }
            }
        }
        if let Some(cap) = max_dependents {
            for node_i in 0..self.n_nodes {
                let node = NodeIdx(node_i as u32);
                if self.n_dependents(node) > cap {
                    return Err(format!(
                        "{node} has {} dependents, exceeding cap {cap}",
                        self.n_dependents(node)
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: f64) -> Coherency {
        Coherency::new(v)
    }

    #[test]
    fn flat_graph_wires_source_to_all() {
        let w =
            Workload::from_needs(vec![vec![Some(c(0.1)), None], vec![Some(c(0.2)), Some(c(0.3))]]);
        let g = D3g::flat(&w);
        assert_eq!(g.parent_of(NodeIdx::repo(0), ItemId(0)), Some(SOURCE));
        assert_eq!(g.parent_of(NodeIdx::repo(1), ItemId(1)), Some(SOURCE));
        assert_eq!(g.parent_of(NodeIdx::repo(0), ItemId(1)), None);
        assert_eq!(g.n_dependents(SOURCE), 2);
        assert!(g.validate(None).is_ok());
        assert_eq!(g.max_depth(), 1);
    }

    #[test]
    fn add_edge_tracks_children_and_effective() {
        let mut g = D3g::new(2, 1);
        let (r0, r1) = (NodeIdx::repo(0), NodeIdx::repo(1));
        g.add_edge(SOURCE, r0, ItemId(0), c(0.1));
        g.add_edge(r0, r1, ItemId(0), c(0.5));
        assert_eq!(g.effective(r0, ItemId(0)), Some(c(0.1)));
        assert_eq!(g.effective(r1, ItemId(0)), Some(c(0.5)));
        assert_eq!(g.children_of(r0, ItemId(0)), &[r1]);
        assert_eq!(g.parents(r1), vec![r0]);
        assert_eq!(g.depth_in_item_tree(r1, ItemId(0)), Some(2));
        assert!(g.validate(Some(1)).is_ok());
    }

    #[test]
    #[should_panic(expected = "Eq.(1) violated")]
    fn add_edge_rejects_less_stringent_parent() {
        let mut g = D3g::new(2, 1);
        let (r0, r1) = (NodeIdx::repo(0), NodeIdx::repo(1));
        g.add_edge(SOURCE, r0, ItemId(0), c(0.5));
        g.add_edge(r0, r1, ItemId(0), c(0.1)); // child tighter than parent
    }

    #[test]
    #[should_panic(expected = "already has a parent")]
    fn add_edge_rejects_second_parent_for_item() {
        let mut g = D3g::new(2, 1);
        let r0 = NodeIdx::repo(0);
        g.add_edge(SOURCE, r0, ItemId(0), c(0.5));
        let r1 = NodeIdx::repo(1);
        g.add_edge(SOURCE, r1, ItemId(0), c(0.5));
        g.add_edge(r1, r0, ItemId(0), c(0.5));
    }

    #[test]
    fn tighten_effective_only_tightens() {
        let mut g = D3g::new(1, 1);
        let r0 = NodeIdx::repo(0);
        g.tighten_effective(r0, ItemId(0), c(0.5));
        g.tighten_effective(r0, ItemId(0), c(0.2));
        g.tighten_effective(r0, ItemId(0), c(0.9));
        assert_eq!(g.effective(r0, ItemId(0)), Some(c(0.2)));
    }

    #[test]
    fn d3t_stats_of_chain() {
        let mut g = D3g::new(3, 1);
        let item = ItemId(0);
        g.add_edge(SOURCE, NodeIdx::repo(0), item, c(0.1));
        g.add_edge(NodeIdx::repo(0), NodeIdx::repo(1), item, c(0.2));
        g.add_edge(NodeIdx::repo(1), NodeIdx::repo(2), item, c(0.3));
        let s = g.d3t_stats(item);
        assert_eq!(s.n_nodes, 4);
        assert_eq!(s.depth, 3);
        assert_eq!(s.max_fanout, 1);
        assert_eq!(g.max_depth(), 3);
        assert_eq!(g.mean_depth(), 3.0);
    }

    #[test]
    fn parents_are_distinct_and_ascending() {
        let mut g = D3g::new(3, 3);
        let (r0, r1, r2) = (NodeIdx::repo(0), NodeIdx::repo(1), NodeIdx::repo(2));
        for item in 0..3 {
            g.add_edge(SOURCE, r0, ItemId(item), c(0.1));
            g.add_edge(SOURCE, r1, ItemId(item), c(0.1));
        }
        assert!(g.parents(r2).is_empty());
        g.add_edge(r1, r2, ItemId(0), c(0.2));
        g.add_edge(r0, r2, ItemId(1), c(0.2));
        g.add_edge(r1, r2, ItemId(2), c(0.2));
        assert_eq!(g.parents(r2), [r0, r1]);
        assert_eq!(g.parents(r0), [SOURCE]);
        assert!(g.parents(SOURCE).is_empty());
    }

    #[test]
    fn unheld_items_read_as_none() {
        let mut g = D3g::new(2, 3);
        let r0 = NodeIdx::repo(0);
        assert_eq!(g.effective(SOURCE, ItemId(2)), Some(Coherency::EXACT));
        assert_eq!(g.effective(r0, ItemId(1)), None);
        g.add_edge(SOURCE, r0, ItemId(1), c(0.0));
        assert_eq!(g.effective(r0, ItemId(1)), Some(Coherency::EXACT));
        assert_eq!(g.items_held(r0).collect::<Vec<_>>(), [(ItemId(1), Coherency::EXACT)]);
        assert_eq!(g.items_held(NodeIdx::repo(1)).count(), 0);
    }

    #[test]
    fn depth_summary_is_max_and_mean_of_the_held_trees() {
        // Item 0: a chain of three; item 1: one edge; item 2: nobody.
        let mut g = D3g::new(3, 3);
        g.add_edge(SOURCE, NodeIdx::repo(0), ItemId(0), c(0.1));
        g.add_edge(NodeIdx::repo(0), NodeIdx::repo(1), ItemId(0), c(0.2));
        g.add_edge(NodeIdx::repo(1), NodeIdx::repo(2), ItemId(0), c(0.3));
        g.add_edge(SOURCE, NodeIdx::repo(2), ItemId(1), c(0.3));
        assert_eq!(g.depth_summary(), (3, 2.0));
        assert_eq!((g.max_depth(), g.mean_depth()), (3, 2.0));
        assert_eq!(D3g::new(2, 2).depth_summary(), (0, 0.0));
    }

    #[test]
    fn validate_catches_orphan_effective() {
        let mut g = D3g::new(1, 1);
        g.tighten_effective(NodeIdx::repo(0), ItemId(0), c(0.1));
        let err = g.validate(None).unwrap_err();
        assert!(err.contains("no parent"), "{err}");
    }

    #[test]
    fn levels_default_unset() {
        let g = D3g::new(1, 1);
        assert_eq!(g.level(SOURCE), Some(0));
        assert_eq!(g.level(NodeIdx::repo(0)), None);
    }
}
