//! The centralized (source-based) approach — §5.2 of the paper.
//!
//! The source keeps, per item, the list of **unique** coherency tolerances
//! present anywhere in the d3g, along with the last value disseminated for
//! each tolerance. On a new value `v` it checks every class (each
//! comparison is one "check" — the scan does not early-exit, so the count
//! is one evaluation per class, comparable with the per-dependent counts
//! of the other protocols), finds every tolerance `c` with
//! `|v − last_sent[c]| > c`, tags the update with the *largest* violated
//! tolerance, records `v` as the last value sent for every `c ≤ tag`, and
//! pushes the tagged update into the tree. A repository receiving a tagged
//! update forwards it to each dependent interested in the item whose
//! tolerance is ≤ the tag.
//!
//! The per-item tolerance list is state the *source* must carry for the
//! entire system — the scalability cost §6.3.4 measures (Figure 11a shows
//! ~50% more checks than the distributed approach for the same messages).
//!
//! The functions here are the **scalar oracle** half of the protocol; the
//! hot path runs the batched equivalents in
//! [`kernel`](super::kernel) ([`tag_scan`](super::kernel::tag_scan) /
//! [`tag_filter`](super::kernel::tag_filter)), property-tested
//! bit-identical to these loops.

use crate::item::ItemId;
use crate::overlay::NodeIdx;

use super::{Coherency, Disseminator, Forwarding, Update};

/// Source-side tagging: returns the largest violated tolerance (if any)
/// and the number of tolerance classes examined — always the full list,
/// one filter evaluation per class.
///
/// The list is kept sorted ascending, so the covered classes (`c ≤ tag`)
/// whose `last_sent` must refresh are exactly the prefix through the
/// largest violated index.
pub(super) fn tag_update(
    d: &mut Disseminator,
    item: ItemId,
    value: f64,
) -> (Option<Coherency>, u64) {
    let list = d.source_list_mut(item);
    let checks = list.c.len() as u64;
    let mut hit: Option<usize> = None;
    for (j, (&c, &last)) in list.c.iter().zip(list.last.iter()).enumerate() {
        if Coherency::new(c).violated_by(value, last) {
            hit = Some(j);
        }
    }
    match hit {
        None => (None, checks),
        Some(k) => {
            list.last[..=k].fill(value);
            (Some(Coherency::new(list.c[k])), checks)
        }
    }
}

/// Tag-based forwarding performed by every node on the dissemination path
/// (including the source, once the tag is computed).
pub(super) fn forward(d: &mut Disseminator, node: NodeIdx, update: Update) -> Forwarding {
    #[expect(
        clippy::expect_used,
        reason = "the source arm stamps a tag on every centralized update it emits"
    )]
    let tag = update.tag.expect("centralized updates always carry a tag");
    let mut to = Vec::new();
    let mut checks = 0u64;
    for e in d.row_range(node, update.item) {
        checks += 1;
        let edge = d.edge(e);
        if edge.c <= tag.value() {
            to.push(NodeIdx(edge.node));
        }
    }
    Forwarding { to, update, checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissemination::Protocol;
    use crate::graph::D3g;
    use crate::overlay::SOURCE;

    fn c(v: f64) -> Coherency {
        Coherency::new(v)
    }

    /// Source serving two repos directly with c = 0.1 and 0.4.
    fn star() -> D3g {
        let mut g = D3g::new(2, 1);
        g.add_edge(SOURCE, NodeIdx::repo(0), ItemId(0), c(0.1));
        g.add_edge(SOURCE, NodeIdx::repo(1), ItemId(0), c(0.4));
        g
    }

    #[test]
    fn unique_tolerance_list_is_deduplicated_and_sorted() {
        let mut g = D3g::new(3, 1);
        g.add_edge(SOURCE, NodeIdx::repo(0), ItemId(0), c(0.4));
        g.add_edge(SOURCE, NodeIdx::repo(1), ItemId(0), c(0.1));
        g.add_edge(SOURCE, NodeIdx::repo(2), ItemId(0), c(0.4));
        let d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        let list = d.source_list_pairs(ItemId(0));
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].0, c(0.1));
        assert_eq!(list[1].0, c(0.4));
    }

    #[test]
    fn tag_is_max_violated_tolerance() {
        let g = star();
        let mut d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        // 1.2 violates c=0.1 but not c=0.4 → tag 0.1, only repo 0 served.
        let f = d.on_source_update(ItemId(0), 1.2);
        assert_eq!(f.update.tag, Some(c(0.1)));
        assert_eq!(f.to, vec![NodeIdx::repo(0)]);
        // Another +0.25: repo0's last sent is 1.2 → violated; repo1's last
        // sent is still 1.0 and |1.45-1.0| > 0.4 → tag 0.4, both served.
        let f = d.on_source_update(ItemId(0), 1.45);
        assert_eq!(f.update.tag, Some(c(0.4)));
        assert_eq!(f.to, vec![NodeIdx::repo(0), NodeIdx::repo(1)]);
    }

    #[test]
    fn no_violation_means_no_dissemination() {
        let g = star();
        let mut d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        let f = d.on_source_update(ItemId(0), 1.05);
        assert!(f.to.is_empty());
        assert_eq!(f.update.tag, None);
        assert_eq!(f.checks, 2, "both tolerances examined");
    }

    #[test]
    fn tagged_update_checks_every_class_and_every_source_dependent() {
        let g = star();
        let mut d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        // 1.2 violates only c=0.1, but both classes are evaluated (no
        // early exit) plus both source-row dependents against the tag.
        let f = d.on_source_update(ItemId(0), 1.2);
        assert_eq!(f.checks, 2 + 2, "2 class checks + 2 tag comparisons");
    }

    #[test]
    fn last_sent_updates_only_for_covered_tolerances() {
        let g = star();
        let mut d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        let _ = d.on_source_update(ItemId(0), 1.2); // tag 0.1
        let list = d.source_list_pairs(ItemId(0));
        assert_eq!(list[0].1, 1.2, "c=0.1 refreshed");
        assert_eq!(list[1].1, 1.0, "c=0.4 untouched");
    }

    #[test]
    fn two_level_tag_forwarding() {
        // S → A (0.1) → B (0.4): an update tagged 0.1 reaches A but is not
        // forwarded to B; tagged 0.4 flows through.
        let mut g = D3g::new(2, 1);
        let (a, b) = (NodeIdx::repo(0), NodeIdx::repo(1));
        g.add_edge(SOURCE, a, ItemId(0), c(0.1));
        g.add_edge(a, b, ItemId(0), c(0.4));
        let mut d = Disseminator::new(Protocol::Centralized, &g, &[1.0]);
        let f = d.on_source_update(ItemId(0), 1.2);
        assert_eq!(f.update.tag, Some(c(0.1)));
        let f_a = d.on_repo_update(a, f.update);
        assert!(f_a.to.is_empty(), "tag 0.1 < c_b=0.4: B skipped");
        let f = d.on_source_update(ItemId(0), 1.5);
        assert_eq!(f.update.tag, Some(c(0.4)));
        let f_a = d.on_repo_update(a, f.update);
        assert_eq!(f_a.to, vec![b]);
    }
}
