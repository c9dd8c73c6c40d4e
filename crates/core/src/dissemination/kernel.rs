//! The batched, allocation-free dissemination check kernel.
//!
//! Every protocol decision in this crate reduces to one question asked
//! over one contiguous CSR row: *which of these candidates does the new
//! value address?* The row data is compiled flat by
//! [`Disseminator`](super::Disseminator): per edge, one interleaved
//! 24-byte [`EdgeState`] record carries the dependent's effective
//! coherency, the last value sent to it, its overlay index and the
//! edge's µs delay, so the whole decision streams one array sequentially
//! with **no gather** — the per-edge `last_sent` mirror is exactly what
//! makes the deviation check `|value − last| > threshold` a pure
//! contiguous sweep, and the per-edge delay is what lets the sender
//! schedule its sends without a lookup in an n² delay table.
//!
//! # Kernel shape
//!
//! All scans share one structure, chosen so LLVM autovectorizes the
//! predicate half without unstable `std::simd`:
//!
//! 1. **Chunked mask accumulation.** The row is walked in chunks of
//!    `LANES` (8) elements. Each chunk evaluates its predicate into a
//!    branch-free bitmask (`mask |= keep << lane`) — a fixed-trip-count
//!    loop over plain `f64` compares that compiles to vector compares plus
//!    a move-mask.
//! 2. **Sparse compaction.** Matches are rare on the steady-state path
//!    (most checks do *not* forward), so set bits are extracted with
//!    `trailing_zeros`, preserving row order, each into one [`Target`]:
//!    the dependent with its edge's delay. There is no per-element
//!    `Vec::push` and no branch on the fast all-zeroes path.
//!
//! The caller owns the output buffer through [`ForwardScratch`]; its
//! `to` vector is cleared (never freed) between events, so the
//! steady-state deliver path performs **zero heap allocations** once the
//! buffer has grown to the widest row it has seen.
//!
//! Three predicates parameterize the kernel:
//!
//! * [`deviation_scan`] — `|value − last| > c − bias + ε`: Eq. (3) with
//!   `bias = 0` (naive), Eq. (3) ∨ Eq. (7) with `bias = c_self`
//!   (distributed, see the derivation in [`super::distributed`]);
//! * [`tag_scan`] — the centralized source's per-unique-tolerance list
//!   scan: finds the largest violated tolerance and refreshes covered
//!   classes with one `fill`;
//! * [`tag_filter`] — the centralized tree filter `c_child ≤ tag`;
//! * [`flood`] — the unfiltered Figure-8 baseline (every candidate kept).
//!
//! Each scan returns the number of filter evaluations it performed — the
//! "checks" metric of Figure 11 — and every scan evaluates **exactly one
//! check per candidate** (the tag scan: one per unique tolerance class),
//! so check counts are comparable across protocols by construction.
//!
//! The branchy scalar loops these replace survive as the
//! [`Forwarding`](super::Forwarding)-returning oracle methods on
//! [`Disseminator`](super::Disseminator); `tests/kernel_properties.rs`
//! pins both paths bit-identical decision by decision.

use crate::coherency::VALUE_EPSILON;
use crate::item::ItemId;
use crate::overlay::NodeIdx;

use super::Update;

/// One CSR edge: the dependent's effective coherency, the last value
/// sent to it, its overlay index and the edge's delay, **interleaved**
/// into one 24-byte record so a whole forwarding decision — predicate
/// scan plus target extraction — streams a single array instead of four
/// parallel ones.
#[derive(Debug, Clone, Copy)]
pub struct EdgeState {
    /// The dependent's effective coherency (raw value).
    pub c: f64,
    /// The last value sent to the dependent.
    pub last: f64,
    /// The dependent's overlay node index.
    pub node: u32,
    /// One-way delay from the row's node to the dependent, µs
    /// ([`DelayMatrix::us`](crate::lela::DelayMatrix::us)) — stamped by
    /// [`Disseminator::stamp_delays`](super::Disseminator::stamp_delays)
    /// and on every repair; `0` on an unstamped disseminator. It sits in
    /// what would otherwise be the record's padding.
    pub delay_us: u32,
}

const _: () = assert!(std::mem::size_of::<EdgeState>() == 24);

impl EdgeState {
    /// The edge as a send target.
    #[inline(always)]
    fn target(&self) -> Target {
        Target { node: NodeIdx(self.node), delay_us: self.delay_us }
    }
}

/// One selected dependent and the delay of the edge the update travels
/// to it — everything the sender needs to schedule the send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// The dependent.
    pub node: NodeIdx,
    /// One-way delay of the edge to it, µs.
    pub delay_us: u32,
}

/// Chunk width of the mask-accumulate loops. Eight 64-bit lanes span two
/// AVX2 (or four SSE2) vectors — wide enough to keep the compare pipeline
/// busy, small enough that the tail loop stays trivial.
const LANES: usize = 8;

/// Caller-owned scratch for one forwarding decision — the allocation-free
/// replacement for returning a fresh [`Forwarding`](super::Forwarding)
/// per event.
///
/// Reuse one instance across events: `to` keeps its capacity between
/// [`Disseminator::on_source_update_into`](super::Disseminator::on_source_update_into)
/// / [`on_repo_update_into`](super::Disseminator::on_repo_update_into)
/// calls, so after warm-up the deliver path never touches the heap.
#[derive(Debug, Clone)]
pub struct ForwardScratch {
    /// Dependents the update must be pushed to (row order).
    pub(super) to: Vec<Target>,
    /// The update as it should be forwarded (tag attached by the source).
    pub(super) update: Update,
    /// Filter evaluations performed making this decision.
    pub(super) checks: u64,
}

impl Default for ForwardScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ForwardScratch {
    /// An empty scratch; the target buffer grows to the widest row scanned
    /// and is then reused forever.
    pub fn new() -> Self {
        Self {
            to: Vec::new(),
            update: Update { item: ItemId(0), value: 0.0, tag: None },
            checks: 0,
        }
    }

    /// Dependents selected by the last decision, in CSR row order, each
    /// with its edge's delay.
    #[inline]
    pub fn to(&self) -> &[Target] {
        &self.to
    }

    /// The update as it should be forwarded (tag preserved).
    #[inline]
    pub fn update(&self) -> Update {
        self.update
    }

    /// Filter evaluations performed by the last decision — the "checks"
    /// metric of Figure 11.
    #[inline]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Arms the scratch for a new decision: clears the target buffer
    /// (keeping capacity) and installs the outgoing update.
    #[inline]
    pub(super) fn reset(&mut self, update: Update, checks: u64) {
        self.to.clear();
        self.update = update;
        self.checks = checks;
    }
}

/// Batched deviation check over one CSR row: keeps candidate `j` iff
/// `|value − edges[j].last| > edges[j].c − bias + ε`. With `bias = 0`
/// this is Eq. (3); with `bias = c_self` it is the single-comparison
/// form of Eq. (3) ∨ Eq. (7). Selected edges are appended to `out` as
/// [`Target`]s in row order. Returns the number of checks (one per
/// candidate).
#[inline]
pub fn deviation_scan(value: f64, bias: f64, edges: &[EdgeState], out: &mut Vec<Target>) -> u64 {
    let n = edges.len();
    out.reserve(n);
    let mut base = 0usize;
    while base + LANES <= n {
        let mut mask = 0u32;
        // Fixed-trip-count, branch-free predicate loop: vectorizes to a
        // block of f64 compares (deinterleaved in registers) plus a
        // movemask.
        for lane in 0..LANES {
            let e = &edges[base + lane];
            let keep = (value - e.last).abs() > e.c - bias + VALUE_EPSILON;
            mask |= (keep as u32) << lane;
        }
        // Sparse compaction: only set bits pay for a push.
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            out.push(edges[base + lane].target());
            mask &= mask - 1;
        }
        base += LANES;
    }
    for e in &edges[base..] {
        if (value - e.last).abs() > e.c - bias + VALUE_EPSILON {
            out.push(e.target());
        }
    }
    n as u64
}

/// Batched centralized-source tag scan over the per-item unique-tolerance
/// list (sorted ascending, parallel `cs`/`lasts` arrays): finds the index
/// of the **largest violated** tolerance (branch-free max-scan), then
/// refreshes every covered class's `last` with one `fill`. Returns the
/// violated index (if any) and the number of checks — exactly one filter
/// evaluation per tolerance class, violated or not.
#[inline]
pub fn tag_scan(value: f64, cs: &[f64], lasts: &mut [f64]) -> (Option<usize>, u64) {
    debug_assert_eq!(cs.len(), lasts.len());
    let mut hit = usize::MAX;
    for (j, (&c, &last)) in cs.iter().zip(lasts.iter()).enumerate() {
        let violated = (value - last).abs() > c + VALUE_EPSILON;
        // Conditional move, not a branch: the scan touches every class.
        hit = if violated { j } else { hit };
    }
    if hit == usize::MAX {
        (None, cs.len() as u64)
    } else {
        // The list is sorted ascending and deduplicated, so the covered
        // classes (`c ≤ tag`) are exactly the prefix through `hit`.
        lasts[..=hit].fill(value);
        (Some(hit), cs.len() as u64)
    }
}

/// Batched centralized tree filter: keeps candidate `j` iff
/// `edges[j].c ≤ tag`. Same chunked mask-accumulate shape as
/// [`deviation_scan`]; returns one check per candidate.
#[inline]
pub fn tag_filter(tag: f64, edges: &[EdgeState], out: &mut Vec<Target>) -> u64 {
    let n = edges.len();
    out.reserve(n);
    let mut base = 0usize;
    while base + LANES <= n {
        let mut mask = 0u32;
        for lane in 0..LANES {
            let keep = edges[base + lane].c <= tag;
            mask |= (keep as u32) << lane;
        }
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            out.push(edges[base + lane].target());
            mask &= mask - 1;
        }
        base += LANES;
    }
    for e in &edges[base..] {
        if e.c <= tag {
            out.push(e.target());
        }
    }
    n as u64
}

/// The unfiltered Figure-8 baseline: every candidate is kept. Still one
/// check per candidate, so flood rows are comparable on the checks axis.
#[inline]
pub fn flood(edges: &[EdgeState], out: &mut Vec<Target>) -> u64 {
    out.extend(edges.iter().map(EdgeState::target));
    edges.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An edge whose delay is derived from its node, so every test below
    /// also checks each target carries its own edge's delay.
    fn edge(c: f64, last: f64, node: u32) -> EdgeState {
        EdgeState { c, last, node, delay_us: 1000 + 7 * node }
    }

    fn target(e: &EdgeState) -> Target {
        Target { node: NodeIdx(e.node), delay_us: 1000 + 7 * e.node }
    }

    /// Row longer than one chunk with matches in chunk body, chunk seam,
    /// and scalar tail; order must be preserved.
    #[test]
    fn deviation_scan_matches_scalar_on_seams() {
        let n = 21; // 2 full chunks + 5 tail
        let edges: Vec<EdgeState> = (0..n)
            .map(|j| edge(0.05 + (j % 7) as f64 * 0.02, 1.0 + j as f64 * 0.01, j as u32 + 1))
            .collect();
        for (value, bias) in [(1.07, 0.0), (1.13, 0.02), (0.5, 0.0), (1.0, 0.05)] {
            let mut out = Vec::new();
            let checks = deviation_scan(value, bias, &edges, &mut out);
            assert_eq!(checks, n as u64);
            let expected: Vec<Target> = (0..n)
                .filter(|&j| (value - edges[j].last).abs() > edges[j].c - bias + VALUE_EPSILON)
                .map(|j| target(&edges[j]))
                .collect();
            assert_eq!(out, expected, "value {value} bias {bias}");
        }
    }

    #[test]
    fn deviation_scan_appends_after_reset_not_into_garbage() {
        let mut out = vec![Target { node: NodeIdx(99), delay_us: 0 }];
        out.clear();
        let edges: Vec<EdgeState> = [7, 8, 9].iter().map(|&n| edge(0.5, 1.0, n)).collect();
        let checks = deviation_scan(2.0, 0.0, &edges, &mut out);
        assert_eq!(checks, 3);
        assert_eq!(out, edges.iter().map(target).collect::<Vec<_>>());
    }

    #[test]
    fn tag_scan_finds_largest_violated_and_fills_prefix() {
        // Sorted classes 0.1 / 0.3 / 0.8 all at last 1.0; value 1.5
        // violates 0.1 and 0.3 but not 0.8.
        let cs = [0.1, 0.3, 0.8];
        let mut lasts = [1.0, 1.0, 1.0];
        let (hit, checks) = tag_scan(1.5, &cs, &mut lasts);
        assert_eq!(hit, Some(1), "largest violated class is 0.3");
        assert_eq!(checks, 3, "every class is checked, violated or not");
        assert_eq!(lasts, [1.5, 1.5, 1.0], "covered prefix refreshed, rest untouched");
    }

    #[test]
    fn tag_scan_without_violation_checks_every_class() {
        let cs = [0.1, 0.3];
        let mut lasts = [1.0, 1.0];
        let (hit, checks) = tag_scan(1.05, &cs, &mut lasts);
        assert_eq!(hit, None);
        assert_eq!(checks, 2);
        assert_eq!(lasts, [1.0, 1.0]);
    }

    #[test]
    fn tag_filter_keeps_covered_children_in_row_order() {
        let n = 19;
        let edges: Vec<EdgeState> =
            (0..n).map(|j| edge((j % 5) as f64 * 0.1, 0.0, j as u32 + 1)).collect();
        let mut out = Vec::new();
        let checks = tag_filter(0.2, &edges, &mut out);
        assert_eq!(checks, n as u64);
        let expected: Vec<Target> =
            (0..n).filter(|&j| edges[j].c <= 0.2).map(|j| target(&edges[j])).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn flood_keeps_everything_and_counts_every_candidate() {
        let mut out = Vec::new();
        let edges: Vec<EdgeState> = [3, 1, 2].iter().map(|&n| edge(0.1, 0.0, n)).collect();
        assert_eq!(flood(&edges, &mut out), 3);
        assert_eq!(out, edges.iter().map(target).collect::<Vec<_>>());
    }
}
