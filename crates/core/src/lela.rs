//! LeLA — the Level-by-Level Algorithm (§4 of the paper).
//!
//! Repositories join the overlay one at a time. For a joiner `q`, the
//! levels of the current d3g are scanned starting at the source (level 0).
//! At each level a *load controller* computes a **preference factor** for
//! every repository with spare push connections; all candidates within
//! `P%` (default 5%) of the minimum become potential parents of `q`. Each
//! data item `q` needs is assigned to the most preferred candidate that
//! already holds it at sufficient stringency; items nobody can serve are
//! assigned to the most preferred candidate overall, *augmenting* that
//! parent's data needs — a cascade that may propagate new requirements all
//! the way to the source ("this is continued all the way up the d3g till
//! there is a path from the source to q for those data-items").
//!
//! The preference factor combines (§4):
//! 1. data availability (more servable items → more preferred),
//! 2. computational delay, approximated by the parent's dependent count,
//! 3. communication delay between parent and joiner.
//!
//! `P1 = comm · (1 + ndeps) / (1 + navail)`; the alternative `P2` of
//! §6.3.3 drops the availability term. Figure 10 shows the choice barely
//! matters once the degree of cooperation is controlled — which this
//! implementation reproduces.
//!
//! The communication delays are a [`DelayMatrix`]: the shortest-path
//! delays among the overlay nodes, index 0 the source. LeLA reads it in
//! ms; the engine reads its one-time rounding into µs, [`DelayMicros`].
//!
//! # The scoring kernel
//!
//! Scoring is candidates × items per join — the quadratic half of the
//! build — so it runs over dense rows rather than per-cell lookups:
//!
//! * the d3g keeps its effective coherencies as one flat
//!   `n_nodes × n_items` `f64` table, `+∞` where a node does not hold an
//!   item; the joiner's needs are scattered once per join into a dense
//!   `want` row, `−∞` where it wants nothing. Tolerances are finite and
//!   `≥ 0`, so "candidate holds the item at least as stringently as the
//!   joiner needs it" is exactly `eff[i] <= want[i]` — false against
//!   either sentinel — and `navail` is a branch-free count over two
//!   slices;
//! * the candidates' communication delays are gathered in a loop of their
//!   own before any scoring, so the cache misses of that strided read
//!   overlap instead of serialising behind each candidate's row scan;
//! * only the band is sorted: the minimum is found in one pass, the
//!   candidates within `P%` of it are kept, and those few are ordered by
//!   `(preference, node)` — a total key, so the band and its order are
//!   what sorting every candidate would give.
//!
//! The delay is always read as `delay_ms(candidate, joiner)`, never as
//! `delay_ms(joiner, candidate)` even though that would be one contiguous
//! row: a [`DelayMatrix`] is symmetric only to within `1e-9`, the two
//! cells of a pair routinely differ in their last bits, and a last-bit
//! difference in a preference factor can reorder the band and so change
//! the d3g.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::coherency::Coherency;
use crate::graph::D3g;
use crate::item::ItemId;
use crate::overlay::{NodeIdx, SOURCE};
use crate::workload::Workload;

/// Which preference-factor formula the load controller uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PreferenceFunction {
    /// `comm(p,q) · (1 + ndeps(p)) / (1 + navail(p,q))` — the paper's
    /// default, rewarding data availability.
    P1,
    /// `comm(p,q) · (1 + ndeps(p))` — the §6.3.3 alternative that ignores
    /// availability.
    P2,
}

/// The order in which repositories join the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinOrder {
    /// Seeded uniform shuffle (the default; the paper inserts repositories
    /// as they "wish to enter the network").
    Random,
    /// Repository 0, 1, 2, … in workload order.
    Sequential,
    /// Most stringent repositories first — an ablation of §5's observation
    /// that stringent repositories should sit near the source.
    StringentFirst,
}

/// LeLA parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LelaConfig {
    /// Maximum distinct dependents any node (including the source) will
    /// serve — the degree of cooperation.
    pub coop_degree: usize,
    /// Candidate band: parents within `pref_band_pct` percent of the
    /// minimum preference are considered (paper default 5%).
    pub pref_band_pct: f64,
    /// Preference formula.
    pub pref_fn: PreferenceFunction,
    /// Join order policy.
    pub join_order: JoinOrder,
    /// Seed for the join shuffle and random parent choice during
    /// augmentation.
    pub seed: u64,
}

impl LelaConfig {
    /// Paper defaults: 5% band, P1, random join order.
    pub fn new(coop_degree: usize, seed: u64) -> Self {
        assert!(coop_degree >= 1, "degree of cooperation must be at least 1");
        Self {
            coop_degree,
            pref_band_pct: 5.0,
            pref_fn: PreferenceFunction::P1,
            join_order: JoinOrder::Random,
            seed,
        }
    }
}

/// A dense symmetric matrix of one-way communication delays (ms) over
/// the overlay nodes: overlay index 0 is the source, `i + 1` the `i`-th
/// repository.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayMatrix {
    n: usize,
    delays: Vec<f64>,
}

impl DelayMatrix {
    /// Builds from a row-major `n × n` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square, symmetric, non-negative with a
    /// zero diagonal.
    pub fn new(n: usize, delays: Vec<f64>) -> Self {
        assert_eq!(delays.len(), n * n, "matrix must be n x n");
        if !Self::is_valid(n, &delays) {
            Self::reject(n, &delays);
        }
        Self { n, delays }
    }

    /// Side of the square tiles [`Self::is_valid`] walks the matrix in:
    /// checking symmetry reads `(i, j)` and `(j, i)` together, and two
    /// 32 × 32 `f64` tiles (16 KB) stay in L1 where a whole column does not.
    const TILE: usize = 32;

    /// True when every cell is finite and `>= 0`, the diagonal is zero and
    /// mirrored cells agree to within `1e-9`. Visits each unordered pair of
    /// tiles once and accumulates one flag, so the pass has no early exit
    /// to mispredict and no column walk.
    fn is_valid(n: usize, delays: &[f64]) -> bool {
        let mut ok = true;
        for i0 in (0..n).step_by(Self::TILE) {
            let i1 = (i0 + Self::TILE).min(n);
            for j0 in (i0..n).step_by(Self::TILE) {
                let j1 = (j0 + Self::TILE).min(n);
                for i in i0..i1 {
                    let row = &delays[i * n + j0..i * n + j1];
                    for (j, &d) in (j0..j1).zip(row) {
                        let mirror = delays[j * n + i];
                        // No `is_finite`: an infinite cell fails the last
                        // test against any mirror (`∞ − ∞` is NaN), and
                        // `x >= 0.0 && x.is_finite()` compiles to a scalar
                        // bit-pattern class test three times as slow.
                        ok &= (d >= 0.0) & (mirror >= 0.0) & ((d - mirror).abs() < 1e-9);
                    }
                }
            }
            for i in i0..i1 {
                ok &= delays[i * n + i] == 0.0;
            }
        }
        ok
    }

    /// The cell-by-cell checks behind [`Self::new`]'s panics, run only on
    /// a matrix [`Self::is_valid`] refused: names the first offence in
    /// row-major order.
    #[cold]
    fn reject(n: usize, delays: &[f64]) -> ! {
        for i in 0..n {
            assert_eq!(delays[i * n + i], 0.0, "diagonal must be zero");
            for j in 0..n {
                let d = delays[i * n + j];
                assert!(d >= 0.0 && d.is_finite(), "delays must be finite and >= 0");
                assert!((d - delays[j * n + i]).abs() < 1e-9, "matrix must be symmetric");
            }
        }
        unreachable!("a refused matrix fails one of the cell checks");
    }

    /// A uniform matrix where every distinct pair is `d` ms apart.
    pub fn uniform(n: usize, d: f64) -> Self {
        let mut m = vec![d; n * n];
        for i in 0..n {
            m[i * n + i] = 0.0;
        }
        Self::new(n, m)
    }

    /// Number of overlay nodes covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Expected one-way communication delay between two overlay nodes, ms.
    pub fn delay_ms(&self, a: NodeIdx, b: NodeIdx) -> f64 {
        self.delays[a.index() * self.n + b.index()]
    }

    /// The delays out of `a`, ms, indexed by destination.
    pub fn row_ms(&self, a: NodeIdx) -> &[f64] {
        &self.delays[a.index() * self.n..][..self.n]
    }

    /// Mean delay over the unordered pairs `i < j` — the paper's "average
    /// node-node delay", which feeds Eq. (2). `0.0` for fewer than two
    /// nodes.
    pub fn mean_delay_ms(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                sum += self.delays[i * self.n + j];
            }
        }
        sum / (self.n * (self.n - 1) / 2) as f64
    }

    /// Multiplies every cell by `target_ms / mean_delay_ms()`, so that the
    /// mean becomes `target_ms` — how the communication-delay sweeps
    /// (Figures 5, 7b) set their x-axis. Shortest paths are invariant
    /// under uniform scaling, so no path is recomputed.
    ///
    /// # Panics
    /// Panics if `target_ms` is not positive, if the mean is zero, or if
    /// the scaled matrix fails [`Self::new`]'s checks.
    pub fn scale_to_mean_delay(&mut self, target_ms: f64) {
        assert!(target_ms > 0.0, "target delay must be positive");
        let current = self.mean_delay_ms();
        assert!(current > 0.0, "cannot rescale a zero-delay network");
        let factor = target_ms / current;
        assert!(factor > 0.0 && factor.is_finite(), "scale factor must be positive");
        for d in &mut self.delays {
            *d *= factor;
        }
        if !Self::is_valid(self.n, &self.delays) {
            Self::reject(self.n, &self.delays);
        }
    }
}

/// A flat `n × n` matrix of one-way delays in **integer microseconds** —
/// the discrete-event engine's scheduling currency.
///
/// Built once per run from the [`DelayMatrix`]: each pair's
/// float delay is rounded to µs exactly once here, so the event loop does
/// pure integer arithmetic with no per-event `f64 ↔ u64` round-trips (and
/// is therefore bit-deterministic by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayMicros {
    n: usize,
    /// `u32` cells, not `u64`: the matrix is the event loop's largest
    /// gather target (n² entries touched once per message), so halving
    /// the cell halves the cache lines the sends stream through. 2³² µs
    /// is ~71 minutes of one-way delay — far beyond any physical
    /// configuration; construction asserts the fit.
    us: Vec<u32>,
    /// The smallest off-diagonal cell, recorded while rounding.
    min_offdiag_us: u64,
}

impl DelayMicros {
    /// Rounds every pair of `delays` into µs. `n` is the overlay size.
    pub fn from_delays(delays: &DelayMatrix, n: usize) -> Self {
        let mut us = vec![0u32; n * n];
        let mut min_offdiag_us = u32::MAX;
        let min_of = |cells: &[u32]| cells.iter().copied().min().unwrap_or(u32::MAX);
        for (a, row) in us.chunks_exact_mut(n.max(1)).enumerate() {
            let ms = &delays.row_ms(NodeIdx(a as u32))[..n];
            if !Self::round_row(ms, row) {
                Self::reject_row(ms, a);
            }
            min_offdiag_us = min_offdiag_us.min(min_of(&row[..a])).min(min_of(&row[a + 1..]));
        }
        let min_offdiag_us = if n < 2 { u64::MAX } else { u64::from(min_offdiag_us) };
        Self { n, us, min_offdiag_us }
    }

    /// Rounds one row of ms delays into its µs cells; false when some
    /// delay is not finite, negative or too large for a cell (the cells
    /// are then garbage). One flag per row instead of two asserts per
    /// cell keeps the loop free of calls and branches.
    fn round_row(ms: &[f64], us: &mut [u32]) -> bool {
        /// `ms * 1000.0` rounds (half away from zero) into a `u32` exactly
        /// when it is below this.
        const LIMIT: f64 = u32::MAX as f64 + 0.5;
        /// 2^52: adding it to `0 <= x < 2^52` rounds `x` to an integer
        /// (ties to even) held in the sum's low mantissa bits.
        const TWO_52: f64 = 4_503_599_627_370_496.0;
        let mut ok = true;
        for (cell, &ms) in us.iter_mut().zip(ms) {
            let x = ms * 1000.0;
            ok &= ms >= 0.0 && x < LIMIT;
            // `x.round() as u32` for `0 <= x < LIMIT` in plain arithmetic
            // the compiler vectorises (`round` is a libm call, `as u32` a
            // scalar conversion): round to even, step up the ties that
            // went down — `x - even` is exact — and read the integer out
            // of the mantissa.
            let even = (x + TWO_52) - TWO_52;
            let away = even + f64::from(u8::from(x - even >= 0.5));
            *cell = (away + TWO_52).to_bits() as u32;
        }
        ok
    }

    /// The per-cell checks behind [`Self::from_delays`]'s panics, run only
    /// on a row (the delays out of node `a`) that [`Self::round_row`]
    /// refused.
    #[cold]
    fn reject_row(ms: &[f64], a: usize) -> ! {
        for (b, &ms) in ms.iter().enumerate() {
            assert!(
                ms.is_finite() && ms >= 0.0,
                "overlay delay {a}->{b} must be finite and >= 0, got {ms}"
            );
            let rounded = (ms * 1000.0).round() as u64;
            assert!(
                rounded <= u32::MAX as u64,
                "overlay delay {a}->{b} of {ms} ms exceeds the u32-µs cell (~71 min)"
            );
        }
        unreachable!("a refused row fails one of the cell checks");
    }

    /// One-way delay between two overlay nodes, µs.
    #[inline]
    pub fn us(&self, a: NodeIdx, b: NodeIdx) -> u64 {
        u64::from(self.us[a.index() * self.n + b.index()])
    }

    /// All one-way delays out of `a` in µs, indexed by destination —
    /// lets a sender's fan-out loop hoist the row lookup.
    #[inline]
    pub fn row(&self, a: NodeIdx) -> &[u32] {
        &self.us[a.index() * self.n..(a.index() + 1) * self.n]
    }

    /// Hints the CPU to pull the `a → b` delay cell — lets an event loop
    /// that already knows its recipients overlap the matrix gather with
    /// unrelated work. No-op off x86-64; never faults.
    #[inline]
    pub fn prefetch(&self, a: NodeIdx, b: NodeIdx) {
        crate::prefetch::read(&self.us[a.index() * self.n + b.index()]);
    }

    /// The smallest delay between two *distinct* overlay nodes, µs
    /// (`u64::MAX` for a 0/1-node overlay). A lower bound on how far in
    /// the future any transmission can land — what lets the simulator
    /// pop a short run of already-ordered events ahead of time.
    pub fn min_offdiag_us(&self) -> u64 {
        self.min_offdiag_us
    }

    /// Number of overlay nodes covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Runs LeLA over the whole workload and returns the constructed d3g.
///
/// Every repository in the workload joins (in the configured order); the
/// result satisfies all [`D3g::validate`] invariants with the configured
/// dependent cap.
pub fn build_d3g(workload: &Workload, delays: &DelayMatrix, cfg: &LelaConfig) -> D3g {
    let mut builder = LelaBuilder::new(workload, delays, cfg);
    for repo in join_order(workload, cfg) {
        builder.join(repo);
    }
    builder.finish()
}

fn join_order(workload: &Workload, cfg: &LelaConfig) -> Vec<usize> {
    let mut order: Vec<usize> = (0..workload.n_repos()).collect();
    match cfg.join_order {
        JoinOrder::Sequential => {}
        JoinOrder::Random => {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
        }
        JoinOrder::StringentFirst => {
            order.sort_by(|&a, &b| {
                let ca = workload.items_of(a).map(|(_, c)| c).min();
                let cb = workload.items_of(b).map(|(_, c)| c).min();
                ca.cmp(&cb).then_with(|| a.cmp(&b))
            });
        }
    }
    order
}

/// Incremental LeLA state, exposed so examples can narrate insertions one
/// repository at a time.
pub struct LelaBuilder<'a> {
    workload: &'a Workload,
    delays: &'a DelayMatrix,
    cfg: LelaConfig,
    g: D3g,
    /// `levels[l]` = overlay nodes at level `l` (level 0 = the source).
    levels: Vec<Vec<NodeIdx>>,
    /// The first level that may still have spare capacity. A node's
    /// dependent count never falls and a joiner lands one below the first
    /// level with room, so every level above this one is full for good.
    open_level: usize,
    rng: StdRng,
    /// Per-join buffers, owned here so a join allocates nothing:
    /// the joiner's needs as a list and as a dense row over all items
    /// (`−∞` = not wanted, see the module docs),
    wanted: Vec<(ItemId, Coherency)>,
    want: Vec<f64>,
    /// the open level's nodes with spare capacity and their delays to the
    /// joiner,
    candidates: Vec<NodeIdx>,
    comm: Vec<f64>,
    /// and every candidate's `(preference, node)`, cut down to the sorted
    /// band.
    scores: Vec<(f64, NodeIdx)>,
    /// How many scores have been checked against [`Self::preference`].
    #[cfg(test)]
    scores_checked: usize,
}

impl<'a> LelaBuilder<'a> {
    /// A builder with only the source placed.
    pub fn new(workload: &'a Workload, delays: &'a DelayMatrix, cfg: &LelaConfig) -> Self {
        Self {
            workload,
            delays,
            cfg: *cfg,
            g: D3g::new(workload.n_repos(), workload.n_items()),
            levels: vec![vec![SOURCE]],
            open_level: 0,
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            wanted: Vec::new(),
            want: vec![f64::NEG_INFINITY; workload.n_items()],
            candidates: Vec::new(),
            comm: Vec::new(),
            scores: Vec::new(),
            #[cfg(test)]
            scores_checked: 0,
        }
    }

    /// Inserts repository `repo` (0-based workload index) into the d3g.
    ///
    /// Returns the level the repository was placed at.
    pub fn join(&mut self, repo: usize) -> u32 {
        let q = NodeIdx::repo(repo);
        assert!(self.g.level(q).is_none(), "repository {repo} already joined");
        self.wanted.clear();
        self.wanted.extend(self.workload.items_of(repo));
        assert!(!self.wanted.is_empty(), "repository {repo} has no data needs");

        loop {
            assert!(
                self.open_level < self.levels.len(),
                "LeLA invariant broken: ran out of levels with spare capacity"
            );
            let (g, degree) = (&self.g, self.cfg.coop_degree);
            self.candidates.clear();
            self.candidates.extend(
                self.levels[self.open_level].iter().filter(|&&p| g.n_dependents(p) < degree),
            );
            if !self.candidates.is_empty() {
                break;
            }
            self.open_level += 1;
        }
        self.attach(q);
        let q_level = self.open_level + 1;
        self.g.set_level(q, q_level as u32);
        if self.levels.len() == q_level {
            self.levels.push(Vec::new());
        }
        self.levels[q_level].push(q);
        q_level as u32
    }

    /// Scores `self.candidates` for joiner `q`, leaving the preference
    /// band in `self.scores`, most preferred first (smaller = more
    /// preferred). See the module docs for the kernel's shape.
    fn score_band(&mut self, q: NodeIdx) {
        self.want.fill(f64::NEG_INFINITY);
        for &(item, c) in &self.wanted {
            self.want[item.index()] = c.value();
        }
        self.comm.clear();
        self.comm.extend(
            self.candidates.iter().map(|&p| self.delays.delay_ms(p, q).max(f64::MIN_POSITIVE)),
        );
        let (g, want) = (&self.g, &self.want);
        self.scores.clear();
        self.scores.extend(self.candidates.iter().zip(&self.comm).map(|(&p, &comm)| {
            let ndeps = g.n_dependents(p) as f64;
            let pref = match self.cfg.pref_fn {
                PreferenceFunction::P1 => {
                    let navail =
                        g.effective_row(p).iter().zip(want).filter(|&(eff, want)| eff <= want);
                    comm * (1.0 + ndeps) / (1.0 + navail.count() as f64)
                }
                PreferenceFunction::P2 => comm * (1.0 + ndeps),
            };
            (pref, p)
        }));
        #[cfg(test)]
        for &(pref, p) in &self.scores {
            let reference = self.preference(p, q, &self.wanted);
            assert_eq!(pref.to_bits(), reference.to_bits(), "preference of {p} for {q}");
            self.scores_checked += 1;
        }

        // Preferences are positive and never NaN (`comm` is clamped to the
        // smallest positive float), so the numeric minimum is the first
        // key a full sort would produce.
        let min_pref = self.scores.iter().fold(f64::INFINITY, |min, s| min.min(s.0));
        let band_limit = min_pref * (1.0 + self.cfg.pref_band_pct / 100.0);
        self.scores.retain(|s| s.0 <= band_limit);
        self.scores.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }

    /// Chooses parents among `self.candidates` and wires all of `q`'s
    /// items.
    fn attach(&mut self, q: NodeIdx) {
        self.score_band(q);
        let most_preferred = self.scores[0].1;
        // Assign each wanted item to the most preferred band member that
        // can already serve it, else augment the most preferred overall.
        // Wiring one item touches only that item's column of the d3g, so
        // it cannot change who serves the next.
        for k in 0..self.wanted.len() {
            let (item, c) = self.wanted[k];
            let server = self.scores.iter().map(|s| s.1).find(|&p| {
                self.g.effective(p, item).is_some_and(|pc| pc.at_least_as_stringent_as(c))
            });
            let parent = server.unwrap_or(most_preferred);
            self.ensure_serves(parent, item, c);
            self.g.add_edge(parent, q, item, c);
        }
    }

    /// The preference factor as LeLA computed it before the dense kernel,
    /// one `Option` probe per wanted item: the reference every score of
    /// every join is checked against, bit for bit, under test.
    #[cfg(test)]
    fn preference(&self, p: NodeIdx, q: NodeIdx, wanted: &[(ItemId, Coherency)]) -> f64 {
        let comm = self.delays.delay_ms(p, q).max(f64::MIN_POSITIVE);
        let ndeps = self.g.n_dependents(p) as f64;
        match self.cfg.pref_fn {
            PreferenceFunction::P1 => {
                let navail = wanted
                    .iter()
                    .filter(|&&(item, c)| {
                        self.g.effective(p, item).is_some_and(|pc| pc.at_least_as_stringent_as(c))
                    })
                    .count() as f64;
                comm * (1.0 + ndeps) / (1.0 + navail)
            }
            PreferenceFunction::P2 => comm * (1.0 + ndeps),
        }
    }

    /// Augmentation cascade: guarantee that `node` holds `item` at
    /// stringency ≤ `c` with a service path from the source.
    ///
    /// If the node already receives the item but too loosely, its own (and
    /// transitively its ancestors') effective requirement is tightened. If
    /// it does not receive the item at all, one of its existing parents is
    /// asked to serve it — preferring a parent that already holds the item,
    /// else a random parent, exactly as §4 describes — recursing until an
    /// ancestor that holds the item (ultimately the source) is reached.
    fn ensure_serves(&mut self, node: NodeIdx, item: ItemId, c: Coherency) {
        if node.is_source() {
            return;
        }
        match (self.g.effective(node, item), self.g.parent_of(node, item)) {
            (Some(cur), Some(parent)) => {
                if cur.at_least_as_stringent_as(c) {
                    return; // already served stringently enough
                }
                self.g.tighten_effective(node, item, c);
                self.ensure_serves(parent, item, c);
            }
            (None, None) => {
                let parents = self.g.parents(node);
                assert!(!parents.is_empty(), "{node} has no parents to augment through");
                let parent = parents
                    .iter()
                    .copied()
                    .find(|&p| self.g.effective(p, item).is_some())
                    .unwrap_or_else(|| parents[self.rng.gen_range(0..parents.len())]);
                self.ensure_serves(parent, item, c);
                self.g.add_edge(parent, node, item, c);
            }
            (None, Some(_)) => unreachable!("parent pointer without effective coherency"),
            (Some(_), None) => {
                unreachable!("effective coherency without a parent on a non-source node")
            }
        }
    }

    /// Consumes the builder, returning the constructed graph.
    pub fn finish(self) -> D3g {
        self.g
    }

    /// Read access to the graph mid-construction.
    pub fn graph(&self) -> &D3g {
        &self.g
    }

    /// The current level population (level 0 is the source).
    pub fn levels(&self) -> &[Vec<NodeIdx>] {
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadConfig;

    fn paper_workload(n_repos: usize, n_items: usize, t: f64, seed: u64) -> Workload {
        Workload::generate(&WorkloadConfig::paper(n_repos, n_items, t), seed)
    }

    fn check(workload: &Workload, degree: usize, seed: u64) -> D3g {
        let delays = DelayMatrix::uniform(workload.n_repos() + 1, 25.0);
        let g = build_d3g(workload, &delays, &LelaConfig::new(degree, seed));
        g.validate(Some(degree)).expect("d3g invariants");
        // Every user need must be served at least as stringently as asked.
        for r in 0..workload.n_repos() {
            let node = NodeIdx::repo(r);
            for (item, c) in workload.items_of(r) {
                let eff = g.effective(node, item).expect("need unserved");
                assert!(eff.at_least_as_stringent_as(c));
                assert!(g.parent_of(node, item).is_some());
            }
        }
        // The breadth-first tree statistics agree with the parent chains.
        for i in 0..workload.n_items() {
            let item = ItemId(i as u32);
            let depths: Vec<usize> = (1..g.n_nodes())
                .filter_map(|n| g.depth_in_item_tree(NodeIdx(n as u32), item))
                .collect();
            let stats = g.d3t_stats(item);
            assert_eq!(stats.n_nodes, 1 + depths.len());
            assert_eq!(stats.depth, depths.iter().copied().max().unwrap_or(0));
        }
        g
    }

    #[test]
    fn serves_all_needs_at_various_degrees() {
        let w = paper_workload(40, 20, 50.0, 7);
        for degree in [1, 2, 4, 10, 40, 100] {
            let _ = check(&w, degree, 3);
        }
    }

    #[test]
    fn degree_one_builds_a_chain() {
        let w = paper_workload(20, 5, 50.0, 1);
        let g = check(&w, 1, 2);
        // Chain: every node has at most one dependent, so depth for some
        // item should approach the repository count.
        assert!(g.max_depth() >= 10, "depth {}", g.max_depth());
        for n in 0..=20 {
            assert!(g.n_dependents(NodeIdx(n as u32)) <= 1);
        }
    }

    #[test]
    fn huge_degree_builds_flat_tree() {
        let w = paper_workload(20, 5, 50.0, 1);
        let g = check(&w, 100, 2);
        assert_eq!(g.n_dependents(SOURCE), 20);
        assert_eq!(g.max_depth(), 1);
    }

    #[test]
    fn augmented_parents_hold_extra_items() {
        // Repo A wants item 0 only; repo B wants items 0 and 1. With
        // degree 1 and A joining first, A must be augmented to carry
        // item 1 for B.
        let w = Workload::from_needs(vec![
            vec![Some(Coherency::new(0.5)), None],
            vec![Some(Coherency::new(0.6)), Some(Coherency::new(0.3))],
        ]);
        let delays = DelayMatrix::uniform(3, 10.0);
        let cfg = LelaConfig { join_order: JoinOrder::Sequential, ..LelaConfig::new(1, 0) };
        let g = build_d3g(&w, &delays, &cfg);
        g.validate(Some(1)).unwrap();
        let a = NodeIdx::repo(0);
        assert_eq!(g.effective(a, ItemId(1)), Some(Coherency::new(0.3)));
        assert_eq!(g.parent_of(a, ItemId(1)), Some(SOURCE));
    }

    #[test]
    fn augmentation_tightens_ancestors() {
        // A wants item 0 loosely; B (served by A) wants it tightly. A's
        // effective coherency must tighten to B's.
        let w = Workload::from_needs(vec![
            vec![Some(Coherency::new(0.9))],
            vec![Some(Coherency::new(0.05))],
        ]);
        let delays = DelayMatrix::uniform(3, 10.0);
        let cfg = LelaConfig { join_order: JoinOrder::Sequential, ..LelaConfig::new(1, 0) };
        let g = build_d3g(&w, &delays, &cfg);
        g.validate(Some(1)).unwrap();
        let a = NodeIdx::repo(0);
        assert_eq!(g.effective(a, ItemId(0)), Some(Coherency::new(0.05)));
    }

    #[test]
    fn construction_is_deterministic() {
        let w = paper_workload(30, 10, 70.0, 4);
        let delays = DelayMatrix::uniform(31, 25.0);
        let cfg = LelaConfig::new(4, 11);
        assert_eq!(build_d3g(&w, &delays, &cfg), build_d3g(&w, &delays, &cfg));
    }

    #[test]
    fn stringent_first_places_tight_repos_higher() {
        let mut needs = Vec::new();
        for i in 0..12 {
            let c = if i < 6 { 0.01 + 0.001 * i as f64 } else { 0.5 + 0.01 * i as f64 };
            needs.push(vec![Some(Coherency::new(c))]);
        }
        let w = Workload::from_needs(needs);
        let delays = DelayMatrix::uniform(13, 25.0);
        let cfg = LelaConfig { join_order: JoinOrder::StringentFirst, ..LelaConfig::new(2, 0) };
        let g = build_d3g(&w, &delays, &cfg);
        g.validate(Some(2)).unwrap();
        let mean_level = |range: std::ops::Range<usize>| {
            range.clone().map(|r| g.level(NodeIdx::repo(r)).unwrap() as f64).sum::<f64>()
                / range.len() as f64
        };
        assert!(
            mean_level(0..6) < mean_level(6..12),
            "stringent repos should sit nearer the source"
        );
    }

    #[test]
    fn pref_band_widens_candidate_set() {
        // With a gigantic band and nonuniform delays, LeLA may split one
        // repository's needs across multiple parents. At minimum the graph
        // must stay valid.
        let w = paper_workload(25, 8, 50.0, 5);
        let n = 26;
        let mut delays = vec![0.0; n * n];
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = rng.gen_range(2.0..80.0);
                delays[i * n + j] = d;
                delays[j * n + i] = d;
            }
        }
        let dm = DelayMatrix::new(n, delays);
        for band in [1.0, 5.0, 25.0] {
            let cfg = LelaConfig { pref_band_pct: band, ..LelaConfig::new(3, 1) };
            let g = build_d3g(&w, &dm, &cfg);
            g.validate(Some(3)).unwrap();
        }
    }

    #[test]
    fn p2_preference_also_valid() {
        let w = paper_workload(30, 10, 50.0, 8);
        let delays = DelayMatrix::uniform(31, 25.0);
        let cfg = LelaConfig { pref_fn: PreferenceFunction::P2, ..LelaConfig::new(4, 1) };
        let g = build_d3g(&w, &delays, &cfg);
        g.validate(Some(4)).unwrap();
    }

    #[test]
    fn delay_matrix_mean() {
        let dm = DelayMatrix::uniform(4, 10.0);
        assert!((dm.mean_delay_ms() - 10.0).abs() < 1e-12);
        assert_eq!(dm.len(), 4);
    }

    #[test]
    fn scale_to_mean_delay_hits_target() {
        let before = ragged_delays(&mut StdRng::seed_from_u64(9), 21);
        let factor = 75.0 / before.mean_delay_ms();
        let mut dm = before.clone();
        dm.scale_to_mean_delay(75.0);
        assert!((dm.mean_delay_ms() - 75.0).abs() < 1e-9);
        // One `*=` per cell, mirrored cells included.
        for (scaled, d) in dm.delays.iter().zip(&before.delays) {
            assert_eq!(scaled.to_bits(), (d * factor).to_bits());
        }
    }

    /// A random matrix whose mirrored cells differ in their last bits, as
    /// the overlay APSP's do: symmetric to `1e-9`, not bit for bit.
    fn ragged_delays(rng: &mut StdRng, n: usize) -> DelayMatrix {
        let mut m = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d: f64 = rng.gen_range(2.0..80.0);
                m[i * n + j] = d;
                m[j * n + i] = d * (1.0 + f64::EPSILON * rng.gen_range(0..4u32) as f64);
            }
        }
        DelayMatrix::new(n, m)
    }

    /// Every score the dense kernel produces — every candidate of every
    /// join — is bit-equal to the `Option`-probing [`LelaBuilder::preference`]
    /// (asserted inside `score_band` under test; this sweep counts that
    /// the assertion ran for every candidate), across seeds × preference
    /// functions × bands × join orders × degrees.
    #[test]
    fn kernel_scores_are_bit_equal_to_the_reference() {
        let orders = [JoinOrder::Random, JoinOrder::Sequential, JoinOrder::StringentFirst];
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0x5C0_4E00 ^ seed);
            let n_repos = rng.gen_range(8..40);
            let w = paper_workload(n_repos, rng.gen_range(1..24), 50.0, seed);
            let delays = ragged_delays(&mut rng, n_repos + 1);
            for pref_fn in [PreferenceFunction::P1, PreferenceFunction::P2] {
                for pref_band_pct in [0.0, 5.0, 50.0] {
                    for join_order in orders {
                        for coop_degree in [1, 4, n_repos] {
                            let cfg = LelaConfig {
                                coop_degree,
                                pref_band_pct,
                                pref_fn,
                                join_order,
                                seed,
                            };
                            let mut builder = LelaBuilder::new(&w, &delays, &cfg);
                            let mut scored = 0;
                            for repo in super::join_order(&w, &cfg) {
                                builder.join(repo);
                                scored += builder.candidates.len();
                            }
                            assert_eq!(builder.scores_checked, scored, "seed {seed} {cfg:?}");
                            assert!(scored >= n_repos);
                            builder.finish().validate(Some(coop_degree)).unwrap();
                        }
                    }
                }
            }
        }
    }

    /// Levels above the builder's cursor are full for good, so skipping
    /// them scans the same candidates a scan from the source would.
    #[test]
    fn open_level_cursor_skips_only_full_levels() {
        let w = paper_workload(60, 6, 50.0, 3);
        let delays = DelayMatrix::uniform(61, 25.0);
        let cfg = LelaConfig::new(2, 9);
        let mut builder = LelaBuilder::new(&w, &delays, &cfg);
        for repo in super::join_order(&w, &cfg) {
            builder.join(repo);
            for level in &builder.levels[..builder.open_level] {
                assert!(level.iter().all(|&p| builder.g.n_dependents(p) == cfg.coop_degree));
            }
        }
        assert!(builder.open_level >= 4, "60 repositories at degree 2 fill the top levels");
    }

    /// What `DelayMatrix::new` panicked with before it was tiled: the first
    /// offending cell in row-major order, diagonal before the row's cells.
    fn first_offence(n: usize, m: &[f64]) -> Option<&'static str> {
        for i in 0..n {
            if m[i * n + i] != 0.0 {
                return Some("diagonal must be zero");
            }
            for j in 0..n {
                let d = m[i * n + j];
                if !(d >= 0.0 && d.is_finite()) {
                    return Some("delays must be finite and >= 0");
                }
                if (d - m[j * n + i]).abs() >= 1e-9 || (d - m[j * n + i]).is_nan() {
                    return Some("matrix must be symmetric");
                }
            }
        }
        None
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
        let payload = std::panic::catch_unwind(f).err()?;
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
        Some(text.expect("string panic payload"))
    }

    #[test]
    fn delay_matrix_rejects_every_defect_wherever_the_tiles_put_it() {
        const TILE: usize = DelayMatrix::TILE;
        assert!(panic_message(|| drop(DelayMatrix::new(3, vec![0.0; 8])))
            .is_some_and(|m| m.contains("matrix must be n x n")));
        for n in [1, 2, TILE - 1, TILE, TILE + 1, 2 * TILE + 3] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let valid = ragged_delays(&mut rng, n).delays;
            assert_eq!(first_offence(n, &valid), None);
            // A cell of the first tile, of the last (partial) tile, and on
            // either side of the first tile edge — where `n` has them.
            let last = n - 1;
            let cells = [
                (0, 0),
                (0, 1),
                (1, 0),
                (last, last),
                (last, last.saturating_sub(1)),
                (last.saturating_sub(1), last),
                (TILE - 1, TILE),
                (TILE, TILE - 1),
                (TILE, TILE),
                (0, last),
            ];
            for (i, j) in cells.into_iter().filter(|&(i, j)| i < n && j < n) {
                for defect in [7.0, -1.0, f64::NAN, f64::INFINITY, 2e-9, 0.5e-9] {
                    let mut m = valid.clone();
                    m[i * n + j] = if defect.abs() < 1.0 { m[i * n + j] + defect } else { defect };
                    let expected = first_offence(n, &m);
                    let got = panic_message(|| drop(DelayMatrix::new(n, m)));
                    match (expected, &got) {
                        (None, None) => assert!(i != j && defect == 0.5e-9),
                        (Some(want), Some(got)) => {
                            assert!(got.contains(want), "n {n} ({i},{j}) {defect}: {got}")
                        }
                        _ => panic!("n {n} ({i},{j}) {defect}: expected {expected:?}, got {got:?}"),
                    }
                }
            }
        }
    }

    /// `(ms * 1000.0).round()` saturated into `u64` — the per-cell
    /// rounding `DelayMicros::from_delays` did before it walked rows.
    fn round_us(ms: f64) -> u64 {
        (ms * 1000.0).round() as u64
    }

    #[test]
    fn delay_micros_cells_match_per_cell_rounding_including_ties() {
        // Delays whose µs value lands exactly on `x.5`, plus random ones.
        let mut ms: Vec<f64> = (0..4000u32)
            .map(|m| (f64::from(m) + 0.5) / 1000.0)
            .filter(|ms| (ms * 1000.0).fract() == 0.5)
            .collect();
        assert!(ms.len() > 1000, "only {} exact ties", ms.len());
        let mut rng = StdRng::seed_from_u64(77);
        ms.extend((0..3000).map(|_| rng.gen_range(0.0..5000.0)));
        ms.extend([0.0, 0.0004999, 0.0005, 4_294_967.0, 1e-320]);
        // One delay per unordered pair of a symmetric matrix, each used.
        let n = 130;
        assert!(ms.len() <= n * (n - 1) / 2);
        let mut m = vec![0.0; n * n];
        let mut next = ms.iter().cycle();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = *next.next().unwrap();
                m[i * n + j] = d;
                m[j * n + i] = d;
            }
        }
        let dm = DelayMatrix::new(n, m);
        let us = DelayMicros::from_delays(&dm, n);
        let mut min = u64::MAX;
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (NodeIdx(a as u32), NodeIdx(b as u32));
                assert_eq!(us.us(a, b), round_us(dm.delay_ms(a, b)), "{a}->{b}");
                if a != b {
                    min = min.min(us.us(a, b));
                }
            }
        }
        assert_eq!(us.min_offdiag_us(), min);
    }

    #[test]
    fn delay_micros_min_offdiag_matches_a_scan() {
        for n in [0usize, 1] {
            let us = DelayMicros::from_delays(&DelayMatrix::uniform(n, 3.0), n);
            assert_eq!(us.min_offdiag_us(), u64::MAX);
            assert_eq!(us.len(), n);
        }
        for (n, seed) in [(2usize, 1u64), (5, 2), (33, 3), (64, 4)] {
            let dm = ragged_delays(&mut StdRng::seed_from_u64(seed), n);
            let us = DelayMicros::from_delays(&dm, n);
            let scan = (0..n)
                .flat_map(|a| (0..n).map(move |b| (a, b)))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| us.us(NodeIdx(a as u32), NodeIdx(b as u32)))
                .min();
            assert_eq!(Some(us.min_offdiag_us()), scan, "n {n}");
        }
        // The minimum may sit anywhere, including the last cell of a row.
        let mut m = vec![9.0; 9];
        (m[0], m[4], m[8]) = (0.0, 0.0, 0.0);
        (m[5], m[7]) = (1.0, 1.0);
        assert_eq!(DelayMicros::from_delays(&DelayMatrix::new(3, m), 3).min_offdiag_us(), 1000);
    }

    /// ROADMAP 5d's u32-µs boundary: exactly `u32::MAX` µs fits a cell,
    /// one more does not.
    #[test]
    fn delay_micros_accepts_u32_max_and_rejects_one_more() {
        let fits = 4_294_967.295;
        assert_eq!(round_us(fits), u64::from(u32::MAX));
        let us = DelayMicros::from_delays(&DelayMatrix::uniform(2, fits), 2);
        assert_eq!(us.us(NodeIdx(0), NodeIdx(1)), u64::from(u32::MAX));
        assert_eq!(us.min_offdiag_us(), u64::from(u32::MAX));

        let over = 4_294_967.295_5;
        assert_eq!(round_us(over), u64::from(u32::MAX) + 1);
        for too_long in [over, 4_294_967.296, 1e300] {
            let got = panic_message(move || {
                DelayMicros::from_delays(&DelayMatrix::uniform(2, too_long), 2);
            });
            assert!(
                got.as_deref().is_some_and(|m| m.contains("0->1") && m.contains("exceeds the u32")),
                "{too_long}: {got:?}"
            );
        }
        // Cells `DelayMatrix::new` would refuse, planted past it: every pair
        // 1 ms apart except `1 -> 2`.
        for (bad, in_msg) in [(f64::NAN, "NaN"), (-1.0, "-1"), (f64::INFINITY, "inf")] {
            let mut delays = vec![1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0];
            (delays[0], delays[5]) = (0.0, bad);
            let got = panic_message(move || {
                DelayMicros::from_delays(&DelayMatrix { n: 3, delays }, 3);
            });
            assert!(
                got.as_deref().is_some_and(|m| {
                    m.contains("overlay delay 1->2 must be finite and >= 0") && m.contains(in_msg)
                }),
                "{bad}: {got:?}"
            );
        }
    }
}
