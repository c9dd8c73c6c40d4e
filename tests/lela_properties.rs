//! Property-based tests of the LeLA construction invariants (§4):
//!
//! * every user need is served at sufficient stringency with a path from
//!   the source (no orphans);
//! * Eq. (1) holds along every edge (parents at least as stringent);
//! * no node ever exceeds its degree of cooperation;
//! * per-item structures are trees (single parent, acyclic, rooted);
//! * augmentation only ever *tightens* coherencies;
//! * every join wires the joiner to the parents the `Option`-probing
//!   preference formula picks, with the delay read as
//!   `delay_ms(candidate, joiner)`.
//!
//! Inputs are randomized from fixed seeds (the offline stand-in for the
//! crates.io proptest dependency): every case is deterministic and each
//! failure message names the seed that produced it.

use d3t::core::coherency::Coherency;
use d3t::core::lela::{
    build_d3g, DelayMatrix, JoinOrder, LelaBuilder, LelaConfig, PreferenceFunction,
};
use d3t::core::overlay::NodeIdx;
use d3t::core::workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random workload of up to `max_repos × max_items` needs: each cell is
/// interested with probability 2/3, tolerances quantized to cents; every
/// repository is guaranteed at least one need.
fn random_workload(rng: &mut StdRng, max_repos: usize, max_items: usize) -> Workload {
    let n_repos = rng.gen_range(2..=max_repos);
    let n_items = rng.gen_range(1..=max_items);
    let mut rows: Vec<Vec<Option<Coherency>>> = (0..n_repos)
        .map(|_| {
            (0..n_items)
                .map(|_| {
                    if rng.gen_range(0..3u32) < 2 {
                        Some(Coherency::new(rng.gen_range(1..=100u32) as f64 / 100.0))
                    } else {
                        None
                    }
                })
                .collect()
        })
        .collect();
    for (i, row) in rows.iter_mut().enumerate() {
        if row.iter().all(Option::is_none) {
            row[i % n_items] = Some(Coherency::new(0.5));
        }
    }
    Workload::from_needs(rows)
}

/// A random symmetric positive delay matrix over `n` overlay nodes,
/// delays quantized to whole milliseconds in `1..=120`.
fn random_delays(rng: &mut StdRng, n: usize) -> DelayMatrix {
    let mut m = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = rng.gen_range(1..=120u32) as f64;
            m[i * n + j] = d;
            m[j * n + i] = d;
        }
    }
    DelayMatrix::new(n, m)
}

#[test]
fn lela_invariants_hold_for_random_inputs() {
    let bands = [1.0, 5.0, 25.0];
    let prefs = [PreferenceFunction::P1, PreferenceFunction::P2];
    let orders = [JoinOrder::Random, JoinOrder::Sequential, JoinOrder::StringentFirst];
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xA110_0000 ^ seed);
        let workload = random_workload(&mut rng, 14, 5);
        let degree = rng.gen_range(1..=14usize);
        let cfg = LelaConfig {
            coop_degree: degree,
            pref_band_pct: bands[rng.gen_range(0..bands.len())],
            pref_fn: prefs[rng.gen_range(0..prefs.len())],
            join_order: orders[rng.gen_range(0..orders.len())],
            seed,
        };
        let delays = DelayMatrix::uniform(workload.n_repos() + 1, 5.0 + (seed % 40) as f64);
        let g = build_d3g(&workload, &delays, &cfg);
        assert!(g.validate(Some(degree)).is_ok(), "seed {seed}: {:?}", g.validate(Some(degree)));
        for r in 0..workload.n_repos() {
            let node = NodeIdx::repo(r);
            for (item, c) in workload.items_of(r) {
                let eff = g.effective(node, item);
                assert!(eff.is_some(), "seed {seed}: repo {r} unserved for {item}");
                assert!(
                    eff.unwrap().at_least_as_stringent_as(c),
                    "seed {seed}: augmentation must only tighten: {eff:?} vs {c}"
                );
                assert!(
                    g.depth_in_item_tree(node, item).is_some(),
                    "seed {seed}: repo {r} not rooted for {item}"
                );
            }
        }
    }
}

#[test]
fn lela_handles_heterogeneous_delays() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xDE1A_0000 ^ seed);
        // Fix the overlay size so workload and delay matrix agree.
        let workload = loop {
            let w = random_workload(&mut rng, 10, 4);
            if w.n_repos() == 10 {
                break w;
            }
        };
        let delays = random_delays(&mut rng, 11);
        let degree = rng.gen_range(1..=10usize);
        let g = build_d3g(&workload, &delays, &LelaConfig::new(degree, 3));
        assert!(g.validate(Some(degree)).is_ok(), "seed {seed}");
    }
}

/// The d3g is the union of per-item trees: the number of distinct
/// dependents of any node never exceeds the number of repositories, and
/// total edges per item equal the number of holders minus one (tree edge
/// count).
#[test]
fn per_item_structures_are_trees() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x7EEE_0000 ^ seed);
        let workload = random_workload(&mut rng, 12, 4);
        let degree = rng.gen_range(1..=12usize);
        let delays = DelayMatrix::uniform(workload.n_repos() + 1, 20.0);
        let g = build_d3g(&workload, &delays, &LelaConfig::new(degree, 11));
        for i in 0..workload.n_items() {
            let item = d3t::core::item::ItemId(i as u32);
            let holders = (1..g.n_nodes())
                .filter(|&n| g.effective(NodeIdx(n as u32), item).is_some())
                .count();
            let edges: usize =
                (0..g.n_nodes()).map(|n| g.children_of(NodeIdx(n as u32), item).len()).sum();
            assert_eq!(
                edges, holders,
                "seed {seed}: item {i}: {edges} edges for {holders} holders"
            );
        }
    }
}

/// Stress: a hundred repositories all wanting one hot item must form a
/// valid bounded-degree tree of logarithmic-ish depth.
#[test]
fn hot_item_tree_depth_is_bounded() {
    let needs: Vec<Vec<Option<Coherency>>> =
        (0..100).map(|i| vec![Some(Coherency::new(0.01 + (i as f64) * 0.002))]).collect();
    let workload = Workload::from_needs(needs);
    let delays = DelayMatrix::uniform(101, 25.0);
    for degree in [2usize, 4, 8] {
        let g = build_d3g(&workload, &delays, &LelaConfig::new(degree, 5));
        g.validate(Some(degree)).unwrap();
        let depth = g.max_depth();
        // A degree-d tree over 100 nodes needs at least log_d(100) levels;
        // LeLA fills levels greedily so it should stay near that bound.
        let min_depth = (100f64.ln() / (degree as f64).ln()).floor() as usize;
        assert!(
            depth >= min_depth && depth <= 100 / degree + min_depth + 2,
            "degree {degree}: depth {depth} outside [{}, {}]",
            min_depth,
            100 / degree + min_depth + 2
        );
    }
}

/// The preference factor as §4 states it, probing the public d3g one
/// `Option` at a time — what LeLA computed per candidate before its
/// scoring became a dense-row kernel. (The kernel's own scores are
/// checked bit for bit against the same formula inside `d3t-core`'s unit
/// tests, where they are visible; here the check is at the public
/// boundary: the parents each join ends up with.)
fn reference_preference(
    builder: &LelaBuilder<'_>,
    delays: &DelayMatrix,
    cfg: &LelaConfig,
    p: NodeIdx,
    q: NodeIdx,
    wanted: &[(d3t::core::item::ItemId, Coherency)],
) -> f64 {
    let g = builder.graph();
    let comm = delays.delay_ms(p, q).max(f64::MIN_POSITIVE);
    let ndeps = g.n_dependents(p) as f64;
    match cfg.pref_fn {
        PreferenceFunction::P1 => {
            let navail = wanted
                .iter()
                .filter(|&&(item, c)| {
                    g.effective(p, item).is_some_and(|pc| pc.at_least_as_stringent_as(c))
                })
                .count() as f64;
            comm * (1.0 + ndeps) / (1.0 + navail)
        }
        PreferenceFunction::P2 => comm * (1.0 + ndeps),
    }
}

/// Joins `order` one repository at a time and checks, for every join,
/// that each wanted item is served by the parent a full sort of the
/// reference preferences dictates: the most preferred band member that
/// already holds the item stringently enough, else the most preferred
/// candidate overall.
fn check_joins(workload: &Workload, delays: &DelayMatrix, cfg: &LelaConfig, order: &[usize]) {
    let mut builder = LelaBuilder::new(workload, delays, cfg);
    for &repo in order {
        let q = NodeIdx::repo(repo);
        let wanted: Vec<_> = workload.items_of(repo).collect();
        let g = builder.graph();
        let candidates: Vec<NodeIdx> = builder
            .levels()
            .iter()
            .map(|level| {
                level
                    .iter()
                    .copied()
                    .filter(|&p| g.n_dependents(p) < cfg.coop_degree)
                    .collect::<Vec<_>>()
            })
            .find(|open| !open.is_empty())
            .expect("a level with spare capacity");
        let mut prefs: Vec<(NodeIdx, f64)> = candidates
            .iter()
            .map(|&p| (p, reference_preference(&builder, delays, cfg, p, q, &wanted)))
            .collect();
        prefs.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let band_limit = prefs[0].1 * (1.0 + cfg.pref_band_pct / 100.0);
        let band: Vec<NodeIdx> =
            prefs.iter().filter(|&&(_, f)| f <= band_limit).map(|&(p, _)| p).collect();
        let expected: Vec<NodeIdx> = wanted
            .iter()
            .map(|&(item, c)| {
                band.iter()
                    .copied()
                    .find(|&p| {
                        g.effective(p, item).is_some_and(|pc| pc.at_least_as_stringent_as(c))
                    })
                    .unwrap_or(band[0])
            })
            .collect();

        builder.join(repo);
        let g = builder.graph();
        for (&(item, _), &parent) in wanted.iter().zip(&expected) {
            assert_eq!(g.parent_of(q, item), Some(parent), "{cfg:?}: repo {repo} {item}");
        }
    }
    builder.finish().validate(Some(cfg.coop_degree)).unwrap();
}

#[test]
fn every_join_picks_the_reference_parents() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x0BAD_5EED ^ seed);
        let workload = random_workload(&mut rng, 24, 8);
        let n = workload.n_repos();
        let delays = random_delays(&mut rng, n + 1);
        let sequential: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let mut shuffled = sequential.clone();
        for i in (1..n).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        for pref_fn in [PreferenceFunction::P1, PreferenceFunction::P2] {
            for pref_band_pct in [0.0, 5.0, 50.0] {
                for coop_degree in [1, 4, n] {
                    let cfg =
                        LelaConfig { pref_fn, pref_band_pct, ..LelaConfig::new(coop_degree, seed) };
                    for order in [&sequential, &reversed, &shuffled] {
                        check_joins(&workload, &delays, &cfg, order);
                    }
                }
            }
        }
    }
}

/// A `DelayMatrix` is symmetric only to within `1e-9`: the two cells of a
/// pair may differ in their last bits, and LeLA reads the
/// `(candidate, joiner)` one. Two candidates whose order flips between
/// the two orientations must be ranked by that cell.
#[test]
fn preference_reads_the_candidate_to_joiner_delay() {
    // Source (0) takes two dependents; repositories A (1) and B (2) fill
    // it, so the joiner Q (3) chooses between A and B at level 1.
    let need = || vec![Some(Coherency::new(0.5))];
    let workload = Workload::from_needs(vec![need(), need(), need()]);
    let (a, b, q) = (NodeIdx::repo(0), NodeIdx::repo(1), NodeIdx::repo(2));
    let build = |a_to_q: f64, q_to_a: f64, b_and_q: f64| {
        let n = 4;
        let mut m = vec![10.0; n * n];
        for i in 0..n {
            m[i * n + i] = 0.0;
        }
        m[a.index() * n + q.index()] = a_to_q;
        m[q.index() * n + a.index()] = q_to_a;
        m[b.index() * n + q.index()] = b_and_q;
        m[q.index() * n + b.index()] = b_and_q;
        let cfg = LelaConfig {
            pref_band_pct: 0.0,
            pref_fn: PreferenceFunction::P2,
            join_order: JoinOrder::Sequential,
            ..LelaConfig::new(2, 0)
        };
        build_d3g(&workload, &DelayMatrix::new(n, m), &cfg)
    };
    let (near, mid, far) = (10.0, 10.0 + 4e-10, 10.0 + 8e-10);
    // A is nearer than B seen from A, farther seen from Q.
    let g = build(near, far, mid);
    assert_eq!(g.parent_of(q, d3t::core::item::ItemId(0)), Some(a));
    // And the other way round.
    let g = build(far, near, mid);
    assert_eq!(g.parent_of(q, d3t::core::item::ItemId(0)), Some(b));
}
