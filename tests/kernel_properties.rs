//! The dissemination kernel against its scalar oracle.
//!
//! The `Disseminator` exposes two implementations of every forwarding
//! decision: the branchy, allocating scalar-oracle methods
//! (`on_source_update` / `on_repo_update`, the PR 3 code path the sealed
//! `Engine::run` still drives) and the batched allocation-free kernel
//! path (`on_source_update_into` / `on_repo_update_into`, what `Session`
//! runs). These properties pin them **bit-identical decision by
//! decision** — targets, forwarded value and tag, and `checks` counts —
//! across all four protocols × random d3gs × seeds, with fail-stop
//! (inactive-node rows) and renegotiation (in-place CSR patches) mixed
//! into the stream, plus end-state equality of every node's copy. The
//! zero-delay cascade (which runs the kernel path) is cross-checked
//! against a hand-rolled oracle cascade the same way.
//!
//! The two paths deliberately read different state: the oracle gathers
//! from the receiver-indexed row records, the kernel streams the
//! per-edge `(c, last, node)` mirror — so these tests also pin the
//! mirror invariant itself.

use d3t::core::coherency::Coherency;
use d3t::core::dissemination::{Disseminator, ForwardScratch, Protocol, Update};
use d3t::core::graph::D3g;
use d3t::core::item::ItemId;
use d3t::core::lela::{build_d3g, DelayMatrix, LelaConfig};
use d3t::core::overlay::NodeIdx;
use d3t::core::workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PROTOCOLS: [Protocol; 4] =
    [Protocol::Naive, Protocol::Distributed, Protocol::Centralized, Protocol::FloodAll];

/// A workload of `n_repos` repositories over `n_items` items with random
/// interests and cent-quantized tolerances; every repository is
/// guaranteed at least one need.
fn random_workload(rng: &mut StdRng, n_repos: usize, n_items: usize) -> Workload {
    let mut rows: Vec<Vec<Option<Coherency>>> = (0..n_repos)
        .map(|_| {
            (0..n_items)
                .map(|_| {
                    if rng.gen_range(0..4u32) < 3 {
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
            row[i % n_items] = Some(Coherency::new(0.25));
        }
    }
    Workload::from_needs(rows)
}

fn random_d3g(rng: &mut StdRng, n_repos: usize, n_items: usize) -> D3g {
    let workload = random_workload(rng, n_repos, n_items);
    let delays = DelayMatrix::uniform(workload.n_repos() + 1, 10.0);
    let degree = rng.gen_range(1..=n_repos);
    build_d3g(&workload, &delays, &LelaConfig::new(degree, rng.gen_range(0..64)))
}

/// Asserts the kernel decision (`_into` on `kern`) equals the oracle
/// decision already taken on `oracle`, field by field.
fn assert_same_decision(
    label: &str,
    f: &d3t::core::dissemination::Forwarding,
    scratch: &ForwardScratch,
) {
    let to: Vec<NodeIdx> = scratch.to().iter().map(|t| t.node).collect();
    assert_eq!(to, f.to, "{label}: targets diverged");
    assert_eq!(scratch.update(), f.update, "{label}: forwarded update diverged");
    assert_eq!(scratch.checks(), f.checks, "{label}: checks diverged");
}

/// Drives one full cascade per source change through both paths in
/// lockstep (same LIFO order), comparing every decision.
fn lockstep_cascade(
    label: &str,
    oracle: &mut Disseminator,
    kern: &mut Disseminator,
    scratch: &mut ForwardScratch,
    item: ItemId,
    value: f64,
) {
    let f = oracle.on_source_update(item, value);
    kern.on_source_update_into(item, value, scratch);
    assert_same_decision(&format!("{label}/source"), &f, scratch);
    let mut pending: Vec<(NodeIdx, Update)> = f.to.iter().map(|&n| (n, f.update)).collect();
    while let Some((node, update)) = pending.pop() {
        let f = oracle.on_repo_update(node, update);
        kern.on_repo_update_into(node, update, scratch);
        assert_same_decision(&format!("{label}/repo {node}"), &f, scratch);
        pending.extend(f.to.iter().map(|&n| (n, f.update)));
    }
}

/// Kernel and scalar-oracle forwarding decisions are bit-identical over
/// random d3gs, update streams, fail-stop churn, and renegotiations.
#[test]
fn kernel_matches_scalar_oracle_decision_by_decision() {
    for protocol in PROTOCOLS {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(0x6E12_4B00u64 ^ (seed << 8));
            let (n_repos, n_items) = (rng.gen_range(3..10usize), rng.gen_range(1..4usize));
            let g = random_d3g(&mut rng, n_repos, n_items);
            let initial: Vec<f64> = (0..n_items).map(|_| 10.0).collect();
            let mut oracle = Disseminator::new(protocol, &g, &initial);
            let mut kern = Disseminator::new(protocol, &g, &initial);
            let mut scratch = ForwardScratch::new();
            let mut values: Vec<i64> = vec![1000; n_items];
            for step in 0..60 {
                // Mid-stream mutations, applied to both instances: CSR
                // row disables (fail-stop) and in-place renegotiation
                // patches must leave the two paths in lockstep.
                if step % 17 == 5 {
                    let repo = NodeIdx::repo(rng.gen_range(0..n_repos));
                    let active = rng.gen_range(0..2u32) == 0;
                    oracle.set_node_active(repo, active);
                    kern.set_node_active(repo, active);
                }
                if step % 23 == 11 {
                    let repo = rng.gen_range(0..n_repos);
                    let item = ItemId(rng.gen_range(0..n_items as u32));
                    if g.effective(NodeIdx::repo(repo), item).is_some() {
                        let c = Coherency::new(rng.gen_range(1..=100u32) as f64 / 100.0);
                        let a = oracle.renegotiate(NodeIdx::repo(repo), item, c);
                        let b = kern.renegotiate(NodeIdx::repo(repo), item, c);
                        assert_eq!(a, b, "renegotiate effective diverged");
                    }
                }
                let i = rng.gen_range(0..n_items);
                values[i] = (values[i] + rng.gen_range(-40..=40i32) as i64).max(1);
                lockstep_cascade(
                    &format!("{protocol:?}/seed {seed}/step {step}"),
                    &mut oracle,
                    &mut kern,
                    &mut scratch,
                    ItemId(i as u32),
                    values[i] as f64 / 100.0,
                );
            }
            // End state: every node's copy of every item agrees.
            for n in 0..g.n_nodes() {
                for i in 0..n_items {
                    let (node, item) = (NodeIdx(n as u32), ItemId(i as u32));
                    assert_eq!(
                        oracle.value_at(node, item),
                        kern.value_at(node, item),
                        "{protocol:?}/seed {seed}: value_at({node}, {item:?}) diverged"
                    );
                }
            }
        }
    }
}

/// `run_zero_delay` (kernel path, reused scratch + work stack) agrees
/// with a hand-rolled scalar-oracle cascade on messages, checks,
/// violations, and final copies.
#[test]
fn zero_delay_cascade_matches_oracle_cascade() {
    for protocol in PROTOCOLS {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0x02DE ^ (seed << 16));
            let (n_repos, n_items) = (rng.gen_range(3..9usize), rng.gen_range(1..3usize));
            let g = random_d3g(&mut rng, n_repos, n_items);
            let initial: Vec<f64> = (0..n_items).map(|_| 10.0).collect();
            let updates: Vec<(ItemId, f64)> = (0..40)
                .map(|_| {
                    (
                        ItemId(rng.gen_range(0..n_items as u32)),
                        (1000 + rng.gen_range(-300..=300i32)) as f64 / 100.0,
                    )
                })
                .collect();

            let mut kern = Disseminator::new(protocol, &g, &initial);
            let out = kern.run_zero_delay(&g, updates.iter().copied());

            // Scalar reference cascade with identical traversal order.
            let mut oracle = Disseminator::new(protocol, &g, &initial);
            let mut messages = 0u64;
            let mut checks = 0u64;
            let mut violations = Vec::new();
            for &(item, value) in &updates {
                let f = oracle.on_source_update(item, value);
                checks += f.checks;
                let mut stack: Vec<(NodeIdx, Update)> =
                    f.to.iter().map(|&n| (n, f.update)).collect();
                while let Some((node, update)) = stack.pop() {
                    messages += 1;
                    let f = oracle.on_repo_update(node, update);
                    checks += f.checks;
                    stack.extend(f.to.iter().map(|&n| (n, f.update)));
                }
                for n in 1..g.n_nodes() {
                    let node = NodeIdx(n as u32);
                    if let Some(c) = g.effective(node, ItemId(item.0)) {
                        if c.violated_by(value, oracle.value_at(node, item)) {
                            violations.push((item, value));
                        }
                    }
                }
            }
            assert_eq!(out.messages, messages, "{protocol:?}/seed {seed}: messages");
            assert_eq!(out.checks, checks, "{protocol:?}/seed {seed}: checks");
            assert_eq!(out.violations, violations, "{protocol:?}/seed {seed}: violations");
            for n in 0..g.n_nodes() {
                for i in 0..n_items {
                    let (node, item) = (NodeIdx(n as u32), ItemId(i as u32));
                    assert_eq!(oracle.value_at(node, item), kern.value_at(node, item));
                }
            }
        }
    }
}
