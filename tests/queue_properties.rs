//! Adversarial ordering properties of both event queues.
//!
//! Neither backend's pop order may depend on anything but `(at_us,
//! creation)`. The calendar stores no tie-breaker: push order inside a
//! bucket *is* the tie order, valid because the [`EventQueue`] push
//! contract requires strictly increasing creation stamps. These tests
//! attack the paths where an ordering could break — dense
//! equal-timestamp storms, tie groups calendar years apart, one bucket
//! holding thousands of twins, out-of-order tie echoes, and the
//! provided `push_batch` / `pop_run` operations interleaved with scalar
//! pushes and pops — always against two references at once: the
//! [`HeapQueue`] (explicit `(at_us, seq)` slots) and a sorted stable
//! model.
//!
//! The in-crate tests (`d3t_sim::queue`) cover the basic distributions;
//! this file is the adversarial extension.

use d3t::sim::{CalendarQueue, EventQueue, HeapQueue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded uniform draw in `[0, n)` — the suite-wide deterministic RNG
/// idiom (`StdRng::seed_from_u64`), as in the sibling property tests.
fn below(rng: &mut StdRng, n: u64) -> u64 {
    rng.gen_range(0..n)
}

/// Drains a queue to a vector via scalar pops.
fn drain<Q: EventQueue<u64>>(q: &mut Q) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(q.len());
    while let Some(e) = q.pop() {
        out.push(e);
    }
    out
}

/// Pushes `keys` with payload = creation index into both backends and a
/// sorted stable model, then checks all three agree on the drain order.
fn assert_three_way_agreement(keys: &[u64]) {
    let mut cal = CalendarQueue::with_capacity(keys.len());
    let mut heap = HeapQueue::with_capacity(keys.len());
    let mut model: Vec<(u64, u64)> =
        keys.iter().enumerate().map(|(i, &at)| (at, i as u64)).collect();
    for (i, &at) in keys.iter().enumerate() {
        cal.push(at, i as u64, i as u64);
        heap.push(at, i as u64, i as u64);
    }
    model.sort(); // payload = creation index, so plain sort is the stable order
    assert_eq!(drain(&mut cal), model, "calendar vs model");
    assert_eq!(drain(&mut heap), model, "heap vs model");
}

#[test]
fn equal_timestamp_storms_drain_in_creation_order() {
    // Whole-queue ties at a handful of timestamps, so every bucket in
    // use sees repeated FIFO appends, across sizes from a few events to
    // thousands of twins per timestamp.
    for &n in &[10usize, 64, 65, 500, 5_000] {
        let mut rng = StdRng::seed_from_u64(n as u64 | 1);
        let keys: Vec<u64> = (0..n).map(|_| below(&mut rng, 4) * 1_000_003).collect();
        assert_three_way_agreement(&keys);
    }
    // Every key identical: one bucket, pure FIFO.
    assert_three_way_agreement(&vec![123_456_789u64; 1_000]);
}

#[test]
fn year_advance_migrations_preserve_ties() {
    // Tie groups spread thousands of calendar years apart: every pop
    // between groups misses a whole year and takes the smallest bucket
    // front; creation order must hold within each group.
    let mut keys = Vec::new();
    for year in 0..20u64 {
        let base = year * 1_000_000_000_000;
        for i in 0..40u64 {
            keys.push(base + (i % 5) * 7); // 8-deep tie groups per year
        }
    }
    assert_three_way_agreement(&keys);
}

#[test]
fn boundary_snap_ties_split_across_tiers_stay_ordered() {
    // A huge burst of identical keys far in the future, years after the
    // first event: one bucket holds all 3 000 twins, which must pop in
    // creation order.
    let mut keys = vec![0u64]; // one event near zero
    keys.extend(std::iter::repeat_n(5_000_000_000u64, 3_000));
    // A second distinct tie group right behind the first.
    keys.extend(std::iter::repeat_n(5_000_000_001u64, 3_000));
    assert_three_way_agreement(&keys);
}

#[test]
fn overload_rebuild_demotions_keep_negative_stamp_order() {
    // Dense distinct timestamps inside one day, with equal-key echoes
    // pushed in reverse time order between rounds: every echo is a
    // mid-bucket insert that must land behind its earlier twins.
    let mut keys = Vec::new();
    for round in 0..3u64 {
        for i in 0..300u64 {
            keys.push(i * 3 + round); // dense spread inside ~1 ms
        }
        for i in (0..300u64).rev() {
            keys.push(i * 3); // equal-key echoes, reverse order
        }
    }
    assert_three_way_agreement(&keys);
}

/// Models the sharded engine's barrier exchange (`route_outboxes` in
/// `d3t-sim`'s shard runner): per-shard epoch outboxes, each already in
/// its shard's deterministic creation order, are concatenated, merged
/// on the `(at_ev, phase, sec, k)` creation key, re-stamped from one
/// run-wide counter, and delivered to owner + mirror queues — so every
/// queue receives an ascending-stamp *subsequence* of the merge. The
/// arrival times are drawn from three instants, so nearly everything
/// ties: the drain out of both backends must equal the stable model
/// order, meaning the merge key alone — never insertion history or
/// backend internals — decides every tie. `peek_at` (the coordinator's
/// epoch-floor probe) rides along on both backends.
#[test]
fn epoch_merge_restamping_survives_tie_storms() {
    const SHARDS: usize = 4;
    for round in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xE90C ^ (round + 1));
        // Outbox entries, keyed like OutEntry: at_ev strides keep keys
        // disjoint across shards (real stamps are globally unique), and
        // (phase, sec, k) orders the sends of one generating event.
        let mut merged: Vec<((u64, u8, u64, u32), u64)> = Vec::new();
        for shard in 0..SHARDS as u64 {
            let mut at_ev = shard;
            for _ in 0..40 + below(&mut rng, 80) {
                at_ev += SHARDS as u64 * (1 + below(&mut rng, 3));
                let phase = below(&mut rng, 2) as u8;
                let sec = below(&mut rng, 4);
                for k in 0..1 + below(&mut rng, 6) as u32 {
                    let arrival = below(&mut rng, 3) * 1_000_003;
                    merged.push(((at_ev, phase, sec, k), arrival));
                }
            }
        }
        merged.sort_unstable_by_key(|&(key, _)| key);
        let mut cals: Vec<CalendarQueue<u64>> =
            (0..SHARDS).map(|_| CalendarQueue::with_capacity(0)).collect();
        let mut heaps: Vec<HeapQueue<u64>> =
            (0..SHARDS).map(|_| HeapQueue::with_capacity(0)).collect();
        let mut models: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SHARDS];
        for (g, &(_, arrival)) in merged.iter().enumerate() {
            let g = g as u64;
            let owner = below(&mut rng, SHARDS as u64) as usize;
            let mirror = below(&mut rng, SHARDS as u64) as usize;
            cals[owner].push(arrival, g, g);
            heaps[owner].push(arrival, g, g);
            models[owner].push((arrival, g));
            if mirror != owner {
                cals[mirror].push(arrival, g, g);
                heaps[mirror].push(arrival, g, g);
                models[mirror].push((arrival, g));
            }
        }
        for q in 0..SHARDS {
            models[q].sort(); // payload = stamp, so plain sort is the stable order
            assert_eq!(
                cals[q].peek_at(),
                heaps[q].peek_at(),
                "peek_at diverged on shard {q} round {round}"
            );
            assert_eq!(cals[q].peek_at(), models[q].first().map(|&(at, _)| at));
            assert_eq!(drain(&mut cals[q]), models[q], "calendar shard {q} round {round}");
            assert_eq!(drain(&mut heaps[q]), models[q], "heap shard {q} round {round}");
        }
    }
}

/// The provided bulk operations interleaved with scalar ones must be
/// observationally identical to the heap driven scalar-only:
/// `push_batch` groups vs loose pushes, `pop_run` runs vs single pops,
/// with random windows, caps, and run lengths.
#[test]
fn bulk_and_scalar_ops_interleave_identically() {
    for round in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE ^ (round + 1));
        run_interleaved_round(&mut rng);
    }
}

fn run_interleaved_round(rng: &mut StdRng) {
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_capacity(0);
    let mut heap: HeapQueue<u64> = HeapQueue::with_capacity(0);
    let mut seq = 0u64;
    let mut run: Vec<(u64, u64)> = Vec::new();
    let ops = 600 + below(rng, 1200);
    for _ in 0..ops {
        match below(rng, 10) {
            // Scalar push: uniform, bursty-tie, or far-future key.
            0..=3 => {
                let at = gen_key(rng);
                cal.push(at, seq, seq);
                heap.push(at, seq, seq);
                seq += 1;
            }
            // push_batch of a send group (jittered near-monotone times,
            // occasional outlier years ahead, frequent ties).
            4..=5 => {
                let base = gen_key(rng);
                let group: Vec<(u64, u64)> = (0..1 + below(rng, 12))
                    .map(|i| {
                        let jitter = below(rng, 3);
                        let outlier = below(rng, 5) * 1_000_000_000;
                        let at = base.saturating_add(i * jitter).saturating_add(outlier);
                        let payload = seq + i;
                        (at, payload)
                    })
                    .collect();
                cal.push_batch(seq, &group);
                for (k, &(at, payload)) in group.iter().enumerate() {
                    heap.push(at, seq + k as u64, payload);
                }
                seq += group.len() as u64;
            }
            // Scalar pop and strictly-capped probe.
            6..=7 => {
                assert_eq!(cal.pop(), heap.pop());
            }
            8 => {
                let cap = gen_key(rng);
                assert_eq!(cal.pop_lt(cap), heap.pop_lt(cap), "cap {cap}");
                assert_eq!(cal.len(), heap.len());
            }
            // pop_run with random window/cap/max on both backends.
            _ => {
                let window = [0u64, 1, 500, 50_000, u64::MAX][below(rng, 5) as usize];
                let cap = if below(rng, 3) == 0 { gen_key(rng) } else { u64::MAX };
                let max = below(rng, 20) as usize;
                run.clear();
                let n_cal = cal.pop_run(window, cap, max, &mut run);
                let n_heap = heap.pop_run(window, cap, max, &mut run);
                assert_eq!(n_cal, n_heap, "run lengths diverged");
                assert_eq!(run[..n_cal], run[n_cal..], "run contents diverged");
            }
        }
        assert_eq!(cal.len(), heap.len());
    }
    assert_eq!(drain(&mut cal), drain(&mut heap), "final drain");
}

fn gen_key(rng: &mut StdRng) -> u64 {
    match below(rng, 4) {
        0 => below(rng, 100_000),                       // dense front
        1 => below(rng, 8) * 250_000,                   // tie clusters
        2 => 1_000_000_000 + below(rng, 1_000_000_000), // next years
        _ => below(rng, 20) * 800_000_000_000,          // far future / tie storms
    }
}
