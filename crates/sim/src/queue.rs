//! Event priority queues for the discrete-event engine.
//!
//! The engine schedules events keyed by `(at_us, seq)` — integer
//! microseconds plus a creation-order tie-breaker — and pops them in
//! exactly ascending key order. Two backends implement that contract
//! behind the [`EventQueue`] trait:
//!
//! * [`HeapQueue`] — a `BinaryHeap<Reverse<_>>`, `O(log n)` per
//!   operation, which every product drive schedules on: the engine
//!   streams its pre-seeded source changes instead of enqueueing them,
//!   so the heap holds only the in-flight arrivals — a few thousand.
//! * [`CalendarQueue`] — R. Brown's single-tier calendar queue (CACM
//!   1988) on a fixed grid. It drives nothing in the library: it is the
//!   structurally unrelated reference the queue property suites and the
//!   drive-agreement tests check the heap against, and `d3t-bench` names
//!   it (`engine.oracle_drive`).
//!
//! **The push contract** (strictly increasing creation stamps) makes
//! push order the tie order, so the calendar, which keeps equal times in
//! push order, stores no tie-breaker; both pop exactly `(at_us, seq)`.
//!
//! **The bulk operations** [`EventQueue::push_batch`] and
//! [`EventQueue::pop_run`] are provided methods written on `push` and
//! `pop_lt`, overridden by neither backend. The session's drain takes
//! its reorder-free runs from `pop_run`: it prefetches along the run.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A priority queue of `(at_us, seq)`-keyed events, popped in exactly
/// ascending key order.
///
/// # The push contract
///
/// `seq` must be **strictly increasing across pushes** over the queue's
/// lifetime (the engine's creation counter is exactly that). That is
/// what lets a backend drop `seq` from its slots entirely: insertion
/// order among equal `at_us` keys *is* `seq` order, so FIFO placement
/// reproduces the total `(at_us, seq)` order without storing the
/// tie-breaker. `pop` therefore returns only `(at_us, item)`; every
/// implementation is observationally identical on any compliant push
/// sequence.
pub trait EventQueue<T: Copy> {
    /// Bytes one pending event occupies in the backend — what a push or
    /// pop physically moves.
    const SLOT_BYTES: usize;

    /// An empty queue sized for roughly `capacity` pending events.
    fn with_capacity(capacity: usize) -> Self;

    /// Enqueues `item` at `at_us` µs with creation stamp `seq` (strictly
    /// increasing across pushes, see the trait docs). Debug builds
    /// assert the stamp contract on every push of both backends; release
    /// builds rely on it silently, so a regression there shows up only
    /// as reordered FIFO ties.
    fn push(&mut self, at_us: u64, seq: u64, item: T);

    /// Enqueues a whole send group: `events[k]` is pushed at creation
    /// stamp `seq0 + k`, exactly as the scalar loop would.
    fn push_batch(&mut self, seq0: u64, events: &[(u64, T)]) {
        for (k, &(at_us, item)) in events.iter().enumerate() {
            self.push(at_us, seq0 + k as u64, item);
        }
    }

    /// Removes and returns the minimal `(at_us, seq)` event, if any.
    fn pop(&mut self) -> Option<(u64, T)>;

    /// Removes and returns the minimal `(at_us, seq)` event **iff** its
    /// time is strictly below `cap_us`; otherwise leaves the queue's
    /// contents untouched and returns `None`. The strict bound is the
    /// merge primitive for callers interleaving the queue with an
    /// external sorted stream whose events outrank equal-time queue
    /// entries (the engine's pre-seeded source changes all carry smaller
    /// creation stamps than any in-flight arrival). Events at exactly
    /// `u64::MAX` are only reachable through [`EventQueue::pop`].
    fn pop_lt(&mut self, cap_us: u64) -> Option<(u64, T)>;

    /// Pops up to `max` consecutive events whose times all fall strictly
    /// inside `window_us` of the *first* popped event **and** strictly
    /// below `cap_us`, appending them to `out` in exactly the order
    /// `pop` would have produced. Returns the number of events appended
    /// (0 iff nothing is pending below `cap_us` or `max` is 0).
    ///
    /// This is the run drain primitive: a caller that knows nothing
    /// it does with a popped event can schedule anything closer than
    /// `window_us` ahead (the engine's `comp_delay + min link delay`
    /// bound) may take the whole run before processing any of it,
    /// capping the run at the next event of a merged external stream.
    fn pop_run(
        &mut self,
        window_us: u64,
        cap_us: u64,
        max: usize,
        out: &mut Vec<(u64, T)>,
    ) -> usize {
        if max == 0 {
            return 0;
        }
        let Some(first) = self.pop_lt(cap_us) else { return 0 };
        let limit = first.0.saturating_add(window_us).min(cap_us);
        out.push(first);
        let mut n = 1;
        // Peek, then pop: in the session's drain this measured faster
        // than a `pop_lt(limit)` loop.
        while n < max {
            match self.peek_at() {
                Some(at_us) if at_us < limit => {
                    #[expect(clippy::expect_used, reason = "pop follows the successful peek")]
                    out.push(self.pop().expect("peeked event"));
                    n += 1;
                }
                _ => break,
            }
        }
        n
    }

    /// The minimal pending `at_us`, without removing anything: the run
    /// drain's and the shard coordinator's probe, so it must be cheap and
    /// leave what is pending unchanged (a memoized search cursor may move).
    fn peek_at(&mut self) -> Option<u64>;

    /// Appends every pending event to `out` in exactly the order
    /// repeated [`EventQueue::pop`] calls would drain them, **without
    /// mutating the queue** (no cursor movement).
    ///
    /// This is the snapshot-capture primitive: a captured queue is
    /// rebuilt by re-pushing the events with fresh ascending stamps,
    /// and because the capture order *is* the pop order, the replay
    /// reproduces the original total `(at_us, seq)` order exactly —
    /// including FIFO ties — without ever storing the original stamps.
    fn snapshot_events(&self, out: &mut Vec<(u64, T)>);

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True when nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One pending heap event with its explicit tie-breaker.
#[derive(Debug, Clone, Copy)]
struct KeyedSlot<T> {
    at_us: u64,
    seq: u64,
    item: T,
}

impl<T> KeyedSlot<T> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at_us, self.seq)
    }
}

impl<T> PartialEq for KeyedSlot<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for KeyedSlot<T> {}
impl<T> Ord for KeyedSlot<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}
impl<T> PartialOrd for KeyedSlot<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Debug-build enforcement of the push contract: creation stamps must be
/// strictly increasing over a queue's lifetime (the property that lets
/// the calendar's slots drop the tie-breaker — see the trait docs).
/// Zero-sized and fully compiled out in release builds.
#[derive(Default)]
struct StampGuard {
    #[cfg(debug_assertions)]
    last: Option<u64>,
}

impl StampGuard {
    /// Checks one pushed stamp.
    #[inline]
    fn check(&mut self, seq: u64) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.last.is_none_or(|last| seq > last),
                "EventQueue push stamp regression: {seq} after {:?} \
                 (contract: strictly increasing creation stamps)",
                self.last
            );
            self.last = Some(seq);
        }
        #[cfg(not(debug_assertions))]
        let _ = seq;
    }
}

/// The `BinaryHeap` backend — `O(log n)` per operation, distribution
/// independent. The queue every product drive schedules on.
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<KeyedSlot<T>>>,
    stamps: StampGuard,
}

impl<T: Copy> EventQueue<T> for HeapQueue<T> {
    const SLOT_BYTES: usize = std::mem::size_of::<Reverse<KeyedSlot<T>>>();

    fn with_capacity(capacity: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(capacity), stamps: StampGuard::default() }
    }

    #[inline]
    fn push(&mut self, at_us: u64, seq: u64, item: T) {
        self.stamps.check(seq);
        self.heap.push(Reverse(KeyedSlot { at_us, seq, item }));
    }

    #[inline]
    fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|Reverse(s)| (s.at_us, s.item))
    }

    #[inline]
    fn pop_lt(&mut self, cap_us: u64) -> Option<(u64, T)> {
        match self.heap.peek() {
            Some(Reverse(s)) if s.at_us < cap_us => {
                self.heap.pop().map(|Reverse(s)| (s.at_us, s.item))
            }
            _ => None,
        }
    }

    #[inline]
    fn peek_at(&mut self) -> Option<u64> {
        self.heap.peek().map(|Reverse(s)| s.at_us)
    }

    fn snapshot_events(&self, out: &mut Vec<(u64, T)>) {
        let mut slots: Vec<&KeyedSlot<T>> = self.heap.iter().map(|Reverse(s)| s).collect();
        slots.sort_by_key(|s| s.key());
        out.extend(slots.into_iter().map(|s| (s.at_us, s.item)));
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Day width exponent: an event at `t` µs belongs to day
/// `t >> DAY_LOG2` (days of ≈ 1 ms, the scale of one link delay).
const DAY_LOG2: u32 = 10;
/// Bucket-count exponent: day `d` lives in bucket `d mod BUCKETS`, and
/// `BUCKETS` consecutive days make one year.
const BUCKETS_LOG2: u32 = 12;
const BUCKETS: u64 = 1 << BUCKETS_LOG2;

/// The calendar-queue backend (R. Brown, CACM 1988) on a fixed grid.
///
/// * **Push** files an event into its day's bucket, after every event of
///   equal or smaller time: each bucket stays sorted by `at_us`, equal
///   times in push order, which the push contract makes creation order.
/// * **Pop** walks days forward from a cursor and takes a bucket's front
///   only if it belongs to the cursor day. Earlier days are empty and a
///   day's events share one bucket, so that front is the global minimum.
///   After a full year of empty days it takes the smallest bucket front
///   instead (distinct buckets hold distinct days, so times alone decide).
pub struct CalendarQueue<T> {
    /// `BUCKETS` buckets, each ascending by `at_us` with FIFO ties.
    buckets: Vec<VecDeque<(u64, T)>>,
    /// Pending events across all buckets.
    len: usize,
    /// Pop cursor: no pending event has a day earlier than this.
    day: u64,
    /// Debug-only push-contract enforcement (zero-sized in release).
    stamps: StampGuard,
}

impl<T: Copy> CalendarQueue<T> {
    /// Advances the cursor to the minimal pending event's day and returns
    /// its bucket (the minimum is that bucket's front); `None` when empty.
    fn locate_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        for day in self.day..self.day + BUCKETS {
            let b = (day % BUCKETS) as usize;
            if self.buckets[b].front().is_some_and(|&(at_us, _)| at_us >> DAY_LOG2 == day) {
                self.day = day;
                return Some(b);
            }
        }
        let (b, at_us) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, bucket)| bucket.front().map(|&(at_us, _)| (b, at_us)))
            .min_by_key(|&(_, at_us)| at_us)?;
        self.day = at_us >> DAY_LOG2;
        Some(b)
    }
}

impl<T: Copy> EventQueue<T> for CalendarQueue<T> {
    const SLOT_BYTES: usize = std::mem::size_of::<(u64, T)>();

    fn with_capacity(_capacity: usize) -> Self {
        Self {
            buckets: std::iter::repeat_with(VecDeque::new).take(BUCKETS as usize).collect(),
            len: 0,
            day: 0,
            stamps: StampGuard::default(),
        }
    }

    fn push(&mut self, at_us: u64, seq: u64, item: T) {
        self.stamps.check(seq);
        let day = at_us >> DAY_LOG2;
        if self.len == 0 || day < self.day {
            self.day = day;
        }
        let bucket = &mut self.buckets[(day % BUCKETS) as usize];
        bucket.insert(bucket.partition_point(|&(at, _)| at <= at_us), (at_us, item));
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        let b = self.locate_min()?;
        self.len -= 1;
        self.buckets[b].pop_front()
    }

    fn pop_lt(&mut self, cap_us: u64) -> Option<(u64, T)> {
        let b = self.locate_min()?;
        self.buckets[b].front().filter(|&&(at_us, _)| at_us < cap_us)?;
        self.len -= 1;
        self.buckets[b].pop_front()
    }

    fn peek_at(&mut self) -> Option<u64> {
        let b = self.locate_min()?;
        self.buckets[b].front().map(|&(at_us, _)| at_us)
    }

    fn snapshot_events(&self, out: &mut Vec<(u64, T)>) {
        // Equal times share a bucket in push order, so a stable sort of
        // the concatenated buckets by time alone is the pop order.
        let start = out.len();
        for bucket in &self.buckets {
            out.extend(bucket.iter().copied());
        }
        out[start..].sort_by_key(|&(at_us, _)| at_us);
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn drain<T: Copy, Q: EventQueue<T>>(q: &mut Q) -> Vec<(u64, T)> {
        let mut out = Vec::with_capacity(q.len());
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    /// Pushes `keys` (payload = push index) and checks the pop order
    /// equals the stable sorted order — `(at_us, creation)` — on both
    /// backends.
    fn assert_sorted_drain(keys: &[u64]) {
        let mut cal = CalendarQueue::with_capacity(keys.len());
        let mut heap = HeapQueue::with_capacity(keys.len());
        for (seq, &at) in keys.iter().enumerate() {
            cal.push(at, seq as u64, seq as u64);
            heap.push(at, seq as u64, seq as u64);
        }
        assert_eq!(cal.len(), keys.len());
        let c = drain(&mut cal);
        let h = drain(&mut heap);
        assert_eq!(c, h);
        // Payloads are creation stamps, so the strict (time, creation)
        // order is directly checkable on the output.
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn peek_at_reports_the_minimum_without_migrating_tiers() {
        let mut cal: CalendarQueue<u64> = CalendarQueue::with_capacity(4);
        let mut heap: HeapQueue<u64> = HeapQueue::with_capacity(4);
        assert_eq!(cal.peek_at(), None);
        assert_eq!(heap.peek_at(), None);
        // Far-future keys: the probe finds the minimum, removing nothing.
        for (seq, &at) in [u64::MAX / 2, u64::MAX / 2 + 7, 3_000_000_000].iter().enumerate() {
            cal.push(at, seq as u64, at);
            heap.push(at, seq as u64, at);
        }
        assert_eq!(cal.peek_at(), Some(3_000_000_000));
        assert_eq!(heap.peek_at(), Some(3_000_000_000));
        // A near key rewinds the cursor and becomes the head.
        cal.push(100, 3, 100);
        heap.push(100, 3, 100);
        assert_eq!(cal.len(), 4);
        assert_eq!(cal.peek_at(), Some(100));
        assert_eq!(heap.peek_at(), Some(100));
        // The probe agrees with the pop head through a full drain.
        loop {
            let want = cal.peek_at();
            assert_eq!(want, heap.peek_at());
            let got = cal.pop();
            assert_eq!(got.map(|e| e.0), want);
            assert_eq!(heap.pop(), got);
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q: CalendarQueue<u32> = CalendarQueue::with_capacity(0);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn uniform_bulk_seed_drains_in_order() {
        // ~5 events per bucket over thousands of years, rare empty ones.
        let mut rng = StdRng::seed_from_u64(1);
        let keys: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..10_000_000_000u64)).collect();
        assert_sorted_drain(&keys);
    }

    #[test]
    fn all_equal_times_resolve_in_creation_order() {
        assert_sorted_drain(&vec![42u64; 500]);
    }

    // The push contract's guard: debug builds must catch a regressing
    // creation stamp on either backend, through both the scalar and the
    // batched push paths. Release builds compile the guard out, so these only
    // exist under debug_assertions (which is how `cargo test` runs).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stamp regression")]
    fn calendar_catches_regressing_stamp() {
        let mut q = CalendarQueue::with_capacity(8);
        q.push(10, 5, 0u64);
        q.push(11, 5, 1u64); // equal stamp: not strictly increasing
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stamp regression")]
    fn heap_catches_regressing_stamp() {
        let mut q = HeapQueue::with_capacity(8);
        q.push(10, 7, 0u64);
        q.push(9, 3, 1u64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stamp regression")]
    fn push_batch_catches_stamp_overlapping_earlier_push() {
        let mut q = CalendarQueue::with_capacity(8);
        q.push(10, 9, 0u64);
        // seq0 = 8 < 9: the batch's first stamp regresses past the
        // scalar push even though the batch itself is internally ordered.
        q.push_batch(8, &[(20, 1u64), (21, 2u64)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn monotone_stamps_pass_the_guard_across_push_shapes() {
        let mut q = CalendarQueue::with_capacity(8);
        q.push(10, 0, 0u64);
        q.push_batch(1, &[(20, 1u64), (5, 2u64)]); // times may regress; stamps may not
        q.push(30, 3, 3u64);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn dense_front_with_sparse_tail_stays_ordered() {
        // The engine's real shape: a tight cluster of in-flight arrivals
        // near the cursor plus far-flung pre-seeded changes.
        let mut rng = StdRng::seed_from_u64(3);
        let mut keys: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..50_000u64)).collect();
        keys.extend((0..5_000).map(|_| rng.gen_range(0..10_000_000_000u64)));
        assert_sorted_drain(&keys);
    }

    #[test]
    fn sparse_tail_jumps_to_global_min() {
        // Enormous gaps up to the top of the u64 range: every pop after
        // the first misses a whole year and takes the smallest front.
        let keys = [0u64, 1, u64::MAX / 7, u64::MAX / 3, u64::MAX - 1, u64::MAX];
        assert_sorted_drain(&keys);
    }

    #[test]
    fn push_earlier_than_cursor_is_still_popped_first() {
        let mut q: CalendarQueue<u32> = CalendarQueue::with_capacity(8);
        q.push(5_000_000, 0, 0);
        q.push(9_000_000, 1, 1);
        assert_eq!(q.pop(), Some((5_000_000, 0)));
        // The cursor now sits at 5 ms; a push before it must rewind it.
        q.push(1_000, 2, 2);
        assert_eq!(q.pop(), Some((1_000, 2)));
        assert_eq!(q.pop(), Some((9_000_000, 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn a_year_later_event_in_the_same_bucket_waits_for_its_day() {
        // Days 0 and BUCKETS share bucket 0, day 1 is in bucket 1: a pop
        // taking bucket 0's front without checking its day overtakes day 1.
        let day = 1u64 << DAY_LOG2;
        let year = day << BUCKETS_LOG2;
        let mut q: CalendarQueue<u64> = CalendarQueue::with_capacity(4);
        q.push(year, 0, 0);
        q.push(0, 1, 1);
        q.push(day, 2, 2);
        assert_eq!(drain(&mut q), [(0, 1), (day, 2), (year, 0)]);
    }

    /// The headline property: on random interleaved push/pop streams the two
    /// backends are observationally identical, across distributions and sizes.
    /// (`tests/queue_properties.rs` adds bulk operations and tie storms.)
    #[test]
    fn oracle_property_random_interleaved_streams() {
        #[derive(Clone, Copy)]
        enum Dist {
            Uniform,
            Bursty,
            Monotone,
        }
        for (case, dist) in [Dist::Uniform, Dist::Bursty, Dist::Monotone].into_iter().enumerate() {
            for round in 0..30u64 {
                let mut rng = StdRng::seed_from_u64(round * 31 + case as u64);
                let mut cal: CalendarQueue<u64> = CalendarQueue::with_capacity(0);
                let mut heap: HeapQueue<u64> = HeapQueue::with_capacity(0);
                let mut seq = 0u64;
                let mut clock = 0u64;
                let ops = 1 + (rng.gen::<u64>() % 4000) as usize;
                for _ in 0..ops {
                    // Push-biased so the pending set grows to thousands;
                    // drains fully at the end.
                    if rng.gen::<u64>() % 10 < 7 || cal.is_empty() {
                        let at = match dist {
                            Dist::Uniform => rng.gen_range(0..1_000_000u64),
                            Dist::Bursty => {
                                // Tight clusters around a few epochs, plus
                                // rare far-future outliers.
                                let epoch = (rng.gen::<u64>() % 4) * 250_000_000;
                                if rng.gen::<u64>() % 50 == 0 {
                                    epoch + rng.gen_range(0..u64::MAX / 2)
                                } else {
                                    epoch + rng.gen_range(0..500u64)
                                }
                            }
                            Dist::Monotone => {
                                clock += rng.gen_range(0..2_000u64);
                                clock
                            }
                        };
                        cal.push(at, seq, seq);
                        heap.push(at, seq, seq);
                        seq += 1;
                    } else {
                        assert_eq!(cal.pop(), heap.pop());
                    }
                    assert_eq!(cal.len(), heap.len());
                }
                assert_eq!(drain(&mut cal), drain(&mut heap));
            }
        }
    }

    #[test]
    fn resize_boundary_sizes_stay_ordered() {
        // Sizes around powers of two, up to about one event per bucket.
        for n in [31usize, 33, 63, 65, 127, 129, 1023, 1025, 4097] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect();
            assert_sorted_drain(&keys);
        }
    }

    #[test]
    fn overload_shrinks_width_instead_of_degrading() {
        // 10k pushes over 997 distinct timestamps inside two days: two
        // buckets hold them all, each kept sorted by mid-bucket inserts.
        let keys: Vec<u64> = (0..10_000u64).map(|i| 500 + i % 997).collect();
        assert_sorted_drain(&keys);
    }

    #[test]
    fn rebuild_demotions_preserve_creation_order_among_ties() {
        // Five creation-ordered twins per timestamp, dense inside a few
        // days, then an out-of-order echo of the same timestamps: every
        // echo is a mid-bucket insert that must land behind its twins.
        let mut keys: Vec<u64> = Vec::new();
        for i in 0..200u64 {
            keys.extend(std::iter::repeat_n(i * 7, 5));
        }
        keys.extend((0..200u64).rev().map(|i| i * 7));
        assert_sorted_drain(&keys);
    }

    #[test]
    fn pop_run_matches_scalar_pops() {
        // Each run stays strictly inside `window` of its first event and
        // ends only at the cap of 16 or where the next event leaves it;
        // concatenated, the runs are the scalar pop order, on both queues.
        fn runs<Q: EventQueue<u64>>(q: &mut Q, window: u64) -> Vec<(u64, u64)> {
            let mut got = Vec::new();
            while let n @ 1.. = q.pop_run(window, u64::MAX, 16, &mut got) {
                let run = &got[got.len() - n..];
                let limit = run[0].0.saturating_add(window);
                assert!(run[1..].iter().all(|e| e.0 < limit), "window {window}: run too wide");
                assert!(n == 16 || q.peek_at().is_none_or(|at| at >= limit), "window {window}");
            }
            got
        }
        for window in [0u64, 1, 100, 10_000, u64::MAX] {
            let mut rng = StdRng::seed_from_u64(window ^ 0xCAFE);
            let keys: Vec<u64> = (0..3_000).map(|_| rng.gen_range(0..500_000u64)).collect();
            let mut bulk: CalendarQueue<u64> = CalendarQueue::with_capacity(keys.len());
            let mut heap_bulk: HeapQueue<u64> = HeapQueue::with_capacity(keys.len());
            let mut scalar: HeapQueue<u64> = HeapQueue::with_capacity(keys.len());
            for (seq, &at) in keys.iter().enumerate() {
                bulk.push(at, seq as u64, seq as u64);
                heap_bulk.push(at, seq as u64, seq as u64);
                scalar.push(at, seq as u64, seq as u64);
            }
            let want = drain(&mut scalar);
            assert_eq!(runs(&mut bulk, window), want, "window {window}");
            assert_eq!(runs(&mut heap_bulk, window), want, "heap, window {window}");
        }
    }

    #[test]
    fn pop_lt_is_a_strict_non_mutating_probe() {
        let mut q: CalendarQueue<u64> = CalendarQueue::with_capacity(8);
        q.push(100, 0, 0);
        q.push(2_000_000_000, 1, 1); // far future: hundreds of years out
        assert_eq!(q.pop_lt(100), None, "strict bound excludes the minimum itself");
        assert_eq!(q.len(), 2, "failed probe must not disturb the queue");
        assert_eq!(q.pop_lt(101), Some((100, 0)));
        // The next candidate sits past the cap; a failed probe that had
        // to search for it must leave it pending.
        assert_eq!(q.pop_lt(1_000_000_000), None);
        assert_eq!(q.pop_lt(u64::MAX), Some((2_000_000_000, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_batch_matches_scalar_pushes() {
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let mut bulk: CalendarQueue<u64> = CalendarQueue::with_capacity(0);
        let mut scalar: HeapQueue<u64> = HeapQueue::with_capacity(0);
        let mut seq = 0u64;
        for _ in 0..200 {
            // A send group: a serial CPU's arrival times — mostly
            // ascending, occasional jitter, occasional same-day ties and
            // far-future outliers years ahead.
            let base = rng.gen_range(0..1_000_000u64);
            let group: Vec<(u64, u64)> = (0..rng.gen_range(1..24u64))
                .map(|i| {
                    let jitter = rng.gen_range(0..2_000u64);
                    let at = if rng.gen::<u64>() % 40 == 0 {
                        base + 2_000_000_000 + jitter
                    } else {
                        base + i * 120 + jitter
                    };
                    let payload = seq + i;
                    (at, payload)
                })
                .collect();
            bulk.push_batch(seq, &group);
            for (k, &(at, payload)) in group.iter().enumerate() {
                scalar.push(at, seq + k as u64, payload);
            }
            seq += group.len() as u64;
        }
        assert_eq!(drain(&mut bulk), drain(&mut scalar));
    }
}
