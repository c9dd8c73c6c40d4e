//! Event priority queues for the discrete-event engine.
//!
//! The engine schedules events keyed by `(at_us, seq)` — integer
//! microseconds plus a creation-order tie-breaker — and pops them in
//! exactly ascending key order. Two interchangeable backends implement
//! that contract behind the [`EventQueue`] trait:
//!
//! * [`HeapQueue`] — the classic `BinaryHeap<Reverse<_>>`, `O(log n)` per
//!   operation. The queue every product drive (`Prepared::run`,
//!   `session`, `resume`) schedules with: the engine streams its
//!   pre-seeded source changes instead of enqueueing them, so the heap
//!   holds only the in-flight arrivals — a few thousand, so `log n` is
//!   short and cache-hot.
//! * [`CalendarQueue`] — a calendar queue (R. Brown, CACM 1988) with a
//!   ladder-style twist, specialised to the engine's exact integer-µs
//!   keys: amortized `O(1)` push and pop. Against the heap it never won
//!   outside noise on any benchmark workload, and its buckets raise a
//!   2 500-repository drive's peak by ≈ 3.4 MB, so it drives nothing
//!   but the sharded drive's shard queues. It stays as the reference
//!   the queue property suites compare the heap against, and because
//!   `d3t-bench` names it (`engine.oracle_drive`), until the benchmark
//!   lets go of it; then it goes.
//!
//! # The calendar's slim slots and bulk operations
//!
//! The calendar was shaped for memory traffic (~27 M push/pop operations
//! per paper-scale run):
//!
//! * **Its slots carry no `seq`** ([`EventQueue::SLOT_BYTES`]: 24 bytes
//!   for the engine's 16-byte payload, against the heap's 32). The
//!   tie-breaker is *implicit*: the push contract requires `seq` to be
//!   strictly increasing across pushes (the engine's creation counter
//!   is), so FIFO insertion among equal `at_us` keys inside a bucket
//!   reproduces `(at_us, seq)` order exactly — see the stability
//!   argument below.
//! * **[`EventQueue::push_batch`]** fans a send group into buckets with
//!   one bucket locate per monotone same-day run.
//! * **[`EventQueue::pop_run`]** sweeps a run of events off the front of
//!   the cursor-day bucket, bounded by a caller-provided reorder-free
//!   window. The session's drain loop uses it, on either queue, with the
//!   provable `comp_delay + min link delay` window — nothing processing
//!   a popped run can schedule may land inside it — and `run_until`
//!   passes its target as one more strict cap, so an event past it is
//!   never popped.
//!
//! # The stability argument (why slots need no `seq`)
//!
//! Every path an event can take preserves creation order among equal
//! `at_us` keys:
//!
//! * equal keys land in the same day, hence the same bucket, and both
//!   the append fast path and the binary insert place a new event
//!   **after** every equal key already present — bucket order among ties
//!   is push order;
//! * the overflow tier orders by explicit `(at_us, seq)`, and a year
//!   advance migrates events in exactly that order into empty-or-FIFO
//!   bucket positions;
//! * a rebuild that demotes calendar events back to the overflow tier
//!   assigns them synthesized tie-breakers from a strictly decreasing
//!   floor (`demote_floor`), which keeps every demoted batch ahead of
//!   all equal-key events still in the overflow tier (they were admitted
//!   to the calendar earlier, so their creation keys are smaller) while
//!   preserving FIFO order inside the batch.
//!
//! Pop order is therefore **exactly** `(at_us, seq)` — bit-identical to
//! the heap on any input — which the property tests at the workspace
//! root (`tests/queue_properties.rs`) pin down on adversarial streams.
//!
//! # Why two tiers
//!
//! A running simulation's backlog is *bimodal*: a dense front of
//! in-flight arrivals scheduled within a CPU-queue-plus-link-delay lead
//! of the cursor, and a long sparse tail of pre-seeded source changes
//! spread over the whole horizon. No single bucket width serves both —
//! sized for the tail it dumps every arrival into one bucket (`O(k)`
//! sorted inserts), sized for the front it strands the tail thousands of
//! empty days away. So the queue splits at a **year boundary**:
//!
//! * the **calendar tier** covers one year of days around the cursor and
//!   absorbs all the churn. It stays small (hundreds of events), so its
//!   bucket array lives in cache and push/pop are index arithmetic;
//! * the **overflow tier** is a plain min-heap holding everything beyond
//!   the boundary. Far-future events pay `O(log overflow)` once on entry
//!   and once when their year arrives — for pre-seeded changes that is
//!   exactly two heap touches over the whole run, off the hot path.
//!
//! When the calendar drains, the cursor jumps to the overflow minimum and
//! one year's worth of events migrates in (each event migrates at most
//! once, so migration is `O(1)` amortized).
//!
//! # Calendar bucket math
//!
//! Bucket *width* and bucket *count* are powers of two, so the hot path
//! is pure index arithmetic — no division, no float keys:
//!
//! * an event at `t` µs belongs to **day** `t >> width_log2`;
//! * days map onto `nb = 1 << nb_log2` buckets cyclically:
//!   `bucket = day & (nb - 1)`; `nb` consecutive days are one **year**;
//! * each bucket is a cursor-fronted `Vec` sorted ascending by `at_us`
//!   with FIFO ties: the bucket minimum is `front()`, removal is a
//!   cursor bump, the dominant monotone-in-time insert is an `O(1)`
//!   `push_back()`, and the pending events are always one contiguous
//!   slice (what makes `pop_run`'s bulk sweep a straight-line scan).
//!
//! Pop walks days forward from a cursor: a bucket's minimum is dequeued
//! iff it belongs to the cursor day, otherwise the cursor advances.
//! Earlier days are exhausted and same-day events are confined to one
//! bucket, so the dequeued event is globally minimal within the calendar;
//! the year boundary makes it globally minimal outright.
//!
//! # Adaptation policy
//!
//! Three feedback signals keep the grid matched to the backlog, each
//! applied where rebuilding is cheap (the calendar tier is small; two of
//! the three run between years, when it is empty):
//!
//! * **Near-miss year growth** — pushes that land in overflow within one
//!   further year of the boundary are counted; a year that ends with more
//!   near misses than pops is bouncing churn off its boundary, so the
//!   next year gets 4× more days (bounded by a 64 Ki-bucket backstop).
//! * **Sparse-year width resample** — a year that delivered almost no
//!   pops over a deep overflow tier has days too fine for the backlog;
//!   the width is re-derived from a stride sample of the overflow tier's
//!   spread (it can move either way).
//! * **Overload width shrink** — a single bucket collecting `OVERLOAD`
//!   events with distinct timestamps means the local density outgrew the
//!   day width; the width shrinks 4×, the year shrinks with it, and the
//!   year's far end demotes back to the overflow heap.
//!
//! A year advance also caps how many events it admits (4× the bucket
//! count), snapping the boundary to the next overflow key instead —
//! exactness is unaffected, and a mis-sampled width cannot flood the
//! calendar tier. Rebuilds may shorten the open year but never extend it
//! (only an advance, which migrates immediately, may raise the boundary),
//! which is what keeps the cross-tier ordering invariant airtight.
//!
//! # Measured shape
//!
//! Absolute rates on the shared CI host drift ~20% between PRs, so
//! every throughput claim here is *relative to a same-process
//! reference* and tracked by `d3t-bench` (`queue.calendar_vs_heap_x`,
//! `engine.session_vs_oracle_x`; nothing gates on speed). Because the
//! engine *streams* its pre-seeded source changes instead of enqueueing
//! them (see `d3t_sim::engine`), the pending set is only the in-flight
//! arrivals — shallow enough that the heap is competitive on every
//! workload the benchmark runs (`queue.calendar_vs_heap_x` has read
//! 0.85–1.09 across them, never a win outside noise). The calendar's
//! structural lead — deep backlogs, such as congested configurations
//! whose CPU queues stack arrivals — follows from the bucket math but is
//! measured on no workload run here, so the drives keep the heap.
//!
//! # Sharded drains: the epoch/lookahead bound
//!
//! The sharded engine (`d3t_sim::shard`) runs one queue of this trait
//! per shard. Its safety argument is the same window that licenses
//! [`EventQueue::pop_run`]: any event an event at time `t` can cause
//! lands at or after `t + W`, with lookahead
//! `W = comp_delay + min_offdiag_link`. Each epoch the coordinator
//! probes every shard queue's [`EventQueue::peek_at`] (and the shared
//! source-change stream) for the global minimum `t_min`, then lets
//! every shard drain independently below
//! `T = t_min + W`: all events strictly below
//! `T` are mutually reorder-free across shards, so the per-shard pop
//! orders compose into a valid global order. Cross-shard sends stage in
//! per-shard outboxes, are merged at the epoch barrier in global
//! creation order, and are re-stamped from one run-wide counter —
//! which is what preserves the strictly-increasing-stamp push contract
//! on every shard queue (each queue receives an ascending subsequence
//! of the merged stamp sequence).
//!
//! The heap also wins two structural niches: backlogs sitting at a
//! handful of *identical* timestamps (no width separates ties), and pure
//! bulk seed-then-drain with no interleaved churn (every event then
//! transits both tiers, which is strictly more work than one heap).
//!
//! A **lazy-sorted bucket** variant (append always, stable-sort a bucket
//! on first cursor contact) measured neutral within noise against this
//! eager insert: 58% of inserts already take the append fast path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A priority queue of `(at_us, seq)`-keyed events, popped in exactly
/// ascending key order.
///
/// # The push contract
///
/// `seq` must be **strictly increasing across pushes** over the queue's
/// lifetime (the engine's creation counter is exactly that). That is
/// stronger than the old mere-uniqueness contract, and it is what lets a
/// backend drop `seq` from its hot slots entirely: insertion order among
/// equal `at_us` keys *is* `seq` order, so FIFO placement reproduces the
/// total `(at_us, seq)` order without storing the tie-breaker. `pop`
/// therefore returns only `(at_us, item)`; every implementation is
/// observationally identical on any compliant push sequence.
pub trait EventQueue<T: Copy> {
    /// Bytes one pending event occupies in the backend's primary (hot)
    /// tier — what a push or pop physically moves.
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
    /// stamp `seq0 + k`. Equivalent to the scalar loop; backends may
    /// amortize bucket location over runs of nearby timestamps.
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
    ) -> usize;

    /// The minimal pending `at_us`, without removing anything. Unlike a
    /// failed [`EventQueue::pop_lt`] probe this must never migrate
    /// events between a backend's internal tiers: it is the shard
    /// coordinator's `t_min` probe, issued against every shard queue at
    /// every epoch barrier, so it has to be cheap and strictly
    /// non-structural. (Cursor advances that only memoize the search
    /// position are fine.)
    fn peek_at(&mut self) -> Option<u64>;

    /// Appends every pending event to `out` in exactly the order
    /// repeated [`EventQueue::pop`] calls would drain them, **without
    /// mutating the queue** (no tier migrations, no cursor movement).
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

/// One pending event in a tier that stores the explicit tie-breaker
/// (the heap backend, and the calendar's overflow tier). `seq` is signed:
/// real creation stamps are non-negative, and rebuild demotions stamp
/// synthesized negative keys (see `CalendarQueue::demote_floor`).
#[derive(Debug, Clone, Copy)]
struct KeyedSlot<T> {
    at_us: u64,
    seq: i64,
    item: T,
}

impl<T> KeyedSlot<T> {
    #[inline]
    fn key(&self) -> (u64, i64) {
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

/// Converts a caller creation stamp into the signed internal form.
/// Stamps are event counters (the engine's fits comfortably); the top
/// bit is reclaimed for the demotion floor.
#[inline]
fn signed_seq(seq: u64) -> i64 {
    debug_assert!(seq <= i64::MAX as u64, "creation stamp overflows the signed tie-breaker");
    seq as i64
}

/// Debug-build enforcement of the push contract: creation stamps must be
/// strictly increasing over a queue's lifetime (the property that lets
/// the calendar tier drop the tie-breaker from its slots entirely — see
/// the trait docs). Zero-sized and fully compiled out in release builds;
/// the static half of the same contract is d3t-lint's job.
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

    /// Checks a batch stamped `seq0 .. seq0 + n`.
    #[inline]
    fn check_batch(&mut self, seq0: u64, n: usize) {
        #[cfg(debug_assertions)]
        if n > 0 {
            self.check(seq0);
            self.last = Some(seq0 + n as u64 - 1);
        }
        #[cfg(not(debug_assertions))]
        let _ = (seq0, n);
    }
}

/// The `BinaryHeap` backend — `O(log n)` per operation, distribution
/// independent. The reference implementation the calendar queue is
/// property-tested against.
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
        self.heap.push(Reverse(KeyedSlot { at_us, seq: signed_seq(seq), item }));
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
        while n < max {
            match self.heap.peek() {
                Some(Reverse(s)) if s.at_us < limit => {
                    // d3t-lint: allow(P001) -- pop follows the successful peek in the match head
                    let Reverse(s) = self.heap.pop().expect("peeked heap entry");
                    out.push((s.at_us, s.item));
                    n += 1;
                }
                _ => break,
            }
        }
        n
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

/// Smallest bucket-count exponent (16 buckets).
const MIN_NB_LOG2: u32 = 4;
/// Bucket-count exponent large queues start at (4 Ki buckets, ~128 KB of
/// headers — L2-resident).
const DEFAULT_NB_LOG2: u32 = 12;
/// Largest bucket-count exponent near-miss growth may reach.
const MAX_NB_LOG2: u32 = 16;
/// Largest bucket-width exponent; days must stay meaningful for any `u64`.
const MAX_WIDTH_LOG2: u32 = 62;
/// Distinct-timestamp events one bucket may collect before the width is
/// deemed too coarse for the local density and shrunk 4×.
const OVERLOAD: usize = 64;

/// One calendar-tier event: the 8-byte key plus the payload and **no
/// tie-breaker** — among equal keys, bucket FIFO order *is* creation
/// order (see the module-level stability argument). For the engine's
/// 16-byte payload this is a 24-byte slot, down from the 40 bytes the
/// seq-carrying slot around the old 24-byte payload cost.
#[derive(Debug, Clone, Copy)]
struct CalSlot<T> {
    at_us: u64,
    item: T,
}

/// One calendar day's events: a plain `Vec` behind a consumed-front
/// cursor. Cheaper than a `VecDeque` on every hot operation — pops are a
/// cursor bump, the pending events are always one contiguous slice (no
/// ring arithmetic, no two-slice seams for scans and bulk drains), and
/// `Vec::insert` moves only the short tail that follows a late event.
/// The backing storage is reclaimed (cursor reset, capacity kept) each
/// time the day drains, which every day does once per year cycle.
#[derive(Debug)]
struct Bucket<T> {
    /// Index of the first pending slot; everything before it is popped.
    head: usize,
    slots: Vec<CalSlot<T>>,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Self { head: 0, slots: Vec::new() }
    }
}

impl<T: Copy> Bucket<T> {
    #[inline]
    fn len(&self) -> usize {
        self.slots.len() - self.head
    }

    /// The pending events, ascending by `at_us` with FIFO ties.
    #[inline]
    fn pending(&self) -> &[CalSlot<T>] {
        &self.slots[self.head..]
    }

    #[inline]
    fn front(&self) -> Option<&CalSlot<T>> {
        self.slots.get(self.head)
    }

    #[inline]
    fn back(&self) -> Option<&CalSlot<T>> {
        self.slots.last()
    }

    #[inline]
    fn push_back(&mut self, slot: CalSlot<T>) {
        self.slots.push(slot);
    }

    /// Binary-inserts after every equal-or-smaller key (FIFO ties).
    fn insert_sorted(&mut self, slot: CalSlot<T>) {
        let pos = self.head + self.pending().partition_point(|e| e.at_us <= slot.at_us);
        self.slots.insert(pos, slot);
    }

    /// Pops the front pending event. Caller guarantees non-empty.
    #[inline]
    fn pop_front(&mut self) -> CalSlot<T> {
        let slot = self.slots[self.head];
        self.consume(1);
        slot
    }

    /// Marks the first `k` pending events popped, reclaiming the storage
    /// when the day drains.
    #[inline]
    fn consume(&mut self, k: usize) {
        self.head += k;
        debug_assert!(self.head <= self.slots.len());
        if self.head == self.slots.len() {
            self.slots.clear();
            self.head = 0;
        }
    }

    /// Removes and returns every pending event, discarding the consumed
    /// prefix (storage kept).
    fn take_all(&mut self) -> impl Iterator<Item = CalSlot<T>> + '_ {
        let head = std::mem::take(&mut self.head);
        self.slots.drain(..).skip(head)
    }
}

/// The calendar-queue backend: a one-year calendar tier around the
/// cursor, backed by a min-heap overflow tier for everything beyond the
/// year boundary. See the module docs for the bucket math and policies.
pub struct CalendarQueue<T> {
    /// Each bucket is sorted ascending by `at_us` with FIFO ties: min at
    /// `front()` (see [`Bucket`] for the cursor-fronted layout that makes
    /// the dominant monotone push and the pop both O(1) on one
    /// contiguous slice).
    buckets: Vec<Bucket<T>>,
    /// Events currently in the calendar tier (not counting `overflow`).
    cal_len: usize,
    /// Bucket width is `1 << width_log2` µs.
    width_log2: u32,
    /// Bucket count is `1 << nb_log2`.
    nb_log2: u32,
    /// Pop cursor: no calendar event has a day earlier than this.
    current_day: u64,
    /// Exclusive µs limit of the calendar year. `u64::MAX` means the
    /// calendar accepts everything (the boundary computation saturated).
    boundary_us: u64,
    /// Far-future events, strictly at or beyond `boundary_us` (up to
    /// boundary-snap ties admitted before a migration cap hit — those
    /// calendar twins always carry smaller creation keys).
    overflow: BinaryHeap<Reverse<KeyedSlot<T>>>,
    /// Synthesized tie-breaker floor for rebuild demotions: decremented
    /// by each demoted batch so the batch sorts after nothing it should
    /// precede — demoted events were in the calendar, so every equal-key
    /// event still in overflow was created later (or demoted earlier,
    /// i.e. above the new floor).
    demote_floor: i64,
    /// Calendar pops since the last year advance — the feedback signal
    /// that detects a year too short for the backlog density.
    pops_since_advance: u64,
    /// Pushes since the last advance that landed in overflow but within
    /// one further year of the boundary — the signal that churn is
    /// bouncing off a too-short year.
    near_misses: u64,
    /// Debug-only push-contract enforcement (zero-sized in release).
    stamps: StampGuard,
}

/// End of the year that starts at `anchor_us`: `nb` days rounded to the
/// width grid, saturating to `u64::MAX` (= "accept everything") at the
/// top of the range.
fn year_end(anchor_us: u64, width_log2: u32, nb_log2: u32) -> u64 {
    let boundary_day = match (anchor_us >> width_log2).checked_add(1u64 << nb_log2) {
        Some(d) => d,
        None => return u64::MAX,
    };
    if boundary_day > (u64::MAX >> width_log2) {
        u64::MAX
    } else {
        boundary_day << width_log2
    }
}

impl<T: Copy> CalendarQueue<T> {
    #[inline]
    fn nb(&self) -> u64 {
        1u64 << self.nb_log2
    }

    /// Whether `at_us` belongs to the calendar tier.
    #[inline]
    fn accepts(&self, at_us: u64) -> bool {
        at_us < self.boundary_us || self.boundary_us == u64::MAX
    }

    /// Inserts into the calendar tier without any resize checks.
    #[inline]
    fn insert_plain(&mut self, slot: CalSlot<T>) -> usize {
        let day = slot.at_us >> self.width_log2;
        if self.cal_len == 0 || day < self.current_day {
            self.current_day = day;
        }
        let b = (day & (self.nb() - 1)) as usize;
        let bucket = &mut self.buckets[b];
        // Fast path: simulation pushes are monotone-in-time, so the new
        // event usually belongs at the back — and equal keys *must* go to
        // the back (FIFO ties are creation order). Otherwise binary-insert
        // after every equal-or-smaller key to keep ties stable.
        match bucket.back() {
            Some(last) if last.at_us > slot.at_us => bucket.insert_sorted(slot),
            _ => bucket.push_back(slot),
        }
        self.cal_len += 1;
        b
    }

    /// Calendar-tier insert plus the overload check.
    fn insert_cal(&mut self, slot: CalSlot<T>) {
        let b = self.insert_plain(slot);
        self.check_overload(b);
    }

    /// One push with the stamp guard already satisfied (scalar `push`,
    /// and `push_batch`'s fanout-1 fast path after its batch check).
    #[inline]
    fn insert_unchecked(&mut self, at_us: u64, seq: u64, item: T) {
        if self.accepts(at_us) {
            self.insert_cal(CalSlot { at_us, item });
        } else {
            if at_us - self.boundary_us < self.year_span() {
                self.near_misses += 1;
            }
            self.overflow.push(Reverse(KeyedSlot { at_us, seq: signed_seq(seq), item }));
        }
    }

    /// Shrinks the day width 4× when bucket `b` has collected [`OVERLOAD`]
    /// events spanning more than one timestamp.
    fn check_overload(&mut self, b: usize) {
        let bucket = &self.buckets[b];
        if bucket.len() >= OVERLOAD
            && self.width_log2 > 0
            && bucket.front().map(|s| s.at_us) != bucket.back().map(|s| s.at_us)
        {
            // Front clustering: the local density outgrew the day width.
            let w = self.width_log2.saturating_sub(2);
            self.rebuild(self.nb_log2, Some(w));
        }
    }

    /// Re-buckets the calendar tier under `new_nb_log2` buckets and
    /// either the given width or one re-derived from the observed spread,
    /// re-anchoring the year at the earliest calendar event and demoting
    /// anything past the new boundary to the overflow tier.
    fn rebuild(&mut self, new_nb_log2: u32, width_override: Option<u32>) {
        let mut all: Vec<CalSlot<T>> = Vec::with_capacity(self.cal_len);
        for b in &mut self.buckets {
            all.extend(b.take_all());
        }
        match width_override {
            Some(w) => self.width_log2 = w,
            None => {
                if all.len() >= 2 {
                    let mut min = u64::MAX;
                    let mut max = 0u64;
                    for s in &all {
                        min = min.min(s.at_us);
                        max = max.max(s.at_us);
                    }
                    let per_event = ((max - min) / all.len() as u64).max(1);
                    self.width_log2 = per_event.ilog2().min(MAX_WIDTH_LOG2);
                }
            }
        }
        self.nb_log2 = new_nb_log2;
        let nb = 1usize << new_nb_log2;
        if self.buckets.len() != nb {
            self.buckets.resize_with(nb, Bucket::default);
        }
        self.cal_len = 0;
        // A rebuild may shorten the year but never extend it: overflow
        // events are only guaranteed to sit at or beyond the *current*
        // boundary, so raising it here would let a calendar pop overtake
        // an overflow event. Only `advance_year` raises the boundary, and
        // it migrates the newly covered events immediately.
        self.boundary_us = match all.iter().map(|s| s.at_us).min() {
            Some(anchor) => year_end(anchor, self.width_log2, self.nb_log2),
            // An empty calendar closes the year; the next pop's
            // year-advance re-anchors it at the overflow minimum.
            None => 0,
        }
        .min(self.boundary_us);
        // Slots carry no tie-breaker, so demotions synthesize one: a
        // fresh strictly-below-everything floor per batch, ascending
        // within the batch in `(at_us, bucket-FIFO)` order. That keeps
        // each demoted batch ahead of every equal-key event still in the
        // overflow tier (all created or demoted later) and preserves the
        // batch's own creation order — see the module docs.
        let mut demoted: Vec<CalSlot<T>> = Vec::new();
        for slot in all {
            if self.accepts(slot.at_us) {
                self.insert_plain(slot);
            } else {
                demoted.push(slot);
            }
        }
        if !demoted.is_empty() {
            // Per-bucket drains preserve FIFO order and equal keys share
            // a bucket, so a stable sort by time restores the exact
            // global `(at_us, creation)` order.
            demoted.sort_by_key(|s| s.at_us);
            self.demote_floor -= demoted.len() as i64;
            for (i, s) in demoted.into_iter().enumerate() {
                let seq = self.demote_floor + i as i64;
                self.overflow.push(Reverse(KeyedSlot { at_us: s.at_us, seq, item: s.item }));
            }
        }
    }

    /// Length of one year in µs, saturating.
    #[inline]
    fn year_span(&self) -> u64 {
        let total = self.nb_log2 + self.width_log2;
        if total >= 64 {
            u64::MAX
        } else {
            1u64 << total
        }
    }

    /// Estimates the overflow tier's mean inter-event gap from a stride
    /// sample and returns the matching power-of-two width exponent.
    fn sample_overflow_width(&self) -> u32 {
        let n = self.overflow.len();
        if n < 2 {
            return self.width_log2;
        }
        let stride = (n / 64).max(1);
        let mut min = u64::MAX;
        let mut max = 0u64;
        for Reverse(s) in self.overflow.iter().step_by(stride) {
            min = min.min(s.at_us);
            max = max.max(s.at_us);
        }
        let per_event = ((max - min) / n as u64).max(1);
        per_event.ilog2().min(MAX_WIDTH_LOG2)
    }

    /// Opens the year containing the overflow minimum. Returns false when
    /// the whole queue is empty.
    fn advance_year(&mut self) -> bool {
        if self.overflow.is_empty() {
            return false;
        }
        // Feedback, applied between years (the calendar is empty here, so
        // a rebuild is just parameter bookkeeping):
        // * more near-miss pushes than pops → churn keeps landing just
        //   past the boundary; give the year more days;
        // * a year that delivered almost no pops while the overflow tier
        //   is deep → the day grid is too fine for the backlog; re-sample
        //   the width from the overflow gaps (it can move either way).
        if self.near_misses > self.pops_since_advance && self.nb_log2 < MAX_NB_LOG2 {
            self.rebuild((self.nb_log2 + 2).min(MAX_NB_LOG2), None);
        } else if self.pops_since_advance < self.nb() / 8 && self.overflow.len() as u64 >= self.nb()
        {
            let w = self.sample_overflow_width();
            if w != self.width_log2 {
                self.rebuild(self.nb_log2, Some(w));
            }
        }
        self.pops_since_advance = 0;
        self.near_misses = 0;
        // d3t-lint: allow(P001) -- advance_year returns early on empty overflow; rebuild only demotes into it
        let anchor = self.overflow.peek().expect("overflow emptied by rebuild").0.at_us;
        self.current_day = anchor >> self.width_log2;
        let nominal_end = year_end(anchor, self.width_log2, self.nb_log2);
        // Bound what one advance admits, so a mis-sampled width cannot
        // flood the calendar tier. When the cap cuts the year short, the
        // boundary snaps to the next overflow key, which keeps the tier
        // invariant exact (heap pops deliver `(at_us, seq)` order, so any
        // boundary-key twins left behind carry larger creation keys).
        let cap = self.cal_len + 4 * self.nb() as usize;
        self.boundary_us = nominal_end;
        while let Some(Reverse(t)) = self.overflow.peek() {
            if !self.accepts(t.at_us) {
                break;
            }
            if self.cal_len >= cap {
                self.boundary_us = t.at_us;
                break;
            }
            // d3t-lint: allow(P001) -- pop follows the successful peek in the loop head
            let Reverse(slot) = self.overflow.pop().expect("peeked overflow entry");
            self.insert_cal(CalSlot { at_us: slot.at_us, item: slot.item });
        }
        true
    }

    /// Advances the cursor to the calendar minimum's day and returns its
    /// bucket index (the minimum is that bucket's `front()`). Caller
    /// guarantees `cal_len > 0`.
    fn locate_min(&mut self) -> usize {
        let nb = self.nb();
        let mask = nb - 1;
        let mut day = self.current_day;
        for _ in 0..nb {
            let b = (day & mask) as usize;
            if let Some(s) = self.buckets[b].front() {
                if s.at_us >> self.width_log2 == day {
                    self.current_day = day;
                    return b;
                }
            }
            // Wrapping: `day` can legitimately sit at the top of the u64
            // range; wrapped days fail their bucket check and fall through
            // to the global-min scan.
            day = day.wrapping_add(1);
        }
        // Residue outside the cursor's year (possible right after a
        // rebuild moved the grid): one `O(nb)` scan of bucket minima.
        // Distinct buckets hold distinct days, so `at_us` alone
        // discriminates — no tie-breaking needed across buckets.
        let mut best: Option<(usize, u64)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if let Some(s) = bucket.front() {
                if best.is_none_or(|(_, k)| s.at_us < k) {
                    best = Some((b, s.at_us));
                }
            }
        }
        // d3t-lint: allow(P001) -- every caller establishes cal_len > 0 before locate_min
        let (b, at_us) = best.expect("locate_min on an empty calendar");
        self.current_day = at_us >> self.width_log2;
        b
    }
}

impl<T: Copy> EventQueue<T> for CalendarQueue<T> {
    const SLOT_BYTES: usize = std::mem::size_of::<CalSlot<T>>();

    fn with_capacity(capacity: usize) -> Self {
        // Days-per-year from the backlog hint (clamped): larger queues get
        // longer years up front so churn doesn't bounce off the boundary
        // while the near-miss feedback is still warming up.
        let nb_log2 = (capacity.max(1).ilog2() + 1).clamp(MIN_NB_LOG2, DEFAULT_NB_LOG2);
        let nb = 1usize << nb_log2;
        let width_log2 = 10; // ~1 ms days until adaptation observes the backlog
        Self {
            buckets: std::iter::repeat_with(Bucket::default).take(nb).collect(),
            cal_len: 0,
            width_log2,
            nb_log2,
            current_day: 0,
            boundary_us: year_end(0, width_log2, nb_log2),
            overflow: BinaryHeap::with_capacity(capacity),
            demote_floor: 0,
            pops_since_advance: 0,
            near_misses: 0,
            stamps: StampGuard::default(),
        }
    }

    #[inline]
    fn push(&mut self, at_us: u64, seq: u64, item: T) {
        self.stamps.check(seq);
        self.insert_unchecked(at_us, seq, item);
    }

    fn push_batch(&mut self, seq0: u64, events: &[(u64, T)]) {
        self.stamps.check_batch(seq0, events.len());
        // Fanout-1 sends dominate tree dissemination; skip the grouping
        // scan for them.
        if let [(at_us, item)] = *events {
            self.insert_unchecked(at_us, seq0, item);
            return;
        }
        let mut k = 0;
        while k < events.len() {
            let (at_us, item) = events[k];
            if !self.accepts(at_us) {
                if at_us - self.boundary_us < self.year_span() {
                    self.near_misses += 1;
                }
                let seq = signed_seq(seq0 + k as u64);
                self.overflow.push(Reverse(KeyedSlot { at_us, seq, item }));
                k += 1;
                continue;
            }
            // One bucket locate serves the maximal monotone same-day run
            // starting at k (the boundary may cut a day short, so
            // acceptance is re-checked per event).
            let day = at_us >> self.width_log2;
            let mut end = k + 1;
            while end < events.len() {
                let a = events[end].0;
                if a < events[end - 1].0 || a >> self.width_log2 != day || !self.accepts(a) {
                    break;
                }
                end += 1;
            }
            if self.cal_len == 0 || day < self.current_day {
                self.current_day = day;
            }
            let b = (day & (self.nb() - 1)) as usize;
            let bucket = &mut self.buckets[b];
            if bucket.back().is_none_or(|last| last.at_us <= at_us) {
                // The run is non-decreasing and starts at or after the
                // bucket's back, so the whole run appends FIFO.
                for &(a, it) in &events[k..end] {
                    bucket.push_back(CalSlot { at_us: a, item: it });
                }
            } else {
                for &(a, it) in &events[k..end] {
                    bucket.insert_sorted(CalSlot { at_us: a, item: it });
                }
            }
            self.cal_len += end - k;
            k = end;
            // One overload check per run instead of per push.
            self.check_overload(b);
        }
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        if self.cal_len == 0 && !self.advance_year() {
            return None;
        }
        let b = self.locate_min();
        self.cal_len -= 1;
        let slot = self.buckets[b].pop_front();
        self.pops_since_advance += 1;
        Some((slot.at_us, slot.item))
    }

    fn pop_lt(&mut self, cap_us: u64) -> Option<(u64, T)> {
        if self.cal_len == 0 {
            // Only cross the year boundary when the overflow minimum is
            // actually due — a failed probe must leave the tiers alone.
            match self.overflow.peek() {
                Some(Reverse(s)) if s.at_us < cap_us => {}
                _ => return None,
            }
            self.advance_year();
        }
        // `locate_min` persists the cursor advance, so repeated failed
        // probes re-walk nothing: the next probe starts at the min's day.
        let b = self.locate_min();
        // d3t-lint: allow(P001) -- locate_min returns the index of a non-empty bucket
        let front = self.buckets[b].front().expect("located bucket is non-empty");
        if front.at_us >= cap_us {
            return None;
        }
        self.cal_len -= 1;
        let slot = self.buckets[b].pop_front();
        self.pops_since_advance += 1;
        Some((slot.at_us, slot.item))
    }

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
        // The first event goes through the full pop (year advance,
        // cursor walk); the run then extends with front sweeps of the
        // cursor-day bucket.
        let Some(first) = self.pop_lt(cap_us) else { return 0 };
        let limit = first.0.saturating_add(window_us).min(cap_us);
        out.push(first);
        let mut n = 1;
        while n < max {
            if self.cal_len == 0 {
                // The next candidate sits in overflow: only cross the
                // year boundary when it is inside the window.
                match self.overflow.peek() {
                    Some(Reverse(s)) if s.at_us < limit => {}
                    _ => break,
                }
                if !self.advance_year() {
                    break;
                }
            }
            let b = self.locate_min();
            let day = self.current_day;
            let w = self.width_log2;
            // The cursor day ends at `(day + 1) << w` (saturating at the
            // top of the range), so one compare bounds the run by both
            // the window and the day.
            let day_end = match day.checked_add(1) {
                Some(d1) if d1 <= (u64::MAX >> w) => d1 << w,
                _ => u64::MAX,
            };
            let lim = limit.min(day_end);
            let take = max - n;
            let bucket = &mut self.buckets[b];
            // Count the front run on the bucket's contiguous pending
            // slice, copy it out in one pass, and consume it with one
            // cursor bump instead of per-event pops.
            let pending = bucket.pending();
            let mut run = 0usize;
            while run < take && run < pending.len() && pending[run].at_us < lim {
                run += 1;
            }
            out.extend(pending[..run].iter().map(|s| (s.at_us, s.item)));
            bucket.consume(run);
            self.cal_len -= run;
            n += run;
            // Credit the drained pops to the year they came from, before
            // a later iteration's `advance_year` reads the counter for
            // its feedback decisions and resets it.
            self.pops_since_advance += run as u64;
            if run == 0 {
                // The calendar minimum is outside the window.
                break;
            }
        }
        n
    }

    fn peek_at(&mut self) -> Option<u64> {
        if self.cal_len == 0 {
            // Deliberately no `advance_year`: a peek must not migrate
            // overflow events into the calendar (the epoch coordinator
            // probes every shard queue between drains, and a structural
            // mutation per probe would churn the tiers for nothing).
            return self.overflow.peek().map(|Reverse(s)| s.at_us);
        }
        // The tier invariant (calendar events < boundary ≤ overflow
        // events) makes the calendar minimum the global minimum whenever
        // the calendar tier is non-empty. `locate_min` only persists the
        // cursor, which is a search memo, not a structural change.
        let b = self.locate_min();
        self.buckets[b].front().map(|s| s.at_us)
    }

    fn snapshot_events(&self, out: &mut Vec<(u64, T)>) {
        // Calendar tier: equal keys always share a day (`at_us` maps to
        // one day, a day to one bucket) and bucket order is FIFO, so
        // concatenating the pending slices and *stably* sorting by time
        // alone reproduces the exact calendar pop order.
        let mut cal: Vec<CalSlot<T>> = Vec::with_capacity(self.cal_len);
        for b in &self.buckets {
            cal.extend_from_slice(b.pending());
        }
        cal.sort_by_key(|s| s.at_us);
        // Overflow tier: slots carry explicit (possibly demotion-
        // synthesized negative) tie-breakers; `(at_us, seq)` is its pop
        // order.
        let mut ovf: Vec<&KeyedSlot<T>> = self.overflow.iter().map(|Reverse(s)| s).collect();
        ovf.sort_by_key(|s| s.key());
        // Merge with the calendar winning time ties: the only cross-tier
        // equal keys are boundary-snap twins, whose overflow halves were
        // created later (see `advance_year`).
        out.reserve(cal.len() + ovf.len());
        let (mut i, mut j) = (0, 0);
        while i < cal.len() && j < ovf.len() {
            if cal[i].at_us <= ovf[j].at_us {
                out.push((cal[i].at_us, cal[i].item));
                i += 1;
            } else {
                out.push((ovf[j].at_us, ovf[j].item));
                j += 1;
            }
        }
        out.extend(cal[i..].iter().map(|s| (s.at_us, s.item)));
        out.extend(ovf[j..].iter().map(|s| (s.at_us, s.item)));
    }

    fn len(&self) -> usize {
        self.cal_len + self.overflow.len()
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
        // Far-future keys land in the overflow tier; the probe must
        // report them without crossing the year boundary.
        for (seq, &at) in [u64::MAX / 2, u64::MAX / 2 + 7, 3_000_000_000].iter().enumerate() {
            cal.push(at, seq as u64, at);
            heap.push(at, seq as u64, at);
        }
        assert_eq!(cal.cal_len, 0, "far-future pushes stay in overflow");
        assert_eq!(cal.peek_at(), Some(3_000_000_000));
        assert_eq!(cal.cal_len, 0, "peek_at must not migrate tiers");
        assert_eq!(heap.peek_at(), Some(3_000_000_000));
        // A near key lands in the calendar tier and becomes the head.
        cal.push(100, 3, 100);
        heap.push(100, 3, 100);
        assert_eq!(cal.cal_len, 1);
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
        // Resize-triggering size: forces growth rebuilds, year advances,
        // and shrink rebuilds on the way down.
        let mut rng = StdRng::seed_from_u64(1);
        let keys: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..10_000_000_000u64)).collect();
        assert_sorted_drain(&keys);
    }

    #[test]
    fn all_equal_times_resolve_in_creation_order() {
        assert_sorted_drain(&vec![42u64; 500]);
    }

    // The dynamic counterpart of the push contract (the static half is
    // d3t-lint's job): debug builds must catch a regressing creation
    // stamp on either backend, through both the scalar and the batched
    // push paths. Release builds compile the guard out, so these only
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
        // A handful of events separated by enormous gaps: every pop after
        // the first exercises a year advance, including the saturated
        // boundary at the top of the u64 range.
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

    /// The headline oracle property: on random interleaved push/pop
    /// streams the calendar queue is observationally identical to the
    /// binary heap, across distributions and resize-triggering sizes.
    /// (The workspace-root `tests/queue_properties.rs` extends this to
    /// bulk operations and adversarial tie storms.)
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
                    // Push-biased so the pending set grows through resize
                    // thresholds; drains fully at the end.
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
        // Sizes straddling the growth thresholds (2 events/bucket over
        // 16, 32, 64 ... buckets) and the shrink thresholds on drain.
        for n in [31usize, 33, 63, 65, 127, 129, 1023, 1025, 4097] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect();
            assert_sorted_drain(&keys);
        }
    }

    #[test]
    fn overload_shrinks_width_instead_of_degrading() {
        // 10k distinct timestamps inside one default-width day: the
        // overload rule must refine the width; the queue stays ordered.
        let keys: Vec<u64> = (0..10_000u64).map(|i| 500 + i % 997).collect();
        assert_sorted_drain(&keys);
    }

    #[test]
    fn rebuild_demotions_preserve_creation_order_among_ties() {
        // Dense distinct timestamps inside one day force an overload
        // shrink whose rebuild demotes the day's far end — including
        // blocks of *equal* keys — back to the overflow tier. Their
        // synthesized tie-breakers must keep creation order exact.
        let mut keys: Vec<u64> = Vec::new();
        for i in 0..200u64 {
            // 5 creation-ordered twins per timestamp, timestamps dense
            // enough to overload the ~1 ms startup day width.
            keys.extend(std::iter::repeat_n(i * 7, 5));
        }
        // Out-of-order echo of the same timestamps: lands behind the
        // first wave in creation order.
        keys.extend((0..200u64).rev().map(|i| i * 7));
        assert_sorted_drain(&keys);
    }

    #[test]
    fn pop_run_matches_scalar_pops() {
        for window in [0u64, 1, 100, 10_000, u64::MAX] {
            let mut rng = StdRng::seed_from_u64(window ^ 0xCAFE);
            let keys: Vec<u64> = (0..3_000).map(|_| rng.gen_range(0..500_000u64)).collect();
            let mut bulk: CalendarQueue<u64> = CalendarQueue::with_capacity(keys.len());
            let mut scalar: HeapQueue<u64> = HeapQueue::with_capacity(keys.len());
            for (seq, &at) in keys.iter().enumerate() {
                bulk.push(at, seq as u64, seq as u64);
                scalar.push(at, seq as u64, seq as u64);
            }
            let mut got = Vec::new();
            while bulk.pop_run(window, u64::MAX, 16, &mut got) > 0 {}
            assert_eq!(got, drain(&mut scalar), "window {window}");
        }
    }

    #[test]
    fn pop_lt_is_a_strict_non_mutating_probe() {
        let mut q: CalendarQueue<u64> = CalendarQueue::with_capacity(8);
        q.push(100, 0, 0);
        q.push(2_000_000_000, 1, 1); // far future: overflow tier
        assert_eq!(q.pop_lt(100), None, "strict bound excludes the minimum itself");
        assert_eq!(q.len(), 2, "failed probe must not disturb the queue");
        assert_eq!(q.pop_lt(101), Some((100, 0)));
        // The next candidate sits beyond the year boundary; a probe below
        // it must not force a year advance.
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
            // far-future outliers crossing the boundary.
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
