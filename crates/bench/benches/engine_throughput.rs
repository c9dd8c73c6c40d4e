//! Event-loop throughput at paper scale: calendar queue vs binary heap.
//!
//! The configuration is larger than the paper's base case — 600
//! repositories (a 4200-node physical network), 100 items, 10 000-tick
//! traces, ~13.7 M events per run. Since the slim-slot redesign the
//! pre-seeded source changes are *streamed* (merged at pop time), so the
//! queues hold only the in-flight arrivals.
//!
//! Two measurements:
//!
//! * **`schedule_replay`** — the engine's exact push/pop interleaving
//!   (arrivals only) is recorded once, then replayed raw against both
//!   queues, isolating the scheduler from the (protocol + fidelity) work
//!   that is identical under either backend.
//! * **`whole_run`** — end-to-end `Prepared::run` per backend, printing
//!   events/s plus the hot-tier slot bytes physically moved per event,
//!   beside the scalar-oracle `Engine::run` timed in the same process
//!   (the shared host drifts ~20% between sessions, so only same-process
//!   ratios mean anything; the tracked form of this one is `d3t-bench`'s
//!   `engine.session_vs_oracle_x`, and nothing here gates on speed). With
//!   the seeded backlog gone the heap is competitive on this
//!   shallow-pending shape; the `event_queue` micro bench covers the
//!   deep-pending regime where the calendar's O(1) wins. The
//!   `session_step_loop` line drives the same session one `step()` at a
//!   time — no runs, no prefetch — which is what the run drain has to
//!   beat to keep its place (the comparison that retired the five-pass
//!   batched pipeline).
//!
//! A third group, **`repair_overhead`**, prices the self-healing overlay:
//! one `Prepared` per scale (600 and 2 500 repositories), driven
//! alternately fault-free and under a crash burst that takes out 5 % of
//! the repositories for good with `RepairPolicy::Reparent` — so most of
//! the run forwards through adopted edges. It prints one
//! `REPAIR repos=… adoptions=… overhead_x=…` line per scale
//! (`overhead_x` = faulted wall / fault-free wall, best of three each);
//! with per-row adoptee lists the ratio stays near 1 at both scales,
//! where a registry scan per decision grew with the fleet.
//!
//! `(FidelityReport, Metrics)` are asserted bit-identical across the
//! slim-slot calendar, the heap backend, and the scalar-oracle
//! `Engine::run` loop — the bench doubles as the paper-scale acceptance
//! harness for the queue redesign.

use std::cell::RefCell;
use std::time::Instant;

use criterion::{black_box, Criterion};
use d3t_sim::engine::EventKind;
use d3t_sim::queue::{CalendarQueue, EventQueue, HeapQueue};
use d3t_sim::{
    CrashSpec, FaultPlan, NoopObserver, Prepared, QueueBackend, RepairPolicy, RepairSpec, SimConfig,
};

/// ≥600 repos, ≥100 items, 10k-tick traces — the acceptance-bar scale.
fn paper_scale_config(queue: QueueBackend) -> SimConfig {
    let mut cfg = SimConfig::small_for_tests(600, 100, 10_000, 50.0);
    cfg.queue = queue;
    cfg
}

thread_local! {
    /// `(pushes, pending_pops)`: each push records how many pops the
    /// engine issued since the previous push, which is enough to replay
    /// the exact interleaving (pop results are determined by ordering).
    static TRACE: RefCell<(Vec<(u64, u32)>, u32)> = const { RefCell::new((Vec::new(), 0)) };
}

/// A pass-through queue that records the engine's scheduling trace.
struct Recorder(CalendarQueue<EventKind>);

impl Recorder {
    fn record_push(at_us: u64) {
        TRACE.with(|t| {
            let (pushes, pending) = &mut *t.borrow_mut();
            pushes.push((at_us, *pending));
            *pending = 0;
        });
    }
}

impl EventQueue<EventKind> for Recorder {
    const SLOT_BYTES: usize = <CalendarQueue<EventKind> as EventQueue<EventKind>>::SLOT_BYTES;
    fn with_capacity(c: usize) -> Self {
        Recorder(CalendarQueue::with_capacity(c))
    }
    fn push(&mut self, at_us: u64, seq: u64, item: EventKind) {
        Self::record_push(at_us);
        self.0.push(at_us, seq, item)
    }
    fn push_batch(&mut self, seq0: u64, events: &[(u64, EventKind)]) {
        for &(at_us, _) in events {
            Self::record_push(at_us);
        }
        self.0.push_batch(seq0, events)
    }
    fn pop(&mut self) -> Option<(u64, EventKind)> {
        let popped = self.0.pop();
        if popped.is_some() {
            // Count only deliveries: the session's merge loop issues
            // empty probes (e.g. below a stream-head cap), which a
            // replay must not mistake for elements.
            TRACE.with(|t| t.borrow_mut().1 += 1);
        }
        popped
    }
    fn pop_lt(&mut self, cap_us: u64) -> Option<(u64, EventKind)> {
        let popped = self.0.pop_lt(cap_us);
        if popped.is_some() {
            TRACE.with(|t| t.borrow_mut().1 += 1);
        }
        popped
    }
    fn pop_run(
        &mut self,
        window_us: u64,
        cap_us: u64,
        max: usize,
        out: &mut Vec<(u64, EventKind)>,
    ) -> usize {
        let n = self.0.pop_run(window_us, cap_us, max, out);
        TRACE.with(|t| t.borrow_mut().1 += n as u32);
        n
    }
    fn peek_at(&mut self) -> Option<u64> {
        // Non-consuming probe: nothing to record.
        self.0.peek_at()
    }
    fn snapshot_events(&self, out: &mut Vec<(u64, EventKind)>) {
        // Non-consuming capture: nothing to record.
        self.0.snapshot_events(out)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Replays the recorded interleaving against `Q`, returning a checksum of
/// the pop order so the backends can be cross-checked.
fn replay<Q: EventQueue<u32>>(trace: &[(u64, u32)], tail: u32) -> u64 {
    let mut q = Q::with_capacity(trace.len());
    let mut acc = 0u64;
    for (seq, &(at, pops)) in trace.iter().enumerate() {
        for _ in 0..pops {
            acc = acc.rotate_left(1) ^ q.pop().expect("trace underflow").0;
        }
        q.push(at, seq as u64, 0);
    }
    for _ in 0..tail {
        acc = acc.rotate_left(1) ^ q.pop().expect("trace underflow").0;
    }
    assert!(q.is_empty(), "trace must drain the queue");
    acc
}

fn engine_throughput(c: &mut Criterion) {
    // One Prepared serves both backends (the inputs are identical; only
    // the scheduler differs), driven through `run_with`.
    let prepared = Prepared::build(&paper_scale_config(QueueBackend::Calendar));

    // Record the event trace once (and keep the report for the identity
    // check below).
    let recorded = prepared.run_with::<Recorder>();
    let (trace, tail) = TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()));
    let total_ops = trace.len() as f64 * 2.0;

    // Timed whole runs per backend (best of three, since the host's
    // wall-clock noise at this scale swamps single shots) for the
    // at-a-glance summary, which doubles as the paper-scale bit-identity
    // assertion. Alongside events/s each backend reports the bytes its
    // slots physically move per processed event (pushes + pops through
    // the hot tier) — the number the slim-slot layout is about.
    let mut reports = Vec::new();
    let mut calendar_best_rate = 0.0f64;
    for name in ["calendar", "heap"] {
        // Symmetric best-of-3 per backend, so the printed lines are an
        // apples-to-apples comparison.
        let mut best = f64::INFINITY;
        let mut report = None;
        for _ in 0..3 {
            let start = Instant::now();
            let r = match name {
                "calendar" => prepared.run_with::<CalendarQueue<EventKind>>(),
                _ => prepared.run_with::<HeapQueue<EventKind>>(),
            };
            best = best.min(start.elapsed().as_secs_f64());
            report = Some(r);
        }
        let report = report.expect("three timed runs");
        let slot_bytes = match name {
            "calendar" => <CalendarQueue<EventKind> as EventQueue<EventKind>>::SLOT_BYTES,
            _ => <HeapQueue<EventKind> as EventQueue<EventKind>>::SLOT_BYTES,
        };
        let events = report.metrics.events;
        // Every delivered message is one push + one pop of one slot; the
        // pre-seeded source stream is merged, not enqueued.
        let queue_ops = 2 * (report.metrics.messages - report.metrics.undelivered);
        let rate = events as f64 / best / 1e6;
        println!(
            "whole_run/{name}: {events} events in {best:.3}s best-of-3 = {rate:.2} M events/sec \
             slot_bytes={slot_bytes} bytes_moved_per_event={:.1}",
            (queue_ops * slot_bytes as u64) as f64 / events as f64
        );
        if name == "calendar" {
            calendar_best_rate = rate;
        }
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1], "backends must agree bit-for-bit");
    assert_eq!(reports[0], recorded, "recorder must not perturb the run");

    // The session path above runs the batched dissemination kernel; the
    // sealed `Engine::run` loop still drives the allocating scalar
    // oracle. Their whole-run outputs must stay bit-identical at paper
    // scale — the acceptance gate for the kernel refactor — and the
    // oracle's rate is the same-process reference for the lines above.
    let start = Instant::now();
    let (oracle_fidelity, oracle_metrics) = prepared.engine::<CalendarQueue<EventKind>>().run();
    let oracle_wall = start.elapsed().as_secs_f64();
    let oracle_rate = oracle_metrics.events as f64 / oracle_wall / 1e6;
    println!("whole_run/scalar_oracle_engine: {oracle_rate:.2} M events/sec");
    assert_eq!(
        (reports[0].fidelity.clone(), reports[0].metrics),
        (oracle_fidelity, oracle_metrics),
        "kernel session and scalar-oracle engine must agree bit-for-bit at paper scale"
    );

    let step_loop = || {
        let mut s = prepared.session_with::<CalendarQueue<EventKind>, _>(NoopObserver);
        while s.step().is_some() {}
        s.run_to_end()
    };
    let start = Instant::now();
    let by_step = step_loop();
    let step_rate = by_step.1.events as f64 / start.elapsed().as_secs_f64() / 1e6;
    println!(
        "whole_run/session_step_loop: {step_rate:.2} M events/sec (run drain {:.2}x)",
        calendar_best_rate / step_rate
    );
    assert_eq!(
        by_step,
        (reports[0].fidelity.clone(), reports[0].metrics),
        "step loop and run drain must agree bit-for-bit at paper scale"
    );

    for (name, ops) in [
        ("calendar", replay::<CalendarQueue<u32>>(&trace, tail)),
        ("heap", replay::<HeapQueue<u32>>(&trace, tail)),
    ] {
        let start = Instant::now();
        let check = match name {
            "calendar" => replay::<CalendarQueue<u32>>(&trace, tail),
            _ => replay::<HeapQueue<u32>>(&trace, tail),
        };
        assert_eq!(ops, check, "replay must be deterministic");
        let wall = start.elapsed().as_secs_f64();
        println!("schedule_replay/{name}: {:.1} M queue ops/sec", total_ops / wall / 1e6);
    }

    let mut group = c.benchmark_group("engine_throughput/600r_100i_10kt");
    group.sample_size(3).measurement_time(std::time::Duration::from_millis(1));
    group.bench_function("schedule_replay/calendar", |b| {
        b.iter(|| black_box(replay::<CalendarQueue<u32>>(&trace, tail)));
    });
    group.bench_function("schedule_replay/heap", |b| {
        b.iter(|| black_box(replay::<HeapQueue<u32>>(&trace, tail)));
    });
    group.bench_function("whole_run/calendar", |b| {
        b.iter(|| black_box(prepared.run_with::<CalendarQueue<EventKind>>()));
    });
    group.bench_function("whole_run/heap", |b| {
        b.iter(|| black_box(prepared.run_with::<HeapQueue<EventKind>>()));
    });
    group.bench_function("whole_run/session_step_loop", |b| {
        b.iter(|| black_box(step_loop()));
    });
    group.finish();
}

/// Fault-free drive vs a repaired 5 %-victim crash burst, same
/// `Prepared`, alternating in one process (see the module doc).
fn repair_overhead(_c: &mut Criterion) {
    for (n_repos, n_ticks) in [(600usize, 2_500usize), (2_500, 1_000)] {
        let prepared = Prepared::build(&SimConfig::small_for_tests(n_repos, 100, n_ticks, 50.0));
        // Every 20th repository crashes a tenth of the way in and stays
        // down: its orphans are adopted for the remaining nine tenths.
        let plan = FaultPlan {
            crashes: (0..n_repos / 20)
                .map(|k| CrashSpec {
                    repo: k * 20,
                    at_us: prepared.end_us / 10,
                    recover_at_us: None,
                    subtree: false,
                })
                .collect(),
            repair: RepairSpec { policy: RepairPolicy::Reparent, ..Default::default() },
            ..Default::default()
        };
        let (mut clean_s, mut faulted_s) = (f64::INFINITY, f64::INFINITY);
        let (mut adoptions, mut events) = (0, 0);
        for _ in 0..3 {
            let start = Instant::now();
            black_box(prepared.session().run_to_end());
            clean_s = clean_s.min(start.elapsed().as_secs_f64());

            let start = Instant::now();
            let mut s = prepared.session();
            s.install_fault_plan(&plan);
            s.run_until(prepared.end_us);
            adoptions = s.disseminator().adoption_count();
            events = black_box(s.run_to_end()).1.events;
            faulted_s = faulted_s.min(start.elapsed().as_secs_f64());
        }
        println!(
            "REPAIR repos={n_repos} ticks={n_ticks} victims={} adoptions={adoptions} \
             faulted_events={events} clean_s={clean_s:.3} faulted_s={faulted_s:.3} \
             overhead_x={:.2}",
            plan.crashes.len(),
            faulted_s / clean_s
        );
    }
}

fn config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(3)
        .warm_up_time(std::time::Duration::from_millis(1))
        .measurement_time(std::time::Duration::from_millis(1))
}

criterion::criterion_group! {
    name = benches;
    config = config();
    targets = engine_throughput, repair_overhead
}
criterion::criterion_main!(benches);
