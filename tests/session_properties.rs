//! Cross-cutting properties of the Session redesign.
//!
//! The contract: **however** a session is driven — sealed `run_to_end`,
//! one `step()` at a time, `run_until` at arbitrary split points, with or
//! without an observer attached, on either queue backend — the resulting
//! `(FidelityReport, Metrics)` is bit-identical to the frozen reference
//! [`Engine::run`] loop (and therefore to the pre-session simulator,
//! whose loop that is).
//!
//! Since the allocation-free dissemination kernel landed, this identity
//! carries extra weight: the session runs the **batched kernel path**
//! (`on_*_update_into` into a reused scratch, run-popped drain) while
//! `Engine::run` still drives the allocating **scalar-oracle** methods —
//! so every assertion here is also a whole-run cross-check of kernel vs.
//! oracle, across all four protocols × seeds × both queue backends ×
//! every drive mode. (`tests/kernel_properties.rs` pins the same
//! equivalence decision by decision.)
//!
//! The three drives share one `process` body but not one pop: `step()`
//! pops single events through the peeking scalar merge, `run_until`
//! truncates runs at its target, `run_to_end` pops full reorder-free
//! runs. `drives_agree_on_reports_digests_and_observer_stream` holds
//! them to one `(report, metrics)`, one `state_digest()` and one full
//! observer stream — `on_event` pending samples and fault observations
//! included — with an active crash/loss/degrade plan installed.

use d3t::core::dissemination::Protocol;
use d3t::core::fidelity::FidelityReport;
use d3t::core::item::ItemId;
use d3t::core::overlay::NodeIdx;
use d3t::sim::{
    CalendarQueue, CrashSpec, DegradeWindow, EventKind, EventQueue, EventTrace, FaultObservation,
    FaultPlan, HeapQueue, LossWindow, Metrics, NoopObserver, Observer, Prepared, RepairPolicy,
    RepairSpec, Session, SimConfig, WindowedFidelity,
};

/// Cheap deterministic split-point stream (xorshift64*).
fn split_points(mut x: u64, n: usize, end_us: u64) -> Vec<u64> {
    let mut ts: Vec<u64> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % (end_us + 1)
        })
        .collect();
    ts.sort_unstable();
    ts
}

/// Drives one prepared run every way the API allows and asserts every
/// way agrees with the sealed reference engine bit-for-bit.
fn assert_all_drives_agree<Q: EventQueue<EventKind>>(p: &Prepared, label: &str) {
    let sealed: (FidelityReport, Metrics) = p.engine::<Q>().run();

    // Sealed session.
    let by_run = p.session_with::<Q, _>(NoopObserver).run_to_end();
    assert_eq!(by_run, sealed, "{label}: run_to_end diverged");
    assert_eq!(format!("{by_run:?}"), format!("{sealed:?}"), "{label}: repr diverged");

    // One event at a time.
    let mut stepped = p.session_with::<Q, _>(NoopObserver);
    let mut events = 0u64;
    while stepped.step().is_some() {
        events += 1;
    }
    assert_eq!(events, sealed.1.events, "{label}: step count diverged");
    assert_eq!(stepped.run_to_end(), sealed, "{label}: stepped run diverged");

    // run_until at arbitrary (seeded) split points, including repeats.
    let mut split = p.session_with::<Q, _>(NoopObserver);
    for t in split_points(0x9E37_79B9_7F4A_7C15 ^ p.end_us, 9, p.end_us) {
        split.run_until(t);
        split.run_until(t); // idempotent re-request
    }
    assert_eq!(split.run_to_end(), sealed, "{label}: split run diverged");

    // With a recording observer attached: observation must not perturb.
    let observed = p.session_with::<Q, _>(EventTrace::with_capacity(1 << 16));
    let (rep, metrics, _trace) = observed.finish();
    assert_eq!((rep, metrics), sealed, "{label}: observed run diverged");

    // So must the fidelity time series, whose windows tile the horizon.
    let windowed = WindowedFidelity::new(p.end_us / 50 + 1, p.n_measured_pairs());
    let (rep, metrics, series) = p.session_with::<Q, _>(windowed).finish();
    assert_eq!((rep, metrics), sealed, "{label}: windowed run diverged");
    let covered: u64 = series.windows().iter().map(|w| w.covered_us).sum();
    assert_eq!(covered, p.end_us, "{label}: windows do not tile the horizon");

    // The compatibility wrapper (what `d3t_sim::run` routes through).
    let report = p.run_with::<Q>();
    assert_eq!((report.fidelity, report.metrics), sealed, "{label}: run_with diverged");
}

#[test]
fn every_drive_mode_matches_the_sealed_engine() {
    for protocol in
        [Protocol::Distributed, Protocol::Centralized, Protocol::Naive, Protocol::FloodAll]
    {
        for seed in [0x5EEDu64, 97] {
            let mut cfg = SimConfig::small_for_tests(10, 5, 400, 50.0);
            cfg.protocol = protocol;
            cfg.seed = seed;
            let p = Prepared::build(&cfg);
            assert_all_drives_agree::<CalendarQueue<EventKind>>(
                &p,
                &format!("{protocol:?}/seed {seed}/calendar"),
            );
            assert_all_drives_agree::<HeapQueue<EventKind>>(
                &p,
                &format!("{protocol:?}/seed {seed}/heap"),
            );
        }
    }
}

#[test]
fn compat_wrapper_is_bit_identical_across_backends_with_dynamics_free_sessions() {
    // `run(cfg)` must stay the old sealed semantics, which the sealed
    // engine reproduces on either queue.
    let cfg = SimConfig::small_for_tests(8, 4, 300, 70.0);
    let p = Prepared::build(&cfg);
    let via_run = d3t::sim::run(&cfg);
    let via_run = (via_run.fidelity, via_run.metrics);
    assert_eq!(via_run, p.engine::<CalendarQueue<EventKind>>().run(), "calendar");
    assert_eq!(via_run, p.engine::<HeapQueue<EventKind>>().run(), "heap");
}

#[test]
fn dynamics_runs_stay_backend_invariant() {
    // Injections are part of the deterministic event order, so a churned
    // run must also be bit-identical across queue backends.
    use d3t::sim::Dynamic;
    fn churned<Q: EventQueue<EventKind>>(
        p: &Prepared,
        schedule: &[(u64, Dynamic)],
    ) -> (FidelityReport, Metrics) {
        let mut s = p.session_with::<Q, _>(NoopObserver);
        for &(t, d) in schedule {
            s.run_until(t);
            s.inject(d).unwrap();
        }
        s.run_to_end()
    }
    let cfg = SimConfig::small_for_tests(10, 5, 400, 50.0);
    let p = Prepared::build(&cfg);
    let end = p.end_us;
    let schedule = [
        (end * 3 / 10, Dynamic::FailRepo { repo: 2 }),
        // Swap an item the failed repo measures to a far-away value: the
        // cascade is guaranteed to address it, so the drop path is hit.
        (end * 4 / 10, Dynamic::HotSwapItem { item: first_measured_item(&p, 2), value: 1.0e6 }),
        (
            end * 5 / 10,
            Dynamic::SetTolerance {
                repo: 0,
                item: first_measured_item(&p, 0),
                c: d3t::core::coherency::Coherency::new(0.005),
            },
        ),
        (end * 6 / 10, Dynamic::RecoverRepo { repo: 2 }),
    ];
    let cal = churned::<CalendarQueue<EventKind>>(&p, &schedule);
    let heap = churned::<HeapQueue<EventKind>>(&p, &schedule);
    assert_eq!(cal, heap);
    assert_eq!(cal.1.injected, 4);
    assert!(cal.1.dropped > 0, "the failed relay must have dropped arrivals");
}

fn first_measured_item(p: &Prepared, repo: usize) -> d3t::core::item::ItemId {
    p.workload.items_of(repo).next().expect("repo measures something").0
}

/// Records **every** observer callback as one line — what `EventTrace`
/// keeps plus the `on_event` pending samples and the fault observations
/// it skips — so two drives can be compared callback for callback.
#[derive(Default)]
struct FullTrace(Vec<String>);

impl Observer for FullTrace {
    fn on_source_change(&mut self, at_us: u64, item: ItemId, value: f64) {
        self.0.push(format!("{at_us} source {item:?} {value:?}"));
    }
    fn on_send(
        &mut self,
        at_us: u64,
        from: NodeIdx,
        to: NodeIdx,
        update: &d3t::core::dissemination::Update,
        arrival_us: u64,
    ) {
        self.0.push(format!("{at_us} send {from}->{to} {update:?} arrives {arrival_us}"));
    }
    fn on_delivery(
        &mut self,
        at_us: u64,
        node: NodeIdx,
        update: &d3t::core::dissemination::Update,
    ) {
        self.0.push(format!("{at_us} delivery {node} {update:?}"));
    }
    fn on_dropped(&mut self, at_us: u64, node: NodeIdx, update: &d3t::core::dissemination::Update) {
        self.0.push(format!("{at_us} dropped {node} {update:?}"));
    }
    fn on_violation_open(&mut self, at_us: u64, repo: usize, item: ItemId) {
        self.0.push(format!("{at_us} open {repo} {item:?}"));
    }
    fn on_violation_close(&mut self, at_us: u64, repo: usize, item: ItemId) {
        self.0.push(format!("{at_us} close {repo} {item:?}"));
    }
    fn on_event(&mut self, at_us: u64, pending: usize) {
        self.0.push(format!("{at_us} event pending {pending}"));
    }
    fn on_fault(&mut self, at_us: u64, fault: &FaultObservation) {
        self.0.push(format!("{at_us} fault {fault:?}"));
    }
    fn on_end(&mut self, end_us: u64) {
        self.0.push(format!("{end_us} end"));
    }
}

/// Every fault dimension at once, straddling the middle of the run: a
/// permanent crash under the re-parenting policy, a recovering subtree
/// burst, a loss window with retransmission and a degradation window.
fn active_plan(cfg: &SimConfig, end_us: u64) -> FaultPlan {
    FaultPlan {
        crashes: vec![
            CrashSpec { repo: 0, at_us: end_us / 4, recover_at_us: None, subtree: false },
            CrashSpec {
                repo: 1 % cfg.n_repos,
                at_us: end_us / 3,
                recover_at_us: Some(end_us * 2 / 3),
                subtree: true,
            },
        ],
        loss: vec![LossWindow { prob: 0.25, from_us: end_us / 8, to_us: end_us * 3 / 4 }],
        degrade: vec![DegradeWindow {
            from_us: end_us / 3,
            to_us: end_us * 3 / 4,
            min_extra_ms: 5.0,
            mean_extra_ms: 25.0,
        }],
        repair: RepairSpec {
            policy: RepairPolicy::Reparent,
            detect_timeout_us: 150_000,
            base_backoff_us: 20_000,
            max_backoff_us: 300_000,
        },
        seed: cfg.seed ^ 0xF00D,
        ..Default::default()
    }
}

/// What one complete drive leaves behind: the final state digest, the
/// report and the full observer stream.
type Outcome = (u64, (FidelityReport, Metrics), Vec<String>);

/// Builds a faulted, fully observed session, hands it to `drive` (which
/// must process every event), and collects the [`Outcome`].
fn outcome<Q: EventQueue<EventKind>>(
    p: &Prepared,
    plan: &FaultPlan,
    drive: impl FnOnce(&mut Session<Q, FullTrace>),
) -> Outcome {
    let mut s = p.session_with::<Q, _>(FullTrace::default());
    s.install_fault_plan(plan);
    drive(&mut s);
    assert_eq!(s.pending(), 0, "the drive left events behind");
    let digest = s.state_digest();
    let (rep, met, trace) = s.finish();
    (digest, (rep, met), trace.0)
}

/// The three drives of one faulted prepared run on one backend; asserts
/// they agree and returns the common outcome.
fn assert_drives_agree<Q: EventQueue<EventKind>>(
    p: &Prepared,
    plan: &FaultPlan,
    label: &str,
) -> Outcome {
    let by_step = outcome::<Q>(p, plan, |s| while s.step().is_some() {});
    let by_run = outcome::<Q>(p, plan, |s| s.drain_to_end());
    let by_split = outcome::<Q>(p, plan, |s| {
        // Seeded split points plus the plan's own control instants and
        // their neighbours — the targets where a limit and a control tie.
        let end = p.end_us;
        let mut ts = split_points(0x9E37_79B9_7F4A_7C15 ^ end, 9, end);
        for t in [end / 4, end / 3, end / 8, end * 2 / 3, end * 3 / 4] {
            ts.extend([t - 1, t, t + 1]);
        }
        ts.sort_unstable();
        for t in ts {
            s.run_until(t);
        }
        s.run_until(end);
    });
    for (name, other) in [("run_to_end", &by_run), ("run_until splits", &by_split)] {
        assert_eq!(other.1, by_step.1, "{label}: {name} report diverged from the step loop");
        assert_eq!(other.0, by_step.0, "{label}: {name} state digest diverged");
        assert_eq!(other.2.len(), by_step.2.len(), "{label}: {name} observer stream length");
        for (i, (a, b)) in other.2.iter().zip(&by_step.2).enumerate() {
            assert_eq!(a, b, "{label}: {name} observer stream diverged at callback {i}");
        }
    }
    by_step
}

#[test]
fn drives_agree_on_reports_digests_and_observer_stream() {
    for protocol in
        [Protocol::Distributed, Protocol::Centralized, Protocol::Naive, Protocol::FloodAll]
    {
        let mut cfg = SimConfig::small_for_tests(10, 5, 400, 50.0);
        cfg.protocol = protocol;
        let p = Prepared::build(&cfg);
        // Fault-free, the step loop is pinned to the sealed engine (and
        // with it, by the assertions above, every other drive).
        let inert = FaultPlan::default();
        let sealed = p.engine::<CalendarQueue<EventKind>>().run();
        let free = assert_drives_agree::<CalendarQueue<EventKind>>(&p, &inert, "inert/calendar");
        assert_eq!(free.1, sealed, "{protocol:?}: step loop diverged from Engine::run");
        // Faulted, the engine has no say; the drives and the backends
        // hold each other.
        let plan = active_plan(&cfg, p.end_us);
        let cal = assert_drives_agree::<CalendarQueue<EventKind>>(
            &p,
            &plan,
            &format!("{protocol:?}/calendar"),
        );
        let heap =
            assert_drives_agree::<HeapQueue<EventKind>>(&p, &plan, &format!("{protocol:?}/heap"));
        assert_eq!(cal, heap, "{protocol:?}: backends diverged");
        assert!(cal.1 .1.lost > 0 && cal.1 .1.dropped > 0, "{protocol:?}: the plan never bit");
    }
}

#[test]
fn batched_drain_preserves_the_scalar_observer_stream() {
    // The drain pops events a run at a time but must process them one
    // at a time: the full `TraceEvent` stream of a `run_to_end` is
    // asserted equal to a `step()` loop's, element by element — not
    // just the end-of-run aggregates.
    for protocol in
        [Protocol::Distributed, Protocol::Centralized, Protocol::Naive, Protocol::FloodAll]
    {
        let mut cfg = SimConfig::small_for_tests(10, 5, 400, 50.0);
        cfg.protocol = protocol;
        let p = Prepared::build(&cfg);
        let session =
            || p.session_with::<CalendarQueue<EventKind>, _>(EventTrace::with_capacity(1 << 17));
        let (rep_batched, met_batched, trace_batched) = session().finish();
        let (rep_scalar, met_scalar, trace_scalar) = {
            let mut s = session();
            while s.step().is_some() {}
            s.finish()
        };
        assert_eq!((rep_batched, met_batched), (rep_scalar, met_scalar), "{protocol:?}: results");
        assert_eq!(
            trace_batched.events().len(),
            trace_scalar.events().len(),
            "{protocol:?}: trace length"
        );
        for (i, (b, s)) in trace_batched.events().iter().zip(trace_scalar.events()).enumerate() {
            assert_eq!(b, s, "{protocol:?}: trace diverged at event {i}");
        }
    }
}

#[test]
fn dynamics_at_run_boundaries_match_the_scalar_drain() {
    use d3t::sim::Dynamic;
    // Injections interrupt the drain mid-window (`run_until` truncates
    // the run at the target), so fire them both exactly on decile
    // boundaries and at ragged +137 µs offsets. The reference reaches
    // each injection instant in one `run_until`; the near-scalar drive
    // creeps there in `stride`-µs hops, truncating almost every run —
    // every stride × backend combination must stay in bit-agreement.
    fn run_churned<Q: EventQueue<EventKind>>(
        p: &Prepared,
        schedule: &[(u64, Dynamic)],
        stride: u64,
    ) -> (FidelityReport, Metrics) {
        let mut s = p.session_with::<Q, _>(NoopObserver);
        for &(t, d) in schedule {
            while s.now_us() + stride < t {
                s.run_until(s.now_us() + stride);
            }
            s.run_until(t);
            s.inject(d).unwrap();
        }
        s.run_to_end()
    }
    let cfg = SimConfig::small_for_tests(10, 5, 400, 50.0);
    let p = Prepared::build(&cfg);
    let end = p.end_us;
    let schedule = [
        (end * 3 / 10, Dynamic::FailRepo { repo: 2 }),
        (
            end * 3 / 10 + 137,
            Dynamic::HotSwapItem { item: first_measured_item(&p, 2), value: 1.0e6 },
        ),
        (
            end * 5 / 10,
            Dynamic::SetTolerance {
                repo: 0,
                item: first_measured_item(&p, 0),
                c: d3t::core::coherency::Coherency::new(0.005),
            },
        ),
        (end * 6 / 10 + 137, Dynamic::RecoverRepo { repo: 2 }),
    ];
    let reference = run_churned::<CalendarQueue<EventKind>>(&p, &schedule, u64::MAX / 2);
    assert_eq!(reference.1.injected, 4);
    assert!(reference.1.dropped > 0, "the failed relay must have dropped arrivals");
    for stride in [1_000u64, 7_919, 250_000] {
        assert_eq!(
            run_churned::<CalendarQueue<EventKind>>(&p, &schedule, stride),
            reference,
            "calendar/stride {stride}"
        );
        assert_eq!(
            run_churned::<HeapQueue<EventKind>>(&p, &schedule, stride),
            reference,
            "heap/stride {stride}"
        );
    }
}

#[test]
fn phase_stats_partition_the_drain() {
    // The contract `d3t-bench`'s `session.*_s` split reads: exact op
    // counts, and exactly four named phases whose cycles are the total.
    let p = Prepared::build(&SimConfig::small_for_tests(10, 5, 400, 50.0));
    let mut s = p.session();
    assert_eq!(s.phase_stats().total_cycles(), 0, "no drain has run yet");
    s.drain_to_end();
    let stats = *s.phase_stats();
    assert_eq!(stats.process.ops, s.metrics().events);
    assert!(stats.runs > 0 && stats.runs <= stats.process.ops);
    let named = stats.named();
    assert_eq!(named.map(|(name, _)| name), ["queue", "process", "fidelity", "transmit"]);
    assert_eq!(named.iter().map(|(_, c)| c.cycles).sum::<u64>(), stats.total_cycles());
    // Off x86-64 there is no TSC and the counters degrade to op counts.
    if cfg!(target_arch = "x86_64") {
        for (name, c) in named {
            assert!(c.cycles > 0, "phase `{name}` lost its stamps");
        }
    }
}
