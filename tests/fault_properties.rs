//! Cross-cutting properties of the deterministic fault-injection layer.
//!
//! Four contracts:
//!
//! 1. **Inert plans are invisible.** A run with an installed-but-inert
//!    [`FaultPlan`] (no crashes, zero-probability loss, no degradation,
//!    `RepairPolicy::None`) is bit-identical to the sealed reference
//!    [`Engine::run`] loop — across all four protocols, both queue
//!    backends, and every drive ([`Drive`]). Fault support costs nothing
//!    and changes nothing until a plan actually does something.
//!
//! 2. **Faulted runs are bit-deterministic.** For a fixed `(seed, plan)`
//!    — crashes with and without recovery, a correlated subtree burst,
//!    a loss window with retransmission, a Pareto degradation window,
//!    and the `Reparent` repair policy all at once — every backend ×
//!    drive combination produces the `(FidelityReport, Metrics)` of the
//!    `step()` loop bit-for-bit, and a repeat run reproduces it exactly.
//!
//! 3. **Injected storms are drive-invariant.** A seeded storm of
//!    `inject`-driven fail / recover / renegotiate dynamics applied at
//!    pseudo-random instants is bit-identical across backends × drives
//!    (the sealed engine has no injection surface, so the session that
//!    reaches each instant in one `run_until` — itself pinned to the
//!    engine by property 1 and `tests/session_properties.rs` — is the
//!    reference).
//!
//! 4. **An injected crash is a plan crash.** `FailRepo` / `RecoverRepo`
//!    take the timeline's crash / recovery path, so an installed
//!    `Reparent` policy repairs them and `FaultMonitor` records them.

use d3t::core::coherency::Coherency;
use d3t::core::dissemination::Protocol;
use d3t::core::fidelity::FidelityReport;
use d3t::core::overlay::NodeIdx;
use d3t::sim::{
    CalendarQueue, CrashSpec, DegradeWindow, Dynamic, EventKind, EventQueue, FaultMonitor,
    FaultPlan, FaultPlanError, HeapQueue, LossWindow, Metrics, NoopObserver, Prepared,
    RepairPolicy, RepairSpec, Session, SimConfig,
};

/// One way to drive a session forward — each caps the drain's runs
/// differently (there is no cap knob; the drive is the cap). The drives
/// share the per-event body but not the pop: `step()` takes single
/// events through the peeking scalar merge (runs of one), a hop cuts
/// runs at its target instant, a whole drive pops full reorder-free
/// runs.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// A pure `step()` loop (whole runs only: a step cannot stop at an
    /// instant).
    Steps,
    /// `run_until` hops of this many µs — below the ~12.5 ms safety
    /// window nearly every run is cut short.
    Hops(u64),
    /// One `run_until` / `run_to_end`.
    Whole,
}

const DRIVES: [Drive; 4] = [Drive::Steps, Drive::Hops(5_000), Drive::Hops(333_333), Drive::Whole];

/// Advances `s` to `t_us` the way `drive` says.
fn advance<Q: EventQueue<EventKind>>(s: &mut Session<Q>, t_us: u64, drive: Drive) {
    match drive {
        Drive::Steps => unreachable!("a step loop cannot stop at an instant"),
        Drive::Hops(stride) => {
            while s.now_us() + stride < t_us {
                s.run_until(s.now_us() + stride);
            }
        }
        Drive::Whole => {}
    }
    s.run_until(t_us);
}
const PROTOCOLS: [Protocol; 4] =
    [Protocol::Distributed, Protocol::Centralized, Protocol::Naive, Protocol::FloodAll];

fn small(protocol: Protocol, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small_for_tests(14, 6, 400, 50.0);
    cfg.protocol = protocol;
    cfg.seed = seed;
    cfg.coop_res = 3;
    cfg
}

/// Cheap deterministic stream (xorshift64*amble) for storm schedules.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn run_faulted<Q: EventQueue<EventKind>>(
    p: &Prepared,
    plan: &FaultPlan,
    drive: Drive,
) -> (FidelityReport, Metrics) {
    let mut s = p.session_with::<Q, _>(NoopObserver);
    s.install_fault_plan(plan);
    match drive {
        Drive::Steps => while s.step().is_some() {},
        _ => advance(&mut s, p.end_us, drive),
    }
    s.run_to_end()
}

/// The repo serving the most dependent subscriptions — crashing it makes
/// the repair machinery actually fire.
fn busiest_repo(p: &Prepared) -> (usize, usize) {
    let s = p.session();
    let d = s.disseminator();
    (0..p.config().n_repos)
        .map(|r| (r, d.dependents_of(NodeIdx::repo(r)).len()))
        .max_by_key(|&(_, n)| n)
        .expect("at least one repo")
}

#[test]
fn inert_plan_keeps_bit_identity_with_sealed_oracle() {
    // An installed inert plan — including a zero-probability loss window,
    // which must never arm the link model — changes nothing relative to
    // the sealed reference engine, whatever drives the run.
    let inert = FaultPlan {
        loss: vec![LossWindow { prob: 0.0, from_us: 0, to_us: 1_000_000 }],
        repair: RepairSpec { policy: RepairPolicy::None, ..Default::default() },
        ..Default::default()
    };
    assert!(inert.is_inert());
    for protocol in PROTOCOLS {
        let cfg = small(protocol, 0x5EED);
        let p = Prepared::build(&cfg);
        let sealed = p.engine::<CalendarQueue<EventKind>>().run();
        for drive in DRIVES {
            let cal = run_faulted::<CalendarQueue<EventKind>>(&p, &inert, drive);
            let heap = run_faulted::<HeapQueue<EventKind>>(&p, &inert, drive);
            assert_eq!(cal, sealed, "{protocol:?} {drive:?}: calendar diverged from oracle");
            assert_eq!(heap, sealed, "{protocol:?} {drive:?}: heap diverged from oracle");
            assert_eq!(format!("{cal:?}"), format!("{sealed:?}"), "{protocol:?} {drive:?}: repr");
        }
    }
}

#[test]
fn faulted_runs_are_bit_deterministic_across_backends_and_caps() {
    for protocol in PROTOCOLS {
        for seed in [0x5EEDu64, 4242] {
            let cfg = small(protocol, seed);
            let p = Prepared::build(&cfg);
            let (victim, n_deps) = busiest_repo(&p);
            assert!(n_deps > 0, "seed {seed}: the overlay has no interior repo to crash");
            let end = p.end_us;
            let plan = FaultPlan {
                crashes: vec![
                    // The busiest relay goes down for good — Reparent is
                    // the only way its dependents ever hear again.
                    CrashSpec { repo: victim, at_us: end / 4, recover_at_us: None, subtree: false },
                    // A correlated burst that later recovers.
                    CrashSpec {
                        repo: (victim + 1) % cfg.n_repos,
                        at_us: end / 3,
                        recover_at_us: Some(end * 2 / 3),
                        subtree: true,
                    },
                ],
                loss: vec![LossWindow { prob: 0.3, from_us: end / 8, to_us: end / 2 }],
                degrade: vec![DegradeWindow {
                    from_us: end / 3,
                    to_us: end * 3 / 4,
                    min_extra_ms: 5.0,
                    mean_extra_ms: 25.0,
                }],
                repair: RepairSpec {
                    policy: RepairPolicy::Reparent,
                    detect_timeout_us: 150_000,
                    base_backoff_us: 20_000,
                    max_backoff_us: 300_000,
                },
                seed: seed ^ 0xF00D,
                ..Default::default()
            };
            let reference = run_faulted::<CalendarQueue<EventKind>>(&p, &plan, Drive::Steps);
            assert!(reference.1.lost > 0, "{protocol:?}/{seed}: loss window never fired");
            assert!(
                reference.1.reparented > 0,
                "{protocol:?}/{seed}: {n_deps} orphans but no reparent"
            );
            for drive in DRIVES {
                let cal = run_faulted::<CalendarQueue<EventKind>>(&p, &plan, drive);
                let heap = run_faulted::<HeapQueue<EventKind>>(&p, &plan, drive);
                assert_eq!(cal, reference, "{protocol:?}/{seed} {drive:?}: calendar diverged");
                assert_eq!(heap, reference, "{protocol:?}/{seed} {drive:?}: heap diverged");
            }
            // Same (seed, plan) twice — bit-identical repeat.
            assert_eq!(
                run_faulted::<CalendarQueue<EventKind>>(&p, &plan, Drive::Steps),
                reference,
                "{protocol:?}/{seed}: repeat run diverged"
            );
        }
    }
}

fn drive_inject_storm<Q: EventQueue<EventKind>>(
    p: &Prepared,
    drive: Drive,
    storm_seed: u64,
) -> (FidelityReport, Metrics) {
    let mut s = p.session_with::<Q, _>(NoopObserver);
    let n_repos = p.config().n_repos;
    let mut x = storm_seed | 1;
    let mut ts: Vec<u64> = (0..12).map(|_| xorshift(&mut x) % (p.end_us + 1)).collect();
    ts.sort_unstable();
    for t in ts {
        advance(&mut s, t, drive);
        let repo = (xorshift(&mut x) as usize) % n_repos;
        match xorshift(&mut x) % 3 {
            0 => {
                let _ = s.inject(Dynamic::FailRepo { repo });
            }
            1 => {
                let _ = s.inject(Dynamic::RecoverRepo { repo });
            }
            _ => {
                let n = p.workload.items_of(repo).count();
                if n > 0 {
                    let pick = (xorshift(&mut x) as usize) % n;
                    let (item, c) = p.workload.items_of(repo).nth(pick).expect("pick < n");
                    let factor = if xorshift(&mut x).is_multiple_of(2) { 0.5 } else { 1.5 };
                    let c = Coherency::new(c.value() * factor);
                    let _ = s.inject(Dynamic::SetTolerance { repo, item, c });
                }
            }
        }
    }
    s.run_to_end()
}

#[test]
fn inject_storms_are_cap_and_backend_invariant() {
    for protocol in PROTOCOLS {
        for seed in [0x5EEDu64, 907] {
            let cfg = small(protocol, seed);
            let p = Prepared::build(&cfg);
            let storm_seed = seed.rotate_left(17) ^ 0xBAD;
            let reference =
                drive_inject_storm::<CalendarQueue<EventKind>>(&p, Drive::Whole, storm_seed);
            assert!(reference.1.injected > 0, "{protocol:?}/{seed}: storm injected nothing");
            for drive in [Drive::Hops(5_000), Drive::Hops(333_333), Drive::Whole] {
                let cal = drive_inject_storm::<CalendarQueue<EventKind>>(&p, drive, storm_seed);
                let heap = drive_inject_storm::<HeapQueue<EventKind>>(&p, drive, storm_seed);
                assert_eq!(cal, reference, "{protocol:?}/{seed} {drive:?}: calendar diverged");
                assert_eq!(heap, reference, "{protocol:?}/{seed} {drive:?}: heap diverged");
            }
        }
    }
}

#[test]
fn injected_crash_takes_the_plan_crash_path() {
    // An injected `FailRepo` is a crash like a plan's own: under an
    // installed crash-free `Reparent` plan its orphans re-home, and a
    // `FaultMonitor` records one incident, which the injected
    // `RecoverRepo` closes.
    for protocol in [Protocol::Distributed, Protocol::Centralized] {
        let p = Prepared::build(&small(protocol, 0x5EED));
        let (relay, n_deps) = busiest_repo(&p);
        assert!(n_deps > 0, "{protocol:?}: no repository relays anything");
        let plan = FaultPlan {
            repair: RepairSpec { policy: RepairPolicy::Reparent, ..Default::default() },
            ..Default::default()
        };
        let (crash_us, recover_us) = (p.end_us / 4, p.end_us / 2);
        let mut s = p.session_observing(FaultMonitor::new());
        s.install_fault_plan(&plan);
        s.run_until(crash_us);
        s.inject(Dynamic::FailRepo { repo: relay }).unwrap();
        s.run_until(recover_us);
        s.inject(Dynamic::RecoverRepo { repo: relay }).unwrap();
        let (_, metrics, monitor) = s.finish();
        assert!(metrics.reparented > 0, "{protocol:?}: the injected crash was never repaired");
        let [incident] = monitor.incidents() else {
            panic!("{protocol:?}: want one incident, got {:?}", monitor.incidents());
        };
        assert_eq!(incident.node, NodeIdx::repo(relay), "{protocol:?}");
        assert_eq!(incident.crashed_at_us, crash_us, "{protocol:?}");
        assert_eq!(incident.recovered_at_us, Some(recover_us), "{protocol:?}");
        assert_eq!(incident.reparented, metrics.reparented, "{protocol:?}");
    }
}

/// Every way a plan can be malformed, one per [`FaultPlanError`]
/// variant, with the message the installing panic has always carried.
fn malformed_plans(n_repos: usize) -> Vec<(FaultPlan, FaultPlanError, String)> {
    let crash = |repo, at_us, recover_at_us| FaultPlan {
        crashes: vec![CrashSpec { repo, at_us, recover_at_us, subtree: false }],
        ..Default::default()
    };
    let loss = |prob, from_us, to_us| FaultPlan {
        loss: vec![LossWindow { prob, from_us, to_us }],
        ..Default::default()
    };
    let degrade = |from_us, to_us, min_extra_ms, mean_extra_ms| FaultPlan {
        degrade: vec![DegradeWindow { from_us, to_us, min_extra_ms, mean_extra_ms }],
        ..Default::default()
    };
    let out_of_range = format!("crash spec repo {n_repos} out of range");
    let cases = vec![
        (
            crash(n_repos, 10, None),
            FaultPlanError::RepoOutOfRange { repo: n_repos, n_repos },
            out_of_range.as_str(),
        ),
        (
            // Past any run's end: dropped by compilation, still malformed.
            crash(0, u64::MAX, Some(5)),
            FaultPlanError::RecoveryNotAfterCrash { repo: 0, at_us: u64::MAX, recover_at_us: 5 },
            "recovery must follow the crash",
        ),
        (
            loss(1.0, 0, 10),
            FaultPlanError::LossProbability { prob: 1.0 },
            "loss probability must be in [0, 1)",
        ),
        (
            loss(0.5, 10, 10),
            FaultPlanError::EmptyLossWindow { from_us: 10, to_us: 10 },
            "loss window must have positive length",
        ),
        (
            degrade(10, 3, 1.0, 2.0),
            FaultPlanError::EmptyDegradeWindow { from_us: 10, to_us: 3 },
            "degradation window must have positive length",
        ),
        (
            degrade(0, 10, 0.0, 2.0),
            FaultPlanError::DegradeParams { min_extra_ms: 0.0, mean_extra_ms: 2.0 },
            "min must be positive",
        ),
        (
            degrade(0, 10, 3.0, 3.0),
            FaultPlanError::DegradeParams { min_extra_ms: 3.0, mean_extra_ms: 3.0 },
            "mean must exceed min for a Pareto distribution",
        ),
        (
            degrade(0, 10, 3.0, f64::INFINITY),
            FaultPlanError::DegradeParams { min_extra_ms: 3.0, mean_extra_ms: f64::INFINITY },
            "alpha must be positive",
        ),
    ];
    cases.into_iter().map(|(plan, error, message)| (plan, error, message.to_string())).collect()
}

#[test]
fn malformed_plans_are_typed_errors_and_leave_the_session_as_it_was() {
    let p = Prepared::build(&small(Protocol::Distributed, 7));
    let n_repos = p.config().n_repos;
    let good = FaultPlan {
        crashes: vec![CrashSpec {
            repo: busiest_repo(&p).0,
            at_us: 1_000_000,
            recover_at_us: None,
            subtree: false,
        }],
        repair: RepairSpec { policy: RepairPolicy::Reparent, ..Default::default() },
        ..Default::default()
    };
    assert_eq!(good.validate(n_repos), Ok(()));
    let reference = run_faulted::<CalendarQueue<EventKind>>(&p, &good, Drive::Whole);
    assert!(reference.1.reparented > 0, "the good plan must do something");
    for (bad, error, message) in malformed_plans(n_repos) {
        assert_eq!(bad.validate(n_repos), Err(error));
        assert_eq!(error.to_string(), message);
        // A rejected install keeps the plan already in force.
        let mut s = p.session();
        s.install_fault_plan(&good);
        assert_eq!(s.try_install_fault_plan(&bad), Err(error));
        assert_eq!(s.run_to_end(), reference, "{message}: rejected plan disturbed the session");
        // The panicking twin (what `d3t-bench` calls) words it the same.
        let panic = std::panic::catch_unwind(|| p.session().install_fault_plan(&bad))
            .expect_err("a malformed plan must not install");
        assert_eq!(panic.downcast_ref::<String>(), Some(&message));
    }
}
