//! End-to-end run preparation: traces → network → workload → d3g → engine.

use d3t_core::coop::{controlled_degree, CoopParams};
use d3t_core::dissemination::Disseminator;
use d3t_core::graph::D3g;
use d3t_core::item::ItemId;
use d3t_core::lela::{build_d3g, DelayMatrix, LelaConfig};
use d3t_core::workload::{Workload, WorkloadConfig};
use d3t_net::placement::Placement;
use d3t_net::{NetworkConfig, OverlayApsp, Pareto, Topology};
use d3t_traces::{generate_ensemble, EnsembleConfig, Trace};

use crate::config::{SimConfig, TreeStrategy};
use crate::engine::{Engine, EventKind, SourceChange};
use crate::observer::{NoopObserver, Observer};
use crate::queue::{EventQueue, HeapQueue};
use crate::report::RunReport;
use crate::session::Session;
use crate::snapshot::Snapshot;
use crate::Arc;

/// A fully materialized experiment: all inputs generated, overlay built,
/// ready to [`run`](Prepared::run). Exposed so examples and ablations can
/// inspect or swap individual pieces.
pub struct Prepared {
    /// The generated item traces.
    pub traces: Vec<Trace>,
    /// The user workload (fidelity is measured against this).
    pub workload: Workload,
    /// Shortest-path delays among the physical network's overlay nodes
    /// (index 0 = source, `i + 1` = repository `i`), rescaled to
    /// [`SimConfig::target_mean_comm_delay_ms`] when that is set. Every
    /// cell is checked to fit the `u32` µs an edge record holds at
    /// build. Each session's disseminator stamps its edges from this
    /// matrix and keeps a clone (a pointer copy) for repairs; no n² µs
    /// table is built.
    pub delays: DelayMatrix,
    /// The constructed dissemination graph.
    pub d3g: D3g,
    /// The degree of cooperation in force during construction.
    pub coop_degree: usize,
    /// Merged, time-ordered source changes.
    pub changes: Vec<SourceChange>,
    /// First value of each trace (all nodes start coherent at these).
    pub initial_values: Vec<f64>,
    /// Observation horizon, µs (the engine's integer timebase).
    pub end_us: u64,
    cfg: SimConfig,
    /// The smallest delay between two distinct overlay nodes, µs — the
    /// drive's batch window less the computational delay. Recorded by
    /// the same pass that checks the delays, once per network.
    min_link_us: u64,
    /// The packed `(at_us, payload)` source stream, built once
    /// and shared (O(ticks × items) tuples) by every drive.
    pub(crate) source_stream: Arc<Vec<(u64, EventKind)>>,
    /// The overlay statistics every [`RunReport`] carries — constants of
    /// the build (an n² mean and a sweep over every item tree), so
    /// computed here once, not per report.
    mean_comm_delay_ms: f64,
    max_tree_depth: usize,
    mean_tree_depth: f64,
}

impl Prepared {
    /// Generates every input deterministically from `cfg`.
    pub fn build(cfg: &SimConfig) -> Self {
        let traces = build_traces(cfg);
        let (delays, mean_comm_delay_ms, min_link_us) = build_delays(cfg);
        let workload = build_workload(cfg);
        let coop_degree = effective_degree(cfg, mean_comm_delay_ms);
        let d3g = build_overlay(cfg, &workload, &delays, coop_degree);
        // While the graph LeLA just wrote is still in cache.
        let (max_tree_depth, mean_tree_depth) = d3g.depth_summary();
        let initial_values = first_values(&traces);
        let changes = merge_changes(&traces);
        let end_us = horizon_us(&traces);
        let source_stream = Arc::new(crate::engine::build_source_stream(&changes, end_us));
        Self {
            traces,
            workload,
            delays,
            d3g,
            coop_degree,
            changes,
            initial_values,
            end_us,
            cfg: cfg.clone(),
            min_link_us,
            source_stream,
            mean_comm_delay_ms,
            max_tree_depth,
            mean_tree_depth,
        }
    }

    /// Re-targets this prepared run at `cfg`, rebuilding **in place** only
    /// the stages whose inputs differ from the configuration it holds;
    /// afterwards every field equals a fresh [`Prepared::build`]`(cfg)`'s
    /// (property-tested in `tests/retarget_properties.rs`). A sweep whose
    /// cells vary one or two knobs over a fixed ensemble and network pays
    /// for the overlay alone, or — when Eq. (2) lands on the degree
    /// already in force — for nothing: see [`Retargeted::report_changed`].
    ///
    /// Each stale stage is released before its replacement is built, so
    /// the peak stays one build's, as for a caller that drops one
    /// `Prepared` before building the next.
    pub fn retarget(&mut self, cfg: &SimConfig) -> Retargeted {
        let stale = Stale::between(&self.cfg, cfg);
        if stale.traces {
            self.traces = Vec::new();
            self.changes = Vec::new();
            self.source_stream = Arc::new(Vec::new());
            self.traces = build_traces(cfg);
            self.initial_values = first_values(&self.traces);
            self.changes = merge_changes(&self.traces);
            self.end_us = horizon_us(&self.traces);
            self.source_stream =
                Arc::new(crate::engine::build_source_stream(&self.changes, self.end_us));
        }
        if stale.network || stale.workload {
            // The overlay was built over both; it goes first.
            self.d3g = D3g::new(0, 0);
        }
        if stale.network {
            self.delays = DelayMatrix::new(0, Vec::new());
            (self.delays, self.mean_comm_delay_ms, self.min_link_us) = build_delays(cfg);
        }
        if stale.workload {
            self.workload = Workload::from_needs(Vec::new());
            self.workload = build_workload(cfg);
        }
        // Refreshed on every call: a flat tree ignores the degree, the
        // report's `coop_degree_used` does not.
        let coop_degree = effective_degree(cfg, self.mean_comm_delay_ms);
        let degree_moved = coop_degree != self.coop_degree;
        self.coop_degree = coop_degree;
        let d3g = stale.network || stale.workload || stale.overlay || degree_moved;
        if d3g {
            self.d3g = D3g::new(0, 0);
            self.d3g = build_overlay(cfg, &self.workload, &self.delays, coop_degree);
            (self.max_tree_depth, self.mean_tree_depth) = self.d3g.depth_summary();
        }
        self.cfg = cfg.clone();
        Retargeted {
            traces: stale.traces,
            network: stale.network,
            workload: stale.workload,
            d3g,
            report_changed: stale.traces || d3g || stale.drive,
        }
    }

    /// Runs the dissemination simulation on the binary-heap queue and
    /// gathers the report. Configurations with `n_shards > 1` drive the
    /// conservative parallel engine (`crate::shard`); its report is
    /// bit-identical to the sequential drive and deterministic for a
    /// fixed `(seed, n_shards)`.
    pub fn run(&self) -> RunReport {
        if self.cfg.n_shards > 1 {
            if let Some(report) = crate::shard::run_sharded(self) {
                return report;
            }
        }
        self.run_with::<HeapQueue<EventKind>>()
    }

    /// Re-targets this prepared run at a different shard count without
    /// re-deriving anything (`n_shards` is a drive-time knob: the
    /// network, traces, workload and overlay are shard-independent).
    /// `d3t-bench`'s `shard.*` extras use this to compare shard counts
    /// over bit-identical inputs.
    pub fn set_shards(&mut self, n_shards: usize) {
        self.cfg.n_shards = n_shards.max(1);
    }

    /// [`Prepared::run`] with an explicit scheduler implementation (any
    /// [`EventQueue`], including instrumented wrappers in tests).
    /// Equivalent to `session_with::<Q, _>(NoopObserver).run_to_end()`.
    pub fn run_with<Q: EventQueue<EventKind>>(&self) -> RunReport {
        let (fidelity, metrics) = self.session_with::<Q, _>(NoopObserver).run_to_end();
        self.report(fidelity, metrics)
    }

    /// A steppable [`Session`] over this prepared run, scheduling with the
    /// default binary-heap queue and observing nothing.
    pub fn session(&self) -> Session {
        self.session_with::<HeapQueue<EventKind>, _>(NoopObserver)
    }

    /// A [`Session`] on the default binary-heap queue with the given
    /// observer — the common observed-run entry point.
    pub fn session_observing<O: Observer>(&self, observer: O) -> Session<HeapQueue<EventKind>, O> {
        self.session_with(observer)
    }

    /// A [`Session`] with an explicit scheduler backend and observer —
    /// the full-control entry point (time-series observers, dynamics,
    /// instrumented queues).
    pub fn session_with<Q: EventQueue<EventKind>, O: Observer>(
        &self,
        observer: O,
    ) -> Session<Q, O> {
        Session::from_engine(self.engine(), observer)
    }

    /// Reconstructs a live session from a [`Snapshot`] on the default
    /// binary-heap queue — the warm-branch entry point. The resumed
    /// session's run-to-end is **bit-identical** to the captured
    /// session run uninterrupted (property-tested across protocols ×
    /// seeds × backends × fault plans). The snapshot must
    /// come from a session of this same prepared run (same overlay,
    /// traces and horizon — debug-asserted), but the queue backend may
    /// differ from the captured session's: capture is backend-neutral.
    pub fn resume(&self, snapshot: &Snapshot) -> Session {
        self.resume_with::<HeapQueue<EventKind>, _>(snapshot, NoopObserver)
    }

    /// [`Prepared::resume`] with an explicit scheduler backend and a
    /// fresh observer. The observer starts from the capture instant —
    /// it sees the still-open violation intervals replayed at their
    /// original start times, then everything after the fork.
    pub fn resume_with<Q: EventQueue<EventKind>, O: Observer>(
        &self,
        snapshot: &Snapshot,
        observer: O,
    ) -> Session<Q, O> {
        let mut session = self.session_with(observer);
        session.restore_from(snapshot);
        session
    }

    /// The sealed reference engine over this prepared run (the oracle the
    /// session is property-tested against; normal callers want
    /// [`Prepared::session`]).
    pub fn engine<Q: EventQueue<EventKind>>(&self) -> Engine<Q> {
        let disseminator = Disseminator::new(self.cfg.protocol, &self.d3g, &self.initial_values);
        Engine::<Q>::with_queue_shared(
            &self.d3g,
            &self.workload,
            self.delays.clone(),
            self.min_link_us,
            disseminator,
            Arc::clone(&self.source_stream),
            &self.initial_values,
            self.cfg.comp_delay_ms,
            self.end_us,
        )
    }

    /// The smallest delay between two distinct overlay nodes, µs.
    pub(crate) fn min_link_us(&self) -> u64 {
        self.min_link_us
    }

    /// Wraps a finished run's outputs with the overlay statistics every
    /// figure wants alongside them.
    pub fn report(
        &self,
        fidelity: d3t_core::fidelity::FidelityReport,
        metrics: crate::metrics::Metrics,
    ) -> RunReport {
        RunReport {
            fidelity,
            metrics,
            coop_degree_used: self.coop_degree,
            mean_comm_delay_ms: self.mean_comm_delay_ms,
            max_tree_depth: self.max_tree_depth,
            mean_tree_depth: self.mean_tree_depth,
        }
    }

    /// Number of measured (repository, item) pairs — the normalizer for
    /// windowed fidelity series.
    pub fn n_measured_pairs(&self) -> usize {
        (0..self.workload.n_repos()).map(|r| self.workload.items_of(r).count()).sum()
    }

    /// The configuration this run was prepared from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }
}

/// What one [`Prepared::retarget`] call rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retargeted {
    /// The traces and what derives from them alone: `changes`,
    /// `initial_values`, `end_us` and the source stream.
    pub traces: bool,
    /// The physical network: `delays`, their mean and smallest µs.
    pub network: bool,
    /// The user workload.
    pub workload: bool,
    /// The dissemination graph and its depth summary.
    pub d3g: bool,
    /// Whether a [`RunReport`] of the re-targeted value can differ from
    /// one taken before the call: a stage was rebuilt, or a field the
    /// drive reads (`protocol`, `comp_delay_ms`, `n_shards`) changed.
    /// `false` means the previous report *is* this configuration's —
    /// `coop_res`, `controlled` and `coop_f` act only through the
    /// effective degree.
    pub report_changed: bool,
}

impl Retargeted {
    /// Every stage was rebuilt, as by [`Prepared::build`].
    pub fn full(&self) -> bool {
        self.traces && self.network && self.workload && self.d3g
    }
}

/// The stages of [`Prepared::build`] whose configuration inputs differ
/// between two configurations. The overlay's one derived input — the
/// effective degree, which needs the new network's mean delay — is
/// compared by [`Prepared::retarget`] itself.
struct Stale {
    traces: bool,
    network: bool,
    workload: bool,
    /// The overlay's own knobs (`tree` and LeLA's parameters).
    overlay: bool,
    /// A field only the drive reads.
    drive: bool,
}

impl Stale {
    /// Sorts every `SimConfig` field into the stage it invalidates. The
    /// destructuring is exhaustive on purpose: a field added to the
    /// struct does not compile until it is sorted here. The struct's own
    /// floats compare by bit pattern, as the reports they feed are
    /// compared; the nested `network` / `ensemble` by their derived `==`
    /// (a NaN there costs a rebuild on every call, never a stale stage).
    fn between(old: &SimConfig, new: &SimConfig) -> Self {
        let SimConfig {
            n_repos,
            n_items,
            n_ticks,
            t_stringent_pct,
            tree,
            // `coop_res`, `controlled` and `coop_f` reach the build only
            // through `effective_degree`, which `retarget` recomputes.
            coop_res: _,
            controlled: _,
            coop_f: _,
            protocol,
            pref_fn,
            pref_band_pct,
            join_order,
            comp_delay_ms,
            target_mean_comm_delay_ms,
            network,
            ensemble,
            n_shards,
            seed,
        } = new;
        // Every `sub_seed` moves with the master seed.
        let reseeded = *seed != old.seed;
        let bits = |x: &Option<f64>| x.map(f64::to_bits);
        Self {
            traces: reseeded
                || *n_items != old.n_items
                || *n_ticks != old.n_ticks
                || *ensemble != old.ensemble,
            network: reseeded
                || *n_repos != old.n_repos
                || *network != old.network
                || bits(target_mean_comm_delay_ms) != bits(&old.target_mean_comm_delay_ms),
            workload: reseeded
                || *n_repos != old.n_repos
                || *n_items != old.n_items
                || t_stringent_pct.to_bits() != old.t_stringent_pct.to_bits(),
            overlay: *tree != old.tree
                || pref_band_pct.to_bits() != old.pref_band_pct.to_bits()
                || *pref_fn != old.pref_fn
                || *join_order != old.join_order,
            // `n_shards` does not change a report's bits, but that is
            // the property suites' claim to check, not this function's
            // to assume.
            drive: *protocol != old.protocol
                || comp_delay_ms.to_bits() != old.comp_delay_ms.to_bits()
                || *n_shards != old.n_shards,
        }
    }
}

fn build_traces(cfg: &SimConfig) -> Vec<Trace> {
    let ensemble =
        EnsembleConfig { n_items: cfg.n_items, n_ticks: cfg.n_ticks, ..cfg.ensemble.clone() };
    generate_ensemble(&ensemble, cfg.sub_seed("traces"))
}

/// Where every node starts: the first value of each trace.
#[expect(clippy::expect_used, reason = "generated traces always open with the initial-value tick")]
fn first_values(traces: &[Trace]) -> Vec<f64> {
    traces.iter().map(|t| t.first().expect("non-empty trace").value).collect()
}

/// The observation horizon: the longest trace, in µs.
fn horizon_us(traces: &[Trace]) -> u64 {
    traces.iter().map(Trace::duration_ms).max().unwrap_or(0) * 1000
}

fn build_workload(cfg: &SimConfig) -> Workload {
    Workload::generate(
        &WorkloadConfig::paper(cfg.n_repos, cfg.n_items, cfg.t_stringent_pct),
        cfg.sub_seed("workload"),
    )
}

fn build_overlay(
    cfg: &SimConfig,
    workload: &Workload,
    delays: &DelayMatrix,
    coop_degree: usize,
) -> D3g {
    match cfg.tree {
        TreeStrategy::Flat => D3g::flat(workload),
        TreeStrategy::Lela => {
            let lela = LelaConfig {
                coop_degree,
                pref_band_pct: cfg.pref_band_pct,
                pref_fn: cfg.pref_fn,
                join_order: cfg.join_order,
                seed: cfg.sub_seed("lela"),
            };
            build_d3g(workload, delays, &lela)
        }
    }
}

/// Generates the physical network, computes the shortest-path delays
/// among its overlay nodes, optionally rescales them to a target mean
/// delay, and returns them with their mean pairwise delay and their
/// smallest off-diagonal µs.
///
/// # Panics
/// Panics if a delay does not fit the `u32` µs an edge record holds
/// ([`DelayMatrix::min_offdiag_us`]).
fn build_delays(cfg: &SimConfig) -> (DelayMatrix, f64, u64) {
    let net = NetworkConfig { n_repositories: cfg.n_repos, ..cfg.network.clone() };
    assert!(net.n_nodes > cfg.n_repos, "network must have room for repositories plus the source");
    let seed = cfg.sub_seed("topology");
    let pareto = Pareto::with_mean(net.link_delay_min_ms, net.link_delay_mean_ms);
    let topo = Topology::random(net.n_nodes, net.avg_degree, seed, |rng| {
        pareto.sample_capped(rng, net.link_delay_cap_ms)
    });
    assert!(topo.is_connected(), "physical network must be connected");
    // Overlay index 0 = source, i + 1 = i-th repository (sorted node ids).
    let overlay =
        Placement::random(net.n_nodes, net.n_repositories, seed.wrapping_add(1)).overlay_nodes();
    let apsp = OverlayApsp::compute(&topo, &overlay);
    let mut delays = DelayMatrix::new(overlay.len(), apsp.into_delays());
    if let Some(target) = cfg.target_mean_comm_delay_ms {
        delays.scale_to_mean_delay(target);
    }
    let mean = delays.mean_delay_ms();
    let min_link_us = delays.min_offdiag_us();
    (delays, mean, min_link_us)
}

fn effective_degree(cfg: &SimConfig, mean_comm_ms: f64) -> usize {
    if cfg.controlled {
        controlled_degree(CoopParams {
            avg_comm_delay_ms: mean_comm_ms.max(f64::MIN_POSITIVE),
            avg_comp_delay_ms: cfg.comp_delay_ms.max(f64::MIN_POSITIVE),
            coop_res: cfg.coop_res,
            f: cfg.coop_f,
        })
    } else {
        cfg.coop_res
    }
}

/// Merges all traces' change sequences into one time-ordered stream
/// (ordered by `(at_ms, item)`; item index breaks timestamp ties). The
/// initial tick of each trace is *not* a change — every node starts
/// coherent at it.
///
/// Each per-item change stream is already sorted (trace timestamps are
/// strictly increasing), so this is a k-way heap merge: `O(N log k)` over
/// `N` total changes and `k` items, instead of the `O(N log N)`
/// whole-stream sort that used to grow with `n_items × n_ticks`. The heap
/// holds one `(at_ms, item)` head per stream; no `(at_ms, item)` key can
/// repeat (one stream per item, strictly increasing within), so the order
/// is total and identical to the sort's.
fn merge_changes(traces: &[Trace]) -> Vec<SourceChange> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let streams: Vec<Vec<d3t_traces::Tick>> = traces.iter().map(Trace::changes).collect();
    let total: usize = streams.iter().map(|s| s.len().saturating_sub(1)).sum();
    let mut heads: BinaryHeap<Reverse<(u64, u32)>> = streams
        .iter()
        .enumerate()
        .filter(|(_, s)| s.len() > 1)
        .map(|(i, s)| Reverse((s[1].at_ms, i as u32)))
        .collect();
    // Cursor into each stream (position of the head currently in the heap).
    let mut pos: Vec<usize> = vec![1; streams.len()];
    let mut changes: Vec<SourceChange> = Vec::with_capacity(total);
    while let Some(Reverse((at_ms, item))) = heads.pop() {
        let stream = &streams[item as usize];
        let p = &mut pos[item as usize];
        changes.push((at_ms, ItemId(item), stream[*p].value));
        *p += 1;
        if let Some(next) = stream.get(*p) {
            heads.push(Reverse((next.at_ms, item)));
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::CalendarQueue;
    use d3t_core::dissemination::Protocol;

    #[test]
    fn prepared_run_is_deterministic() {
        let cfg = SimConfig::small_for_tests(8, 4, 300, 50.0);
        let a = Prepared::build(&cfg).run();
        let b = Prepared::build(&cfg).run();
        assert_eq!(a, b);
    }

    /// Randomized d3gs (seeded configs across protocols and shapes) must
    /// yield bit-identical `(FidelityReport, Metrics)` whichever scheduler
    /// backend runs the event loop.
    #[test]
    fn queue_backends_produce_bit_identical_reports() {
        for (i, protocol) in
            [Protocol::Distributed, Protocol::Centralized, Protocol::Naive].iter().enumerate()
        {
            for seed in [0x5EEDu64, 97, 31_337] {
                let mut cfg = SimConfig::small_for_tests(10, 5, 400, 50.0);
                cfg.protocol = *protocol;
                cfg.seed = seed;
                cfg.coop_res = 1 + i * 3;
                let p = Prepared::build(&cfg);
                let cal = p.run_with::<CalendarQueue<EventKind>>();
                let heap = p.run_with::<HeapQueue<EventKind>>();
                assert_eq!(cal, heap, "seed {seed} protocol {protocol:?} diverged");
                // PartialEq covers every field; pin the formatted repr too
                // so float bit-pattern changes cannot hide.
                assert_eq!(format!("{cal:?}"), format!("{heap:?}"));
            }
        }
    }

    /// The k-way heap merge must order changes exactly like the old
    /// whole-stream sort on any ensemble shape, including traces with no
    /// changes and heavy timestamp collisions across items.
    #[test]
    fn kway_merge_matches_sort_reference() {
        fn reference(traces: &[Trace]) -> Vec<SourceChange> {
            let mut changes: Vec<SourceChange> = Vec::new();
            for (i, t) in traces.iter().enumerate() {
                let item = ItemId(i as u32);
                for tick in t.changes().iter().skip(1) {
                    changes.push((tick.at_ms, item, tick.value));
                }
            }
            changes.sort_by_key(|&(at, item, _)| (at, item));
            changes
        }
        // Generated ensembles across seeds and shapes.
        for (n_items, n_ticks, seed) in [(1usize, 50usize, 7u64), (5, 200, 0x5EED), (17, 93, 42)] {
            let cfg = d3t_traces::EnsembleConfig::small(n_items, n_ticks);
            let traces = d3t_traces::generate_ensemble(&cfg, seed);
            assert_eq!(merge_changes(&traces), reference(&traces), "seed {seed}");
        }
        // Hand-built edge cases: constant trace (no changes), single tick,
        // and aligned timestamps across every stream.
        let traces = vec![
            Trace::from_pairs("flat", [(0, 1.0), (10, 1.0), (20, 1.0)]),
            Trace::from_pairs("single", [(0, 2.0)]),
            Trace::from_pairs("a", [(0, 1.0), (10, 2.0), (20, 3.0)]),
            Trace::from_pairs("b", [(0, 1.0), (10, 4.0), (20, 5.0)]),
        ];
        let merged = merge_changes(&traces);
        assert_eq!(merged, reference(&traces));
        assert_eq!(
            merged,
            vec![
                (10, ItemId(2), 2.0),
                (10, ItemId(3), 4.0),
                (20, ItemId(2), 3.0),
                (20, ItemId(3), 5.0),
            ],
            "timestamp ties break by item index"
        );
    }

    /// The µs-overflow check moved from a whole-matrix rounding into the
    /// build's one checking pass, and did not vanish: a delay past the
    /// `u32` µs an edge record holds still stops the build.
    #[test]
    #[should_panic(expected = "exceeds the u32")]
    fn build_rejects_delays_past_the_u32_micros() {
        let mut cfg = SimConfig::small_for_tests(2, 2, 50, 50.0);
        cfg.target_mean_comm_delay_ms = Some(5.0e6);
        Prepared::build(&cfg);
    }

    #[test]
    fn d3g_serves_all_user_needs() {
        let cfg = SimConfig::small_for_tests(12, 6, 100, 70.0);
        let p = Prepared::build(&cfg);
        p.d3g.validate(Some(p.coop_degree)).unwrap();
        for r in 0..cfg.n_repos {
            for (item, c) in p.workload.items_of(r) {
                let eff = p
                    .d3g
                    .effective(d3t_core::overlay::NodeIdx::repo(r), item)
                    .expect("need served");
                assert!(eff.at_least_as_stringent_as(c));
            }
        }
    }

    /// The overlay statistics `build` stores are the ones `report` used
    /// to recompute per call, bit for bit — rescaled delays included.
    #[test]
    fn report_carries_the_overlay_statistics_of_the_build() {
        for target in [None, Some(80.0)] {
            let mut cfg = SimConfig::small_for_tests(12, 6, 100, 70.0);
            cfg.target_mean_comm_delay_ms = target;
            let p = Prepared::build(&cfg);
            let r = p.run();
            assert_eq!(r.mean_comm_delay_ms.to_bits(), p.delays.mean_delay_ms().to_bits());
            assert_eq!(r.max_tree_depth, p.d3g.max_depth());
            assert_eq!(r.mean_tree_depth.to_bits(), p.d3g.mean_depth().to_bits());
        }
    }

    #[test]
    fn controlled_flag_caps_degree() {
        let mut cfg = SimConfig::small_for_tests(10, 4, 100, 50.0);
        cfg.coop_res = 100;
        cfg.controlled = true;
        let p = Prepared::build(&cfg);
        assert!(p.coop_degree < 100, "Eq.(2) should cap the degree, got {}", p.coop_degree);
    }

    #[test]
    fn target_mean_delay_is_respected() {
        let mut cfg = SimConfig::small_for_tests(10, 4, 100, 50.0);
        cfg.target_mean_comm_delay_ms = Some(80.0);
        let p = Prepared::build(&cfg);
        // The rescale targets the mean of this very matrix.
        let mean = p.delays.mean_delay_ms();
        assert!((mean - 80.0).abs() < 1e-9, "mean {mean}");
    }

    /// `delays` is the overlay APSP in `Placement::overlay_nodes` order —
    /// source first, then the repositories by node id — bit for bit, and
    /// with a target it is that matrix rescaled.
    #[test]
    fn delays_are_the_overlay_apsp_in_placement_order() {
        for target in [None, Some(40.0)] {
            let mut cfg = SimConfig::small_for_tests(12, 4, 100, 50.0);
            cfg.target_mean_comm_delay_ms = target;
            let net = &cfg.network;
            let seed = cfg.sub_seed("topology");
            let pareto = Pareto::with_mean(net.link_delay_min_ms, net.link_delay_mean_ms);
            let topo = Topology::random(net.n_nodes, net.avg_degree, seed, |rng| {
                pareto.sample_capped(rng, net.link_delay_cap_ms)
            });
            let placement = Placement::random(net.n_nodes, cfg.n_repos, seed.wrapping_add(1));
            let mut order = vec![placement.source];
            order.extend_from_slice(&placement.repositories);
            assert_eq!(order, placement.overlay_nodes());
            let apsp = OverlayApsp::compute(&topo, &order);
            let mut expected = DelayMatrix::new(order.len(), apsp.into_delays());
            if let Some(target) = target {
                expected.scale_to_mean_delay(target);
            }
            let delays = Prepared::build(&cfg).delays;
            assert_eq!(delays.len(), cfg.n_repos + 1);
            for a in 0..order.len() {
                let a = d3t_core::overlay::NodeIdx(a as u32);
                let (got, want) = (delays.row_ms(a), expected.row_ms(a));
                assert!(got.iter().map(|d| d.to_bits()).eq(want.iter().map(|d| d.to_bits())));
            }
        }
    }

    #[test]
    fn flood_protocol_sends_more_messages_than_distributed() {
        let base = SimConfig::small_for_tests(10, 5, 400, 50.0);
        let distributed = Prepared::build(&base).run();
        let mut flood_cfg = base.clone();
        flood_cfg.protocol = Protocol::FloodAll;
        let flood = Prepared::build(&flood_cfg).run();
        assert!(
            flood.metrics.messages > distributed.metrics.messages,
            "flood {} <= filtered {}",
            flood.metrics.messages,
            distributed.metrics.messages
        );
    }

    #[test]
    fn centralized_and_distributed_send_same_messages_zero_comp() {
        // With zero computational delay and identical trees, both exact
        // protocols push the same updates (Figure 11b).
        let mut cfg = SimConfig::small_for_tests(10, 5, 400, 50.0);
        cfg.comp_delay_ms = 0.0;
        let d = Prepared::build(&cfg).run();
        cfg.protocol = Protocol::Centralized;
        let c = Prepared::build(&cfg).run();
        let dm = d.metrics.messages as f64;
        let cm = c.metrics.messages as f64;
        assert!((dm - cm).abs() / dm.max(1.0) < 0.35, "distributed {dm} vs centralized {cm}");
    }
}
