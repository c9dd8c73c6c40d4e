//! The sweep runners: a parallel fan-out over independent work items,
//! and a serial walk over one figure's cells that re-targets one
//! [`Prepared`] from cell to cell.
//!
//! Every figure/table of the paper is a sweep over a grid of
//! [`SimConfig`] cells (degrees of cooperation × `T` values, delay
//! grids, repository counts, …). Each cell derives all of its randomness
//! from its own config via [`SimConfig::sub_seed`], and a run touches no
//! shared mutable state, so cells are **embarrassingly parallel** — and
//! because [`par_map`] writes each result into the slot of its input
//! index, the output is *byte-identical* to the serial path regardless of
//! thread count or completion order. What fans out today is whole
//! figures (`repro`'s [`par_map`] over the requested ids) and the three
//! large cells of `scale`.
//!
//! Every other figure is one [`grid`]: a list of series and a list of x
//! values, one configuration per `(series, x)` cell. The cells run
//! series-major through one [`SerialSweep`]: a figure varies one or
//! two knobs over a fixed trace ensemble and (mostly) a fixed network, so
//! each cell keeps what the previous one built and rebuilds only the
//! stages its knob invalidates ([`Prepared::retarget`]); when Eq. (2)
//! lands on the degree already in force the cell *is* the previous one,
//! and its report is reused. [`Grid::plot`] turns the rows into the
//! figure's series.
//!
//! `RAYON_NUM_THREADS` bounds the worker count (unset/0 → all cores).

use d3t_sim::{Prepared, RunReport, SimConfig};
use rayon::prelude::*;

use crate::figure::{Figure, Series};

/// Generic parallel map with order-preserving output (whole-figure
/// fan-out in the `repro` binary, the large cells of `scale`). The
/// closure must be a pure function of its item for the parallel/serial
/// equivalence to hold.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    items.into_par_iter().map(f).collect()
}

/// What one [`SerialSweep`] did, cell by cell. `repro` prints these on
/// the figure's timing line; nothing rendered depends on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepCounters {
    /// Cells whose simulation was driven.
    pub driven: usize,
    /// Cells answered with the previous cell's report: same overlay,
    /// same traces, same drive-time fields.
    pub reused: usize,
    /// Builds of every stage (the first cell's, and any re-seed).
    pub full_builds: usize,
    /// Stage rebuilds that were not part of a full build.
    pub network_builds: usize,
    /// See `network_builds`.
    pub workload_builds: usize,
    /// See `network_builds`.
    pub d3g_builds: usize,
}

impl SweepCounters {
    /// Cells run so far.
    pub fn cells(&self) -> usize {
        self.driven + self.reused
    }
}

impl std::fmt::Display for SweepCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cells={} driven={} reused={} builds: full={} network={} workload={} d3g={}",
            self.cells(),
            self.driven,
            self.reused,
            self.full_builds,
            self.network_builds,
            self.workload_builds,
            self.d3g_builds
        )
    }
}

/// Runs a sequence of cells one after another, keeping the previous
/// cell's [`Prepared`] and report: [`SerialSweep::run`] is
/// `d3t_sim::run`, bit for bit, at the cost of what changed since the
/// last call. Lives inside one figure call — nothing is shared across
/// figures or kept between sweeps.
#[derive(Default)]
pub struct SerialSweep {
    last: Option<(Prepared, RunReport)>,
    counters: SweepCounters,
}

impl SerialSweep {
    /// A runner that has seen no cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// The report `d3t_sim::run(cfg)` returns.
    pub fn run(&mut self, cfg: &SimConfig) -> RunReport {
        let c = &mut self.counters;
        let Some((prepared, report)) = &mut self.last else {
            let prepared = Prepared::build(cfg);
            let report = prepared.run();
            c.full_builds += 1;
            c.driven += 1;
            self.last = Some((prepared, report.clone()));
            return report;
        };
        let rebuilt = prepared.retarget(cfg);
        if rebuilt.full() {
            c.full_builds += 1;
        } else {
            c.network_builds += usize::from(rebuilt.network);
            c.workload_builds += usize::from(rebuilt.workload);
            c.d3g_builds += usize::from(rebuilt.d3g);
        }
        if rebuilt.report_changed {
            *report = prepared.run();
            c.driven += 1;
        } else {
            c.reused += 1;
        }
        report.clone()
    }

    /// What the runner has done so far.
    pub fn counters(&self) -> SweepCounters {
        self.counters
    }
}

/// One figure's cells: `reports[s][x]` is the report of series `s` at
/// x value `x`, less its per-pair and per-repository losses.
#[derive(Debug)]
pub struct Grid {
    /// Row-major by series, as [`grid`] ran them.
    pub reports: Vec<Vec<RunReport>>,
    /// What the grid's [`SerialSweep`] did.
    pub counters: SweepCounters,
}

/// Runs every `(series, x)` cell — `cell(s, x)` is its configuration —
/// series-major through one [`SerialSweep`]. A grid keeps every report
/// until it is plotted, so each one's per-pair and per-repository losses
/// (the bulk of a report's memory, read by no figure) are emptied as its
/// cell ends.
pub fn grid<S, X>(series: &[S], xs: &[X], mut cell: impl FnMut(&S, &X) -> SimConfig) -> Grid {
    let mut sweep = SerialSweep::new();
    let mut run = |s, x| {
        let mut report = sweep.run(&cell(s, x));
        report.fidelity.pair_losses = Vec::new();
        report.fidelity.per_repo_loss_pct = Vec::new();
        report
    };
    let reports = series.iter().map(|s| xs.iter().map(|x| run(s, x)).collect()).collect();
    Grid { reports, counters: sweep.counters() }
}

impl Grid {
    /// Adds one series per row to `fig` — `labels` in row order, the
    /// points `(xs[i], y(reports[row][i]))` — and records the grid's
    /// counters as the figure's [`Figure::sweep`].
    pub fn plot<L: Into<String>>(
        &self,
        fig: &mut Figure,
        labels: impl IntoIterator<Item = L>,
        xs: impl IntoIterator<Item = f64> + Clone,
        y: impl Fn(&RunReport) -> f64,
    ) {
        for (label, row) in labels.into_iter().zip(&self.reports) {
            let points = xs.clone().into_iter().zip(row).map(|(x, r)| (x, y(r))).collect();
            fig.push_series(Series::new(label, points));
        }
        fig.sweep = Some(self.counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baseline, controlled, lela_params, Scale};
    use d3t_core::lela::PreferenceFunction;
    use d3t_sim::TreeStrategy;

    fn mixed_cells() -> Vec<SimConfig> {
        let mut cells = Vec::new();
        for degree in [1usize, 2, 4] {
            for t in [0.0, 50.0] {
                let mut cfg = SimConfig::small_for_tests(8, 4, 200, t);
                cfg.coop_res = degree;
                cells.push(cfg);
            }
        }
        // One structurally different cell so the sweep is heterogeneous.
        let mut flat = SimConfig::small_for_tests(6, 3, 150, 50.0);
        flat.tree = TreeStrategy::Flat;
        cells.push(flat);
        cells
    }

    fn run_parallel(cells: &[SimConfig]) -> Vec<RunReport> {
        par_map(cells.to_vec(), |cfg| d3t_sim::run(&cfg))
    }

    fn run_serial(cells: &[SimConfig]) -> Vec<RunReport> {
        cells.iter().map(d3t_sim::run).collect()
    }

    /// The headline guarantee: the parallel runner's output equals the
    /// serial runner's, cell for cell, bit for bit.
    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let cells = mixed_cells();
        let par = run_parallel(&cells);
        let ser = run_serial(&cells);
        assert_eq!(par.len(), ser.len());
        for (i, (p, s)) in par.iter().zip(&ser).enumerate() {
            assert_eq!(p, s, "cell {i} diverged");
            // PartialEq covers every field, but also pin the formatted
            // representation so float bit-pattern changes cannot hide.
            assert_eq!(format!("{p:?}"), format!("{s:?}"), "cell {i} repr diverged");
        }
    }

    /// Forcing any pool width must not change results either.
    #[test]
    fn sweep_is_thread_count_invariant() {
        let cells: Vec<SimConfig> = mixed_cells().into_iter().take(3).collect();
        let baseline = run_parallel(&cells);
        for width in [1usize, 2, 5] {
            let pinned = rayon::with_num_threads(width, || run_parallel(&cells));
            assert_eq!(baseline, pinned, "width {width} diverged");
        }
    }

    /// The serial runner over a heterogeneous grid (different sizes,
    /// trees and degrees back to back) is `d3t_sim::run` per cell.
    #[test]
    fn serial_sweep_matches_independent_runs() {
        let cells = mixed_cells();
        let mut sweep = SerialSweep::new();
        let swept: Vec<RunReport> = cells.iter().map(|cfg| sweep.run(cfg)).collect();
        assert_eq!(swept, run_serial(&cells));
        let c = sweep.counters();
        assert_eq!((c.cells(), c.reused), (cells.len(), 0), "{c}");
        // First cell, and the differently sized flat one.
        assert_eq!(c.full_builds, 2, "{c}");
    }

    /// A grid is `d3t_sim::run` per cell less the two loss vectors,
    /// visited series-major by one runner that builds once.
    #[test]
    fn grid_runs_every_cell_series_major_through_one_runner() {
        let (series, xs) = ([0.0, 50.0], [1usize, 2, 4]);
        let cell = |&t: &f64, &coop_res: &usize| SimConfig {
            coop_res,
            ..SimConfig::small_for_tests(8, 4, 200, t)
        };
        let mut visited = Vec::new();
        let g = grid(&series, &xs, |s, x| {
            visited.push((*s, *x));
            cell(s, x)
        });
        let series_major: Vec<(f64, usize)> =
            series.iter().flat_map(|&s| xs.iter().map(move |&x| (s, x))).collect();
        assert_eq!(visited, series_major);
        assert_eq!(g.reports.len(), series.len());
        for (s, row) in series.iter().zip(&g.reports) {
            assert_eq!(row.len(), xs.len());
            for (x, report) in xs.iter().zip(row) {
                let mut full = d3t_sim::run(&cell(s, x));
                assert!(!full.fidelity.pair_losses.is_empty());
                full.fidelity.pair_losses.clear();
                full.fidelity.per_repo_loss_pct.clear();
                assert_eq!(*report, full, "T={s} degree={x}");
            }
        }
        let c = g.counters;
        assert_eq!(c.cells(), series.len() * xs.len(), "{c}");
        assert_eq!(c.full_builds, 1, "{c}");
    }

    /// The cells fig3 / fig7a / fig9 / fig10 issue, in their loops' order.
    fn figure_cells(id: &str, scale: &Scale) -> Vec<SimConfig> {
        let base = scale.base_config();
        let mut cells = Vec::new();
        match id {
            "fig3" | "fig7a" => {
                for t_stringent_pct in scale.t_grid() {
                    for coop_res in scale.degree_grid() {
                        let controlled = id == "fig7a";
                        cells.push(SimConfig {
                            t_stringent_pct,
                            coop_res,
                            controlled,
                            ..base.clone()
                        });
                    }
                }
            }
            "fig9" => {
                for controlled in [false, true] {
                    for pref_band_pct in [1.0, 5.0, 10.0, 25.0] {
                        for coop_res in scale.degree_grid_sparse() {
                            cells.push(SimConfig {
                                coop_res,
                                pref_band_pct,
                                controlled,
                                ..base.clone()
                            });
                        }
                    }
                }
            }
            "fig10" => {
                for controlled in [false, true] {
                    for pref_fn in [PreferenceFunction::P1, PreferenceFunction::P2] {
                        for coop_res in scale.degree_grid_sparse() {
                            cells.push(SimConfig { coop_res, pref_fn, controlled, ..base.clone() });
                        }
                    }
                }
            }
            other => unreachable!("no cell list for `{other}`"),
        }
        cells
    }

    /// The traffic the runner's gain rests on: a controlled-cooperation
    /// figure sweeps `coop_res` past the degree Eq. (2) picks, so its
    /// columns repeat. A cell is reused exactly when every input but the
    /// three degree knobs, and the degree they resolve to, equal the
    /// previous cell's; fig3, which sets the degree directly, never
    /// repeats. The last assert ties each list above to the sequence the
    /// figure function really issues.
    #[test]
    fn runner_reuses_exactly_the_cells_that_repeat_the_previous_one() {
        let scale = Scale::tiny();
        for (id, figure) in [
            ("fig3", baseline::fig3(&scale)),
            ("fig7a", controlled::fig7a(&scale)),
            ("fig9", lela_params::fig9(&scale)),
            ("fig10", lela_params::fig10(&scale)),
        ] {
            let mut sweep = SerialSweep::new();
            let mut previous = None;
            for cfg in figure_cells(id, &scale) {
                let reused_before = sweep.counters().reused;
                let report = sweep.run(&cfg);
                assert_eq!(report, d3t_sim::run(&cfg), "{id}");
                let resolved = (
                    SimConfig { coop_res: 0, controlled: false, coop_f: 0.0, ..cfg },
                    report.coop_degree_used,
                );
                let repeats = previous.as_ref() == Some(&resolved);
                assert_eq!(sweep.counters().reused - reused_before, usize::from(repeats), "{id}");
                previous = Some(resolved);
            }
            let c = sweep.counters();
            assert_eq!(c.reused > 0, id != "fig3", "{id}: {c}");
            assert_eq!(c.full_builds, 1, "{id}: {c}");
            assert_eq!(figure.sweep, Some(c), "{id}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..100).collect::<Vec<usize>>(), |x| x * 3);
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }
}
