//! # d3t-experiments — every table and figure of the paper's evaluation
//!
//! One function per experiment, each returning a [`Figure`] whose series
//! hold the raw numbers and whose `render()` prints a paper-style text
//! table. The `repro` binary runs any subset:
//!
//! ```text
//! cargo run --release -p d3t-experiments --bin repro -- all
//! cargo run --release -p d3t-experiments --bin repro -- fig3 fig11 --ticks 2500
//! ```
//!
//! | Experiment | Function | Paper reference |
//! |---|---|---|
//! | Table 1 | [`table1::table1`] | trace characteristics |
//! | Figure 3 | [`baseline::fig3`] | U-curve: loss vs degree of cooperation |
//! | Figure 4 | [`protocols::fig4`] | missed-updates narrative |
//! | Figure 5 | [`nocoop::fig5`] | no cooperation, comm-delay sweep |
//! | Figure 6 | [`nocoop::fig6`] | no cooperation, comp-delay sweep |
//! | Figure 7a | [`controlled::fig7a`] | controlled cooperation L-curve |
//! | Figure 7b | [`controlled::fig7b`] | controlled, comm-delay sweep |
//! | Figure 7c | [`controlled::fig7c`] | controlled, comp-delay sweep |
//! | Figure 8 | [`filtering::fig8`] | filtering vs flooding |
//! | Figure 9 | [`lela_params::fig9`] | preference band P% |
//! | Figure 10 | [`lela_params::fig10`] | preference function P1 vs P2 |
//! | Figure 11 | [`protocols::fig11`] | centralized vs distributed overheads |
//! | §6.3.5 | [`scalability::scale_study`] | 100 → 300 repositories |
//! | footnote 1 | [`ablations::f_sensitivity`] | Eq. (2) constant `f` |
//! | §5 claim | [`ablations::join_order_study`] | stringent-first placement |
//! | §8 extension | [`pullpush::pull_vs_push`] | push vs (adaptive) pull vs push-pull |
//! | extension | [`dynamics::dynamics`] | fidelity through a mid-run failure burst |
//! | extension | [`resilience::resilience`] | self-healing re-parenting vs passive fail-stop |
//!
//! Whole experiments fan out over [`sweep::par_map`] (and so do the
//! three large cells of `scale`); results are byte-identical to serial
//! execution regardless of thread count (`repro --serial` forces the
//! serial path, `RAYON_NUM_THREADS` bounds the pool). The 13 figures
//! from Figure 3 to `ablate-protocols` (all but 4 and `scale`) are each
//! one [`sweep::grid`] — a list of series × a list of x values, one
//! `SimConfig` per cell — plus the notes read from its reports. A grid
//! runs its cells serially through one [`sweep::SerialSweep`], which
//! re-targets a single `Prepared` from cell to cell and reuses the report
//! when a cell repeats the previous one — the same numbers as
//! `d3t_sim::run` per cell, bit for bit.
//!
//! Three cell commands of `repro` print results, not figures:
//! `filter` (checks per protocol), [`resilience`] and [`whatif`]
//! (warm-from-snapshot ≡ cold per branch). What any of it costs is
//! measured by `d3t-bench` (`perfbench/`), not here.

pub mod ablations;
pub mod baseline;
pub mod controlled;
pub mod dynamics;
pub mod figure;
pub mod filtering;
pub mod lela_params;
pub mod nocoop;
pub mod protocols;
pub mod pullpush;
pub mod resilience;
pub mod scalability;
pub mod scale;
pub mod sweep;
pub mod table1;
pub mod whatif;

pub use figure::{Figure, Series};
pub use scale::Scale;
