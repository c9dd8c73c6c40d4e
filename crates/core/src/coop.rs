//! The degree-of-cooperation heuristic — Eq. (2) of the paper.
//!
//! §3: "the degree of cooperation should be directly proportional to the
//! communication delays and inversely proportional to the computational
//! delays", capped by the available cooperative resources `coopRes`. The
//! constant `f` models that "on average, only 1/f of the dependents of a
//! node would be interested in an update"; the paper's footnote reports
//! that `f ≥ 50` yields high fidelity and that at their default delays
//! (≈25 ms communication, 12.5 ms computation) the chosen degree is ~4,
//! with the U-curve's optimum lying between 3 and 20 dependents.
//!
//! The published formula is OCR-mangled. This module is where the
//! decoding lives (its tests pin each anchor below):
//!
//! ```text
//! coopDegree = min(coopRes, max(1, round((f / 25) · avgComm / avgComp)))
//! ```
//!
//! which reproduces every quantitative anchor above: degree 4 at the
//! default delays with `f = 50`, growing with communication delay,
//! shrinking with computational delay, and scaling linearly in `f` inside
//! the flat region of the controlled-cooperation L-curve (Figure 7a).

use serde::{Deserialize, Serialize};

/// Inputs to the Eq. (2) heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoopParams {
    /// Average repository-to-repository communication delay (ms).
    pub avg_comm_delay_ms: f64,
    /// Average per-dependent computational delay (ms).
    pub avg_comp_delay_ms: f64,
    /// Upper bound on cooperative resources a repository offers
    /// (`coopRes`); the paper sweeps this from 1 to 100.
    pub coop_res: usize,
    /// The interest-fraction constant `f` (paper footnote 1; default 50).
    pub f: f64,
}

impl CoopParams {
    /// Parameters with the paper's default `f = 50`.
    pub fn new(avg_comm_delay_ms: f64, avg_comp_delay_ms: f64, coop_res: usize) -> Self {
        Self { avg_comm_delay_ms, avg_comp_delay_ms, coop_res, f: 50.0 }
    }
}

/// Computes the controlled degree of cooperation per Eq. (2).
///
/// The result is always at least 1 (a chain is the minimum viable overlay)
/// and never exceeds `coop_res`.
///
/// # Panics
/// Panics on non-positive delays, a zero resource bound, or `f <= 0`.
pub fn controlled_degree(p: CoopParams) -> usize {
    assert!(
        p.avg_comm_delay_ms > 0.0 && p.avg_comm_delay_ms.is_finite(),
        "communication delay must be positive"
    );
    assert!(
        p.avg_comp_delay_ms > 0.0 && p.avg_comp_delay_ms.is_finite(),
        "computational delay must be positive"
    );
    assert!(p.coop_res >= 1, "coopRes must be at least 1");
    assert!(p.f > 0.0 && p.f.is_finite(), "f must be positive");
    let raw = (p.f / 25.0) * p.avg_comm_delay_ms / p.avg_comp_delay_ms;
    (raw.round() as usize).clamp(1, p.coop_res)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_delays_give_degree_four() {
        // comm ~25ms, comp 12.5ms, f=50 → (50/25)*2 = 4.
        let d = controlled_degree(CoopParams::new(25.0, 12.5, 100));
        assert_eq!(d, 4);
    }

    #[test]
    fn degree_grows_with_communication_delay() {
        let lo = controlled_degree(CoopParams::new(10.0, 12.5, 100));
        let hi = controlled_degree(CoopParams::new(125.0, 12.5, 100));
        assert!(hi > lo, "{hi} !> {lo}");
    }

    #[test]
    fn degree_shrinks_with_computational_delay() {
        let lo = controlled_degree(CoopParams::new(25.0, 25.0, 100));
        let hi = controlled_degree(CoopParams::new(25.0, 1.0, 100));
        assert!(hi > lo, "{hi} !> {lo}");
    }

    #[test]
    fn degree_clamped_to_coop_res() {
        let d = controlled_degree(CoopParams::new(1000.0, 1.0, 8));
        assert_eq!(d, 8);
    }

    #[test]
    fn degree_never_below_one() {
        let d = controlled_degree(CoopParams::new(0.1, 100.0, 100));
        assert_eq!(d, 1);
    }

    #[test]
    fn f_scales_degree_within_flat_region() {
        let base = CoopParams::new(25.0, 12.5, 100);
        let d50 = controlled_degree(base);
        let d100 = controlled_degree(CoopParams { f: 100.0, ..base });
        assert_eq!(d100, 2 * d50);
    }

    #[test]
    #[should_panic(expected = "communication delay")]
    fn rejects_zero_comm_delay() {
        let _ = controlled_degree(CoopParams::new(0.0, 12.5, 10));
    }
}
