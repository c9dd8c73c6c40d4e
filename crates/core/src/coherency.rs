//! Value-domain coherency tolerances.
//!
//! A coherency requirement `c` bounds how far a cached copy may drift from
//! the source: the system must keep `|S(t) − P(t)| ≤ c` (§1.1 of the
//! paper). Smaller `c` is *more stringent*. Eq. (1) of the paper requires
//! that along every dissemination edge the parent's requirement be at least
//! as stringent as the child's: `c_parent ≤ c_child`.

use serde::{Deserialize, Serialize};

/// Comparison slack for tolerance tests. Item values are decimal prices
/// (whole cents), so a drift genuinely exceeding a tolerance does so by at
/// least a cent; the slack only absorbs binary floating-point noise such as
/// `1.7 - 1.4 = 0.30000000000000004`, keeping the comparisons faithful to
/// the paper's exact decimal semantics.
pub const VALUE_EPSILON: f64 = 1e-9;

/// A value-domain coherency tolerance in the item's value units (dollars
/// for the stock workloads). Always finite and non-negative; the source
/// itself has `Coherency::EXACT` (zero drift).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Coherency(f64);

impl Coherency {
    /// Perfect coherency — the requirement the source trivially satisfies
    /// for itself.
    pub const EXACT: Coherency = Coherency(0.0);

    /// Creates a tolerance.
    ///
    /// # Panics
    /// Panics if `c` is negative, NaN or infinite.
    pub fn new(c: f64) -> Self {
        assert!(c.is_finite() && c >= 0.0, "coherency must be finite and >= 0, got {c}");
        Self(c)
    }

    /// The tolerance as a raw value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// True when `self` is at least as stringent as `other`
    /// (`c_self ≤ c_other`) — Eq. (1)'s edge condition.
    #[inline]
    pub fn at_least_as_stringent_as(self, other: Coherency) -> bool {
        self.0 <= other.0
    }

    /// The more stringent (smaller) of two tolerances — used when a
    /// parent's requirement is tightened to serve a child.
    #[inline]
    pub fn tighten(self, other: Coherency) -> Coherency {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// True when a copy last synchronized at `last_sent` violates this
    /// tolerance for the new source value `value` — Eq. (3)'s test
    /// `|value − last_sent| > c`.
    #[inline]
    pub fn violated_by(self, value: f64, last_sent: f64) -> bool {
        (value - last_sent).abs() > self.0 + VALUE_EPSILON
    }
}

impl std::fmt::Display for Coherency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "±{}", self.0)
    }
}

/// Total order for sorting (tolerances are always finite, so this is safe).
impl Eq for Coherency {}
#[allow(
    clippy::derive_ord_xor_partial_ord,
    reason = "sorting needs a total order over the finite values Coherency::new admits"
)]
impl Ord for Coherency {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `Coherency::new` rejects non-finite values, so IEEE total order
        // coincides with the numeric order callers expect.
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stringency_order() {
        let tight = Coherency::new(0.01);
        let loose = Coherency::new(0.5);
        assert!(tight.at_least_as_stringent_as(loose));
        assert!(!loose.at_least_as_stringent_as(tight));
        assert!(tight.at_least_as_stringent_as(tight));
    }

    #[test]
    fn tighten_picks_smaller() {
        let a = Coherency::new(0.3);
        let b = Coherency::new(0.1);
        assert_eq!(a.tighten(b), b);
        assert_eq!(b.tighten(a), b);
    }

    #[test]
    fn violation_is_strict() {
        let c = Coherency::new(0.5);
        assert!(!c.violated_by(1.5, 1.0));
        assert!(c.violated_by(1.51, 1.0));
        assert!(c.violated_by(0.49, 1.0));
    }

    #[test]
    fn exact_violated_by_any_change() {
        assert!(Coherency::EXACT.violated_by(1.0001, 1.0));
        assert!(!Coherency::EXACT.violated_by(1.0, 1.0));
    }

    #[test]
    fn sorting_works() {
        let mut v = [Coherency::new(0.5), Coherency::new(0.01), Coherency::new(0.2)];
        v.sort();
        assert_eq!(v[0], Coherency::new(0.01));
        assert_eq!(v[2], Coherency::new(0.5));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative() {
        let _ = Coherency::new(-0.1);
    }
}
