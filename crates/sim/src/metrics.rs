//! Overhead counters — the quantities Figure 11 compares.

use serde::{Deserialize, Serialize};

/// Message and check counters accumulated over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Updates transmitted between overlay nodes (Figure 11b). Counted at
    /// send time, including sends whose arrival would fall past the end of
    /// the observation window.
    pub messages: u64,
    /// Filter evaluations performed by the source: per-dependent tests for
    /// the distributed/naive protocols, per-unique-tolerance scans plus
    /// per-dependent tag comparisons for the centralized one (Figure 11a's
    /// "number of server checks").
    pub source_checks: u64,
    /// Filter evaluations performed by repositories.
    pub repo_checks: u64,
    /// Source changes considered (one per distinct trace value).
    pub source_updates: u64,
    /// Messages whose arrival fell past the simulation horizon and were
    /// therefore never delivered (they still count as `messages`).
    pub undelivered: u64,
    /// Events processed by the engine's scheduler (source changes plus
    /// delivered arrivals) — the numerator of `d3t-bench`'s
    /// `drive_events_per_s`.
    pub events: u64,
    /// Arrivals dropped at a failed repository (fail-stop dynamics; always
    /// 0 for a run with no injected failures).
    pub dropped: u64,
    /// Mid-run dynamics applied via `Session::inject` (always 0 for a
    /// plain `run`).
    pub injected: u64,
    /// Send attempts destroyed by the fault plan's message-loss model
    /// (each failed attempt counts once; always 0 for a run with no
    /// loss window).
    pub lost: u64,
    /// Retransmissions scheduled after a lost attempt, before the capped
    /// backoff budget ran out (always 0 for a run with no loss window).
    pub retransmits: u64,
    /// Subscriptions re-parented onto a surviving ancestor by the
    /// `Reparent` repair policy (always 0 for a fault-free run or under
    /// `RepairPolicy::None`).
    pub reparented: u64,
}

impl Metrics {
    /// All filter evaluations, system-wide.
    pub fn total_checks(&self) -> u64 {
        self.source_checks + self.repo_checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let m = Metrics { source_checks: 3, repo_checks: 4, ..Default::default() };
        assert_eq!(m.total_checks(), 7);
    }
}
