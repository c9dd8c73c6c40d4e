//! Mid-run dynamics — perturbations injected into a live
//! [`Session`](crate::session::Session).
//!
//! The paper's cooperating-repository networks are most interesting when
//! things change *during* a run: repositories crash and come back,
//! coherency tolerances get renegotiated, content gets replaced. Each
//! [`Dynamic`] takes effect at the session's current time
//! (`Session::now_us`), with violation accounting re-evaluated at exactly
//! that instant — see `Session::inject`.

use d3t_core::coherency::Coherency;
use d3t_core::item::ItemId;

/// One perturbation applied to a running session at its current time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dynamic {
    /// Fail-stop crash of a repository: from now on it records nothing,
    /// forwards nothing, and arrivals addressed to it are dropped
    /// (counted in `Metrics::dropped`). Its measured pairs keep being
    /// accounted — a crashed repository's users experience the staleness,
    /// which is the point. Idempotent. Takes the same path as a fault
    /// plan's crash: an installed `Reparent` policy re-homes its orphans.
    FailRepo {
        /// 0-based repository number.
        repo: usize,
    },
    /// The repository rejoins with the (stale) state it crashed with.
    /// Because senders' per-dependent records only advance on actual
    /// deliveries, the next violating source change reaches it without
    /// any explicit resynchronization. Children re-homed while it was
    /// down return to it. Idempotent.
    RecoverRepo {
        /// 0-based repository number.
        repo: usize,
    },
    /// Renegotiates the user tolerance of one measured `(repo, item)`
    /// pair: the fidelity tracker re-evaluates the pair's violation state
    /// at the injection instant, and the disseminator patches its
    /// compiled forwarding table in place (tightening propagates up the
    /// dissemination chain; see `Disseminator::renegotiate`).
    SetTolerance {
        /// 0-based repository number.
        repo: usize,
        /// The renegotiated item.
        item: ItemId,
        /// The new user tolerance.
        c: Coherency,
    },
    /// Hot-swaps the item's content at the source: an out-of-trace source
    /// update processed exactly like a trace tick at the injection
    /// instant — fidelity re-evaluation, filtering, and dissemination all
    /// included. The item's remaining trace continues afterwards.
    HotSwapItem {
        /// The swapped item.
        item: ItemId,
        /// Its replacement value.
        value: f64,
    },
}

/// Why a [`Dynamic`] could not be applied. The session state is unchanged
/// when `inject` returns one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicError {
    /// The repository number is out of range.
    UnknownRepo {
        /// The offending 0-based repository number.
        repo: usize,
    },
    /// The item does not exist.
    UnknownItem {
        /// The offending item.
        item: ItemId,
    },
    /// `SetTolerance` targeted a pair the repository does not measure
    /// (not interested, or holds the item only as a relay).
    UnmeasuredPair {
        /// The repository.
        repo: usize,
        /// The unmeasured item.
        item: ItemId,
    },
    /// `HotSwapItem` carried a non-finite value.
    NonFiniteValue,
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::UnknownRepo { repo } => write!(f, "no repository #{repo}"),
            DynamicError::UnknownItem { item } => write!(f, "no item {item:?}"),
            DynamicError::UnmeasuredPair { repo, item } => {
                write!(f, "repository #{repo} does not measure {item:?}")
            }
            DynamicError::NonFiniteValue => write!(f, "hot-swap value must be finite"),
        }
    }
}

impl std::error::Error for DynamicError {}
