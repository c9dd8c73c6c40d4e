//! # d3t-core — the paper's contribution
//!
//! Everything Sections 2–5 of *Maintaining Coherency of Dynamic Data in
//! Cooperating Repositories* (VLDB 2002) describe:
//!
//! * [`coherency`] — value-domain coherency tolerances `c` and the
//!   stringency partial order (Eq. 1);
//! * [`item`] / [`overlay`] — identifiers for data items and overlay nodes;
//! * [`workload`] — the paper's repository workload generator (50% item
//!   interest, `T`% stringent tolerances);
//! * [`coop`] — the Eq. (2) heuristic choosing the degree of cooperation
//!   from measured communication/computation delays;
//! * [`graph`] — the dynamic data dissemination graph (`d3g`) and the
//!   per-item dissemination trees (`d3t`) it induces;
//! * [`lela`] — the Level-by-Level Algorithm that inserts repositories
//!   into the `d3g`, with preference factors, the P% candidate band, and
//!   the cascading data-need augmentation;
//! * [`digest`] — the seeded FNV-1a content hash shared by every
//!   divergence gate (report hashes, snapshot state digests);
//! * [`dissemination`] — the three update-propagation policies: naive
//!   (Eq. 3 only — exhibits the missed-updates problem of Figure 4),
//!   distributed (Eq. 3 ∨ Eq. 7), and centralized (source-tagged);
//! * [`fidelity`] — the fidelity metric of §6.2, computed by exact
//!   interval accounting over source/repository value timelines;
//! * [`pull`] — the §8 future-work direction: pull-based coherency with
//!   fixed and adaptive Time-To-Refresh, plus the adaptive push-pull
//!   combination of the companion paper (Bhide et al. 2002).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::undocumented_unsafe_blocks,
    reason = "P001 and U001: library code documents every panic and every unsafe block"
)]

pub mod coherency;
pub mod coop;
pub mod digest;
pub mod dissemination;
pub mod fidelity;
pub mod graph;
pub mod item;
pub mod lela;
pub mod overlay;
mod prefetch;
pub mod pull;
pub mod workload;

pub use coherency::Coherency;
pub use coop::{controlled_degree, CoopParams};
pub use digest::Fnv1a;
pub use graph::{D3g, D3tStats};
pub use item::ItemId;
pub use lela::{LelaConfig, PreferenceFunction};
pub use overlay::{NodeIdx, SOURCE};
pub use workload::{Workload, WorkloadConfig};
