//! # d3t-net — the simulated physical network
//!
//! The paper evaluates its dissemination trees on a randomly generated
//! physical network of routers and repositories: 700–2100 nodes, routing
//! tables computed with the Floyd–Warshall all-pairs-shortest-path
//! algorithm, node-to-node communication delays drawn from a heavy-tailed
//! Pareto distribution (minimum 2 ms), averaging 20–30 ms end to end over
//! ~10 hops. This crate rebuilds that substrate:
//!
//! * [`topology`] — connected random graphs (spanning tree + extra edges)
//!   with a CSR adjacency view ([`topology::Csr`]) for traversal;
//! * [`pareto`] — the bounded Pareto link-delay sampler;
//! * [`placement`] — choosing which nodes are the source, repositories,
//!   and routers;
//! * [`apsp`] — the overlay-targeted shortest-path engine
//!   ([`apsp::OverlayApsp`]: one label-correcting sweep per 32 overlay
//!   nodes, each node's labels one lane per source, over the CSR
//!   stripped of pendant router trees, in parallel, keeping only the
//!   `m × m` delays among the overlay nodes — `O(m² + threads · 32 · V)`
//!   memory), with Floyd–Warshall kept as the property-test oracle. Each directed cell is summed on its own:
//!   filling by symmetry or contracting degree-2 router chains would
//!   change the last bits;
//! * [`network`] — [`NetworkConfig`], the paper's network parameters.
//!
//! The delays among the source and the repositories take the first four
//! in turn:
//!
//! ```
//! use d3t_net::placement::Placement;
//! use d3t_net::{NetworkConfig, OverlayApsp, Pareto, Topology};
//!
//! let cfg = NetworkConfig::small(20, 4);
//! let pareto = Pareto::with_mean(cfg.link_delay_min_ms, cfg.link_delay_mean_ms);
//! let topo = Topology::random(cfg.n_nodes, cfg.avg_degree, 7, |rng| {
//!     pareto.sample_capped(rng, cfg.link_delay_cap_ms)
//! });
//! let overlay = Placement::random(cfg.n_nodes, cfg.n_repositories, 8).overlay_nodes();
//! let apsp = OverlayApsp::compute(&topo, &overlay);
//! // Overlay index 0 is the source, `i + 1` the `i`-th repository.
//! assert_eq!(apsp.len(), 5);
//! assert!(apsp.delay_ms_at(0, 1) > 0.0);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::undocumented_unsafe_blocks,
    reason = "P001 and U001: library code documents every panic and every unsafe block"
)]

pub mod apsp;
pub mod network;
pub mod pareto;
pub mod placement;
pub mod topology;

pub use apsp::OverlayApsp;
pub use network::NetworkConfig;
pub use pareto::Pareto;
pub use topology::{Csr, NodeId, Topology};
