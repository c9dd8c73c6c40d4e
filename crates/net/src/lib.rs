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
//! * [`apsp`] — the overlay-targeted shortest-path engine
//!   ([`apsp::OverlayApsp`]: one bucket-queue search per overlay node
//!   over the CSR stripped of pendant router trees, in parallel, keeping
//!   only the `m × m` cells the overlay queries — `O(m · (V + E))` time,
//!   `O(m² + threads · V)` memory), with Floyd–Warshall kept as the
//!   property-test oracle. Each directed cell is summed on its own:
//!   filling by symmetry or contracting degree-2 router chains would
//!   change the last bits;
//! * [`partition`] — deterministic weighted partitioning over CSR
//!   (seeded BFS region growth + label-propagation refinement),
//!   the cut-minimizer behind the simulator's sharded engine;
//! * [`placement`] — choosing which nodes are the source, repositories,
//!   and routers;
//! * [`network`] — the assembled [`network::PhysicalNetwork`] facade the
//!   simulator queries for `delay(a, b)`.
//!
//! ```
//! use d3t_net::{NetworkConfig, PhysicalNetwork};
//!
//! let net = PhysicalNetwork::generate(&NetworkConfig::small(20, 4), 7);
//! let repos = net.repositories();
//! let d = net.delay_ms(net.source(), repos[0]);
//! assert!(d > 0.0);
//! ```

pub mod apsp;
pub mod network;
pub mod pareto;
pub mod partition;
pub mod placement;
pub mod topology;

pub use apsp::OverlayApsp;
pub use network::{NetworkConfig, PhysicalNetwork};
pub use pareto::Pareto;
pub use topology::{Csr, NodeId, Topology};
