//! # d3t-traces — dynamic data streams
//!
//! The VLDB 2002 paper evaluates its coherency-maintenance techniques on 100
//! real stock-price traces polled from `finance.yahoo.com` in Jan/Feb 2002
//! (Table 1 of the paper). Those traces are long gone, so this crate builds
//! the closest synthetic equivalent: seeded, sparse-change price processes
//! calibrated so that a 10 000-tick trace covers the same price ranges over
//! the same wall-clock span as the traces in Table 1.
//!
//! What the downstream experiments care about is the *distribution of
//! coherency-violating deltas over time* — i.e. how often the value drifts
//! further than a tolerance `c` from the last disseminated value. The
//! generators here expose the knobs that control exactly that: change
//! probability per poll, step-size distribution, and mean reversion.
//!
//! ## Quick start
//!
//! ```
//! use d3t_traces::{TraceGenerator, PriceModel};
//!
//! let model = PriceModel::sparse_random_walk(0.1, 0.02);
//! let trace = TraceGenerator::new(model, 60.0, 1_000)
//!     .with_name("MSFT")
//!     .generate(10_000, 42);
//! assert_eq!(trace.len(), 10_000);
//! let stats = trace.stats();
//! assert!(stats.min > 0.0 && stats.max >= stats.min);
//! ```

pub mod generator;
pub mod model;
pub mod profiles;
pub mod stats;
pub mod trace;

pub use generator::{generate_ensemble, generate_ensemble_serial, EnsembleConfig, TraceGenerator};
pub use model::PriceModel;
pub use profiles::{table1_profiles, TraceProfile};
pub use stats::TraceStats;
pub use trace::{Tick, Trace};
