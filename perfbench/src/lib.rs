//! # d3t-perfbench — helpers behind the `d3t-bench` harness
//!
//! The binary (`src/bin/d3t-bench/`) runs the workloads; this library
//! holds everything that does not touch the simulator: the JSON
//! writer/reader, the quartile statistics, the benchmark's spec tables
//! (from which `BENCHMARK.json` is generated) and `compare`.
//! See `README.md` for what is measured and why.

pub mod compare;
pub mod json;
pub mod spec;
pub mod stats;
