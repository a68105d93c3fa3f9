//! The repo benchmark: four n = 1024 Table-1 workloads measured end to end,
//! and a second, traced run that decomposes each trial from outside.
//!
//! See `benchmark/README.md` for the metric and workload tables.

pub mod compare;
pub mod decor;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod proc;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
