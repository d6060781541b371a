//! Host-time benchmark of the Trident reproduction.
//!
//! Four workloads measure the simulator end to end (serial cells per
//! second, per-cell and per-job latency, set-up time, peak memory) and,
//! in a separate traced run, layer by layer. Every instrument attaches
//! from outside through public APIs; see `README.md` in this directory.

pub mod grid;
pub mod instrument;
pub mod report;
pub mod run;
pub mod service;
