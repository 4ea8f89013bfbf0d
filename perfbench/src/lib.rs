//! Host-time benchmark of the PACStack reproduction.
//!
//! Four closed-loop workloads call the public `pacstack_bench::experiments`
//! entry points one after another in a single process. The end-to-end run
//! (`--trace 0`) reports host wall time per pass, set-up time in fresh
//! processes and peak memory; the traced run (`--trace 1`) reports per-layer
//! times and exact counts. Both check every output. See `README.md` in this
//! directory.

#![forbid(unsafe_code)]

pub mod golden;
pub mod layers;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
