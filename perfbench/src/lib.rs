//! The avfs-sim benchmark: three workloads (`sweep`, `mc_droop`,
//! `resim`) on the p951k profile, end-to-end metrics from untraced runs
//! and per-layer metrics from traced runs. See `README.md` in this
//! directory for the metrics, the workloads and how to compare commits.

#![forbid(unsafe_code)]

pub mod digest;
pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
