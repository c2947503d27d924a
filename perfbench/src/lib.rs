//! End-to-end and per-layer benchmark of the sharded explanation tier.
//!
//! One closed-loop client drives a [`causality_service::ShardedService`]
//! with one of three workloads ([`workload::Workload`]), checks every
//! answer against a direct `Explainer` run, and reports either the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run). See `README.md` next to this crate for what each workload and
//! metric is for.

pub mod check;
pub mod measure;
pub mod run;
pub mod trace;
pub mod workload;
