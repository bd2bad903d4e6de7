//! # wormdsm — facade crate
//!
//! Re-exports the whole workspace under one roof. See the README for a tour
//! and `examples/` for runnable entry points.

#![forbid(unsafe_code)]

pub use wormdsm_analytic as analytic;
pub use wormdsm_coherence as coherence;
pub use wormdsm_core as core;
pub use wormdsm_mesh as mesh;
pub use wormdsm_sim as sim;
pub use wormdsm_workloads as workloads;
