//! # wormdsm-core — multidestination cache-invalidation schemes + DSM engine
//!
//! The paper's primary contribution: nine invalidation grouping schemes
//! (the UI-UA baseline plus eight multidestination schemes over e-cube
//! and turn-model routing, including the dynamic-partition-merging and
//! contention-adaptive planners), an invalidation-plan representation,
//! and the
//! [`DsmSystem`] engine that executes a full directory-based DSM under
//! sequential consistency on the `wormdsm-mesh` network.
//!
//! ## Quick start
//!
//! ```
//! use wormdsm_core::{DsmSystem, MemOp, SchemeKind, SystemConfig};
//! use wormdsm_coherence::Addr;
//! use wormdsm_mesh::NodeId;
//!
//! let scheme = SchemeKind::MiMaCol;
//! let cfg = SystemConfig::for_scheme(4, scheme);
//! let mut sys = DsmSystem::new(cfg, scheme.build());
//! // One processor writes a block the others read.
//! sys.issue(NodeId(5), MemOp::Write(Addr(0x40)));
//! sys.run_until_idle(100_000).unwrap();
//! assert_eq!(sys.metrics().write_misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod metrics;
pub mod plan;
pub mod schemes;
pub mod system;

pub use config::{ConsistencyModel, SystemConfig};
pub use metrics::{
    to_prometheus, Metrics, RunMeta, NONDETERMINISTIC_METRIC_PREFIXES, RUN_SCHEMA_VERSION,
};
pub use plan::{AckAction, InvalPlan, PlannedWorm};
pub use schemes::{InvalidationScheme, SchemeKind};
pub use system::{DsmSystem, MemOp, SimError};
pub use wormdsm_mesh::{ContentionProbe, ContentionWindow};
pub use wormdsm_sim::profile::{Phase, TxnProfiler, TxnRecord};
pub use wormdsm_sim::trace::{FlightRecorder, InvariantViolation, TraceLevel};
