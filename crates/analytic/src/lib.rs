//! # wormdsm-analytic — closed-form invalidation-transaction model
//!
//! The paper (section 2.3.3) estimates invalidation latency and traffic
//! before simulating. This crate reproduces that analysis as a
//! *contention-free replay* of a scheme's `InvalPlan`: every worm's
//! timeline is computed from first principles (router pipeline delays,
//! link serialization, controller occupancies, header strips, i-ack
//! checks) assuming an otherwise idle machine. Because it prices exactly
//! the worm structure the simulator executes, analytic and simulated
//! numbers are directly comparable — simulation should match closely at
//! low load and exceed the estimate under contention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;

pub use model::{estimate_invalidation, solo_flight_latencies, Estimate, NetParams};
