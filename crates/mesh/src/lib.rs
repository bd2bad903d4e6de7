//! # wormdsm-mesh — flit-level wormhole-routed 2D mesh
//!
//! A cycle-accurate model of the interconnect the paper's DSM runs on:
//!
//! * `k x k` mesh, full-duplex links moving one flit per cycle (200 MB/s at
//!   one byte per 5 ns cycle), 20 ns (4-cycle) router pipeline;
//! * virtual-channel flow control with credit-based backpressure, request
//!   and reply traffic on disjoint VC classes (logically separate
//!   networks);
//! * deterministic e-cube (XY requests / YX replies) and turn-model
//!   adaptive (west-first requests / YX replies) base routing;
//! * **multidestination worms** under the BRCP model: path-based multicast
//!   with forward-and-absorb, i-reserve worms that reserve i-ack buffer
//!   entries, and i-gather worms that collect acknowledgements from router
//!   interfaces — including virtual cut-through **deferred delivery**
//!   (parking) when an ack has not been posted;
//! * multiple consumption channels per router interface (deadlock bound and
//!   hot-spot relief).
//!
//! Entry point: [`network::Network`] with a [`network::MeshConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
pub mod nic;
pub mod render;
pub mod router;
pub mod routing;
pub mod topology;
pub mod worm;

pub use network::{
    ContentionProbe, ContentionWindow, Hierarchy, LinkLoadMeter, MeshConfig, NetStats, Network,
};
pub use nic::{Delivery, DeliveryKind, IackMode};
pub use routing::{BaseRouting, PathRule};
pub use topology::{ChipGrid, Coord, Direction, Mesh2D, NodeId, Port};
pub use worm::{TxnId, VNet, WormId, WormKind, WormSpec, WormState};
