//! TierBase's distributed layer (§3): hash-slot sharding, a coordinator
//! group with leader election, node failover with replica promotion,
//! smart clients with cached routing, and a proxy for thin clients.
//!
//! Everything runs in-process — nodes are [`KvEngine`] instances and
//! "RPCs" are method calls — but the control-plane protocol is real:
//! routing epochs, stale-routing errors, replica promotion, and slot
//! migration behave as they would across machines.

#![deny(unsafe_code)]

pub mod client;
pub mod coordinator;
pub mod node;
pub mod replication;
pub mod routing;

pub use client::{ClusterClient, Proxy};
pub use coordinator::{Coordinator, CoordinatorGroup};
pub use node::{NodeId, NodeStore, ServingMode};
pub use replication::{ReplChannel, REPL_FAULT_SITES};
pub use routing::RoutingTable;
