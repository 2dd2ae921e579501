// Replication, detection and failover must not panic a node: library
// code returns errors or counts corrupt frames instead of unwrapping.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! # pepc-ha — live replication, failure detection, and automated failover
//!
//! The paper's §8 observes that consolidating a user's state in one slice
//! collapses EPC fault tolerance to a single failure mode: "In PEPC, there
//! is primarily a single failure mode (a PEPC node fails)", to be handled
//! by borrowing from middlebox fault-tolerance work. [`pepc::recovery`]
//! made that concrete for cold checkpoints; this crate makes it *live*:
//!
//! * [`replog`] — the replication log: sequence-numbered per-user records
//!   (full control snapshots on every signaling event, periodic counter
//!   deltas) framed for shipping over a fabric [`Wire`](pepc_fabric::Wire);
//! * [`standby`] — the standby store: the receive side, tolerant of the
//!   wire's drops, reordering, and corruption;
//! * [`detector`] — a missed-heartbeat failure detector with
//!   `Alive → Suspect → Dead` transitions;
//! * [`coordinator`] — [`HaCluster`]: a [`pepc::Cluster`] wrapped so that
//!   when a node dies, the detector notices, the Maglev table repairs
//!   (re-steering only the dead node's keys), and every replicated user is
//!   promoted onto a survivor — automatically, with zero control-state
//!   loss and counter loss bounded by the replication interval.

pub mod coordinator;
pub mod detector;
pub mod replog;
pub mod standby;

pub use coordinator::{FailoverReport, HaCluster, HaConfig};
pub use detector::{DetectorConfig, FailureDetector, NodeHealth};
pub use replog::{decode, encode, ReplKind, ReplRecord, ReplogError, REPLOG_VERSION};
pub use standby::StandbyStore;
