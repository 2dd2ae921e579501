// The substrate returns errors instead of unwrapping: a worker or wire
// failure is its caller's to handle.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # pepc-fabric — the packet-processing substrate PEPC runs on
//!
//! The paper runs PEPC inside NetBricks over DPDK: run-to-completion
//! threads pinned to cores, polling NIC queues, exchanging packets over
//! lock-free rings, with memory isolation provided by Rust's type system
//! rather than VMs/containers. None of that requires a physical NIC — what
//! the evaluation measures is state organisation and locking behaviour.
//! This crate therefore reproduces the *execution model* in user space:
//!
//! * [`ring::SpscRing`] — a bounded single-producer/single-consumer ring
//!   with cache-padded indices, the building block for every inter-thread
//!   channel on the data path (DPDK `rte_ring` equivalent).
//! * [`wire::Wire`] — a single-threaded link: a bounded send queue, a
//!   pump that optionally injects faults (drop / corrupt / reorder /
//!   delay / duplicate / rate-limit) in the spirit of the smoltcp
//!   examples' `--drop-chance` / `--corrupt-chance` switches, and a
//!   bounded receive queue.
//! * [`exec`] — worker threads with best-effort core pinning and a
//!   run-to-completion poll loop.
//! * [`clock`] — wall or virtual timestamps, and the latency histogram
//!   every benchmark harness records into.
//! * [`maglev`] — a Maglev-style consistent-hash load balancer, standing in
//!   for the cluster load balancer that fronts a PEPC deployment (§3.4).

pub mod clock;
pub mod exec;
pub mod maglev;
pub mod ring;
pub mod wire;

pub use clock::{Clock, LatencyHistogram, VirtualClock};
pub use exec::{CoreId, Worker};
pub use maglev::{Maglev, MaglevError};
pub use ring::SpscRing;
pub use wire::{FaultSpec, Wire, WireStats};
