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
//!   with cache-padded indices, the building block for every port and
//!   inter-thread channel on the data path (DPDK `rte_ring` equivalent).
//! * [`port::Port`] — a virtual NIC queue pair (rx/tx) with counters,
//!   supporting batched I/O like DPDK's burst API.
//! * [`wire::Wire`] — connects a tx queue to an rx queue, optionally
//!   injecting faults (drop / corrupt / rate-limit), in the spirit of the
//!   smoltcp examples' `--drop-chance` / `--corrupt-chance` switches.
//! * [`exec`] — worker threads with best-effort core pinning and a
//!   run-to-completion poll loop.
//! * [`clock`] — cheap timestamps and rate/latency meters used by every
//!   benchmark harness.
//! * [`maglev`] — a Maglev-style consistent-hash load balancer, standing in
//!   for the cluster load balancer that fronts a PEPC deployment (§3.4).

pub mod clock;
pub mod exec;
pub mod maglev;
pub mod port;
pub mod ring;
pub mod wire;

pub use clock::{Clock, LatencyHistogram, RateMeter, VirtualClock};
pub use exec::{CoreId, Worker};
pub use maglev::{Maglev, MaglevError};
pub use port::{Port, PortPair, PortStats};
pub use ring::SpscRing;
pub use wire::{FaultSpec, Wire, WireStats};
