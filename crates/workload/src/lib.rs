// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! # pepc-workload — workload generation and the measurement harness
//!
//! The paper's testbed drove PEPC with OpenAirInterface-derived GTP-U
//! traces and an ng4T RAN emulator; this crate is the synthetic
//! equivalent (DESIGN.md §2): packet generators reproducing the Table 2
//! workload parameters, signaling event streams, device populations with
//! IoT shares / always-on fractions / churn, and the measurement loop all
//! figure harnesses share.
//!
//! * [`params`] — Table 2 defaults (UL:DL 1:3, 64 B downlink, 128 B
//!   uplink, attach events, 100 K events/s, 1 M users).
//! * [`traffic`] — GTP-U uplink / plain-IP downlink generator with
//!   buffer recycling and per-packet latency stamps.
//! * [`signaling`] — attach / S1-handover event streams at a target rate,
//!   uniform across the user population (§5.1).
//! * [`population`] — device mixes for Figures 14 and 15.
//! * [`storm`] — signaling-storm shapes (synchronized wake-up waves,
//!   exponential-backoff herds, storm-over-steady mixes) for the
//!   overload/admission experiments (DESIGN.md §15).
//! * [`harness`] — [`harness::SystemUnderTest`] adapters for a PEPC node,
//!   an HA cluster and the classic baseline, plus the one throughput /
//!   latency measurement loop.

pub mod harness;
pub mod params;
pub mod population;
pub mod signaling;
pub mod storm;
pub mod traffic;

pub use harness::{ClassicSut, HaSut, Measurement, NodeSut, SystemUnderTest};
pub use params::Defaults;
pub use population::Population;
pub use signaling::{SigEvent, SignalingGen};
pub use storm::{BackoffHerd, HerdOutcome, MixEvent, StormMix, WakeupWave};
pub use traffic::TrafficGen;
