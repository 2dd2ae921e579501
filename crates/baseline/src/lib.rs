//! # pepc-baseline — the classic EPC the paper compares against
//!
//! A faithful implementation of the *mechanisms* behind the baselines in
//! the paper's evaluation (§5.2): an EPC decomposed by traffic type into
//! MME, S-GW and P-GW, where
//!
//! * per-user state is **duplicated** — each component installs and owns
//!   its own copy, created/updated via GTP-C messages on S11 and S5
//!   (serialized and parsed as bytes, as between real processes);
//! * each component stores users in a **single flat table** (the design
//!   the paper contrasts with PEPC's two-level tables);
//! * signaling is processed **in-line with data** on the gateway path, so
//!   every attach/handover transaction stalls packet processing for the
//!   duration of the cross-component synchronization;
//! * the data path traverses **two tunnel hops** (S1-U decap at the S-GW,
//!   S5 re-encap toward the P-GW, S5 decap at the P-GW) with a state
//!   lookup at each gateway — the structural overhead PEPC's
//!   consolidation removes.
//!
//! Presets ([`config::BaselinePreset`]) reproduce the four comparison
//! systems: `Industrial1` (DPDK, ADC), `Industrial2` (DPDK, no ADC/PCEF),
//! `Oai` and `OpenEpc` (kernel networking path). Since the industrial
//! systems are closed binaries and this host cannot run multi-process
//! IPC meaningfully, the *duration* of each GTP-C synchronization window
//! and the per-packet kernel-path cost are parameters calibrated from the
//! behaviour the paper reports (documented in DESIGN.md §2 and
//! EXPERIMENTS.md); the *mechanisms* — duplicated writes, transactional
//! blocking, flat tables, double tunnel processing — are all real code.
//!
//! [`table`] holds the shared-state stores of the paper's lock comparison
//! (§7.1, Figure 12): the giant-lock, datapath-writer and fine-RwLock
//! designs beside PEPC's own seqlock store, behind one `StateStore` trait.

pub mod classic;
pub mod components;
pub mod config;
pub mod table;

pub use classic::{ClassicEpc, ClassicVerdict};
pub use components::{Mme, Pgw, Sgw, UserSession};
pub use config::{BaselinePreset, ClassicConfig};
