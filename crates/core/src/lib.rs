// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]
// No input or backend answer may panic a slice: library code returns
// errors or counts drops instead of unwrapping.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # pepc — a high-performance packet core sliced by user
//!
//! This crate is the primary contribution of the reproduction: the PEPC
//! system of *"A High Performance Packet Core for Next Generation Cellular
//! Networks"* (SIGCOMM 2017). Instead of the classic EPC decomposition by
//! traffic type (MME for signaling, S-GW/P-GW for data) — which duplicates
//! per-user state across components and synchronizes it on every signaling
//! event — PEPC consolidates each user's state in one place, a **slice**,
//! and refactors EPC functions around it:
//!
//! * a **control thread** per slice processes signaling (attach over
//!   S1AP/NAS, handovers, PCRF rule updates) and is the *only writer* of a
//!   user's control state ([`state::ControlState`]);
//! * a **data thread** per slice runs the packet pipeline (GTP-U
//!   decap/encap, PCEF, QoS, charging) and is the *only writer* of a
//!   user's counter state ([`state::CounterState`]);
//! * both sides read everything, so no cross-component messages are
//!   needed to keep duplicated copies in sync — there are no copies.
//!
//! Module map (↔ paper sections):
//!
//! | Module       | Paper | What it provides |
//! |--------------|-------|------------------|
//! | [`state`]    | §2.3, Table 1 | the per-user state taxonomy, split by writer |
//! | [`seqlock`]  | §4.2  | single-writer seqlock cells behind [`state::UeContext`] |
//! | [`twolevel`] | §3.2, §7.3, Fig 14 | primary/secondary state tables |
//! | [`pcef`]     | §4.2  | the BPF match-action Policy & Charging Enforcement Function |
//! | [`qos`]      | §3.1  | token-bucket MBR/AMBR enforcement |
//! | [`data`]     | §4.2  | the slice data-plane pipeline (incl. the stateless-IoT fast path, Fig 15) |
//! | [`ctrl`]     | §4.2  | the slice control plane: S1AP/NAS attach FSM, synthetic events, batched updates (Fig 13) |
//! | [`slice`](mod@slice) | §3.2, Listing 1 | the slice: control + data threads over shared state |
//! | [`demux`]    | §3.3  | TEID / UE-IP / IMSI → slice steering |
//! | [`node`]     | §3.3  | the PEPC node: slices + scheduler + proxy |
//! | [`proxy`]    | §3.3  | the HSS (S6a) / PCRF (Gx) proxy |

pub mod cluster;
pub mod config;
pub mod ctrl;
pub mod data;
pub mod demux;
pub mod inctable;
pub mod metrics;
pub mod node;
pub mod overload;
pub mod pcef;
pub mod procedure;
pub mod proxy;
pub mod qos;
pub mod recovery;
pub mod seqlock;
pub mod slab;
pub mod slice;
pub mod state;
pub mod twolevel;

pub use cluster::Cluster;
pub use config::{EpcConfig, SliceConfig};
pub use ctrl::{ControlPlane, CtrlEvent};
pub use data::{DataPlane, PacketVerdict};
pub use demux::Demux;
pub use inctable::IncrementalTable;
pub use metrics::{CtrlMetrics, DataMetrics};
pub use node::PepcNode;
pub use pcef::Pcef;
pub use pepc_telemetry::{LatencyHistogram, MetricsSnapshot, RingGauge, SliceSnapshot, WireStat};
pub use proxy::Proxy;
pub use seqlock::SeqCell;
pub use slab::{UeHandle, UeRef, UeSlab};
pub use slice::{Slice, SliceHandle};
pub use state::{ControlState, CounterState, CtrlView, DeviceClass, UeContext, Uid};
pub use twolevel::TwoLevelTable;

/// Hint the CPU to pull the cache line holding `p` for an upcoming read.
/// A no-op off x86_64. The one prefetch site of the crate: the staged
/// burst lookup ([`data`]) reaches it through the table, slab and context
/// `prefetch` methods.
#[inline]
pub(crate) fn prefetch_line<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint: it never dereferences `p` and cannot
    // fault, whatever the address.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
