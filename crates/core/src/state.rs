//! The per-user state taxonomy (paper §2.3, Table 1).
//!
//! The paper's key observation is that EPC state falls into groups with
//! different writers and update frequencies, and that the classic
//! decomposition forces *every* component to hold writable copies of most
//! groups. PEPC's refactoring gives each group exactly one writer:
//!
//! | State group                   | PEPC writer     | PEPC readers | Update freq |
//! |-------------------------------|-----------------|--------------|-------------|
//! | User identifiers (IMSI/GUTI/IP)| control thread | data thread  | per-event   |
//! | User location (ECGI/TAC)      | control thread  | data thread  | per-event   |
//! | QoS / policy state            | control thread  | data thread  | per-event   |
//! | Data tunnel state (TEIDs)     | control thread  | data thread  | per-event   |
//! | Control tunnel state          | — (eliminated: no S11/S5 control tunnels inside a slice) | — | — |
//! | Bandwidth counters            | data thread     | control thread | per-packet |
//!
//! [`ControlState`] is everything above the line; [`CounterState`] is the
//! last row. Each field is stored once (see [`crate::seqlock`] and
//! DESIGN.md §10). A [`UeContext`] is the two cache lines both planes
//! touch: the [`CtrlView`] seqlock cell (tunnels, QoS, rule ids, device
//! class, tracking area), which the data thread reads lock-free, and the
//! counter cell, which the data thread owns outright and publishes with
//! plain stores. The fields only the control thread uses — identifiers,
//! the rest of the location, the S1 association — sit in an
//! identity entry beside the context in its slab slot
//! ([`crate::slab`]). Control-side readers and writers see a by-value
//! `ControlState` assembled from the identity and the view. Neither plane
//! ever takes a lock on the per-packet path.

use crate::seqlock::SeqCell;
use serde::{Deserialize, Serialize};

/// Slice-internal user identifier: dense, assigned at attach.
pub type Uid = u64;

/// What kind of device this is — drives pipeline customization (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DeviceClass {
    /// A general-purpose device (smartphone): full PCEF/QoS pipeline.
    #[default]
    Smartphone,
    /// A stateless IoT device running a single best-effort application:
    /// the data plane may skip the per-user state lookup entirely, with
    /// TEID/IP assigned from a pre-reserved pool (§4.2 "Customization").
    StatelessIot,
}

/// Per-user QoS and policy parameters (per-event writer: control thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QosPolicy {
    /// QoS class identifier of the default bearer (9 = best effort).
    pub qci: u8,
    /// Aggregate maximum bit rate across the user's traffic, kbps.
    pub ambr_kbps: u32,
    /// Guaranteed bit rate for GBR bearers, kbps (0 = non-GBR).
    pub gbr_kbps: u32,
}

impl Default for QosPolicy {
    fn default() -> Self {
        QosPolicy { qci: 9, ambr_kbps: 100_000, gbr_kbps: 0 }
    }
}

/// Data-tunnel endpoints for the user's default bearer (per-event writer:
/// control thread; the mobility path rewrites `enb_teid`/`enb_ip`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TunnelState {
    /// TEID the eNodeB expects on downlink GTP-U packets.
    pub enb_teid: u32,
    /// eNodeB transport address for downlink.
    pub enb_ip: u32,
    /// TEID this slice expects on uplink GTP-U packets (gateway side).
    pub gw_teid: u32,
}

/// The control-thread-written half of a user's state: identifiers,
/// location, QoS/policy, tunnels (Table 1 rows 1–5).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlState {
    pub imsi: u64,
    /// Temporary identifier assigned at attach (replaces IMSI on air).
    pub guti: u64,
    /// UE IP address allocated by the network.
    pub ue_ip: u32,
    /// Cell the UE is currently attached through.
    pub ecgi: u32,
    /// Tracking area code.
    pub tac: u16,
    pub device_class: DeviceClass,
    pub qos: QosPolicy,
    pub tunnels: TunnelState,
    /// Indexes into the slice's PCEF rule table that apply to this user.
    pub pcef_rules: smallrules::RuleSet,
}

impl ControlState {
    /// Fresh state for a user attaching with `imsi`.
    pub fn new(imsi: u64) -> Self {
        ControlState {
            imsi,
            guti: 0,
            ue_ip: 0,
            ecgi: 0,
            tac: 0,
            device_class: DeviceClass::Smartphone,
            qos: QosPolicy::default(),
            tunnels: TunnelState::default(),
            pcef_rules: smallrules::RuleSet::default(),
        }
    }
}

/// A compact inline rule-id set so `ControlState` stays cache-friendly —
/// operators install a handful of rules per user, not hundreds.
pub mod smallrules {
    /// Up to 6 PCEF rule ids stored inline.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
    pub struct RuleSet {
        pub(super) ids: [u16; 6],
        pub(super) len: u8,
    }

    impl RuleSet {
        /// Add a rule id; silently ignored beyond capacity (the PCEF's
        /// catch-all default rule still applies).
        pub fn push(&mut self, id: u16) {
            if (self.len as usize) < self.ids.len() {
                self.ids[self.len as usize] = id;
                self.len += 1;
            }
        }

        pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
            self.ids[..self.len as usize].iter().copied()
        }

        pub fn len(&self) -> usize {
            self.len as usize
        }

        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Whether this is a form [`Self::push`] builds: at most six ids,
        /// zeros past `len`. Deserialized sets may be neither.
        pub fn is_canonical(&self) -> bool {
            let len = usize::from(self.len);
            len <= self.ids.len() && self.ids[len..].iter().all(|&id| id == 0)
        }
    }
}

/// The data-thread-written half of a user's state: bandwidth counters and
/// QoS token buckets (Table 1 last row; per-packet update frequency).
///
/// `Copy`, all-integer, no padding surprises: it travels through a
/// [`SeqCell`], whose readers may materialize torn copies before
/// discarding them (see [`crate::seqlock`] module docs). 56 bytes, the
/// two `u32`s adjacent, so the cell (sequence + payload) is one line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[repr(C)]
pub struct CounterState {
    pub uplink_packets: u64,
    pub uplink_bytes: u64,
    pub downlink_packets: u64,
    pub downlink_bytes: u64,
    /// Packets dropped by rate or gate enforcement (saturating).
    pub qos_drops: u32,
    /// AMBR token bucket state (owned by the data thread; kept here so a
    /// migration carries rate-limiter fill level with the user). At most
    /// a burst, which [`crate::qos::TokenBucket`] clamps to `u32::MAX`.
    pub ambr_tokens: u32,
    /// Last data activity, nanoseconds on the slice clock — drives
    /// primary-table eviction ([`crate::data::DataPlane::evict_idle`]).
    pub last_activity_ns: u64,
    pub ambr_last_refill_ns: u64,
}

const _: () = assert!(std::mem::size_of::<CounterState>() == 56);
// SAFETY: six `u64` and two adjacent `u32` fields in `repr(C)` order —
// Copy, any bit pattern valid, no padding (size asserted), alignment 8.
unsafe impl crate::seqlock::SeqPayload for CounterState {}

/// A point-in-time copy of a user's counters, safe to hand to the control
/// plane / PCRF reporting without holding the lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub uplink_packets: u64,
    pub uplink_bytes: u64,
    pub downlink_packets: u64,
    pub downlink_bytes: u64,
    pub qos_drops: u64,
    pub last_activity_ns: u64,
}

impl CounterState {
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            uplink_packets: self.uplink_packets,
            uplink_bytes: self.uplink_bytes,
            downlink_packets: self.downlink_packets,
            downlink_bytes: self.downlink_bytes,
            qos_drops: u64::from(self.qos_drops),
            last_activity_ns: self.last_activity_ns,
        }
    }
}

/// The data-path half of [`ControlState`]: exactly what the enforcement
/// pass needs per packet — tunnels, QoS parameters, the PCEF rule ids,
/// and the device-class flag — plus the tracking area code, which fills
/// two of the bytes the layout would otherwise pad. The only copy of
/// those fields: published by the control thread into a seqlock cell on
/// every control mutation, so the data thread reads it without any lock.
///
/// All-integer on purpose (a `u8` flag word instead of `bool`/enum): a
/// seqlock reader may materialize a torn copy before discarding it, and
/// every bit pattern of this struct must be a valid value.
///
/// The layout is flat and **padding-free** (explicit `_pad` tail, fields
/// ordered widest-first, 8-byte aligned, 40 bytes = 5 words): the
/// [`SeqCell`] copies its payload as whole 64-bit words, which requires
/// every byte to be initialized and the size to be a multiple of 8 —
/// and is what makes the lock-free read cheaper than a lock (a handful
/// of word loads instead of scalarized per-field volatile traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C, align(8))]
pub struct CtrlView {
    pub tunnels: TunnelState, // 3 × u32, bytes 0..12
    /// Aggregate maximum bit rate, kbps (see [`QosPolicy::ambr_kbps`]).
    pub ambr_kbps: u32, // 12..16
    /// Guaranteed bit rate, kbps (see [`QosPolicy::gbr_kbps`]).
    pub gbr_kbps: u32, // 16..20
    rule_ids: [u16; 6],       // 20..32
    rule_len: u8,             // 32
    /// QoS class identifier of the default bearer.
    pub qci: u8, // 33
    /// Tracking area code (see [`ControlState::tac`]).
    pub tac: u16, // 34..36
    flags: u8,                // 36
    _pad: [u8; 3],            // 37..40, always zero
}

const _: () = {
    assert!(std::mem::size_of::<CtrlView>() == 40);
    assert!(std::mem::align_of::<CtrlView>() == 8);
};

// SAFETY: Copy, all-integer (any bit pattern valid), explicitly
// padding-free per the layout comments above, size 40 (multiple of 8),
// alignment 8.
unsafe impl crate::seqlock::SeqPayload for CtrlView {}

impl CtrlView {
    const FLAG_IOT: u8 = 1;

    /// Project the data-path view out of a control state.
    pub fn project(c: &ControlState) -> Self {
        CtrlView {
            tunnels: c.tunnels,
            ambr_kbps: c.qos.ambr_kbps,
            gbr_kbps: c.qos.gbr_kbps,
            rule_ids: c.pcef_rules.ids,
            rule_len: c.pcef_rules.len,
            qci: c.qos.qci,
            tac: c.tac,
            flags: if c.device_class == DeviceClass::StatelessIot { Self::FLAG_IOT } else { 0 },
            _pad: [0; 3],
        }
    }

    /// The inverse of [`Self::project`]: this view plus the identity
    /// fields it does not carry.
    pub(crate) fn assemble(&self, imsi: u64, guti: u64, ue_ip: u32, ecgi: u32) -> ControlState {
        ControlState {
            imsi,
            guti,
            ue_ip,
            ecgi,
            tac: self.tac,
            device_class: if self.is_iot() { DeviceClass::StatelessIot } else { DeviceClass::Smartphone },
            qos: self.qos(),
            tunnels: self.tunnels,
            pcef_rules: smallrules::RuleSet { ids: self.rule_ids, len: self.rule_len },
        }
    }

    /// The QoS parameters, re-assembled into the struct shape.
    pub fn qos(&self) -> QosPolicy {
        QosPolicy { qci: self.qci, ambr_kbps: self.ambr_kbps, gbr_kbps: self.gbr_kbps }
    }

    /// Whether any PCEF rules apply to this user (the enforcement
    /// fast-path check).
    pub fn rules_empty(&self) -> bool {
        self.rule_len == 0
    }

    /// The applicable PCEF rule ids, in the user's order, borrowed from
    /// this snapshot (the `min` keeps the slice total for any bit pattern).
    pub fn rule_ids(&self) -> &[u16] {
        &self.rule_ids[..usize::from(self.rule_len).min(self.rule_ids.len())]
    }

    /// Whether the user is a stateless-IoT pool device.
    pub fn is_iot(&self) -> bool {
        self.flags & Self::FLAG_IOT != 0
    }
}

/// A user's consolidated state under the single-writer protocol (paper
/// §4.2; DESIGN.md §10): the two cache lines both planes touch, each in a
/// seqlock cell of its own (the `const` assertions below hold the
/// compiler to the layout).
///
/// * `view` — the [`CtrlView`] cell: tunnels, QoS, rule ids, device class
///   and tracking area, read lock-free by the data thread. Published by
///   the control thread on every control write, under its slab's writer
///   lock ([`crate::slab::UeRef::ctrl_write`]).
/// * `counters` — the [`CounterState`] cell. The data thread is its
///   single writer (owner reads + [`UeContext::publish_counters`]);
///   control/recovery/HA readers take consistent snapshots via
///   acquire/retry ([`UeContext::counters`]).
///
/// The rest of a user's [`ControlState`] lives in its slot's
/// identity entry; [`crate::slab::UeRef`] pairs the two for control-side
/// access.
#[derive(Debug)]
#[repr(C)]
pub struct UeContext {
    pub(crate) view: SeqCell<CtrlView>,
    counters: SeqCell<CounterState>,
}

// Padding audit: each cell (8-byte seq + payload) is exactly one line, so
// a data-path read or publish touches a single line, and the counter
// cell — the data thread's per-packet stores — never shares a line with
// the view the control thread publishes.
const _: () = {
    assert!(std::mem::align_of::<UeContext>() == 64);
    assert!(std::mem::size_of::<SeqCell<CtrlView>>() == 64);
    assert!(std::mem::size_of::<SeqCell<CounterState>>() == 64);
    assert!(std::mem::offset_of!(UeContext, view) == 0);
    assert!(std::mem::offset_of!(UeContext, counters) == 64);
    assert!(std::mem::size_of::<UeContext>() == 128);
};

/// A UE's current S1 association: the id pair its signaling is indexed
/// under in the control plane's routing maps, kept with the identity so
/// teardown unindexes by key. Slice-local: not part of [`ControlState`],
/// so neither checkpointed, replicated nor migrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct S1Conn {
    /// Allocated by the slice from its region; never 0.
    pub mme_ue_id: u32,
    pub enb_ue_id: u32,
}

impl UeContext {
    /// Hint the CPU to pull the two lines the enforcement pass reads: the
    /// view cell's and the counter cell's (each one line). The burst
    /// path's probe stage calls this (through
    /// [`crate::slab::UeSlab::prefetch`]) so a burst's cell misses
    /// overlap instead of being paid serially.
    #[inline]
    pub fn prefetch_cells(&self) {
        crate::prefetch_line(&self.view);
        crate::prefetch_line(&self.counters);
    }

    /// Sequence number of the view cell (two per publish; test hook).
    pub fn view_version(&self) -> u64 {
        self.view.version()
    }

    /// Sequence number of the counter cell (two per publish; the
    /// simulator's seqlock-monotonicity oracle reads this).
    pub fn counters_version(&self) -> u64 {
        self.counters.version()
    }

    // -- counter half ---------------------------------------------------------

    /// Consistent snapshot of the counters. For the owning data thread
    /// this is a plain read (it never observes its own writes torn); for
    /// cross-plane readers (PCRF reporting, checkpoints, HA) it is an
    /// acquire/retry seqlock read.
    pub fn counters(&self) -> CounterState {
        self.counters.read().0
    }

    /// [`Self::counters`] plus the retry count (stress-test hook).
    pub fn counters_with_retries(&self) -> (CounterState, u32) {
        self.counters.read()
    }

    /// Data-thread publish: plain stores of the new counter values plus
    /// a release bump of the cell version. The data thread is the single
    /// writer of this cell while the user is live.
    pub fn publish_counters(&self, counters: CounterState) {
        self.counters.publish(counters);
    }

    /// Read-modify-publish convenience for *quiescent* counter writes
    /// (restore, migration fix-ups, tests) — contexts where the data
    /// thread is not concurrently publishing, per the single-writer
    /// discipline.
    pub fn update_counters(&self, f: impl FnOnce(&mut CounterState)) {
        let mut c = self.counters();
        f(&mut c);
        self.publish_counters(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::{UeHandle, UeSlab};

    #[test]
    fn control_state_defaults_are_sensible() {
        let s = ControlState::new(404_01_0000000001);
        assert_eq!(s.imsi, 404_01_0000000001);
        assert_eq!(s.qos.qci, 9);
        assert_eq!(s.device_class, DeviceClass::Smartphone);
        assert!(s.pcef_rules.is_empty());
    }

    #[test]
    fn ruleset_inline_capacity() {
        let mut rs = smallrules::RuleSet::default();
        for i in 0..10u16 {
            rs.push(i);
        }
        assert_eq!(rs.len(), 6, "capped at inline capacity");
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn counter_snapshot_copies_fields() {
        let c = CounterState {
            uplink_packets: 5,
            downlink_bytes: 999,
            qos_drops: 1,
            last_activity_ns: 42,
            ..CounterState::default()
        };
        let s = c.snapshot();
        assert_eq!(s.uplink_packets, 5);
        assert_eq!(s.downlink_bytes, 999);
        assert_eq!(s.qos_drops, 1);
        assert_eq!(s.last_activity_ns, 42);
    }

    /// A one-user slab: contexts exist only in slab slots.
    fn one_user(ctrl: ControlState, counters: CounterState) -> (UeSlab, UeHandle) {
        let slab = UeSlab::new();
        let h = slab.alloc(ctrl, counters).expect("fresh slab has room");
        (slab, h)
    }

    #[test]
    fn ue_context_halves_stay_independent() {
        let (slab, h) = one_user(ControlState::new(1), CounterState::default());
        let ue = slab.resolve(h).unwrap();
        // Keep a control write open while the data side updates counters
        // — the core of the paper's contention-avoidance claim. With
        // seqlock cells the counter publish takes no lock at all.
        let mut ctrl_guard = ue.ctrl_write();
        ctrl_guard.ecgi = 9;
        ue.update_counters(|c| c.uplink_packets += 1);
        drop(ctrl_guard);
        assert_eq!(ue.ctrl_read().ecgi, 9);
        assert_eq!(ue.counters().uplink_packets, 1);
    }

    #[test]
    fn ctrl_write_republishes_the_view() {
        let (slab, h) = one_user(ControlState::new(1), CounterState::default());
        let ue = slab.resolve(h).unwrap();
        let v0 = ue.view_version();
        {
            let mut c = ue.ctrl_write();
            c.tunnels.enb_teid = 0xBEEF;
            c.qos.ambr_kbps = 64;
            c.device_class = DeviceClass::StatelessIot;
            c.tac = 0x1234;
        }
        assert_eq!(ue.view_version(), v0 + 2, "one publish per write guard drop");
        let v = ue.ctrl_view();
        assert_eq!(v.tunnels.enb_teid, 0xBEEF);
        assert_eq!(v.ambr_kbps, 64);
        assert!(v.is_iot());
        assert_eq!(v.tac, 0x1234, "the tracking area rides in the view");
        // The lock-free view always equals the lock-held projection.
        assert_eq!(v, CtrlView::project(&ue.ctrl_read()));
    }

    #[test]
    fn counter_publish_roundtrips() {
        let (slab, h) = one_user(ControlState::new(1), CounterState::default());
        let ue = slab.resolve(h).unwrap();
        let mut c = ue.counters();
        c.uplink_packets = 3;
        c.uplink_bytes = 300;
        ue.publish_counters(c);
        let (back, retries) = ue.counters_with_retries();
        assert_eq!(back, c);
        assert_eq!(retries, 0);
    }

    #[test]
    fn alloc_preserves_restored_counters() {
        let counters = CounterState { downlink_bytes: 999, qos_drops: 2, ..CounterState::default() };
        let (slab, h) = one_user(ControlState::new(5), counters);
        let ue = slab.resolve(h).unwrap();
        assert_eq!(ue.counters(), counters);
        assert_eq!(ue.ctrl_read().imsi, 5);
    }

    #[test]
    fn control_state_is_compact() {
        // The data plane touches one CtrlView per packet; the view cell
        // (sequence word + view) must fit one cache line, and the by-value
        // structs stay within a couple of lines so millions of users stay
        // cache-friendly (what Figure 5 measures).
        assert!(
            std::mem::size_of::<ControlState>() <= 128,
            "ControlState grew to {} bytes",
            std::mem::size_of::<ControlState>()
        );
        assert!(std::mem::size_of::<CounterState>() <= 128);
        assert!(std::mem::size_of::<CtrlView>() <= 56, "CtrlView grew to {} bytes", std::mem::size_of::<CtrlView>());
    }
}
