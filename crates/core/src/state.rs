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
//! last row. [`UeContext`] stores each field once, in three cache lines
//! under the single-writer seqlock protocol (see [`crate::seqlock`] and
//! DESIGN.md §10): identifiers and location behind the control lock;
//! tunnels, QoS, rule ids and device class in the [`CtrlView`] seqlock
//! cell the data thread reads lock-free; counters in a cell the data
//! thread owns outright and publishes with plain stores. Control-side
//! readers and writers see a by-value `ControlState` assembled from the
//! lock line and the view. Neither plane ever takes a lock on the
//! per-packet path.

use crate::seqlock::{SeqCell, READ_RETRY_LIMIT};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
/// and the device-class flag. The only copy of those fields in a
/// [`UeContext`]: published by the control thread into a seqlock cell on
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
    flags: u8,                // 34
    _pad: [u8; 5],            // 35..40, always zero
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
            flags: if c.device_class == DeviceClass::StatelessIot { Self::FLAG_IOT } else { 0 },
            _pad: [0; 5],
        }
    }

    /// The inverse of [`Self::project`]: this view plus the identity
    /// fields it does not carry.
    fn assemble(&self, id: &Identity) -> ControlState {
        ControlState {
            imsi: id.imsi,
            guti: id.guti,
            ue_ip: id.ue_ip,
            ecgi: id.ecgi,
            tac: id.tac,
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

/// The [`ControlState`] fields the view does not carry: identifiers and
/// location, stored behind the context's control lock.
#[derive(Debug)]
struct Identity {
    imsi: u64,
    guti: u64,
    ue_ip: u32,
    ecgi: u32,
    tac: u16,
}

impl Identity {
    fn of(c: &ControlState) -> Self {
        Identity { imsi: c.imsi, guti: c.guti, ue_ip: c.ue_ip, ecgi: c.ecgi, tac: c.tac }
    }
}

/// A user's consolidated state under the single-writer lock protocol
/// (paper §4.2; DESIGN.md §10): three cache lines, each [`ControlState`]
/// field stored once (the `const` assertions below hold the compiler to
/// the layout).
///
/// * `ident` + `s1_conn` — identifiers and location, written only by the
///   control thread. The lock serializes the writer and makes control-side
///   reads (signaling, checkpoints, HA replication) coherent across the
///   lock line and the view; the data path never takes it.
/// * `view` — the [`CtrlView`] seqlock cell: tunnels, QoS, rule ids and
///   device class, read lock-free by the data thread
///   ([`UeContext::ctrl_view`]). Published by [`CtrlWriteGuard`] on drop
///   of every control write, under the lock.
/// * `counters` — the [`CounterState`] cell. The data thread is its
///   single writer (owner reads + [`UeContext::publish_counters`]);
///   control/recovery/HA readers take consistent snapshots via
///   acquire/retry ([`UeContext::counters`]).
#[derive(Debug)]
#[repr(C)]
pub struct UeContext {
    ident: RwLock<Identity>,
    /// The UE's current [`S1Conn`] as `mme_ue_id << 32 | enb_ue_id`, 0 =
    /// none. Control-thread state (atomic only for `Sync`), in the padding
    /// of the lock line: free, and read where detach reads the keys.
    s1_conn: AtomicU64,
    view: SeqCell<CtrlView>,
    counters: SeqCell<CounterState>,
}

// Padding audit: the lock line (48-byte `RwLock<Identity>` + `s1_conn`)
// fits before the first 64-byte aligned cell, so the context is exactly
// three lines. The view and counter cells start on distinct lines and the
// counter cell never shares a line with anything else — the data
// thread's per-packet stores cannot false-share with control reads of
// the view or the lock word.
const _: () = {
    assert!(std::mem::align_of::<SeqCell<CtrlView>>() == 64);
    assert!(std::mem::align_of::<SeqCell<CounterState>>() == 64);
    assert!(std::mem::align_of::<UeContext>() == 64);
    // Each cell (8-byte seq + payload) stays within one line, so a
    // data-path read or publish touches a single cache line.
    assert!(std::mem::size_of::<SeqCell<CtrlView>>() == 64);
    assert!(std::mem::size_of::<SeqCell<CounterState>>() == 64);
    assert!(std::mem::offset_of!(UeContext, view) == 64);
    assert!(std::mem::offset_of!(UeContext, counters) == 128);
    assert!(std::mem::size_of::<UeContext>() == 192);
};

/// A UE's current S1 association: the id pair its signaling is indexed
/// under in the control plane's routing maps, kept with the context so
/// teardown unindexes by key. Slice-local: not part of [`ControlState`],
/// so neither checkpointed, replicated nor migrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct S1Conn {
    /// Allocated by the slice from its region; never 0.
    pub mme_ue_id: u32,
    pub enb_ue_id: u32,
}

impl UeContext {
    pub fn new(ctrl: ControlState) -> Arc<Self> {
        Self::with_counters(ctrl, CounterState::default())
    }

    /// Build a context with pre-existing counters (checkpoint restore /
    /// HA adoption) — no publish race, the cell is born populated.
    pub fn with_counters(ctrl: ControlState, counters: CounterState) -> Arc<Self> {
        Arc::new(Self::raw_with_counters(ctrl, counters))
    }

    /// An un-Arc'd context — slot storage for [`crate::slab::UeSlab`],
    /// which places contexts in contiguous chunks instead of individual
    /// heap objects.
    pub(crate) fn raw(ctrl: ControlState) -> Self {
        Self::raw_with_counters(ctrl, CounterState::default())
    }

    fn raw_with_counters(ctrl: ControlState, counters: CounterState) -> Self {
        UeContext {
            ident: RwLock::new(Identity::of(&ctrl)),
            s1_conn: AtomicU64::new(0),
            view: SeqCell::new(CtrlView::project(&ctrl)),
            counters: SeqCell::new(counters),
        }
    }

    /// The UE's current S1 association, if it has signaled over S1AP.
    pub fn s1_conn(&self) -> Option<S1Conn> {
        let packed = self.s1_conn.load(Ordering::Relaxed);
        (packed != 0).then_some(S1Conn { mme_ue_id: (packed >> 32) as u32, enb_ue_id: packed as u32 })
    }

    /// The IMSI and GUTI the context is registered under: a lock-line
    /// read, without assembling the whole control state.
    pub fn imsi_guti(&self) -> (u64, u64) {
        let i = self.ident.read();
        (i.imsi, i.guti)
    }

    /// Replace the S1 association (control thread only).
    pub fn set_s1_conn(&self, conn: Option<S1Conn>) {
        let packed = conn.map_or(0, |c| u64::from(c.mme_ue_id) << 32 | u64::from(c.enb_ue_id));
        self.s1_conn.store(packed, Ordering::Relaxed);
    }

    // -- control half ---------------------------------------------------------

    /// Coherent read of the control state (control-plane side: signaling
    /// logic, checkpoints, replication): a guard that holds the control
    /// lock and derefs to a copy assembled from the lock line and the
    /// view. The data path uses [`Self::ctrl_view`] instead.
    pub fn ctrl_read(&self) -> CtrlReadGuard<'_> {
        let lock = self.ident.read();
        let state = self.view_locked().assemble(&lock);
        CtrlReadGuard { _lock: lock, state }
    }

    /// Mutable access for the control thread (the single writer): a
    /// guard over an assembled copy that, when dropped, stores the
    /// identity fields and republishes the [`CtrlView`] into the seqlock
    /// cell, so every control mutation is visible to the lock-free data
    /// path.
    pub fn ctrl_write(&self) -> CtrlWriteGuard<'_> {
        let lock = self.ident.write();
        let state = self.view_locked().assemble(&lock);
        CtrlWriteGuard { ctx: self, lock, state }
    }

    /// Read the view while holding the control lock: publishes happen
    /// only under the write lock, so the first attempt never retries.
    fn view_locked(&self) -> CtrlView {
        self.view.read().0
    }

    /// Lock-free data-path read of the control view.
    pub fn ctrl_view(&self) -> CtrlView {
        self.ctrl_view_with_retries().0
    }

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

    /// [`Self::ctrl_view`] plus the retry count (stress-test
    /// instrumentation). Optimistic seqlock reads with bounded retries;
    /// if pathological writer interference keeps the cell unreadable, the
    /// read falls back to taking the control lock, which excludes writers.
    pub fn ctrl_view_with_retries(&self) -> (CtrlView, u32) {
        match self.view.read_bounded(READ_RETRY_LIMIT) {
            Ok(r) => r,
            Err(retries) => {
                let _writers_excluded = self.ident.read();
                (self.view_locked(), retries)
            }
        }
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

/// Read guard from [`UeContext::ctrl_read`]: holds the control lock
/// (excluding writers) and derefs to the assembled [`ControlState`].
pub struct CtrlReadGuard<'a> {
    _lock: RwLockReadGuard<'a, Identity>,
    state: ControlState,
}

impl Deref for CtrlReadGuard<'_> {
    type Target = ControlState;
    fn deref(&self) -> &ControlState {
        &self.state
    }
}

/// Write guard from [`UeContext::ctrl_write`]. On drop — while still
/// holding the lock, so publishes stay serialized — it stores the
/// identity fields and republishes the [`CtrlView`] into the seqlock
/// cell. This is the "writer-side publish on every control mutation" of
/// the protocol: no call site can mutate control state and forget to
/// publish.
pub struct CtrlWriteGuard<'a> {
    ctx: &'a UeContext,
    lock: RwLockWriteGuard<'a, Identity>,
    state: ControlState,
}

impl Deref for CtrlWriteGuard<'_> {
    type Target = ControlState;
    fn deref(&self) -> &ControlState {
        &self.state
    }
}

impl DerefMut for CtrlWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut ControlState {
        &mut self.state
    }
}

impl Drop for CtrlWriteGuard<'_> {
    fn drop(&mut self) {
        // `lock` is a field, so it is released only after this body.
        *self.lock = Identity::of(&self.state);
        self.ctx.view.publish(CtrlView::project(&self.state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn ue_context_halves_stay_independent() {
        let ue = UeContext::new(ControlState::new(1));
        // Hold the control half read-locked while the data side updates
        // counters — the core of the paper's contention-avoidance claim.
        // With seqlock cells the counter publish takes no lock at all.
        let ctrl_guard = ue.ctrl_read();
        ue.update_counters(|c| c.uplink_packets += 1);
        assert_eq!(ctrl_guard.imsi, 1);
        assert_eq!(ue.counters().uplink_packets, 1);
    }

    #[test]
    fn ctrl_write_republishes_the_view() {
        let ue = UeContext::new(ControlState::new(1));
        let v0 = ue.view_version();
        {
            let mut c = ue.ctrl_write();
            c.tunnels.enb_teid = 0xBEEF;
            c.qos.ambr_kbps = 64;
            c.device_class = DeviceClass::StatelessIot;
        }
        assert_eq!(ue.view_version(), v0 + 2, "one publish per write guard drop");
        let v = ue.ctrl_view();
        assert_eq!(v.tunnels.enb_teid, 0xBEEF);
        assert_eq!(v.ambr_kbps, 64);
        assert!(v.is_iot());
        // The lock-free view always equals the lock-held projection.
        assert_eq!(v, CtrlView::project(&ue.ctrl_read()));
    }

    #[test]
    fn counter_publish_roundtrips() {
        let ue = UeContext::new(ControlState::new(1));
        let mut c = ue.counters();
        c.uplink_packets = 3;
        c.uplink_bytes = 300;
        ue.publish_counters(c);
        let (back, retries) = ue.counters_with_retries();
        assert_eq!(back, c);
        assert_eq!(retries, 0);
    }

    #[test]
    fn with_counters_preserves_restored_state() {
        let counters = CounterState { downlink_bytes: 999, qos_drops: 2, ..CounterState::default() };
        let ue = UeContext::with_counters(ControlState::new(5), counters);
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
