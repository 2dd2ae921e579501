//! The slice control plane — paper §3.2 "PEPC control threads", §4.2
//! "Slice control plane".
//!
//! The control thread is the single writer of every user's
//! [`ControlState`]: it runs the attach procedure (full S1AP/NAS against
//! the HSS and PCRF through the node proxy), applies mobility events by
//! rewriting tunnel state *in place* in the shared context (no
//! synchronization messages — the data thread reads the same memory), and
//! manages data-plane table membership through batched [`DpUpdate`]s.
//!
//! Signaling enters one dispatcher, [`ControlPlane::handle_s1ap`] (and
//! [`ControlPlane::page`] / [`ControlPlane::network_detach`] from the
//! network side): admission, routing to the UE's procedure machine, its
//! [`Disposition`], then one stepper running the leg the static table
//! `LEGS` holds for the (wait state, message) pair. Every procedure ends
//! through one exit hook, and every reply lands in one caller-owned buffer.
//!
//! [`ControlPlane::apply_event`] is the synthetic wrapper behind the
//! paper's at-scale signaling load (Figures 5, 6, 12, 13): it calls the
//! effects the legs call (`do_attach`, `do_handover`, `do_detach`,
//! `suspend_user`) without wire messages. Feeding it through the machines
//! instead would add message kinds, policy rows and a machine checkout to
//! each of a million set-up attaches, for no behaviour the legs lack.
//!
//! **Identifiers** (DESIGN.md §16). A slice mints a native user's TEID, UE
//! IP and GUTI at the region offset its slab slot and tenant count name
//! ([`UeSlab::offset_of`]), so a GUTI resolves by arithmetic: slot, tenant,
//! then the context's own GUTI and IMSI registration. `by_guti` holds only
//! foreign users — migrated in, adopted, restored, or in a slot past the
//! `2^k` that `expected_users` sizes — whose ids come from `claim`'s
//! cursor. A native mint that would reproduce a GUTI `by_guti` holds falls
//! back to the cursor too.

use crate::data::DpUpdate;
use crate::demux::REGION_SHIFT;
use crate::inctable::IncrementalTable;
use crate::metrics::CtrlMetrics;
use crate::pcef::Pcef;
use crate::procedure::{
    Disposition, MsgKind, ProcState, SigMsg, UeMachine, Wait, MAILBOX_CAP, PAGING_MAX_RETX, PAGING_RETX_TICKS,
};
use crate::proxy::Proxy;
use crate::recovery::UserRecord;
use crate::slab::{UeHandle, UeRef, UeSlab};
use crate::state::{ControlState, CounterSnapshot, CounterState, DeviceClass, QosPolicy, S1Conn};
use crate::twolevel::BuildKeyHasher;
use pepc_backend::hss::sim_response;
use pepc_sigproto::nas::{cause, NasMsg};
use pepc_sigproto::s1ap::S1apPdu;
use pepc_telemetry::LatencyHistogram;
use std::collections::HashMap;
use std::sync::Arc;

/// Synthetic control events (the paper's at-scale signaling workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlEvent {
    /// Attach: allocate state for `imsi`, insert, notify the data plane.
    Attach { imsi: u64 },
    /// S1-based handover: the UE moved to an eNodeB with no X2 link —
    /// rewrite the downlink tunnel endpoint.
    S1Handover { imsi: u64, new_enb_teid: u32, new_enb_ip: u32 },
    /// Modify-bearer: QoS parameters changed.
    ModifyBearer { imsi: u64, ambr_kbps: u32 },
    /// Detach: remove all state.
    Detach { imsi: u64 },
    /// S1 Release: the UE goes idle — data-path suspended (tunnels torn
    /// down, context retained), downlink buffered behind a page.
    Release { imsi: u64 },
}

/// Allocation bases carving a slice's identifier space out of the node's.
#[derive(Debug, Clone, Copy)]
pub struct Allocator {
    pub teid_base: u32,
    pub ue_ip_base: u32,
    pub guti_base: u64,
    pub mme_ue_id_base: u32,
}

/// Where the dispatcher's routing stage sends an inbound PDU.
enum Routed {
    /// Deliver into the owning UE's procedure machine.
    Ue(u64, SigMsg),
    /// Answered (or legally absorbed) at the dispatcher itself.
    Immediate(Option<S1apPdu>),
    /// Unroutable, undecodable, or MME-originated: discard.
    Discard,
}

/// One leg of a procedure: a machine waiting in `from` that is delivered
/// a message of kind `on` runs `effect`, which moves it to `to` (`Idle`:
/// the procedure completed) — or, for an IMSI already attached, from the
/// attach start straight to `AttachIcs`.
pub(crate) struct Leg {
    pub from: Wait,
    pub on: MsgKind,
    pub to: Wait,
    effect: fn(&mut ControlPlane, &mut UeMachine, SigMsg, &mut Vec<S1apPdu>) -> Step,
}

/// Every procedure leg. A delivered (state, message) pair without a row
/// is consumed as a no-op: `dispose()` delivers everything to an idle
/// machine, where only the messages that start a procedure have rows.
pub(crate) static LEGS: [Leg; 15] = {
    use MsgKind as M;
    use Wait as W;
    type C = ControlPlane;
    [
        Leg { from: W::Idle, on: M::AttachStart, to: W::AttachAuth, effect: C::attach_start },
        Leg { from: W::AttachAuth, on: M::AuthRsp, to: W::AttachSmc, effect: C::attach_auth },
        Leg { from: W::AttachSmc, on: M::SmcComplete, to: W::AttachIcs, effect: C::attach_smc },
        Leg { from: W::AttachIcs, on: M::IcsRsp, to: W::AttachComplete, effect: C::attach_ics },
        Leg { from: W::AttachComplete, on: M::AttachComplete, to: W::Idle, effect: C::attach_complete },
        Leg { from: W::Idle, on: M::HoRequired, to: W::HandoverAck, effect: C::ho_required },
        Leg { from: W::HandoverAck, on: M::HoAck, to: W::Idle, effect: C::ho_ack },
        Leg { from: W::Idle, on: M::PageTrigger, to: W::Paging, effect: C::page_trigger },
        Leg { from: W::Paging, on: M::ServiceStart, to: W::Idle, effect: C::service_start },
        Leg { from: W::Idle, on: M::ServiceStart, to: W::Idle, effect: C::service_start },
        Leg { from: W::Idle, on: M::Tau, to: W::Idle, effect: C::tau },
        Leg { from: W::Idle, on: M::Detach, to: W::Idle, effect: C::detach },
        Leg { from: W::Idle, on: M::NetDetach, to: W::Idle, effect: C::net_detach },
        Leg { from: W::Idle, on: M::PathSwitch, to: W::Idle, effect: C::path_switch },
        Leg { from: W::Idle, on: M::ReleaseReq, to: W::Idle, effect: C::release },
    ]
};

/// The row for a (wait state, message kind) pair, if any.
pub(crate) fn leg(from: Wait, on: MsgKind) -> Option<&'static Leg> {
    LEGS.iter().find(|l| l.from == from && l.on == on)
}

/// What a leg's effect reports to the stepper.
enum Step {
    /// A re-check against the current state failed (the message outlived
    /// the user or the session it was for): consumed, nothing started.
    Stale,
    /// The procedure moves to this state; `Idle` completes it.
    To(ProcState),
    /// The procedure failed: it ends as aborted.
    Fail,
}

/// How a procedure ends; each outcome has one terminal counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exit {
    Completed,
    Preempted,
    Aborted,
    Expired,
}

/// Identifiers in one slice's region: its TEIDs, UE IPs, GUTIs and MME
/// UE ids are the slice's allocation base plus an offset below this,
/// which is what the node steers and routes by.
const REGION: u32 = 1 << REGION_SHIFT;

/// The first region offset at or after `*cursor`, wrapping at the
/// region's end, that `live` does not claim; the cursor moves past it.
/// `None` when every offset is live. Only foreign identifiers are
/// claimed: a native user's name its slab slot (module docs).
fn claim(cursor: &mut u32, live: impl Fn(u32) -> bool) -> Option<u32> {
    let offset = (0..REGION).map(|i| (*cursor + i) % REGION).find(|&o| !live(o))?;
    *cursor = (offset + 1) % REGION;
    Some(offset)
}

/// A downlink NAS transport carrying `msg`.
fn nas_to(out: &mut Vec<S1apPdu>, enb_ue_id: u32, mme_ue_id: u32, msg: NasMsg) {
    out.push(S1apPdu::DownlinkNasTransport { enb_ue_id, mme_ue_id, nas: msg.encode() });
}

/// The control plane of one slice. Owned by exactly one thread.
pub struct ControlPlane {
    /// All users of this slice, keyed by IMSI (globally unique, so
    /// migrated-in users can never collide with local allocations): the
    /// authoritative (secondary-level) table. Values are 8-byte slab
    /// handles into the slice's shared context arena; the table grows
    /// incrementally (bounded relocations per insert — no stop-the-world
    /// rehash under an attach storm) and shrinks after mass detach.
    users: IncrementalTable<UeHandle>,
    /// GUTI → IMSI of foreign users only: a native GUTI names its slot.
    by_guti: IncrementalTable<u64>,
    /// MME UE id → IMSI, the one routing key of UE-associated S1AP: each
    /// user's current association, an attach's id until its user record
    /// exists, and a page's interim id.
    by_mme_ue_id: HashMap<u32, u64, BuildKeyHasher>,
    alloc: Allocator,
    /// Region offsets the next foreign user id and MME UE id are claimed
    /// from. Foreign ids start in the last tenant block, the one a native
    /// slot reaches last.
    next_uid: u32,
    next_mme_ue_id: u32,
    /// Node parameters.
    gw_ip: u32,
    tac: u16,
    /// Updates awaiting transfer to the data thread (drained by the slice
    /// wiring into the SPSC update ring — Figure 13's batching happens at
    /// the data thread's drain).
    pending_updates: Vec<DpUpdate>,
    /// PCEF rule ids already installed slice-wide.
    installed_rules: std::collections::HashSet<u16>,
    proxy: Option<Arc<Proxy>>,
    /// One procedure machine per UE with signaling in flight (or parked
    /// in its mailbox). Retired as soon as the UE goes quiescent.
    machines: HashMap<u64, UeMachine, BuildKeyHasher>,
    /// UEs in ECM-IDLE: released from the radio but still attached
    /// (context retained). Gates `PageTrigger` staleness. A `BTreeSet`
    /// so iteration stays deterministic.
    idle_ues: std::collections::BTreeSet<u64>,
    /// PDUs emitted by the supervision-timer sweep (paging
    /// retransmissions, post-expiry mailbox drains) — there is no inbound
    /// PDU to answer, so they stage here until the wiring drains them.
    pending_tx: Vec<S1apPdu>,
    /// Current tick on the supervising clock (drives procedure expiry).
    proc_tick: u64,
    metrics: CtrlMetrics,
    /// The replication hook: IMSIs whose control state changed since the
    /// last [`ControlPlane::take_dirty_users`] drain (a `BTreeSet`, so the
    /// drain is ordered). `None` until [`ControlPlane::track_dirty_users`]
    /// arms it: a plane nothing replicates keeps no per-IMSI set.
    dirty: Option<std::collections::BTreeSet<u64>>,
    /// The user that last detached (or was rolled back), until the node
    /// layer takes it to retire the user's steering exception.
    departed: Option<u64>,
    /// Per-procedure processing latency (control threads are off the
    /// packet hot path, so these are always recorded).
    attach_ns: LatencyHistogram,
    service_request_ns: LatencyHistogram,
    handover_ns: LatencyHistogram,
    /// Admission control under signaling storms (DESIGN.md §15).
    /// Disabled by default; configured via [`ControlPlane::set_overload`].
    overload: crate::overload::AdmissionControl,
    /// The slice's context arena: contexts live here, the tables above
    /// only hold handles. Shared with the data plane (the slice wiring
    /// passes one slab to both constructors).
    slab: Arc<UeSlab>,
}

impl ControlPlane {
    /// Build a control plane with its own private context arena. `proxy`
    /// is required for the full S1AP path; synthetic events work without
    /// it.
    pub fn new(gw_ip: u32, tac: u16, alloc: Allocator, proxy: Option<Arc<Proxy>>) -> Self {
        Self::with_slab(Arc::new(UeSlab::new()), gw_ip, tac, alloc, proxy, 0)
    }

    /// Build a control plane over a shared context arena, its IMSI index
    /// sized to grow to `expected_users` at ≤ 3/4 load.
    pub fn with_slab(
        slab: Arc<UeSlab>,
        gw_ip: u32,
        tac: u16,
        alloc: Allocator,
        proxy: Option<Arc<Proxy>>,
        expected_users: usize,
    ) -> Self {
        ControlPlane {
            users: IncrementalTable::with_capacity(expected_users),
            by_guti: IncrementalTable::new(),
            by_mme_ue_id: HashMap::default(),
            alloc,
            next_uid: REGION - slab.named_slots(),
            next_mme_ue_id: 0,
            gw_ip,
            tac,
            pending_updates: Vec::new(),
            installed_rules: std::collections::HashSet::new(),
            proxy,
            machines: HashMap::default(),
            idle_ues: std::collections::BTreeSet::new(),
            pending_tx: Vec::new(),
            proc_tick: 0,
            metrics: CtrlMetrics::default(),
            dirty: None,
            departed: None,
            attach_ns: LatencyHistogram::new(),
            service_request_ns: LatencyHistogram::new(),
            handover_ns: LatencyHistogram::new(),
            overload: crate::overload::AdmissionControl::new(crate::config::OverloadConfig::default()),
            slab,
        }
    }

    /// The context arena this plane allocates user state from.
    pub fn slab(&self) -> &Arc<UeSlab> {
        &self.slab
    }

    /// Resident bytes of the IMSI and GUTI indexes (memory gauge).
    pub fn table_bytes(&self) -> u64 {
        self.users.bytes() + self.by_guti.bytes()
    }

    /// Make background progress on index migrations/shrinks (called from
    /// the slice housekeeping tick; inserts and removes also step).
    pub fn maintain_tables(&mut self) {
        self.users.maintain();
        self.by_guti.maintain();
    }

    /// Install an overload/admission policy (the slice wires this from
    /// `SliceConfig::overload` at construction).
    pub fn set_overload(&mut self, cfg: crate::config::OverloadConfig) {
        self.overload.set_config(cfg);
    }

    /// Limiter occupancy gauges: `(tracked eNodeBs, tokens available)`.
    pub fn overload_gauges(&self) -> (u64, u64) {
        (self.overload.tracked_enbs(), self.overload.tokens_available())
    }

    /// The next MME UE id of the slice's region that no live association
    /// or page holds. With all 2^24 held (more than a slab's worth of
    /// users) the cursor's id is reused.
    fn allocate_mme_ue_id(&mut self) -> u32 {
        let base = self.alloc.mme_ue_id_base;
        let offset = claim(&mut self.next_mme_ue_id, |o| self.by_mme_ue_id.contains_key(&(base + o)));
        base + offset.unwrap_or(self.next_mme_ue_id)
    }

    /// Start the id cursors at these region offsets (wrap tests).
    #[cfg(test)]
    fn set_id_cursors(&mut self, uid: u32, mme_ue_id: u32) {
        (self.next_uid, self.next_mme_ue_id) = (uid, mme_ue_id);
    }

    // -- core state operations (shared by the legs and the synthetic events) ---

    /// Data-plane keys (uplink tunnel, UE IP) of a known user, read from
    /// the consolidated state — migrated-in users keep their original
    /// keys, so these are never re-derived arithmetically.
    pub fn keys_of(&self, imsi: u64) -> Option<(u32, u32)> {
        let ctx = self.context_of(imsi)?;
        let c = ctx.ctrl_read();
        Some((c.tunnels.gw_teid, c.ue_ip))
    }

    /// Create and index a user; queues the data-plane insert. Idempotent
    /// per IMSI (re-attach reuses the context and re-announces it active,
    /// ending any ECM-IDLE as a service request would). The
    /// caller counts the attach: the synthetic path at once, the S1AP path
    /// only when the NAS Attach Complete lands. Returns the user's (live)
    /// handle, or `None` when the slice is full: every user id of its
    /// region is live, or every slot of its context arena.
    fn do_attach(&mut self, imsi: u64, qos: QosPolicy, device_class: DeviceClass, ecgi: u32) -> Option<UeHandle> {
        let t0 = std::time::Instant::now();
        self.mark_dirty(imsi);
        let (handle, gw_teid, ue_ip) = match self.context_of(imsi) {
            // Re-attach: refresh and re-announce as active.
            Some(ctx) => {
                let mut c = ctx.ctrl_write();
                c.ecgi = ecgi;
                c.qos = qos;
                (ctx.handle(), c.tunnels.gw_teid, c.ue_ip)
            }
            None => {
                // Identifiers are the slice's allocation bases plus one user
                // id: the offset the slot and its tenant name, unless a
                // foreign user holds it or the slot names none; then the
                // cursor's next id that no user holds.
                let (a, tac, slab, by_guti) = (self.alloc, self.tac, &self.slab, &self.by_guti);
                let held = |o: u32| by_guti.contains_key(a.guti_base + u64::from(o));
                let (cursor, mut uid) = (&mut self.next_uid, 0);
                let init = |h| {
                    uid = match slab.offset_of(h) {
                        Some(o) if !held(o) => o,
                        _ => claim(cursor, |o| held(o) || slab.named(o).is_some())?,
                    };
                    let mut ctrl = ControlState::new(imsi);
                    ctrl.guti = a.guti_base + u64::from(uid);
                    ctrl.ue_ip = a.ue_ip_base + uid;
                    (ctrl.ecgi, ctrl.tac, ctrl.qos, ctrl.device_class) = (ecgi, tac, qos, device_class);
                    ctrl.tunnels.gw_teid = a.teid_base + uid;
                    Some(ctrl)
                };
                let handle = slab.alloc_with(init, CounterState::default())?;
                self.users.insert(imsi, handle);
                if slab.offset_of(handle) != Some(uid) {
                    self.by_guti.insert(a.guti_base + u64::from(uid), imsi);
                }
                (handle, a.teid_base + uid, a.ue_ip_base + uid)
            }
        };
        self.pending_updates.push(DpUpdate::Insert { gw_teid, ue_ip, handle, active: true });
        self.idle_ues.remove(&imsi);
        self.attach_ns.record(t0.elapsed().as_nanos() as u64);
        Some(handle)
    }

    fn do_handover(&mut self, imsi: u64, new_enb_teid: u32, new_enb_ip: u32, new_ecgi: u32) -> bool {
        let t0 = std::time::Instant::now();
        let Some(ctx) = self.context_of(imsi) else { return false };
        // The whole point: one in-place write, visible to the data thread
        // through the shared context. No DpUpdate needed.
        {
            let mut c = ctx.ctrl_write();
            c.tunnels.enb_teid = new_enb_teid;
            c.tunnels.enb_ip = new_enb_ip;
            if new_ecgi != 0 {
                c.ecgi = new_ecgi;
            }
        }
        self.metrics.handovers += 1;
        self.mark_dirty(imsi);
        self.handover_ns.record(t0.elapsed().as_nanos() as u64);
        true
    }

    fn do_detach(&mut self, imsi: u64) -> bool {
        let removed = self.remove_user(imsi);
        if removed {
            self.metrics.detaches += 1;
            self.departed = Some(imsi);
        }
        removed
    }

    /// Remove a user and everything indexed under it: its GUTI, its S1
    /// association, its idleness, its machine (a procedure in flight ends
    /// as aborted) and, through `Remove`, its data-plane entry and slab
    /// slot. Detach, attach rollback and migration share it.
    fn remove_user(&mut self, imsi: u64) -> bool {
        let Some(ctx) = self.users.remove(imsi).and_then(|h| self.slab.resolve(h)) else { return false };
        let (guti, gw_teid, ue_ip, conn) = {
            let c = ctx.ctrl_read();
            (c.guti, c.tunnels.gw_teid, c.ue_ip, ctx.s1_conn())
        };
        self.by_guti.remove(guti);
        if let Some(conn) = conn {
            self.by_mme_ue_id.remove(&conn.mme_ue_id);
        }
        self.idle_ues.remove(&imsi);
        self.pending_updates.push(DpUpdate::Remove { gw_teid, ue_ip });
        self.mark_dirty(imsi);
        self.drop_machine(imsi, Exit::Aborted);
        true
    }

    // -- S1 association index --------------------------------------------------
    // A UE is indexed under the MME UE id of one S1 association at a time.
    // The id lives with its owner — the user's context, or the machine's
    // wait state while an attach runs ahead of the user record or a page
    // waits for its answer — so every teardown unindexes by key.

    /// Make `conn` the user's S1 association, replacing the one it had.
    fn bind_s1(&mut self, imsi: u64, handle: UeHandle, conn: S1Conn) {
        let Some(ctx) = self.slab.resolve(handle) else { return };
        if let Some(old) = ctx.s1_conn().filter(|old| old.mme_ue_id != conn.mme_ue_id) {
            self.by_mme_ue_id.remove(&old.mme_ue_id);
        }
        ctx.set_s1_conn(Some(conn));
        self.by_mme_ue_id.insert(conn.mme_ue_id, imsi);
    }

    // -- synthetic events (at-scale signaling workload) ------------------------

    /// Apply one synthetic control event. Returns false for events
    /// referencing unknown users and for an attach to a full slice.
    pub fn apply_event(&mut self, ev: CtrlEvent) -> bool {
        match ev {
            CtrlEvent::Attach { imsi } => {
                let attached = self.do_attach(imsi, QosPolicy::default(), DeviceClass::Smartphone, 0).is_some();
                self.metrics.attaches += u64::from(attached);
                attached
            }
            CtrlEvent::S1Handover { imsi, new_enb_teid, new_enb_ip } => {
                self.do_handover(imsi, new_enb_teid, new_enb_ip, 0)
            }
            CtrlEvent::ModifyBearer { imsi, ambr_kbps } => match self.context_of(imsi) {
                Some(ctx) => {
                    ctx.ctrl_write().qos.ambr_kbps = ambr_kbps;
                    self.metrics.bearer_updates += 1;
                    self.mark_dirty(imsi);
                    true
                }
                None => false,
            },
            CtrlEvent::Detach { imsi } => self.do_detach(imsi),
            CtrlEvent::Release { imsi } => self.suspend_user(imsi),
        }
    }

    // -- the dispatcher -----------------------------------------------------------

    /// Process one S1AP PDU from an eNodeB; returns the PDUs to send back.
    ///
    /// Admission, then routing to the owning UE's procedure machine, whose
    /// [`Disposition`] decides the rest. Every inbound PDU lands in exactly
    /// one signaling counter (`sig_consumed` / `proc_deduped` /
    /// `sig_dropped` / `sig_overflow` / `sig_shed_*`, or it is parked in a
    /// mailbox) — see [`CtrlMetrics::signaling_conservation_holds`].
    pub fn handle_s1ap(&mut self, pdu: &S1apPdu) -> Vec<S1apPdu> {
        let mut out = Vec::new();
        self.metrics.s1ap_rx += 1;
        if self.admit(pdu, &mut out) {
            match self.route(pdu) {
                Routed::Ue(imsi, msg) => self.deliver(imsi, msg, &mut out),
                Routed::Immediate(reply) => {
                    self.metrics.sig_consumed += 1;
                    out.extend(reply);
                }
                Routed::Discard => self.metrics.sig_dropped += 1,
            }
        }
        out
    }

    /// Network-triggered page for an idle UE (downlink arrived while
    /// suspended). Counted as inbound signaling so the conservation
    /// identities hold without special cases.
    pub fn page(&mut self, imsi: u64) -> Vec<S1apPdu> {
        self.inject(imsi, SigMsg::PageTrigger { imsi })
    }

    /// Network-triggered detach (operator action / subscription
    /// withdrawn). Counted as inbound signaling like [`Self::page`].
    pub fn network_detach(&mut self, imsi: u64) -> Vec<S1apPdu> {
        self.inject(imsi, SigMsg::NetDetach { imsi })
    }

    fn inject(&mut self, imsi: u64, msg: SigMsg) -> Vec<S1apPdu> {
        let mut out = Vec::new();
        self.metrics.s1ap_rx += 1;
        self.deliver(imsi, msg, &mut out);
        out
    }

    /// Consult the overload controller *before* any routing work. A shed
    /// PDU (`false`) is counted in its priority class's `sig_shed_*`
    /// counter and answered with a NAS `CongestionReject` carrying the
    /// configured back-off, so shed load is signaled rather than silently
    /// dropped.
    fn admit(&mut self, pdu: &S1apPdu, out: &mut Vec<S1apPdu>) -> bool {
        use crate::overload::{classify_for_admission, SigClass};
        if !self.overload.enabled() {
            return true;
        }
        let Some((class, ecgi, enb_ue_id, mme_ue_id)) = classify_for_admission(pdu) else { return true };
        // Every machine in the table has a procedure in flight.
        let in_flight = self.machines.len() as u64;
        if self.overload.admit(class, ecgi, in_flight, self.proc_tick) {
            return true;
        }
        match class {
            SigClass::Handover => self.metrics.sig_shed_handover += 1,
            SigClass::Attach => self.metrics.sig_shed_attach += 1,
            SigClass::Tau => self.metrics.sig_shed_tau += 1,
        }
        let backoff_ms = self.overload.backoff_ms();
        nas_to(out, enb_ue_id, mme_ue_id, NasMsg::CongestionReject { cause: cause::CONGESTION, backoff_ms });
        false
    }

    /// Resolve which UE a PDU belongs to. An Initial UE Message routes by
    /// the IMSI or GUTI its NAS names, GUTI-addressed NAS by GUTI (it may
    /// legally target a different user than the one signaling on this S1
    /// association), and every other UE-associated PDU by its MME UE id
    /// alone: that id is unique across the cluster, while eNodeB UE ids
    /// repeat across eNodeBs.
    fn route(&self, pdu: &S1apPdu) -> Routed {
        let by_mme = |id: u32| self.by_mme_ue_id.get(&id).copied();
        let (imsi, msg) = match *pdu {
            S1apPdu::InitialUeMessage { enb_ue_id, ecgi, tac, ref nas } => match NasMsg::decode(nas) {
                Ok(NasMsg::AttachRequest { imsi, .. }) => {
                    (Some(imsi), SigMsg::AttachStart { enb_ue_id, ecgi, tac, imsi })
                }
                Ok(NasMsg::ServiceRequest { guti }) => match self.user_of_guti(guti) {
                    Some(imsi) => (Some(imsi), SigMsg::ServiceStart { enb_ue_id, ecgi, guti }),
                    // Unknown GUTI: tell the eNodeB to release the UE;
                    // it will re-attach with its IMSI.
                    None => {
                        let release =
                            S1apPdu::UeContextReleaseCommand { enb_ue_id, mme_ue_id: 0, cause: cause::ILLEGAL_UE };
                        return Routed::Immediate(Some(release));
                    }
                },
                _ => return Routed::Discard,
            },
            S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, ref nas } => {
                let Ok(msg) = NasMsg::decode(nas) else { return Routed::Discard };
                let imsi = match msg {
                    NasMsg::DetachRequest { guti } | NasMsg::TrackingAreaUpdateRequest { guti, .. } => {
                        self.user_of_guti(guti)
                    }
                    _ => by_mme(mme_ue_id),
                };
                (imsi, SigMsg::Nas { enb_ue_id, mme_ue_id, msg })
            }
            S1apPdu::InitialContextSetupResponse { enb_ue_id, mme_ue_id, enb_teid, enb_ip } => {
                (by_mme(mme_ue_id), SigMsg::IcsRsp { enb_ue_id, mme_ue_id, enb_teid, enb_ip })
            }
            S1apPdu::PathSwitchRequest { enb_ue_id, mme_ue_id, new_enb_teid, new_enb_ip, ecgi } => {
                (by_mme(mme_ue_id), SigMsg::PathSwitch { enb_ue_id, mme_ue_id, new_enb_teid, new_enb_ip, ecgi })
            }
            S1apPdu::HandoverRequired { enb_ue_id, mme_ue_id, .. } => {
                (by_mme(mme_ue_id), SigMsg::HoRequired { enb_ue_id, mme_ue_id })
            }
            S1apPdu::HandoverRequestAck { mme_ue_id, new_enb_teid, new_enb_ip } => {
                (by_mme(mme_ue_id), SigMsg::HoAck { mme_ue_id, new_enb_teid, new_enb_ip })
            }
            S1apPdu::UeContextReleaseRequest { enb_ue_id, mme_ue_id, cause } => {
                (by_mme(mme_ue_id), SigMsg::ReleaseReq { enb_ue_id, mme_ue_id, cause })
            }
            // A completed release needs no further action.
            S1apPdu::UeContextReleaseComplete { .. } => return Routed::Immediate(None),
            // MME-originated PDUs arriving inbound are protocol errors;
            // ignore them rather than crash the control thread.
            _ => return Routed::Discard,
        };
        imsi.map_or(Routed::Discard, |imsi| Routed::Ue(imsi, msg))
    }

    /// Check the UE's machine out of the table, deliver the message, and
    /// drain the mailbox.
    fn deliver(&mut self, imsi: u64, msg: SigMsg, out: &mut Vec<S1apPdu>) {
        let mut m = self.machines.remove(&imsi).unwrap_or_else(|| UeMachine::new(imsi, self.proc_tick));
        self.deliver_one(&mut m, msg, out);
        self.drain(m, out);
    }

    /// Deliver deferred messages for as long as the machine stays idle
    /// (each may start a procedure and stop the drain), then put it back
    /// if a procedure is in flight, or retire it: the table only holds
    /// UEs with signaling in flight.
    fn drain(&mut self, mut m: UeMachine, out: &mut Vec<S1apPdu>) {
        while !m.in_flight() {
            let Some(next) = m.mailbox.pop_front() else { return };
            self.deliver_one(&mut m, next, out);
        }
        self.machines.insert(m.imsi, m);
    }

    /// Apply the machine's disposition for one message. Only a message
    /// that moves the machine (delivered, preempting, or deduplicated)
    /// counts as progress for the supervision timer.
    fn deliver_one(&mut self, m: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) {
        let disposition = m.dispose(&msg);
        if matches!(disposition, Disposition::Deliver | Disposition::Preempt | Disposition::Dedup) {
            m.last_progress = self.proc_tick;
        }
        match disposition {
            Disposition::Deliver => self.advance(m, msg, out),
            Disposition::Preempt => {
                self.exit(m, Exit::Preempted);
                self.advance(m, msg, out);
            }
            Disposition::Dedup => {
                self.metrics.proc_deduped += 1;
                out.extend_from_slice(&m.last_tx);
            }
            Disposition::Defer if m.mailbox.len() < MAILBOX_CAP => {
                self.metrics.sig_deferred += 1;
                m.mailbox.push_back(msg);
            }
            Disposition::Defer => {
                // A full mailbox is its own drop cause, so mailbox
                // pressure reads apart from protocol discards. A service
                // request gets a congestion answer so the UE backs off.
                self.metrics.sig_overflow += 1;
                if let SigMsg::ServiceStart { enb_ue_id, .. } = msg {
                    nas_to(out, enb_ue_id, 0, NasMsg::ServiceReject { cause: cause::CONGESTION });
                }
            }
            Disposition::Abort => {
                self.exit(m, Exit::Aborted);
                self.metrics.sig_consumed += 1;
                // Only a NAS message mid-attach aborts.
                if let SigMsg::Nas { enb_ue_id, mme_ue_id, .. } = msg {
                    nas_to(out, enb_ue_id, mme_ue_id, NasMsg::AttachReject { cause: cause::PROTOCOL_ERROR });
                }
            }
            Disposition::Drop => self.metrics.sig_dropped += 1,
        }
    }

    /// The stepper: run the leg for the machine's (wait state, message)
    /// pair and keep the books. A leg out of `Idle` starts a procedure (the
    /// one write of `proc_started`); one that completes or fails ends it
    /// through [`Self::exit`]. The reply is cached for retransmissions only
    /// while the procedure stays in flight (an idle machine retires).
    fn advance(&mut self, m: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) {
        self.metrics.sig_consumed += 1;
        let mark = out.len();
        if let Some(leg) = leg(m.state.wait(), msg.kind()) {
            let step = (leg.effect)(self, m, msg, out);
            if !matches!(step, Step::Stale) && !m.in_flight() {
                self.metrics.proc_started += 1;
            }
            match step {
                Step::Stale => {}
                Step::Fail => self.exit(m, Exit::Aborted),
                Step::To(next) => {
                    let reattach = m.preexisting && next.wait() == Wait::AttachIcs;
                    debug_assert!(next.wait() == leg.to || reattach, "{:?} --{:?}--> {next:?}", leg.from, leg.on);
                    if next == ProcState::Idle {
                        self.exit(m, Exit::Completed);
                    } else {
                        m.state = next;
                    }
                }
            }
        }
        m.last_tx.clear();
        if m.in_flight() {
            m.last_tx.extend_from_slice(&out[mark..]);
        }
    }

    /// The one way a procedure ends (completed, preempted, aborted, expired,
    /// or dropped with its user). Writes the terminal counter; unindexes
    /// the MME UE id the machine owns (an attach's before its user record
    /// exists, a page's interim one); closes a page (resolved or expired,
    /// and on expiry its buffered downlink dropped); rolls back a
    /// half-created attach.
    fn exit(&mut self, m: &mut UeMachine, how: Exit) {
        let metrics = &mut self.metrics;
        *match how {
            Exit::Completed => &mut metrics.proc_completed,
            Exit::Preempted => &mut metrics.proc_preempted,
            Exit::Aborted => &mut metrics.proc_aborted,
            Exit::Expired => &mut metrics.proc_expired,
        } += 1;
        let attach_user = matches!(m.state, ProcState::AttachWaitIcs { .. } | ProcState::AttachWaitComplete { .. });
        // The user record is the attach's own: roll it back. Not a detach,
        // but the node still retires its steering.
        if attach_user && how != Exit::Completed && !m.preexisting && self.remove_user(m.imsi) {
            self.departed = Some(m.imsi);
        }
        if let ProcState::AttachWaitAuth { mme_ue_id, .. } | ProcState::AttachWaitSmc { mme_ue_id, .. } = m.state {
            self.by_mme_ue_id.remove(&mme_ue_id);
        }
        if let ProcState::PagingWait { mme_ue_id, .. } = m.state {
            if how == Exit::Completed {
                self.metrics.paging_resolved += 1;
            } else {
                self.metrics.paging_expired += 1;
            }
            self.by_mme_ue_id.remove(&mme_ue_id);
            // A preemptor's `Remove` or `Insert` settles the buffer; after
            // an expiry nothing else would.
            if how == Exit::Expired {
                if let Some((_, ue_ip)) = self.keys_of(m.imsi) {
                    self.pending_updates.push(DpUpdate::DropIdleBuffer { ue_ip });
                }
            }
        }
        m.state = ProcState::Idle;
        m.preexisting = false;
        m.last_tx.clear();
    }

    /// Reap a UE's machine out of the table: its mailbox is dropped and its
    /// procedure ends as `how`. A machine checked out for stepping is not
    /// in the table, so this is a no-op mid-delivery.
    fn drop_machine(&mut self, imsi: u64, how: Exit) -> bool {
        let Some(mut m) = self.machines.remove(&imsi) else { return false };
        self.metrics.sig_dropped += m.mailbox.len() as u64;
        self.exit(&mut m, how);
        true
    }

    // -- procedure legs (the effects `LEGS` names) -----------------------------
    // Each effect mutates the control plane for one delivered message and
    // reports where the procedure goes; `advance` keeps the books.

    /// Attach Request: challenge a fresh IMSI through the HSS, or re-accept
    /// an attached one (the UE lost our accept) without re-authentication,
    /// with the same identifiers and the MME UE id of its association.
    fn attach_start(&mut self, m: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let SigMsg::AttachStart { enb_ue_id, ecgi, .. } = msg else { return Step::Stale };
        let imsi = m.imsi;
        m.enb_ue_id = enb_ue_id;
        if let Some((handle, conn)) = self.context_of(imsi).map(|ctx| (ctx.handle(), ctx.s1_conn())) {
            let mme_ue_id = conn.map_or_else(|| self.allocate_mme_ue_id(), |c| c.mme_ue_id);
            self.activate(imsi, handle, Some(ecgi), S1Conn { mme_ue_id, enb_ue_id });
            if let Some(ctx) = self.context_of(imsi) {
                out.push(self.accept_attach(&ctx.ctrl_read(), enb_ue_id, mme_ue_id));
            }
            m.preexisting = true;
            return Step::To(ProcState::AttachWaitIcs { imsi, mme_ue_id });
        }
        let Some(proxy) = self.proxy.clone() else { return Step::Stale };
        let mme_ue_id = self.allocate_mme_ue_id();
        let Ok(ch) = proxy.authentication_info(imsi) else {
            self.metrics.attach_rejects += 1;
            nas_to(out, enb_ue_id, mme_ue_id, NasMsg::AttachReject { cause: cause::IMSI_UNKNOWN });
            return Step::Fail;
        };
        // Until the user record exists the machine owns the id.
        self.by_mme_ue_id.insert(mme_ue_id, imsi);
        nas_to(out, enb_ue_id, mme_ue_id, NasMsg::AuthenticationRequest { rand: ch.rand, autn: ch.autn });
        Step::To(ProcState::AttachWaitAuth { imsi, xres: ch.xres, ecgi, mme_ue_id })
    }

    fn attach_auth(&mut self, m: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let ProcState::AttachWaitAuth { imsi, xres, ecgi, mme_ue_id } = m.state else { return Step::Stale };
        let SigMsg::Nas { enb_ue_id, msg: NasMsg::AuthenticationResponse { res }, .. } = msg else {
            return Step::Stale;
        };
        if res != xres {
            self.metrics.attach_rejects += 1;
            nas_to(out, enb_ue_id, mme_ue_id, NasMsg::AuthenticationReject { cause: cause::AUTH_FAILURE });
            return Step::Fail;
        }
        nas_to(out, enb_ue_id, mme_ue_id, NasMsg::SecurityModeCommand { integrity_alg: 2, ciphering_alg: 1 });
        Step::To(ProcState::AttachWaitSmc { imsi, ecgi, mme_ue_id })
    }

    /// Security mode complete: create the user from the HSS profile,
    /// install its PCRF rules, and send the context setup. A failed HSS
    /// update or a full slice rejects the attach.
    fn attach_smc(&mut self, m: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let ProcState::AttachWaitSmc { imsi, ecgi, mme_ue_id } = m.state else { return Step::Stale };
        let SigMsg::Nas { enb_ue_id, .. } = msg else { return Step::Stale };
        let Some(proxy) = self.proxy.clone() else { return Step::Fail };
        // Counted on AttachComplete instead.
        let attached = proxy.update_location(imsi).ok().and_then(|sub| {
            let qos = QosPolicy { qci: sub.default_qci, ambr_kbps: sub.ambr_kbps, gbr_kbps: 0 };
            self.do_attach(imsi, qos, DeviceClass::Smartphone, ecgi)
        });
        let Some(handle) = attached else {
            self.metrics.attach_rejects += 1;
            nas_to(out, enb_ue_id, mme_ue_id, NasMsg::AttachReject { cause: cause::NETWORK_FAILURE });
            return Step::Fail;
        };
        // The user record exists: it takes over the association.
        self.bind_s1(imsi, handle, S1Conn { mme_ue_id, enb_ue_id: m.enb_ue_id });
        let rules = proxy.fetch_rules(mme_ue_id, imsi).unwrap_or_default();
        if let Some(ctx) = self.slab.resolve(handle) {
            let mut c = ctx.ctrl_write();
            for r in &rules {
                let Some(rule_id) = Pcef::gx_id(r) else { continue };
                // A slice sends each rule to its data plane once.
                if self.installed_rules.insert(rule_id) {
                    let (program, action) = Pcef::from_gx(r);
                    self.pending_updates.push(DpUpdate::InstallRule { id: rule_id, program, action });
                }
                c.pcef_rules.push(rule_id);
            }
            out.push(self.accept_attach(&c, enb_ue_id, mme_ue_id));
        }
        Step::To(ProcState::AttachWaitIcs { imsi, mme_ue_id })
    }

    /// Context setup response: record the eNodeB's tunnel endpoint.
    fn attach_ics(&mut self, m: &mut UeMachine, msg: SigMsg, _: &mut Vec<S1apPdu>) -> Step {
        let ProcState::AttachWaitIcs { imsi, mme_ue_id } = m.state else { return Step::Stale };
        let SigMsg::IcsRsp { enb_teid, enb_ip, .. } = msg else { return Step::Stale };
        if let Some(ctx) = self.context_of(imsi) {
            let mut c = ctx.ctrl_write();
            (c.tunnels.enb_teid, c.tunnels.enb_ip) = (enb_teid, enb_ip);
        }
        self.mark_dirty(imsi);
        Step::To(ProcState::AttachWaitComplete { imsi, mme_ue_id })
    }

    fn attach_complete(&mut self, _: &mut UeMachine, _: SigMsg, _: &mut Vec<S1apPdu>) -> Step {
        self.metrics.attaches += 1;
        Step::To(ProcState::Idle)
    }

    /// S1 Handover Required: ask the *target* eNodeB (the node layer
    /// routes the request there) to prepare, and wait for its ack.
    fn ho_required(&mut self, m: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let SigMsg::HoRequired { enb_ue_id, mme_ue_id } = msg else { return Step::Stale };
        let imsi = m.imsi;
        // Re-check: a deferred handover may outlive the session.
        let Some(ctx) = self.context_of(imsi).filter(|_| self.by_mme_ue_id.get(&mme_ue_id) == Some(&imsi)) else {
            return Step::Stale;
        };
        let (handle, gw_teid, ambr_kbps) = {
            let c = ctx.ctrl_read();
            (ctx.handle(), c.tunnels.gw_teid, c.qos.ambr_kbps)
        };
        m.enb_ue_id = enb_ue_id;
        self.bind_s1(imsi, handle, S1Conn { mme_ue_id, enb_ue_id });
        out.push(S1apPdu::HandoverRequest { mme_ue_id, gw_teid, gw_ip: self.gw_ip, ambr_kbps });
        Step::To(ProcState::HandoverWaitAck { imsi, source_enb_ue_id: enb_ue_id, mme_ue_id })
    }

    fn ho_ack(&mut self, m: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let ProcState::HandoverWaitAck { imsi, source_enb_ue_id, mme_ue_id } = m.state else { return Step::Stale };
        let SigMsg::HoAck { new_enb_teid, new_enb_ip, .. } = msg else { return Step::Stale };
        self.do_handover(imsi, new_enb_teid, new_enb_ip, 0);
        out.push(S1apPdu::HandoverCommand { enb_ue_id: source_enb_ue_id, mme_ue_id });
        Step::To(ProcState::Idle)
    }

    /// Downlink arrived for an idle UE: page it. The supervision tick
    /// retransmits the page until the UE answers with a Service Request
    /// or the retry budget runs out.
    fn page_trigger(&mut self, m: &mut UeMachine, _: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let imsi = m.imsi;
        // Stale trigger: the UE re-activated or detached before it drained.
        let Some(ctx) = self.context_of(imsi).filter(|_| self.idle_ues.contains(&imsi)) else { return Step::Stale };
        let guti = ctx.ctrl_read().guti;
        let mme_ue_id = self.allocate_mme_ue_id();
        self.by_mme_ue_id.insert(mme_ue_id, imsi);
        self.metrics.paged += 1;
        out.push(S1apPdu::Paging { mme_ue_id, guti });
        let next_retx = self.proc_tick.saturating_add(PAGING_RETX_TICKS);
        Step::To(ProcState::PagingWait { imsi, mme_ue_id, retries: 0, next_retx })
    }

    /// Service Request (idle→active): re-activate a known user on a fresh
    /// S1 association. A UE answering a page completes the page first.
    fn service_start(&mut self, m: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let SigMsg::ServiceStart { enb_ue_id, ecgi, guti } = msg else { return Step::Stale };
        let t0 = std::time::Instant::now();
        let imsi = m.imsi;
        m.enb_ue_id = enb_ue_id;
        // Re-check: a deferred service request may outlive the user.
        let Some(handle) = self.users.get(imsi).copied().filter(|_| self.user_of_guti(guti) == Some(imsi)) else {
            out.push(S1apPdu::UeContextReleaseCommand { enb_ue_id, mme_ue_id: 0, cause: cause::ILLEGAL_UE });
            return Step::Stale;
        };
        if m.in_flight() {
            self.exit(m, Exit::Completed);
        }
        let mme_ue_id = self.allocate_mme_ue_id();
        self.activate(imsi, handle, (ecgi != 0).then_some(ecgi), S1Conn { mme_ue_id, enb_ue_id });
        self.metrics.service_requests += 1;
        self.service_request_ns.record(t0.elapsed().as_nanos() as u64);
        nas_to(out, enb_ue_id, mme_ue_id, NasMsg::ServiceAccept);
        Step::To(ProcState::Idle)
    }

    fn tau(&mut self, _: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let SigMsg::Nas { enb_ue_id, mme_ue_id, msg: NasMsg::TrackingAreaUpdateRequest { guti, tac } } = msg else {
            return Step::Stale;
        };
        // Re-check: a deferred TAU may outlive the user.
        let Some(user) = self.user_of_guti(guti) else { return Step::Stale };
        let Some(ctx) = self.context_of(user) else { return Step::Stale };
        ctx.ctrl_write().tac = tac;
        self.mark_dirty(user);
        nas_to(out, enb_ue_id, mme_ue_id, NasMsg::TrackingAreaUpdateAccept { tac });
        Step::To(ProcState::Idle)
    }

    fn detach(&mut self, _: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let SigMsg::Nas { enb_ue_id, mme_ue_id, msg: NasMsg::DetachRequest { guti } } = msg else {
            return Step::Stale;
        };
        // Routing resolved the GUTI, but a preemption rollback may just
        // have removed the user.
        let Some(user) = self.user_of_guti(guti) else { return Step::Stale };
        self.do_detach(user);
        nas_to(out, enb_ue_id, mme_ue_id, NasMsg::DetachAccept);
        Step::To(ProcState::Idle)
    }

    /// Network-triggered detach: tear the user down and tell the UE and
    /// the eNodeB.
    fn net_detach(&mut self, m: &mut UeMachine, _: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let Some(conn) = self.context_of(m.imsi).map(|ctx| ctx.s1_conn()) else { return Step::Stale };
        let (enb_ue_id, mme_ue_id, cause) = (m.enb_ue_id, conn.map_or(0, |c| c.mme_ue_id), cause::NETWORK_FAILURE);
        self.do_detach(m.imsi);
        nas_to(out, enb_ue_id, mme_ue_id, NasMsg::NetworkDetachRequest { cause });
        out.push(S1apPdu::UeContextReleaseCommand { enb_ue_id, mme_ue_id, cause });
        Step::To(ProcState::Idle)
    }

    /// X2 path switch: the one in-place tunnel rewrite.
    fn path_switch(&mut self, m: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let SigMsg::PathSwitch { enb_ue_id, mme_ue_id, new_enb_teid, new_enb_ip, ecgi } = msg else {
            return Step::Stale;
        };
        // Re-check: a deferred path switch may outlive the session.
        if self.by_mme_ue_id.get(&mme_ue_id) != Some(&m.imsi)
            || !self.do_handover(m.imsi, new_enb_teid, new_enb_ip, ecgi)
        {
            return Step::Stale;
        }
        out.push(S1apPdu::PathSwitchRequestAck { enb_ue_id, mme_ue_id });
        Step::To(ProcState::Idle)
    }

    /// S1 Release (active→idle): suspend the data path (tunnels torn
    /// down, context retained) and answer with the release command. The
    /// UE stays attached and reachable by paging.
    fn release(&mut self, m: &mut UeMachine, msg: SigMsg, out: &mut Vec<S1apPdu>) -> Step {
        let SigMsg::ReleaseReq { enb_ue_id, mme_ue_id, .. } = msg else { return Step::Stale };
        // Re-check: a deferred release may outlive the user.
        if !self.suspend_user(m.imsi) {
            return Step::Stale;
        }
        self.metrics.releases += 1;
        out.push(S1apPdu::UeContextReleaseCommand { enb_ue_id, mme_ue_id, cause: cause::SUCCESS });
        Step::To(ProcState::Idle)
    }

    // -- helpers the legs share --------------------------------------------------

    /// Re-announce a known user as active on a new S1 association
    /// (service request, duplicate attach), in the cell `ecgi` if known.
    /// The `Insert` promotes it back into the primary table and flushes
    /// whatever its idle buffer parked.
    fn activate(&mut self, imsi: u64, handle: UeHandle, ecgi: Option<u32>, conn: S1Conn) {
        if let Some(ctx) = self.slab.resolve(handle) {
            let mut c = ctx.ctrl_write();
            c.ecgi = ecgi.unwrap_or(c.ecgi);
            let (gw_teid, ue_ip) = (c.tunnels.gw_teid, c.ue_ip);
            self.pending_updates.push(DpUpdate::Insert { gw_teid, ue_ip, handle, active: true });
        }
        self.idle_ues.remove(&imsi);
        self.bind_s1(imsi, handle, conn);
        self.mark_dirty(imsi);
    }

    /// The Initial Context Setup Request carrying the user's Attach Accept.
    fn accept_attach(&self, c: &ControlState, enb_ue_id: u32, mme_ue_id: u32) -> S1apPdu {
        let nas = NasMsg::AttachAccept { guti: c.guti, ue_ip: c.ue_ip, tac: self.tac }.encode();
        let (gw_teid, gw_ip, ambr_kbps) = (c.tunnels.gw_teid, self.gw_ip, c.qos.ambr_kbps);
        S1apPdu::InitialContextSetupRequest { enb_ue_id, mme_ue_id, gw_teid, gw_ip, ambr_kbps, nas }
    }

    /// Suspend `imsi`'s data path: the data plane marks its slot idle
    /// (context retained, still indexed) so downlink buffers behind a page.
    fn suspend_user(&mut self, imsi: u64) -> bool {
        let Some((gw_teid, ue_ip)) = self.keys_of(imsi) else { return false };
        self.pending_updates.push(DpUpdate::Suspend { gw_teid, ue_ip, imsi });
        self.idle_ues.insert(imsi);
        self.mark_dirty(imsi);
        true
    }

    // -- procedure supervision ---------------------------------------------------

    /// Advance the supervision clock (ticks are whatever unit the caller
    /// supervises in — the HA layer uses its own tick counter).
    pub fn note_tick(&mut self, now: u64) {
        self.proc_tick = now;
        // Housekeeping rides the tick: step any in-progress index
        // migration/shrink so idle slices still converge to the compact
        // layout after a mass detach.
        self.maintain_tables();
        // The sweep's PDUs answer no inbound PDU: they stage until the
        // wiring drains them.
        let mut tx = std::mem::take(&mut self.pending_tx);
        self.page_retx_sweep(now, &mut tx);
        self.pending_tx = tx;
    }

    /// Timer-driven paging retransmission: every `PAGING_RETX_TICKS`
    /// ticks a silent page is re-sent, up to `PAGING_MAX_RETX` times;
    /// after that the page expires — the idle buffer is dropped and the
    /// UE stays attached-idle — and the messages deferred behind it run.
    /// Deterministic tick arithmetic, IMSI order.
    fn page_retx_sweep(&mut self, now: u64, out: &mut Vec<S1apPdu>) {
        let due =
            self.machines_where(|m| matches!(m.state, ProcState::PagingWait { next_retx, .. } if next_retx <= now));
        for imsi in due {
            let Some(m) = self.machines.get_mut(&imsi) else { continue };
            let ProcState::PagingWait { retries, next_retx, .. } = &mut m.state else { continue };
            if *retries < PAGING_MAX_RETX {
                *retries += 1;
                *next_retx = now.saturating_add(PAGING_RETX_TICKS);
                m.last_progress = now;
                self.metrics.paging_retx += 1;
                out.extend_from_slice(&m.last_tx);
            } else if let Some(mut m) = self.machines.remove(&imsi) {
                self.exit(&mut m, Exit::Expired);
                self.drain(m, out);
            }
        }
    }

    /// Expire procedures that made no progress for more than `max_age`
    /// ticks: drop their mailboxes and end them through the exit hook
    /// (which rolls back half-created users). Returns how many machines
    /// were reaped. `max_age == 0` disables expiry.
    pub fn expire_procedures(&mut self, now: u64, max_age: u64) -> usize {
        self.proc_tick = now;
        if max_age == 0 {
            return 0;
        }
        let stale = self.machines_where(|m| now.saturating_sub(m.last_progress) > max_age);
        // An earlier expiry's rollback may already have reaped a machine
        // on the list.
        stale.into_iter().filter(|&imsi| self.drop_machine(imsi, Exit::Expired)).count()
    }

    /// The machines `pick` selects, in IMSI order (`HashMap` order is
    /// arbitrary; replication and the simulator need determinism). Every
    /// machine in the table has a procedure in flight.
    fn machines_where(&self, pick: impl Fn(&UeMachine) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self.machines.values().filter(|m| pick(m)).map(|m| m.imsi).collect();
        v.sort_unstable();
        v
    }

    /// UEs whose procedure has been in flight without progress for more
    /// than `bound` ticks, as `(imsi, age)` in IMSI order — the "stuck
    /// procedure" oracle input.
    pub fn stuck_procedures(&self, now: u64, bound: u64) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .machines
            .values()
            .filter(|m| m.in_flight())
            .map(|m| (m.imsi, now.saturating_sub(m.last_progress)))
            .filter(|(_, age)| *age > bound)
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of procedures currently in flight.
    pub fn procedures_in_flight(&self) -> u64 {
        self.machines.values().filter(|m| m.in_flight()).count() as u64
    }

    /// Signaling messages currently parked in per-UE mailboxes.
    pub fn mailbox_backlog(&self) -> u64 {
        self.machines.values().map(|m| m.mailbox.len() as u64).sum()
    }

    /// Whether a GUTI resolves to a user on this slice (routing probe for
    /// the node layer).
    pub fn knows_guti(&self, guti: u64) -> bool {
        self.user_of_guti(guti).is_some()
    }

    /// The IMSI a GUTI names: by arithmetic when it names a live slot
    /// whose registered context carries it, else through the foreign
    /// index.
    fn user_of_guti(&self, guti: u64) -> Option<u64> {
        let offset = u32::try_from(guti.wrapping_sub(self.alloc.guti_base)).ok().filter(|&o| o < REGION);
        let native = offset.and_then(|o| self.slab.named(o)).and_then(|(h, _)| {
            let (imsi, named) = self.slab.resolve(h)?.imsi_guti();
            (named == guti && self.users.get(imsi) == Some(&h)).then_some(imsi)
        });
        native.or_else(|| self.by_guti.get(guti).copied())
    }

    /// Pages still waiting for the UE to answer — the `paging_in_flight`
    /// term of `paged == paging_resolved + paging_expired + in_flight`.
    pub fn paging_in_flight(&self) -> u64 {
        self.machines.values().filter(|m| matches!(m.state, ProcState::PagingWait { .. })).count() as u64
    }

    /// Whether `imsi` has a paging procedure in flight.
    pub fn is_paging(&self, imsi: u64) -> bool {
        self.machines.get(&imsi).is_some_and(|m| matches!(m.state, ProcState::PagingWait { .. }))
    }

    /// Number of attached UEs currently in ECM-IDLE (suspended).
    pub fn idle_user_count(&self) -> usize {
        self.idle_ues.len()
    }

    /// Drain PDUs emitted by the supervision sweep (paging retransmits
    /// and post-expiry mailbox drains) — they have no inbound PDU whose
    /// reply could carry them.
    pub fn take_pending_tx(&mut self) -> Vec<S1apPdu> {
        std::mem::take(&mut self.pending_tx)
    }

    /// Queue a demotion of `imsi` to the data plane's secondary table
    /// (two-level management; the control plane owns demotion policy).
    pub fn demote_user(&mut self, imsi: u64) -> bool {
        match self.keys_of(imsi) {
            Some((gw_teid, ue_ip)) => {
                self.pending_updates.push(DpUpdate::Demote { gw_teid, ue_ip });
                true
            }
            None => false,
        }
    }

    // -- migration, recovery and HA hand-off -----------------------------------

    /// A by-value copy of a user's consolidated state: the control half
    /// and a seqlock snapshot of the counter half. The one place a
    /// user's state leaves its context — checkpoints, HA replication and
    /// migration all carry this record.
    pub fn record_of(&self, imsi: u64) -> Option<UserRecord> {
        let ctx = self.context_of(imsi)?;
        let ctrl = ctx.ctrl_read().clone();
        Some(UserRecord { ctrl, counters: ctx.counters() })
    }

    /// Source side of a migration: copy the user out by value, remove
    /// every local index, and tell the data plane to forget the user
    /// (which also frees its slab slot — the record never references the
    /// source arena).
    pub fn extract_user(&mut self, imsi: u64) -> Option<UserRecord> {
        let rec = self.record_of(imsi)?;
        // An in-flight procedure does not migrate: the machine is dropped
        // (accounted as aborted) and the peer retries against the new
        // owner. Only the committed ControlState moves.
        self.remove_user(imsi);
        self.metrics.migrations_out += 1;
        Some(rec)
    }

    /// The one way a user enters this plane from outside: a migration's
    /// destination (or its abort's return to the source), a checkpoint
    /// restore ([`crate::recovery`]) and an HA adoption. The context is
    /// allocated in *this* slice's arena; the keys (TEID / UE IP) are the
    /// record's, so in-flight tunnels stay valid, and the data plane is
    /// told exactly as for an attach. Over a live user the old context is
    /// replaced, the S1 association it is indexed under carries over, and
    /// the user leaves ECM-IDLE with the insert that wakes it.
    /// Its slot is freed by the data plane: the insert frees whatever it
    /// displaces under the same keys (and wakes a suspended user's
    /// buffer), while old keys the record does not keep leave first.
    /// False (nothing restored) when the arena is full.
    pub fn restore_user(&mut self, rec: UserRecord) -> bool {
        let UserRecord { ctrl, counters } = rec;
        let (imsi, guti, gw_teid, ue_ip) = (ctrl.imsi, ctrl.guti, ctrl.tunnels.gw_teid, ctrl.ue_ip);
        let old = self.context_of(imsi).map(|ctx| {
            let c = ctx.ctrl_read();
            (c.guti, c.tunnels.gw_teid, c.ue_ip, ctx.s1_conn())
        });
        let Some(handle) = self.slab.alloc(ctrl, counters) else { return false };
        if let Some((old_guti, old_teid, old_ip, conn)) = old {
            if (old_teid, old_ip) != (gw_teid, ue_ip) {
                self.pending_updates.push(DpUpdate::Remove { gw_teid: old_teid, ue_ip: old_ip });
            }
            if old_guti != guti {
                self.by_guti.remove(old_guti);
            }
            if let Some(ctx) = self.slab.resolve(handle) {
                ctx.set_s1_conn(conn);
            }
        }
        self.users.insert(imsi, handle);
        // Foreign unless the record's identifiers name the slot it landed in.
        let o = self.slab.offset_of(handle);
        let a = self.alloc;
        if o.map(|o| (a.guti_base + u64::from(o), a.teid_base + o, a.ue_ip_base + o)) != Some((guti, gw_teid, ue_ip)) {
            self.by_guti.insert(guti, imsi);
        }
        self.pending_updates.push(DpUpdate::Insert { gw_teid, ue_ip, handle, active: true });
        self.idle_ues.remove(&imsi);
        self.mark_dirty(imsi);
        true
    }

    /// Count a migration that landed here through
    /// [`Self::restore_user`] (the source counted it out at
    /// [`Self::extract_user`]).
    pub(crate) fn note_migration_in(&mut self) {
        self.metrics.migrations_in += 1;
    }

    /// Report every user's accumulated usage to the PCRF over Gx
    /// (CCR-Update), applying any AMBR override the PCRF pushes back —
    /// the charging loop the paper assigns to the control thread ("reads
    /// the user's counter state [...] communicated back to the PCRF").
    /// Returns the number of users reported. No-op without a proxy.
    pub fn report_usage_to_pcrf(&mut self) -> usize {
        let proxy = match &self.proxy {
            Some(p) => Arc::clone(p),
            None => return 0,
        };
        let mut reported = 0;
        for (imsi, &handle) in self.users.iter() {
            let Some(ctx) = self.slab.resolve(handle) else { continue };
            let snap = ctx.counters().snapshot();
            if let Ok(new_ambr) = proxy.report_usage(reported as u32 + 1, imsi, snap.uplink_bytes, snap.downlink_bytes)
            {
                if new_ambr != 0 {
                    ctx.ctrl_write().qos.ambr_kbps = new_ambr;
                    if let Some(dirty) = &mut self.dirty {
                        dirty.insert(imsi);
                    }
                }
                reported += 1;
            }
        }
        reported
    }

    // -- bookkeeping --------------------------------------------------------------

    /// Drain updates queued for the data thread.
    pub fn take_updates(&mut self) -> Vec<DpUpdate> {
        std::mem::take(&mut self.pending_updates)
    }

    /// Drain updates queued for the data thread in place: the queue keeps
    /// its capacity, so the slice wiring moves updates without a
    /// reallocation per message.
    pub fn drain_updates(&mut self) -> std::vec::Drain<'_, DpUpdate> {
        self.pending_updates.drain(..)
    }

    /// Whether updates are waiting.
    pub fn has_updates(&self) -> bool {
        !self.pending_updates.is_empty()
    }

    /// Arm the replication hook: from now on every control-state change
    /// marks its IMSI for [`ControlPlane::take_dirty_users`]. One-way —
    /// the HA layer arms every slice it replicates; a plane nothing
    /// drains stays unarmed and keeps no dirty set.
    pub fn track_dirty_users(&mut self) {
        self.dirty.get_or_insert_with(Default::default);
    }

    fn mark_dirty(&mut self, imsi: u64) {
        if let Some(dirty) = &mut self.dirty {
            dirty.insert(imsi);
        }
    }

    /// Drain the IMSIs whose control state changed since the last drain
    /// (ascending, so replication is deterministic; empty while unarmed).
    /// An IMSI that no longer resolves via [`ControlPlane::context_of`]
    /// was detached/extracted — replicate that as a deletion.
    pub fn take_dirty_users(&mut self) -> Vec<u64> {
        self.dirty.as_mut().map_or_else(Vec::new, |dirty| std::mem::take(dirty).into_iter().collect())
    }

    /// The user that last left through a detach or an attach rollback, once.
    pub fn take_departed(&mut self) -> Option<u64> {
        self.departed.take()
    }

    /// Look up a user's shared context by IMSI. The returned reference
    /// borrows the slice's arena (it derefs to [`crate::state::UeContext`]
    /// and exposes its slab handle).
    pub fn context_of(&self, imsi: u64) -> Option<UeRef<'_>> {
        self.slab.resolve(*self.users.get(imsi)?)
    }

    /// Counter snapshot for PCRF reporting (reads the data-thread-written
    /// half — the legal cross-plane read).
    pub fn counters_of(&self, imsi: u64) -> Option<CounterSnapshot> {
        Some(self.context_of(imsi)?.counters().snapshot())
    }

    /// Number of users homed on this slice.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Size of the MME-UE-id routing index (leak oracle).
    pub fn s1_index_len(&self) -> usize {
        self.by_mme_ue_id.len()
    }

    /// Control-plane metrics.
    pub fn metrics(&self) -> CtrlMetrics {
        self.metrics
    }

    /// Attach-procedure processing latency.
    pub fn attach_latency(&self) -> &LatencyHistogram {
        &self.attach_ns
    }

    /// Service-request (idle→active) processing latency.
    pub fn service_request_latency(&self) -> &LatencyHistogram {
        &self.service_request_ns
    }

    /// Handover processing latency (S1 and X2 paths).
    pub fn handover_latency(&self) -> &LatencyHistogram {
        &self.handover_ns
    }

    /// The IMSIs of all users on this slice, ascending (test / harness
    /// helper — sorted so callers iterate deterministically).
    pub fn imsis(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.users.keys().collect();
        v.sort_unstable();
        v
    }
}

/// Drive a complete attach for `imsi` through `send` (a slice's control
/// plane, an inline slice, or a whole node), emulating the UE/eNodeB side
/// (SIM key derived as the HSS provisions it). Returns the
/// (guti, ue_ip, gw_teid) from the Attach Accept. Test/bench helper —
/// this is what the ng4T RAN emulator did for the paper.
pub fn run_attach_with(
    mut send: impl FnMut(&S1apPdu) -> Vec<S1apPdu>,
    imsi: u64,
    enb_ue_id: u32,
    enb_teid: u32,
    enb_ip: u32,
) -> Option<(u64, u32, u32)> {
    use pepc_backend::Hss;
    let cp = &mut send;
    // 1. Initial UE message with NAS Attach Request.
    let rsp = cp(&S1apPdu::InitialUeMessage {
        enb_ue_id,
        ecgi: 0x100,
        tac: 1,
        nas: NasMsg::AttachRequest { imsi, ue_capability: 0xF0 }.encode(),
    });
    let (mme_ue_id, rand) = match rsp.as_slice() {
        [S1apPdu::DownlinkNasTransport { mme_ue_id, nas, .. }] => match NasMsg::decode(nas).ok()? {
            NasMsg::AuthenticationRequest { rand, .. } => (*mme_ue_id, rand),
            _ => return None,
        },
        _ => return None,
    };
    // 2. The SIM answers the challenge.
    let res = sim_response(Hss::key_for(imsi), rand);
    let rsp =
        cp(&S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas: NasMsg::AuthenticationResponse { res }.encode() });
    match rsp.as_slice() {
        [S1apPdu::DownlinkNasTransport { nas, .. }] => {
            if !matches!(NasMsg::decode(nas).ok()?, NasMsg::SecurityModeCommand { .. }) {
                return None;
            }
        }
        _ => return None,
    }
    // 3. Security mode complete → context setup with Attach Accept.
    let rsp = cp(&S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas: NasMsg::SecurityModeComplete.encode() });
    let (gw_teid, accept) = match rsp.as_slice() {
        [S1apPdu::InitialContextSetupRequest { gw_teid, nas, .. }] => (*gw_teid, NasMsg::decode(nas).ok()?),
        _ => return None,
    };
    let (guti, ue_ip) = match accept {
        NasMsg::AttachAccept { guti, ue_ip, .. } => (guti, ue_ip),
        _ => return None,
    };
    // 4. eNodeB reports its tunnel endpoint.
    cp(&S1apPdu::InitialContextSetupResponse { enb_ue_id, mme_ue_id, enb_teid, enb_ip });
    // 5. NAS Attach Complete.
    cp(&S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas: NasMsg::AttachComplete.encode() });
    Some((guti, ue_ip, gw_teid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepc_backend::{Hss, Pcrf};

    fn alloc() -> Allocator {
        Allocator { teid_base: 0x1000, ue_ip_base: 0x0A000001, guti_base: 0xD00D_0000, mme_ue_id_base: 1 }
    }

    fn cp_with_backends(subscribers: u64) -> ControlPlane {
        cp_with_pcrf(subscribers, Arc::new(Pcrf::with_standard_rules()))
    }

    fn cp_with_pcrf(subscribers: u64, pcrf: Arc<Pcrf>) -> ControlPlane {
        let hss = Arc::new(Hss::new());
        hss.provision_range(1, subscribers, 100_000);
        let proxy = Arc::new(Proxy::new(hss, pcrf, 1, 40401));
        ControlPlane::new(0x0AFE0001, 1, alloc(), Some(proxy))
    }

    fn cp_synthetic() -> ControlPlane {
        ControlPlane::new(0x0AFE0001, 1, alloc(), None)
    }

    #[test]
    fn synthetic_attach_creates_state_and_update() {
        let mut cp = cp_synthetic();
        assert!(cp.apply_event(CtrlEvent::Attach { imsi: 7 }));
        assert_eq!(cp.user_count(), 1);
        let ups = cp.take_updates();
        assert_eq!(ups.len(), 1);
        assert!(matches!(&ups[0], DpUpdate::Insert { active: true, .. }));
        assert_eq!(cp.metrics().attaches, 1);
        let ctx = cp.context_of(7).unwrap();
        let c = ctx.ctrl_read();
        assert_eq!(c.ue_ip, 0x0A000001);
        assert_eq!(c.tunnels.gw_teid, 0x1000);
        assert_eq!(c.guti, 0xD00D_0000);
    }

    #[test]
    fn synthetic_handover_rewrites_in_place_without_update() {
        let mut cp = cp_synthetic();
        cp.apply_event(CtrlEvent::Attach { imsi: 7 });
        cp.take_updates();
        assert!(cp.apply_event(CtrlEvent::S1Handover { imsi: 7, new_enb_teid: 0x99, new_enb_ip: 0xC0A80001 }));
        assert!(!cp.has_updates(), "handover needs no data-plane message");
        let ctx = cp.context_of(7).unwrap();
        assert_eq!(ctx.ctrl_read().tunnels.enb_teid, 0x99);
        assert_eq!(cp.metrics().handovers, 1);
    }

    #[test]
    fn events_on_unknown_users_rejected() {
        let mut cp = cp_synthetic();
        assert!(!cp.apply_event(CtrlEvent::S1Handover { imsi: 1, new_enb_teid: 1, new_enb_ip: 1 }));
        assert!(!cp.apply_event(CtrlEvent::ModifyBearer { imsi: 1, ambr_kbps: 1 }));
        assert!(!cp.apply_event(CtrlEvent::Detach { imsi: 1 }));
    }

    #[test]
    fn detach_removes_everything() {
        let mut cp = cp_synthetic();
        cp.apply_event(CtrlEvent::Attach { imsi: 7 });
        cp.take_updates();
        assert!(cp.apply_event(CtrlEvent::Detach { imsi: 7 }));
        assert_eq!(cp.user_count(), 0);
        assert!(cp.context_of(7).is_none());
        let ups = cp.take_updates();
        assert!(matches!(&ups[0], DpUpdate::Remove { .. }));
    }

    #[test]
    fn reattach_is_idempotent_on_identifiers() {
        let mut cp = cp_synthetic();
        cp.apply_event(CtrlEvent::Attach { imsi: 7 });
        let ip1 = cp.context_of(7).unwrap().ctrl_read().ue_ip;
        cp.apply_event(CtrlEvent::Attach { imsi: 7 });
        assert_eq!(cp.user_count(), 1);
        assert_eq!(cp.context_of(7).unwrap().ctrl_read().ue_ip, ip1);
    }

    #[test]
    fn modify_bearer_updates_qos() {
        let mut cp = cp_synthetic();
        cp.apply_event(CtrlEvent::Attach { imsi: 7 });
        assert!(cp.apply_event(CtrlEvent::ModifyBearer { imsi: 7, ambr_kbps: 64 }));
        assert_eq!(cp.context_of(7).unwrap().ctrl_read().qos.ambr_kbps, 64);
        assert_eq!(cp.metrics().bearer_updates, 1);
    }

    #[test]
    fn procedure_latencies_are_recorded() {
        let mut cp = cp_synthetic();
        cp.apply_event(CtrlEvent::Attach { imsi: 7 });
        cp.apply_event(CtrlEvent::Attach { imsi: 8 });
        cp.apply_event(CtrlEvent::S1Handover { imsi: 7, new_enb_teid: 1, new_enb_ip: 1 });
        assert_eq!(cp.attach_latency().count(), 2);
        assert_eq!(cp.handover_latency().count(), 1);
        assert_eq!(cp.service_request_latency().count(), 0);
        // A failed handover must not enter the population.
        cp.apply_event(CtrlEvent::S1Handover { imsi: 999, new_enb_teid: 1, new_enb_ip: 1 });
        assert_eq!(cp.handover_latency().count(), 1);
    }

    #[test]
    fn full_attach_procedure_over_s1ap() {
        let mut cp = cp_with_backends(100);
        let (guti, ue_ip, gw_teid) = run_attach_with(|p| cp.handle_s1ap(p), 42, 1, 0xE0, 0xC0A80005).unwrap();
        assert_eq!(cp.metrics().attaches, 1);
        assert_eq!(cp.metrics().attach_rejects, 0);
        assert_eq!(cp.user_count(), 1);
        {
            let ctx = cp.context_of(42).unwrap();
            let c = ctx.ctrl_read();
            assert_eq!(c.guti, guti);
            assert_eq!(c.ue_ip, ue_ip);
            assert_eq!(c.tunnels.gw_teid, gw_teid);
            assert_eq!(c.tunnels.enb_teid, 0xE0, "eNodeB endpoint recorded");
            assert_eq!(c.tunnels.enb_ip, 0xC0A80005);
            assert!(!c.pcef_rules.is_empty(), "PCRF rules installed");
        }
        // Data-plane updates include rule installs and the user insert.
        let ups = cp.take_updates();
        assert!(ups.iter().any(|u| matches!(u, DpUpdate::InstallRule { .. })));
        assert!(ups.iter().any(|u| matches!(u, DpUpdate::Insert { .. })));
    }

    #[test]
    fn gx_rule_id_beyond_u16_reaches_neither_data_plane_nor_user() {
        use pepc_sigproto::gx::GxRule;
        let pcrf = Arc::new(Pcrf::with_standard_rules());
        // 65 537 would truncate to 1 — the id of the rule listed after it.
        let rule = |rule_id, qci| GxRule { rule_id, proto: 0, dst_port_lo: 0, dst_port_hi: 0, qci, rate_kbps: 0 };
        pcrf.set_rules(42, vec![rule(65_537, 3), rule(1, 8)]);
        let mut cp = cp_with_pcrf(100, pcrf);
        run_attach_with(|p| cp.handle_s1ap(p), 42, 1, 0xE0, 0xC0A80005).unwrap();
        let listed: Vec<u16> = cp.context_of(42).unwrap().ctrl_read().pcef_rules.iter().collect();
        assert_eq!(listed, [1]);
        let installed: Vec<(u16, u8)> = cp
            .take_updates()
            .iter()
            .filter_map(|u| match u {
                DpUpdate::InstallRule { id, action, .. } => Some((*id, action.qci)),
                _ => None,
            })
            .collect();
        assert_eq!(installed, [(1, 8)], "rule 1 installed once, as itself");
    }

    #[test]
    fn attach_with_unknown_imsi_rejected() {
        let mut cp = cp_with_backends(10);
        let rsp = cp.handle_s1ap(&S1apPdu::InitialUeMessage {
            enb_ue_id: 1,
            ecgi: 1,
            tac: 1,
            nas: NasMsg::AttachRequest { imsi: 9999, ue_capability: 0 }.encode(),
        });
        match rsp.as_slice() {
            [S1apPdu::DownlinkNasTransport { nas, .. }] => {
                assert!(matches!(NasMsg::decode(nas).unwrap(), NasMsg::AttachReject { .. }));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(cp.metrics().attach_rejects, 1);
        assert_eq!(cp.user_count(), 0);
    }

    #[test]
    fn attach_with_wrong_res_rejected() {
        let mut cp = cp_with_backends(10);
        let rsp = cp.handle_s1ap(&S1apPdu::InitialUeMessage {
            enb_ue_id: 1,
            ecgi: 1,
            tac: 1,
            nas: NasMsg::AttachRequest { imsi: 5, ue_capability: 0 }.encode(),
        });
        let mme_ue_id = match rsp.as_slice() {
            [S1apPdu::DownlinkNasTransport { mme_ue_id, .. }] => *mme_ue_id,
            _ => panic!(),
        };
        let rsp = cp.handle_s1ap(&S1apPdu::UplinkNasTransport {
            enb_ue_id: 1,
            mme_ue_id,
            nas: NasMsg::AuthenticationResponse { res: 0xBAD }.encode(),
        });
        match rsp.as_slice() {
            [S1apPdu::DownlinkNasTransport { nas, .. }] => {
                assert!(matches!(NasMsg::decode(nas).unwrap(), NasMsg::AuthenticationReject { .. }));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(cp.user_count(), 0);
    }

    #[test]
    fn x2_path_switch_over_s1ap() {
        let mut cp = cp_with_backends(10);
        run_attach_with(|p| cp.handle_s1ap(p), 3, 1, 0xE0, 0xC0A80005).unwrap();
        let mme_ue_id = 1; // first allocation
        let rsp = cp.handle_s1ap(&S1apPdu::PathSwitchRequest {
            enb_ue_id: 77,
            mme_ue_id,
            new_enb_teid: 0xF1,
            new_enb_ip: 0xC0A80006,
            ecgi: 0x200,
        });
        assert!(matches!(rsp.as_slice(), [S1apPdu::PathSwitchRequestAck { .. }]));
        let c = cp.context_of(3).unwrap();
        let ctrl = c.ctrl_read();
        assert_eq!(ctrl.tunnels.enb_teid, 0xF1);
        assert_eq!(ctrl.ecgi, 0x200);
    }

    #[test]
    fn s1_handover_three_way_over_s1ap() {
        let mut cp = cp_with_backends(10);
        run_attach_with(|p| cp.handle_s1ap(p), 3, 1, 0xE0, 0xC0A80005).unwrap();
        // Source eNodeB asks for an S1 handover.
        let rsp = cp.handle_s1ap(&S1apPdu::HandoverRequired { enb_ue_id: 1, mme_ue_id: 1, target_ecgi: 9 });
        let (gw_teid, ambr) = match rsp.as_slice() {
            [S1apPdu::HandoverRequest { gw_teid, ambr_kbps, .. }] => (*gw_teid, *ambr_kbps),
            other => panic!("{other:?}"),
        };
        assert_eq!(gw_teid, 0x1000);
        assert_eq!(ambr, 100_000);
        // Target eNodeB acks with its endpoint.
        let rsp =
            cp.handle_s1ap(&S1apPdu::HandoverRequestAck { mme_ue_id: 1, new_enb_teid: 0xAA, new_enb_ip: 0xC0A80007 });
        assert!(matches!(rsp.as_slice(), [S1apPdu::HandoverCommand { enb_ue_id: 1, .. }]));
        let c = cp.context_of(3).unwrap();
        assert_eq!(c.ctrl_read().tunnels.enb_teid, 0xAA);
        assert_eq!(cp.metrics().handovers, 1);
    }

    #[test]
    fn detach_over_s1ap() {
        let mut cp = cp_with_backends(10);
        let (guti, ..) = run_attach_with(|p| cp.handle_s1ap(p), 3, 1, 0xE0, 5).unwrap();
        let rsp = cp.handle_s1ap(&S1apPdu::UplinkNasTransport {
            enb_ue_id: 1,
            mme_ue_id: 1,
            nas: NasMsg::DetachRequest { guti }.encode(),
        });
        match rsp.as_slice() {
            [S1apPdu::DownlinkNasTransport { nas, .. }] => {
                assert!(matches!(NasMsg::decode(nas).unwrap(), NasMsg::DetachAccept));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(cp.user_count(), 0);
    }

    #[test]
    fn tau_over_s1ap() {
        let mut cp = cp_with_backends(10);
        let (guti, ..) = run_attach_with(|p| cp.handle_s1ap(p), 3, 1, 0xE0, 5).unwrap();
        let rsp = cp.handle_s1ap(&S1apPdu::UplinkNasTransport {
            enb_ue_id: 1,
            mme_ue_id: 1,
            nas: NasMsg::TrackingAreaUpdateRequest { guti, tac: 42 }.encode(),
        });
        assert!(matches!(rsp.as_slice(), [S1apPdu::DownlinkNasTransport { .. }]));
        assert_eq!(cp.context_of(3).unwrap().ctrl_read().tac, 42);
    }

    #[test]
    fn migration_extract_restore_preserves_state() {
        let mut src = cp_synthetic();
        src.apply_event(CtrlEvent::Attach { imsi: 7 });
        src.take_updates();
        let ctx = src.context_of(7).unwrap();
        ctx.update_counters(|c| c.uplink_bytes = 12345);

        let rec = src.extract_user(7).unwrap();
        assert_eq!(src.user_count(), 0);
        assert!(matches!(src.take_updates().as_slice(), [DpUpdate::Remove { .. }]));
        assert_eq!(src.metrics().migrations_out, 1);

        let mut dst = ControlPlane::new(
            0x0AFE0001,
            1,
            Allocator { teid_base: 0x9000, ue_ip_base: 0x0B000001, guti_base: 0xE000_0000, mme_ue_id_base: 1000 },
            None,
        );
        assert!(dst.restore_user(rec));
        assert_eq!(dst.user_count(), 1);
        assert_eq!(dst.metrics().migrations_in, 0, "the node counts a migration in, not the restore");
        let moved = dst.context_of(7).unwrap();
        assert_eq!(moved.counters().uplink_bytes, 12345, "counters travelled");
        // The update re-announces the ORIGINAL keys so tunnels stay valid.
        match dst.take_updates().as_slice() {
            [DpUpdate::Insert { gw_teid, ue_ip, .. }] => {
                assert_eq!(*gw_teid, 0x1000);
                assert_eq!(*ue_ip, 0x0A000001);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extract_unknown_user_returns_none() {
        let mut cp = cp_synthetic();
        assert!(cp.extract_user(999).is_none());
    }

    #[test]
    fn counters_readable_for_pcrf_reporting() {
        let mut cp = cp_synthetic();
        cp.apply_event(CtrlEvent::Attach { imsi: 7 });
        cp.context_of(7).unwrap().update_counters(|c| c.downlink_bytes = 555);
        assert_eq!(cp.counters_of(7).unwrap().downlink_bytes, 555);
        assert!(cp.counters_of(8).is_none());
    }

    /// Attach imsi 1 via full S1AP, then release it to idle. Returns its
    /// GUTI.
    fn attach_and_release(cp: &mut ControlPlane) -> u64 {
        let (guti, ..) = run_attach_with(|p| cp.handle_s1ap(p), 1, 10, 0x500, 0xC0A80001).expect("attach");
        cp.take_updates();
        let rsp = cp.handle_s1ap(&S1apPdu::UeContextReleaseRequest { enb_ue_id: 10, mme_ue_id: 1, cause: 0 });
        assert!(matches!(rsp.as_slice(), [S1apPdu::UeContextReleaseCommand { .. }]));
        assert!(matches!(cp.take_updates().as_slice(), [DpUpdate::Suspend { imsi: 1, .. }]));
        assert!(cp.idle_ues.contains(&1));
        guti
    }

    fn assert_identities(cp: &ControlPlane) {
        let m = cp.metrics();
        assert!(m.signaling_conservation_holds(cp.mailbox_backlog()), "signaling: {m:?}");
        assert!(m.procedure_accounting_holds(cp.procedures_in_flight()), "procedures: {m:?}");
        assert!(m.paging_accounting_holds(cp.paging_in_flight()), "paging: {m:?}");
    }

    #[test]
    fn page_resolves_via_service_request_and_wakes_user() {
        let mut cp = cp_with_backends(4);
        let guti = attach_and_release(&mut cp);
        let out = cp.page(1);
        let paged_id = match out.as_slice() {
            [S1apPdu::Paging { mme_ue_id, guti: g }] => {
                assert_eq!(*g, guti);
                *mme_ue_id
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(cp.paging_in_flight(), 1);
        assert_identities(&cp);
        // The UE answers with a Service Request on a fresh S1 association.
        let rsp = cp.handle_s1ap(&S1apPdu::InitialUeMessage {
            enb_ue_id: 11,
            ecgi: 0x100,
            tac: 1,
            nas: NasMsg::ServiceRequest { guti }.encode(),
        });
        assert!(matches!(rsp.as_slice(), [S1apPdu::DownlinkNasTransport { .. }]));
        assert_eq!(cp.metrics().paging_resolved, 1);
        assert_eq!(cp.paging_in_flight(), 0);
        assert!(!cp.idle_ues.contains(&1));
        // The wake re-announces the user as active (flushing its buffer).
        assert!(cp.take_updates().iter().any(|u| matches!(u, DpUpdate::Insert { active: true, .. })));
        // The page's interim mme_ue_id was retired with the procedure.
        let _ = paged_id;
        assert_identities(&cp);
    }

    #[test]
    fn page_retransmits_then_expires_and_drops_buffer() {
        let mut cp = cp_with_backends(4);
        attach_and_release(&mut cp);
        assert_eq!(cp.page(1).len(), 1);
        // Each PAGING_RETX_TICKS of silence re-sends the page...
        for i in 1..=PAGING_MAX_RETX as u64 {
            cp.note_tick(i * PAGING_RETX_TICKS);
            let tx = cp.take_pending_tx();
            assert!(matches!(tx.as_slice(), [S1apPdu::Paging { .. }]), "retx {i}: {tx:?}");
            assert_identities(&cp);
        }
        assert_eq!(cp.metrics().paging_retx, u64::from(PAGING_MAX_RETX));
        // ...until the budget is exhausted: the page expires, the idle
        // buffer is dropped, and the UE stays attached-idle.
        cp.note_tick((u64::from(PAGING_MAX_RETX) + 1) * PAGING_RETX_TICKS);
        assert!(cp.take_pending_tx().is_empty());
        assert_eq!(cp.metrics().paging_expired, 1);
        assert_eq!(cp.paging_in_flight(), 0);
        assert!(matches!(cp.take_updates().as_slice(), [DpUpdate::DropIdleBuffer { .. }]));
        assert!(cp.idle_ues.contains(&1), "expiry keeps the UE attached-idle");
        assert_eq!(cp.user_count(), 1);
        assert_identities(&cp);
        // A later page starts a fresh procedure.
        assert_eq!(cp.page(1).len(), 1);
        assert_eq!(cp.metrics().paged, 2);
        assert_identities(&cp);
    }

    #[test]
    fn page_trigger_for_active_user_is_a_stale_no_op() {
        let mut cp = cp_with_backends(4);
        run_attach_with(|p| cp.handle_s1ap(p), 1, 10, 0x500, 0xC0A80001).expect("attach");
        cp.take_updates();
        assert!(cp.page(1).is_empty(), "active UE is not paged");
        assert_eq!(cp.metrics().paged, 0);
        assert!(cp.page(999).is_empty(), "unknown UE is not paged");
        assert_identities(&cp);
    }

    #[test]
    fn network_detach_tears_down_idle_user_mid_page() {
        let mut cp = cp_with_backends(4);
        attach_and_release(&mut cp);
        cp.page(1);
        let out = cp.network_detach(1);
        assert!(matches!(
            out.as_slice(),
            [S1apPdu::DownlinkNasTransport { .. }, S1apPdu::UeContextReleaseCommand { .. }]
        ));
        assert_eq!(cp.user_count(), 0);
        assert!(!cp.idle_ues.contains(&1));
        // The preempted page closed as expired; the Remove drops the
        // buffered downlink on the data plane.
        assert_eq!(cp.metrics().paging_expired, 1);
        assert_eq!(cp.metrics().proc_preempted, 1);
        assert!(cp.take_updates().iter().any(|u| matches!(u, DpUpdate::Remove { .. })));
        assert_identities(&cp);
        // Detaching again is a consumed no-op.
        assert!(cp.network_detach(1).is_empty());
        assert_identities(&cp);
    }

    #[test]
    fn duplicate_page_trigger_dedups_against_cached_tx() {
        let mut cp = cp_with_backends(4);
        attach_and_release(&mut cp);
        let first = cp.page(1);
        let second = cp.page(1);
        assert_eq!(first, second, "dup trigger re-answers from last_tx");
        assert_eq!(cp.metrics().paged, 1, "one paging procedure, not two");
        assert_eq!(cp.metrics().proc_deduped, 1);
        assert_identities(&cp);
    }

    /// Drive a fresh S1AP attach to `AttachWaitSmc`. Returns the MME UE
    /// id, the Authentication Response sent, and the SMC command that
    /// answered it.
    fn attach_to_smc(cp: &mut ControlPlane, imsi: u64, enb_ue_id: u32) -> (u32, S1apPdu, Vec<S1apPdu>) {
        let challenge = cp.handle_s1ap(&S1apPdu::InitialUeMessage {
            enb_ue_id,
            ecgi: 0x100,
            tac: 1,
            nas: NasMsg::AttachRequest { imsi, ue_capability: 0 }.encode(),
        });
        let [S1apPdu::DownlinkNasTransport { mme_ue_id, nas, .. }] = challenge.as_slice() else {
            panic!("{challenge:?}")
        };
        let Ok(NasMsg::AuthenticationRequest { rand, .. }) = NasMsg::decode(nas) else { panic!("{challenge:?}") };
        let nas = NasMsg::AuthenticationResponse { res: sim_response(Hss::key_for(imsi), rand) }.encode();
        let auth = S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id: *mme_ue_id, nas };
        let smc = cp.handle_s1ap(&auth);
        (*mme_ue_id, auth, smc)
    }

    #[test]
    fn dirty_hook_records_nothing_until_armed() {
        let mut cp = cp_with_backends(10);
        // Full S1AP lifecycle: attach, X2 + S1 handover, TAU, release,
        // page, service request, detach.
        let (guti, ..) = run_attach_with(|p| cp.handle_s1ap(p), 3, 1, 0xE0, 5).unwrap();
        let ps = S1apPdu::PathSwitchRequest { enb_ue_id: 2, mme_ue_id: 1, new_enb_teid: 0xF1, new_enb_ip: 6, ecgi: 2 };
        assert!(matches!(cp.handle_s1ap(&ps).as_slice(), [S1apPdu::PathSwitchRequestAck { .. }]));
        cp.handle_s1ap(&S1apPdu::HandoverRequired { enb_ue_id: 2, mme_ue_id: 1, target_ecgi: 9 });
        cp.handle_s1ap(&S1apPdu::HandoverRequestAck { mme_ue_id: 1, new_enb_teid: 0xAA, new_enb_ip: 7 });
        let tau = NasMsg::TrackingAreaUpdateRequest { guti, tac: 42 }.encode();
        cp.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 2, mme_ue_id: 1, nas: tau });
        cp.handle_s1ap(&S1apPdu::UeContextReleaseRequest { enb_ue_id: 2, mme_ue_id: 1, cause: 0 });
        assert_eq!(cp.page(3).len(), 1);
        let sr = NasMsg::ServiceRequest { guti }.encode();
        cp.handle_s1ap(&S1apPdu::InitialUeMessage { enb_ue_id: 4, ecgi: 1, tac: 1, nas: sr });
        let detach = NasMsg::DetachRequest { guti }.encode();
        cp.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 4, mme_ue_id: 0, nas: detach });
        let m = cp.metrics();
        assert_eq!((m.attaches, m.handovers, m.releases, m.service_requests, m.detaches), (1, 2, 1, 1, 1));
        // Synthetic events.
        cp.apply_event(CtrlEvent::Attach { imsi: 7 });
        cp.apply_event(CtrlEvent::S1Handover { imsi: 7, new_enb_teid: 1, new_enb_ip: 1 });
        cp.apply_event(CtrlEvent::ModifyBearer { imsi: 7, ambr_kbps: 64 });
        cp.apply_event(CtrlEvent::Detach { imsi: 7 });
        assert!(cp.dirty.is_none(), "an unarmed plane keeps no per-IMSI set");
        assert!(cp.take_dirty_users().is_empty());
    }

    #[test]
    fn armed_dirty_hook_drains_ascending_deduplicated_and_once() {
        let mut cp = cp_with_backends(10);
        cp.track_dirty_users();
        for imsi in [9, 5, 7] {
            cp.apply_event(CtrlEvent::Attach { imsi });
        }
        cp.apply_event(CtrlEvent::S1Handover { imsi: 5, new_enb_teid: 1, new_enb_ip: 1 });
        cp.apply_event(CtrlEvent::Attach { imsi: 9 });
        cp.apply_event(CtrlEvent::Detach { imsi: 7 });
        // An S1AP attach that reached its context setup, then was rolled
        // back when a new attempt on another association preempted it.
        let (mme_ue_id, ..) = attach_to_smc(&mut cp, 3, 1);
        let nas = NasMsg::SecurityModeComplete.encode();
        cp.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 1, mme_ue_id, nas });
        assert!(cp.context_of(3).is_some());
        cp.handle_s1ap(&S1apPdu::InitialUeMessage {
            enb_ue_id: 2,
            ecgi: 0x100,
            tac: 1,
            nas: NasMsg::AttachRequest { imsi: 3, ue_capability: 0 }.encode(),
        });
        assert_eq!(cp.metrics().proc_preempted, 1);
        assert!(cp.context_of(3).is_none(), "the preempted attach was rolled back");
        assert_eq!(cp.take_dirty_users(), [3, 5, 7, 9], "detached and rolled-back users included");
        assert!(cp.take_dirty_users().is_empty(), "a drain empties the set");
    }

    #[test]
    fn retransmit_cache_replays_in_flight_and_retires_with_the_procedure() {
        let bytes = |pdus: &[S1apPdu]| pdus.iter().map(S1apPdu::encode).collect::<Vec<_>>();
        let mut cp = cp_with_backends(4);
        // A retransmitted Authentication Response while the attach waits
        // for Security Mode Complete replays the SMC command byte for byte.
        let (_, auth, smc) = attach_to_smc(&mut cp, 2, 1);
        assert!(matches!(cp.machines[&2].state, ProcState::AttachWaitSmc { .. }));
        assert_eq!(cp.machines[&2].last_tx, smc, "the in-flight step's reply is cached");
        assert_eq!(bytes(&cp.handle_s1ap(&auth)), bytes(&smc), "retransmit replays the cached SMC command");
        assert_eq!(cp.metrics().proc_deduped, 1);
        // Finishing the attach retires the machine.
        let nas = NasMsg::SecurityModeComplete.encode();
        cp.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 1, mme_ue_id: 1, nas });
        cp.handle_s1ap(&S1apPdu::InitialContextSetupResponse { enb_ue_id: 1, mme_ue_id: 1, enb_teid: 5, enb_ip: 6 });
        let nas = NasMsg::AttachComplete.encode();
        cp.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 1, mme_ue_id: 1, nas });
        assert_eq!(cp.metrics().attaches, 1);
        assert!(!cp.machines.contains_key(&2), "a finished procedure leaves no machine behind");
        // A single-shot procedure never enters the table either.
        cp.handle_s1ap(&S1apPdu::UeContextReleaseRequest { enb_ue_id: 1, mme_ue_id: 1, cause: 0 });
        assert!(cp.idle_ues.contains(&2) && cp.machines.is_empty());
        // A paging retransmit replays the page byte for byte.
        let page = cp.page(2);
        assert!(matches!(page.as_slice(), [S1apPdu::Paging { .. }]));
        cp.note_tick(PAGING_RETX_TICKS);
        assert_eq!(bytes(&cp.take_pending_tx()), bytes(&page));
        // The UE answers; the page resolves and its machine retires.
        let Some(guti) = cp.context_of(2).map(|c| c.ctrl_read().guti) else { panic!() };
        let sr = NasMsg::ServiceRequest { guti }.encode();
        cp.handle_s1ap(&S1apPdu::InitialUeMessage { enb_ue_id: 3, ecgi: 1, tac: 1, nas: sr });
        assert_eq!(cp.metrics().paging_resolved, 1);
        assert!(cp.machines.is_empty());
        assert_identities(&cp);
    }

    #[test]
    fn deferred_and_dropped_messages_do_not_keep_a_stalled_attach_alive() {
        let mut cp = cp_with_backends(4);
        let (mme_ue_id, ..) = attach_to_smc(&mut cp, 2, 1);
        let nas = NasMsg::SecurityModeComplete.encode();
        cp.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 1, mme_ue_id, nas });
        assert!(matches!(cp.machines[&2].state, ProcState::AttachWaitIcs { .. }));
        let Some(guti) = cp.context_of(2).map(|c| c.ctrl_read().guti) else { panic!() };
        // The eNodeB never answers the context setup; every tick the UE
        // sends a TAU (deferred behind the attach) and a stray handover
        // ack arrives (dropped). Neither is progress.
        let max_age = 3;
        let mut expired_at = None;
        for tick in 1..=4 * max_age {
            cp.note_tick(tick);
            let nas = NasMsg::TrackingAreaUpdateRequest { guti, tac: 9 }.encode();
            cp.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 1, mme_ue_id, nas });
            cp.handle_s1ap(&S1apPdu::HandoverRequestAck { mme_ue_id, new_enb_teid: 1, new_enb_ip: 1 });
            if cp.expire_procedures(tick, max_age) > 0 {
                expired_at = Some(tick);
                break;
            }
        }
        assert_eq!(expired_at, Some(max_age + 1));
        let m = cp.metrics();
        assert_eq!((m.sig_deferred, m.sig_dropped, m.proc_expired), (max_age + 1, 2 * (max_age + 1), 1));
        assert!(cp.context_of(2).is_none(), "the half-created user is rolled back");
        assert_identities(&cp);
    }

    #[test]
    fn user_ids_wrap_within_the_region_and_skip_live_ones() {
        let mut cp = cp_synthetic();
        cp.apply_event(CtrlEvent::Attach { imsi: 1 });
        // Slots past the 2^8 an empty hint's identifiers name mint from
        // the cursor.
        cp.slab().skip_to(1 << 8);
        cp.set_id_cursors(REGION - 1, 0);
        cp.apply_event(CtrlEvent::Attach { imsi: 2 });
        cp.apply_event(CtrlEvent::Attach { imsi: 3 });
        let ids = |imsi| {
            let c = cp.context_of(imsi).unwrap().ctrl_read().clone();
            (c.tunnels.gw_teid - 0x1000, c.ue_ip - 0x0A00_0001, c.guti - 0xD00D_0000)
        };
        assert_eq!(ids(2), (REGION - 1, REGION - 1, u64::from(REGION - 1)), "the region's last id");
        assert_eq!(ids(3), (1, 1, 1), "wrapped to the start, past imsi 1's live id 0");
    }

    #[test]
    fn mme_ue_ids_wrap_within_the_region_and_skip_live_ones() {
        let mut cp = cp_with_backends(10);
        run_attach_with(|p| cp.handle_s1ap(p), 1, 1, 0xE0, 5).unwrap();
        cp.set_id_cursors(1, REGION - 1);
        run_attach_with(|p| cp.handle_s1ap(p), 2, 2, 0xE0, 5).unwrap();
        run_attach_with(|p| cp.handle_s1ap(p), 3, 3, 0xE0, 5).unwrap();
        let mme_ue_id = |imsi| cp.context_of(imsi).and_then(|c| c.s1_conn()).map(|c| c.mme_ue_id);
        // The slice's region is `1 ..= 2^24` (base 1); imsi 1 holds id 1.
        assert_eq!(mme_ue_id(2), Some(REGION), "the region's last id");
        assert_eq!(mme_ue_id(3), Some(2), "wrapped to the start, past imsi 1's live id");
        assert_eq!(cp.metrics().attaches, 3);
        assert_identities(&cp);
    }

    #[test]
    fn a_full_arena_rejects_the_attach_instead_of_panicking() {
        let slab = Arc::new(UeSlab::new());
        slab.skip_to(REGION);
        let hss = Arc::new(Hss::new());
        hss.provision_range(1, 4, 100_000);
        let proxy = Arc::new(Proxy::new(hss, Arc::new(Pcrf::with_standard_rules()), 1, 40401));
        let mut cp = ControlPlane::with_slab(slab, 0x0AFE0001, 1, alloc(), Some(proxy), 0);
        assert!(!cp.apply_event(CtrlEvent::Attach { imsi: 1 }));
        let (mme_ue_id, ..) = attach_to_smc(&mut cp, 2, 1);
        let nas = NasMsg::SecurityModeComplete.encode();
        let rsp = cp.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 1, mme_ue_id, nas });
        let [S1apPdu::DownlinkNasTransport { nas, .. }] = rsp.as_slice() else { panic!("{rsp:?}") };
        assert_eq!(NasMsg::decode(nas).unwrap(), NasMsg::AttachReject { cause: cause::NETWORK_FAILURE });
        let m = cp.metrics();
        assert_eq!((m.attaches, m.attach_rejects, m.proc_aborted), (0, 1, 1));
        assert_eq!((cp.user_count(), cp.s1_index_len()), (0, 0));
        assert!(!cp.has_updates());
        assert_identities(&cp);
    }

    #[test]
    fn a_reused_enb_ue_id_steals_nothing() {
        let mut cp = cp_with_backends(10);
        let (guti, ..) = run_attach_with(|p| cp.handle_s1ap(p), 1, 10, 0xE0, 5).unwrap();
        let first = cp.context_of(1).unwrap().s1_conn().unwrap().mme_ue_id;
        // A second eNodeB numbers its UE, IMSI 2, 10 as well.
        let (mme_ue_id, _, smc) = attach_to_smc(&mut cp, 2, 10);
        assert_eq!(smc.len(), 1, "{smc:?}");
        // UE 1 goes idle and comes back on a fresh association, still as 10.
        cp.handle_s1ap(&S1apPdu::UeContextReleaseRequest { enb_ue_id: 10, mme_ue_id: first, cause: 0 });
        let nas = NasMsg::ServiceRequest { guti }.encode();
        let rsp = cp.handle_s1ap(&S1apPdu::InitialUeMessage { enb_ue_id: 10, ecgi: 0x100, tac: 1, nas });
        assert_eq!(rsp.len(), 1, "{rsp:?}");
        // UE 2's Security Mode Complete still reaches UE 2.
        let nas = NasMsg::SecurityModeComplete.encode();
        let rsp = cp.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 10, mme_ue_id, nas });
        assert!(matches!(rsp.as_slice(), [S1apPdu::InitialContextSetupRequest { .. }]), "{rsp:?}");
    }

    #[test]
    fn an_active_insert_ends_ecm_idle() {
        let mut cp = cp_synthetic();
        let release = |cp: &mut ControlPlane| {
            assert!(cp.apply_event(CtrlEvent::Attach { imsi: 1 }) && cp.apply_event(CtrlEvent::Release { imsi: 1 }));
            assert_eq!(cp.idle_user_count(), 1);
        };
        // A re-attach announces the user active.
        release(&mut cp);
        assert!(cp.apply_event(CtrlEvent::Attach { imsi: 1 }));
        assert_eq!(cp.idle_user_count(), 0);
        // So does a restore over the live user.
        release(&mut cp);
        let rec = cp.record_of(1).unwrap();
        assert!(cp.restore_user(rec));
        assert_eq!(cp.idle_user_count(), 0);
    }
}

#[cfg(test)]
mod pcrf_reporting_tests {
    use super::*;
    use pepc_backend::{Hss, Pcrf};

    #[test]
    fn usage_reports_reach_the_pcrf() {
        let hss = Arc::new(Hss::new());
        hss.provision_range(1, 10, 100_000);
        let pcrf = Arc::new(Pcrf::with_standard_rules());
        let proxy = Arc::new(Proxy::new(Arc::clone(&hss), Arc::clone(&pcrf), 1, 40401));
        let mut cp = ControlPlane::new(
            1,
            1,
            Allocator { teid_base: 1, ue_ip_base: 1, guti_base: 1, mme_ue_id_base: 1 },
            Some(proxy),
        );
        for imsi in 1..=3u64 {
            cp.apply_event(CtrlEvent::Attach { imsi });
            cp.context_of(imsi).unwrap().update_counters(|c| c.uplink_bytes = imsi * 1000);
        }
        assert_eq!(cp.report_usage_to_pcrf(), 3);
        assert_eq!(pcrf.usage_for(2).uplink_bytes, 2000);
    }

    #[test]
    fn reporting_without_proxy_is_noop() {
        let mut cp =
            ControlPlane::new(1, 1, Allocator { teid_base: 1, ue_ip_base: 1, guti_base: 1, mme_ue_id_base: 1 }, None);
        cp.apply_event(CtrlEvent::Attach { imsi: 7 });
        assert_eq!(cp.report_usage_to_pcrf(), 0);
    }

    #[test]
    fn service_request_promotes_idle_user() {
        let mut cp = ControlPlane::new(
            1,
            1,
            Allocator { teid_base: 0x1000, ue_ip_base: 0x0A000001, guti_base: 0xD000, mme_ue_id_base: 1 },
            None,
        );
        cp.apply_event(CtrlEvent::Attach { imsi: 7 });
        let guti = cp.context_of(7).unwrap().ctrl_read().guti;
        cp.apply_event(CtrlEvent::Release { imsi: 7 });
        cp.take_updates();
        // Idle UE sends a Service Request over S1AP.
        let rsp = cp.handle_s1ap(&S1apPdu::InitialUeMessage {
            enb_ue_id: 5,
            ecgi: 0x200,
            tac: 1,
            nas: NasMsg::ServiceRequest { guti }.encode(),
        });
        match rsp.as_slice() {
            [S1apPdu::DownlinkNasTransport { nas, .. }] => {
                assert!(matches!(NasMsg::decode(nas).unwrap(), NasMsg::ServiceAccept));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(cp.metrics().service_requests, 1);
        // The re-announce reaches the data plane as an *active* insert.
        let ups = cp.take_updates();
        assert!(ups.iter().any(|u| matches!(u, DpUpdate::Insert { active: true, .. })));
        assert_eq!(cp.context_of(7).unwrap().ctrl_read().ecgi, 0x200, "location refreshed");
    }

    #[test]
    fn service_request_with_unknown_guti_releases_context() {
        let mut cp =
            ControlPlane::new(1, 1, Allocator { teid_base: 1, ue_ip_base: 1, guti_base: 1, mme_ue_id_base: 1 }, None);
        let rsp = cp.handle_s1ap(&S1apPdu::InitialUeMessage {
            enb_ue_id: 5,
            ecgi: 1,
            tac: 1,
            nas: NasMsg::ServiceRequest { guti: 0xDEAD }.encode(),
        });
        assert!(matches!(rsp.as_slice(), [S1apPdu::UeContextReleaseCommand { .. }]));
    }
}
