//! The PEPC slice — paper §3.2, Listing 1.
//!
//! A slice consolidates the state and processing of a set of users. It
//! runs two threads pinned to distinct cores: a control thread (owning
//! [`ControlPlane`]) and a data thread (owning [`DataPlane`]). They share
//! per-user [`UeContext`](crate::state::UeContext)s under the
//! single-writer discipline and exchange *membership* changes over an
//! SPSC update ring, drained by the data thread every
//! `batching.sync_every_packets` packets (Figure 13).
//!
//! Two operating modes:
//!
//! * [`Slice`] — inline, single-threaded: the caller drives both planes
//!   explicitly. Deterministic; used by unit/integration tests and the
//!   single-core figure harnesses.
//! * [`Slice::spawn`] — threaded: returns a [`SliceHandle`] whose rings
//!   and command channels the node (or a harness) feeds, with the two
//!   plane threads running to completion on their cores.

use crate::config::SliceConfig;
use crate::ctrl::{Allocator, ControlPlane, CtrlEvent};
use crate::data::{DataPlane, DpUpdate, PacketVerdict};
use crate::proxy::Proxy;
use crate::recovery::UserRecord;
use crate::slab::UeSlab;
use crossbeam::channel::{unbounded, Receiver, Sender};
use pepc_fabric::exec::{CoreId, Poll, Worker};
use pepc_fabric::ring::{Consumer, Producer, SpscRing};
use pepc_fabric::Clock;
use pepc_net::Mbuf;
use pepc_sigproto::s1ap::S1apPdu;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Commands the node scheduler sends a slice's control thread.
#[derive(Debug)]
pub enum CtrlCmd {
    /// A synthetic signaling event.
    Event(CtrlEvent),
    /// An S1AP PDU (replies come back as [`CtrlReply::S1ap`]).
    S1ap(S1apPdu),
    /// Migration: extract this user (reply: [`CtrlReply::Extracted`]).
    Extract { imsi: u64 },
    /// Migration: restore this user here (counted as a migration in).
    Install(Box<UserRecord>),
}

/// Replies from a slice's control thread.
#[derive(Debug)]
pub enum CtrlReply {
    S1ap(Vec<S1apPdu>),
    Extracted { imsi: u64, record: Option<Box<UserRecord>> },
}

/// Cross-thread observable counters for a running slice.
#[derive(Debug, Default)]
pub struct SliceStats {
    pub rx: AtomicU64,
    pub forwarded: AtomicU64,
    pub dropped: AtomicU64,
    pub attaches: AtomicU64,
    pub handovers: AtomicU64,
    pub updates_applied: AtomicU64,
}

impl SliceStats {
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    pub fn rx(&self) -> u64 {
        self.rx.load(Ordering::Relaxed)
    }
}

/// Apply up to `max` stamped updates from the ring to the data plane,
/// recording each one's control→data delay; returns how many. Both
/// modes' data sides drain the ring only through here.
fn apply_stamped(
    data: &mut DataPlane,
    rx: &mut Consumer<(u64, DpUpdate)>,
    scratch: &mut Vec<(u64, DpUpdate)>,
    clock: &Clock,
    max: usize,
) -> usize {
    scratch.clear();
    let n = rx.pop_burst(scratch, max);
    let now = clock.now_ns();
    for (stamp, u) in scratch.drain(..) {
        data.record_update_delay(now.saturating_sub(stamp));
        data.apply_update(u, now);
    }
    n
}

// ---------------------------------------------------------------------------
// Inline mode
// ---------------------------------------------------------------------------

/// An inline (caller-driven) slice.
///
/// Update-ring entries are stamped with the enqueue time so the data
/// plane can histogram the control→data propagation delay at apply.
pub struct Slice {
    pub ctrl: ControlPlane,
    pub data: DataPlane,
    update_tx: Producer<(u64, DpUpdate)>,
    update_rx: Consumer<(u64, DpUpdate)>,
    sync_every: u32,
    packets_since_sync: u32,
    clock: Clock,
    update_scratch: Vec<(u64, DpUpdate)>,
}

impl Slice {
    /// Build an inline slice from a config. `proxy` enables the full
    /// S1AP/NAS attach path. [`Slice::spawn`] builds its threads' planes
    /// here too.
    pub fn new(config: &SliceConfig, gw_ip: u32, tac: u16, alloc: Allocator, proxy: Option<Arc<Proxy>>) -> Self {
        // One arena per slice: the control plane allocates contexts in
        // it, the data plane resolves handles against it. Sharing is what
        // keeps a handle meaningful on both sides of the update ring.
        let slab = Arc::new(UeSlab::new());
        let bases = Some((alloc.teid_base, alloc.ue_ip_base));
        let mut data =
            DataPlane::with_slab(Arc::clone(&slab), gw_ip, config.expected_users, config.two_level, config.iot, bases);
        data.set_stage_timing(config.stage_timing);
        for (id, program) in &config.pcef_programs {
            data.apply_update(
                DpUpdate::InstallRule { id: *id, program: program.clone(), action: Default::default() },
                0,
            );
        }
        let (update_tx, update_rx) = SpscRing::with_capacity(config.update_ring_capacity);
        let mut ctrl = ControlPlane::with_slab(slab, gw_ip, tac, alloc, proxy, config.expected_users);
        ctrl.set_overload(config.overload);
        Slice {
            ctrl,
            data,
            update_tx,
            update_rx,
            sync_every: config.batching.sync_every_packets.max(1),
            packets_since_sync: 0,
            clock: Clock::new(),
            update_scratch: Vec::with_capacity(64),
        }
    }

    /// The slice's monotonic clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Substitute the clock every timestamp in this slice reads (update
    /// stamping, QoS refill, inactivity) — the simulator installs a
    /// virtual clock here so slice time only moves when it is advanced.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// Apply a synthetic control event and queue the resulting updates.
    pub fn handle_ctrl_event(&mut self, ev: CtrlEvent) -> bool {
        let ok = self.ctrl.apply_event(ev);
        self.flush_ctrl_updates();
        ok
    }

    /// Process an S1AP PDU on the control plane.
    pub fn handle_s1ap(&mut self, pdu: &S1apPdu) -> Vec<S1apPdu> {
        let rsp = self.ctrl.handle_s1ap(pdu);
        self.flush_ctrl_updates();
        rsp
    }

    /// Move control-plane updates into the update ring (the control
    /// thread's half of the batching machinery). In inline mode this
    /// slice owns both ring ends, so a full ring is drained straight into
    /// the data plane instead of blocking (bulk attach floods would
    /// otherwise deadlock a single-threaded driver).
    fn flush_ctrl_updates(&mut self) {
        if !self.ctrl.has_updates() {
            return;
        }
        for u in self.ctrl.drain_updates() {
            let mut stamped = (self.clock.now_ns(), u);
            while let Err(back) = self.update_tx.push(stamped) {
                apply_stamped(&mut self.data, &mut self.update_rx, &mut self.update_scratch, &self.clock, usize::MAX);
                stamped = back;
            }
        }
    }

    /// Flush any control-plane updates into the ring, then drain the ring
    /// into the data plane ("sync").
    pub fn sync_now(&mut self) {
        self.flush_ctrl_updates();
        apply_stamped(&mut self.data, &mut self.update_rx, &mut self.update_scratch, &self.clock, usize::MAX);
        // One bounded resize step per sync keeps in-flight table growth
        // converging on the packet schedule (never a stop-the-world
        // rehash inside a burst).
        self.data.maintain_tables();
        self.packets_since_sync = 0;
    }

    /// Process one data packet, honouring the batched-sync schedule.
    pub fn process_packet(&mut self, m: Mbuf) -> PacketVerdict {
        self.packets_since_sync += 1;
        if self.packets_since_sync >= self.sync_every {
            self.sync_now();
        }
        self.data.process(m, self.clock.now_ns())
    }

    /// Process a whole burst of data packets, honouring the batched-sync
    /// schedule at burst granularity: the membership sync happens at most
    /// once per burst, before any packet of the burst is processed (a
    /// burst is the unit of work, just as one packet is in
    /// [`Self::process_packet`]). The burst vector is drained; verdicts
    /// are appended to `out` (one per packet, input order), which callers
    /// reuse so the burst path stays malloc-free per call.
    pub fn process_burst_into(&mut self, burst: &mut Vec<Mbuf>, out: &mut Vec<PacketVerdict>) {
        self.packets_since_sync = self.packets_since_sync.saturating_add(burst.len() as u32);
        if self.packets_since_sync >= self.sync_every {
            self.sync_now();
        }
        self.data.process_burst_into(burst, self.clock.now_ns(), out)
    }

    /// Advance the control plane's procedure-supervision clock. The tick
    /// drives paging retransmission, so any buffer-drop updates it
    /// produced are flushed to the data plane; retransmitted PDUs are
    /// retrievable via [`Self::pump_paging`].
    pub fn note_tick(&mut self, now: u64) {
        self.ctrl.note_tick(now);
        self.flush_ctrl_updates();
    }

    /// Drive network-triggered paging: drain the data plane's paging
    /// events (first downlink packet buffered for a suspended UE) into
    /// the control plane, returning the paging PDUs to send.
    pub fn pump_paging(&mut self) -> Vec<S1apPdu> {
        let mut out = Vec::new();
        for imsi in self.data.take_paging_events() {
            out.extend(self.ctrl.page(imsi));
        }
        out.extend(self.ctrl.take_pending_tx());
        self.flush_ctrl_updates();
        out
    }

    /// Drain buffered downlink flushed by an idle-UE wake (already
    /// GTP-encapsulated toward the eNodeB, counted as forwarded).
    pub fn take_woken(&mut self) -> Vec<Mbuf> {
        self.data.take_woken()
    }

    /// Stuck-idle oracle input: suspended UEs holding buffered downlink
    /// older than `bound_ns` with *no* paging procedure in flight —
    /// packets nothing will ever flush or drop. `(imsi, age_ns)` in IMSI
    /// order; must be empty after every quiescent point.
    pub fn stuck_idle(&self, now_ns: u64, bound_ns: u64) -> Vec<(u64, u64)> {
        self.data
            .idle_buffered_report()
            .into_iter()
            .filter(|(imsi, _, _)| !self.ctrl.is_paging(*imsi))
            .map(|(imsi, _, oldest)| (imsi, now_ns.saturating_sub(oldest)))
            .filter(|(_, age)| *age > bound_ns)
            .collect()
    }

    /// Expire procedures stalled longer than `max_age` ticks and flush
    /// any rollback updates to the data plane. Returns how many expired.
    pub fn expire_procedures(&mut self, now: u64, max_age: u64) -> usize {
        let n = self.ctrl.expire_procedures(now, max_age);
        if n > 0 {
            self.flush_ctrl_updates();
        }
        n
    }

    /// Migration source: extract a user (and sync so the data plane
    /// forgets it before the record leaves).
    pub fn extract_user(&mut self, imsi: u64) -> Option<UserRecord> {
        // The record is a by-value copy (control state + counters), so
        // there is nothing to freeze: once the membership Remove drains
        // to the data plane below, the user's slab slot is freed and any
        // handle still in flight resolves a dead generation and drops —
        // the same semantics as a post-detach packet.
        let rec = self.ctrl.extract_user(imsi)?;
        self.sync_now();
        Some(rec)
    }

    /// Restore a user (migration destination, HA adoption) and make it
    /// visible. False (nothing restored) when the slice's arena is full.
    pub fn restore_user(&mut self, rec: UserRecord) -> bool {
        let restored = self.ctrl.restore_user(rec);
        self.sync_now();
        restored
    }

    /// Assemble this slice's observability registry: plane counters,
    /// latency histograms, and the update-ring gauge, all by value.
    /// `migration_ns` stays empty here — migration is a node-level
    /// procedure and is filled in by [`crate::node::PepcNode`].
    pub fn telemetry_snapshot(&self, slice_id: u64) -> pepc_telemetry::SliceSnapshot {
        let mut s = pepc_telemetry::SliceSnapshot::new(slice_id);
        s.users = self.ctrl.user_count() as u64;
        s.data = self.data.metrics();
        s.ctrl = self.ctrl.metrics();
        s.pipeline_ns = self.data.pipeline_latency().clone();
        s.update_delay_ns = self.data.update_delay().clone();
        s.attach_ns = self.ctrl.attach_latency().clone();
        s.service_request_ns = self.ctrl.service_request_latency().clone();
        s.handover_ns = self.ctrl.handover_latency().clone();
        s.stage_ns = self.data.stage_latencies().to_vec();
        s.rings.push(self.update_rx.gauge("update_ring"));
        // Memory gauges (ISSUE 9): arena footprint, index footprint, and
        // the audit ratio. live_slots tracks attached users exactly —
        // every attach allocates one slot, every detach frees it.
        let slab = self.ctrl.slab();
        s.slab_bytes = slab.bytes();
        s.table_bytes = self.ctrl.table_bytes() + self.data.table_bytes();
        s.live_slots = slab.live_slots();
        s.free_slots = slab.free_slots();
        s.bytes_per_user = slab.bytes_per_user();
        s.mailbox_backlog = self.ctrl.mailbox_backlog();
        let (enbs, tokens) = self.ctrl.overload_gauges();
        s.limiter_enbs = enbs;
        s.limiter_tokens = tokens;
        s
    }
}

// ---------------------------------------------------------------------------
// Threaded mode
// ---------------------------------------------------------------------------

/// Handle to a running (threaded) slice.
pub struct SliceHandle {
    /// Push raw packets for the data thread here.
    pub data_in: Producer<Mbuf>,
    /// Forwarded packets come out here.
    pub data_out: Consumer<Mbuf>,
    /// Send control commands here.
    pub ctrl_tx: Sender<CtrlCmd>,
    /// Control replies (S1AP responses, extracted user records).
    pub ctrl_rx: Receiver<CtrlReply>,
    /// Live counters.
    pub stats: Arc<SliceStats>,
    data_worker: Worker<DataPlane>,
    ctrl_worker: Worker<ControlPlane>,
}

impl SliceHandle {
    /// Stop both threads and return the final planes for inspection.
    pub fn shutdown(self) -> (ControlPlane, DataPlane) {
        (self.ctrl_worker.join(), self.data_worker.join())
    }
}

impl Slice {
    /// Spawn a threaded slice: control thread on `config.ctrl_core`, data
    /// thread on `config.data_core` (paper: "The PEPC control and data
    /// plane threads are pinned to separate cores").
    pub fn spawn(
        config: &SliceConfig,
        gw_ip: u32,
        tac: u16,
        alloc: Allocator,
        proxy: Option<Arc<Proxy>>,
    ) -> SliceHandle {
        let Slice { ctrl, data, mut update_tx, mut update_rx, sync_every, clock, mut update_scratch, .. } =
            Slice::new(config, gw_ip, tac, alloc, proxy);
        let stats = Arc::new(SliceStats::default());
        let (data_in, mut rx) = SpscRing::with_capacity::<Mbuf>(4096);
        let (mut tx, data_out) = SpscRing::with_capacity::<Mbuf>(4096);
        let (ctrl_tx, ctrl_cmd_rx) = unbounded::<CtrlCmd>();
        let (ctrl_reply_tx, ctrl_rx) = unbounded::<CtrlReply>();

        // --- data thread ---
        let sync_every = sync_every as usize;
        let data_stats = Arc::clone(&stats);
        let mut rx_buf: Vec<Mbuf> = Vec::with_capacity(64);
        let mut out_buf: Vec<PacketVerdict> = Vec::with_capacity(64);
        let mut since_sync = 0usize;
        let data_worker = Worker::spawn_state(CoreId(config.data_core), data, move |dp: &mut DataPlane| {
            let mut did_work = false;
            rx_buf.clear();
            let n = rx.pop_burst(&mut rx_buf, 32);
            // Sync membership updates on the batching schedule, or
            // opportunistically when the data path is idle (so
            // attaches land even without traffic).
            since_sync += n;
            if since_sync >= sync_every || n == 0 {
                let applied = apply_stamped(dp, &mut update_rx, &mut update_scratch, &clock, 1024);
                if applied > 0 {
                    did_work = true;
                    data_stats.updates_applied.fetch_add(applied as u64, Ordering::Relaxed);
                }
                since_sync = 0;
            }
            if n == 0 {
                return if did_work { Poll::Busy } else { Poll::Idle };
            }
            data_stats.rx.fetch_add(n as u64, Ordering::Relaxed);
            let now = clock.now_ns();
            let mut fwd = 0u64;
            let mut dropped = 0u64;
            out_buf.clear();
            dp.process_burst_into(&mut rx_buf, now, &mut out_buf);
            for v in out_buf.drain(..) {
                match v {
                    PacketVerdict::Forward(out) => {
                        fwd += 1;
                        // Full output ring = tail drop, like a NIC.
                        let _ = tx.push(out);
                    }
                    PacketVerdict::Drop(_) => dropped += 1,
                    // Parked in an idle-UE buffer: neither forwarded
                    // nor dropped yet; it resolves on wake or page
                    // expiry and is accounted in the plane's metrics.
                    PacketVerdict::Buffered => {}
                }
            }
            data_stats.forwarded.fetch_add(fwd, Ordering::Relaxed);
            if dropped > 0 {
                data_stats.dropped.fetch_add(dropped, Ordering::Relaxed);
            }
            Poll::Busy
        });

        // --- control thread ---
        let ctrl_stats = Arc::clone(&stats);
        let ctrl_worker = Worker::spawn_state(CoreId(config.ctrl_core), ctrl, move |cp: &mut ControlPlane| {
            let mut did_work = false;
            for cmd in ctrl_cmd_rx.try_iter().take(256) {
                did_work = true;
                match cmd {
                    CtrlCmd::Event(ev) => {
                        if cp.apply_event(ev) {
                            match ev {
                                CtrlEvent::Attach { .. } => {
                                    ctrl_stats.attaches.fetch_add(1, Ordering::Relaxed);
                                }
                                CtrlEvent::S1Handover { .. } => {
                                    ctrl_stats.handovers.fetch_add(1, Ordering::Relaxed);
                                }
                                _ => {}
                            }
                        }
                    }
                    CtrlCmd::S1ap(pdu) => {
                        let rsp = cp.handle_s1ap(&pdu);
                        let _ = ctrl_reply_tx.send(CtrlReply::S1ap(rsp));
                    }
                    CtrlCmd::Extract { imsi } => {
                        let record = cp.extract_user(imsi).map(Box::new);
                        let _ = ctrl_reply_tx.send(CtrlReply::Extracted { imsi, record });
                    }
                    CtrlCmd::Install(rec) => {
                        if cp.restore_user(*rec) {
                            cp.note_migration_in();
                        }
                    }
                }
            }
            if cp.has_updates() {
                did_work = true;
                // Stamp with the shared slice clock (Clock is Copy, so
                // both threads measure from the same origin).
                let mut it = cp.drain_updates().map(|u| (clock.now_ns(), u)).peekable();
                while it.peek().is_some() {
                    if update_tx.push_burst(&mut it) == 0 {
                        std::hint::spin_loop();
                    }
                }
            }
            if did_work {
                Poll::Busy
            } else {
                Poll::Idle
            }
        });

        SliceHandle { data_in, data_out, ctrl_tx, ctrl_rx, stats, data_worker, ctrl_worker }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchingConfig, SliceConfig};
    use pepc_net::gtp::encap_gtpu;
    use pepc_net::ipv4::IpProto;
    use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
    use pepc_net::{Ipv4Hdr, IPV4_HDR_LEN};

    fn alloc() -> Allocator {
        Allocator { teid_base: 0x1000, ue_ip_base: 0x0A000001, guti_base: 0xD000, mme_ue_id_base: 1 }
    }

    fn inline_slice(sync_every: u32) -> Slice {
        let config =
            SliceConfig { batching: BatchingConfig { sync_every_packets: sync_every }, ..SliceConfig::default() };
        Slice::new(&config, 0x0AFE0001, 1, alloc(), None)
    }

    fn uplink(teid: u32, ue_ip: u32) -> Mbuf {
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
        Ipv4Hdr::new(ue_ip, 0x08080808, IpProto::Udp, UDP_HDR_LEN + 32).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        UdpHdr::new(1234, 53, 32).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
        m.extend(&hdr);
        m.extend(&[0u8; 32]);
        encap_gtpu(&mut m, 0xC0A80001, 0x0AFE0001, teid).unwrap();
        m
    }

    #[test]
    fn inline_attach_then_traffic() {
        let mut s = inline_slice(1);
        assert!(s.handle_ctrl_event(CtrlEvent::Attach { imsi: 7 }));
        // sync_every = 1 → first packet syncs the insert before lookup?
        // sync happens BEFORE processing, so yes.
        let v = s.process_packet(uplink(0x1000, 0x0A000001));
        assert!(v.is_forward(), "{v:?}");
        assert_eq!(s.data.user_count(), 1);
    }

    #[test]
    fn batching_delays_visibility_until_sync_boundary() {
        let mut s = inline_slice(32);
        s.handle_ctrl_event(CtrlEvent::Attach { imsi: 7 });
        // The update sits in the ring until 32 packets have passed.
        let mut first_forward = None;
        for i in 0..40 {
            if s.process_packet(uplink(0x1000, 0x0A000001)).is_forward() {
                first_forward = Some(i);
                break;
            }
        }
        let idx = first_forward.expect("eventually visible");
        assert!(idx >= 30, "visible only at the sync boundary, got {idx}");
    }

    #[test]
    fn burst_honours_sync_schedule_at_burst_granularity() {
        let mut s = inline_slice(32);
        s.handle_ctrl_event(CtrlEvent::Attach { imsi: 7 });
        // A burst below the boundary does not sync: all unknown-user.
        let mut small: Vec<Mbuf> = (0..8).map(|_| uplink(0x1000, 0x0A000001)).collect();
        let mut out = Vec::new();
        s.process_burst_into(&mut small, &mut out);
        assert!(out.iter().all(|v| !v.is_forward()));
        // The burst that crosses the boundary syncs before processing, so
        // every packet in it sees the attach.
        let mut crossing: Vec<Mbuf> = (0..32).map(|_| uplink(0x1000, 0x0A000001)).collect();
        out.clear();
        s.process_burst_into(&mut crossing, &mut out);
        assert!(out.iter().all(|v| v.is_forward()));
    }

    #[test]
    fn update_ring_capacity_knob_surfaces_in_gauge() {
        let config = SliceConfig { update_ring_capacity: 128, ..SliceConfig::default() };
        let s = Slice::new(&config, 0x0AFE0001, 1, alloc(), None);
        let snap = s.telemetry_snapshot(0);
        assert_eq!(snap.rings[0].capacity, 128);
    }

    #[test]
    fn sync_now_makes_updates_immediately_visible() {
        let mut s = inline_slice(1_000_000);
        s.handle_ctrl_event(CtrlEvent::Attach { imsi: 7 });
        s.sync_now();
        assert!(s.process_packet(uplink(0x1000, 0x0A000001)).is_forward());
    }

    #[test]
    fn inline_snapshot_reflects_activity() {
        let mut s = inline_slice(1);
        s.handle_ctrl_event(CtrlEvent::Attach { imsi: 7 });
        for _ in 0..4 {
            assert!(s.process_packet(uplink(0x1000, 0x0A000001)).is_forward());
        }
        // One miss for the drop taxonomy.
        assert!(!s.process_packet(uplink(0xDEAD, 0x0A000001)).is_forward());
        let snap = s.telemetry_snapshot(2);
        assert_eq!(snap.slice_id, 2);
        assert_eq!(snap.users, 1);
        assert!(snap.conservation_holds());
        assert_eq!(snap.data.forwarded, 4);
        assert_eq!(snap.data.drop_unknown_user, 1);
        assert_eq!(snap.pipeline_ns.count(), snap.data.forwarded);
        assert_eq!(snap.update_delay_ns.count(), snap.data.updates_applied);
        assert_eq!(snap.attach_ns.count(), 1);
        assert_eq!(snap.rings.len(), 1);
        assert_eq!(snap.rings[0].name, "update_ring");
        assert_eq!(snap.rings[0].depth, 0, "drained at the sync boundary");
    }

    #[test]
    fn memory_gauges_track_attach_detach_and_live_slots_equal_users() {
        let mut s = inline_slice(1);
        let empty = s.telemetry_snapshot(0);
        assert_eq!(empty.live_slots, 0);
        assert_eq!(empty.bytes_per_user, empty.slab_bytes, "empty arena: just the directory overhead");
        for imsi in 0..16u64 {
            assert!(s.handle_ctrl_event(CtrlEvent::Attach { imsi }));
        }
        s.sync_now();
        let full = s.telemetry_snapshot(0);
        // The identity the capacity audit rests on: every attached user
        // owns exactly one arena slot.
        assert_eq!(full.users, 16);
        assert_eq!(full.live_slots, full.users);
        assert!(full.slab_bytes > 0);
        assert!(full.table_bytes > 0);
        assert_eq!(full.bytes_per_user, full.slab_bytes / 16);
        for imsi in 0..8u64 {
            assert!(s.handle_ctrl_event(CtrlEvent::Detach { imsi }));
        }
        s.sync_now();
        let half = s.telemetry_snapshot(0);
        assert_eq!(half.users, 8);
        assert_eq!(half.live_slots, 8, "detach frees the slot (data thread applies the Remove)");
        assert_eq!(half.free_slots, 8, "freed slots queue for reuse");
        // Chunks are retained, not returned; only the free-list vector
        // may add a few bytes of bookkeeping.
        assert!(half.slab_bytes >= full.slab_bytes, "{} < {}", half.slab_bytes, full.slab_bytes);
        assert!(half.slab_bytes <= full.slab_bytes + 1024);
    }

    #[test]
    fn stage_timing_flag_surfaces_stage_histograms_in_snapshot() {
        let config = SliceConfig {
            batching: BatchingConfig { sync_every_packets: 1 },
            stage_timing: true,
            ..SliceConfig::default()
        };
        let mut s = Slice::new(&config, 0x0AFE0001, 1, alloc(), None);
        s.handle_ctrl_event(CtrlEvent::Attach { imsi: 7 });
        let mut burst: Vec<Mbuf> = (0..8).map(|_| uplink(0x1000, 0x0A000001)).collect();
        s.process_burst_into(&mut burst, &mut Vec::new());
        let snap = s.telemetry_snapshot(0);
        assert_eq!(snap.stage_ns.len(), 3);
        assert!(snap.stage_ns.iter().all(|h| h.count() == 1), "one sample per stage per burst");
        // Off by default: the flag costs nothing unless asked for.
        let quiet = inline_slice(1);
        assert!(quiet.telemetry_snapshot(0).stage_ns.iter().all(|h| h.count() == 0));
    }

    #[test]
    fn inline_migration_between_slices_preserves_traffic() {
        let mut a = inline_slice(1);
        let mut b = Slice::new(
            &SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..SliceConfig::default() },
            0x0AFE0001,
            1,
            Allocator { teid_base: 0x9000, ue_ip_base: 0x0B000001, guti_base: 0xE000, mme_ue_id_base: 500 },
            None,
        );
        a.handle_ctrl_event(CtrlEvent::Attach { imsi: 7 });
        assert!(a.process_packet(uplink(0x1000, 0x0A000001)).is_forward());

        let rec = a.extract_user(7).expect("extracts");
        // Source no longer serves the user.
        assert!(!a.process_packet(uplink(0x1000, 0x0A000001)).is_forward());
        assert!(b.restore_user(rec));
        // Destination serves it with the ORIGINAL teid (tunnel unbroken).
        assert!(b.process_packet(uplink(0x1000, 0x0A000001)).is_forward());
        let counters = b.ctrl.counters_of(7).unwrap();
        assert_eq!(counters.uplink_packets, 2, "counters moved with the user");
    }

    #[test]
    fn threaded_slice_end_to_end() {
        let config = SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..SliceConfig::default() };
        let mut h = Slice::spawn(&config, 0x0AFE0001, 1, alloc(), None);
        h.ctrl_tx.send(CtrlCmd::Event(CtrlEvent::Attach { imsi: 7 })).unwrap();
        // Wait for the attach to land.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while h.stats.attaches.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "attach never applied");
            std::hint::spin_loop();
        }
        // Updates propagate through the ring asynchronously; retry sends
        // until the data thread forwards.
        let mut forwarded = false;
        while std::time::Instant::now() < deadline {
            let _ = h.data_in.push(uplink(0x1000, 0x0A000001));
            if h.stats.forwarded() > 0 {
                forwarded = true;
                break;
            }
        }
        assert!(forwarded, "threaded pipeline never forwarded");
        let mut out = Vec::new();
        while h.data_out.pop_burst(&mut out, 16) > 0 {}
        assert!(!out.is_empty());
        h.shutdown();
    }

    #[test]
    fn threaded_migration_roundtrip() {
        let config = SliceConfig::default();
        let h = Slice::spawn(&config, 0x0AFE0001, 1, alloc(), None);
        h.ctrl_tx.send(CtrlCmd::Event(CtrlEvent::Attach { imsi: 9 })).unwrap();
        h.ctrl_tx.send(CtrlCmd::Extract { imsi: 9 }).unwrap();
        let reply = h.ctrl_rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        match reply {
            CtrlReply::Extracted { imsi, record } => {
                assert_eq!(imsi, 9);
                let rec = record.expect("user existed");
                assert_eq!(rec.ctrl.imsi, 9);
                // Install back.
                h.ctrl_tx.send(CtrlCmd::Install(rec)).unwrap();
            }
            other => panic!("{other:?}"),
        }
        // Commands run in order: a second extract finds the installed user.
        h.ctrl_tx.send(CtrlCmd::Extract { imsi: 9 }).unwrap();
        let reply = h.ctrl_rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert!(matches!(reply, CtrlReply::Extracted { imsi: 9, record: Some(_) }), "{reply:?}");
        let (cp, _) = h.shutdown();
        assert_eq!((cp.metrics().migrations_out, cp.metrics().migrations_in), (2, 1));
    }

    #[test]
    fn restore_over_an_idle_user_flushes_its_buffer() {
        let mut s = inline_slice(1);
        s.handle_ctrl_event(CtrlEvent::Attach { imsi: 7 });
        s.handle_ctrl_event(CtrlEvent::S1Handover { imsi: 7, new_enb_teid: 0xE0, new_enb_ip: 0xC0A80001 });
        s.handle_ctrl_event(CtrlEvent::Release { imsi: 7 });
        s.sync_now();
        let (_, ue_ip) = s.ctrl.keys_of(7).unwrap();
        for _ in 0..2 {
            let mut m = Mbuf::new();
            let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
            Ipv4Hdr::new(0x08080808, ue_ip, IpProto::Udp, UDP_HDR_LEN).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
            UdpHdr::new(53, 1234, 0).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
            m.extend(&hdr);
            assert!(matches!(s.process_packet(m), PacketVerdict::Buffered));
        }
        let rec = s.ctrl.record_of(7).unwrap();
        assert!(s.restore_user(rec));
        assert_eq!(s.take_woken().len(), 2);
        let m = s.data.metrics();
        assert_eq!((m.forwarded_on_wake, m.drop_idle_expired, m.idle_buffered), (2, 0, 0));
        assert!(m.conservation_holds());
        assert_eq!(s.data.slab().live_slots(), s.ctrl.user_count() as u64, "the old context is freed");
    }
}
