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
//! One slice, two drivers. [`Slice`] is inline and single-threaded: the
//! caller drives both planes, deterministically; [`crate::node::PepcNode`],
//! the simulator, the tests and the figure harnesses run it.
//! [`Slice::spawn`] runs each plane on its own thread, reached only through
//! the bounded rings of a [`SliceHandle`]; a full ring hands the item back.
//! Both run the same plumbing: one control-side flush onto the update
//! ring, and one data-side sync on the `sync_every` schedule, table
//! maintenance included. Each [`CtrlCmd`] is one inline method
//! ([`Slice::handle_ctrl_event`], [`Slice::handle_s1ap`],
//! [`Slice::note_tick`]), and a command's updates are on the ring before
//! its reply is.
//!
//! A threaded slice does not yet drain paging events, woken packets or a
//! tick's paging PDUs, and does not migrate: each needs a data→control
//! ring (ROADMAP item 1).

use crate::config::SliceConfig;
use crate::ctrl::{Allocator, ControlPlane, CtrlEvent};
use crate::data::{DataPlane, DpUpdate, PacketVerdict};
use crate::proxy::Proxy;
use crate::recovery::UserRecord;
use crate::slab::UeSlab;
use pepc_fabric::exec::{CoreId, Poll, Worker};
use pepc_fabric::ring::{Consumer, Producer, SpscRing};
use pepc_fabric::Clock;
use pepc_net::Mbuf;
use pepc_sigproto::s1ap::S1apPdu;
use std::sync::Arc;

/// An update-ring entry: the update and its enqueue time, so the data
/// plane can histogram the control→data propagation delay at apply.
type Stamped = (u64, DpUpdate);

/// The control side of the ring plumbing: move `ctrl`'s queued updates
/// onto the update ring, each stamped with `clock`'s time. `full` runs
/// while the ring is full. Returns early, dropping the rest, only when
/// the ring's consumer is gone (a threaded slice's data thread died).
#[inline]
fn flush_updates(ctrl: &mut ControlPlane, tx: &mut Producer<Stamped>, clock: &Clock, mut full: impl FnMut()) {
    if !ctrl.has_updates() {
        return;
    }
    for u in ctrl.drain_updates() {
        let mut stamped = (clock.now_ns(), u);
        while let Err(back) = tx.push(stamped) {
            if tx.is_disconnected() {
                return;
            }
            full();
            stamped = back;
        }
    }
}

/// The data side of the ring plumbing: the update ring's consumer, its
/// scratch, and the batched-sync schedule.
struct DataSync {
    rx: Consumer<Stamped>,
    scratch: Vec<Stamped>,
    every: u32,
    since: u32,
}

impl DataSync {
    /// Count `packets` toward the schedule; true once a sync is due.
    #[inline]
    fn due(&mut self, packets: usize) -> bool {
        self.since = self.since.saturating_add(packets as u32);
        self.since >= self.every
    }

    /// Apply every queued update to the data plane, recording each one's
    /// control→data delay.
    fn drain(&mut self, data: &mut DataPlane, clock: &Clock) {
        self.scratch.clear();
        self.rx.pop_burst(&mut self.scratch, usize::MAX);
        let now = clock.now_ns();
        for (stamp, u) in self.scratch.drain(..) {
            data.record_update_delay(now.saturating_sub(stamp));
            data.apply_update(u, now);
        }
    }

    /// A sync: drain the ring, take one bounded resize step (which keeps
    /// in-flight table growth converging on the packet schedule, never a
    /// stop-the-world rehash inside a burst), and restart the count.
    fn run(&mut self, data: &mut DataPlane, clock: &Clock) {
        self.drain(data, clock);
        data.maintain_tables();
        self.since = 0;
    }
}

// ---------------------------------------------------------------------------
// Inline driver
// ---------------------------------------------------------------------------

/// An inline (caller-driven) slice.
pub struct Slice {
    pub ctrl: ControlPlane,
    pub data: DataPlane,
    update_tx: Producer<Stamped>,
    sync: DataSync,
    clock: Clock,
}

impl Slice {
    /// Build an inline slice from a config. `proxy` enables the full
    /// S1AP/NAS attach path. [`Slice::spawn`] builds its threads' planes
    /// here too.
    pub fn new(config: &SliceConfig, gw_ip: u32, tac: u16, alloc: Allocator, proxy: Option<Arc<Proxy>>) -> Self {
        // One arena per slice: the control plane allocates contexts in
        // it, the data plane resolves handles against it. Sharing is what
        // keeps a handle meaningful on both sides of the update ring.
        let slab = Arc::new(UeSlab::with_population(config.expected_users));
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
        let (update_tx, rx) = SpscRing::with_capacity(config.update_ring_capacity);
        let mut ctrl = ControlPlane::with_slab(slab, gw_ip, tac, alloc, proxy, config.expected_users);
        ctrl.set_overload(config.overload);
        Slice {
            ctrl,
            data,
            update_tx,
            sync: DataSync {
                rx,
                scratch: Vec::with_capacity(64),
                every: config.batching.sync_every_packets.max(1),
                since: 0,
            },
            clock: Clock::new(),
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

    /// Move control-plane updates into the update ring. This slice owns
    /// both ring ends, so a full ring drains straight into the data plane
    /// instead of blocking (bulk attach floods would otherwise deadlock a
    /// single-threaded driver).
    fn flush_ctrl_updates(&mut self) {
        let Slice { ctrl, data, update_tx, sync, clock } = self;
        flush_updates(ctrl, update_tx, clock, || sync.drain(data, clock));
    }

    /// Flush any control-plane updates into the ring, then drain the ring
    /// into the data plane ("sync").
    pub fn sync_now(&mut self) {
        self.flush_ctrl_updates();
        self.sync.run(&mut self.data, &self.clock);
    }

    /// Process one data packet, honouring the batched-sync schedule.
    pub fn process_packet(&mut self, m: Mbuf) -> PacketVerdict {
        if self.sync.due(1) {
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
        if self.sync.due(burst.len()) {
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
        s.rings.push(self.sync.rx.gauge("update_ring"));
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
// Threaded driver
// ---------------------------------------------------------------------------

/// A command for a threaded slice's control thread: one per inline method
/// of the same job.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlCmd {
    /// [`Slice::handle_ctrl_event`]; replied to with [`CtrlReply::Event`].
    Event(CtrlEvent),
    /// [`Slice::handle_s1ap`]; replied to with [`CtrlReply::S1ap`].
    S1ap(S1apPdu),
    /// [`Slice::note_tick`]; no reply.
    Tick(u64),
}

/// A threaded slice's reply to a [`CtrlCmd`], in command order.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlReply {
    /// Whether the event applied.
    Event(bool),
    /// The PDUs answering an S1AP PDU.
    S1ap(Vec<S1apPdu>),
}

/// Packets each data ring holds.
const DATA_RING_CAPACITY: usize = 4096;
/// Commands the mailbox holds, and replies the reply ring holds.
const CTRL_RING_CAPACITY: usize = 256;
/// Most packets the data thread takes per poll.
const BURST: usize = 32;

/// Handle to a threaded slice: its four bounded rings and its two
/// threads. A full ring's `push` hands the item back.
pub struct SliceHandle {
    /// Raw packets for the data thread.
    pub data_in: Producer<Mbuf>,
    /// Forwarded packets. The data thread takes no more ingress than this
    /// ring has room for, so while it stays full, ingress backs up.
    pub data_out: Consumer<Mbuf>,
    /// The control thread's mailbox.
    pub ctrl_tx: Producer<CtrlCmd>,
    /// Replies. While this ring is full the control thread takes no
    /// commands.
    pub ctrl_rx: Consumer<CtrlReply>,
    data_worker: Worker<DataPlane>,
    ctrl_worker: Worker<ControlPlane>,
}

impl SliceHandle {
    /// Stop both threads and return the final planes for inspection, or
    /// the payload a plane's thread panicked with.
    pub fn shutdown(self) -> std::thread::Result<(ControlPlane, DataPlane)> {
        // The control thread stops first: a flush it is in the middle of
        // needs the data thread to drain the update ring.
        Ok((self.ctrl_worker.join()?, self.data_worker.join()?))
    }
}

impl Slice {
    /// Spawn a threaded slice: control thread on `config.ctrl_core`, data
    /// thread on `config.data_core` (paper: "The PEPC control and data
    /// plane threads are pinned to separate cores"). Each thread owns its
    /// plane and one end of the update ring, and runs the inline slice's
    /// flush or sync. Fails only when the OS cannot start a thread.
    pub fn spawn(
        config: &SliceConfig,
        gw_ip: u32,
        tac: u16,
        alloc: Allocator,
        proxy: Option<Arc<Proxy>>,
    ) -> std::io::Result<SliceHandle> {
        let Slice { ctrl, data, mut update_tx, mut sync, clock } = Slice::new(config, gw_ip, tac, alloc, proxy);
        let (data_in, mut ingress) = SpscRing::with_capacity(DATA_RING_CAPACITY);
        let (mut egress, data_out) = SpscRing::with_capacity(DATA_RING_CAPACITY);
        let (ctrl_tx, mut mailbox) = SpscRing::with_capacity(CTRL_RING_CAPACITY);
        let (mut replies, ctrl_rx) = SpscRing::with_capacity(CTRL_RING_CAPACITY);

        let mut burst = Vec::with_capacity(BURST);
        let mut verdicts = Vec::with_capacity(BURST);
        let data_worker = Worker::spawn_state(CoreId(config.data_core), data, move |dp: &mut DataPlane| {
            let room = egress.capacity() - egress.len();
            let n = ingress.pop_burst(&mut burst, room.min(BURST));
            // An idle data thread syncs too, so updates land without
            // traffic.
            if sync.due(n) || n == 0 {
                sync.run(dp, &clock);
            }
            if n == 0 {
                return Poll::Idle;
            }
            dp.process_burst_into(&mut burst, clock.now_ns(), &mut verdicts);
            for v in verdicts.drain(..) {
                if let PacketVerdict::Forward(m) = v {
                    let pushed = egress.push(m).is_ok();
                    debug_assert!(pushed, "egress room was checked before the burst was taken");
                }
            }
            Poll::Busy
        })?;

        let ctrl_worker = Worker::spawn_state(CoreId(config.ctrl_core), ctrl, move |cp: &mut ControlPlane| {
            if replies.len() == replies.capacity() {
                return Poll::Idle;
            }
            let Some(cmd) = mailbox.pop() else { return Poll::Idle };
            let reply = match cmd {
                CtrlCmd::Event(ev) => Some(CtrlReply::Event(cp.apply_event(ev))),
                CtrlCmd::S1ap(pdu) => Some(CtrlReply::S1ap(cp.handle_s1ap(&pdu))),
                CtrlCmd::Tick(now) => {
                    cp.note_tick(now);
                    None
                }
            };
            // Once the sender holds the reply, the command's updates are
            // on the ring.
            flush_updates(cp, &mut update_tx, &clock, std::thread::yield_now);
            if let Some(reply) = reply {
                let pushed = replies.push(reply).is_ok();
                debug_assert!(pushed, "reply room was checked before the command was taken");
            }
            Poll::Busy
        })?;

        Ok(SliceHandle { data_in, data_out, ctrl_tx, ctrl_rx, data_worker, ctrl_worker })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchingConfig, SliceConfig};
    use crate::ctrl::run_attach_with;
    use pepc_net::gtp::encap_gtpu;
    use pepc_net::ipv4::IpProto;
    use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
    use pepc_net::{Ipv4Hdr, IPV4_HDR_LEN};
    use std::time::{Duration, Instant};

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

    /// Push `cmd` into a threaded slice's mailbox, retrying while it is
    /// full, and wait for its reply (`Tick` has none).
    fn call(h: &mut SliceHandle, mut cmd: CtrlCmd) -> Option<CtrlReply> {
        let tick = matches!(cmd, CtrlCmd::Tick(_));
        while let Err(back) = h.ctrl_tx.push(cmd) {
            cmd = back;
            std::thread::yield_now();
        }
        if tick {
            return None;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(r) = h.ctrl_rx.pop() {
                return Some(r);
            }
            assert!(Instant::now() < deadline, "no reply");
            std::thread::yield_now();
        }
    }

    /// The inline slice's method for each command's job.
    fn call_inline(s: &mut Slice, cmd: CtrlCmd) -> Option<CtrlReply> {
        match cmd {
            CtrlCmd::Event(ev) => Some(CtrlReply::Event(s.handle_ctrl_event(ev))),
            CtrlCmd::S1ap(pdu) => Some(CtrlReply::S1ap(s.handle_s1ap(&pdu))),
            CtrlCmd::Tick(now) => {
                s.note_tick(now);
                None
            }
        }
    }

    /// Pop egress until `n` packets came out; false at the deadline.
    fn drain_egress(h: &mut SliceHandle, n: usize) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut out = Vec::new();
        while out.len() < n && Instant::now() < deadline {
            let want = n - out.len();
            if h.data_out.pop_burst(&mut out, want) == 0 {
                std::thread::yield_now();
            }
        }
        out.len() == n
    }

    #[test]
    fn threaded_slice_end_to_end() {
        let config = SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..SliceConfig::default() };
        let mut h = Slice::spawn(&config, 0x0AFE0001, 1, alloc(), None).unwrap();
        assert_eq!(call(&mut h, CtrlCmd::Event(CtrlEvent::Attach { imsi: 7 })), Some(CtrlReply::Event(true)));
        // The reply means the insert is on the update ring, so the first
        // packet already sees the user.
        assert!(h.data_in.push(uplink(0x1000, 0x0A000001)).is_ok());
        assert!(drain_egress(&mut h, 1), "threaded pipeline never forwarded");
        let (cp, dp) = h.shutdown().unwrap();
        assert_eq!((cp.metrics().attaches, dp.metrics().forwarded), (1, 1));
    }

    const USERS: u64 = 6;

    fn backed_config() -> (SliceConfig, Arc<Proxy>) {
        use pepc_backend::{Hss, Pcrf};
        let hss = Arc::new(Hss::new());
        hss.provision_range(1, USERS, 100_000);
        let proxy = Arc::new(Proxy::new(hss, Arc::new(Pcrf::with_standard_rules()), 1, 40401));
        (SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..SliceConfig::default() }, proxy)
    }

    /// S1AP attaches, handovers, releases and ticks through `send`; the
    /// replies in order, and the (TEID, UE IP) of each user still active.
    fn script(mut send: impl FnMut(CtrlCmd) -> Option<CtrlReply>) -> (Vec<CtrlReply>, Vec<(u32, u32)>) {
        let mut replies = Vec::new();
        let mut active = Vec::new();
        for imsi in 1..=USERS {
            let attach = run_attach_with(
                |pdu| {
                    let reply = send(CtrlCmd::S1ap(pdu.clone())).expect("an S1AP command is answered");
                    let CtrlReply::S1ap(rsp) = &reply else { panic!("{reply:?}") };
                    let rsp = rsp.clone();
                    replies.push(reply);
                    rsp
                },
                imsi,
                imsi as u32,
                0xE000 + imsi as u32,
                0xC0A8_0001,
            );
            let (_, ue_ip, gw_teid) = attach.expect("attach");
            active.push((gw_teid, ue_ip));
        }
        let events = (1..=USERS)
            .map(|imsi| CtrlEvent::S1Handover { imsi, new_enb_teid: 0xF000 + imsi as u32, new_enb_ip: 0xC0A8_0002 })
            .chain([CtrlEvent::Release { imsi: 1 }, CtrlEvent::Release { imsi: 2 }, CtrlEvent::Detach { imsi: 99 }]);
        for (now, ev) in (1..).zip(events) {
            replies.extend(send(CtrlCmd::Event(ev)));
            assert_eq!(send(CtrlCmd::Tick(now)), None);
        }
        (replies, active.split_off(2))
    }

    #[test]
    fn threaded_slice_matches_inline() {
        const K: usize = 16;
        let (config, proxy) = backed_config();
        let mut inline = Slice::new(&config, 0x0AFE0001, 1, alloc(), Some(proxy));
        let (inline_replies, active) = script(|cmd| call_inline(&mut inline, cmd));
        let mut burst: Vec<Mbuf> =
            active.iter().flat_map(|&(teid, ip)| (0..K).map(move |_| uplink(teid, ip))).collect();
        let sent = burst.len();
        inline.process_burst_into(&mut burst, &mut Vec::new());

        let (config, proxy) = backed_config();
        let mut h = Slice::spawn(&config, 0x0AFE0001, 1, alloc(), Some(proxy)).unwrap();
        let (replies, threaded_active) = script(|cmd| call(&mut h, cmd));
        assert_eq!(threaded_active, active);
        for &(teid, ip) in &active {
            for _ in 0..K {
                assert!(h.data_in.push(uplink(teid, ip)).is_ok());
            }
        }
        let forwarded = inline.data.metrics().forwarded as usize;
        assert_eq!(forwarded, sent, "every active user's packets forward");
        assert!(drain_egress(&mut h, forwarded), "egress short of the inline slice's {forwarded}");
        let (cp, dp) = h.shutdown().unwrap();

        assert_eq!(replies, inline_replies);
        assert_eq!(cp.metrics(), inline.ctrl.metrics());
        assert_eq!(dp.metrics(), inline.data.metrics());
        assert_eq!(dp.metrics().forwarded as usize, forwarded, "forwarded == popped from egress");
        assert_eq!((cp.user_count(), cp.idle_user_count()), (inline.ctrl.user_count(), inline.ctrl.idle_user_count()));
        assert_eq!(dp.user_count(), inline.data.user_count());
        assert_eq!(dp.slab().live_slots(), inline.data.slab().live_slots());
    }

    #[test]
    fn threaded_slice_rings_are_bounded() {
        let config = SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..SliceConfig::default() };
        let mut h = Slice::spawn(&config, 0x0AFE0001, 1, alloc(), None).unwrap();
        // Nothing drains the replies: the control thread answers until the
        // reply ring is full, then the mailbox fills behind it.
        let mut accepted = 0u64;
        let refused = loop {
            match h.ctrl_tx.push(CtrlCmd::Event(CtrlEvent::Attach { imsi: accepted })) {
                Ok(()) => accepted += 1,
                Err(back) => break back,
            }
        };
        assert_eq!(refused, CtrlCmd::Event(CtrlEvent::Attach { imsi: accepted }), "the command comes back intact");
        let deadline = Instant::now() + Duration::from_secs(10);
        while h.ctrl_rx.len() < CTRL_RING_CAPACITY || h.ctrl_tx.len() < CTRL_RING_CAPACITY {
            assert!(Instant::now() < deadline, "rings never filled");
            let _ = h.ctrl_tx.push(CtrlCmd::Event(CtrlEvent::Attach { imsi: accepted })).map(|()| accepted += 1);
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            (h.ctrl_rx.len(), h.ctrl_tx.len()),
            (CTRL_RING_CAPACITY, CTRL_RING_CAPACITY),
            "full replies stall it"
        );
        assert_eq!(accepted, 2 * CTRL_RING_CAPACITY as u64);
        // Draining the replies lets every accepted command through.
        let mut answered = 0;
        while answered < accepted {
            assert!(Instant::now() < deadline, "{answered} of {accepted} answered");
            match h.ctrl_rx.pop() {
                Some(r) => {
                    assert_eq!(r, CtrlReply::Event(true));
                    answered += 1;
                }
                None => std::thread::yield_now(),
            }
        }

        // Egress is never drained: the data thread fills it, then takes no
        // more ingress, and ingress fills behind it.
        let (teid, ue_ip) = (0x1000, 0x0A00_0001);
        let mut offered = 0usize;
        while h.data_out.len() < DATA_RING_CAPACITY || h.data_in.len() < DATA_RING_CAPACITY {
            assert!(Instant::now() < deadline, "data rings never filled");
            if h.data_in.push(uplink(teid, ue_ip)).is_ok() {
                offered += 1;
            } else {
                std::thread::yield_now();
            }
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(h.data_in.push(uplink(teid, ue_ip)).is_err(), "a full ingress hands the packet back");
        assert_eq!((h.data_out.len(), h.data_in.len()), (DATA_RING_CAPACITY, DATA_RING_CAPACITY));
        assert_eq!(offered, 2 * DATA_RING_CAPACITY);
        let (_, dp) = h.shutdown().unwrap();
        let m = dp.metrics();
        assert_eq!((m.rx, m.forwarded), (DATA_RING_CAPACITY as u64, DATA_RING_CAPACITY as u64), "{m:?}");
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
