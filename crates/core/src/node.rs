//! The PEPC node — paper §3.3: several slices, a Demux, a scheduler and
//! the backend proxy on one server.
//!
//! This implementation drives its slices *inline* (single logical thread
//! per node), which keeps behaviour deterministic for tests and lets the
//! figure harnesses measure per-core work precisely; the threaded
//! execution mode lives in [`crate::slice::Slice::spawn`] and is
//! exercised by the slice tests and examples. The node scheduler's
//! responsibilities from the paper are all here: instantiating slices
//! from operator configuration, steering (via [`Demux`]), and state
//! migration with per-user packet queues.

use crate::config::EpcConfig;
use crate::ctrl::{Allocator, CtrlEvent};
use crate::data::PacketVerdict;
use crate::demux::{Demux, PacketKey, Steer, REGION_SHIFT};
use crate::proxy::Proxy;
use crate::recovery::UserRecord;
use crate::slice::Slice;
use pepc_backend::{Hss, Pcrf};
use pepc_fabric::Clock;
use pepc_net::Mbuf;
use pepc_sigproto::nas::NasMsg;
use pepc_sigproto::s1ap::S1apPdu;
use pepc_telemetry::{LatencyHistogram, MetricsSnapshot};
use std::sync::Arc;

/// Base of the GUTI space. A slice's GUTI block starts its TEID base
/// `<< 32` above it, so GUTIs are unique across a cluster and name their
/// TEID region.
const GUTI_BASE: u64 = 0xD00D_0000_0000;

/// A slice's MME UE ids are its TEIDs moved down by this much, so they too
/// are unique across a cluster and name their TEID region; under the
/// default TEID base, node 0's first id is 1.
const MME_UE_ID_OFFSET: u32 = 0x0FFF_FFFF;

/// Outcome of handing the node a data packet.
#[derive(Debug)]
pub enum NodeVerdict {
    /// Processed and forwarded by a slice.
    Forward(Mbuf),
    /// Dropped by the pipeline (slice verdict) or unroutable (no user).
    Drop,
    /// Parked in a migration queue; will emerge later.
    Parked,
    /// Held in an idle-UE buffer behind a page; emerges via
    /// [`PepcNode::take_woken`] when the UE answers, or is dropped when
    /// the page expires.
    Buffered,
}

impl NodeVerdict {
    pub fn is_forward(&self) -> bool {
        matches!(self, NodeVerdict::Forward(_))
    }
}

impl From<PacketVerdict> for NodeVerdict {
    fn from(v: PacketVerdict) -> Self {
        match v {
            PacketVerdict::Forward(m) => NodeVerdict::Forward(m),
            PacketVerdict::Drop(_) => NodeVerdict::Drop,
            PacketVerdict::Buffered => NodeVerdict::Buffered,
        }
    }
}

/// One slice's share of the burst in flight: its packets, and where in
/// the input each of them stood.
#[derive(Default)]
struct Bucket {
    packets: Vec<Mbuf>,
    positions: Vec<usize>,
}

/// A PEPC node.
pub struct PepcNode {
    config: EpcConfig,
    slices: Vec<Slice>,
    demux: Demux,
    /// Forwarded packets produced while draining migration queues.
    migration_out: Vec<Mbuf>,
    /// Per-user migration latency (park→drain), indexed by target slice —
    /// migration is a node procedure, so the node owns its histogram.
    migration_ns: Vec<LatencyHistogram>,
    /// Clock the node stamps migration latencies with (virtual under sim).
    clock: Clock,
    /// `process_burst` scratch, one bucket per slice, reused across bursts.
    buckets: Vec<Bucket>,
    /// `process_burst` scratch: the verdicts of the slice being drained.
    verdicts: Vec<PacketVerdict>,
}

impl PepcNode {
    /// Build a node with `config.slices` slices. Each slice gets a
    /// disjoint identifier region carved from the node's bases.
    pub fn new(config: EpcConfig, backends: Option<(Arc<Hss>, Arc<Pcrf>)>) -> Self {
        let proxy = backends.map(|(hss, pcrf)| Arc::new(Proxy::new(hss, pcrf, config.gw_ip, config.plmn)));
        let mut slices = Vec::with_capacity(config.slices);
        for k in 0..config.slices {
            let alloc = Self::allocator_for(&config, k);
            slices.push(Slice::new(&config.slice, config.gw_ip, config.tac, alloc, proxy.clone()));
        }
        PepcNode {
            demux: Demux::new(config.teid_base, config.ue_ip_base, config.slices, config.slice.iot),
            migration_ns: vec![LatencyHistogram::new(); config.slices],
            buckets: (0..config.slices).map(|_| Bucket::default()).collect(),
            config,
            slices,
            migration_out: Vec::new(),
            clock: Clock::new(),
            verdicts: Vec::new(),
        }
    }

    /// Substitute the clock for this node and all its slices (the
    /// simulator installs a shared virtual clock so node time only moves
    /// when the harness advances it).
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
        for s in &mut self.slices {
            s.set_clock(clock);
        }
    }

    /// The identifier region slice `k` allocates from (24 bits ≈ 16M users
    /// per slice). Steering inverts exactly this layout.
    fn allocator_for(config: &EpcConfig, k: usize) -> Allocator {
        let k = k as u32;
        let teid_base = config.teid_base + (k << REGION_SHIFT);
        Allocator {
            teid_base,
            ue_ip_base: config.ue_ip_base + (k << REGION_SHIFT),
            guti_base: GUTI_BASE.wrapping_add(u64::from(teid_base) << 32),
            mme_ue_id_base: teid_base.wrapping_sub(MME_UE_ID_OFFSET),
        }
    }

    /// Slice a fresh IMSI will be homed on (static hash, as the paper's
    /// Demux does for signaling).
    pub fn home_slice(&self, imsi: u64) -> usize {
        self.demux.home_slice(imsi)
    }

    /// Slice serving `imsi`, if it is attached: where the Demux points,
    /// verified against that slice's own user index.
    pub fn slice_of(&self, imsi: u64) -> Option<usize> {
        let k = self.demux.slice_hint(imsi);
        self.slices[k].ctrl.context_of(imsi).is_some().then_some(k)
    }

    /// Attach a user via the synthetic event path. Returns the slice it
    /// was homed on.
    pub fn attach(&mut self, imsi: u64) -> usize {
        let k = self.demux.slice_hint(imsi);
        self.slices[k].handle_ctrl_event(CtrlEvent::Attach { imsi });
        k
    }

    /// Detach a user everywhere.
    pub fn detach(&mut self, imsi: u64) -> bool {
        self.ctrl_event(CtrlEvent::Detach { imsi })
    }

    /// Apply a synthetic control event to the owning slice.
    pub fn ctrl_event(&mut self, ev: CtrlEvent) -> bool {
        let (CtrlEvent::Attach { imsi }
        | CtrlEvent::S1Handover { imsi, .. }
        | CtrlEvent::ModifyBearer { imsi, .. }
        | CtrlEvent::Release { imsi }
        | CtrlEvent::Detach { imsi }) = ev;
        let k = self.demux.slice_hint(imsi);
        let ok = self.slices[k].handle_ctrl_event(ev);
        self.retire_departed(k);
        ok
    }

    /// Route one S1AP PDU to the right slice and return its responses.
    ///
    /// InitialUEMessage is routed by the IMSI (attach) or the GUTI
    /// (service request) inside the NAS payload; UE-associated follow-ups
    /// are routed by the MME UE id. GUTI and MME-UE-id ranges are disjoint
    /// per slice, so both are arithmetic.
    pub fn handle_s1ap(&mut self, pdu: &S1apPdu) -> Vec<S1apPdu> {
        let k = match pdu {
            S1apPdu::InitialUeMessage { nas, .. } => match NasMsg::decode(nas) {
                Ok(NasMsg::AttachRequest { imsi, .. }) => self.demux.slice_hint(imsi),
                Ok(NasMsg::ServiceRequest { guti }) => self.slice_of_guti(guti),
                _ => return vec![],
            },
            S1apPdu::UplinkNasTransport { mme_ue_id, .. }
            | S1apPdu::InitialContextSetupResponse { mme_ue_id, .. }
            | S1apPdu::PathSwitchRequest { mme_ue_id, .. }
            | S1apPdu::HandoverRequired { mme_ue_id, .. }
            | S1apPdu::HandoverRequestAck { mme_ue_id, .. }
            | S1apPdu::UeContextReleaseRequest { mme_ue_id, .. }
            | S1apPdu::UeContextReleaseComplete { mme_ue_id, .. } => self.slice_of_mme_ue_id(*mme_ue_id),
            _ => return vec![],
        };
        let rsp = self.slices[k].handle_s1ap(pdu);
        self.retire_departed(k);
        rsp
    }

    /// Retire the exception entry of the user slice `k` just let go of
    /// (detach, attach rollback), if it had one.
    fn retire_departed(&mut self, k: usize) {
        if let Some(imsi) = self.slices[k].ctrl.take_departed() {
            if !self.demux.is_clear() && self.slice_of(imsi).is_none() {
                self.demux.forget(imsi);
            }
        }
    }

    /// Drive network-triggered paging on every slice; returns the paging
    /// PDUs (and supervision-sweep retransmits) to send to the eNodeBs.
    pub fn pump_paging(&mut self) -> Vec<S1apPdu> {
        let mut out = Vec::new();
        for s in &mut self.slices {
            out.extend(s.pump_paging());
        }
        out
    }

    /// Drain buffered downlink flushed by idle-UE wakes on every slice.
    pub fn take_woken(&mut self) -> Vec<Mbuf> {
        let mut out = Vec::new();
        for s in &mut self.slices {
            out.extend(s.take_woken());
        }
        out
    }

    /// Stuck-idle oracle over all slices: suspended UEs holding buffered
    /// downlink older than `bound_ns` with no page in flight.
    pub fn stuck_idle(&self, now_ns: u64, bound_ns: u64) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.slices.iter().flat_map(|s| s.stuck_idle(now_ns, bound_ns)).collect();
        v.sort_unstable();
        v
    }

    /// Slice owning an MME UE id: an id is a TEID of its slice's region
    /// moved down by `MME_UE_ID_OFFSET`, so whoever serves that region
    /// (adopted regions included) gets it. Ids in no served region go to
    /// the last slice.
    fn slice_of_mme_ue_id(&self, mme_ue_id: u32) -> usize {
        let teid = mme_ue_id.wrapping_add(MME_UE_ID_OFFSET);
        self.demux.region_of(PacketKey::Teid(teid)).unwrap_or(self.slices.len() - 1)
    }

    /// Slice owning a GUTI: the one serving the TEID region its block
    /// names (adopted regions included), if it knows it. A migrated user
    /// keeps its GUTI, so while any user is off-home the other slices are
    /// probed too. Unknown GUTIs go to slice 0, which answers with the
    /// release-and-reattach command.
    fn slice_of_guti(&self, guti: u64) -> usize {
        let knows = |k: &usize| self.slices[*k].ctrl.knows_guti(guti);
        let teid_base = (guti.wrapping_sub(GUTI_BASE) >> 32) as u32;
        match self.demux.region_of(PacketKey::Teid(teid_base)) {
            Some(k) if knows(&k) => k,
            _ if self.demux.is_clear() => 0,
            _ => (0..self.slices.len()).find(knows).unwrap_or(0),
        }
    }

    /// Process one data packet end to end.
    pub fn process(&mut self, m: Mbuf) -> NodeVerdict {
        match self.demux.steer(m) {
            Steer::ToSlice(k, m) => self.slices[k].process_packet(m).into(),
            Steer::Parked => NodeVerdict::Parked,
            Steer::Unroutable => NodeVerdict::Drop,
        }
    }

    /// Process a burst of data packets end to end, returning one verdict
    /// per packet in input order: bucket the burst by slice, hand each
    /// non-empty bucket to its slice as *one* burst (its prefetching, lock
    /// coalescing and once-per-burst sync then cover the slice's whole
    /// share), scatter the verdicts back to their packets' positions. A
    /// user lives on one slice, so per-user order is the input's.
    pub fn process_burst(&mut self, burst: Vec<Mbuf>) -> Vec<NodeVerdict> {
        let mut out = Vec::with_capacity(burst.len());
        for (at, m) in burst.into_iter().enumerate() {
            out.push(match self.demux.steer(m) {
                Steer::ToSlice(k, m) => {
                    self.buckets[k].packets.push(m);
                    self.buckets[k].positions.push(at);
                    NodeVerdict::Drop // overwritten by the slice's verdict below
                }
                Steer::Parked => NodeVerdict::Parked,
                Steer::Unroutable => NodeVerdict::Drop,
            });
        }
        for (slice, bucket) in self.slices.iter_mut().zip(&mut self.buckets) {
            if bucket.packets.is_empty() {
                continue;
            }
            slice.process_burst_into(&mut bucket.packets, &mut self.verdicts);
            for (at, v) in bucket.positions.drain(..).zip(self.verdicts.drain(..)) {
                out[at] = v.into();
            }
        }
        out
    }

    /// Migrate `imsi` from its current slice to `target` (paper §4.3,
    /// §6.6). A user's state is one consolidated context, so a move hands
    /// one value between two slices' control threads:
    ///
    /// 1. the Demux starts parking the user's packets in a per-user queue
    ///    (no loss, no reordering);
    /// 2. the source copies the user out by value as a [`UserRecord`],
    ///    drops its indexes and has its data plane forget the user, which
    ///    frees the slab slot: a packet still in flight on the source
    ///    resolves a dead generation and drops, as after a detach;
    /// 3. the target restores the record into a fresh slot of *its* arena
    ///    with the keys unchanged, so tunnels stay valid. A target whose
    ///    arena is full aborts the move: the user goes back into the slot
    ///    step 2 freed;
    /// 4. the Demux repoints and the parked packets drain to the owner;
    ///    their outputs come out of [`PepcNode::take_migration_output`].
    ///
    /// Returns false if the user is unknown, already on `target`, or
    /// stayed put.
    pub fn migrate(&mut self, imsi: u64, target: usize) -> bool {
        let Some(source) = self.slice_of(imsi) else { return false };
        if source == target || target >= self.slices.len() {
            return false;
        }
        let Some((gw_teid, ue_ip)) = self.slices[source].ctrl.keys_of(imsi) else { return false };
        let t0 = self.clock.now_ns();
        self.demux.park(imsi, gw_teid, ue_ip, source);
        let mut landed = source;
        if let Some(rec) = self.slices[source].extract_user(imsi) {
            for k in [target, source] {
                if self.slices[k].restore_user(rec.clone()) {
                    self.slices[k].ctrl.note_migration_in();
                    landed = k;
                    break;
                }
            }
        }
        for m in self.demux.finish(imsi, landed) {
            if let PacketVerdict::Forward(out) = self.slices[landed].process_packet(m) {
                self.migration_out.push(out);
            }
        }
        if landed == target {
            self.migration_ns[target].record(self.clock.now_ns().saturating_sub(t0));
        }
        landed == target
    }

    /// Packets forwarded while draining migration queues.
    pub fn take_migration_output(&mut self) -> Vec<Mbuf> {
        std::mem::take(&mut self.migration_out)
    }

    /// Advance every slice's procedure-supervision clock.
    pub fn note_tick(&mut self, now: u64) {
        for s in &mut self.slices {
            s.note_tick(now);
        }
    }

    /// Expire stalled procedures on every slice; returns the total count.
    pub fn expire_procedures(&mut self, now: u64, max_age: u64) -> usize {
        self.slices.iter_mut().map(|s| s.expire_procedures(now, max_age)).sum()
    }

    /// UEs stuck mid-procedure beyond `bound` ticks across all slices,
    /// as `(imsi, age)` — the simulator's liveness-oracle input.
    pub fn stuck_procedures(&self, now: u64, bound: u64) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.slices.iter().flat_map(|s| s.ctrl.stuck_procedures(now, bound)).collect();
        v.sort_unstable();
        v
    }

    /// Direct access to a slice (harness / test hook).
    pub fn slice(&mut self, k: usize) -> &mut Slice {
        &mut self.slices[k]
    }

    /// Immutable access to a slice (oracles, inspection).
    pub fn slice_ref(&self, k: usize) -> &Slice {
        &self.slices[k]
    }

    /// Number of slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Total users attached across slices.
    pub fn user_count(&self) -> usize {
        self.slices.iter().map(|s| s.ctrl.user_count()).sum()
    }

    /// Snapshot every slice's observability registry, plus the node-owned
    /// migration histogram (slotted into the target slice's entry).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (k, s) in self.slices.iter().enumerate() {
            let mut sl = s.telemetry_snapshot(k as u64);
            sl.migration_ns = self.migration_ns[k].clone();
            snap.slices.push(sl);
        }
        snap
    }

    /// The node's Demux (inspection).
    pub fn demux(&self) -> &Demux {
        &self.demux
    }

    /// Serve the identifier region `teid` lies in — a failed node's — on
    /// `slice`: its TEIDs, UE IPs and GUTIs steer there from now on.
    pub fn adopt_region(&mut self, teid: u32, slice: usize) {
        self.demux.adopt_region(teid, slice);
    }

    /// Adopt a user recovered from another node's replica: restore the
    /// record (identifiers and tunnels are preserved, so in-flight GTP
    /// tunnels stay valid) over its resident copy if it has one, else into
    /// the slice serving its keys' region, else into its IMSI's home; then
    /// tell the Demux, which keeps an entry only if that slice is not
    /// where the region and the IMSI point. Returns the slice the user
    /// landed on, or `None` when that slice's arena is full.
    pub fn adopt_user(&mut self, rec: UserRecord) -> Option<usize> {
        let (imsi, gw_teid, ue_ip) = (rec.ctrl.imsi, rec.ctrl.tunnels.gw_teid, rec.ctrl.ue_ip);
        let k = self
            .slice_of(imsi)
            .or_else(|| self.demux.region_of(PacketKey::Teid(gw_teid)))
            .unwrap_or_else(|| self.demux.home_slice(imsi));
        if !self.slices[k].restore_user(rec) {
            return None;
        }
        self.demux.place(imsi, gw_teid, ue_ip, k);
        Some(k)
    }

    /// The node configuration.
    pub fn config(&self) -> &EpcConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepc_net::gtp::{decap_gtpu, encap_gtpu};
    use pepc_net::ipv4::IpProto;
    use pepc_net::{Ipv4Hdr, IPV4_HDR_LEN};

    fn config(slices: usize) -> EpcConfig {
        EpcConfig {
            slices,
            slice: crate::config::SliceConfig {
                batching: crate::config::BatchingConfig { sync_every_packets: 1 },
                ..Default::default()
            },
            ..EpcConfig::default()
        }
    }

    fn node(slices: usize) -> PepcNode {
        PepcNode::new(config(slices), None)
    }

    fn uplink(ue_ip: u32, teid: u32) -> Mbuf {
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 16];
        Ipv4Hdr::new(ue_ip, 0x08080808, IpProto::Udp, 16).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        m.extend(&hdr);
        encap_gtpu(&mut m, 0xC0A80001, 0x0AFE0001, teid).unwrap();
        m
    }

    fn downlink(ue_ip: u32) -> Mbuf {
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
        Ipv4Hdr::new(0x08080808, ue_ip, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        m.extend(&hdr);
        m
    }

    fn uplink_for(node: &mut PepcNode, imsi: u64) -> Mbuf {
        let k = node.slice_of(imsi).unwrap();
        let (teid, ue_ip) = node.slice(k).ctrl.keys_of(imsi).unwrap();
        uplink(ue_ip, teid)
    }

    fn downlink_for(node: &mut PepcNode, imsi: u64) -> Mbuf {
        let k = node.slice_of(imsi).unwrap();
        downlink(node.slice(k).ctrl.keys_of(imsi).unwrap().1)
    }

    #[test]
    fn attach_and_bidirectional_traffic() {
        let mut n = node(2);
        n.attach(7);
        // Downlink tunnel endpoint comes from a handover/ICS; set one.
        n.ctrl_event(CtrlEvent::S1Handover { imsi: 7, new_enb_teid: 0xE0, new_enb_ip: 0xC0A80001 });
        assert_eq!(n.user_count(), 1);
        let up = uplink_for(&mut n, 7);
        assert!(n.process(up).is_forward());
        let down = downlink_for(&mut n, 7);
        match n.process(down) {
            NodeVerdict::Forward(mut m) => {
                let (gtp, _) = decap_gtpu(&mut m).unwrap();
                assert_eq!(gtp.teid, 0xE0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn users_spread_across_slices() {
        let mut n = node(4);
        for imsi in 0..64 {
            n.attach(imsi);
        }
        let counts: Vec<usize> = (0..4).map(|k| n.slice(k).ctrl.user_count()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 64);
        assert!(counts.iter().all(|&c| c > 0), "all slices used: {counts:?}");
    }

    #[test]
    fn unroutable_packets_dropped() {
        let mut n = node(1);
        assert!(matches!(n.process(downlink(0x0BADF00D)), NodeVerdict::Drop));
    }

    #[test]
    fn iot_pool_packets_reach_the_fast_path_on_every_slice() {
        let mut cfg = config(2);
        cfg.slice.iot =
            crate::config::IotConfig { enabled: true, teid_base: 0xF000_0000, ip_base: 0x6400_0000, pool_size: 100 };
        let mut n = PepcNode::new(cfg, None);
        // Pool keys lie in no slice's region; nobody attached.
        let mut burst = Vec::new();
        for j in 0..4 {
            burst.push(uplink(0x6400_0000 + j, 0xF000_0000 + j));
            burst.push(downlink(0x6400_0000 + j));
        }
        assert!(n.process_burst(burst).iter().all(NodeVerdict::is_forward));
        assert!(n.process(uplink(0x6400_0063, 0xF000_0063)).is_forward());
        assert!(n.process(downlink(0x6400_0063)).is_forward());
        // One past the pool is unroutable again, dropped before any slice.
        assert!(matches!(n.process(uplink(0x6400_0064, 0xF000_0064)), NodeVerdict::Drop));
        assert!(matches!(n.process(downlink(0x6400_0064)), NodeVerdict::Drop));

        let snap = n.metrics_snapshot();
        assert!(snap.conservation_holds());
        let t = snap.data_totals();
        assert_eq!((t.rx, t.forwarded, t.iot_fast_path, t.drops_total()), (10, 10, 10, 0));
        let iot: Vec<u64> = (0..2).map(|k| n.slice_ref(k).data.iot_packets).collect();
        assert_eq!(iot.iter().sum::<u64>(), 10);
        assert!(iot.iter().all(|&p| p > 0), "the pool spreads over both slices: {iot:?}");
    }

    #[test]
    fn burst_processing_spans_slices_in_order() {
        let mut n = node(2);
        for imsi in 0..8 {
            n.attach(imsi);
            n.ctrl_event(CtrlEvent::S1Handover { imsi, new_enb_teid: 0xE0, new_enb_ip: 0xC0A80001 });
        }
        // Mixed burst: packets for users on different slices plus one
        // unroutable, interleaved so several same-slice runs form.
        let mut burst = Vec::new();
        let mut expect_forward = Vec::new();
        for imsi in [0u64, 0, 1, 2, 2, 3] {
            burst.push(uplink_for(&mut n, imsi));
            expect_forward.push(true);
        }
        burst.push(downlink(0x0BADF00D));
        expect_forward.push(false);
        burst.push(downlink_for(&mut n, 5));
        expect_forward.push(true);

        let verdicts = n.process_burst(burst);
        assert_eq!(verdicts.len(), expect_forward.len());
        for (v, want) in verdicts.iter().zip(&expect_forward) {
            assert_eq!(v.is_forward(), *want, "{v:?}");
        }
        let snap = n.metrics_snapshot();
        assert!(snap.conservation_holds());
        assert_eq!(snap.data_totals().forwarded, 7);
    }

    #[test]
    fn migration_moves_user_and_preserves_packets() {
        let mut n = node(2);
        n.attach(7);
        let src = n.slice_of(7).unwrap();
        let dst = 1 - src;
        // Traffic before migration.
        let up = uplink_for(&mut n, 7);
        assert!(n.process(up).is_forward());

        assert!(n.migrate(7, dst));
        assert_eq!(n.slice_of(7), Some(dst));
        assert_eq!(n.demux().moved_count(), 1, "off-home: one exception entry");
        assert_eq!(n.slice(src).ctrl.user_count(), 0);
        assert_eq!(n.slice(dst).ctrl.user_count(), 1);
        // Counters travelled.
        assert_eq!(n.slice(dst).ctrl.counters_of(7).unwrap().uplink_packets, 1);
        // Traffic after migration still flows (same TEID).
        let up = uplink_for(&mut n, 7);
        assert!(n.process(up).is_forward());
        assert_eq!(n.slice(dst).ctrl.counters_of(7).unwrap().uplink_packets, 2);
    }

    #[test]
    fn node_snapshot_covers_slices_and_migration() {
        let mut n = node(2);
        n.attach(7);
        let src = n.slice_of(7).unwrap();
        let dst = 1 - src;
        let up = uplink_for(&mut n, 7);
        assert!(n.process(up).is_forward());
        assert!(n.migrate(7, dst));

        let snap = n.metrics_snapshot();
        assert_eq!(snap.slices.len(), 2);
        assert!(snap.conservation_holds());
        assert_eq!(snap.slices[dst].migration_ns.count(), 1);
        assert_eq!(snap.slices[src].migration_ns.count(), 0);
        assert_eq!(snap.slices[dst].ctrl.migrations_in, 1);
        assert_eq!(snap.slices[src].ctrl.migrations_out, 1);
        assert_eq!(snap.data_totals().forwarded, 1);
        // The report renders and round-trips.
        let text = snap.render();
        assert!(text.contains("conservation=ok"), "{text}");
        let back = pepc_telemetry::MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert!(back.deterministic_eq(&snap));
    }

    #[test]
    fn migrate_rejects_bad_targets() {
        let mut n = node(2);
        n.attach(7);
        let src = n.slice_of(7).unwrap();
        assert!(!n.migrate(7, src), "same slice");
        assert!(!n.migrate(7, 99), "out of range");
        assert!(!n.migrate(999, 0), "unknown user");
    }

    #[test]
    fn migration_to_a_full_arena_returns_the_user_to_its_source() {
        let mut n = node(2);
        n.attach(7);
        let src = n.slice_of(7).unwrap();
        let dst = 1 - src;
        n.slice(dst).ctrl.slab().skip_to(1 << REGION_SHIFT);
        assert!(!n.migrate(7, dst), "the target has no free slot");
        assert_eq!(n.slice_of(7), Some(src));
        assert_eq!(n.demux().moved_count(), 0, "back home: no exception entry");
        let up = uplink_for(&mut n, 7);
        assert!(n.process(up).is_forward());
        let snap = n.metrics_snapshot();
        let (s, d) = (&snap.slices[src].ctrl, &snap.slices[dst].ctrl);
        assert_eq!((s.migrations_out, s.migrations_in), (1, 1), "out, then back in on the abort");
        assert_eq!((d.migrations_out, d.migrations_in), (0, 0));
        assert_eq!(snap.slices[dst].migration_ns.count(), 0);
        assert_eq!(n.slice(src).data.slab().live_slots(), 1, "the source reuses the slot the extract freed");
    }

    #[test]
    fn detach_cleans_node_state() {
        let mut n = node(2);
        n.attach(7);
        assert!(n.detach(7));
        assert_eq!(n.user_count(), 0);
        assert_eq!(n.slice_of(7), None);
        assert!(!n.detach(7));
    }

    fn node_with_backends(slices: usize) -> PepcNode {
        let hss = Arc::new(Hss::new());
        hss.provision_range(1, 2000, 100_000);
        PepcNode::new(config(slices), Some((hss, Arc::new(Pcrf::with_standard_rules()))))
    }

    #[test]
    fn a_recycled_slot_does_not_hand_over_its_s1_association() {
        use crate::ctrl::run_attach_with;
        let mut n = node_with_backends(1);
        let (guti, ..) = run_attach_with(|pdu| n.handle_s1ap(pdu), 1000, 77, 0xE0, 0xC0A80001).unwrap();
        let nas = NasMsg::DetachRequest { guti }.encode();
        n.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 77, mme_ue_id: 1, nas });
        n.slice(0).sync_now();
        n.attach(1001);
        assert_eq!(n.slice(0).ctrl.context_of(1001).unwrap().s1_conn(), None);
        // An Attach Request from the new user starts a fresh association.
        let nas = NasMsg::AttachRequest { imsi: 1001, ue_capability: 0 }.encode();
        let rsp = n.handle_s1ap(&S1apPdu::InitialUeMessage { enb_ue_id: 78, ecgi: 1, tac: 1, nas });
        assert!(matches!(rsp.as_slice(), [S1apPdu::InitialContextSetupRequest { mme_ue_id: 2, .. }]), "{rsp:?}");
        assert_eq!(n.slice(0).ctrl.s1_index_len(), 1);
    }

    #[test]
    fn an_mme_ue_id_from_an_adopted_region_reaches_its_adopter() {
        let mut n = node_with_backends(2);
        // Slice 1 failed; slice 0 serves its region.
        let teid_base = n.config().teid_base;
        n.adopt_region(teid_base + (1 << REGION_SHIFT), 0);
        let release = |mme_ue_id| S1apPdu::UeContextReleaseRequest { enb_ue_id: 5, mme_ue_id, cause: 0 };
        n.handle_s1ap(&release(1 + (1 << REGION_SHIFT) + 5));
        let rx = |n: &PepcNode, k: usize| n.slice_ref(k).ctrl.metrics().s1ap_rx;
        assert_eq!((rx(&n, 0), rx(&n, 1)), (1, 0), "slice 1's MME UE id reached slice 0");
        n.handle_s1ap(&release(1 + 5));
        assert_eq!((rx(&n, 0), rx(&n, 1)), (2, 0), "slice 0's own ids stay home");
    }

    #[test]
    fn s1ap_attach_routes_without_registering_anything() {
        use crate::ctrl::run_attach_with;
        let mut n = node_with_backends(2);
        // Drive the full attach through the node's S1AP routing.
        let (_, _, _) = run_attach_with(|pdu| n.handle_s1ap(pdu), 42, 1, 0xE0, 0xC0A80001).unwrap();
        assert_eq!(n.user_count(), 1);
        assert_eq!(n.slice_of(42), Some(n.home_slice(42)));
        assert!(n.demux().is_clear(), "steering is arithmetic: nothing registered");
        // Traffic flows both ways through node-level processing.
        let up = uplink_for(&mut n, 42);
        assert!(n.process(up).is_forward());
        let down = downlink_for(&mut n, 42);
        assert!(n.process(down).is_forward());
    }
}
