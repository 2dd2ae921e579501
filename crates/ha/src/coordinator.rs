//! The failover coordinator: a [`Cluster`] wrapped with live replication,
//! failure detection, and automated failover.
//!
//! `HaCluster` owns one replication [`Wire`] per node (node → standby)
//! and no per-user state: a user's node is the live node whose own index
//! holds it. Driving it is explicitly tick-based, like the rest of the
//! fabric:
//!
//! 1. control events replicate **synchronously** — the event's dirty users
//!    are snapshotted, framed, and pumped across the wire before the call
//!    returns, so an acknowledged signaling change survives a crash that
//!    happens one instruction later;
//! 2. [`HaCluster::tick`] emits the periodic work — counter deltas every
//!    [`HaConfig::counter_interval`] ticks, a heartbeat every tick — pumps
//!    every wire into the [`StandbyStore`], and advances the
//!    [`FailureDetector`];
//! 3. when the detector declares a node dead, the coordinator repairs the
//!    Maglev table (only the dead node's keys re-steer) and moves every
//!    replicated user out of the standby onto a survivor, after which the
//!    blackout ends: each of the dead node's TEID / UE-IP regions has
//!    moved whole to one survivor.
//!
//! Killing a node ([`HaCluster::kill_node`]) severs its wire — frames
//! still in its send queue are lost, exactly as a crashed NIC loses
//! them — and power-offs its region in the cluster, so data packets
//! blackhole (charged to `drop_failover`) until failover completes. The
//! wires take a [`FaultSpec`], so chaos tests can add probabilistic drop /
//! corruption / reordering on top of the crash itself.

use crate::detector::{DetectorConfig, FailureDetector, NodeHealth};
use crate::replog::{encode, ReplKind, ReplRecord};
use crate::standby::StandbyStore;
use pepc::cluster::{Cluster, ClusterError};
use pepc::ctrl::CtrlEvent;
use pepc::node::NodeVerdict;
use pepc::recovery::UserRecord;
use pepc::EpcConfig;
use pepc_fabric::{FaultSpec, Wire};
use pepc_net::Mbuf;
use pepc_telemetry::{MetricsSnapshot, WireStat};

/// Frames a replication wire moves per pump, and the standby takes per
/// receive.
const PUMP_BURST: usize = 1024;

/// Tuning for the HA layer.
#[derive(Debug, Clone)]
pub struct HaConfig {
    /// Emit a counter delta for every user each this many ticks — the
    /// bound on charging data lost to a crash.
    pub counter_interval: u64,
    /// Detector timing (in the same ticks).
    pub detector: DetectorConfig,
    /// Fault injection template for the replication wires; node `k` runs
    /// with `seed + k` so wires fault independently but reproducibly.
    pub fault: FaultSpec,
    /// Abort any UE procedure that makes no signaling progress for this
    /// many ticks (mailboxes drain, half-created users roll back). `0`
    /// disables procedure supervision.
    pub procedure_timeout_ticks: u64,
}

impl Default for HaConfig {
    fn default() -> Self {
        HaConfig {
            counter_interval: 8,
            detector: DetectorConfig::default(),
            fault: FaultSpec::none(),
            procedure_timeout_ticks: 0,
        }
    }
}

/// What one completed failover did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// The node that died.
    pub node: usize,
    /// Tick at which the detector declared it dead (failover ran within
    /// the same tick).
    pub detected_tick: u64,
    /// Users promoted onto survivors.
    pub users_recovered: usize,
    /// Worst counter age among recovered users, measured against the last
    /// tick the dead node was heard from — the charging data actually
    /// lost, bounded by [`HaConfig::counter_interval`] on a clean wire.
    pub max_counter_staleness: u64,
}

/// A cluster with live replication and automated failover.
pub struct HaCluster {
    cluster: Cluster,
    cfg: HaConfig,
    tick: u64,
    /// Per-node last-issued replication sequence number.
    seq: Vec<u64>,
    wires: Vec<Wire>,
    standby: StandbyStore,
    detector: FailureDetector,
    failovers: Vec<FailoverReport>,
    scratch: Vec<Mbuf>,
}

impl HaCluster {
    /// Build `n` nodes from a template config with a replication wire per
    /// node.
    pub fn new(n: usize, template: EpcConfig, cfg: HaConfig) -> Self {
        Self::with_backends(n, template, cfg, None)
    }

    /// Build `n` nodes sharing HSS/PCRF backends — enables the full
    /// S1AP/NAS signaling path via [`HaCluster::node_s1ap`].
    pub fn with_backends(
        n: usize,
        template: EpcConfig,
        cfg: HaConfig,
        backends: Option<(std::sync::Arc<pepc_backend::Hss>, std::sync::Arc<pepc_backend::Pcrf>)>,
    ) -> Self {
        let mut cluster = Cluster::new(n, template, backends);
        // Replication is the dirty set's only reader: arm every slice.
        for k in 0..n {
            let node = cluster.node(k);
            for s in 0..node.slice_count() {
                node.slice(s).ctrl.track_dirty_users();
            }
        }
        let wires = (0..n)
            .map(|k| Wire::new(FaultSpec { seed: cfg.fault.seed.wrapping_add(k as u64), ..cfg.fault.clone() }))
            .collect();
        HaCluster {
            cluster,
            detector: FailureDetector::new(n, cfg.detector),
            standby: StandbyStore::new(n),
            cfg,
            tick: 0,
            seq: vec![0; n],
            wires,
            failovers: Vec::new(),
            scratch: Vec::with_capacity(64),
        }
    }

    /// Node that takes `imsi`'s signaling: the [live node hosting
    /// it](Self::owner_of) (after a failover, the survivor its region
    /// moved to), else its IMSI home.
    pub fn serving_node(&self, imsi: u64) -> usize {
        self.owner_of(imsi).unwrap_or_else(|| self.cluster.home_node(imsi))
    }

    /// Attach a subscriber on its [serving node](Self::serving_node) — a
    /// re-attach refreshes the context it already has — and replicate it
    /// synchronously.
    pub fn attach(&mut self, imsi: u64) -> usize {
        let k = self.serving_node(imsi);
        self.cluster.node(k).attach(imsi);
        self.replicate_node(k);
        k
    }

    /// Apply a signaling event on the subscriber's current node (home node
    /// originally; the adopting survivor after a failover) and replicate
    /// the resulting state synchronously. Returns `false` if the event was
    /// rejected — including signaling for a user no live node holds, such
    /// as one whose node just died and has not been failed over yet.
    pub fn ctrl_event(&mut self, ev: CtrlEvent) -> bool {
        let imsi = match ev {
            CtrlEvent::Attach { imsi } => {
                self.attach(imsi);
                return true;
            }
            CtrlEvent::S1Handover { imsi, .. }
            | CtrlEvent::ModifyBearer { imsi, .. }
            | CtrlEvent::Detach { imsi }
            | CtrlEvent::Release { imsi } => imsi,
        };
        let Some(k) = self.owner_of(imsi) else { return false };
        let ok = self.cluster.node(k).ctrl_event(ev);
        self.replicate_node(k);
        ok
    }

    /// Route one data packet through the cluster.
    pub fn process(&mut self, m: Mbuf) -> NodeVerdict {
        self.cluster.process(m)
    }

    /// Deliver one S1AP PDU to node `k` (the eNodeB's S1 association pins
    /// the serving node) and replicate the resulting state synchronously.
    /// Signaling to a killed or dead node is lost in the blackout window
    /// and returns no responses, like any packet to a crashed box.
    pub fn node_s1ap(&mut self, k: usize, pdu: &pepc_sigproto::s1ap::S1apPdu) -> Vec<pepc_sigproto::s1ap::S1apPdu> {
        if self.cluster.is_dead(k) {
            return vec![];
        }
        let rsp = self.cluster.node(k).handle_s1ap(pdu);
        self.replicate_node(k);
        rsp
    }

    /// Advance one tick: emit periodic replication (counter deltas,
    /// heartbeat), pump every wire into the standby, run the detector, and
    /// fail over any node it declared dead.
    ///
    /// This is a fixed composition of the stepwise API below; the
    /// deterministic simulator drives the four phases individually so a
    /// seeded scheduler can explore their interleavings.
    pub fn tick(&mut self) {
        self.advance_tick();
        for k in 0..self.cluster.node_count() {
            self.emit_periodic(k);
        }
        for k in 0..self.cluster.node_count() {
            self.pump_wire(k);
        }
        self.run_detector();
    }

    // -- stepwise tick phases (simulation hooks) -------------------------------

    /// Phase 1 of a tick: advance the logical clock. Returns the new tick.
    pub fn advance_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Phase 2 of a tick, per node: emit node `k`'s periodic replication —
    /// dirty-user snapshots, counter deltas when the interval divides the
    /// tick, and a heartbeat. No-op for killed or dead nodes.
    pub fn emit_periodic(&mut self, k: usize) {
        if self.cluster.is_dead(k) {
            return;
        }
        // Supervise procedures in coordinator ticks: stamp the clock every
        // tick; expiry (which may roll back half-created users, dirtying
        // them) runs before the dirty drain below so rollbacks replicate
        // in the same tick.
        let (now, timeout) = (self.tick, self.cfg.procedure_timeout_ticks);
        self.cluster.node(k).note_tick(now);
        if timeout > 0 {
            self.cluster.node(k).expire_procedures(now, timeout);
        }
        self.replicate_dirty(k);
        if self.tick.is_multiple_of(self.cfg.counter_interval) {
            self.emit_counter_deltas(k);
        }
        self.emit(k, ReplKind::Heartbeat, 0, None);
    }

    /// Phase 3 of a tick, per node: pump node `k`'s replication wire and
    /// ingest whatever reached the standby.
    pub fn pump_wire(&mut self, k: usize) {
        self.wires[k].pump(PUMP_BURST);
        loop {
            self.scratch.clear();
            if self.wires[k].recv(&mut self.scratch, PUMP_BURST) == 0 {
                return;
            }
            for m in self.scratch.drain(..) {
                if let Some((node, _)) = self.standby.ingest(m.data()) {
                    self.detector.observe_heartbeat(node, self.tick);
                }
            }
        }
    }

    /// Phase 4 of a tick: advance the failure detector and fail over any
    /// node it just declared dead.
    pub fn run_detector(&mut self) {
        let transitions = self.detector.tick(self.tick);
        for (k, health) in transitions {
            if health == NodeHealth::Dead {
                self.failover(k);
            }
        }
    }

    /// Crash node `k`: its replication wire is severed (frames in its
    /// send queue are lost with it) and its regions start blackholing.
    /// Recovery happens automatically once the detector declares it dead.
    /// Refused, with nothing changed, for a node already dead, the last
    /// live one, or an index out of range.
    pub fn kill_node(&mut self, k: usize) -> Result<(), ClusterError> {
        self.cluster.power_off(k)?;
        self.wires[k].sever();
        Ok(())
    }

    /// Detector's view of node `k`.
    pub fn health(&self, k: usize) -> NodeHealth {
        self.detector.health(k)
    }

    /// Completed failovers, in order.
    pub fn failovers(&self) -> &[FailoverReport] {
        &self.failovers
    }

    /// The standby store (assertions, staleness queries).
    pub fn standby(&self) -> &StandbyStore {
        &self.standby
    }

    /// The wrapped cluster.
    pub fn cluster(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Immutable view of the wrapped cluster (oracles, inspection).
    pub fn cluster_ref(&self) -> &Cluster {
        &self.cluster
    }

    /// The configured counter-delta interval (staleness bound on a clean
    /// wire).
    pub fn counter_interval(&self) -> u64 {
        self.cfg.counter_interval
    }

    /// Node `k`'s replication wire (fault-scenario control: partition,
    /// heal, mid-run `FaultSpec` changes).
    pub fn wire_mut(&mut self, k: usize) -> &mut Wire {
        &mut self.wires[k]
    }

    /// Substitute the clock on every node and wire (simulation harness).
    pub fn set_clock(&mut self, clock: pepc_fabric::Clock) {
        self.cluster.set_clock(clock);
        for w in &mut self.wires {
            w.set_clock(clock);
        }
    }

    /// Current coordinator tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Live node currently hosting `imsi`, if any: the one whose own
    /// user index holds it.
    pub fn owner_of(&self, imsi: u64) -> Option<usize> {
        (0..self.cluster.node_count())
            .find(|&k| !self.cluster.is_dead(k) && self.cluster.node_ref(k).slice_of(imsi).is_some())
    }

    /// Cluster-wide metrics with the replication wires' stats attached.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.cluster.metrics_snapshot();
        snap.wires = self
            .wires
            .iter()
            .enumerate()
            .map(|(k, w)| {
                let s = w.stats();
                WireStat {
                    name: format!("repl:node{k}"),
                    forwarded: s.forwarded,
                    dropped: s.dropped,
                    corrupted: s.corrupted,
                    reordered: s.reordered,
                    duplicated: s.duplicated,
                    delayed: s.delayed,
                    rate_limited: s.rate_limited,
                }
            })
            .collect();
        snap
    }

    // -- replication plumbing --------------------------------------------------

    /// Snapshot node `k`'s dirty users into the log and pump synchronously.
    fn replicate_node(&mut self, k: usize) {
        self.replicate_dirty(k);
        self.pump_wire(k);
    }

    /// Drain the dirty-user hook of every slice on node `k`: a user that
    /// still resolves replicates as a full snapshot; one that no longer
    /// exists was detached and replicates as a delete.
    fn replicate_dirty(&mut self, k: usize) {
        if self.cluster.is_dead(k) {
            return;
        }
        for s in 0..self.cluster.node(k).slice_count() {
            let dirty = self.cluster.node(k).slice(s).ctrl.take_dirty_users();
            for imsi in dirty {
                match self.cluster.node(k).slice(s).ctrl.record_of(imsi) {
                    Some(u) => self.emit(k, ReplKind::CtrlSnapshot, imsi, Some(u)),
                    None => self.emit(k, ReplKind::CtrlDelete, imsi, None),
                }
            }
        }
    }

    /// Refresh every user's counters on node `k` (the periodic delta).
    fn emit_counter_deltas(&mut self, k: usize) {
        for s in 0..self.cluster.node(k).slice_count() {
            let mut imsis = self.cluster.node(k).slice(s).ctrl.imsis();
            imsis.sort_unstable(); // HashMap order would break determinism
            for imsi in imsis {
                if let Some(u) = self.cluster.node(k).slice(s).ctrl.record_of(imsi) {
                    self.emit(k, ReplKind::CounterDelta, imsi, Some(u));
                }
            }
        }
    }

    /// Frame and transmit one record on node `k`'s wire.
    fn emit(&mut self, k: usize, kind: ReplKind, imsi: u64, user: Option<UserRecord>) {
        self.seq[k] += 1;
        let rec = ReplRecord { kind, node: k as u32, seq: self.seq[k], tick: self.tick, imsi, user };
        self.wires[k].send(Mbuf::from_payload(&encode(&rec)));
    }

    /// The detector declared `k` dead: repair steering, then move every
    /// replicated user out of the standby onto the survivor its region
    /// moves to.
    fn failover(&mut self, k: usize) {
        // A detector firing without the harness killing the node first
        // (e.g. a fully partitioned but running node) powers it off too:
        // split-brain forwarding would be worse. If `k` is the last live
        // node (every heartbeat starved — e.g. a shrunk schedule deleting
        // all emits) there is no survivor to adopt onto: ignore the
        // detector.
        if self.cluster.power_off(k) == Err(ClusterError::LastLiveNode) || self.cluster.repair_steering(k).is_err() {
            return;
        }
        let last_contact = self.detector.last_seen(k);
        let max_counter_staleness = self.standby.max_counter_staleness(k, last_contact);
        let users = self.standby.take_users(k);
        let users_recovered = users.len();
        for rec in users {
            // Adoption marks the user dirty on the survivor; replicate it
            // from its new home so the standby converges. A user no
            // survivor slice had room for is lost.
            self.cluster.adopt_user(rec);
        }
        for t in 0..self.cluster.node_count() {
            if !self.cluster.is_dead(t) {
                self.replicate_node(t);
            }
        }
        self.failovers.push(FailoverReport {
            node: k,
            detected_tick: self.tick,
            users_recovered,
            max_counter_staleness,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepc::config::{BatchingConfig, SliceConfig};
    use pepc::ctrl::CtrlEvent;
    use pepc_net::gtp::encap_gtpu;
    use pepc_net::ipv4::IpProto;
    use pepc_net::{Ipv4Hdr, IPV4_HDR_LEN};

    fn ha(n: usize, cfg: HaConfig) -> HaCluster {
        let template = EpcConfig {
            slices: 2,
            slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..SliceConfig::default() },
            ..EpcConfig::default()
        };
        HaCluster::new(n, template, cfg)
    }

    fn keys_of(c: &mut HaCluster, imsi: u64) -> (u32, u32) {
        let k = c.owner_of(imsi).unwrap();
        let node = c.cluster().node(k);
        let s = node.slice_of(imsi).unwrap();
        let ctx = node.slice(s).ctrl.context_of(imsi).unwrap();
        let g = ctx.ctrl_read();
        (g.tunnels.gw_teid, g.ue_ip)
    }

    fn uplink(teid: u32, ue_ip: u32) -> Mbuf {
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
        Ipv4Hdr::new(ue_ip, 0x08080808, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        m.extend(&hdr);
        encap_gtpu(&mut m, 0xC0A80001, 0x0AFE0001, teid).unwrap();
        m
    }

    fn attach_with_bearer(c: &mut HaCluster, imsi: u64) {
        c.attach(imsi);
        assert!(c.ctrl_event(CtrlEvent::S1Handover {
            imsi,
            new_enb_teid: 0xE000 + imsi as u32,
            new_enb_ip: 0xC0A80001,
        }));
    }

    #[test]
    fn control_events_replicate_synchronously() {
        let mut c = ha(2, HaConfig::default());
        attach_with_bearer(&mut c, 7);
        let k = c.owner_of(7).unwrap();
        // No tick has run, yet the standby already has the user.
        assert_eq!(c.standby().user_count(k), 1);
        let (rec, _) = &c.standby().users_of(k)[0];
        assert_eq!(rec.ctrl.tunnels.enb_teid, 0xE007);
    }

    #[test]
    fn detach_replicates_as_delete() {
        let mut c = ha(2, HaConfig::default());
        attach_with_bearer(&mut c, 7);
        let k = c.owner_of(7).unwrap();
        assert!(c.ctrl_event(CtrlEvent::Detach { imsi: 7 }));
        assert_eq!(c.standby().user_count(k), 0);
        assert_eq!(c.owner_of(7), None);
    }

    #[test]
    fn s1ap_lifecycle_replicates_through_the_armed_hook() {
        use pepc_backend::{Hss, Pcrf};
        use pepc_sigproto::nas::NasMsg;
        use pepc_sigproto::s1ap::S1apPdu;
        use std::sync::Arc;
        let hss = Arc::new(Hss::new());
        hss.provision_range(1, 16, 100_000);
        let template = EpcConfig { slices: 2, ..EpcConfig::default() };
        let backends = Some((hss, Arc::new(Pcrf::with_standard_rules())));
        let mut c = HaCluster::with_backends(2, template, HaConfig::default(), backends);
        let imsi = 7;
        let k = c.cluster_ref().home_node(imsi);
        let standby_enb_teid = |c: &HaCluster| -> Vec<u32> {
            c.standby().users_of(k).iter().map(|(rec, _)| rec.ctrl.tunnels.enb_teid).collect()
        };
        // Attach: the standby holds the user (a CtrlSnapshot) with the
        // eNodeB endpoint the context setup reported.
        let mut mme_ue_id = 0;
        let (guti, ..) = pepc::ctrl::run_attach_with(
            |pdu| {
                let out = c.node_s1ap(k, pdu);
                if let [S1apPdu::DownlinkNasTransport { mme_ue_id: id, .. }] = out.as_slice() {
                    mme_ue_id = *id;
                }
                out
            },
            imsi,
            1,
            0xE0,
            0xC0A8_0005,
        )
        .unwrap();
        assert_eq!(standby_enb_teid(&c), [0xE0]);
        // S1 handover: a fresh CtrlSnapshot carries the target endpoint.
        c.node_s1ap(k, &S1apPdu::HandoverRequired { enb_ue_id: 1, mme_ue_id, target_ecgi: 9 });
        let ack = S1apPdu::HandoverRequestAck { mme_ue_id, new_enb_teid: 0xAA, new_enb_ip: 0xC0A8_0007 };
        assert!(matches!(c.node_s1ap(k, &ack).as_slice(), [S1apPdu::HandoverCommand { .. }]));
        assert_eq!(standby_enb_teid(&c), [0xAA]);
        // Detach: a CtrlDelete removes the replica.
        let nas = NasMsg::DetachRequest { guti }.encode();
        c.node_s1ap(k, &S1apPdu::UplinkNasTransport { enb_ue_id: 1, mme_ue_id, nas });
        assert_eq!(c.standby().user_count(k), 0);
        assert_eq!(c.standby().gaps(k), 0);
    }

    #[test]
    fn counters_replicate_on_the_interval() {
        let cfg = HaConfig { counter_interval: 4, ..HaConfig::default() };
        let mut c = ha(2, cfg);
        attach_with_bearer(&mut c, 7);
        let k = c.owner_of(7).unwrap();
        let (teid, ue_ip) = keys_of(&mut c, 7);
        for _ in 0..10 {
            assert!(c.process(uplink(teid, ue_ip)).is_forward());
        }
        // Before the interval elapses the standby still has the counters
        // from the synchronous attach snapshot.
        assert_eq!(c.standby().users_of(k)[0].0.counters.uplink_packets, 0);
        for _ in 0..4 {
            c.tick();
        }
        assert_eq!(c.standby().users_of(k)[0].0.counters.uplink_packets, 10);
    }

    #[test]
    fn kill_detect_failover_end_to_end() {
        let cfg = HaConfig { counter_interval: 2, ..HaConfig::default() };
        let dead_after = cfg.detector.dead_after;
        let mut c = ha(3, cfg);
        for imsi in 0..24u64 {
            attach_with_bearer(&mut c, imsi);
        }
        c.tick();
        let victim = c.owner_of(0).unwrap();
        let victims: Vec<u64> = (0..24).filter(|&i| c.owner_of(i) == Some(victim)).collect();
        let (teid, ue_ip) = keys_of(&mut c, 0);

        c.kill_node(victim).unwrap();
        // Blackout: the victim's region drops until the detector fires.
        assert!(!c.process(uplink(teid, ue_ip)).is_forward());
        for _ in 0..dead_after {
            c.tick();
        }
        assert_eq!(c.health(victim), NodeHealth::Dead);
        assert_eq!(c.failovers().len(), 1);
        let report = c.failovers()[0];
        assert_eq!(report.node, victim);
        assert_eq!(report.users_recovered, victims.len());
        assert!(report.max_counter_staleness <= 2, "staleness {}", report.max_counter_staleness);

        // Every victim user forwards again, on a survivor.
        for &imsi in &victims {
            let new_home = c.owner_of(imsi).unwrap();
            assert_ne!(new_home, victim, "imsi {imsi} still on the dead node");
            let (teid, ue_ip) = keys_of(&mut c, imsi);
            assert!(c.process(uplink(teid, ue_ip)).is_forward(), "imsi {imsi} after failover");
        }
        let snap = c.metrics_snapshot();
        assert!(snap.conservation_holds());
        assert_eq!(snap.data_totals().drop_failover, 1);
        assert_eq!(snap.wires.len(), 3);
        assert!(snap.wires.iter().all(|w| w.forwarded > 0), "all wires carried replication");

        // The standby holds each recovered user once, under its adopter.
        assert_eq!(c.standby().user_count(victim), 0);
        for &imsi in &victims {
            let heir = c.owner_of(imsi).unwrap();
            for k in 0..3 {
                let held = c.standby().users_of(k).iter().any(|(rec, _)| rec.ctrl.imsi == imsi);
                assert_eq!(held, k == heir, "imsi {imsi} on node {k}'s replica (adopter {heir})");
            }
        }
    }

    #[test]
    fn re_attach_of_an_adopted_user_refreshes_it_on_its_adopter() {
        let dead_after = HaConfig::default().detector.dead_after;
        let mut c = ha(3, HaConfig::default());
        for imsi in 0..48u64 {
            attach_with_bearer(&mut c, imsi);
        }
        let victim = c.owner_of(0).unwrap();
        let victims: Vec<u64> = (0..48).filter(|&i| c.owner_of(i) == Some(victim)).collect();
        c.kill_node(victim).unwrap();
        for _ in 0..dead_after {
            c.tick();
        }
        // An adopted user whose adopter is not its (repaired) IMSI home.
        let imsi = *victims.iter().find(|&&i| c.owner_of(i) != Some(c.cluster_ref().home_node(i))).unwrap();
        let heir = c.owner_of(imsi).unwrap();
        let (users, keys) = (c.cluster_ref().user_count(), keys_of(&mut c, imsi));

        assert!(c.ctrl_event(CtrlEvent::Attach { imsi }));
        assert_eq!(c.owner_of(imsi), Some(heir), "signaling left the adopter");
        assert_eq!(c.cluster_ref().user_count(), users, "re-attach minted a second context");
        assert_eq!(keys_of(&mut c, imsi), keys, "the adopter's context was not the one refreshed");
        assert!(c.process(uplink(keys.0, keys.1)).is_forward());
    }

    #[test]
    fn survivors_keep_forwarding_through_the_blackout() {
        let mut c = ha(3, HaConfig::default());
        for imsi in 0..24u64 {
            attach_with_bearer(&mut c, imsi);
        }
        let victim = c.owner_of(0).unwrap();
        let survivor_imsi = (0..24).find(|&i| c.owner_of(i) != Some(victim)).unwrap();
        let (teid, ue_ip) = keys_of(&mut c, survivor_imsi);
        c.kill_node(victim).unwrap();
        assert!(c.process(uplink(teid, ue_ip)).is_forward(), "survivors unaffected");
    }
}
