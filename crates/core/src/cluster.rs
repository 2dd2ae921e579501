//! A PEPC cluster — the full Figure 1(b) deployment: several PEPC nodes
//! behind one virtual IP, fronted by a Maglev-style load balancer.
//!
//! "We assume that the PEPC cluster is abstracted by a single virtual IP
//! address; external components such as the eNodeB direct their traffic
//! to this virtual IP address and the cluster's load balancer takes care
//! of appropriately demultiplexing user traffic across the PEPC nodes"
//! (§3.3, citing Maglev).
//!
//! Steering works in two stages, as in real deployments:
//!
//! * **signaling** (attach) is consistent-hashed on the IMSI across
//!   nodes, so a subscriber's home node is stable under node churn;
//! * **data** is routed by identifier *region*: each node allocates
//!   TEIDs / UE IPs from 16 disjoint regions of `2^24` (offset from the
//!   base >> 28 = node index), and a `RegionMap` names each region's
//!   node, so the balancer recovers the owning node from the packet alone
//!   — no per-user table at the LB, exactly why GTP deployments give each
//!   gateway its own TEID space.
//!
//! Failover moves regions, not users: a failed node's region goes whole
//! to one survivor, which serves it on the slice the dead node did.

use crate::config::EpcConfig;
use crate::demux::{packet_key, PacketKey, RegionMap, REGION_SHIFT};
use crate::node::{NodeVerdict, PepcNode};
use crate::recovery::UserRecord;
use pepc_backend::{Hss, Pcrf};
use pepc_fabric::Maglev;
use pepc_net::Mbuf;
use pepc_telemetry::{DataMetrics, MetricsSnapshot, SliceSnapshot};
use std::sync::Arc;

/// Bits reserved below the node index in TEID / UE IP spaces.
const NODE_SHIFT: u32 = 28;

/// Identifier regions per node: region `r` is slice `r % NODE_REGIONS`'s.
const NODE_REGIONS: usize = 1 << (NODE_SHIFT - REGION_SHIFT);

/// Why the cluster refused a failover step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// No node has this index.
    NoSuchNode(usize),
    /// The node is already powered off.
    AlreadyDead(usize),
    /// Powering off the last live node would leave nobody to fail over to.
    LastLiveNode,
    /// Steering repair for a node that is not powered off.
    NotDead(usize),
    /// The node's steering was already repaired.
    AlreadyRepaired(usize),
}

/// A cluster of PEPC nodes behind one virtual IP.
pub struct Cluster {
    nodes: Vec<PepcNode>,
    lb: Maglev,
    virtual_ip: u32,
    /// Nodes declared dead by the failover coordinator. Their identifier
    /// regions stay allocated (TEIDs / UE IPs survive the failover) and
    /// move to survivors as their users are adopted.
    dead: Vec<bool>,
    /// Data steering: identifier region → node serving it.
    regions: RegionMap,
    /// Balancer-level terminal drops (unroutable regions, failover
    /// blackout). Exported as a pseudo-slice so cluster-wide packet
    /// conservation stays checkable: `rx` here counts only packets the
    /// balancer itself dropped.
    lb_drops: DataMetrics,
}

impl Cluster {
    /// Build `n` nodes from a template config. Each node gets a disjoint
    /// identifier region carved from the template's bases; `backends`
    /// (HSS/PCRF) are shared, as in a real core network.
    ///
    /// # Panics
    /// Panics unless `1 <= n <= 8`, the template has at most 16 slices
    /// (the slice regions that fit in one node region) and its
    /// `lb_table_size` exceeds `n`.
    pub fn new(n: usize, template: EpcConfig, backends: Option<(Arc<Hss>, Arc<Pcrf>)>) -> Self {
        assert!((1..=8).contains(&n), "1..=8 nodes supported by the region layout");
        assert!(template.slices <= NODE_REGIONS, "at most 16 slices fit in a node region");
        let virtual_ip = template.gw_ip;
        let mut nodes = Vec::with_capacity(n);
        for k in 0..n {
            let mut cfg = template.clone();
            cfg.teid_base = template.teid_base + ((k as u32) << NODE_SHIFT);
            cfg.ue_ip_base = template.ue_ip_base + ((k as u32) << NODE_SHIFT);
            cfg.gw_ip = virtual_ip; // one virtual IP for the whole cluster
            nodes.push(PepcNode::new(cfg, backends.clone()));
        }
        let names: Vec<String> = (0..n).map(|k| format!("pepc-node-{k}")).collect();
        let lb = match Maglev::new(&names, template.lb_table_size) {
            Ok(lb) => lb,
            Err(e) => panic!("{e}"),
        };
        Cluster {
            nodes,
            lb,
            virtual_ip,
            dead: vec![false; n],
            regions: RegionMap::new(template.teid_base, template.ue_ip_base, n, NODE_REGIONS),
            lb_drops: DataMetrics::default(),
        }
    }

    /// The cluster's virtual IP (what eNodeBs tunnel to).
    pub fn virtual_ip(&self) -> u32 {
        self.virtual_ip
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The home node for a subscriber (consistent hash over IMSI).
    pub fn home_node(&self, imsi: u64) -> usize {
        self.lb.lookup(imsi)
    }

    /// Attach a subscriber on its home node; returns the node index. A
    /// user adopted after a failover lives elsewhere: `pepc_ha::HaCluster`
    /// routes its signaling by owner instead.
    pub fn attach(&mut self, imsi: u64) -> usize {
        let k = self.home_node(imsi);
        self.nodes[k].attach(imsi);
        k
    }

    /// Route one data packet: the TEID (uplink) / UE IP (downlink) region
    /// names the serving node without any per-user LB state. A region
    /// whose node is dead — not adopted yet, or its adopter died too — is
    /// charged to the failover blackout.
    pub fn process(&mut self, m: Mbuf) -> NodeVerdict {
        match packet_key(&m).and_then(|key| self.regions.owner(key)) {
            Some(k) if !self.dead[k] => return self.nodes[k].process(m),
            Some(_) => self.lb_drops.drop_failover += 1,
            None => self.lb_drops.drop_unknown_user += 1,
        }
        self.lb_drops.rx += 1;
        NodeVerdict::Drop
    }

    // -- failover mechanisms (driven by the `pepc-ha` coordinator) -------------

    /// Node `k` just died: its regions' packets start blackholing (charged
    /// to the failover blackout) the instant the hardware goes away —
    /// *before* any detector has noticed. Steering is not repaired yet;
    /// that is [`Cluster::repair_steering`]'s job, once a failure detector
    /// confirms the death.
    pub fn power_off(&mut self, k: usize) -> Result<(), ClusterError> {
        match self.dead.get(k) {
            None => Err(ClusterError::NoSuchNode(k)),
            Some(true) => Err(ClusterError::AlreadyDead(k)),
            Some(false) if self.live_count() == 1 => Err(ClusterError::LastLiveNode),
            Some(false) => {
                self.dead[k] = true;
                Ok(())
            }
        }
    }

    /// Repair the Maglev table after `k`'s death was confirmed: only the
    /// dead node's keys re-steer — survivors' signaling homes are
    /// untouched, so in-flight flows of healthy users never move.
    pub fn repair_steering(&mut self, k: usize) -> Result<(), ClusterError> {
        if self.dead.get(k) != Some(&true) {
            return Err(ClusterError::NotDead(k));
        }
        if !self.lb.is_alive(k) {
            return Err(ClusterError::AlreadyRepaired(k));
        }
        // `power_off` keeps a node up, so a dead one is never the last.
        self.lb.remove_backend(k).map_err(|_| ClusterError::LastLiveNode)
    }

    /// Whether node `k` has been declared dead.
    pub fn is_dead(&self, k: usize) -> bool {
        self.dead[k]
    }

    /// Live nodes remaining.
    pub fn live_count(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Promote one recovered user onto a live node. If its region's node
    /// is dead, the region first moves whole to the survivor the repaired
    /// Maglev table picks for it, which serves it on the slice the dead
    /// node did; every later user of that region lands there too. The
    /// user is then restored on the region's node. Returns `(node,
    /// slice)`, or `None` (nothing adopted) when the region's node is dead
    /// and its steering unrepaired, the keys lie in no slice's region, or
    /// the landing slice's arena is full.
    pub fn adopt_user(&mut self, rec: UserRecord) -> Option<(usize, usize)> {
        let teid = rec.ctrl.tunnels.gw_teid;
        let key = PacketKey::Teid(teid);
        let mut node = self.regions.owner(key)?;
        if self.dead[node] {
            // Adopters keep the slice, so the region index names it even
            // after a cascade; the dead node's own state is never read.
            let region = self.regions.region(key);
            let (heir, slice) = (self.lb.lookup(region as u64), region % NODE_REGIONS);
            if self.dead[heir] || slice >= self.nodes[heir].slice_count() {
                return None;
            }
            self.nodes[heir].adopt_region(teid, slice);
            self.regions.assign(region, heir);
            node = heir;
        }
        let slice = self.nodes[node].adopt_user(rec)?;
        Some((node, slice))
    }

    /// Pseudo-slice id under which balancer-level drops are exported.
    pub const LB_SLICE_ID: u64 = u64::MAX;

    /// Cluster-wide observability: every node's slices (slice ids get the
    /// node index in their high bits so they stay distinct) plus the
    /// balancer pseudo-slice, so `rx == forwarded + Σ drops` holds for
    /// every packet offered to the cluster — including the failover
    /// blackout.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (k, node) in self.nodes.iter().enumerate() {
            for mut s in node.metrics_snapshot().slices {
                s.slice_id |= (k as u64) << 32;
                snap.slices.push(s);
            }
        }
        let mut lb = SliceSnapshot::new(Self::LB_SLICE_ID);
        lb.data = self.lb_drops;
        snap.slices.push(lb);
        snap
    }

    /// Access one node (tests, harnesses, migration orchestration).
    pub fn node(&mut self, k: usize) -> &mut PepcNode {
        &mut self.nodes[k]
    }

    /// Immutable access to one node (oracles, inspection).
    pub fn node_ref(&self, k: usize) -> &PepcNode {
        &self.nodes[k]
    }

    /// Substitute the clock on every node (simulation harness).
    pub fn set_clock(&mut self, clock: pepc_fabric::Clock) {
        for n in &mut self.nodes {
            n.set_clock(clock);
        }
    }

    /// Total attached users across nodes.
    pub fn user_count(&self) -> usize {
        self.nodes.iter().map(|n| n.user_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchingConfig, SliceConfig};
    use pepc_net::gtp::encap_gtpu;
    use pepc_net::ipv4::IpProto;
    use pepc_net::{Ipv4Hdr, IPV4_HDR_LEN};

    fn cluster(n: usize) -> Cluster {
        cluster_with(n, 2)
    }

    fn cluster_with(n: usize, slices: usize) -> Cluster {
        let template = EpcConfig {
            slices,
            slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..SliceConfig::default() },
            ..EpcConfig::default()
        };
        Cluster::new(n, template, None)
    }

    fn keys_of(c: &mut Cluster, imsi: u64) -> (u32, u32) {
        let k = c.home_node(imsi);
        let node = c.node(k);
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

    fn downlink(ue_ip: u32) -> Mbuf {
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
        Ipv4Hdr::new(0x08080808, ue_ip, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        m.extend(&hdr);
        m
    }

    #[test]
    fn subscribers_spread_across_nodes() {
        let mut c = cluster(4);
        for imsi in 0..200u64 {
            c.attach(imsi);
        }
        assert_eq!(c.user_count(), 200);
        let counts: Vec<usize> = (0..4).map(|k| c.node(k).user_count()).collect();
        assert!(counts.iter().all(|&x| x > 20), "uneven spread: {counts:?}");
    }

    #[test]
    fn home_node_is_stable() {
        let c = cluster(3);
        for imsi in 0..50u64 {
            assert_eq!(c.home_node(imsi), c.home_node(imsi));
        }
    }

    #[test]
    fn data_routes_to_owning_node_both_directions() {
        // With 8 slices, node k's slices 6 and 7 hand out UE IPs at or
        // above `(k + 1) << 28`: only an inversion from the bases routes
        // their downlink.
        for slices in [2, 8] {
            let mut c = cluster_with(4, slices);
            for imsi in 0..64u64 {
                c.attach(imsi);
                c.node(c.home_node(imsi)).ctrl_event(crate::ctrl::CtrlEvent::S1Handover {
                    imsi,
                    new_enb_teid: 0xE000 + imsi as u32,
                    new_enb_ip: 0xC0A80001,
                });
            }
            for imsi in 0..64u64 {
                let (teid, ue_ip) = keys_of(&mut c, imsi);
                assert!(c.process(uplink(teid, ue_ip)).is_forward(), "{slices} slices: uplink imsi {imsi}");
                assert!(c.process(downlink(ue_ip)).is_forward(), "{slices} slices: downlink imsi {imsi}");
            }
        }
    }

    #[test]
    fn packets_for_unknown_regions_dropped() {
        let mut c = cluster(2);
        // TEID in node-7's region, but only 2 nodes exist.
        let m = uplink(0x1000_0000 + (7 << NODE_SHIFT), 1);
        assert!(!c.process(m).is_forward());
        assert!(!c.process(Mbuf::from_payload(&[0u8; 8])).is_forward());
    }

    fn attach_with_bearers(c: &mut Cluster, users: u64) {
        for imsi in 0..users {
            c.attach(imsi);
            c.node(c.home_node(imsi)).ctrl_event(crate::ctrl::CtrlEvent::S1Handover {
                imsi,
                new_enb_teid: 0xE000 + imsi as u32,
                new_enb_ip: 0xC0A80001,
            });
        }
    }

    /// Standby replica of a user's state (here: read straight off the
    /// still-in-memory node; in the HA subsystem this comes from the
    /// replication log).
    fn record_of(c: &mut Cluster, node: usize, imsi: u64) -> UserRecord {
        let node = c.node(node);
        let s = node.slice_of(imsi).unwrap();
        node.slice(s).ctrl.record_of(imsi).unwrap()
    }

    fn kill(c: &mut Cluster, k: usize) {
        c.power_off(k).unwrap();
        c.repair_steering(k).unwrap();
    }

    #[test]
    fn dead_node_blackholes_then_its_region_moves_on_adoption() {
        let mut c = cluster(3);
        attach_with_bearers(&mut c, 48);
        // Pick a victim node and one of its users.
        let victim = c.home_node(0);
        let imsi = 0u64;
        let (teid, ue_ip) = keys_of(&mut c, imsi);
        let rec = record_of(&mut c, victim, imsi);

        kill(&mut c, victim);
        assert!(c.is_dead(victim));
        assert_eq!(c.live_count(), 2);
        // Blackout: packets for the dead region drop under the failover cause.
        assert!(!c.process(uplink(teid, ue_ip)).is_forward());
        assert!(!c.process(downlink(ue_ip)).is_forward());
        let snap = c.metrics_snapshot();
        assert!(snap.conservation_holds());
        assert_eq!(snap.data_totals().drop_failover, 2);

        // Adoption: the region moves to a survivor, which serves it on the
        // slice the victim did; traffic re-steers with no per-user entry.
        let slice = c.node(victim).slice_of(imsi).unwrap();
        let (target, landed) = c.adopt_user(rec).unwrap();
        assert_ne!(target, victim);
        assert_eq!(landed, slice);
        assert!(c.process(uplink(teid, ue_ip)).is_forward(), "uplink after adoption");
        assert!(c.process(downlink(ue_ip)).is_forward(), "downlink after adoption");
        assert!(c.node(target).demux().is_clear(), "the region, not the user, was adopted");
        let snap = c.metrics_snapshot();
        assert!(snap.conservation_holds());
        assert_eq!(snap.data_totals().drop_failover, 2, "no further failover drops");
        // Counters travelled with the user.
        assert!(c.node(target).slice(landed).ctrl.counters_of(imsi).unwrap().uplink_packets >= 1);
    }

    #[test]
    fn a_dead_adopter_drops_its_adopted_regions_as_failover() {
        let mut c = cluster(3);
        attach_with_bearers(&mut c, 48);
        let victim = c.home_node(0);
        let (teid, ue_ip) = keys_of(&mut c, 0);
        let rec = record_of(&mut c, victim, 0);
        kill(&mut c, victim);
        let (adopter, _) = c.adopt_user(rec).unwrap();
        assert!(c.process(uplink(teid, ue_ip)).is_forward());

        c.power_off(adopter).unwrap();
        assert!(!c.process(uplink(teid, ue_ip)).is_forward(), "a dead adopter forwards nothing");
        let lb = c.metrics_snapshot().slices.pop().unwrap();
        assert_eq!((lb.slice_id, lb.data.drop_failover), (Cluster::LB_SLICE_ID, 1));
    }

    #[test]
    fn an_adopted_user_leaves_the_adopters_gutis_alone() {
        let mut c = cluster_with(2, 1);
        let mut first = [None, None];
        for imsi in 0..16u64 {
            let k = c.attach(imsi);
            first[k].get_or_insert(imsi);
        }
        let [Some(local), Some(foreign)] = first else { panic!("both nodes got users: {first:?}") };
        let guti = c.node(0).slice(0).ctrl.context_of(local).unwrap().ctrl_read().guti;
        let rec = record_of(&mut c, 1, foreign);
        kill(&mut c, 1);
        assert_eq!(c.adopt_user(rec), Some((0, 0)));
        assert!(c.node(0).detach(foreign));
        assert!(c.node(0).slice(0).ctrl.knows_guti(guti), "the adoptee's detach took a resident's GUTI");
    }

    #[test]
    fn failover_steps_refuse_instead_of_panicking() {
        let mut c = cluster(2);
        assert_eq!(c.repair_steering(0), Err(ClusterError::NotDead(0)));
        assert_eq!(c.power_off(2), Err(ClusterError::NoSuchNode(2)));
        assert_eq!(c.power_off(0), Ok(()));
        assert_eq!(c.power_off(0), Err(ClusterError::AlreadyDead(0)));
        assert_eq!(c.power_off(1), Err(ClusterError::LastLiveNode));
        assert_eq!(c.repair_steering(0), Ok(()));
        assert_eq!(c.repair_steering(0), Err(ClusterError::AlreadyRepaired(0)));
    }

    #[test]
    fn lb_pseudo_slice_accounts_unroutable_packets() {
        let mut c = cluster(2);
        let m = uplink(0x1000_0000 + (7 << NODE_SHIFT), 1);
        assert!(!c.process(m).is_forward());
        let snap = c.metrics_snapshot();
        assert!(snap.conservation_holds());
        let lb = snap.slices.iter().find(|s| s.slice_id == Cluster::LB_SLICE_ID).unwrap();
        assert_eq!(lb.data.drop_unknown_user, 1);
    }

    #[test]
    fn counters_accumulate_on_the_home_node() {
        let mut c = cluster(2);
        c.attach(7);
        let (teid, ue_ip) = keys_of(&mut c, 7);
        for _ in 0..10 {
            assert!(c.process(uplink(teid, ue_ip)).is_forward());
        }
        let k = c.home_node(7);
        let node = c.node(k);
        let s = node.slice_of(7).unwrap();
        assert_eq!(node.slice(s).ctrl.counters_of(7).unwrap().uplink_packets, 10);
    }
}
