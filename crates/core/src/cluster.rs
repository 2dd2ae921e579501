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
//! * **data** is routed by identifier *ranges*: each node allocates
//!   TEIDs / UE IPs from a disjoint region (high bits = node index), so
//!   the balancer recovers the owning node from the packet alone — no
//!   per-user table at the LB, exactly why GTP deployments give each
//!   gateway its own TEID space.

use crate::config::EpcConfig;
use crate::demux::{packet_key, PacketKey};
use crate::node::{NodeVerdict, PepcNode};
use crate::state::{ControlState, CounterState};
use pepc_backend::{Hss, Pcrf};
use pepc_fabric::Maglev;
use pepc_net::Mbuf;
use pepc_telemetry::{DataMetrics, MetricsSnapshot, SliceSnapshot};
use std::collections::HashMap;
use std::sync::Arc;

/// Bits reserved below the node index in TEID / UE IP spaces.
const NODE_SHIFT: u32 = 28;

/// A cluster of PEPC nodes behind one virtual IP.
pub struct Cluster {
    nodes: Vec<PepcNode>,
    lb: Maglev,
    virtual_ip: u32,
    /// Nodes declared dead by the failover coordinator. Their identifier
    /// regions stay allocated (TEIDs / UE IPs survive the failover), but
    /// packets re-steer through the redirect table below.
    dead: Vec<bool>,
    /// Adopted-user re-steering: gateway TEID / UE IP → surviving node.
    redirect: HashMap<PacketKey, usize>,
    /// Balancer-level terminal drops (unroutable regions, failover
    /// blackout). Exported as a pseudo-slice so cluster-wide packet
    /// conservation stays checkable: `rx` here counts only packets the
    /// balancer itself dropped.
    lb_drops: DataMetrics,
}

impl Cluster {
    /// Build `n` nodes from a template config. Each node gets a disjoint
    /// identifier region; `backends` (HSS/PCRF) are shared, as in a real
    /// core network.
    pub fn new(n: usize, template: EpcConfig, backends: Option<(Arc<Hss>, Arc<Pcrf>)>) -> Self {
        assert!((1..=8).contains(&n), "1..=8 nodes supported by the region layout");
        let virtual_ip = template.gw_ip;
        let mut nodes = Vec::with_capacity(n);
        for k in 0..n {
            let mut cfg = template.clone();
            cfg.teid_base = 0x1000_0000 + ((k as u32) << NODE_SHIFT);
            cfg.ue_ip_base = 0x0A00_0001 + ((k as u32) << NODE_SHIFT);
            cfg.gw_ip = virtual_ip; // one virtual IP for the whole cluster
            nodes.push(PepcNode::new(cfg, backends.clone()));
        }
        let names: Vec<String> = (0..n).map(|k| format!("pepc-node-{k}")).collect();
        Cluster {
            nodes,
            lb: Maglev::new(&names, template.lb_table_size),
            virtual_ip,
            dead: vec![false; n],
            redirect: HashMap::new(),
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

    /// Attach a subscriber on its home node; returns the node index.
    pub fn attach(&mut self, imsi: u64) -> usize {
        let k = self.home_node(imsi);
        self.nodes[k].attach(imsi);
        k
    }

    /// Route one data packet: TEID (uplink) / UE IP (downlink) ranges
    /// identify the owning node without any per-user LB state. Packets
    /// whose region node is dead re-steer through the redirect table a
    /// failover populated; before adoption completes they are charged to
    /// the failover blackout.
    pub fn process(&mut self, m: Mbuf) -> NodeVerdict {
        let n = self.nodes.len();
        match packet_key(&m).and_then(|key| Some((Self::node_of(key)?, key))) {
            Some((k, key)) if k < n => {
                if self.dead[k] {
                    match self.redirect.get(&key).copied() {
                        Some(t) => self.nodes[t].process(m),
                        None => {
                            self.lb_drops.rx += 1;
                            self.lb_drops.drop_failover += 1;
                            NodeVerdict::Drop
                        }
                    }
                } else {
                    self.nodes[k].process(m)
                }
            }
            _ => {
                self.lb_drops.rx += 1;
                self.lb_drops.drop_unknown_user += 1;
                NodeVerdict::Drop
            }
        }
    }

    /// Node whose identifier region `key` lies in.
    fn node_of(key: PacketKey) -> Option<usize> {
        match key {
            // Uplink: TEID regions start at 0x1000_0000, one per node.
            PacketKey::Teid(teid) => usize::try_from((teid >> NODE_SHIFT).checked_sub(1)?).ok(),
            // Downlink: UE IP regions start at 0x0A00_0001, one per node.
            PacketKey::UeIp(ip) => Some((ip >> NODE_SHIFT) as usize),
        }
    }

    // -- failover mechanisms (driven by the `pepc-ha` coordinator) -------------

    /// Node `k` just died: its region's packets start blackholing (charged
    /// to the failover blackout) the instant the hardware goes away —
    /// *before* any detector has noticed. Steering is not repaired yet;
    /// that is [`Cluster::repair_steering`]'s job, once a failure detector
    /// confirms the death.
    ///
    /// # Panics
    /// Panics if `k` is already dead or the last live node.
    pub fn power_off(&mut self, k: usize) {
        assert!(!self.dead[k], "node {k} already dead");
        assert!(self.live_count() > 1, "cannot power off the last live node");
        self.dead[k] = true;
    }

    /// Repair the Maglev table after `k`'s death was confirmed: only the
    /// dead node's keys re-steer — survivors' signaling homes are
    /// untouched, so in-flight flows of healthy users never move.
    ///
    /// # Panics
    /// Panics if `k` was not powered off first, or was already repaired.
    pub fn repair_steering(&mut self, k: usize) {
        assert!(self.dead[k], "repair_steering before power_off({k})");
        self.lb.remove_backend(k);
    }

    /// Declare node `k` dead and repair steering in one step — the
    /// shortcut for callers without a detection delay to model.
    pub fn mark_dead(&mut self, k: usize) {
        self.power_off(k);
        self.repair_steering(k);
    }

    /// Whether node `k` has been declared dead.
    pub fn is_dead(&self, k: usize) -> bool {
        self.dead[k]
    }

    /// Live nodes remaining.
    pub fn live_count(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Promote one recovered user onto live node `target` (restore into
    /// its home slice there, push the data-plane insert, register Demux
    /// steering) and record the redirect entries so region-routed packets
    /// for the dead node's TEID / UE IP re-steer deterministically.
    /// Returns the slice the user landed on, or `None` (nothing adopted)
    /// when that slice's arena is full.
    pub fn adopt_user(&mut self, target: usize, ctrl: ControlState, counters: CounterState) -> Option<usize> {
        assert!(!self.dead[target], "cannot adopt onto a dead node");
        let (gw_teid, ue_ip) = (ctrl.tunnels.gw_teid, ctrl.ue_ip);
        let slice = self.nodes[target].adopt_user(ctrl, counters)?;
        self.redirect.insert(PacketKey::Teid(gw_teid), target);
        self.redirect.insert(PacketKey::UeIp(ue_ip), target);
        Some(slice)
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
        let template = EpcConfig {
            slices: 2,
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
        let mut c = cluster(4);
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
            assert!(c.process(uplink(teid, ue_ip)).is_forward(), "uplink imsi {imsi}");
            assert!(c.process(downlink(ue_ip)).is_forward(), "downlink imsi {imsi}");
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

    #[test]
    fn dead_node_blackholes_then_redirects_after_adoption() {
        let mut c = cluster(3);
        for imsi in 0..48u64 {
            c.attach(imsi);
            c.node(c.home_node(imsi)).ctrl_event(crate::ctrl::CtrlEvent::S1Handover {
                imsi,
                new_enb_teid: 0xE000 + imsi as u32,
                new_enb_ip: 0xC0A80001,
            });
        }
        // Pick a victim node and one of its users.
        let victim = c.home_node(0);
        let imsi = 0u64;
        let (teid, ue_ip) = keys_of(&mut c, imsi);
        // Standby replica of the user's state (here: read straight off the
        // still-in-memory node; in the HA subsystem this comes from the
        // replication log).
        let (ctrl, counters) = {
            let node = c.node(victim);
            let s = node.slice_of(imsi).unwrap();
            let ctx = node.slice(s).ctrl.context_of(imsi).unwrap();
            let pair = (ctx.ctrl_read().clone(), ctx.counters());
            pair
        };

        c.mark_dead(victim);
        assert!(c.is_dead(victim));
        assert_eq!(c.live_count(), 2);
        // Blackout: packets for the dead region drop under the failover cause.
        assert!(!c.process(uplink(teid, ue_ip)).is_forward());
        assert!(!c.process(downlink(ue_ip)).is_forward());
        let snap = c.metrics_snapshot();
        assert!(snap.conservation_holds());
        assert_eq!(snap.data_totals().drop_failover, 2);

        // Maglev repair: the victim no longer owns any signaling keys, and
        // surviving homes did not move.
        let target = c.home_node(imsi);
        assert_ne!(target, victim);

        // Adoption: state promotes onto a survivor, traffic re-steers.
        c.adopt_user(target, ctrl, counters);
        assert!(c.process(uplink(teid, ue_ip)).is_forward(), "uplink after adoption");
        assert!(c.process(downlink(ue_ip)).is_forward(), "downlink after adoption");
        let snap = c.metrics_snapshot();
        assert!(snap.conservation_holds());
        assert_eq!(snap.data_totals().drop_failover, 2, "no further failover drops");
        // Counters travelled with the user.
        let node = c.node(target);
        let s = node.slice_of(imsi).unwrap();
        assert!(node.slice(s).ctrl.counters_of(imsi).unwrap().uplink_packets >= 1);
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
