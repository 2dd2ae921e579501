//! Integration tests for the deployment-level extensions: the multi-node
//! cluster (Figure 1(b)) and slice checkpoint/restore (§8 failure
//! handling), exercised end to end.

use pepc::cluster::Cluster;
use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::ctrl::{run_attach_with, CtrlEvent};
use pepc::recovery;
use pepc_backend::{Hss, Pcrf};
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use pepc_sigproto::s1ap::S1apPdu;
use std::sync::Arc;

fn template() -> EpcConfig {
    EpcConfig {
        slices: 2,
        slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..Default::default() },
        ..EpcConfig::default()
    }
}

fn uplink(teid: u32, ue_ip: u32) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(ue_ip, 0x0808_0808, IpProto::Udp, UDP_HDR_LEN + 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(1, 2, 8).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&[0u8; 8]);
    encap_gtpu(&mut m, 0xC0A8_0001, 0x0AFE_0001, teid).unwrap();
    m
}

fn keys_of(c: &mut Cluster, imsi: u64) -> (u32, u32) {
    let k = c.home_node(imsi);
    let node = c.node(k);
    let s = node.slice_of(imsi).unwrap();
    let ctx = node.slice(s).ctrl.context_of(imsi).unwrap();
    let g = ctx.ctrl_read();
    (g.tunnels.gw_teid, g.ue_ip)
}

#[test]
fn cluster_serves_hundreds_of_users_end_to_end() {
    let mut c = Cluster::new(4, template(), None);
    for imsi in 0..300u64 {
        c.attach(imsi);
        let k = c.home_node(imsi);
        c.node(k).ctrl_event(CtrlEvent::S1Handover {
            imsi,
            new_enb_teid: 0xE000 + imsi as u32,
            new_enb_ip: 0xC0A8_0001,
        });
    }
    assert_eq!(c.user_count(), 300);
    for imsi in 0..300u64 {
        let (teid, ue_ip) = keys_of(&mut c, imsi);
        assert!(c.process(uplink(teid, ue_ip)).is_forward(), "imsi {imsi}");
    }
}

#[test]
fn cluster_node_identifier_regions_are_disjoint() {
    let mut c = Cluster::new(3, template(), None);
    let mut teids = std::collections::HashSet::new();
    let mut ips = std::collections::HashSet::new();
    for imsi in 0..150u64 {
        c.attach(imsi);
        let (teid, ue_ip) = keys_of(&mut c, imsi);
        assert!(teids.insert(teid), "duplicate TEID {teid:#x}");
        assert!(ips.insert(ue_ip), "duplicate UE IP {ue_ip:#x}");
    }
}

#[test]
fn checkpoint_restore_survives_node_failure() {
    // "Fail" a node: checkpoint its slice, rebuild a fresh node elsewhere
    // from the checkpoint, and resume service for every user.
    let mut node = pepc::node::PepcNode::new(template(), None);
    let imsis: Vec<u64> = (0..100).collect();
    let mut keys = Vec::new();
    for &imsi in &imsis {
        node.attach(imsi);
        node.ctrl_event(CtrlEvent::S1Handover { imsi, new_enb_teid: 0xE000 + imsi as u32, new_enb_ip: 0xC0A8_0001 });
        let k = node.slice_of(imsi).unwrap();
        let ctx = node.slice(k).ctrl.context_of(imsi).unwrap();
        let c = ctx.ctrl_read();
        keys.push((c.tunnels.gw_teid, c.ue_ip));
    }
    // Traffic accumulates charging state.
    for (i, &(teid, ue_ip)) in keys.iter().enumerate() {
        for _ in 0..=i % 5 {
            assert!(node.process(uplink(teid, ue_ip)).is_forward());
        }
    }

    // Checkpoint both slices of the failing node.
    let cp0 = recovery::checkpoint(&node.slice(0).ctrl).unwrap();
    let cp1 = recovery::checkpoint(&node.slice(1).ctrl).unwrap();
    drop(node); // the failure

    // Recover into a fresh node: users from both checkpoints land on
    // slice 0 and 1 respectively, then the data plane syncs.
    let mut recovered = pepc::node::PepcNode::new(template(), None);
    let n0 = recovery::restore(&mut recovered.slice(0).ctrl, &cp0).unwrap();
    let n1 = recovery::restore(&mut recovered.slice(1).ctrl, &cp1).unwrap();
    assert_eq!(n0 + n1, 100);
    recovered.slice(0).sync_now();
    recovered.slice(1).sync_now();
    // Every restored user sits in its keys' region: no exception entry.
    assert!(recovered.demux().is_clear());

    // Every user resumes on the same tunnels with counters intact.
    let mut total_packets = 0;
    for (i, &(teid, ue_ip)) in keys.iter().enumerate() {
        assert!(recovered.process(uplink(teid, ue_ip)).is_forward(), "user {i}");
        total_packets += 1;
    }
    assert_eq!(total_packets, 100);
    let k = recovered.slice_of(7).unwrap();
    let counters = recovered.slice(k).ctrl.counters_of(7).unwrap();
    // 7 % 5 = 2 → 3 pre-failure packets + 1 post-recovery.
    assert_eq!(counters.uplink_packets, 4, "charging state survived the failure");
}

#[test]
fn attach_after_restore_mints_fresh_identifiers() {
    let one_slice = || pepc::node::PepcNode::new(EpcConfig { slices: 1, ..template() }, None);
    let mut node = one_slice();
    for imsi in 0..5u64 {
        node.attach(imsi);
    }
    let bytes = recovery::checkpoint(&node.slice(0).ctrl).unwrap();
    let mut recovered = one_slice();
    assert_eq!(recovery::restore(&mut recovered.slice(0).ctrl, &bytes).unwrap(), 5);
    recovered.attach(99);
    let identity = |n: &mut pepc::node::PepcNode, imsi: u64| {
        let c = n.slice(0).ctrl.context_of(imsi).unwrap().ctrl_read().clone();
        (c.guti, c.tunnels.gw_teid, c.ue_ip)
    };
    let fresh = identity(&mut recovered, 99);
    for imsi in 0..5u64 {
        let (guti, teid, ue_ip) = identity(&mut recovered, imsi);
        assert!(guti != fresh.0 && teid != fresh.1 && ue_ip != fresh.2, "imsi 99 reuses imsi {imsi}'s identifiers");
    }
    // Each user's packets land in its own context.
    for imsi in [0, 99] {
        let (_, teid, ue_ip) = identity(&mut recovered, imsi);
        assert!(recovered.process(uplink(teid, ue_ip)).is_forward(), "imsi {imsi}");
    }
    for imsi in [0, 99] {
        assert_eq!(recovered.slice(0).ctrl.counters_of(imsi).unwrap().uplink_packets, 1, "imsi {imsi}");
    }
}

#[test]
fn restore_is_idempotent_per_user() {
    let mut node = pepc::node::PepcNode::new(template(), None);
    node.attach(7);
    let k = node.slice_of(7).unwrap();
    let cp = recovery::checkpoint(&node.slice(k).ctrl).unwrap();
    // Restoring on top of a live slice overwrites rather than duplicates.
    let before = node.slice(k).ctrl.user_count();
    recovery::restore(&mut node.slice(k).ctrl, &cp).unwrap();
    assert_eq!(node.slice(k).ctrl.user_count(), before);
    // ... and the replaced context's slab slot is freed once the data
    // plane applies the restore, not leaked beside the new one.
    node.slice(k).sync_now();
    let slice = node.slice(k);
    assert_eq!(slice.ctrl.slab().live_slots(), slice.ctrl.user_count() as u64);
}

#[test]
fn an_mme_ue_id_names_one_ue_across_the_cluster() {
    let hss = Arc::new(Hss::new());
    hss.provision_range(1, 64, 100_000);
    let backends = Some((hss, Arc::new(Pcrf::with_standard_rules())));
    let mut c = Cluster::new(2, EpcConfig { slices: 1, ..template() }, backends);
    // One UE homed on each node, attached over S1AP on distinct eNodeB UE ids.
    let (victim, heirs_own) =
        ((1..).find(|&i| c.home_node(i) == 0).unwrap(), (1..).find(|&i| c.home_node(i) == 1).unwrap());
    let mme_ue_id = |c: &mut Cluster, k: usize, imsi: u64, enb_ue_id: u32| {
        run_attach_with(|pdu| c.node(k).handle_s1ap(pdu), imsi, enb_ue_id, 0xE000, 0xC0A8_0001).expect("attach");
        c.node(k).slice(0).ctrl.context_of(imsi).unwrap().s1_conn().unwrap().mme_ue_id
    };
    let (id, other) = (mme_ue_id(&mut c, 0, victim, 1), mme_ue_id(&mut c, 1, heirs_own, 2));
    assert_ne!(id, other, "both nodes minted MME UE id {id}");

    // Node 0 dies and node 1 adopts the victim.
    let rec = c.node(0).slice(0).ctrl.record_of(victim).unwrap();
    c.power_off(0).unwrap();
    c.repair_steering(0).unwrap();
    assert_eq!(c.adopt_user(rec), Some((1, 0)));
    // The victim's eNodeB releases it under the id node 0 gave it: the
    // adopted record carried that association, so the release suspends
    // the victim, and the heir's own UE stays connected.
    let rsp = c.node(1).handle_s1ap(&S1apPdu::UeContextReleaseRequest { enb_ue_id: 1, mme_ue_id: id, cause: 0 });
    assert!(matches!(rsp.as_slice(), [S1apPdu::UeContextReleaseCommand { mme_ue_id, .. }] if *mme_ue_id == id));
    assert_eq!(c.node(1).slice(0).ctrl.idle_user_count(), 1);
    // The heir's own UE was still connected: its own release idles a
    // second UE.
    c.node(1).handle_s1ap(&S1apPdu::UeContextReleaseRequest { enb_ue_id: 2, mme_ue_id: other, cause: 0 });
    assert_eq!(c.node(1).slice(0).ctrl.idle_user_count(), 2);
}
