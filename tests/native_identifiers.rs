// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! A slice mints a native user's TEID, UE IP and GUTI from its slab slot
//! and the slot's tenant count, so the data plane and the GUTI routing
//! resolve those identifiers by arithmetic and index only foreign users.
//! These tests pin the two risks of that layout — identifier reuse and
//! the native/foreign rule — end to end through a node, and that a native
//! packet never probes the table.

use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::ctrl::{run_attach_with, CtrlEvent};
use pepc::node::PepcNode;
use pepc::twolevel::TwoLevelStats;
use pepc_backend::{Hss, Pcrf};
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use pepc_sigproto::nas::NasMsg;
use pepc_sigproto::s1ap::S1apPdu;
use std::sync::Arc;

const IMSI_BASE: u64 = 404_01_0000000000;
const ENB_IP: u32 = 0xC0A8_0001;
/// A slice sized for this many users (or fewer) names `2^8` slots.
const SMALL: usize = 64;
const NAMED: u32 = 1 << 8;
const REGION: u32 = 1 << 24;

fn node(slices: usize, expected_users: usize) -> PepcNode {
    let hss = Arc::new(Hss::new());
    hss.provision_range(IMSI_BASE, 1_000, 100_000);
    let slice =
        SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, expected_users, ..Default::default() };
    PepcNode::new(
        EpcConfig { slices, slice, ..EpcConfig::default() },
        Some((hss, Arc::new(Pcrf::with_standard_rules()))),
    )
}

fn inner_udp(src: u32, dst: u32) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(src, dst, IpProto::Udp, UDP_HDR_LEN + 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(40000, 443, 8).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&[0u8; 8]);
    m
}

fn uplink(n: &PepcNode, teid: u32, ue_ip: u32) -> Mbuf {
    let mut m = inner_udp(ue_ip, 0x0808_0808);
    encap_gtpu(&mut m, ENB_IP, n.config().gw_ip, teid).unwrap();
    m
}

fn downlink(ue_ip: u32) -> Mbuf {
    inner_udp(0x0808_0808, ue_ip)
}

/// Attach `imsi` by the synthetic path with a downlink tunnel; returns
/// its slice, slab slot, TEID and UE IP.
fn attach(n: &mut PepcNode, imsi: u64) -> (usize, u32, u32, u32) {
    let k = n.attach(imsi);
    assert!(n.ctrl_event(CtrlEvent::S1Handover { imsi, new_enb_teid: 0xE000, new_enb_ip: ENB_IP }));
    let ctx = n.slice(k).ctrl.context_of(imsi).expect("attached");
    let c = ctx.ctrl_read();
    (k, ctx.handle().index(), c.tunnels.gw_teid, c.ue_ip)
}

/// Both directions of a user forward.
fn flows(n: &mut PepcNode, teid: u32, ue_ip: u32) -> bool {
    let up = uplink(n, teid, ue_ip);
    n.process(up).is_forward() && n.process(downlink(ue_ip)).is_forward()
}

fn probes(s: TwoLevelStats) -> u64 {
    s.primary_hits + s.promotions + s.misses
}

#[test]
fn a_reattach_into_the_same_slot_strands_the_old_identifiers() {
    let mut n = node(1, SMALL);
    let a = IMSI_BASE + 1;
    let (guti, ue_ip, teid) = run_attach_with(|p| n.handle_s1ap(p), a, 1, 0xE1, ENB_IP).expect("attach");
    let slot = n.slice(0).ctrl.context_of(a).unwrap().handle().index();
    assert!(flows(&mut n, teid, ue_ip));
    let detach = NasMsg::DetachRequest { guti }.encode();
    n.handle_s1ap(&S1apPdu::UplinkNasTransport { enb_ue_id: 1, mme_ue_id: 1, nas: detach });
    n.slice(0).sync_now();

    let b = IMSI_BASE + 2;
    let (guti_b, ue_ip_b, teid_b) = run_attach_with(|p| n.handle_s1ap(p), b, 2, 0xE2, ENB_IP).expect("attach");
    assert_eq!(n.slice(0).ctrl.context_of(b).unwrap().handle().index(), slot, "the next tenant takes the freed slot");
    // Tenant 1 of the same slot: one tenant block above the old names.
    assert_eq!((teid_b - teid, ue_ip_b - ue_ip, guti_b - guti), (NAMED, NAMED, u64::from(NAMED)));

    let unknown = |n: &PepcNode| n.slice_ref(0).data.metrics().drop_unknown_user;
    let before = unknown(&n);
    let up = uplink(&n, teid, ue_ip);
    assert!(!n.process(up).is_forward(), "a packet on the old TEID");
    assert!(!n.process(downlink(ue_ip)).is_forward(), "a packet to the old UE IP");
    assert_eq!(unknown(&n) - before, 2, "both drop as unknown users");

    let sr = NasMsg::ServiceRequest { guti }.encode();
    let rsp = n.handle_s1ap(&S1apPdu::InitialUeMessage { enb_ue_id: 3, ecgi: 1, tac: 1, nas: sr });
    assert!(matches!(rsp.as_slice(), [S1apPdu::UeContextReleaseCommand { mme_ue_id: 0, .. }]), "{rsp:?}");
    assert_eq!(n.slice_ref(0).ctrl.metrics().service_requests, 0, "the old GUTI is an unknown GUTI");
    assert!(flows(&mut n, teid_b, ue_ip_b), "the new tenant is served");
}

#[test]
fn users_past_the_named_slots_live_in_the_foreign_index() {
    let mut n = node(1, SMALL);
    let total = NAMED + 44;
    let users: Vec<_> = (0..u64::from(total)).map(|i| attach(&mut n, IMSI_BASE + i)).collect();
    let teid_base = n.config().teid_base;
    for (i, &(_, slot, teid, _)) in users.iter().enumerate() {
        assert_eq!(slot, i as u32);
        // Overflow users mint from the last tenant block up.
        let want = if slot < NAMED { slot } else { REGION - NAMED + slot - NAMED };
        assert_eq!(teid - teid_base, want, "user {i}");
    }
    n.slice(0).sync_now();
    assert_eq!(n.slice_ref(0).data.user_count(), total as usize);

    for &(_, _, teid, ue_ip) in &users {
        assert!(flows(&mut n, teid, ue_ip));
    }
    // Only the overflow users' packets reach the table, one hit each.
    let stats = n.slice_ref(0).data.table_stats();
    assert_eq!((stats.primary_hits, probes(stats)), (2 * 44, 2 * 44));

    for i in NAMED..total {
        assert!(n.detach(IMSI_BASE + u64::from(i)));
    }
    n.slice(0).sync_now();
    assert_eq!(n.slice_ref(0).data.user_count(), NAMED as usize);
    for &(_, slot, teid, ue_ip) in &users {
        assert_eq!(flows(&mut n, teid, ue_ip), slot < NAMED, "slot {slot}");
    }
}

#[test]
fn a_native_mint_never_reproduces_a_restored_users_identifiers() {
    // A record whose keys name slot 1, tenant 0 of the destination.
    let mut src = node(1, SMALL);
    attach(&mut src, IMSI_BASE);
    let (_, slot, teid, ue_ip) = attach(&mut src, IMSI_BASE + 1);
    assert_eq!(slot, 1);
    let rec = src.slice(0).ctrl.record_of(IMSI_BASE + 1).unwrap();
    let guti = rec.ctrl.guti;

    let mut n = node(1, SMALL);
    assert_eq!(n.adopt_user(rec), Some(0));
    assert_eq!(n.slice(0).ctrl.context_of(IMSI_BASE + 1).unwrap().handle().index(), 0, "restored into slot 0");
    assert!(n.slice(0).ctrl.slab().named(1).is_none(), "slot 1 is free");

    // The next user takes slot 1, whose native names the record holds.
    let (_, slot, teid_y, ue_ip_y) = attach(&mut n, IMSI_BASE + 2);
    assert_eq!(slot, 1);
    assert_eq!(teid_y - n.config().teid_base, REGION - NAMED, "it falls back to the cursor");
    // The user after it is native again.
    let (_, slot, teid_z, ue_ip_z) = attach(&mut n, IMSI_BASE + 3);
    assert_eq!((slot, teid_z - n.config().teid_base), (2, 2));

    for (teid, ue_ip) in [(teid, ue_ip), (teid_y, ue_ip_y), (teid_z, ue_ip_z)] {
        assert!(flows(&mut n, teid, ue_ip), "{teid:#x}");
    }
    let guti_y = n.slice(0).ctrl.context_of(IMSI_BASE + 2).unwrap().ctrl_read().guti;
    assert!(n.slice(0).ctrl.knows_guti(guti) && n.slice(0).ctrl.knows_guti(guti_y));
    assert_ne!(guti, guti_y);
}

#[test]
fn native_packets_never_probe_the_table() {
    let mut n = node(2, SMALL);
    let users: Vec<_> = (0..40).map(|i| attach(&mut n, IMSI_BASE + i)).collect();
    // One user moves to the other slice: foreign there.
    let (home, _, teid_m, ue_ip_m) = users[0];
    assert!(n.migrate(IMSI_BASE, 1 - home));
    for &(_, _, teid, ue_ip) in &users {
        assert!(flows(&mut n, teid, ue_ip));
    }
    let stats = |n: &PepcNode| [0, 1].map(|k| n.slice_ref(k).data.table_stats());
    let after_traffic = stats(&n);
    assert_eq!(probes(after_traffic[home]), 0, "every packet on the home slice was native");
    assert_eq!(probes(after_traffic[1 - home]), 2, "the moved user's two packets, and nothing else");

    // A key that misses natively probes the table, once, on either slice.
    let teid_base = n.config().teid_base;
    for k in [0u32, 1] {
        let up = uplink(&n, teid_base + (k << 24) + 200, 0);
        assert!(!n.process(up).is_forward());
    }
    let after_misses = stats(&n);
    assert_eq!(after_misses.map(probes), [after_traffic[0], after_traffic[1]].map(|s| probes(s) + 1));
    assert_eq!(after_misses.map(|s| s.misses), [1, 1]);
    let up = uplink(&n, teid_m, ue_ip_m);
    assert!(n.process(up).is_forward());
}
