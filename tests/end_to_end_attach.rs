// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! End-to-end attach and session lifecycle through a whole PEPC node:
//! S1AP/NAS signaling against live HSS/PCRF backends, then data traffic,
//! mobility and detach.

use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::ctrl::run_attach_with;
use pepc::node::{NodeVerdict, PepcNode};
use pepc_backend::{Hss, Pcrf};
use pepc_net::gtp::{decap_gtpu, encap_gtpu};
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use pepc_sigproto::nas::NasMsg;
use pepc_sigproto::s1ap::S1apPdu;
use std::sync::Arc;

const IMSI_BASE: u64 = 404_01_0000000000;

fn node_with_backends(slices: usize, subscribers: u64) -> PepcNode {
    let hss = Arc::new(Hss::new());
    hss.provision_range(IMSI_BASE, subscribers, 100_000);
    let pcrf = Arc::new(Pcrf::with_standard_rules());
    let config = EpcConfig {
        slices,
        slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..Default::default() },
        ..EpcConfig::default()
    };
    PepcNode::new(config, Some((hss, pcrf)))
}

fn udp_packet(src: u32, dst: u32, dport: u16, payload: &[u8]) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(src, dst, IpProto::Udp, UDP_HDR_LEN + payload.len()).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(40000, dport, payload.len()).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(payload);
    m
}

#[test]
fn attach_traffic_handover_detach_lifecycle() {
    let mut node = node_with_backends(2, 100);
    let imsi = IMSI_BASE + 7;

    // Full S1AP/NAS attach.
    let (guti, ue_ip, gw_teid) =
        run_attach_with(|p| node.handle_s1ap(p), imsi, 1, 0xE100, 0xC0A8_0001).expect("attach");
    assert_eq!(node.user_count(), 1);

    // Uplink through the node.
    let mut up = udp_packet(ue_ip, 0x0808_0808, 53, b"q");
    encap_gtpu(&mut up, 0xC0A8_0001, node.config().gw_ip, gw_teid).unwrap();
    assert!(node.process(up).is_forward());

    // Downlink reaches the eNodeB from the attach.
    match node.process(udp_packet(0x0808_0808, ue_ip, 40000, b"r")) {
        NodeVerdict::Forward(mut m) => {
            let (gtp, outer) = decap_gtpu(&mut m).unwrap();
            assert_eq!(gtp.teid, 0xE100);
            assert_eq!(outer.dst, 0xC0A8_0001);
        }
        other => panic!("{other:?}"),
    }

    // X2 handover repoints the downlink without touching the gateway TEID.
    let k = node.slice_of(imsi).unwrap();
    let mme_ue_id = {
        // First attach on this slice → first MME UE id of its range.

        1 + ((k as u32) << 24)
    };
    let rsp = node.handle_s1ap(&S1apPdu::PathSwitchRequest {
        enb_ue_id: 9,
        mme_ue_id,
        new_enb_teid: 0xE200,
        new_enb_ip: 0xC0A8_0002,
        ecgi: 0x300,
    });
    assert!(matches!(rsp.as_slice(), [S1apPdu::PathSwitchRequestAck { .. }]));
    match node.process(udp_packet(1, ue_ip, 40000, b"x")) {
        NodeVerdict::Forward(mut m) => {
            let (gtp, outer) = decap_gtpu(&mut m).unwrap();
            assert_eq!(gtp.teid, 0xE200);
            assert_eq!(outer.dst, 0xC0A8_0002);
        }
        other => panic!("{other:?}"),
    }

    // Detach over NAS; traffic stops.
    let rsp = node.handle_s1ap(&S1apPdu::UplinkNasTransport {
        enb_ue_id: 1,
        mme_ue_id,
        nas: NasMsg::DetachRequest { guti }.encode(),
    });
    match rsp.as_slice() {
        [S1apPdu::DownlinkNasTransport { nas, .. }] => {
            assert!(matches!(NasMsg::decode(nas).unwrap(), NasMsg::DetachAccept));
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(node.user_count(), 0);
    let mut up = udp_packet(ue_ip, 0x0808_0808, 53, b"q");
    encap_gtpu(&mut up, 0xC0A8_0001, node.config().gw_ip, gw_teid).unwrap();
    assert!(!node.process(up).is_forward(), "detached users carry no traffic");
}

#[test]
fn many_users_attach_across_slices_and_all_flow() {
    let mut node = node_with_backends(4, 200);
    let mut keys = Vec::new();
    for i in 0..100u64 {
        let imsi = IMSI_BASE + i;
        let (_, ue_ip, gw_teid) =
            run_attach_with(|p| node.handle_s1ap(p), imsi, i as u32 + 1, 0xE000 + i as u32, 0xC0A8_0001)
                .expect("attach");
        keys.push((imsi, ue_ip, gw_teid));
    }
    assert_eq!(node.user_count(), 100);
    // Every slice got some users (hash spread).
    for k in 0..4 {
        assert!(node.slice(k).ctrl.user_count() > 0, "slice {k} empty");
    }
    // All users pass traffic both ways.
    for &(_imsi, ue_ip, gw_teid) in &keys {
        let mut up = udp_packet(ue_ip, 0x0808_0808, 80, b"z");
        encap_gtpu(&mut up, 0xC0A8_0001, node.config().gw_ip, gw_teid).unwrap();
        assert!(node.process(up).is_forward());
        assert!(node.process(udp_packet(1, ue_ip, 40000, b"y")).is_forward());
    }
}

#[test]
fn unknown_subscriber_is_rejected_with_nas_cause() {
    let mut node = node_with_backends(1, 10);
    let rsp = node.handle_s1ap(&S1apPdu::InitialUeMessage {
        enb_ue_id: 1,
        ecgi: 1,
        tac: 1,
        nas: NasMsg::AttachRequest { imsi: IMSI_BASE + 999_999, ue_capability: 0 }.encode(),
    });
    match rsp.as_slice() {
        [S1apPdu::DownlinkNasTransport { nas, .. }] => {
            assert!(matches!(NasMsg::decode(nas).unwrap(), NasMsg::AttachReject { .. }));
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(node.user_count(), 0);
}

#[test]
fn pcef_rules_from_pcrf_drive_qos_classing() {
    let mut node = node_with_backends(1, 10);
    let imsi = IMSI_BASE + 1;
    let (_, ue_ip, gw_teid) = run_attach_with(|p| node.handle_s1ap(p), imsi, 1, 0xE1, 0xC0A8_0001).expect("attach");
    // SIP traffic (udp :5060) matches the PCRF's QCI-5 rule — the rule
    // set was installed at attach; verify the user's rule list is wired.
    let k = node.slice_of(imsi).unwrap();
    let ctx = node.slice(k).ctrl.context_of(imsi).unwrap();
    assert!(!ctx.ctrl_read().pcef_rules.is_empty());
    let mut up = udp_packet(ue_ip, 0x0808_0808, 5060, b"INVITE");
    encap_gtpu(&mut up, 0xC0A8_0001, node.config().gw_ip, gw_teid).unwrap();
    assert!(node.process(up).is_forward());
}
