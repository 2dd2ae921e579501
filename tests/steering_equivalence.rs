//! Region-arithmetic steering (DESIGN.md §5) against its three promises:
//!
//! * **Equivalence** — `PepcNode::process_burst` (bucket → one burst per
//!   slice → scatter) is observationally identical to handing a twin node
//!   the same packets one at a time through `PepcNode::process`: verdict
//!   kind and forwarded bytes per input index, per-user counters, drop
//!   taxonomy, conservation — over residents in both directions, keys of
//!   detached users, out-of-region keys, malformed frames, a user
//!   migrated off its home slice and an HA-adopted user whose keys lie in
//!   a foreign node's region.
//! * **Arithmetic == allocation** — for any slice count and any
//!   attach/detach/migrate order, the slice an identifier's high bits name
//!   is the slice whose allocator issued it, and the exception table holds
//!   exactly the users living off-home.
//! * **No residue** — thousands of full S1AP lifecycles leave nothing
//!   behind in the node or in the control planes' routing indexes.

use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::ctrl::{run_attach_with, CtrlEvent};
use pepc::demux::PacketKey;
use pepc::node::{NodeVerdict, PepcNode};
use pepc::recovery::UserRecord;
use pepc::state::{ControlState, CounterState, S1Conn, TunnelState};
use pepc_backend::{Hss, Pcrf};
use pepc_fabric::clock::VirtualClock;
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use pepc_sigproto::nas::NasMsg;
use pepc_sigproto::s1ap::S1apPdu;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const ENB_IP: u32 = 0xC0A8_0001;

fn config(slices: usize) -> EpcConfig {
    EpcConfig {
        slices,
        slice: SliceConfig {
            batching: BatchingConfig { sync_every_packets: 1 },
            expected_users: 64,
            ..SliceConfig::default()
        },
        ..EpcConfig::default()
    }
}

fn keys_of(node: &mut PepcNode, imsi: u64) -> (u32, u32) {
    let k = node.slice_of(imsi).expect("attached");
    node.slice(k).ctrl.keys_of(imsi).expect("attached")
}

fn inner_udp(src: u32, dst: u32, payload_len: usize) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(src, dst, IpProto::Udp, UDP_HDR_LEN + payload_len).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(40_000, 443, payload_len).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&vec![0xAB; payload_len]);
    m
}

fn uplink(teid: u32, ue_ip: u32, gw_ip: u32) -> Mbuf {
    let mut m = inner_udp(ue_ip, 0x0808_0808, 64);
    encap_gtpu(&mut m, ENB_IP, gw_ip, teid).unwrap();
    m
}

fn downlink(ue_ip: u32) -> Mbuf {
    inner_udp(0x0808_0808, ue_ip, 48)
}

// -- equivalence ------------------------------------------------------------------

/// Users whose packets the stream draws from, and the keys of users that
/// left.
struct Population {
    /// `(imsi, gw_teid, ue_ip)` of everyone attached.
    live: Vec<(u64, u32, u32)>,
    /// In-region keys of detached users.
    gone: Vec<(u32, u32)>,
}

/// The imsi and foreign-region keys of the HA-adopted user.
const ADOPTED: (u64, u32, u32) = (900, 0x5000_0007, 0x5A00_0007);

/// Build one of the twins: same calls in the same order give both the same
/// identifiers.
fn build_twin(slices: usize, clock: &VirtualClock) -> (PepcNode, Population) {
    let mut node = PepcNode::new(config(slices), None);
    node.set_clock(clock.clock());
    let mut live = Vec::new();
    for imsi in 1..=12u64 {
        node.attach(imsi);
        node.ctrl_event(CtrlEvent::S1Handover { imsi, new_enb_teid: 0xE000 + imsi as u32, new_enb_ip: ENB_IP });
        let (teid, ip) = keys_of(&mut node, imsi);
        live.push((imsi, teid, ip));
    }
    let mut gone = Vec::new();
    for imsi in 20..=22u64 {
        node.attach(imsi);
        gone.push(keys_of(&mut node, imsi));
        assert!(node.detach(imsi));
    }
    // One user off its home slice, one rate-limited, one idle.
    if slices > 1 {
        let cur = node.slice_of(1).unwrap();
        assert!(node.migrate(1, (cur + 1) % slices));
        assert_eq!(node.demux().moved_count(), 1);
    }
    node.ctrl_event(CtrlEvent::ModifyBearer { imsi: 2, ambr_kbps: 8 });
    node.ctrl_event(CtrlEvent::Release { imsi: 3 });
    // One user adopted from a failed node: its keys are in no local region.
    let (imsi, gw_teid, ue_ip) = ADOPTED;
    let mut ctrl = ControlState::new(imsi);
    ctrl.ue_ip = ue_ip;
    ctrl.tunnels = TunnelState { enb_teid: 0xE900, enb_ip: ENB_IP, gw_teid };
    node.adopt_user(UserRecord { ctrl, counters: CounterState::default() });
    assert_eq!(node.slice_of(imsi), Some(node.home_slice(imsi)));
    live.push(ADOPTED);
    (node, Population { live, gone })
}

fn next_packet(rng: &mut rand::rngs::StdRng, pop: &Population, cfg: &EpcConfig) -> Mbuf {
    let (_, teid, ip) = pop.live[rng.gen_range(0..pop.live.len())];
    match rng.gen_range(0..12) {
        0..=3 => uplink(teid, ip, cfg.gw_ip),
        4..=7 => downlink(ip),
        // In-region keys nobody owns any more: the slice drops them.
        8 => {
            let (teid, ip) = pop.gone[rng.gen_range(0..pop.gone.len())];
            if rng.gen_range(0..2) == 0 {
                uplink(teid, ip, cfg.gw_ip)
            } else {
                downlink(ip)
            }
        }
        // Keys in no slice's region: below the base, and one region past
        // the last slice.
        9 => match rng.gen_range(0..3) {
            0 => uplink(cfg.teid_base - 1 - rng.gen_range(0..64u32), ip, cfg.gw_ip),
            1 => uplink(cfg.teid_base + ((cfg.slices as u32) << 24) + rng.gen_range(0..64u32), ip, cfg.gw_ip),
            _ => downlink(cfg.ue_ip_base + ((cfg.slices as u32) << 24) + rng.gen_range(0..64u32)),
        },
        // Not IPv4 at all, and a GTP-U frame cut short of its TEID.
        10 => Mbuf::from_payload(&[0xFF; 40]),
        _ => {
            let whole = uplink(teid, ip, cfg.gw_ip);
            Mbuf::from_payload(&whole.data()[..30])
        }
    }
}

fn verdict_kind(v: &NodeVerdict) -> (u8, &[u8]) {
    match v {
        NodeVerdict::Forward(m) => (0, m.data()),
        NodeVerdict::Drop => (1, &[]),
        NodeVerdict::Parked => (2, &[]),
        NodeVerdict::Buffered => (3, &[]),
    }
}

#[test]
fn process_burst_is_observationally_identical_to_per_packet_process() {
    for seed in [3u64, 17, 4242] {
        for slices in [1usize, 2, 4] {
            let clock = VirtualClock::new();
            let (mut bursty, pop) = build_twin(slices, &clock);
            let (mut scalar, _) = build_twin(slices, &clock);
            let cfg = bursty.config().clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut forwarded = 0usize;
            for round in 0..120 {
                // Both twins read the one clock; it moves between bursts only.
                clock.advance_ns(rng.gen_range(0..2_000_000));
                let burst: Vec<Mbuf> = (0..32).map(|_| next_packet(&mut rng, &pop, &cfg)).collect();
                let copies: Vec<Mbuf> = burst.iter().map(|m| Mbuf::from_payload(m.data())).collect();
                let a = bursty.process_burst(burst);
                let b: Vec<NodeVerdict> = copies.into_iter().map(|m| scalar.process(m)).collect();
                assert_eq!(a.len(), 32);
                for (at, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert_eq!(
                        verdict_kind(x),
                        verdict_kind(y),
                        "seed {seed} slices {slices} round {round} packet {at}"
                    );
                }
                forwarded += a.iter().filter(|v| v.is_forward()).count();
            }
            assert!(forwarded > 1_000, "the stream mostly forwards: {forwarded}");

            let (sa, sb) = (bursty.metrics_snapshot(), scalar.metrics_snapshot());
            assert!(sa.conservation_holds() && sb.conservation_holds());
            for (k, (x, y)) in sa.slices.iter().zip(&sb.slices).enumerate() {
                assert_eq!(x.data, y.data, "seed {seed} slices {slices}: slice {k} drop taxonomy diverged");
            }
            let totals = sa.data_totals();
            assert!(totals.drop_unknown_user > 0, "detached users' keys reached a slice");
            assert!(totals.drop_qos > 0, "the rate-limited user was limited");
            for &(imsi, ..) in &pop.live {
                let (ka, kb) = (bursty.slice_of(imsi).unwrap(), scalar.slice_of(imsi).unwrap());
                assert_eq!(ka, kb);
                let ca = bursty.slice(ka).ctrl.context_of(imsi).unwrap().counters();
                let cb = scalar.slice(kb).ctrl.context_of(imsi).unwrap().counters();
                assert_eq!(ca, cb, "seed {seed} slices {slices}: imsi {imsi} counters diverged");
            }
            let moved = if slices > 1 { 2 } else { 1 };
            assert_eq!(bursty.demux().moved_count(), moved, "the migrated and the adopted user, nobody else");
            assert_eq!(bursty.demux().parked_count(), 0);
        }
    }
}

// -- arithmetic == allocation ----------------------------------------------------

proptest! {
    #[test]
    fn arithmetic_home_is_the_issuing_slice_and_exceptions_count_users_off_home(
        slices in 1usize..17,
        ops in proptest::collection::vec((0u8..4, 0u64..24, 0usize..16), 0..80),
    ) {
        let mut node = PepcNode::new(config(slices), None);
        // imsi → slice it lives on.
        let mut model: HashMap<u64, usize> = HashMap::new();
        for (op, imsi, target) in ops {
            match op {
                0 | 1 => {
                    let k = node.attach(imsi);
                    prop_assert_eq!(*model.entry(imsi).or_insert(k), k);
                }
                2 => {
                    prop_assert_eq!(node.detach(imsi), model.remove(&imsi).is_some());
                }
                _ => {
                    let target = target % slices;
                    let legal = model.get(&imsi).is_some_and(|&cur| cur != target);
                    prop_assert_eq!(node.migrate(imsi, target), legal);
                    if legal {
                        model.insert(imsi, target);
                    }
                }
            }
            let mut off_home = 0;
            for (&imsi, &k) in &model {
                prop_assert_eq!(node.slice_of(imsi), Some(k));
                let home = node.home_slice(imsi);
                let (teid, ip) = keys_of(&mut node, imsi);
                // Identifiers never change, and were issued by the home slice.
                prop_assert_eq!(node.demux().region_of(PacketKey::Teid(teid)), Some(home));
                prop_assert_eq!(node.demux().region_of(PacketKey::UeIp(ip)), Some(home));
                off_home += usize::from(k != home);
            }
            prop_assert_eq!(node.demux().moved_count(), off_home);
            prop_assert_eq!(node.user_count(), model.len());
        }
        let imsis: Vec<u64> = model.keys().copied().collect();
        for imsi in imsis {
            prop_assert!(node.detach(imsi));
        }
        prop_assert!(node.demux().is_clear());
        prop_assert_eq!(node.user_count(), 0);
    }
}

// -- no residue --------------------------------------------------------------------

/// The twelve uplink legs of the benchmark's UE lifecycle, through the
/// node's S1AP routing: attach (5) → S1 handover (2) → S1 release (2) →
/// service request (+ context-setup response) → detach.
fn lifecycle(node: &mut PepcNode, imsi: u64, enb_ue_id: u32) {
    let (guti, _, gw_teid) =
        run_attach_with(|pdu| node.handle_s1ap(pdu), imsi, enb_ue_id, 0xE000, ENB_IP).expect("attach");
    let k = node.slice_of(imsi).expect("attached");
    let mme_ue_id = node.slice(k).ctrl.context_of(imsi).unwrap().s1_conn().expect("S1AP-attached").mme_ue_id;

    let rsp = node.handle_s1ap(&S1apPdu::HandoverRequired { enb_ue_id, mme_ue_id, target_ecgi: 0x101 });
    assert!(matches!(rsp.as_slice(), [S1apPdu::HandoverRequest { gw_teid: t, .. }] if *t == gw_teid), "{rsp:?}");
    let rsp =
        node.handle_s1ap(&S1apPdu::HandoverRequestAck { mme_ue_id, new_enb_teid: 0xE001, new_enb_ip: ENB_IP + 1 });
    assert!(matches!(rsp.as_slice(), [S1apPdu::HandoverCommand { .. }]), "{rsp:?}");

    let rsp = node.handle_s1ap(&S1apPdu::UeContextReleaseRequest { enb_ue_id, mme_ue_id, cause: 0 });
    assert!(matches!(rsp.as_slice(), [S1apPdu::UeContextReleaseCommand { cause: 0, .. }]), "{rsp:?}");
    assert!(node.handle_s1ap(&S1apPdu::UeContextReleaseComplete { enb_ue_id, mme_ue_id }).is_empty());

    let rsp = node.handle_s1ap(&S1apPdu::InitialUeMessage {
        enb_ue_id,
        ecgi: 0x100,
        tac: 1,
        nas: NasMsg::ServiceRequest { guti }.encode(),
    });
    let mme_ue_id = match rsp.as_slice() {
        [S1apPdu::DownlinkNasTransport { mme_ue_id, nas, .. }] if NasMsg::decode(nas) == Ok(NasMsg::ServiceAccept) => {
            *mme_ue_id
        }
        other => panic!("service request answered with {other:?}"),
    };
    let ics = S1apPdu::InitialContextSetupResponse { enb_ue_id, mme_ue_id, enb_teid: 0xE001, enb_ip: ENB_IP + 1 };
    assert!(node.handle_s1ap(&ics).is_empty());

    s1ap_detach(node, guti, S1Conn { mme_ue_id, enb_ue_id });
}

/// Where an S1AP-attached user lives, its GUTI and its S1 association.
fn s1_identity(node: &mut PepcNode, imsi: u64) -> (usize, u64, S1Conn) {
    let k = node.slice_of(imsi).expect("attached");
    let ctx = node.slice(k).ctrl.context_of(imsi).unwrap();
    let guti = ctx.ctrl_read().guti;
    (k, guti, ctx.s1_conn().expect("S1AP-attached"))
}

fn s1ap_detach(node: &mut PepcNode, guti: u64, conn: S1Conn) {
    let rsp = node.handle_s1ap(&S1apPdu::UplinkNasTransport {
        enb_ue_id: conn.enb_ue_id,
        mme_ue_id: conn.mme_ue_id,
        nas: NasMsg::DetachRequest { guti }.encode(),
    });
    match rsp.as_slice() {
        [S1apPdu::DownlinkNasTransport { nas, .. }] => assert_eq!(NasMsg::decode(nas), Ok(NasMsg::DetachAccept)),
        other => panic!("detach answered with {other:?}"),
    }
}

/// An S1AP detach names no IMSI to the node; the slice reports who left,
/// and exactly that user's exception entry goes.
#[test]
fn s1ap_detach_of_a_moved_user_retires_only_its_exception() {
    let hss = Arc::new(Hss::new());
    hss.provision_range(1, 10, 100_000);
    let mut node = PepcNode::new(config(2), Some((hss, Arc::new(Pcrf::with_standard_rules()))));
    for imsi in 1..=3 {
        run_attach_with(|pdu| node.handle_s1ap(pdu), imsi, imsi as u32, 0xE000, ENB_IP).expect("attach");
    }
    for imsi in [1, 2] {
        let away = 1 - node.home_slice(imsi);
        assert!(node.migrate(imsi, away));
    }
    assert_eq!(node.demux().moved_count(), 2);
    // Migration moves the committed state, not the S1 association: the UE
    // comes back with a service request, on the slice it now lives on.
    let k = node.slice_of(1).unwrap();
    let guti = node.slice(k).ctrl.context_of(1).unwrap().ctrl_read().guti;
    let rsp = node.handle_s1ap(&S1apPdu::InitialUeMessage {
        enb_ue_id: 1,
        ecgi: 0x100,
        tac: 1,
        nas: NasMsg::ServiceRequest { guti }.encode(),
    });
    assert!(matches!(rsp.as_slice(), [S1apPdu::DownlinkNasTransport { .. }]), "{rsp:?}");
    let (at, _, conn) = s1_identity(&mut node, 1);
    assert_eq!(at, k);
    s1ap_detach(&mut node, guti, conn);
    assert_eq!(node.slice_of(1), None);
    assert_eq!(node.demux().moved_count(), 1, "user 2 is still off-home");
    assert_eq!(node.slice_of(2), Some(1 - node.home_slice(2)));
    // The at-home user's detach touches nobody's entry.
    let (_, guti, conn) = s1_identity(&mut node, 3);
    s1ap_detach(&mut node, guti, conn);
    assert_eq!(node.demux().moved_count(), 1);
    assert!(node.detach(2));
    assert!(node.demux().is_clear());
}

#[test]
fn ten_thousand_s1ap_lifecycles_leave_no_steering_residue() {
    const RESIDENTS: u64 = 1_000;
    const CHURN: u64 = 10_000;
    let hss = Arc::new(Hss::new());
    hss.provision_range(1, RESIDENTS + CHURN, 100_000);
    let mut node = PepcNode::new(config(2), Some((hss, Arc::new(Pcrf::with_standard_rules()))));
    for imsi in 1..=RESIDENTS {
        run_attach_with(|pdu| node.handle_s1ap(pdu), imsi, imsi as u32, 0xE000, ENB_IP).expect("resident attach");
    }
    assert_eq!(node.user_count(), RESIDENTS as usize);

    for n in 0..CHURN {
        lifecycle(&mut node, RESIDENTS + 1 + n, 0x4000_0000 + n as u32);
    }

    assert_eq!(node.user_count(), RESIDENTS as usize);
    assert!(node.demux().is_clear(), "{} exception entries", node.demux().moved_count());
    for n in (0..CHURN).step_by(97) {
        assert_eq!(node.slice_of(RESIDENTS + 1 + n), None);
    }
    // The control planes' routing index holds the residents' S1
    // associations and nothing of the ten thousand that came and went.
    let by_mme: usize = (0..2).map(|k| node.slice(k).ctrl.s1_index_len()).sum();
    assert_eq!(by_mme, RESIDENTS as usize);
    let snap = node.metrics_snapshot();
    for s in &snap.slices {
        assert!(s.ctrl.signaling_conservation_holds(s.mailbox_backlog));
        assert!(s.ctrl.procedure_accounting_holds(0));
    }

    // Restoring over a live resident overwrites it without orphaning the
    // S1 association it is indexed under: its detach still unindexes it.
    let (k, guti, conn) = s1_identity(&mut node, 5);
    let rec = node.slice(k).ctrl.record_of(5).unwrap();
    assert_eq!(node.adopt_user(rec), Some(k));
    assert_eq!(s1_identity(&mut node, 5), (k, guti, conn));
    s1ap_detach(&mut node, guti, conn);
    assert_eq!(node.user_count(), RESIDENTS as usize - 1);
    let by_mme: usize = (0..2).map(|k| node.slice(k).ctrl.s1_index_len()).sum();
    assert_eq!(by_mme, RESIDENTS as usize - 1);

    // A churned IMSI attaches again, on its home slice, and forwards.
    let imsi = RESIDENTS + 1;
    let (_, ue_ip, gw_teid) = run_attach_with(|pdu| node.handle_s1ap(pdu), imsi, 7, 0xE000, ENB_IP).expect("re-attach");
    assert_eq!(node.slice_of(imsi), Some(node.home_slice(imsi)));
    let gw_ip = node.config().gw_ip;
    assert!(node.process(uplink(gw_teid, ue_ip, gw_ip)).is_forward());
    assert!(node.process(downlink(ue_ip)).is_forward());
}
