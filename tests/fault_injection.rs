//! Failure injection across the stack: corrupted / dropped / rate-limited
//! packets must degrade service, never crash it, and valid traffic must
//! keep flowing around the faults.

use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::node::PepcNode;
use pepc_fabric::{FaultSpec, Wire};
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use rand::{Rng, SeedableRng};

fn node() -> PepcNode {
    let config = EpcConfig {
        slices: 2,
        slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..Default::default() },
        ..EpcConfig::default()
    };
    PepcNode::new(config, None)
}

fn uplink_for(node: &mut PepcNode, imsi: u64) -> Mbuf {
    let k = node.slice_of(imsi).unwrap();
    let ctx = node.slice(k).ctrl.context_of(imsi).unwrap();
    let (teid, ue_ip) = {
        let c = ctx.ctrl_read();
        (c.tunnels.gw_teid, c.ue_ip)
    };
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(ue_ip, 0x0808_0808, IpProto::Udp, UDP_HDR_LEN + 16).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(1, 2, 16).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&[0u8; 16]);
    encap_gtpu(&mut m, 0xC0A8_0001, node.config().gw_ip, teid).unwrap();
    m
}

#[test]
fn corrupted_packets_are_dropped_cleanly_and_good_ones_flow() {
    let mut n = node();
    n.attach(7);
    let mut wire = Wire::new(FaultSpec { corrupt_chance: 0.30, seed: 1234, ..FaultSpec::default() });
    for _ in 0..2000 {
        let pkt = uplink_for(&mut n, 7);
        wire.send(pkt);
    }
    while wire.pump(256) > 0 {}
    let mut arrived = Vec::new();
    wire.recv(&mut arrived, usize::MAX);
    assert_eq!(arrived.len(), 2000);

    let mut forwarded = 0;
    let mut dropped = 0;
    for m in arrived {
        if n.process(m).is_forward() {
            forwarded += 1;
        } else {
            dropped += 1;
        }
    }
    // Corruption can hit headers (malformed / wrong TEID → drop) or the
    // payload (still forwards). Nothing panics; most traffic survives.
    assert!(forwarded > 1200, "forwarded {forwarded}");
    assert!(dropped > 0, "some corrupted packets must have been rejected");
    assert_eq!(forwarded + dropped, 2000);
}

#[test]
fn lossy_wire_reduces_delivery_but_not_correctness() {
    let mut n = node();
    n.attach(7);
    let mut wire = Wire::new(FaultSpec { drop_chance: 0.5, seed: 7, ..FaultSpec::default() });
    for _ in 0..1000 {
        let pkt = uplink_for(&mut n, 7);
        wire.send(pkt);
    }
    while wire.pump(256) > 0 {}
    let mut arrived = Vec::new();
    wire.recv(&mut arrived, usize::MAX);
    let got = arrived.len();
    assert!((300..700).contains(&got), "wire dropped ~half: {got}");
    for m in arrived {
        assert!(n.process(m).is_forward(), "survivors all forward");
    }
    let k = n.slice_of(7).unwrap();
    assert_eq!(n.slice(k).ctrl.counters_of(7).unwrap().uplink_packets as usize, got);
}

#[test]
fn random_garbage_never_panics_the_node() {
    let mut n = node();
    n.attach(7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for len in 0..200 {
        let mut bytes = vec![0u8; len];
        rng.fill(&mut bytes[..]);
        let m = Mbuf::from_payload(&bytes);
        let _ = n.process(m); // must not panic, whatever the verdict
    }
    // Real traffic still flows afterwards.
    let pkt = uplink_for(&mut n, 7);
    assert!(n.process(pkt).is_forward());
}

#[test]
fn truncated_real_packets_never_panic() {
    let mut n = node();
    n.attach(7);
    let full = uplink_for(&mut n, 7);
    let bytes = full.data().to_vec();
    for cut in 0..bytes.len() {
        let m = Mbuf::from_payload(&bytes[..cut]);
        let _ = n.process(m);
    }
    let pkt = uplink_for(&mut n, 7);
    assert!(n.process(pkt).is_forward());
}

/// Push `count` uplinks for `imsi` through a faulty wire into the node
/// and return (wire stats, node snapshot).
fn run_faulty(spec: FaultSpec, count: usize) -> (pepc_fabric::WireStats, pepc::MetricsSnapshot) {
    let mut n = node();
    n.attach(7);
    let mut wire = Wire::new(spec);
    for _ in 0..count {
        let pkt = uplink_for(&mut n, 7);
        wire.send(pkt);
    }
    while wire.pump(256) > 0 {}
    let mut arrived = Vec::new();
    wire.recv(&mut arrived, usize::MAX);
    for m in arrived {
        let _ = n.process(m);
    }
    (wire.stats(), n.metrics_snapshot())
}

#[test]
fn fault_matrix_accounts_for_every_packet_and_repeats_exactly() {
    // Sweep the fault space: each axis alone and all three combined,
    // across several seeds. Whatever the wire does, the node's drop
    // taxonomy must attribute every packet it received, and the whole
    // run must be a pure function of the seed.
    let specs = [
        FaultSpec { drop_chance: 0.2, ..FaultSpec::default() },
        FaultSpec { corrupt_chance: 0.2, ..FaultSpec::default() },
        FaultSpec { reorder_chance: 0.2, ..FaultSpec::default() },
        FaultSpec { drop_chance: 0.1, corrupt_chance: 0.1, reorder_chance: 0.1, ..FaultSpec::default() },
    ];
    for base in &specs {
        for seed in [1u64, 99, 0xC0FFEE] {
            let spec = FaultSpec { seed, ..base.clone() };
            let (ws, snap) = run_faulty(spec.clone(), 1500);
            let t = snap.data_totals();

            // The wire accounts for the offered load; the node accounts
            // for what survived the wire. Packets whose outer headers
            // were corrupted beyond recognition die at the demux, so the
            // slices may see slightly less than the wire forwarded — but
            // what they do see is fully attributed.
            assert_eq!(ws.forwarded + ws.dropped, 1500, "{spec:?}");
            assert!(t.rx <= ws.forwarded, "{spec:?}");
            assert!(snap.conservation_holds(), "{spec:?}: {t:?}");
            assert_eq!(snap.slices.iter().map(|s| s.pipeline_ns.count()).sum::<u64>(), t.forwarded);
            if base.drop_chance > 0.0 {
                assert!(ws.dropped > 0, "{spec:?}");
            }
            if base.corrupt_chance > 0.0 {
                assert!(ws.corrupted > 0 && t.drops_total() > 0, "{spec:?}: {ws:?} {t:?}");
            }
            if base.reorder_chance > 0.0 {
                assert!(ws.reordered > 0, "{spec:?}");
                // Reordering conserves: nothing extra is dropped, and the
                // uplink pipeline is order-insensitive.
                if base.drop_chance == 0.0 && base.corrupt_chance == 0.0 {
                    assert_eq!(t.forwarded, 1500, "{spec:?}");
                }
            }

            // Same seed → bit-identical fault decisions → identical
            // counters, histogram populations and ring gauges.
            let (ws2, snap2) = run_faulty(spec.clone(), 1500);
            assert_eq!(ws, ws2, "wire diverged for {spec:?}");
            assert!(snap.deterministic_eq(&snap2), "node diverged for {spec:?}");
        }
    }
}

#[test]
fn bitflips_in_every_position_never_panic() {
    let mut n = node();
    n.attach(7);
    let full = uplink_for(&mut n, 7);
    let bytes = full.data().to_vec();
    for pos in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut b = bytes.clone();
            b[pos] ^= bit;
            let _ = n.process(Mbuf::from_payload(&b));
        }
    }
}
