//! Observability invariants under a seeded mixed workload with faults.
//!
//! The drop taxonomy must be complete (`rx == forwarded + Σ drop_*` per
//! slice), the pipeline histogram must count exactly the forwarded
//! packets, and the deterministic part of a snapshot (every counter,
//! histogram populations, ring gauges) must be identical across two runs
//! with the same seed.

use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::node::PepcNode;
use pepc::pcef::PcefAction;
use pepc::MetricsSnapshot;
use pepc_fabric::{FaultSpec, Wire};
use pepc_net::bpf::BpfProgram;
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use rand::{Rng, SeedableRng};

fn node(slices: usize) -> PepcNode {
    let config = EpcConfig {
        slices,
        slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..Default::default() },
        ..EpcConfig::default()
    };
    PepcNode::new(config, None)
}

fn keys_of(node: &mut PepcNode, imsi: u64) -> (u32, u32) {
    let k = node.slice_of(imsi).unwrap();
    let ctx = node.slice(k).ctrl.context_of(imsi).unwrap();
    let c = ctx.ctrl_read();
    (c.tunnels.gw_teid, c.ue_ip)
}

fn uplink(gw_ip: u32, teid: u32, ue_ip: u32, dst_port: u16) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(ue_ip, 0x0808_0808, IpProto::Udp, UDP_HDR_LEN + 16).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(40000, dst_port, 16).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&[0u8; 16]);
    encap_gtpu(&mut m, 0xC0A8_0001, gw_ip, teid).unwrap();
    m
}

fn downlink(ue_ip: u32) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(0x0808_0808, ue_ip, IpProto::Udp, UDP_HDR_LEN + 16).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(443, 40000, 16).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&[0u8; 16]);
    m
}

/// Close the gate for DNS (dst port 53) traffic of `imsi`.
fn close_dns_gate(node: &mut PepcNode, imsi: u64) {
    let k = node.slice_of(imsi).unwrap();
    node.slice(k).data.apply_update(
        pepc::data::DpUpdate::InstallRule {
            id: 100,
            program: BpfProgram::match_dst_port(53, 100),
            action: PcefAction { qci: 9, rate_kbps: 0, gate_closed: true },
        },
        0,
    );
    let ctx = node.slice(k).ctrl.context_of(imsi).unwrap();
    ctx.ctrl_write().pcef_rules.push(100);
}

/// Drive one seeded mixed workload (valid uplink/downlink, gated flows,
/// unknown TEIDs, garbage frames — shuffled through a faulty wire) and
/// return the node's snapshot.
fn run_mixed_workload(seed: u64) -> MetricsSnapshot {
    let mut n = node(2);
    let imsis: Vec<u64> = (0..16).collect();
    for &imsi in &imsis {
        n.attach(imsi);
    }
    let gated = imsis[3];
    close_dns_gate(&mut n, gated);
    let gw_ip = n.config().gw_ip;
    let keys: Vec<(u32, u32)> = imsis.iter().map(|&i| keys_of(&mut n, i)).collect();

    // Desync one user: the data plane forgets it while the demux still
    // steers its TEID, so its uplinks reach the slice and must be
    // attributed to `drop_unknown_user` (not silently lost).
    let ghost = 5usize;
    let k = n.slice_of(imsis[ghost]).unwrap();
    let (g_teid, g_ip) = keys[ghost];
    for s in 0..n.slice_count() {
        n.slice(s).sync_now(); // drain queued attach updates first
    }
    n.slice(k).data.apply_update(pepc::data::DpUpdate::Remove { gw_teid: g_teid, ue_ip: g_ip }, 0);

    // A faulty wire between the "eNodeB" and the node: the fault PRNG is
    // seeded, so the exact set of dropped/corrupted packets — and
    // therefore every drop counter — is a pure function of `seed`.
    let mut wire = Wire::new(FaultSpec { drop_chance: 0.05, corrupt_chance: 0.10, seed, ..FaultSpec::default() });

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..4000 {
        let m = match rng.gen_range(0..10u32) {
            // Valid uplink from a random attached user (skipping the
            // desynced one).
            0..=4 => {
                let mut u = rng.gen_range(0..keys.len());
                if u == ghost {
                    u = (u + 1) % keys.len();
                }
                let (teid, ue_ip) = keys[u];
                uplink(gw_ip, teid, ue_ip, 80)
            }
            // Valid downlink toward a random attached user.
            5..=6 => {
                let (_, ue_ip) = keys[rng.gen_range(0..keys.len())];
                downlink(ue_ip)
            }
            // DNS from the gated user: PCEF gate drop.
            7 => {
                let (teid, ue_ip) = keys[gated as usize];
                uplink(gw_ip, teid, ue_ip, 53)
            }
            // The desynced user's TEID: steers to a slice whose data
            // plane holds no state for it.
            8 => uplink(gw_ip, g_teid, g_ip, 80),
            // Garbage frame: malformed.
            _ => {
                let mut bytes = vec![0u8; rng.gen_range(0..64)];
                rng.fill(&mut bytes[..]);
                Mbuf::from_payload(&bytes)
            }
        };
        assert!(wire.send(m));
    }
    while wire.pump(256) > 0 {}
    let mut arrived = Vec::new();
    wire.recv(&mut arrived, usize::MAX);
    for m in arrived {
        let _ = n.process(m);
    }
    n.metrics_snapshot()
}

#[test]
fn mixed_workload_with_faults_conserves_every_packet() {
    let snap = run_mixed_workload(0xFEED);
    assert_eq!(snap.slices.len(), 2);

    // Per slice: rx == forwarded + every drop cause, and the pipeline
    // histogram holds exactly one sample per forwarded packet.
    for s in &snap.slices {
        let d = &s.data;
        assert_eq!(
            d.rx,
            d.forwarded + d.drop_unknown_user + d.drop_gate + d.drop_qos + d.drop_malformed,
            "conservation violated on slice {}: {d:?}",
            s.slice_id
        );
        assert_eq!(s.pipeline_ns.count(), d.forwarded, "slice {}", s.slice_id);
        // The gate rule was installed by `apply_update` directly (no ring
        // hop), so the delay histogram may undercount by that one update.
        assert!(s.update_delay_ns.count() <= d.updates_applied, "slice {}", s.slice_id);
        assert_eq!(s.attach_ns.count(), s.ctrl.attaches, "slice {}", s.slice_id);
    }
    assert!(snap.conservation_holds());

    // The workload actually exercised the taxonomy: all three
    // timing-independent drop causes fired, and most traffic survived.
    let t = snap.data_totals();
    assert!(t.forwarded > 2000, "forwarded {}", t.forwarded);
    assert!(t.drop_unknown_user > 0, "no unknown-user drops");
    assert!(t.drop_gate > 0, "no gate drops");
    assert!(t.drop_malformed > 0, "no malformed drops");
    assert!(snap.render().contains("conservation=ok"));
}

#[test]
fn qos_drops_are_attributed_not_leaked() {
    let mut n = node(1);
    n.attach(1);
    // Throttle user 1 to 8 kbps (1000 B/s, 1500 B burst floor) and flood:
    // the bucket must exhaust and every rejection must land in drop_qos.
    assert!(n.ctrl_event(pepc::ctrl::CtrlEvent::ModifyBearer { imsi: 1, ambr_kbps: 8 }));
    let gw_ip = n.config().gw_ip;
    let (teid, ue_ip) = keys_of(&mut n, 1);
    for _ in 0..500 {
        let _ = n.process(uplink(gw_ip, teid, ue_ip, 80));
    }
    let snap = n.metrics_snapshot();
    let d = &snap.slices[0].data;
    assert_eq!(d.rx, 500);
    assert!(d.drop_qos > 0, "rate limiter never fired: {d:?}");
    assert!(snap.conservation_holds(), "{d:?}");
    assert_eq!(snap.slices[0].pipeline_ns.count(), d.forwarded);
}

#[test]
fn same_seed_runs_produce_identical_snapshots() {
    let a = run_mixed_workload(42);
    let b = run_mixed_workload(42);
    // Counters, drop taxonomy, user counts, histogram populations and
    // ring gauges are a pure function of the seed; only measured latency
    // values (wall clock) may differ.
    assert!(a.deterministic_eq(&b), "same seed diverged:\n{}\nvs\n{}", a.render(), b.render());

    // A different seed takes different fault decisions.
    let c = run_mixed_workload(43);
    assert!(!a.deterministic_eq(&c), "distinct seeds produced identical fault patterns");

    // And the exported form carries the same deterministic content.
    let back = MetricsSnapshot::from_json(&a.to_json()).unwrap();
    assert!(back.deterministic_eq(&a));
}
