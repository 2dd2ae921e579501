// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! Failover blackout kernel: how long a killed node's users stay dark.
//!
//! `kill_to_first_forward` runs the whole recovery sequence per iteration
//! — build a replicated 3-node cluster, kill a node, run coordinator
//! ticks until the detector declares it dead and failover promotes its
//! users, then forward the first packet for a recovered user.
//! `setup_only` is the identical iteration without the kill, so
//! `scripts/bench_failover.py` can subtract it and commit the pure
//! blackout duration (kill → first forwarded packet) to
//! `BENCH_failover.json`. The two single-operation kernels price the HA
//! tax on the hot paths: a control event with synchronous replication,
//! and a full counter-delta tick.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::ctrl::CtrlEvent;
use pepc_ha::{HaCluster, HaConfig};
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};

const NODES: usize = 3;
const USERS: u64 = 64;
const IMSI_BASE: u64 = 404_01_0000000000;

fn uplink(teid: u32, ue_ip: u32) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
    Ipv4Hdr::new(ue_ip, 0x0808_0808, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    m.extend(&hdr);
    encap_gtpu(&mut m, 0xC0A8_0001, 0x0AFE_0001, teid).unwrap();
    m
}

/// Build a replicated cluster with an attached population; returns the
/// victim node (home of the first IMSI) and that user's data-plane keys.
fn build(cfg: HaConfig) -> (HaCluster, usize, u64, (u32, u32)) {
    let template = EpcConfig {
        slices: 2,
        slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..SliceConfig::default() },
        ..EpcConfig::default()
    };
    let mut ha = HaCluster::new(NODES, template, cfg);
    for i in 0..USERS {
        let imsi = IMSI_BASE + i;
        ha.attach(imsi);
        ha.ctrl_event(CtrlEvent::S1Handover {
            imsi,
            new_enb_teid: 0xE000_0000 + (imsi as u32 & 0xFFFF),
            new_enb_ip: 0xC0A8_0001,
        });
    }
    let victim_imsi = IMSI_BASE;
    let victim = ha.owner_of(victim_imsi).unwrap();
    let keys = {
        let node = ha.cluster().node(victim);
        let s = node.slice_of(victim_imsi).unwrap();
        let ctx = node.slice(s).ctrl.context_of(victim_imsi).unwrap();
        let g = ctx.ctrl_read();
        (g.tunnels.gw_teid, g.ue_ip)
    };
    (ha, victim, victim_imsi, keys)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ha_failover");

    // The HA tax on a control event: apply + snapshot + frame + wire pump
    // + standby apply, all synchronous.
    {
        let (mut ha, _, _, _) = build(HaConfig::default());
        let mut i = 0u64;
        g.bench_function("ctrl_event_replicated", |b| {
            b.iter(|| {
                let imsi = IMSI_BASE + (i % USERS);
                i += 1;
                black_box(ha.ctrl_event(CtrlEvent::S1Handover {
                    imsi,
                    new_enb_teid: 0xE100_0000 + (i as u32 & 0xFFFF),
                    new_enb_ip: 0xC0A8_0001,
                }));
            })
        });
    }

    // A full replication tick at counter_interval=1: every user's
    // counters snapshot, frame, cross the wire, and apply to the standby.
    {
        let cfg = HaConfig { counter_interval: 1, ..HaConfig::default() };
        let (mut ha, _, _, _) = build(cfg);
        g.bench_function("counter_delta_tick", |b| {
            b.iter(|| {
                ha.tick();
            })
        });
    }

    // Baseline: cluster construction + population, no failure.
    g.bench_function("setup_only", |b| {
        b.iter(|| {
            let (ha, victim, _, _) = build(HaConfig::default());
            black_box((ha, victim));
        })
    });

    // Full blackout: kill → heartbeats missed → declared dead → users
    // promoted → first packet for a recovered user forwards again.
    g.bench_function("kill_to_first_forward", |b| {
        b.iter(|| {
            let (mut ha, victim, _, (teid, ue_ip)) = build(HaConfig::default());
            let dead_after = HaConfig::default().detector.dead_after;
            ha.kill_node(victim).unwrap();
            for _ in 0..dead_after {
                ha.tick();
            }
            assert_eq!(ha.failovers().len(), 1, "failover must have completed");
            assert!(ha.process(uplink(teid, ue_ip)).is_forward(), "recovered user forwards");
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
