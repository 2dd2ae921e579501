// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! End-to-end chaos test for the HA subsystem (`pepc-ha`): a seeded mixed
//! workload runs against a 3-node replicated cluster, one node is killed
//! mid-run, and the coordinator must recover automatically:
//!
//! * every user attached to the dead node comes back on a survivor with a
//!   `ControlState` identical to the instant of the crash (zero
//!   control-state loss — control events replicate synchronously);
//! * counter staleness is bounded by the replication interval;
//! * packet conservation holds cluster-wide, including the failover
//!   blackout drops;
//! * surviving users' signaling homes never move (Maglev repair is
//!   minimally disruptive);
//! * failover moves the victim's regions, leaving no per-user steering
//!   entry on any survivor;
//! * the whole run is a pure function of its seed (three seeds in CI, and
//!   an identical-seed determinism check).

use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::ctrl::CtrlEvent;
use pepc::{ControlState, MetricsSnapshot};
use pepc_fabric::FaultSpec;
use pepc_ha::{FailoverReport, HaCluster, HaConfig, NodeHealth};
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 3;
const USERS: u64 = 32;
const IMSI_BASE: u64 = 404_01_0000000000;
const ROUNDS: usize = 60;
const KILL_ROUND: usize = 30;
const PACKETS_PER_ROUND: usize = 32;
const COUNTER_INTERVAL: u64 = 8;

fn uplink(teid: u32, ue_ip: u32) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
    Ipv4Hdr::new(ue_ip, 0x0808_0808, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    m.extend(&hdr);
    encap_gtpu(&mut m, 0xC0A8_0001, 0x0AFE_0001, teid).unwrap();
    m
}

fn downlink(ue_ip: u32) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
    Ipv4Hdr::new(0x0808_0808, ue_ip, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    m.extend(&hdr);
    m
}

fn ctrl_state_of(ha: &mut HaCluster, node: usize, imsi: u64) -> Option<ControlState> {
    let n = ha.cluster().node(node);
    let s = n.slice_of(imsi)?;
    let ctx = n.slice(s).ctrl.context_of(imsi)?;
    let state = ctx.ctrl_read().clone();
    Some(state)
}

/// Everything a chaos run produced that must be a pure function of its
/// seed.
struct ChaosOutcome {
    victim: usize,
    victims: Vec<u64>,
    /// `ControlState` of every victim user the instant before the kill.
    ground_truth: Vec<(u64, ControlState)>,
    /// `ControlState` of every victim user right after failover completed.
    adopted: Vec<(u64, ControlState)>,
    /// (imsi, home) of surviving users before and after the repair.
    survivor_homes_before: Vec<(u64, usize)>,
    survivor_homes_after: Vec<(u64, usize)>,
    /// Exception entries each survivor's Demux holds at the end.
    survivor_moved: Vec<usize>,
    report: FailoverReport,
    snap: MetricsSnapshot,
    forwarded: u64,
    offered: u64,
}

fn run_chaos(seed: u64) -> ChaosOutcome {
    let template = EpcConfig {
        slices: 2,
        slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..SliceConfig::default() },
        ..EpcConfig::default()
    };
    // The replication wires run with seeded adjacent reordering: frames
    // arrive shuffled and the standby's sequence numbers must cope.
    let cfg = HaConfig {
        counter_interval: COUNTER_INTERVAL,
        fault: FaultSpec { reorder_chance: 0.05, seed, ..FaultSpec::none() },
        ..HaConfig::default()
    };
    let mut ha = HaCluster::new(NODES, template, cfg);

    let imsis: Vec<u64> = (0..USERS).map(|i| IMSI_BASE + i).collect();
    let mut keys = Vec::with_capacity(imsis.len());
    for &imsi in &imsis {
        ha.attach(imsi);
        assert!(ha.ctrl_event(CtrlEvent::S1Handover {
            imsi,
            new_enb_teid: 0xE000_0000 + (imsi as u32 & 0xFFFF),
            new_enb_ip: 0xC0A8_0001,
        }));
        let node = ha.owner_of(imsi).unwrap();
        let state = ctrl_state_of(&mut ha, node, imsi).unwrap();
        keys.push((state.tunnels.gw_teid, state.ue_ip));
    }

    let victim = ha.owner_of(imsis[0]).unwrap();
    let victims: Vec<u64> = imsis.iter().copied().filter(|&i| ha.owner_of(i) == Some(victim)).collect();
    let survivors: Vec<u64> = imsis.iter().copied().filter(|&i| ha.owner_of(i) != Some(victim)).collect();
    assert!(victims.len() >= 4, "victim node too empty to be interesting: {}", victims.len());

    let mut rng = StdRng::seed_from_u64(seed ^ 0x000C_4A05);
    let mut ground_truth = Vec::new();
    let mut adopted = Vec::new();
    let survivor_homes_before: Vec<(u64, usize)> = survivors.iter().map(|&i| (i, ha.owner_of(i).unwrap())).collect();
    let mut offered = 0u64;
    let mut forwarded = 0u64;

    for round in 0..ROUNDS {
        // One signaling event per round, on a random user. Events for
        // users in the blackout window are rejected — that's the point.
        let imsi = imsis[rng.gen_range(0..imsis.len())];
        let ev = if rng.gen_bool(0.5) {
            CtrlEvent::ModifyBearer { imsi, ambr_kbps: 100_000 + rng.gen_range(0..1000) }
        } else {
            CtrlEvent::S1Handover {
                imsi,
                new_enb_teid: 0xE100_0000 + rng.gen_range(0..0xFFFF),
                new_enb_ip: 0xC0A8_0001,
            }
        };
        let _ = ha.ctrl_event(ev);

        if round == KILL_ROUND {
            for &imsi in &victims {
                ground_truth.push((imsi, ctrl_state_of(&mut ha, victim, imsi).unwrap()));
            }
            ha.kill_node(victim).unwrap();
        }

        for _ in 0..PACKETS_PER_ROUND {
            let (teid, ue_ip) = keys[rng.gen_range(0..keys.len())];
            let m = if rng.gen_bool(0.5) { uplink(teid, ue_ip) } else { downlink(ue_ip) };
            offered += 1;
            if ha.process(m).is_forward() {
                forwarded += 1;
            }
        }

        ha.tick();
        if ha.failovers().len() == 1 && adopted.is_empty() {
            // Failover just completed: capture the adopted states before
            // post-recovery signaling mutates them again.
            for &imsi in &victims {
                let node = ha.owner_of(imsi).unwrap();
                adopted.push((imsi, ctrl_state_of(&mut ha, node, imsi).unwrap()));
            }
        }
    }

    assert_eq!(ha.health(victim), NodeHealth::Dead);
    assert_eq!(ha.failovers().len(), 1, "exactly one failover");
    let report = ha.failovers()[0];
    let survivor_homes_after: Vec<(u64, usize)> = survivors.iter().map(|&i| (i, ha.owner_of(i).unwrap())).collect();
    let survivor_moved =
        (0..NODES).filter(|&k| k != victim).map(|k| ha.cluster_ref().node_ref(k).demux().moved_count()).collect();
    let snap = ha.metrics_snapshot();
    ChaosOutcome {
        victim,
        victims,
        ground_truth,
        adopted,
        survivor_homes_before,
        survivor_homes_after,
        survivor_moved,
        report,
        snap,
        forwarded,
        offered,
    }
}

fn assert_chaos_invariants(seed: u64) {
    let o = run_chaos(seed);

    // The failover happened, for the right node, recovering every user.
    assert_eq!(o.report.node, o.victim);
    assert_eq!(o.report.users_recovered, o.victims.len(), "seed {seed}: user lost in failover");

    // Zero control-state loss: each adopted state is byte-identical to
    // the state on the node the instant it died.
    assert_eq!(o.adopted.len(), o.victims.len(), "seed {seed}: adoption snapshot incomplete");
    for ((imsi_a, truth), (imsi_b, got)) in o.ground_truth.iter().zip(&o.adopted) {
        assert_eq!(imsi_a, imsi_b);
        assert_eq!(truth, got, "seed {seed}: imsi {imsi_a} control state diverged");
    }

    // Charging loss is bounded by the replication interval.
    assert!(
        o.report.max_counter_staleness <= COUNTER_INTERVAL,
        "seed {seed}: staleness {} > interval {COUNTER_INTERVAL}",
        o.report.max_counter_staleness
    );

    // Maglev repair was minimally disruptive: no surviving user's
    // signaling home moved.
    assert_eq!(o.survivor_homes_before, o.survivor_homes_after, "seed {seed}: survivors moved");

    // Failover adopted the victim's regions, not its users: with no
    // migration before the kill, no survivor holds an exception entry.
    assert_eq!(o.survivor_moved, [0, 0], "seed {seed}: per-user steering entries after failover");

    // Packet conservation holds cluster-wide, blackout included, and the
    // blackout was actually exercised.
    assert!(o.snap.conservation_holds(), "seed {seed}: conservation violated");
    let totals = o.snap.data_totals();
    assert!(totals.drop_failover > 0, "seed {seed}: no blackout traffic seen");
    assert_eq!(totals.rx, totals.forwarded + totals.drops_total(), "seed {seed}: drop taxonomy leak");
    assert_eq!(o.offered, totals.rx, "seed {seed}: offered packets unaccounted");
    // Traffic flowed again after recovery: the blackout ate less than the
    // post-recovery tail delivered.
    assert!(o.forwarded > o.offered * 6 / 10, "seed {seed}: forwarded {} of {}", o.forwarded, o.offered);
    // Replication wires carried frames; reordering fired somewhere.
    assert_eq!(o.snap.wires.len(), NODES);
    assert!(o.snap.wires.iter().all(|w| w.forwarded > 0));
}

#[test]
fn chaos_failover_seed_1() {
    assert_chaos_invariants(1);
}

#[test]
fn chaos_failover_seed_2() {
    assert_chaos_invariants(2);
}

#[test]
fn chaos_failover_seed_3() {
    assert_chaos_invariants(3);
}

#[test]
fn identical_seeds_are_deterministic() {
    let a = run_chaos(7);
    let b = run_chaos(7);
    assert_eq!(a.victim, b.victim);
    assert_eq!(a.victims, b.victims);
    assert_eq!(a.report, b.report);
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.forwarded, b.forwarded);
    assert!(a.snap.deterministic_eq(&b.snap), "same seed diverged:\n{}\nvs\n{}", a.snap.render(), b.snap.render());
    for (x, y) in a.adopted.iter().zip(&b.adopted) {
        assert_eq!(x, y);
    }
}
