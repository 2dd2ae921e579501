// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! Differential test: the burst data path must be observationally
//! identical to the scalar path — same per-packet verdicts, same
//! per-user counters, same drop taxonomy, same histogram populations,
//! same two-level table churn — on seeded mixed workloads.
//!
//! Two identically-configured [`DataPlane`]s process the same packet
//! stream: one packet at a time vs in random-size bursts, with matching
//! `now_ns` per burst so token-bucket arithmetic is deterministic.

use pepc::config::{IotConfig, TwoLevelConfig};
use pepc::data::{DataPlane, DpUpdate, DropReason, PacketVerdict};
use pepc::pcef::PcefAction;
use pepc::state::{ControlState, CounterState, QosPolicy, TunnelState};
use pepc::{UeHandle, UeSlab};
use pepc_net::bpf::{BpfProgram, Field, Insn};
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const GW_IP: u32 = 0x0AFE_0001;
const ENB_IP: u32 = 0xC0A8_0001;
const UE_IP_BASE: u32 = 0x0A00_0001;
const TEID_BASE: u32 = 0x1000;
const IOT_TEID_BASE: u32 = 0xF000_0000;
const IOT_IP_BASE: u32 = 0x6400_0000;
const USERS: u32 = 24;

/// Per-user flavour of the seeded population.
#[derive(Clone, Copy, PartialEq)]
enum Flavour {
    /// No PCEF rules, unlimited AMBR: the rule-less fast path.
    Plain,
    /// Tight AMBR, so some packets rate-drop.
    RateLimited,
    /// A gate-closed rule on DNS, so port-53 packets gate-drop.
    Gated,
}

fn flavour(u: u32) -> Flavour {
    match u % 3 {
        0 => Flavour::Plain,
        1 => Flavour::RateLimited,
        _ => Flavour::Gated,
    }
}

fn counters_of(slab: &UeSlab, h: UeHandle) -> CounterState {
    slab.resolve(h).expect("live handle").counters()
}

/// The DNS gate rule every plane installs.
const GATE: u16 = 1;

fn install(dp: &mut DataPlane, id: u16, program: BpfProgram, action: PcefAction) {
    dp.apply_update(DpUpdate::InstallRule { id, program, action }, 0);
}

fn build_plane() -> (DataPlane, Vec<UeHandle>) {
    // Half the users start demoted so bursts exercise promotions.
    build_plane_with(256, USERS, |u| u % 2 == 0)
}

/// A plane pre-sized for `expected_users` holding `users` seeded users,
/// each indexed active (primary table) or idle (secondary) per `active`.
fn build_plane_with(expected_users: usize, users: u32, active: impl Fn(u32) -> bool) -> (DataPlane, Vec<UeHandle>) {
    let iot = IotConfig { enabled: true, teid_base: IOT_TEID_BASE, ip_base: IOT_IP_BASE, pool_size: 64 };
    let mut dp = DataPlane::new(GW_IP, expected_users, TwoLevelConfig::default(), iot);
    install(
        &mut dp,
        GATE,
        BpfProgram::match_dst_port(53, 1),
        PcefAction { gate_closed: true, ..PcefAction::default() },
    );
    let handles = (0..users).map(|u| insert_user(&mut dp, u, active(u), 0)).collect();
    (dp, handles)
}

/// Allocate seeded user `u` (its flavour follows [`flavour`]) and index it
/// active or idle.
fn insert_user(dp: &mut DataPlane, u: u32, active: bool, now: u64) -> UeHandle {
    let ambr = if flavour(u) == Flavour::RateLimited { 8 } else { 0 };
    let rules: &[u16] = if flavour(u) == Flavour::Gated { &[GATE] } else { &[] };
    insert_user_with(dp, u, ambr, rules, active, now)
}

/// Allocate user `u` with the given AMBR and PCEF rule list.
fn insert_user_with(dp: &mut DataPlane, u: u32, ambr_kbps: u32, rules: &[u16], active: bool, now: u64) -> UeHandle {
    let mut ctrl = ControlState::new(404_01_0000000000 + u64::from(u));
    ctrl.ue_ip = UE_IP_BASE + u;
    ctrl.qos = QosPolicy { qci: 9, ambr_kbps, gbr_kbps: 0 };
    ctrl.tunnels = TunnelState { enb_teid: 0xE000 + u, enb_ip: ENB_IP, gw_teid: TEID_BASE + u };
    for &id in rules {
        ctrl.pcef_rules.push(id);
    }
    let handle = dp.slab().alloc(ctrl, CounterState::default()).unwrap();
    dp.apply_update(DpUpdate::Insert { gw_teid: TEID_BASE + u, ue_ip: UE_IP_BASE + u, handle, active }, now);
    handle
}

fn inner_udp(src: u32, dst: u32, dst_port: u16, payload_len: usize) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(src, dst, IpProto::Udp, UDP_HDR_LEN + payload_len).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(40_000, dst_port, payload_len).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&vec![0xAB; payload_len]);
    m
}

fn uplink(teid: u32, src: u32, dst_port: u16) -> Mbuf {
    let mut m = inner_udp(src, 0x0808_0808, dst_port, 64);
    encap_gtpu(&mut m, ENB_IP, GW_IP, teid).unwrap();
    m
}

/// One seeded packet of the mixed workload: known uplink/downlink (with
/// same-user repeats so runs form), gated ports, IoT pool, unknown keys,
/// and malformed frames.
fn next_packet(rng: &mut rand::rngs::StdRng, sticky_user: &mut u32) -> Mbuf {
    // Re-use the previous user 50% of the time so same-user runs form
    // inside bursts (the case group coalescing optimizes).
    if rng.gen_range(0..2) == 0 {
        *sticky_user = rng.gen_range(0..USERS);
    }
    let u = *sticky_user;
    let dst_port = if rng.gen_range(0..3) == 0 { 53 } else { 443 };
    match rng.gen_range(0..10) {
        // Known uplink (the bulk).
        0..=3 => uplink(TEID_BASE + u, UE_IP_BASE + u, dst_port),
        // Known downlink.
        4..=6 => inner_udp(0x0808_0808, UE_IP_BASE + u, dst_port, 48),
        // IoT pool, both directions.
        7 => uplink(IOT_TEID_BASE + (u % 64), IOT_IP_BASE + (u % 64), dst_port),
        8 => inner_udp(0x0808_0808, IOT_IP_BASE + (u % 64), dst_port, 32),
        // Unknown key or malformed frame.
        _ => {
            if rng.gen_range(0..2) == 0 {
                uplink(0x00DE_AD00 + u, UE_IP_BASE, dst_port)
            } else {
                Mbuf::from_payload(&[0xFF; 40])
            }
        }
    }
}

fn verdict_kind(v: &PacketVerdict) -> (u8, Option<DropReason>, usize) {
    match v {
        PacketVerdict::Forward(m) => (0, None, m.len()),
        PacketVerdict::Drop(r) => (1, Some(*r), 0),
        PacketVerdict::Buffered => (2, None, 0),
    }
}

/// Feed `packets` to `burst_dp` as one burst and byte-identical copies to
/// `scalar` one at a time, both at `now`; the verdicts must agree.
fn run_both(scalar: &mut DataPlane, burst_dp: &mut DataPlane, packets: Vec<Mbuf>, now: u64, what: &str) {
    let copies: Vec<Mbuf> = packets.iter().map(|m| Mbuf::from_payload(m.data())).collect();
    let mut burst_in = packets;
    let mut burst_out = Vec::new();
    burst_dp.process_burst_into(&mut burst_in, now, &mut burst_out);
    let scalar_out: Vec<PacketVerdict> = copies.into_iter().map(|m| scalar.process(m, now)).collect();
    assert_eq!(burst_out.len(), scalar_out.len());
    for (k, (b, s)) in burst_out.iter().zip(&scalar_out).enumerate() {
        assert_eq!(verdict_kind(b), verdict_kind(s), "{what} packet {k} of {}", scalar_out.len());
    }
}

/// Everything the two planes expose must be equal: drop taxonomy, IoT
/// aggregates, two-level churn, histogram population, idle-mode side
/// state, and every user's counters (a handle stale on one side must be
/// stale on the other).
fn assert_planes_equal(scalar: &DataPlane, burst_dp: &DataPlane, handles: (&[UeHandle], &[UeHandle]), what: &str) {
    assert_eq!(scalar.metrics(), burst_dp.metrics(), "{what}: drop taxonomy diverged");
    assert_eq!((scalar.iot_packets, scalar.iot_bytes), (burst_dp.iot_packets, burst_dp.iot_bytes), "{what}");
    assert_eq!(scalar.table_stats(), burst_dp.table_stats(), "{what}: table churn diverged");
    assert_eq!(scalar.primary_count(), burst_dp.primary_count(), "{what}: primary occupancy diverged");
    assert_eq!(scalar.pipeline_latency().count(), scalar.metrics().forwarded, "{what}");
    assert_eq!(burst_dp.pipeline_latency().count(), burst_dp.metrics().forwarded, "{what}: histogram population");
    assert_eq!(scalar.idle_buffered_report(), burst_dp.idle_buffered_report(), "{what}: idle buffers diverged");
    for (u, (a, b)) in handles.0.iter().zip(handles.1).enumerate() {
        let counters = |dp: &DataPlane, h: UeHandle| dp.slab().resolve(h).map(|r| r.counters());
        assert_eq!(counters(scalar, *a), counters(burst_dp, *b), "{what}: user {u} counters diverged");
    }
}

#[test]
fn burst_path_is_observationally_identical_to_scalar() {
    for seed in [7u64, 42, 1234] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (mut scalar, scalar_ctxs) = build_plane();
        let (mut burst_dp, burst_ctxs) = build_plane();

        let mut sticky = 0u32;
        let mut now = 1_000u64;
        for _round in 0..200 {
            let burst_size = rng.gen_range(1..49);
            // Advance time between bursts so token buckets refill and
            // idle eviction timing matters; within a burst both paths
            // see one `now`, matching the one-clock-read design.
            now += rng.gen_range(0..2_000_000);
            let packets: Vec<Mbuf> = (0..burst_size).map(|_| next_packet(&mut rng, &mut sticky)).collect();
            run_both(&mut scalar, &mut burst_dp, packets, now, &format!("seed {seed}"));
        }
        assert_planes_equal(&scalar, &burst_dp, (&scalar_ctxs, &burst_ctxs), &format!("seed {seed}"));
    }
}

#[test]
fn burst_path_identical_under_concurrent_view_republish() {
    // Seqlock-path variant of the differential: while the burst plane
    // processes, a concurrent "control thread" keeps republishing each
    // user's view with unchanged values (a field written to itself goes
    // through the publishing write guard). Data-path reads race real
    // seqlock publish windows — retries happen — but since the values
    // never change, verdicts, metrics, and per-user counters must stay
    // byte-identical to the undisturbed scalar plane.
    use std::sync::atomic::{AtomicBool, Ordering};
    for seed in [7u64, 42, 1234] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (mut scalar, scalar_ctxs) = build_plane();
        let (mut burst_dp, burst_ctxs) = build_plane();

        let stop = Arc::new(AtomicBool::new(false));
        let republisher = {
            let slab = Arc::clone(burst_dp.slab());
            let handles = burst_ctxs.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for h in &handles {
                        // Dropping the guard republishes the (identical)
                        // view, cycling the sequence odd→even under the
                        // data path's feet.
                        drop(slab.resolve(*h).expect("live handle").ctrl_write());
                    }
                    rounds += 1;
                    std::thread::yield_now();
                }
                rounds
            })
        };

        let mut sticky = 0u32;
        let mut now = 1_000u64;
        for _round in 0..200 {
            let burst_size = rng.gen_range(1..49);
            now += rng.gen_range(0..2_000_000);
            let packets: Vec<Mbuf> = (0..burst_size).map(|_| next_packet(&mut rng, &mut sticky)).collect();
            run_both(&mut scalar, &mut burst_dp, packets, now, &format!("seed {seed}"));
        }

        stop.store(true, Ordering::Relaxed);
        assert!(republisher.join().expect("republisher") > 0, "republisher made progress");

        assert_planes_equal(&scalar, &burst_dp, (&scalar_ctxs, &burst_ctxs), &format!("seed {seed}"));
    }
}

#[test]
fn scalar_process_is_the_burst_size_one_case() {
    // Driving process_burst with singleton bursts must equal process().
    let (mut a, a_ctxs) = build_plane();
    let (mut b, b_ctxs) = build_plane();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut sticky = 0u32;
    for i in 0..500u64 {
        let now = 1_000 + i * 10_000;
        let m = next_packet(&mut rng, &mut sticky);
        let copy = Mbuf::from_payload(m.data());
        let va = a.process(m, now);
        let mut vb = Vec::new();
        b.process_burst_into(&mut vec![copy], now, &mut vb);
        assert_eq!(verdict_kind(&va), verdict_kind(&vb[0]), "packet {i}");
    }
    assert_eq!(a.metrics(), b.metrics());
    for (x, y) in a_ctxs.iter().zip(&b_ctxs) {
        assert_eq!(counters_of(a.slab(), *x), counters_of(b.slab(), *y));
    }
}

/// Burst sizes on either side of the plane's internal lookup tile (32
/// at the time of writing) and one spanning several tiles. Fixed on
/// purpose: the random sizes after them cover whatever the tile becomes.
const EDGE_SIZES: [usize; 6] = [1, 2, 31, 32, 33, 128];
const EDGE_USERS: u32 = 400;
/// Users `0..SUSPENDED` are suspended (idle, context retained).
const SUSPENDED: u32 = 8;
/// The next `STALE` users' slots are freed behind the tables' backs.
const STALE: u32 = 4;

/// A plane for what a *staged* lookup can get wrong: a small primary and
/// every user inserted idle (so promotions grow and relocate the primary
/// between a burst's hint stage and its probe stage), some users
/// suspended, and some table entries left holding dead handles — two
/// merely freed, two whose slot already serves another tenant. Returns
/// the users' handles and those other tenants'.
fn build_edge_plane() -> (DataPlane, Vec<UeHandle>, Vec<UeHandle>) {
    let (mut dp, handles) = build_plane_with(16, EDGE_USERS, |_| false);
    for u in 0..SUSPENDED {
        let imsi = 404_01_0000000000 + u64::from(u);
        dp.apply_update(DpUpdate::Suspend { gw_teid: TEID_BASE + u, ue_ip: UE_IP_BASE + u, imsi }, 0);
    }
    let mut tenants = Vec::new();
    // Reuse is FIFO: each even slot is re-tenanted before the odd ones
    // join the free queue.
    let (even, odd): (Vec<u32>, Vec<u32>) = (SUSPENDED..SUSPENDED + STALE).partition(|u| u % 2 == 0);
    for u in even {
        assert!(dp.slab().free(handles[u as usize]));
        let tenant = dp.slab().alloc(ControlState::new(999_000 + u64::from(u)), CounterState::default()).unwrap();
        assert_eq!(tenant.index(), handles[u as usize].index(), "slot reused under the stale table entry");
        tenants.push(tenant);
    }
    for u in odd {
        assert!(dp.slab().free(handles[u as usize]));
    }
    (dp, handles, tenants)
}

/// One burst of the edge workload. A third of the packets rotate through
/// three users (the same user at non-adjacent positions), a fifth repeat
/// the previous user (adjacent runs), the rest pick any user — live,
/// suspended or stale — an unknown key, or a malformed frame.
fn edge_burst(rng: &mut rand::rngs::StdRng, size: usize, users: std::ops::Range<u32>) -> Vec<Mbuf> {
    let rotation = [(); 3].map(|()| rng.gen_range(users.clone()));
    let mut prev = rotation[0];
    (0..size)
        .map(|k| {
            let u = match rng.gen_range(0..15) {
                0..=4 => rotation[k % 3],
                5..=7 => prev,
                8..=12 => rng.gen_range(users.clone()),
                13 => return uplink(0x00DE_AD00 + k as u32, UE_IP_BASE, 443),
                _ => return Mbuf::from_payload(&[0xFF; 40]),
            };
            prev = u;
            if rng.gen_range(0..2) == 0 {
                uplink(TEID_BASE + u, UE_IP_BASE + u, 443)
            } else {
                inner_udp(0x0808_0808, UE_IP_BASE + u, 443, 48)
            }
        })
        .collect()
}

#[test]
fn staged_lookup_edge_cases_match_scalar() {
    for seed in [3u64, 99] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (mut scalar, scalar_ctxs, scalar_tenants) = build_edge_plane();
        let (mut burst_dp, burst_ctxs, burst_tenants) = build_edge_plane();
        let what = format!("seed {seed}");

        // Every burst size around the tile boundary, then random ones.
        let mut now = 1_000u64;
        for round in 0..60 {
            let size = EDGE_SIZES.get(round).copied().unwrap_or_else(|| rng.gen_range(1..129));
            now += rng.gen_range(0..2_000_000);
            let packets = edge_burst(&mut rng, size, 0..EDGE_USERS);
            run_both(&mut scalar, &mut burst_dp, packets, now, &format!("{what} round {round}"));
            assert_eq!(scalar.take_paging_events(), burst_dp.take_paging_events(), "{what} round {round}");
        }
        assert_planes_equal(&scalar, &burst_dp, (&scalar_ctxs, &burst_ctxs), &what);
        let m = burst_dp.metrics();
        assert!(burst_dp.table_stats().promotions > 100, "{what}: promotions happened inside bursts");
        assert!(burst_dp.primary_count() > 24, "{what}: the primary grew past its first resize mid-burst");
        assert!(m.idle_buffered > 0 && m.drop_idle_overflow > 0 && m.drop_idle_uplink > 0, "{what}: {m:?}");
        assert!(m.drop_unknown_user > 0 && m.drop_malformed > 0 && m.forwarded > 0, "{what}: {m:?}");
        for t in scalar_tenants.iter().zip(&burst_tenants) {
            let untouched = CounterState::default();
            assert_eq!(counters_of(scalar.slab(), *t.0), untouched, "{what}: stale key charged the slot's new tenant");
            assert_eq!(
                counters_of(burst_dp.slab(), *t.1),
                untouched,
                "{what}: stale key charged the slot's new tenant"
            );
        }

        // A burst that starts, runs and ends with a lookup index mid-
        // resize: settle both planes, attach fresh active users until an
        // insert begins a grow, then look up only those (primary hits
        // mutate nothing, so the drain cannot advance under the burst).
        let [fresh, burst_fresh] = [&mut scalar, &mut burst_dp].map(|dp| {
            while dp.tables_migrating() {
                dp.maintain_tables();
            }
            let mut fresh = EDGE_USERS;
            while !dp.tables_migrating() {
                insert_user(dp, fresh, true, now);
                fresh += 1;
            }
            fresh
        });
        assert_eq!(fresh, burst_fresh, "{what}: identical planes begin the grow at the same insert");
        assert!(fresh > EDGE_USERS + 3, "{what}: a few fresh users to look up");
        let packets = edge_burst(&mut rng, 128, EDGE_USERS..fresh);
        run_both(&mut scalar, &mut burst_dp, packets, now + 1, &format!("{what} mid-resize"));
        assert!(scalar.tables_migrating() && burst_dp.tables_migrating(), "{what}: still mid-resize after the burst");
        assert_planes_equal(&scalar, &burst_dp, (&scalar_ctxs, &burst_ctxs), &format!("{what} mid-resize"));
    }
}

const RULE_USERS: u32 = 12;
/// Rule ids of the rule-carrying population, beside [`GATE`]. `NEVER` is
/// listed by users and installed by nobody.
const MBR: u16 = 2;
const CATCH_ALL: u16 = 3;
const SRC_PORT: u16 = 700;
const NEVER: u16 = 9;

/// A plane whose users all carry rules, in four list shapes: the PCRF's
/// order behind an uninstalled id, the MBR rule listed twice ahead of the
/// gate, the catch-all first (so it shadows the gate), and a program of no
/// constructor's shape (interpreted) ahead of an id beyond the table.
/// Every user's AMBR is loose; only the MBR rule's 8 kbps can rate-drop.
fn build_rule_plane() -> (DataPlane, Vec<UeHandle>) {
    let (mut dp, _) = build_plane_with(64, 0, |_| true);
    let open = PcefAction::default();
    install(&mut dp, MBR, BpfProgram::match_proto_port_range(17, 443, 444, 2), PcefAction { rate_kbps: 8, ..open });
    install(&mut dp, CATCH_ALL, BpfProgram::match_all(3), open);
    let from_port_40000 = vec![
        Insn::Ld(Field::SrcPort),
        Insn::JmpEq { k: 40_000, jt: 1, jf: 0 },
        Insn::Ret(0),
        Insn::Ld(Field::DstPort),
        Insn::JmpGe { k: 100, jt: 0, jf: 1 },
        Insn::Ret(0),
        Insn::Ret(7),
    ];
    // Source port 40 000 (every packet here) to a port below 100: gated.
    install(&mut dp, SRC_PORT, BpfProgram::new(from_port_40000).unwrap(), PcefAction { gate_closed: true, ..open });
    let lists: [&[u16]; 4] =
        [&[NEVER, GATE, MBR, CATCH_ALL], &[MBR, MBR, GATE], &[CATCH_ALL, GATE, MBR], &[SRC_PORT, u16::MAX, MBR]];
    let handles =
        (0..RULE_USERS).map(|u| insert_user_with(&mut dp, u, 100_000, lists[u as usize % 4], true, 0)).collect();
    (dp, handles)
}

/// Uplink or downlink for a rule-carrying user, to DNS, HTTP or HTTPS.
fn rule_packet(rng: &mut rand::rngs::StdRng, sticky_user: &mut u32) -> Mbuf {
    if rng.gen_range(0..2) == 0 {
        *sticky_user = rng.gen_range(0..RULE_USERS);
    }
    let u = *sticky_user;
    let dst_port = [53, 80, 443][rng.gen_range(0..3)];
    if rng.gen_range(0..2) == 0 {
        uplink(TEID_BASE + u, UE_IP_BASE + u, dst_port)
    } else {
        inner_udp(0x0808_0808, UE_IP_BASE + u, dst_port, 48)
    }
}

#[test]
fn rule_carrying_users_match_scalar_across_a_rule_replacement() {
    for seed in [11u64, 2024] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (mut scalar, scalar_ctxs) = build_rule_plane();
        let (mut burst_dp, burst_ctxs) = build_rule_plane();
        let mut sticky = 0u32;
        let mut now = 1_000u64;
        let mut rounds = |scalar: &mut DataPlane, burst_dp: &mut DataPlane, what: &str| {
            for round in 0..120 {
                now += rng.gen_range(0..200_000);
                let packets: Vec<Mbuf> =
                    (0..rng.gen_range(1..49)).map(|_| rule_packet(&mut rng, &mut sticky)).collect();
                run_both(scalar, burst_dp, packets, now, &format!("seed {seed} {what} round {round}"));
            }
        };

        rounds(&mut scalar, &mut burst_dp, "before");
        assert_planes_equal(&scalar, &burst_dp, (&scalar_ctxs, &burst_ctxs), &format!("seed {seed} before"));
        let before = burst_dp.metrics();
        assert!(before.drop_gate > 0, "the DNS gate and the interpreted gate dropped: {before:?}");
        assert!(before.drop_qos > 0, "the 8 kbps MBR under a 100 Mbps AMBR rate-dropped: {before:?}");
        assert!(before.forwarded > 0 && before.drop_unknown_user == 0, "{before:?}");

        // Between two bursts the MBR rule is replaced by an open, unlimited
        // rule: from here on nothing can rate-drop.
        for dp in [&mut scalar, &mut burst_dp] {
            install(dp, MBR, BpfProgram::match_dst_port(443, 2), PcefAction::default());
        }
        rounds(&mut scalar, &mut burst_dp, "after");
        assert_planes_equal(&scalar, &burst_dp, (&scalar_ctxs, &burst_ctxs), &format!("seed {seed} after"));
        let after = burst_dp.metrics();
        assert_eq!(after.drop_qos, before.drop_qos, "the replaced rule no longer limits");
        assert!(after.drop_gate > before.drop_gate && after.forwarded > before.forwarded, "{after:?}");
    }
}

// ---------------------------------------------------------------------------
// One index ≡ two tables
// ---------------------------------------------------------------------------

/// Users of the index-equivalence property (slots; each has fixed keys
/// per key class, so live keys are unique).
const MODEL_USERS: u32 = 8;

/// Where a user's identifiers come from, relative to the plane's
/// allocation bases (`TEID_BASE`, `UE_IP_BASE`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyClass {
    /// TEID and UE IP at one region offset: one index entry.
    Native,
    /// Both in the region, at different offsets (a restored or
    /// inconsistent record): two tagged entries, found by the fallback.
    Mismatched,
    /// Outside the region (migrated in, HA-adopted): two tagged entries.
    Foreign,
}

/// `(TEID, UE IP)` of user slot `u` in class `c`; distinct across slots
/// and classes.
fn model_keys(u: u32, c: KeyClass) -> (u32, u32) {
    match c {
        KeyClass::Native => (TEID_BASE + u, UE_IP_BASE + u),
        KeyClass::Mismatched => (TEID_BASE + 64 + u, UE_IP_BASE + 64 + (u + 1) % MODEL_USERS),
        KeyClass::Foreign => (TEID_BASE + (1 << 24) + u, UE_IP_BASE + (3 << 24) + u),
    }
}

#[derive(Debug, Clone)]
enum ModelOp {
    /// Attach, restore over a live user (fresh handle), or wake a
    /// suspended one (its handle). A resident keeps its class.
    Insert {
        u: u32,
        class: KeyClass,
        active: bool,
    },
    Remove {
        u: u32,
        class: KeyClass,
    },
    Suspend {
        u: u32,
    },
    /// Paging gave up on the `u`-th suspended resident (mod their count):
    /// drop what its keys parked. It stays idle. With nobody suspended,
    /// user `u`'s native keys.
    DropIdleBuffer {
        u: u32,
    },
    /// Restore over the `u`-th suspended resident: its keys, a fresh
    /// handle. A no-op with nobody suspended.
    Restore {
        u: u32,
        active: bool,
    },
    Demote {
        u: u32,
        class: KeyClass,
    },
    Evict,
    /// `(user, pick, uplink)`: `pick < 3` addresses a resident by its own
    /// keys, otherwise the keys of class `pick − 3`.
    Burst(Vec<(u32, u8, bool)>),
}

fn model_op() -> impl Strategy<Value = ModelOp> {
    let class = || prop_oneof![Just(KeyClass::Native), Just(KeyClass::Mismatched), Just(KeyClass::Foreign)];
    prop_oneof![
        (0..MODEL_USERS, class(), any::<bool>()).prop_map(|(u, class, active)| ModelOp::Insert { u, class, active }),
        (0..MODEL_USERS, class()).prop_map(|(u, class)| ModelOp::Remove { u, class }),
        (0..MODEL_USERS).prop_map(|u| ModelOp::Suspend { u }),
        (0..MODEL_USERS).prop_map(|u| ModelOp::DropIdleBuffer { u }),
        (0..MODEL_USERS, any::<bool>()).prop_map(|(u, active)| ModelOp::Restore { u, active }),
        (0..MODEL_USERS, class()).prop_map(|(u, class)| ModelOp::Demote { u, class }),
        Just(ModelOp::Evict),
        proptest::collection::vec((0..MODEL_USERS, 0u8..6, any::<bool>()), 1..12).prop_map(ModelOp::Burst),
    ]
}

/// The reference: the data plane as it was, one map per direction, plus
/// the parked (suspended) users and the metrics it would count.
#[derive(Default)]
struct TwoTables {
    by_teid: HashMap<u32, UeHandle>,
    by_ip: HashMap<u32, UeHandle>,
    /// Suspended users: UE IP → (TEID, buffered downlink).
    parked: HashMap<u32, (u32, u64)>,
    /// Forwarded packets per handle, `(uplink, downlink)`.
    charged: HashMap<UeHandle, (u64, u64)>,
    metrics: pepc::metrics::DataMetrics,
}

impl TwoTables {
    fn insert(&mut self, teid: u32, ip: u32, h: UeHandle) {
        self.metrics.updates_applied += 1;
        if let Some((_, buf)) = self.parked.remove(&ip) {
            self.metrics.forwarded += buf;
            self.metrics.forwarded_on_wake += buf;
            self.metrics.idle_buffered -= buf;
        }
        self.by_teid.insert(teid, h);
        self.by_ip.insert(ip, h);
    }

    fn remove(&mut self, teid: u32, ip: u32) {
        self.metrics.updates_applied += 1;
        if let Some((_, buf)) = self.parked.remove(&ip) {
            self.metrics.drop_idle_expired += buf;
            self.metrics.idle_buffered -= buf;
        }
        self.by_teid.remove(&teid);
        self.by_ip.remove(&ip);
    }

    fn suspend(&mut self, teid: u32, ip: u32) {
        self.metrics.updates_applied += 1;
        let (a, b) = (self.by_teid.remove(&teid), self.by_ip.remove(&ip));
        if a.or(b).is_some() {
            self.parked.insert(ip, (teid, 0));
        }
    }

    fn drop_idle_buffer(&mut self, ip: u32) {
        self.metrics.updates_applied += 1;
        if let Some((_, buf)) = self.parked.get_mut(&ip) {
            self.metrics.drop_idle_expired += *buf;
            self.metrics.idle_buffered -= *buf;
            *buf = 0;
        }
    }

    fn packet(&mut self, uplink: bool, id: u32) -> (u8, Option<DropReason>) {
        let m = &mut self.metrics;
        m.rx += 1;
        let hit = if uplink { self.by_teid.get(&id) } else { self.by_ip.get(&id) };
        if let Some(h) = hit {
            m.forwarded += 1;
            let c = self.charged.entry(*h).or_default();
            if uplink {
                c.0 += 1
            } else {
                c.1 += 1
            }
            return (0, None);
        }
        if uplink {
            if self.parked.values().any(|&(t, _)| t == id) {
                m.drop_idle_uplink += 1;
                return (1, Some(DropReason::IdleUplink));
            }
        } else if let Some((_, buf)) = self.parked.get_mut(&id) {
            if *buf < pepc::data::IDLE_BUF_CAP as u64 {
                *buf += 1;
                m.idle_buffered += 1;
                return (2, None);
            }
            m.drop_idle_overflow += 1;
            return (1, Some(DropReason::IdleOverflow));
        }
        m.drop_unknown_user += 1;
        (1, Some(DropReason::UnknownUser))
    }
}

/// A resident (indexed or suspended) user slot.
struct Resident {
    class: KeyClass,
    handle: UeHandle,
    suspended: bool,
}

/// The `u`-th suspended resident, counting in user order and wrapping.
fn nth_suspended(residents: &HashMap<u32, Resident>, u: u32) -> Option<u32> {
    let mut idle: Vec<u32> = residents.iter().filter(|(_, r)| r.suspended).map(|(&v, _)| v).collect();
    idle.sort_unstable();
    idle.get(u as usize % idle.len().max(1)).copied()
}

/// Run `ops` through a plane built with the allocation bases and through
/// the two-map model; every observable must agree after every op.
fn check_one_index_against_two_tables(ops: Vec<ModelOp>) -> Result<(), TestCaseError> {
    let two_level = TwoLevelConfig { enabled: true, idle_timeout_ns: 5 };
    let slab = Arc::new(UeSlab::new());
    let bases = Some((TEID_BASE, UE_IP_BASE));
    let mut dp = DataPlane::with_slab(Arc::clone(&slab), GW_IP, 16, two_level, IotConfig::default(), bases);
    let mut model = TwoTables::default();
    let mut residents: HashMap<u32, Resident> = HashMap::new();
    let fresh = |u: u32, (teid, ip): (u32, u32)| {
        let mut ctrl = ControlState::new(404_01_0000000000 + u64::from(u));
        (ctrl.ue_ip, ctrl.tunnels) = (ip, TunnelState { enb_teid: 0xE000 + u, enb_ip: ENB_IP, gw_teid: teid });
        slab.alloc(ctrl, CounterState::default()).expect("slab room")
    };
    for (step, op) in ops.into_iter().enumerate() {
        let now = step as u64;
        match op {
            ModelOp::Insert { u, class, active } => {
                let class = residents.get(&u).map_or(class, |r| r.class);
                let (teid, ip) = model_keys(u, class);
                let handle = match residents.get(&u) {
                    Some(r) if r.suspended => r.handle,
                    _ => fresh(u, (teid, ip)),
                };
                dp.apply_update(DpUpdate::Insert { gw_teid: teid, ue_ip: ip, handle, active }, now);
                model.insert(teid, ip, handle);
                residents.insert(u, Resident { class, handle, suspended: false });
            }
            ModelOp::Remove { u, class } => {
                let (teid, ip) = model_keys(u, residents.remove(&u).map_or(class, |r| r.class));
                dp.apply_update(DpUpdate::Remove { gw_teid: teid, ue_ip: ip }, now);
                model.remove(teid, ip);
            }
            ModelOp::Suspend { u } => {
                let Some(r) = residents.get_mut(&u).filter(|r| !r.suspended) else { continue };
                let (teid, ip) = model_keys(u, r.class);
                r.suspended = true;
                dp.apply_update(DpUpdate::Suspend { gw_teid: teid, ue_ip: ip, imsi: u64::from(u) }, now);
                model.suspend(teid, ip);
            }
            ModelOp::DropIdleBuffer { u } => {
                let keys = nth_suspended(&residents, u).map(|v| model_keys(v, residents[&v].class));
                let (_, ip) = keys.unwrap_or_else(|| model_keys(u, KeyClass::Native));
                dp.apply_update(DpUpdate::DropIdleBuffer { ue_ip: ip }, now);
                model.drop_idle_buffer(ip);
            }
            ModelOp::Restore { u, active } => {
                let Some(u) = nth_suspended(&residents, u) else { continue };
                let r = residents.get_mut(&u).expect("a suspended resident");
                let (teid, ip) = model_keys(u, r.class);
                let handle = fresh(u, (teid, ip));
                (r.handle, r.suspended) = (handle, false);
                dp.apply_update(DpUpdate::Insert { gw_teid: teid, ue_ip: ip, handle, active }, now);
                model.insert(teid, ip, handle);
            }
            ModelOp::Demote { u, class } => {
                let (teid, ip) = model_keys(u, residents.get(&u).map_or(class, |r| r.class));
                dp.apply_update(DpUpdate::Demote { gw_teid: teid, ue_ip: ip }, now);
                model.metrics.updates_applied += 1;
            }
            ModelOp::Evict => {
                dp.evict_idle(now);
            }
            ModelOp::Burst(specs) => {
                let classes = [KeyClass::Native, KeyClass::Mismatched, KeyClass::Foreign];
                let keyed: Vec<(bool, u32)> = specs
                    .iter()
                    .map(|&(u, pick, uplink)| {
                        let class = match residents.get(&u) {
                            Some(r) if pick < 3 => r.class,
                            _ => classes[usize::from(pick % 3)],
                        };
                        let (teid, ip) = model_keys(u, class);
                        (uplink, if uplink { teid } else { ip })
                    })
                    .collect();
                let mut burst: Vec<Mbuf> = keyed
                    .iter()
                    .map(|&(up, id)| if up { uplink(id, UE_IP_BASE, 443) } else { inner_udp(0x0808_0808, id, 443, 48) })
                    .collect();
                let mut out = Vec::new();
                dp.process_burst_into(&mut burst, now, &mut out);
                for (k, (v, &(uplink, id))) in out.iter().zip(&keyed).enumerate() {
                    let got = verdict_kind(v);
                    prop_assert_eq!((got.0, got.1), model.packet(uplink, id), "step {} packet {}", step, k);
                }
            }
        }
        prop_assert_eq!(dp.metrics(), model.metrics, "step {}", step);
        prop_assert_eq!(dp.user_count(), model.by_teid.len(), "step {}", step);
        prop_assert_eq!(dp.suspended_count(), model.parked.len(), "step {}", step);
        prop_assert_eq!(slab.live_slots(), residents.len() as u64, "step {}", step);
    }
    for r in residents.values() {
        let c = slab.resolve(r.handle).expect("resident handle").counters();
        let want = model.charged.get(&r.handle).copied().unwrap_or_default();
        prop_assert_eq!((c.uplink_packets, c.downlink_packets), want, "a packet charged the wrong user");
    }
    Ok(())
}

proptest! {
    #[test]
    fn one_index_matches_two_tables(ops in proptest::collection::vec(model_op(), 1..80)) {
        check_one_index_against_two_tables(ops)?;
    }
}
