//! Capacity curve: users vs RSS vs ns/packet (DESIGN.md §16,
//! EXPERIMENTS.md fig5 capacity extension).
//!
//! One `DataPlane` is grown through the milestone populations (default
//! 1M / 5M / 10M, override with `CAPACITY_SCALES=a,b,c`): every attach
//! allocates a context in the shared [`UeSlab`] arena and indexes its
//! handle in the plane's index. The plane is built with the allocation
//! bases the users' TEIDs and UE IPs come from, over a slab sized for the
//! top milestone as a slice sizes it from `expected_users`, so a user
//! whose keys name its slot and tenant is native: no index entry, both
//! directions resolved by arithmetic (DESIGN.md §16). Users past the
//! 2^20 slots identifiers can name, and those landing in slots the steady
//! window re-tenanted, are foreign: two tagged entries in the plane's
//! incremental-growth table. At each milestone the bench reports:
//!
//! * process RSS (`/proc/self/status` VmRSS) plus the RSS delta per
//!   user since the pre-population baseline — measurement buffers are
//!   pre-allocated before the baseline so the delta is state, not
//!   harness;
//! * the arena's own audit: slab bytes, table bytes, and state bytes
//!   per user ((slab + tables) / users) — the number the budget gate
//!   in `scripts/bench_capacity.py` holds;
//! * per-packet pipeline cost over uplinks to uniformly random users
//!   (the fig5 cache-footprint curve, extended past the paper's 1M);
//! * attach latency over the whole ramp segment (which contains every
//!   incremental-growth round) against a steady window of detach +
//!   re-attach at constant table occupancy. A stop-the-world rehash
//!   would put a users-sized spike in the ramp tail; bounded-relocation
//!   growth keeps ramp p99 within a small multiple of steady p99.
//!
//! Output uses the shared `bench <name> <value> ns/iter` line format so
//! `scripts/bench_capacity.py` reuses the one parser every perf script
//! shares.

// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

use pepc::config::{IotConfig, TwoLevelConfig};
use pepc::data::{DataPlane, DpUpdate};
use pepc::state::{ControlState, CounterState, QosPolicy, TunnelState};
use pepc::UeSlab;
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use std::sync::Arc;
use std::time::Instant;

const GW_IP: u32 = 0x0AFE_0001;
const ENB_IP: u32 = 0xC0A8_0001;
const UE_IP_BASE: u32 = 0x0A00_0001;
const TEID_BASE: u32 = 0x1000;
const IMSI_BASE: u64 = 404_01_0000000000;

/// Packets timed per milestone for the ns/packet curve.
const LOOKUP_ITERS: usize = 50_000;
/// Distinct pre-built packets the lookup loop cycles through.
const LOOKUP_POOL: usize = 4_096;
/// Detach + re-attach pairs in the steady window.
const STEADY_WINDOW: u64 = 20_000;

fn scales() -> Vec<u64> {
    let spec = std::env::var("CAPACITY_SCALES").unwrap_or_default();
    let parsed: Vec<u64> = spec.split(',').filter_map(|s| s.trim().parse().ok()).collect();
    if parsed.is_empty() {
        vec![1_000_000, 5_000_000, 10_000_000]
    } else {
        parsed
    }
}

fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn user_ctrl(u: u64) -> ControlState {
    let mut ctrl = ControlState::new(IMSI_BASE + u);
    ctrl.ue_ip = UE_IP_BASE + u as u32;
    ctrl.qos = QosPolicy { qci: 9, ambr_kbps: 0, gbr_kbps: 0 };
    ctrl.tunnels = TunnelState { enb_teid: 0xE000_0000 + u as u32, enb_ip: ENB_IP, gw_teid: TEID_BASE + u as u32 };
    ctrl
}

/// One attach: allocate the context in the arena, index the handle
/// under its data-path keys (no entry for a native). Returns wall-clock ns.
fn attach(dp: &mut DataPlane, u: u64) -> u64 {
    let ctrl = user_ctrl(u);
    let t0 = Instant::now();
    let h = dp.slab().alloc(ctrl, CounterState::default()).expect("arena has room for the population");
    dp.apply_update(
        DpUpdate::Insert { gw_teid: TEID_BASE + u as u32, ue_ip: UE_IP_BASE + u as u32, handle: h, active: true },
        0,
    );
    t0.elapsed().as_nanos() as u64
}

fn detach(dp: &mut DataPlane, u: u64) {
    dp.apply_update(DpUpdate::Remove { gw_teid: TEID_BASE + u as u32, ue_ip: UE_IP_BASE + u as u32 }, 0);
}

fn uplink(u: u64) -> Mbuf {
    let mut m = Mbuf::new();
    let payload_len = 64usize;
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(UE_IP_BASE + u as u32, 0x0808_0808, IpProto::Udp, UDP_HDR_LEN + payload_len)
        .emit(&mut hdr[..IPV4_HDR_LEN])
        .unwrap();
    UdpHdr::new(40_000, 443, payload_len).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&[0xAB; 64]);
    encap_gtpu(&mut m, ENB_IP, GW_IP, TEID_BASE + u as u32).unwrap();
    m
}

/// Deterministic uniform user picker (splitmix64) — no rand dependency
/// needed, and the same packet sequence on every run.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn emit(name: &str, value: f64) {
    println!("bench {name:<50} {value:>12.1} ns/iter");
}

fn main() {
    let scales = scales();
    let top = *scales.iter().max().unwrap();
    let bases = Some((TEID_BASE, UE_IP_BASE));
    let mut dp = DataPlane::with_slab(
        Arc::new(UeSlab::with_population(top as usize)),
        GW_IP,
        1024,
        TwoLevelConfig::default(),
        IotConfig::default(),
        bases,
    );

    // Pre-allocate every measurement buffer before the RSS baseline so
    // milestone deltas measure user state, not the harness.
    let mut ramp_ns: Vec<u64> = Vec::with_capacity(top as usize);
    let mut steady_ns: Vec<u64> = Vec::with_capacity(STEADY_WINDOW as usize);
    let mut pool: Vec<Mbuf> = Vec::with_capacity(LOOKUP_POOL);
    let rss_baseline = rss_bytes();

    let mut next = 0u64;
    for &n in &scales {
        // Ramp: attach users [next, n). This segment contains every
        // incremental-growth round between the previous milestone and
        // this one.
        ramp_ns.clear();
        while next < n {
            ramp_ns.push(attach(&mut dp, next));
            next += 1;
        }
        assert_eq!(dp.slab().live_slots(), n, "arena live slots must equal attached users");

        // Quiesce: let any in-flight drain finish, as the slice's idle
        // maintenance (tick / sync) would, so the milestone reports
        // converged footprint and lookup cost rather than the transient
        // dual-array state.
        while dp.tables_migrating() {
            dp.maintain_tables();
        }

        let label = n.to_string();
        let slab_bytes = dp.slab().bytes();
        let table_bytes = dp.table_bytes();
        let rss = rss_bytes();
        emit(&format!("capacity/users/{label}"), n as f64);
        emit(&format!("capacity/rss_bytes/{label}"), rss as f64);
        emit(&format!("capacity/rss_delta_per_user/{label}"), rss.saturating_sub(rss_baseline) as f64 / n as f64);
        emit(&format!("capacity/slab_bytes/{label}"), slab_bytes as f64);
        emit(&format!("capacity/table_bytes/{label}"), table_bytes as f64);
        emit(&format!("capacity/state_bytes_per_user/{label}"), (slab_bytes + table_bytes) as f64 / n as f64);

        // ns/packet over uplinks to uniformly random users.
        let mut rng = 0xC0FF_EE00u64 ^ n;
        pool.clear();
        for _ in 0..LOOKUP_POOL {
            pool.push(uplink(splitmix(&mut rng) % n));
        }
        let t0 = Instant::now();
        let mut forwarded = 0u64;
        for i in 0..LOOKUP_ITERS {
            let m = Mbuf::from_payload(pool[i % LOOKUP_POOL].data());
            if dp.process(m, 0).is_forward() {
                forwarded += 1;
            }
        }
        let pkt_ns = t0.elapsed().as_nanos() as f64 / LOOKUP_ITERS as f64;
        assert_eq!(forwarded, LOOKUP_ITERS as u64, "every uplink must resolve to a live user");
        emit(&format!("capacity/pkt_ns/{label}"), pkt_ns);

        // Steady window: attach a batch of *new* users at this
        // occupancy — identical cold-cache alloc + index work as the
        // ramp, minus growth rounds (milestones sit well below
        // the next 3/4-load trigger) — then detach them so the next
        // ramp segment starts from exactly `n` users.
        steady_ns.clear();
        let window = STEADY_WINDOW.min(n / 10);
        for u in n..(n + window) {
            steady_ns.push(attach(&mut dp, u));
        }
        assert!(!dp.tables_migrating(), "steady window crossed a growth trigger");
        for u in n..(n + window) {
            detach(&mut dp, u);
        }
        assert_eq!(dp.slab().live_slots(), n, "steady window must restore the population");

        ramp_ns.sort_unstable();
        steady_ns.sort_unstable();
        emit(&format!("capacity/attach_ramp_p99_ns/{label}"), percentile(&ramp_ns, 0.99) as f64);
        emit(&format!("capacity/attach_ramp_max_ns/{label}"), *ramp_ns.last().unwrap_or(&0) as f64);
        emit(&format!("capacity/attach_steady_p99_ns/{label}"), percentile(&steady_ns, 0.99) as f64);
    }
}
