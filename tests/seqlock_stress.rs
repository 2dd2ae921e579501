//! Torn-read stress for the single-writer seqlock protocol.
//!
//! Writers keep coupled invariants across the fields of each cell
//! (`enb_ip == enb_teid ^ K`; every counter word a function of
//! `uplink_packets`) and across the slot's identity entry and view cell
//! (`ecgi == ambr_kbps`) so *any* torn read — a snapshot mixing two
//! publishes — breaks an equation a reader checks. Readers hammer the
//! cells for the whole run; one violated invariant fails the test.
//!
//! Three seeds run as separate test functions so the CI concurrency
//! matrix can select them individually.

use pepc::seqlock::READ_RETRY_LIMIT;
use pepc::state::{ControlState, CounterState, CtrlView};
use pepc::UeSlab;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TEID_IP_KEY: u32 = 0xDEAD_BEEF;
const DROP_KEY: u64 = 0x5555_AAAA_5555_AAAA;

/// The counter cell's content after publish `n`: every one of its seven
/// words (six `u64`s, and the `qos_drops`/`ambr_tokens` pair) is derived
/// from `n`, so a copy mixing two publishes matches no `n`.
fn counters_for(n: u64) -> CounterState {
    CounterState {
        uplink_packets: n,
        uplink_bytes: n * 100,
        downlink_packets: n ^ DROP_KEY,
        downlink_bytes: n.rotate_left(17),
        qos_drops: (n ^ DROP_KEY) as u32,
        ambr_tokens: ((n ^ DROP_KEY) >> 32) as u32,
        last_activity_ns: !n,
        ambr_last_refill_ns: n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

fn run_duration() -> Duration {
    // Long enough to cross many scheduler timeslices in release; short
    // enough not to dominate a debug `cargo test`. CI's concurrency
    // matrix raises it via SEQLOCK_STRESS_MS for a longer soak.
    if let Ok(ms) = std::env::var("SEQLOCK_STRESS_MS") {
        if let Ok(ms) = ms.parse::<u64>() {
            return Duration::from_millis(ms);
        }
    }
    if cfg!(debug_assertions) {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(1000)
    }
}

fn check_view(v: &CtrlView) {
    assert_eq!(v.tunnels.enb_ip, v.tunnels.enb_teid ^ TEID_IP_KEY, "torn control view: teid/ip decoupled");
    assert_eq!(v.ambr_kbps, v.tunnels.enb_teid.wrapping_add(7), "torn control view: teid/ambr decoupled");
}

fn stress(seed: u64) {
    let slab = Arc::new(UeSlab::new());
    let h = slab.alloc(ControlState::new(seed), CounterState::default()).expect("fresh slab has room");
    let ctx = slab.resolve(h).expect("fresh handle resolves");
    // Establish the invariants before any reader looks.
    {
        let mut g = ctx.ctrl_write();
        g.tunnels.enb_teid = 0;
        g.tunnels.enb_ip = TEID_IP_KEY;
        g.qos.ambr_kbps = 7;
        g.ecgi = 7;
    }
    ctx.publish_counters(counters_for(0));

    let stop = Arc::new(AtomicBool::new(false));
    let max_retries = Arc::new(AtomicU32::new(0));
    let mut handles = Vec::new();

    // Two control writers: they serialize on the slab's writer lock (each
    // publish happens under it), exercising back-to-back republishes.
    for w in 0..2u64 {
        let slab = Arc::clone(&slab);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let ctx = slab.resolve(h).expect("live");
            let mut lcg = seed ^ (w << 32) | 1;
            let mut published = 0u64;
            while !stop.load(Ordering::Relaxed) {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let x = (lcg >> 24) as u32;
                {
                    let mut g = ctx.ctrl_write();
                    g.tunnels.enb_teid = x;
                    g.tunnels.enb_ip = x ^ TEID_IP_KEY;
                    g.qos.ambr_kbps = x.wrapping_add(7);
                    g.ecgi = x.wrapping_add(7);
                }
                published += 1;
                if published.is_multiple_of(64) {
                    std::thread::yield_now(); // let readers run on 1 CPU
                }
            }
            published
        }));
    }

    // Exactly ONE counter writer: the counter cell is single-writer by
    // protocol (the data thread).
    let counter_writer = {
        let slab = Arc::clone(&slab);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let ctx = slab.resolve(h).expect("live");
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                ctx.publish_counters(counters_for(n));
                if n.is_multiple_of(64) {
                    std::thread::yield_now();
                }
            }
            n
        })
    };

    // View readers: optimistic seqlock reads plus the bounded-retry
    // entry point the data plane actually uses.
    for _ in 0..2 {
        let slab = Arc::clone(&slab);
        let stop = Arc::clone(&stop);
        let max_retries = Arc::clone(&max_retries);
        handles.push(std::thread::spawn(move || {
            let ctx = slab.resolve(h).expect("live");
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (v, retries) = ctx.ctrl_view_with_retries();
                assert!(retries <= READ_RETRY_LIMIT, "retries are bounded by construction");
                max_retries.fetch_max(retries, Ordering::Relaxed);
                check_view(&v);
                reads += 1;
            }
            reads
        }));
    }

    // Control-side reader: `ctrl_read` assembles identity fields from the
    // slot's identity entry and the rest from the view cell, and one write
    // sets both `ecgi` (identity) and `ambr_kbps` (view) — they must never
    // differ.
    {
        let slab = Arc::clone(&slab);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let ctx = slab.resolve(h).expect("live");
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let c = ctx.ctrl_read();
                assert_eq!(c.ecgi, c.qos.ambr_kbps, "torn control read: identity and view decoupled");
                check_view(&CtrlView::project(&c));
                reads += 1;
            }
            reads
        }));
    }

    // Counter reader: acquire/retry snapshots must never decouple the
    // checksummed fields.
    let counter_reader = {
        let slab = Arc::clone(&slab);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let ctx = slab.resolve(h).expect("live");
            let mut reads = 0u64;
            let mut last_n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let c = ctx.counters();
                assert_eq!(c, counters_for(c.uplink_packets), "torn counter read: a word decoupled");
                assert!(c.uplink_packets >= last_n, "counter snapshots must be monotone (single writer)");
                last_n = c.uplink_packets;
                reads += 1;
            }
            reads
        })
    };

    std::thread::sleep(run_duration());
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        // Writers return publish counts, readers return read counts;
        // either being zero means a livelock (no progress).
        assert!(h.join().expect("stress thread") > 0, "every thread made progress");
    }
    let counted = counter_writer.join().expect("counter writer");
    let read_count = counter_reader.join().expect("counter reader");
    assert!(counted > 0 && read_count > 0, "counter threads made progress");

    // Final state is exactly the last publish — no lost updates.
    assert_eq!(ctx.counters(), counters_for(counted));
    check_view(&ctx.ctrl_view());
    // And the lock-free view equals the one a locked read assembles.
    assert_eq!(ctx.ctrl_view(), CtrlView::project(&ctx.ctrl_read()));
}

#[test]
fn seqlock_stress_seed1() {
    stress(1);
}

#[test]
fn seqlock_stress_seed2() {
    stress(2);
}

#[test]
fn seqlock_stress_seed3() {
    stress(3);
}
