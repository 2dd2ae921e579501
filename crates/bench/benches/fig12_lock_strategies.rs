//! Figure 12 measured: one data-path visit (control-view read + counter
//! charge) under each shared-state locking design.
//!
//! Two groups:
//!
//! * `fig12_visit` — uncontended visit cost. Isolates the lock-operation
//!   overhead itself: the giant/fine-grained rwlock designs pay atomic
//!   RMW acquisitions per visit, the seqlock design pays none.
//! * `fig12_contended` — the same visit loop racing a control thread
//!   applying signaling operations to random users, each holding the
//!   store's control critical section for a `CTRL_HOLD` window (control
//!   ops are long: the paper measures tens of microseconds of signaling
//!   work per event, §5.2). This is the paper's Figure 12 x-axis made
//!   concrete: under the giant lock every control op excludes the whole
//!   data path for its full duration, under per-user designs only the
//!   touched user is affected, and under the seqlock the data path never
//!   blocks at all (the control mutex is writer-side only; readers just
//!   retry the short odd-sequence publish window).
//!
//! ## Contention model (single-core honest)
//!
//! The hold window is a *sleep* inside the critical section, not a CPU
//! spin. On a single-core host a spinning holder conflates two effects —
//! the core is time-shared *and* the lock is held — and the measurement
//! degenerates into scheduler accounting (a reader that parks on the
//! giant mutex donates its timeslice to the holder, making the giant
//! lock look *better* under contention). Sleeping while holding keeps
//! the writer's CPU usage near zero, so the visit loop always has the
//! core, and the measured difference is purely how long each design's
//! data path is excluded by a control op — the quantity Figure 12 is
//! about. `USERS` is sized large enough that a visit colliding with the
//! one entry a per-user design holds locked is rare — at small
//! populations those collisions dominate the fine-grained stores'
//! numbers and the bench measures luck, not protocol.

use criterion::{criterion_group, criterion_main, Criterion};
use pepc::state::ControlState;
use pepc_baseline::table::{DatapathWriterStore, GiantLockStore, PepcStore, RwLockFineStore, StateStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USERS: u64 = 100_000;
/// How long each control op holds the store's control critical section
/// (nominal; `thread::sleep` rounds up by the timer slack, which only
/// lengthens holds equally for every store).
const CTRL_HOLD: Duration = Duration::from_micros(200);
/// Gap between control ops. Hold/(hold+gap) ≈ 50% control duty — an
/// aggressive signaling storm (dense handovers), the regime Figure 12's
/// right-hand side probes.
const CTRL_GAP: Duration = Duration::from_micros(200);

// Constructors, not instances: each store is built (and dropped) inside
// its own measurement so four 100k-user tables never coexist and skew
// later stores' cache/allocator behaviour.
type StoreCtor = fn() -> Arc<dyn StateStore>;

fn stores() -> Vec<(&'static str, StoreCtor)> {
    vec![
        ("giant_lock", || Arc::new(GiantLockStore::new(USERS as usize))),
        ("datapath_writer", || Arc::new(DatapathWriterStore::new(USERS as usize))),
        ("rwlock_fine", || Arc::new(RwLockFineStore::new(USERS as usize))),
        ("seqlock", || Arc::new(PepcStore::new(USERS as usize))),
    ]
}

fn populate(store: &dyn StateStore) {
    for uid in 0..USERS {
        store.insert(uid, ControlState::new(uid));
    }
}

fn visit(store: &dyn StateStore, i: &mut u64) -> Option<bool> {
    *i = i.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let uid = (*i >> 33) % USERS;
    store.data_path_visit(uid, i.is_multiple_of(4), 100, *i, &mut |v| v.tunnels.gw_teid != u32::MAX)
}

fn bench_uncontended(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_visit");
    for (name, ctor) in stores() {
        let store = ctor();
        populate(&*store);
        let mut i = 0u64;
        g.bench_function(name, |b| b.iter(|| visit(&*store, &mut i)));
    }
    g.finish();
}

fn bench_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_contended");
    for (name, ctor) in stores() {
        let store = ctor();
        populate(&*store);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut lcg = 0x9E37_79B9u64;
                let mut issued = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let uid = (lcg >> 33) % USERS;
                    store.update_ctrl(uid, &mut |cs| {
                        cs.tunnels.enb_teid = (issued & 0xFFFF) as u32 + 1;
                        cs.tunnels.enb_ip = 0xC0A8_0001;
                        // The control op's duration is spent while the
                        // store's critical section is held — that is the
                        // design point Figure 12 probes (see module doc
                        // for why this is a sleep, not a spin).
                        std::thread::sleep(CTRL_HOLD);
                    });
                    issued += 1;
                    std::thread::sleep(CTRL_GAP);
                }
            })
        };
        let mut i = 0u64;
        g.bench_function(name, |b| b.iter(|| visit(&*store, &mut i)));
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("contention writer");
    }
    g.finish();
}

criterion_group!(benches, bench_uncontended, bench_contended);
criterion_main!(benches);
