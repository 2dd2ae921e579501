//! The shared-state implementations compared in paper §7.1 / Figure 12.
//!
//! All stores hold the same per-user state; they differ in lock
//! granularity and in who may write:
//!
//! * [`GiantLockStore`] — one reader/writer lock over the entire state
//!   table ("Giant lock"). Any control-plane update write-locks the whole
//!   table, stalling every data-plane packet.
//! * [`DatapathWriterStore`] — a fine-grained lock per user, but a single
//!   combined state record, so the data plane takes the *write* lock on
//!   the same lock the control plane writes ("Datapath writer").
//! * [`RwLockFineStore`] — fine-grained per-user locks *and* the
//!   single-writer split across two `RwLock`s per user (control half /
//!   counter half) — this repo's pre-seqlock `UeContext` design, kept as
//!   the "RwLock fine-grained" baseline: still two atomic RMW lock
//!   acquisitions on every data-path visit.
//! * [`PepcStore`] — the shipping design: per-user
//!   [`UeContext`](pepc::state::UeContext)s under the single-writer
//!   seqlock protocol. A data-path visit is a lock-free view read plus a
//!   plain-store counter publish — no RMW at all.
//!
//! The [`StateStore`] trait exposes the operations the planes perform so
//! benchmarks drive all stores through identical code; the data-path
//! callback receives the [`CtrlView`] projection (what the enforcement
//! pass actually consumes), which every store materializes per visit so
//! the comparison isolates the locking discipline.

use parking_lot::RwLock;
use pepc::slab::{UeHandle, UeRef, UeSlab};
use pepc::state::{ControlState, CounterSnapshot, CounterState, CtrlView, Uid};
use pepc::twolevel::BuildKeyHasher;
use std::collections::HashMap;
use std::sync::Arc;

/// Operations both planes perform against a user-state store.
///
/// Implementations are `Sync`: in a slice the control thread and data
/// thread share the store.
pub trait StateStore: Send + Sync + 'static {
    /// Control plane: create a user (attach).
    fn insert(&self, uid: Uid, ctrl: ControlState);

    /// Control plane: remove a user (detach). Returns true if present.
    fn remove(&self, uid: Uid) -> bool;

    /// Control plane: apply a signaling update to a user's control state
    /// (e.g. an S1 handover rewriting tunnel endpoints). Returns false if
    /// the user is unknown.
    fn update_ctrl(&self, uid: Uid, f: &mut dyn FnMut(&mut ControlState)) -> bool;

    /// Data plane: read the user's control-state projection and charge
    /// the packet to the user's counters in one visit. Returns `None` if
    /// the user is unknown; otherwise the value produced by `f`.
    ///
    /// `charge` is `(uplink, bytes, now_ns)`.
    fn data_path_visit(
        &self,
        uid: Uid,
        uplink: bool,
        bytes: u64,
        now_ns: u64,
        f: &mut dyn FnMut(&CtrlView) -> bool,
    ) -> Option<bool>;

    /// Control plane: snapshot a user's counters (for PCRF reporting).
    fn read_counters(&self, uid: Uid) -> Option<CounterSnapshot>;

    /// Number of users in the store.
    fn len(&self) -> usize;

    /// True when no users are present.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn charge(counters: &mut CounterState, uplink: bool, bytes: u64, now_ns: u64) {
    if uplink {
        counters.uplink_packets += 1;
        counters.uplink_bytes += bytes;
    } else {
        counters.downlink_packets += 1;
        counters.downlink_bytes += bytes;
    }
    counters.last_activity_ns = now_ns;
}

// ---------------------------------------------------------------------------
// Giant lock
// ---------------------------------------------------------------------------

struct GiantEntry {
    ctrl: ControlState,
    counters: CounterState,
}

/// One lock over everything: the design the paper attributes to EPC
/// implementations that "store all user state in a single table".
///
/// Entries are boxed so the memory layout (one pointer chase per visit)
/// matches the fine-grained stores — the three implementations differ
/// ONLY in locking, as in the paper's Figure 12.
pub struct GiantLockStore {
    table: RwLock<HashMap<Uid, Box<GiantEntry>, BuildKeyHasher>>,
}

impl GiantLockStore {
    pub fn new(capacity: usize) -> Self {
        GiantLockStore { table: RwLock::new(HashMap::with_capacity_and_hasher(capacity, Default::default())) }
    }
}

impl StateStore for GiantLockStore {
    fn insert(&self, uid: Uid, ctrl: ControlState) {
        self.table.write().insert(uid, Box::new(GiantEntry { ctrl, counters: CounterState::default() }));
    }

    fn remove(&self, uid: Uid) -> bool {
        self.table.write().remove(&uid).is_some()
    }

    fn update_ctrl(&self, uid: Uid, f: &mut dyn FnMut(&mut ControlState)) -> bool {
        let mut t = self.table.write();
        match t.get_mut(&uid) {
            Some(e) => {
                f(&mut e.ctrl);
                true
            }
            None => false,
        }
    }

    fn data_path_visit(
        &self,
        uid: Uid,
        uplink: bool,
        bytes: u64,
        now_ns: u64,
        f: &mut dyn FnMut(&CtrlView) -> bool,
    ) -> Option<bool> {
        // Counters are written per packet, so the data plane needs the
        // *write* lock on the whole table — this is the collapse mechanism.
        let mut t = self.table.write();
        let e = t.get_mut(&uid)?;
        let verdict = f(&CtrlView::project(&e.ctrl));
        charge(&mut e.counters, uplink, bytes, now_ns);
        Some(verdict)
    }

    fn read_counters(&self, uid: Uid) -> Option<CounterSnapshot> {
        self.table.read().get(&uid).map(|e| e.counters.snapshot())
    }

    fn len(&self) -> usize {
        self.table.read().len()
    }
}

// ---------------------------------------------------------------------------
// Datapath writer
// ---------------------------------------------------------------------------

struct DwEntry {
    state: RwLock<DwState>,
}

struct DwState {
    ctrl: ControlState,
    counters: CounterState,
}

/// Fine-grained per-user locks, but one combined record per user: both
/// planes contend for the same write lock ("Datapath writer" in Fig 12).
pub struct DatapathWriterStore {
    table: RwLock<HashMap<Uid, Arc<DwEntry>, BuildKeyHasher>>,
}

impl DatapathWriterStore {
    pub fn new(capacity: usize) -> Self {
        DatapathWriterStore { table: RwLock::new(HashMap::with_capacity_and_hasher(capacity, Default::default())) }
    }
}

impl StateStore for DatapathWriterStore {
    fn insert(&self, uid: Uid, ctrl: ControlState) {
        let entry = Arc::new(DwEntry { state: RwLock::new(DwState { ctrl, counters: CounterState::default() }) });
        self.table.write().insert(uid, entry);
    }

    fn remove(&self, uid: Uid) -> bool {
        self.table.write().remove(&uid).is_some()
    }

    fn update_ctrl(&self, uid: Uid, f: &mut dyn FnMut(&mut ControlState)) -> bool {
        let t = self.table.read();
        match t.get(&uid) {
            Some(entry) => {
                f(&mut entry.state.write().ctrl);
                true
            }
            None => false,
        }
    }

    fn data_path_visit(
        &self,
        uid: Uid,
        uplink: bool,
        bytes: u64,
        now_ns: u64,
        f: &mut dyn FnMut(&CtrlView) -> bool,
    ) -> Option<bool> {
        let t = self.table.read();
        let entry = t.get(&uid)?;
        // Single combined record: counters force a write lock, which also
        // excludes the control plane's readers/writers of the same user.
        let mut s = entry.state.write();
        let verdict = f(&CtrlView::project(&s.ctrl));
        charge(&mut s.counters, uplink, bytes, now_ns);
        Some(verdict)
    }

    fn read_counters(&self, uid: Uid) -> Option<CounterSnapshot> {
        let t = self.table.read();
        let s = t.get(&uid)?.state.read();
        Some(s.counters.snapshot())
    }

    fn len(&self) -> usize {
        self.table.read().len()
    }
}

// ---------------------------------------------------------------------------
// RwLock fine-grained (the pre-seqlock UeContext design)
// ---------------------------------------------------------------------------

struct RwFineEntry {
    ctrl: RwLock<ControlState>,
    counters: RwLock<CounterState>,
}

/// Fine-grained per-user locks with the single-writer split — control
/// and counter halves behind *separate* `RwLock`s, each plane
/// write-locking only its own half. This was this repo's `UeContext`
/// before the seqlock protocol; a data-path visit still pays two lock
/// acquisitions (ctrl read + counters write), i.e. four atomic RMWs,
/// per packet even uncontended.
pub struct RwLockFineStore {
    table: RwLock<HashMap<Uid, Arc<RwFineEntry>, BuildKeyHasher>>,
}

impl RwLockFineStore {
    pub fn new(capacity: usize) -> Self {
        RwLockFineStore { table: RwLock::new(HashMap::with_capacity_and_hasher(capacity, Default::default())) }
    }
}

impl StateStore for RwLockFineStore {
    fn insert(&self, uid: Uid, ctrl: ControlState) {
        let entry = Arc::new(RwFineEntry { ctrl: RwLock::new(ctrl), counters: RwLock::new(CounterState::default()) });
        self.table.write().insert(uid, entry);
    }

    fn remove(&self, uid: Uid) -> bool {
        self.table.write().remove(&uid).is_some()
    }

    fn update_ctrl(&self, uid: Uid, f: &mut dyn FnMut(&mut ControlState)) -> bool {
        let t = self.table.read();
        match t.get(&uid) {
            Some(entry) => {
                f(&mut entry.ctrl.write());
                true
            }
            None => false,
        }
    }

    fn data_path_visit(
        &self,
        uid: Uid,
        uplink: bool,
        bytes: u64,
        now_ns: u64,
        f: &mut dyn FnMut(&CtrlView) -> bool,
    ) -> Option<bool> {
        let t = self.table.read();
        let entry = t.get(&uid)?;
        // Read lock on the control half, write lock on the counter half
        // — correct single-writer semantics, but two RMW acquisitions.
        let verdict = f(&CtrlView::project(&entry.ctrl.read()));
        charge(&mut entry.counters.write(), uplink, bytes, now_ns);
        Some(verdict)
    }

    fn read_counters(&self, uid: Uid) -> Option<CounterSnapshot> {
        let t = self.table.read();
        let s = t.get(&uid)?.counters.read().snapshot();
        Some(s)
    }

    fn len(&self) -> usize {
        self.table.read().len()
    }
}

// ---------------------------------------------------------------------------
// PEPC (seqlock single-writer)
// ---------------------------------------------------------------------------

/// The PEPC design: per-user contexts in a slab arena under the
/// single-writer seqlock protocol — lock-free view reads and plain-store
/// counter publishes on the data path, and an 8-byte generational
/// [`UeHandle`] per table entry instead of a 16-byte `Arc` pointer.
pub struct PepcStore {
    slab: Arc<UeSlab>,
    table: RwLock<HashMap<Uid, UeHandle, BuildKeyHasher>>,
}

impl PepcStore {
    pub fn new(capacity: usize) -> Self {
        Self::with_slab(Arc::new(UeSlab::new()), capacity)
    }

    /// Build a store over a shared arena. Two stores over one slab model
    /// two slices of a node: migration moves a *handle* between their
    /// tables while the context never moves in memory.
    pub fn with_slab(slab: Arc<UeSlab>, capacity: usize) -> Self {
        PepcStore { slab, table: RwLock::new(HashMap::with_capacity_and_hasher(capacity, Default::default())) }
    }

    /// The arena contexts resolve against.
    pub fn slab(&self) -> &Arc<UeSlab> {
        &self.slab
    }

    /// Borrow a user's context — what the control thread shares with the
    /// data thread at attach ("shares a read-only reference", §3.4), now
    /// a generational handle resolved against the arena.
    pub fn get(&self, uid: Uid) -> Option<UeRef<'_>> {
        let h = *self.table.read().get(&uid)?;
        self.slab.resolve(h)
    }

    /// Index a pre-allocated context by handle (used by migration, which
    /// moves the user between same-arena stores without copying).
    pub fn insert_handle(&self, uid: Uid, handle: UeHandle) {
        self.table.write().insert(uid, handle);
    }

    /// Remove and return the user's handle, keeping the slot live
    /// (migration source side; the destination re-indexes the handle).
    pub fn take(&self, uid: Uid) -> Option<UeHandle> {
        self.table.write().remove(&uid)
    }
}

impl StateStore for PepcStore {
    fn insert(&self, uid: Uid, ctrl: ControlState) {
        if let Some(handle) = self.slab.alloc(ctrl, CounterState::default()) {
            self.table.write().insert(uid, handle);
        }
    }

    fn remove(&self, uid: Uid) -> bool {
        match self.table.write().remove(&uid) {
            Some(h) => self.slab.free(h),
            None => false,
        }
    }

    fn update_ctrl(&self, uid: Uid, f: &mut dyn FnMut(&mut ControlState)) -> bool {
        let h = match self.table.read().get(&uid) {
            Some(h) => *h,
            None => return false,
        };
        match self.slab.resolve(h) {
            Some(ctx) => {
                f(&mut ctx.ctrl_write());
                true
            }
            None => false,
        }
    }

    fn data_path_visit(
        &self,
        uid: Uid,
        uplink: bool,
        bytes: u64,
        now_ns: u64,
        f: &mut dyn FnMut(&CtrlView) -> bool,
    ) -> Option<bool> {
        // Copy the 8-byte handle out and release the table lock before
        // touching the context: slot storage is stable for the slab's
        // lifetime, so the visit itself runs with no lock held at all.
        let h = *self.table.read().get(&uid)?;
        let ctx = self.slab.resolve(h)?;
        // Seqlock view read (no RMW; retries only if a control publish
        // races), then a local counter mutation and a plain-store publish
        // — we are the counter cell's only writer.
        let verdict = f(&ctx.ctrl_view());
        let mut c = ctx.counters();
        charge(&mut c, uplink, bytes, now_ns);
        ctx.publish_counters(c);
        Some(verdict)
    }

    fn read_counters(&self, uid: Uid) -> Option<CounterSnapshot> {
        let h = *self.table.read().get(&uid)?;
        Some(self.slab.resolve(h)?.counters().snapshot())
    }

    fn len(&self) -> usize {
        self.table.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn stores() -> Vec<(&'static str, Box<dyn StateStore>)> {
        vec![
            ("giant", Box::new(GiantLockStore::new(16))),
            ("datapath-writer", Box::new(DatapathWriterStore::new(16))),
            ("rwlock-fine", Box::new(RwLockFineStore::new(16))),
            ("pepc", Box::new(PepcStore::new(16))),
        ]
    }

    #[test]
    fn insert_visit_remove_semantics_identical_across_stores() {
        for (name, s) in stores() {
            assert!(s.is_empty(), "{name}");
            let mut ctrl = ControlState::new(100);
            ctrl.tunnels.gw_teid = 0x1234;
            s.insert(1, ctrl);
            s.insert(2, ControlState::new(200));
            assert_eq!(s.len(), 2, "{name}");

            // The callback sees the CtrlView projection, not the raw
            // ControlState — check a tunnel field carried by the view.
            let verdict =
                s.data_path_visit(1, true, 64, 1000, &mut |v| v.tunnels.gw_teid == 0x1234).expect("user exists");
            assert!(verdict, "{name}");
            s.data_path_visit(1, false, 128, 2000, &mut |_| true).unwrap();

            let snap = s.read_counters(1).unwrap();
            assert_eq!(snap.uplink_packets, 1, "{name}");
            assert_eq!(snap.uplink_bytes, 64, "{name}");
            assert_eq!(snap.downlink_packets, 1, "{name}");
            assert_eq!(snap.downlink_bytes, 128, "{name}");
            assert_eq!(snap.last_activity_ns, 2000, "{name}");

            assert!(s.remove(1), "{name}");
            assert!(!s.remove(1), "{name}");
            assert!(s.data_path_visit(1, true, 1, 1, &mut |_| true).is_none(), "{name}");
            assert_eq!(s.len(), 1, "{name}");
        }
    }

    #[test]
    fn update_ctrl_is_visible_to_data_path() {
        for (name, s) in stores() {
            s.insert(7, ControlState::new(7));
            assert!(s.update_ctrl(7, &mut |c| {
                c.tunnels.enb_teid = 0xBEEF;
                c.tunnels.enb_ip = 0x0A000001;
            }));
            let teid = s.data_path_visit(7, false, 10, 1, &mut |c| c.tunnels.enb_teid == 0xBEEF);
            assert_eq!(teid, Some(true), "{name}");
            assert!(!s.update_ctrl(99, &mut |_| {}), "{name}: unknown uid");
        }
    }

    #[test]
    fn pepc_store_shares_contexts() {
        let s = PepcStore::new(4);
        s.insert(1, ControlState::new(42));
        let ctx = s.get(1).unwrap();
        // Data-plane write through the trait is visible through the
        // shared arena slot — the "consolidated state, no copies"
        // property, now with a handle instead of an Arc.
        s.data_path_visit(1, true, 50, 9, &mut |_| true).unwrap();
        assert_eq!(ctx.counters().uplink_bytes, 50);
        // take() removes the index entry but keeps the slot live.
        let moved = s.take(1).unwrap();
        assert_eq!(moved.bits(), ctx.handle().bits(), "same slot, same generation");
        assert!(s.get(1).is_none());
        // ... and back in at a destination store over the SAME arena:
        // the context never moved in memory.
        let s2 = PepcStore::with_slab(Arc::clone(s.slab()), 4);
        s2.insert_handle(1, moved);
        assert_eq!(s2.read_counters(1).unwrap().uplink_bytes, 50);
        assert_eq!(
            std::ptr::from_ref(s2.get(1).unwrap().context()),
            std::ptr::from_ref(ctx.context()),
            "zero-copy migration: both stores resolve to one slot"
        );
    }

    #[test]
    fn pepc_store_remove_frees_the_slot_and_reuse_keeps_handles_safe() {
        let s = PepcStore::new(4);
        s.insert(1, ControlState::new(42));
        let stale = s.get(1).unwrap().handle();
        assert_eq!(s.slab().live_slots(), 1);
        assert!(s.remove(1));
        assert_eq!(s.slab().live_slots(), 0, "detach released the slot");
        // The freed slot is recycled for the next attach under a new
        // generation, so the stale handle cannot alias the new tenant.
        s.insert(2, ControlState::new(43));
        assert_eq!(s.slab().live_slots(), 1);
        assert!(s.slab().resolve(stale).is_none(), "stale generation stays dead");
        assert_eq!(s.get(2).unwrap().ctrl_read().imsi, 43);
    }

    #[test]
    fn pepc_data_path_does_not_block_on_ctrl_readers() {
        // A control-plane reader holding the ctrl read lock must not stop
        // the data path (which reads the seqlock view, never the lock).
        let s = Arc::new(PepcStore::new(4));
        s.insert(1, ControlState::new(1));
        let ctx = s.get(1).unwrap();
        let _ctrl_reader = ctx.ctrl_read();
        let done = Arc::new(AtomicBool::new(false));
        let d2 = Arc::clone(&done);
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            s2.data_path_visit(1, true, 1, 1, &mut |_| true).unwrap();
            d2.store(true, Ordering::SeqCst);
        });
        t.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn counters_sum_correctly_under_concurrency() {
        // Hammer the pepc store from a "data thread" while a "control
        // thread" performs updates; totals must be exact (no lost writes).
        let s = Arc::new(PepcStore::new(4));
        s.insert(1, ControlState::new(1));
        let s_data = Arc::clone(&s);
        let data = std::thread::spawn(move || {
            for i in 0..100_000u64 {
                s_data.data_path_visit(1, i % 2 == 0, 10, i, &mut |_| true).unwrap();
            }
        });
        let s_ctrl = Arc::clone(&s);
        let ctrl = std::thread::spawn(move || {
            for i in 0..10_000u32 {
                s_ctrl.update_ctrl(1, &mut |c| c.tunnels.enb_teid = i);
            }
        });
        data.join().unwrap();
        ctrl.join().unwrap();
        let snap = s.read_counters(1).unwrap();
        assert_eq!(snap.uplink_packets + snap.downlink_packets, 100_000);
        assert_eq!(snap.uplink_bytes + snap.downlink_bytes, 1_000_000);
    }
}
