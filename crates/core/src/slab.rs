//! Generational slab arena for per-user contexts (DESIGN.md §16).
//!
//! The classic layout — one `Arc<UeContext>` heap object per user —
//! spends a malloc/free per attach/detach, scatters contexts across the
//! heap (no locality for the data path's table walk), and costs 16 bytes
//! per table entry (pointer + refcount cache line). At 10M users that
//! allocation behavior, not ns/packet, becomes the binding constraint
//! (paper fig 5, fig 15).
//!
//! [`UeSlab`] instead stores contexts in large contiguous chunks and
//! hands out 8-byte **generational handles** ([`UeHandle`]):
//!
//! * **Chunks** of [`CHUNK_SLOTS`] contexts (49 KiB) are allocated at
//!   once and published into a zeroed chunk directory; slots inside a
//!   chunk are never individually allocated or freed by the system
//!   allocator. Resident memory follows the live population.
//! * **Free slots go to a FIFO free queue**, so a detach/attach cycle
//!   reuses a slot with no heap traffic at all, and a slot freed now is
//!   handed out again only after every slot freed before it.
//! * **Capacity is one identifier region** (2^24 slots, `MAX_CHUNKS` ×
//!   [`CHUNK_SLOTS`]); past it [`UeSlab::alloc`] returns `None`, which
//!   callers turn into a rejected attach.
//! * Each slot carries a **generation counter** (even = free, odd =
//!   live). A handle embeds the generation it was minted under;
//!   [`UeSlab::resolve`] re-checks it, so a handle held across the
//!   slot's free+reuse *misses* instead of aliasing the new tenant
//!   (the ABA guard the tests pin down).
//!
//! Concurrency contract, matching the slice's single-writer discipline:
//! `alloc`/`free` are control-rate operations serialized by one internal
//! mutex; `resolve` is the per-packet operation and is lock-free (two
//! acquire loads + a compare). Slot *contents* are re-initialized through
//! [`UeContext`]'s own publish protocol — never raw stores — so a stale
//! optimistic reader racing a slot reuse only ever observes
//! protocol-mediated writes.

use crate::demux::REGION_SHIFT;
use crate::state::{ControlState, CounterState, UeContext};
use parking_lot::Mutex;
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::collections::VecDeque;
use std::ops::Deref;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};

/// Slots per chunk. 256 contexts × 3 cache lines (192 B) each, plus a
/// 1 KiB generation array: 49 KiB per chunk. A chunk is born on 1 in 256
/// fresh-slot allocs and costs that alloc one 49 KiB write pass (tens of
/// µs), and a slice strands at most 48 KiB of slots nobody uses.
pub const CHUNK_SLOTS: usize = 256;

/// Chunk-directory fan-out: exactly one slice's identifier region
/// (2^24 slots) of chunks, so the slab runs out when the region does.
const MAX_CHUNKS: usize = (1 << REGION_SHIFT) / CHUNK_SLOTS;

const _: () = assert!(MAX_CHUNKS * CHUNK_SLOTS == 1 << REGION_SHIFT);

/// The data plane's shown bit in a generation word (see [`UeSlab::show`]);
/// the generation is the 31 bits below it.
const SHOWN: u32 = 1 << 31;

/// The generation a word holds, if it is live (odd).
#[inline]
fn live(word: u32) -> Option<u32> {
    Some(word & !SHOWN).filter(|g| g % 2 == 1)
}

/// Directory entries per 4 KiB page, the unit the zeroed directory becomes resident in.
const DIR_ENTRIES_PER_PAGE: usize = 4096 / std::mem::size_of::<AtomicPtr<Chunk>>();

/// One contiguous block of contexts plus their generation counters.
///
/// Generations live in their own array (not interleaved with the slots)
/// so a resolve touches one densely-packed counter line and the context
/// lines stay exclusively the planes' own traffic.
struct Chunk {
    /// Per-slot generation (even = free, odd = live) below the shown
    /// bit. Bumped with `Release` on alloc (after the slot content is
    /// re-initialized) and on free, read with `Acquire` by `resolve`.
    gens: [AtomicU32; CHUNK_SLOTS],
    slots: [UeContext; CHUNK_SLOTS],
}

/// Heap-allocate and fully initialize a chunk. `Chunk` is 49 KiB — too
/// large to construct on the stack and `Box` — so it is built in place.
fn new_chunk() -> *mut Chunk {
    let layout = Layout::new::<Chunk>();
    // SAFETY: the layout is non-zero-sized.
    let p = unsafe { alloc(layout) }.cast::<Chunk>();
    if p.is_null() {
        handle_alloc_error(layout);
    }
    // SAFETY: `p` is valid for `Chunk` writes; every slot and generation
    // is initialized exactly once before the pointer is published.
    unsafe {
        let gens = ptr::addr_of_mut!((*p).gens).cast::<AtomicU32>();
        let slots = ptr::addr_of_mut!((*p).slots).cast::<UeContext>();
        for i in 0..CHUNK_SLOTS {
            ptr::write(gens.add(i), AtomicU32::new(0));
            ptr::write(slots.add(i), UeContext::raw(ControlState::new(0)));
        }
    }
    p
}

/// An 8-byte generational handle to a slab slot: generation in the high
/// 32 bits, slot index in the low 32. This is what the data-plane tables
/// store instead of a 16-byte `Arc` pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UeHandle(u64);

impl UeHandle {
    fn new(generation: u32, index: u32) -> Self {
        UeHandle((u64::from(generation) << 32) | u64::from(index))
    }

    /// The generation this handle was minted under (odd while live).
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The slot index within the slab.
    pub fn index(self) -> u32 {
        self.0 as u32
    }

    /// The raw 64-bit encoding (telemetry / oracle identity).
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from [`Self::bits`].
    pub fn from_bits(bits: u64) -> Self {
        UeHandle(bits)
    }
}

/// A resolved handle: a borrow of the slot's context plus the handle it
/// came from. Derefs to [`UeContext`], so call sites read through it
/// exactly as they read through the old `Arc<UeContext>`.
#[derive(Debug, Clone, Copy)]
pub struct UeRef<'a> {
    ctx: &'a UeContext,
    handle: UeHandle,
}

impl<'a> UeRef<'a> {
    /// The handle this reference resolved from.
    pub fn handle(&self) -> UeHandle {
        self.handle
    }

    /// The underlying context borrow (escape hatch for pointer-based
    /// grouping on the burst path).
    pub fn context(&self) -> &'a UeContext {
        self.ctx
    }
}

impl Deref for UeRef<'_> {
    type Target = UeContext;
    fn deref(&self) -> &UeContext {
        self.ctx
    }
}

/// Allocation state behind the mutex: the free queue and the bump
/// cursor. Chunk creation also happens under this lock, so at most one
/// thread ever races the directory publish.
struct AllocState {
    free: VecDeque<u32>,
    next: u32,
}

/// The generational slab. See the module docs for the contract.
pub struct UeSlab {
    /// Chunk directory: `Acquire`-loaded by `resolve`, `Release`-stored
    /// (under the alloc lock) when a chunk is born. Chunks are never
    /// freed before the slab itself drops, so a loaded pointer stays
    /// valid for the borrow's lifetime.
    dir: Box<[AtomicPtr<Chunk>]>,
    alloc: Mutex<AllocState>,
    live: AtomicU64,
    chunks: AtomicU64,
    /// `k`: a native identifier's region offset names slot `offset mod 2^k`.
    slot_bits: u32,
}

impl Default for UeSlab {
    fn default() -> Self {
        Self::new()
    }
}

impl UeSlab {
    /// A slab whose identifiers name the minimum `2^8` slots.
    pub fn new() -> Self {
        Self::with_population(0)
    }

    /// A slab whose identifiers name `2^k` slots, `k` sized for
    /// `expected_users` (module docs).
    pub fn with_population(expected_users: usize) -> Self {
        UeSlab {
            // SAFETY: an all-zero `AtomicPtr` is the null pointer, so the
            // zeroed slice is a directory of unborn chunks. Its pages stay
            // untouched until a chunk's entry is written.
            dir: unsafe { Box::<[AtomicPtr<Chunk>]>::new_zeroed_slice(MAX_CHUNKS).assume_init() },
            alloc: Mutex::new(AllocState { free: VecDeque::new(), next: 0 }),
            live: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            slot_bits: expected_users.next_power_of_two().trailing_zeros().clamp(8, REGION_SHIFT - 4),
        }
    }

    /// Allocate a slot and initialize it with `ctrl` + `counters` (and
    /// no S1 association). Control-rate: one mutex, no heap traffic unless
    /// a fresh chunk is needed (once per [`CHUNK_SLOTS`] net new users).
    /// `None` when every slot of the region is live.
    pub fn alloc(&self, ctrl: ControlState, counters: CounterState) -> Option<UeHandle> {
        self.alloc_with(|_| Some(ctrl), counters)
    }

    /// [`Self::alloc`], with the control state built by `init` from the
    /// handle the slot will carry, so identifiers can name it. Runs under
    /// the alloc lock; when `init` declines, nothing is allocated.
    pub fn alloc_with(
        &self,
        init: impl FnOnce(UeHandle) -> Option<ControlState>,
        counters: CounterState,
    ) -> Option<UeHandle> {
        let (h, ctrl) = {
            let mut a = self.alloc.lock();
            let index = match a.free.front() {
                Some(&i) => i,
                None => {
                    let entry = self.dir.get(a.next as usize / CHUNK_SLOTS)?;
                    if entry.load(Ordering::Acquire).is_null() {
                        entry.store(new_chunk(), Ordering::Release);
                        self.chunks.fetch_add(1, Ordering::Relaxed);
                    }
                    a.next
                }
            };
            let (c, slot) = self.at(index)?;
            let generation = c.gens[slot].load(Ordering::Relaxed);
            debug_assert_eq!(generation % 2, 0, "allocating a live slot");
            let h = UeHandle::new(generation + 1, index);
            let ctrl = init(h)?;
            if a.free.pop_front().is_none() {
                a.next = index + 1;
            }
            (h, ctrl)
        };
        let (c, slot) = self.at(h.index())?;
        // Re-initialize through the context's own publish protocol (write
        // guard republishes the view; counter publish bumps the cell
        // sequence) so a stale optimistic reader racing this reuse only
        // ever sees protocol-mediated writes, never a raw overwrite.
        let ctx = &c.slots[slot];
        *ctx.ctrl_write() = ctrl;
        ctx.update_counters(|c| *c = counters);
        ctx.set_s1_conn(None);
        c.gens[slot].store(h.generation(), Ordering::Release);
        self.live.fetch_add(1, Ordering::Relaxed);
        Some(h)
    }

    /// How many slots native identifiers name: `2^k`.
    pub fn named_slots(&self) -> u32 {
        1 << self.slot_bits
    }

    /// The region offset `h`'s native identifiers sit at: its tenant
    /// count (mod `2^g`) above its slot. `None` for a slot past `2^k`.
    #[inline]
    pub fn offset_of(&self, h: UeHandle) -> Option<u32> {
        let k = self.slot_bits;
        (h.index() >> k == 0).then(|| ((h.generation() >> 1) << k | h.index()) & ((1 << REGION_SHIFT) - 1))
    }

    /// The live handle in the slot a region offset names, if its tenant
    /// is the one the offset names, and whether the slot is shown
    /// ([`Self::show`]). Lock-free: one generation load, like
    /// [`Self::resolve`].
    #[inline]
    pub fn named(&self, offset: u32) -> Option<(UeHandle, bool)> {
        let index = offset & (self.named_slots() - 1);
        let (c, slot) = self.at(index)?;
        let word = c.gens[slot].load(Ordering::Acquire);
        let h = UeHandle::new(live(word)?, index);
        (self.offset_of(h) == Some(offset)).then_some((h, word & SHOWN != 0))
    }

    /// Set or clear `h`'s shown bit: the data plane's mark that it serves
    /// the slot's user by arithmetic. Only the data thread calls it, and a
    /// free clears the bit. False (nothing changed) for a stale handle.
    pub fn show(&self, h: UeHandle, on: bool) -> bool {
        let Some((c, slot)) = self.at(h.index()) else { return false };
        if live(c.gens[slot].load(Ordering::Acquire)) != Some(h.generation()) {
            return false;
        }
        c.gens[slot].store(h.generation() | if on { SHOWN } else { 0 }, Ordering::Release);
        true
    }

    /// [`Self::prefetch`] for the slot a region offset names.
    #[inline]
    pub fn prefetch_named(&self, offset: u32) {
        self.prefetch(UeHandle::new(0, offset & (self.named_slots() - 1)));
    }

    /// Release a slot to the back of the free queue. Returns false (and does
    /// nothing) if the handle is stale — already freed, or freed and
    /// reallocated to someone else.
    pub fn free(&self, h: UeHandle) -> bool {
        let Some((c, slot)) = self.at(h.index()) else { return false };
        if live(c.gens[slot].load(Ordering::Acquire)) != Some(h.generation()) {
            return false;
        }
        c.gens[slot].store(h.generation().wrapping_add(1) & !SHOWN, Ordering::Release);
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.alloc.lock().free.push_back(h.index());
        true
    }

    /// Resolve a handle to its context. Lock-free (the per-packet path):
    /// two acquire loads and a generation compare. Returns `None` for a
    /// stale handle — the ABA guard.
    #[inline]
    pub fn resolve(&self, h: UeHandle) -> Option<UeRef<'_>> {
        let (c, slot) = self.at(h.index())?;
        (live(c.gens[slot].load(Ordering::Acquire)) == Some(h.generation()))
            .then(|| UeRef { ctx: &c.slots[slot], handle: h })
    }

    /// Hint the lines [`Self::resolve`] and the enforcement pass will
    /// read for `h`: its generation counter and the context's view and
    /// counter cells. Reads only the chunk directory — never `gens` — so
    /// it cannot tell a live handle from a stale one; a handle into an
    /// unborn chunk is a no-op.
    #[inline]
    pub fn prefetch(&self, h: UeHandle) {
        let Some((c, slot)) = self.at(h.index()) else { return };
        crate::prefetch_line(&c.gens[slot]);
        c.slots[slot].prefetch_cells();
    }

    /// The born chunk holding slot `index`, and the slot's place in it.
    #[inline]
    fn at(&self, index: u32) -> Option<(&Chunk, usize)> {
        let p = self.dir.get(index as usize / CHUNK_SLOTS)?.load(Ordering::Acquire);
        // SAFETY: published chunks live until the slab drops.
        (!p.is_null()).then(|| (unsafe { &*p }, index as usize % CHUNK_SLOTS))
    }

    // -- gauges ---------------------------------------------------------------

    /// Live (attached) slots.
    pub fn live_slots(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Slots sitting on the free queue, ready for reuse without heap
    /// traffic.
    pub fn free_slots(&self) -> u64 {
        self.alloc.lock().free.len() as u64
    }

    /// Resident bytes attributable to the slab: born chunks, the
    /// directory pages their entries occupy (chunks are born in index
    /// order), and the free queue.
    pub fn bytes(&self) -> u64 {
        let chunks = self.chunks.load(Ordering::Relaxed);
        let chunk_bytes = chunks * std::mem::size_of::<Chunk>() as u64;
        let dir_bytes = chunks.div_ceil(DIR_ENTRIES_PER_PAGE as u64) * 4096;
        let free_bytes = (self.alloc.lock().free.capacity() * std::mem::size_of::<u32>()) as u64;
        chunk_bytes + dir_bytes + free_bytes
    }

    /// Act as if every slot below `next` were taken (exhaustion tests).
    #[cfg(test)]
    pub(crate) fn skip_to(&self, next: u32) {
        self.alloc.lock().next = next;
    }

    /// Measured bytes per live user — the density audit the capacity
    /// bench gates on. Includes chunk slack, so it converges toward
    /// `size_of::<Chunk>() / CHUNK_SLOTS` as the slab fills.
    pub fn bytes_per_user(&self) -> u64 {
        self.bytes() / self.live_slots().max(1)
    }
}

impl Drop for UeSlab {
    fn drop(&mut self) {
        for d in self.dir.iter() {
            let p = d.load(Ordering::Acquire);
            if p.is_null() {
                continue;
            }
            // SAFETY: exclusive access (`&mut self`); every slot was
            // initialized at chunk birth and is dropped exactly once.
            unsafe {
                let slots = ptr::addr_of_mut!((*p).slots).cast::<UeContext>();
                for i in 0..CHUNK_SLOTS {
                    ptr::drop_in_place(slots.add(i));
                }
                dealloc(p.cast::<u8>(), Layout::new::<Chunk>());
            }
        }
    }
}

// SAFETY: the raw chunk pointers are an ownership detail; all shared
// access goes through `&UeContext` (itself `Sync`), atomics, or the
// alloc mutex.
unsafe impl Send for UeSlab {}
unsafe impl Sync for UeSlab {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(imsi: u64) -> ControlState {
        ControlState::new(imsi)
    }

    #[test]
    fn alloc_resolve_roundtrip() {
        let slab = UeSlab::new();
        let counters = CounterState { uplink_bytes: 777, ..CounterState::default() };
        let h = slab.alloc(ctrl(404_01_0000000001), counters).unwrap();
        let r = slab.resolve(h).expect("fresh handle resolves");
        assert_eq!(r.ctrl_read().imsi, 404_01_0000000001);
        assert_eq!(r.counters().uplink_bytes, 777, "counters travel into the slot");
        assert_eq!(r.handle(), h);
        assert_eq!(slab.live_slots(), 1);
        assert_eq!(slab.free_slots(), 0);
    }

    #[test]
    fn stale_handle_after_free_and_reuse_misses() {
        let slab = UeSlab::new();
        let h1 = slab.alloc(ctrl(1), CounterState::default()).unwrap();
        slab.resolve(h1).unwrap().set_s1_conn(Some(crate::state::S1Conn { mme_ue_id: 1, enb_ue_id: 77 }));
        assert!(slab.free(h1));
        // The freed slot is reused for a different user.
        let h2 = slab.alloc(ctrl(2), CounterState::default()).unwrap();
        assert_eq!(h1.index(), h2.index(), "the free queue reuses the slot");
        assert_ne!(h1, h2, "but the generation differs");
        assert!(slab.resolve(h1).is_none(), "stale handle must miss, not alias");
        assert_eq!(slab.resolve(h2).unwrap().ctrl_read().imsi, 2);
        assert_eq!(slab.resolve(h2).unwrap().s1_conn(), None, "the old tenant's S1 association stays behind");
    }

    #[test]
    fn resident_bytes_follow_the_population_across_chunk_boundaries() {
        let chunk = std::mem::size_of::<Chunk>() as u64;
        for n in [1, CHUNK_SLOTS - 1, CHUNK_SLOTS, CHUNK_SLOTS + 1, 3 * CHUNK_SLOTS + 5] {
            let slab = UeSlab::new();
            let handles: Vec<_> =
                (0..n).map(|i| slab.alloc(ctrl(i as u64), CounterState::default()).unwrap()).collect();
            let born = n.div_ceil(CHUNK_SLOTS);
            let free_list = (slab.alloc.lock().free.capacity() * std::mem::size_of::<u32>()) as u64;
            let bytes = slab.bytes();
            assert!(bytes >= born as u64 * chunk, "{n} users: {bytes} B");
            assert!(bytes <= born as u64 * chunk + 4096 + free_list, "{n} users: {bytes} B");
            for (i, h) in handles.iter().enumerate() {
                assert_eq!(slab.resolve(*h).unwrap().ctrl_read().imsi, i as u64, "{n} users, slot {i}");
            }
            let unborn = UeHandle::new(1, (born * CHUNK_SLOTS) as u32);
            let past_the_directory = UeHandle::new(1, (MAX_CHUNKS * CHUNK_SLOTS) as u32);
            for h in [unborn, past_the_directory] {
                slab.prefetch(h);
                assert!(slab.resolve(h).is_none() && !slab.free(h), "{n} users: {h:?}");
            }
        }
    }

    #[test]
    fn a_full_region_refuses_fresh_slots_and_reuses_freed_ones() {
        let slab = UeSlab::new();
        let capacity = (MAX_CHUNKS * CHUNK_SLOTS) as u32;
        slab.skip_to(capacity - 2);
        let first = slab.alloc(ctrl(1), CounterState::default()).unwrap();
        let last = slab.alloc(ctrl(2), CounterState::default()).unwrap();
        assert_eq!(last.index(), capacity - 1);
        assert!(slab.alloc(ctrl(3), CounterState::default()).is_none(), "every slot of the region is live");
        assert!(slab.free(first));
        let reused = slab.alloc(ctrl(4), CounterState::default()).map(UeHandle::index);
        assert_eq!(reused, Some(first.index()));
        assert_eq!(slab.live_slots(), 2);
    }

    #[test]
    fn aba_guard_holds_across_many_reuse_cycles() {
        let slab = UeSlab::new();
        let mut stale = Vec::new();
        let mut h = slab.alloc(ctrl(0), CounterState::default()).unwrap();
        for imsi in 1..50u64 {
            stale.push(h);
            assert!(slab.free(h));
            h = slab.alloc(ctrl(imsi), CounterState::default()).unwrap();
        }
        for s in &stale {
            assert!(slab.resolve(*s).is_none(), "generation {} aliased", s.generation());
        }
        assert_eq!(slab.resolve(h).unwrap().ctrl_read().imsi, 49);
        assert_eq!(slab.live_slots(), 1);
    }

    #[test]
    fn freed_slots_are_reused_first_in_first_out_and_name_their_next_tenant() {
        let slab = UeSlab::new();
        let hs: Vec<_> = (0..3).map(|i| slab.alloc(ctrl(i), CounterState::default()).unwrap()).collect();
        for &i in &[1, 0, 2] {
            assert!(slab.free(hs[i]));
        }
        let reused: Vec<_> = (0..3).map(|i| slab.alloc(ctrl(10 + i), CounterState::default()).unwrap()).collect();
        assert_eq!(reused.iter().map(|h| h.index()).collect::<Vec<_>>(), [1, 0, 2], "oldest free first");
        for (old, new) in [(hs[1], reused[0]), (hs[0], reused[1])] {
            // Tenant 1 of the slot: one tenant block above tenant 0's name.
            assert_eq!(slab.offset_of(new), slab.offset_of(old).map(|o| o + slab.named_slots()));
            assert_eq!(slab.named(slab.offset_of(new).unwrap()), Some((new, false)));
            assert_eq!(slab.named(slab.offset_of(old).unwrap()), None, "the old name is stale");
        }
        assert!(slab.show(reused[0], true) && !slab.show(hs[1], true), "a stale handle cannot be shown");
        assert_eq!(slab.named(slab.offset_of(reused[0]).unwrap()), Some((reused[0], true)));
        assert!(slab.resolve(reused[0]).is_some(), "the shown bit is not part of the generation");
        assert!(slab.free(reused[0]));
        assert_eq!(slab.named(slab.offset_of(reused[0]).unwrap()), None, "a free clears it");
    }

    #[test]
    fn double_free_is_rejected() {
        let slab = UeSlab::new();
        let h = slab.alloc(ctrl(1), CounterState::default()).unwrap();
        assert!(slab.free(h));
        assert!(!slab.free(h), "second free of the same handle is a no-op");
        assert_eq!(slab.live_slots(), 0);
        assert_eq!(slab.free_slots(), 1);
    }

    #[test]
    fn resolve_rejects_handles_into_unborn_chunks() {
        let slab = UeSlab::new();
        let bogus = UeHandle::from_bits((1u64 << 32) | 1_000_000);
        assert!(slab.resolve(bogus).is_none());
        assert!(!slab.free(bogus));
    }

    #[test]
    fn prefetch_of_a_dead_or_bogus_handle_is_a_no_op() {
        let slab = UeSlab::new();
        let freed = slab.alloc(ctrl(1), CounterState::default()).unwrap();
        assert!(slab.free(freed));
        let stale = slab.alloc(ctrl(2), CounterState::default()).unwrap();
        assert!(slab.free(stale));
        let live = slab.alloc(ctrl(3), CounterState::default()).unwrap();
        assert_eq!(live.index(), stale.index(), "slot reused: `stale` now names another tenant's slot");
        let (view, counters) = {
            let r = slab.resolve(live).unwrap();
            (r.view_version(), r.counters_version())
        };
        let unborn_chunk = UeHandle::from_bits((1u64 << 32) | 1_000_000);
        let past_the_directory = UeHandle::from_bits((1u64 << 32) | u64::from(u32::MAX));
        for h in [freed, stale, live, unborn_chunk, past_the_directory] {
            slab.prefetch(h);
        }
        assert!(slab.resolve(freed).is_none() && slab.resolve(stale).is_none());
        assert!(slab.resolve(unborn_chunk).is_none() && slab.resolve(past_the_directory).is_none());
        let r = slab.resolve(live).unwrap();
        assert_eq!((r.view_version(), r.counters_version()), (view, counters));
        assert_eq!((slab.live_slots(), slab.free_slots()), (1, 0));
    }

    #[test]
    fn slots_span_chunk_boundaries() {
        let slab = UeSlab::new();
        let n = CHUNK_SLOTS + 3;
        let handles: Vec<_> = (0..n).map(|i| slab.alloc(ctrl(i as u64), CounterState::default()).unwrap()).collect();
        assert_eq!(slab.live_slots(), n as u64);
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(slab.resolve(*h).unwrap().ctrl_read().imsi, i as u64);
        }
        assert!(slab.bytes() >= 2 * std::mem::size_of::<Chunk>() as u64, "two chunks resident");
    }

    #[test]
    fn gauges_track_alloc_and_free() {
        let slab = UeSlab::new();
        let hs: Vec<_> = (0..100).map(|i| slab.alloc(ctrl(i), CounterState::default()).unwrap()).collect();
        assert_eq!(slab.live_slots(), 100);
        let per_user = slab.bytes_per_user();
        assert!(per_user >= std::mem::size_of::<UeContext>() as u64);
        for h in &hs[..90] {
            assert!(slab.free(*h));
        }
        assert_eq!(slab.live_slots(), 10);
        assert_eq!(slab.free_slots(), 90);
    }

    #[test]
    fn reuse_republishes_through_the_seqlock_protocol() {
        let slab = UeSlab::new();
        let h1 = slab.alloc(ctrl(1), CounterState::default()).unwrap();
        let v1 = slab.resolve(h1).unwrap().view_version();
        slab.free(h1);
        let h2 = slab.alloc(ctrl(2), CounterState::default()).unwrap();
        let r = slab.resolve(h2).unwrap();
        assert!(r.view_version() > v1, "slot reuse must bump the view sequence, not bypass it");
        assert_eq!(r.view_version() % 2, 0, "no publish left half-finished");
        assert_eq!(r.counters_version() % 2, 0);
    }

    #[test]
    fn handle_roundtrips_through_bits() {
        let slab = UeSlab::new();
        let h = slab.alloc(ctrl(9), CounterState::default()).unwrap();
        let back = UeHandle::from_bits(h.bits());
        assert_eq!(back, h);
        assert_eq!(slab.resolve(back).unwrap().ctrl_read().imsi, 9);
    }
}
