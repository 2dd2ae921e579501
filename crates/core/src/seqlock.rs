//! Sequence-lock cells — the single-writer publication protocol behind
//! [`crate::state::UeContext`].
//!
//! The paper's state refactoring (§2.3, §4.2) gives every piece of
//! per-user state exactly one writer. A classic reader/writer lock spends
//! two atomic read-modify-writes per acquisition *even when uncontended*,
//! and that cost lands on the per-packet path. With a single writer we
//! can do better: publish under an even/odd **sequence counter**
//! (a seqlock) so readers pay two plain loads and a copy, and writers pay
//! two plain stores — no RMW on either side.
//!
//! Protocol:
//!
//! * the writer bumps `seq` to odd, writes the payload, bumps `seq` to
//!   even (release);
//! * a reader loads `seq` (acquire), copies the payload, re-loads `seq`:
//!   if the value was odd or changed, the copy may be torn and is
//!   discarded and retried.
//!
//! Writers are **not** serialized by the cell — that is the caller's
//! contract (the single-writer discipline of Table 1, or an external
//! lock, as [`crate::slab::UeRef::ctrl_write`] does). A `debug_assert`
//! in [`SeqCell::publish`] catches violations in test builds.
//!
//! The payload is copied one 64-bit word at a time (see [`SeqPayload`]),
//! each word a `Relaxed` atomic load or store (a plain `mov` on x86-64),
//! with fences ordering the words against the sequence. A reader racing a
//! writer may copy a torn payload but makes no data race, which a plain
//! or volatile copy would, undefined behaviour even if the copy is then
//! discarded. Word copies also beat per-field ones ~3× on the
//! control-view payload.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Payload contract for [`SeqCell`].
///
/// # Safety
///
/// Implementors guarantee, on top of `Copy`:
///
/// * **any bit pattern is a valid value** (all-integer: no `bool`, no
///   enums, no references, no niches) — a reader's copy of a mid-write
///   cell is torn, and although always discarded, materializing it must
///   not be undefined behaviour;
/// * **no padding bytes** (every byte initialized) and **size a nonzero
///   multiple of 8, alignment ≥ 8** — the cell copies payloads as whole
///   `u64` words.
pub unsafe trait SeqPayload: Copy {}

// SAFETY: integers and integer arrays — any bit pattern valid, no
// padding; the word-size/alignment requirements are checked by the
// `WORDS` const assertion at first use.
unsafe impl SeqPayload for u64 {}
unsafe impl<const N: usize> SeqPayload for [u64; N] {}

/// How many torn/odd observations a bounded read tolerates before giving
/// up. Writers hold the sequence odd for a handful of stores, so any
/// honest retry resolves in one or two attempts; hitting the limit means
/// pathological writer interference (or a descheduled writer) and the
/// caller should take its fallback path.
pub const READ_RETRY_LIMIT: u32 = 64;

/// A single-writer seqlock cell.
///
/// Cache-line aligned so two adjacent cells (the control-view cell and
/// the counter cell of one user) never false-share: the data thread
/// hammers one while the control thread reads the other.
#[repr(C, align(64))]
pub struct SeqCell<T: SeqPayload> {
    /// Even = stable, odd = write in progress.
    seq: AtomicU64,
    data: UnsafeCell<T>,
}

// SAFETY: shared access to `data` is whole-word atomic and mediated by
// the sequence protocol above — readers discard any copy whose
// bracketing sequence loads disagree, and writers are serialized by the
// caller's single-writer contract. `T: SeqPayload` (no drop, no interior
// references, all bit patterns valid) makes a torn copy a valid value.
unsafe impl<T: SeqPayload + Send> Sync for SeqCell<T> {}

impl<T: SeqPayload> SeqCell<T> {
    /// Payload size in 64-bit words; evaluating it enforces the
    /// [`SeqPayload`] size/alignment contract at compile (monomorphization)
    /// time.
    const WORDS: usize = {
        assert!(std::mem::size_of::<T>() != 0 && std::mem::size_of::<T>().is_multiple_of(8));
        assert!(std::mem::align_of::<T>() >= 8 && std::mem::align_of::<T>() <= 64);
        std::mem::size_of::<T>() / 8
    };

    pub fn new(value: T) -> Self {
        SeqCell { seq: AtomicU64::new(0), data: UnsafeCell::new(value) }
    }

    /// Current sequence value (even = stable; odd = in-write).
    pub fn version(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// One optimistic read attempt: `None` if a write was in progress or
    /// raced the copy.
    #[inline]
    pub fn try_read(&self) -> Option<T> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 != 0 {
            return None;
        }
        // SAFETY: `WORDS` makes the payload exactly `WORDS` 8-aligned
        // words, so each `from_ptr` names one aligned word of the cell,
        // which is only ever accessed as a whole-word atomic (here and in
        // `publish`). A racing `publish` can therefore tear the copy
        // between words but never make it a data race; the sequence
        // re-check below discards a torn copy, and `T`'s
        // any-bit-pattern contract ([`SeqPayload`]) makes it a valid `T`
        // until then.
        let v = unsafe {
            let mut out = MaybeUninit::<T>::uninit();
            let src = self.data.get() as *mut u64;
            let dst = out.as_mut_ptr() as *mut u64;
            for i in 0..Self::WORDS {
                dst.add(i).write(AtomicU64::from_ptr(src.add(i)).load(Ordering::Relaxed));
            }
            out.assume_init()
        };
        // Order the payload copy before the confirming sequence load.
        fence(Ordering::Acquire);
        let s2 = self.seq.load(Ordering::Relaxed);
        (s1 == s2).then_some(v)
    }

    /// Retry [`Self::try_read`] up to `limit` extra times. `Ok((value,
    /// retries))` on success; `Err(retries)` when the cell stayed
    /// unreadable.
    #[inline]
    pub fn read_bounded(&self, limit: u32) -> Result<(T, u32), u32> {
        let mut retries = 0;
        loop {
            if let Some(v) = self.try_read() {
                return Ok((v, retries));
            }
            if retries >= limit {
                return Err(retries);
            }
            retries += 1;
            std::hint::spin_loop();
        }
    }

    /// Read, retrying until consistent. Returns the value and the retry
    /// count. For cells that are never held odd for long (the counter
    /// cell: publishes are a few stores); after a spin budget each retry
    /// also yields so a descheduled writer (single-CPU hosts) can finish
    /// its two-store window.
    #[inline]
    pub fn read(&self) -> (T, u32) {
        let mut retries = 0u32;
        loop {
            if let Some(v) = self.try_read() {
                return (v, retries);
            }
            retries = retries.saturating_add(1);
            if retries < 1 << 10 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Writer-side publish: bump odd, store, bump even. The caller must
    /// be the cell's only concurrent writer (single-writer discipline or
    /// an external lock).
    #[inline]
    pub fn publish(&self, value: T) {
        let s = self.seq.load(Ordering::Relaxed);
        debug_assert_eq!(s & 1, 0, "SeqCell::publish from a second writer");
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        // Order the odd marker before the payload stores.
        fence(Ordering::Release);
        // SAFETY: the sequence is odd, so every concurrent reader will
        // discard copies taken during this window; the single-writer
        // contract excludes concurrent writers. `SeqPayload` (no padding,
        // size/alignment via `WORDS`) makes the word view of `value`
        // fully initialized and exact, and each cell word is stored as a
        // whole-word atomic, as `try_read` loads it.
        unsafe {
            let src = &value as *const T as *const u64;
            let dst = self.data.get() as *mut u64;
            for i in 0..Self::WORDS {
                AtomicU64::from_ptr(dst.add(i)).store(src.add(i).read(), Ordering::Relaxed);
            }
        }
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }
}

impl<T: SeqPayload> std::fmt::Debug for SeqCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqCell").field("seq", &self.version()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_read_roundtrips() {
        let c = SeqCell::new([1u64, 2, 3]);
        assert_eq!(c.try_read(), Some([1, 2, 3]));
        c.publish([4, 5, 6]);
        let (v, retries) = c.read();
        assert_eq!(v, [4, 5, 6]);
        assert_eq!(retries, 0, "uncontended reads never retry");
        assert_eq!(c.version(), 2, "one publish = two sequence bumps");
    }

    #[test]
    fn bounded_read_reports_zero_retries_when_stable() {
        let c = SeqCell::new(9u64);
        assert_eq!(c.read_bounded(READ_RETRY_LIMIT), Ok((9, 0)));
    }

    #[test]
    fn cell_is_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<SeqCell<u64>>(), 64);
        assert_eq!(std::mem::size_of::<SeqCell<u64>>(), 64);
    }

    #[test]
    fn concurrent_writer_never_tears_a_read() {
        // Writer publishes pairs (i, !i); any torn read breaks the
        // invariant. Smoke-level here; the heavy version lives in
        // tests/seqlock_stress.rs.
        let c = std::sync::Arc::new(SeqCell::new([0u64, !0u64]));
        let w = std::sync::Arc::clone(&c);
        let writer = std::thread::spawn(move || {
            for i in 0..200_000u64 {
                w.publish([i, !i]);
            }
        });
        let mut reads = 0u64;
        while reads < 200_000 {
            let ([a, b], _) = c.read();
            assert_eq!(b, !a, "torn read: {a:#x} / {b:#x}");
            reads += 1;
        }
        writer.join().unwrap();
    }
}
