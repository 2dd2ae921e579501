//! Incrementally-resizing open-addressing table (DESIGN.md §16).
//!
//! The std `HashMap` doubles by rehashing *everything at once*: at 5M
//! entries that is a multi-hundred-millisecond stop-the-world stall on
//! whichever thread's insert crossed the load threshold — a rehash spike
//! the capacity bench (fig 5 extension) would show as an attach-latency
//! cliff mid-ramp. [`IncrementalTable`] amortizes resizing instead:
//!
//! * Two internal open-addressing arrays: `live` (where inserts land)
//!   and an optional `old` being drained.
//! * Crossing the grow threshold (3/4 load — kept moderate because the
//!   old array's probe chains are frozen at swap time, and every insert
//!   during a drain pays one absent-key probe there) swaps `live` into
//!   `old` and allocates a double-size `live`; crossing the shrink
//!   threshold (1/8 load, after mass detach) does the same with a
//!   smaller `live`.
//! * Every subsequent **mutating** operation migrates at most
//!   `MIGRATE_STEP` old buckets — a bounded number of relocations per
//!   insert — until `old` is empty and dropped. Lookups probe `live`
//!   then `old`; reads never relocate (the per-packet path stays
//!   read-only).
//!
//! Layout: one array of buckets, each `{ tag: u64, val: V }` — 16 B for
//! the 8-byte handles and ids every table in the tree stores, so four
//! buckets share a cache line and a probe usually reads exactly one line.
//! The tag is the key's complement: tag 0 means empty (a zeroed
//! allocation is an all-empty array, no write pass) and tag 1 a
//! tombstone. Keys hash through the splitmix64 finalizer. The `live`
//! array uses backward-shift deletion (no tombstones, probe chains never
//! rot); the `old` array tombstones drained/removed buckets since it only
//! ever shrinks.
//!
//! **Reserved keys:** `u64::MAX` and `u64::MAX − 1` (the complements of
//! the two marker tags) can never be stored; lookups of them miss.
//! Callers that index outside input check [`is_reserved_key`] first.
//!
//! Not internally synchronized: like [`crate::twolevel::TwoLevelTable`]
//! (which this backs) it belongs to exactly one thread.

use crate::twolevel::splitmix64;
use std::mem::MaybeUninit;

/// Old buckets migrated per mutating operation. Total drain work per
/// doubling is fixed (every old bucket relocates once), so the step
/// only chooses between many mildly-slow migrating inserts and few
/// slower ones. Small steps stretch each drain across most of the
/// inter-growth window — several percent of all inserts then pay extra
/// cache misses (an old-array probe plus relocations), which lands
/// growth squarely in the attach p99 the capacity bench gates (ramp p99
/// ≤ 5× steady p99). 512 finishes a drain in cap/512 inserts, ≈ 0.5%
/// of the ≈ 3/4 × cap-insert window a grow leaves — outside the p99 —
/// while the worst single attach stays bounded and *table-size
/// independent* at 512 bucket scans (tens of µs; a stop-the-world
/// rehash at 10M users is ~4 orders of magnitude worse). Idle
/// `maintain()` calls (slice tick / sync) finish drains sooner still.
const MIGRATE_STEP: usize = 512;

/// Smallest capacity the table shrinks to.
const MIN_CAP: usize = 16;

/// Tag of a never-used bucket (the complement of `u64::MAX`).
const EMPTY: u64 = 0;
/// Tag of a drained/removed bucket in the `old` array (the complement
/// of `u64::MAX − 1`).
const TOMB: u64 = 1;

/// Whether `key` is one of the two keys the bucket encoding reserves
/// (`u64::MAX`, `u64::MAX − 1`): such a key can never be stored.
pub fn is_reserved_key(key: u64) -> bool {
    !key <= TOMB
}

/// One slot: the key's complement and the value, side by side so a
/// probe's key compare and the value read share a line.
struct Bucket<V> {
    tag: u64,
    val: MaybeUninit<V>,
}

// The tables of the data path store 8-byte slab handles: four buckets
// to a cache line.
const _: () = assert!(std::mem::size_of::<Bucket<crate::slab::UeHandle>>() == 16);

impl<V> Bucket<V> {
    #[inline]
    fn full(&self) -> bool {
        self.tag > TOMB
    }
}

/// A bucket location from [`IncrementalTable::locate`]; valid until the
/// next mutating call.
#[derive(Debug, Clone, Copy)]
pub struct Loc {
    in_old: bool,
    idx: usize,
}

struct RawTable<V> {
    buckets: Box<[Bucket<V>]>,
    len: usize,
    mask: usize,
}

impl<V> RawTable<V> {
    fn with_capacity(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two() && cap >= MIN_CAP);
        // SAFETY: an all-zero bucket is valid — tag 0 (`EMPTY`) and an
        // uninitialized value — so the zeroed slice is an empty array.
        let buckets = unsafe { Box::<[Bucket<V>]>::new_zeroed_slice(cap).assume_init() };
        RawTable { buckets, len: 0, mask: cap - 1 }
    }

    fn capacity(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn ideal(&self, key: u64) -> usize {
        splitmix64(key) as usize & self.mask
    }

    /// Probe for `key`: skips tombstones, stops at the first empty
    /// bucket. Works for both the tombstone-free `live` array and the
    /// tombstoned `old` array; a reserved key never matches a marker.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let tag = !key;
        if self.len == 0 || tag <= TOMB {
            return None;
        }
        let mut i = self.ideal(key);
        loop {
            match self.buckets[i].tag {
                EMPTY => return None,
                t if t == tag => return Some(i),
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Insert into a tombstone-free array (`live` only). Returns the
    /// previous value if the key was present.
    fn insert(&mut self, key: u64, val: V) -> Option<V> {
        let tag = !key;
        let mut i = self.ideal(key);
        loop {
            let b = &mut self.buckets[i];
            match b.tag {
                EMPTY => {
                    *b = Bucket { tag, val: MaybeUninit::new(val) };
                    self.len += 1;
                    return None;
                }
                // SAFETY: a bucket tagged with a key holds its value.
                t if t == tag => return Some(std::mem::replace(unsafe { b.val.assume_init_mut() }, val)),
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Remove by backward-shifting the rest of the probe cluster (`live`
    /// only — keeps the array tombstone-free so probe chains never rot).
    fn remove_shift(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        // SAFETY: `find` only returns full buckets.
        let out = unsafe { self.buckets[hole].val.assume_init_read() };
        let mask = self.mask;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            if !self.buckets[j].full() {
                break;
            }
            // An element may fill the hole iff its ideal bucket is not
            // in the (cyclic) gap between the hole and it — the standard
            // Robin-Hood/backward-shift condition.
            let ideal = self.ideal(!self.buckets[j].tag);
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(hole) & mask) {
                // SAFETY: relocating a bucket bitwise; the source is
                // overwritten or emptied below, and `Bucket` has no drop.
                self.buckets[hole] = unsafe { std::ptr::read(&self.buckets[j]) };
                hole = j;
            }
        }
        self.buckets[hole].tag = EMPTY;
        self.len -= 1;
        Some(out)
    }

    /// Remove by tombstoning (`old` only — it is drain-only, so rotting
    /// chains cost nothing: the array dies as soon as the scan finishes).
    fn remove_tomb(&mut self, key: u64) -> Option<V> {
        self.take_at(self.find(key)?).map(|(_, v)| v)
    }

    /// Take the contents of bucket `i` if it is full, tombstoning it
    /// (migration drain and `old`-array removal).
    fn take_at(&mut self, i: usize) -> Option<(u64, V)> {
        let b = &mut self.buckets[i];
        if !b.full() {
            return None;
        }
        let key = !std::mem::replace(&mut b.tag, TOMB);
        self.len -= 1;
        // SAFETY: the bucket was full, and its tag now marks it taken.
        Some((key, unsafe { b.val.assume_init_read() }))
    }
}

impl<V> Drop for RawTable<V> {
    fn drop(&mut self) {
        if std::mem::needs_drop::<V>() {
            for b in self.buckets.iter_mut().filter(|b| b.full()) {
                // SAFETY: full buckets hold initialized values.
                unsafe { b.val.assume_init_drop() };
            }
        }
    }
}

/// `u64 → V` map with `HashMap`-compatible semantics and bounded-work
/// resizing. See the module docs.
pub struct IncrementalTable<V> {
    live: RawTable<V>,
    old: Option<RawTable<V>>,
    /// Drain cursor into `old`.
    scan: usize,
}

impl<V> Default for IncrementalTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> IncrementalTable<V> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-size for `expected` entries (rounded so the grow threshold is
    /// not crossed while filling to `expected`).
    pub fn with_capacity(expected: usize) -> Self {
        let cap = (expected.saturating_mul(4) / 3 + 1).next_power_of_two().max(MIN_CAP);
        IncrementalTable { live: RawTable::with_capacity(cap), old: None, scan: 0 }
    }

    pub fn len(&self) -> usize {
        self.live.len + self.old.as_ref().map_or(0, |o| o.len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bucket count across both arrays.
    pub fn capacity(&self) -> usize {
        self.live.capacity() + self.old.as_ref().map_or(0, RawTable::capacity)
    }

    /// Resident bytes: one bucket per slot, both arrays.
    pub fn bytes(&self) -> u64 {
        (self.capacity() * std::mem::size_of::<Bucket<V>>()) as u64
    }

    /// Whether an incremental migration is in progress.
    pub fn is_migrating(&self) -> bool {
        self.old.is_some()
    }

    /// Locate `key` without touching it. The returned [`Loc`] is
    /// invalidated by any mutating call.
    #[inline]
    pub fn locate(&self, key: u64) -> Option<Loc> {
        if let Some(i) = self.live.find(key) {
            return Some(Loc { in_old: false, idx: i });
        }
        let i = self.old.as_ref()?.find(key)?;
        Some(Loc { in_old: true, idx: i })
    }

    /// Hint the one line (key tag and value together) a probe for `key`
    /// starts on in the live array. Pure address arithmetic: no load, no
    /// side effect. A key still in the draining array is not covered.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        crate::prefetch_line(self.live.buckets.as_ptr().wrapping_add(self.live.ideal(key)));
    }

    /// Read the value at a [`Loc`] from [`Self::locate`] (`None` if a
    /// mutation since left it on an empty or taken bucket).
    #[inline]
    pub fn at(&self, loc: Loc) -> Option<&V> {
        let t = match &self.old {
            Some(old) if loc.in_old => old,
            _ => &self.live,
        };
        let b = &t.buckets[loc.idx];
        // SAFETY: a full bucket always holds an initialized value.
        b.full().then(|| unsafe { b.val.assume_init_ref() })
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.locate(key).and_then(|l| self.at(l))
    }

    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.locate(key).is_some()
    }

    /// Insert (`HashMap` semantics: returns the displaced value). Also
    /// performs one bounded migration step and, if the load threshold is
    /// crossed, *begins* a grow — never a full rehash.
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        debug_assert!(!is_reserved_key(key), "reserved key {key:#x}");
        // The key may still sit in the draining array; evict it first so
        // it never exists in both.
        let displaced = self.old.as_mut().and_then(|o| o.remove_tomb(key));
        let prev = self.live.insert(key, val).or(displaced);
        self.migrate_step();
        if self.live.len * 4 >= self.live.capacity() * 3 {
            let cap = self.live.capacity() * 2;
            self.begin_resize(cap);
        }
        prev
    }

    /// Remove (`HashMap` semantics). Also steps migration and, on low
    /// occupancy, begins a shrink so mass detach releases memory.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let out = match self.live.remove_shift(key) {
            Some(v) => Some(v),
            None => self.old.as_mut().and_then(|o| o.remove_tomb(key)),
        };
        self.migrate_step();
        if out.is_some()
            && self.old.is_none()
            && self.live.capacity() > MIN_CAP
            && self.live.len * 8 < self.live.capacity()
        {
            let cap = (self.live.len * 2).next_power_of_two().max(MIN_CAP);
            self.begin_resize(cap);
        }
        out
    }

    /// Run one bounded migration step without mutating any entry. The
    /// owner may call this when idle to finish a drain sooner.
    pub fn maintain(&mut self) {
        self.migrate_step();
    }

    /// Iterate all entries (live array first, then the draining one).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        fn walk<V>(t: &RawTable<V>) -> Vec<(u64, &V)> {
            // SAFETY: full buckets hold initialized values.
            t.buckets.iter().filter(|b| b.full()).map(|b| (!b.tag, unsafe { b.val.assume_init_ref() })).collect()
        }
        walk(&self.live).into_iter().chain(self.old.as_ref().map(walk).unwrap_or_default())
    }

    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Swap `live` into the drain position and start a fresh array. If a
    /// drain is already running (double resize — only reachable through
    /// pathological flapping) it is finished first; that backstop is the
    /// sole non-amortized path.
    fn begin_resize(&mut self, cap: usize) {
        while self.old.is_some() {
            self.migrate_step();
        }
        let old = std::mem::replace(&mut self.live, RawTable::with_capacity(cap));
        self.scan = 0;
        if old.len > 0 {
            self.old = Some(old);
        }
    }

    /// Relocate at most [`MIGRATE_STEP`] old buckets into `live`.
    fn migrate_step(&mut self) {
        let Some(old) = self.old.as_mut() else { return };
        let cap = old.capacity();
        let mut budget = MIGRATE_STEP;
        while self.scan < cap && budget > 0 {
            if let Some((k, v)) = old.take_at(self.scan) {
                let clash = self.live.insert(k, v);
                debug_assert!(clash.is_none(), "key live in both arrays");
            }
            self.scan += 1;
            budget -= 1;
        }
        if self.scan >= cap || old.len == 0 {
            self.old = None;
            self.scan = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = IncrementalTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(7, "a"), None);
        assert_eq!(t.insert(7, "b"), Some("a"), "replace returns the old value");
        assert_eq!(t.get(7), Some(&"b"));
        assert!(t.contains_key(7));
        assert_eq!(t.remove(7), Some("b"));
        assert_eq!(t.remove(7), None);
        assert!(t.get(7).is_none());
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut t = IncrementalTable::with_capacity(0);
        const N: u64 = 10_000;
        for k in 0..N {
            t.insert(k, k * 3);
        }
        assert_eq!(t.len(), N as usize);
        for k in 0..N {
            assert_eq!(t.get(k), Some(&(k * 3)), "key {k} lost across incremental growth");
        }
    }

    #[test]
    fn growth_is_incremental_not_stop_the_world() {
        // Crossing the load threshold must leave the old array draining,
        // not rehash everything inside one insert.
        let mut t = IncrementalTable::with_capacity(0);
        let mut k = 0u64;
        while !t.is_migrating() {
            t.insert(k, k);
            k += 1;
            assert!(k < 100_000, "never grew");
        }
        // All entries remain reachable mid-drain.
        for i in 0..k {
            assert_eq!(t.get(i), Some(&i));
        }
        // A bounded number of further ops completes the drain.
        let mut steps = 0;
        while t.is_migrating() {
            t.maintain();
            steps += 1;
            assert!(steps < 10_000, "drain never completes");
        }
        for i in 0..k {
            assert_eq!(t.get(i), Some(&i));
        }
    }

    #[test]
    fn mass_detach_releases_capacity() {
        // The regression the satellite task pins: tables must shrink
        // after mass detach, not hold peak capacity forever.
        let mut t = IncrementalTable::new();
        const N: u64 = 10_000;
        for k in 0..N {
            t.insert(k, k);
        }
        let peak_cap = t.capacity();
        let peak_bytes = t.bytes();
        for k in 0..(N * 9 / 10) {
            assert_eq!(t.remove(k), Some(k));
        }
        while t.is_migrating() {
            t.maintain();
        }
        assert!(t.capacity() <= peak_cap / 4, "capacity {} did not fall from peak {peak_cap}", t.capacity());
        assert!(t.bytes() <= peak_bytes / 4);
        for k in (N * 9 / 10)..N {
            assert_eq!(t.get(k), Some(&k), "survivor {k} lost in shrink");
        }
    }

    #[test]
    fn shrink_stops_at_minimum_capacity() {
        let mut t = IncrementalTable::new();
        for k in 0..100u64 {
            t.insert(k, ());
        }
        for k in 0..100u64 {
            t.remove(k);
        }
        while t.is_migrating() {
            t.maintain();
        }
        assert!(t.capacity() >= MIN_CAP);
        assert!(t.is_empty());
    }

    #[test]
    fn locate_at_roundtrip_in_both_arrays() {
        let mut t = IncrementalTable::with_capacity(0);
        let mut k = 0u64;
        while !t.is_migrating() {
            t.insert(k, k + 100);
            k += 1;
        }
        let mut seen_old = false;
        for i in 0..k {
            let loc = t.locate(i).unwrap();
            seen_old |= loc.in_old;
            assert_eq!(t.at(loc), Some(&(i + 100)));
        }
        assert!(seen_old, "drain still had entries to exercise the old-array path");
    }

    #[test]
    fn reserved_keys_never_match_a_marker_bucket() {
        // A draining array: every bucket tombstoned (tag 1) but one full
        // and one empty (tag 0). The two keys whose complements those
        // tags are must miss, not return a marker bucket.
        let mut t = RawTable::with_capacity(MIN_CAP);
        for k in 0..MIN_CAP as u64 - 1 {
            t.insert(k, k);
        }
        let probe = t.ideal(u64::MAX - 1);
        let keep = (0..MIN_CAP).find(|&i| i != probe && t.buckets[i].full()).unwrap();
        for i in (0..MIN_CAP).filter(|&i| i != keep) {
            t.take_at(i);
        }
        assert_eq!(t.buckets[probe].tag, TOMB, "the probe starts on a tombstone");
        for key in [u64::MAX, u64::MAX - 1] {
            assert!(is_reserved_key(key));
            assert_eq!(t.find(key), None);
        }
        assert!(!is_reserved_key(u64::MAX - 2));
    }

    #[test]
    fn iter_covers_both_arrays_exactly_once() {
        let mut t = IncrementalTable::with_capacity(0);
        let mut k = 0u64;
        while !t.is_migrating() {
            t.insert(k, ());
            k += 1;
        }
        let mut keys: Vec<u64> = t.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..k).collect::<Vec<_>>());
    }

    #[test]
    fn values_drop_exactly_once() {
        use std::rc::Rc;
        let marker = Rc::new(());
        {
            let mut t = IncrementalTable::new();
            for k in 0..1000u64 {
                t.insert(k, Rc::clone(&marker));
            }
            for k in 0..500u64 {
                t.remove(k);
            }
            assert_eq!(Rc::strong_count(&marker), 501);
        }
        assert_eq!(Rc::strong_count(&marker), 1, "drop imbalance across resize/tombstone paths");
    }

    // Differential property: byte-equal behavior vs the std HashMap
    // model under arbitrary op sequences (the satellite-task pin).
    mod differential {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Insert(u64, u64),
            Remove(u64),
            Get(u64),
            Maintain,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            // Small key space so inserts/removes/gets collide often, plus
            // the two largest storable keys (their tags sit just above the
            // marker tags).
            let key = || prop_oneof![0u64..64, (u64::MAX - 3)..(u64::MAX - 1)];
            prop_oneof![
                (key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
                key().prop_map(Op::Remove),
                key().prop_map(Op::Get),
                Just(Op::Maintain),
            ]
        }

        proptest! {
            #[test]
            fn matches_hashmap_model(ops in proptest::collection::vec(op_strategy(), 0..400)) {
                let mut t: IncrementalTable<u64> = IncrementalTable::new();
                let mut m: HashMap<u64, u64> = HashMap::new();
                for op in ops {
                    match op {
                        Op::Insert(k, v) => prop_assert_eq!(t.insert(k, v), m.insert(k, v)),
                        Op::Remove(k) => prop_assert_eq!(t.remove(k), m.remove(&k)),
                        Op::Get(k) => prop_assert_eq!(t.get(k).copied(), m.get(&k).copied()),
                        Op::Maintain => t.maintain(),
                    }
                    prop_assert_eq!(t.len(), m.len());
                }
                let mut got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (k, *v)).collect();
                let mut want: Vec<(u64, u64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
    }
}
