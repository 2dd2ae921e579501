//! Two-level (primary/secondary) state tables — paper §3.2, §4.2, §7.3.
//!
//! "Many current EPC implementations store all user state in a single
//! table. As the number of user devices grows, this table is poorly
//! contained by the CPU cache and hence performance drops." PEPC instead
//! keeps a small **primary** table holding only *active* devices — the
//! one the data plane hits per packet — and a **secondary** table holding
//! everyone else. Idle devices are demoted on a timeout; a packet for a
//! demoted device promotes it back.
//!
//! Ownership note (documented substitution): the paper places the
//! secondary table with the control thread and has the data plane query
//! it on a miss. Here both levels live in the structure owned by the data
//! thread and promotion happens in-line at the miss; the control thread
//! triggers demotion via the slice's command channel. The cache behaviour
//! under measurement — per-packet lookups touching a table sized by
//! *active* users instead of *all* users — is identical, without a
//! synchronous cross-thread round-trip per miss.
//!
//! Both levels are backed by [`IncrementalTable`] (DESIGN.md §16): a
//! mass-attach ramp grows them a bounded number of relocations at a
//! time (no stop-the-world rehash on the data path), and a mass detach
//! shrinks them back instead of holding peak capacity forever. Both
//! start at the minimum size and grow by pure doubling, with no landing
//! step: at the ≈ 3/4 load a landing leaves, 22 % of lookups cross into a
//! second, unprefetched bucket line (10 % at the doubling chain's load),
//! which cost `data_cold` +11 % ns/packet and +15 % burst p99. The
//! per-packet index trades those bytes for one line per probe.
//!
//! The table is generic over the value (the slice's data plane stores
//! slab [`crate::slab::UeHandle`]s under both its uplink and downlink
//! keys) and is **not** internally synchronized: it belongs to exactly
//! one thread, per PEPC's single-writer discipline.

use crate::inctable::IncrementalTable;
use std::hash::{BuildHasherDefault, Hasher};

/// splitmix64 finalizer (Vigna) — bijective, full avalanche, a few
/// cycles. Shared by [`KeyHasher`] and the [`IncrementalTable`] probe.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hasher for integer keys (TEIDs / UE IPs widened to u64) in the std
/// `HashMap`s that remain on control-rate paths.
///
/// The default SipHash costs more per lookup than the probe itself on
/// this path — and its DoS hardening buys nothing here: keys are
/// operator-assigned tunnel identifiers, not attacker-chosen input. One
/// splitmix64 finalizer pass gives full-avalanche mixing at a few
/// cycles.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(x);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.0 = splitmix64(u64::from(x));
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u64-keyed maps): FNV-1a.
        let mut h = if self.0 == 0 { 0xCBF2_9CE4_8422_2325 } else { self.0 };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
    }
}

/// `BuildHasher` plugging [`KeyHasher`] into the std `HashMap`.
pub type BuildKeyHasher = BuildHasherDefault<KeyHasher>;

/// Counters describing table churn, used by the Figure 14 harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoLevelStats {
    pub primary_hits: u64,
    pub promotions: u64,
    pub demotions: u64,
    pub misses: u64,
}

/// A primary/secondary keyed table (the data plane's keys: region
/// offsets, or TEIDs and UE IPs tagged by direction).
///
/// The table keeps no activity stamps: a primary hit reads one bucket
/// and writes nothing. Idleness is the value owner's to report (the data
/// plane reads each user's counter cell) through [`Self::evict_idle`].
pub struct TwoLevelTable<V> {
    primary: IncrementalTable<V>,
    secondary: IncrementalTable<V>,
    /// When false, the table degenerates to a single flat table (the
    /// baseline of Figure 14): everything lives in `primary` and nothing
    /// is ever demoted.
    enabled: bool,
    idle_timeout_ns: u64,
    stats: TwoLevelStats,
}

impl<V> TwoLevelTable<V> {
    /// A two-level table demoting entries idle for `idle_timeout_ns`.
    /// The population hint is unused: both levels double from the
    /// minimum size (module docs), and nothing is reserved up front.
    pub fn new(_expected_users: usize, idle_timeout_ns: u64) -> Self {
        TwoLevelTable {
            primary: IncrementalTable::new(),
            secondary: IncrementalTable::new(),
            enabled: true,
            idle_timeout_ns,
            stats: TwoLevelStats::default(),
        }
    }

    /// A single flat table (two-level machinery disabled) — the
    /// comparison baseline.
    pub fn new_single() -> Self {
        TwoLevelTable {
            primary: IncrementalTable::new(),
            secondary: IncrementalTable::new(),
            enabled: false,
            idle_timeout_ns: u64::MAX,
            stats: TwoLevelStats::default(),
        }
    }

    /// Insert an *active* user (fresh attach): goes to the primary table.
    /// The clock argument is unused (activity lives with the value's
    /// owner), as in [`Self::get`]. Returns the value the key held
    /// before, from either table.
    pub fn insert_active(&mut self, key: u64, value: V, _now_ns: u64) -> Option<V> {
        let idle = self.secondary.remove(key);
        self.primary.insert(key, value).or(idle)
    }

    /// Insert an *idle* user directly into the secondary table (bulk
    /// provisioning, or the single-table baseline's population — in
    /// single-table mode this still lands in the flat table). Returns the
    /// value the key held before, from either table.
    pub fn insert_idle(&mut self, key: u64, value: V) -> Option<V> {
        if self.enabled {
            let active = self.primary.remove(key);
            self.secondary.insert(key, value).or(active)
        } else {
            self.primary.insert(key, value)
        }
    }

    /// Data-path lookup: a primary hit is one probe that writes nothing;
    /// a primary miss consults the secondary table and promotes. The
    /// clock argument is unused: the packet that follows a hit stamps its
    /// user's activity in the counter cell.
    #[inline]
    pub fn get(&mut self, key: u64, _now_ns: u64) -> Option<&V> {
        // `locate` returns a borrow-free bucket address, so the miss path
        // below may still mutate the tables.
        if let Some(loc) = self.primary.locate(key) {
            self.stats.primary_hits += 1;
            return self.primary.at(loc);
        }
        if self.enabled {
            if let Some(v) = self.secondary.remove(key) {
                self.stats.promotions += 1;
                self.primary.insert(key, v);
                return self.primary.get(key);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Hint the primary-table line the upcoming [`Self::get`] of `key`
    /// probes first (stage 2a of the burst lookup). No load, no promotion,
    /// no stats; a key held by the secondary table or a draining array
    /// simply gets no help.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        self.primary.prefetch(key);
    }

    /// The value `key` holds in either table, with no promotion and no
    /// stats: a membership update's lookup, not a packet's.
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.primary.get(key).or_else(|| self.secondary.get(key))
    }

    /// Remove a user entirely (detach / migration). Returns the value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        self.primary.remove(key).or_else(|| self.secondary.remove(key))
    }

    /// Demote one user to the secondary table regardless of activity.
    /// Returns true if it was in the primary table.
    pub fn demote(&mut self, key: u64) -> bool {
        if !self.enabled {
            return false;
        }
        match self.primary.remove(key) {
            Some(v) => {
                self.stats.demotions += 1;
                self.secondary.insert(key, v);
                true
            }
            None => false,
        }
    }

    /// Demote every primary user whose last activity, as
    /// `last_active_ns` reports it for the value, lies before
    /// `now_ns - idle_timeout`; returns how many moved.
    pub fn evict_idle(&mut self, now_ns: u64, mut last_active_ns: impl FnMut(&V) -> u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let cutoff = now_ns.saturating_sub(self.idle_timeout_ns);
        let idle: Vec<u64> = self.primary.iter().filter(|(_, v)| last_active_ns(v) < cutoff).map(|(k, _)| k).collect();
        let n = idle.len();
        for k in idle {
            self.demote(k);
        }
        n
    }

    /// Step any in-progress incremental resize in both levels without
    /// mutating entries (idle-cycle housekeeping).
    pub fn maintain(&mut self) {
        self.primary.maintain();
        self.secondary.maintain();
    }

    /// Whether either level has an incremental resize in flight.
    pub fn is_migrating(&self) -> bool {
        self.primary.is_migrating() || self.secondary.is_migrating()
    }

    /// Entries in the (hot) primary table.
    pub fn primary_len(&self) -> usize {
        self.primary.len()
    }

    /// Keys in the (hot) primary table.
    pub(crate) fn primary_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.primary.keys()
    }

    /// Entries in the secondary table.
    pub fn secondary_len(&self) -> usize {
        self.secondary.len()
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.primary.len() + self.secondary.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes across both levels (memory gauge).
    pub fn bytes(&self) -> u64 {
        self.primary.bytes() + self.secondary.bytes()
    }

    /// Churn statistics.
    pub fn stats(&self) -> TwoLevelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_insert_lands_in_primary() {
        let mut t = TwoLevelTable::new(100, 1000);
        t.insert_active(5, "a", 0);
        assert_eq!(t.primary_len(), 1);
        assert_eq!(t.secondary_len(), 0);
        assert_eq!(t.get(5, 1), Some(&"a"));
        assert_eq!(t.stats().primary_hits, 1);
    }

    #[test]
    fn idle_insert_promotes_on_first_packet() {
        let mut t = TwoLevelTable::new(100, 1000);
        t.insert_idle(5, "a");
        assert_eq!(t.primary_len(), 0);
        assert_eq!(t.secondary_len(), 1);
        assert_eq!(t.get(5, 10), Some(&"a"));
        assert_eq!(t.primary_len(), 1, "promoted");
        assert_eq!(t.secondary_len(), 0);
        assert_eq!(t.stats().promotions, 1);
    }

    #[test]
    fn unknown_key_counts_a_miss() {
        let mut t: TwoLevelTable<u8> = TwoLevelTable::new(10, 1000);
        assert_eq!(t.get(42, 0), None);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn prefetch_has_no_side_effects() {
        // Grow the primary until it is mid-resize, so the key set spans
        // present-in-live, still-draining, secondary-only and absent.
        let mut t = TwoLevelTable::new(16, 1000);
        t.insert_idle(0, 0);
        let mut n = 1u64;
        while !t.is_migrating() {
            t.insert_active(n, n, 0);
            n += 1;
        }
        let (stats, len, primary_len) = (t.stats(), t.len(), t.primary_len());
        for k in 0..n + 100 {
            t.prefetch(k);
        }
        assert!(t.is_migrating(), "a hint must not step the drain");
        assert_eq!((t.stats(), t.len(), t.primary_len()), (stats, len, primary_len));
    }

    #[test]
    fn idle_eviction_reads_activity_from_the_owner() {
        let mut t = TwoLevelTable::new(100, 1000);
        t.insert_active(1, "busy", 0);
        t.insert_active(2, "idle", 0);
        // The owner reports user 1 active at 1500, user 2 never.
        let evicted = t.evict_idle(2000, |v| if *v == "busy" { 1500 } else { 0 }); // cutoff = 1000
        assert_eq!(evicted, 1);
        assert_eq!(t.primary_len(), 1);
        assert_eq!(t.secondary_len(), 1);
        assert!(t.get(2, 2100).is_some(), "evicted user still reachable");
        assert_eq!(t.primary_len(), 2, "and promoted back by the packet");
    }

    #[test]
    fn demote_moves_without_losing() {
        let mut t = TwoLevelTable::new(10, 1000);
        t.insert_active(1, 11, 0);
        assert!(t.demote(1));
        assert!(!t.demote(1), "already demoted");
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(1, 5), Some(&11));
    }

    #[test]
    fn remove_reaches_both_levels() {
        let mut t = TwoLevelTable::new(10, 1000);
        t.insert_active(1, "p", 0);
        t.insert_idle(2, "s");
        assert_eq!(t.remove(1), Some("p"));
        assert_eq!(t.remove(2), Some("s"));
        assert_eq!(t.remove(3), None);
        assert!(t.is_empty());
    }

    #[test]
    fn single_table_mode_never_demotes() {
        let mut t = TwoLevelTable::new_single();
        t.insert_idle(1, "x"); // flat mode: still the one table
        assert_eq!(t.primary_len(), 1);
        assert_eq!(t.get(1, 0), Some(&"x"));
        assert_eq!(t.evict_idle(u64::MAX, |_| 0), 0);
        assert!(!t.demote(1));
        assert_eq!(t.primary_len(), 1);
    }

    #[test]
    fn reinsert_active_overwrites_secondary_copy() {
        let mut t = TwoLevelTable::new(10, 1000);
        t.insert_idle(1, "old");
        t.insert_active(1, "new", 5);
        assert_eq!(t.len(), 1, "no duplicate across levels");
        assert_eq!(t.get(1, 6), Some(&"new"));
    }

    #[test]
    fn mass_detach_releases_table_memory() {
        // Regression for the never-shrinks defect: after 90% detach the
        // backing capacity must fall, not hold its peak.
        let mut t = TwoLevelTable::new(16, u64::MAX);
        const N: u64 = 20_000;
        for k in 0..N {
            t.insert_active(k, k, 0);
        }
        let peak = t.bytes();
        for k in 0..(N * 9 / 10) {
            assert_eq!(t.remove(k), Some(k));
        }
        for _ in 0..peak / 8 {
            t.maintain(); // twice the peak bucket count (16 B each)
        }
        // The occupied level shrinks to ≤ peak/4; allow the (empty,
        // minimum-size) other level's few dozen buckets on top.
        assert!(t.bytes() <= peak / 4 + 64 * 16, "{} bytes stuck near peak {peak} after mass detach", t.bytes());
        for k in (N * 9 / 10)..N {
            assert_eq!(t.get(k, 1), Some(&k), "survivor {k} lost in shrink");
        }
    }

    #[test]
    fn no_user_lost_under_random_churn() {
        // Property-style check: arbitrary interleavings of promote /
        // demote / evict never lose a user. Activity is the step at which
        // a user was last looked up.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut t = TwoLevelTable::new(1000, 50);
        const N: u64 = 500;
        let mut active = [0u64; N as usize];
        for k in 0..N {
            if k % 2 == 0 {
                t.insert_active(k, k, 0);
            } else {
                t.insert_idle(k, k);
            }
        }
        for step in 0..10_000u64 {
            let k = rng.gen_range(0..N);
            match rng.gen_range(0..3) {
                0 => {
                    assert_eq!(t.get(k, step), Some(&k), "user {k} lost at step {step}");
                    active[k as usize] = step;
                }
                1 => {
                    t.demote(k);
                }
                _ => {
                    t.evict_idle(step, |&v| active[v as usize]);
                }
            }
            assert_eq!(t.len(), N as usize);
        }
    }

    // Differential property: the incrementally-resizing, stamp-free table
    // must be observationally identical to a std-HashMap model under
    // arbitrary insert/remove/promote/demote/touch sequences, with
    // activity kept outside both (as the data plane keeps it in the
    // counter cell).
    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// Two std `HashMap`s and the same stats accounting.
        struct ModelTable {
            primary: HashMap<u64, u64>,
            secondary: HashMap<u64, u64>,
            stats: TwoLevelStats,
        }

        impl ModelTable {
            fn new() -> Self {
                ModelTable { primary: HashMap::new(), secondary: HashMap::new(), stats: TwoLevelStats::default() }
            }

            fn insert_active(&mut self, k: u64, v: u64) {
                self.secondary.remove(&k);
                self.primary.insert(k, v);
            }

            fn insert_idle(&mut self, k: u64, v: u64) {
                self.primary.remove(&k);
                self.secondary.insert(k, v);
            }

            fn get(&mut self, k: u64) -> Option<u64> {
                if let Some(&v) = self.primary.get(&k) {
                    self.stats.primary_hits += 1;
                    return Some(v);
                }
                if let Some(v) = self.secondary.remove(&k) {
                    self.stats.promotions += 1;
                    self.primary.insert(k, v);
                    return Some(v);
                }
                self.stats.misses += 1;
                None
            }

            fn remove(&mut self, k: u64) -> Option<u64> {
                self.primary.remove(&k).or_else(|| self.secondary.remove(&k))
            }

            fn demote(&mut self, k: u64) -> bool {
                match self.primary.remove(&k) {
                    Some(v) => {
                        self.stats.demotions += 1;
                        self.secondary.insert(k, v);
                        true
                    }
                    None => false,
                }
            }

            fn evict_idle(&mut self, now: u64, timeout: u64, active: &HashMap<u64, u64>) -> usize {
                let cutoff = now.saturating_sub(timeout);
                let idle: Vec<u64> = self
                    .primary
                    .iter()
                    .filter(|(_, v)| active.get(v).map_or(0, |&t| t) < cutoff)
                    .map(|(k, _)| *k)
                    .collect();
                let n = idle.len();
                for k in idle {
                    self.demote(k);
                }
                n
            }
        }

        #[derive(Debug, Clone, Copy)]
        enum Op {
            InsertActive(u64, u64),
            InsertIdle(u64, u64),
            Touch(u64), // data-path get: promote, then the packet stamps activity
            Remove(u64),
            Demote(u64),
            Evict,
            Prefetch(u64),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..48, any::<u64>()).prop_map(|(k, v)| Op::InsertActive(k, v)),
                (0u64..48, any::<u64>()).prop_map(|(k, v)| Op::InsertIdle(k, v)),
                (0u64..48).prop_map(Op::Touch),
                (0u64..48).prop_map(Op::Remove),
                (0u64..48).prop_map(Op::Demote),
                Just(Op::Evict),
                (0u64..48).prop_map(Op::Prefetch),
            ]
        }

        proptest! {
            #[test]
            fn matches_hashmap_model(ops in proptest::collection::vec(op_strategy(), 0..300)) {
                const TIMEOUT: u64 = 7;
                let mut t: TwoLevelTable<u64> = TwoLevelTable::new(16, TIMEOUT);
                let mut m = ModelTable::new();
                // Last activity per value, shared by table and model.
                let mut active: HashMap<u64, u64> = HashMap::new();
                for (now, op) in ops.into_iter().enumerate() {
                    let now = now as u64;
                    match op {
                        Op::InsertActive(k, v) => {
                            t.insert_active(k, v, now);
                            m.insert_active(k, v);
                        }
                        Op::InsertIdle(k, v) => {
                            t.insert_idle(k, v);
                            m.insert_idle(k, v);
                        }
                        Op::Touch(k) => {
                            let got = t.get(k, now).copied();
                            prop_assert_eq!(got, m.get(k));
                            if let Some(v) = got {
                                active.insert(v, now);
                            }
                        }
                        Op::Remove(k) => prop_assert_eq!(t.remove(k), m.remove(k)),
                        Op::Demote(k) => prop_assert_eq!(t.demote(k), m.demote(k)),
                        Op::Evict => {
                            let last = |v: &u64| active.get(v).map_or(0, |&t| t);
                            prop_assert_eq!(t.evict_idle(now, last), m.evict_idle(now, TIMEOUT, &active));
                        }
                        // No model counterpart: the checks after the
                        // match pin that a hint changes nothing.
                        Op::Prefetch(k) => t.prefetch(k),
                    }
                    prop_assert_eq!(t.primary_len(), m.primary.len());
                    prop_assert_eq!(t.secondary_len(), m.secondary.len());
                    prop_assert_eq!(t.stats(), m.stats);
                }
            }
        }
    }
}
