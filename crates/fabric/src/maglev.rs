//! Maglev-style consistent-hash load balancing.
//!
//! The paper assumes the PEPC cluster is fronted by a load balancer that
//! owns the cluster's virtual IP and spreads users across PEPC nodes
//! (§3.4, citing Eisenbud et al., NSDI'16). This is that component: the
//! Maglev lookup-table construction, which gives near-perfectly even
//! spread and minimal disruption when nodes come and go.

/// Why a table cannot be built or repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaglevError {
    /// No backends, or a table no larger than the backend count.
    TooFewSlots,
    /// The backend is out of range or already removed.
    NotLive(usize),
    /// Removing the backend would leave none in service.
    LastLive,
}

impl std::fmt::Display for MaglevError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaglevError::TooFewSlots => write!(f, "need at least one backend and more slots than backends"),
            MaglevError::NotLive(i) => write!(f, "backend {i} is not in service"),
            MaglevError::LastLive => write!(f, "cannot remove the last live backend"),
        }
    }
}

impl std::error::Error for MaglevError {}

/// A Maglev consistent-hash table mapping flow hashes to backends.
#[derive(Debug, Clone)]
pub struct Maglev {
    table: Vec<u32>,
    backends: Vec<String>,
    /// Backends still in service. Indices stay stable across removals so
    /// `lookup` results remain valid handles for the cluster.
    alive: Vec<bool>,
}

impl Maglev {
    /// Default lookup-table size; a prime ≫ the expected backend count,
    /// as the Maglev paper prescribes (they use 65537 for small setups).
    pub const DEFAULT_TABLE_SIZE: usize = 65537;

    /// Build a table over `backends` (names are arbitrary identifiers).
    /// Fails when `backends` is empty or `table_size` is not larger than
    /// their number.
    pub fn new(backends: &[String], table_size: usize) -> Result<Self, MaglevError> {
        if backends.is_empty() || table_size <= backends.len() {
            return Err(MaglevError::TooFewSlots);
        }
        let n = backends.len();
        let m = table_size;
        let (offset, skip) = permutation_params(backends, m);
        let mut next = vec![0usize; n];
        let mut table = vec![u32::MAX; m];
        let mut filled = 0usize;
        'outer: loop {
            for i in 0..n {
                // Walk backend i's permutation to its next free slot.
                loop {
                    let c = (offset[i] + next[i] * skip[i]) % m;
                    next[i] += 1;
                    if table[c] == u32::MAX {
                        table[c] = i as u32;
                        filled += 1;
                        if filled == m {
                            break 'outer;
                        }
                        break;
                    }
                }
            }
        }
        Ok(Maglev { table, backends: backends.to_vec(), alive: vec![true; n] })
    }

    /// Repair the table in place after backend `dead` fails.
    ///
    /// Only the slots the dead backend owned are refilled — survivors
    /// continue their permutation walks into the vacated slots while
    /// every slot a survivor already owns stays put. That makes Maglev's
    /// minimal-disruption property *strict* for repair: keys mapped to a
    /// surviving backend never re-steer, and keys of the dead backend
    /// land deterministically on survivors. Backend indices are stable
    /// across removals ([`Self::lookup`] keeps returning the same handle
    /// for surviving backends). Fails, changing nothing, when `dead` is
    /// not in service or is the last backend that is.
    pub fn remove_backend(&mut self, dead: usize) -> Result<(), MaglevError> {
        if !self.alive.get(dead).copied().unwrap_or(false) {
            return Err(MaglevError::NotLive(dead));
        }
        if self.alive_count() == 1 {
            return Err(MaglevError::LastLive);
        }
        self.alive[dead] = false;

        let m = self.table.len();
        let n = self.backends.len();
        let mut filled = 0usize;
        for slot in self.table.iter_mut() {
            if *slot == dead as u32 {
                *slot = u32::MAX;
            } else {
                filled += 1;
            }
        }

        let (offset, skip) = permutation_params(&self.backends, m);
        let mut next = vec![0usize; n];
        'outer: while filled < m {
            for i in 0..n {
                if !self.alive[i] {
                    continue;
                }
                // Walk survivor i's permutation to its next vacated slot.
                loop {
                    let c = (offset[i] + next[i] * skip[i]) % m;
                    next[i] += 1;
                    if self.table[c] == u32::MAX {
                        self.table[c] = i as u32;
                        filled += 1;
                        if filled == m {
                            break 'outer;
                        }
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether backend `i` is still in service.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// Live backends remaining.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Index of the backend responsible for `key`.
    pub fn lookup(&self, key: u64) -> usize {
        let h = fnv1a(&key.to_le_bytes(), 0x811C_9DC5) as usize;
        self.table[h % self.table.len()] as usize
    }
}

/// Each backend gets a permutation of table slots derived from two
/// hashes of its name (offset, skip). Shared by construction and repair
/// so a survivor's walk is identical in both.
fn permutation_params(backends: &[String], m: usize) -> (Vec<usize>, Vec<usize>) {
    let n = backends.len();
    let mut offset = vec![0usize; n];
    let mut skip = vec![0usize; n];
    for (i, b) in backends.iter().enumerate() {
        let h1 = fnv1a(b.as_bytes(), 0x811C_9DC5);
        let h2 = fnv1a(b.as_bytes(), 0x0100_0193);
        offset[i] = (h1 as usize) % m;
        skip[i] = (h2 as usize) % (m - 1) + 1;
    }
    (offset, skip)
}

#[inline]
fn fnv1a(data: &[u8], seed: u32) -> u32 {
    let mut h = seed ^ 0x811C_9DC5;
    for &b in data {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("pepc-node-{i}")).collect()
    }

    #[test]
    fn lookup_is_deterministic() {
        let m = Maglev::new(&names(5), 1031).unwrap();
        for k in 0..100u64 {
            assert_eq!(m.lookup(k), m.lookup(k));
        }
    }

    #[test]
    fn spread_is_roughly_even() {
        let m = Maglev::new(&names(5), 65537).unwrap();
        let mut counts = [0usize; 5];
        for k in 0..100_000u64 {
            counts[m.lookup(k)] += 1;
        }
        let expected = 100_000 / 5;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected as f64).abs() / expected as f64 <= 0.10,
                "backend {i} got {c}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn removing_a_backend_disrupts_few_keys() {
        let all = names(10);
        let without_last = all[..9].to_vec();
        let before = Maglev::new(&all, 65537).unwrap();
        let after = Maglev::new(&without_last, 65537).unwrap();
        let mut moved = 0;
        let mut to_removed = 0;
        for k in 0..50_000u64 {
            // Backends 0..9 keep their names, so their indices agree.
            let b = before.lookup(k);
            if b == 9 {
                to_removed += 1;
                continue; // those keys must move
            }
            if after.lookup(k) != b {
                moved += 1;
            }
        }
        // Maglev guarantees *mostly* stable mappings; allow a few percent.
        let stable_keys = 50_000 - to_removed;
        assert!((moved as f64) < stable_keys as f64 * 0.05, "{moved} of {stable_keys} stable keys moved");
    }

    #[test]
    fn single_backend_takes_everything() {
        let m = Maglev::new(&names(1), 101).unwrap();
        for k in 0..100u64 {
            assert_eq!(m.lookup(k), 0);
        }
    }

    #[test]
    fn too_few_slots_are_rejected() {
        assert_eq!(Maglev::new(&[], 101).err(), Some(MaglevError::TooFewSlots));
        assert_eq!(Maglev::new(&names(3), 3).err(), Some(MaglevError::TooFewSlots));
    }

    #[test]
    fn every_slot_is_filled() {
        let m = Maglev::new(&names(3), 257).unwrap();
        assert!(m.table.iter().all(|&s| s != u32::MAX));
        assert_eq!(m.alive_count(), 3);
    }

    #[test]
    fn repair_resteers_only_the_dead_backends_keys() {
        for size in [257usize, 1031, 65537] {
            let before = Maglev::new(&names(5), size).unwrap();
            let mut after = before.clone();
            after.remove_backend(2).unwrap();
            assert!(!after.is_alive(2));
            assert_eq!(after.alive_count(), 4);
            for k in 0..20_000u64 {
                let owner = before.lookup(k);
                if owner == 2 {
                    assert_ne!(after.lookup(k), 2, "dead backend still owns key {k} (size {size})");
                } else {
                    assert_eq!(after.lookup(k), owner, "surviving key {k} re-steered (size {size})");
                }
            }
            assert!(after.table.iter().all(|&s| s != u32::MAX && s != 2));
        }
    }

    #[test]
    fn repair_is_deterministic_and_composes() {
        let mut a = Maglev::new(&names(4), 1031).unwrap();
        let mut b = a.clone();
        a.remove_backend(1).unwrap();
        b.remove_backend(1).unwrap();
        assert_eq!(a.table, b.table);
        // A second failure repairs again, still only vacated slots move.
        let before_second = a.clone();
        a.remove_backend(3).unwrap();
        for k in 0..10_000u64 {
            let owner = before_second.lookup(k);
            if owner != 3 {
                assert_eq!(a.lookup(k), owner);
            } else {
                assert_ne!(a.lookup(k), 3);
            }
        }
    }

    #[test]
    fn cannot_remove_last_backend() {
        let mut m = Maglev::new(&names(2), 101).unwrap();
        assert_eq!(m.remove_backend(2), Err(MaglevError::NotLive(2)));
        m.remove_backend(0).unwrap();
        let table = m.table.clone();
        assert_eq!(m.remove_backend(0), Err(MaglevError::NotLive(0)));
        assert_eq!(m.remove_backend(1), Err(MaglevError::LastLive));
        assert_eq!((m.alive_count(), m.table), (1, table), "a refused removal changes nothing");
    }
}
