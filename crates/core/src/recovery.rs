//! Slice checkpoint / restore — the paper's §8 failure-handling
//! discussion made concrete.
//!
//! "In PEPC, there is primarily a single failure mode (a PEPC node
//! fails). [...] To handle failures in PEPC, we can borrow from recent
//! work on providing fault tolerance for middleboxes." Because all of a
//! user's state is consolidated in one place, a checkpoint is just the
//! serialized list of `(ControlState, CounterState)` pairs — no
//! cross-component cut, no coordination with an MME or S-GW whose copies
//! might be mid-synchronization. The same property that makes migration
//! trivial makes recovery trivial.
//!
//! The wire format is a one-byte format version followed by a versioned
//! JSON document (human-inspectable, schema-evolvable); the raw leading
//! byte lets a reader reject a future incompatible format before
//! attempting to parse the body at all. A production deployment would
//! swap in a binary codec without touching callers.

use crate::ctrl::ControlPlane;
use crate::state::{ControlState, CounterState};
use serde::{Deserialize, Serialize};

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// One user's full consolidated state, by value: what a checkpoint
/// serializes, what HA replication ships, and what a migration carries
/// between slices ([`ControlPlane::record_of`] builds it,
/// [`ControlPlane::restore_user`] installs it).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct UserRecord {
    pub ctrl: ControlState,
    pub counters: CounterState,
}

impl UserRecord {
    /// Whether a decoded record is one no slice could have produced: the
    /// free-form IMSI or GUTI is a key the state tables cannot store
    /// ([`crate::inctable::is_reserved_key`]), or the rule set is not in
    /// the form `RuleSet::push` builds (more than six ids, or nonzero ids
    /// past its length).
    pub fn is_malformed(&self) -> bool {
        [self.ctrl.imsi, self.ctrl.guti].into_iter().any(crate::inctable::is_reserved_key)
            || !self.ctrl.pcef_rules.is_canonical()
    }
}

/// A whole slice's user population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SliceCheckpoint {
    pub version: u32,
    pub users: Vec<UserRecord>,
}

/// Errors during checkpoint / restore.
#[derive(Debug)]
pub enum RecoveryError {
    /// The checkpoint bytes were not a valid document (or a document did
    /// not serialize into one).
    Malformed(String),
    /// Version mismatch.
    WrongVersion { found: u32, expected: u32 },
    /// The same IMSI appears more than once in one checkpoint; applying
    /// it would silently overwrite one record with the other.
    DuplicateImsi(u64),
    /// The plane's context arena filled after `restored` records.
    ArenaFull { restored: usize },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
            RecoveryError::WrongVersion { found, expected } => {
                write!(f, "checkpoint version {found}, expected {expected}")
            }
            RecoveryError::DuplicateImsi(imsi) => {
                write!(f, "checkpoint lists imsi {imsi} more than once")
            }
            RecoveryError::ArenaFull { restored } => write!(f, "context arena full after {restored} users"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Snapshot every user of a control plane into checkpoint bytes.
///
/// Consistency note: the control thread calls this on itself, so control
/// state is quiescent; counters are read as acquire/retry seqlock
/// snapshots ([`crate::state::UeContext::counters`]), so each user's
/// record is internally consistent (the paper's rollback-recovery
/// citations handle cross-packet output consistency, which an EPC data
/// plane — idempotent per packet — does not need).
pub fn checkpoint(cp: &ControlPlane) -> Result<Vec<u8>, RecoveryError> {
    let users = cp.imsis().into_iter().filter_map(|imsi| cp.record_of(imsi)).collect();
    encode(&SliceCheckpoint { version: CHECKPOINT_VERSION, users })
}

/// Serialize a checkpoint document: raw format-version byte, then JSON.
pub fn encode(cp: &SliceCheckpoint) -> Result<Vec<u8>, RecoveryError> {
    let body = serde_json::to_vec(cp).map_err(|e| RecoveryError::Malformed(e.to_string()))?;
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(cp.version as u8);
    out.extend_from_slice(&body);
    Ok(out)
}

/// Parse checkpoint bytes: the header byte gates the format before the
/// body is touched, then the document's own `version` field is checked.
pub fn parse(bytes: &[u8]) -> Result<SliceCheckpoint, RecoveryError> {
    let (&header, body) = bytes.split_first().ok_or_else(|| RecoveryError::Malformed("empty checkpoint".into()))?;
    if u32::from(header) != CHECKPOINT_VERSION {
        return Err(RecoveryError::WrongVersion { found: u32::from(header), expected: CHECKPOINT_VERSION });
    }
    let cp: SliceCheckpoint = serde_json::from_slice(body).map_err(|e| RecoveryError::Malformed(e.to_string()))?;
    if cp.version != CHECKPOINT_VERSION {
        return Err(RecoveryError::WrongVersion { found: cp.version, expected: CHECKPOINT_VERSION });
    }
    Ok(cp)
}

/// Rebuild users into a (fresh) control plane from a checkpoint. Returns
/// how many users were restored. Data-plane membership updates are queued
/// exactly as attaches would queue them.
///
/// All validation — parse errors, malformed records
/// ([`UserRecord::is_malformed`]) and intra-checkpoint duplicate IMSIs —
/// happens before the first record is applied, so a rejected checkpoint
/// never partially applies. Only a full context arena stops a restore
/// midway, and its error says how far it got.
pub fn restore(cp: &mut ControlPlane, bytes: &[u8]) -> Result<usize, RecoveryError> {
    let parsed = parse(bytes)?;
    let mut seen = std::collections::HashSet::with_capacity(parsed.users.len());
    for rec in &parsed.users {
        if rec.is_malformed() {
            return Err(RecoveryError::Malformed("reserved key or non-canonical rule set".into()));
        }
        if !seen.insert(rec.ctrl.imsi) {
            return Err(RecoveryError::DuplicateImsi(rec.ctrl.imsi));
        }
    }
    let n = parsed.users.len();
    for (restored, rec) in parsed.users.into_iter().enumerate() {
        if !cp.restore_user(rec) {
            return Err(RecoveryError::ArenaFull { restored });
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::{Allocator, CtrlEvent};

    fn cp() -> ControlPlane {
        ControlPlane::new(
            0x0AFE0001,
            1,
            Allocator { teid_base: 0x1000, ue_ip_base: 0x0A000001, guti_base: 0xD000, mme_ue_id_base: 1 },
            None,
        )
    }

    fn populated(n: u64) -> ControlPlane {
        let mut c = cp();
        for imsi in 0..n {
            c.apply_event(CtrlEvent::Attach { imsi });
            c.apply_event(CtrlEvent::S1Handover { imsi, new_enb_teid: 0xE000 + imsi as u32, new_enb_ip: 0xC0A80001 });
            let ctx = c.context_of(imsi).unwrap();
            ctx.update_counters(|c| c.uplink_bytes = imsi * 100);
        }
        c.take_updates();
        c
    }

    #[test]
    fn checkpoint_restore_roundtrips_everything() {
        let original = populated(50);
        let bytes = checkpoint(&original).unwrap();

        let mut recovered = cp();
        let n = restore(&mut recovered, &bytes).unwrap();
        assert_eq!(n, 50);
        assert_eq!(recovered.user_count(), 50);
        for imsi in 0..50u64 {
            let a = original.context_of(imsi).unwrap();
            let b = recovered.context_of(imsi).unwrap();
            assert_eq!(*a.ctrl_read(), *b.ctrl_read(), "control state imsi {imsi}");
            assert_eq!(a.counters(), b.counters(), "counters imsi {imsi}");
        }
        // Restoration queued data-plane inserts like attaches do.
        assert!(recovered.has_updates());
    }

    #[test]
    fn restored_users_keep_identifiers_and_tunnels() {
        let original = populated(5);
        let bytes = checkpoint(&original).unwrap();
        let mut recovered = cp();
        restore(&mut recovered, &bytes).unwrap();
        let c = recovered.context_of(3).unwrap();
        let s = c.ctrl_read();
        assert_eq!(s.tunnels.enb_teid, 0xE003);
        assert_eq!(s.tunnels.gw_teid, 0x1000 + 3);
        // GUTI index rebuilt: a detach-by-guti style lookup still works.
        assert!(recovered.apply_event(CtrlEvent::Detach { imsi: 3 }));
    }

    #[test]
    fn malformed_and_wrong_version_rejected() {
        let mut c = cp();
        assert!(matches!(restore(&mut c, &[]), Err(RecoveryError::Malformed(_))));
        // Valid header byte, garbage body.
        assert!(matches!(restore(&mut c, b"\x01not json"), Err(RecoveryError::Malformed(_))));
        // Wrong header byte is rejected before the body is even parsed.
        assert!(matches!(restore(&mut c, b"\x63garbage"), Err(RecoveryError::WrongVersion { found: 99, .. })));
        // Header passes but the document's own version field disagrees.
        let mut doc = parse(&checkpoint(&populated(1)).unwrap()).unwrap();
        doc.version = 99;
        let mut bytes = vec![CHECKPOINT_VERSION as u8];
        bytes.extend_from_slice(&serde_json::to_vec(&doc).unwrap());
        assert!(matches!(restore(&mut c, &bytes), Err(RecoveryError::WrongVersion { found: 99, .. })));
        assert_eq!(c.user_count(), 0, "failed restore leaves nothing behind");
    }

    #[test]
    fn duplicate_imsis_rejected_without_partial_apply() {
        let mut doc = parse(&checkpoint(&populated(3)).unwrap()).unwrap();
        let dup = doc.users[1].clone();
        let dup_imsi = dup.ctrl.imsi;
        doc.users.push(dup);
        let bytes = encode(&doc).unwrap();
        let mut c = cp();
        match restore(&mut c, &bytes) {
            Err(RecoveryError::DuplicateImsi(i)) => assert_eq!(i, dup_imsi),
            other => panic!("expected DuplicateImsi, got {other:?}"),
        }
        assert_eq!(c.user_count(), 0, "duplicate checkpoint must not partially apply");
        assert!(!c.has_updates());
    }

    #[test]
    fn empty_slice_checkpoints_cleanly() {
        let bytes = checkpoint(&cp()).unwrap();
        let mut c = cp();
        assert_eq!(restore(&mut c, &bytes).unwrap(), 0);
    }

    #[test]
    fn checkpoint_is_version_byte_then_json() {
        let bytes = checkpoint(&populated(1)).unwrap();
        assert_eq!(bytes[0], CHECKPOINT_VERSION as u8);
        let v: serde_json::Value = serde_json::from_slice(&bytes[1..]).unwrap();
        assert_eq!(v["version"], 1);
        assert!(v["users"].is_array());
    }
}
