//! The standby store — the receive side of the replication log.
//!
//! One [`StandbyStore`] mirrors every node of a cluster: per node it keeps
//! the latest known [`UserRecord`] per IMSI plus enough sequence
//! bookkeeping to survive the realities of a faulty fabric:
//!
//! * **reordering** — each user half (control / counters) remembers the
//!   sequence number that produced it; an older frame arriving late is
//!   counted as stale and ignored, never applied backwards;
//! * **loss** — gaps are `max_seq - frames_received`, robust to arrival
//!   order; a dropped control snapshot heals at the next counter delta,
//!   which carries the full record;
//! * **corruption** — undecodable frames are counted and skipped
//!   ([`crate::replog::decode`] never panics);
//! * **resurrection** — a delete tombstones the IMSI at its sequence
//!   number, so a reordered older snapshot cannot revive a detached user;
//! * **retirement** — a failover moves a dead node's users out
//!   ([`StandbyStore::take_users`]), so the standby holds each user once,
//!   under its adopter; user frames that still arrive from the retired
//!   node (a healed partition's backlog) are counted stale, never applied.

use crate::replog::{decode, ReplKind, ReplRecord};
use pepc::inctable::is_reserved_key;
use pepc::recovery::UserRecord;
use std::collections::BTreeMap;

/// Latest replicated state of one user.
struct StandbyUser {
    record: UserRecord,
    /// Sequence that last wrote `record.ctrl`.
    ctrl_seq: u64,
    /// Sequence that last wrote `record.counters`.
    counter_seq: u64,
    /// Coordinator tick at which `record.counters` was captured.
    counter_tick: u64,
}

/// The replica of one node's user population.
#[derive(Default)]
struct NodeReplica {
    /// BTreeMap: adoption order after a failover is deterministic.
    users: BTreeMap<u64, StandbyUser>,
    /// IMSI → sequence of its delete.
    tombstones: BTreeMap<u64, u64>,
    /// Highest sequence number seen.
    max_seq: u64,
    /// Frames received (any kind).
    received: u64,
    /// Frames ignored as older than already-applied state, or as late
    /// user frames for a retired replica.
    stale: u64,
    /// Failed over: its users were taken and it accepts no more.
    retired: bool,
}

/// Standby replicas for a whole cluster.
pub struct StandbyStore {
    replicas: Vec<NodeReplica>,
    corrupt: u64,
}

impl StandbyStore {
    /// A store mirroring `n` nodes, all initially empty.
    pub fn new(n: usize) -> Self {
        StandbyStore { replicas: (0..n).map(|_| NodeReplica::default()).collect(), corrupt: 0 }
    }

    /// Decode and apply one frame off the wire. Returns the originating
    /// node and frame kind on success (the caller feeds this to its
    /// failure detector as a liveness signal); `None` means the frame was
    /// corrupt and was counted, not applied. A frame naming a reserved
    /// IMSI ([`pepc::inctable::is_reserved_key`]) or carrying a malformed
    /// record ([`UserRecord::is_malformed`]) is corrupt.
    pub fn ingest(&mut self, bytes: &[u8]) -> Option<(usize, ReplKind)> {
        let rec = match decode(bytes) {
            Ok(rec) => rec,
            Err(_) => {
                self.corrupt += 1;
                return None;
            }
        };
        let node = rec.node as usize;
        let malformed = is_reserved_key(rec.imsi) || rec.user.as_ref().is_some_and(UserRecord::is_malformed);
        if node >= self.replicas.len() || malformed {
            self.corrupt += 1;
            return None;
        }
        let kind = rec.kind;
        self.apply(rec);
        Some((node, kind))
    }

    /// Apply one decoded record.
    pub fn apply(&mut self, rec: ReplRecord) {
        let r = &mut self.replicas[rec.node as usize];
        r.received += 1;
        r.max_seq = r.max_seq.max(rec.seq);
        if r.retired && rec.kind != ReplKind::Heartbeat {
            r.stale += 1;
            return;
        }
        match rec.kind {
            ReplKind::Heartbeat => {}
            ReplKind::CtrlDelete => {
                if let Some(u) = r.users.get(&rec.imsi) {
                    if u.ctrl_seq > rec.seq {
                        // A reordered delete from before the user's latest
                        // state; the live node clearly re-learned the user.
                        r.stale += 1;
                        return;
                    }
                    r.users.remove(&rec.imsi);
                }
                let t = r.tombstones.entry(rec.imsi).or_insert(0);
                *t = (*t).max(rec.seq);
            }
            ReplKind::CtrlSnapshot | ReplKind::CounterDelta => {
                let Some(user) = rec.user else {
                    // A state record without a payload only happens via
                    // corruption that still parsed; drop it.
                    r.stale += 1;
                    return;
                };
                if r.tombstones.get(&rec.imsi).is_some_and(|&t| t > rec.seq) {
                    r.stale += 1; // user was deleted after this was emitted
                    return;
                }
                match r.users.get_mut(&rec.imsi) {
                    None => {
                        r.users.insert(
                            rec.imsi,
                            StandbyUser {
                                record: user,
                                ctrl_seq: rec.seq,
                                counter_seq: rec.seq,
                                counter_tick: rec.tick,
                            },
                        );
                    }
                    Some(e) => {
                        // Newest sequence wins, per half: both kinds carry
                        // the full record captured at emission time.
                        let mut applied = false;
                        if rec.seq > e.ctrl_seq {
                            e.record.ctrl = user.ctrl;
                            e.ctrl_seq = rec.seq;
                            applied = true;
                        }
                        if rec.seq > e.counter_seq {
                            e.record.counters = user.counters;
                            e.counter_seq = rec.seq;
                            e.counter_tick = rec.tick;
                            applied = true;
                        }
                        if !applied {
                            r.stale += 1;
                        }
                    }
                }
            }
        }
    }

    /// The replicated users of `node`, ascending by IMSI, each with the
    /// tick its counters were captured at.
    pub fn users_of(&self, node: usize) -> Vec<(UserRecord, u64)> {
        self.replicas[node].users.values().map(|u| (u.record.clone(), u.counter_tick)).collect()
    }

    /// Move `node`'s replicated users out, ascending by IMSI, and retire
    /// its replica. This is what a failover adopts.
    pub fn take_users(&mut self, node: usize) -> Vec<UserRecord> {
        let r = &mut self.replicas[node];
        r.retired = true;
        std::mem::take(&mut r.users).into_values().map(|u| u.record).collect()
    }

    /// Replicated user count for `node`.
    pub fn user_count(&self, node: usize) -> usize {
        self.replicas[node].users.len()
    }

    /// Worst-case counter age for `node`'s users, measured at tick `now`:
    /// how much charging data failover would lose if the node died at
    /// `now`. Bounded by the replication interval on a lossless wire.
    pub fn max_counter_staleness(&self, node: usize, now: u64) -> u64 {
        self.replicas[node].users.values().map(|u| now.saturating_sub(u.counter_tick)).max().unwrap_or(0)
    }

    /// Highest sequence number seen from `node`.
    pub fn max_seq(&self, node: usize) -> u64 {
        self.replicas[node].max_seq
    }

    /// Frames from `node` that never arrived (dropped on the wire).
    pub fn gaps(&self, node: usize) -> u64 {
        let r = &self.replicas[node];
        r.max_seq.saturating_sub(r.received)
    }

    /// Frames from `node` ignored as older than applied state.
    pub fn stale(&self, node: usize) -> u64 {
        self.replicas[node].stale
    }

    /// Undecodable frames swallowed, store-wide.
    pub fn corrupt(&self) -> u64 {
        self.corrupt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replog::encode;
    use pepc::{ControlState, CounterState};

    fn rec(kind: ReplKind, seq: u64, tick: u64, imsi: u64, uplink: u64) -> ReplRecord {
        let user = match kind {
            ReplKind::CtrlSnapshot | ReplKind::CounterDelta => {
                let ctrl = ControlState::new(imsi);
                let counters = CounterState { uplink_packets: uplink, ..CounterState::default() };
                Some(UserRecord { ctrl, counters })
            }
            _ => None,
        };
        ReplRecord { kind, node: 0, seq, tick, imsi, user }
    }

    #[test]
    fn newest_sequence_wins_under_reordering() {
        let mut s = StandbyStore::new(1);
        s.apply(rec(ReplKind::CounterDelta, 5, 50, 7, 500));
        s.apply(rec(ReplKind::CounterDelta, 3, 30, 7, 300)); // late arrival
        let users = s.users_of(0);
        assert_eq!(users.len(), 1);
        assert_eq!(users[0].0.counters.uplink_packets, 500);
        assert_eq!(users[0].1, 50, "counter tick tracks the applied frame");
        assert_eq!(s.stale(0), 1);
    }

    #[test]
    fn tombstone_blocks_resurrection() {
        let mut s = StandbyStore::new(1);
        s.apply(rec(ReplKind::CtrlSnapshot, 1, 1, 7, 0));
        s.apply(rec(ReplKind::CtrlDelete, 4, 4, 7, 0));
        s.apply(rec(ReplKind::CtrlSnapshot, 2, 2, 7, 0)); // reordered, pre-delete
        assert_eq!(s.user_count(0), 0, "deleted user must not come back");
        // But a genuinely newer snapshot (re-attach) does apply.
        s.apply(rec(ReplKind::CtrlSnapshot, 6, 6, 7, 0));
        assert_eq!(s.user_count(0), 1);
    }

    #[test]
    fn counter_delta_heals_a_dropped_ctrl_snapshot() {
        let mut s = StandbyStore::new(1);
        // The CtrlSnapshot (seq 1) was dropped by the wire; the periodic
        // delta still carries the full record.
        s.apply(rec(ReplKind::CounterDelta, 2, 8, 9, 42));
        let users = s.users_of(0);
        assert_eq!(users[0].0.ctrl.imsi, 9);
        assert_eq!(users[0].0.counters.uplink_packets, 42);
        assert_eq!(s.gaps(0), 1, "the dropped frame is visible as a gap");
    }

    #[test]
    fn corruption_is_counted_not_applied() {
        let mut s = StandbyStore::new(1);
        assert!(s.ingest(b"").is_none());
        assert!(s.ingest(b"\x7fgarbage").is_none());
        let mut bytes = encode(&rec(ReplKind::CtrlSnapshot, 1, 1, 7, 0));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let _ = s.ingest(&bytes); // may or may not decode; must not panic
        assert!(s.corrupt() >= 2);
    }

    #[test]
    fn a_retired_replica_ignores_late_user_frames_but_reports_its_node() {
        let mut s = StandbyStore::new(1);
        s.apply(rec(ReplKind::CtrlSnapshot, 1, 1, 7, 0));
        let taken = s.take_users(0);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].ctrl.imsi, 7);
        assert_eq!(s.user_count(0), 0, "the users moved out");
        let late = encode(&rec(ReplKind::CtrlSnapshot, 2, 2, 9, 0));
        assert_eq!(s.ingest(&late), Some((0, ReplKind::CtrlSnapshot)), "the detector still hears the node");
        assert_eq!(s.user_count(0), 0, "a retired replica applies nothing");
        assert_eq!(s.stale(0), 1);
        let beat = encode(&rec(ReplKind::Heartbeat, 3, 3, 0, 0));
        assert_eq!(s.ingest(&beat), Some((0, ReplKind::Heartbeat)));
        assert_eq!(s.stale(0), 1, "a heartbeat is not stale");
    }

    #[test]
    fn staleness_tracks_the_oldest_counters() {
        let mut s = StandbyStore::new(1);
        s.apply(rec(ReplKind::CounterDelta, 1, 10, 1, 0));
        s.apply(rec(ReplKind::CounterDelta, 2, 18, 2, 0));
        assert_eq!(s.max_counter_staleness(0, 20), 10);
        assert_eq!(s.max_counter_staleness(0, 5), 0, "saturates, never underflows");
    }
}
