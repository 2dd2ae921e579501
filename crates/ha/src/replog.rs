//! The replication log — sequence-numbered per-user state deltas.
//!
//! Because PEPC consolidates each user's state in one slice, replicating a
//! user is replicating two structs: [`pepc::state::ControlState`] (written
//! only by the control thread, on signaling events) and
//! [`pepc::state::CounterState`] (written only by the data thread, on every
//! packet). The log exploits the asymmetry:
//!
//! * **control events are rare and precious** — every one emits a full
//!   [`ReplKind::CtrlSnapshot`] record synchronously, so an acknowledged
//!   signaling change is never lost;
//! * **counters churn on every packet** — they ship as periodic
//!   [`ReplKind::CounterDelta`] records, bounding lost charging data to at
//!   most one replication interval instead of paying a record per packet.
//!
//! Records reuse the checkpoint serialization ([`pepc::recovery::UserRecord`])
//! so a standby replica and an on-disk checkpoint are the same bytes — one
//! restore path serves both. The frame format mirrors the checkpoint
//! format: a raw one-byte version header, then a JSON body.

use pepc::recovery::UserRecord;
use serde::{Deserialize, Serialize};

/// Current replication frame format version.
pub const REPLOG_VERSION: u8 = 1;

/// What a replication record carries.
///
/// (A unit-only enum: the payload lives in [`ReplRecord::user`] so the
/// frame stays a flat named-field struct on the wire.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplKind {
    /// Full user record, emitted synchronously on every control event.
    CtrlSnapshot,
    /// Full user record, emitted every replication interval to refresh
    /// the charging counters.
    CounterDelta,
    /// The user detached; the standby must forget it.
    CtrlDelete,
    /// Liveness beacon; carries no user.
    Heartbeat,
}

/// One frame of the replication log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplRecord {
    pub kind: ReplKind,
    /// Originating node index.
    pub node: u32,
    /// Per-node sequence number, strictly increasing from 1. The standby
    /// uses it to detect gaps (dropped frames) and to resolve reordered
    /// frames (newest sequence wins per user).
    pub seq: u64,
    /// Coordinator tick at emission; drives counter-staleness accounting.
    pub tick: u64,
    /// Subject IMSI (0 for heartbeats).
    pub imsi: u64,
    /// The user's consolidated state, for `CtrlSnapshot` / `CounterDelta`.
    pub user: Option<UserRecord>,
}

/// Replication frame decode errors.
#[derive(Debug)]
pub enum ReplogError {
    /// Not a parsable frame (truncated, corrupted, not JSON, …).
    Malformed(String),
    /// The version header byte names a format this build does not speak.
    WrongVersion { found: u8 },
}

impl std::fmt::Display for ReplogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplogError::Malformed(e) => write!(f, "malformed replication frame: {e}"),
            ReplogError::WrongVersion { found } => {
                write!(f, "replication frame version {found}, expected {REPLOG_VERSION}")
            }
        }
    }
}

impl std::error::Error for ReplogError {}

/// Serialize a record: raw version byte, then JSON body. The record
/// types always serialize; were one not to, the frame goes out with an
/// empty body and the standby counts it corrupt.
pub fn encode(rec: &ReplRecord) -> Vec<u8> {
    let body = serde_json::to_vec(rec).unwrap_or_default();
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(REPLOG_VERSION);
    out.extend_from_slice(&body);
    out
}

/// Parse a frame. Corruption anywhere — header, JSON syntax, missing
/// fields — comes back as an error, never a panic: frames cross a [`Wire`]
/// that may flip bytes.
///
/// [`Wire`]: pepc_fabric::Wire
pub fn decode(bytes: &[u8]) -> Result<ReplRecord, ReplogError> {
    let (&header, body) = bytes.split_first().ok_or_else(|| ReplogError::Malformed("empty frame".into()))?;
    if header != REPLOG_VERSION {
        return Err(ReplogError::WrongVersion { found: header });
    }
    serde_json::from_slice(body).map_err(|e| ReplogError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: ReplKind, seq: u64) -> ReplRecord {
        ReplRecord { kind, node: 2, seq, tick: 40, imsi: 404_01_0000000007, user: None }
    }

    #[test]
    fn roundtrips_heartbeat_and_delete() {
        for kind in [ReplKind::Heartbeat, ReplKind::CtrlDelete] {
            let rec = sample(kind, 9);
            let back = decode(&encode(&rec)).unwrap();
            assert_eq!(back.kind, kind);
            assert_eq!(back.seq, 9);
            assert_eq!(back.node, 2);
            assert_eq!(back.imsi, 404_01_0000000007);
            assert!(back.user.is_none());
        }
    }

    #[test]
    fn roundtrips_a_full_user_record() {
        let mut ctrl = pepc::ControlState::new(404_01_0000000001);
        ctrl.ue_ip = 0x0A00_0001;
        ctrl.tunnels.gw_teid = 0x1000_0001;
        let counters = pepc::CounterState { uplink_packets: 17, ..Default::default() };
        let rec = ReplRecord {
            kind: ReplKind::CtrlSnapshot,
            node: 0,
            seq: 1,
            tick: 3,
            imsi: ctrl.imsi,
            user: Some(UserRecord { ctrl: ctrl.clone(), counters, s1_conn: None }),
        };
        let back = decode(&encode(&rec)).unwrap();
        let user = back.user.unwrap();
        assert_eq!(user.ctrl, ctrl);
        assert_eq!(user.counters, counters);
    }

    #[test]
    fn version_byte_gates_the_frame() {
        let bytes = encode(&sample(ReplKind::Heartbeat, 1));
        assert_eq!(bytes[0], REPLOG_VERSION);
        let mut wrong = bytes.clone();
        wrong[0] = 0x7F;
        assert!(matches!(decode(&wrong), Err(ReplogError::WrongVersion { found: 0x7F })));
    }

    #[test]
    fn truncation_and_corruption_never_panic() {
        let bytes = encode(&sample(ReplKind::CtrlSnapshot, 5));
        assert!(decode(&[]).is_err());
        for cut in 0..bytes.len() {
            let _ = decode(&bytes[..cut]); // must not panic
        }
        for i in 1..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            let _ = decode(&corrupt); // must not panic
        }
    }
}
