// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! Recovery edge cases: the failure modes that sit *around* the happy
//! restore path. A checkpoint cut off mid-record (the writing node died
//! mid-flush) must be rejected atomically — error, no partial apply; a
//! replication frame with a future format version must be counted as
//! corrupt by the standby, not applied and not panicked on; so must a
//! record no slice could have written (a reserved key, a non-canonical
//! rule set). The remaining recovery race — a standby adopting an IMSI
//! while the same IMSI migrates — lives in the deterministic simulator
//! (`crates/sim/tests/sim_schedules.rs::kill_racing_migration_never_double_adopts`),
//! where the interleaving is schedulable rather than accidental.

use pepc::ctrl::{Allocator, CtrlEvent};
use pepc::recovery::{self, RecoveryError};
use pepc::ControlPlane;
use pepc_ha::{decode, encode, ReplKind, ReplRecord, ReplogError, StandbyStore, REPLOG_VERSION};

fn cp() -> ControlPlane {
    ControlPlane::new(
        0x0AFE_0001,
        1,
        Allocator { teid_base: 0x1000, ue_ip_base: 0x0A00_0001, guti_base: 0xD000, mme_ue_id_base: 1 },
        None,
    )
}

fn populated(n: u64) -> ControlPlane {
    let mut c = cp();
    for imsi in 0..n {
        c.apply_event(CtrlEvent::Attach { imsi });
        let ctx = c.context_of(imsi).unwrap();
        ctx.update_counters(|cnt| cnt.uplink_bytes = imsi * 100);
    }
    c.take_updates();
    c
}

/// Truncate a valid checkpoint at *every* byte boundary. Each prefix
/// must parse to a clean error — header too short, body not JSON, JSON
/// cut mid-record — and a restore attempt must leave the target control
/// plane untouched (no partially-adopted users).
#[test]
fn checkpoint_truncated_at_every_prefix_rejects_atomically() {
    let bytes = recovery::checkpoint(&populated(8)).unwrap();
    for cut in 0..bytes.len() {
        let prefix = &bytes[..cut];
        assert!(recovery::parse(prefix).is_err(), "prefix of {cut} bytes parsed as a checkpoint");
        let mut target = cp();
        let err = recovery::restore(&mut target, prefix);
        assert!(err.is_err(), "restore accepted a {cut}-byte prefix");
        assert_eq!(target.user_count(), 0, "restore partially applied a {cut}-byte prefix");
        assert!(!target.has_updates(), "rejected restore queued data-plane updates");
    }
    // The untruncated document still restores fully — the loop above
    // proved rejection, this proves we were rejecting *truncation*.
    let mut target = cp();
    assert_eq!(recovery::restore(&mut target, &bytes).unwrap(), 8);
}

/// Flipping the single checkpoint version byte must fail closed even
/// when the body is pristine.
#[test]
fn checkpoint_version_byte_gates_before_the_body() {
    let mut bytes = recovery::checkpoint(&populated(3)).unwrap();
    bytes[0] = bytes[0].wrapping_add(1);
    let mut target = cp();
    match recovery::restore(&mut target, &bytes) {
        Err(RecoveryError::WrongVersion { found, expected }) => {
            assert_eq!(found, u32::from(recovery::CHECKPOINT_VERSION as u8 + 1));
            assert_eq!(expected, recovery::CHECKPOINT_VERSION);
        }
        other => panic!("expected WrongVersion, got {other:?}"),
    }
    assert_eq!(target.user_count(), 0);
}

fn sample_record(seq: u64) -> ReplRecord {
    ReplRecord { kind: ReplKind::Heartbeat, node: 0, seq, tick: 7, imsi: 0, user: None }
}

/// A frame stamped with a future REPLOG_VERSION: `decode` names the
/// version in its error, and the standby counts it corrupt without
/// applying anything (its sequence tracking is unmoved).
#[test]
fn replog_version_mismatch_is_rejected_by_the_standby() {
    let mut frame = encode(&sample_record(1));
    frame[0] = REPLOG_VERSION + 1;
    match decode(&frame) {
        Err(ReplogError::WrongVersion { found }) => assert_eq!(found, REPLOG_VERSION + 1),
        other => panic!("expected WrongVersion, got {other:?}"),
    }

    let mut standby = StandbyStore::new(2);
    assert_eq!(standby.ingest(&frame), None, "standby applied a wrong-version frame");
    assert_eq!(standby.corrupt(), 1, "wrong-version frame not counted corrupt");
    assert_eq!(standby.max_seq(0), 0, "sequence tracking advanced on a rejected frame");

    // A well-formed frame right after still applies — the bad frame
    // poisoned nothing.
    assert_eq!(standby.ingest(&encode(&sample_record(2))), Some((0, ReplKind::Heartbeat)));
    assert_eq!(standby.max_seq(0), 2);
    assert_eq!(standby.corrupt(), 1);
}

/// Replication frames truncated at every prefix: decode errors cleanly,
/// the standby counts each as corrupt, and nothing is applied.
#[test]
fn replog_truncated_at_every_prefix_is_counted_corrupt() {
    let frame = encode(&ReplRecord {
        kind: ReplKind::CtrlSnapshot,
        node: 1,
        seq: 5,
        tick: 3,
        imsi: 404_01_0000000001,
        user: Some(pepc::recovery::UserRecord {
            ctrl: pepc::state::ControlState::new(404_01_0000000001),
            counters: Default::default(),
            s1_conn: None,
        }),
    });
    let mut standby = StandbyStore::new(2);
    for cut in 0..frame.len() {
        assert!(decode(&frame[..cut]).is_err(), "{cut}-byte prefix decoded");
        assert_eq!(standby.ingest(&frame[..cut]), None);
    }
    assert_eq!(standby.corrupt() as usize, frame.len());
    assert_eq!(standby.user_count(1), 0, "truncated frames materialized a user");
    // The full frame still lands.
    assert_eq!(standby.ingest(&frame), Some((1, ReplKind::CtrlSnapshot)));
    assert_eq!(standby.user_count(1), 1);
}

/// The state tables reserve IMSI/GUTI keys `u64::MAX` and `u64::MAX − 1`,
/// and a checkpoint's identifiers are free-form JSON: a record naming
/// either is malformed, and the whole checkpoint applies nothing.
#[test]
fn checkpoint_with_a_reserved_imsi_or_guti_rejects_atomically() {
    let doc = recovery::parse(&recovery::checkpoint(&populated(3)).unwrap()).unwrap();
    let reserved: [fn(&mut pepc::state::ControlState); 2] = [|c| c.imsi = u64::MAX, |c| c.guti = u64::MAX - 1];
    for set in reserved {
        let mut bad = doc.clone();
        set(&mut bad.users[1].ctrl);
        let mut target = cp();
        assert!(matches!(
            recovery::restore(&mut target, &recovery::encode(&bad).unwrap()),
            Err(RecoveryError::Malformed(_))
        ));
        assert_eq!(target.user_count(), 0, "a reserved key partially applied");
        assert!(!target.has_updates());
    }
    assert_eq!(recovery::restore(&mut cp(), &recovery::encode(&doc).unwrap()).unwrap(), 3);
}

/// The same keys over replication: the standby counts the frame corrupt
/// and applies nothing, whether the reserved key is the frame's IMSI or
/// sits inside the carried record.
#[test]
fn replog_frame_with_a_reserved_imsi_or_guti_is_counted_corrupt() {
    let frame = |imsi: u64, guti: u64| {
        let mut ctrl = pepc::state::ControlState::new(imsi);
        ctrl.guti = guti;
        let user = Some(pepc::recovery::UserRecord { ctrl, counters: Default::default(), s1_conn: None });
        encode(&ReplRecord { kind: ReplKind::CtrlSnapshot, node: 0, seq: 1, tick: 1, imsi, user })
    };
    let mut standby = StandbyStore::new(1);
    for bad in [frame(u64::MAX, 0xD000), frame(u64::MAX - 1, 0xD000), frame(7, u64::MAX)] {
        assert!(decode(&bad).is_ok(), "well-formed on the wire");
        assert_eq!(standby.ingest(&bad), None);
    }
    assert_eq!(standby.corrupt(), 3);
    assert_eq!((standby.user_count(0), standby.max_seq(0)), (0, 0), "a rejected frame applied");
    assert_eq!(standby.ingest(&frame(7, 0xD000)), Some((0, ReplKind::CtrlSnapshot)));
    assert_eq!(standby.user_count(0), 1);
}

/// A rule set's `len` and ids are free-form JSON too. The two forms no
/// slice can produce: more than the six inline ids, and a nonzero id past
/// `len`. Each rewrites the empty rule set of a one-user document.
const NON_CANONICAL_RULES: [&str; 2] =
    [r#""pcef_rules":{"ids":[0,0,0,0,0,0],"len":9}"#, r#""pcef_rules":{"ids":[0,0,0,0,0,3],"len":0}"#];

fn with_rules(doc: &[u8], rules: &str) -> Vec<u8> {
    let empty = r#""pcef_rules":{"ids":[0,0,0,0,0,0],"len":0}"#;
    let text = String::from_utf8(doc.to_vec()).unwrap();
    assert_eq!(text.matches(empty).count(), 1, "one empty rule set in {text}");
    text.replace(empty, rules).into_bytes()
}

/// A checkpoint naming a non-canonical rule set is malformed: restore
/// rejects it before applying anything, instead of panicking the slice
/// when the record is installed.
#[test]
fn checkpoint_with_a_non_canonical_rule_set_rejects_atomically() {
    let bytes = recovery::checkpoint(&populated(1)).unwrap();
    for rules in NON_CANONICAL_RULES {
        let mut target = cp();
        let bad = with_rules(&bytes, rules);
        assert!(matches!(recovery::restore(&mut target, &bad), Err(RecoveryError::Malformed(_))), "{rules}");
        assert_eq!(target.user_count(), 0, "a non-canonical rule set partially applied");
        assert!(!target.has_updates());
    }
    assert_eq!(recovery::restore(&mut cp(), &bytes).unwrap(), 1);
}

/// The same records over replication: the standby counts the frame
/// corrupt and never stores it for adoption.
#[test]
fn replog_frame_with_a_non_canonical_rule_set_is_counted_corrupt() {
    let ctrl = pepc::state::ControlState::new(7);
    let user = Some(pepc::recovery::UserRecord { ctrl, counters: Default::default(), s1_conn: None });
    let frame = encode(&ReplRecord { kind: ReplKind::CtrlSnapshot, node: 0, seq: 1, tick: 1, imsi: 7, user });
    let mut standby = StandbyStore::new(1);
    for rules in NON_CANONICAL_RULES {
        let bad = with_rules(&frame, rules);
        assert!(decode(&bad).is_ok(), "well-formed on the wire: {rules}");
        assert_eq!(standby.ingest(&bad), None, "{rules}");
    }
    assert_eq!(standby.corrupt(), 2);
    assert_eq!((standby.user_count(0), standby.max_seq(0)), (0, 0), "a rejected frame applied");
    assert_eq!(standby.ingest(&frame), Some((0, ReplKind::CtrlSnapshot)));
    assert_eq!(standby.user_count(0), 1);
}
