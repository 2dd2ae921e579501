//! Differential test for the procedure-machine dispatcher (PR 6).
//!
//! Replays PR-1-style seeded signaling workloads through strictly
//! *sequential* delivery — every procedure runs to completion before the
//! next message arrives, so no mailbox/preemption machinery can engage —
//! and digests the emitted PDU bytes, the final per-user `ControlState`,
//! and the (pre-existing) `CtrlMetrics` counters.
//!
//! The golden digests below were captured on the pre-refactor
//! run-to-completion implementation. The state-machine dispatcher must
//! reproduce them byte-for-byte: when procedures do not overlap, the
//! refactor is not allowed to change behavior.
//!
//! Duplicate attaches for an already-attached IMSI are deliberately not
//! replayed here: that path changes intentionally in this PR (idempotent
//! re-accept instead of reallocation) and has its own regression test.
//!
//! A second replay, [`run_lifecycles`], walks every other procedure leg
//! the same sequential way (S1 handover, TAU, S1 release, paging with a
//! service request, a page expiring on the tick clock, UE and network
//! detach) and digests every `CtrlMetrics` counter along with the PDUs,
//! data-plane updates and control states.

use pepc::ctrl::{Allocator, ControlPlane};
use pepc::data::DpUpdate;
use pepc::procedure::{PAGING_MAX_RETX, PAGING_RETX_TICKS};
use pepc::proxy::Proxy;
use pepc_backend::hss::sim_response;
use pepc_backend::{Hss, Pcrf};
use pepc_sigproto::nas::NasMsg;
use pepc_sigproto::s1ap::S1apPdu;
use pepc_workload::signaling::{EventMix, SigEvent, SignalingGen};
use std::collections::HashMap;
use std::sync::Arc;

const USERS: u64 = 8;
const EVENTS: usize = 60;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A control plane plus a running digest of everything it emits.
struct Replay {
    cp: ControlPlane,
    digest: u64,
    /// Also fold the data-plane updates each message queues.
    updates: bool,
}

impl Replay {
    fn new(updates: bool) -> Self {
        let hss = Arc::new(Hss::new());
        hss.provision_range(1, USERS, 100_000);
        let pcrf = Arc::new(Pcrf::with_standard_rules());
        let proxy = Arc::new(Proxy::new(hss, pcrf, 1, 40401));
        let alloc = Allocator { teid_base: 0x1000, ue_ip_base: 0x0A00_0001, guti_base: 0xD00D_0000, mme_ue_id_base: 1 };
        let cp = ControlPlane::new(0x0AFE_0001, 1, alloc, Some(proxy));
        Replay { cp, digest: 0xCBF2_9CE4_8422_2325, updates }
    }

    fn fold(&mut self, bytes: &[u8]) {
        self.digest = fnv(self.digest, bytes);
    }

    /// Fold emitted PDUs and their count, then (if asked) the data-plane
    /// updates they queued.
    fn fold_out(&mut self, out: &[S1apPdu]) {
        for p in out {
            self.digest = fnv(self.digest, &p.encode());
        }
        self.fold(&(out.len() as u64).to_le_bytes());
        for u in if self.updates { self.cp.take_updates() } else { Vec::new() } {
            let line = match u {
                DpUpdate::Insert { gw_teid, ue_ip, handle, active } => {
                    format!("ins {gw_teid} {ue_ip} {handle:?} {active}")
                }
                DpUpdate::Remove { gw_teid, ue_ip } => format!("rm {gw_teid} {ue_ip}"),
                DpUpdate::Demote { gw_teid, ue_ip } => format!("demote {gw_teid} {ue_ip}"),
                DpUpdate::Suspend { gw_teid, ue_ip, imsi } => format!("suspend {gw_teid} {ue_ip} {imsi}"),
                DpUpdate::DropIdleBuffer { ue_ip } => format!("dropbuf {ue_ip}"),
                DpUpdate::InstallRule { id, .. } => format!("rule {id}"),
            };
            self.fold(line.as_bytes());
        }
    }

    fn send(&mut self, pdu: &S1apPdu) -> Vec<S1apPdu> {
        let out = self.cp.handle_s1ap(pdu);
        self.fold_out(&out);
        out
    }

    fn uplink_nas(&mut self, enb_ue_id: u32, mme_ue_id: u32, msg: NasMsg) -> Vec<S1apPdu> {
        self.send(&S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas: msg.encode() })
    }

    /// Every user's `ControlState`, in IMSI order.
    fn fold_states(&mut self) {
        for imsi in self.cp.imsis() {
            let json = serde_json::to_string(&self.cp.context_of(imsi).unwrap().ctrl_read().clone()).unwrap();
            self.fold(json.as_bytes());
        }
    }

    /// A full S1AP attach on association `enb_ue_id`; returns the MME UE id
    /// and the GUTI it was given.
    fn attach(&mut self, imsi: u64, enb_ue_id: u32) -> (u32, u64) {
        let nas = NasMsg::AttachRequest { imsi, ue_capability: 0xF0 }.encode();
        let out = self.send(&S1apPdu::InitialUeMessage { enb_ue_id, ecgi: 0x100, tac: 1, nas });
        let (mme_ue_id, rand) = match out.as_slice() {
            [S1apPdu::DownlinkNasTransport { mme_ue_id, nas, .. }] => match NasMsg::decode(nas) {
                Ok(NasMsg::AuthenticationRequest { rand, .. }) => (*mme_ue_id, rand),
                other => panic!("expected auth request, got {other:?}"),
            },
            other => panic!("expected downlink NAS, got {other:?}"),
        };
        let res = sim_response(Hss::key_for(imsi), rand);
        self.uplink_nas(enb_ue_id, mme_ue_id, NasMsg::AuthenticationResponse { res });
        let out = self.uplink_nas(enb_ue_id, mme_ue_id, NasMsg::SecurityModeComplete);
        let guti = match out.as_slice() {
            [S1apPdu::InitialContextSetupRequest { nas, .. }] => match NasMsg::decode(nas) {
                Ok(NasMsg::AttachAccept { guti, .. }) => guti,
                other => panic!("expected attach accept, got {other:?}"),
            },
            other => panic!("expected context setup, got {other:?}"),
        };
        let enb_teid = 0xE000 + imsi as u32;
        self.send(&S1apPdu::InitialContextSetupResponse { enb_ue_id, mme_ue_id, enb_teid, enb_ip: 0xC0A8_0001 });
        self.uplink_nas(enb_ue_id, mme_ue_id, NasMsg::AttachComplete);
        (mme_ue_id, guti)
    }
}

/// Run one seeded workload sequentially and digest everything observable.
fn run_workload(seed: u64) -> u64 {
    let mut r = Replay::new(false);
    let mut gen = SignalingGen::new(1, USERS, 1000, EventMix { attach_fraction: 0.6 });
    // The generator's LCG is fixed; the seed offsets into the stream so
    // each seed replays a distinct event subsequence.
    for _ in 0..seed {
        gen.next_event();
    }

    // imsi -> mme_ue_id from the most recent attach.
    let mut sessions: HashMap<u64, u32> = HashMap::new();
    let mut next_enb_ue_id = 0x500u32;
    for _ in 0..EVENTS {
        match gen.next_event() {
            SigEvent::Attach { imsi } => {
                if sessions.contains_key(&imsi) {
                    // Duplicate attach: intentionally out of scope (see
                    // module docs); fold a marker so skips still count.
                    r.fold(b"dup-skip");
                    continue;
                }
                let (mme_ue_id, _) = r.attach(imsi, next_enb_ue_id);
                next_enb_ue_id += 1;
                sessions.insert(imsi, mme_ue_id);
            }
            SigEvent::S1Handover { imsi, new_enb_teid, new_enb_ip } => {
                // Attached users path-switch; unknown sessions exercise
                // the unroutable path (mme_ue_id 0 resolves to nobody).
                let mme_ue_id = sessions.get(&imsi).copied().unwrap_or(0);
                let enb_ue_id = 0x900 + imsi as u32;
                r.send(&S1apPdu::PathSwitchRequest { enb_ue_id, mme_ue_id, new_enb_teid, new_enb_ip, ecgi: 0x200 });
            }
        }
    }

    // Final state: every user's ControlState, in IMSI order.
    r.fold_states();
    // Pre-existing counters only: the refactor adds new per-procedure
    // counters, which must not perturb these.
    let (cp, m) = (&r.cp, r.cp.metrics());
    // The idle/paging subsystem (PR 10) must be completely inert in a
    // replay that never releases a UE: any nonzero here means paging
    // machinery leaked into the attach/handover paths.
    assert_eq!(m.paged, 0, "seed replay must not page");
    assert_eq!(m.paging_resolved, 0);
    assert_eq!(m.paging_expired, 0);
    assert_eq!(m.paging_retx, 0);
    assert_eq!(cp.paging_in_flight(), 0);
    assert_eq!(cp.idle_user_count(), 0, "no UE may end up suspended");
    for v in [
        m.attaches,
        m.attach_rejects,
        m.handovers,
        m.detaches,
        m.bearer_updates,
        m.migrations_out,
        m.migrations_in,
        m.s1ap_rx,
        m.service_requests,
        m.releases,
        cp.user_count() as u64,
    ] {
        r.fold(&v.to_le_bytes());
    }
    r.digest
}

#[test]
fn sequential_delivery_matches_pre_refactor_goldens() {
    // Captured on the pre-refactor run-to-completion control plane.
    let golden: [(u64, u64); 3] = [(1, GOLDEN_SEED_1), (7, GOLDEN_SEED_7), (42, GOLDEN_SEED_42)];
    for (seed, want) in golden {
        let got = run_workload(seed);
        assert_eq!(got, want, "seed {seed}: digest {got:#018x} != golden {want:#018x}");
    }
}

// Golden digests; see capture notes in module docs.
const GOLDEN_SEED_1: u64 = 0x4bf0_1a6f_2b4a_b0ae;
const GOLDEN_SEED_7: u64 = 0x438d_8af5_8a9d_5611;
const GOLDEN_SEED_42: u64 = 0x2b8e_b170_c94f_7399;

// ---------------------------------------------------------------------------
// Lifecycle replay: every procedure leg, still strictly sequential.
// ---------------------------------------------------------------------------

/// UEs in the lifecycle replay.
const LIFECYCLE_UES: u64 = 6;
/// The UE whose page is never answered (it expires on the tick clock)
/// and which then leaves by network detach instead of a UE detach.
const DEAF_UE: u64 = 4;

/// Per UE: attach; S1 handover and TAU; S1 release → page → service
/// request + context setup response (one UE leaves its page to expire on
/// the tick clock instead); then UE detach, or network detach for the UE
/// whose page expired. Digests the emitted PDU bytes, the data-plane
/// updates, the `ControlState`s before the detaches, and every
/// `CtrlMetrics` counter at the end.
fn run_lifecycles() -> u64 {
    let mut r = Replay::new(true);
    // imsi -> (enb_ue_id, mme_ue_id, guti) of the UE's current association.
    let mut ues: HashMap<u64, (u32, u32, u64)> = HashMap::new();
    for imsi in 1..=LIFECYCLE_UES {
        let enb_ue_id = 0x500 + imsi as u32;
        let (mme_ue_id, guti) = r.attach(imsi, enb_ue_id);
        ues.insert(imsi, (enb_ue_id, mme_ue_id, guti));
    }

    for imsi in 1..=LIFECYCLE_UES {
        let (enb_ue_id, mme_ue_id, guti) = ues[&imsi];
        let out = r.send(&S1apPdu::HandoverRequired { enb_ue_id, mme_ue_id, target_ecgi: 0x300 + imsi as u32 });
        assert!(matches!(out.as_slice(), [S1apPdu::HandoverRequest { .. }]), "{out:?}");
        let ack =
            S1apPdu::HandoverRequestAck { mme_ue_id, new_enb_teid: 0xE100 + imsi as u32, new_enb_ip: 0xC0A8_0002 };
        let out = r.send(&ack);
        assert!(matches!(out.as_slice(), [S1apPdu::HandoverCommand { .. }]), "{out:?}");
        r.uplink_nas(enb_ue_id, mme_ue_id, NasMsg::TrackingAreaUpdateRequest { guti, tac: 2 + imsi as u16 });
    }

    for imsi in 1..=LIFECYCLE_UES {
        let (enb_ue_id, mme_ue_id, guti) = ues[&imsi];
        let out = r.send(&S1apPdu::UeContextReleaseRequest { enb_ue_id, mme_ue_id, cause: 0 });
        assert!(matches!(out.as_slice(), [S1apPdu::UeContextReleaseCommand { .. }]), "{out:?}");
        r.send(&S1apPdu::UeContextReleaseComplete { enb_ue_id, mme_ue_id });
        let out = r.cp.page(imsi);
        assert!(matches!(out.as_slice(), [S1apPdu::Paging { .. }]), "{out:?}");
        r.fold_out(&out);
        if imsi == DEAF_UE {
            continue;
        }
        let enb_ue_id = 0x700 + imsi as u32;
        let nas = NasMsg::ServiceRequest { guti }.encode();
        let out = r.send(&S1apPdu::InitialUeMessage { enb_ue_id, ecgi: 0x400 + imsi as u32, tac: 1, nas });
        let &[S1apPdu::DownlinkNasTransport { mme_ue_id, .. }] = out.as_slice() else { panic!("{out:?}") };
        let enb_teid = 0xE200 + imsi as u32;
        r.send(&S1apPdu::InitialContextSetupResponse { enb_ue_id, mme_ue_id, enb_teid, enb_ip: 0xC0A8_0003 });
        ues.insert(imsi, (enb_ue_id, mme_ue_id, guti));
    }

    // The deaf UE's page retransmits on the tick clock, then expires.
    for tick in 1..=u64::from(PAGING_MAX_RETX + 1) * PAGING_RETX_TICKS {
        r.cp.note_tick(tick);
        let tx = r.cp.take_pending_tx();
        r.fold_out(&tx);
    }
    assert_eq!(r.cp.metrics().paging_expired, 1, "the deaf UE's page expires");
    r.fold_states();

    for imsi in 1..=LIFECYCLE_UES {
        let (enb_ue_id, mme_ue_id, guti) = ues[&imsi];
        let out = if imsi == DEAF_UE {
            let out = r.cp.network_detach(imsi);
            r.fold_out(&out);
            out
        } else {
            r.uplink_nas(enb_ue_id, mme_ue_id, NasMsg::DetachRequest { guti })
        };
        assert!(!out.is_empty(), "imsi {imsi}: detach unanswered");
    }

    let m = r.cp.metrics();
    let n = LIFECYCLE_UES;
    assert_eq!((m.attaches, m.handovers, m.releases, m.service_requests, m.detaches), (n, n, n, n - 1, n));
    assert_eq!(
        (m.paged, m.paging_resolved, m.paging_expired, m.paging_retx),
        (n, n - 1, 1, u64::from(PAGING_MAX_RETX))
    );
    let in_flight = r.cp.procedures_in_flight();
    assert!(m.procedure_accounting_holds(in_flight) && m.signaling_conservation_holds(r.cp.mailbox_backlog()));
    assert!(m.paging_accounting_holds(r.cp.paging_in_flight()));
    let by_mme = r.cp.s1_index_len();
    let json = serde_json::to_string(&m).unwrap();
    r.fold(json.as_bytes());
    for v in [in_flight, r.cp.user_count() as u64, r.cp.idle_user_count() as u64, by_mme as u64] {
        r.fold(&v.to_le_bytes());
    }
    r.digest
}

#[test]
fn lifecycle_replay_matches_goldens() {
    let got = run_lifecycles();
    assert_eq!(got, GOLDEN_LIFECYCLES, "lifecycle digest {got:#018x} != golden {GOLDEN_LIFECYCLES:#018x}");
}

/// Captured on the hand-written per-procedure step functions that the
/// table-driven stepper replaced, then re-captured on that same code with
/// one change: the digest folds the one S1 routing index, no longer an
/// eNodeB-UE-id index beside it. Re-captured once more when MME UE ids
/// came to name their slot; only ids moved. A page carries the released
/// association's id (1..=6) instead of a cursor id (7, 9, 11, 13, 14,
/// 16), and a service request's association takes its slot's id one
/// tenant block up (257..=262 less the deaf UE's 260) instead of the
/// cursor's (8, 10, 12, 15, 17). Updates, states and counters are as
/// before.
const GOLDEN_LIFECYCLES: u64 = 0xaa4f_0b7f_3e1d_aa63;

#[test]
#[ignore]
fn print_digests() {
    for seed in [1u64, 7, 42] {
        println!("seed {seed}: {:#018x}", run_workload(seed));
    }
    println!("lifecycles: {:#018x}", run_lifecycles());
}
