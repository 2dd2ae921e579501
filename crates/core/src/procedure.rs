//! Per-UE procedure state machines — the "UE serialization" layer (PR 6).
//!
//! The paper slices state by user so that one control thread owns each
//! UE's signaling; this module makes the *procedure* dimension explicit.
//! Every UE has at most one [`UeMachine`], which is the single owner of
//! that UE's in-flight procedure: it consumes one routed signaling
//! message ([`SigMsg`]) at a time and, for messages that do not fit the
//! current state, decides a [`Disposition`] — queue it in the per-UE
//! mailbox, preempt the running procedure, abort with a NAS cause, dedup
//! a retransmission (answering from the cached response), or drop it.
//!
//! The machine itself is pure bookkeeping: [`crate::ctrl::ControlPlane`]
//! routes PDUs to machines, applies dispositions, and steps a delivered
//! message through its leg table, one row per (`Wait`, `MsgKind`)
//! pair naming the effect and the next wait state. The policy here and
//! the leg table are two views of one machine, and a unit test keeps them
//! in step: a waiting machine gets `Deliver` exactly for the pairs that
//! have a row. Keeping the policy side-effect free is what lets the
//! interleaving matrix (`tests/procedure_interleavings.rs`) enumerate it.
//!
//! The legs, read off the rows (`*` marks the states where a user record
//! exists that must be rolled back if the attach ends any way but
//! completion):
//!
//! ```text
//! attach    Idle --AttachStart--> AttachAuth --AuthRsp--> AttachSmc
//!           --SmcComplete--> AttachIcs* --IcsRsp--> AttachComplete*
//!           --AttachComplete--> Idle
//! handover  Idle --HoRequired--> HandoverAck --HoAck--> Idle
//! paging    Idle --PageTrigger--> Paging --ServiceStart--> Idle
//! ```
//!
//! An Attach Request for an IMSI that is already attached skips the
//! authentication legs and lands in `AttachIcs` with its identifiers
//! unchanged. A page with no answer expires on the supervision clock
//! after [`PAGING_MAX_RETX`] retransmissions. Service request, TAU, UE
//! detach, network detach, X2 path switch and S1 release are one-row
//! procedures out of `Idle`: they start and complete in one leg.

use pepc_sigproto::nas::NasMsg;
use pepc_sigproto::s1ap::S1apPdu;
use std::collections::VecDeque;

/// Paging retransmissions before the page expires (escalation gives up
/// and the buffered downlink is dropped).
pub const PAGING_MAX_RETX: u8 = 3;

/// Supervision ticks between paging retransmissions — pure tick
/// arithmetic, no wall clock, so every schedule is deterministic.
pub const PAGING_RETX_TICKS: u64 = 2;

/// Per-UE mailbox depth. Deferred messages beyond this are dropped (and
/// counted); 8 comfortably covers every legal overlap of two procedures.
pub const MAILBOX_CAP: usize = 8;

/// The resumable procedure state. `Copy` so HA snapshots and the
/// dispatcher can move it around freely; identifiers needed to resume are
/// carried inline (nothing hides in closures or call stacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcState {
    /// No procedure in flight.
    #[default]
    Idle,
    /// Attach: challenge sent, waiting for the UE's RES.
    AttachWaitAuth { imsi: u64, xres: u64, ecgi: u32, mme_ue_id: u32 },
    /// Attach: security mode commanded, waiting for completion.
    AttachWaitSmc { imsi: u64, ecgi: u32, mme_ue_id: u32 },
    /// Attach: context setup sent, waiting for the eNodeB's endpoint.
    /// The user record exists from here on (rollback on abort).
    AttachWaitIcs { imsi: u64, mme_ue_id: u32 },
    /// Attach: waiting for the final NAS Attach Complete.
    AttachWaitComplete { imsi: u64, mme_ue_id: u32 },
    /// S1 handover: waiting for the target eNodeB's ack.
    HandoverWaitAck { imsi: u64, source_enb_ue_id: u32, mme_ue_id: u32 },
    /// Network-triggered paging: a Paging PDU is out, waiting for the
    /// UE's Service Request. `next_retx` is the supervision tick the next
    /// retransmission fires at; after [`PAGING_MAX_RETX`] retransmissions
    /// the page expires and the buffered downlink is dropped.
    PagingWait { imsi: u64, mme_ue_id: u32, retries: u8, next_retx: u64 },
}

/// A [`ProcState`] without the identifiers it carries: the first half of
/// a leg-table row's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    Idle,
    AttachAuth,
    AttachSmc,
    AttachIcs,
    AttachComplete,
    HandoverAck,
    Paging,
}

impl ProcState {
    pub(crate) fn wait(&self) -> Wait {
        match self {
            ProcState::Idle => Wait::Idle,
            ProcState::AttachWaitAuth { .. } => Wait::AttachAuth,
            ProcState::AttachWaitSmc { .. } => Wait::AttachSmc,
            ProcState::AttachWaitIcs { .. } => Wait::AttachIcs,
            ProcState::AttachWaitComplete { .. } => Wait::AttachComplete,
            ProcState::HandoverWaitAck { .. } => Wait::HandoverAck,
            ProcState::PagingWait { .. } => Wait::Paging,
        }
    }
}

/// A [`SigMsg`] without its fields, NAS messages by type: the second half
/// of a leg-table row's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsgKind {
    AttachStart,
    ServiceStart,
    AuthRsp,
    SmcComplete,
    AttachComplete,
    Detach,
    Tau,
    /// Any other uplink NAS message: no leg expects it.
    OtherNas,
    IcsRsp,
    PathSwitch,
    HoRequired,
    HoAck,
    ReleaseReq,
    PageTrigger,
    NetDetach,
}

/// A signaling message after routing: addressed to exactly one UE, with
/// the transport identifiers it arrived under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigMsg {
    /// Initial UE message carrying a NAS Attach Request.
    AttachStart { enb_ue_id: u32, ecgi: u32, tac: u16, imsi: u64 },
    /// Initial UE message carrying a NAS Service Request.
    ServiceStart { enb_ue_id: u32, ecgi: u32, guti: u64 },
    /// Uplink NAS transport (decoded).
    Nas { enb_ue_id: u32, mme_ue_id: u32, msg: NasMsg },
    /// Initial Context Setup Response from the eNodeB.
    IcsRsp { enb_ue_id: u32, mme_ue_id: u32, enb_teid: u32, enb_ip: u32 },
    /// X2 path switch request.
    PathSwitch { enb_ue_id: u32, mme_ue_id: u32, new_enb_teid: u32, new_enb_ip: u32, ecgi: u32 },
    /// S1 Handover Required from the source eNodeB.
    HoRequired { enb_ue_id: u32, mme_ue_id: u32 },
    /// S1 Handover Request Ack from the target eNodeB.
    HoAck { mme_ue_id: u32, new_enb_teid: u32, new_enb_ip: u32 },
    /// eNodeB-initiated S1 release (UE Context Release Request): the UE
    /// goes idle — data path suspended, tunnels torn down, context kept.
    ReleaseReq { enb_ue_id: u32, mme_ue_id: u32, cause: u8 },
    /// Internal: a downlink packet arrived for an idle UE; the data path
    /// buffered it and asks the control plane to page. Not a wire PDU —
    /// it still flows through the mailbox/disposition machinery (and the
    /// signaling conservation identity) like any other message.
    PageTrigger { imsi: u64 },
    /// Internal: network-triggered detach (operator/HSS action). Emits a
    /// NAS Detach Request (UE-terminated) and a UE context release.
    NetDetach { imsi: u64 },
}

impl SigMsg {
    pub(crate) fn kind(&self) -> MsgKind {
        match self {
            SigMsg::AttachStart { .. } => MsgKind::AttachStart,
            SigMsg::ServiceStart { .. } => MsgKind::ServiceStart,
            SigMsg::Nas { msg, .. } => match msg {
                NasMsg::AuthenticationResponse { .. } => MsgKind::AuthRsp,
                NasMsg::SecurityModeComplete => MsgKind::SmcComplete,
                NasMsg::AttachComplete => MsgKind::AttachComplete,
                NasMsg::DetachRequest { .. } => MsgKind::Detach,
                NasMsg::TrackingAreaUpdateRequest { .. } => MsgKind::Tau,
                _ => MsgKind::OtherNas,
            },
            SigMsg::IcsRsp { .. } => MsgKind::IcsRsp,
            SigMsg::PathSwitch { .. } => MsgKind::PathSwitch,
            SigMsg::HoRequired { .. } => MsgKind::HoRequired,
            SigMsg::HoAck { .. } => MsgKind::HoAck,
            SigMsg::ReleaseReq { .. } => MsgKind::ReleaseReq,
            SigMsg::PageTrigger { .. } => MsgKind::PageTrigger,
            SigMsg::NetDetach { .. } => MsgKind::NetDetach,
        }
    }
}

/// What the machine decides to do with an arriving message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Fits the current state: deliver and step the machine.
    Deliver,
    /// Legal but not now: park in the mailbox until the procedure ends.
    Defer,
    /// A retransmission of the message that produced the cached
    /// response: re-emit [`UeMachine::last_tx`] without stepping.
    Dedup,
    /// A newer procedure displaces the running one: abort (with
    /// rollback), then deliver this message into the fresh `Idle` state.
    Preempt,
    /// Irreconcilable mid-procedure: abort with a NAS cause.
    Abort,
    /// Meaningless in every reachable state: discard.
    Drop,
}

/// The single-owner procedure machine for one UE.
#[derive(Debug, Default)]
pub struct UeMachine {
    pub imsi: u64,
    /// Last eNodeB UE id seen for this UE (routing index value).
    pub enb_ue_id: u32,
    /// This machine owns the routing-index entry of `enb_ue_id`: an attach
    /// is running ahead of the user record, which takes it over at birth.
    pub enb_bound: bool,
    pub state: ProcState,
    /// Messages deferred until the running procedure terminates.
    pub mailbox: VecDeque<SigMsg>,
    /// Response emitted for the last delivered message — replayed on
    /// dedup (and by paging retransmits) so retransmissions are
    /// idempotent. Written only while a procedure stays in flight; empty
    /// in `Idle`, where nothing reads it.
    pub last_tx: Vec<S1apPdu>,
    /// Tick of the last delivered, preempting or deduplicated message (or
    /// paging retransmission); deferred and dropped ones cannot keep a
    /// stalled procedure alive. Drives the supervision timer and the
    /// "stuck procedure" oracle.
    pub last_progress: u64,
    /// The user record predates the running procedure (idempotent
    /// re-attach): abort must *not* roll the user back.
    pub preexisting: bool,
}

impl UeMachine {
    pub fn new(imsi: u64, now: u64) -> Self {
        UeMachine { imsi, last_progress: now, ..Default::default() }
    }

    /// Whether a procedure is in flight.
    pub fn in_flight(&self) -> bool {
        self.state != ProcState::Idle
    }

    /// The policy table: given the current state, classify an arriving
    /// message. Pure — no side effects, so tests can sweep it.
    pub fn dispose(&self, msg: &SigMsg) -> Disposition {
        use Disposition::*;
        use MsgKind as K;
        use Wait as W;
        let wait = self.state.wait();
        let attaching = matches!(wait, W::AttachAuth | W::AttachSmc | W::AttachIcs | W::AttachComplete);
        // A reply naming an MME UE id answers only the procedure waiting
        // under that id.
        let awaited = match (self.state, msg) {
            (ProcState::AttachWaitIcs { mme_ue_id, .. }, SigMsg::IcsRsp { mme_ue_id: got, .. })
            | (ProcState::HandoverWaitAck { mme_ue_id, .. }, SigMsg::HoAck { mme_ue_id: got, .. }) => mme_ue_id == *got,
            _ => true,
        };
        let same_association = matches!(msg, SigMsg::AttachStart { enb_ue_id, .. } if *enb_ue_id == self.enb_ue_id);
        match (wait, msg.kind()) {
            // Idle: everything is deliverable; the leg table decides
            // whether it means anything.
            (W::Idle, _) => Deliver,
            // The message each wait state is waiting for.
            (W::AttachAuth, K::AuthRsp)
            | (W::AttachSmc, K::SmcComplete)
            | (W::AttachIcs, K::IcsRsp)
            | (W::AttachComplete, K::AttachComplete)
            | (W::HandoverAck, K::HoAck)
            | (W::Paging, K::ServiceStart)
                if awaited =>
            {
                Deliver
            }
            // Retransmits of steps already consumed (an Attach Request on
            // the same S1 association is the same attempt), answered from
            // the cache. Another downlink packet while paging rides the
            // page in flight.
            (_, K::AttachStart) if attaching && same_association => Dedup,
            (W::AttachSmc | W::AttachIcs | W::AttachComplete, K::AuthRsp)
            | (W::AttachIcs | W::AttachComplete, K::SmcComplete)
            | (W::HandoverAck, K::HoRequired)
            | (W::Paging, K::PageTrigger) => Dedup,
            // A fresh attach attempt, the UE's detach and the network's
            // all displace whatever is running.
            (_, K::AttachStart | K::Detach | K::NetDetach) => Preempt,
            // Mobility waits for the running procedure to end, and so does
            // a service request behind a handover.
            (_, K::Tau) | (W::HandoverAck, K::ServiceStart) => Defer,
            // Anything else for a paged (idle) UE is meaningless: it has no
            // radio to release and no attach or handover in flight.
            (W::Paging, _) => Drop,
            // Mobility, and the eNodeB releasing the radio, wait for an
            // attach or handover to settle (an aborted attach releases
            // anyway; a completed one is then released normally).
            (_, K::PathSwitch | K::ReleaseReq | K::HoRequired) => Defer,
            // Any other NAS message mid-attach is a protocol error.
            (_, K::AuthRsp | K::SmcComplete | K::AttachComplete | K::OtherNas) if attaching => Abort,
            // Stray replies, a service request from a UE that is still
            // attaching, and downlink for a UE that is not idle (nothing to
            // page: the bearer will carry it).
            _ => Drop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine_in(state: ProcState) -> UeMachine {
        let mut m = UeMachine::new(7, 0);
        m.enb_ue_id = 10;
        m.state = state;
        m
    }

    fn nas(msg: NasMsg) -> SigMsg {
        SigMsg::Nas { enb_ue_id: 10, mme_ue_id: 1, msg }
    }

    const WAIT_AUTH: ProcState = ProcState::AttachWaitAuth { imsi: 7, xres: 1, ecgi: 1, mme_ue_id: 1 };
    const WAIT_SMC: ProcState = ProcState::AttachWaitSmc { imsi: 7, ecgi: 1, mme_ue_id: 1 };
    const WAIT_ICS: ProcState = ProcState::AttachWaitIcs { imsi: 7, mme_ue_id: 1 };
    const WAIT_CPL: ProcState = ProcState::AttachWaitComplete { imsi: 7, mme_ue_id: 1 };
    const HO_WAIT: ProcState = ProcState::HandoverWaitAck { imsi: 7, source_enb_ue_id: 10, mme_ue_id: 1 };
    const PAGE_WAIT: ProcState = ProcState::PagingWait { imsi: 7, mme_ue_id: 1, retries: 0, next_retx: 2 };

    #[test]
    fn idle_delivers_everything() {
        let m = machine_in(ProcState::Idle);
        for msg in [
            SigMsg::AttachStart { enb_ue_id: 1, ecgi: 1, tac: 1, imsi: 7 },
            SigMsg::ServiceStart { enb_ue_id: 1, ecgi: 1, guti: 9 },
            nas(NasMsg::AttachComplete),
            SigMsg::HoAck { mme_ue_id: 1, new_enb_teid: 1, new_enb_ip: 1 },
        ] {
            assert_eq!(m.dispose(&msg), Disposition::Deliver, "{msg:?}");
        }
        assert!(!m.in_flight());
    }

    #[test]
    fn attach_expected_steps_deliver() {
        assert_eq!(
            machine_in(WAIT_AUTH).dispose(&nas(NasMsg::AuthenticationResponse { res: 1 })),
            Disposition::Deliver
        );
        assert_eq!(machine_in(WAIT_SMC).dispose(&nas(NasMsg::SecurityModeComplete)), Disposition::Deliver);
        assert_eq!(machine_in(WAIT_CPL).dispose(&nas(NasMsg::AttachComplete)), Disposition::Deliver);
        assert_eq!(
            machine_in(WAIT_ICS).dispose(&SigMsg::IcsRsp { enb_ue_id: 10, mme_ue_id: 1, enb_teid: 1, enb_ip: 1 }),
            Disposition::Deliver
        );
    }

    #[test]
    fn attach_retransmits_dedup() {
        // Same S1 association retransmitting the Attach Request.
        for st in [WAIT_AUTH, WAIT_SMC, WAIT_ICS, WAIT_CPL] {
            assert_eq!(
                machine_in(st).dispose(&SigMsg::AttachStart { enb_ue_id: 10, ecgi: 1, tac: 1, imsi: 7 }),
                Disposition::Dedup,
                "{st:?}"
            );
        }
        // Already-consumed NAS steps.
        for st in [WAIT_SMC, WAIT_ICS, WAIT_CPL] {
            assert_eq!(
                machine_in(st).dispose(&nas(NasMsg::AuthenticationResponse { res: 1 })),
                Disposition::Dedup,
                "{st:?}"
            );
        }
        for st in [WAIT_ICS, WAIT_CPL] {
            assert_eq!(machine_in(st).dispose(&nas(NasMsg::SecurityModeComplete)), Disposition::Dedup, "{st:?}");
        }
    }

    #[test]
    fn new_association_preempts_attach() {
        for st in [WAIT_AUTH, WAIT_SMC, WAIT_ICS, WAIT_CPL] {
            assert_eq!(
                machine_in(st).dispose(&SigMsg::AttachStart { enb_ue_id: 11, ecgi: 1, tac: 1, imsi: 7 }),
                Disposition::Preempt,
                "{st:?}"
            );
        }
    }

    #[test]
    fn detach_preempts_everything() {
        for st in [WAIT_AUTH, WAIT_SMC, WAIT_ICS, WAIT_CPL, HO_WAIT] {
            assert_eq!(machine_in(st).dispose(&nas(NasMsg::DetachRequest { guti: 9 })), Disposition::Preempt, "{st:?}");
        }
    }

    #[test]
    fn mobility_defers_during_attach() {
        let ps = SigMsg::PathSwitch { enb_ue_id: 1, mme_ue_id: 1, new_enb_teid: 1, new_enb_ip: 1, ecgi: 0 };
        let ho = SigMsg::HoRequired { enb_ue_id: 1, mme_ue_id: 1 };
        for st in [WAIT_AUTH, WAIT_SMC, WAIT_ICS, WAIT_CPL] {
            assert_eq!(machine_in(st).dispose(&ps), Disposition::Defer, "{st:?}");
            assert_eq!(machine_in(st).dispose(&ho), Disposition::Defer, "{st:?}");
            assert_eq!(
                machine_in(st).dispose(&nas(NasMsg::TrackingAreaUpdateRequest { guti: 9, tac: 2 })),
                Disposition::Defer,
                "{st:?}"
            );
        }
    }

    #[test]
    fn out_of_state_nas_aborts_attach() {
        // An Attach Complete before the context is set up cannot be a
        // retransmission — the procedure is broken.
        assert_eq!(machine_in(WAIT_AUTH).dispose(&nas(NasMsg::AttachComplete)), Disposition::Abort);
        assert_eq!(machine_in(WAIT_SMC).dispose(&nas(NasMsg::AttachComplete)), Disposition::Abort);
        assert_eq!(machine_in(WAIT_AUTH).dispose(&nas(NasMsg::SecurityModeComplete)), Disposition::Abort);
    }

    #[test]
    fn ics_response_gated_on_state_and_id() {
        let good = SigMsg::IcsRsp { enb_ue_id: 10, mme_ue_id: 1, enb_teid: 1, enb_ip: 1 };
        let bad_id = SigMsg::IcsRsp { enb_ue_id: 10, mme_ue_id: 99, enb_teid: 1, enb_ip: 1 };
        assert_eq!(machine_in(WAIT_ICS).dispose(&good), Disposition::Deliver);
        assert_eq!(machine_in(WAIT_ICS).dispose(&bad_id), Disposition::Drop);
        assert_eq!(machine_in(WAIT_AUTH).dispose(&good), Disposition::Drop);
    }

    #[test]
    fn handover_policy() {
        let m = machine_in(HO_WAIT);
        assert_eq!(m.dispose(&SigMsg::HoAck { mme_ue_id: 1, new_enb_teid: 1, new_enb_ip: 1 }), Disposition::Deliver);
        assert_eq!(m.dispose(&SigMsg::HoAck { mme_ue_id: 2, new_enb_teid: 1, new_enb_ip: 1 }), Disposition::Drop);
        assert_eq!(m.dispose(&SigMsg::HoRequired { enb_ue_id: 10, mme_ue_id: 1 }), Disposition::Dedup);
        assert_eq!(m.dispose(&SigMsg::AttachStart { enb_ue_id: 12, ecgi: 1, tac: 1, imsi: 7 }), Disposition::Preempt);
        assert_eq!(m.dispose(&SigMsg::ServiceStart { enb_ue_id: 1, ecgi: 1, guti: 9 }), Disposition::Defer);
        assert_eq!(
            m.dispose(&SigMsg::PathSwitch { enb_ue_id: 1, mme_ue_id: 1, new_enb_teid: 1, new_enb_ip: 1, ecgi: 0 }),
            Disposition::Defer
        );
        assert_eq!(m.dispose(&nas(NasMsg::AuthenticationResponse { res: 1 })), Disposition::Drop);
    }

    /// One message of every kind, its ids matching [`machine_in`]'s.
    fn every_kind() -> Vec<SigMsg> {
        let msgs = vec![
            SigMsg::AttachStart { enb_ue_id: 10, ecgi: 1, tac: 1, imsi: 7 },
            SigMsg::ServiceStart { enb_ue_id: 10, ecgi: 1, guti: 9 },
            nas(NasMsg::AuthenticationResponse { res: 1 }),
            nas(NasMsg::SecurityModeComplete),
            nas(NasMsg::AttachComplete),
            nas(NasMsg::DetachRequest { guti: 9 }),
            nas(NasMsg::TrackingAreaUpdateRequest { guti: 9, tac: 2 }),
            nas(NasMsg::ServiceAccept),
            SigMsg::IcsRsp { enb_ue_id: 10, mme_ue_id: 1, enb_teid: 1, enb_ip: 1 },
            SigMsg::PathSwitch { enb_ue_id: 10, mme_ue_id: 1, new_enb_teid: 1, new_enb_ip: 1, ecgi: 0 },
            SigMsg::HoRequired { enb_ue_id: 10, mme_ue_id: 1 },
            SigMsg::HoAck { mme_ue_id: 1, new_enb_teid: 1, new_enb_ip: 1 },
            SigMsg::ReleaseReq { enb_ue_id: 10, mme_ue_id: 1, cause: 0 },
            SigMsg::PageTrigger { imsi: 7 },
            SigMsg::NetDetach { imsi: 7 },
        ];
        let kinds: Vec<MsgKind> = msgs.iter().map(SigMsg::kind).collect();
        for (i, k) in kinds.iter().enumerate() {
            assert!(!kinds[..i].contains(k), "{k:?} listed twice");
        }
        msgs
    }

    #[test]
    fn policy_delivers_to_a_waiting_machine_exactly_the_leg_rows() {
        for st in [WAIT_AUTH, WAIT_SMC, WAIT_ICS, WAIT_CPL, HO_WAIT, PAGE_WAIT] {
            for msg in every_kind() {
                let delivered = machine_in(st).dispose(&msg) == Disposition::Deliver;
                let has_row = crate::ctrl::leg(st.wait(), msg.kind()).is_some();
                assert_eq!(delivered, has_row, "{st:?} x {msg:?}: policy and leg table disagree");
            }
        }
    }

    #[test]
    fn every_wait_state_a_leg_enters_has_a_leg_out() {
        let legs = &crate::ctrl::LEGS;
        for l in legs {
            assert!(l.to == Wait::Idle || legs.iter().any(|next| next.from == l.to), "{:?} is a dead end", l.to);
        }
    }

    #[test]
    fn release_defers_during_procedures() {
        let rel = SigMsg::ReleaseReq { enb_ue_id: 10, mme_ue_id: 1, cause: 0 };
        for st in [WAIT_AUTH, WAIT_SMC, WAIT_ICS, WAIT_CPL, HO_WAIT] {
            assert_eq!(machine_in(st).dispose(&rel), Disposition::Defer, "{st:?}");
        }
        // Already paging means already idle — nothing left to release.
        assert_eq!(machine_in(PAGE_WAIT).dispose(&rel), Disposition::Drop);
        assert_eq!(machine_in(ProcState::Idle).dispose(&rel), Disposition::Deliver);
    }

    #[test]
    fn page_trigger_only_matters_when_idle() {
        let pg = SigMsg::PageTrigger { imsi: 7 };
        assert_eq!(machine_in(ProcState::Idle).dispose(&pg), Disposition::Deliver);
        // A second downlink burst while the page is out rides the page
        // already in flight.
        assert_eq!(machine_in(PAGE_WAIT).dispose(&pg), Disposition::Dedup);
        for st in [WAIT_AUTH, WAIT_SMC, WAIT_ICS, WAIT_CPL, HO_WAIT] {
            assert_eq!(machine_in(st).dispose(&pg), Disposition::Drop, "{st:?}");
        }
    }

    #[test]
    fn network_detach_preempts_everything() {
        let nd = SigMsg::NetDetach { imsi: 7 };
        for st in [WAIT_AUTH, WAIT_SMC, WAIT_ICS, WAIT_CPL, HO_WAIT, PAGE_WAIT] {
            assert_eq!(machine_in(st).dispose(&nd), Disposition::Preempt, "{st:?}");
        }
        assert_eq!(machine_in(ProcState::Idle).dispose(&nd), Disposition::Deliver);
    }

    #[test]
    fn paging_policy() {
        let m = machine_in(PAGE_WAIT);
        // The service request the page is waiting for.
        assert_eq!(m.dispose(&SigMsg::ServiceStart { enb_ue_id: 2, ecgi: 1, guti: 9 }), Disposition::Deliver);
        // UE-side departures cancel the page.
        assert_eq!(m.dispose(&nas(NasMsg::DetachRequest { guti: 9 })), Disposition::Preempt);
        assert_eq!(m.dispose(&SigMsg::AttachStart { enb_ue_id: 11, ecgi: 1, tac: 1, imsi: 7 }), Disposition::Preempt);
        // Mobility from idle waits for the page to resolve.
        assert_eq!(m.dispose(&nas(NasMsg::TrackingAreaUpdateRequest { guti: 9, tac: 2 })), Disposition::Defer);
        // Attach/handover machinery is meaningless while idle.
        assert_eq!(m.dispose(&nas(NasMsg::AuthenticationResponse { res: 1 })), Disposition::Drop);
        assert_eq!(m.dispose(&SigMsg::HoAck { mme_ue_id: 1, new_enb_teid: 1, new_enb_ip: 1 }), Disposition::Drop);
        assert_eq!(
            m.dispose(&SigMsg::IcsRsp { enb_ue_id: 10, mme_ue_id: 1, enb_teid: 1, enb_ip: 1 }),
            Disposition::Drop
        );
    }
}
