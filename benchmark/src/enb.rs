//! The emulated eNodeB and UE: builds each uplink S1AP PDU of a UE
//! lifecycle and checks the node's answer to it. Only `pepc-sigproto`
//! codecs and the SIM-side key derivation of `pepc-backend` are used — the
//! node sees wire bytes and nothing else.

use pepc_backend::hss::sim_response;
use pepc_backend::Hss;
use pepc_sigproto::nas::NasMsg;
use pepc_sigproto::s1ap::S1apPdu;

/// The twelve uplink messages of one UE lifecycle, in script order:
/// attach (5 legs) → S1 handover (2) → S1 release (2) → service request
/// (+ context-setup response) → detach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    AttachReq,
    AuthResp,
    SmcComplete,
    IcsResp,
    AttachComplete,
    HoRequired,
    HoAck,
    ReleaseReq,
    ReleaseComplete,
    ServiceReq,
    SrIcsResp,
    DetachReq,
}

pub const LEGS: [Leg; 12] = [
    Leg::AttachReq,
    Leg::AuthResp,
    Leg::SmcComplete,
    Leg::IcsResp,
    Leg::AttachComplete,
    Leg::HoRequired,
    Leg::HoAck,
    Leg::ReleaseReq,
    Leg::ReleaseComplete,
    Leg::ServiceReq,
    Leg::SrIcsResp,
    Leg::DetachReq,
];

/// Leg ranges of the four procedure classes inside [`LEGS`].
pub const ATTACH: std::ops::Range<usize> = 0..5;
pub const HANDOVER: std::ops::Range<usize> = 5..7;
pub const IDLE_CYCLE: std::ops::Range<usize> = 7..11;
pub const DETACH: std::ops::Range<usize> = 11..12;

impl Leg {
    /// Metric-name suffix (`node.s1ap_ns.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Leg::AttachReq => "attach_req",
            Leg::AuthResp => "auth_resp",
            Leg::SmcComplete => "smc_complete",
            Leg::IcsResp => "ics_resp",
            Leg::AttachComplete => "attach_complete",
            Leg::HoRequired => "ho_required",
            Leg::HoAck => "ho_ack",
            Leg::ReleaseReq => "release_req",
            Leg::ReleaseComplete => "release_complete",
            Leg::ServiceReq => "service_req",
            Leg::SrIcsResp => "sr_ics_resp",
            Leg::DetachReq => "detach_req",
        }
    }
}

const ECGI: u32 = 0x100;
const TAC: u16 = 1;
pub const ENB_IP_BASE: u32 = 0xC0A8_0001;
/// eNodeBs a handover may target.
pub const ENBS: u32 = 16;

/// Downlink tunnel endpoint of `enb_ue_id` at eNodeB number `enb`.
pub fn enb_endpoint(enb: u32, enb_ue_id: u32) -> (u32, u32) {
    (0xE000_0000 | (enb << 20) | (enb_ue_id & 0xF_FFFF), ENB_IP_BASE + enb)
}

/// What the emulated radio side knows about one UE.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ue {
    pub imsi: u64,
    pub enb_ue_id: u32,
    pub mme_ue_id: u32,
    pub guti: u64,
    pub ue_ip: u32,
    pub gw_teid: u32,
    /// Where the node must tunnel this UE's downlink right now.
    pub enb_teid: u32,
    pub enb_ip: u32,
    /// Authentication challenge in flight.
    rand: u64,
    /// eNodeB the pending handover moves the UE to.
    pub target_enb: u32,
}

impl Ue {
    pub fn new(imsi: u64, enb_ue_id: u32) -> Self {
        let (enb_teid, enb_ip) = enb_endpoint(0, enb_ue_id);
        Ue { imsi, enb_ue_id, enb_teid, enb_ip, ..Ue::default() }
    }

    /// Slice serving this UE: MME UE ids are carved per slice (24 bits
    /// each), which is also how the node routes UE-associated PDUs.
    pub fn slice(&self) -> usize {
        ((self.mme_ue_id.max(1) - 1) >> 24) as usize
    }

    /// The eNodeB (by number) this UE's downlink currently goes to.
    pub fn enb(&self) -> u32 {
        self.enb_ip - ENB_IP_BASE
    }

    /// The uplink PDU for `leg`.
    pub fn request(&self, leg: Leg) -> S1apPdu {
        let (enb_ue_id, mme_ue_id) = (self.enb_ue_id, self.mme_ue_id);
        let nas = |m: NasMsg| S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas: m.encode() };
        match leg {
            Leg::AttachReq => S1apPdu::InitialUeMessage {
                enb_ue_id,
                ecgi: ECGI,
                tac: TAC,
                nas: NasMsg::AttachRequest { imsi: self.imsi, ue_capability: 0xF0 }.encode(),
            },
            Leg::AuthResp => {
                nas(NasMsg::AuthenticationResponse { res: sim_response(Hss::key_for(self.imsi), self.rand) })
            }
            Leg::SmcComplete => nas(NasMsg::SecurityModeComplete),
            Leg::IcsResp | Leg::SrIcsResp => S1apPdu::InitialContextSetupResponse {
                enb_ue_id,
                mme_ue_id,
                enb_teid: self.enb_teid,
                enb_ip: self.enb_ip,
            },
            Leg::AttachComplete => nas(NasMsg::AttachComplete),
            Leg::HoRequired => S1apPdu::HandoverRequired { enb_ue_id, mme_ue_id, target_ecgi: ECGI + self.target_enb },
            Leg::HoAck => {
                let (new_enb_teid, new_enb_ip) = enb_endpoint(self.target_enb, enb_ue_id);
                S1apPdu::HandoverRequestAck { mme_ue_id, new_enb_teid, new_enb_ip }
            }
            Leg::ReleaseReq => S1apPdu::UeContextReleaseRequest { enb_ue_id, mme_ue_id, cause: 0 },
            Leg::ReleaseComplete => S1apPdu::UeContextReleaseComplete { enb_ue_id, mme_ue_id },
            Leg::ServiceReq => S1apPdu::InitialUeMessage {
                enb_ue_id,
                ecgi: ECGI,
                tac: TAC,
                nas: NasMsg::ServiceRequest { guti: self.guti }.encode(),
            },
            Leg::DetachReq => nas(NasMsg::DetachRequest { guti: self.guti }),
        }
    }

    /// Take the node's answer to `leg`; false when it is missing or wrong.
    pub fn absorb(&mut self, leg: Leg, replies: &[S1apPdu]) -> bool {
        let nas_of = |p: &S1apPdu| match p {
            S1apPdu::DownlinkNasTransport { mme_ue_id, nas, .. } => NasMsg::decode(nas).ok().map(|m| (*mme_ue_id, m)),
            _ => None,
        };
        match (leg, replies) {
            (Leg::AttachReq, [p]) => match nas_of(p) {
                Some((mme_ue_id, NasMsg::AuthenticationRequest { rand, .. })) => {
                    self.mme_ue_id = mme_ue_id;
                    self.rand = rand;
                    true
                }
                _ => false,
            },
            (Leg::AuthResp, [p]) => matches!(nas_of(p), Some((_, NasMsg::SecurityModeCommand { .. }))),
            (Leg::SmcComplete, [S1apPdu::InitialContextSetupRequest { gw_teid, nas, .. }]) => {
                match NasMsg::decode(nas) {
                    Ok(NasMsg::AttachAccept { guti, ue_ip, .. }) => {
                        self.guti = guti;
                        self.ue_ip = ue_ip;
                        self.gw_teid = *gw_teid;
                        true
                    }
                    _ => false,
                }
            }
            (Leg::IcsResp | Leg::SrIcsResp | Leg::AttachComplete | Leg::ReleaseComplete, []) => true,
            (Leg::HoRequired, [S1apPdu::HandoverRequest { gw_teid, .. }]) => *gw_teid == self.gw_teid,
            (Leg::HoAck, [S1apPdu::HandoverCommand { enb_ue_id, .. }]) => {
                (self.enb_teid, self.enb_ip) = enb_endpoint(self.target_enb, self.enb_ue_id);
                *enb_ue_id == self.enb_ue_id
            }
            (Leg::ReleaseReq, [S1apPdu::UeContextReleaseCommand { cause, .. }]) => *cause == 0,
            (Leg::ServiceReq, [p]) => match nas_of(p) {
                Some((mme_ue_id, NasMsg::ServiceAccept)) => {
                    self.mme_ue_id = mme_ue_id;
                    true
                }
                _ => false,
            },
            (Leg::DetachReq, [p]) => matches!(nas_of(p), Some((_, NasMsg::DetachAccept))),
            _ => false,
        }
    }
}
