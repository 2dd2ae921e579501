//! S1 Application Protocol (S1AP) — 3GPP TS 36.413.
//!
//! S1AP runs between the eNodeB and the MME over SCTP. NAS messages are
//! opaque byte containers inside the relevant PDUs, exactly as on the real
//! interface. This module implements the PDUs the paper's control plane
//! exercises: the attach call flow (InitialUEMessage, Downlink/Uplink NAS
//! transport, InitialContextSetup), both handover flavours (PathSwitch for
//! X2, HandoverRequired/Request/Command for S1) and UE context release.

use crate::wire::{need, u16_at, u32_at};
use crate::{Result, SigError};

/// An S1AP PDU.
///
/// `enb_ue_id` / `mme_ue_id` are the per-UE S1AP identifiers each side
/// allocates; `teid`s and transport addresses configure the S1-U bearer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S1apPdu {
    /// eNodeB → MME: first message for a UE; carries the initial NAS PDU
    /// (typically an Attach Request).
    InitialUeMessage {
        enb_ue_id: u32,
        /// E-UTRAN cell identifier the UE appeared in.
        ecgi: u32,
        /// Tracking area code.
        tac: u16,
        nas: Vec<u8>,
    },
    /// MME → eNodeB: NAS message for the UE.
    DownlinkNasTransport { enb_ue_id: u32, mme_ue_id: u32, nas: Vec<u8> },
    /// eNodeB → MME: NAS message from the UE.
    UplinkNasTransport { enb_ue_id: u32, mme_ue_id: u32, nas: Vec<u8> },
    /// MME → eNodeB: establish the UE context and the S1-U bearer; carries
    /// the gateway-side tunnel endpoint and the final NAS Attach Accept.
    InitialContextSetupRequest {
        enb_ue_id: u32,
        mme_ue_id: u32,
        /// Gateway S1-U TEID the eNodeB must send uplink traffic to.
        gw_teid: u32,
        /// Gateway transport address.
        gw_ip: u32,
        /// UE aggregate maximum bit rate (kbps).
        ambr_kbps: u32,
        nas: Vec<u8>,
    },
    /// eNodeB → MME: bearer is up; carries the eNodeB-side tunnel endpoint
    /// for downlink traffic.
    InitialContextSetupResponse { enb_ue_id: u32, mme_ue_id: u32, enb_teid: u32, enb_ip: u32 },
    /// eNodeB → MME after an X2 handover: the UE moved to a new eNodeB
    /// that has a direct link to the old one; switch the downlink path.
    PathSwitchRequest { enb_ue_id: u32, mme_ue_id: u32, new_enb_teid: u32, new_enb_ip: u32, ecgi: u32 },
    /// MME → eNodeB: path switched.
    PathSwitchRequestAck { enb_ue_id: u32, mme_ue_id: u32 },
    /// Source eNodeB → MME: S1 handover needed (no X2 link between the
    /// eNodeBs).
    HandoverRequired { enb_ue_id: u32, mme_ue_id: u32, target_ecgi: u32 },
    /// MME → target eNodeB: prepare resources for the incoming UE.
    HandoverRequest { mme_ue_id: u32, gw_teid: u32, gw_ip: u32, ambr_kbps: u32 },
    /// Target eNodeB → MME: resources ready; downlink tunnel endpoint.
    HandoverRequestAck { mme_ue_id: u32, new_enb_teid: u32, new_enb_ip: u32 },
    /// MME → source eNodeB: proceed with the handover.
    HandoverCommand { enb_ue_id: u32, mme_ue_id: u32 },
    /// MME → eNodeB: tear down the UE context (detach, inactivity).
    UeContextReleaseCommand { enb_ue_id: u32, mme_ue_id: u32, cause: u8 },
    /// eNodeB → MME.
    UeContextReleaseComplete { enb_ue_id: u32, mme_ue_id: u32 },
    /// eNodeB → MME: the eNodeB wants the UE's S1 context released
    /// (user inactivity, radio loss). The MME answers with a
    /// UEContextReleaseCommand and the UE transitions to idle — context
    /// retained, tunnels torn down.
    UeContextReleaseRequest { enb_ue_id: u32, mme_ue_id: u32, cause: u8 },
    /// MME → eNodeB: page an idle UE (downlink data pending). Carries
    /// the GUTI the UE is paged by (stand-in for the S-TMSI).
    Paging { mme_ue_id: u32, guti: u64 },
}

impl S1apPdu {
    const T_INITIAL_UE: u8 = 1;
    const T_DL_NAS: u8 = 2;
    const T_UL_NAS: u8 = 3;
    const T_ICS_REQ: u8 = 4;
    const T_ICS_RSP: u8 = 5;
    const T_PSW_REQ: u8 = 6;
    const T_PSW_ACK: u8 = 7;
    const T_HO_REQUIRED: u8 = 8;
    const T_HO_REQUEST: u8 = 9;
    const T_HO_REQ_ACK: u8 = 10;
    const T_HO_COMMAND: u8 = 11;
    const T_UECR_CMD: u8 = 12;
    const T_UECR_CPL: u8 = 13;
    const T_UECR_REQ: u8 = 14;
    const T_PAGING: u8 = 15;

    fn put_nas(out: &mut Vec<u8>, nas: &[u8]) {
        out.extend_from_slice(&(nas.len() as u16).to_be_bytes());
        out.extend_from_slice(nas);
    }

    fn get_nas(buf: &[u8], off: usize) -> Result<Vec<u8>> {
        need(buf, off + 2, "s1ap nas length")?;
        let len = u16_at(buf, off) as usize;
        need(buf, off + 2 + len, "s1ap nas body")?;
        Ok(buf[off + 2..off + 2 + len].to_vec())
    }

    /// Bytes [`Self::encode`] produces: the type byte, the fixed fields,
    /// and a carried NAS PDU behind its 2-byte length.
    fn encoded_len(&self) -> usize {
        1 + match self {
            S1apPdu::InitialUeMessage { nas, .. } => 12 + nas.len(),
            S1apPdu::DownlinkNasTransport { nas, .. } | S1apPdu::UplinkNasTransport { nas, .. } => 10 + nas.len(),
            S1apPdu::InitialContextSetupRequest { nas, .. } => 22 + nas.len(),
            S1apPdu::PathSwitchRequestAck { .. }
            | S1apPdu::HandoverCommand { .. }
            | S1apPdu::UeContextReleaseComplete { .. } => 8,
            S1apPdu::UeContextReleaseCommand { .. } | S1apPdu::UeContextReleaseRequest { .. } => 9,
            S1apPdu::HandoverRequired { .. } | S1apPdu::HandoverRequestAck { .. } | S1apPdu::Paging { .. } => 12,
            S1apPdu::InitialContextSetupResponse { .. } | S1apPdu::HandoverRequest { .. } => 16,
            S1apPdu::PathSwitchRequest { .. } => 20,
        }
    }

    /// Serialize to bytes, into a buffer of exactly the encoded size.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        match self {
            S1apPdu::InitialUeMessage { enb_ue_id, ecgi, tac, nas } => {
                out.push(Self::T_INITIAL_UE);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&ecgi.to_be_bytes());
                out.extend_from_slice(&tac.to_be_bytes());
                Self::put_nas(&mut out, nas);
            }
            S1apPdu::DownlinkNasTransport { enb_ue_id, mme_ue_id, nas } => {
                out.push(Self::T_DL_NAS);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                Self::put_nas(&mut out, nas);
            }
            S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas } => {
                out.push(Self::T_UL_NAS);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                Self::put_nas(&mut out, nas);
            }
            S1apPdu::InitialContextSetupRequest { enb_ue_id, mme_ue_id, gw_teid, gw_ip, ambr_kbps, nas } => {
                out.push(Self::T_ICS_REQ);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                out.extend_from_slice(&gw_teid.to_be_bytes());
                out.extend_from_slice(&gw_ip.to_be_bytes());
                out.extend_from_slice(&ambr_kbps.to_be_bytes());
                Self::put_nas(&mut out, nas);
            }
            S1apPdu::InitialContextSetupResponse { enb_ue_id, mme_ue_id, enb_teid, enb_ip } => {
                out.push(Self::T_ICS_RSP);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                out.extend_from_slice(&enb_teid.to_be_bytes());
                out.extend_from_slice(&enb_ip.to_be_bytes());
            }
            S1apPdu::PathSwitchRequest { enb_ue_id, mme_ue_id, new_enb_teid, new_enb_ip, ecgi } => {
                out.push(Self::T_PSW_REQ);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                out.extend_from_slice(&new_enb_teid.to_be_bytes());
                out.extend_from_slice(&new_enb_ip.to_be_bytes());
                out.extend_from_slice(&ecgi.to_be_bytes());
            }
            S1apPdu::PathSwitchRequestAck { enb_ue_id, mme_ue_id } => {
                out.push(Self::T_PSW_ACK);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
            }
            S1apPdu::HandoverRequired { enb_ue_id, mme_ue_id, target_ecgi } => {
                out.push(Self::T_HO_REQUIRED);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                out.extend_from_slice(&target_ecgi.to_be_bytes());
            }
            S1apPdu::HandoverRequest { mme_ue_id, gw_teid, gw_ip, ambr_kbps } => {
                out.push(Self::T_HO_REQUEST);
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                out.extend_from_slice(&gw_teid.to_be_bytes());
                out.extend_from_slice(&gw_ip.to_be_bytes());
                out.extend_from_slice(&ambr_kbps.to_be_bytes());
            }
            S1apPdu::HandoverRequestAck { mme_ue_id, new_enb_teid, new_enb_ip } => {
                out.push(Self::T_HO_REQ_ACK);
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                out.extend_from_slice(&new_enb_teid.to_be_bytes());
                out.extend_from_slice(&new_enb_ip.to_be_bytes());
            }
            S1apPdu::HandoverCommand { enb_ue_id, mme_ue_id } => {
                out.push(Self::T_HO_COMMAND);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
            }
            S1apPdu::UeContextReleaseCommand { enb_ue_id, mme_ue_id, cause } => {
                out.push(Self::T_UECR_CMD);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                out.push(*cause);
            }
            S1apPdu::UeContextReleaseComplete { enb_ue_id, mme_ue_id } => {
                out.push(Self::T_UECR_CPL);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
            }
            S1apPdu::UeContextReleaseRequest { enb_ue_id, mme_ue_id, cause } => {
                out.push(Self::T_UECR_REQ);
                out.extend_from_slice(&enb_ue_id.to_be_bytes());
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                out.push(*cause);
            }
            S1apPdu::Paging { mme_ue_id, guti } => {
                out.push(Self::T_PAGING);
                out.extend_from_slice(&mme_ue_id.to_be_bytes());
                out.extend_from_slice(&guti.to_be_bytes());
            }
        }
        out
    }

    /// Parse bytes produced by [`S1apPdu::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self> {
        need(buf, 1, "s1ap header")?;
        match buf[0] {
            Self::T_INITIAL_UE => {
                need(buf, 11, "initial ue message")?;
                Ok(S1apPdu::InitialUeMessage {
                    enb_ue_id: u32_at(buf, 1),
                    ecgi: u32_at(buf, 5),
                    tac: u16_at(buf, 9),
                    nas: Self::get_nas(buf, 11)?,
                })
            }
            Self::T_DL_NAS => {
                need(buf, 9, "dl nas transport")?;
                Ok(S1apPdu::DownlinkNasTransport {
                    enb_ue_id: u32_at(buf, 1),
                    mme_ue_id: u32_at(buf, 5),
                    nas: Self::get_nas(buf, 9)?,
                })
            }
            Self::T_UL_NAS => {
                need(buf, 9, "ul nas transport")?;
                Ok(S1apPdu::UplinkNasTransport {
                    enb_ue_id: u32_at(buf, 1),
                    mme_ue_id: u32_at(buf, 5),
                    nas: Self::get_nas(buf, 9)?,
                })
            }
            Self::T_ICS_REQ => {
                need(buf, 21, "initial context setup request")?;
                Ok(S1apPdu::InitialContextSetupRequest {
                    enb_ue_id: u32_at(buf, 1),
                    mme_ue_id: u32_at(buf, 5),
                    gw_teid: u32_at(buf, 9),
                    gw_ip: u32_at(buf, 13),
                    ambr_kbps: u32_at(buf, 17),
                    nas: Self::get_nas(buf, 21)?,
                })
            }
            Self::T_ICS_RSP => {
                need(buf, 17, "initial context setup response")?;
                Ok(S1apPdu::InitialContextSetupResponse {
                    enb_ue_id: u32_at(buf, 1),
                    mme_ue_id: u32_at(buf, 5),
                    enb_teid: u32_at(buf, 9),
                    enb_ip: u32_at(buf, 13),
                })
            }
            Self::T_PSW_REQ => {
                need(buf, 21, "path switch request")?;
                Ok(S1apPdu::PathSwitchRequest {
                    enb_ue_id: u32_at(buf, 1),
                    mme_ue_id: u32_at(buf, 5),
                    new_enb_teid: u32_at(buf, 9),
                    new_enb_ip: u32_at(buf, 13),
                    ecgi: u32_at(buf, 17),
                })
            }
            Self::T_PSW_ACK => {
                need(buf, 9, "path switch ack")?;
                Ok(S1apPdu::PathSwitchRequestAck { enb_ue_id: u32_at(buf, 1), mme_ue_id: u32_at(buf, 5) })
            }
            Self::T_HO_REQUIRED => {
                need(buf, 13, "handover required")?;
                Ok(S1apPdu::HandoverRequired {
                    enb_ue_id: u32_at(buf, 1),
                    mme_ue_id: u32_at(buf, 5),
                    target_ecgi: u32_at(buf, 9),
                })
            }
            Self::T_HO_REQUEST => {
                need(buf, 17, "handover request")?;
                Ok(S1apPdu::HandoverRequest {
                    mme_ue_id: u32_at(buf, 1),
                    gw_teid: u32_at(buf, 5),
                    gw_ip: u32_at(buf, 9),
                    ambr_kbps: u32_at(buf, 13),
                })
            }
            Self::T_HO_REQ_ACK => {
                need(buf, 13, "handover request ack")?;
                Ok(S1apPdu::HandoverRequestAck {
                    mme_ue_id: u32_at(buf, 1),
                    new_enb_teid: u32_at(buf, 5),
                    new_enb_ip: u32_at(buf, 9),
                })
            }
            Self::T_HO_COMMAND => {
                need(buf, 9, "handover command")?;
                Ok(S1apPdu::HandoverCommand { enb_ue_id: u32_at(buf, 1), mme_ue_id: u32_at(buf, 5) })
            }
            Self::T_UECR_CMD => {
                need(buf, 10, "ue context release command")?;
                Ok(S1apPdu::UeContextReleaseCommand {
                    enb_ue_id: u32_at(buf, 1),
                    mme_ue_id: u32_at(buf, 5),
                    cause: buf[9],
                })
            }
            Self::T_UECR_CPL => {
                need(buf, 9, "ue context release complete")?;
                Ok(S1apPdu::UeContextReleaseComplete { enb_ue_id: u32_at(buf, 1), mme_ue_id: u32_at(buf, 5) })
            }
            Self::T_UECR_REQ => {
                need(buf, 10, "ue context release request")?;
                Ok(S1apPdu::UeContextReleaseRequest {
                    enb_ue_id: u32_at(buf, 1),
                    mme_ue_id: u32_at(buf, 5),
                    cause: buf[9],
                })
            }
            Self::T_PAGING => {
                need(buf, 13, "paging")?;
                Ok(S1apPdu::Paging { mme_ue_id: u32_at(buf, 1), guti: crate::wire::u64_at(buf, 5) })
            }
            other => Err(SigError::UnknownType("s1ap pdu", other.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nas::NasMsg;

    fn sample_pdus() -> Vec<S1apPdu> {
        let nas = NasMsg::AttachRequest { imsi: 404_01_0000000007, ue_capability: 3 }.encode();
        vec![
            S1apPdu::InitialUeMessage { enb_ue_id: 1, ecgi: 0x100, tac: 5, nas: nas.clone() },
            S1apPdu::DownlinkNasTransport { enb_ue_id: 1, mme_ue_id: 2, nas: nas.clone() },
            S1apPdu::UplinkNasTransport { enb_ue_id: 1, mme_ue_id: 2, nas: vec![] },
            S1apPdu::InitialContextSetupRequest {
                enb_ue_id: 1,
                mme_ue_id: 2,
                gw_teid: 0xAB,
                gw_ip: 0x0A0A0A0A,
                ambr_kbps: 50_000,
                nas,
            },
            S1apPdu::InitialContextSetupResponse { enb_ue_id: 1, mme_ue_id: 2, enb_teid: 0xCD, enb_ip: 9 },
            S1apPdu::PathSwitchRequest { enb_ue_id: 3, mme_ue_id: 2, new_enb_teid: 4, new_enb_ip: 5, ecgi: 6 },
            S1apPdu::PathSwitchRequestAck { enb_ue_id: 3, mme_ue_id: 2 },
            S1apPdu::HandoverRequired { enb_ue_id: 3, mme_ue_id: 2, target_ecgi: 0x200 },
            S1apPdu::HandoverRequest { mme_ue_id: 2, gw_teid: 0xAB, gw_ip: 7, ambr_kbps: 1000 },
            S1apPdu::HandoverRequestAck { mme_ue_id: 2, new_enb_teid: 8, new_enb_ip: 9 },
            S1apPdu::HandoverCommand { enb_ue_id: 3, mme_ue_id: 2 },
            S1apPdu::UeContextReleaseCommand { enb_ue_id: 1, mme_ue_id: 2, cause: 1 },
            S1apPdu::UeContextReleaseComplete { enb_ue_id: 1, mme_ue_id: 2 },
            S1apPdu::UeContextReleaseRequest { enb_ue_id: 1, mme_ue_id: 2, cause: 4 },
            S1apPdu::Paging { mme_ue_id: 2, guti: 0xD00D_0000_0007 },
        ]
    }

    #[test]
    fn all_pdus_roundtrip() {
        for pdu in sample_pdus() {
            let enc = pdu.encode();
            assert_eq!(S1apPdu::decode(&enc).unwrap(), pdu, "roundtrip failed for {pdu:?}");
        }
    }

    #[test]
    fn every_pdu_encodes_into_an_exactly_sized_buffer() {
        for pdu in sample_pdus() {
            let enc = pdu.encode();
            assert_eq!(enc.capacity(), enc.len(), "{pdu:?}");
        }
    }

    #[test]
    fn embedded_nas_is_preserved_verbatim() {
        let nas = NasMsg::AttachAccept { guti: 42, ue_ip: 7, tac: 1 }.encode();
        let pdu = S1apPdu::DownlinkNasTransport { enb_ue_id: 1, mme_ue_id: 2, nas: nas.clone() };
        let enc = pdu.encode();
        if let S1apPdu::DownlinkNasTransport { nas: got, .. } = S1apPdu::decode(&enc).unwrap() {
            assert_eq!(NasMsg::decode(&got).unwrap(), NasMsg::decode(&nas).unwrap());
        } else {
            panic!("wrong pdu type");
        }
    }

    #[test]
    fn every_truncation_rejected() {
        for pdu in sample_pdus() {
            let enc = pdu.encode();
            for cut in 0..enc.len() {
                assert!(S1apPdu::decode(&enc[..cut]).is_err(), "cut {cut} of {pdu:?} accepted");
            }
        }
    }

    #[test]
    fn unknown_pdu_type_rejected() {
        assert!(matches!(S1apPdu::decode(&[0xEE]), Err(SigError::UnknownType(_, 0xEE))));
    }

    #[test]
    fn nas_length_field_bounds_checked() {
        // DL NAS transport claiming 100-byte NAS with only 2 bytes present.
        let mut enc = S1apPdu::DownlinkNasTransport { enb_ue_id: 1, mme_ue_id: 2, nas: vec![1, 2] }.encode();
        let ll = enc.len();
        enc[ll - 4..ll - 2].copy_from_slice(&100u16.to_be_bytes());
        assert!(S1apPdu::decode(&enc).is_err());
    }
}
