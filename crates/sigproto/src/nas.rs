//! Non-Access-Stratum (NAS) EMM messages — 3GPP TS 24.301.
//!
//! NAS is the protocol between the UE and the MME that rides *inside*
//! S1AP messages on the S1-MME interface. This module implements the EPS
//! Mobility Management (EMM) messages the attach / detach / TAU procedures
//! exchange, with IMSIs carried in BCD as on the wire.

use crate::wire::{need, u32_at, u64_at};
use crate::{Result, SigError};

/// A 15-digit IMSI stored as a plain integer (e.g. `404_01_0000000001`).
pub type Imsi = u64;

/// A GUTI — the temporary identifier the network assigns at attach so the
/// IMSI stops appearing over the radio link.
pub type Guti = u64;

/// EMM cause codes (subset).
pub mod cause {
    pub const SUCCESS: u8 = 0;
    pub const IMSI_UNKNOWN: u8 = 2;
    pub const ILLEGAL_UE: u8 = 3;
    pub const AUTH_FAILURE: u8 = 20;
    pub const NETWORK_FAILURE: u8 = 17;
    pub const CONGESTION: u8 = 22;
    /// "Protocol error, unspecified" — a message that makes no sense in
    /// the procedure's current state and cannot be queued or deduped.
    pub const PROTOCOL_ERROR: u8 = 111;
}

/// Encode an IMSI's 15 digits as packed BCD (8 bytes, high nibble of the
/// last byte = 0xF filler, as TS 23.003 prescribes for odd digit counts).
pub fn imsi_to_bcd(imsi: Imsi) -> [u8; 8] {
    let mut digits = [0u8; 15];
    let mut v = imsi;
    for d in digits.iter_mut().rev() {
        *d = (v % 10) as u8;
        v /= 10;
    }
    let mut out = [0u8; 8];
    for i in 0..7 {
        out[i] = digits[2 * i] << 4 | digits[2 * i + 1];
    }
    out[7] = digits[14] << 4 | 0x0F;
    out
}

/// Decode a packed-BCD IMSI (inverse of [`imsi_to_bcd`]).
pub fn imsi_from_bcd(bcd: &[u8; 8]) -> Result<Imsi> {
    let mut v: u64 = 0;
    for &b in bcd.iter().take(7) {
        let hi = b >> 4;
        let lo = b & 0xF;
        if hi > 9 || lo > 9 {
            return Err(SigError::BadValue("imsi bcd digit"));
        }
        v = v * 100 + u64::from(hi) * 10 + u64::from(lo);
    }
    let last = bcd[7] >> 4;
    if last > 9 || bcd[7] & 0xF != 0xF {
        return Err(SigError::BadValue("imsi bcd tail"));
    }
    Ok(v * 10 + u64::from(last))
}

/// EMM messages used by the attach / detach / TAU procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NasMsg {
    /// UE → MME: begin the attach procedure.
    AttachRequest {
        imsi: Imsi,
        /// UE network capability bits (ciphering algorithms etc.).
        ue_capability: u32,
    },
    /// MME → UE: authentication challenge (RAND, AUTN from the HSS).
    AuthenticationRequest { rand: u64, autn: u64 },
    /// UE → MME: challenge response (RES).
    AuthenticationResponse { res: u64 },
    /// MME → UE: reject (bad RES, unknown IMSI, ...).
    AuthenticationReject { cause: u8 },
    /// MME → UE: select security algorithms.
    SecurityModeCommand { integrity_alg: u8, ciphering_alg: u8 },
    /// UE → MME.
    SecurityModeComplete,
    /// MME → UE: attach succeeded; carries the GUTI and the UE's IP.
    AttachAccept {
        guti: Guti,
        ue_ip: u32,
        /// Tracking area the UE may roam within without updates.
        tac: u16,
    },
    /// UE → MME: final leg of attach.
    AttachComplete,
    /// MME → UE: attach failed.
    AttachReject { cause: u8 },
    /// UE → MME: leave the network.
    DetachRequest { guti: Guti },
    /// MME → UE.
    DetachAccept,
    /// MME → UE: network-triggered detach (TS 24.301 "Detach Request,
    /// UE terminated") — subscription withdrawn, operator action. The
    /// UE answers with a DetachAccept riding uplink NAS transport.
    NetworkDetachRequest { cause: u8 },
    /// UE → MME: entered a tracking area outside its list.
    TrackingAreaUpdateRequest { guti: Guti, tac: u16 },
    /// MME → UE.
    TrackingAreaUpdateAccept { tac: u16 },
    /// UE → MME: an idle UE has uplink data pending — re-establish the
    /// bearer (the idle→active transition that drives PEPC's two-level
    /// table promotion).
    ServiceRequest { guti: Guti },
    /// MME → UE: service request accepted; bearer re-established.
    ServiceAccept,
    /// MME → UE: service request refused (mailbox overflow / congestion,
    /// unknown GUTI carried via S1AP release instead).
    ServiceReject { cause: u8 },
    /// MME → UE: request shed by overload/admission control. Unlike the
    /// plain rejects, this carries an explicit back-off timer (TS 24.301
    /// T3346-style): the UE must wait `backoff_ms` before retrying, which
    /// is what turns shed load into *signaled* back-pressure instead of a
    /// silent drop the UE immediately retries against.
    CongestionReject { cause: u8, backoff_ms: u16 },
}

impl NasMsg {
    const T_ATTACH_REQ: u8 = 0x41;
    const T_ATTACH_ACC: u8 = 0x42;
    const T_ATTACH_CPL: u8 = 0x43;
    const T_ATTACH_REJ: u8 = 0x44;
    const T_DETACH_REQ: u8 = 0x45;
    const T_DETACH_ACC: u8 = 0x46;
    const T_NET_DETACH_REQ: u8 = 0x4A;
    const T_CONG_REJ: u8 = 0x47;
    const T_TAU_REQ: u8 = 0x48;
    const T_TAU_ACC: u8 = 0x49;
    const T_AUTH_REQ: u8 = 0x52;
    const T_AUTH_RSP: u8 = 0x53;
    const T_AUTH_REJ: u8 = 0x54;
    const T_SEC_CMD: u8 = 0x5D;
    const T_SEC_CPL: u8 = 0x5E;
    const T_SVC_REQ: u8 = 0x4D;
    const T_SVC_REJ: u8 = 0x4E;
    const T_SVC_ACC: u8 = 0x4F;

    /// Bytes [`Self::encode`] produces: the type byte plus the fields.
    fn encoded_len(&self) -> usize {
        1 + match self {
            NasMsg::SecurityModeComplete | NasMsg::AttachComplete | NasMsg::DetachAccept | NasMsg::ServiceAccept => 0,
            NasMsg::AuthenticationReject { .. }
            | NasMsg::AttachReject { .. }
            | NasMsg::NetworkDetachRequest { .. }
            | NasMsg::ServiceReject { .. } => 1,
            NasMsg::SecurityModeCommand { .. } | NasMsg::TrackingAreaUpdateAccept { .. } => 2,
            NasMsg::CongestionReject { .. } => 3,
            NasMsg::AuthenticationResponse { .. } | NasMsg::DetachRequest { .. } | NasMsg::ServiceRequest { .. } => 8,
            NasMsg::TrackingAreaUpdateRequest { .. } => 10,
            NasMsg::AttachRequest { .. } => 12,
            NasMsg::AttachAccept { .. } => 14,
            NasMsg::AuthenticationRequest { .. } => 16,
        }
    }

    /// Serialize to bytes, into a buffer of exactly the encoded size.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        match self {
            NasMsg::AttachRequest { imsi, ue_capability } => {
                out.push(Self::T_ATTACH_REQ);
                out.extend_from_slice(&imsi_to_bcd(*imsi));
                out.extend_from_slice(&ue_capability.to_be_bytes());
            }
            NasMsg::AuthenticationRequest { rand, autn } => {
                out.push(Self::T_AUTH_REQ);
                out.extend_from_slice(&rand.to_be_bytes());
                out.extend_from_slice(&autn.to_be_bytes());
            }
            NasMsg::AuthenticationResponse { res } => {
                out.push(Self::T_AUTH_RSP);
                out.extend_from_slice(&res.to_be_bytes());
            }
            NasMsg::AuthenticationReject { cause } => {
                out.push(Self::T_AUTH_REJ);
                out.push(*cause);
            }
            NasMsg::SecurityModeCommand { integrity_alg, ciphering_alg } => {
                out.push(Self::T_SEC_CMD);
                out.push(*integrity_alg);
                out.push(*ciphering_alg);
            }
            NasMsg::SecurityModeComplete => out.push(Self::T_SEC_CPL),
            NasMsg::AttachAccept { guti, ue_ip, tac } => {
                out.push(Self::T_ATTACH_ACC);
                out.extend_from_slice(&guti.to_be_bytes());
                out.extend_from_slice(&ue_ip.to_be_bytes());
                out.extend_from_slice(&tac.to_be_bytes());
            }
            NasMsg::AttachComplete => out.push(Self::T_ATTACH_CPL),
            NasMsg::AttachReject { cause } => {
                out.push(Self::T_ATTACH_REJ);
                out.push(*cause);
            }
            NasMsg::DetachRequest { guti } => {
                out.push(Self::T_DETACH_REQ);
                out.extend_from_slice(&guti.to_be_bytes());
            }
            NasMsg::DetachAccept => out.push(Self::T_DETACH_ACC),
            NasMsg::NetworkDetachRequest { cause } => {
                out.push(Self::T_NET_DETACH_REQ);
                out.push(*cause);
            }
            NasMsg::TrackingAreaUpdateRequest { guti, tac } => {
                out.push(Self::T_TAU_REQ);
                out.extend_from_slice(&guti.to_be_bytes());
                out.extend_from_slice(&tac.to_be_bytes());
            }
            NasMsg::TrackingAreaUpdateAccept { tac } => {
                out.push(Self::T_TAU_ACC);
                out.extend_from_slice(&tac.to_be_bytes());
            }
            NasMsg::ServiceRequest { guti } => {
                out.push(Self::T_SVC_REQ);
                out.extend_from_slice(&guti.to_be_bytes());
            }
            NasMsg::ServiceAccept => out.push(Self::T_SVC_ACC),
            NasMsg::ServiceReject { cause } => {
                out.push(Self::T_SVC_REJ);
                out.push(*cause);
            }
            NasMsg::CongestionReject { cause, backoff_ms } => {
                out.push(Self::T_CONG_REJ);
                out.push(*cause);
                out.extend_from_slice(&backoff_ms.to_be_bytes());
            }
        }
        out
    }

    /// Parse bytes produced by [`NasMsg::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self> {
        need(buf, 1, "nas header")?;
        match buf[0] {
            Self::T_ATTACH_REQ => {
                need(buf, 13, "attach request")?;
                let mut bcd = [0u8; 8];
                bcd.copy_from_slice(&buf[1..9]);
                Ok(NasMsg::AttachRequest { imsi: imsi_from_bcd(&bcd)?, ue_capability: u32_at(buf, 9) })
            }
            Self::T_AUTH_REQ => {
                need(buf, 17, "auth request")?;
                Ok(NasMsg::AuthenticationRequest { rand: u64_at(buf, 1), autn: u64_at(buf, 9) })
            }
            Self::T_AUTH_RSP => {
                need(buf, 9, "auth response")?;
                Ok(NasMsg::AuthenticationResponse { res: u64_at(buf, 1) })
            }
            Self::T_AUTH_REJ => {
                need(buf, 2, "auth reject")?;
                Ok(NasMsg::AuthenticationReject { cause: buf[1] })
            }
            Self::T_SEC_CMD => {
                need(buf, 3, "security mode command")?;
                Ok(NasMsg::SecurityModeCommand { integrity_alg: buf[1], ciphering_alg: buf[2] })
            }
            Self::T_SEC_CPL => Ok(NasMsg::SecurityModeComplete),
            Self::T_ATTACH_ACC => {
                need(buf, 15, "attach accept")?;
                Ok(NasMsg::AttachAccept {
                    guti: u64_at(buf, 1),
                    ue_ip: u32_at(buf, 9),
                    tac: crate::wire::u16_at(buf, 13),
                })
            }
            Self::T_ATTACH_CPL => Ok(NasMsg::AttachComplete),
            Self::T_ATTACH_REJ => {
                need(buf, 2, "attach reject")?;
                Ok(NasMsg::AttachReject { cause: buf[1] })
            }
            Self::T_DETACH_REQ => {
                need(buf, 9, "detach request")?;
                Ok(NasMsg::DetachRequest { guti: u64_at(buf, 1) })
            }
            Self::T_DETACH_ACC => Ok(NasMsg::DetachAccept),
            Self::T_NET_DETACH_REQ => {
                need(buf, 2, "network detach request")?;
                Ok(NasMsg::NetworkDetachRequest { cause: buf[1] })
            }
            Self::T_TAU_REQ => {
                need(buf, 11, "tau request")?;
                Ok(NasMsg::TrackingAreaUpdateRequest { guti: u64_at(buf, 1), tac: crate::wire::u16_at(buf, 9) })
            }
            Self::T_TAU_ACC => {
                need(buf, 3, "tau accept")?;
                Ok(NasMsg::TrackingAreaUpdateAccept { tac: crate::wire::u16_at(buf, 1) })
            }
            Self::T_SVC_REQ => {
                need(buf, 9, "service request")?;
                Ok(NasMsg::ServiceRequest { guti: u64_at(buf, 1) })
            }
            Self::T_SVC_ACC => Ok(NasMsg::ServiceAccept),
            Self::T_SVC_REJ => {
                need(buf, 2, "service reject")?;
                Ok(NasMsg::ServiceReject { cause: buf[1] })
            }
            Self::T_CONG_REJ => {
                need(buf, 4, "congestion reject")?;
                Ok(NasMsg::CongestionReject { cause: buf[1], backoff_ms: crate::wire::u16_at(buf, 2) })
            }
            other => Err(SigError::UnknownType("nas message", other.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcd_roundtrips_real_imsis() {
        for imsi in [404_01_0000000001u64, 310_410_123456789, 1, 999_99_9999999999] {
            let bcd = imsi_to_bcd(imsi);
            assert_eq!(imsi_from_bcd(&bcd).unwrap(), imsi, "imsi {imsi}");
        }
    }

    #[test]
    fn bcd_filler_nibble_enforced() {
        let mut bcd = imsi_to_bcd(404_01_0000000001);
        bcd[7] &= 0xF0; // clobber the 0xF filler
        assert!(imsi_from_bcd(&bcd).is_err());
    }

    #[test]
    fn bcd_rejects_non_decimal_digits() {
        let mut bcd = imsi_to_bcd(12345);
        bcd[0] = 0xAB;
        assert!(imsi_from_bcd(&bcd).is_err());
    }

    fn sample_msgs() -> Vec<NasMsg> {
        vec![
            NasMsg::AttachRequest { imsi: 404_01_0000000042, ue_capability: 0xF0F0 },
            NasMsg::AuthenticationRequest { rand: 0x1122334455667788, autn: 0x99AABBCCDDEEFF00 },
            NasMsg::AuthenticationResponse { res: 0xCAFEBABE },
            NasMsg::AuthenticationReject { cause: cause::AUTH_FAILURE },
            NasMsg::SecurityModeCommand { integrity_alg: 2, ciphering_alg: 1 },
            NasMsg::SecurityModeComplete,
            NasMsg::AttachAccept { guti: 0xDEAD_BEEF_0001, ue_ip: 0x0A00_002A, tac: 0x1234 },
            NasMsg::AttachComplete,
            NasMsg::AttachReject { cause: cause::IMSI_UNKNOWN },
            NasMsg::DetachRequest { guti: 77 },
            NasMsg::DetachAccept,
            NasMsg::NetworkDetachRequest { cause: cause::NETWORK_FAILURE },
            NasMsg::TrackingAreaUpdateRequest { guti: 88, tac: 9 },
            NasMsg::TrackingAreaUpdateAccept { tac: 9 },
            NasMsg::ServiceRequest { guti: 99 },
            NasMsg::ServiceAccept,
            NasMsg::ServiceReject { cause: cause::CONGESTION },
            NasMsg::CongestionReject { cause: cause::CONGESTION, backoff_ms: 1500 },
        ]
    }

    #[test]
    fn all_messages_roundtrip() {
        for m in sample_msgs() {
            let enc = m.encode();
            assert_eq!(NasMsg::decode(&enc).unwrap(), m, "roundtrip failed for {m:?}");
        }
    }

    #[test]
    fn every_message_encodes_into_an_exactly_sized_buffer() {
        for m in sample_msgs() {
            let enc = m.encode();
            assert_eq!(enc.capacity(), enc.len(), "{m:?}");
        }
    }

    #[test]
    fn truncations_rejected() {
        let enc = NasMsg::AttachRequest { imsi: 12345, ue_capability: 7 }.encode();
        for cut in 0..enc.len() {
            assert!(NasMsg::decode(&enc[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn congestion_reject_truncations_rejected() {
        let enc = NasMsg::CongestionReject { cause: cause::CONGESTION, backoff_ms: 0xABCD }.encode();
        assert_eq!(enc.len(), 4);
        for cut in 0..enc.len() {
            assert!(NasMsg::decode(&enc[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn unknown_type_rejected() {
        assert!(matches!(NasMsg::decode(&[0xEE, 0, 0]), Err(SigError::UnknownType(_, 0xEE))));
    }
}
