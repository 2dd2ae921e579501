// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! # pepc-sigproto — cellular signaling protocols
//!
//! Everything a software EPC speaks on its control interfaces:
//!
//! * [`sctp`] — SCTP-lite, the transport under S1AP on the S1-MME
//!   interface (3GPP mandates SCTP; the paper used the Linux kernel's
//!   implementation and found it a bottleneck; Figure 11 models that
//!   bottleneck as a serial share of attach cost in `pepc-bench`, not
//!   here).
//! * [`s1ap`] — the S1 Application Protocol between eNodeB and MME:
//!   initial UE messages, NAS transport, context setup, path switch
//!   (X2 handover) and S1 handover messages.
//! * [`nas`] — Non-Access-Stratum EMM messages (attach, authentication,
//!   security mode, detach, tracking-area update) that ride inside S1AP.
//! * [`diameter`] — Diameter-lite for the S6a interface to the HSS
//!   (authentication-information and update-location exchanges).
//! * [`gx`] — Gx-lite credit-control messages to the PCRF.
//!
//! Encodings are compact binary layouts that preserve the *information
//! content and message flow* of the 3GPP protocols rather than their full
//! ASN.1/TLV grammars; every codec is exercised by round-trip and
//! malformed-input tests.

pub mod diameter;
pub mod gx;
pub mod nas;
pub mod s1ap;
pub mod sctp;

pub use diameter::DiameterMsg;
pub use gx::GxMsg;
pub use nas::NasMsg;
pub use s1ap::S1apPdu;
pub use sctp::{AssocState, Association, SctpChunk, SctpPacket};

/// Errors raised by signaling codecs and state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigError {
    /// Input ended before the structure was complete.
    Truncated(&'static str),
    /// A tag/type value is unknown.
    UnknownType(&'static str, u32),
    /// A message arrived that the state machine cannot accept in its
    /// current state.
    BadState(&'static str),
    /// Verification of cookie/digest failed.
    BadCookie,
    /// A field value is out of its legal range.
    BadValue(&'static str),
}

impl std::fmt::Display for SigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SigError::Truncated(w) => write!(f, "truncated {w}"),
            SigError::UnknownType(w, v) => write!(f, "unknown {w} type {v:#x}"),
            SigError::BadState(w) => write!(f, "message not allowed in state: {w}"),
            SigError::BadCookie => write!(f, "cookie verification failed"),
            SigError::BadValue(w) => write!(f, "illegal value for {w}"),
        }
    }
}

impl std::error::Error for SigError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SigError>;

pub(crate) mod wire {
    //! Byte-level read helpers shared by the codecs.
    use super::SigError;

    pub fn need(buf: &[u8], n: usize, what: &'static str) -> Result<(), SigError> {
        if buf.len() < n {
            Err(SigError::Truncated(what))
        } else {
            Ok(())
        }
    }

    pub fn u16_at(buf: &[u8], o: usize) -> u16 {
        u16::from_be_bytes([buf[o], buf[o + 1]])
    }

    pub fn u32_at(buf: &[u8], o: usize) -> u32 {
        u32::from_be_bytes([buf[o], buf[o + 1], buf[o + 2], buf[o + 3]])
    }

    pub fn u64_at(buf: &[u8], o: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[o..o + 8]);
        u64::from_be_bytes(b)
    }
}
