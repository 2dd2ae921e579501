//! Branchless packet classification for the data-plane hot path.
//!
//! The data plane's first pipeline pass answers one question per packet:
//! is this an uplink GTP-U tunnel packet (decap, steer by TEID), a plain
//! downlink IPv4 packet (steer by destination address), or garbage? The
//! straightforward answer chains the header parsers in [`crate::ipv4`],
//! [`crate::udp`] and [`crate::gtp`] — a dozen data-dependent branches per
//! packet, each a potential mispredict when traffic mixes directions.
//!
//! [`classify_fast`] computes the same three-way verdict with the field
//! checks evaluated as arithmetic predicates over a fixed 36-byte window
//! (zero-padded when the packet is shorter, with explicit length
//! predicates standing in for the parsers' truncation errors), combined
//! with bitwise AND, and resolved by a single final select. Under
//! `target_feature = "sse2"` (always on for x86_64) the IPv4 header
//! checksum — the widest predicate, 10 summed words — is verified with
//! SIMD: the one's-complement sum is invariant under byte swapping, so the
//! "folds to zero" test works on native-endian lanes directly.
//!
//! [`classify_reference`] is the literal parser-chain composition; the
//! two are proven equivalent by the unit tests here and fuzzed in
//! `tests/prop_roundtrips.rs` (arbitrary bytes, every truncation, bit
//! flips). The data plane calls [`classify_fast`]; differential tests
//! against the parsers keep it honest.

use crate::gtp::{GtpuHdr, GTPU_OVERHEAD, GTPU_PORT};
use crate::ipv4::{IpProto, Ipv4Hdr, IPV4_HDR_LEN};
use crate::udp::{UdpHdr, UDP_HDR_LEN};

/// Three-way classification of a raw packet as it enters the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktClass {
    /// Well-formed outer IPv4/UDP/GTP-U stack; `teid` selects the bearer.
    /// The caller may strip [`GTPU_OVERHEAD`] bytes without re-validating.
    GtpU { teid: u32 },
    /// Well-formed plain IPv4 packet; `dst` is the host-order destination.
    Ipv4 { dst: u32 },
    /// Fails validation on whichever branch its shape selected.
    Malformed,
}

/// The window every predicate reads from: the longest prefix a
/// classification decision can touch (outer IPv4 + UDP + GTP-U header).
const WINDOW: usize = GTPU_OVERHEAD;

/// Reference classifier: the literal composition of the header parsers,
/// structured exactly like the data plane's original branchy pass.
///
/// A packet is *GTP-shaped* when it is long enough to hold an outer
/// IPv4+UDP stack, claims an options-free IPv4 header, carries UDP, and
/// addresses the GTP-U port. GTP-shaped packets must then survive full
/// outer-stack validation; everything else must parse as plain IPv4.
/// Note the deliberate quirk inherited from the original pass: a packet
/// shorter than 28 bytes is never GTP-shaped and so is judged as plain
/// IPv4 even if its first bytes look like a tunnel header.
pub fn classify_reference(d: &[u8]) -> PktClass {
    let gtp_shaped = d.len() >= IPV4_HDR_LEN + UDP_HDR_LEN
        && d[0] == 0x45
        && d[9] == 17
        && u16::from_be_bytes([d[22], d[23]]) == GTPU_PORT;
    if gtp_shaped {
        match parse_gtp_outer(d) {
            Some(teid) => PktClass::GtpU { teid },
            None => PktClass::Malformed,
        }
    } else {
        match Ipv4Hdr::parse(d) {
            Ok(ip) => PktClass::Ipv4 { dst: ip.dst },
            Err(_) => PktClass::Malformed,
        }
    }
}

/// Validate a GTP-shaped packet's outer stack with the real parsers,
/// mirroring `decap_gtpu` up to (but not including) the payload pull.
fn parse_gtp_outer(d: &[u8]) -> Option<u32> {
    let ip = Ipv4Hdr::parse(d).ok()?;
    if ip.proto != IpProto::Udp {
        return None;
    }
    let udp = UdpHdr::parse(&d[IPV4_HDR_LEN..]).ok()?;
    if udp.dst_port != GTPU_PORT {
        return None;
    }
    let gtp = GtpuHdr::parse(&d[IPV4_HDR_LEN + UDP_HDR_LEN..]).ok()?;
    // GtpuHdr::parse succeeding implies d.len() >= GTPU_OVERHEAD.
    if usize::from(gtp.length) != d.len() - GTPU_OVERHEAD {
        return None;
    }
    Some(gtp.teid)
}

/// Branchless classifier: byte-equivalent to [`classify_reference`].
///
/// Every field check becomes a 0/1 predicate over a zero-padded copy of
/// the first `WINDOW` bytes; length checks that the parsers express as
/// truncation errors become explicit predicates on the real length. The
/// predicates are AND-ed per branch and a single final select picks the
/// verdict — no data-dependent branch depends on packet *contents* until
/// that select.
pub fn classify_fast(d: &[u8]) -> PktClass {
    let len = d.len();
    let mut w = [0u8; WINDOW];
    let n = len.min(WINDOW);
    w[..n].copy_from_slice(&d[..n]);

    // Length predicates (stand-ins for the parsers' Truncated errors).
    let has_ip = (len >= IPV4_HDR_LEN) as u32;
    let has_udp = (len >= IPV4_HDR_LEN + UDP_HDR_LEN) as u32;
    let has_gtp = (len >= WINDOW) as u32;

    // Shape predicates: which branch would the reference take?
    let v45 = (w[0] == 0x45) as u32;
    let proto_udp = (w[9] == 17) as u32;
    let gtp_port = (u16::from_be_bytes([w[22], w[23]]) == GTPU_PORT) as u32;
    let gtp_shaped = has_udp & v45 & proto_udp & gtp_port;

    // Shared IPv4 validation: checksum over the 20 fixed header bytes
    // (fully present whenever `has_ip`), total-length sanity.
    let csum_ok = ipv4_checksum_folds_to_zero(&w) as u32;
    let total_len_ok = (u16::from_be_bytes([w[2], w[3]]) as usize >= IPV4_HDR_LEN) as u32;
    let ip_valid = has_ip & v45 & csum_ok & total_len_ok;

    // GTP-branch predicates. The padded window makes reads safe; `has_gtp`
    // carries the truncation semantics.
    let udp_len_ok = (u16::from_be_bytes([w[24], w[25]]) as usize >= UDP_HDR_LEN) as u32;
    let flags = w[28];
    let flags_ok = ((flags >> 5 == 1) as u32) & ((flags & 0x10 != 0) as u32) & ((flags & 0x07 == 0) as u32);
    let mt = w[29];
    let mtype_ok =
        ((mt == 255) as u32) | ((mt == 1) as u32) | ((mt == 2) as u32) | ((mt == 26) as u32) | ((mt == 254) as u32);
    // Written additively so it cannot underflow for short packets.
    let gtp_len_ok = (u16::from_be_bytes([w[30], w[31]]) as usize + GTPU_OVERHEAD == len) as u32;
    let gtp_ok = ip_valid & udp_len_ok & has_gtp & flags_ok & mtype_ok & gtp_len_ok;

    let teid = u32::from_be_bytes([w[32], w[33], w[34], w[35]]);
    let dst = u32::from_be_bytes([w[16], w[17], w[18], w[19]]);

    // The one select. `gtp_shaped` routes exactly as the reference does.
    match (gtp_shaped, gtp_ok, ip_valid) {
        (1, 1, _) => PktClass::GtpU { teid },
        (0, _, 1) => PktClass::Ipv4 { dst },
        _ => PktClass::Malformed,
    }
}

/// Does the RFC 1071 sum over the first 20 bytes fold to zero?
///
/// The one's-complement sum is invariant under byte swapping (swapping
/// every word swaps the sum), so `fold == 0` — i.e. the raw sum folds to
/// `0xFFFF` — can be tested on native-endian words, which is what lets
/// the SSE2 path load lanes without shuffling.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[inline]
fn ipv4_checksum_folds_to_zero(w: &[u8; WINDOW]) -> bool {
    // SAFETY: SSE2 is statically enabled (cfg above); loads are unaligned
    // (`loadu`) from a 36-byte array, so the 16-byte read is in bounds.
    unsafe {
        use core::arch::x86_64::*;
        let v = _mm_loadu_si128(w.as_ptr() as *const __m128i);
        let zero = _mm_setzero_si128();
        // Zero-extend the eight u16 lanes to u32 and add pairwise.
        let s = _mm_add_epi32(_mm_unpacklo_epi16(v, zero), _mm_unpackhi_epi16(v, zero));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        let mut acc = _mm_cvtsi128_si32(s) as u32;
        acc += u32::from(u16::from_ne_bytes([w[16], w[17]]));
        acc += u32::from(u16::from_ne_bytes([w[18], w[19]]));
        // Ten u16 words sum below 0xA_0000: two folds reach 16 bits.
        acc = (acc & 0xFFFF) + (acc >> 16);
        acc = (acc & 0xFFFF) + (acc >> 16);
        acc as u16 == 0xFFFF
    }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
#[inline]
fn ipv4_checksum_folds_to_zero(w: &[u8; WINDOW]) -> bool {
    let mut acc = 0u32;
    let mut i = 0;
    while i < IPV4_HDR_LEN {
        acc += u32::from(u16::from_be_bytes([w[i], w[i + 1]]));
        i += 2;
    }
    acc = (acc & 0xFFFF) + (acc >> 16);
    acc = (acc & 0xFFFF) + (acc >> 16);
    acc as u16 == 0xFFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum;
    use crate::gtp::encap_gtpu;
    use crate::mbuf::Mbuf;

    fn inner_packet(dst: u32) -> Mbuf {
        let mut m = Mbuf::new();
        let payload = b"classify me";
        let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
        Ipv4Hdr::new(0x0A00_0001, dst, IpProto::Udp, UDP_HDR_LEN + payload.len())
            .emit(&mut hdr[..IPV4_HDR_LEN])
            .unwrap();
        UdpHdr::new(5555, 53, payload.len()).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
        m.extend(&hdr);
        m.extend(payload);
        m
    }

    fn uplink_packet(teid: u32) -> Mbuf {
        let mut m = inner_packet(0x0808_0808);
        encap_gtpu(&mut m, 0xC0A8_0001, 0x0AFE_0001, teid).unwrap();
        m
    }

    fn assert_both(d: &[u8], want: PktClass) {
        assert_eq!(classify_reference(d), want, "reference on {d:02x?}");
        assert_eq!(classify_fast(d), want, "fast on {d:02x?}");
    }

    #[test]
    fn classifies_valid_uplink_and_downlink() {
        assert_both(uplink_packet(0xBEEF).data(), PktClass::GtpU { teid: 0xBEEF });
        assert_both(inner_packet(0x0A00_0042).data(), PktClass::Ipv4 { dst: 0x0A00_0042 });
    }

    #[test]
    fn fast_matches_reference_on_every_truncation() {
        for pkt in [uplink_packet(7), inner_packet(3)] {
            let d = pkt.data();
            for cut in 0..=d.len() {
                assert_eq!(classify_fast(&d[..cut]), classify_reference(&d[..cut]), "truncated to {cut} bytes");
            }
        }
    }

    #[test]
    fn fast_matches_reference_on_every_single_bit_flip() {
        for pkt in [uplink_packet(0x1234_5678), inner_packet(0x0A00_0001)] {
            let d = pkt.data();
            let mut buf = d.to_vec();
            for byte in 0..buf.len().min(WINDOW + 4) {
                for bit in 0..8 {
                    buf[byte] ^= 1 << bit;
                    assert_eq!(classify_fast(&buf), classify_reference(&buf), "flip byte {byte} bit {bit}");
                    buf[byte] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn each_gtp_check_failure_is_malformed_in_both() {
        let base = uplink_packet(0xAA);
        let d = base.data();
        // (offset, value) corruptions that keep the packet GTP-shaped but
        // break exactly one downstream check. Checksum-affecting edits are
        // covered by the bit-flip sweep above; here target post-IP fields.
        for (off, val, what) in [
            (25usize, 7u8, "udp wire length below 8"),
            (28, 0x50, "gtp version 2"),
            (28, 0x20, "gtp protocol-type bit clear"),
            (28, 0x32, "gtp sequence flag set"),
            (29, 3, "unknown gtp message type"),
            (30, 0xFF, "gtp length != payload"),
        ] {
            let mut buf = d.to_vec();
            buf[off] = val;
            assert_both(&buf, PktClass::Malformed);
            let _ = what;
        }
    }

    #[test]
    fn gtp_shaped_but_short_falls_to_ipv4_branch() {
        // The inherited quirk: 20..28 bytes of a tunnel packet are not
        // GTP-shaped, so they are judged as plain IPv4 — and the outer
        // header alone is valid IPv4 only if total_len happens to agree;
        // here it does not matter, equivalence is what is pinned.
        let pkt = uplink_packet(0x42);
        let d = pkt.data();
        for cut in IPV4_HDR_LEN..IPV4_HDR_LEN + UDP_HDR_LEN {
            assert_eq!(classify_fast(&d[..cut]), classify_reference(&d[..cut]));
        }
    }

    #[test]
    fn checksum_predicate_agrees_with_checksum_module() {
        let mut w = [0u8; WINDOW];
        let pkt = uplink_packet(1);
        w[..WINDOW].copy_from_slice(&pkt.data()[..WINDOW]);
        assert!(ipv4_checksum_folds_to_zero(&w));
        assert!(checksum::verify(&w[..IPV4_HDR_LEN]));
        w[7] ^= 0x10;
        assert!(!ipv4_checksum_folds_to_zero(&w));
        assert!(!checksum::verify(&w[..IPV4_HDR_LEN]));
    }

    #[test]
    fn zero_and_tiny_inputs_are_malformed_in_both() {
        assert_both(&[], PktClass::Malformed);
        assert_both(&[0x45], PktClass::Malformed);
        assert_both(&[0u8; 19], PktClass::Malformed);
        assert_both(&[0u8; 64], PktClass::Malformed);
    }
}
