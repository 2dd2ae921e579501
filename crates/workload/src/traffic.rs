//! Data-traffic generation: GTP-U uplink and plain-IP downlink packets
//! over a user population, with buffer recycling so generation cost stays
//! small and identical for every system under test.

use crate::params::Defaults;
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};

/// The data-plane keys the generator must stamp per user.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserKeys {
    /// Gateway-side uplink TEID (outer GTP-U).
    pub teid: u32,
    /// UE IP (downlink destination / uplink inner source).
    pub ue_ip: u32,
}

/// Generates the Table 2 traffic mix across a population.
pub struct TrafficGen {
    users: Vec<UserKeys>,
    /// UL:DL mix, e.g. (1, 3).
    ul: u32,
    dl: u32,
    mix_pos: u32,
    /// Multiplicative LCG state for user selection (uniform, cheap,
    /// deterministic).
    lcg: u64,
    pool: Vec<Mbuf>,
    uplink_payload: usize,
    downlink_payload: usize,
    enb_ip: u32,
    gw_ip: u32,
    generated: u64,
    /// Prebuilt wire images: `[uplink, downlink]`. Per-packet generation
    /// is one memcpy plus four field patches; see [`DirTemplate`].
    templates: [DirTemplate; 2],
}

/// Headroom kept in recycled buffers (enough for one more outer stack).
const GEN_HEADROOM: usize = 64;

/// A fully emitted packet image for one direction with the per-user /
/// per-packet fields located by sentinel scan at construction.
///
/// Only four things vary between packets of a direction: the user IP,
/// the uplink TEID, the IP checksum covering the user IP, and the
/// payload timestamp. Emitting headers per packet (two header emits, a
/// full checksum, a GTP-U encap, and a zeroed payload buffer) costs more
/// than the whole lock protocol under measurement, so the harness pays
/// it once here and memcpy-patches afterwards. Packet bytes are
/// identical to the emit path's output for the same user and timestamp.
#[derive(Default)]
struct DirTemplate {
    bytes: Vec<u8>,
    /// Offset of the 4-byte user IP (uplink: inner source; downlink:
    /// destination). The template stores zero there.
    user_off: usize,
    /// Offset of the IPv4 checksum covering `user_off`.
    csum_off: usize,
    /// Checksum value with the user IP zeroed; the per-user checksum is
    /// derived from it by one's-complement-adding the user IP words.
    csum_base: u16,
    /// Offset of the 8-byte payload timestamp.
    ts_off: usize,
    /// Offset of the GTP-U TEID (`usize::MAX` for downlink: no tunnel).
    teid_off: usize,
}

/// RFC 1071 checksum over an IPv4 header slice (checksum field must be
/// zeroed by the caller).
fn ipv4_csum(h: &[u8]) -> u16 {
    let mut s = 0u32;
    for w in h.chunks(2) {
        s += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    while s >> 16 != 0 {
        s = (s & 0xFFFF) + (s >> 16);
    }
    !(s as u16)
}

fn find(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(needle.len()).position(|w| w == needle).expect("sentinel present in emitted packet")
}

impl DirTemplate {
    /// Locate the variable fields in an emitted sentinel packet and zero
    /// the user field (rebasing the checksum accordingly).
    fn from_sentinel(m: &Mbuf, ue_ip: u32, teid: Option<u32>, ts: u64, user_field_off: usize) -> Self {
        let d = m.data();
        let user_off = find(d, &ue_ip.to_be_bytes());
        let ts_off = find(d, &ts.to_be_bytes());
        let teid_off = teid.map_or(usize::MAX, |t| find(d, &t.to_be_bytes()));
        // The user IP lives `user_field_off` bytes into its IPv4 header.
        let hdr = user_off - user_field_off;
        let csum_off = hdr + 10;
        let mut bytes = d.to_vec();
        bytes[user_off..user_off + 4].fill(0);
        bytes[csum_off..csum_off + 2].fill(0);
        let csum_base = ipv4_csum(&bytes[hdr..hdr + 20]);
        bytes[csum_off..csum_off + 2].copy_from_slice(&csum_base.to_be_bytes());
        DirTemplate { bytes, user_off, csum_off, csum_base, ts_off, teid_off }
    }
}

impl TrafficGen {
    /// A generator over `users`, with the default Table 2 mix and sizes.
    pub fn new(users: Vec<UserKeys>) -> Self {
        assert!(!users.is_empty(), "need at least one user");
        let (ul, dl) = Defaults::UPLINK_PER_DOWNLINK;
        // Wire sizes: uplink 128 B including the outer stack, downlink
        // 64 B plain IP. Inner payloads are what remains after headers.
        let uplink_payload = Defaults::UPLINK_PACKET_BYTES - pepc_net::gtp::GTPU_OVERHEAD - IPV4_HDR_LEN - UDP_HDR_LEN;
        let downlink_payload = Defaults::DOWNLINK_PACKET_BYTES - IPV4_HDR_LEN - UDP_HDR_LEN;
        let mut g = TrafficGen {
            users,
            ul,
            dl,
            mix_pos: 0,
            lcg: 0x853c_49e6_748f_ea9b,
            pool: Vec::with_capacity(128),
            uplink_payload,
            downlink_payload,
            enb_ip: Defaults::ENB_IP,
            gw_ip: Defaults::GW_IP,
            generated: 0,
            templates: Default::default(),
        };
        // Emit one sentinel packet per direction and lift the wire
        // images into patchable templates. The sentinels are values
        // guaranteed not to collide with the constant header fields.
        let s = UserKeys { teid: 0xA5A5_5A5A, ue_ip: 0x5AA5_A55A };
        const TS: u64 = 0xDEAD_C0DE_1234_5678;
        let up = g.emit_uplink(s, TS);
        // The user IP is the inner source (offset 12 in its header).
        g.templates[0] = DirTemplate::from_sentinel(&up, s.ue_ip, Some(s.teid), TS, 12);
        g.recycle(up);
        let down = g.emit_downlink(s, TS);
        // The user IP is the destination (offset 16 in its header).
        g.templates[1] = DirTemplate::from_sentinel(&down, s.ue_ip, None, TS, 16);
        g.recycle(down);
        g
    }

    /// Number of users in the population.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Total packets generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    #[inline]
    fn next_user(&mut self) -> UserKeys {
        // PCG-ish multiplicative step; upper bits select the user.
        self.lcg = self.lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let idx = ((self.lcg >> 33) as usize) % self.users.len();
        self.users[idx]
    }

    #[inline]
    fn buffer(&mut self) -> Mbuf {
        match self.pool.pop() {
            Some(mut m) => {
                m.clear(GEN_HEADROOM);
                m
            }
            None => Mbuf::with_capacity(512, GEN_HEADROOM),
        }
    }

    /// Return a processed packet's buffer for reuse.
    #[inline]
    pub fn recycle(&mut self, m: Mbuf) {
        if self.pool.len() < 4096 {
            self.pool.push(m);
        }
    }

    /// Generate the next packet of the mix, stamping `now_ns` into the
    /// payload for end-to-end latency measurement (see
    /// [`read_timestamp`]).
    #[inline]
    pub fn next_packet(&mut self, now_ns: u64) -> Mbuf {
        let pos = self.mix_pos;
        self.mix_pos = (self.mix_pos + 1) % (self.ul + self.dl);
        self.generated += 1;
        let user = self.next_user();
        let dir = usize::from(pos >= self.ul);
        let mut m = self.buffer();
        let t = &self.templates[dir];
        m.extend(&t.bytes);
        let d = m.data_mut();
        d[t.user_off..t.user_off + 4].copy_from_slice(&user.ue_ip.to_be_bytes());
        if t.teid_off != usize::MAX {
            d[t.teid_off..t.teid_off + 4].copy_from_slice(&user.teid.to_be_bytes());
        }
        // One's-complement-add the user IP into the zero-user-field base
        // checksum (RFC 1624); identical to recomputing from scratch.
        let mut s = u32::from(!t.csum_base) + (user.ue_ip >> 16) + (user.ue_ip & 0xFFFF);
        s = (s & 0xFFFF) + (s >> 16);
        s = (s & 0xFFFF) + (s >> 16);
        d[t.csum_off..t.csum_off + 2].copy_from_slice(&(!(s as u16)).to_be_bytes());
        d[t.ts_off..t.ts_off + 8].copy_from_slice(&now_ns.to_be_bytes());
        m
    }

    /// Emit-path uplink builder (template construction and tests; the
    /// hot path uses the patched template instead).
    fn emit_uplink(&mut self, user: UserKeys, now_ns: u64) -> Mbuf {
        let mut m = self.buffer();
        let payload_len = self.uplink_payload;
        let mut hdr = [0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
        Ipv4Hdr::new(user.ue_ip, 0x0808_0808, IpProto::Udp, UDP_HDR_LEN + payload_len)
            .emit(&mut hdr[..IPV4_HDR_LEN])
            .expect("fits");
        UdpHdr::new(40_000, 80, payload_len).emit(&mut hdr[IPV4_HDR_LEN..]).expect("fits");
        m.extend(&hdr);
        let mut payload = [0u8; 128];
        payload[..8].copy_from_slice(&now_ns.to_be_bytes());
        m.extend(&payload[..payload_len]);
        encap_gtpu(&mut m, self.enb_ip, self.gw_ip, user.teid).expect("headroom");
        m
    }

    /// Emit-path downlink builder (template construction and tests).
    fn emit_downlink(&mut self, user: UserKeys, now_ns: u64) -> Mbuf {
        let mut m = self.buffer();
        let payload_len = self.downlink_payload;
        let mut hdr = [0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
        Ipv4Hdr::new(0x0808_0808, user.ue_ip, IpProto::Udp, UDP_HDR_LEN + payload_len)
            .emit(&mut hdr[..IPV4_HDR_LEN])
            .expect("fits");
        UdpHdr::new(80, 40_000, payload_len).emit(&mut hdr[IPV4_HDR_LEN..]).expect("fits");
        m.extend(&hdr);
        let mut payload = [0u8; 64];
        payload[..8].copy_from_slice(&now_ns.to_be_bytes());
        m.extend(&payload[..payload_len]);
        m
    }
}

/// Read the generation timestamp back out of a packet that has been
/// through a pipeline. Works for decapsulated uplink output (plain inner
/// IP) and encapsulated downlink output (outer stack + inner IP) by
/// scanning to the innermost IP payload.
pub fn read_timestamp(m: &Mbuf) -> Option<u64> {
    let mut d = m.data();
    // Strip any GTP-U outer stacks.
    while d.len() >= 36 && d[0] == 0x45 && d[9] == 17 && u16::from_be_bytes([d[22], d[23]]) == pepc_net::GTPU_PORT {
        d = &d[IPV4_HDR_LEN + UDP_HDR_LEN + pepc_net::GTPU_HDR_LEN..];
    }
    if d.len() < IPV4_HDR_LEN + UDP_HDR_LEN + 8 || d[0] != 0x45 {
        return None;
    }
    let p = &d[IPV4_HDR_LEN + UDP_HDR_LEN..];
    Some(u64::from_be_bytes([p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepc_net::gtp::decap_gtpu;

    fn users(n: u32) -> Vec<UserKeys> {
        (0..n).map(|i| UserKeys { teid: 0x1000 + i, ue_ip: 0x0A00_0001 + i }).collect()
    }

    #[test]
    fn mix_matches_table2() {
        let mut g = TrafficGen::new(users(10));
        let mut ul = 0;
        let mut dl = 0;
        for _ in 0..4000 {
            let m = g.next_packet(0);
            let d = m.data();
            if u16::from_be_bytes([d[22], d[23]]) == pepc_net::GTPU_PORT {
                ul += 1;
                assert_eq!(m.len(), Defaults::UPLINK_PACKET_BYTES);
            } else {
                dl += 1;
                assert_eq!(m.len(), Defaults::DOWNLINK_PACKET_BYTES);
            }
        }
        assert_eq!(ul, 1000);
        assert_eq!(dl, 3000);
    }

    #[test]
    fn uplink_carries_users_tunnel() {
        let mut g = TrafficGen::new(vec![UserKeys { teid: 0xABCD, ue_ip: 0x0A000001 }]);
        // First packet of the mix is uplink.
        let mut m = g.next_packet(0);
        let (gtp, outer) = decap_gtpu(&mut m).unwrap();
        assert_eq!(gtp.teid, 0xABCD);
        assert_eq!(outer.dst, Defaults::GW_IP);
        let inner = Ipv4Hdr::parse(m.data()).unwrap();
        assert_eq!(inner.src, 0x0A000001);
    }

    #[test]
    fn downlink_targets_ue_ip() {
        let mut g = TrafficGen::new(vec![UserKeys { teid: 1, ue_ip: 0x0A000042 }]);
        g.next_packet(0); // skip uplink slot
        let m = g.next_packet(0);
        let ip = Ipv4Hdr::parse(m.data()).unwrap();
        assert_eq!(ip.dst, 0x0A000042);
    }

    #[test]
    fn selection_is_roughly_uniform() {
        let mut g = TrafficGen::new(users(16));
        let mut counts = [0u32; 16];
        for _ in 0..16_000 {
            let m = g.next_packet(0);
            let d = m.data();
            let key = if u16::from_be_bytes([d[22], d[23]]) == pepc_net::GTPU_PORT {
                u32::from_be_bytes([d[32], d[33], d[34], d[35]]) - 0x1000
            } else {
                u32::from_be_bytes([d[16], d[17], d[18], d[19]]) - 0x0A000001
            };
            counts[key as usize] += 1;
            g.recycle(m);
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((600..1500).contains(&c), "user {i} got {c}/16000");
        }
    }

    #[test]
    fn timestamps_survive_generation_and_recycling() {
        let mut g = TrafficGen::new(users(2));
        let m = g.next_packet(0xDEAD_BEEF_0000_0001);
        assert_eq!(read_timestamp(&m), Some(0xDEAD_BEEF_0000_0001));
        g.recycle(m);
        let m = g.next_packet(42);
        assert_eq!(read_timestamp(&m), Some(42));
    }

    #[test]
    fn recycling_reuses_buffers() {
        let mut g = TrafficGen::new(users(1));
        let m1 = g.next_packet(0);
        g.recycle(m1);
        let before = g.pool.len();
        let _m2 = g.next_packet(0);
        assert_eq!(g.pool.len(), before - 1, "drew from the pool");
    }

    #[test]
    fn read_timestamp_rejects_garbage() {
        assert_eq!(read_timestamp(&Mbuf::from_payload(&[0u8; 10])), None);
        assert_eq!(read_timestamp(&Mbuf::new()), None);
    }
}
