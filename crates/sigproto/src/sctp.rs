//! SCTP-lite: the transport under S1AP on the S1-MME interface.
//!
//! 3GPP mandates SCTP for S1AP. This module implements the parts of
//! RFC 4960 an S1-MME association actually exercises:
//!
//! * the four-way handshake (INIT → INIT-ACK(cookie) → COOKIE-ECHO →
//!   COOKIE-ACK) with a verification-tag check and a stateless-cookie
//!   digest, so a listener commits no state until the cookie returns;
//! * DATA / SACK with TSN-based cumulative acknowledgement and in-order
//!   delivery per stream (out-of-order TSNs are buffered and released
//!   once the gap fills);
//! * HEARTBEAT / HEARTBEAT-ACK and SHUTDOWN / SHUTDOWN-ACK / ABORT.
//!
//! What is deliberately *not* here: multi-homing, congestion control and
//! retransmission timers — S1AP runs over reliable in-memory links in this
//! reproduction, and the paper's observation about SCTP was about CPU cost
//! per message, not loss recovery. The kernel-SCTP serialization the paper
//! measured in Figure 11 is not modelled here: the figure harness charges
//! a calibrated serial share of each attach (`serial_fraction` in
//! `pepc-bench`'s experiments).

use crate::wire::{need, u16_at, u32_at};
use crate::{Result, SigError};
use std::collections::BTreeMap;

/// An SCTP chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SctpChunk {
    Init { initiate_tag: u32, initial_tsn: u32 },
    InitAck { initiate_tag: u32, initial_tsn: u32, cookie: Vec<u8> },
    CookieEcho { cookie: Vec<u8> },
    CookieAck,
    Data { tsn: u32, stream_id: u16, stream_seq: u16, payload: Vec<u8> },
    Sack { cumulative_tsn: u32 },
    Heartbeat { nonce: u32 },
    HeartbeatAck { nonce: u32 },
    Shutdown,
    ShutdownAck,
    Abort,
}

impl SctpChunk {
    fn type_byte(&self) -> u8 {
        match self {
            SctpChunk::Data { .. } => 0,
            SctpChunk::Init { .. } => 1,
            SctpChunk::InitAck { .. } => 2,
            SctpChunk::Sack { .. } => 3,
            SctpChunk::Heartbeat { .. } => 4,
            SctpChunk::HeartbeatAck { .. } => 5,
            SctpChunk::Abort => 6,
            SctpChunk::Shutdown => 7,
            SctpChunk::ShutdownAck => 8,
            SctpChunk::CookieEcho { .. } => 10,
            SctpChunk::CookieAck => 11,
        }
    }
}

/// An SCTP packet: common header plus one or more chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SctpPacket {
    pub src_port: u16,
    pub dst_port: u16,
    /// Receiver's verification tag (0 only on INIT).
    pub verification_tag: u32,
    pub chunks: Vec<SctpChunk>,
}

impl SctpPacket {
    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.verification_tag.to_be_bytes());
        out.push(self.chunks.len() as u8);
        for c in &self.chunks {
            out.push(c.type_byte());
            match c {
                SctpChunk::Data { tsn, stream_id, stream_seq, payload } => {
                    out.extend_from_slice(&tsn.to_be_bytes());
                    out.extend_from_slice(&stream_id.to_be_bytes());
                    out.extend_from_slice(&stream_seq.to_be_bytes());
                    out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
                    out.extend_from_slice(payload);
                }
                SctpChunk::Init { initiate_tag, initial_tsn } => {
                    out.extend_from_slice(&initiate_tag.to_be_bytes());
                    out.extend_from_slice(&initial_tsn.to_be_bytes());
                }
                SctpChunk::InitAck { initiate_tag, initial_tsn, cookie } => {
                    out.extend_from_slice(&initiate_tag.to_be_bytes());
                    out.extend_from_slice(&initial_tsn.to_be_bytes());
                    out.extend_from_slice(&(cookie.len() as u16).to_be_bytes());
                    out.extend_from_slice(cookie);
                }
                SctpChunk::Sack { cumulative_tsn } => {
                    out.extend_from_slice(&cumulative_tsn.to_be_bytes());
                }
                SctpChunk::Heartbeat { nonce } | SctpChunk::HeartbeatAck { nonce } => {
                    out.extend_from_slice(&nonce.to_be_bytes());
                }
                SctpChunk::CookieEcho { cookie } => {
                    out.extend_from_slice(&(cookie.len() as u16).to_be_bytes());
                    out.extend_from_slice(cookie);
                }
                SctpChunk::CookieAck | SctpChunk::Shutdown | SctpChunk::ShutdownAck | SctpChunk::Abort => {}
            }
        }
        out
    }

    /// Parse bytes produced by [`SctpPacket::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self> {
        need(buf, 9, "sctp header")?;
        let src_port = u16_at(buf, 0);
        let dst_port = u16_at(buf, 2);
        let verification_tag = u32_at(buf, 4);
        let n_chunks = buf[8] as usize;
        let mut off = 9;
        let mut chunks = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            need(buf, off + 1, "sctp chunk type")?;
            let t = buf[off];
            off += 1;
            let chunk = match t {
                0 => {
                    need(buf, off + 10, "data chunk")?;
                    let tsn = u32_at(buf, off);
                    let stream_id = u16_at(buf, off + 4);
                    let stream_seq = u16_at(buf, off + 6);
                    let len = u16_at(buf, off + 8) as usize;
                    off += 10;
                    need(buf, off + len, "data payload")?;
                    let payload = buf[off..off + len].to_vec();
                    off += len;
                    SctpChunk::Data { tsn, stream_id, stream_seq, payload }
                }
                1 => {
                    need(buf, off + 8, "init chunk")?;
                    let c = SctpChunk::Init { initiate_tag: u32_at(buf, off), initial_tsn: u32_at(buf, off + 4) };
                    off += 8;
                    c
                }
                2 => {
                    need(buf, off + 10, "init-ack chunk")?;
                    let initiate_tag = u32_at(buf, off);
                    let initial_tsn = u32_at(buf, off + 4);
                    let len = u16_at(buf, off + 8) as usize;
                    off += 10;
                    need(buf, off + len, "init-ack cookie")?;
                    let cookie = buf[off..off + len].to_vec();
                    off += len;
                    SctpChunk::InitAck { initiate_tag, initial_tsn, cookie }
                }
                3 => {
                    need(buf, off + 4, "sack chunk")?;
                    let c = SctpChunk::Sack { cumulative_tsn: u32_at(buf, off) };
                    off += 4;
                    c
                }
                4 | 5 => {
                    need(buf, off + 4, "heartbeat chunk")?;
                    let nonce = u32_at(buf, off);
                    off += 4;
                    if t == 4 {
                        SctpChunk::Heartbeat { nonce }
                    } else {
                        SctpChunk::HeartbeatAck { nonce }
                    }
                }
                6 => SctpChunk::Abort,
                7 => SctpChunk::Shutdown,
                8 => SctpChunk::ShutdownAck,
                10 => {
                    need(buf, off + 2, "cookie-echo chunk")?;
                    let len = u16_at(buf, off) as usize;
                    off += 2;
                    need(buf, off + len, "cookie-echo cookie")?;
                    let cookie = buf[off..off + len].to_vec();
                    off += len;
                    SctpChunk::CookieEcho { cookie }
                }
                11 => SctpChunk::CookieAck,
                other => return Err(SigError::UnknownType("sctp chunk", other.into())),
            };
            chunks.push(chunk);
        }
        Ok(SctpPacket { src_port, dst_port, verification_tag, chunks })
    }
}

/// Association state (RFC 4960 §4, minus the unused shutdown sub-states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocState {
    Closed,
    CookieWait,
    CookieEchoed,
    Established,
    ShutdownSent,
}

/// Events an association reports to its user (the S1AP layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SctpEvent {
    /// The association reached `Established`.
    Up,
    /// An ordered user message was delivered on `stream_id`.
    Delivery { stream_id: u16, payload: Vec<u8> },
    /// The association closed (shutdown completed or abort received).
    Down,
}

/// Weak keyed digest for the stateless cookie. Not cryptographic — this
/// reproduction's threat model is "bugs", not attackers — but it does
/// bind the cookie to the association parameters so corruption is caught.
fn cookie_digest(secret: u64, peer_tag: u32, peer_tsn: u32) -> u64 {
    let mut h = secret ^ 0x9E37_79B9_7F4A_7C15;
    for v in [u64::from(peer_tag), u64::from(peer_tsn)] {
        h ^= v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h = h.rotate_left(31).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    }
    h
}

/// One end of an SCTP association.
///
/// The association is sans-I/O: [`Association::handle_packet`] consumes an
/// incoming packet and returns events; outgoing packets accumulate in an
/// internal queue drained by [`Association::take_outbound`]. The caller
/// moves bytes however it likes (in-memory rings here).
#[derive(Debug)]
pub struct Association {
    state: AssocState,
    /// Our verification tag (peer must echo it).
    local_tag: u32,
    /// Peer's verification tag (we echo it).
    peer_tag: u32,
    local_port: u16,
    peer_port: u16,
    /// Next TSN we will assign to outgoing DATA.
    next_tsn: u32,
    /// Highest TSN received in sequence.
    cumulative_tsn: u32,
    /// Out-of-order TSNs waiting for the gap to fill.
    reorder: BTreeMap<u32, (u16, u16, Vec<u8>)>,
    /// Per-stream next expected stream-sequence-number (ordered delivery).
    stream_rx_seq: BTreeMap<u16, u16>,
    /// Per-stream next outgoing stream-sequence-number.
    stream_tx_seq: BTreeMap<u16, u16>,
    /// Per-stream messages buffered because their stream-seq is ahead.
    stream_pending: BTreeMap<u16, BTreeMap<u16, Vec<u8>>>,
    /// Cookie secret (listener side).
    secret: u64,
    outbound: Vec<SctpPacket>,
    /// Count of DATA chunks not yet SACKed (we SACK every packet here).
    pub data_rx: u64,
    pub data_tx: u64,
}

impl Association {
    /// Create an idle association endpoint.
    pub fn new(local_port: u16, peer_port: u16, local_tag: u32, secret: u64) -> Self {
        Association {
            state: AssocState::Closed,
            local_tag,
            peer_tag: 0,
            local_port,
            peer_port,
            next_tsn: 1,
            cumulative_tsn: 0,
            reorder: BTreeMap::new(),
            stream_rx_seq: BTreeMap::new(),
            stream_tx_seq: BTreeMap::new(),
            stream_pending: BTreeMap::new(),
            secret,
            outbound: Vec::new(),
            data_rx: 0,
            data_tx: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> AssocState {
        self.state
    }

    /// Begin the handshake (client side): queues an INIT.
    pub fn connect(&mut self) -> Result<()> {
        if self.state != AssocState::Closed {
            return Err(SigError::BadState("connect"));
        }
        self.queue(0, vec![SctpChunk::Init { initiate_tag: self.local_tag, initial_tsn: self.next_tsn }]);
        self.state = AssocState::CookieWait;
        Ok(())
    }

    /// Send an ordered user message on `stream_id` (S1AP uses stream 0 for
    /// non-UE and stream 1+ for UE-associated signaling).
    pub fn send(&mut self, stream_id: u16, payload: Vec<u8>) -> Result<()> {
        if self.state != AssocState::Established {
            return Err(SigError::BadState("send"));
        }
        let seq = self.stream_tx_seq.entry(stream_id).or_insert(0);
        let chunk = SctpChunk::Data { tsn: self.next_tsn, stream_id, stream_seq: *seq, payload };
        *seq = seq.wrapping_add(1);
        self.next_tsn = self.next_tsn.wrapping_add(1);
        self.data_tx += 1;
        let tag = self.peer_tag;
        self.queue(tag, vec![chunk]);
        Ok(())
    }

    /// Begin a graceful shutdown.
    pub fn shutdown(&mut self) -> Result<()> {
        if self.state != AssocState::Established {
            return Err(SigError::BadState("shutdown"));
        }
        let tag = self.peer_tag;
        self.queue(tag, vec![SctpChunk::Shutdown]);
        self.state = AssocState::ShutdownSent;
        Ok(())
    }

    /// Abort immediately.
    pub fn abort(&mut self) {
        if self.peer_tag != 0 {
            let tag = self.peer_tag;
            self.queue(tag, vec![SctpChunk::Abort]);
        }
        self.state = AssocState::Closed;
    }

    /// Queue a heartbeat probe.
    pub fn heartbeat(&mut self, nonce: u32) -> Result<()> {
        if self.state != AssocState::Established {
            return Err(SigError::BadState("heartbeat"));
        }
        let tag = self.peer_tag;
        self.queue(tag, vec![SctpChunk::Heartbeat { nonce }]);
        Ok(())
    }

    /// Drain packets queued for transmission.
    pub fn take_outbound(&mut self) -> Vec<SctpPacket> {
        std::mem::take(&mut self.outbound)
    }

    fn queue(&mut self, tag: u32, chunks: Vec<SctpChunk>) {
        self.outbound.push(SctpPacket {
            src_port: self.local_port,
            dst_port: self.peer_port,
            verification_tag: tag,
            chunks,
        });
    }

    /// Feed one received packet through the state machine; returns the
    /// events it produced.
    pub fn handle_packet(&mut self, pkt: &SctpPacket) -> Result<Vec<SctpEvent>> {
        // Verification-tag check (RFC 4960 §8.5): INIT carries tag 0,
        // everything else must carry our tag.
        let has_init = pkt.chunks.iter().any(|c| matches!(c, SctpChunk::Init { .. }));
        if !has_init && pkt.verification_tag != self.local_tag {
            return Err(SigError::BadValue("verification tag"));
        }
        let mut events = Vec::new();
        for chunk in &pkt.chunks {
            match chunk {
                SctpChunk::Init { initiate_tag, initial_tsn } => {
                    // Listener: respond statelessly with INIT-ACK + cookie.
                    let digest = cookie_digest(self.secret, *initiate_tag, *initial_tsn);
                    let mut cookie = Vec::with_capacity(16);
                    cookie.extend_from_slice(&initiate_tag.to_be_bytes());
                    cookie.extend_from_slice(&initial_tsn.to_be_bytes());
                    cookie.extend_from_slice(&digest.to_be_bytes());
                    self.queue(
                        *initiate_tag,
                        vec![SctpChunk::InitAck { initiate_tag: self.local_tag, initial_tsn: self.next_tsn, cookie }],
                    );
                }
                SctpChunk::InitAck { initiate_tag, initial_tsn, cookie } => {
                    if self.state != AssocState::CookieWait {
                        return Err(SigError::BadState("init-ack"));
                    }
                    self.peer_tag = *initiate_tag;
                    self.cumulative_tsn = initial_tsn.wrapping_sub(1);
                    let tag = self.peer_tag;
                    self.queue(tag, vec![SctpChunk::CookieEcho { cookie: cookie.clone() }]);
                    self.state = AssocState::CookieEchoed;
                }
                SctpChunk::CookieEcho { cookie } => {
                    // Listener: verify the cookie, then instantiate state.
                    if cookie.len() != 16 {
                        return Err(SigError::BadCookie);
                    }
                    let peer_tag = u32_at(cookie, 0);
                    let peer_tsn = u32_at(cookie, 4);
                    let digest = crate::wire::u64_at(cookie, 8);
                    if digest != cookie_digest(self.secret, peer_tag, peer_tsn) {
                        return Err(SigError::BadCookie);
                    }
                    self.peer_tag = peer_tag;
                    self.cumulative_tsn = peer_tsn.wrapping_sub(1);
                    let tag = self.peer_tag;
                    self.queue(tag, vec![SctpChunk::CookieAck]);
                    if self.state != AssocState::Established {
                        self.state = AssocState::Established;
                        events.push(SctpEvent::Up);
                    }
                }
                SctpChunk::CookieAck => {
                    if self.state != AssocState::CookieEchoed {
                        return Err(SigError::BadState("cookie-ack"));
                    }
                    self.state = AssocState::Established;
                    events.push(SctpEvent::Up);
                }
                SctpChunk::Data { tsn, stream_id, stream_seq, payload } => {
                    if self.state != AssocState::Established {
                        return Err(SigError::BadState("data"));
                    }
                    self.data_rx += 1;
                    self.ingest_data(*tsn, *stream_id, *stream_seq, payload.clone(), &mut events);
                    let cum = self.cumulative_tsn;
                    let tag = self.peer_tag;
                    self.queue(tag, vec![SctpChunk::Sack { cumulative_tsn: cum }]);
                }
                SctpChunk::Sack { .. } => {
                    // No retransmission machinery: SACKs are informational.
                }
                SctpChunk::Heartbeat { nonce } => {
                    let tag = self.peer_tag;
                    self.queue(tag, vec![SctpChunk::HeartbeatAck { nonce: *nonce }]);
                }
                SctpChunk::HeartbeatAck { .. } => {}
                SctpChunk::Shutdown => {
                    let tag = self.peer_tag;
                    self.queue(tag, vec![SctpChunk::ShutdownAck]);
                    self.state = AssocState::Closed;
                    events.push(SctpEvent::Down);
                }
                SctpChunk::ShutdownAck => {
                    if self.state != AssocState::ShutdownSent {
                        return Err(SigError::BadState("shutdown-ack"));
                    }
                    self.state = AssocState::Closed;
                    events.push(SctpEvent::Down);
                }
                SctpChunk::Abort => {
                    self.state = AssocState::Closed;
                    events.push(SctpEvent::Down);
                }
            }
        }
        Ok(events)
    }

    /// TSN-ordered ingest with gap buffering, then per-stream ordered
    /// release.
    fn ingest_data(
        &mut self,
        tsn: u32,
        stream_id: u16,
        stream_seq: u16,
        payload: Vec<u8>,
        events: &mut Vec<SctpEvent>,
    ) {
        let expected = self.cumulative_tsn.wrapping_add(1);
        if tsn == expected {
            self.cumulative_tsn = tsn;
            self.deliver_ordered(stream_id, stream_seq, payload, events);
            // Release any buffered TSNs that are now in sequence.
            loop {
                let next = self.cumulative_tsn.wrapping_add(1);
                match self.reorder.remove(&next) {
                    Some((sid, sseq, p)) => {
                        self.cumulative_tsn = next;
                        self.deliver_ordered(sid, sseq, p, events);
                    }
                    None => break,
                }
            }
        } else if tsn.wrapping_sub(expected) < u32::MAX / 2 {
            // Ahead of the gap: buffer (duplicates overwrite harmlessly).
            self.reorder.insert(tsn, (stream_id, stream_seq, payload));
        }
        // else: duplicate of an already-delivered TSN; drop.
    }

    /// Per-stream ordered delivery.
    fn deliver_ordered(&mut self, stream_id: u16, stream_seq: u16, payload: Vec<u8>, events: &mut Vec<SctpEvent>) {
        let next = self.stream_rx_seq.entry(stream_id).or_insert(0);
        if stream_seq == *next {
            *next = next.wrapping_add(1);
            events.push(SctpEvent::Delivery { stream_id, payload });
            // Flush buffered successors.
            if let Some(pending) = self.stream_pending.get_mut(&stream_id) {
                loop {
                    let want = *self.stream_rx_seq.get(&stream_id).expect("seeded above");
                    match pending.remove(&want) {
                        Some(p) => {
                            let n = self.stream_rx_seq.get_mut(&stream_id).expect("seeded above");
                            *n = n.wrapping_add(1);
                            events.push(SctpEvent::Delivery { stream_id, payload: p });
                        }
                        None => break,
                    }
                }
            }
        } else {
            self.stream_pending.entry(stream_id).or_default().insert(stream_seq, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shuttle queued packets between two endpoints until both are idle,
    /// collecting delivered events per side.
    fn pump(a: &mut Association, b: &mut Association) -> (Vec<SctpEvent>, Vec<SctpEvent>) {
        let mut ev_a = Vec::new();
        let mut ev_b = Vec::new();
        loop {
            let a_out = a.take_outbound();
            let b_out = b.take_outbound();
            if a_out.is_empty() && b_out.is_empty() {
                break;
            }
            for p in a_out {
                let bytes = p.encode();
                let decoded = SctpPacket::decode(&bytes).unwrap();
                ev_b.extend(b.handle_packet(&decoded).unwrap());
            }
            for p in b_out {
                let bytes = p.encode();
                let decoded = SctpPacket::decode(&bytes).unwrap();
                ev_a.extend(a.handle_packet(&decoded).unwrap());
            }
        }
        (ev_a, ev_b)
    }

    fn established_pair() -> (Association, Association) {
        let mut client = Association::new(36412, 36412, 0xAAAA, 7);
        let mut server = Association::new(36412, 36412, 0xBBBB, 7);
        client.connect().unwrap();
        let (ev_c, ev_s) = pump(&mut client, &mut server);
        assert!(ev_c.contains(&SctpEvent::Up));
        assert!(ev_s.contains(&SctpEvent::Up));
        assert_eq!(client.state(), AssocState::Established);
        assert_eq!(server.state(), AssocState::Established);
        (client, server)
    }

    #[test]
    fn four_way_handshake_establishes() {
        established_pair();
    }

    #[test]
    fn data_is_delivered_in_order() {
        let (mut c, mut s) = established_pair();
        for i in 0..5u8 {
            c.send(1, vec![i]).unwrap();
        }
        let (_, ev_s) = pump(&mut c, &mut s);
        let deliveries: Vec<_> = ev_s
            .iter()
            .filter_map(|e| match e {
                SctpEvent::Delivery { stream_id, payload } => Some((*stream_id, payload.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(deliveries.len(), 5);
        for (i, (sid, p)) in deliveries.iter().enumerate() {
            assert_eq!(*sid, 1);
            assert_eq!(p, &vec![i as u8]);
        }
    }

    #[test]
    fn out_of_order_tsn_buffered_until_gap_fills() {
        let (mut c, mut s) = established_pair();
        c.send(0, vec![1]).unwrap();
        c.send(0, vec![2]).unwrap();
        c.send(0, vec![3]).unwrap();
        let mut pkts = c.take_outbound();
        // Deliver 3rd, then 1st, then 2nd.
        pkts.rotate_left(2);
        let mut events = Vec::new();
        for p in &pkts {
            events.extend(s.handle_packet(p).unwrap());
        }
        let payloads: Vec<u8> = events
            .iter()
            .filter_map(|e| match e {
                SctpEvent::Delivery { payload, .. } => Some(payload[0]),
                _ => None,
            })
            .collect();
        assert_eq!(payloads, vec![1, 2, 3], "ordered despite reordered arrival");
    }

    #[test]
    fn duplicate_data_not_redelivered() {
        let (mut c, mut s) = established_pair();
        c.send(0, b"x".to_vec()).unwrap();
        let pkts = c.take_outbound();
        let mut deliveries = 0;
        for _ in 0..3 {
            for p in &pkts {
                for e in s.handle_packet(p).unwrap() {
                    if matches!(e, SctpEvent::Delivery { .. }) {
                        deliveries += 1;
                    }
                }
            }
        }
        assert_eq!(deliveries, 1);
    }

    #[test]
    fn wrong_verification_tag_rejected() {
        let (mut c, mut s) = established_pair();
        c.send(0, b"x".to_vec()).unwrap();
        let mut pkts = c.take_outbound();
        pkts[0].verification_tag ^= 1;
        assert_eq!(s.handle_packet(&pkts[0]), Err(SigError::BadValue("verification tag")));
    }

    #[test]
    fn corrupted_cookie_rejected() {
        let mut client = Association::new(1, 2, 0xAAAA, 7);
        let mut server = Association::new(2, 1, 0xBBBB, 7);
        client.connect().unwrap();
        let init = client.take_outbound().remove(0);
        server.handle_packet(&init).unwrap();
        let init_ack = server.take_outbound().remove(0);
        client.handle_packet(&init_ack).unwrap();
        let mut cookie_echo = client.take_outbound().remove(0);
        if let SctpChunk::CookieEcho { cookie } = &mut cookie_echo.chunks[0] {
            cookie[10] ^= 0xFF;
        }
        assert_eq!(server.handle_packet(&cookie_echo), Err(SigError::BadCookie));
        assert_eq!(server.state(), AssocState::Closed, "no state from bad cookie");
    }

    #[test]
    fn graceful_shutdown_completes_both_sides() {
        let (mut c, mut s) = established_pair();
        c.shutdown().unwrap();
        let (ev_c, ev_s) = pump(&mut c, &mut s);
        assert!(ev_c.contains(&SctpEvent::Down));
        assert!(ev_s.contains(&SctpEvent::Down));
        assert_eq!(c.state(), AssocState::Closed);
        assert_eq!(s.state(), AssocState::Closed);
    }

    #[test]
    fn abort_tears_down_immediately() {
        let (mut c, mut s) = established_pair();
        c.abort();
        assert_eq!(c.state(), AssocState::Closed);
        let pkts = c.take_outbound();
        let ev = s.handle_packet(&pkts[0]).unwrap();
        assert!(ev.contains(&SctpEvent::Down));
    }

    #[test]
    fn heartbeat_is_acked() {
        let (mut c, mut s) = established_pair();
        c.heartbeat(0xDEAD).unwrap();
        let pkts = c.take_outbound();
        s.handle_packet(&pkts[0]).unwrap();
        let acks = s.take_outbound();
        assert!(acks.iter().flat_map(|p| &p.chunks).any(|ch| matches!(ch, SctpChunk::HeartbeatAck { nonce: 0xDEAD })));
    }

    #[test]
    fn send_before_established_rejected() {
        let mut a = Association::new(1, 2, 3, 4);
        assert!(a.send(0, vec![]).is_err());
        assert!(a.shutdown().is_err());
        assert!(a.heartbeat(0).is_err());
    }

    #[test]
    fn packet_codec_roundtrips_all_chunks() {
        let pkt = SctpPacket {
            src_port: 36412,
            dst_port: 36412,
            verification_tag: 0x1234_5678,
            chunks: vec![
                SctpChunk::Init { initiate_tag: 1, initial_tsn: 2 },
                SctpChunk::InitAck { initiate_tag: 3, initial_tsn: 4, cookie: vec![9; 16] },
                SctpChunk::CookieEcho { cookie: vec![8; 16] },
                SctpChunk::CookieAck,
                SctpChunk::Data { tsn: 5, stream_id: 1, stream_seq: 0, payload: b"s1ap".to_vec() },
                SctpChunk::Sack { cumulative_tsn: 5 },
                SctpChunk::Heartbeat { nonce: 6 },
                SctpChunk::HeartbeatAck { nonce: 6 },
                SctpChunk::Shutdown,
                SctpChunk::ShutdownAck,
                SctpChunk::Abort,
            ],
        };
        let enc = pkt.encode();
        assert_eq!(SctpPacket::decode(&enc).unwrap(), pkt);
    }

    #[test]
    fn truncated_packets_rejected_not_panicking() {
        let pkt = SctpPacket {
            src_port: 1,
            dst_port: 2,
            verification_tag: 3,
            chunks: vec![SctpChunk::Data { tsn: 1, stream_id: 0, stream_seq: 0, payload: vec![7; 32] }],
        };
        let enc = pkt.encode();
        for cut in 0..enc.len() {
            assert!(SctpPacket::decode(&enc[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn multiple_streams_order_independently() {
        let (mut c, mut s) = established_pair();
        c.send(1, b"a1".to_vec()).unwrap();
        c.send(2, b"b1".to_vec()).unwrap();
        c.send(1, b"a2".to_vec()).unwrap();
        let (_, ev_s) = pump(&mut c, &mut s);
        let seq: Vec<(u16, Vec<u8>)> = ev_s
            .into_iter()
            .filter_map(|e| match e {
                SctpEvent::Delivery { stream_id, payload } => Some((stream_id, payload)),
                _ => None,
            })
            .collect();
        assert_eq!(seq, vec![(1, b"a1".to_vec()), (2, b"b1".to_vec()), (1, b"a2".to_vec())]);
    }
}
