//! Level B — the slice: `Slice::process_burst_into` on pre-partitioned
//! input and `Slice::handle_s1ap`, on a twin node fed the same seeded input
//! as level A. What the node adds on top (steering, run splitting, verdict
//! mapping, S1AP routing and Demux registration) is A − B.

use crate::spans::Spans;
use pepc::config::EpcConfig;
use pepc::data::PacketVerdict;
use pepc::demux::{packet_key, PacketKey};
use pepc::node::PepcNode;
use pepc_benchmark::sut::{DataPort, SigPort};
use pepc_net::Mbuf;
use pepc_sigproto::nas::NasMsg;
use pepc_sigproto::s1ap::S1apPdu;
use std::time::Instant;

/// Slice a data packet belongs to, from the node's identifier layout: slice
/// `k` allocates TEIDs and UE addresses from `base + (k << 24)`. (The node
/// itself looks this up in the Demux; no user migrates in these workloads.)
fn slice_of(cfg: &EpcConfig, m: &Mbuf) -> usize {
    let offset = match packet_key(m).expect("generated packets are keyed") {
        PacketKey::Teid(teid) => teid - cfg.teid_base,
        PacketKey::UeIp(ip) => ip - cfg.ue_ip_base,
    };
    (offset >> 24) as usize
}

/// Split a burst into the consecutive same-slice runs the node would hand
/// its slices, in input order.
pub fn partition(cfg: &EpcConfig, burst: Vec<Mbuf>) -> Vec<(usize, Vec<Mbuf>)> {
    let mut runs: Vec<(usize, Vec<Mbuf>)> = Vec::new();
    for m in burst {
        let k = slice_of(cfg, &m);
        match runs.last_mut() {
            Some((last, run)) if *last == k => run.push(m),
            _ => runs.push((k, vec![m])),
        }
    }
    runs
}

/// Slice an uplink S1AP message goes to. `hint` is the slice already
/// serving the UE; a fresh Attach Request has none and goes to its IMSI's
/// home slice, as the node's own routing would send it.
pub fn route(node: &PepcNode, pdu: &S1apPdu, hint: usize) -> usize {
    if let S1apPdu::InitialUeMessage { nas, .. } = pdu {
        if let Ok(NasMsg::AttachRequest { imsi, .. }) = NasMsg::decode(nas) {
            return node.home_slice(imsi);
        }
    }
    hint
}

pub fn forwarded(verdicts: &mut Vec<PacketVerdict>, out: &mut Vec<Option<Mbuf>>) {
    out.extend(verdicts.drain(..).map(|v| match v {
        PacketVerdict::Forward(m) => Some(m),
        PacketVerdict::Drop(_) | PacketVerdict::Buffered => None,
    }));
}

/// What level B accumulates across the chunks it is driven in.
pub struct SliceTrace {
    pub spans: Spans,
    bursts: u64,
    msgs: u64,
    verdicts: Vec<PacketVerdict>,
}

impl SliceTrace {
    pub fn new() -> Self {
        SliceTrace { spans: Spans::new(), bursts: 0, msgs: 0, verdicts: Vec::with_capacity(32) }
    }
}

/// The twin's slices, for the length of one chunk.
pub struct SlicePort<'a> {
    pub node: &'a mut PepcNode,
    pub t: &'a mut SliceTrace,
}

impl DataPort for SlicePort<'_> {
    fn burst(&mut self, burst: Vec<Mbuf>, out: &mut Vec<Option<Mbuf>>) -> u64 {
        let mut ns = 0;
        for (k, mut run) in partition(self.node.config(), burst) {
            let t0 = Instant::now();
            self.node.slice(k).process_burst_into(&mut run, &mut self.t.verdicts);
            ns += self.t.spans.close("slice.process_burst_into", "node.process_burst", self.t.bursts, t0);
            forwarded(&mut self.t.verdicts, out);
        }
        self.t.bursts += 1;
        ns
    }
}

impl SigPort for SlicePort<'_> {
    fn s1ap(&mut self, slice: usize, wire: &[u8], replies: &mut Vec<Vec<u8>>) -> u64 {
        let Ok(pdu) = S1apPdu::decode(wire) else { return 0 };
        let slice = route(self.node, &pdu, slice);
        let t0 = Instant::now();
        let rsp = self.node.slice(slice).handle_s1ap(&pdu);
        let ns = self.t.spans.close("slice.handle_s1ap", "node.handle_s1ap", self.t.msgs, t0);
        self.t.msgs += 1;
        replies.extend(rsp.iter().map(S1apPdu::encode));
        ns
    }
}
