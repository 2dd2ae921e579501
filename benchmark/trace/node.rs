//! Level A — the node: `PepcNode::process_burst` and
//! `PepcNode::handle_s1ap`, with the S1AP codec on either side of the latter
//! timed as spans of their own.

use crate::alloc;
use crate::spans::Spans;
use pepc::node::{NodeVerdict, PepcNode};
use pepc_benchmark::driver::BURST;
use pepc_benchmark::enb::LEGS;
use pepc_benchmark::stats::{mean, Windows};
use pepc_benchmark::sut::{DataPort, SigPort};
use pepc_net::Mbuf;
use pepc_sigproto::s1ap::S1apPdu;
use std::time::Instant;

/// What level A accumulates across the chunks it is driven in.
pub struct NodeTrace {
    pub spans: Spans,
    bursts: u64,
    msgs: u64,
    /// Heap allocations made inside `process_burst`.
    pub allocs: u64,
    /// ns per message in `S1apPdu::decode` / in encoding the answers.
    pub decode: Windows,
    pub encode: Windows,
}

impl NodeTrace {
    pub fn new(proc_window: usize) -> Self {
        let per_window = proc_window * LEGS.len();
        NodeTrace {
            spans: Spans::new(),
            bursts: 0,
            msgs: 0,
            allocs: 0,
            decode: Windows::new(per_window, mean),
            encode: Windows::new(per_window, mean),
        }
    }

    pub fn allocs_per_pkt(&self) -> f64 {
        self.allocs as f64 / (self.bursts.max(1) * BURST as u64) as f64
    }
}

/// The node, traced, for the length of one chunk.
pub struct NodePort<'a> {
    pub node: &'a mut PepcNode,
    pub t: &'a mut NodeTrace,
}

impl DataPort for NodePort<'_> {
    fn burst(&mut self, burst: Vec<Mbuf>, out: &mut Vec<Option<Mbuf>>) -> u64 {
        let a0 = alloc::count();
        let t0 = Instant::now();
        let verdicts = self.node.process_burst(burst);
        let ns = self.t.spans.close("node.process_burst", "workload", self.t.bursts, t0);
        self.t.allocs += alloc::count() - a0;
        self.t.bursts += 1;
        out.extend(verdicts.into_iter().map(|v| match v {
            NodeVerdict::Forward(m) => Some(m),
            NodeVerdict::Drop | NodeVerdict::Parked | NodeVerdict::Buffered => None,
        }));
        ns
    }
}

impl SigPort for NodePort<'_> {
    fn s1ap(&mut self, _slice: usize, wire: &[u8], replies: &mut Vec<Vec<u8>>) -> u64 {
        let id = self.t.msgs;
        self.t.msgs += 1;
        let t0 = Instant::now();
        let pdu = S1apPdu::decode(wire);
        let dec = self.t.spans.close("sigproto.s1ap_decode", "workload", id, t0);
        let Ok(pdu) = pdu else { return dec };
        let t1 = Instant::now();
        let rsp = self.node.handle_s1ap(&pdu);
        let handle = self.t.spans.close("node.handle_s1ap", "workload", id, t1);
        let t2 = Instant::now();
        for r in &rsp {
            replies.push(r.encode());
        }
        let enc = self.t.spans.close("sigproto.s1ap_encode", "workload", id, t2);
        self.t.decode.push(dec as f64);
        self.t.encode.push(enc as f64);
        dec + handle + enc
    }
}
