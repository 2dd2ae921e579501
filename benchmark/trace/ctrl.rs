//! Level C, signaling side: `ControlPlane::handle_s1ap`. The slice's flush
//! of the resulting `DpUpdate`s (and the data plane's absorption of them)
//! happens outside the timer, so B − C is what the slice adds.

use crate::alloc;
use crate::data::PlanePort;
use crate::slice::route;
use pepc_benchmark::sut::SigPort;
use pepc_sigproto::s1ap::S1apPdu;
use std::time::Instant;

impl SigPort for PlanePort<'_> {
    fn s1ap(&mut self, slice: usize, wire: &[u8], replies: &mut Vec<Vec<u8>>) -> u64 {
        let Ok(pdu) = S1apPdu::decode(wire) else { return 0 };
        let slice = route(self.node, &pdu, slice);
        let slice = self.node.slice(slice);
        let a0 = alloc::count();
        let t0 = Instant::now();
        let rsp = slice.ctrl.handle_s1ap(&pdu);
        let ns = self.t.spans.close("ctrl.handle_s1ap", "slice.handle_s1ap", self.t.msgs, t0);
        self.t.ctrl_allocs += alloc::count() - a0;
        self.t.msgs += 1;
        slice.sync_now();
        replies.extend(rsp.iter().map(S1apPdu::encode));
        ns
    }
}
