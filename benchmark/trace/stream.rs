//! The packet stream the leaf probes run over: the same seeded Table-2
//! generator the levels above consumed, refilled one window at a time so a
//! million-user stream stays as cold for a probe as it is for the node.

use pepc::demux::{packet_key, PacketKey};
use pepc_benchmark::driver::{traffic_keys, BURST, PKT_WINDOW};
use pepc_benchmark::enb::Ue;
use pepc_benchmark::stats::Floor;
use pepc_net::Mbuf;
use pepc_workload::traffic::TrafficGen;
use std::collections::HashMap;
use std::time::Instant;

/// Windows per probe.
const WINDOWS: usize = 24;

pub struct Stream {
    gen: TrafficGen,
    pub batch: Vec<Mbuf>,
    /// Resident index of each packet in `batch`.
    pub users: Vec<u32>,
    by_teid: HashMap<u32, u32>,
    by_ip: HashMap<u32, u32>,
}

pub fn is_uplink(m: &Mbuf) -> bool {
    matches!(packet_key(m), Some(PacketKey::Teid(_)))
}

impl Stream {
    pub fn new(residents: &[Ue], seed: u64) -> Self {
        Stream {
            gen: TrafficGen::new(traffic_keys(residents, seed)),
            batch: Vec::new(),
            users: Vec::new(),
            by_teid: residents.iter().zip(0u32..).map(|(u, i)| (u.gw_teid, i)).collect(),
            by_ip: residents.iter().zip(0u32..).map(|(u, i)| (u.ue_ip, i)).collect(),
        }
    }

    /// Replace the batch with the next window of packets.
    fn refill(&mut self) {
        for m in self.batch.drain(..) {
            self.gen.recycle(m);
        }
        self.users.clear();
        for _ in 0..PKT_WINDOW * BURST {
            let m = self.gen.next_packet(0);
            self.users.push(match packet_key(&m).expect("generated packets are keyed") {
                PacketKey::Teid(teid) => self.by_teid[&teid],
                PacketKey::UeIp(ip) => self.by_ip[&ip],
            });
            self.batch.push(m);
        }
    }

    /// Quiet-floor ns per packet of `timed`, which is handed one refilled
    /// window at a time (and what `prepare` made of it, outside the timer)
    /// and must touch every packet of it once.
    pub fn probe_with<P>(
        &mut self,
        mut prepare: impl FnMut(&Stream) -> P,
        mut timed: impl FnMut(&mut Stream, P),
    ) -> f64 {
        let mut per_window = Vec::with_capacity(WINDOWS);
        for _ in 0..WINDOWS {
            self.refill();
            let prepared = prepare(self);
            let t0 = Instant::now();
            timed(self, prepared);
            per_window.push(t0.elapsed().as_nanos() as f64 / self.batch.len() as f64);
        }
        Floor::of(per_window).floor
    }

    pub fn probe(&mut self, mut timed: impl FnMut(&mut Stream)) -> f64 {
        self.probe_with(|_| (), |s, ()| timed(s))
    }
}

/// Quiet-floor ns per call of `f` over `WINDOWS` windows of `calls` calls.
pub fn probe_calls(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_window = Vec::with_capacity(WINDOWS);
    for w in 0..WINDOWS {
        let t0 = Instant::now();
        for i in 0..calls {
            f(w * calls + i);
        }
        per_window.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    Floor::of(per_window).floor
}
