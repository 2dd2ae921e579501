//! `pepc-fabric` leaf: one SPSC ring hop (`push_burst` + `pop_burst`) of a
//! 32-packet burst, per packet. Off the inline node's path today; printed as
//! the price a threaded node will pay per hop.

use crate::stream::probe_calls;
use pepc_benchmark::driver::BURST;
use pepc_fabric::SpscRing;
use pepc_net::Mbuf;
use std::hint::black_box;

pub fn ring_hop_ns() -> f64 {
    let (mut tx, mut rx) = SpscRing::with_capacity::<Mbuf>(2 * BURST);
    let mut burst: Vec<Mbuf> = (0..BURST).map(|_| Mbuf::with_capacity(512, 64)).collect();
    let per_hop = probe_calls(4096, |_| {
        black_box(tx.push_burst(&mut burst.drain(..)));
        black_box(rx.pop_burst(&mut burst, BURST));
    });
    per_hop / BURST as f64
}
