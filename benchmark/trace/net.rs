//! `pepc-net` leaves: the branchless classifier and the GTP-U header work.

use crate::stream::{is_uplink, Stream};
use pepc_net::classify_fast;
use pepc_net::gtp::{decap_gtpu, encap_gtpu};
use std::hint::black_box;

/// `classify_fast` per packet of the mix.
pub fn classify_ns(s: &mut Stream) -> f64 {
    s.probe(|s| {
        for m in &s.batch {
            black_box(classify_fast(black_box(m.data())));
        }
    })
}

/// GTP-U per packet of the mix: uplink is decapsulated, downlink
/// encapsulated toward an eNodeB.
pub fn gtp_ns(s: &mut Stream) -> f64 {
    s.probe(|s| {
        for m in &mut s.batch {
            if is_uplink(m) {
                black_box(decap_gtpu(m).is_ok());
            } else {
                black_box(encap_gtpu(m, 0x0AFE_0001, 0xC0A8_0001, 0xE000_0001).is_ok());
            }
        }
    })
}
