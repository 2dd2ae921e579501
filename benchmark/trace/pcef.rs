//! `pepc::pcef` leaf: five-tuple parse plus `Pcef::classify` against the
//! PCRF's standard rule set, as the enforce stage does for users with rules.

use crate::stream::{is_uplink, Stream};
use pepc::Pcef;
use pepc_backend::Pcrf;
use pepc_net::gtp::GTPU_OVERHEAD;
use pepc_net::FiveTuple;
use std::hint::black_box;

pub fn classify_ns(s: &mut Stream, pcrf: &Pcrf) -> f64 {
    let mut pcef = Pcef::new();
    let rules = pcrf.rules_for(0);
    for r in &rules {
        pcef.install_gx(r);
    }
    let ids: Vec<u16> = rules.iter().map(|r| r.rule_id as u16).collect();
    s.probe(|s| {
        for m in &s.batch {
            let inner = if is_uplink(m) { &m.data()[GTPU_OVERHEAD..] } else { m.data() };
            let ft = FiveTuple::from_ipv4(inner).unwrap_or_default();
            black_box(pcef.classify(&ft, ids.iter().copied()));
        }
    })
}
