//! `pepc-telemetry` leaves: one histogram record, and a whole-node
//! `metrics_snapshot()` at population.

use crate::stream::probe_calls;
use pepc::node::PepcNode;
use pepc_telemetry::LatencyHistogram;
use std::hint::black_box;
use std::time::Instant;

pub fn record_ns() -> f64 {
    let mut h = LatencyHistogram::new();
    let ns = probe_calls(1 << 16, |i| h.record(black_box(200 + (i as u64 & 0x3FF))));
    black_box(h.count());
    ns
}

pub fn snapshot_ns(node: &PepcNode) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(node.metrics_snapshot());
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}
