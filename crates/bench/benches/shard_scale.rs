//! Slice scaling: per-slice ns/packet of an N-slice `PepcNode` for
//! N ∈ {1, 2, 4, 8}, extending the fig7 method (throughput vs cores) to
//! the node's own slices.
//!
//! Each width attaches the same 10K users and offers the same mixed
//! uplink/downlink workload. Per round the bench buckets `BURST × N`
//! packets by `node.demux().region_of(packet_key(..))` — the node's own
//! steering arithmetic, untimed — so every slice runs ≈`BURST`-packet
//! bursts at every width. It then times each slice's
//! `process_burst_into` separately. Printed per N, in the criterion
//! shim's `bench … ns/iter` line format:
//!
//! * `shard_scale/slice/N` — Σ slice busy ns / packets: the measured
//!   cost of a packet on the slice that owns it. All slices run on this
//!   one thread, so this is a per-slice figure, not an aggregate rate;
//! * `shard_scale/stage_{parse,lookup,enforce}/N` — stage medians merged
//!   across slices;
//! * `shard_scale/imbalance/N` — max/mean packets per slice over the run,
//!   ×1000 to survive the one-decimal format.
//!
//! `scripts/bench_shard.py` commits the numbers to `BENCH_shard.json`.

use pepc::config::{EpcConfig, SliceConfig};
use pepc::data::PacketVerdict;
use pepc::demux::packet_key;
use pepc::node::PepcNode;
use pepc::LatencyHistogram;
use pepc_net::Mbuf;
use pepc_workload::harness::{NodeSut, SystemUnderTest};
use pepc_workload::traffic::TrafficGen;
use std::time::Instant;

const USERS: u64 = 10_000;
const BURST: usize = 64;
const SLICE_COUNTS: [usize; 4] = [1, 2, 4, 8];
const ROUNDS: usize = 4_000;

fn main() {
    for slices in SLICE_COUNTS {
        measure(slices);
    }
}

fn measure(slices: usize) {
    let config = EpcConfig {
        slices,
        slice: SliceConfig {
            expected_users: (USERS as usize).div_ceil(slices),
            stage_timing: true,
            ..SliceConfig::default()
        },
        ..EpcConfig::default()
    };
    let mut sut = NodeSut::new(PepcNode::new(config, None));
    let mut gen = TrafficGen::new(sut.attach_all(&(0..USERS).collect::<Vec<_>>()));
    let node = &mut sut.node;

    let mut buckets: Vec<Vec<Mbuf>> = (0..slices).map(|_| Vec::with_capacity(2 * BURST)).collect();
    let mut verdicts: Vec<PacketVerdict> = Vec::with_capacity(2 * BURST);
    let mut busy_ns = 0u64;
    let mut per_slice = vec![0u64; slices];
    // Warmup rounds fill the tables' primary level and the branch
    // predictors; only the rest count.
    for round in 0..ROUNDS + ROUNDS / 10 {
        let timed = round >= ROUNDS / 10;
        for _ in 0..BURST * slices {
            let m = gen.next_packet(0);
            let k = packet_key(&m).and_then(|key| node.demux().region_of(key)).expect("generated keys are in-region");
            buckets[k].push(m);
        }
        for (k, bucket) in buckets.iter_mut().enumerate() {
            if timed {
                per_slice[k] += bucket.len() as u64;
            }
            let t0 = Instant::now();
            node.slice(k).process_burst_into(bucket, &mut verdicts);
            if timed {
                busy_ns += t0.elapsed().as_nanos() as u64;
            }
            for v in verdicts.drain(..) {
                if let PacketVerdict::Forward(out) = v {
                    gen.recycle(out);
                }
            }
        }
    }

    let packets: u64 = per_slice.iter().sum();
    emit(&format!("shard_scale/slice/{slices}"), busy_ns as f64 / packets as f64);
    let mut stages = [LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new()];
    for k in 0..slices {
        for (total, h) in stages.iter_mut().zip(node.slice_ref(k).data.stage_latencies()) {
            total.merge(h);
        }
    }
    for (h, name) in stages.iter().zip(pepc::data::STAGE_NAMES) {
        emit(&format!("shard_scale/stage_{name}/{slices}"), h.quantile_ns(0.5) as f64);
    }
    let max = *per_slice.iter().max().expect("at least one slice") as f64;
    let mean = packets as f64 / slices as f64;
    emit(&format!("shard_scale/imbalance/{slices}"), max / mean * 1000.0);
}

/// Print in the criterion shim's line format so one parser serves every
/// bench.
fn emit(name: &str, value: f64) {
    println!("bench {name:<50} {value:>12.1} ns/iter");
}
