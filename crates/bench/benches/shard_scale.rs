//! Software-RSS shard scaling: aggregate Mpps across 1→8 share-nothing
//! pipelines, extending the fig7 method (throughput vs cores) to the
//! in-process sharded data path of `pepc::ShardedDataPath`.
//!
//! Two series per shard count N, both over the same 10K-user mixed
//! uplink/downlink workload:
//!
//! * `shard_scale/seq/N` — the criterion loop driving steer → N×process
//!   → gather *sequentially* on one core (the overhead floor: it can
//!   only lose to a single pipeline).
//! * `shard_scale/aggregate/N` — printed in the same `bench … ns/iter`
//!   format but measured directly: per-shard busy time is clocked around
//!   each `process_pending` call, and the reported figure is
//!   `max(shard busy) / packets` — the per-packet wall-clock the slowest
//!   shard would impose if each shard ran on its own core, which is how
//!   fig7 counts a multi-core slice. Each steer is offered `BURST × N`
//!   packets, so every width's shards run ≈`BURST`-packet sub-bursts and
//!   the ratio between widths compares like with like (per-burst costs
//!   amortize over the same run length). `scripts/bench_shard.py` converts
//!   it to aggregate Mpps, checks the 1→4 scaling floor, and pins the
//!   per-stage ns/packet budget.
//!
//! Also printed per N: `stage_parse` / `stage_lookup` / `stage_enforce`
//! medians (merged across shards) and the steering imbalance (max/mean
//! packets, ×1000 to survive the integer-ish ns format).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pepc::data::PacketVerdict;
use pepc::LatencyHistogram;
use pepc_net::Mbuf;
use pepc_workload::harness::{default_sharded_path, ShardedSut, SystemUnderTest};
use pepc_workload::traffic::TrafficGen;
use std::time::Instant;

const USERS: u64 = 10_000;
const BURST: usize = 64;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn setup(shards: usize) -> (ShardedSut, TrafficGen) {
    let mut sut = ShardedSut::new(default_sharded_path(USERS as usize, shards));
    let keys = sut.attach_all(&(0..USERS).collect::<Vec<_>>());
    let gen = TrafficGen::new(keys);
    (sut, gen)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_scale");
    for shards in SHARD_COUNTS {
        let (mut sut, mut gen) = setup(shards);
        let mut burst: Vec<Mbuf> = Vec::with_capacity(BURST);
        let mut fwd: Vec<Mbuf> = Vec::with_capacity(BURST);
        g.bench_with_input(BenchmarkId::new("seq", shards), &shards, |b, _| {
            b.iter(|| {
                burst.clear();
                for _ in 0..BURST {
                    burst.push(gen.next_packet(0));
                }
                fwd.clear();
                sut.process_burst(&mut burst, &mut fwd);
                for out in fwd.drain(..) {
                    gen.recycle(out);
                }
            })
        });
    }
    g.finish();
    for shards in SHARD_COUNTS {
        aggregate(shards);
    }
}

/// The parallel-cores measurement: steer is untimed (it is the edge
/// stage), each shard's pipeline run is timed separately, and the
/// aggregate per-packet figure is `max(per-shard busy ns) / packets` —
/// wall-clock of the slowest shard, as if each ran on its own core.
fn aggregate(shards: usize) {
    const ROUNDS: usize = 4_000;
    let (mut sut, mut gen) = setup(shards);
    for d in sut.path.shards_mut() {
        d.set_stage_timing(true);
    }
    // One steer's offer: a `BURST`-packet sub-burst per shard.
    let offer = BURST * shards;
    let mut burst: Vec<Mbuf> = Vec::with_capacity(offer);
    let mut verdicts: Vec<PacketVerdict> = Vec::with_capacity(offer);
    let mut busy_ns = vec![0u64; shards];
    let mut pkts = 0u64;
    // Warmup: fill the tables' primary level and the branch predictors.
    for _ in 0..ROUNDS / 10 {
        burst.clear();
        for _ in 0..offer {
            burst.push(gen.next_packet(0));
        }
        for v in sut.path.process_burst(&mut burst, 0) {
            if let PacketVerdict::Forward(out) = v {
                gen.recycle(out);
            }
        }
    }
    for _ in 0..ROUNDS {
        burst.clear();
        for _ in 0..offer {
            burst.push(gen.next_packet(0));
        }
        pkts += burst.len() as u64;
        sut.path.steer(&mut burst);
        for (s, busy) in busy_ns.iter_mut().enumerate() {
            let t0 = Instant::now();
            sut.path.process_pending(s, 0);
            *busy += t0.elapsed().as_nanos() as u64;
        }
        verdicts.clear();
        sut.path.collect_verdicts(&mut verdicts);
        for v in verdicts.drain(..) {
            if let PacketVerdict::Forward(out) = v {
                gen.recycle(out);
            }
        }
    }
    let max_busy = *busy_ns.iter().max().expect("at least one shard") as f64;
    emit(&format!("shard_scale/aggregate/{shards}"), max_busy / pkts as f64);
    let mut stages = [LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new()];
    for d in sut.path.shards() {
        for (total, h) in stages.iter_mut().zip(d.stage_latencies()) {
            total.merge(h);
        }
    }
    for (h, name) in stages.iter().zip(pepc::data::STAGE_NAMES) {
        emit(&format!("shard_scale/stage_{name}/{shards}"), h.quantile_ns(0.5) as f64);
    }
    // max/mean packet imbalance, ×1000 (the format prints one decimal).
    emit(&format!("shard_scale/imbalance/{shards}"), sut.path.shard_imbalance() * 1000.0);
}

/// Print in the criterion shim's line format so one parser serves both
/// the criterion groups and the direct measurements.
fn emit(name: &str, value: f64) {
    println!("bench {name:<50} {value:>12.1} ns/iter");
}

criterion_group!(benches, bench);
criterion_main!(benches);
