//! Figure 13b kernel: scalar vs burst data-plane throughput across burst
//! sizes, mixed uplink/downlink traffic over a 10K-user population.
//!
//! Every case processes the same 64 packets per iteration — scalar one at
//! a time, burst in `64 / N` calls of size `N` — so `ns/iter / 64` is
//! directly comparable ns/packet (`scripts/bench_burst.py` derives the
//! speedups committed in `BENCH_burst.json`).
//!
//! The gate is on the slice pipeline, so the cases drive slice 0 of a
//! 1-slice node directly, below the Demux.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pepc::config::{EpcConfig, SliceConfig};
use pepc::data::PacketVerdict;
use pepc::node::PepcNode;
use pepc_net::Mbuf;
use pepc_workload::harness::{NodeSut, SystemUnderTest};
use pepc_workload::traffic::TrafficGen;

const USERS: u64 = 10_000;
const PKTS_PER_ITER: usize = 64;

fn setup() -> (NodeSut, TrafficGen) {
    let config =
        EpcConfig { slice: SliceConfig { expected_users: 65_536, ..SliceConfig::default() }, ..EpcConfig::default() };
    let mut sut = NodeSut::new(PepcNode::new(config, None));
    let keys = sut.attach_all(&(0..USERS).collect::<Vec<_>>());
    let gen = TrafficGen::new(keys);
    (sut, gen)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13b_burst");

    {
        let (mut sut, mut gen) = setup();
        let slice = sut.node.slice(0);
        g.bench_function("scalar", |b| {
            b.iter(|| {
                for _ in 0..PKTS_PER_ITER {
                    let m = gen.next_packet(0);
                    if let PacketVerdict::Forward(out) = slice.process_packet(m) {
                        gen.recycle(out);
                    }
                }
            })
        });
    }

    for burst_size in [1usize, 8, 32, 64] {
        let (mut sut, mut gen) = setup();
        let slice = sut.node.slice(0);
        let mut burst: Vec<Mbuf> = Vec::with_capacity(burst_size);
        let mut verdicts: Vec<PacketVerdict> = Vec::with_capacity(burst_size);
        g.bench_with_input(BenchmarkId::new("burst", burst_size), &burst_size, |b, &n| {
            b.iter(|| {
                for _ in 0..PKTS_PER_ITER / n {
                    burst.clear();
                    for _ in 0..n {
                        burst.push(gen.next_packet(0));
                    }
                    verdicts.clear();
                    slice.process_burst_into(&mut burst, &mut verdicts);
                    for v in verdicts.drain(..) {
                        if let PacketVerdict::Forward(out) = v {
                            gen.recycle(out);
                        }
                    }
                }
            })
        });
    }
    g.finish();
    stage_medians();
}

/// Per-stage ns/packet medians of the burst-64 pipeline, printed in the
/// shim's `bench <name> <ns> ns/iter` format so `scripts/bench_burst.py`
/// can commit them to `BENCH_burst.json` next to the throughput numbers.
/// One amortized sample per burst per stage (see `DataPlane::
/// set_stage_timing`); the median is over bursts.
fn stage_medians() {
    const ROUNDS: usize = 4_000;
    let (mut sut, mut gen) = setup();
    let slice = sut.node.slice(0);
    slice.data.set_stage_timing(true);
    let mut burst: Vec<Mbuf> = Vec::with_capacity(PKTS_PER_ITER);
    let mut verdicts: Vec<PacketVerdict> = Vec::with_capacity(PKTS_PER_ITER);
    for _ in 0..ROUNDS {
        burst.clear();
        for _ in 0..PKTS_PER_ITER {
            burst.push(gen.next_packet(0));
        }
        verdicts.clear();
        slice.process_burst_into(&mut burst, &mut verdicts);
        for v in verdicts.drain(..) {
            if let PacketVerdict::Forward(out) = v {
                gen.recycle(out);
            }
        }
    }
    let stages = slice.data.stage_latencies();
    for (h, name) in stages.iter().zip(pepc::data::STAGE_NAMES) {
        let name = format!("fig13b_burst/stage/{name}");
        println!("bench {name:<50} {:>12.1} ns/iter", h.quantile_ns(0.5) as f64);
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
