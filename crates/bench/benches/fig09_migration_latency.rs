//! Figure 9 kernel: packet cost for a user whose packets were parked by
//! an in-flight migration vs the undisturbed path.

use criterion::{criterion_group, criterion_main, Criterion};
use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::node::PepcNode;
use pepc_bench::NodeSut;
use pepc_workload::harness::SystemUnderTest;
use pepc_workload::traffic::TrafficGen;

fn bench(c: &mut Criterion) {
    let config = EpcConfig {
        slices: 2,
        slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 32 }, ..Default::default() },
        ..EpcConfig::default()
    };
    let mut sut = NodeSut::new(PepcNode::new(config, None));
    let ids: Vec<u64> = (0..1_000u64).collect();
    let keys = sut.attach_all(&ids);
    let mut gen = TrafficGen::new(keys);
    c.bench_function("fig09_packet_undisturbed", |b| {
        b.iter(|| {
            let m = gen.next_packet(0);
            if let Some(out) = sut.process(m) {
                gen.recycle(out);
            }
        })
    });
    let mut i = 0usize;
    c.bench_function("fig09_packet_plus_migration", |b| {
        b.iter(|| {
            let imsi = ids[i % ids.len()];
            i += 1;
            let cur = sut.node.slice_of(imsi).unwrap();
            sut.migrate(imsi, 1 - cur);
            let m = gen.next_packet(0);
            if let Some(out) = sut.process(m) {
                gen.recycle(out);
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
