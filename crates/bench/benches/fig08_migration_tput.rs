//! Figure 8 kernel: one complete user migration (extract → install →
//! demux repoint → queue drain).

use criterion::{criterion_group, criterion_main, Criterion};
use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::node::PepcNode;
use pepc_bench::NodeSut;
use pepc_workload::harness::SystemUnderTest;

fn bench(c: &mut Criterion) {
    let config = EpcConfig {
        slices: 2,
        slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 32 }, ..Default::default() },
        ..EpcConfig::default()
    };
    let mut sut = NodeSut::new(PepcNode::new(config, None));
    let ids: Vec<u64> = (0..10_000u64).collect();
    sut.attach_all(&ids);
    let mut i = 0usize;
    c.bench_function("fig08_one_migration", |b| {
        b.iter(|| {
            let imsi = ids[i % ids.len()];
            i += 1;
            let cur = sut.node.slice_of(imsi).unwrap();
            assert!(sut.migrate(imsi, 1 - cur));
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
