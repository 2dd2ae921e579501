//! Head-to-head: PEPC vs the classic MME/S-GW/P-GW decomposition under
//! the paper's default workload (Table 2 mix, attach storms) — a
//! miniature of Figure 4.
//!
//! ```sh
//! cargo run --release --example classic_vs_pepc
//! ```

use pepc::config::{EpcConfig, SliceConfig};
use pepc::node::PepcNode;
use pepc_baseline::{BaselinePreset, ClassicConfig, ClassicEpc};
use pepc_workload::harness::{measure, ClassicSut, MeasureOpts, NodeSut, SystemUnderTest};
use pepc_workload::params::Defaults;
use pepc_workload::signaling::{EventMix, SignalingGen};
use pepc_workload::traffic::TrafficGen;
use std::time::Duration;

const USERS: u64 = 50_000;
const ATTACH_PER_SEC: u64 = 10_000;

fn run(sut: &mut dyn SystemUnderTest, users: u64) -> (f64, u64) {
    let keys = sut.attach_all(&(0..users).map(|i| Defaults::IMSI_BASE + i).collect::<Vec<_>>());
    let mut gen = TrafficGen::new(keys);
    let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users, ATTACH_PER_SEC, EventMix::attaches_only());
    let m = measure(
        sut,
        &mut gen,
        Some(&mut sig),
        &MeasureOpts { duration: Duration::from_millis(500), ..Default::default() },
    );
    (m.mpps(), m.events)
}

fn main() {
    println!(
        "workload: {USERS} users, UL:DL {:?}, {ATTACH_PER_SEC} attach/s (Table 2 defaults)\n",
        Defaults::UPLINK_PER_DOWNLINK
    );

    // One slice: the per-core number the baselines are compared against.
    let slice = SliceConfig { expected_users: USERS as usize, ..SliceConfig::default() };
    let mut pepc = NodeSut::new(PepcNode::new(EpcConfig { slice, ..EpcConfig::default() }, None));
    let (pepc_mpps, ev) = run(&mut pepc, USERS);
    println!("PEPC          : {pepc_mpps:.3} Mpps  ({ev} signaling events absorbed)");

    for (preset, name) in
        [(BaselinePreset::Industrial1, "Industrial#1 "), (BaselinePreset::Industrial2, "Industrial#2 ")]
    {
        // Provision without the calibrated stalls, measure with them.
        let mut sut = ClassicSut::new(ClassicEpc::new(ClassicConfig::mechanisms_only(preset)), name);
        let keys = sut.attach_all(&(0..USERS).map(|i| Defaults::IMSI_BASE + i).collect::<Vec<_>>());
        *sut.epc.config_mut() = ClassicConfig::preset(preset);
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(Defaults::IMSI_BASE, USERS, ATTACH_PER_SEC, EventMix::attaches_only());
        let m = measure(
            &mut sut,
            &mut gen,
            Some(&mut sig),
            &MeasureOpts { duration: Duration::from_millis(500), ..Default::default() },
        );
        println!(
            "{name}: {:.3} Mpps  ({:.1}x slower — every attach synchronizes 3 state copies over GTP-C)",
            m.mpps(),
            pepc_mpps / m.mpps()
        );
    }

    println!(
        "\nwhy: the classic EPC duplicates each user's state at the MME, S-GW and\n\
         P-GW and reconciles the copies on every signaling event, stalling the\n\
         gateway pipeline; PEPC keeps one consolidated copy per user, so a\n\
         signaling event is a single in-place write the data thread reads\n\
         through shared memory."
    );
}
