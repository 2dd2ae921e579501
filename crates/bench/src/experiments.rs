//! One experiment per table/figure of the paper's evaluation (§5–§7).
//!
//! Each `figNN_*` function returns structured rows *and* prints them in
//! the shape the paper reports, so `figures --fig N` regenerates the
//! artifact and EXPERIMENTS.md can record paper-vs-measured.

use crate::Scale;
use pepc::config::{BatchingConfig, EpcConfig, IotConfig, SliceConfig, TwoLevelConfig};
use pepc::ctrl::{run_attach_with, Allocator, ControlPlane};
use pepc::node::PepcNode;
use pepc::proxy::Proxy;
use pepc::state::ControlState;
use pepc::table::{DatapathWriterStore, GiantLockStore, PepcStore, RwLockFineStore, StateStore};
use pepc_backend::{Hss, Pcrf};
use pepc_baseline::{BaselinePreset, ClassicConfig, ClassicEpc};
use pepc_sigproto::s1ap::S1apPdu;
use pepc_sigproto::sctp::{Association, SctpEvent};
use pepc_workload::harness::{measure, measure_with, ClassicSut, MeasureOpts, Measurement, NodeSut, SystemUnderTest};
use pepc_workload::params::Defaults;
use pepc_workload::signaling::{EventMix, SignalingGen};
use pepc_workload::traffic::{TrafficGen, UserKeys};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn imsis(n: u64) -> Vec<u64> {
    (0..n).map(|i| Defaults::IMSI_BASE + i).collect()
}

/// A 1-slice PEPC node: one slice is one data core, so its rate is the
/// per-core number the paper reports.
fn pepc_node(slice: SliceConfig) -> NodeSut {
    NodeSut::new(PepcNode::new(EpcConfig { slice, ..EpcConfig::default() }, None))
}

fn pepc_sut(users: u64) -> (NodeSut, Vec<UserKeys>) {
    let mut sut = pepc_node(SliceConfig { expected_users: users as usize, ..SliceConfig::default() });
    let keys = sut.attach_all(&imsis(users));
    (sut, keys)
}

/// Offered Mpps with signaling interleaved at exactly `ratio` events per
/// packet. Packets go through `process` one at a time, so the ratio holds
/// packet by packet (Figures 6 and 13).
fn mpps_at_ratio<S: SystemUnderTest>(
    sut: &mut S,
    gen: &mut TrafficGen,
    sig: &mut SignalingGen,
    ratio: f64,
    duration: Duration,
) -> f64 {
    let start = Instant::now();
    let mut offered: u64 = 0;
    let mut event_debt = 0.0f64;
    while start.elapsed() < duration {
        for _ in 0..32 {
            let m = gen.next_packet(0);
            offered += 1;
            if let Some(out) = sut.process(m) {
                gen.recycle(out);
            }
            event_debt += ratio;
            while event_debt >= 1.0 {
                sut.signal(sig.next_event());
                event_debt -= 1.0;
            }
        }
    }
    offered as f64 / start.elapsed().as_secs_f64() / 1e6
}

fn classic_sut(preset: BaselinePreset, name: &'static str, users: u64) -> (ClassicSut, Vec<UserKeys>) {
    // Bulk setup with the sync stalls disabled (the paper's systems were
    // pre-provisioned before measurement too); the preset's calibrated
    // behaviour applies during measurement only.
    let mut epc = ClassicEpc::new(ClassicConfig::mechanisms_only(preset));
    let mut keys = Vec::with_capacity(users as usize);
    for imsi in imsis(users) {
        epc.attach(imsi);
        epc.s1_handover(imsi, 0xE000_0000 + (imsi as u32 & 0xFFFF), 0xC0A8_0001);
        keys.push(UserKeys { teid: epc.uplink_teid(imsi).unwrap(), ue_ip: epc.ue_ip(imsi).unwrap() });
    }
    let mut sut = ClassicSut::new(epc, name);
    // Restore the calibrated stalls for the measurement phase.
    *sut.epc.config_mut() = ClassicConfig::preset(preset);
    (sut, keys)
}

// ---------------------------------------------------------------------------
// Figure 4 — data plane performance comparison
// ---------------------------------------------------------------------------

/// One row of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    pub system: &'static str,
    pub users: u64,
    pub attach_per_sec: u64,
    pub mpps: f64,
}

/// Figure 4: PEPC vs Industrial#1 vs Industrial#2 vs OAI vs OpenEPC
/// data-plane throughput. Paper parameters: 250 K users and 10 K
/// attach/s for PEPC & Industrial#1; 292 K users, 3 K events/s for
/// Industrial#2; OAI/OpenEPC use a single user.
pub fn fig04_comparison(scale: Scale) -> Vec<Fig4Row> {
    let opts = MeasureOpts { duration: scale.duration(), ..Default::default() };
    let mut rows = Vec::new();

    let users = scale.users(250_000);
    let attach_rate = 10_000;
    let pepc_latency;
    {
        let (mut sut, keys) = pepc_sut(users);
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users, attach_rate, EventMix::attaches_only());
        let m = measure(&mut sut, &mut gen, Some(&mut sig), &opts);
        pepc_latency = m.pipeline_latency_report();
        rows.push(Fig4Row { system: "PEPC", users, attach_per_sec: attach_rate, mpps: m.mpps() });
    }
    {
        let (mut sut, keys) = classic_sut(BaselinePreset::Industrial1, "Industrial#1", users);
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users, attach_rate, EventMix::attaches_only());
        let m = measure(&mut sut, &mut gen, Some(&mut sig), &opts);
        rows.push(Fig4Row { system: "Industrial#1", users, attach_per_sec: attach_rate, mpps: m.mpps() });
    }
    {
        let users2 = scale.users(292_000);
        let rate2 = 3_000;
        let (mut sut, keys) = classic_sut(BaselinePreset::Industrial2, "Industrial#2", users2);
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users2, rate2, EventMix::attaches_only());
        let m = measure(&mut sut, &mut gen, Some(&mut sig), &opts);
        rows.push(Fig4Row { system: "Industrial#2", users: users2, attach_per_sec: rate2, mpps: m.mpps() });
    }
    for (preset, name) in [(BaselinePreset::Oai, "OpenAirInterface"), (BaselinePreset::OpenEpc, "OpenEPC")] {
        let (mut sut, keys) = classic_sut(preset, name, 1);
        let mut gen = TrafficGen::new(keys);
        let m = measure(&mut sut, &mut gen, None, &opts);
        rows.push(Fig4Row { system: name, users: 1, attach_per_sec: 0, mpps: m.mpps() });
    }

    println!("\nFigure 4 — data plane performance comparison (Mpps/core)");
    println!("{:<18} {:>10} {:>10} {:>10}", "system", "users", "attach/s", "Mpps");
    for r in &rows {
        println!("{:<18} {:>10} {:>10} {:>10.3}", r.system, r.users, r.attach_per_sec, r.mpps);
    }
    let pepc = rows[0].mpps;
    println!(
        "ratios: PEPC/Ind1 = {:.1}x, PEPC/Ind2 = {:.1}x, PEPC/OAI = {:.1}x, PEPC/OpenEPC = {:.1}x",
        pepc / rows[1].mpps,
        pepc / rows[2].mpps,
        pepc / rows[3].mpps,
        pepc / rows[4].mpps
    );
    if !pepc_latency.is_empty() {
        print!("{pepc_latency}");
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 5 — throughput vs number of users
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig5Row {
    pub system: &'static str,
    pub users: u64,
    pub mpps: f64,
}

/// Figure 5: data-plane performance with increasing user devices
/// (10 K attach/s held constant).
pub fn fig05_users(scale: Scale) -> Vec<Fig5Row> {
    let opts = MeasureOpts { duration: scale.duration(), ..Default::default() };
    let attach_rate = 10_000;
    let mut rows = Vec::new();
    let pepc_points = [100_000u64, 250_000, 500_000, 1_000_000, 2_000_000, 3_000_000];
    for paper_users in pepc_points {
        let users = scale.users(paper_users);
        let (mut sut, keys) = pepc_sut(users);
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users, attach_rate, EventMix::attaches_only());
        let m = measure(&mut sut, &mut gen, Some(&mut sig), &opts);
        rows.push(Fig5Row { system: "PEPC", users, mpps: m.mpps() });
    }
    for paper_users in [100_000u64, 250_000, 500_000, 1_000_000] {
        let users = scale.users(paper_users);
        let (mut sut, keys) = classic_sut(BaselinePreset::Industrial1, "Industrial#1", users);
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users, attach_rate, EventMix::attaches_only());
        let m = measure(&mut sut, &mut gen, Some(&mut sig), &opts);
        rows.push(Fig5Row { system: "Industrial#1", users, mpps: m.mpps() });
    }
    println!("\nFigure 5 — data plane performance vs number of users ({} attach/s)", attach_rate);
    println!("{:<14} {:>10} {:>10}", "system", "users", "Mpps");
    for r in &rows {
        println!("{:<14} {:>10} {:>10.3}", r.system, r.users, r.mpps);
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 6 — throughput vs signaling:data ratio
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig6Row {
    pub system: &'static str,
    pub users: u64,
    /// Signaling events per data packet (e.g. 0.1 = "1:10").
    pub ratio: f64,
    pub mpps: f64,
}

/// Figure 6: PEPC's data-plane rate as the signaling-to-data ratio grows,
/// for three population sizes, plus the Industrial#1 reference points.
pub fn fig06_signaling(scale: Scale) -> Vec<Fig6Row> {
    let duration = scale.duration();
    let ratios = [0.0001, 0.001, 0.01, 0.1, 0.5, 1.0];
    let mut rows = Vec::new();
    for paper_users in [1u64, 10_000, 1_000_000] {
        let users = if paper_users == 1 { 1 } else { scale.users(paper_users) };
        for &ratio in &ratios {
            let (mut sut, keys) = pepc_sut(users);
            let mut gen = TrafficGen::new(keys);
            // Exact ratio: interleave events with packets rather than
            // pacing by wall clock.
            let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users, 0, EventMix { attach_fraction: 0.5 });
            let mpps = mpps_at_ratio(&mut sut, &mut gen, &mut sig, ratio, duration);
            rows.push(Fig6Row { system: "PEPC", users, ratio, mpps });
        }
    }
    // Industrial#1 reference: collapses past 1:100.
    let users = scale.users(250_000);
    for &ratio in &[0.0001, 0.001, 0.01, 0.1] {
        let (mut sut, keys) = classic_sut(BaselinePreset::Industrial1, "Industrial#1", users);
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users, 0, EventMix { attach_fraction: 0.5 });
        let mpps = mpps_at_ratio(&mut sut, &mut gen, &mut sig, ratio, duration);
        rows.push(Fig6Row { system: "Industrial#1", users, ratio, mpps });
    }
    println!("\nFigure 6 — data plane performance vs signaling/data ratio");
    println!("{:<14} {:>10} {:>10} {:>10}", "system", "users", "sig:data", "Mpps");
    for r in &rows {
        println!("{:<14} {:>10} {:>10} {:>10.3}", r.system, r.users, format!("1:{:.0}", 1.0 / r.ratio), r.mpps);
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 7 — scaling with data cores
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig7Row {
    pub data_cores: usize,
    pub users: u64,
    pub events_per_sec: u64,
    pub aggregate_mpps: f64,
    pub per_core_mpps: Vec<f64>,
}

/// Figure 7: aggregate throughput vs number of data cores, *modeled*.
/// Slices share nothing, so each is measured in isolation as a 1-slice
/// node on the one harness thread and the aggregate is the sum
/// (DESIGN.md §2); nothing here runs slices concurrently.
pub fn fig07_cores(scale: Scale) -> Vec<Fig7Row> {
    let opts = MeasureOpts { duration: scale.duration(), ..Default::default() };
    let mut rows = Vec::new();
    for cores in 1..=4usize {
        let paper_users = 2_500_000u64 * cores as u64;
        let users_total = scale.users(paper_users);
        let per_slice = users_total / cores as u64;
        let events = 25_000 * cores as u64;
        let mut per_core = Vec::with_capacity(cores);
        for _ in 0..cores {
            let (mut sut, keys) = pepc_sut(per_slice);
            let mut gen = TrafficGen::new(keys);
            let mut sig =
                SignalingGen::new(Defaults::IMSI_BASE, per_slice, events / cores as u64, EventMix::attaches_only());
            let m = measure(&mut sut, &mut gen, Some(&mut sig), &opts);
            per_core.push(m.mpps());
        }
        rows.push(Fig7Row {
            data_cores: cores,
            users: users_total,
            events_per_sec: events,
            aggregate_mpps: per_core.iter().sum(),
            per_core_mpps: per_core,
        });
    }
    println!("\nFigure 7 — data plane scaling with data cores (modeled: sum of isolated 1-slice nodes)");
    println!("{:>6} {:>10} {:>10} {:>12}", "cores", "users", "events/s", "aggregate");
    for r in &rows {
        println!("{:>6} {:>10} {:>10} {:>9.3} Mpps", r.data_cores, r.users, r.events_per_sec, r.aggregate_mpps);
    }
    rows
}

// ---------------------------------------------------------------------------
// Figures 8 & 9 — state migration
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig8Row {
    pub migrations_per_sec: u64,
    pub mpps: f64,
    pub drop_vs_baseline_pct: f64,
}

fn migration_node(users: u64) -> (NodeSut, Vec<UserKeys>, Vec<u64>) {
    let config = EpcConfig {
        slices: 2,
        slice: SliceConfig {
            batching: BatchingConfig { sync_every_packets: 32 },
            expected_users: users as usize,
            ..SliceConfig::default()
        },
        ..EpcConfig::default()
    };
    let mut sut = NodeSut::new(PepcNode::new(config, None));
    let ids = imsis(users);
    let keys = sut.attach_all(&ids);
    (sut, keys, ids)
}

/// Tick hook that migrates users round-robin between the two slices at
/// `rate` migrations per second of elapsed time.
fn migrate_at(ids: &[u64], rate: u64) -> impl FnMut(&mut NodeSut, u64) + '_ {
    let (mut done, mut next) = (0u64, 0usize);
    move |sut, elapsed_ns| {
        let target = (elapsed_ns as u128 * rate as u128 / 1_000_000_000) as u64;
        while done < target {
            let imsi = ids[next % ids.len()];
            next += 1;
            if let Some(cur) = sut.node.slice_of(imsi) {
                sut.migrate(imsi, 1 - cur);
            }
            done += 1;
        }
    }
}

/// Figure 8: data-plane throughput at increasing migration rates.
///
/// One node instance serves every rate point (setup noise would otherwise
/// mask the migration cost); each point runs 3× the base window.
pub fn fig08_migration_tput(scale: Scale) -> Vec<Fig8Row> {
    let users = scale.users(100_000);
    let opts = MeasureOpts { duration: scale.duration() * 3, ..Default::default() };
    let (mut sut, keys, ids) = migration_node(users);
    let mut gen = TrafficGen::new(keys);
    let mut rows = Vec::new();
    let mut baseline = 0.0;
    for rate in [0u64, 1_000, 10_000, 25_000, 50_000, 100_000, 250_000] {
        let m = measure_with(&mut sut, &mut gen, None, &opts, migrate_at(&ids, rate));
        let mpps = m.mpps();
        if rate == 0 {
            baseline = mpps;
        }
        let drop = if baseline > 0.0 { (1.0 - mpps / baseline) * 100.0 } else { 0.0 };
        rows.push(Fig8Row { migrations_per_sec: rate, mpps, drop_vs_baseline_pct: drop.max(0.0) });
    }
    println!("\nFigure 8 — impact of state migrations on data plane throughput");
    println!("{:>12} {:>10} {:>12}", "migrations/s", "Mpps", "drop vs 0");
    for r in &rows {
        println!("{:>12} {:>10.3} {:>11.1}%", r.migrations_per_sec, r.mpps, r.drop_vs_baseline_pct);
    }
    rows
}

#[derive(Debug, Clone)]
pub struct Fig9Row {
    pub migrations_per_sec: u64,
    pub median_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// Figure 9: per-packet latency distribution under migrations.
pub fn fig09_migration_latency(scale: Scale) -> Vec<Fig9Row> {
    let users = scale.users(100_000);
    let opts = MeasureOpts { duration: scale.duration() * 3, latency_sample_every: 4, ..Default::default() };
    let (mut sut, keys, ids) = migration_node(users);
    let mut gen = TrafficGen::new(keys);
    let mut rows = Vec::new();
    for rate in [0u64, 1_000, 10_000, 25_000] {
        let m = measure_with(&mut sut, &mut gen, None, &opts, migrate_at(&ids, rate));
        let h = m.latency.expect("latency sampled");
        rows.push(Fig9Row {
            migrations_per_sec: rate,
            median_us: h.quantile_ns(0.5) as f64 / 1000.0,
            p99_us: h.quantile_ns(0.99) as f64 / 1000.0,
            max_us: h.max_ns() as f64 / 1000.0,
        });
    }
    println!("\nFigure 9 — per-packet latency during state migrations (µs)");
    println!("{:>12} {:>10} {:>10} {:>10}", "migrations/s", "median", "p99", "max");
    for r in &rows {
        println!("{:>12} {:>10.2} {:>10.2} {:>10.2}", r.migrations_per_sec, r.median_us, r.p99_us, r.max_us);
    }
    rows
}

// ---------------------------------------------------------------------------
// Figures 10 & 11 — control plane over full S1AP/NAS/SCTP
// ---------------------------------------------------------------------------

/// An eNodeB↔MME rig running S1AP over the SCTP-lite association, against
/// a control plane with live HSS/PCRF backends.
pub struct SctpS1apRig {
    client: Association,
    server: Association,
    pub cp: ControlPlane,
}

impl SctpS1apRig {
    pub fn new(subscribers: u64) -> Self {
        let hss = Arc::new(Hss::new());
        hss.provision_range(Defaults::IMSI_BASE, subscribers, 100_000);
        let pcrf = Arc::new(Pcrf::with_standard_rules());
        let proxy = Arc::new(Proxy::new(hss, pcrf, 1, 40401));
        let cp = ControlPlane::new(
            Defaults::GW_IP,
            1,
            Allocator { teid_base: 0x0100_0000, ue_ip_base: 0x0A00_0001, guti_base: 0xD00D_0000, mme_ue_id_base: 1 },
            Some(proxy),
        );
        let mut client = Association::new(36412, 36412, 0xC11E, 7);
        let mut server = Association::new(36412, 36412, 0x5E4E, 7);
        client.connect().expect("fresh association");
        // Complete the 4-way handshake.
        loop {
            let c_out = client.take_outbound();
            let s_out = server.take_outbound();
            if c_out.is_empty() && s_out.is_empty() {
                break;
            }
            for p in c_out {
                server.handle_packet(&p).expect("handshake");
            }
            for p in s_out {
                client.handle_packet(&p).expect("handshake");
            }
        }
        SctpS1apRig { client, server, cp }
    }

    /// Send one S1AP PDU over SCTP, deliver to the control plane, and
    /// carry the responses back over SCTP. Exercises the full encode /
    /// chunk / TSN / decode path in both directions.
    pub fn rpc(&mut self, pdu: &S1apPdu) -> Vec<S1apPdu> {
        self.client.send(1, pdu.encode()).expect("established");
        let mut responses = Vec::new();
        loop {
            let c_out = self.client.take_outbound();
            let s_out = self.server.take_outbound();
            if c_out.is_empty() && s_out.is_empty() {
                break;
            }
            for p in c_out {
                let bytes = p.encode();
                let decoded = pepc_sigproto::sctp::SctpPacket::decode(&bytes).expect("wire");
                for ev in self.server.handle_packet(&decoded).expect("established") {
                    if let SctpEvent::Delivery { payload, .. } = ev {
                        let req = S1apPdu::decode(&payload).expect("s1ap");
                        for rsp in self.cp.handle_s1ap(&req) {
                            self.server.send(1, rsp.encode()).expect("established");
                        }
                    }
                }
            }
            for p in s_out {
                let bytes = p.encode();
                let decoded = pepc_sigproto::sctp::SctpPacket::decode(&bytes).expect("wire");
                for ev in self.client.handle_packet(&decoded).expect("established") {
                    if let SctpEvent::Delivery { payload, .. } = ev {
                        responses.push(S1apPdu::decode(&payload).expect("s1ap"));
                    }
                }
            }
        }
        responses
    }

    /// Run one full attach over the wire; true on success.
    pub fn attach(&mut self, imsi: u64, enb_ue_id: u32) -> bool {
        run_attach_with(|pdu| self.rpc(pdu), imsi, enb_ue_id, 0xE000_0000 + enb_ue_id, 0xC0A8_0001).is_some()
    }
}

/// Measured cost of one full attach procedure over S1AP/NAS/SCTP.
pub fn measure_attach_cost(attaches: u64) -> Duration {
    let mut rig = SctpS1apRig::new(attaches + 10);
    // Warm up.
    for i in 0..10 {
        assert!(rig.attach(Defaults::IMSI_BASE + i, i as u32 + 1), "warmup attach failed");
    }
    let start = Instant::now();
    for i in 0..attaches {
        let imsi = Defaults::IMSI_BASE + 10 + i;
        assert!(rig.attach(imsi, 100 + i as u32), "attach failed");
    }
    start.elapsed() / attaches.max(1) as u32
}

#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Attach requests per data packet (e.g. 1/304).
    pub ratio: f64,
    pub attach_per_sec: f64,
    pub data_cores: usize,
    pub ctrl_cores: usize,
    pub total_cores: usize,
}

/// Figure 10: total cores needed as the signaling:data ratio rises, with
/// full S1AP/NAS parsing over SCTP. Data load is pinned at one data
/// core's maximum rate; control cores = ceil(required attach rate /
/// single-core attach capacity).
pub fn fig10_ctrl_cores(scale: Scale) -> Vec<Fig10Row> {
    // Single data core max rate.
    let users = scale.users(10_000).max(1000);
    let (mut sut, keys) = pepc_sut(users);
    let mut gen = TrafficGen::new(keys);
    let m = measure(&mut sut, &mut gen, None, &MeasureOpts { duration: scale.duration(), ..Default::default() });
    let data_pps = m.mpps() * 1e6;
    // Single control core attach capacity.
    let samples = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 10_000,
    };
    let per_attach = measure_attach_cost(samples);
    let attach_cap = 1.0 / per_attach.as_secs_f64();
    println!(
        "\nFigure 10 — cores for a given signaling:data ratio (S1AP/NAS over SCTP)\n\
         measured: data core {:.2} Mpps, attach cost {:.1} µs ({:.0} attach/s/core)",
        data_pps / 1e6,
        per_attach.as_nanos() as f64 / 1000.0,
        attach_cap
    );
    let mut rows = Vec::new();
    for denom in [10_000u64, 1_000, 304, 100, 50, 10] {
        let ratio = 1.0 / denom as f64;
        let attach_per_sec = data_pps * ratio;
        let ctrl_cores = (attach_per_sec / attach_cap).ceil().max(1.0) as usize;
        rows.push(Fig10Row { ratio, attach_per_sec, data_cores: 1, ctrl_cores, total_cores: 1 + ctrl_cores });
    }
    println!("{:>10} {:>12} {:>10} {:>10} {:>10}", "sig:data", "attach/s", "data", "ctrl", "total");
    for r in &rows {
        println!(
            "{:>10} {:>12.0} {:>10} {:>10} {:>10}",
            format!("1:{:.0}", 1.0 / r.ratio),
            r.attach_per_sec,
            r.data_cores,
            r.ctrl_cores,
            r.total_cores
        );
    }
    rows
}

#[derive(Debug, Clone)]
pub struct Fig11Row {
    pub ctrl_cores: usize,
    pub attach_per_sec: f64,
}

/// Figure 11: attach rate vs number of control cores, with the
/// kernel-SCTP serialization bottleneck the paper hit. The serialized
/// share of each attach (16.7%) is calibrated so 8 cores reach ~6× the
/// single-core rate, matching the paper's 20 K → 120 K curve; per-core
/// capacity itself is measured, not assumed.
pub fn fig11_attach_scaling(scale: Scale) -> Vec<Fig11Row> {
    let samples = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 10_000,
    };
    let per_attach = measure_attach_cost(samples).as_secs_f64();
    let serial_fraction = 1.0 / 6.0; // kernel-SCTP share (paper §6.5)
    let serial = per_attach * serial_fraction;
    let mut rows = Vec::new();
    for cores in [1usize, 2, 4, 8] {
        let rate = (cores as f64 / per_attach).min(1.0 / serial);
        rows.push(Fig11Row { ctrl_cores: cores, attach_per_sec: rate });
    }
    println!(
        "\nFigure 11 — attach rate vs control cores (S1AP/NAS over SCTP)\n\
         measured per-attach cost {:.1} µs; serialized (kernel-SCTP) share {:.0}%",
        per_attach * 1e6,
        serial_fraction * 100.0
    );
    println!("{:>6} {:>14}", "cores", "attach/s");
    for r in &rows {
        println!("{:>6} {:>14.0}", r.ctrl_cores, r.attach_per_sec);
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 12 — shared-state implementations
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub implementation: &'static str,
    pub updates_per_sec: u64,
    pub visits_mpps: f64,
}

/// Drive one store with a dedicated data thread (per-packet visits) and a
/// control thread applying `updates_per_sec` control-state writes.
/// Returns data-path visits/second. Only meaningful with ≥3 physical
/// cores (data, control, OS); see [`fig12_lock_strategies`].
pub fn run_lock_experiment<S: StateStore>(store: Arc<S>, users: u64, updates_per_sec: u64, duration: Duration) -> f64 {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    for uid in 0..users {
        store.insert(uid, ControlState::new(uid));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let visits = Arc::new(AtomicU64::new(0));

    let s_data = Arc::clone(&store);
    let stop_d = Arc::clone(&stop);
    let visits_d = Arc::clone(&visits);
    let data = std::thread::spawn(move || {
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut local = 0u64;
        while !stop_d.load(Ordering::Relaxed) {
            for _ in 0..256 {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let uid = (lcg >> 33) % users;
                s_data.data_path_visit(uid, local.is_multiple_of(4), 100, local, &mut |c| c.tunnels.enb_teid != 0);
                local += 1;
            }
            visits_d.store(local, Ordering::Relaxed);
        }
    });

    let s_ctrl = Arc::clone(&store);
    let stop_c = Arc::clone(&stop);
    let ctrl = std::thread::spawn(move || {
        let per_ms = updates_per_sec / 1000;
        let mut lcg = 0x9E37_79B9u64;
        let start = Instant::now();
        let mut issued: u64 = 0;
        while !stop_c.load(Ordering::Relaxed) {
            let target = (start.elapsed().as_millis() as u64) * per_ms;
            while issued < target {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let uid = (lcg >> 33) % users;
                s_ctrl.update_ctrl(uid, &mut |c| {
                    c.tunnels.enb_teid = (issued & 0xFFFF) as u32 + 1;
                    c.tunnels.enb_ip = 0xC0A8_0001;
                });
                issued += 1;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    data.join().expect("data thread");
    ctrl.join().expect("ctrl thread");
    visits.load(std::sync::atomic::Ordering::Relaxed) as f64 / duration.as_secs_f64()
}

/// Inline-measured constants for one store: per-visit cost and the
/// write-lock hold time of one control update (its critical section).
fn measure_store_constants<S: StateStore>(store: &S, users: u64, samples: u64) -> (f64, f64) {
    for uid in 0..users {
        store.insert(uid, ControlState::new(uid));
    }
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    // Warm.
    for i in 0..samples / 4 {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        store.data_path_visit((lcg >> 33) % users, i % 4 == 0, 100, i, &mut |v| v.tunnels.gw_teid != u32::MAX);
    }
    let t = Instant::now();
    for i in 0..samples {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        store.data_path_visit((lcg >> 33) % users, i % 4 == 0, 100, i, &mut |v| v.tunnels.gw_teid != u32::MAX);
    }
    let visit_s = t.elapsed().as_secs_f64() / samples as f64;
    let t = Instant::now();
    for i in 0..samples {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        store.update_ctrl((lcg >> 33) % users, &mut |c| {
            c.tunnels.enb_teid = i as u32 + 1;
            c.tunnels.enb_ip = 0xC0A8_0001;
        });
    }
    let update_s = t.elapsed().as_secs_f64() / samples as f64;
    (visit_s, update_s)
}

/// Figure 12: giant lock vs datapath-writer vs rwlock-fine vs PEPC
/// (seqlock) under rising control update rates.
///
/// On a host with ≥3 physical cores this runs the real two-thread
/// contention experiment. With fewer cores cross-core blocking cannot
/// manifest (control work steals the data thread's core 1:1 under
/// *every* locking scheme, and the OS needs the rest), so the figure
/// is computed from measured per-store constants with the blocking
/// semantics made explicit:
///
/// * a dedicated data core's rate is `1 / visit_cost`, minus the fraction
///   of time the store's *global* write lock is held by the control core
///   (giant lock: every update; fine-grained designs: never — a per-user
///   hold blocks ~1/users of the traffic, negligible at 1 M users).
pub fn fig12_lock_strategies(scale: Scale) -> Vec<Fig12Row> {
    let users = scale.users(1_000_000);
    let duration = scale.duration();
    let rates = [0u64, 100_000, 500_000, 1_000_000, 3_000_000];
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut rows = Vec::new();
    if cores >= 3 {
        for &rate in &rates {
            let giant = run_lock_experiment(Arc::new(GiantLockStore::new(users as usize)), users, rate, duration);
            rows.push(Fig12Row { implementation: "Giant lock", updates_per_sec: rate, visits_mpps: giant / 1e6 });
            let dw = run_lock_experiment(Arc::new(DatapathWriterStore::new(users as usize)), users, rate, duration);
            rows.push(Fig12Row { implementation: "Datapath writer", updates_per_sec: rate, visits_mpps: dw / 1e6 });
            let rwf = run_lock_experiment(Arc::new(RwLockFineStore::new(users as usize)), users, rate, duration);
            rows.push(Fig12Row { implementation: "RwLock fine", updates_per_sec: rate, visits_mpps: rwf / 1e6 });
            let pepc = run_lock_experiment(Arc::new(PepcStore::new(users as usize)), users, rate, duration);
            rows.push(Fig12Row { implementation: "PEPC", updates_per_sec: rate, visits_mpps: pepc / 1e6 });
        }
        println!("\nFigure 12 — shared state implementations (measured, {cores} cores)");
    } else {
        let samples = 400_000;
        let (v_g, u_g) = measure_store_constants(&GiantLockStore::new(users as usize), users, samples);
        let (v_d, _) = measure_store_constants(&DatapathWriterStore::new(users as usize), users, samples);
        let (v_r, _) = measure_store_constants(&RwLockFineStore::new(users as usize), users, samples);
        let (v_p, _) = measure_store_constants(&PepcStore::new(users as usize), users, samples);
        println!(
            "\nFigure 12 — shared state implementations ({cores} cores, fewer than 3: computed from\n\
             measured constants; see DESIGN.md §2. visit: giant {:.0} ns, datapath-writer {:.0} ns,\n\
             rwlock-fine {:.0} ns, PEPC seqlock {:.0} ns; giant-lock write hold {:.0} ns/update)",
            v_g * 1e9,
            v_d * 1e9,
            v_r * 1e9,
            v_p * 1e9,
            u_g * 1e9
        );
        for &rate in &rates {
            let blocked = (rate as f64 * u_g).min(1.0);
            rows.push(Fig12Row {
                implementation: "Giant lock",
                updates_per_sec: rate,
                visits_mpps: (1.0 - blocked) / v_g / 1e6,
            });
            rows.push(Fig12Row {
                implementation: "Datapath writer",
                updates_per_sec: rate,
                visits_mpps: 1.0 / v_d / 1e6,
            });
            rows.push(Fig12Row { implementation: "RwLock fine", updates_per_sec: rate, visits_mpps: 1.0 / v_r / 1e6 });
            rows.push(Fig12Row { implementation: "PEPC", updates_per_sec: rate, visits_mpps: 1.0 / v_p / 1e6 });
        }
    }
    println!("{:<18} {:>12} {:>10}", "implementation", "updates/s", "Mpps");
    for r in &rows {
        println!("{:<18} {:>12} {:>10.3}", r.implementation, r.updates_per_sec, r.visits_mpps);
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 13 — batching control→data updates
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Events per packet (1.0 = the paper's 1:1 point).
    pub ratio: f64,
    pub batched_mpps: f64,
    pub unbatched_mpps: f64,
}

/// Figure 13: syncing membership updates every 32 packets vs every packet
/// while attach events arrive at a fixed events:packets ratio.
///
/// Variants run in ABBA order and average two rounds each, cancelling
/// allocator-layout and cache-warmth ordering artifacts.
pub fn fig13_batching(scale: Scale) -> Vec<Fig13Row> {
    let users = scale.users(100_000);
    let duration = scale.duration() * 2;
    let run_one = |sync_every_packets: u32, ratio: f64| -> f64 {
        let mut sut = pepc_node(SliceConfig {
            batching: BatchingConfig { sync_every_packets },
            expected_users: users as usize,
            ..SliceConfig::default()
        });
        let keys = sut.attach_all(&imsis(users));
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users, 0, EventMix::attaches_only());
        mpps_at_ratio(&mut sut, &mut gen, &mut sig, ratio, duration)
    };
    let mut rows = Vec::new();
    for ratio in [0.1f64, 0.5, 1.0] {
        // A B B A: batched, unbatched, unbatched, batched.
        let a1 = run_one(32, ratio);
        let b1 = run_one(1, ratio);
        let b2 = run_one(1, ratio);
        let a2 = run_one(32, ratio);
        rows.push(Fig13Row { ratio, batched_mpps: (a1 + a2) / 2.0, unbatched_mpps: (b1 + b2) / 2.0 });
    }
    println!("\nFigure 13 — impact of batching updates (sync every 32 vs every packet)");
    println!("{:>10} {:>12} {:>12} {:>8}", "sig:data", "batched", "unbatched", "gain");
    for r in &rows {
        println!(
            "{:>10} {:>9.3} M {:>9.3} M {:>7.1}%",
            format!("1:{:.0}", 1.0 / r.ratio),
            r.batched_mpps,
            r.unbatched_mpps,
            (r.batched_mpps / r.unbatched_mpps - 1.0) * 100.0
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 14 — two-level state tables
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig14Row {
    pub always_on_pct: f64,
    pub churn: &'static str,
    pub two_level_mpps: f64,
    pub single_mpps: f64,
    pub improvement_pct: f64,
}

/// Figure 14: two-level vs single state table over the always-on share
/// and churn level. Variants run ABBA and average two rounds each.
pub fn fig14_two_level(scale: Scale) -> Vec<Fig14Row> {
    let total = scale.users(1_000_000);
    let duration = scale.duration();
    let run_one = |two_level: bool, always_on: u64, churn_frac: f64| -> f64 {
        let mut sut = pepc_node(SliceConfig {
            two_level: TwoLevelConfig { enabled: two_level, ..TwoLevelConfig::default() },
            expected_users: total as usize,
            ..SliceConfig::default()
        });
        let all = imsis(total);
        let keys = sut.attach_all(&all);
        if two_level {
            // Everyone beyond the always-on set starts idle.
            for &imsi in &all[always_on as usize..] {
                sut.demote(imsi);
            }
        }
        // Traffic targets the active population.
        let mut gen = TrafficGen::new(keys[..always_on as usize].to_vec());
        let churn_per_sec = (total as f64 * churn_frac) as u64;
        let mut churned: u64 = 0;
        let mut cold = always_on;
        let clock = pepc_fabric::Clock::new();
        let start = Instant::now();
        let mut offered: u64 = 0;
        while start.elapsed() < duration {
            if two_level {
                let target = (clock.now_ns() as u128 * churn_per_sec as u128 / 1_000_000_000) as u64;
                while churned < target {
                    let idx = (cold % total) as usize;
                    cold += 1;
                    let key = keys[idx];
                    // A packet for the cold user promotes it...
                    let mut m = gen.next_packet(0);
                    rewrite_uplink_teid(&mut m, key.teid);
                    offered += 1;
                    if let Some(out) = sut.process(m) {
                        gen.recycle(out);
                    }
                    // ...and the control plane demotes it again.
                    sut.demote(all[idx]);
                    churned += 1;
                }
            }
            for _ in 0..32 {
                let m = gen.next_packet(0);
                offered += 1;
                if let Some(out) = sut.process(m) {
                    gen.recycle(out);
                }
            }
        }
        offered as f64 / start.elapsed().as_secs_f64() / 1e6
    };
    let mut rows = Vec::new();
    for &always_on_frac in &[0.01f64, 0.10, 0.50, 1.00] {
        for (churn_name, churn_frac) in [("low (1%/s)", 0.01f64), ("high (10%/s)", 0.10)] {
            let always_on = ((total as f64 * always_on_frac) as u64).max(1);
            let a1 = run_one(true, always_on, churn_frac);
            let b1 = run_one(false, always_on, churn_frac);
            let b2 = run_one(false, always_on, churn_frac);
            let a2 = run_one(true, always_on, churn_frac);
            let (two, single) = ((a1 + a2) / 2.0, (b1 + b2) / 2.0);
            rows.push(Fig14Row {
                always_on_pct: always_on_frac * 100.0,
                churn: churn_name,
                two_level_mpps: two,
                single_mpps: single,
                improvement_pct: (two / single - 1.0) * 100.0,
            });
        }
    }
    println!("\nFigure 14 — two-level vs single state table ({} devices)", total);
    println!("{:>10} {:>14} {:>10} {:>10} {:>8}", "always-on", "churn", "2-level", "single", "gain");
    for r in &rows {
        println!(
            "{:>9.0}% {:>14} {:>7.3} M {:>7.3} M {:>7.1}%",
            r.always_on_pct, r.churn, r.two_level_mpps, r.single_mpps, r.improvement_pct
        );
    }
    rows
}

/// Rewrite the TEID of a generated uplink packet in place (churn helper);
/// downlink packets are left untouched.
fn rewrite_uplink_teid(m: &mut pepc_net::Mbuf, teid: u32) {
    let d = m.data_mut();
    if d.len() >= 36 && d[0] == 0x45 && d[9] == 17 && u16::from_be_bytes([d[22], d[23]]) == pepc_net::GTPU_PORT {
        d[32..36].copy_from_slice(&teid.to_be_bytes());
    }
}

// ---------------------------------------------------------------------------
// Figure 15 — stateless-IoT customization
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig15Row {
    pub iot_pct: f64,
    pub customized_mpps: f64,
    pub uncustomized_mpps: f64,
    pub improvement_pct: f64,
    /// Share of the customized run's packets that took the node's
    /// stateless-IoT fast path (`iot_fast_path / rx`).
    pub fast_path_pct: f64,
}

/// One Figure 15 point: `total` devices of which `iot_count` are IoT,
/// through a 1-slice node. Customized, the IoT devices live in the
/// slice's stateless pool (keys computed, no per-user state) and the
/// node's Demux steers their keys there; uncustomized, every device is
/// attached with full per-user state.
fn iot_run(total: u64, iot_count: u64, customized: bool, duration: Duration) -> Measurement {
    let (teid_base, ip_base) = (0xF000_0000u32, 0x6400_0000u32);
    let attached = if customized { total - iot_count } else { total };
    let iot = if customized {
        IotConfig { enabled: true, teid_base, ip_base, pool_size: iot_count.max(1) as u32 }
    } else {
        IotConfig::default()
    };
    let mut sut = pepc_node(SliceConfig {
        two_level: TwoLevelConfig { enabled: true, idle_timeout_ns: u64::MAX },
        iot,
        expected_users: attached.max(1) as usize,
        ..SliceConfig::default()
    });
    let mut keys = sut.attach_all(&imsis(attached));
    if customized {
        keys.extend((0..iot_count as u32).map(|j| UserKeys { teid: teid_base + j, ue_ip: ip_base + j }));
    }
    let mut gen = TrafficGen::new(keys);
    measure(&mut sut, &mut gen, None, &MeasureOpts { duration, ..Default::default() })
}

/// Figure 15: throughput gain from the stateless-IoT fast path as the
/// IoT share of a large device population grows. Variants run ABBA and
/// average two rounds each.
pub fn fig15_iot(scale: Scale) -> Vec<Fig15Row> {
    let total = scale.users(10_000_000);
    let duration = scale.duration();
    let mut rows = Vec::new();
    for &iot_frac in &[0.05f64, 0.25, 0.50, 0.75, 1.0] {
        let iot_count = ((total as f64 * iot_frac) as u64).min(total);
        let a1 = iot_run(total, iot_count, true, duration);
        let b1 = iot_run(total, iot_count, false, duration).mpps();
        let b2 = iot_run(total, iot_count, false, duration).mpps();
        let a2 = iot_run(total, iot_count, true, duration);
        let (customized, uncustomized) = ((a1.mpps() + a2.mpps()) / 2.0, (b1 + b2) / 2.0);
        let fast = a2.snapshot.map_or(0.0, |s| {
            let t = s.data_totals();
            t.iot_fast_path as f64 / t.rx.max(1) as f64
        });
        rows.push(Fig15Row {
            iot_pct: iot_frac * 100.0,
            customized_mpps: customized,
            uncustomized_mpps: uncustomized,
            improvement_pct: (customized / uncustomized - 1.0) * 100.0,
            fast_path_pct: fast * 100.0,
        });
    }
    println!("\nFigure 15 — stateless-IoT customization ({} devices)", total);
    println!("{:>8} {:>12} {:>14} {:>8} {:>10}", "IoT %", "customized", "uncustomized", "gain", "fast path");
    for r in &rows {
        println!(
            "{:>7.0}% {:>9.3} M {:>11.3} M {:>7.1}% {:>9.1}%",
            r.iot_pct, r.customized_mpps, r.uncustomized_mpps, r.improvement_pct, r.fast_path_pct
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// Ablation — decomposing the classic EPC's slowdown
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct AblationRow {
    pub configuration: &'static str,
    pub mpps: f64,
}

/// Ablation: how much of the classic EPC's deficit is *structural*
/// (duplicated state, double tunnel traversal, flat tables, ADC) versus
/// the *calibrated* synchronization stalls (DESIGN.md §6)? Runs the Fig 4
/// workload against PEPC, the mechanisms-only classic EPC, and the fully
/// calibrated one.
pub fn ablation_structural(scale: Scale) -> Vec<AblationRow> {
    let users = scale.users(250_000);
    let attach_rate = 10_000;
    let opts = MeasureOpts { duration: scale.duration(), ..Default::default() };
    let mut rows = Vec::new();

    let run_classic = |cfg: ClassicConfig| -> f64 {
        let mut epc = ClassicEpc::new(ClassicConfig::mechanisms_only(cfg.preset));
        let mut keys = Vec::with_capacity(users as usize);
        for imsi in imsis(users) {
            epc.attach(imsi);
            epc.s1_handover(imsi, 0xE000_0000 + (imsi as u32 & 0xFFFF), 0xC0A8_0001);
            keys.push(UserKeys { teid: epc.uplink_teid(imsi).unwrap(), ue_ip: epc.ue_ip(imsi).unwrap() });
        }
        let mut sut = ClassicSut::new(epc, "classic");
        *sut.epc.config_mut() = cfg;
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users, attach_rate, EventMix::attaches_only());
        measure(&mut sut, &mut gen, Some(&mut sig), &opts).mpps()
    };

    {
        let (mut sut, keys) = pepc_sut(users);
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(Defaults::IMSI_BASE, users, attach_rate, EventMix::attaches_only());
        let m = measure(&mut sut, &mut gen, Some(&mut sig), &opts);
        rows.push(AblationRow { configuration: "PEPC (consolidated)", mpps: m.mpps() });
    }
    rows.push(AblationRow {
        configuration: "classic, mechanisms only",
        mpps: run_classic(ClassicConfig::mechanisms_only(BaselinePreset::Industrial1)),
    });
    {
        let mut cfg = ClassicConfig::mechanisms_only(BaselinePreset::Industrial1);
        cfg.adc_enabled = false;
        rows.push(AblationRow { configuration: "classic, mechanisms, no ADC", mpps: run_classic(cfg) });
    }
    rows.push(AblationRow {
        configuration: "classic, + calibrated sync stalls",
        mpps: run_classic(ClassicConfig::preset(BaselinePreset::Industrial1)),
    });

    println!("\nAblation — decomposing the classic EPC's slowdown (Fig 4 workload)");
    println!("{:<36} {:>10}", "configuration", "Mpps");
    for r in &rows {
        println!("{:<36} {:>10.3}", r.configuration, r.mpps);
    }
    let pepc = rows[0].mpps;
    println!(
        "structural share of deficit: {:.0}%  (rest is synchronization stalls)",
        ((pepc - rows[1].mpps) / (pepc - rows[3].mpps).max(1e-9) * 100.0).clamp(0.0, 100.0)
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sctp_s1ap_rig_attaches_over_the_wire() {
        let mut rig = SctpS1apRig::new(100);
        assert!(rig.attach(Defaults::IMSI_BASE + 5, 1));
        assert_eq!(rig.cp.user_count(), 1);
        assert!(rig.attach(Defaults::IMSI_BASE + 6, 2));
        assert_eq!(rig.cp.user_count(), 2);
        // Unknown subscriber: procedure fails cleanly.
        assert!(!rig.attach(Defaults::IMSI_BASE + 10_000, 3));
    }

    #[test]
    fn attach_cost_is_measurable() {
        let cost = measure_attach_cost(50);
        assert!(cost.as_nanos() > 0);
        assert!(cost < Duration::from_millis(50), "attach unexpectedly slow: {cost:?}");
    }

    #[test]
    fn lock_experiment_runs_all_stores() {
        let d = Duration::from_millis(30);
        let g = run_lock_experiment(Arc::new(GiantLockStore::new(100)), 100, 10_000, d);
        let w = run_lock_experiment(Arc::new(DatapathWriterStore::new(100)), 100, 10_000, d);
        let p = run_lock_experiment(Arc::new(PepcStore::new(100)), 100, 10_000, d);
        assert!(g > 0.0 && w > 0.0 && p > 0.0);
    }

    #[test]
    fn iot_pool_and_regular_users_share_a_node() {
        let m = iot_run(200, 100, true, Duration::from_millis(30));
        assert!(m.delivery_ratio() > 0.99, "delivery {}", m.delivery_ratio());
        let t = m.snapshot.expect("node telemetry").data_totals();
        assert!(t.iot_fast_path > 0, "pool traffic reached the fast path");
        assert!(t.iot_fast_path < t.forwarded, "regular users forwarded too");
    }

    #[test]
    fn rewrite_teid_touches_only_uplink() {
        let mut gen = TrafficGen::new(vec![UserKeys { teid: 0x1111, ue_ip: 0x0A000001 }]);
        let mut up = gen.next_packet(0); // uplink first in the mix
        rewrite_uplink_teid(&mut up, 0x2222);
        let d = up.data();
        assert_eq!(u32::from_be_bytes([d[32], d[33], d[34], d[35]]), 0x2222);
        let mut down = gen.next_packet(0);
        let before = down.data().to_vec();
        rewrite_uplink_teid(&mut down, 0x2222);
        assert_eq!(down.data(), &before[..], "downlink untouched");
    }
}
