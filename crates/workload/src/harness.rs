//! The shared measurement harness: one loop, many systems.
//!
//! Every figure reports data-plane throughput (Mpps) and/or per-packet
//! latency while signaling runs at some rate. [`measure`] is that loop:
//! it interleaves signaling events (at their configured rate) with data
//! bursts on one thread — exactly how a run-to-completion core
//! experiences the combined load — and reports what got through.
//!
//! [`SystemUnderTest`] adapts three systems to the loop — a PEPC node
//! ([`NodeSut`]), a replicated PEPC cluster ([`HaSut`]) and the classic
//! EPC ([`ClassicSut`]) — so every comparison runs byte-identical
//! workloads.

use crate::signaling::{SigEvent, SignalingGen};
use crate::traffic::{read_timestamp, TrafficGen, UserKeys};
use pepc::ctrl::CtrlEvent;
use pepc::node::{NodeVerdict, PepcNode};
use pepc_baseline::ClassicEpc;
use pepc_fabric::{Clock, LatencyHistogram};
use pepc_net::Mbuf;
use std::time::{Duration, Instant};

/// What the measurement loop needs from an EPC.
pub trait SystemUnderTest {
    /// Apply one signaling event; false = rejected/unknown user.
    fn signal(&mut self, ev: SigEvent) -> bool;

    /// Process one data packet; `Some` returns the forwarded packet (for
    /// buffer recycling), `None` means it was dropped.
    fn process(&mut self, m: Mbuf) -> Option<Mbuf>;

    /// Process a whole burst, appending forwarded packets to `out` (for
    /// buffer recycling) and draining `burst`. Default: the scalar loop,
    /// so SUTs without a native burst path still run burst workloads.
    fn process_burst(&mut self, burst: &mut Vec<Mbuf>, out: &mut Vec<Mbuf>) {
        for m in burst.drain(..) {
            if let Some(fwd) = self.process(m) {
                out.push(fwd);
            }
        }
    }

    /// Attach `imsis` and return each user's data-plane keys in order.
    fn attach_all(&mut self, imsis: &[u64]) -> Vec<UserKeys>;

    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// The system's observability snapshot, when it has one (the classic
    /// EPC baseline predates the telemetry layer and returns `None`).
    fn telemetry(&self) -> Option<pepc::MetricsSnapshot> {
        None
    }
}

/// A PEPC node — Demux, slices, migration queues — as the system under
/// test. The figures build 1-slice nodes for per-core numbers, as the
/// paper reports; the migration figures build 2.
pub struct NodeSut {
    pub node: PepcNode,
    /// Forwarded packets that emerged from migration-queue drains; the
    /// measurement loop counts each as forwarded.
    backlog: Vec<Mbuf>,
}

impl NodeSut {
    pub fn new(node: PepcNode) -> Self {
        NodeSut { node, backlog: Vec::new() }
    }

    /// Migrate `imsi` to slice `target` (the Figure 8/9 tick hook).
    pub fn migrate(&mut self, imsi: u64, target: usize) -> bool {
        let ok = self.node.migrate(imsi, target);
        self.backlog.extend(self.node.take_migration_output());
        ok
    }

    /// Demote a user to its slice's secondary table (two-level
    /// experiments), pushed to the data plane now so churn acts at once.
    pub fn demote(&mut self, imsi: u64) {
        if let Some(k) = self.node.slice_of(imsi) {
            let slice = self.node.slice(k);
            slice.ctrl.demote_user(imsi);
            slice.sync_now();
        }
    }
}

impl SystemUnderTest for NodeSut {
    fn signal(&mut self, ev: SigEvent) -> bool {
        self.node.ctrl_event(ev.into())
    }

    fn process(&mut self, m: Mbuf) -> Option<Mbuf> {
        // A drained migration packet is this call's output first, so none
        // is lost from the forwarded tally; the offered packet's own
        // output waits in the backlog.
        if let Some(queued) = self.backlog.pop() {
            if let NodeVerdict::Forward(out) = self.node.process(m) {
                self.backlog.push(out);
            }
            return Some(queued);
        }
        match self.node.process(m) {
            NodeVerdict::Forward(out) => Some(out),
            NodeVerdict::Parked | NodeVerdict::Drop | NodeVerdict::Buffered => None,
        }
    }

    fn process_burst(&mut self, burst: &mut Vec<Mbuf>, out: &mut Vec<Mbuf>) {
        out.append(&mut self.backlog);
        // The node takes the burst by value; the caller keeps an empty
        // buffer of the same capacity for its next fill.
        let capacity = burst.capacity();
        for v in self.node.process_burst(std::mem::replace(burst, Vec::with_capacity(capacity))) {
            if let NodeVerdict::Forward(fwd) = v {
                out.push(fwd);
            }
        }
    }

    fn attach_all(&mut self, imsis: &[u64]) -> Vec<UserKeys> {
        let mut keys = Vec::with_capacity(imsis.len());
        for &imsi in imsis {
            let k = self.node.attach(imsi);
            // Give the UE a serving eNodeB so downlink works.
            self.node.ctrl_event(CtrlEvent::S1Handover {
                imsi,
                new_enb_teid: 0xE000_0000 + (imsi as u32 & 0xFFFF),
                new_enb_ip: 0xC0A8_0001,
            });
            let (teid, ue_ip) = self.node.slice(k).ctrl.keys_of(imsi).expect("attached");
            keys.push(UserKeys { teid, ue_ip });
        }
        for k in 0..self.node.slice_count() {
            self.node.slice(k).sync_now();
        }
        keys
    }

    fn name(&self) -> &'static str {
        "PEPC"
    }

    fn telemetry(&self) -> Option<pepc::MetricsSnapshot> {
        Some(self.node.metrics_snapshot())
    }
}

/// An HA cluster as the system under test: the same mixed workload the
/// single-slice figures use, but routed through the balancer into a
/// replicated multi-node cluster — chaos tests kill a node mid-run and
/// keep the loop going.
pub struct HaSut {
    pub ha: pepc_ha::HaCluster,
    /// Run one coordinator tick (replication, heartbeats, detection) every
    /// this many processed packets, so replication cadence scales with
    /// offered load instead of wall-clock.
    tick_every: u32,
    since_tick: u32,
    name: &'static str,
}

impl HaSut {
    pub fn new(ha: pepc_ha::HaCluster, tick_every: u32) -> Self {
        assert!(tick_every > 0);
        HaSut { ha, tick_every, since_tick: 0, name: "PEPC-HA cluster" }
    }
}

impl SystemUnderTest for HaSut {
    fn signal(&mut self, ev: SigEvent) -> bool {
        self.ha.ctrl_event(ev.into())
    }

    fn process(&mut self, m: Mbuf) -> Option<Mbuf> {
        self.since_tick += 1;
        if self.since_tick >= self.tick_every {
            self.since_tick = 0;
            self.ha.tick();
        }
        match self.ha.process(m) {
            NodeVerdict::Forward(out) => Some(out),
            _ => None,
        }
    }

    fn attach_all(&mut self, imsis: &[u64]) -> Vec<UserKeys> {
        let mut keys = Vec::with_capacity(imsis.len());
        for &imsi in imsis {
            let k = self.ha.attach(imsi);
            self.ha.ctrl_event(CtrlEvent::S1Handover {
                imsi,
                new_enb_teid: 0xE000_0000 + (imsi as u32 & 0xFFFF),
                new_enb_ip: 0xC0A8_0001,
            });
            let node = self.ha.cluster().node(k);
            let s = node.slice_of(imsi).expect("attached");
            let ctx = node.slice(s).ctrl.context_of(imsi).expect("attached");
            let c = ctx.ctrl_read();
            keys.push(UserKeys { teid: c.tunnels.gw_teid, ue_ip: c.ue_ip });
        }
        let n = self.ha.cluster().node_count();
        for k in 0..n {
            let slices = self.ha.cluster().node(k).slice_count();
            for s in 0..slices {
                self.ha.cluster().node(k).slice(s).sync_now();
            }
        }
        keys
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn telemetry(&self) -> Option<pepc::MetricsSnapshot> {
        Some(self.ha.metrics_snapshot())
    }
}

/// The classic EPC as the system under test.
pub struct ClassicSut {
    pub epc: ClassicEpc,
    clock: Clock,
    name: &'static str,
}

impl ClassicSut {
    pub fn new(epc: ClassicEpc, name: &'static str) -> Self {
        ClassicSut { epc, clock: Clock::new(), name }
    }
}

impl SystemUnderTest for ClassicSut {
    fn signal(&mut self, ev: SigEvent) -> bool {
        match ev {
            SigEvent::Attach { imsi } => self.epc.attach(imsi),
            SigEvent::S1Handover { imsi, new_enb_teid, new_enb_ip } => {
                self.epc.s1_handover(imsi, new_enb_teid, new_enb_ip)
            }
        }
    }

    fn process(&mut self, m: Mbuf) -> Option<Mbuf> {
        match self.epc.process(m, self.clock.now_ns()) {
            pepc_baseline::ClassicVerdict::Forward(out) => Some(out),
            pepc_baseline::ClassicVerdict::Drop => None,
        }
    }

    fn attach_all(&mut self, imsis: &[u64]) -> Vec<UserKeys> {
        let mut keys = Vec::with_capacity(imsis.len());
        for &imsi in imsis {
            assert!(self.epc.attach(imsi), "classic attach failed");
            self.epc.s1_handover(imsi, 0xE000_0000 + (imsi as u32 & 0xFFFF), 0xC0A8_0001);
            keys.push(UserKeys {
                teid: self.epc.uplink_teid(imsi).expect("attached"),
                ue_ip: self.epc.ue_ip(imsi).expect("attached"),
            });
        }
        keys
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Result of one measurement run.
#[derive(Debug)]
pub struct Measurement {
    /// Packets offered to the pipeline.
    pub offered: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Signaling events applied.
    pub events: u64,
    pub elapsed: Duration,
    /// Per-packet latency (generation → forward), when sampled.
    pub latency: Option<LatencyHistogram>,
    /// The SUT's observability snapshot, taken when the run ended.
    pub snapshot: Option<pepc::MetricsSnapshot>,
}

impl Measurement {
    /// Offered-load throughput in Mpps (the rate the core sustained,
    /// counting pipeline drops as processed work).
    pub fn mpps(&self) -> f64 {
        self.offered as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Fraction of offered packets forwarded.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.forwarded as f64 / self.offered as f64
        }
    }

    /// One `p50/p99/p999` line per slice of the SUT's pipeline latency
    /// (empty when the SUT has no telemetry or recorded nothing).
    pub fn pipeline_latency_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if let Some(snap) = &self.snapshot {
            for s in &snap.slices {
                if s.pipeline_ns.count() > 0 {
                    let _ = writeln!(out, "slice {} pipeline {}", s.slice_id, s.pipeline_ns.summary());
                }
            }
        }
        out
    }
}

/// Options for [`measure`].
pub struct MeasureOpts {
    pub duration: Duration,
    /// Record latency for one in `latency_sample_every` packets
    /// (0 = no latency recording).
    pub latency_sample_every: u64,
    /// Packets per [`SystemUnderTest::process_burst`] call, between
    /// signaling checks.
    pub burst: usize,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        MeasureOpts { duration: Duration::from_millis(300), latency_sample_every: 0, burst: 32 }
    }
}

/// Run the interleaved signaling + data loop against `sut` for the
/// configured duration, offering `opts.burst` packets per
/// [`SystemUnderTest::process_burst`] call. A sampled packet's latency
/// runs from its generation to the end of its burst. `on_tick` runs once
/// per burst boundary with the elapsed nanoseconds (figures hook churn /
/// migrations here).
pub fn measure_with<S: SystemUnderTest + ?Sized>(
    sut: &mut S,
    gen: &mut TrafficGen,
    sig: Option<&mut SignalingGen>,
    opts: &MeasureOpts,
    mut on_tick: impl FnMut(&mut S, u64),
) -> Measurement {
    let mut latency = if opts.latency_sample_every > 0 { Some(LatencyHistogram::new()) } else { None };
    let clock = Clock::new();
    let start = Instant::now();
    let mut offered = 0u64;
    let mut forwarded = 0u64;
    let mut events = 0u64;
    let mut sig = sig;
    let mut burst_buf: Vec<Mbuf> = Vec::with_capacity(opts.burst);
    let mut fwd_buf: Vec<Mbuf> = Vec::with_capacity(opts.burst);
    loop {
        let elapsed_ns = clock.now_ns();
        if start.elapsed() >= opts.duration {
            break;
        }
        // Signaling due by now (cap per round so data still flows even
        // under overload, matching a real scheduler's fairness).
        if let Some(sig) = sig.as_deref_mut() {
            let due = sig.due(elapsed_ns).min(4096);
            for _ in 0..due {
                let ev = sig.next_event();
                sut.signal(ev);
                events += 1;
            }
        }
        on_tick(sut, elapsed_ns);
        burst_buf.clear();
        for _ in 0..opts.burst {
            burst_buf.push(gen.next_packet(clock.now_ns()));
        }
        offered += burst_buf.len() as u64;
        sut.process_burst(&mut burst_buf, &mut fwd_buf);
        let done = clock.now_ns();
        for out in fwd_buf.drain(..) {
            forwarded += 1;
            if let Some(h) = latency.as_mut() {
                if forwarded.is_multiple_of(opts.latency_sample_every) {
                    if let Some(t0) = read_timestamp(&out) {
                        h.record(done.saturating_sub(t0));
                    }
                }
            }
            gen.recycle(out);
        }
    }
    Measurement { offered, forwarded, events, elapsed: start.elapsed(), latency, snapshot: sut.telemetry() }
}

/// [`measure_with`] without a tick hook.
pub fn measure<S: SystemUnderTest + ?Sized>(
    sut: &mut S,
    gen: &mut TrafficGen,
    sig: Option<&mut SignalingGen>,
    opts: &MeasureOpts,
) -> Measurement {
    measure_with(sut, gen, sig, opts, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signaling::EventMix;
    use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
    use pepc_baseline::{BaselinePreset, ClassicConfig};

    fn imsis(n: u64) -> Vec<u64> {
        (0..n).map(|i| crate::params::Defaults::IMSI_BASE + i).collect()
    }

    fn node_sut(slices: usize, sync_every_packets: u32) -> NodeSut {
        let config = EpcConfig {
            slices,
            slice: SliceConfig { batching: BatchingConfig { sync_every_packets }, ..SliceConfig::default() },
            ..EpcConfig::default()
        };
        NodeSut::new(PepcNode::new(config, None))
    }

    #[test]
    fn node_sut_measures_forwarding_in_bursts() {
        let mut sut = node_sut(1, 32);
        let keys = sut.attach_all(&imsis(16));
        let mut gen = TrafficGen::new(keys);
        let m = measure(
            &mut sut,
            &mut gen,
            None,
            &MeasureOpts { duration: Duration::from_millis(50), latency_sample_every: 16, ..Default::default() },
        );
        assert!(m.offered > 1000, "offered {}", m.offered);
        assert!(m.delivery_ratio() > 0.99, "delivery {}", m.delivery_ratio());
        assert!(m.mpps() > 0.0);
        assert!(m.latency.expect("sampled").count() > 10);
        let snap = m.snapshot.expect("telemetry");
        assert!(snap.conservation_holds());
        assert_eq!(snap.slices[0].pipeline_ns.count(), snap.slices[0].data.forwarded);
    }

    #[test]
    fn node_sut_forwards_traffic() {
        let mut sut = node_sut(2, 1);
        let keys = sut.attach_all(&(0..32u64).collect::<Vec<_>>());
        let mut gen = TrafficGen::new(keys);
        let mut ok = 0;
        for _ in 0..1000 {
            let m = gen.next_packet(0);
            if let Some(out) = sut.process(m) {
                ok += 1;
                gen.recycle(out);
            }
        }
        assert_eq!(ok, 1000);
    }

    #[test]
    fn migrations_during_traffic_lose_nothing() {
        let mut sut = node_sut(2, 1);
        let imsis: Vec<u64> = (0..64).collect();
        let keys = sut.attach_all(&imsis);
        let mut gen = TrafficGen::new(keys);
        let mut next_mig = 0usize;
        let m = measure_with(
            &mut sut,
            &mut gen,
            None,
            &MeasureOpts { duration: Duration::from_millis(100), ..Default::default() },
            |sut, _| {
                // Migrate one user per burst, ping-ponging between slices.
                let imsi = imsis[next_mig % imsis.len()];
                next_mig += 1;
                let cur = sut.node.slice_of(imsi).unwrap();
                sut.migrate(imsi, 1 - cur);
            },
        );
        assert!(next_mig > 10, "migrations ran: {next_mig}");
        // Parked packets re-emerge: delivery stays essentially complete.
        assert!(m.delivery_ratio() > 0.999, "delivery {}", m.delivery_ratio());
        // Node-level telemetry rides along: both slices reported, and the
        // migrations show up in the per-slice histograms.
        let snap = m.snapshot.expect("node telemetry");
        assert_eq!(snap.slices.len(), 2);
        assert!(snap.conservation_holds());
        let migrations: u64 = snap.slices.iter().map(|s| s.migration_ns.count()).sum();
        assert!(migrations > 10, "migrations recorded: {migrations}");
    }

    #[test]
    fn classic_sut_runs_bursts_via_default_scalar_fallback() {
        let epc = ClassicEpc::new(ClassicConfig::mechanisms_only(BaselinePreset::Industrial1));
        let mut sut = ClassicSut::new(epc, "Industrial#1 (mechanisms)");
        let keys = sut.attach_all(&imsis(16));
        let mut gen = TrafficGen::new(keys);
        let m = measure(
            &mut sut,
            &mut gen,
            None,
            &MeasureOpts { duration: Duration::from_millis(50), ..Default::default() },
        );
        assert!(m.delivery_ratio() > 0.99, "delivery {}", m.delivery_ratio());
    }

    #[test]
    fn signaling_rate_is_honoured() {
        let mut sut = node_sut(1, 32);
        let keys = sut.attach_all(&imsis(64));
        let mut gen = TrafficGen::new(keys);
        let mut sig = SignalingGen::new(crate::params::Defaults::IMSI_BASE, 64, 50_000, EventMix::handovers_only());
        let m = measure(
            &mut sut,
            &mut gen,
            Some(&mut sig),
            &MeasureOpts { duration: Duration::from_millis(100), ..Default::default() },
        );
        // ~50K/s over 100ms ≈ 5000 events (loose bounds for CI noise).
        assert!((2000..8000).contains(&(m.events as usize)), "events {}", m.events);
    }

    #[test]
    fn latency_sampling_produces_histogram() {
        let mut sut = node_sut(1, 32);
        let keys = sut.attach_all(&imsis(4));
        let mut gen = TrafficGen::new(keys);
        let m = measure(
            &mut sut,
            &mut gen,
            None,
            &MeasureOpts { duration: Duration::from_millis(50), latency_sample_every: 16, ..Default::default() },
        );
        let h = m.latency.expect("sampled");
        assert!(h.count() > 10);
        assert!(h.quantile_ns(0.5) > 0, "median latency should be non-zero ns");
        assert!(h.quantile_ns(0.5) < 1_000_000, "inline pipeline is sub-ms");
    }

    #[test]
    fn measurement_carries_telemetry_snapshot() {
        let mut sut = node_sut(1, 32);
        let keys = sut.attach_all(&imsis(4));
        let mut gen = TrafficGen::new(keys);
        let m = measure(
            &mut sut,
            &mut gen,
            None,
            &MeasureOpts { duration: Duration::from_millis(20), ..Default::default() },
        );
        let snap = m.snapshot.as_ref().expect("PEPC SUT exports telemetry");
        assert!(snap.conservation_holds());
        assert_eq!(snap.slices[0].pipeline_ns.count(), snap.slices[0].data.forwarded);
        let report = m.pipeline_latency_report();
        assert!(report.contains("p99="), "{report}");

        // The classic baseline has none.
        let epc = ClassicEpc::new(ClassicConfig::mechanisms_only(BaselinePreset::Industrial1));
        let sut = ClassicSut::new(epc, "classic");
        assert!(sut.telemetry().is_none());
    }

    #[test]
    fn tick_hook_runs() {
        let mut sut = node_sut(1, 32);
        let keys = sut.attach_all(&imsis(4));
        let mut gen = TrafficGen::new(keys);
        let mut ticks = 0;
        measure_with(
            &mut sut,
            &mut gen,
            None,
            &MeasureOpts { duration: Duration::from_millis(20), ..Default::default() },
            |_, _| ticks += 1,
        );
        assert!(ticks > 0);
    }

    #[test]
    fn pepc_and_classic_run_identical_workloads() {
        // The generator is deterministic: the same seed drives both SUTs
        // with the same packet sequence modulo user keys.
        let mut a = node_sut(1, 32);
        let ka = a.attach_all(&imsis(8));
        let mut b = ClassicSut::new(
            ClassicEpc::new(ClassicConfig::mechanisms_only(BaselinePreset::Industrial2)),
            "Industrial#2",
        );
        let kb = b.attach_all(&imsis(8));
        assert_eq!(ka.len(), kb.len());
        // Both forward their whole streams.
        for (sut, keys) in [(&mut a as &mut dyn SystemUnderTest, ka), (&mut b as &mut dyn SystemUnderTest, kb)] {
            let mut gen = TrafficGen::new(keys);
            let mut ok = 0;
            for _ in 0..1000 {
                let m = gen.next_packet(0);
                if let Some(out) = sut.process(m) {
                    ok += 1;
                    gen.recycle(out);
                }
            }
            assert_eq!(ok, 1000, "{}", sut.name());
        }
    }
}
