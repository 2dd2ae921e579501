//! By-value snapshots of the per-slice observability registry.

use crate::{CtrlMetrics, DataMetrics, LatencyHistogram};

/// Depth/capacity gauge for one SPSC ring or port queue, sampled at
/// snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RingGauge {
    /// Which ring this is (e.g. `"update_ring"`, `"port_rx"`).
    pub name: String,
    /// Elements queued when the snapshot was taken.
    pub depth: u64,
    /// Ring capacity in elements.
    pub capacity: u64,
}

impl RingGauge {
    /// Fill fraction in [0, 1].
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.depth as f64 / self.capacity as f64
        }
    }
}

/// Per-wire fabric delivery stats, exported by whoever owns the wires
/// (the cluster) so chaos runs show fabric-level loss next to the
/// slice-level drop taxonomy.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireStat {
    /// Which wire this is (e.g. `"repl:node1"`, `"hb:node2"`).
    pub name: String,
    /// Frames delivered to the far port.
    pub forwarded: u64,
    /// Frames dropped by injected loss.
    pub dropped: u64,
    /// Frames delivered with corrupted payloads (subset of `forwarded`).
    pub corrupted: u64,
    /// Frames delivered out of order (subset of `forwarded`).
    pub reordered: u64,
    /// Extra copies injected by duplication (subset of `forwarded`).
    pub duplicated: u64,
    /// Frames that sat in the wire's delay line for at least one pump.
    pub delayed: u64,
    /// Frames deferred by rate limiting (later delivered or dropped).
    pub rate_limited: u64,
}

/// Everything one slice reports: plane counters, latency histograms, and
/// ring gauges. Assembled by the slice owner thread; crosses threads by
/// value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SliceSnapshot {
    pub slice_id: u64,
    /// Attached users at snapshot time.
    pub users: u64,
    pub data: DataMetrics,
    pub ctrl: CtrlMetrics,
    /// Per-packet data-plane pipeline latency (recorded on forward).
    pub pipeline_ns: LatencyHistogram,
    /// Control→data update propagation delay (enqueue → apply).
    pub update_delay_ns: LatencyHistogram,
    /// Attach procedure latency.
    pub attach_ns: LatencyHistogram,
    /// Service Request procedure latency.
    pub service_request_ns: LatencyHistogram,
    /// Handover procedure latency.
    pub handover_ns: LatencyHistogram,
    /// Per-user migration latency (park → drain).
    pub migration_ns: LatencyHistogram,
    /// Per-stage amortized ns/packet (parse/lookup/enforce, in
    /// [`STAGE_LABELS`] order) when stage timing is enabled; empty
    /// histograms otherwise.
    pub stage_ns: Vec<LatencyHistogram>,
    pub rings: Vec<RingGauge>,
    /// Signaling messages parked in per-UE mailboxes at snapshot time
    /// (mailbox pressure under storms).
    pub mailbox_backlog: u64,
    /// eNodeBs the admission limiter is tracking a token bucket for.
    pub limiter_enbs: u64,
    /// Admission tokens available across all tracked eNodeB buckets
    /// (limiter occupancy: 0 with buckets tracked = fully saturated).
    pub limiter_tokens: u64,
    /// Bytes reserved by the slice's context arena (chunk slots + slot
    /// generations + chunk directory).
    pub slab_bytes: u64,
    /// Bytes held by the lookup indexes (control-plane IMSI/GUTI tables
    /// plus data-plane TEID/UE-IP tables, including any in-progress
    /// incremental-resize old arrays).
    pub table_bytes: u64,
    /// Arena slots currently live. Invariant: equals `users` — every
    /// attach allocates exactly one slot, every detach frees it.
    pub live_slots: u64,
    /// Arena slots on the free-list, reusable without new allocation.
    pub free_slots: u64,
    /// `slab_bytes / live_slots` — the state-density audit number the
    /// capacity bench gates on (0 when no users are attached).
    pub bytes_per_user: u64,
}

/// Labels for [`SliceSnapshot::stage_ns`], index-aligned with the data
/// plane's three pipeline passes.
pub const STAGE_LABELS: [&str; 3] = ["stage-parse", "stage-lookup", "stage-enforce"];

impl SliceSnapshot {
    pub fn new(slice_id: u64) -> Self {
        SliceSnapshot {
            slice_id,
            users: 0,
            data: DataMetrics::default(),
            ctrl: CtrlMetrics::default(),
            pipeline_ns: LatencyHistogram::new(),
            update_delay_ns: LatencyHistogram::new(),
            attach_ns: LatencyHistogram::new(),
            service_request_ns: LatencyHistogram::new(),
            handover_ns: LatencyHistogram::new(),
            migration_ns: LatencyHistogram::new(),
            stage_ns: Vec::new(),
            rings: Vec::new(),
            mailbox_backlog: 0,
            limiter_enbs: 0,
            limiter_tokens: 0,
            slab_bytes: 0,
            table_bytes: 0,
            live_slots: 0,
            free_slots: 0,
            bytes_per_user: 0,
        }
    }

    /// Packet conservation for this slice: `rx == forwarded + Σ drops`.
    pub fn conservation_holds(&self) -> bool {
        self.data.conservation_holds()
    }

    /// Equality on the deterministic part of the snapshot: all counters,
    /// the drop taxonomy, user/ring gauges, and histogram *counts*.
    /// Histogram bucket contents are wall-clock measurements and differ
    /// across runs even with identical seeds, so they are excluded.
    pub fn deterministic_eq(&self, other: &SliceSnapshot) -> bool {
        self.slice_id == other.slice_id
            && self.users == other.users
            && self.data == other.data
            && self.ctrl == other.ctrl
            && self.pipeline_ns.count() == other.pipeline_ns.count()
            && self.update_delay_ns.count() == other.update_delay_ns.count()
            && self.attach_ns.count() == other.attach_ns.count()
            && self.service_request_ns.count() == other.service_request_ns.count()
            && self.handover_ns.count() == other.handover_ns.count()
            && self.migration_ns.count() == other.migration_ns.count()
            && self.stage_ns.len() == other.stage_ns.len()
            && self.stage_ns.iter().zip(&other.stage_ns).all(|(a, b)| a.count() == b.count())
            && self.rings == other.rings
            && self.mailbox_backlog == other.mailbox_backlog
            && self.limiter_enbs == other.limiter_enbs
            && self.limiter_tokens == other.limiter_tokens
            && self.live_slots == other.live_slots
            && self.free_slots == other.free_slots
    }

    fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        let d = &self.data;
        let c = &self.ctrl;
        let conservation = if self.conservation_holds() { "ok" } else { "VIOLATED" };
        let _ = writeln!(out, "slice {}: users={}", self.slice_id, self.users);
        let _ = writeln!(
            out,
            "  packets: rx={} fwd={} iot={} drops[unknown={} gate={} qos={} malformed={} failover={}] \
             updates={} conservation={}",
            d.rx,
            d.forwarded,
            d.iot_fast_path,
            d.drop_unknown_user,
            d.drop_gate,
            d.drop_qos,
            d.drop_malformed,
            d.drop_failover,
            d.updates_applied,
            conservation,
        );
        let _ = writeln!(
            out,
            "  ctrl: attach={}/{}rej sr={} ho={} rel={} detach={} bearer={} migr={}out/{}in s1ap={}",
            c.attaches,
            c.attach_rejects,
            c.service_requests,
            c.handovers,
            c.releases,
            c.detaches,
            c.bearer_updates,
            c.migrations_out,
            c.migrations_in,
            c.s1ap_rx,
        );
        if c.proc_started > 0 {
            let _ = writeln!(
                out,
                "  proc: started={} done={} preempt={} abort={} expire={} dedup={} sig[consumed={} deferred={} dropped={} overflow={}]",
                c.proc_started,
                c.proc_completed,
                c.proc_preempted,
                c.proc_aborted,
                c.proc_expired,
                c.proc_deduped,
                c.sig_consumed,
                c.sig_deferred,
                c.sig_dropped,
                c.sig_overflow,
            );
        }
        if self.slab_bytes > 0 || self.table_bytes > 0 {
            let _ = writeln!(
                out,
                "  memory: slab={} tables={} slots[live={} free={}] bytes/user={}",
                self.slab_bytes, self.table_bytes, self.live_slots, self.free_slots, self.bytes_per_user,
            );
        }
        if c.sig_shed_total() > 0 || self.limiter_enbs > 0 || self.mailbox_backlog > 0 {
            let _ = writeln!(
                out,
                "  overload: shed[ho={} attach={} tau={}] limiter[enbs={} tokens={}] backlog={}",
                c.sig_shed_handover,
                c.sig_shed_attach,
                c.sig_shed_tau,
                self.limiter_enbs,
                self.limiter_tokens,
                self.mailbox_backlog,
            );
        }
        for (label, h) in [
            ("pipeline", &self.pipeline_ns),
            ("upd-delay", &self.update_delay_ns),
            ("attach", &self.attach_ns),
            ("service-req", &self.service_request_ns),
            ("handover", &self.handover_ns),
            ("migration", &self.migration_ns),
        ] {
            if h.count() > 0 {
                let _ = writeln!(out, "  {label:<11} {}", h.summary());
            }
        }
        for (h, label) in self.stage_ns.iter().zip(STAGE_LABELS) {
            if h.count() > 0 {
                let _ = writeln!(out, "  {label:<13} {}", h.summary());
            }
        }
        for r in &self.rings {
            let _ = writeln!(out, "  ring {:<11} {}/{} ({:.1}%)", r.name, r.depth, r.capacity, r.occupancy() * 100.0);
        }
    }
}

/// Node-wide snapshot: one [`SliceSnapshot`] per slice, taken at a single
/// point in time by the owner of each plane.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    pub slices: Vec<SliceSnapshot>,
    /// Fabric wire delivery stats (empty for single-node snapshots; the
    /// cluster fills these in so chaos runs can correlate fabric loss
    /// with slice drops).
    pub wires: Vec<WireStat>,
}

impl MetricsSnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// Human-readable multi-line report with p50/p99/p999 per histogram.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.slices {
            s.render_into(&mut out);
        }
        if self.slices.is_empty() {
            out.push_str("(no slices)\n");
        }
        for w in &self.wires {
            use std::fmt::Write;
            let _ = writeln!(
                out,
                "wire {}: fwd={} dropped={} corrupted={} reordered={} duplicated={} delayed={} rate_limited={}",
                w.name, w.forwarded, w.dropped, w.corrupted, w.reordered, w.duplicated, w.delayed, w.rate_limited,
            );
        }
        out
    }

    /// Machine-readable JSON export.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Parse a snapshot previously produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Conservation across every slice.
    pub fn conservation_holds(&self) -> bool {
        self.slices.iter().all(SliceSnapshot::conservation_holds)
    }

    /// Node-wide totals of the data-plane counters (drop taxonomy summed
    /// across slices).
    pub fn data_totals(&self) -> DataMetrics {
        let mut t = DataMetrics::default();
        for s in &self.slices {
            let d = &s.data;
            t.rx += d.rx;
            t.forwarded += d.forwarded;
            t.iot_fast_path += d.iot_fast_path;
            t.drop_unknown_user += d.drop_unknown_user;
            t.drop_gate += d.drop_gate;
            t.drop_qos += d.drop_qos;
            t.drop_malformed += d.drop_malformed;
            t.drop_failover += d.drop_failover;
            t.updates_applied += d.updates_applied;
        }
        t
    }

    /// See [`SliceSnapshot::deterministic_eq`].
    pub fn deterministic_eq(&self, other: &MetricsSnapshot) -> bool {
        self.slices.len() == other.slices.len()
            && self.slices.iter().zip(&other.slices).all(|(a, b)| a.deterministic_eq(b))
            && self.wires == other.wires
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = SliceSnapshot::new(3);
        s.users = 4;
        s.data.rx = 100;
        s.data.forwarded = 90;
        s.data.drop_gate = 6;
        s.data.drop_qos = 4;
        s.ctrl.attaches = 4;
        for i in 1..=90u64 {
            s.pipeline_ns.record(i * 100);
        }
        s.attach_ns.record(5_000);
        let mut stage = LatencyHistogram::new();
        stage.record(40);
        s.stage_ns = vec![stage.clone(), stage.clone(), stage];
        s.rings.push(RingGauge { name: "update_ring".into(), depth: 3, capacity: 1024 });
        s.ctrl.sig_shed_attach = 5;
        s.ctrl.sig_shed_tau = 2;
        s.mailbox_backlog = 3;
        s.limiter_enbs = 2;
        s.limiter_tokens = 17;
        s.slab_bytes = 4096;
        s.table_bytes = 512;
        s.live_slots = 4;
        s.free_slots = 12;
        s.bytes_per_user = 1024;
        let wires = vec![WireStat { name: "repl:node1".into(), forwarded: 40, dropped: 2, ..Default::default() }];
        MetricsSnapshot { slices: vec![s], wires }
    }

    #[test]
    fn render_contains_key_lines() {
        let snap = sample();
        let text = snap.render();
        assert!(text.contains("slice 3"), "{text}");
        assert!(text.contains("conservation=ok"), "{text}");
        assert!(text.contains("failover="), "{text}");
        assert!(text.contains("p999="), "{text}");
        assert!(text.contains("ring update_ring"), "{text}");
        assert!(text.contains("wire repl:node1: fwd=40 dropped=2"), "{text}");
        assert!(text.contains("stage-parse"), "{text}");
        assert!(text.contains("stage-enforce"), "{text}");
        assert!(text.contains("overload: shed[ho=0 attach=5 tau=2] limiter[enbs=2 tokens=17] backlog=3"), "{text}");
        assert!(text.contains("memory: slab=4096 tables=512 slots[live=4 free=12] bytes/user=1024"), "{text}");
        assert!(MetricsSnapshot::new().render().contains("no slices"));
    }

    #[test]
    fn memory_line_hidden_when_no_arena_reported() {
        let mut snap = sample();
        let s = &mut snap.slices[0];
        s.slab_bytes = 0;
        s.table_bytes = 0;
        s.live_slots = 0;
        s.free_slots = 0;
        s.bytes_per_user = 0;
        assert!(!snap.render().contains("memory:"), "{}", snap.render());
    }

    #[test]
    fn memory_gauges_survive_json() {
        let snap = sample();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.slices[0].slab_bytes, 4096);
        assert_eq!(back.slices[0].table_bytes, 512);
        assert_eq!(back.slices[0].live_slots, 4);
        assert_eq!(back.slices[0].free_slots, 12);
        assert_eq!(back.slices[0].bytes_per_user, 1024);
    }

    #[test]
    fn overload_line_hidden_when_quiet() {
        let mut snap = sample();
        let s = &mut snap.slices[0];
        s.ctrl.sig_shed_attach = 0;
        s.ctrl.sig_shed_tau = 0;
        s.mailbox_backlog = 0;
        s.limiter_enbs = 0;
        s.limiter_tokens = 0;
        assert!(!snap.render().contains("overload:"), "{}", snap.render());
    }

    #[test]
    fn deterministic_eq_tracks_stage_counts_and_gauges() {
        let a = sample();
        let mut b = sample();
        // Same stage population, different values: still deterministic-eq.
        b.slices[0].stage_ns[0] = LatencyHistogram::new();
        b.slices[0].stage_ns[0].record(9_999);
        assert!(a.deterministic_eq(&b));
        // Extra stage sample breaks it.
        b.slices[0].stage_ns[0].record(1);
        assert!(!a.deterministic_eq(&b));
        // Overload gauges are deterministic and must match.
        let mut d = sample();
        d.slices[0].mailbox_backlog += 1;
        assert!(!a.deterministic_eq(&d));
        let mut e = sample();
        e.slices[0].limiter_tokens += 1;
        assert!(!a.deterministic_eq(&e));
        let mut f = sample();
        f.slices[0].ctrl.sig_shed_tau += 1;
        assert!(!a.deterministic_eq(&f));
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let snap = sample();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert!(back.deterministic_eq(&snap));
        assert!(MetricsSnapshot::from_json("not json").is_err());
    }

    #[test]
    fn json_with_retired_fields_still_parses() {
        // Snapshots written before a field was removed carry it still.
        let snap = sample();
        let json = snap.to_json();
        let older = format!("{},\"retired\":[60,40]}}", &json[..json.len() - 1]);
        assert_eq!(MetricsSnapshot::from_json(&older).unwrap(), snap);
    }

    #[test]
    fn conservation_and_totals() {
        let mut snap = sample();
        assert!(snap.conservation_holds());
        assert_eq!(snap.data_totals().rx, 100);
        assert_eq!(snap.data_totals().drops_total(), 10);
        snap.slices[0].data.rx += 1;
        assert!(!snap.conservation_holds());
    }

    #[test]
    fn deterministic_eq_ignores_latency_values() {
        let a = sample();
        let mut b = sample();
        // Same population size, different measured values.
        b.slices[0].pipeline_ns = LatencyHistogram::new();
        for i in 1..=90u64 {
            b.slices[0].pipeline_ns.record(i * 999);
        }
        assert!(a.deterministic_eq(&b));
        assert_ne!(a, b);
        // Different counter values are not deterministic-equal.
        b.slices[0].data.forwarded += 1;
        assert!(!a.deterministic_eq(&b));
        // Wire stats are deterministic and must match too.
        let mut c = sample();
        c.wires[0].dropped += 1;
        assert!(!a.deterministic_eq(&c));
    }

    #[test]
    fn ring_gauge_occupancy() {
        let g = RingGauge { name: "x".into(), depth: 512, capacity: 1024 };
        assert!((g.occupancy() - 0.5).abs() < 1e-9);
        let z = RingGauge { name: "y".into(), depth: 0, capacity: 0 };
        assert_eq!(z.occupancy(), 0.0);
    }
}
