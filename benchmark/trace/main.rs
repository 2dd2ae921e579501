// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…), as in the repo.
#![allow(clippy::inconsistent_digit_grouping)]

//! Traced binary: the per-layer waterfall of one workload.
//!
//! The workload code is the end-to-end binary's; what changes is the port it
//! drives. A layer's self time is its call time minus the calls it covers,
//! and it is measured from outside: the identical seeded input is replayed
//! into the next layer down on a twin node (levels A node → B slice →
//! C planes → D planes with stage timers), the twins taking turns so that
//! all of them meet the same interference, each read through the same
//! quiet-floor windows. Leaves are probed stand-alone
//! over the same packet and message streams. This is the only target that
//! reaches below `PepcNode`, one file per layer.

mod alloc;
mod ctrl;
mod data;
mod fabric;
mod net;
mod node;
mod overload;
mod pcef;
mod proxy;
mod qos;
mod seqlock;
mod sigproto;
mod slice;
mod spans;
mod stream;
mod tables;
mod telemetry;

use pepc_benchmark::cli;
use pepc_benchmark::driver::{Driver, Meters, BURST, IMSI_BASE, PKT_WINDOW};
use pepc_benchmark::enb::LEGS;
use pepc_benchmark::report::{Metric, Report};
use pepc_benchmark::sut::{DataPort, SigPort};
use pepc_benchmark::workloads::{
    backends_for, data_chunk, empty_node_block, empty_node_warm_up, mixed_chunk, set_up, sig_chunk, warm_up, Plane,
    Shape, Spec,
};
use pepc_telemetry::{LatencyHistogram, MetricsSnapshot, SliceSnapshot};
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Windows of data bursts a level runs before the next level takes its
/// turn, and how many of them only re-warm the caches the others evicted.
const CHUNK_WINDOWS: usize = 16;
const REWARM_WINDOWS: usize = 2;

/// (ns per packet, ns per message) quiet floors of a measured driver.
fn floors(m: &mut Meters) -> (f64, f64) {
    (m.pkt.floor().floor / BURST as f64, m.sig_msg.floor().floor)
}

/// What a level's turn is made of.
#[derive(Clone, Copy)]
enum Kind {
    Data,
    Sig,
    Mixed,
}

/// One level's turn at the input: `CHUNK_WINDOWS` windows of data bursts, or
/// the interleaved lifecycles that offer as many, the first `REWARM_WINDOWS`
/// of them unrecorded; or two procedure windows of lifecycles.
/// `rewarmed` runs between the unrecorded and the recorded part.
fn turn<P: DataPort + SigPort>(d: &mut Driver, p: &mut P, kind: Kind, spec: &Spec, rewarmed: impl FnOnce(&mut P)) {
    let mixed_per_window = PKT_WINDOW.div_ceil(LEGS.len());
    let (rewarm, recorded) = match kind {
        Kind::Data => (REWARM_WINDOWS, CHUNK_WINDOWS - REWARM_WINDOWS),
        Kind::Sig => (0, 2 * spec.proc_window),
        Kind::Mixed => (REWARM_WINDOWS * mixed_per_window, (CHUNK_WINDOWS - REWARM_WINDOWS) * mixed_per_window),
    };
    let step = |d: &mut Driver, p: &mut P| match kind {
        Kind::Data => data_chunk(d, p),
        Kind::Sig => sig_chunk(d, p),
        Kind::Mixed => mixed_chunk(d, p),
    };
    d.record = false;
    (0..rewarm).for_each(|_| step(d, p));
    rewarmed(p);
    d.record = true;
    (0..recorded).for_each(|_| step(d, p));
}

/// One measured empty-node block through `p`; returns what it metered.
fn empty_node_pass(d: &mut Driver, p: &mut impl SigPort, spec: &Spec) -> Meters {
    empty_node_block(d, p);
    std::mem::replace(&mut d.meters, Meters::new(spec.proc_window))
}

/// The node's own counters, summed over slices. Taken after the fixed-work
/// warm-up, so they repeat exactly for a seed.
fn counts(snap: &MetricsSnapshot, r: &mut Report) {
    type Counter = fn(&SliceSnapshot) -> u64;
    let sum = |f: Counter| snap.slices.iter().map(f).sum::<u64>() as f64;
    let mut delay = LatencyHistogram::new();
    for s in &snap.slices {
        delay.merge(&s.update_delay_ns);
    }
    r.push(Metric::plain("slice.update_delay_ns", "ns", delay.quantile_ns(0.5) as f64));
    let counters: [(&str, Counter); 15] = [
        ("data.updates_applied", |s| s.data.updates_applied),
        ("data.rx", |s| s.data.rx),
        ("data.forwarded", |s| s.data.forwarded),
        ("data.drops.unknown_user", |s| s.data.drop_unknown_user),
        ("data.drops.gate", |s| s.data.drop_gate),
        ("data.drops.qos", |s| s.data.drop_qos),
        ("data.drops.malformed", |s| s.data.drop_malformed),
        ("data.drops.failover", |s| s.data.drop_failover),
        ("data.drops.idle_overflow", |s| s.data.drop_idle_overflow),
        ("data.drops.idle_expired", |s| s.data.drop_idle_expired),
        ("data.drops.idle_uplink", |s| s.data.drop_idle_uplink),
        ("ctrl.s1ap_rx", |s| s.ctrl.s1ap_rx),
        ("ctrl.sig_deferred", |s| s.ctrl.sig_deferred),
        ("ctrl.sig_dropped", |s| s.ctrl.sig_dropped),
        ("ctrl.proc_aborted", |s| s.ctrl.proc_aborted),
    ];
    for (name, counter) in counters {
        r.push(Metric::plain(name, "count", sum(counter)));
    }
    let (started, completed) = (sum(|s| s.ctrl.proc_started), sum(|s| s.ctrl.proc_completed));
    r.push(Metric::plain("ctrl.proc_completion_ratio", "ratio", completed / started.max(1.0)));
}

fn trace(spec: &'static Spec, seed: u64, seconds: f64, out_dir: &str) -> Result<Report, String> {
    let backends = backends_for(spec);
    let mut r = Report::new(spec.name, seed);

    // Four twins, same seed: A is driven at the node (untraced and traced
    // turns alternate on it), B at its slices, C and D at their planes.
    // A `SigThenData` workload measures its lifecycles on each twin's empty
    // node, inside set-up: level by level, a second or so apart.
    let mut ta = node::NodeTrace::new(spec.proc_window);
    let mut tb = slice::SliceTrace::new();
    let mut tc = data::PlaneTrace::new(false);
    let mut td = data::PlaneTrace::new(true);
    let mut untraced = Meters::new(spec.proc_window);
    let (mut sig_a, mut sig_b, mut sig_c) =
        (Meters::new(spec.proc_window), Meters::new(spec.proc_window), Meters::new(spec.proc_window));
    let mut a = set_up(spec, seed, &backends, false, &mut |sut, d| {
        empty_node_warm_up(d, sut, spec);
        untraced = empty_node_pass(d, sut, spec);
        sig_a = empty_node_pass(d, &mut node::NodePort { node: sut.node(), t: &mut ta }, spec);
        Ok(())
    })?;
    let mut b = set_up(spec, seed, &backends, false, &mut |sut, d| {
        let mut port = slice::SlicePort { node: sut.node(), t: &mut tb };
        empty_node_warm_up(d, &mut port, spec);
        sig_b = empty_node_pass(d, &mut port, spec);
        Ok(())
    })?;
    let mut c = set_up(spec, seed, &backends, false, &mut |sut, d| {
        let mut port = data::PlanePort { node: sut.node(), t: &mut tc };
        empty_node_warm_up(d, &mut port, spec);
        sig_c = empty_node_pass(d, &mut port, spec);
        Ok(())
    })?;
    let mut d = set_up(spec, seed, &backends, true, &mut |_, _| Ok(()))?;
    warm_up(&mut a.driver, &mut a.sut, spec);
    let after_warm_up = a.sut.snapshot();
    warm_up(&mut b.driver, &mut slice::SlicePort { node: b.sut.node(), t: &mut tb }, spec);
    warm_up(&mut c.driver, &mut data::PlanePort { node: c.sut.node(), t: &mut tc }, spec);
    warm_up(&mut d.driver, &mut data::PlanePort { node: d.sut.node(), t: &mut td }, spec);

    // The levels take turns at the same input, so every level's windows are
    // spread over the same seconds and meet the same interference.
    let total = Duration::from_secs_f64(seconds);
    let kinds: &[Kind] = match spec.shape {
        Shape::Sliced => &[Kind::Data, Kind::Sig],
        Shape::Interleaved => &[Kind::Mixed],
        Shape::SigThenData => &[Kind::Data],
    };
    if spec.shape == Shape::SigThenData {
        // The populated drivers continue the signaling meters of the
        // empty-node blocks.
        std::mem::swap(&mut a.driver.meters, &mut sig_a);
        std::mem::swap(&mut b.driver.meters, &mut sig_b);
        std::mem::swap(&mut c.driver.meters, &mut sig_c);
    }
    let t0 = Instant::now();
    while t0.elapsed() < total {
        for &kind in kinds {
            std::mem::swap(&mut a.driver.meters, &mut untraced);
            turn(&mut a.driver, &mut a.sut, kind, spec, |_| ());
            std::mem::swap(&mut a.driver.meters, &mut untraced);
            a.driver.time_gen = true;
            turn(&mut a.driver, &mut node::NodePort { node: a.sut.node(), t: &mut ta }, kind, spec, |_| ());
            a.driver.time_gen = false;
            turn(&mut b.driver, &mut slice::SlicePort { node: b.sut.node(), t: &mut tb }, kind, spec, |_| ());
            turn(&mut c.driver, &mut data::PlanePort { node: c.sut.node(), t: &mut tc }, kind, spec, |_| ());
            if !matches!(kind, Kind::Sig) {
                turn(&mut d.driver, &mut data::PlanePort { node: d.sut.node(), t: &mut td }, kind, spec, |p| {
                    if let Some(s) = p.t.stages.as_mut() {
                        s.sample(p.node, false);
                    }
                });
            }
        }
    }
    for s in [&a, &b, &c, &d] {
        s.driver.verify(&s.sut)?;
        r.attempted += s.driver.offered + s.driver.legs_sent;
        r.failed += (s.driver.offered - s.driver.forwarded) + s.driver.legs_failed;
    }

    let (un_pkt, un_sig) = floors(&mut untraced);
    let (a_pkt, a_sig) = floors(&mut a.driver.meters);
    let (b_pkt, b_sig) = floors(&mut b.driver.meters);
    let (c_pkt, c_sig) = floors(&mut c.driver.meters);
    let (a_dec, a_enc) = (ta.decode.floor().floor, ta.encode.floor().floor);
    let legs: Vec<f64> = a.driver.meters.per_leg.iter_mut().map(|w| w.floor().floor).collect();
    let gen_ns = a.driver.gen_ns as f64 / a.driver.gen_packets.max(1) as f64;
    let d_pkt = floors(&mut d.driver.meters).0;
    let [parse_ns, lookup_ns, enforce_ns] = td.stages.as_ref().expect("level D samples stages").floors();
    drop((b, c, d));

    // Leaf probes over the same streams, against the live node where the
    // leaf is the node's own state.
    let residents = std::mem::take(&mut a.driver.residents);
    let mut stream = stream::Stream::new(&residents, seed);
    let node = a.sut.node();
    let cfg = node.config().clone();
    let handles = tables::Handles::of(node, &residents);
    let snapshot_ns = telemetry::snapshot_ns(node);
    let (hit_ratio, table_bytes) = data::table_stats(node);
    let slab_bytes = handles.bytes();
    let resolve_ns = tables::resolve_ns(&mut stream, &handles);
    let seqlock_ns = seqlock::read_ns(&mut stream, &handles);
    let get_ns = tables::get_ns(&mut stream, node, &residents, &handles);
    drop(handles);
    drop(a);
    let classify_ns = net::classify_ns(&mut stream);
    let gtp_ns = net::gtp_ns(&mut stream);
    let pcef_ns = pcef::classify_ns(&mut stream, backends.pcrf());
    let qos_ns = qos::admit_ns(&mut stream, residents.len(), 100_000);
    drop(stream);
    let (auth_ns, ul_ns, rules_ns) =
        proxy::exchange_ns(&backends, cfg.gw_ip, cfg.plmn, IMSI_BASE + residents.len() as u64);
    let nas_ns = sigproto::nas_codec_ns();
    let admit_ns = overload::admit_ns(cfg.slice.overload);
    let (allocs_per_pkt, allocs_per_msg) = (ta.allocs_per_pkt(), tc.allocs_per_msg());

    // Self times: each layer's call time minus the calls it covers.
    let steer_ns = a_pkt - b_pkt;
    let sync_ns = b_pkt - c_pkt;
    // The stages come from level D, the plane total from level C, which runs
    // without the stage timers. The node hands a slice runs of about two
    // packets, so the timers' own clock reads (D − C, in the note below) are
    // amortized over very few packets, land inside the stages, and can push
    // this remainder below zero.
    let other_ns = c_pkt - (parse_ns + lookup_ns + enforce_ns);
    let route_ns = (a_sig - a_dec - a_enc) - b_sig;
    let flush_ns = b_sig - c_sig;
    let per_msg = |per_lifecycle: f64| per_lifecycle / LEGS.len() as f64;
    let backend_ns = per_msg(auth_ns + ul_ns + rules_ns);
    let ctrl_ns = c_sig - backend_ns - nas_ns - admit_ns;
    let data_self = steer_ns + sync_ns + parse_ns + lookup_ns + enforce_ns + other_ns;
    let sig_self = a_dec + a_enc + route_ns + flush_ns + ctrl_ns + backend_ns + nas_ns + admit_ns;
    // The plane the workload is about carries the two reconciliation ratios.
    let (end_to_end, traced, self_sum) = match spec.plane {
        Plane::Signaling => (un_sig, a_sig, sig_self),
        Plane::Data => (un_pkt, a_pkt, data_self),
    };

    r.note(format!(
        "per packet: untraced {un_pkt:.1} ns, node {a_pkt:.1}, slice {b_pkt:.1}, data plane {c_pkt:.1} ({d_pkt:.1} with stage timers); \
         per message: untraced {un_sig:.0} ns, node {a_sig:.0}, slice {b_sig:.0}, control plane {c_sig:.0}"
    ));
    // Demoted from the end-to-end list: no bound could hold it.
    r.push(Metric::floor("attach_p99_us", "us", untraced.attach_p99.floor(), 1e-3));
    r.push(Metric::plain("workload.gen_ns", "ns", gen_ns));
    r.push(Metric::plain("node.steer_ns", "ns", steer_ns));
    r.push(Metric::plain("node.allocs_per_pkt", "count", allocs_per_pkt));
    r.push(Metric::plain("slice.sync_ns", "ns", sync_ns));
    r.push(Metric::plain("data.parse_ns", "ns", parse_ns));
    r.push(Metric::plain("data.lookup_ns", "ns", lookup_ns));
    r.push(Metric::plain("data.enforce_ns", "ns", enforce_ns));
    r.push(Metric::plain("data.other_ns", "ns", other_ns));
    r.push(Metric::plain("net.classify_ns", "ns", classify_ns));
    r.push(Metric::plain("net.gtp_ns", "ns", gtp_ns));
    r.push(Metric::plain("pcef.classify_ns", "ns", pcef_ns));
    r.push(Metric::plain("qos.admit_ns", "ns", qos_ns));
    r.push(Metric::plain("seqlock.read_ns", "ns", seqlock_ns));
    r.push(Metric::plain("twolevel.get_ns", "ns", get_ns));
    r.push(Metric::plain("slab.resolve_ns", "ns", resolve_ns));
    r.push(Metric::plain("twolevel.primary_hit_ratio", "ratio", hit_ratio));
    r.push(Metric::plain("data.table_bytes", "B", table_bytes as f64));
    r.push(Metric::plain("slab.bytes", "B", slab_bytes as f64));
    r.push(Metric::plain("telemetry.record_ns", "ns", telemetry::record_ns()));
    r.push(Metric::plain("telemetry.snapshot_ns", "ns", snapshot_ns));
    r.push(Metric::plain("fabric.ring_hop_ns", "ns", fabric::ring_hop_ns()));
    for (leg, ns) in LEGS.iter().zip(legs) {
        r.push(Metric::plain(format!("node.s1ap_ns.{}", leg.name()), "ns", ns));
    }
    r.push(Metric::plain("node.route_ns", "ns", route_ns));
    r.push(Metric::plain("slice.flush_ns", "ns", flush_ns));
    r.push(Metric::plain("ctrl.handle_ns", "ns", ctrl_ns));
    r.push(Metric::plain("ctrl.allocs_per_msg", "count", allocs_per_msg));
    r.push(Metric::plain("sigproto.s1ap_decode_ns", "ns", a_dec));
    r.push(Metric::plain("sigproto.s1ap_encode_ns", "ns", a_enc));
    r.push(Metric::plain("sigproto.nas_codec_ns", "ns", nas_ns));
    r.push(Metric::plain("sigproto.sctp_rtt_ns", "ns", sigproto::sctp_rtt_ns()));
    r.push(Metric::plain("proxy.auth_ns", "ns", auth_ns));
    r.push(Metric::plain("proxy.update_location_ns", "ns", ul_ns));
    r.push(Metric::plain("proxy.fetch_rules_ns", "ns", rules_ns));
    r.push(Metric::plain("overload.admit_ns", "ns", admit_ns));
    counts(&after_warm_up, &mut r);
    r.push(Metric::plain("trace_overhead_ratio", "ratio", traced / end_to_end));
    r.push(Metric::plain("residual_ratio", "ratio", (end_to_end - self_sum).abs() / end_to_end));

    let path = std::path::Path::new(out_dir).join(format!("spans-{}-{seed}.csv", spec.name));
    let logs = [&ta.spans, &tb.spans, &tc.spans, &td.spans];
    spans::write_csv(&path, &logs).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let dropped: u64 = logs.iter().map(|l| l.dropped).sum();
    r.note(format!("spans in {} ({dropped} beyond the cap not kept)", path.display()));
    Ok(r)
}

fn main() -> std::process::ExitCode {
    match cli::parse(std::env::args()) {
        Ok(args) => cli::run(&args, |spec| trace(spec, args.seed, args.seconds, &args.out_dir)),
        Err(e) => {
            eprintln!("{e}");
            std::process::ExitCode::FAILURE
        }
    }
}
