//! The four workloads and the end-to-end run.
//!
//! Every workload measures both planes, so every end-to-end metric exists on
//! every workload. `data_hot`, `data_cold` and `sig_procs` alternate slices
//! of pure data bursts with slices of pure UE lifecycles against the same
//! populated node, a tenth of a second or so each, so that both planes'
//! windows are spread over the whole run and a noisy spell of a few seconds
//! cannot cover all of either; `mixed` interleaves one S1AP message with
//! every data burst; `data_cold` runs its lifecycles on the node *before* its
//! million users are installed (see [`Shape::SigThenData`]). What differs is
//! the population, how it got there, and whether the two planes work at once.

use crate::driver::{
    install, plan_residents, Driver, HandoverOn, Install, Meters, BURST, CHURN_POOL, IMSI_BASE, PKT_WINDOW,
};
use crate::enb::LEGS;
use crate::report::{Metric, Report};
use crate::stats::Floor;
use crate::sut::{Backends, DataPort, SigPort, Sut};
use std::time::{Duration, Instant};

/// How a run spends its measured seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Slices of data bursts alternate with slices of lifecycles of equal
    /// duration; no burst shares its slice with a message.
    Sliced,
    /// One S1AP message before every data burst, start to end.
    Interleaved,
    /// A fixed block of lifecycles on the freshly built, still empty node,
    /// then the population, then data bursts for all the measured seconds.
    /// With a million residents one lifecycle costs the node 60–130 ms of
    /// DRAM-bound scanning, whose quiet floor moved by 57 % when the guest's
    /// neighbours changed what they were doing — no bound can hold that.
    /// Measured on the empty node, the same procedures are the
    /// population-free baseline the populated workloads' costs stand on.
    SigThenData,
}

/// The plane a workload is about: the one its traced run reconciles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    Data,
    Signaling,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub residents: usize,
    pub install: Install,
    pub shape: Shape,
    pub handover_on: HandoverOn,
    pub plane: Plane,
    /// Lifecycles per procedure-latency window.
    pub proc_window: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "data_hot",
        residents: 10_000,
        install: Install::Synthetic,
        shape: Shape::Sliced,
        handover_on: HandoverOn::Churn,
        plane: Plane::Data,
        proc_window: 8,
    },
    Spec {
        name: "data_cold",
        residents: 1_000_000,
        install: Install::Synthetic,
        shape: Shape::SigThenData,
        handover_on: HandoverOn::Churn,
        plane: Plane::Data,
        proc_window: 8,
    },
    Spec {
        name: "sig_procs",
        residents: 20_000,
        install: Install::S1ap,
        shape: Shape::Sliced,
        handover_on: HandoverOn::Churn,
        plane: Plane::Signaling,
        proc_window: 8,
    },
    Spec {
        name: "mixed",
        residents: 20_000,
        install: Install::S1ap,
        shape: Shape::Interleaved,
        handover_on: HandoverOn::Resident,
        plane: Plane::Data,
        proc_window: 8,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Set-ups come in batches, one per measured node (see [`NODES`]), so a noisy
/// spell of a few seconds cannot cover them all. A batch repeats the set-up
/// up to this many times while it fits the time budget (cheap populations get
/// dozens of samples a run; a heavy one gets one per node). `setup_s` is their
/// quiet floor like any other timing.
const SETUPS_PER_BATCH: usize = 32;
const BATCH_BUDGET: Duration = Duration::from_millis(1500);
/// Warm-up is fixed work — this many bursts and this many procedure windows
/// of lifecycles — so the node's counters after it repeat exactly for a seed.
pub const WARM_BURSTS: usize = 8192;
pub const WARM_PROC_WINDOWS: usize = 4;
/// Data windows per slice of a sliced run.
pub const SLICE_WINDOWS: usize = 64;
/// Lifecycles a `SigThenData` workload measures on each empty node. Fixed
/// work, so the little they leave behind is the same on every node.
pub const EMPTY_NODE_LIFECYCLES: usize = 20_000;

/// Resident set size of this process, from `/proc/self/status`.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| l.strip_prefix("VmRSS:")?.split_whitespace().next()?.parse::<u64>().ok());
    kb.unwrap_or(0) * 1024
}

pub fn backends_for(spec: &Spec) -> Backends {
    Backends::provision(IMSI_BASE, spec.residents as u64 + CHURN_POOL)
}

/// A populated node and the driver that will load it.
pub struct Session {
    pub sut: Sut,
    pub driver: Driver,
    pub setup_s: f64,
    /// RSS growth over build + install.
    pub state_bytes: u64,
}

/// Build a node, install the workload's population, publish it to the data
/// plane and prove it serves: one probe burst over the residents must be
/// forwarded before the clock stops. A `SigThenData` workload hands the
/// built, still empty node and a driver for it to `on_empty` first; the time
/// spent there is not set-up time.
pub fn set_up(
    spec: &Spec,
    seed: u64,
    backends: &Backends,
    stage_timing: bool,
    on_empty: &mut dyn FnMut(&mut Sut, &mut Driver) -> Result<(), String>,
) -> Result<Session, String> {
    let mut residents = plan_residents(spec.residents, seed);
    let rss0 = rss_bytes();
    let t0 = Instant::now();
    let mut sut = Sut::build(backends, spec.residents, stage_timing);
    let mut built = t0.elapsed();
    let mut state_bytes = rss_bytes().saturating_sub(rss0);
    let mut earlier = None;
    if spec.shape == Shape::SigThenData {
        let mut driver = Driver::new(Vec::new(), seed, spec.handover_on, spec.proc_window);
        on_empty(&mut sut, &mut driver)?;
        driver.verify(&sut)?;
        earlier = Some(driver);
    }
    let rss1 = rss_bytes();
    let t1 = Instant::now();
    let legs = install(&mut sut, spec.install, &mut residents)?;
    sut.publish();
    built += t1.elapsed();
    state_bytes += rss_bytes().saturating_sub(rss1);
    let mut driver = Driver::new(residents, seed, spec.handover_on, spec.proc_window);
    driver.legs_sent = legs;
    if let Some(earlier) = earlier {
        driver.adopt(earlier);
    }
    let t2 = Instant::now();
    driver.data_burst(&mut sut);
    let setup_s = (built + t2.elapsed()).as_secs_f64();
    if driver.forwarded != driver.offered {
        return Err("probe burst after set-up was not forwarded".into());
    }
    Ok(Session { sut, driver, setup_s, state_bytes })
}

/// The measured block of a `SigThenData` workload on its empty node.
pub fn empty_node_block(d: &mut Driver, p: &mut impl SigPort) {
    (0..EMPTY_NODE_LIFECYCLES).for_each(|_| sig_chunk(d, p));
}

/// Fixed-work warm-up of that block; its samples are dropped.
pub fn empty_node_warm_up(d: &mut Driver, p: &mut impl SigPort, spec: &Spec) {
    (0..WARM_PROC_WINDOWS * spec.proc_window).for_each(|_| sig_chunk(d, p));
    d.meters = Meters::new(spec.proc_window);
}

/// One batch of set-ups; their times go to `times`. The first node is the
/// one kept and loaded (a process's first set-up is also the only one that
/// shows the state's footprint: later ones reuse pages given back to the
/// allocator); more follow, and are dropped, while they fit the budget.
fn setup_batch(
    spec: &Spec,
    seed: u64,
    backends: &Backends,
    times: &mut Vec<f64>,
    on_empty: &mut dyn FnMut(&mut Sut, &mut Driver) -> Result<(), String>,
) -> Result<Session, String> {
    let t0 = Instant::now();
    let kept = set_up(spec, seed, backends, false, on_empty)?;
    times.push(kept.setup_s);
    let cost = Duration::from_secs_f64(kept.setup_s);
    for _ in 1..SETUPS_PER_BATCH {
        if t0.elapsed() + cost > BATCH_BUDGET {
            break;
        }
        times.push(set_up(spec, seed, backends, false, &mut |_, _| Ok(()))?.setup_s);
    }
    Ok(kept)
}

fn run_for(d: Duration, mut step: impl FnMut()) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        step();
    }
}

/// One window's worth of data bursts / one whole lifecycle / one
/// interleaved lifecycle: the units the phases loop over between clock reads.
pub fn data_chunk(d: &mut Driver, p: &mut impl DataPort) {
    for _ in 0..PKT_WINDOW {
        d.data_burst(p);
    }
}

pub fn sig_chunk(d: &mut Driver, p: &mut impl SigPort) {
    d.sig_step(p);
    d.finish_lifecycle(p);
}

pub fn mixed_chunk(d: &mut Driver, p: &mut (impl DataPort + SigPort)) {
    for _ in 0..LEGS.len() {
        d.sig_step(p);
        d.data_burst(p);
    }
}

/// Fixed-work warm-up in the workload's own shape; its samples are dropped.
pub fn warm_up(d: &mut Driver, p: &mut (impl DataPort + SigPort), spec: &Spec) {
    let lifecycles = WARM_PROC_WINDOWS * spec.proc_window;
    match spec.shape {
        Shape::Interleaved => (0..lifecycles.max(WARM_BURSTS / LEGS.len())).for_each(|_| mixed_chunk(d, p)),
        Shape::Sliced => {
            (0..WARM_BURSTS / PKT_WINDOW).for_each(|_| data_chunk(d, p));
            (0..lifecycles).for_each(|_| sig_chunk(d, p));
        }
        Shape::SigThenData => (0..WARM_BURSTS / PKT_WINDOW).for_each(|_| data_chunk(d, p)),
    }
    d.meters = Meters::new(spec.proc_window);
}

/// Spend `seconds` on the workload's phases.
pub fn measure(d: &mut Driver, p: &mut (impl DataPort + SigPort), spec: &Spec, seconds: f64) {
    let total = Duration::from_secs_f64(seconds);
    match spec.shape {
        Shape::Interleaved => run_for(total, || mixed_chunk(d, p)),
        Shape::SigThenData => run_for(total, || data_chunk(d, p)),
        Shape::Sliced => run_for(total, || {
            let t0 = Instant::now();
            (0..SLICE_WINDOWS).for_each(|_| data_chunk(d, p));
            // Whole lifecycles for as long as the data slice took.
            let data_slice = t0.elapsed();
            let t1 = Instant::now();
            sig_chunk(d, p);
            while t1.elapsed() < data_slice {
                sig_chunk(d, p);
            }
        }),
    }
}

/// The timing metrics of a measured driver (all but `setup_s` and
/// `state_bytes_per_user`, which the caller owns).
pub fn timing_metrics(m: &mut Meters, r: &mut Report) {
    r.push(Metric::floor("pkt_ns", "ns", m.pkt.floor(), 1.0 / BURST as f64));
    r.push(Metric::floor("burst_p99_us", "us", m.burst_p99.floor(), 1e-3));
    r.push(Metric::floor("sig_msg_ns", "ns", m.sig_msg.floor(), 1.0));
    r.push(Metric::floor("attach_us", "us", m.attach.floor(), 1e-3));
    r.push(Metric::floor("handover_us", "us", m.handover.floor(), 1e-3));
    r.push(Metric::floor("idle_cycle_us", "us", m.idle_cycle.floor(), 1e-3));
    r.push(Metric::floor("detach_us", "us", m.detach.floor(), 1e-3));
}

/// Nodes a run measures on, one after the other. Each gets its own batch of
/// set-ups, its own warm-up and an equal share of the measured seconds; their
/// windows are pooled. Two nodes at two times meet two placements in physical
/// memory and two spells of interference, and the floor keeps the quieter.
pub const NODES: usize = 2;

/// The end-to-end run of one workload: per node a batch of set-ups (the first
/// one is kept and loaded), warm-up, the measured phases, the output checks.
pub fn run_end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let backends = backends_for(spec);
    let mut r = Report::new(spec.name, seed);
    let mut setups = Vec::new();
    let mut meters = Meters::new(spec.proc_window);
    let mut first_state_bytes = None;
    let (mut offered, mut checked, mut lifecycles, mut legs) = (0, 0, 0, 0);
    for _ in 0..NODES {
        let mut on_empty = |sut: &mut Sut, d: &mut Driver| {
            empty_node_warm_up(d, sut, spec);
            std::mem::swap(&mut d.meters, &mut meters);
            empty_node_block(d, sut);
            std::mem::swap(&mut d.meters, &mut meters);
            Ok(())
        };
        let Session { mut sut, mut driver, state_bytes, .. } =
            setup_batch(spec, seed, &backends, &mut setups, &mut on_empty)?;
        first_state_bytes.get_or_insert(state_bytes);
        warm_up(&mut driver, &mut sut, spec);
        driver.meters = meters;
        measure(&mut driver, &mut sut, spec, seconds / NODES as f64);
        driver.verify(&sut)?;
        meters = driver.meters;
        r.attempted += driver.offered + driver.legs_sent;
        r.failed += (driver.offered - driver.forwarded) + driver.legs_failed;
        offered += driver.offered;
        checked += driver.checked;
        lifecycles += driver.lifecycles;
        legs += driver.legs_sent;
    }
    r.note(format!(
        "{offered} packets offered, {checked} checked byte for byte; {lifecycles} lifecycles, {legs} S1AP legs; \
         {} set-ups, {NODES} nodes measured",
        setups.len()
    ));
    let state_bytes = first_state_bytes.expect("NODES > 0");
    r.push(Metric::floor("setup_s", "s", Floor::of(setups), 1.0));
    r.push(Metric::plain("state_bytes_per_user", "B", state_bytes as f64 / spec.residents as f64));
    timing_metrics(&mut meters, &mut r);
    Ok(r)
}
