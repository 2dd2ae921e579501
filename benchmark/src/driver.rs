//! The load driver: one closed loop, one client, one thread. It installs a
//! workload's population, offers Table-2 data bursts and UE-lifecycle S1AP
//! messages to a port, checks what comes back, and keeps the fixed-work
//! windows the metrics are read from. End-to-end and traced runs share it;
//! they differ only in the port they hand it.

use crate::enb::{Leg, Ue, ATTACH, DETACH, ENBS, HANDOVER, IDLE_CYCLE, LEGS};
use crate::stats::{mean, median, p99, Rng, Windows};
use crate::sut::{ns_since, DataPort, SigPort, Sut};
use pepc_net::gtp::{decap_gtpu, GTPU_OVERHEAD};
use pepc_net::Mbuf;
use pepc_sigproto::s1ap::S1apPdu;
use pepc_workload::traffic::{TrafficGen, UserKeys};
use pepc_workload::Defaults;
use std::collections::HashMap;
use std::time::Instant;

/// Packets per burst (the paper's and the repo's batching default).
pub const BURST: usize = 32;
/// Bursts per per-packet-cost window (8 192 packets).
pub const PKT_WINDOW: usize = 256;
/// Bursts per burst-percentile window (10 samples beyond p99).
pub const BURST_WINDOW: usize = 1000;
/// Procedure windows per attach-percentile window.
pub const P99_WINDOWS: usize = 25;
/// One forwarded packet in this many is checked byte for byte.
pub const CHECK_EVERY: u64 = 1024;

/// First resident IMSI; churn IMSIs follow the residents.
pub const IMSI_BASE: u64 = 404_01_0000000001;
/// Fresh IMSIs available to lifecycles (a power of two; the order in which
/// they are used is a seeded affine permutation).
pub const CHURN_POOL: u64 = 1 << 18;

/// How a workload's residents get onto the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Install {
    /// `PepcNode::attach` + `CtrlEvent::S1Handover`: rule-less users.
    Synthetic,
    /// The full five-leg S1AP attach against the live HSS and PCRF: users
    /// carry PCRF rules, so their packets take the PCEF path.
    S1ap,
}

/// Where a lifecycle's S1 handover lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoverOn {
    /// The lifecycle's own (churn) UE.
    Churn,
    /// A seeded-random resident, which keeps receiving data — its downlink
    /// must leave with the new eNodeB's endpoint from the next burst on.
    Resident,
}

pub struct Driver {
    rng: Rng,
    pub residents: Vec<Ue>,
    by_teid: HashMap<u32, u32>,
    by_ip: HashMap<u32, u32>,
    /// `None` for a driver over an empty node, which offers no data.
    gen: Option<TrafficGen>,
    outs: Vec<Option<Mbuf>>,
    bursts: u64,
    /// Packets offered / forwarded and legs sent / failed, whole run.
    pub offered: u64,
    pub forwarded: u64,
    pub legs_sent: u64,
    pub legs_failed: u64,
    pub checked: u64,
    /// Time spent generating packets, when `time_gen` is set (traced runs).
    pub time_gen: bool,
    pub gen_ns: u64,
    pub gen_packets: u64,
    pub meters: Meters,
    /// False while a traced twin re-warms its caches: loads the system as
    /// usual but keeps the samples out of the meters.
    pub record: bool,

    handover_on: HandoverOn,
    churn: Ue,
    churn_no: u64,
    churn_mul: u64,
    churn_add: u64,
    /// Resident doing this lifecycle's handover (`HandoverOn::Resident`).
    ho_resident: usize,
    leg: usize,
    leg_ns: [u64; 12],
    wire_out: Vec<Vec<u8>>,
    pub lifecycles: u64,
    /// First failed output check, if any.
    pub error: Option<String>,
}

/// The fixed-work windows every timing metric is read from. All samples are
/// nanoseconds inside the system.
pub struct Meters {
    /// Per burst, mean per window → per-packet cost.
    pub pkt: Windows,
    /// Per burst, p99 per window.
    pub burst_p99: Windows,
    /// Per lifecycle: the summed legs of each procedure class.
    pub attach: Windows,
    pub attach_p99: Windows,
    pub handover: Windows,
    pub idle_cycle: Windows,
    pub detach: Windows,
    /// Per lifecycle: mean over its twelve messages.
    pub sig_msg: Windows,
    /// Per message, one meter per leg of [`LEGS`].
    pub per_leg: Vec<Windows>,
}

impl Meters {
    /// `proc_window` is the number of lifecycles per procedure window.
    pub fn new(proc_window: usize) -> Self {
        Meters {
            pkt: Windows::new(PKT_WINDOW, mean),
            burst_p99: Windows::new(BURST_WINDOW, p99),
            attach: Windows::new(proc_window, median),
            attach_p99: Windows::new(proc_window * P99_WINDOWS, p99),
            handover: Windows::new(proc_window, median),
            idle_cycle: Windows::new(proc_window, median),
            detach: Windows::new(proc_window, median),
            sig_msg: Windows::new(proc_window, mean),
            per_leg: (0..LEGS.len()).map(|_| Windows::new(proc_window, mean)).collect(),
        }
    }
}

/// The residents a workload will install, before any of them exists on a
/// node: seeded IMSI order, eNodeB ids and initial downlink endpoints. Built
/// outside the set-up timer so set-up time and RSS growth are the node's.
pub fn plan_residents(residents: usize, seed: u64) -> Vec<Ue> {
    let mut imsis: Vec<u64> = (0..residents as u64).map(|i| IMSI_BASE + i).collect();
    Rng::new(seed).shuffle(&mut imsis);
    imsis.iter().zip(1u32..).map(|(&imsi, enb_ue_id)| Ue::new(imsi, enb_ue_id)).collect()
}

/// Install `residents` on `sut`. Returns how many S1AP legs were sent.
pub fn install(sut: &mut Sut, how: Install, residents: &mut [Ue]) -> Result<u64, String> {
    match how {
        Install::Synthetic => {
            for ue in residents.iter_mut() {
                let keys = sut.attach_synthetic(ue.imsi, ue.enb_teid, ue.enb_ip);
                (ue.gw_teid, ue.ue_ip) = (keys.teid, keys.ue_ip);
            }
            Ok(0)
        }
        Install::S1ap => {
            let mut replies = Vec::new();
            for ue in residents.iter_mut() {
                for &leg in &LEGS[ATTACH] {
                    replies.clear();
                    sut.s1ap(ue.slice(), &ue.request(leg).encode(), &mut replies);
                    if !absorb_wire(ue, leg, &replies) {
                        return Err(format!("set-up attach of IMSI {} failed at {}", ue.imsi, leg.name()));
                    }
                }
            }
            Ok((residents.len() * ATTACH.len()) as u64)
        }
    }
}

/// The user-key vector handed to `TrafficGen`. Its user choice is a fixed
/// LCG over indices, so the seeded shuffle of the vector is what makes the
/// sequence of users depend on the seed.
pub fn traffic_keys(residents: &[Ue], seed: u64) -> Vec<UserKeys> {
    let mut keys: Vec<UserKeys> = residents.iter().map(|u| UserKeys { teid: u.gw_teid, ue_ip: u.ue_ip }).collect();
    Rng::new(seed ^ 0x7AB1E2).shuffle(&mut keys);
    keys
}

fn absorb_wire(ue: &mut Ue, leg: Leg, replies: &[Vec<u8>]) -> bool {
    let pdus: Result<Vec<S1apPdu>, _> = replies.iter().map(|b| S1apPdu::decode(b)).collect();
    pdus.is_ok_and(|p| ue.absorb(leg, &p))
}

impl Driver {
    /// A driver over installed `residents`. `proc_window` is the number of
    /// lifecycles per procedure-latency window.
    pub fn new(residents: Vec<Ue>, seed: u64, handover_on: HandoverOn, proc_window: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0xD1CE);
        let keys = traffic_keys(&residents, seed);
        let by_teid = residents.iter().zip(0u32..).map(|(u, i)| (u.gw_teid, i)).collect();
        let by_ip = residents.iter().zip(0u32..).map(|(u, i)| (u.ue_ip, i)).collect();
        let churn_mul = rng.next_u64() | 1;
        let churn_add = rng.next_u64();
        let mut d = Driver {
            rng,
            residents,
            by_teid,
            by_ip,
            gen: (!keys.is_empty()).then(|| TrafficGen::new(keys)),
            outs: Vec::with_capacity(BURST),
            bursts: 0,
            offered: 0,
            forwarded: 0,
            legs_sent: 0,
            legs_failed: 0,
            checked: 0,
            time_gen: false,
            gen_ns: 0,
            gen_packets: 0,
            meters: Meters::new(proc_window),
            record: true,
            handover_on,
            churn: Ue::default(),
            churn_no: 0,
            churn_mul,
            churn_add,
            ho_resident: 0,
            leg: 0,
            leg_ns: [0; 12],
            wire_out: Vec::new(),
            lifecycles: 0,
            error: None,
        };
        d.begin_lifecycle();
        d
    }

    /// Carry over what a driver that loaded this node before its population
    /// was installed has sent and seen.
    pub fn adopt(&mut self, earlier: Driver) {
        self.legs_sent += earlier.legs_sent;
        self.legs_failed += earlier.legs_failed;
        self.lifecycles += earlier.lifecycles;
        self.churn_no = earlier.churn_no;
        self.error = earlier.error;
    }

    fn fail(&mut self, what: String) {
        self.error.get_or_insert(what);
    }

    // -- data -----------------------------------------------------------------

    /// Offer one Table-2 burst and account for what comes back.
    pub fn data_burst(&mut self, port: &mut impl DataPort) {
        let t_gen = self.time_gen.then(Instant::now);
        let gen = self.gen.as_mut().expect("data bursts need residents");
        let mut burst = Vec::with_capacity(BURST);
        for _ in 0..BURST {
            burst.push(gen.next_packet(0));
        }
        if let Some(t) = t_gen {
            self.gen_ns += ns_since(t);
            self.gen_packets += BURST as u64;
        }
        // One packet per CHECK_EVERY is kept aside to compare with its output.
        let every = CHECK_EVERY / BURST as u64;
        let sample = self.bursts.is_multiple_of(every).then(|| {
            let pos = (self.bursts / every) as usize % BURST;
            (pos, burst[pos].clone())
        });
        self.bursts += 1;

        self.outs.clear();
        let ns = port.burst(burst, &mut self.outs);
        if self.record {
            self.meters.pkt.push(ns as f64);
            self.meters.burst_p99.push(ns as f64);
        }

        self.offered += BURST as u64;
        self.forwarded += self.outs.iter().flatten().count() as u64;
        if self.outs.len() != BURST {
            self.fail(format!("burst of {BURST} came back as {} verdicts", self.outs.len()));
        }
        if let Some((pos, input)) = sample {
            self.checked += 1;
            if let Err(e) = self.check_packet(&input, self.outs.get(pos).and_then(Option::as_ref)) {
                self.fail(e);
            }
        }
        if let Some(gen) = self.gen.as_mut() {
            for m in self.outs.drain(..).flatten() {
                gen.recycle(m);
            }
        }
    }

    /// Uplink must leave decapsulated to the inner IP packet, sourced from
    /// the user's address; downlink must leave as GTP-U from the gateway to
    /// the user's *current* eNodeB endpoint. Payloads must be untouched.
    fn check_packet(&self, input: &Mbuf, output: Option<&Mbuf>) -> Result<(), String> {
        let out = output.ok_or("sampled packet was not forwarded")?;
        let d = input.data();
        let be32 = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        let uplink = d.len() > GTPU_OVERHEAD && u16::from_be_bytes([d[22], d[23]]) == pepc_net::GTPU_PORT;
        if uplink {
            let teid = be32(&d[32..36]);
            let ue = &self.residents[*self.by_teid.get(&teid).ok_or("uplink TEID of no resident")? as usize];
            if out.data() != &d[GTPU_OVERHEAD..] {
                return Err(format!("uplink of TEID {teid:#x} not decapsulated to its inner packet"));
            }
            if be32(&out.data()[12..16]) != ue.ue_ip {
                return Err(format!("uplink of TEID {teid:#x} does not carry the user's address"));
            }
        } else {
            let dst = be32(&d[16..20]);
            let ue = &self.residents[*self.by_ip.get(&dst).ok_or("downlink address of no resident")? as usize];
            let mut o = out.clone();
            let (gtp, outer) = decap_gtpu(&mut o).map_err(|e| format!("downlink to {dst:#x} not GTP-U: {e:?}"))?;
            if (gtp.teid, outer.dst, outer.src) != (ue.enb_teid, ue.enb_ip, Defaults::GW_IP) {
                return Err(format!(
                    "downlink to {dst:#x} left for TEID {:#x} at {:#x}, want {:#x} at {:#x}",
                    gtp.teid, outer.dst, ue.enb_teid, ue.enb_ip
                ));
            }
            if o.data() != d {
                return Err(format!("downlink to {dst:#x} payload altered"));
            }
        }
        Ok(())
    }

    // -- signaling --------------------------------------------------------------

    fn begin_lifecycle(&mut self) {
        let n = self.churn_no.wrapping_mul(self.churn_mul).wrapping_add(self.churn_add) & (CHURN_POOL - 1);
        let imsi = IMSI_BASE + self.residents.len() as u64 + n;
        self.churn = Ue::new(imsi, 0x4000_0000 + (self.churn_no as u32 & 0x3FFF_FFFF));
        self.churn_no += 1;
        self.leg = 0;
        let hop = 1 + self.rng.below(ENBS as usize - 1) as u32;
        match self.handover_on {
            HandoverOn::Churn => self.churn.target_enb = hop,
            HandoverOn::Resident => {
                self.ho_resident = self.rng.below(self.residents.len());
                let r = &mut self.residents[self.ho_resident];
                r.target_enb = (r.enb() + hop) % ENBS;
            }
        }
    }

    /// Send the lifecycle's next uplink message and check its answer.
    pub fn sig_step(&mut self, port: &mut impl SigPort) {
        let leg = LEGS[self.leg];
        let on_resident = self.handover_on == HandoverOn::Resident && HANDOVER.contains(&self.leg);
        let ue = if on_resident { &mut self.residents[self.ho_resident] } else { &mut self.churn };
        let wire = ue.request(leg).encode();
        self.wire_out.clear();
        let ns = port.s1ap(ue.slice(), &wire, &mut self.wire_out);
        let ok = absorb_wire(ue, leg, &self.wire_out);
        self.legs_sent += 1;
        if !ok {
            self.legs_failed += 1;
        }
        self.leg_ns[self.leg] = ns;
        if self.record {
            self.meters.per_leg[self.leg].push(ns as f64);
        }
        self.leg += 1;
        if self.leg == LEGS.len() {
            if self.record {
                let sum = |r: std::ops::Range<usize>| self.leg_ns[r].iter().sum::<u64>() as f64;
                let (a, h, i, d) = (sum(ATTACH), sum(HANDOVER), sum(IDLE_CYCLE), sum(DETACH));
                let m = &mut self.meters;
                m.attach.push(a);
                m.attach_p99.push(a);
                m.handover.push(h);
                m.idle_cycle.push(i);
                m.detach.push(d);
                m.sig_msg.push((a + h + i + d) / LEGS.len() as f64);
            }
            self.lifecycles += 1;
            self.begin_lifecycle();
        }
    }

    /// Run lifecycle messages until the script is back at its first leg.
    pub fn finish_lifecycle(&mut self, port: &mut impl SigPort) {
        while self.leg != 0 {
            self.sig_step(port);
        }
    }

    // -- end-of-run checks --------------------------------------------------------

    /// The run's invariants: nothing offered was lost or refused, every
    /// conservation identity of the node holds, and the node still serves
    /// exactly the residents (checked between lifecycles only).
    pub fn verify(&self, sut: &Sut) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if self.forwarded != self.offered {
            return Err(format!("{} of {} offered packets not forwarded", self.offered - self.forwarded, self.offered));
        }
        if self.legs_failed != 0 {
            return Err(format!("{} of {} S1AP legs got no or a wrong answer", self.legs_failed, self.legs_sent));
        }
        let snap = sut.snapshot();
        if !snap.conservation_holds() {
            return Err("packet conservation broken".into());
        }
        for s in &snap.slices {
            if !s.ctrl.signaling_conservation_holds(s.mailbox_backlog) {
                return Err(format!("signaling conservation broken on slice {}", s.slice_id));
            }
            if self.leg == 0 && !s.ctrl.procedure_accounting_holds(0) {
                return Err(format!("procedure accounting broken on slice {}", s.slice_id));
            }
        }
        if self.leg == 0 && sut.user_count() != self.residents.len() {
            return Err(format!("node serves {} users, {} residents expected", sut.user_count(), self.residents.len()));
        }
        Ok(())
    }
}
