//! The simulated world: a multi-node [`HaCluster`] on virtual time, a
//! deterministic eNodeB workload derived from the seed, and the chaos
//! command interpreter. [`SimWorld::apply`] is the single entry point —
//! every schedule step, whether freshly picked by the scheduler or read
//! back from a trace, goes through it.
//!
//! Every action is a *guarded* operation: on a weird state (unknown
//! user, dead node, already-killed node, out-of-range index) it degrades
//! to a no-op instead of panicking. The shrinker depends on this —
//! deleting arbitrary subsequences of a failing schedule must always
//! yield a runnable schedule.

use crate::config::{BugKind, ChaosCmd, ChaosKind, SimConfig};
use crate::{Action, ActionKind};
use pepc::config::{BatchingConfig, OverloadConfig};
use pepc::ctrl::CtrlEvent;
use pepc::{EpcConfig, SliceConfig};
use pepc_fabric::VirtualClock;
use pepc_ha::{HaCluster, HaConfig};
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Virtual nanoseconds per simulated tick (1 ms, matching the HA layer's
/// reading of ticks as heartbeat intervals).
pub const TICK_NS: u64 = 1_000_000;

/// IMSI range for signaling-emulated subscribers (disjoint from the
/// synthetic-event range so the two workloads never collide).
pub const SIG_IMSI_BASE: u64 = 404_02_000_000;

/// IMSI range for storm-wave subscribers (disjoint from both ranges
/// above).
pub const STORM_IMSI_BASE: u64 = 404_03_000_000;

/// The admission policy storm scenarios install on every slice: a tight
/// per-eNodeB bucket (all emulated UEs share one ECGI) plus a small
/// in-flight ceiling, so a 24-device wave is mostly shed and drains over
/// subsequent refill ticks. The `no_livelock` oracle derives its
/// in-flight bound from this.
pub(crate) fn storm_overload_config() -> OverloadConfig {
    OverloadConfig { enabled: true, enb_rate_per_tick: 1, enb_burst: 2, max_in_flight: 4, backoff_ms: 5 }
}

/// One eNodeB workload operation, generated from the seed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpKind {
    /// Attach the subscriber on its home node (skipped if already
    /// attached or the home node is down).
    Attach(u64),
    /// Establish the downlink bearer (S1 handover to an eNodeB TEID).
    Bearer(u64),
    /// Send one data packet; `uplink` selects GTP-U ingress vs plain IP
    /// egress. Uses the identifiers the eNodeB cached at attach time —
    /// exactly what a real eNodeB keeps sending during a blackout.
    Data { imsi: u64, uplink: bool },
    /// Migrate the subscriber to the next slice on its current node.
    Migrate(u64),
    /// Detach the subscriber.
    Detach(u64),
    /// Advance the subscriber's eNodeB signaling emulator by one S1AP
    /// message (full per-message attach handshake, optionally an S1
    /// handover). No-op while the subscriber's serving node is down.
    Sig(u64),
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub at_tick: u64,
    pub kind: OpKind,
}

/// Client-side state of one emulated eNodeB/UE signaling session. The
/// emulator is deliberately dumb: each `Sig` op sends exactly the message
/// its stage calls for, advancing only on the expected response — so a
/// lost reply means the next op *retransmits*, exercising the control
/// plane's dedup path, and a reject resets the session to a fresh attach.
#[derive(Debug, Clone, Copy)]
struct EnbUe {
    enb_ue_id: u32,
    /// 0 send-attach, 1 send-auth-rsp, 2 send-smc-complete, 3 send-ics-rsp,
    /// 4 send-attach-complete, 5 attached, 6 ho-ack-pending, 7 done,
    /// 8 idle (released; answers a page with a Service Request),
    /// 9 re-activated after a page.
    stage: u8,
    mme_ue_id: u32,
    /// RAND from the authentication challenge (for computing RES).
    rand: u64,
    /// Abandons after the first message — the stuck-procedure seed.
    abandoner: bool,
    /// GUTI from the Attach Accept (how a page is addressed to us).
    guti: u64,
    /// Runs the idle cycle: release after attaching, wake on a page.
    idler: bool,
    /// Released but never answers pages — the retransmit-to-expiry seed.
    page_ignorer: bool,
}

/// FNV-1a fold; the digest is the determinism witness two runs compare.
fn fnv(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The simulated cluster plus everything the oracles track about it.
pub struct SimWorld {
    pub(crate) ha: HaCluster,
    pub(crate) cfg: SimConfig,
    clock: VirtualClock,
    ops: Vec<Op>,
    /// eNodeB-side cache of (gw_teid, ue_ip) per IMSI, filled at attach.
    keys: HashMap<u64, (u32, u32)>,
    /// Per-subscriber signaling emulators (only for `cfg.sig_users`).
    enbs: HashMap<u64, EnbUe>,
    /// GUTIs the network has paged (from pumped `S1apPdu::Paging`); an
    /// idle emulator answers with a Service Request on its next step.
    paged_gutis: std::collections::HashSet<u64>,
    /// Steps applied so far.
    pub(crate) step: u64,
    /// Rolling FNV digest over every applied action and the observable
    /// state it produced.
    pub(crate) digest: u64,
    /// Data packets the world observed as forwarded.
    pub(crate) forwarded: u64,
}

impl SimWorld {
    pub fn new(cfg: SimConfig) -> Self {
        assert!((2..=8).contains(&cfg.nodes), "2..=8 nodes (a kill needs a survivor)");
        let template = EpcConfig {
            slices: 2,
            slice: SliceConfig {
                batching: BatchingConfig { sync_every_packets: 1 },
                expected_users: 64,
                update_ring_capacity: 1024,
                overload: if cfg.overload { storm_overload_config() } else { OverloadConfig::default() },
                ..SliceConfig::default()
            },
            // Small prime: thousands of clusters get built per sweep,
            // and a 16-user scenario doesn't need a 65537-slot spread.
            lb_table_size: 251,
            ..EpcConfig::default()
        };
        // BugKind::StuckProcedure models a supervision timer that never
        // fires: the HA layer gets timeout 0 while the oracle still
        // expects reaping within the configured bound.
        let timeout = if cfg.bug == BugKind::StuckProcedure { 0 } else { cfg.procedure_timeout };
        let ha_cfg = HaConfig {
            counter_interval: cfg.counter_interval,
            procedure_timeout_ticks: timeout,
            ..HaConfig::default()
        };
        // Full-path signaling needs HSS/PCRF backends; event-only runs
        // skip them so pre-signaling digests stay byte-identical.
        let backends = if cfg.sig_users > 0 || cfg.storm_users > 0 {
            let hss = std::sync::Arc::new(pepc_backend::Hss::new());
            hss.provision_range(SIG_IMSI_BASE, u64::from(cfg.sig_users), 100_000);
            if cfg.storm_users > 0 {
                hss.provision_range(STORM_IMSI_BASE, u64::from(cfg.storm_users), 200_000);
            }
            Some((hss, std::sync::Arc::new(pepc_backend::Pcrf::with_standard_rules())))
        } else {
            None
        };
        let mut ha = HaCluster::with_backends(cfg.nodes as usize, template, ha_cfg, backends);
        let clock = VirtualClock::new();
        ha.set_clock(clock.clock());
        let ops = Self::generate_ops(&cfg);
        let mut enbs = HashMap::new();
        for u in 0..u64::from(cfg.sig_users) {
            let abandoner = cfg.procedure_timeout > 0 && cfg.sig_users > 1 && u == u64::from(cfg.sig_users) - 1;
            let idler = !abandoner && u < u64::from(cfg.idle_users);
            let page_ignorer = idler && cfg.idle_users > 1 && u == u64::from(cfg.idle_users) - 1;
            enbs.insert(
                SIG_IMSI_BASE + u,
                EnbUe {
                    enb_ue_id: 0x5000 + u as u32,
                    stage: 0,
                    mme_ue_id: 0,
                    rand: 0,
                    abandoner,
                    guti: 0,
                    idler,
                    page_ignorer,
                },
            );
        }
        for u in 0..u64::from(cfg.storm_users) {
            enbs.insert(
                STORM_IMSI_BASE + u,
                EnbUe {
                    enb_ue_id: 0x9000 + u as u32,
                    stage: 0,
                    mme_ue_id: 0,
                    rand: 0,
                    abandoner: false,
                    guti: 0,
                    idler: false,
                    page_ignorer: false,
                },
            );
        }
        SimWorld {
            ha,
            cfg,
            clock,
            ops,
            keys: HashMap::new(),
            enbs,
            paged_gutis: std::collections::HashSet::new(),
            step: 0,
            digest: 0xCBF2_9CE4_8422_2325,
            forwarded: 0,
        }
    }

    /// The deterministic eNodeB script: attaches early, bearers right
    /// after, then a mix of data, migrations, and a few detaches spread
    /// over the run. Sorted by eligibility tick (stable, so generation
    /// order breaks ties deterministically).
    fn generate_ops(cfg: &SimConfig) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0E5B_0D00_77AA_1CE5);
        let mut ops = Vec::new();
        let horizon = cfg.ticks.max(8);
        for u in 0..u64::from(cfg.users) {
            let imsi = 404_01_000_000 + u;
            let t = rng.gen_range(0..3u64);
            ops.push(Op { at_tick: t, kind: OpKind::Attach(imsi) });
            ops.push(Op { at_tick: t + 1, kind: OpKind::Bearer(imsi) });
        }
        for _ in 0..cfg.users * 4 {
            let imsi = 404_01_000_000 + rng.gen_range(0..u64::from(cfg.users));
            let at_tick = rng.gen_range(3..horizon - 1);
            let uplink = rng.gen_bool(0.5);
            ops.push(Op { at_tick, kind: OpKind::Data { imsi, uplink } });
        }
        for _ in 0..(cfg.users / 4).max(1) {
            let imsi = 404_01_000_000 + rng.gen_range(0..u64::from(cfg.users));
            ops.push(Op { at_tick: rng.gen_range(4..horizon - 2), kind: OpKind::Migrate(imsi) });
        }
        for _ in 0..(cfg.users / 8).max(1) {
            let imsi = 404_01_000_000 + rng.gen_range(0..u64::from(cfg.users));
            ops.push(Op { at_tick: rng.gen_range(horizon - 4..horizon - 1), kind: OpKind::Detach(imsi) });
        }
        // Signaling ops are generated AFTER every legacy draw so that
        // sig_users == 0 leaves the rng stream — and therefore the whole
        // schedule and digest — byte-identical with pre-signaling builds.
        if cfg.sig_users > 0 {
            // Enough steps to finish the handshake (5 messages, plus a
            // handover's 2) with headroom for retransmissions.
            let steps = if cfg.sig_handover { 12u64 } else { 9 };
            for u in 0..u64::from(cfg.sig_users) {
                let imsi = SIG_IMSI_BASE + u;
                let t = rng.gen_range(0..3u64);
                for j in 0..steps {
                    ops.push(Op { at_tick: (t + j * 3).min(horizon - 1), kind: OpKind::Sig(imsi) });
                }
            }
            if cfg.sig_handover {
                // Migrations aimed at the handover window, so the
                // scheduler can land one mid-HandoverWaitAck.
                for _ in 0..(cfg.sig_users / 2).max(1) {
                    let imsi = SIG_IMSI_BASE + rng.gen_range(0..u64::from(cfg.sig_users));
                    let lo = 14.min(horizon - 2);
                    ops.push(Op { at_tick: rng.gen_range(lo..horizon - 1), kind: OpKind::Migrate(imsi) });
                }
            }
        }
        // Storm ops come after every existing draw and consume no rng at
        // all: every storm device's first attempt lands at exactly
        // `storm_tick` (the synchronized wave), retries every 2 ticks.
        // `storm_users == 0` leaves the rng stream — and the schedule —
        // byte-identical with pre-storm builds.
        if cfg.storm_users > 0 {
            for u in 0..u64::from(cfg.storm_users) {
                let imsi = STORM_IMSI_BASE + u;
                for j in 0..10u64 {
                    ops.push(Op { at_tick: (cfg.storm_tick + j * 2).min(horizon - 1), kind: OpKind::Sig(imsi) });
                }
            }
        }
        // Idle-cycle ops also consume no rng (byte-identical runs when
        // `idle_users == 0`): extra signaling steps in the back half to
        // drive release and page answers, plus downlink aimed at the
        // (by then idle) subscriber so its buffer fills and pages fire.
        if cfg.idle_users > 0 {
            let mid = horizon / 2;
            for u in 0..u64::from(cfg.idle_users.min(cfg.sig_users)) {
                let imsi = SIG_IMSI_BASE + u;
                for j in 0..8u64 {
                    ops.push(Op { at_tick: (mid + j * 2).min(horizon - 1), kind: OpKind::Sig(imsi) });
                }
                for j in 0..3u64 {
                    ops.push(Op {
                        at_tick: (mid + 1 + j * 2).min(horizon - 1),
                        kind: OpKind::Data { imsi, uplink: false },
                    });
                }
            }
        }
        ops.sort_by_key(|o| o.at_tick);
        ops
    }

    pub(crate) fn op_count(&self) -> usize {
        self.ops.len()
    }

    pub(crate) fn op_tick(&self, i: usize) -> u64 {
        self.ops[i].at_tick
    }

    /// Current coordinator tick.
    pub fn now(&self) -> u64 {
        self.ha.now()
    }

    pub fn node_count(&self) -> usize {
        self.ha.cluster_ref().node_count()
    }

    /// Apply one schedule step. Never panics, whatever subsequence of a
    /// recorded schedule it is handed.
    pub fn apply(&mut self, a: Action) {
        self.step += 1;
        let n = self.node_count();
        match a.kind {
            ActionKind::Tick => {
                self.clock.advance_ns(TICK_NS);
                self.ha.advance_tick();
                // Gated on idle_users so pre-paging scenarios keep their
                // byte-identical digests (the pump flushes ctrl→data
                // updates, which would reorder observable state).
                if self.cfg.idle_users > 0 {
                    self.pump_paging();
                }
            }
            ActionKind::Emit => {
                if (a.arg as usize) < n {
                    self.ha.emit_periodic(a.arg as usize);
                }
            }
            ActionKind::Pump => {
                if (a.arg as usize) < n {
                    self.ha.pump_wire(a.arg as usize);
                }
            }
            ActionKind::Detect => self.ha.run_detector(),
            ActionKind::Workload => {
                if (a.arg as usize) < self.ops.len() {
                    let op = self.ops[a.arg as usize];
                    self.exec_op(op);
                }
            }
            ActionKind::Chaos => {
                if (a.arg as usize) < self.cfg.chaos.len() {
                    let cmd = self.cfg.chaos[a.arg as usize];
                    self.exec_chaos(cmd);
                }
            }
        }
        // Fold the action and the cheap observables into the digest.
        self.digest = fnv(self.digest, a.kind as u64);
        self.digest = fnv(self.digest, u64::from(a.arg));
        self.digest = fnv(self.digest, self.ha.now());
        self.digest = fnv(self.digest, self.ha.cluster_ref().user_count() as u64);
        self.digest = fnv(self.digest, self.ha.failovers().len() as u64);
        self.digest = fnv(self.digest, self.forwarded);
    }

    fn exec_op(&mut self, op: Op) {
        match op.kind {
            OpKind::Attach(imsi) => {
                if self.ha.owner_of(imsi).is_some() {
                    return;
                }
                let home = self.ha.cluster_ref().home_node(imsi);
                if self.ha.cluster_ref().is_dead(home) || self.ha.is_killed(home) {
                    return; // blackout: the attach is lost, as in life
                }
                let k = self.ha.attach(imsi);
                // Cache the identifiers the network handed back — the
                // eNodeB addresses data by these from now on.
                self.cache_keys(imsi, k);
            }
            OpKind::Bearer(imsi) => {
                let enb_teid = 0xE000 + (imsi & 0xFFF) as u32;
                self.ha.ctrl_event(CtrlEvent::S1Handover { imsi, new_enb_teid: enb_teid, new_enb_ip: 0xC0A8_0001 });
            }
            OpKind::Data { imsi, uplink } => {
                let Some(&(teid, ue_ip)) = self.keys.get(&imsi) else { return };
                let m = if uplink { Self::uplink(teid, ue_ip) } else { Self::downlink(ue_ip) };
                if self.ha.process(m).is_forward() {
                    self.forwarded += 1;
                }
            }
            OpKind::Migrate(imsi) => {
                let Some(k) = self.ha.owner_of(imsi) else { return };
                if self.ha.cluster_ref().is_dead(k) {
                    return;
                }
                let node = self.ha.cluster().node(k);
                let Some(cur) = node.slice_of(imsi) else { return };
                let slices = node.slice_count();
                if slices < 2 {
                    return;
                }
                let target = (cur + 1) % slices;
                if node.migrate(imsi, target) {
                    node.take_migration_output();
                    if self.cfg.bug == BugKind::DoubleAdopt {
                        self.double_adopt(imsi, k);
                    }
                }
            }
            OpKind::Detach(imsi) => {
                self.ha.ctrl_event(CtrlEvent::Detach { imsi });
            }
            OpKind::Sig(imsi) => self.exec_sig(imsi),
        }
    }

    /// One emulator step: send the message the UE's stage calls for to
    /// its pinned node, parse the response, maybe advance. A down node
    /// means the message is lost (no state change — the next op
    /// retransmits, which the control plane answers from its dedup
    /// cache once the procedure is mid-flight).
    fn exec_sig(&mut self, imsi: u64) {
        use pepc_sigproto::nas::NasMsg;
        use pepc_sigproto::s1ap::S1apPdu;
        let Some(mut ue) = self.enbs.get(&imsi).copied() else { return };
        if ue.abandoner && ue.stage != 0 {
            return; // walked away mid-procedure; supervision must clean up
        }
        let k = self.ha.cluster_ref().home_node(imsi);
        if self.ha.is_killed(k) || self.ha.cluster_ref().is_dead(k) {
            return; // signaling lost in the blackout
        }
        let pdu = match ue.stage {
            0 => S1apPdu::InitialUeMessage {
                enb_ue_id: ue.enb_ue_id,
                ecgi: 0x300,
                tac: 7,
                nas: NasMsg::AttachRequest { imsi, ue_capability: 0xF0 }.encode(),
            },
            1 => {
                let res = pepc_backend::hss::sim_response(pepc_backend::Hss::key_for(imsi), ue.rand);
                S1apPdu::UplinkNasTransport {
                    enb_ue_id: ue.enb_ue_id,
                    mme_ue_id: ue.mme_ue_id,
                    nas: NasMsg::AuthenticationResponse { res }.encode(),
                }
            }
            2 => S1apPdu::UplinkNasTransport {
                enb_ue_id: ue.enb_ue_id,
                mme_ue_id: ue.mme_ue_id,
                nas: NasMsg::SecurityModeComplete.encode(),
            },
            3 => S1apPdu::InitialContextSetupResponse {
                enb_ue_id: ue.enb_ue_id,
                mme_ue_id: ue.mme_ue_id,
                enb_teid: 0xE000 + (imsi & 0xFFF) as u32,
                enb_ip: 0xC0A8_0002,
            },
            4 => S1apPdu::UplinkNasTransport {
                enb_ue_id: ue.enb_ue_id,
                mme_ue_id: ue.mme_ue_id,
                nas: NasMsg::AttachComplete.encode(),
            },
            5 if self.cfg.sig_handover => {
                S1apPdu::HandoverRequired { enb_ue_id: ue.enb_ue_id, mme_ue_id: ue.mme_ue_id, target_ecgi: 0x400 }
            }
            5 if ue.idler => {
                S1apPdu::UeContextReleaseRequest { enb_ue_id: ue.enb_ue_id, mme_ue_id: ue.mme_ue_id, cause: 0 }
            }
            6 => S1apPdu::HandoverRequestAck {
                mme_ue_id: ue.mme_ue_id,
                new_enb_teid: 0xF000 + (imsi & 0xFFF) as u32,
                new_enb_ip: 0xC0A8_0003,
            },
            8 => {
                // Idle: answer a page with a Service Request — unless
                // this UE is the deliberate page-ignorer, whose pages
                // must retransmit to expiry and drop the buffer.
                if ue.page_ignorer || !self.paged_gutis.contains(&ue.guti) {
                    return;
                }
                S1apPdu::InitialUeMessage {
                    enb_ue_id: ue.enb_ue_id,
                    ecgi: 0x300,
                    tac: 7,
                    nas: NasMsg::ServiceRequest { guti: ue.guti }.encode(),
                }
            }
            _ => return, // attached (no handover configured) or done
        };
        let rsp = self.ha.node_s1ap(k, &pdu);
        // ICS responses and AttachComplete are acknowledged silently;
        // advance those stages on delivery (the node was up).
        if ue.stage == 3 || ue.stage == 4 {
            ue.stage += 1;
            if ue.stage == 5 {
                self.cache_keys(imsi, k);
            }
        }
        for p in &rsp {
            match p {
                S1apPdu::DownlinkNasTransport { mme_ue_id, nas, .. } => match NasMsg::decode(nas) {
                    Ok(NasMsg::AuthenticationRequest { rand, .. }) if ue.stage == 0 => {
                        ue.rand = rand;
                        ue.mme_ue_id = *mme_ue_id;
                        ue.stage = 1;
                    }
                    Ok(NasMsg::SecurityModeCommand { .. }) if ue.stage == 1 => ue.stage = 2,
                    Ok(NasMsg::AttachReject { .. }) | Ok(NasMsg::AuthenticationReject { .. }) => {
                        ue.stage = 0; // start over with a fresh attach
                        ue.mme_ue_id = 0;
                    }
                    Ok(NasMsg::CongestionReject { .. }) => {
                        // Shed by admission control: keep the current
                        // stage so the next scheduled op retries the
                        // same message — the herd re-colliding.
                    }
                    Ok(NasMsg::ServiceAccept) if ue.stage == 8 => {
                        // The page is answered; the UE is active again
                        // and its buffered downlink has flushed.
                        ue.mme_ue_id = *mme_ue_id;
                        ue.stage = 9;
                    }
                    _ => {}
                },
                S1apPdu::InitialContextSetupRequest { mme_ue_id, nas, .. } if ue.stage == 2 => {
                    ue.mme_ue_id = *mme_ue_id;
                    // The Attach Accept rides in the ICS request; its
                    // GUTI is how a later page addresses this UE.
                    if let Ok(NasMsg::AttachAccept { guti, .. }) = NasMsg::decode(nas) {
                        ue.guti = guti;
                    }
                    ue.stage = 3;
                }
                S1apPdu::HandoverRequest { .. } if ue.stage == 5 => ue.stage = 6,
                S1apPdu::HandoverCommand { .. } if ue.stage == 6 => ue.stage = 7,
                S1apPdu::UeContextReleaseCommand { .. } if ue.stage == 5 && ue.idler => ue.stage = 8,
                _ => {}
            }
        }
        self.enbs.insert(imsi, ue);
    }

    /// Surface network-originated paging: drain buffered-downlink events
    /// into the control plane on every live node, collect the Paging (and
    /// retransmitted) PDUs toward the eNodeBs, and count woken downlink
    /// that flushed end-to-end. Idle runs only (see the Tick arm).
    fn pump_paging(&mut self) {
        let n = self.node_count();
        for k in 0..n {
            if self.ha.is_killed(k) || self.ha.cluster_ref().is_dead(k) {
                continue;
            }
            let node = self.ha.cluster().node(k);
            let pdus = node.pump_paging();
            let woken = node.take_woken();
            self.forwarded += woken.len() as u64;
            for p in pdus {
                if let pepc_sigproto::s1ap::S1apPdu::Paging { guti, .. } = p {
                    self.paged_gutis.insert(guti);
                }
            }
        }
    }

    /// Cache the network-assigned data-plane identifiers once the attach
    /// handshake finishes (what a real eNodeB keeps from the ICS request).
    fn cache_keys(&mut self, imsi: u64, k: usize) {
        let node = self.ha.cluster().node(k);
        if let Some(keys) = node.slice_of(imsi).and_then(|s| node.slice(s).ctrl.keys_of(imsi)) {
            self.keys.insert(imsi, keys);
        }
    }

    /// The injected defect: adopt `imsi` onto a second live node without
    /// removing it from `k` — the single-owner violation the `dup_imsi`
    /// oracle exists to catch.
    fn double_adopt(&mut self, imsi: u64, k: usize) {
        let n = self.node_count();
        let Some(other) = (0..n).find(|&t| t != k && !self.ha.cluster_ref().is_dead(t) && !self.ha.is_killed(t)) else {
            return;
        };
        let node = self.ha.cluster().node(k);
        if let Some(rec) = node.slice_of(imsi).and_then(|s| node.slice(s).ctrl.record_of(imsi)) {
            self.ha.cluster().adopt_user(other, rec);
        }
    }

    fn exec_chaos(&mut self, cmd: ChaosCmd) {
        let k = cmd.node as usize;
        if k >= self.node_count() {
            return;
        }
        match cmd.kind {
            ChaosKind::Kill => {
                if !self.ha.is_killed(k) && !self.ha.cluster_ref().is_dead(k) && self.ha.cluster_ref().live_count() > 1
                {
                    self.ha.kill_node(k);
                }
            }
            ChaosKind::Partition => self.ha.wire_mut(k).set_partitioned(true),
            ChaosKind::Heal => self.ha.wire_mut(k).set_partitioned(false),
            ChaosKind::Delay => {
                let mut spec = self.ha.wire_mut(k).fault_spec().clone();
                spec.delay_pumps = cmd.amount;
                self.ha.wire_mut(k).set_fault_spec(spec);
            }
            ChaosKind::Drop => {
                let mut spec = self.ha.wire_mut(k).fault_spec().clone();
                spec.drop_chance = f64::from(cmd.amount) / 1000.0;
                self.ha.wire_mut(k).set_fault_spec(spec);
            }
            ChaosKind::Duplicate => {
                let mut spec = self.ha.wire_mut(k).fault_spec().clone();
                spec.duplicate_chance = f64::from(cmd.amount) / 1000.0;
                self.ha.wire_mut(k).set_fault_spec(spec);
            }
        }
    }

    fn uplink(teid: u32, ue_ip: u32) -> Mbuf {
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
        Ipv4Hdr::new(ue_ip, 0x0808_0808, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        m.extend(&hdr);
        encap_gtpu(&mut m, 0xC0A8_0001, 0x0AFE_0001, teid).unwrap();
        m
    }

    fn downlink(ue_ip: u32) -> Mbuf {
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
        Ipv4Hdr::new(0x0808_0808, ue_ip, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        m.extend(&hdr);
        m
    }
}
