//! The adapter: every call the end-to-end benchmark makes into the repo's
//! system goes through this file, so a change to the node's API is absorbed
//! here and nowhere else.
//!
//! End-to-end runs drive only `PepcNode` public methods (`new`, `attach`,
//! `ctrl_event`, `process_burst`, `handle_s1ap`, `user_count`,
//! `metrics_snapshot`). Set-up alone reaches past them, in the two ways the
//! repo's own `NodeSut::attach_all` does, because the node offers no other:
//! [`Sut::attach_synthetic`] reads a synthetic user's data-plane keys back
//! through `node.slice(k).ctrl`, and [`Sut::publish`] calls each slice's
//! `sync_now` so the installed population is visible to the data plane
//! before the first burst instead of a batching interval into it.
//! The traced binary reaches below the node through [`Sut::node`]; nothing
//! in `src/` does.

use pepc::config::{EpcConfig, SliceConfig};
use pepc::ctrl::CtrlEvent;
use pepc::node::{NodeVerdict, PepcNode};
use pepc_backend::{Hss, Pcrf};
use pepc_net::Mbuf;
use pepc_sigproto::s1ap::S1apPdu;
use pepc_telemetry::MetricsSnapshot;
use pepc_workload::traffic::UserKeys;
use std::sync::Arc;
use std::time::Instant;

/// Slices per node in every workload.
pub const SLICES: usize = 2;

/// The live HSS and PCRF behind the node's proxy. Built (and provisioned)
/// once per process, outside every timer: they are the node's environment,
/// not the system under test.
pub struct Backends {
    hss: Arc<Hss>,
    pcrf: Arc<Pcrf>,
}

impl Backends {
    /// Provision subscribers `base..base + count` (100 Mbit/s AMBR, so the
    /// offered load never meets a rate limit).
    pub fn provision(base: u64, count: u64) -> Self {
        let hss = Arc::new(Hss::new());
        hss.provision_range(base, count, 100_000);
        Backends { hss, pcrf: Arc::new(Pcrf::with_standard_rules()) }
    }

    pub fn hss(&self) -> &Arc<Hss> {
        &self.hss
    }

    pub fn pcrf(&self) -> &Arc<Pcrf> {
        &self.pcrf
    }
}

/// Something that accepts one data burst: the node in an end-to-end run, a
/// lower layer of a twin node in a traced run.
pub trait DataPort {
    /// Offer `burst`; append one output per packet (`None` = not
    /// forwarded) to `out` and return the nanoseconds spent inside the
    /// system. Everything but the call into the system is outside the timer.
    fn burst(&mut self, burst: Vec<Mbuf>, out: &mut Vec<Option<Mbuf>>) -> u64;
}

/// Something that accepts one uplink S1AP message as wire bytes.
pub trait SigPort {
    /// Deliver `wire`; append each answer's wire bytes to `replies` and
    /// return the nanoseconds from bytes in to bytes out. `slice` is the
    /// slice serving the UE — the node routes for itself and ignores it;
    /// the traced layers below the node need it.
    fn s1ap(&mut self, slice: usize, wire: &[u8], replies: &mut Vec<Vec<u8>>) -> u64;
}

/// The system under test: one inline `PepcNode`.
pub struct Sut {
    node: PepcNode,
}

impl Sut {
    /// Build an empty node sized for `residents` users. `stage_timing`
    /// turns on the data plane's per-stage histograms (traced runs only).
    pub fn build(backends: &Backends, residents: usize, stage_timing: bool) -> Self {
        let config = EpcConfig {
            slices: SLICES,
            slice: SliceConfig { expected_users: residents.div_ceil(SLICES), stage_timing, ..SliceConfig::default() },
            ..EpcConfig::default()
        };
        Sut { node: PepcNode::new(config, Some((Arc::clone(&backends.hss), Arc::clone(&backends.pcrf)))) }
    }

    /// Install one rule-less user by the synthetic path and point its
    /// downlink at `(enb_teid, enb_ip)`. Returns its data-plane keys.
    pub fn attach_synthetic(&mut self, imsi: u64, enb_teid: u32, enb_ip: u32) -> UserKeys {
        let k = self.node.attach(imsi);
        self.node.ctrl_event(CtrlEvent::S1Handover { imsi, new_enb_teid: enb_teid, new_enb_ip: enb_ip });
        let ctx = self.node.slice(k).ctrl.context_of(imsi).expect("just attached");
        let c = ctx.ctrl_read();
        UserKeys { teid: c.tunnels.gw_teid, ue_ip: c.ue_ip }
    }

    /// Make every installed user visible to its slice's data plane.
    pub fn publish(&mut self) {
        for k in 0..self.node.slice_count() {
            self.node.slice(k).sync_now();
        }
    }

    pub fn user_count(&self) -> usize {
        self.node.user_count()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        self.node.metrics_snapshot()
    }

    /// The node itself, for the traced binary's per-layer probes.
    pub fn node(&mut self) -> &mut PepcNode {
        &mut self.node
    }
}

/// Nanoseconds since `t0`.
#[inline]
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

impl DataPort for Sut {
    fn burst(&mut self, burst: Vec<Mbuf>, out: &mut Vec<Option<Mbuf>>) -> u64 {
        let t0 = Instant::now();
        let verdicts = self.node.process_burst(burst);
        let ns = ns_since(t0);
        out.extend(verdicts.into_iter().map(|v| match v {
            NodeVerdict::Forward(m) => Some(m),
            NodeVerdict::Drop | NodeVerdict::Parked | NodeVerdict::Buffered => None,
        }));
        ns
    }
}

impl SigPort for Sut {
    fn s1ap(&mut self, _slice: usize, wire: &[u8], replies: &mut Vec<Vec<u8>>) -> u64 {
        let t0 = Instant::now();
        if let Ok(pdu) = S1apPdu::decode(wire) {
            for rsp in self.node.handle_s1ap(&pdu) {
                replies.push(rsp.encode());
            }
        }
        ns_since(t0)
    }
}
