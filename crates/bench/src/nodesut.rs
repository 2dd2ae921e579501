//! A whole PEPC node as a [`SystemUnderTest`] — used by the migration
//! figures (8, 9), where the interesting behaviour (Demux parking,
//! per-user migration queues) lives above the slice.

use pepc::node::{NodeVerdict, PepcNode};
use pepc_net::Mbuf;
use pepc_workload::harness::SystemUnderTest;
use pepc_workload::signaling::SigEvent;
use pepc_workload::traffic::UserKeys;

/// Node-level system under test.
pub struct NodeSut {
    pub node: PepcNode,
    /// Forwarded packets that emerged from migration-queue drains; the
    /// measurement loop treats each as a forwarded packet.
    backlog: Vec<Mbuf>,
}

impl NodeSut {
    pub fn new(node: PepcNode) -> Self {
        NodeSut { node, backlog: Vec::new() }
    }

    /// Migrate `imsi` to `target` (the Figure 8/9 tick hook calls this).
    pub fn migrate(&mut self, imsi: u64, target: usize) -> bool {
        let ok = self.node.migrate(imsi, target);
        self.backlog.extend(self.node.take_migration_output());
        ok
    }
}

impl SystemUnderTest for NodeSut {
    fn signal(&mut self, ev: SigEvent) -> bool {
        match ev {
            SigEvent::Attach { imsi } => {
                self.node.attach(imsi);
                true
            }
            SigEvent::S1Handover { imsi, new_enb_teid, new_enb_ip } => {
                self.node.ctrl_event(pepc::ctrl::CtrlEvent::S1Handover { imsi, new_enb_teid, new_enb_ip })
            }
        }
    }

    fn process(&mut self, m: Mbuf) -> Option<Mbuf> {
        // Drained migration packets count as this call's output first, so
        // none are lost from the forwarded tally (the extra offered
        // packet is re-queued internally).
        if let Some(queued) = self.backlog.pop() {
            match self.node.process(m) {
                NodeVerdict::Forward(out) => self.backlog.push(out),
                NodeVerdict::Drop | NodeVerdict::Parked | NodeVerdict::Buffered => {}
            }
            return Some(queued);
        }
        match self.node.process(m) {
            NodeVerdict::Forward(out) => Some(out),
            NodeVerdict::Parked | NodeVerdict::Drop | NodeVerdict::Buffered => None,
        }
    }

    fn attach_all(&mut self, imsis: &[u64]) -> Vec<UserKeys> {
        let mut keys = Vec::with_capacity(imsis.len());
        for &imsi in imsis {
            let k = self.node.attach(imsi);
            self.node.ctrl_event(pepc::ctrl::CtrlEvent::S1Handover {
                imsi,
                new_enb_teid: 0xE000_0000 + (imsi as u32 & 0xFFFF),
                new_enb_ip: 0xC0A8_0001,
            });
            let ctx = self.node.slice(k).ctrl.context_of(imsi).expect("attached");
            let c = ctx.ctrl_read();
            keys.push(UserKeys { teid: c.tunnels.gw_teid, ue_ip: c.ue_ip });
        }
        // Make memberships visible on every slice.
        for k in 0..self.node.slice_count() {
            self.node.slice(k).sync_now();
        }
        keys
    }

    fn name(&self) -> &'static str {
        "PEPC node"
    }

    fn telemetry(&self) -> Option<pepc::MetricsSnapshot> {
        Some(self.node.metrics_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
    use pepc_workload::harness::{measure_with, MeasureOpts};
    use pepc_workload::traffic::TrafficGen;

    fn node_sut(slices: usize) -> NodeSut {
        let config = EpcConfig {
            slices,
            slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..SliceConfig::default() },
            ..EpcConfig::default()
        };
        NodeSut::new(PepcNode::new(config, None))
    }

    #[test]
    fn node_sut_forwards_traffic() {
        let mut sut = node_sut(2);
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
        let mut sut = node_sut(2);
        let imsis: Vec<u64> = (0..64).collect();
        let keys = sut.attach_all(&imsis);
        let mut gen = TrafficGen::new(keys);
        let mut next_mig = 0usize;
        let m = measure_with(
            &mut sut,
            &mut gen,
            None,
            &MeasureOpts { duration: std::time::Duration::from_millis(100), ..Default::default() },
            |sut, _| {
                // Migrate one user per tick, ping-ponging between slices.
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
}
