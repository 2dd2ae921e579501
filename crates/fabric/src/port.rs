//! Virtual NIC ports.
//!
//! A [`Port`] is one end of a virtual link: packets are received from an
//! rx ring and transmitted into a tx ring, in bursts, exactly like a DPDK
//! poll-mode driver queue pair. [`PortPair::new`] creates two connected
//! ports (a patch cable), which is how the traffic generator plugs into a
//! PEPC node in tests and benchmarks.

use crate::ring::{Consumer, Producer, SpscRing};
use pepc_net::Mbuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default queue depth for a port, matching common NIC descriptor counts.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// Shared transmit/receive counters for a port.
#[derive(Debug, Default)]
pub struct PortStats {
    pub rx_packets: AtomicU64,
    pub rx_bytes: AtomicU64,
    pub tx_packets: AtomicU64,
    pub tx_bytes: AtomicU64,
    /// Packets dropped because the tx ring was full (back-pressure).
    pub tx_drops: AtomicU64,
}

impl PortStats {
    pub fn snapshot(&self) -> PortStatsSnapshot {
        PortStatsSnapshot {
            rx_packets: self.rx_packets.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            tx_packets: self.tx_packets.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
            tx_drops: self.tx_drops.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`PortStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStatsSnapshot {
    pub rx_packets: u64,
    pub rx_bytes: u64,
    pub tx_packets: u64,
    pub tx_bytes: u64,
    pub tx_drops: u64,
}

/// One end of a virtual link.
pub struct Port {
    rx: Consumer<Mbuf>,
    tx: Producer<Mbuf>,
    stats: Arc<PortStats>,
}

impl Port {
    /// Receive up to `max` packets into `out`; returns the burst size.
    pub fn rx_burst(&mut self, out: &mut Vec<Mbuf>, max: usize) -> usize {
        let before = out.len();
        let n = self.rx.pop_burst(out, max);
        if n > 0 {
            let bytes: u64 = out[before..].iter().map(|m| m.len() as u64).sum();
            self.stats.rx_packets.fetch_add(n as u64, Ordering::Relaxed);
            self.stats.rx_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        n
    }

    /// Receive a single packet if one is waiting.
    pub fn rx_one(&mut self) -> Option<Mbuf> {
        let m = self.rx.pop()?;
        self.stats.rx_packets.fetch_add(1, Ordering::Relaxed);
        self.stats.rx_bytes.fetch_add(m.len() as u64, Ordering::Relaxed);
        Some(m)
    }

    /// Transmit one packet; a full ring counts as a tail drop (as a NIC
    /// with exhausted descriptors would drop).
    pub fn tx(&mut self, m: Mbuf) -> bool {
        let len = m.len() as u64;
        match self.tx.push(m) {
            Ok(()) => {
                self.stats.tx_packets.fetch_add(1, Ordering::Relaxed);
                self.stats.tx_bytes.fetch_add(len, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.stats.tx_drops.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Transmit a burst, draining `pkts`; packets that do not fit are
    /// dropped and counted. Returns how many were sent.
    pub fn tx_burst(&mut self, pkts: &mut Vec<Mbuf>) -> usize {
        let total = pkts.len();
        let mut it = pkts.drain(..);
        let mut sent_bytes = 0u64;
        // Count bytes as we hand packets to the ring via a wrapping iterator.
        let mut counting = (&mut it).inspect(|m| {
            sent_bytes += m.len() as u64;
        });
        let sent = self.tx.push_burst(&mut counting);
        // Items pulled from `counting` but rejected by a full ring were
        // returned via Err inside push_burst? No: push_burst checks space
        // *before* pulling, so every pulled item was enqueued.
        drop(counting);
        let dropped = it.count(); // remainder did not fit
        debug_assert_eq!(sent + dropped, total);
        self.stats.tx_packets.fetch_add(sent as u64, Ordering::Relaxed);
        self.stats.tx_bytes.fetch_add(sent_bytes, Ordering::Relaxed);
        if dropped > 0 {
            self.stats.tx_drops.fetch_add(dropped as u64, Ordering::Relaxed);
        }
        sent
    }

    /// Packets waiting in the receive ring.
    pub fn rx_pending(&self) -> usize {
        self.rx.len()
    }

    /// Depth/capacity gauges for both rings of this port, for telemetry
    /// snapshots. `name` prefixes the ring labels (`<name>_rx`,
    /// `<name>_tx`).
    pub fn gauges(&self, name: &str) -> Vec<pepc_telemetry::RingGauge> {
        vec![
            self.rx.gauge(&format!("{name}_rx")),
            pepc_telemetry::RingGauge {
                name: format!("{name}_tx"),
                depth: self.tx.len() as u64,
                capacity: self.tx.capacity() as u64,
            },
        ]
    }

    /// Shared statistics handle (cloneable, readable from other threads).
    pub fn stats(&self) -> Arc<PortStats> {
        Arc::clone(&self.stats)
    }
}

/// A pair of connected ports, i.e. a patch cable.
pub struct PortPair;

impl PortPair {
    /// Create two ports wired back-to-back with `depth`-entry queues:
    /// whatever `a` transmits, `b` receives, and vice versa.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(depth: usize) -> (Port, Port) {
        let (a_tx, b_rx) = SpscRing::with_capacity(depth);
        let (b_tx, a_rx) = SpscRing::with_capacity(depth);
        (
            Port { rx: a_rx, tx: a_tx, stats: Arc::new(PortStats::default()) },
            Port { rx: b_rx, tx: b_tx, stats: Arc::new(PortStats::default()) },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_cable_carries_both_directions() {
        let (mut a, mut b) = PortPair::new(16);
        assert!(a.tx(Mbuf::from_payload(b"to-b")));
        assert!(b.tx(Mbuf::from_payload(b"to-a")));
        assert_eq!(b.rx_one().unwrap().data(), b"to-b");
        assert_eq!(a.rx_one().unwrap().data(), b"to-a");
        assert!(a.rx_one().is_none());
    }

    #[test]
    fn stats_count_packets_and_bytes() {
        let (mut a, mut b) = PortPair::new(16);
        a.tx(Mbuf::from_payload(&[0u8; 64]));
        a.tx(Mbuf::from_payload(&[0u8; 128]));
        let mut out = Vec::new();
        b.rx_burst(&mut out, 32);
        let sa = a.stats().snapshot();
        let sb = b.stats().snapshot();
        assert_eq!(sa.tx_packets, 2);
        assert_eq!(sa.tx_bytes, 192);
        assert_eq!(sb.rx_packets, 2);
        assert_eq!(sb.rx_bytes, 192);
        assert_eq!(sa.tx_drops, 0);
    }

    #[test]
    fn full_ring_counts_tail_drops() {
        let (mut a, _b) = PortPair::new(2);
        assert!(a.tx(Mbuf::new()));
        assert!(a.tx(Mbuf::new()));
        assert!(!a.tx(Mbuf::new()));
        assert_eq!(a.stats().snapshot().tx_drops, 1);
    }

    #[test]
    fn tx_burst_partial_fit() {
        let (mut a, mut b) = PortPair::new(4);
        let mut pkts: Vec<Mbuf> = (0..10).map(|_| Mbuf::from_payload(&[1u8; 10])).collect();
        let sent = a.tx_burst(&mut pkts);
        assert_eq!(sent, 4);
        assert!(pkts.is_empty(), "tx_burst consumes the input");
        let s = a.stats().snapshot();
        assert_eq!(s.tx_packets, 4);
        assert_eq!(s.tx_drops, 6);
        let mut out = Vec::new();
        assert_eq!(b.rx_burst(&mut out, 32), 4);
    }

    #[test]
    fn rx_pending_reflects_queue() {
        let (mut a, b) = PortPair::new(8);
        assert_eq!(b.rx_pending(), 0);
        a.tx(Mbuf::new());
        a.tx(Mbuf::new());
        assert_eq!(b.rx_pending(), 2);
    }

    #[test]
    fn port_gauges_cover_both_rings() {
        let (mut a, b) = PortPair::new(8);
        a.tx(Mbuf::new());
        a.tx(Mbuf::new());
        a.tx(Mbuf::new());
        let gauges = b.gauges("enb");
        assert_eq!(gauges.len(), 2);
        assert_eq!(gauges[0].name, "enb_rx");
        assert_eq!(gauges[0].depth, 3);
        assert_eq!(gauges[0].capacity, 8);
        assert_eq!(gauges[1].name, "enb_tx");
        assert_eq!(gauges[1].depth, 0);
    }

    #[test]
    fn burst_rx_respects_max() {
        let (mut a, mut b) = PortPair::new(64);
        for _ in 0..20 {
            a.tx(Mbuf::new());
        }
        let mut out = Vec::new();
        assert_eq!(b.rx_burst(&mut out, 8), 8);
        assert_eq!(b.rx_burst(&mut out, 8), 8);
        assert_eq!(b.rx_burst(&mut out, 8), 4);
    }
}
