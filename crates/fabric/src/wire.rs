//! Wires: pumps that move packets between ports with optional fault
//! injection (drop / corrupt / reorder / delay / duplicate / rate-limit),
//! mirroring the fault-injection discipline of the smoltcp examples
//! (`--drop-chance`, `--corrupt-chance`, `--tx-rate-limit`).
//!
//! A [`Wire`] is driven explicitly by calling [`Wire::pump`]; tests and the
//! traffic generator call it from their poll loops, keeping the whole
//! fabric deterministic and single-threaded unless threads are wanted.
//!
//! Beyond the probabilistic [`FaultSpec`] faults, a wire models two
//! link-level conditions directly:
//!
//! * [`Wire::sever`] — a permanent cut (crashed NIC): everything queued
//!   or in flight is lost, forever;
//! * [`Wire::set_partitioned`] — a reversible partition: nothing moves
//!   while partitioned, but frames stay queued at the source and in the
//!   delay line, and flow again after a heal. Senders whose queue fills
//!   during a long partition lose frames exactly as a real NIC ring
//!   overflows.

use crate::clock::Clock;
use crate::port::Port;
use pepc_net::Mbuf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Duration;

/// Fault-injection configuration for a wire.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Probability in \[0, 1\] that a packet is silently dropped.
    pub drop_chance: f64,
    /// Probability in \[0, 1\] that one random byte of a packet is flipped.
    pub corrupt_chance: f64,
    /// Probability in \[0, 1\] that a packet is swapped with its successor
    /// within the same pumped burst (adjacent reordering).
    pub reorder_chance: f64,
    /// Probability in \[0, 1\] that a packet is delivered twice (the copy is
    /// injected immediately after the original).
    pub duplicate_chance: f64,
    /// Fixed latency, in pump calls: every packet sits in the wire's
    /// delay line for this many pumps before it becomes deliverable
    /// (0 = same-pump delivery, the historical behaviour).
    pub delay_pumps: u32,
    /// Token-bucket rate limit in packets per refill interval;
    /// `None` = unlimited.
    pub rate_limit: Option<u32>,
    /// Refill interval for the token bucket.
    pub shaping_interval: Duration,
    /// Seed for the fault RNG, so tests are reproducible.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            reorder_chance: 0.0,
            duplicate_chance: 0.0,
            delay_pumps: 0,
            rate_limit: None,
            shaping_interval: Duration::from_millis(50),
            seed: 0x5EED,
        }
    }
}

impl FaultSpec {
    /// A faultless wire.
    pub fn none() -> Self {
        Self::default()
    }
}

/// Statistics accumulated by a wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    pub forwarded: u64,
    pub dropped: u64,
    pub corrupted: u64,
    pub reordered: u64,
    /// Extra copies injected by duplication (each counted in `forwarded`
    /// too, if delivered).
    pub duplicated: u64,
    /// Packets that spent at least one pump in the delay line.
    pub delayed: u64,
    pub rate_limited: u64,
}

/// A unidirectional pump from one port's output to another port's input.
pub struct Wire {
    from: Port,
    to: Port,
    spec: FaultSpec,
    rng: StdRng,
    tokens: u32,
    clock: Clock,
    last_refill_ns: u64,
    stats: WireStats,
    scratch: Vec<Mbuf>,
    /// In-flight packets: `(due_pump, frame)`, FIFO by intake order.
    delay_line: VecDeque<(u64, Mbuf)>,
    /// Pump calls so far; the time base of the delay line.
    pump_seq: u64,
    severed: bool,
    partitioned: bool,
}

impl Wire {
    /// Build a wire that forwards everything `from` transmits into `to`.
    ///
    /// `from` here is the *far end* of the source port pair (the end whose
    /// rx ring sees the source's tx traffic), and `to` is the far end of
    /// the destination pair.
    pub fn new(from: Port, to: Port, spec: FaultSpec) -> Self {
        let tokens = spec.rate_limit.unwrap_or(u32::MAX);
        let rng = StdRng::seed_from_u64(spec.seed);
        let clock = Clock::new();
        Wire {
            from,
            to,
            spec,
            rng,
            tokens,
            last_refill_ns: clock.now_ns(),
            clock,
            stats: WireStats::default(),
            scratch: Vec::with_capacity(64),
            delay_line: VecDeque::new(),
            pump_seq: 0,
            severed: false,
            partitioned: false,
        }
    }

    /// Substitute the clock the token-bucket shaper reads (a virtual
    /// clock makes rate-limit refills deterministic under simulation).
    pub fn set_clock(&mut self, clock: Clock) {
        self.last_refill_ns = clock.now_ns();
        self.clock = clock;
    }

    /// Permanently cut the wire: everything pumped from now on — including
    /// frames already queued at the source or sitting in the delay line —
    /// is counted as dropped. This is how fault injection models a node
    /// crash, as opposed to the probabilistic losses of [`FaultSpec`] or a
    /// healable [`Wire::set_partitioned`] partition.
    pub fn sever(&mut self) {
        self.severed = true;
        self.stats.dropped += self.delay_line.len() as u64;
        self.delay_line.clear();
    }

    /// Partition (`true`) or heal (`false`) the wire. While partitioned a
    /// pump moves nothing: frames wait at the source and in the delay
    /// line, and resume flowing after the heal — late, but intact.
    pub fn set_partitioned(&mut self, on: bool) {
        self.partitioned = on;
    }

    /// Update the fault parameters mid-run (scenario DSL hook). The RNG
    /// stream and accumulated stats are preserved; the token bucket is
    /// re-armed if the rate limit changed.
    pub fn set_fault_spec(&mut self, spec: FaultSpec) {
        if spec.rate_limit != self.spec.rate_limit {
            self.tokens = spec.rate_limit.unwrap_or(u32::MAX);
        }
        self.spec = spec;
    }

    /// The current fault parameters.
    pub fn fault_spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Move packets across the wire, applying faults. At most `max`
    /// packets are taken in from the source and at most `max` delivered
    /// from the delay line. Returns how many packets were forwarded.
    pub fn pump(&mut self, max: usize) -> usize {
        if self.severed {
            self.scratch.clear();
            self.from.rx_burst(&mut self.scratch, max);
            self.stats.dropped += self.scratch.len() as u64;
            self.scratch.clear();
            return 0;
        }
        if self.partitioned {
            return 0;
        }
        self.pump_seq += 1;
        if let Some(limit) = self.spec.rate_limit {
            let now = self.clock.now_ns();
            if now.saturating_sub(self.last_refill_ns) >= self.spec.shaping_interval.as_nanos() as u64 {
                self.tokens = limit;
                self.last_refill_ns = now;
            }
        }
        // Intake: pull a burst off the source, reorder within it, then
        // append to the delay line stamped with its delivery pump.
        self.scratch.clear();
        self.from.rx_burst(&mut self.scratch, max);
        if self.spec.reorder_chance > 0.0 && self.scratch.len() > 1 {
            for i in 1..self.scratch.len() {
                if self.rng.gen_bool(self.spec.reorder_chance) {
                    self.scratch.swap(i - 1, i);
                    self.stats.reordered += 1;
                }
            }
        }
        let due = self.pump_seq + u64::from(self.spec.delay_pumps);
        for m in self.scratch.drain(..) {
            if self.spec.delay_pumps > 0 {
                self.stats.delayed += 1;
            }
            self.delay_line.push_back((due, m));
        }
        // Delivery: everything whose due pump has arrived, oldest first.
        let mut forwarded = 0;
        while forwarded < max {
            let Some((_, mut m)) = self.delay_line.pop_front_if(|(d, _)| *d <= self.pump_seq) else { break };
            if self.spec.rate_limit.is_some() {
                if self.tokens == 0 {
                    self.stats.rate_limited += 1;
                    continue;
                }
                self.tokens -= 1;
            }
            if self.spec.drop_chance > 0.0 && self.rng.gen_bool(self.spec.drop_chance) {
                self.stats.dropped += 1;
                continue;
            }
            if self.spec.corrupt_chance > 0.0 && !m.is_empty() && self.rng.gen_bool(self.spec.corrupt_chance) {
                let idx = self.rng.gen_range(0..m.len());
                m.data_mut()[idx] ^= 0xFF;
                self.stats.corrupted += 1;
            }
            let dup =
                if self.spec.duplicate_chance > 0.0 { self.rng.gen_bool(self.spec.duplicate_chance) } else { false };
            if dup {
                self.stats.duplicated += 1;
                if self.to.tx(m.clone()) {
                    forwarded += 1;
                }
            }
            if self.to.tx(m) {
                forwarded += 1;
            }
        }
        self.stats.forwarded += forwarded as u64;
        forwarded
    }

    /// Packets currently sitting in the delay line (in flight).
    pub fn in_flight(&self) -> usize {
        self.delay_line.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> WireStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::PortPair;

    /// Build (source port, wire, sink port): the source's transmissions
    /// cross the wire and arrive at the sink.
    fn rig(spec: FaultSpec) -> (Port, Wire, Port) {
        let (src, src_far) = PortPair::new(1024);
        let (sink_far, sink) = PortPair::new(1024);
        (src, Wire::new(src_far, sink_far, spec), sink)
    }

    #[test]
    fn clean_wire_forwards_everything() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec::none());
        for i in 0..100u8 {
            src.tx(Mbuf::from_payload(&[i]));
        }
        let n = wire.pump(1000);
        assert_eq!(n, 100);
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 1000);
        assert_eq!(out.len(), 100);
        assert_eq!(out[57].data(), &[57]);
        assert_eq!(wire.stats().forwarded, 100);
    }

    #[test]
    fn drop_chance_drops_roughly_that_fraction() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec { drop_chance: 0.5, ..FaultSpec::default() });
        for _ in 0..1000 {
            src.tx(Mbuf::from_payload(&[0]));
        }
        while wire.pump(64) > 0 || wire.stats().forwarded + wire.stats().dropped < 1000 {
            if wire.stats().forwarded + wire.stats().dropped >= 1000 {
                break;
            }
        }
        let s = wire.stats();
        assert_eq!(s.forwarded + s.dropped, 1000);
        assert!((300..700).contains(&(s.dropped as usize)), "dropped {}", s.dropped);
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 2000);
        assert_eq!(out.len() as u64, s.forwarded);
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec { corrupt_chance: 1.0, ..FaultSpec::default() });
        src.tx(Mbuf::from_payload(&[0u8; 32]));
        wire.pump(10);
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 10);
        let flipped: usize = out[0].data().iter().filter(|&&b| b != 0).count();
        assert_eq!(flipped, 1);
        assert_eq!(wire.stats().corrupted, 1);
    }

    #[test]
    fn rate_limit_caps_a_burst() {
        let (mut src, mut wire, _sink) = rig(FaultSpec {
            rate_limit: Some(10),
            shaping_interval: Duration::from_secs(3600), // never refills in-test
            ..FaultSpec::default()
        });
        for _ in 0..50 {
            src.tx(Mbuf::new());
        }
        wire.pump(100);
        let s = wire.stats();
        assert_eq!(s.forwarded, 10);
        assert_eq!(s.rate_limited, 40);
    }

    #[test]
    fn rate_limit_refills_on_a_virtual_clock() {
        let v = crate::clock::VirtualClock::new();
        let (mut src, mut wire, _sink) =
            rig(FaultSpec { rate_limit: Some(10), shaping_interval: Duration::from_millis(1), ..FaultSpec::default() });
        wire.set_clock(v.clock());
        let feed = |src: &mut Port| {
            for _ in 0..30 {
                src.tx(Mbuf::new());
            }
        };
        feed(&mut src);
        wire.pump(100);
        assert_eq!(wire.stats().forwarded, 10, "first interval's tokens");
        feed(&mut src);
        wire.pump(100);
        assert_eq!(wire.stats().forwarded, 10, "no refill until virtual time moves");
        v.advance_ns(1_000_000);
        feed(&mut src);
        wire.pump(100);
        assert_eq!(wire.stats().forwarded, 20, "refill after one virtual interval");
    }

    #[test]
    fn seeded_faults_are_reproducible() {
        let run = || {
            let (mut src, mut wire, _sink) = rig(FaultSpec { drop_chance: 0.3, seed: 42, ..FaultSpec::default() });
            for _ in 0..200 {
                src.tx(Mbuf::new());
            }
            wire.pump(500);
            wire.stats().dropped
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reordering_permutes_but_conserves() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec { reorder_chance: 0.5, seed: 7, ..FaultSpec::default() });
        for i in 0..200u8 {
            src.tx(Mbuf::from_payload(&[i]));
        }
        wire.pump(500);
        let s = wire.stats();
        assert_eq!(s.forwarded, 200, "reordering must not lose packets");
        assert!(s.reordered > 0, "expected some swaps at 50%");
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 500);
        let mut seen: Vec<u8> = out.iter().map(|m| m.data()[0]).collect();
        assert_ne!(seen, (0..200).collect::<Vec<_>>(), "order should change");
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>(), "same multiset");
    }

    #[test]
    fn severed_wire_drops_everything_including_queued_frames() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec::none());
        for i in 0..10u8 {
            src.tx(Mbuf::from_payload(&[i]));
        }
        wire.sever();
        assert_eq!(wire.pump(100), 0);
        src.tx(Mbuf::from_payload(&[99]));
        assert_eq!(wire.pump(100), 0);
        let s = wire.stats();
        assert_eq!(s.forwarded, 0);
        assert_eq!(s.dropped, 11);
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 100);
        assert!(out.is_empty());
    }

    #[test]
    fn sever_loses_the_delay_line_too() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec { delay_pumps: 5, ..FaultSpec::default() });
        for _ in 0..4 {
            src.tx(Mbuf::new());
        }
        wire.pump(100); // intake only; nothing due for 5 pumps
        assert_eq!(wire.in_flight(), 4);
        wire.sever();
        assert_eq!(wire.in_flight(), 0);
        assert_eq!(wire.stats().dropped, 4, "in-flight frames die with the wire");
        wire.pump(100);
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 100);
        assert!(out.is_empty());
    }

    #[test]
    fn pump_respects_max() {
        let (mut src, mut wire, _sink) = rig(FaultSpec::none());
        for _ in 0..100 {
            src.tx(Mbuf::new());
        }
        assert_eq!(wire.pump(30), 30);
        assert_eq!(wire.pump(30), 30);
        assert_eq!(wire.pump(100), 40);
    }

    #[test]
    fn delay_holds_packets_for_exactly_n_pumps() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec { delay_pumps: 3, ..FaultSpec::default() });
        src.tx(Mbuf::from_payload(&[1]));
        assert_eq!(wire.pump(10), 0, "pump 1: intake, due at pump 4");
        src.tx(Mbuf::from_payload(&[2]));
        assert_eq!(wire.pump(10), 0, "pump 2: second intake, due at pump 5");
        assert_eq!(wire.pump(10), 0, "pump 3");
        assert_eq!(wire.in_flight(), 2);
        assert_eq!(wire.pump(10), 1, "pump 4: first packet due");
        assert_eq!(wire.pump(10), 1, "pump 5: second packet due");
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 10);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].data(), &[1], "delay preserves order");
        assert_eq!(out[1].data(), &[2]);
        let s = wire.stats();
        assert_eq!(s.delayed, 2);
        assert_eq!(s.forwarded, 2);
    }

    #[test]
    fn delayed_wire_conserves_packets() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec { delay_pumps: 2, ..FaultSpec::default() });
        for i in 0..50u8 {
            src.tx(Mbuf::from_payload(&[i]));
        }
        let mut total = 0;
        for _ in 0..60 {
            total += wire.pump(8);
        }
        assert_eq!(total, 50);
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 100);
        let seen: Vec<u8> = out.iter().map(|m| m.data()[0]).collect();
        assert_eq!(seen, (0..50).collect::<Vec<_>>(), "delay alone never reorders");
    }

    #[test]
    fn duplicate_delivers_the_copy_adjacent_to_the_original() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec { duplicate_chance: 1.0, ..FaultSpec::default() });
        for i in 0..5u8 {
            src.tx(Mbuf::from_payload(&[i]));
        }
        let n = wire.pump(100);
        assert_eq!(n, 10, "every packet delivered twice");
        let s = wire.stats();
        assert_eq!(s.duplicated, 5);
        assert_eq!(s.forwarded, 10);
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 100);
        let seen: Vec<u8> = out.iter().map(|m| m.data()[0]).collect();
        assert_eq!(seen, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn duplicate_chance_is_seeded_and_partial() {
        let run = || {
            let (mut src, mut wire, _sink) = rig(FaultSpec { duplicate_chance: 0.4, seed: 11, ..FaultSpec::default() });
            for _ in 0..500 {
                src.tx(Mbuf::new());
            }
            wire.pump(2000);
            wire.stats()
        };
        let s = run();
        assert!((100..300).contains(&(s.duplicated as usize)), "duplicated {}", s.duplicated);
        assert_eq!(s.forwarded, 500 + s.duplicated);
        assert_eq!(run(), s, "same seed, same duplications");
    }

    #[test]
    fn partition_freezes_and_heal_releases() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec::none());
        for i in 0..10u8 {
            src.tx(Mbuf::from_payload(&[i]));
        }
        wire.set_partitioned(true);
        assert_eq!(wire.pump(100), 0);
        assert_eq!(wire.pump(100), 0);
        assert_eq!(wire.stats().forwarded, 0);
        assert_eq!(wire.stats().dropped, 0, "partition loses nothing by itself");
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 100);
        assert!(out.is_empty(), "nothing crosses a partitioned wire");

        wire.set_partitioned(false);
        assert_eq!(wire.pump(100), 10, "queued frames flow after the heal");
        sink.rx_burst(&mut out, 100);
        assert_eq!(out.len(), 10);
        assert_eq!(out[3].data(), &[3], "order preserved across the partition");
    }

    #[test]
    fn set_fault_spec_midstream_changes_behaviour() {
        let (mut src, mut wire, mut sink) = rig(FaultSpec::none());
        src.tx(Mbuf::from_payload(&[1]));
        assert_eq!(wire.pump(10), 1);
        wire.set_fault_spec(FaultSpec { drop_chance: 1.0, ..FaultSpec::default() });
        src.tx(Mbuf::from_payload(&[2]));
        assert_eq!(wire.pump(10), 0);
        assert_eq!(wire.stats().dropped, 1);
        wire.set_fault_spec(FaultSpec::none());
        src.tx(Mbuf::from_payload(&[3]));
        assert_eq!(wire.pump(10), 1);
        let mut out = Vec::new();
        sink.rx_burst(&mut out, 10);
        assert_eq!(out.len(), 2);
    }
}
