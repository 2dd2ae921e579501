//! Timestamps and measurement helpers.
//!
//! Latency distributions are recorded into [`LatencyHistogram`], which
//! lives in `pepc-telemetry` and is re-exported here.
//!
//! Time itself is pluggable: a [`Clock`] reads either the host's
//! monotonic clock (the default — benchmarks measure real nanoseconds) or
//! a [`VirtualClock`], a process-shared counter advanced explicitly by a
//! test harness. The deterministic simulator (`pepc-sim`) substitutes
//! virtual clocks everywhere a component would otherwise consult
//! `Instant`, so a simulated run consumes *zero* wall time and two runs
//! with the same seed observe byte-identical timestamps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// The histogram moved to `pepc-telemetry` so the core crates can record
// latencies without depending on fabric; re-exported here for existing
// call sites.
pub use pepc_telemetry::{HistogramSummary, LatencyHistogram};

/// Where a [`Clock`] reads its nanoseconds from.
#[derive(Debug, Clone, Copy)]
enum TimeSource {
    /// The host monotonic clock, relative to a fixed origin.
    Wall(Instant),
    /// An explicitly-advanced virtual time counter (see [`VirtualClock`]).
    Virtual(&'static AtomicU64),
}

/// A monotonic clock with a fixed origin, yielding cheap `u64` nanosecond
/// timestamps suitable for embedding in packets.
///
/// `Clock` is `Copy` (it is embedded per-slice and captured by worker
/// threads); a virtual-backed clock shares its counter with every copy,
/// so advancing the [`VirtualClock`] moves all of them at once.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    src: TimeSource,
}

impl Clock {
    /// A wall-time clock: nanoseconds elapse on their own.
    pub fn new() -> Self {
        Clock { src: TimeSource::Wall(Instant::now()) }
    }

    /// Nanoseconds since this clock was created (wall) or since virtual
    /// time zero (virtual).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match self.src {
            TimeSource::Wall(origin) => origin.elapsed().as_nanos() as u64,
            TimeSource::Virtual(ns) => ns.load(Ordering::Relaxed),
        }
    }

    /// Whether this clock reads virtual time.
    pub fn is_virtual(&self) -> bool {
        matches!(self.src, TimeSource::Virtual(_))
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

/// An explicitly-driven time counter for deterministic tests.
///
/// Nanoseconds only move when a harness calls [`VirtualClock::advance_ns`];
/// every [`Clock`] handed out by [`VirtualClock::clock`] observes the same
/// counter. The counter is one leaked 8-byte allocation so clocks stay
/// `Copy` (a simulation harness creates a bounded number of clocks per
/// process, so the leak is a few KB at worst).
#[derive(Debug, Clone, Copy)]
pub struct VirtualClock {
    ns: &'static AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at nanosecond zero.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        VirtualClock { ns: Box::leak(Box::new(AtomicU64::new(0))) }
    }

    /// Current virtual time.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Move virtual time forward by `d` nanoseconds.
    pub fn advance_ns(&self, d: u64) {
        self.ns.fetch_add(d, Ordering::Relaxed);
    }

    /// A [`Clock`] reading this virtual counter. Hand it to every
    /// component whose timing the harness wants to control.
    pub fn clock(&self) -> Clock {
        Clock { src: TimeSource::Virtual(self.ns) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn clock_is_monotonic() {
        let c = Clock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        assert!(!c.is_virtual());
    }

    #[test]
    fn histogram_reexport_still_works() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let v = VirtualClock::new();
        let c = v.clock();
        assert!(c.is_virtual());
        assert_eq!(c.now_ns(), 0);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(c.now_ns(), 0, "virtual time ignores wall time");
        v.advance_ns(1_500);
        assert_eq!(c.now_ns(), 1_500);
    }

    #[test]
    fn virtual_clock_copies_share_the_counter() {
        let v = VirtualClock::new();
        let a = v.clock();
        let b = v.clock();
        let v2 = v; // Copy
        v2.advance_ns(7);
        assert_eq!(a.now_ns(), 7);
        assert_eq!(b.now_ns(), 7);
    }
}
