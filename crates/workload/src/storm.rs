//! Signaling-storm generators (ROADMAP item 3, DESIGN.md §15).
//!
//! "Characterizing Delay and Control Traffic of the Cellular MME with
//! IoT Support" (PAPERS.md) describes the regime these model: millions
//! of narrowband devices whose firmware wakes them on the same schedule,
//! so the MME sees *waves* of near-simultaneous attach attempts instead
//! of the uniform arrivals [`SignalingGen`]
//! produces. Three generator shapes:
//!
//! * [`WakeupWave`] — open-loop synchronized wake-up: every device fires
//!   once per period inside a small jitter window.
//! * [`BackoffHerd`] — closed-loop exponential backoff: the driver feeds
//!   rejects back in, and because all devices share the same backoff
//!   schedule the herd *re-collides* at each retry horizon — the classic
//!   storm that defeats naive rate limiting.
//! * [`StormMix`] — a storm wave overlaid on steady-state signaling, for
//!   measuring what the storm does to well-behaved traffic (the
//!   degradation-curve bench).
//!
//! All three are seeded and deterministic: same construction, same calls,
//! same event sequence — the property every consumer (bench, sim, CI)
//! relies on.

use crate::signaling::{SigEvent, SignalingGen};
use std::collections::VecDeque;

fn lcg_next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state
}

/// Open-loop synchronized wake-up wave: `devices` UEs each attempt one
/// attach per `period_ns`, all landing within `spread_ns` of the wave
/// start (spread 0 = perfectly synchronized).
///
/// Pull events with [`WakeupWave::pop_due`]; each is `(at_ns, imsi)` in
/// nondecreasing `at_ns` order.
pub struct WakeupWave {
    imsi_base: u64,
    devices: u64,
    period_ns: u64,
    spread_ns: u64,
    lcg: u64,
    /// Next wave index to schedule.
    wave: u64,
    /// Events of already-scheduled waves, sorted by (at_ns, imsi).
    pending: VecDeque<(u64, u64)>,
    issued: u64,
}

impl WakeupWave {
    pub fn new(seed: u64, imsi_base: u64, devices: u64, period_ns: u64, spread_ns: u64) -> Self {
        assert!(devices > 0 && period_ns > 0);
        WakeupWave {
            imsi_base,
            devices,
            period_ns,
            spread_ns,
            lcg: seed ^ 0x5707_4A11_57A7_1C5E,
            wave: 0,
            pending: VecDeque::new(),
            issued: 0,
        }
    }

    /// Events handed out so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn schedule_wave(&mut self) {
        let start = self.wave * self.period_ns;
        let mut events: Vec<(u64, u64)> = (0..self.devices)
            .map(|d| {
                let jitter = if self.spread_ns == 0 { 0 } else { lcg_next(&mut self.lcg) % self.spread_ns };
                (start + jitter, self.imsi_base + d)
            })
            .collect();
        events.sort_unstable();
        self.pending.extend(events);
        self.wave += 1;
    }

    /// Next `(at_ns, imsi)` due at or before `now_ns`, or `None` when the
    /// wave front has not reached `now_ns` yet.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        while self.pending.is_empty() && self.wave * self.period_ns <= now_ns {
            self.schedule_wave();
        }
        match self.pending.front() {
            Some(&(at, _)) if at <= now_ns => {
                self.issued += 1;
                self.pending.pop_front()
            }
            _ => None,
        }
    }
}

/// What the driver observed for one herd attempt, fed back via
/// [`BackoffHerd::on_result`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HerdOutcome {
    /// Attach finished; the device leaves the herd.
    Accepted,
    /// Shed/rejected with an explicit backoff hint (the
    /// `CongestionReject.backoff_ms`, in ns here). The device retries
    /// after `max(hint, base·2^attempts)`.
    Rejected { backoff_hint_ns: u64 },
    /// No answer (procedure expired); retry on the device's own
    /// exponential schedule.
    Timeout,
}

/// Closed-loop exponential-backoff herd. All devices make their first
/// attempt at `start_ns` (+ jitter); every rejected/timed-out device
/// computes the *same* backoff for the same attempt count, so the herd
/// re-collides at each retry horizon until something (admission control
/// shedding with real backoff, or acceptance) breaks the synchrony.
pub struct BackoffHerd {
    base_backoff_ns: u64,
    /// Exponent cap: backoff stops doubling at `base·2^max_exponent`.
    max_exponent: u32,
    jitter_ns: u64,
    lcg: u64,
    /// Retry schedule, kept sorted by (at_ns, imsi).
    pending: VecDeque<(u64, u64)>,
    /// Per-device attempt counts (imsi → attempts so far).
    attempts: std::collections::HashMap<u64, u32>,
    devices: u64,
    issued: u64,
    done: u64,
}

impl BackoffHerd {
    pub fn new(seed: u64, imsi_base: u64, devices: u64, start_ns: u64, base_backoff_ns: u64, jitter_ns: u64) -> Self {
        assert!(devices > 0 && base_backoff_ns > 0);
        let mut lcg = seed ^ 0xBAC0_FF5E_ED15_EA5E;
        let mut first: Vec<(u64, u64)> = (0..devices)
            .map(|d| {
                let j = if jitter_ns == 0 { 0 } else { lcg_next(&mut lcg) % jitter_ns };
                (start_ns + j, imsi_base + d)
            })
            .collect();
        first.sort_unstable();
        BackoffHerd {
            base_backoff_ns,
            max_exponent: 10,
            jitter_ns,
            lcg,
            pending: first.into(),
            attempts: std::collections::HashMap::new(),
            devices,
            issued: 0,
            done: 0,
        }
    }

    /// Devices still herding (not yet accepted).
    pub fn outstanding(&self) -> u64 {
        self.devices - self.done
    }

    /// Total attempts handed out so far (retries included).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Next `(at_ns, imsi)` attempt due at or before `now_ns`.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        match self.pending.front() {
            Some(&(at, _)) if at <= now_ns => {
                self.issued += 1;
                self.pending.pop_front()
            }
            _ => None,
        }
    }

    /// Feed back the driver's observation for `imsi`'s latest attempt.
    /// Rejections/timeouts reschedule the device; acceptance retires it.
    pub fn on_result(&mut self, imsi: u64, now_ns: u64, outcome: HerdOutcome) {
        match outcome {
            HerdOutcome::Accepted => {
                self.attempts.remove(&imsi);
                self.done += 1;
            }
            HerdOutcome::Rejected { .. } | HerdOutcome::Timeout => {
                let hint = match outcome {
                    HerdOutcome::Rejected { backoff_hint_ns } => backoff_hint_ns,
                    _ => 0,
                };
                let n = self.attempts.entry(imsi).or_insert(0);
                let exp = (*n).min(self.max_exponent);
                *n += 1;
                let own = self.base_backoff_ns << exp;
                let j = if self.jitter_ns == 0 { 0 } else { lcg_next(&mut self.lcg) % self.jitter_ns };
                let at = now_ns + own.max(hint) + j;
                // Insert keeping (at, imsi) order: retries land at the
                // back in practice (monotone now_ns), but a binary search
                // keeps the schedule exact regardless of call order.
                let pos = self.pending.partition_point(|&e| e <= (at, imsi));
                self.pending.insert(pos, (at, imsi));
            }
        }
    }
}

/// One event out of [`StormMix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixEvent {
    /// Well-behaved steady-state signaling (the traffic whose goodput the
    /// degradation curve tracks).
    Steady(SigEvent),
    /// A storm-wave attach attempt.
    Storm { at_ns: u64, imsi: u64 },
}

/// Storm-over-steady-state composition: a [`WakeupWave`] overlaid on a
/// [`SignalingGen`]. Storm events drain first at each poll (the wave
/// front is bursty by construction); steady events fill in at their
/// configured rate. Both halves are deterministic, so so is the merge.
pub struct StormMix {
    steady: SignalingGen,
    wave: WakeupWave,
}

impl StormMix {
    pub fn new(steady: SignalingGen, wave: WakeupWave) -> Self {
        StormMix { steady, wave }
    }

    /// Next event due at or before `now_ns`, storm first.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<MixEvent> {
        if let Some((at_ns, imsi)) = self.wave.pop_due(now_ns) {
            return Some(MixEvent::Storm { at_ns, imsi });
        }
        if self.steady.due(now_ns) > 0 {
            return Some(MixEvent::Steady(self.steady.next_event()));
        }
        None
    }

    pub fn storm_issued(&self) -> u64 {
        self.wave.issued()
    }

    pub fn steady_issued(&self) -> u64 {
        self.steady.issued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signaling::EventMix;

    #[test]
    fn wave_fires_all_devices_inside_the_spread_window() {
        let mut w = WakeupWave::new(7, 1000, 50, 1_000_000_000, 10_000_000);
        let mut seen = Vec::new();
        while let Some((at, imsi)) = w.pop_due(500_000_000) {
            assert!(at < 10_000_000, "event at {at} outside wave-0 spread");
            seen.push(imsi);
        }
        assert_eq!(seen.len(), 50, "every device wakes exactly once per wave");
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
        // Nothing more until the next period.
        assert_eq!(w.pop_due(999_999_999), None);
        assert!(w.pop_due(1_010_000_000).is_some(), "wave 1 lands within period + spread");
    }

    #[test]
    fn wave_zero_spread_is_perfectly_synchronized() {
        let mut w = WakeupWave::new(1, 0, 10, 1_000, 0);
        for _ in 0..10 {
            let (at, _) = w.pop_due(0).expect("due at t=0");
            assert_eq!(at, 0);
        }
        assert_eq!(w.pop_due(999), None);
    }

    #[test]
    fn wave_same_seed_same_schedule() {
        let collect = |seed| {
            let mut w = WakeupWave::new(seed, 0, 20, 1_000_000, 1000);
            let mut v = Vec::new();
            while let Some(e) = w.pop_due(3_000_000) {
                v.push(e);
            }
            v
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43), "different seeds explore different jitter");
    }

    #[test]
    fn herd_recollides_after_synchronized_rejects() {
        let mut h = BackoffHerd::new(9, 0, 8, 0, 1_000_000, 0);
        // First volley: everyone due at t=0.
        let mut volley = Vec::new();
        while let Some((_, imsi)) = h.pop_due(0) {
            volley.push(imsi);
        }
        assert_eq!(volley.len(), 8);
        // Reject them all at t=0: with zero jitter every retry lands at
        // exactly base backoff — the herd re-collides.
        for imsi in &volley {
            h.on_result(*imsi, 0, HerdOutcome::Rejected { backoff_hint_ns: 0 });
        }
        assert_eq!(h.pop_due(999_999), None, "nothing due before the backoff horizon");
        let mut second = 0;
        while h.pop_due(1_000_000).is_some() {
            second += 1;
        }
        assert_eq!(second, 8, "entire herd re-collides at t=base");
        // Second reject doubles the horizon (exponential backoff).
        for imsi in &volley {
            h.on_result(*imsi, 1_000_000, HerdOutcome::Rejected { backoff_hint_ns: 0 });
        }
        assert_eq!(h.pop_due(2_999_999), None);
        assert!(h.pop_due(3_000_000).is_some(), "retry 2 at now + 2x base");
    }

    #[test]
    fn herd_honors_server_backoff_hint() {
        let mut h = BackoffHerd::new(3, 0, 1, 0, 1_000, 0);
        let (_, imsi) = h.pop_due(0).unwrap();
        // Server hands a hint far above the device's own schedule.
        h.on_result(imsi, 0, HerdOutcome::Rejected { backoff_hint_ns: 50_000 });
        assert_eq!(h.pop_due(49_999), None, "server backoff respected");
        assert!(h.pop_due(50_000).is_some());
    }

    #[test]
    fn herd_accepted_devices_retire() {
        let mut h = BackoffHerd::new(3, 0, 4, 0, 1_000, 0);
        let mut first = Vec::new();
        while let Some((_, imsi)) = h.pop_due(0) {
            first.push(imsi);
        }
        h.on_result(first[0], 0, HerdOutcome::Accepted);
        h.on_result(first[1], 0, HerdOutcome::Accepted);
        h.on_result(first[2], 0, HerdOutcome::Timeout);
        h.on_result(first[3], 0, HerdOutcome::Rejected { backoff_hint_ns: 0 });
        assert_eq!(h.outstanding(), 2, "two retired, two retrying");
        let mut retries = 0;
        while h.pop_due(u64::MAX / 2).is_some() {
            retries += 1;
        }
        assert_eq!(retries, 2);
    }

    #[test]
    fn mix_interleaves_storm_over_steady() {
        let steady = SignalingGen::new(0, 100, 1_000, EventMix::attaches_only());
        let wave = WakeupWave::new(5, 10_000, 30, 1_000_000_000, 0);
        let mut mix = StormMix::new(steady, wave);
        let mut storm = 0;
        let mut steady_n = 0;
        // Poll at 10 ms: the whole wave (30) plus 10 steady events due.
        while let Some(e) = mix.pop_due(10_000_000) {
            match e {
                MixEvent::Storm { .. } => storm += 1,
                MixEvent::Steady(_) => steady_n += 1,
            }
        }
        assert_eq!(storm, 30);
        assert_eq!(steady_n, 10);
        assert_eq!(mix.storm_issued(), 30);
        assert_eq!(mix.steady_issued(), 10);
    }
}
