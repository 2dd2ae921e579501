//! Signaling event streams — the paper's second experiment category
//! (§5.1): synthetic control updates "corresponding to attach requests
//! and S1-based handovers [...] uniformly distributed across the number
//! of user devices", at a configurable rate.

/// One signaling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigEvent {
    Attach { imsi: u64 },
    S1Handover { imsi: u64, new_enb_teid: u32, new_enb_ip: u32 },
}

impl From<SigEvent> for pepc::ctrl::CtrlEvent {
    fn from(ev: SigEvent) -> Self {
        match ev {
            SigEvent::Attach { imsi } => Self::Attach { imsi },
            SigEvent::S1Handover { imsi, new_enb_teid, new_enb_ip } => {
                Self::S1Handover { imsi, new_enb_teid, new_enb_ip }
            }
        }
    }
}

/// What mix of events to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventMix {
    /// Fraction of events that are attaches (rest are S1 handovers).
    pub attach_fraction: f64,
}

impl EventMix {
    pub fn attaches_only() -> Self {
        EventMix { attach_fraction: 1.0 }
    }

    pub fn handovers_only() -> Self {
        EventMix { attach_fraction: 0.0 }
    }
}

/// Deterministic event stream: `rate` events per second, uniform over
/// `[imsi_base, imsi_base + users)`.
pub struct SignalingGen {
    imsi_base: u64,
    users: u64,
    rate_per_sec: u64,
    mix: EventMix,
    issued: u64,
    lcg: u64,
    /// Rotates eNodeB endpoints for handover events.
    enb_counter: u32,
}

impl SignalingGen {
    pub fn new(imsi_base: u64, users: u64, rate_per_sec: u64, mix: EventMix) -> Self {
        assert!(users > 0);
        SignalingGen { imsi_base, users, rate_per_sec, mix, issued: 0, lcg: 0x2545_F491_4F6C_DD1D, enb_counter: 0 }
    }

    /// Events per second this stream targets.
    pub fn rate(&self) -> u64 {
        self.rate_per_sec
    }

    /// Total events issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// How many events are due by `elapsed_ns` that have not yet been
    /// issued. Call [`SignalingGen::next_event`] that many times.
    pub fn due(&self, elapsed_ns: u64) -> u64 {
        let target = (elapsed_ns as u128 * self.rate_per_sec as u128 / 1_000_000_000) as u64;
        target.saturating_sub(self.issued)
    }

    /// Produce the next event.
    pub fn next_event(&mut self) -> SigEvent {
        self.issued += 1;
        self.lcg = self.lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let imsi = self.imsi_base + (self.lcg >> 33) % self.users;
        let attach = if self.mix.attach_fraction >= 1.0 {
            true
        } else if self.mix.attach_fraction <= 0.0 {
            false
        } else {
            // Low bits of the LCG pick the event type.
            (self.lcg & 0xFFFF) as f64 / 65536.0 < self.mix.attach_fraction
        };
        if attach {
            SigEvent::Attach { imsi }
        } else {
            self.enb_counter = self.enb_counter.wrapping_add(1);
            SigEvent::S1Handover {
                imsi,
                new_enb_teid: 0xE000_0000 + (self.enb_counter & 0xFFFF),
                new_enb_ip: 0xC0A8_0001 + (self.enb_counter % 64),
            }
        }
    }
}

// -- overlapping-procedure streams (PR 6) -----------------------------------

/// One abstract step of a UE signaling procedure script. Steps are
/// templates: the driver that replays them fills in transport
/// identifiers (eNB UE id, MME UE id, GUTI) from the responses it has
/// observed so far, so a step stays replayable even when an overlapping
/// procedure preempted the one it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcStep {
    /// Initial UE message carrying a NAS Attach Request.
    AttachStart,
    /// NAS Authentication Response (RES computed from the last challenge).
    AuthResponse,
    /// NAS Security Mode Complete.
    SecurityModeComplete,
    /// Initial Context Setup Response from the eNodeB.
    IcsResponse,
    /// NAS Attach Complete.
    AttachComplete,
    /// S1 Handover Required from the source eNodeB.
    HoRequired,
    /// S1 Handover Request Ack from the target eNodeB.
    HoAck,
    /// NAS Detach Request (GUTI-addressed).
    Detach,
    /// Bearer modification control event (AMBR change).
    BearerModify,
    /// eNodeB UE Context Release Request (active→idle; S1 release).
    ReleaseRequest,
    /// Network-triggered page (downlink arrived for the idle UE).
    PageTrigger,
    /// NAS Service Request (GUTI-addressed; idle→active, answers a page).
    ServiceRequest,
}

/// The five procedure scripts the interleaving matrix shuffles. A
/// duplicate attach is the same script replayed on the same S1
/// association, so it shares [`attach_script`].
pub fn attach_script() -> Vec<ProcStep> {
    vec![
        ProcStep::AttachStart,
        ProcStep::AuthResponse,
        ProcStep::SecurityModeComplete,
        ProcStep::IcsResponse,
        ProcStep::AttachComplete,
    ]
}

pub fn handover_script() -> Vec<ProcStep> {
    vec![ProcStep::HoRequired, ProcStep::HoAck]
}

pub fn detach_script() -> Vec<ProcStep> {
    vec![ProcStep::Detach]
}

pub fn bearer_script() -> Vec<ProcStep> {
    vec![ProcStep::BearerModify]
}

/// The paging race: the UE is released to idle, downlink triggers a
/// page, and the UE answers with a Service Request. Shuffled against
/// attach/detach streams this exercises every page-vs-signaling race.
pub fn page_race_script() -> Vec<ProcStep> {
    vec![ProcStep::ReleaseRequest, ProcStep::PageTrigger, ProcStep::ServiceRequest]
}

/// Seeded shuffle of several procedure scripts into one message stream.
///
/// Each call to [`OverlapGen::next_step`] picks one still-nonempty
/// stream uniformly (seeded LCG) and pops its next step, so intra-stream
/// order is always preserved while streams overlap arbitrarily — the
/// generator form of the exhaustive pairwise enumeration in
/// `tests/procedure_interleavings.rs`, usable at K > 2 streams where
/// enumeration would explode.
pub struct OverlapGen {
    lcg: u64,
    streams: Vec<(u32, std::collections::VecDeque<ProcStep>)>,
}

impl OverlapGen {
    pub fn new(seed: u64, scripts: Vec<(u32, Vec<ProcStep>)>) -> Self {
        OverlapGen {
            // Avoid the all-zero LCG fixed point.
            lcg: seed ^ 0x9E37_79B9_7F4A_7C15,
            streams: scripts.into_iter().map(|(tag, s)| (tag, s.into())).collect(),
        }
    }

    /// Steps not yet emitted.
    pub fn remaining(&self) -> usize {
        self.streams.iter().map(|(_, s)| s.len()).sum()
    }

    /// Emit the next `(stream_tag, step)`, or `None` when all streams
    /// are drained.
    pub fn next_step(&mut self) -> Option<(u32, ProcStep)> {
        let live: Vec<usize> =
            self.streams.iter().enumerate().filter(|(_, (_, s))| !s.is_empty()).map(|(i, _)| i).collect();
        if live.is_empty() {
            return None;
        }
        self.lcg = self.lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pick = live[((self.lcg >> 33) as usize) % live.len()];
        let (tag, stream) = &mut self.streams[pick];
        Some((*tag, stream.pop_front().expect("picked non-empty")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_follows_rate() {
        let g = SignalingGen::new(0, 100, 10_000, EventMix::attaches_only());
        assert_eq!(g.due(0), 0);
        assert_eq!(g.due(1_000_000), 10); // 1 ms at 10K/s
        assert_eq!(g.due(1_000_000_000), 10_000);
    }

    #[test]
    fn issuing_reduces_due() {
        let mut g = SignalingGen::new(0, 100, 1000, EventMix::attaches_only());
        assert_eq!(g.due(10_000_000), 10);
        for _ in 0..10 {
            g.next_event();
        }
        assert_eq!(g.due(10_000_000), 0);
        assert_eq!(g.issued(), 10);
    }

    #[test]
    fn events_cover_population_uniformly() {
        let mut g = SignalingGen::new(1000, 10, 1, EventMix::attaches_only());
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            match g.next_event() {
                SigEvent::Attach { imsi } => counts[(imsi - 1000) as usize] += 1,
                _ => unreachable!(),
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "imsi offset {i}: {c}");
        }
    }

    #[test]
    fn mix_controls_event_types() {
        let mut g = SignalingGen::new(0, 100, 1, EventMix { attach_fraction: 0.5 });
        let mut attaches = 0;
        let mut handovers = 0;
        for _ in 0..10_000 {
            match g.next_event() {
                SigEvent::Attach { .. } => attaches += 1,
                SigEvent::S1Handover { .. } => handovers += 1,
            }
        }
        assert!((4000..6000).contains(&attaches), "{attaches}");
        assert!((4000..6000).contains(&handovers), "{handovers}");
    }

    #[test]
    fn handover_endpoints_rotate() {
        let mut g = SignalingGen::new(0, 10, 1, EventMix::handovers_only());
        let e1 = g.next_event();
        let e2 = g.next_event();
        match (e1, e2) {
            (SigEvent::S1Handover { new_enb_teid: t1, .. }, SigEvent::S1Handover { new_enb_teid: t2, .. }) => {
                assert_ne!(t1, t2)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_rate_never_due() {
        let g = SignalingGen::new(0, 10, 0, EventMix::attaches_only());
        assert_eq!(g.due(u64::MAX / 2), 0);
    }

    fn collect(mut g: OverlapGen) -> Vec<(u32, ProcStep)> {
        let mut out = Vec::new();
        while let Some(s) = g.next_step() {
            out.push(s);
        }
        out
    }

    #[test]
    fn overlap_emits_every_step_exactly_once() {
        let g = OverlapGen::new(7, vec![(1, attach_script()), (2, handover_script()), (3, detach_script())]);
        assert_eq!(g.remaining(), 8);
        let steps = collect(g);
        assert_eq!(steps.len(), 8);
        assert_eq!(steps.iter().filter(|(t, _)| *t == 1).count(), 5);
        assert_eq!(steps.iter().filter(|(t, _)| *t == 2).count(), 2);
        assert_eq!(steps.iter().filter(|(t, _)| *t == 3).count(), 1);
    }

    #[test]
    fn overlap_preserves_intra_stream_order() {
        for seed in 0..50 {
            let steps = collect(OverlapGen::new(seed, vec![(1, attach_script()), (2, attach_script())]));
            for tag in [1u32, 2] {
                let order: Vec<ProcStep> = steps.iter().filter(|(t, _)| *t == tag).map(|&(_, s)| s).collect();
                assert_eq!(order, attach_script(), "seed {seed} tag {tag}");
            }
        }
    }

    #[test]
    fn overlap_same_seed_is_deterministic_and_seeds_differ() {
        let mk = |seed| collect(OverlapGen::new(seed, vec![(1, attach_script()), (2, handover_script())]));
        assert_eq!(mk(42), mk(42));
        let distinct: std::collections::HashSet<Vec<(u32, ProcStep)>> = (0..20).map(mk).collect();
        assert!(distinct.len() > 1, "seeds must explore different interleavings");
    }
}
