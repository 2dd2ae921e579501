//! Control-plane admission control for signaling storms (DESIGN.md §15).
//!
//! A real MME's failure mode under a synchronized IoT wake-up wave is
//! *livelock*: every cycle goes into accepting new attach attempts that
//! will time out before they finish, so goodput collapses to zero while
//! the control plane is 100% busy. The fix is to shed load **at the
//! front door** — before any routing, user-table, or backend work is
//! spent — and to shed it **in priority order** with an explicit,
//! signaled back-off so the herd stops hammering.
//!
//! Three mechanisms compose (all opt-in via
//! [`OverloadConfig`], disabled =
//! byte-identical legacy behavior):
//!
//! 1. **Per-eNodeB token bucket.** Procedure-*starting* messages
//!    (attach, service request, TAU) draw one token from a bucket keyed
//!    by the originating ECGI, refilled at `enb_rate_per_tick` on the
//!    supervision clock up to `enb_burst`. A synchronized wave from one
//!    cell exhausts its own bucket without starving quiet cells —
//!    SoftCell's "aggregate at the edge" placement cue.
//! 2. **Global in-flight ceiling.** At or above `max_in_flight` open
//!    procedures, new work is shed regardless of which eNodeB sent it:
//!    finishing procedures already started is always cheaper than
//!    opening more (that is what makes degradation *graceful*).
//! 3. **Priority classes.** Handover-class messages (an active call
//!    moving between cells) outrank attach/service-class, which outrank
//!    periodic TAU. Handover bypasses the per-eNodeB buckets entirely
//!    and gets 2× ceiling headroom; TAU admits only while its bucket is
//!    more than half full, so it is the first class to shed. A per-tick
//!    latch makes shedding monotone in time as well: once a class sheds,
//!    every strictly lower class is refused for the rest of that tick,
//!    so the limiter never admits background TAU after refusing an
//!    attach in the same tick.
//!
//! Every shed is answered with [`NasMsg::CongestionReject`] carrying
//! `backoff_ms` and counted in the per-class `sig_shed_*` taxonomy, so
//! `s1ap_rx == consumed + deduped + dropped + overflow + shed + backlog`
//! stays exact (see `CtrlMetrics::signaling_conservation_holds`).

use crate::config::OverloadConfig;
use pepc_sigproto::nas::NasMsg;
use pepc_sigproto::s1ap::S1apPdu;
use std::collections::HashMap;

/// Priority class of an inbound signaling message. Ordering is by
/// `rank()`: numerically smaller = higher priority, shed last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SigClass {
    /// Handover / path-switch: an active session is mid-move; dropping it
    /// drops a live call. Highest priority.
    Handover,
    /// Attach and service-request: new sessions and idle→active wakeups.
    Attach,
    /// Periodic tracking-area updates: pure bookkeeping the UE will retry
    /// on its own schedule anyway. First to shed.
    Tau,
}

impl SigClass {
    /// Priority rank: 0 is the highest class (shed last).
    pub fn rank(self) -> u8 {
        match self {
            SigClass::Handover => 0,
            SigClass::Attach => 1,
            SigClass::Tau => 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: u32,
    last_tick: u64,
}

/// The admission controller: one per [`ControlPlane`](crate::ctrl::ControlPlane),
/// consulted once per inbound procedure-starting PDU, before routing.
#[derive(Debug)]
pub struct AdmissionControl {
    cfg: OverloadConfig,
    /// Per-eNodeB token buckets, keyed by ECGI (lazily created and
    /// lazily refilled on the supervision tick).
    buckets: HashMap<u32, Bucket>,
    /// Lowest-priority rank still admissible this tick: when a class is
    /// shed its rank latches here and every strictly lower class is
    /// refused until the tick advances.
    latch_rank: u8,
    latch_tick: u64,
}

impl AdmissionControl {
    pub fn new(cfg: OverloadConfig) -> Self {
        AdmissionControl { cfg, buckets: HashMap::new(), latch_rank: u8::MAX, latch_tick: 0 }
    }

    /// Swap in a new policy (used by the slice at construction; buckets
    /// reset because their depths depend on the config).
    pub fn set_config(&mut self, cfg: OverloadConfig) {
        self.cfg = cfg;
        self.buckets.clear();
        self.latch_rank = u8::MAX;
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    pub fn backoff_ms(&self) -> u16 {
        self.cfg.backoff_ms
    }

    /// Decide admission for one message; consumes a token when admitted.
    /// `in_flight` is the current open-procedure count and `now_tick` the
    /// supervision clock.
    pub fn admit(&mut self, class: SigClass, ecgi: u32, in_flight: u64, now_tick: u64) -> bool {
        if !self.cfg.enabled {
            return true;
        }
        if now_tick != self.latch_tick {
            self.latch_tick = now_tick;
            self.latch_rank = u8::MAX;
        }
        // A higher class was already shed this tick: refuse without
        // consuming anything, so shedding stays monotone in priority
        // for the rest of the tick.
        if class.rank() > self.latch_rank {
            return false;
        }
        if !self.check(class, ecgi, in_flight, now_tick) {
            self.latch_rank = self.latch_rank.min(class.rank());
            return false;
        }
        true
    }

    /// The pure decision [`admit`](Self::admit) would take right now,
    /// without consuming a token or moving the latch — the probe the
    /// priority-monotonicity property tests against.
    pub fn would_admit(&self, class: SigClass, ecgi: u32, in_flight: u64, now_tick: u64) -> bool {
        if !self.cfg.enabled {
            return true;
        }
        if now_tick == self.latch_tick && class.rank() > self.latch_rank {
            return false;
        }
        if !self.ceiling_ok(class, in_flight) {
            return false;
        }
        if class == SigClass::Handover || self.cfg.enb_rate_per_tick == 0 {
            return true;
        }
        let avail = match self.buckets.get(&ecgi) {
            Some(b) => self.refilled(b, now_tick),
            None => self.cfg.enb_burst,
        };
        avail > self.reserve(class)
    }

    fn ceiling_ok(&self, class: SigClass, in_flight: u64) -> bool {
        let ceiling = u64::from(self.cfg.max_in_flight);
        if ceiling == 0 {
            return true;
        }
        // Handover gets 2x headroom: it is only refused when the control
        // plane is far past the point where attach-class already sheds.
        let limit = if class == SigClass::Handover { ceiling * 2 } else { ceiling };
        in_flight < limit
    }

    /// Tokens a bucket would hold at `now_tick` after lazy refill.
    fn refilled(&self, b: &Bucket, now_tick: u64) -> u32 {
        let elapsed = now_tick.saturating_sub(b.last_tick);
        let refill = elapsed.saturating_mul(u64::from(self.cfg.enb_rate_per_tick));
        (u64::from(b.tokens) + refill).min(u64::from(self.cfg.enb_burst)) as u32
    }

    /// Bucket floor below which this class no longer admits. TAU keeps a
    /// half-bucket reserve so attach-class always has strictly more
    /// tokens to draw on than TAU does.
    fn reserve(&self, class: SigClass) -> u32 {
        match class {
            SigClass::Tau => self.cfg.enb_burst / 2,
            _ => 0,
        }
    }

    fn check(&mut self, class: SigClass, ecgi: u32, in_flight: u64, now_tick: u64) -> bool {
        if !self.ceiling_ok(class, in_flight) {
            return false;
        }
        // Handover never draws from the per-eNodeB buckets: a mid-call
        // move must not compete with an attach storm for tokens.
        if class == SigClass::Handover || self.cfg.enb_rate_per_tick == 0 {
            return true;
        }
        let burst = self.cfg.enb_burst;
        let rate = self.cfg.enb_rate_per_tick;
        let b = self.buckets.entry(ecgi).or_insert(Bucket { tokens: burst, last_tick: now_tick });
        if now_tick > b.last_tick {
            let refill = (now_tick - b.last_tick).saturating_mul(u64::from(rate));
            b.tokens = (u64::from(b.tokens) + refill).min(u64::from(burst)) as u32;
            b.last_tick = now_tick;
        }
        let reserve = match class {
            SigClass::Tau => burst / 2,
            _ => 0,
        };
        if b.tokens <= reserve {
            return false;
        }
        b.tokens -= 1;
        true
    }

    // -- telemetry gauges ----------------------------------------------------

    /// eNodeBs with a live bucket (the limiter's working-set size).
    pub fn tracked_enbs(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Tokens currently available across all buckets (order-independent
    /// sum, so it is deterministic despite HashMap storage). Raw stored
    /// tokens — pending lazy refills are not projected forward.
    pub fn tokens_available(&self) -> u64 {
        self.buckets.values().map(|b| u64::from(b.tokens)).sum()
    }
}

/// Classify a PDU for admission. `None` means the message is not subject
/// to admission control at all: mid-procedure legs (auth response, SMC,
/// ICS response, attach complete) are always admitted — finishing work
/// already started is the whole point of shedding new work — and so are
/// detaches (they *reduce* load) and release/error PDUs.
///
/// Returns `(class, ecgi, enb_ue_id, mme_ue_id)`; the ids address the
/// `CongestionReject` if the message is shed.
pub fn classify_for_admission(pdu: &S1apPdu) -> Option<(SigClass, u32, u32, u32)> {
    match pdu {
        S1apPdu::InitialUeMessage { enb_ue_id, ecgi, nas, .. } => match NasMsg::decode(nas) {
            Ok(NasMsg::AttachRequest { .. }) | Ok(NasMsg::ServiceRequest { .. }) => {
                Some((SigClass::Attach, *ecgi, *enb_ue_id, 0))
            }
            _ => None,
        },
        S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas } => match NasMsg::decode(nas) {
            // TAU carries no ECGI on this transport; all TAU shares the
            // 0-keyed bucket, which is fine — it is the first class shed.
            Ok(NasMsg::TrackingAreaUpdateRequest { .. }) => Some((SigClass::Tau, 0, *enb_ue_id, *mme_ue_id)),
            _ => None,
        },
        S1apPdu::HandoverRequired { enb_ue_id, mme_ue_id, .. } => Some((SigClass::Handover, 0, *enb_ue_id, *mme_ue_id)),
        S1apPdu::HandoverRequestAck { mme_ue_id, .. } => Some((SigClass::Handover, 0, 0, *mme_ue_id)),
        S1apPdu::PathSwitchRequest { enb_ue_id, mme_ue_id, .. } => {
            Some((SigClass::Handover, 0, *enb_ue_id, *mme_ue_id))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverloadConfig;

    fn cfg(rate: u32, burst: u32, ceiling: u32) -> OverloadConfig {
        OverloadConfig {
            enabled: true,
            enb_rate_per_tick: rate,
            enb_burst: burst,
            max_in_flight: ceiling,
            backoff_ms: 500,
        }
    }

    #[test]
    fn disabled_admits_everything() {
        let mut ac = AdmissionControl::new(OverloadConfig::default());
        for i in 0..10_000u64 {
            assert!(ac.admit(SigClass::Tau, 1, i, 0));
        }
        assert_eq!(ac.tracked_enbs(), 0, "disabled controller allocates nothing");
    }

    #[test]
    fn bucket_exhausts_then_refills_on_tick() {
        let mut ac = AdmissionControl::new(cfg(2, 4, 0));
        // Burst of 4 admitted, 5th shed.
        for _ in 0..4 {
            assert!(ac.admit(SigClass::Attach, 7, 0, 1));
        }
        assert!(!ac.admit(SigClass::Attach, 7, 0, 1));
        assert_eq!(ac.tokens_available(), 0);
        // Next tick refills 2 tokens.
        assert!(ac.admit(SigClass::Attach, 7, 0, 2));
        assert!(ac.admit(SigClass::Attach, 7, 0, 2));
        assert!(!ac.admit(SigClass::Attach, 7, 0, 2));
        // A long idle gap refills only to the burst cap.
        assert!(ac.would_admit(SigClass::Attach, 7, 0, 1000));
        ac.admit(SigClass::Attach, 7, 0, 1000);
        assert_eq!(ac.tokens_available(), 3, "capped at burst, then one drawn");
    }

    #[test]
    fn buckets_are_per_enb() {
        let mut ac = AdmissionControl::new(cfg(1, 2, 0));
        assert!(ac.admit(SigClass::Attach, 1, 0, 1));
        assert!(ac.admit(SigClass::Attach, 1, 0, 1));
        assert!(!ac.admit(SigClass::Attach, 1, 0, 1), "cell 1 exhausted");
        assert!(ac.admit(SigClass::Attach, 2, 0, 1), "cell 2 untouched");
        assert_eq!(ac.tracked_enbs(), 2);
    }

    #[test]
    fn tau_sheds_before_attach() {
        // burst 8 → TAU reserve 4: TAU admits 4 times, then attach still
        // has 4 tokens to draw. (Same tick throughout, so no refill.)
        let mut ac = AdmissionControl::new(cfg(1, 8, 0));
        let mut tau_admitted = 0;
        while ac.admit(SigClass::Tau, 3, 0, 1) {
            tau_admitted += 1;
        }
        assert_eq!(tau_admitted, 4);
        for _ in 0..4 {
            assert!(ac.admit(SigClass::Attach, 3, 0, 1), "attach draws the TAU reserve");
        }
        assert!(!ac.admit(SigClass::Attach, 3, 0, 1));
    }

    #[test]
    fn ceiling_sheds_attach_before_handover() {
        let mut ac = AdmissionControl::new(cfg(0, 0, 10));
        assert!(ac.admit(SigClass::Attach, 1, 9, 1));
        assert!(!ac.would_admit(SigClass::Attach, 1, 10, 2));
        assert!(ac.would_admit(SigClass::Handover, 1, 10, 2), "handover keeps 2x headroom");
        assert!(ac.admit(SigClass::Handover, 1, 19, 2));
        assert!(!ac.admit(SigClass::Handover, 1, 20, 3));
    }

    #[test]
    fn shed_latches_lower_classes_for_the_tick() {
        let mut ac = AdmissionControl::new(cfg(1, 2, 0));
        assert!(ac.admit(SigClass::Attach, 5, 0, 1));
        assert!(ac.admit(SigClass::Attach, 5, 0, 1));
        assert!(!ac.admit(SigClass::Attach, 5, 0, 1), "bucket empty");
        // TAU from a *different, full-bucket* eNodeB is still refused:
        // once attach-class shed anywhere this tick, lower classes shed
        // everywhere until the tick advances.
        assert!(!ac.admit(SigClass::Tau, 6, 0, 1));
        assert!(!ac.would_admit(SigClass::Tau, 6, 0, 1));
        // Handover (higher class) is unaffected by the latch.
        assert!(ac.admit(SigClass::Handover, 6, 0, 1));
        // Tick advance clears the latch; eNB 6's bucket was never drawn.
        assert!(ac.admit(SigClass::Tau, 6, 0, 2));
    }

    #[test]
    fn shed_decision_is_monotone_in_class_at_every_state() {
        // Whatever state the controller is in, would_admit must be
        // monotone: a class refused implies every lower class refused.
        let mut ac = AdmissionControl::new(cfg(1, 4, 6));
        let classes = [SigClass::Handover, SigClass::Attach, SigClass::Tau];
        let mut step = 0u64;
        for tick in 1..20u64 {
            for in_flight in [0u64, 3, 6, 12, 13] {
                for ecgi in [1u32, 2] {
                    for &c in &classes {
                        let decisions: Vec<bool> =
                            classes.iter().map(|&k| ac.would_admit(k, ecgi, in_flight, tick)).collect();
                        for w in decisions.windows(2) {
                            assert!(
                                w[0] || !w[1],
                                "lower class admitted while higher shed: {decisions:?} tick {tick} in_flight {in_flight}"
                            );
                        }
                        // Interleave real admissions to move the state.
                        if step.is_multiple_of(3) {
                            ac.admit(c, ecgi, in_flight, tick);
                        }
                        step += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn classify_targets_only_procedure_starts() {
        use pepc_sigproto::nas::NasMsg;
        let attach = S1apPdu::InitialUeMessage {
            enb_ue_id: 9,
            ecgi: 0x77,
            tac: 1,
            nas: NasMsg::AttachRequest { imsi: 404_02_0000000001, ue_capability: 0 }.encode(),
        };
        assert_eq!(classify_for_admission(&attach), Some((SigClass::Attach, 0x77, 9, 0)));
        let svc = S1apPdu::InitialUeMessage {
            enb_ue_id: 9,
            ecgi: 0x78,
            tac: 1,
            nas: NasMsg::ServiceRequest { guti: 0xD00D }.encode(),
        };
        assert_eq!(classify_for_admission(&svc), Some((SigClass::Attach, 0x78, 9, 0)));
        let tau = S1apPdu::UplinkNasTransport {
            enb_ue_id: 9,
            mme_ue_id: 4,
            nas: NasMsg::TrackingAreaUpdateRequest { guti: 0xD00D, tac: 2 }.encode(),
        };
        assert_eq!(classify_for_admission(&tau), Some((SigClass::Tau, 0, 9, 4)));
        let ho = S1apPdu::HandoverRequired { enb_ue_id: 9, mme_ue_id: 4, target_ecgi: 0x99 };
        assert_eq!(classify_for_admission(&ho).map(|c| c.0), Some(SigClass::Handover));
        // Mid-procedure legs and load-reducing messages are exempt.
        let auth = S1apPdu::UplinkNasTransport {
            enb_ue_id: 9,
            mme_ue_id: 4,
            nas: NasMsg::AuthenticationResponse { res: 1 }.encode(),
        };
        assert_eq!(classify_for_admission(&auth), None);
        let detach = S1apPdu::UplinkNasTransport {
            enb_ue_id: 9,
            mme_ue_id: 4,
            nas: NasMsg::DetachRequest { guti: 0xD00D }.encode(),
        };
        assert_eq!(classify_for_admission(&detach), None);
        let ics = S1apPdu::InitialContextSetupResponse { enb_ue_id: 9, mme_ue_id: 4, enb_teid: 1, enb_ip: 2 };
        assert_eq!(classify_for_admission(&ics), None);
    }
}
