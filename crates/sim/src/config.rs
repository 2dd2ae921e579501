//! Simulation configuration: cluster shape, workload volume, the fault
//! scenario (chaos commands keyed on ticks), and optional intentional
//! bugs used to prove the oracles and the shrinker actually work.
//!
//! Everything here serializes into the trace file, so replaying a trace
//! needs no out-of-band context: `(config, schedule)` rebuilds the exact
//! run.

use pepc::cluster::Cluster;
use serde::{Deserialize, Serialize};

/// A scheduled fault-scenario command. Commands become *eligible* at
/// `at_tick`; the seeded scheduler decides exactly where inside the
/// tick's step interleaving they land (that placement is the thing being
/// explored).
///
/// Per-node and per-wire compose: each node has exactly one replication
/// wire, so `node` names both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosKind {
    /// Crash the node: replication wire severed (in-flight frames lost),
    /// data region blackholes until failover. Guarded no-op if the node
    /// is already killed/dead or is the last live node.
    Kill,
    /// Partition the node's replication wire: nothing crosses it, but
    /// frames queue and survive until a `Heal`.
    Partition,
    /// Heal a partition.
    Heal,
    /// Set the wire's fixed latency to `amount` pumps.
    Delay,
    /// Set the wire's drop chance to `amount` per-mille.
    Drop,
    /// Set the wire's duplicate chance to `amount` per-mille.
    Duplicate,
}

/// One chaos command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosCmd {
    /// Tick at which this command becomes schedulable.
    pub at_tick: u64,
    pub kind: ChaosKind,
    /// Node (= wire) the command targets.
    pub node: u32,
    /// `Delay`: pumps; `Drop`/`Duplicate`: per-mille probability.
    pub amount: u32,
}

/// Intentional defects, injected to prove a violated invariant produces
/// a failing, shrinkable, replayable trace (they model real bug classes:
/// `DoubleAdopt` is a failover controller adopting one IMSI onto two
/// survivors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BugKind {
    None,
    /// After every successful intra-node migration, also adopt the same
    /// IMSI onto a *different* live node — violating the single-owner
    /// invariant the `dup_imsi` oracle guards.
    DoubleAdopt,
    /// Disable the control plane's procedure-supervision timer while the
    /// workload still abandons a procedure mid-flight — the UE machine
    /// stays in a waiting state forever, which the `stuck_procedure`
    /// oracle exists to catch.
    StuckProcedure,
}

/// Full description of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Seed for both the workload generator and the scheduler.
    pub seed: u64,
    /// Cluster size (2..=8; ≥2 so a kill leaves a survivor).
    pub nodes: u32,
    /// Subscribers the workload attaches.
    pub users: u32,
    /// Tick budget: the scheduler stops advancing time here and drains
    /// what is still eligible.
    pub ticks: u64,
    /// HA counter-delta interval (the staleness bound on clean wires).
    pub counter_interval: u64,
    /// The fault scenario.
    pub chaos: Vec<ChaosCmd>,
    /// Intentional defect, if any.
    pub bug: BugKind,
    /// Check `max_counter_staleness ≤ counter_interval` on every
    /// failover. Only sound while replication wires are loss- and
    /// delay-free, so lossy scenarios turn it off.
    pub check_staleness: bool,
    /// Subscribers driven through the full per-message S1AP/NAS signaling
    /// path (attach handshake, optionally a handover) instead of the
    /// synthetic one-shot events. `0` disables signaling emulation and
    /// keeps the run byte-identical with pre-signaling builds.
    pub sig_users: u32,
    /// After attaching, signaling subscribers also run an S1 handover
    /// (HandoverRequired → HandoverRequest/Ack → HandoverCommand).
    pub sig_handover: bool,
    /// Control-plane procedure supervision timeout in ticks (`0` = off).
    /// When `> 0`, the `stuck_procedure` oracle asserts no UE stays
    /// mid-procedure beyond `2 × timeout + 2` ticks on a live node.
    pub procedure_timeout: u64,
    /// Storm devices: a synchronized wave of additional signaling
    /// subscribers whose attach attempts all become eligible at
    /// [`SimConfig::storm_tick`] (DESIGN.md §15). `0` disables the storm
    /// and keeps the run byte-identical with pre-storm builds.
    pub storm_users: u32,
    /// Tick at which the storm wave lands.
    pub storm_tick: u64,
    /// Enable control-plane admission control (per-eNodeB token bucket +
    /// in-flight ceiling) on every slice. Off = the storm hits an
    /// unprotected control plane.
    pub overload: bool,
    /// Signaling subscribers (a prefix of `sig_users`, skipping the
    /// attach abandoner) that run the idle cycle after attaching: S1
    /// release → buffered downlink → paging → Service Request wake. The
    /// last idler never answers its pages, so retransmission must
    /// escalate to expiry and drop its buffer. `0` disables the cycle
    /// and keeps runs byte-identical with pre-paging builds.
    pub idle_users: u32,
}

impl SimConfig {
    /// The acceptance scenario: a 2-node cluster, attaches + bearers,
    /// data traffic, intra-node migrations, and a kill landing mid-run —
    /// the scheduler decides exactly where the kill falls relative to
    /// migration, replication, pumping, and detection steps.
    pub fn two_node_failover(seed: u64) -> Self {
        SimConfig {
            seed,
            nodes: 2,
            users: 16,
            ticks: 32,
            counter_interval: 4,
            chaos: vec![ChaosCmd { at_tick: 10, kind: ChaosKind::Kill, node: (seed % 2) as u32, amount: 0 }],
            bug: BugKind::None,
            check_staleness: true,
            sig_users: 0,
            sig_handover: false,
            procedure_timeout: 0,
            storm_users: 0,
            storm_tick: 0,
            overload: false,
            idle_users: 0,
        }
    }

    /// A failover cascade on 4 nodes: node `a` dies at tick 8, and after
    /// its failover, at tick 20, so does the survivor its first region
    /// moved to — that region is adopted again.
    pub fn cascade_failover(seed: u64) -> Self {
        let kill = |at_tick, node: usize| ChaosCmd { at_tick, kind: ChaosKind::Kill, node: node as u32, amount: 0 };
        let a = (seed % 4) as usize;
        let mut cfg =
            SimConfig { nodes: 4, users: 24, ticks: 40, chaos: vec![kill(8, a)], ..Self::two_node_failover(seed) };
        let heir = cfg.first_region_heir(a).expect("a 4-node cluster fails a region over");
        cfg.chaos.push(kill(20, heir));
        cfg
    }

    /// The survivor node `victim`'s first region moves to when it dies:
    /// fail one user of that region over on the cluster the world builds.
    fn first_region_heir(&self, victim: usize) -> Option<usize> {
        let mut c = Cluster::new(self.nodes as usize, crate::world::template(self), None);
        let imsi = (0..).find(|&i| c.home_node(i) == victim && c.node_ref(victim).home_slice(i) == 0)?;
        c.attach(imsi);
        let rec = c.node(victim).slice(0).ctrl.record_of(imsi)?;
        c.power_off(victim).ok()?;
        c.repair_steering(victim).ok()?;
        Some(c.adopt_user(rec)?.0)
    }

    /// A 3-node cluster where one node's replication wire partitions and
    /// later heals. The detector declares the partitioned node dead
    /// (split-brain guard powers it off), so this explores
    /// failover-without-crash; staleness is unchecked because heartbeats
    /// stall.
    pub fn partition_heal(seed: u64) -> Self {
        SimConfig {
            seed,
            nodes: 3,
            users: 18,
            ticks: 36,
            counter_interval: 4,
            chaos: vec![
                ChaosCmd { at_tick: 8, kind: ChaosKind::Partition, node: (seed % 3) as u32, amount: 0 },
                ChaosCmd { at_tick: 22, kind: ChaosKind::Heal, node: (seed % 3) as u32, amount: 0 },
            ],
            bug: BugKind::None,
            check_staleness: false,
            sig_users: 0,
            sig_handover: false,
            procedure_timeout: 0,
            storm_users: 0,
            storm_tick: 0,
            overload: false,
            idle_users: 0,
        }
    }

    /// Lossy replication: delay, duplication, and drops on every wire
    /// plus a kill. Exercises the standby's reorder/gap tolerance under
    /// schedule exploration; staleness unchecked (delayed heartbeats).
    pub fn lossy_wires(seed: u64) -> Self {
        let mut chaos = Vec::new();
        for node in 0..3u32 {
            chaos.push(ChaosCmd { at_tick: 2, kind: ChaosKind::Delay, node, amount: 2 });
            chaos.push(ChaosCmd { at_tick: 2, kind: ChaosKind::Drop, node, amount: 100 });
            chaos.push(ChaosCmd { at_tick: 2, kind: ChaosKind::Duplicate, node, amount: 100 });
        }
        chaos.push(ChaosCmd { at_tick: 14, kind: ChaosKind::Kill, node: (seed % 3) as u32, amount: 0 });
        SimConfig {
            seed,
            nodes: 3,
            users: 18,
            ticks: 36,
            counter_interval: 4,
            chaos,
            bug: BugKind::None,
            check_staleness: false,
            sig_users: 0,
            sig_handover: false,
            procedure_timeout: 0,
            storm_users: 0,
            storm_tick: 0,
            overload: false,
            idle_users: 0,
        }
    }

    /// Kill a node while attach handshakes are mid-flight on it: six
    /// subscribers run the per-message S1AP/NAS attach, the kill lands at
    /// tick 4 (squarely inside the handshake window), and one subscriber
    /// deliberately abandons its attach after the first message — the
    /// supervision timer must reap it. Staleness is unchecked because
    /// half-finished procedures legitimately lose their users.
    pub fn kill_mid_attach(seed: u64) -> Self {
        SimConfig {
            seed,
            nodes: 2,
            users: 8,
            ticks: 40,
            counter_interval: 4,
            chaos: vec![ChaosCmd { at_tick: 4, kind: ChaosKind::Kill, node: (seed % 2) as u32, amount: 0 }],
            bug: BugKind::None,
            check_staleness: false,
            sig_users: 6,
            sig_handover: false,
            procedure_timeout: 6,
            storm_users: 0,
            storm_tick: 0,
            overload: false,
            idle_users: 0,
        }
    }

    /// A synchronized attach storm against an admission-controlled
    /// control plane: 24 storm devices all become eligible at tick 6 on
    /// top of steady data traffic and a few well-behaved signaling
    /// subscribers. Admission control is on, so the wave is partly shed
    /// with `CongestionReject` and the herd retries — the `no_livelock`
    /// oracle asserts in-flight procedures stay under the configured
    /// ceiling and steady-state data still forwards.
    pub fn attach_storm(seed: u64) -> Self {
        SimConfig {
            seed,
            nodes: 2,
            users: 12,
            ticks: 48,
            counter_interval: 4,
            chaos: vec![],
            bug: BugKind::None,
            check_staleness: true,
            sig_users: 4,
            sig_handover: false,
            procedure_timeout: 6,
            storm_users: 24,
            storm_tick: 6,
            overload: true,
            idle_users: 0,
        }
    }

    /// The storm plus a node kill landing mid-wave: half the herd's
    /// serving node dies while shed devices are retrying. Failover,
    /// supervision expiry, and admission shedding all interleave;
    /// staleness is unchecked (procedures legitimately lose users).
    pub fn storm_kill(seed: u64) -> Self {
        SimConfig {
            chaos: vec![ChaosCmd { at_tick: 10, kind: ChaosKind::Kill, node: (seed % 2) as u32, amount: 0 }],
            check_staleness: false,
            ..Self::attach_storm(seed)
        }
    }

    /// The storm on a 3-node cluster with a replication-wire partition
    /// opening mid-wave and healing late: the partitioned node is
    /// declared dead while holding herd procedures, exercising
    /// shed-then-failover-then-retry. Staleness unchecked (heartbeats
    /// stall across the partition).
    pub fn storm_partition(seed: u64) -> Self {
        SimConfig {
            nodes: 3,
            chaos: vec![
                ChaosCmd { at_tick: 8, kind: ChaosKind::Partition, node: (seed % 3) as u32, amount: 0 },
                ChaosCmd { at_tick: 22, kind: ChaosKind::Heal, node: (seed % 3) as u32, amount: 0 },
            ],
            check_staleness: false,
            ..Self::attach_storm(seed)
        }
    }

    /// Capacity ramp (ISSUE 9): the largest population the deterministic
    /// harness drives — enough attaches that the per-slice index tables
    /// double several times mid-run — plus a storm-wave of churn and a
    /// kill landing while the tables are still growing. Exercises
    /// incremental table growth, slab slot free/reuse, and
    /// failover-during-growth under the single-owner, conservation, and
    /// seqlock oracles. Staleness is unchecked (the kill lands mid-ramp,
    /// so half-finished procedures legitimately lose users).
    pub fn mass_attach_ramp(seed: u64) -> Self {
        SimConfig {
            seed,
            nodes: 2,
            users: 48,
            ticks: 56,
            counter_interval: 4,
            chaos: vec![ChaosCmd { at_tick: 12, kind: ChaosKind::Kill, node: (seed % 2) as u32, amount: 0 }],
            bug: BugKind::None,
            check_staleness: false,
            sig_users: 6,
            sig_handover: false,
            procedure_timeout: 6,
            storm_users: 16,
            storm_tick: 8,
            overload: true,
            idle_users: 0,
        }
    }

    /// The idle/paging acceptance scenario: signaling subscribers attach,
    /// release to idle, and have downlink arrive while suspended — the
    /// data path buffers, the control plane pages, and the subscriber
    /// wakes with a Service Request that flushes the buffer. The last
    /// idler ignores its pages, so retransmission must escalate to
    /// expiry and drop its buffer. The `stuck_idle` and
    /// `paging_accounting` oracles are the assertions.
    pub fn idle_wakeup_storm(seed: u64) -> Self {
        SimConfig {
            seed,
            nodes: 2,
            users: 8,
            ticks: 56,
            counter_interval: 4,
            chaos: vec![],
            bug: BugKind::None,
            check_staleness: true,
            sig_users: 6,
            sig_handover: false,
            procedure_timeout: 6,
            storm_users: 0,
            storm_tick: 0,
            overload: false,
            idle_users: 4,
        }
    }

    /// The idle cycle plus a node kill landing inside the paging window:
    /// pages in flight on the dying node are lost with its buffered
    /// downlink, survivors keep paging, and adoption re-activates the
    /// dead node's suspended UEs. Staleness is unchecked (suspended and
    /// mid-page users legitimately lose buffered state in the crash).
    pub fn kill_mid_paging(seed: u64) -> Self {
        SimConfig {
            chaos: vec![ChaosCmd { at_tick: 30, kind: ChaosKind::Kill, node: (seed % 2) as u32, amount: 0 }],
            check_staleness: false,
            ..Self::idle_wakeup_storm(seed)
        }
    }

    /// Intra-node slice migrations landing while S1 handovers are in
    /// flight: the migration drops the in-flight procedure machine (the
    /// snapshot carries only committed state), so the handover must abort
    /// cleanly — accounted, no stuck UE, no conservation leak.
    pub fn migrate_mid_handover(seed: u64) -> Self {
        SimConfig {
            seed,
            nodes: 3,
            users: 6,
            ticks: 48,
            counter_interval: 4,
            chaos: vec![],
            bug: BugKind::None,
            check_staleness: true,
            sig_users: 6,
            sig_handover: true,
            procedure_timeout: 6,
            storm_users: 0,
            storm_tick: 0,
            overload: false,
            idle_users: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepc_ha::{HaCluster, HaConfig};

    /// The cascade's second victim is the node the HA failover moved the
    /// first victim's first region to.
    #[test]
    fn cascade_kills_the_adopter() {
        for seed in 0..4 {
            let cfg = SimConfig::cascade_failover(seed);
            let (victim, heir) = (cfg.chaos[0].node as usize, cfg.chaos[1].node as usize);
            let mut ha = HaCluster::new(4, crate::world::template(&cfg), HaConfig::default());
            let first_region: Vec<u64> = (0..64u64)
                .filter(|&imsi| {
                    ha.attach(imsi) == victim && ha.cluster_ref().node_ref(victim).slice_of(imsi) == Some(0)
                })
                .collect();
            assert!(!first_region.is_empty(), "seed {seed}");
            ha.kill_node(victim).unwrap();
            for _ in 0..HaConfig::default().detector.dead_after {
                ha.tick();
            }
            assert_eq!(ha.failovers().len(), 1, "seed {seed}");
            assert!(first_region.iter().all(|&imsi| ha.owner_of(imsi) == Some(heir)), "seed {seed}");
        }
    }
}
