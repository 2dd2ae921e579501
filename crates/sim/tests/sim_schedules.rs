//! Acceptance suite for the deterministic simulator.
//!
//! The headline test sweeps `SIM_SCHEDULES` (default 1000) seeded
//! schedules of the two-node failover scenario — attach + bearer
//! traffic + intra-node migration with a kill landing mid-run — and
//! requires every oracle to hold on every schedule. The remaining tests
//! pin the meta-properties the sweep relies on: same seed ⇒ identical
//! trace, recorded schedules replay to the same digest, and an injected
//! invariant violation yields a shrunk, replayable trace file.

use pepc_sim::{replay, replay_trace, run, schedules_from_env, shrink, BugKind, RunResult, SimConfig, Trace};

/// Sweep helper: run one config and, if an oracle fired, shrink the
/// schedule, save a replayable trace (to `SIM_TRACE_DIR` — CI uploads it
/// as an artifact), and panic with the path.
fn run_green(cfg: &SimConfig) -> RunResult {
    let r = run(cfg);
    if let Some(f) = r.failure.clone() {
        let shrunk = shrink(cfg, &r.schedule, &f.oracle);
        let saved = Trace::new(cfg.clone(), shrunk, f.clone()).save(None);
        panic!(
            "seed {}: oracle `{}` violated at step {}: {} (shrunk trace: {:?})",
            cfg.seed, f.oracle, f.step, f.message, saved
        );
    }
    r
}

#[test]
fn schedule_matrix_two_node_failover_all_oracles_green() {
    let n = schedules_from_env(1000);
    let (mut failovers, mut forwarded) = (0usize, 0u64);
    for seed in 1..=n {
        let r = run_green(&SimConfig::two_node_failover(seed));
        failovers += r.failovers;
        forwarded += r.forwarded;
    }
    // The scenario is only interesting if the kill actually fires and
    // data actually flows; require both across the sweep.
    assert!(failovers >= n as usize / 2, "only {failovers} failovers in {n} schedules");
    assert!(forwarded > 0, "no data packets forwarded across {n} schedules");
}

#[test]
fn schedule_matrix_partition_heal_green() {
    let n = schedules_from_env(1000).min(64);
    for seed in 1..=n {
        run_green(&SimConfig::partition_heal(seed));
    }
}

#[test]
fn schedule_matrix_lossy_wires_green() {
    let n = schedules_from_env(1000).min(64);
    for seed in 1..=n {
        run_green(&SimConfig::lossy_wires(seed));
    }
}

/// Two kills, the second taking out the first one's adopter: every
/// schedule fails over twice, so the first victim's region is adopted
/// again from a dead adopter.
#[test]
fn schedule_matrix_cascade_failover_green() {
    let n = schedules_from_env(1000).min(64);
    for seed in 1..=n {
        let r = run_green(&SimConfig::cascade_failover(seed));
        assert_eq!(r.failovers, 2, "seed {seed}: the cascade did not fail over twice");
    }
}

/// Per-message signaling under a mid-handshake crash: attach handshakes
/// run message-by-message, the kill lands inside the handshake window,
/// and one subscriber abandons its attach entirely. The in-run oracles
/// (`stuck_procedure`, `proc_accounting`, `sig_conservation`) are the
/// assertions; across the sweep some schedules must also finish attaches
/// despite the kill, or the scenario isn't exercising anything.
#[test]
fn schedule_matrix_kill_mid_attach_green() {
    let n = schedules_from_env(1000).min(64);
    let mut attached_any = false;
    for seed in 1..=n {
        let r = run_green(&SimConfig::kill_mid_attach(seed));
        if r.users_live > 8 {
            attached_any = true; // more users than the 8 synthetic ones
        }
    }
    assert!(attached_any, "no schedule completed a signaling attach");
}

/// Intra-node migrations colliding with in-flight S1 handovers: the
/// migration drops the procedure machine, the handover must abort
/// cleanly and the UE retries — no stuck procedure, exact accounting.
#[test]
fn schedule_matrix_migrate_mid_handover_green() {
    let n = schedules_from_env(1000).min(64);
    for seed in 1..=n {
        run_green(&SimConfig::migrate_mid_handover(seed));
    }
}

/// A synchronized attach wave against an admission-controlled control
/// plane: the in-run oracles (`no_livelock`, `sig_conservation`,
/// `proc_accounting`, `stuck_procedure`) are the assertions. Across the
/// sweep the storm must both shed (admission is engaging) and land some
/// attaches (shedding is not a blackout), and steady-state data must
/// keep forwarding on every schedule.
#[test]
fn schedule_matrix_attach_storm_green() {
    let n = schedules_from_env(1000).min(64);
    let (mut shed_any, mut stormed_any) = (false, false);
    for seed in 1..=n {
        let r = run_green(&SimConfig::attach_storm(seed));
        assert!(r.forwarded > 0, "seed {seed}: storm starved the data path");
        if r.shed > 0 {
            shed_any = true;
        }
        if r.users_live > 16 {
            stormed_any = true; // beyond the 12 synthetic + 4 sig users
        }
    }
    assert!(shed_any, "admission control never shed across {n} storm schedules");
    assert!(stormed_any, "no storm device ever completed an attach");
}

/// The storm plus a mid-wave node kill: failover, supervision expiry,
/// and shedding interleave under schedule exploration.
#[test]
fn schedule_matrix_storm_kill_green() {
    let n = schedules_from_env(1000).min(64);
    let mut failed_over = false;
    for seed in 1..=n {
        let r = run_green(&SimConfig::storm_kill(seed));
        if r.failovers > 0 {
            failed_over = true;
        }
    }
    assert!(failed_over, "kill never fired across {n} storm schedules");
}

/// Capacity ramp: a mass-attach wave drives the UE tables through
/// several incremental-growth rounds while a node kill lands mid-ramp,
/// so adoption and re-attach churn hit tables that are still migrating
/// buckets. The existing single-owner / conservation / accounting
/// oracles are the assertions; across the sweep the ramp must actually
/// land users past the synthetic population on some schedules.
#[test]
fn schedule_matrix_mass_attach_ramp_green() {
    let n = schedules_from_env(1000).min(64);
    let mut ramped_any = false;
    for seed in 1..=n {
        let r = run_green(&SimConfig::mass_attach_ramp(seed));
        if r.users_live > 48 {
            ramped_any = true; // beyond the synthetic population
        }
    }
    assert!(ramped_any, "no schedule grew past the synthetic population in {n} ramps");
}

/// The idle/paging cycle under schedule exploration: subscribers attach,
/// release to idle, get paged when downlink arrives, and wake with a
/// Service Request — while one deliberate page-ignorer forces the
/// retransmit-to-expiry path. The in-run oracles (`stuck_idle`,
/// `paging_accounting`, `sig_conservation`, `conservation`) are the
/// assertions; across the sweep pages must actually fire, some must
/// resolve (wake-ups work), and some must expire (the ignorer's
/// retransmissions escalate), or the scenario exercises nothing.
#[test]
fn schedule_matrix_idle_wakeup_storm_green() {
    let n = schedules_from_env(1000).min(64);
    let (mut paged_any, mut resolved_any, mut expired_any) = (false, false, false);
    for seed in 1..=n {
        let r = run_green(&SimConfig::idle_wakeup_storm(seed));
        assert!(r.forwarded > 0, "seed {seed}: no data forwarded");
        paged_any |= r.paged > 0;
        resolved_any |= r.paging_resolved > 0;
        expired_any |= r.paging_expired > 0;
    }
    assert!(paged_any, "no schedule ever paged across {n} runs");
    assert!(resolved_any, "no page was ever answered across {n} runs");
    assert!(expired_any, "no page ever expired across {n} runs (ignorer inert)");
}

/// The idle cycle with a node kill landing inside the paging window:
/// in-flight pages and buffered downlink die with the node, survivors
/// keep paging, and no live node may strand a suspended UE.
#[test]
fn schedule_matrix_kill_mid_paging_green() {
    let n = schedules_from_env(1000).min(64);
    let (mut paged_any, mut failed_over) = (false, false);
    for seed in 1..=n {
        let r = run_green(&SimConfig::kill_mid_paging(seed));
        paged_any |= r.paged > 0;
        failed_over |= r.failovers > 0;
    }
    assert!(paged_any, "no schedule ever paged across {n} runs");
    assert!(failed_over, "kill never fired across {n} runs");
}

/// The storm with a replication-wire partition opening mid-wave.
#[test]
fn schedule_matrix_storm_partition_green() {
    let n = schedules_from_env(1000).min(64);
    for seed in 1..=n {
        run_green(&SimConfig::storm_partition(seed));
    }
}

/// Cross-PR determinism anchor: the event-only scenarios must produce
/// these exact digests (captured before the procedure-state-machine
/// refactor). A mismatch means a code change altered scheduling, rng
/// consumption, or observable state for runs that don't opt into the
/// signaling path — the "same-seed runs stay byte-identical" guarantee.
#[test]
fn legacy_scenario_digests_are_stable_across_refactors() {
    #[allow(clippy::type_complexity)]
    let cases: &[(&str, fn(u64) -> SimConfig, &[(u64, u64)])] = &[
        (
            "two_node_failover",
            SimConfig::two_node_failover,
            &[(1, 0xdd017362e186fbeb), (7, 0x85b97be4930d0c31), (42, 0x8584c56f4349b602), (1234, 0x895ab9ca26e48336)],
        ),
        (
            "partition_heal",
            SimConfig::partition_heal,
            &[(1, 0x29d6cbd155fa653d), (7, 0x6a5c1b8e2a8badfe), (42, 0x7e5d8a409a9c2a3a), (1234, 0xba9a0eb4a2eb47bb)],
        ),
        (
            "lossy_wires",
            SimConfig::lossy_wires,
            &[(1, 0xb83f7d4ff652d029), (7, 0x0f38011b50df048c), (42, 0x547e5a80e3886fa5), (1234, 0x38d2425cd4d3e417)],
        ),
    ];
    for (name, mk, golden) in cases {
        for &(seed, want) in *golden {
            let got = run(&mk(seed)).digest;
            assert_eq!(got, want, "{name} seed {seed}: digest {got:#018x} != golden {want:#018x}");
        }
    }
}

/// The failover paths: a cascade that adopts a region twice, a kill in
/// the middle of S1AP attaches, and a partition under a storm that fails
/// a running node over. Routing signaling by the live nodes' own user
/// indexes and retiring a failed-over node's replica must not change
/// what any of these runs observes.
#[test]
fn failover_scenario_digests_are_pinned() {
    #[allow(clippy::type_complexity)]
    let cases: &[(&str, fn(u64) -> SimConfig, &[(u64, u64)])] = &[
        (
            "cascade_failover",
            SimConfig::cascade_failover,
            &[(1, 0x7a0e2105b0f5f46d), (7, 0xc977b8f3279a63a3), (42, 0xed959ed4ce1f9c58), (1234, 0xab0664379eb78693)],
        ),
        (
            "kill_mid_attach",
            SimConfig::kill_mid_attach,
            &[(1, 0xb54e6eab46f4e0d7), (7, 0xce2fe100df0f00c4), (42, 0x885042618f1997b5), (1234, 0xbe872f6973c0b199)],
        ),
        (
            "storm_partition",
            SimConfig::storm_partition,
            &[(1, 0x2bc4684b3f88d37e), (7, 0xc365df5a506262b6), (42, 0xb711deaefd50191e), (1234, 0xff3427e3b2151382)],
        ),
    ];
    for (name, mk, golden) in cases {
        for &(seed, want) in *golden {
            let got = run(&mk(seed)).digest;
            assert_eq!(got, want, "{name} seed {seed}: digest {got:#018x} != golden {want:#018x}");
        }
    }
}

#[test]
fn same_seed_reproduces_identical_trace() {
    for seed in [1, 7, 42, 1234, 0xDEAD_BEEF] {
        let cfg = SimConfig::two_node_failover(seed);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.schedule, b.schedule, "seed {seed}: schedules diverged");
        assert_eq!(a.digest, b.digest, "seed {seed}: digests diverged");
        assert_eq!(a.failovers, b.failovers);
        assert_eq!(a.forwarded, b.forwarded);
    }
}

#[test]
fn different_seeds_explore_different_schedules() {
    // Not a correctness requirement per se, but if every seed produced
    // the same interleaving the "exploration" would be vacuous.
    let digests: std::collections::HashSet<u64> =
        (1..=16).map(|s| run(&SimConfig::two_node_failover(s)).digest).collect();
    assert!(digests.len() > 8, "only {} distinct digests from 16 seeds", digests.len());
}

#[test]
fn replaying_a_recorded_schedule_matches_the_run() {
    let cfg = SimConfig::two_node_failover(11);
    let live = run(&cfg);
    let re = replay(&cfg, &live.schedule);
    assert_eq!(re.digest, live.digest, "replay digest diverged from live run");
    assert_eq!(re.failure, live.failure);
    assert_eq!(re.forwarded, live.forwarded);
}

/// The full capture → shrink → replay pipeline, driven by an injected
/// single-owner violation (a failover controller double-adopting an
/// IMSI). Proves the oracles catch real bug classes and the artifact a
/// CI failure uploads is genuinely replayable.
#[test]
fn injected_violation_yields_shrunk_replayable_trace() {
    let mut failing = None;
    for seed in 1..=50 {
        let mut cfg = SimConfig::two_node_failover(seed);
        cfg.bug = BugKind::DoubleAdopt;
        let r = run(&cfg);
        if let Some(f) = r.failure.clone() {
            failing = Some((cfg, r.schedule, f));
            break;
        }
    }
    let (cfg, schedule, failure) = failing.expect("DoubleAdopt never tripped dup_imsi in 50 seeds");
    assert_eq!(failure.oracle, "dup_imsi", "unexpected oracle: {failure:?}");

    // Shrink: strictly smaller, still failing the same oracle.
    let shrunk = shrink(&cfg, &schedule, &failure.oracle);
    assert!(shrunk.len() < schedule.len(), "shrink removed nothing ({} steps)", schedule.len());
    let re = replay(&cfg, &shrunk);
    let f2 = re.failure.expect("shrunk schedule no longer fails");
    assert_eq!(f2.oracle, "dup_imsi");

    // Capture to a trace file and replay from disk.
    let dir = std::env::temp_dir().join(format!("pepc-sim-trace-{}", std::process::id()));
    let t = Trace::new(cfg, shrunk, f2);
    let path = t.save(Some(&dir)).expect("trace saves");
    let loaded = Trace::load(&path).expect("trace loads");
    assert_eq!(loaded, t, "trace did not survive a save/load roundtrip");
    let from_disk = replay_trace(&loaded);
    assert_eq!(
        from_disk.failure.as_ref().map(|f| f.oracle.as_str()),
        Some("dup_imsi"),
        "trace loaded from disk no longer reproduces"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same pipeline for the procedure-supervision bug class: disable the
/// supervision timer while a subscriber abandons its attach mid-flight.
/// The `stuck_procedure` oracle must fire, and the failure must shrink
/// and replay from disk like any other.
#[test]
fn stuck_procedure_violation_yields_shrunk_replayable_trace() {
    let mut failing = None;
    for seed in 1..=50 {
        let mut cfg = SimConfig::kill_mid_attach(seed);
        cfg.chaos.clear(); // keep every node alive so the oracle sweeps the stuck machine
        cfg.bug = BugKind::StuckProcedure;
        let r = run(&cfg);
        if let Some(f) = r.failure.clone() {
            failing = Some((cfg, r.schedule, f));
            break;
        }
    }
    let (cfg, schedule, failure) = failing.expect("StuckProcedure never tripped the oracle in 50 seeds");
    assert_eq!(failure.oracle, "stuck_procedure", "unexpected oracle: {failure:?}");

    let shrunk = shrink(&cfg, &schedule, &failure.oracle);
    assert!(shrunk.len() < schedule.len(), "shrink removed nothing ({} steps)", schedule.len());
    let re = replay(&cfg, &shrunk);
    let f2 = re.failure.expect("shrunk schedule no longer fails");
    assert_eq!(f2.oracle, "stuck_procedure");

    let dir = std::env::temp_dir().join(format!("pepc-sim-stuck-{}", std::process::id()));
    let t = Trace::new(cfg, shrunk, f2);
    let path = t.save(Some(&dir)).expect("trace saves");
    let loaded = Trace::load(&path).expect("trace loads");
    let from_disk = replay_trace(&loaded);
    assert_eq!(from_disk.failure.as_ref().map(|f| f.oracle.as_str()), Some("stuck_procedure"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression guard for the adoption-vs-migration race: kills become
/// eligible at the same ticks migrations are in flight, and the
/// scheduler is free to interleave the kill anywhere between a
/// migration's eviction and the standby's adoption sweep. The single
/// `dup_imsi` oracle inside `run` is the assertion; here we also pin
/// that post-failover ownership is consistent (every surviving user on
/// exactly one live node — already oracle-checked — and that at least
/// some schedules adopt users at all).
#[test]
fn kill_racing_migration_never_double_adopts() {
    let mut adopted_any = false;
    for seed in 1..=64 {
        let r = run_green(&SimConfig::two_node_failover(seed));
        if r.failovers > 0 && r.users_live > 0 {
            adopted_any = true;
        }
    }
    assert!(adopted_any, "no schedule completed a failover with surviving users");
}

#[test]
fn trace_version_gate_rejects_future_traces() {
    let cfg = SimConfig::two_node_failover(3);
    let r = run(&cfg);
    let t = Trace::new(cfg, r.schedule, pepc_sim::Failure { oracle: "x".into(), step: 0, message: String::new() });
    let mut json = t.to_json();
    json = json.replacen("\"version\":1", "\"version\":999", 1);
    let err = Trace::from_json(&json).unwrap_err();
    assert!(err.contains("999"), "version error should name the bad version: {err}");
}
