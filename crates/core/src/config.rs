//! Operator configuration for a PEPC deployment (paper Listing 1's
//! `EpcConfig`).

use pepc_net::BpfProgram;
use serde::{Deserialize, Serialize};

/// How membership updates flow from the control thread to the data thread
/// (paper §7.2, Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchingConfig {
    /// The data thread drains the control→data update channel once every
    /// this many processed packets. 1 = unbatched (sync every packet);
    /// the paper's default is 32.
    pub sync_every_packets: u32,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig { sync_every_packets: 32 }
    }
}

/// Two-level state-table configuration (paper §3.2, §7.3, Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoLevelConfig {
    /// Enable the primary/secondary split. When false every user lives in
    /// the data thread's (single) table — the baseline of Figure 14.
    pub enabled: bool,
    /// Evict a user from the primary table after this much data-plane
    /// inactivity, in nanoseconds on the slice clock.
    pub idle_timeout_ns: u64,
}

impl Default for TwoLevelConfig {
    fn default() -> Self {
        TwoLevelConfig { enabled: true, idle_timeout_ns: 5_000_000_000 }
    }
}

/// Stateless-IoT customization (paper §4.2, Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IotConfig {
    /// Enable the lookup-free fast path.
    pub enabled: bool,
    /// TEIDs in `[teid_base, teid_base + pool_size)` belong to stateless
    /// IoT devices; service parameters are inferred from the pool, not
    /// from per-user state.
    pub teid_base: u32,
    /// UE IPs in `[ip_base, ip_base + pool_size)` likewise (downlink).
    pub ip_base: u32,
    pub pool_size: u32,
}

impl Default for IotConfig {
    fn default() -> Self {
        IotConfig { enabled: false, teid_base: 0xF000_0000, ip_base: 0x64_00_00_00, pool_size: 0 }
    }
}

/// Control-plane overload / admission control (DESIGN.md §15).
///
/// Disabled by default: with `enabled: false` every signaling message is
/// admitted and the control plane behaves exactly as before this config
/// existed. When enabled, incoming S1AP is classified into priority
/// classes (handover > attach/service > periodic TAU) and shed *before*
/// routing when either a per-eNodeB token bucket (attach-class and below)
/// or the global in-flight-procedure ceiling (all classes) says the
/// control plane is saturated. Every shed message is answered with a NAS
/// `CongestionReject` carrying `backoff_ms`, and counted in the
/// per-class `sig_shed_*` taxonomy so signaling conservation still
/// balances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Master switch; false = admit everything (legacy behavior).
    pub enabled: bool,
    /// Per-eNodeB (ECGI) sustained admission rate for attach-class and
    /// TAU-class messages, in messages per supervision tick. 0 = no
    /// per-eNodeB limit.
    pub enb_rate_per_tick: u32,
    /// Per-eNodeB bucket depth: how large a synchronized wave one eNodeB
    /// may land before shedding starts.
    pub enb_burst: u32,
    /// Global ceiling on procedures simultaneously in flight; a new
    /// procedure-starting message is shed while at or above it.
    /// 0 = no ceiling.
    pub max_in_flight: u32,
    /// Back-off timer handed to shed UEs in the `CongestionReject`.
    pub backoff_ms: u16,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig { enabled: false, enb_rate_per_tick: 64, enb_burst: 256, max_in_flight: 4096, backoff_ms: 1000 }
    }
}

/// Configuration for one PEPC slice.
#[derive(Debug, Clone)]
pub struct SliceConfig {
    /// Core assignment for the control thread.
    pub ctrl_core: usize,
    /// Core assignment for the data thread.
    pub data_core: usize,
    pub batching: BatchingConfig,
    pub two_level: TwoLevelConfig,
    pub iot: IotConfig,
    /// PCEF rule programs (id, program); installed slice-wide, users
    /// reference them by id. Populated from PCRF rules at attach.
    pub pcef_programs: Vec<(u16, BpfProgram)>,
    /// Capacity hint: expected users per slice (pre-sizes tables).
    pub expected_users: usize,
    /// Capacity of the control→data membership update ring (rounded up to
    /// a power of two by the ring). Sized so bulk attach floods don't
    /// stall the control thread.
    pub update_ring_capacity: usize,
    /// Record per-stage (parse/lookup/enforce) ns-per-packet medians, one
    /// amortized sample per burst per stage. Adds two extra clock reads
    /// per burst, so it is off by default.
    pub stage_timing: bool,
    /// Control-plane admission control under signaling storms.
    pub overload: OverloadConfig,
}

impl Default for SliceConfig {
    fn default() -> Self {
        SliceConfig {
            ctrl_core: 0,
            data_core: 1,
            batching: BatchingConfig::default(),
            two_level: TwoLevelConfig::default(),
            iot: IotConfig::default(),
            pcef_programs: Vec::new(),
            expected_users: 1024,
            update_ring_capacity: 64 * 1024,
            stage_timing: false,
            overload: OverloadConfig::default(),
        }
    }
}

/// Configuration for a PEPC node.
#[derive(Debug, Clone)]
pub struct EpcConfig {
    /// The node's transport address (gateway IP the eNodeBs tunnel to).
    pub gw_ip: u32,
    /// Base for allocating gateway-side uplink TEIDs.
    pub teid_base: u32,
    /// Base for allocating UE IP addresses.
    pub ue_ip_base: u32,
    /// Tracking area this node serves.
    pub tac: u16,
    /// PLMN (operator) identifier used on S6a.
    pub plmn: u32,
    /// Per-slice configuration template.
    pub slice: SliceConfig,
    /// Number of slices to instantiate.
    pub slices: usize,
    /// Cluster load-balancer (Maglev) table size; must be prime and
    /// exceed the node count. Maglev's §3.4 recommends ≥ 100× the
    /// backend count for even spread; the deterministic simulator uses a
    /// small prime since it builds thousands of clusters per test run.
    pub lb_table_size: usize,
}

impl Default for EpcConfig {
    fn default() -> Self {
        EpcConfig {
            gw_ip: 0x0A_FE_00_01, // 10.254.0.1
            teid_base: 0x1000_0000,
            ue_ip_base: 0x0A_00_00_01, // 10.0.0.1
            tac: 1,
            plmn: 40401,
            slice: SliceConfig::default(),
            slices: 1,
            lb_table_size: 65537,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EpcConfig::default();
        assert_eq!(c.slice.batching.sync_every_packets, 32, "paper batches every 32 packets");
        assert!(c.slice.two_level.enabled, "two-level tables are the PEPC design");
        assert!(!c.slice.iot.enabled, "IoT fast path is an opt-in customization");
        assert_eq!(c.slice.update_ring_capacity, 64 * 1024, "update-ring default unchanged");
        assert_eq!(c.slices, 1);
        assert!(!c.slice.overload.enabled, "admission control is opt-in; default admits everything");
    }

    #[test]
    fn overload_config_serializes() {
        let o =
            OverloadConfig { enabled: true, enb_rate_per_tick: 10, enb_burst: 20, max_in_flight: 30, backoff_ms: 250 };
        let json = serde_json::to_string(&o).unwrap();
        let back: OverloadConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn batching_config_serializes() {
        let b = BatchingConfig { sync_every_packets: 64 };
        let json = serde_json::to_string(&b).unwrap();
        let back: BatchingConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn iot_pool_ranges_disjoint_from_defaults() {
        let c = EpcConfig::default();
        let iot = IotConfig { enabled: true, pool_size: 1000, ..IotConfig::default() };
        // Regular TEIDs grow up from teid_base; the IoT pool sits far above.
        assert!(iot.teid_base > c.teid_base + 100_000_000);
    }
}
