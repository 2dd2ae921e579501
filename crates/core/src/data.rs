//! The slice data plane — paper §4.2 "Slice data plane".
//!
//! "Our data path consists of a chain of network functions [...]: GTP-U
//! encapsulation and decapsulation, user state look-up which involves
//! mapping downlink traffic to the appropriate GTP-U tunnel. We also
//! implement the Policy Charging and Enforcement Function (PCEF), as a
//! match-action table."
//!
//! Pipeline per packet:
//!
//! ```text
//! uplink   (eNodeB → net):  GTP-U decap → [IoT fast path?] → state lookup
//!                           by TEID → PCEF classify → gate/rate enforce →
//!                           counters → forward inner IP
//! downlink (net → eNodeB):  [IoT fast path?] → state lookup by dst UE IP →
//!                           PCEF classify → gate/rate enforce → counters →
//!                           GTP-U encap toward the serving eNodeB
//! ```
//!
//! The data plane is the single writer of counter state and only *reads*
//! control state (tunnels, QoS, rule sets) — writes to those arrive from
//! the control thread through the shared [`UeContext`] and become visible
//! without any message exchange. Table *membership* changes (attach /
//! detach / migration) do flow as [`DpUpdate`]s, drained in batches
//! (Figure 13).
//!
//! # State density (DESIGN.md §16)
//!
//! Contexts live in the slice's shared [`UeSlab`] — contiguous chunks
//! addressed by 8-byte generational [`UeHandle`]s. A native user's TEID
//! and UE IP name its slab slot, so it resolves by arithmetic and costs
//! the index one bit; only foreign users take table entries (see
//! [`DataPlane`]). An idle user stays indexed. The data plane owns the
//! *end of life* of a slot: applying [`DpUpdate::Remove`] frees the
//! handle back to the slab after unindexing it, so the control plane
//! never races a slot reuse with in-flight packets (updates and packets
//! are serialized on this thread).
//!
//! # Burst mode
//!
//! The pipeline is organised around [`DataPlane::process_burst_into`], a
//! DPDK-style lookup-then-act burst path (§4.3, Figures 13–14):
//!
//! 1. **Parse pass** — classify direction and parse/decap headers for the
//!    whole burst; malformed packets and the stateless-IoT fast path are
//!    fully decided here. Each packet that needs a lookup has its table
//!    lines hinted as soon as its key is known (stage **2a** of the
//!    lookup, below), so the rest of the parse pass covers that fetch.
//! 2. **Lookup pass** — staged, so that a cold user's dependent misses
//!    (generation → cell lines, with a table line first for a foreign
//!    key) are paid once per stage, overlapped across the burst, instead
//!    of serially per packet: **(2a)** hint every lookup's generation and
//!    cell lines from a native key's arithmetic, and a foreign key's
//!    table line from the hash; then, a tile of the burst at a time,
//!    **(2b)** run the index `get` in packet order, keep the handle, and
//!    hint its generation and cell lines from the handle's arithmetic, and
//!    **(2c)** resolve each handle and fuse consecutive packets of the
//!    same user into *groups*.
//! 3. **Act pass** — enforce each group with **one** lock-free seqlock
//!    read of the user's [`crate::state::CtrlView`] and **one** counter
//!    publish (and one token-bucket setup when the user has no PCEF
//!    rules), then emit verdicts. No lock is taken per packet or per
//!    group.
//!
//! Telemetry costs the whole burst one `Instant` read pair instead of
//! two clock reads per packet; forwarded packets record the
//! amortized per-packet pipeline time so the histogram population still
//! equals `metrics.forwarded`. The scalar [`DataPlane::process`] is the
//! burst-size-1 degenerate case of the same machinery, not a parallel
//! code fork.

use crate::config::{IotConfig, TwoLevelConfig};
use crate::demux::region_split;
use crate::metrics::DataMetrics;
use crate::pcef::{Pcef, PcefAction};
use crate::qos::TokenBucket;
use crate::slab::{UeHandle, UeSlab, IDLE, SHOWN};
use crate::state::{CounterState, CtrlView, UeContext};
use crate::twolevel::{BuildKeyHasher, TwoLevelTable};
use pepc_net::gtp::{encap_gtpu, GTPU_OVERHEAD};
use pepc_net::{classify_fast, BpfProgram, FiveTuple, Mbuf, PktClass};
use pepc_telemetry::LatencyHistogram;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Membership / configuration updates the control thread sends the data
/// thread.
#[derive(Debug, Clone)]
pub enum DpUpdate {
    /// A user attached (or migrated in): index its slab handle under its
    /// tunnel id and UE IP. `active` controls primary vs secondary placement.
    Insert { gw_teid: u32, ue_ip: u32, handle: UeHandle, active: bool },
    /// A user detached (or migrated out). Applying this also frees the
    /// user's slab slot (see the module docs).
    Remove { gw_teid: u32, ue_ip: u32 },
    /// Demote an idle user to the secondary table (two-level management).
    Demote { gw_teid: u32, ue_ip: u32 },
    /// S1 release: set the idle bit of the user's slot; it stays indexed,
    /// its context retained. Its downlink is buffered (bounded) and pages
    /// the IMSI in the slot's identity (`imsi` repeats it); its uplink is
    /// dropped until a Service Request re-inserts it.
    Suspend { gw_teid: u32, ue_ip: u32, imsi: u64 },
    /// Paging gave up (retransmissions exhausted): discard the UE's
    /// buffered downlink as `drop_idle_expired`. The UE stays idle.
    DropIdleBuffer { ue_ip: u32 },
    /// Install a PCEF rule program slice-wide.
    InstallRule { id: u16, program: BpfProgram, action: PcefAction },
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    UnknownUser,
    GateClosed,
    RateExceeded,
    Malformed,
    /// Downlink for an idle UE whose idle buffer is full.
    IdleOverflow,
    /// Uplink from an idle UE (it must Service Request first).
    IdleUplink,
}

/// Outcome of processing one packet.
#[derive(Debug)]
pub enum PacketVerdict {
    /// Forward the (possibly re-encapsulated) packet.
    Forward(Mbuf),
    /// Drop it.
    Drop(DropReason),
    /// Downlink parked in an idle UE's buffer; it re-emerges from
    /// [`DataPlane::take_woken`] when the UE wakes (or is dropped as
    /// `drop_idle_expired` if the page expires first or the UE detaches).
    Buffered,
}

impl PacketVerdict {
    /// True when the verdict forwards the packet.
    pub fn is_forward(&self) -> bool {
        matches!(self, PacketVerdict::Forward(_))
    }
}

/// Lookups probed (2b) then resolved (2c) together. A slice's share of
/// a node burst fits one tile; an oversized burst is walked tile by tile
/// so the generation line 2b hints is still in L1 when 2c reads it. A
/// guard, not a tuned value: no effect up to 128 packets (DESIGN.md §5.7).
const LOOKUP_TILE: usize = 32;

/// Names of the three instrumented pipeline stages, index-aligned with
/// [`DataPlane::stage_latencies`]: parse/classify (+ the table-line hints
/// of lookup stage 2a), probe+resolve (2b–2c), enforce+charge.
pub const STAGE_NAMES: [&str; 3] = ["parse", "lookup", "enforce"];

/// One packet of a burst: pass 1 classifies it; a lookup is decided in
/// pass 2 (idle or unknown user) or pass 3 (enforced).
#[derive(Clone, Copy)]
enum Slot {
    /// Outcome decided (while parsing: malformed, IoT fast path).
    Done(Decision),
    /// Needs a user-state lookup: direction, TEID or UE IP, charged bytes.
    Lookup { uplink: bool, id: u32, bytes: u64 },
}

/// Cheap per-packet outcome; mbufs are moved out of the burst only when
/// verdicts are emitted, so intermediate passes stay allocation-free.
#[derive(Clone, Copy)]
enum Decision {
    Forward,
    Drop(DropReason),
    /// The mbuf was already moved into an idle UE's buffer (the slot in
    /// the burst holds an empty placeholder).
    Buffered,
}

impl Decision {
    /// The verdict on `m` (for `Buffered`, the placeholder left behind).
    fn verdict(self, m: Mbuf) -> PacketVerdict {
        match self {
            Decision::Forward => PacketVerdict::Forward(m),
            Decision::Drop(r) => PacketVerdict::Drop(r),
            Decision::Buffered => PacketVerdict::Buffered,
        }
    }
}

/// Default per-UE idle downlink buffer depth (packets parked while the
/// UE is paged). Tunable via [`DataPlane::set_idle_buffer_cap`].
pub const IDLE_BUF_CAP: usize = 4;

/// Downlink parked for one idle user, born with its first packet.
struct Parked {
    /// The paged IMSI, from the slot's identity.
    imsi: u64,
    /// In arrival order, bounded by the plane's `idle_buf_cap`.
    buf: Vec<Mbuf>,
    /// Arrival tick of `buf[0]` (stuck-idle oracle input).
    oldest_ns: u64,
}

/// Table keys are raw TEIDs and UE IPs tagged above bit 32, the UE IP tag
/// one bit higher, so the two kinds never coincide.
const TAG: u64 = 1 << 32;

/// The tagged key of a raw TEID (uplink) or UE IP.
fn tagged(uplink: bool, id: u32) -> u64 {
    TAG << u32::from(!uplink) | u64::from(id)
}

/// The data plane's one user index (see [`DataPlane`]).
struct UserIndex {
    /// `(teid_base, ue_ip_base)` of the native region; `None` on a
    /// standalone plane, where every user is foreign.
    bases: Option<(u32, u32)>,
    /// Users served by arithmetic: slots this plane shows in the slab.
    natives: usize,
    /// Whether `Demote` moves users to the secondary level.
    two_level: bool,
    /// Everyone else, under both tagged keys.
    table: TwoLevelTable<UeHandle>,
    /// Tagged entries held, `[TEID, UE IP]`.
    tagged: [usize; 2],
}

impl UserIndex {
    /// `id`'s offset in the native region, if it lies there.
    #[inline]
    fn offset(&self, uplink: bool, id: u32) -> Option<u32> {
        let (teid_base, ue_ip_base) = self.bases?;
        match region_split(id, if uplink { teid_base } else { ue_ip_base }) {
            (0, offset) => Some(offset),
            _ => None,
        }
    }

    /// The offset both keys lie at, if they share one.
    fn shared(&self, gw_teid: u32, ue_ip: u32) -> Option<u32> {
        self.offset(true, gw_teid).filter(|&o| self.offset(false, ue_ip) == Some(o))
    }

    /// The user a native key names, if this plane shows its slot.
    #[inline]
    fn native(slab: &UeSlab, offset: Option<u32>) -> Option<UeHandle> {
        slab.named(offset?).and_then(|(h, shown)| shown.then_some(h))
    }

    fn show(&mut self, slab: &UeSlab, h: UeHandle, on: bool) {
        if slab.mark(h, SHOWN, on) {
            self.natives = if on { self.natives + 1 } else { self.natives - 1 };
        }
    }

    /// A native key resolves by arithmetic, with no table probe; any other
    /// key probes the table.
    #[inline]
    fn get(&mut self, slab: &UeSlab, uplink: bool, id: u32, now_ns: u64) -> Option<UeHandle> {
        Self::native(slab, self.offset(uplink, id)).or_else(|| self.table.get(tagged(uplink, id), now_ns).copied())
    }

    /// The user these keys lead to, with no promotion and no stats.
    fn find(&self, slab: &UeSlab, gw_teid: u32, ue_ip: u32) -> Option<UeHandle> {
        Self::native(slab, self.shared(gw_teid, ue_ip)).or_else(|| self.table.peek(tagged(true, gw_teid)).copied())
    }

    /// Hint the lines [`Self::get`] reads first for `id`.
    #[inline]
    fn prefetch(&self, slab: &UeSlab, uplink: bool, id: u32) {
        if let Some(o) = self.offset(uplink, id) {
            slab.prefetch_named(o);
        }
        if self.tagged[usize::from(!uplink)] > 0 {
            self.table.prefetch(tagged(uplink, id));
        }
    }

    /// Index a user (`Some((handle, active))`) or unindex whoever these
    /// keys lead to (`None`); returns what they held before. An active
    /// user whose keys name its own slot and tenant is native: its slot is
    /// shown. Any other user takes both tagged keys.
    fn set(
        &mut self,
        slab: &UeSlab,
        gw_teid: u32,
        ue_ip: u32,
        to: Option<(UeHandle, bool)>,
        now_ns: u64,
    ) -> [Option<UeHandle>; 3] {
        let shared = self.shared(gw_teid, ue_ip);
        let shown = Self::native(slab, shared);
        if let Some(h) = shown {
            self.show(slab, h, false);
        }
        let native = to.filter(|&(h, active)| active && shared.is_some() && slab.offset_of(h) == shared);
        let foreign = to.filter(|_| native.is_none());
        let [a, b] = [(true, gw_teid), (false, ue_ip)].map(|(uplink, id)| self.put(uplink, id, foreign, now_ns));
        if let Some((h, _)) = native {
            self.show(slab, h, true);
        }
        [shown, a, b]
    }

    /// Insert or remove (`None`) one tagged key, keeping `tagged` in step.
    fn put(&mut self, uplink: bool, id: u32, to: Option<(UeHandle, bool)>, now_ns: u64) -> Option<UeHandle> {
        let (key, n) = (tagged(uplink, id), usize::from(!uplink));
        let old = match to {
            Some((h, true)) => self.table.insert_active(key, h, now_ns),
            Some((h, false)) => self.table.insert_idle(key, h),
            None if self.tagged[n] == 0 => None,
            None => self.table.remove(key),
        };
        if old.is_some() != to.is_some() {
            self.tagged[n] = if to.is_some() { self.tagged[n] + 1 } else { self.tagged[n] - 1 };
        }
        old
    }

    /// Demote a user to the secondary level. A native leaves the
    /// arithmetic path for the table, and stays there until re-inserted.
    fn demote(&mut self, slab: &UeSlab, gw_teid: u32, ue_ip: u32) {
        let keys = [(true, gw_teid), (false, ue_ip)];
        if let Some(h) = Self::native(slab, self.shared(gw_teid, ue_ip)).filter(|_| self.two_level) {
            self.show(slab, h, false);
            for (uplink, id) in keys {
                self.put(uplink, id, Some((h, true)), 0);
            }
        }
        for (uplink, id) in keys {
            self.table.demote(tagged(uplink, id));
        }
    }
}

/// The data plane of one slice. Owned by exactly one thread.
///
/// **One index for both directions.** A slice mints a *native* user's
/// TEID and UE IP at the region offset its slab slot and tenant count
/// name ([`UeSlab::offset_of`]), so a key in the native region resolves by
/// arithmetic alone, with no table probe: offset → slot → one load of the
/// slot's generation word, which must hold the tenant the offset names and
/// this plane's shown bit. The plane sets that bit when it applies an
/// `Insert` carrying the handle's own native keys and clears it on
/// `Remove` and `Demote`, so what packets see stays FIFO with the updates.
/// Every other user is *foreign* — migrated in, HA-adopted, restored,
/// demoted, or minted past the slots identifiers name — and takes two
/// table entries, its raw TEID and raw UE IP tagged by direction; a key
/// that misses natively probes the table.
///
/// **ECM-IDLE is a bit.** `Suspend` sets the slot's idle bit, keeping
/// the user indexed, and an `Insert` of the handle clears it. The resolve
/// reads it from the generation word it checks: an idle hit parks downlink
/// and drops uplink.
pub struct DataPlane {
    index: UserIndex,
    /// Downlink parked for idle users, by UE IP; an entry lives from its
    /// first packet to the wake, expiry or detach that empties it.
    parked: HashMap<u32, Parked, BuildKeyHasher>,
    /// Indexed users this plane marked idle.
    idle: usize,
    /// Per-UE idle buffer depth (see [`IDLE_BUF_CAP`]).
    idle_buf_cap: usize,
    /// IMSIs whose idle buffer went empty→non-empty since the last
    /// [`Self::take_paging_events`]: each asks the control plane to page.
    paging_events: Vec<u64>,
    /// Buffered downlink flushed by a wake-up, already GTP-U encapped
    /// toward the re-established eNodeB tunnel.
    woken: Vec<Mbuf>,
    /// The slice's context arena, shared with the control plane.
    slab: Arc<UeSlab>,
    pcef: Pcef,
    iot: IotConfig,
    /// Aggregate charging for the stateless-IoT pool (no per-user state).
    pub iot_packets: u64,
    pub iot_bytes: u64,
    /// This node's gateway address (outer source of downlink tunnels).
    gw_ip: u32,
    metrics: DataMetrics,
    /// Wall-clock pipeline latency of every *forwarded* packet, so the
    /// histogram count equals `metrics.forwarded` by construction.
    pipeline_ns: LatencyHistogram,
    /// Control→data propagation delay of applied updates (stamped at
    /// enqueue by the slice wiring, measured here at apply).
    update_delay_ns: LatencyHistogram,
    /// Burst scratch (reused across calls; never holds state between them).
    slots: Vec<Slot>,
    /// What stage 2b's table `get` returned per packet, for stage 2c.
    handles: Vec<Option<UeHandle>>,
    /// Same-user run starts discovered in pass 2: (first slot index, ctx).
    /// Lives only within one `process_burst_into` call (cleared at entry
    /// and exit); see the SAFETY note at its use site in pass 3.
    groups: Vec<GroupRun>,
    /// When true, each burst additionally records
    /// one amortized ns/packet sample per pipeline stage.
    stage_timing: bool,
    /// Per-stage amortized ns/packet, indexed like [`STAGE_NAMES`].
    stage_ns: [LatencyHistogram; 3],
}

/// One same-user run handed from the resolve pass to the act pass.
///
/// The context is a borrowed raw pointer rather than a resolved
/// [`crate::slab::UeRef`]: the reference form would borrow the plane
/// (through its slab field) across the act pass, which also needs
/// `&mut self`. Validity is argued at the use sites — slot storage lives
/// in slab chunks that are only released when the slab itself drops, and
/// `self.slab` keeps it alive across the burst call.
#[derive(Clone, Copy)]
struct GroupRun {
    start: usize,
    ctx: *const UeContext,
}

// SAFETY: `GroupRun` values never outlive the single-threaded
// `process_burst_into` call that created them (the scratch vec is
// cleared at entry and exit), so sending the containing `DataPlane`
// between threads never sends a live pointer.
unsafe impl Send for GroupRun {}

impl DataPlane {
    /// Build a standalone data plane with its own private context arena.
    /// It has no native region: every user is foreign.
    pub fn new(gw_ip: u32, expected_users: usize, two_level: TwoLevelConfig, iot: IotConfig) -> Self {
        Self::with_slab(Arc::new(UeSlab::new()), gw_ip, expected_users, two_level, iot, None)
    }

    /// Build a data plane over a shared context arena (the slice wires
    /// control and data planes to one slab). `bases` are the
    /// `(teid_base, ue_ip_base)` its native users' identifiers are minted
    /// from.
    pub fn with_slab(
        slab: Arc<UeSlab>,
        gw_ip: u32,
        expected_users: usize,
        two_level: TwoLevelConfig,
        iot: IotConfig,
        bases: Option<(u32, u32)>,
    ) -> Self {
        let table = if two_level.enabled {
            TwoLevelTable::new(expected_users, two_level.idle_timeout_ns)
        } else {
            TwoLevelTable::new_single()
        };
        DataPlane {
            index: UserIndex { bases, natives: 0, two_level: two_level.enabled, table, tagged: [0; 2] },
            parked: HashMap::default(),
            idle: 0,
            idle_buf_cap: IDLE_BUF_CAP,
            paging_events: Vec::new(),
            woken: Vec::new(),
            slab,
            pcef: Pcef::new(),
            iot,
            iot_packets: 0,
            iot_bytes: 0,
            gw_ip,
            metrics: DataMetrics::default(),
            pipeline_ns: LatencyHistogram::new(),
            update_delay_ns: LatencyHistogram::new(),
            slots: Vec::with_capacity(64),
            handles: Vec::with_capacity(64),
            groups: Vec::with_capacity(64),
            stage_timing: false,
            stage_ns: [LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new()],
        }
    }

    /// The context arena this plane resolves handles against.
    pub fn slab(&self) -> &Arc<UeSlab> {
        &self.slab
    }

    /// Enable/disable per-stage ns/packet recording (off by default: it
    /// adds two extra clock reads per burst).
    pub fn set_stage_timing(&mut self, enabled: bool) {
        self.stage_timing = enabled;
    }

    /// Apply one control→data update.
    pub fn apply_update(&mut self, update: DpUpdate, now_ns: u64) {
        self.metrics.updates_applied += 1;
        match update {
            DpUpdate::Insert { gw_teid, ue_ip, handle, active } => {
                // A restore over a resident re-indexes its keys onto a
                // fresh context: free the one it displaces, idle or not
                // (`free` ignores a handle already freed).
                let displaced = self.index.set(&self.slab, gw_teid, ue_ip, Some((handle, active)), now_ns);
                for old in displaced.into_iter().flatten().filter(|&old| old != handle) {
                    self.release(old);
                }
                // A Service Request re-inserting an idle UE wakes it, and
                // what these keys parked leaves through the fresh tunnel.
                self.idle -= usize::from(self.slab.mark(handle, IDLE, false));
                self.unpark(ue_ip, Some(handle));
            }
            DpUpdate::Remove { gw_teid, ue_ip } => {
                // Free-at-Remove: unindex the user, idle or not, drop what
                // it parked, then release the slot. Updates and packets
                // are serialized on this thread, so no in-flight packet
                // can still resolve the handle; a subsequent reattach's
                // Insert rides behind this Remove in FIFO order.
                self.unpark(ue_ip, None);
                for h in self.index.set(&self.slab, gw_teid, ue_ip, None, 0).into_iter().flatten() {
                    self.release(h);
                }
            }
            DpUpdate::Demote { gw_teid, ue_ip } => self.index.demote(&self.slab, gw_teid, ue_ip),
            DpUpdate::Suspend { gw_teid, ue_ip, .. } => {
                // The user stays indexed and keeps its slot.
                if let Some(h) = self.index.find(&self.slab, gw_teid, ue_ip) {
                    self.idle += usize::from(self.slab.mark(h, IDLE, true));
                }
            }
            DpUpdate::DropIdleBuffer { ue_ip } => self.unpark(ue_ip, None),
            DpUpdate::InstallRule { id, program, action } => {
                self.pcef.install(id, program, action);
            }
        }
    }

    /// Free the slot of a user the index no longer leads to.
    fn release(&mut self, h: UeHandle) {
        self.idle -= usize::from(self.slab.mark(h, IDLE, false));
        self.slab.free(h);
    }

    /// Empty what `ue_ip` parked: GTP-U encap it toward the woken user
    /// `to`'s eNodeB tunnel, counted in `forwarded_on_wake` (it surfaces
    /// via [`Self::take_woken`]), or, with no live `to`, drop it all as
    /// `drop_idle_expired`.
    fn unpark(&mut self, ue_ip: u32, to: Option<UeHandle>) {
        let Some(p) = self.parked.remove(&ue_ip) else { return };
        self.metrics.idle_buffered -= p.buf.len() as u64;
        let Some(t) = to.and_then(|h| self.slab.resolve(h)).map(|r| r.ctrl_view().tunnels) else {
            self.metrics.drop_idle_expired += p.buf.len() as u64;
            return;
        };
        for mut m in p.buf {
            if encap_gtpu(&mut m, self.gw_ip, t.enb_ip, t.enb_teid).is_err() {
                self.metrics.drop_malformed += 1;
                continue;
            }
            self.metrics.forwarded += 1;
            self.metrics.forwarded_on_wake += 1;
            self.woken.push(m);
        }
    }

    /// Demote table users idle past the two-level timeout, as each one's
    /// counter cell reports it (`last_activity_ns`). Returns index entries
    /// demoted: two per foreign user. Natives hold no entry to evict.
    pub fn evict_idle(&mut self, now_ns: u64) -> usize {
        let slab = &self.slab;
        self.index.table.evict_idle(now_ns, |h| slab.resolve(*h).map_or(0, |r| r.counters().last_activity_ns))
    }

    /// Process one packet. `uplink` packets carry an outer GTP-U stack
    /// from the eNodeB; `downlink` packets are plain IP addressed to a UE.
    ///
    /// This is a dedicated burst-size-1 path sharing every decision stage
    /// with [`Self::process_burst_into`] (same classifier, same table
    /// lookup, same `enforce_one` core), but skipping the burst machinery
    /// — slot/decision/group scratch, prefetch scheduling, run fusion —
    /// that only pays for itself at size > 1. Differential tests pin it
    /// to the burst path's verdicts, counters and metrics.
    pub fn process(&mut self, mut m: Mbuf, now_ns: u64) -> PacketVerdict {
        self.metrics.rx += 1;
        let t0 = Instant::now();
        let decision = match self.classify(&mut m) {
            Slot::Done(d) => d,
            Slot::Lookup { uplink, id, bytes } => {
                let handle = self.index.get(&self.slab, uplink, id, now_ns);
                match self.resolve(handle, uplink, id, &mut m, now_ns) {
                    Ok(p) => {
                        // SAFETY: slot storage lives in slab chunks that
                        // are only released when the slab drops, and
                        // `self.slab` keeps the slab alive across this
                        // call (same argument as burst pass 3).
                        let ctx = unsafe { &*p };
                        let c = self.slab.ctrl_view(ctx);
                        let run_bucket = TokenBucket::from_kbps(c.ambr_kbps);
                        let mut cnt = ctx.counters();
                        let d = self.enforce_one(&c, run_bucket, &mut cnt, uplink, bytes, &mut m, now_ns);
                        ctx.publish_counters(cnt);
                        d
                    }
                    Err(d) => d,
                }
            }
        };
        if matches!(decision, Decision::Forward) {
            self.pipeline_ns.record(t0.elapsed().as_nanos() as u64);
        }
        decision.verdict(m)
    }

    /// Resolve a probed handle (scalar and burst paths): the served user's
    /// context, or what became of `m`. An idle user's uplink drops and its
    /// downlink parks (bounded, paging the slot's IMSI on the first, `m`
    /// left an empty placeholder); a real miss is an unknown user.
    fn resolve(
        &mut self,
        h: Option<UeHandle>,
        uplink: bool,
        ue_ip: u32,
        m: &mut Mbuf,
        now_ns: u64,
    ) -> Result<*const UeContext, Decision> {
        let imsi = match h.and_then(|h| self.slab.resolve_idle(h)) {
            Some((r, false)) => return Ok(std::ptr::from_ref(r.context())),
            Some((r, true)) => r.imsi_guti().0,
            None => {
                self.metrics.drop_unknown_user += 1;
                return Err(Decision::Drop(DropReason::UnknownUser));
            }
        };
        if uplink {
            self.metrics.drop_idle_uplink += 1;
            return Err(Decision::Drop(DropReason::IdleUplink));
        }
        if self.parked.get(&ue_ip).map_or(0, |p| p.buf.len()) >= self.idle_buf_cap {
            self.metrics.drop_idle_overflow += 1;
            return Err(Decision::Drop(DropReason::IdleOverflow));
        }
        let paging = &mut self.paging_events;
        let p = self.parked.entry(ue_ip).or_insert_with(|| {
            paging.push(imsi);
            Parked { imsi, buf: Vec::new(), oldest_ns: now_ns }
        });
        p.buf.push(std::mem::replace(m, Mbuf::new()));
        self.metrics.idle_buffered += 1;
        Err(Decision::Buffered)
    }

    /// Process a whole burst: verdicts are appended to `out` (one per
    /// packet, input order); `burst` is drained. Callers reuse `out`, so
    /// the burst path allocates nothing per call.
    pub fn process_burst_into(&mut self, burst: &mut Vec<Mbuf>, now_ns: u64, out: &mut Vec<PacketVerdict>) {
        let n = burst.len();
        if n <= 1 {
            // Burst-1 bypass: the slot/group scratch and the staged
            // lookup of the 3-pass pipeline cost more than they save for
            // a single packet; the scalar path shares every decision
            // stage, so verdicts and counters are identical.
            if let Some(m) = burst.pop() {
                out.push(self.process(m, now_ns));
            }
            return;
        }
        self.metrics.rx += n as u64;
        let forwarded_before = self.metrics.forwarded;
        // One clock read pair per burst (not two per packet).
        let t0 = Instant::now();
        let stage = self.stage_timing;

        // Pass 1: classify direction and parse headers for the whole
        // burst. Uplink packets are decapped in place. Stage 2a of the
        // lookup rides along: a pending key's table lines are hinted
        // (hash only, no load) the moment it is known, so parsing the
        // rest of the burst covers the first round of misses.
        self.slots.clear();
        for m in burst.iter_mut() {
            let slot = self.classify(m);
            if let Slot::Lookup { uplink, id, .. } = slot {
                self.index.prefetch(&self.slab, uplink, id);
            }
            self.slots.push(slot);
        }
        let t_parse = if stage { Some(Instant::now()) } else { None };

        // Pass 2: probe and resolve, one tile at a time. Each stage's
        // loads depend on lines the previous stage only *hinted*, so the
        // misses of a tile overlap instead of queueing behind each other.
        self.handles.clear();
        self.groups.clear();
        let mut last_ptr: *const UeContext = std::ptr::null();
        for tile in (0..n).step_by(LOOKUP_TILE).map(|start| start..n.min(start + LOOKUP_TILE)) {
            // 2b: the real `get`s, in packet order (promotions, stats and
            // activity stamps exactly as the scalar path), each followed
            // by hints for the lines 2c and pass 3 read through its
            // handle. A promotion may grow the primary and strand 2a's
            // hints for the rest of the burst: slower, never wrong.
            for slot in &self.slots[tile.clone()] {
                let handle = match *slot {
                    Slot::Lookup { uplink, id, .. } => {
                        self.index.get(&self.slab, uplink, id, now_ns).inspect(|&h| self.slab.prefetch(h))
                    }
                    Slot::Done(_) => None,
                };
                self.handles.push(handle);
            }
            // 2c: generation and idle check, idle and miss handling, and
            // fusing consecutive packets of the same user into groups
            // (runs may span tiles). Index loop: `resolve` needs `&mut
            // self`.
            for k in tile {
                let Slot::Lookup { uplink, id, .. } = self.slots[k] else {
                    last_ptr = std::ptr::null();
                    continue;
                };
                match self.resolve(self.handles[k], uplink, id, &mut burst[k], now_ns) {
                    Ok(p) => {
                        if p != last_ptr {
                            last_ptr = p;
                            self.groups.push(GroupRun { start: k, ctx: p });
                        }
                    }
                    Err(d) => {
                        self.slots[k] = Slot::Done(d);
                        last_ptr = std::ptr::null();
                    }
                }
            }
        }

        let t_lookup = if stage { Some(Instant::now()) } else { None };

        // Pass 3: act. Each same-user run is enforced under one seqlock
        // view read + one counter-cell publish (no locks).
        let groups = std::mem::take(&mut self.groups);
        for (gi, g) in groups.iter().enumerate() {
            let next_start = groups.get(gi + 1).map_or(n, |g| g.start);
            let mut end = g.start;
            while end < next_start && matches!(self.slots[end], Slot::Lookup { .. }) {
                end += 1;
            }
            // SAFETY: `g.ctx` was resolved through `self.slab` during
            // pass 2 of this same call. Slot storage lives in slab
            // chunks that are only released when the slab drops, and we
            // hold `&mut self` (so `self.slab` — an owning Arc — stays
            // put) across both passes; nothing in between frees slab
            // slots (pass 3 only touches slots / metrics / pcef), so the
            // pointee is still the same live user.
            let ctx = unsafe { &*g.ctx };
            self.enforce_group(ctx, g.start, end, burst, now_ns);
        }
        self.groups = groups;
        self.groups.clear(); // drop the raw pointers before returning

        // Every slot is decided by now.
        for (k, m) in burst.drain(..).enumerate() {
            let Slot::Done(d) = self.slots[k] else { unreachable!("pass 3 decides every lookup") };
            out.push(d.verdict(m));
        }

        // Forwarded packets record the amortized per-packet pipeline time
        // so the histogram population equals `metrics.forwarded` (the
        // invariant the metrics tests check) at one clock read per burst.
        let per_pkt_ns = t0.elapsed().as_nanos() as u64 / n as u64;
        self.pipeline_ns.record_n(per_pkt_ns, self.metrics.forwarded - forwarded_before);
        // One amortized ns/packet sample per stage per burst; the enforce
        // stage runs from the end of pass 2 to verdict emission, so the
        // three stage samples sum to ~per_pkt_ns.
        if let (Some(tp), Some(tl)) = (t_parse, t_lookup) {
            let n64 = n as u64;
            self.stage_ns[0].record(tp.duration_since(t0).as_nanos() as u64 / n64);
            self.stage_ns[1].record(tl.duration_since(tp).as_nanos() as u64 / n64);
            self.stage_ns[2].record(tl.elapsed().as_nanos() as u64 / n64);
        }
    }

    /// Pass 1 for one packet: branchless classification ([`classify_fast`],
    /// proven byte-equivalent to the old parser chain), decap, IoT fast
    /// path.
    fn classify(&mut self, m: &mut Mbuf) -> Slot {
        match classify_fast(m.data()) {
            PktClass::GtpU { teid } => {
                // The classifier validated the full outer stack, including
                // `len == gtp_length + GTPU_OVERHEAD`; should the two ever
                // disagree the packet is a counted drop, not a panic.
                if m.pull(GTPU_OVERHEAD).is_err() {
                    self.metrics.drop_malformed += 1;
                    return Slot::Done(Decision::Drop(DropReason::Malformed));
                }
                let bytes = m.len() as u64;
                // Stateless-IoT fast path (§4.2): TEID in the reserved
                // pool ⇒ no per-user state lookup; aggregate charging;
                // best effort.
                if self.iot.enabled && in_pool(teid, self.iot.teid_base, self.iot.pool_size) {
                    self.iot_packets += 1;
                    self.iot_bytes += bytes;
                    self.metrics.iot_fast_path += 1;
                    self.metrics.forwarded += 1;
                    return Slot::Done(Decision::Forward);
                }
                Slot::Lookup { uplink: true, id: teid, bytes }
            }
            PktClass::Ipv4 { dst } => {
                let bytes = m.len() as u64;
                if self.iot.enabled && in_pool(dst, self.iot.ip_base, self.iot.pool_size) {
                    // Downlink to a pool device: tunnel parameters are
                    // *computed* from the pool layout instead of looked up.
                    let idx = dst - self.iot.ip_base;
                    let teid = self.iot.teid_base + idx;
                    self.iot_packets += 1;
                    self.iot_bytes += bytes;
                    self.metrics.iot_fast_path += 1;
                    // Pool devices all camp on one IoT gateway eNodeB
                    // address derived from the pool base.
                    if encap_gtpu(m, self.gw_ip, self.iot.ip_base, teid).is_err() {
                        self.metrics.drop_malformed += 1;
                        return Slot::Done(Decision::Drop(DropReason::Malformed));
                    }
                    self.metrics.forwarded += 1;
                    return Slot::Done(Decision::Forward);
                }
                Slot::Lookup { uplink: false, id: dst, bytes }
            }
            PktClass::Malformed => {
                self.metrics.drop_malformed += 1;
                Slot::Done(Decision::Drop(DropReason::Malformed))
            }
        }
    }

    /// Enforcement for one same-user run `[start, end)` of the burst:
    /// one lock-free seqlock read of the control view, one owner-read +
    /// single publish of the counter cell, and (for rule-less users, the
    /// common case) one token-bucket setup amortized over the whole run.
    /// No lock is acquired on this path.
    fn enforce_group(&mut self, ctx: &UeContext, start: usize, end: usize, burst: &mut [Mbuf], now_ns: u64) {
        // Seqlock read of the control projection (its writer is the
        // control thread); downlink tunnel endpoints come from this same
        // consistent snapshot.
        let c = self.slab.ctrl_view(ctx);
        // With no PCEF rules the action is always the default, so the
        // effective rate is the plain AMBR for every packet of the run.
        let run_bucket = TokenBucket::from_kbps(c.ambr_kbps);
        // Owner read of the counter cell. It goes through the seqlock
        // `read()` like any reader's, but we are the cell's single
        // writer, so it never retries; mutate locally across the run and
        // publish once at the end.
        let mut cnt = ctx.counters();
        #[allow(clippy::needless_range_loop)] // k indexes two parallel arrays
        for k in start..end {
            let Slot::Lookup { uplink, bytes, .. } = self.slots[k] else {
                debug_assert!(false, "groups span Lookup slots");
                continue;
            };
            let d = self.enforce_one(&c, run_bucket, &mut cnt, uplink, bytes, &mut burst[k], now_ns);
            self.slots[k] = Slot::Done(d);
        }
        // One release publish per same-user run (the seqlock analogue of
        // the former per-run `counters.write()` release).
        ctx.publish_counters(cnt);
    }

    /// Enforce one packet against an already-read control view, mutating
    /// the caller's local counter copy (not published here — the caller
    /// amortizes the publish over the run). Shared verbatim by the burst
    /// act pass and the scalar path, so their decisions cannot diverge.
    #[allow(clippy::too_many_arguments)]
    fn enforce_one(
        &mut self,
        c: &CtrlView,
        run_bucket: TokenBucket,
        cnt: &mut CounterState,
        uplink: bool,
        bytes: u64,
        m: &mut Mbuf,
        now_ns: u64,
    ) -> Decision {
        let rules_empty = c.rules_empty();
        let action = if rules_empty {
            // Rule-less fast path: skip the 5-tuple parse and PCEF walk
            // entirely; classify would return the default.
            PcefAction::default()
        } else {
            let ft = FiveTuple::from_ipv4(m.data()).unwrap_or_default();
            self.pcef.classify(&ft, c.rule_ids().iter().copied())
        };
        if action.gate_closed {
            self.metrics.drop_gate += 1;
            cnt.qos_drops = cnt.qos_drops.saturating_add(1);
            cnt.last_activity_ns = now_ns;
            return Decision::Drop(DropReason::GateClosed);
        }
        let bucket = if rules_empty {
            run_bucket
        } else {
            TokenBucket::from_kbps(effective_rate(c.ambr_kbps, action.rate_kbps))
        };
        let mut tokens = u64::from(cnt.ambr_tokens);
        let mut last = cnt.ambr_last_refill_ns;
        let admitted = bucket.admit(&mut tokens, &mut last, now_ns, bytes);
        // Lossless: tokens never exceed a burst, and bursts fit u32.
        cnt.ambr_tokens = tokens as u32;
        cnt.ambr_last_refill_ns = last;
        if !admitted {
            cnt.qos_drops = cnt.qos_drops.saturating_add(1);
            cnt.last_activity_ns = now_ns;
            self.metrics.drop_qos += 1;
            return Decision::Drop(DropReason::RateExceeded);
        }
        if uplink {
            cnt.uplink_packets += 1;
            cnt.uplink_bytes += bytes;
        } else {
            cnt.downlink_packets += 1;
            cnt.downlink_bytes += bytes;
        }
        cnt.last_activity_ns = now_ns;
        if uplink {
            self.metrics.forwarded += 1;
            Decision::Forward
        } else if encap_gtpu(m, self.gw_ip, c.tunnels.enb_ip, c.tunnels.enb_teid).is_err() {
            self.metrics.drop_malformed += 1;
            Decision::Drop(DropReason::Malformed)
        } else {
            self.metrics.forwarded += 1;
            Decision::Forward
        }
    }

    /// Record one control→data update propagation delay (enqueue→apply),
    /// measured by the slice wiring that owns both ring ends.
    #[inline]
    pub fn record_update_delay(&mut self, delay_ns: u64) {
        self.update_delay_ns.record(delay_ns);
    }

    /// Pipeline latency of forwarded packets.
    pub fn pipeline_latency(&self) -> &LatencyHistogram {
        &self.pipeline_ns
    }

    /// Control→data update propagation delays.
    pub fn update_delay(&self) -> &LatencyHistogram {
        &self.update_delay_ns
    }

    /// Per-stage amortized ns/packet histograms (one sample per burst),
    /// index-aligned with [`STAGE_NAMES`]. Empty unless
    /// [`Self::set_stage_timing`] enabled recording.
    pub fn stage_latencies(&self) -> &[LatencyHistogram; 3] {
        &self.stage_ns
    }

    /// Data-plane metrics snapshot.
    pub fn metrics(&self) -> DataMetrics {
        self.metrics
    }

    /// Bound the per-UE idle downlink buffer (default [`IDLE_BUF_CAP`]).
    /// Applies to future arrivals; already-buffered packets stay.
    pub fn set_idle_buffer_cap(&mut self, cap: usize) {
        self.idle_buf_cap = cap;
    }

    /// IMSIs that need paging (first downlink parked since the last
    /// drain). The control plane turns each into a `PageTrigger`.
    pub fn take_paging_events(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.paging_events)
    }

    /// Buffered downlink released by UE wake-ups since the last drain,
    /// already encapped toward the re-established tunnels (counted in
    /// `forwarded` / `forwarded_on_wake` at flush time).
    pub fn take_woken(&mut self) -> Vec<Mbuf> {
        std::mem::take(&mut self.woken)
    }

    /// Idle UEs currently holding buffered downlink, as
    /// `(imsi, buffered_packets, oldest_arrival_ns)` — input to the
    /// stuck-idle oracle (a UE with parked packets, no page in flight,
    /// and no wake-up within the bound is stuck). The timestamp is the
    /// arrival of the oldest packet still buffered, not the suspension
    /// time: a long-idle UE that just received downlink is not stuck.
    pub fn idle_buffered_report(&self) -> Vec<(u64, usize, u64)> {
        let mut v: Vec<_> = self.parked.values().map(|p| (p.imsi, p.buf.len(), p.oldest_ns)).collect();
        v.sort_unstable();
        v
    }

    /// Suspended (idle but context-retained) UEs.
    pub fn suspended_count(&self) -> usize {
        self.idle
    }

    /// Users currently served: indexed and not idle. Users, not entries
    /// (a foreign user counts once).
    pub fn user_count(&self) -> usize {
        self.index.natives + self.index.tagged[0] - self.idle
    }

    /// Users served natively or from the hot (primary) level. Walks the
    /// primary: a test and harness accessor.
    pub fn primary_count(&self) -> usize {
        self.index.natives + self.index.table.primary_keys().filter(|&k| k < 2 * TAG).count()
    }

    /// Two-level churn stats of the table, both directions. They count
    /// table probes, which native hits never make.
    pub fn table_stats(&self) -> crate::twolevel::TwoLevelStats {
        self.index.table.stats()
    }

    /// Resident bytes of the lookup index (memory gauge). Natives take
    /// none: their bit lives in the slab's generation word.
    pub fn table_bytes(&self) -> u64 {
        self.index.table.bytes()
    }

    /// Make bounded background progress on any in-flight incremental
    /// resize of the lookup index (inserts and removes also step, so
    /// this only matters for idle convergence after a mass detach).
    pub fn maintain_tables(&mut self) {
        self.index.table.maintain();
    }

    /// Whether the lookup index has an incremental resize in flight
    /// (footprint and lookup cost include the draining array until it
    /// empties).
    pub fn tables_migrating(&self) -> bool {
        self.index.table.is_migrating()
    }
}

/// Effective rate when both an AMBR and a rule MBR apply: the tighter one.
fn effective_rate(ambr_kbps: u32, rule_kbps: u32) -> u32 {
    match (ambr_kbps, rule_kbps) {
        (0, r) => r,
        (a, 0) => a,
        (a, r) => a.min(r),
    }
}

#[inline]
fn in_pool(value: u32, base: u32, size: u32) -> bool {
    value.wrapping_sub(base) < size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwoLevelConfig;
    use crate::state::{ControlState, QosPolicy, TunnelState};
    use pepc_net::gtp::decap_gtpu;
    use pepc_net::ipv4::IpProto;
    use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
    use pepc_net::{Ipv4Hdr, IPV4_HDR_LEN};

    const GW_IP: u32 = 0x0AFE0001;
    const ENB_IP: u32 = 0xC0A80001;
    const UE_IP: u32 = 0x0A000042;
    const TEID_UL: u32 = 0x1000;
    const TEID_DL: u32 = 0x2000;

    /// One burst through `process_burst_into`: its verdicts, input order.
    fn run_burst(dp: &mut DataPlane, burst: &mut Vec<Mbuf>, now: u64) -> Vec<PacketVerdict> {
        let mut out = Vec::new();
        dp.process_burst_into(burst, now, &mut out);
        out
    }

    fn dp() -> DataPlane {
        DataPlane::new(GW_IP, 64, TwoLevelConfig::default(), IotConfig::default())
    }

    fn attach_user(dp: &mut DataPlane, ambr_kbps: u32) -> UeHandle {
        let mut ctrl = ControlState::new(404_01_0000000001);
        ctrl.ue_ip = UE_IP;
        ctrl.qos = QosPolicy { qci: 9, ambr_kbps, gbr_kbps: 0 };
        ctrl.tunnels = TunnelState { enb_teid: TEID_DL, enb_ip: ENB_IP, gw_teid: TEID_UL };
        let h = dp.slab().alloc(ctrl, CounterState::default()).unwrap();
        dp.apply_update(DpUpdate::Insert { gw_teid: TEID_UL, ue_ip: UE_IP, handle: h, active: true }, 0);
        h
    }

    /// Snapshot a user's counters without holding a borrow of the plane.
    fn counters(dp: &DataPlane, h: UeHandle) -> CounterState {
        dp.slab().resolve(h).expect("live handle").counters()
    }

    fn inner_udp(src: u32, dst: u32, dst_port: u16, payload_len: usize) -> Mbuf {
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
        Ipv4Hdr::new(src, dst, IpProto::Udp, UDP_HDR_LEN + payload_len).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        UdpHdr::new(40000, dst_port, payload_len).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
        m.extend(&hdr);
        m.extend(&vec![0xAB; payload_len]);
        m
    }

    fn uplink_packet(teid: u32) -> Mbuf {
        let mut m = inner_udp(UE_IP, 0x08080808, 53, 64);
        encap_gtpu(&mut m, ENB_IP, GW_IP, teid).unwrap();
        m
    }

    #[test]
    fn uplink_decaps_and_forwards() {
        let mut dp = dp();
        let h = attach_user(&mut dp, 0);
        let v = dp.process(uplink_packet(TEID_UL), 100);
        match v {
            PacketVerdict::Forward(m) => {
                // Outer stack stripped: inner packet starts with IPv4.
                let ip = Ipv4Hdr::parse(m.data()).unwrap();
                assert_eq!(ip.src, UE_IP);
            }
            other => panic!("expected forward, got {other:?}"),
        }
        let cnt = counters(&dp, h);
        assert_eq!(cnt.uplink_packets, 1);
        assert!(cnt.uplink_bytes > 0);
        assert_eq!(cnt.last_activity_ns, 100);
    }

    #[test]
    fn downlink_encaps_toward_serving_enb() {
        let mut dp = dp();
        let h = attach_user(&mut dp, 0);
        let v = dp.process(inner_udp(0x08080808, UE_IP, 443, 64), 200);
        match v {
            PacketVerdict::Forward(mut m) => {
                let (gtp, outer) = decap_gtpu(&mut m).unwrap();
                assert_eq!(gtp.teid, TEID_DL);
                assert_eq!(outer.dst, ENB_IP);
                assert_eq!(outer.src, GW_IP);
                let inner = Ipv4Hdr::parse(m.data()).unwrap();
                assert_eq!(inner.dst, UE_IP);
            }
            other => panic!("expected forward, got {other:?}"),
        }
        assert_eq!(counters(&dp, h).downlink_packets, 1);
    }

    #[test]
    fn unknown_teid_dropped() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        let v = dp.process(uplink_packet(0xDEAD), 1);
        assert!(matches!(v, PacketVerdict::Drop(DropReason::UnknownUser)));
        assert_eq!(dp.metrics().drop_unknown_user, 1);
    }

    #[test]
    fn unknown_ue_ip_dropped() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        let v = dp.process(inner_udp(1, 0x0A0000FF, 80, 10), 1);
        assert!(matches!(v, PacketVerdict::Drop(DropReason::UnknownUser)));
    }

    #[test]
    fn malformed_packet_dropped_not_panicking() {
        let mut dp = dp();
        let v = dp.process(Mbuf::from_payload(&[0xFF; 40]), 1);
        assert!(matches!(v, PacketVerdict::Drop(DropReason::Malformed)));
    }

    #[test]
    fn handover_rewrite_is_visible_without_any_dp_update() {
        // The PEPC property: the control thread rewrites tunnel state in
        // the shared context; the very next downlink packet uses it.
        let mut dp = dp();
        let h = attach_user(&mut dp, 0);
        {
            let r = dp.slab().resolve(h).unwrap();
            let mut c = r.ctrl_write();
            c.tunnels.enb_teid = 0x3333;
            c.tunnels.enb_ip = 0xC0A80099;
        }
        match dp.process(inner_udp(1, UE_IP, 80, 10), 1) {
            PacketVerdict::Forward(mut m) => {
                let (gtp, outer) = decap_gtpu(&mut m).unwrap();
                assert_eq!(gtp.teid, 0x3333);
                assert_eq!(outer.dst, 0xC0A80099);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rate_limit_enforced_and_recorded() {
        let mut dp = dp();
        // 8 kbps = 1000 B/s; burst floor 1500 B.
        let h = attach_user(&mut dp, 8);
        let mut forwarded = 0;
        let mut dropped = 0;
        for i in 0..50 {
            // ~100-byte packets, all at (nearly) the same instant.
            match dp.process(uplink_packet(TEID_UL), 1000 + i) {
                PacketVerdict::Forward(_) => forwarded += 1,
                PacketVerdict::Drop(DropReason::RateExceeded) => dropped += 1,
                other => panic!("{other:?}"),
            }
        }
        assert!((10..25).contains(&forwarded), "burst admitted ~15: {forwarded}");
        assert!(dropped > 0);
        assert_eq!(u64::from(counters(&dp, h).qos_drops), dropped);
        assert_eq!(dp.metrics().drop_qos, dropped);
    }

    #[test]
    fn gate_closed_rule_drops() {
        let mut dp = dp();
        let h = attach_user(&mut dp, 0);
        dp.apply_update(
            DpUpdate::InstallRule {
                id: 1,
                program: BpfProgram::match_dst_port(53, 1),
                action: PcefAction { qci: 9, rate_kbps: 0, gate_closed: true },
            },
            0,
        );
        dp.slab().resolve(h).unwrap().ctrl_write().pcef_rules.push(1);
        let v = dp.process(uplink_packet(TEID_UL), 1);
        assert!(matches!(v, PacketVerdict::Drop(DropReason::GateClosed)));
        assert_eq!(dp.metrics().drop_gate, 1);
    }

    #[test]
    fn remove_update_detaches_user_and_frees_the_slot() {
        let mut dp = dp();
        let h = attach_user(&mut dp, 0);
        assert_eq!(dp.user_count(), 1);
        assert_eq!(dp.slab().live_slots(), 1);
        dp.apply_update(DpUpdate::Remove { gw_teid: TEID_UL, ue_ip: UE_IP }, 0);
        assert_eq!(dp.user_count(), 0);
        assert_eq!(dp.slab().live_slots(), 0, "Remove frees the slab slot");
        assert_eq!(dp.slab().free_slots(), 1);
        assert!(dp.slab().resolve(h).is_none(), "freed handle goes stale");
        assert!(matches!(dp.process(uplink_packet(TEID_UL), 1), PacketVerdict::Drop(DropReason::UnknownUser)));
    }

    #[test]
    fn demoted_user_promoted_by_traffic() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        dp.apply_update(DpUpdate::Demote { gw_teid: TEID_UL, ue_ip: UE_IP }, 0);
        assert_eq!(dp.primary_count(), 0);
        assert!(dp.process(uplink_packet(TEID_UL), 1).is_forward());
        assert_eq!(dp.primary_count(), 1);
        assert_eq!(dp.table_stats().promotions, 1);
    }

    #[test]
    fn idle_eviction_from_pipeline() {
        let mut dp =
            DataPlane::new(GW_IP, 64, TwoLevelConfig { enabled: true, idle_timeout_ns: 1000 }, IotConfig::default());
        let mut ctrl = ControlState::new(1);
        ctrl.tunnels.gw_teid = TEID_UL;
        ctrl.ue_ip = UE_IP;
        let h = dp.slab().alloc(ctrl, CounterState::default()).unwrap();
        dp.apply_update(DpUpdate::Insert { gw_teid: TEID_UL, ue_ip: UE_IP, handle: h, active: true }, 0);
        assert!(dp.process(uplink_packet(TEID_UL), 10).is_forward());
        let evicted = dp.evict_idle(5000);
        assert_eq!(evicted, 2, "both indexes demote");
        assert_eq!(dp.primary_count(), 0);
        assert!(dp.process(uplink_packet(TEID_UL), 5001).is_forward(), "still served via secondary");
    }

    /// Uplink whose inner packet (1628 B) exceeds the 1500 B burst of an
    /// 8 kbps bucket: always a rate drop.
    fn oversized_uplink() -> Mbuf {
        let mut m = inner_udp(UE_IP, 0x0808_0808, 53, 1600);
        encap_gtpu(&mut m, ENB_IP, GW_IP, TEID_UL).unwrap();
        m
    }

    #[test]
    fn eviction_reads_activity_from_the_counter_cell() {
        let two_level = TwoLevelConfig { enabled: true, idle_timeout_ns: 1000 };
        let mut dp = DataPlane::new(GW_IP, 64, two_level, IotConfig::default());
        let dropped_all = attach_user(&mut dp, 8);
        attach_second_user(&mut dp); // never sends
        assert_eq!(dp.evict_idle(1000), 0, "nobody is idle before the timeout passes");
        assert!(matches!(dp.process(oversized_uplink(), 4500), PacketVerdict::Drop(DropReason::RateExceeded)));
        // A rate drop still stamps activity, so only the silent user's
        // two keys demote.
        assert_eq!(dp.evict_idle(5000), 2);
        assert_eq!(dp.primary_count(), 1);
        assert_eq!(counters(&dp, dropped_all).last_activity_ns, 4500);
    }

    #[test]
    fn qos_drops_saturate_instead_of_wrapping() {
        let mut dp = dp();
        let h = attach_user(&mut dp, 8);
        dp.slab().resolve(h).unwrap().update_counters(|c| c.qos_drops = u32::MAX - 1);
        for now in 1..=3 {
            assert!(matches!(dp.process(oversized_uplink(), now), PacketVerdict::Drop(DropReason::RateExceeded)));
        }
        assert_eq!(counters(&dp, h).qos_drops, u32::MAX);
        assert_eq!(dp.metrics().drop_qos, 3, "the plane's own counter is exact");
    }

    #[test]
    fn iot_pool_bypasses_state_lookup() {
        let iot = IotConfig { enabled: true, teid_base: 0xF0000000, ip_base: 0x64000000, pool_size: 100 };
        let mut dp = DataPlane::new(GW_IP, 64, TwoLevelConfig::default(), iot);
        // No user installed at all: pool TEID still forwards.
        let v = dp.process(uplink_packet(0xF0000005), 1);
        assert!(v.is_forward());
        assert_eq!(dp.metrics().iot_fast_path, 1);
        assert_eq!(dp.iot_packets, 1);
        // Downlink to a pool IP gets a computed tunnel.
        match dp.process(inner_udp(1, 0x64000005, 80, 10), 2) {
            PacketVerdict::Forward(mut m) => {
                let (gtp, _) = decap_gtpu(&mut m).unwrap();
                assert_eq!(gtp.teid, 0xF0000005);
            }
            other => panic!("{other:?}"),
        }
        // Outside the pool: normal path (unknown here).
        assert!(matches!(
            dp.process(uplink_packet(0xF0000064 /* base+100 */), 3),
            PacketVerdict::Drop(DropReason::UnknownUser)
        ));
    }

    #[test]
    fn effective_rate_picks_tighter_limit() {
        assert_eq!(effective_rate(0, 0), 0);
        assert_eq!(effective_rate(100, 0), 100);
        assert_eq!(effective_rate(0, 50), 50);
        assert_eq!(effective_rate(100, 50), 50);
        assert_eq!(effective_rate(50, 100), 50);
    }

    #[test]
    fn pipeline_histogram_counts_only_forwarded() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        for _ in 0..5 {
            assert!(dp.process(uplink_packet(TEID_UL), 1).is_forward());
        }
        // Drops must not enter the latency population.
        assert!(!dp.process(uplink_packet(0xDEAD), 2).is_forward());
        assert_eq!(dp.pipeline_latency().count(), dp.metrics().forwarded);
        assert_eq!(dp.pipeline_latency().count(), 5);
    }

    fn attach_second_user(dp: &mut DataPlane) -> UeHandle {
        let mut ctrl = ControlState::new(404_01_0000000002);
        ctrl.ue_ip = UE_IP + 1;
        ctrl.qos = QosPolicy { qci: 9, ambr_kbps: 0, gbr_kbps: 0 };
        ctrl.tunnels = TunnelState { enb_teid: TEID_DL + 1, enb_ip: ENB_IP, gw_teid: TEID_UL + 1 };
        let h = dp.slab().alloc(ctrl, CounterState::default()).unwrap();
        dp.apply_update(DpUpdate::Insert { gw_teid: TEID_UL + 1, ue_ip: UE_IP + 1, handle: h, active: true }, 0);
        h
    }

    #[test]
    fn burst_verdicts_preserve_input_order() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        // [known, unknown, known downlink, malformed]
        let mut burst = vec![
            uplink_packet(TEID_UL),
            uplink_packet(0xDEAD),
            inner_udp(0x08080808, UE_IP, 443, 64),
            Mbuf::from_payload(&[0xFF; 40]),
        ];
        let out = run_burst(&mut dp, &mut burst, 100);
        assert!(burst.is_empty(), "burst is drained");
        assert_eq!(out.len(), 4);
        assert!(out[0].is_forward());
        assert!(matches!(out[1], PacketVerdict::Drop(DropReason::UnknownUser)));
        assert!(out[2].is_forward());
        assert!(matches!(out[3], PacketVerdict::Drop(DropReason::Malformed)));
        let m = dp.metrics();
        assert_eq!(m.rx, 4);
        assert_eq!(m.forwarded, 2);
        assert_eq!(m.drop_unknown_user, 1);
        assert_eq!(m.drop_malformed, 1);
    }

    #[test]
    fn burst_coalesces_same_user_run_counters() {
        let mut dp = dp();
        let a = attach_user(&mut dp, 0);
        let b = attach_second_user(&mut dp);
        // Run of 3 for user A, then 2 for user B, then 1 more for A.
        let mut burst = vec![
            uplink_packet(TEID_UL),
            uplink_packet(TEID_UL),
            uplink_packet(TEID_UL),
            uplink_packet(TEID_UL + 1),
            uplink_packet(TEID_UL + 1),
            uplink_packet(TEID_UL),
        ];
        let out = run_burst(&mut dp, &mut burst, 50);
        assert!(out.iter().all(|v| v.is_forward()));
        assert_eq!(counters(&dp, a).uplink_packets, 4);
        assert_eq!(counters(&dp, b).uplink_packets, 2);
        // Per-packet gets still happened in order: 6 primary hits.
        assert_eq!(dp.table_stats().primary_hits, 6);
    }

    #[test]
    fn burst_histogram_population_equals_forwarded() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        let mut burst = vec![uplink_packet(TEID_UL), uplink_packet(0xDEAD), uplink_packet(TEID_UL)];
        run_burst(&mut dp, &mut burst, 7);
        assert_eq!(dp.metrics().forwarded, 2);
        assert_eq!(dp.pipeline_latency().count(), 2);
    }

    #[test]
    fn empty_burst_is_a_no_op() {
        let mut dp = dp();
        let out = run_burst(&mut dp, &mut Vec::new(), 1);
        assert!(out.is_empty());
        assert_eq!(dp.metrics().rx, 0);
        assert_eq!(dp.pipeline_latency().count(), 0);
    }

    #[test]
    fn burst_gate_and_rate_decisions_match_scalar() {
        // Same workload through a scalar plane and a burst plane: the
        // per-user counters and metrics must be bit-identical.
        let build = || {
            let mut dp = dp();
            let h = attach_user(&mut dp, 8); // 1000 B/s, floor 1500 B
            (dp, h)
        };
        let (mut scalar, scalar_h) = build();
        let (mut burst_dp, burst_h) = build();
        let now = 1000;
        let mut scalar_verdicts = Vec::new();
        for _ in 0..40 {
            scalar_verdicts.push(scalar.process(uplink_packet(TEID_UL), now).is_forward());
        }
        let mut burst: Vec<Mbuf> = (0..40).map(|_| uplink_packet(TEID_UL)).collect();
        let burst_verdicts: Vec<bool> =
            run_burst(&mut burst_dp, &mut burst, now).iter().map(|v| v.is_forward()).collect();
        assert_eq!(scalar_verdicts, burst_verdicts);
        assert_eq!(counters(&scalar, scalar_h), counters(&burst_dp, burst_h));
        assert_eq!(scalar.metrics(), burst_dp.metrics());
    }

    #[test]
    fn stale_handle_in_table_drops_instead_of_aliasing() {
        // Defensive path: if an index somehow retains a handle whose slot
        // was freed and reused, the generation check turns the lookup
        // into an UnknownUser drop — never a read of the new tenant.
        let mut dp = dp();
        let h = attach_user(&mut dp, 0);
        // Free the slot behind the table's back and let someone else
        // take it (simulating a lost Remove / torn index).
        assert!(dp.slab().free(h));
        let other = dp.slab().alloc(ControlState::new(999), CounterState::default()).unwrap();
        assert_eq!(other.index(), h.index(), "slot reused");
        let v = dp.process(uplink_packet(TEID_UL), 1);
        assert!(matches!(v, PacketVerdict::Drop(DropReason::UnknownUser)));
        assert_eq!(dp.slab().resolve(other).unwrap().counters().uplink_packets, 0, "new tenant untouched");
    }

    #[test]
    fn stage_timing_records_one_sample_per_stage_per_burst() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        // Off by default: the burst path records nothing per stage.
        let mut burst = vec![uplink_packet(TEID_UL), uplink_packet(TEID_UL)];
        run_burst(&mut dp, &mut burst, 1);
        assert!(dp.stage_latencies().iter().all(|h| h.count() == 0));
        dp.set_stage_timing(true);
        let mut burst = vec![uplink_packet(TEID_UL), uplink_packet(TEID_UL), uplink_packet(0xDEAD)];
        run_burst(&mut dp, &mut burst, 2);
        for (h, name) in dp.stage_latencies().iter().zip(STAGE_NAMES) {
            assert_eq!(h.count(), 1, "stage {name} records once per burst");
        }
    }

    const IMSI: u64 = 404_01_0000000001;

    fn suspend(dp: &mut DataPlane) {
        dp.apply_update(DpUpdate::Suspend { gw_teid: TEID_UL, ue_ip: UE_IP, imsi: IMSI }, 10);
    }

    #[test]
    fn suspend_keeps_context_and_buffers_downlink() {
        let mut dp = dp();
        let h = attach_user(&mut dp, 0);
        suspend(&mut dp);
        assert_eq!(dp.user_count(), 0, "unindexed");
        assert_eq!(dp.slab().live_slots(), 1, "context retained");
        assert_eq!(dp.suspended_count(), 1);
        // First downlink parks and raises exactly one paging event.
        assert!(matches!(dp.process(inner_udp(1, UE_IP, 80, 32), 20), PacketVerdict::Buffered));
        assert!(matches!(dp.process(inner_udp(1, UE_IP, 80, 32), 21), PacketVerdict::Buffered));
        assert_eq!(dp.take_paging_events(), vec![IMSI]);
        assert!(dp.take_paging_events().is_empty(), "drained");
        let m = dp.metrics();
        assert_eq!(m.idle_buffered, 2);
        assert!(m.conservation_holds());
        // Age anchors at the oldest *buffered packet* (t=20), not the
        // suspension (t=10).
        assert_eq!(dp.idle_buffered_report(), vec![(IMSI, 2, 20)]);
        // Uplink from the suspended UE is rejected, not unknown.
        assert!(matches!(dp.process(uplink_packet(TEID_UL), 22), PacketVerdict::Drop(DropReason::IdleUplink)));
        assert_eq!(dp.metrics().drop_idle_uplink, 1);
        // Wake: re-insert flushes the buffer toward the tunnel.
        dp.apply_update(DpUpdate::Insert { gw_teid: TEID_UL, ue_ip: UE_IP, handle: h, active: true }, 30);
        let woken = dp.take_woken();
        assert_eq!(woken.len(), 2);
        for mut m in woken {
            let (gtp, outer) = decap_gtpu(&mut m).unwrap();
            assert_eq!(gtp.teid, TEID_DL);
            assert_eq!(outer.dst, ENB_IP);
        }
        let m = dp.metrics();
        assert_eq!(m.idle_buffered, 0);
        assert_eq!(m.forwarded_on_wake, 2);
        assert!(m.conservation_holds());
        assert_eq!(dp.suspended_count(), 0);
        // Back to normal forwarding.
        assert!(dp.process(uplink_packet(TEID_UL), 40).is_forward());
    }

    #[test]
    fn idle_buffer_is_bounded_and_overflow_is_counted() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        suspend(&mut dp);
        dp.set_idle_buffer_cap(2);
        for _ in 0..2 {
            assert!(matches!(dp.process(inner_udp(1, UE_IP, 80, 16), 20), PacketVerdict::Buffered));
        }
        for _ in 0..3 {
            assert!(matches!(
                dp.process(inner_udp(1, UE_IP, 80, 16), 21),
                PacketVerdict::Drop(DropReason::IdleOverflow)
            ));
        }
        let m = dp.metrics();
        assert_eq!(m.idle_buffered, 2);
        assert_eq!(m.drop_idle_overflow, 3);
        assert!(m.conservation_holds());
    }

    #[test]
    fn expired_page_drops_buffer_but_keeps_suspension() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        suspend(&mut dp);
        assert!(matches!(dp.process(inner_udp(1, UE_IP, 80, 16), 20), PacketVerdict::Buffered));
        dp.take_paging_events();
        dp.apply_update(DpUpdate::DropIdleBuffer { ue_ip: UE_IP }, 30);
        let m = dp.metrics();
        assert_eq!(m.idle_buffered, 0);
        assert_eq!(m.drop_idle_expired, 1);
        assert!(m.conservation_holds());
        assert_eq!(dp.suspended_count(), 1, "still idle, still reachable");
        // The next downlink starts a fresh page.
        assert!(matches!(dp.process(inner_udp(1, UE_IP, 80, 16), 40), PacketVerdict::Buffered));
        assert_eq!(dp.take_paging_events(), vec![IMSI]);
    }

    #[test]
    fn remove_while_suspended_frees_slot_and_drops_buffer() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        suspend(&mut dp);
        assert!(matches!(dp.process(inner_udp(1, UE_IP, 80, 16), 20), PacketVerdict::Buffered));
        dp.apply_update(DpUpdate::Remove { gw_teid: TEID_UL, ue_ip: UE_IP }, 30);
        assert_eq!(dp.slab().live_slots(), 0, "retained slot freed on detach");
        assert_eq!(dp.suspended_count(), 0);
        let m = dp.metrics();
        assert_eq!(m.drop_idle_expired, 1);
        assert_eq!(m.idle_buffered, 0);
        assert!(m.conservation_holds());
        // Now genuinely unknown.
        assert!(matches!(dp.process(inner_udp(1, UE_IP, 80, 16), 40), PacketVerdict::Drop(DropReason::UnknownUser)));
    }

    #[test]
    fn wake_flushes_each_users_downlink_in_arrival_order() {
        let mut dp = dp();
        let (a, b) = (attach_user(&mut dp, 0), attach_second_user(&mut dp));
        suspend(&mut dp);
        dp.apply_update(DpUpdate::Suspend { gw_teid: TEID_UL + 1, ue_ip: UE_IP + 1, imsi: IMSI + 1 }, 10);
        // Interleaved downlink for both, its payload length naming the
        // user and the packet's place.
        let arrivals = [(UE_IP, 10), (UE_IP + 1, 20), (UE_IP + 1, 21), (UE_IP, 11), (UE_IP, 12), (UE_IP + 1, 22)];
        let mut burst = arrivals.iter().map(|&(ip, len)| inner_udp(1, ip, 80, len)).collect();
        assert!(run_burst(&mut dp, &mut burst, 20).iter().all(|v| matches!(v, PacketVerdict::Buffered)));
        assert_eq!(dp.take_paging_events(), vec![IMSI, IMSI + 1]);
        // What a wake flushed: each packet's tunnel and payload length.
        let woken = |dp: &mut DataPlane| -> Vec<(u32, usize)> {
            let payload = |mut m: Mbuf| (decap_gtpu(&mut m).unwrap().0.teid, m.len() - IPV4_HDR_LEN - UDP_HDR_LEN);
            dp.take_woken().into_iter().map(payload).collect()
        };
        dp.apply_update(DpUpdate::Insert { gw_teid: TEID_UL + 1, ue_ip: UE_IP + 1, handle: b, active: true }, 30);
        assert_eq!(woken(&mut dp), [(TEID_DL + 1, 20), (TEID_DL + 1, 21), (TEID_DL + 1, 22)], "only its own");
        assert_eq!(dp.idle_buffered_report(), vec![(IMSI, 3, 20)]);
        assert_eq!((dp.user_count(), dp.suspended_count()), (1, 1));
        dp.apply_update(DpUpdate::Insert { gw_teid: TEID_UL, ue_ip: UE_IP, handle: a, active: true }, 40);
        assert_eq!(woken(&mut dp), [(TEID_DL, 10), (TEID_DL, 11), (TEID_DL, 12)]);
        assert!(dp.idle_buffered_report().is_empty());
        assert!(dp.metrics().conservation_holds());
    }

    #[test]
    fn burst_path_buffers_idle_downlink_like_scalar() {
        let mut dp = dp();
        attach_user(&mut dp, 0);
        suspend(&mut dp);
        let mut burst = vec![
            inner_udp(1, UE_IP, 80, 16),
            uplink_packet(TEID_UL),
            inner_udp(1, UE_IP, 80, 16),
            inner_udp(1, 0x0A0000FF, 80, 16),
        ];
        let out = run_burst(&mut dp, &mut burst, 20);
        assert!(matches!(out[0], PacketVerdict::Buffered));
        assert!(matches!(out[1], PacketVerdict::Drop(DropReason::IdleUplink)));
        assert!(matches!(out[2], PacketVerdict::Buffered));
        assert!(matches!(out[3], PacketVerdict::Drop(DropReason::UnknownUser)));
        assert_eq!(dp.take_paging_events(), vec![IMSI]);
        let m = dp.metrics();
        assert_eq!(m.idle_buffered, 2);
        assert!(m.conservation_holds());
    }
}
