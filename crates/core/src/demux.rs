//! The PEPC node Demux — paper §3.3 / §4.3 `LookUpSlice`.
//!
//! "PEPC's Demux function is responsible for steering incoming signaling
//! and data traffic to its associated slice. [...] it uses the TEID (for
//! uplink) or user device IP address (for downlink) to map incoming
//! traffic to a specific slice", and IMSI/GUTI for signaling.
//!
//! Steering is **one table read on the identifier region** (DESIGN.md
//! §5): slice `k` allocates TEIDs and UE addresses from `base + (k << 24)`,
//! and a `RegionMap` names the slice serving each region — its own
//! slices', and any region the node adopted from a failed peer. Besides
//! that map the Demux holds the *exceptions* — users living on a slice
//! other than the one their region names (migrated) — and the **per-user
//! migration queues** (§4.3): packets of a user mid-migration are parked
//! here and drained to the new slice afterwards, so migration loses no
//! packets and never exposes two slices writing one user's state. The
//! table is consulted first, behind an `is_empty()` branch: with no moved
//! users, no hash probe.
//!
//! The stateless-IoT pool (§4.2) is the one aggregate rule outside the
//! regions: every slice carries the same pool and serves it without
//! per-user state, so a pool key goes to any slice, spread by its offset.

use crate::config::IotConfig;
use pepc_net::Mbuf;
use std::collections::HashMap;

/// Bits of an identifier below the slice index (≈16M users per slice).
pub const REGION_SHIFT: u32 = 24;

/// The region arithmetic: `id`'s region index counted from the
/// allocation `base`, and its offset inside that region. The Demux steers
/// by the index; a slice's data plane keys its native users by the offset.
#[inline]
pub(crate) fn region_split(id: u32, base: u32) -> (u32, u32) {
    let offset = id.wrapping_sub(base);
    (offset >> REGION_SHIFT, offset & ((1 << REGION_SHIFT) - 1))
}

/// Owner of each identifier region. The u32 key space holds exactly 256
/// regions of `2^REGION_SHIFT`, so the map is a flat table; a TEID and a UE
/// IP minted together lie at one offset from their bases and so name the
/// same region. The cluster maps regions to nodes, a node's Demux to slices.
#[derive(Debug, Clone)]
pub(crate) struct RegionMap {
    teid_base: u32,
    ue_ip_base: u32,
    /// `u8::MAX`: unowned.
    owner: [u8; 256],
}

impl RegionMap {
    /// A map over identifiers allocated from these bases in which owner
    /// `k < owners` holds the `span` regions from `k * span` on.
    pub(crate) fn new(teid_base: u32, ue_ip_base: u32, owners: usize, span: usize) -> Self {
        let mut map = RegionMap { teid_base, ue_ip_base, owner: [u8::MAX; 256] };
        for r in 0..owners * span {
            map.assign(r, r / span);
        }
        map
    }

    /// Index of the region `key` lies in.
    #[inline]
    pub(crate) fn region(&self, key: PacketKey) -> usize {
        let (id, base) = match key {
            PacketKey::Teid(teid) => (teid, self.teid_base),
            PacketKey::UeIp(ip) => (ip, self.ue_ip_base),
        };
        region_split(id, base).0 as usize
    }

    /// Owner of the region `key` lies in, if any.
    #[inline]
    pub(crate) fn owner(&self, key: PacketKey) -> Option<usize> {
        let owner = self.owner[self.region(key)];
        (owner != u8::MAX).then_some(usize::from(owner))
    }

    /// Hand `region` to `owner` (below 255).
    pub(crate) fn assign(&mut self, region: usize, owner: usize) {
        assert!(owner < 255, "owner {owner} out of range");
        self.owner[region] = owner as u8;
    }
}

/// Where the Demux wants a packet to go.
#[derive(Debug)]
pub enum Steer {
    /// Deliver to this slice index.
    ToSlice(usize, Mbuf),
    /// The user is migrating; the packet has been parked.
    Parked,
    /// Unparseable, or keyed in no served region and by no moved user.
    Unroutable,
}

/// A user living off its home region, or mid-migration.
#[derive(Debug)]
struct Moved {
    slice: usize,
    keys: [PacketKey; 2],
    /// The migration queue, while one is in progress.
    parked: Option<Vec<Mbuf>>,
}

/// The region map plus the exception table.
#[derive(Debug)]
pub struct Demux {
    /// Region → slice: slice `k`'s own region maps to `k`, an adopted
    /// region to the slice that took it over.
    regions: RegionMap,
    slices: usize,
    /// The slices' stateless-IoT pool, when enabled.
    pool: Option<IotConfig>,
    moved: HashMap<u64, Moved>,
    moved_keys: HashMap<PacketKey, u64>,
}

impl Demux {
    pub fn new(teid_base: u32, ue_ip_base: u32, slices: usize, iot: IotConfig) -> Self {
        let regions = RegionMap::new(teid_base, ue_ip_base, slices, 1);
        let pool = iot.enabled.then_some(iot);
        Demux { regions, slices, pool, moved: HashMap::new(), moved_keys: HashMap::new() }
    }

    /// Slice a fresh IMSI is homed on (static hash, as the paper's Demux
    /// does for signaling).
    pub fn home_slice(&self, imsi: u64) -> usize {
        (imsi.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.slices
    }

    /// Slice serving `key`'s region, if any: the slice whose allocator
    /// issued it, or the one that adopted its region.
    #[inline]
    pub fn region_of(&self, key: PacketKey) -> Option<usize> {
        self.regions.owner(key)
    }

    /// Serve the region `teid` lies in (a failed node's) on `slice`.
    pub(crate) fn adopt_region(&mut self, teid: u32, slice: usize) {
        self.regions.assign(self.regions.region(PacketKey::Teid(teid)), slice);
    }

    /// Whether no user is off-home or migrating: all steering is arithmetic.
    pub fn is_clear(&self) -> bool {
        self.moved.is_empty()
    }

    /// Slice serving `imsi` if it is attached at all: its exception
    /// entry, else its home. The caller verifies against the slice.
    pub fn slice_hint(&self, imsi: u64) -> usize {
        let moved = if self.is_clear() { None } else { self.moved.get(&imsi) };
        moved.map_or_else(|| self.home_slice(imsi), |m| m.slice)
    }

    /// Steer one data packet. Uplink GTP-U is keyed by TEID; downlink IP
    /// by destination address. Packets of migrating users are parked.
    pub fn steer(&mut self, m: Mbuf) -> Steer {
        let Some(key) = packet_key(&m) else { return Steer::Unroutable };
        if !self.is_clear() {
            if let Some(moved) = self.moved_keys.get(&key).and_then(|imsi| self.moved.get_mut(imsi)) {
                return match &mut moved.parked {
                    Some(queue) => {
                        queue.push(m);
                        Steer::Parked
                    }
                    None => Steer::ToSlice(moved.slice, m),
                };
            }
        }
        match self.region_of(key) {
            Some(k) => Steer::ToSlice(k, m),
            None => self.pool_slice(key).map_or(Steer::Unroutable, |k| Steer::ToSlice(k, m)),
        }
    }

    /// Slice serving a key of the stateless-IoT pool: `(key − pool base)
    /// % slices`, or `None` outside the pool.
    #[cold]
    fn pool_slice(&self, key: PacketKey) -> Option<usize> {
        let pool = self.pool?;
        let offset = match key {
            PacketKey::Teid(teid) => teid.wrapping_sub(pool.teid_base),
            PacketKey::UeIp(ip) => ip.wrapping_sub(pool.ip_base),
        };
        (offset < pool.pool_size).then_some(offset as usize % self.slices)
    }

    /// Record that `imsi` (with these data-plane keys) lives on `slice`:
    /// an exception entry if that is not where its identifiers point,
    /// none (any old one removed) if it is. A migration nothing waited on.
    pub fn place(&mut self, imsi: u64, gw_teid: u32, ue_ip: u32, slice: usize) {
        self.park(imsi, gw_teid, ue_ip, slice);
        self.finish(imsi, slice);
    }

    /// Begin parking packets for `imsi`, served by `slice` (migration
    /// started); [`Self::finish`] hands them back when it ends.
    pub fn park(&mut self, imsi: u64, gw_teid: u32, ue_ip: u32, slice: usize) {
        self.forget(imsi);
        let keys = [PacketKey::Teid(gw_teid), PacketKey::UeIp(ue_ip)];
        self.moved_keys.extend(keys.map(|k| (k, imsi)));
        self.moved.insert(imsi, Moved { slice, keys, parked: Some(Vec::new()) });
    }

    /// End `imsi`'s migration on slice `landed` (the target, or the source
    /// if it aborted): returns the parked packets, in arrival order, and
    /// keeps the entry only if the user now lives off-home.
    pub fn finish(&mut self, imsi: u64, landed: usize) -> Vec<Mbuf> {
        let Some(moved) = self.moved.get_mut(&imsi) else { return Vec::new() };
        moved.slice = landed;
        let (keys, parked) = (moved.keys, moved.parked.take().unwrap_or_default());
        if self.home_slice(imsi) == landed && keys.iter().all(|&k| self.region_of(k) == Some(landed)) {
            self.forget(imsi);
        }
        parked
    }

    /// Drop `imsi`'s entry, if it has one (it detached).
    pub fn forget(&mut self, imsi: u64) {
        if let Some(moved) = self.moved.remove(&imsi) {
            for key in moved.keys {
                self.moved_keys.remove(&key);
            }
        }
    }

    /// Number of users currently off-home or migrating.
    pub fn moved_count(&self) -> usize {
        self.moved.len()
    }

    /// Number of packets currently parked across all migrations.
    pub fn parked_count(&self) -> usize {
        self.moved.values().filter_map(|m| m.parked.as_ref()).map(Vec::len).sum()
    }
}

/// Steering key of one data packet: the same identifier the data plane
/// will look the user up by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKey {
    /// Uplink GTP-U: the tunnel endpoint id.
    Teid(u32),
    /// Downlink plain IPv4: the destination (UE) address.
    UeIp(u32),
}

/// Extract the steering key without fully parsing the packet: uplink
/// GTP-U (outer UDP :2152) → TEID at a fixed offset; otherwise downlink
/// IPv4 → destination address. The node's [`Demux`] steers on it.
pub fn packet_key(m: &Mbuf) -> Option<PacketKey> {
    let d = m.data();
    if d.len() >= 20 && d[0] == 0x45 {
        if d.len() >= 36 && d[9] == 17 && u16::from_be_bytes([d[22], d[23]]) == pepc_net::GTPU_PORT {
            // outer IPv4 (20) + UDP (8) + GTP flags/type/len (4) → TEID.
            return Some(PacketKey::Teid(u32::from_be_bytes([d[32], d[33], d[34], d[35]])));
        }
        return Some(PacketKey::UeIp(u32::from_be_bytes([d[16], d[17], d[18], d[19]])));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepc_net::gtp::encap_gtpu;
    use pepc_net::ipv4::IpProto;
    use pepc_net::{Ipv4Hdr, IPV4_HDR_LEN};

    const TEID_BASE: u32 = 0x1000_0000;
    const IP_BASE: u32 = 0x0A00_0001;

    fn demux() -> Demux {
        Demux::new(TEID_BASE, IP_BASE, 4, IotConfig::default())
    }

    /// The `n`-th keys of slice `k`'s region.
    fn keys(k: u32, n: u32) -> (u32, u32) {
        (TEID_BASE + (k << REGION_SHIFT) + n, IP_BASE + (k << REGION_SHIFT) + n)
    }

    fn downlink(dst: u32) -> Mbuf {
        let mut m = Mbuf::new();
        let mut hdr = vec![0u8; IPV4_HDR_LEN + 8];
        Ipv4Hdr::new(1, dst, IpProto::Udp, 8).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
        m.extend(&hdr);
        m
    }

    fn uplink(teid: u32) -> Mbuf {
        let mut m = downlink(0x08080808);
        encap_gtpu(&mut m, 2, 3, teid).unwrap();
        m
    }

    fn slice_of(s: Steer) -> Option<usize> {
        match s {
            Steer::ToSlice(k, _) => Some(k),
            _ => None,
        }
    }

    #[test]
    fn steers_uplink_by_teid_and_downlink_by_ip_region() {
        let mut d = demux();
        let (teid, ip) = keys(3, 7);
        assert_eq!(slice_of(d.steer(uplink(teid))), Some(3));
        assert_eq!(slice_of(d.steer(downlink(ip))), Some(3));
        assert!(d.is_clear(), "steering registered nothing");
    }

    #[test]
    fn out_of_region_keys_reported() {
        let mut d = demux();
        assert!(matches!(d.steer(uplink(TEID_BASE - 1)), Steer::Unroutable));
        assert!(matches!(d.steer(uplink(TEID_BASE + (4 << REGION_SHIFT))), Steer::Unroutable));
        assert!(matches!(d.steer(downlink(0x0B00_0001 + (4 << REGION_SHIFT))), Steer::Unroutable));
    }

    #[test]
    fn pool_keys_spread_by_offset_and_only_when_enabled() {
        let iot = IotConfig { enabled: true, teid_base: 0xF000_0000, ip_base: 0x6400_0000, pool_size: 10 };
        let mut d = Demux::new(TEID_BASE, IP_BASE, 4, iot);
        assert_eq!(slice_of(d.steer(uplink(0xF000_0006))), Some(2));
        assert_eq!(slice_of(d.steer(downlink(0x6400_0009))), Some(1));
        assert!(matches!(d.steer(uplink(0xF000_000A)), Steer::Unroutable), "past the pool");
        assert!(matches!(d.steer(downlink(0x6400_0000 - 1)), Steer::Unroutable), "below the pool");
        let mut off = Demux::new(TEID_BASE, IP_BASE, 4, IotConfig { enabled: false, ..iot });
        assert!(matches!(off.steer(uplink(0xF000_0006)), Steer::Unroutable));
    }

    #[test]
    fn malformed_packets_reported() {
        let mut d = demux();
        assert!(matches!(d.steer(Mbuf::from_payload(&[0u8; 4])), Steer::Unroutable));
    }

    #[test]
    fn signaling_hint_is_exception_or_home() {
        let mut d = demux();
        let home = d.home_slice(7);
        assert_eq!(d.slice_hint(7), home);
        let (teid, ip) = keys(home as u32, 0);
        d.place(7, teid, ip, home);
        assert!(d.is_clear(), "a user at home needs no entry");
        let away = (home + 1) % 4;
        d.place(7, teid, ip, away);
        assert_eq!(d.slice_hint(7), away);
        assert_eq!(d.moved_count(), 1);
        d.forget(7);
        assert!(d.is_clear());
        assert_eq!(d.slice_hint(7), home);
    }

    #[test]
    fn foreign_keys_are_steered_by_their_exception() {
        let mut d = demux();
        // Keys from another node's region (HA adoption).
        let (teid, ip) = (0x5000_0042, 0x5A00_0042);
        assert!(matches!(d.steer(uplink(teid)), Steer::Unroutable));
        let home = d.home_slice(9);
        d.place(9, teid, ip, home);
        assert_eq!(slice_of(d.steer(uplink(teid))), Some(home));
        assert_eq!(slice_of(d.steer(downlink(ip))), Some(home));
    }

    #[test]
    fn an_adopted_region_steers_by_the_map_alone() {
        let mut d = demux();
        // Keys from a failed node's region, past every local slice's.
        let (teid, ip) = keys(0x40, 5);
        let k = d.home_slice(9);
        d.adopt_region(teid, k);
        assert_eq!(slice_of(d.steer(uplink(teid))), Some(k));
        assert_eq!(slice_of(d.steer(downlink(ip))), Some(k));
        d.place(9, teid, ip, k);
        assert!(d.is_clear(), "a user in its adopted region needs no entry");
    }

    #[test]
    fn migration_parks_and_drains_in_order() {
        let mut d = demux();
        let home = d.home_slice(7);
        let (teid, ip) = keys(home as u32, 0);
        d.park(7, teid, ip, home);
        // Both directions get parked.
        assert!(matches!(d.steer(uplink(teid)), Steer::Parked));
        assert!(matches!(d.steer(downlink(ip)), Steer::Parked));
        assert_eq!(d.parked_count(), 2);
        // Other users flow normally.
        assert_eq!(slice_of(d.steer(uplink(teid + 1))), Some(home));

        let away = (home + 1) % 4;
        let parked = d.finish(7, away);
        assert_eq!(parked.len(), 2);
        assert!(matches!(packet_key(&parked[0]), Some(PacketKey::Teid(_))), "arrival order kept");
        assert_eq!(d.parked_count(), 0);
        // New packets go to the new slice.
        assert_eq!(slice_of(d.steer(uplink(teid))), Some(away));
        // Migrating back home retires the exception.
        d.park(7, teid, ip, away);
        assert!(d.finish(7, home).is_empty());
        assert!(d.is_clear());
        assert_eq!(slice_of(d.steer(uplink(teid))), Some(home));
    }

    #[test]
    fn abort_migration_returns_packets_and_keeps_mapping() {
        let mut d = demux();
        let home = d.home_slice(7);
        let (teid, ip) = keys(home as u32, 0);
        d.park(7, teid, ip, home);
        d.steer(uplink(teid));
        let parked = d.finish(7, home);
        assert_eq!(parked.len(), 1);
        assert!(d.is_clear(), "aborted at home: no entry left");
        assert_eq!(slice_of(d.steer(uplink(teid))), Some(home), "mapping unchanged");
    }
}
