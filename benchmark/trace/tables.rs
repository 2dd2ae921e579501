//! `pepc::twolevel` and `pepc::slab` leaves. The data plane's tables are
//! private, so `get` is probed on stand-alone two-level tables of equal
//! population (one uplink and one downlink table per slice, users inserted
//! active in install order); `resolve` is probed on the live node's slabs.

use crate::stream::{is_uplink, Stream};
use pepc::node::PepcNode;
use pepc::{TwoLevelTable, UeHandle, UeRef, UeSlab};
use pepc_benchmark::enb::Ue;
use pepc_benchmark::sut::SLICES;
use std::hint::black_box;
use std::sync::Arc;

/// Every resident's slab handle, and the slabs they resolve against.
pub struct Handles {
    slabs: Vec<Arc<UeSlab>>,
    of: Vec<(u8, UeHandle)>,
}

impl Handles {
    pub fn of(node: &mut PepcNode, residents: &[Ue]) -> Self {
        let slabs = (0..SLICES).map(|k| Arc::clone(node.slice(k).data.slab())).collect();
        let of = residents
            .iter()
            .map(|u| {
                let k = (0..SLICES).find(|&k| node.slice(k).ctrl.context_of(u.imsi).is_some()).expect("resident");
                (k as u8, node.slice(k).ctrl.context_of(u.imsi).expect("resident").handle())
            })
            .collect();
        Handles { slabs, of }
    }

    pub fn resolve(&self, user: u32) -> Option<UeRef<'_>> {
        let (k, h) = self.of[user as usize];
        self.slabs[k as usize].resolve(h)
    }

    /// Resident bytes of the slabs.
    pub fn bytes(&self) -> u64 {
        self.slabs.iter().map(|s| s.bytes()).sum()
    }
}

pub fn resolve_ns(s: &mut Stream, handles: &Handles) -> f64 {
    s.probe(|s| {
        for &u in &s.users {
            black_box(handles.resolve(u).is_some());
        }
    })
}

pub fn get_ns(s: &mut Stream, node: &mut PepcNode, residents: &[Ue], handles: &Handles) -> f64 {
    let cfg = node.config().slice.clone();
    let per_slice = residents.len().div_ceil(SLICES);
    let mut tables: Vec<[TwoLevelTable<UeHandle>; 2]> = (0..SLICES)
        .map(|_| [0, 1].map(|_| TwoLevelTable::new(per_slice.max(cfg.expected_users), cfg.two_level.idle_timeout_ns)))
        .collect();
    for (u, &(k, h)) in residents.iter().zip(&handles.of) {
        tables[k as usize][0].insert_active(u64::from(u.gw_teid), h, 1);
        tables[k as usize][1].insert_active(u64::from(u.ue_ip), h, 1);
    }
    let mut now = 1u64;
    s.probe(|s| {
        for (m, &u) in s.batch.iter().zip(&s.users) {
            now += 300;
            let (ue, k) = (&residents[u as usize], handles.of[u as usize].0 as usize);
            let hit = if is_uplink(m) {
                tables[k][0].get(u64::from(ue.gw_teid), now).is_some()
            } else {
                tables[k][1].get(u64::from(ue.ue_ip), now).is_some()
            };
            black_box(hit);
        }
    })
}
