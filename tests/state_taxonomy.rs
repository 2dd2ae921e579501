//! Table 1 conformance: the state taxonomy and the single-writer
//! discipline PEPC's refactoring guarantees.
//!
//! | State group            | PEPC control thread | PEPC data thread |
//! |------------------------|---------------------|------------------|
//! | User location          | w+r                 | r                |
//! | User id                | w+r                 | r                |
//! | QoS/policy state       | w+r                 | r                |
//! | Data tunnel state      | w+r                 | r                |
//! | Control tunnel state   | — (eliminated)      | —                |
//! | Bandwidth counters     | r                   | w+r              |

use pepc::ctrl::{Allocator, ControlPlane, CtrlEvent};
use pepc::state::{ControlState, CounterState, CtrlView};
use pepc::UeSlab;
use pepc_baseline::table::{PepcStore, StateStore};
use std::sync::Arc;

fn cp() -> ControlPlane {
    ControlPlane::new(
        0x0AFE_0001,
        1,
        Allocator { teid_base: 0x1000, ue_ip_base: 0x0A000001, guti_base: 0xD000, mme_ue_id_base: 1 },
        None,
    )
}

#[test]
fn control_thread_writes_every_per_event_group() {
    let mut c = cp();
    c.apply_event(CtrlEvent::Attach { imsi: 7 });
    let ctx = c.context_of(7).unwrap();
    {
        let s = ctx.ctrl_read();
        // User id group (row 2): written at attach.
        assert_eq!(s.imsi, 7);
        assert_ne!(s.guti, 0);
        assert_ne!(s.ue_ip, 0);
        // Data tunnel group (row 5): gateway side written at attach.
        assert_ne!(s.tunnels.gw_teid, 0);
    }
    // Location group (row 1) + tunnel rewrite: written on mobility.
    // (`context_of` lends a handle-resolved borrow of the plane, so it is
    // re-fetched after each mutating event.)
    c.apply_event(CtrlEvent::S1Handover { imsi: 7, new_enb_teid: 0xE1, new_enb_ip: 0xC0A80001 });
    let ctx = c.context_of(7).unwrap();
    assert_eq!(ctx.ctrl_read().tunnels.enb_teid, 0xE1);
    // QoS/policy group (row 3): written on modify-bearer.
    c.apply_event(CtrlEvent::ModifyBearer { imsi: 7, ambr_kbps: 1234 });
    let ctx = c.context_of(7).unwrap();
    assert_eq!(ctx.ctrl_read().qos.ambr_kbps, 1234);
    // Every control write republished the data path's seqlock view.
    assert_eq!(ctx.ctrl_view(), CtrlView::project(&ctx.ctrl_read()));
}

#[test]
fn data_thread_writes_only_counters_and_reads_control() {
    // The data plane's whole interaction with state goes through
    // `data_path_visit`, whose signature only *lends* the CtrlView
    // projection immutably and only mutates CounterState — the
    // discipline is in the API, not a convention.
    let store = PepcStore::new(4);
    store.insert(1, ControlState::new(1));
    let before = store.get(1).unwrap().ctrl_read().clone();
    store.data_path_visit(1, true, 100, 42, &mut |v: &CtrlView| {
        // read access works
        v.qci == 9
    });
    let after = store.get(1).unwrap().ctrl_read().clone();
    assert_eq!(before, after, "data path cannot mutate control state");
    let counters = store.read_counters(1).unwrap();
    assert_eq!(counters.uplink_packets, 1, "data path wrote its own half");
    assert_eq!(counters.last_activity_ns, 42);
}

#[test]
fn control_thread_reads_counters_without_writing() {
    let mut c = cp();
    c.apply_event(CtrlEvent::Attach { imsi: 7 });
    let ctx = c.context_of(7).unwrap();
    ctx.update_counters(|cnt| cnt.uplink_bytes = 555); // the data thread's write
    let snap = c.counters_of(7).unwrap();
    assert_eq!(snap.uplink_bytes, 555);
    // Snapshot is a copy; mutating it cannot touch the live state.
    assert_eq!(ctx.counters().uplink_bytes, 555);
}

#[test]
fn no_per_user_control_tunnel_state_exists() {
    // Row 4 of Table 1: PEPC eliminates per-user control tunnels (S11/S5
    // GTP-C) entirely — there is no field for them. This is a compile-
    // time property; assert the struct stays that way by exhaustively
    // destructuring TunnelState.
    let pepc::state::TunnelState { enb_teid: _, enb_ip: _, gw_teid: _ } = pepc::state::TunnelState::default();
    // (adding a control-tunnel field would break this pattern)
}

#[test]
fn per_event_vs_per_packet_update_frequencies() {
    // Control state version only changes on signaling events; counters
    // change per packet. The view cell's seqlock version is the literal
    // witness: counter publishes never bump it.
    let mut c = cp();
    c.apply_event(CtrlEvent::Attach { imsi: 7 });
    let ctx = c.context_of(7).unwrap();
    let ctrl_before = ctx.ctrl_read().clone();
    let view_version_before = ctx.view_version();
    // 100 "packets" worth of counter writes, as the data thread does them:
    // snapshot, mutate locally, publish.
    for i in 0..100 {
        let mut cnt = ctx.counters();
        cnt.uplink_packets += 1;
        cnt.last_activity_ns = i;
        ctx.publish_counters(cnt);
    }
    assert_eq!(*ctx.ctrl_read(), ctrl_before, "per-packet work never touches per-event state");
    assert_eq!(ctx.view_version(), view_version_before, "per-packet work never republishes the view");
    assert_eq!(ctx.counters().uplink_packets, 100);
}

#[test]
fn writers_on_different_halves_do_not_exclude_each_other() {
    // Regression guard for the fine-grained claim: a control write in
    // progress must not block counter publishes (disjoint cells — the
    // counter cell has no lock at all).
    let slab = Arc::new(UeSlab::new());
    let h = slab.alloc(ControlState::new(1), CounterState::default()).expect("fresh slab has room");
    let ctx = slab.resolve(h).expect("fresh handle resolves");
    let ctrl_guard = ctx.ctrl_write();
    let t = {
        let slab = Arc::clone(&slab);
        std::thread::spawn(move || {
            // Must not deadlock.
            slab.resolve(h).expect("live").update_counters(|c| c.uplink_packets += 1);
        })
    };
    t.join().unwrap();
    drop(ctrl_guard);
    assert_eq!(ctx.counters().uplink_packets, 1);
}
