//! Property-based tests (proptest) on the core data structures and
//! codecs: arbitrary inputs must round-trip exactly or be rejected
//! cleanly — never panic, never alias, never lose a user.

use pepc::state::ControlState;
use pepc::twolevel::TwoLevelTable;
use pepc::{LatencyHistogram, MetricsSnapshot, RingGauge, SliceSnapshot};
use pepc_baseline::table::{PepcStore, StateStore};
use pepc_net::bpf::{BpfProgram, Field, Insn};
use pepc_net::gtp::{decap_gtpu, encap_gtpu, GtpcMsg};
use pepc_net::{EtherHdr, FiveTuple, GtpuHdr, Ipv4Hdr, Mbuf, TcpHdr, UdpHdr};
use pepc_sigproto::nas::{imsi_from_bcd, imsi_to_bcd, NasMsg};
use pepc_sigproto::s1ap::S1apPdu;
use proptest::prelude::*;

proptest! {
    #[test]
    fn mbuf_push_pull_sequences_preserve_payload(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        ops in proptest::collection::vec(1usize..32, 0..12),
    ) {
        let mut m = Mbuf::from_payload(&payload);
        let mut pushed = Vec::new();
        for (i, &n) in ops.iter().enumerate() {
            if i % 2 == 0 {
                let bytes = vec![i as u8; n];
                if m.push_bytes(&bytes).is_ok() {
                    pushed.push(n);
                }
            } else if let Some(n2) = pushed.pop() {
                m.pull(n2).unwrap();
            }
        }
        // Pop whatever is left.
        while let Some(n) = pushed.pop() {
            m.pull(n).unwrap();
        }
        prop_assert_eq!(m.data(), &payload[..]);
    }

    #[test]
    fn ipv4_header_roundtrips(
        src in any::<u32>(), dst in any::<u32>(), proto in any::<u8>(),
        dscp in 0u8..64, ttl in any::<u8>(), payload_len in 0usize..1400,
    ) {
        let mut h = Ipv4Hdr::new(src, dst, pepc_net::ipv4::IpProto::from_u8(proto), payload_len);
        h.dscp = dscp;
        h.ttl = ttl;
        let mut buf = [0u8; 20];
        h.emit(&mut buf).unwrap();
        let parsed = Ipv4Hdr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn gtpu_encap_decap_roundtrips(
        payload in proptest::collection::vec(any::<u8>(), 20..512),
        teid in any::<u32>(), src in any::<u32>(), dst in any::<u32>(),
    ) {
        // Use an inner IPv4 wrapper so decap's sanity checks pass.
        let mut m = Mbuf::new();
        let mut hdr = [0u8; 20];
        Ipv4Hdr::new(1, 2, pepc_net::ipv4::IpProto::Other(200), payload.len()).emit(&mut hdr).unwrap();
        m.extend(&hdr);
        m.extend(&payload);
        let before = m.data().to_vec();
        encap_gtpu(&mut m, src, dst, teid).unwrap();
        let (gtp, outer) = decap_gtpu(&mut m).unwrap();
        prop_assert_eq!(gtp.teid, teid);
        prop_assert_eq!(outer.src, src);
        prop_assert_eq!(m.data(), &before[..]);
    }

    #[test]
    fn gtpc_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = GtpcMsg::decode(&bytes); // Ok or Err, never panic
    }

    #[test]
    fn nas_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = NasMsg::decode(&bytes);
    }

    #[test]
    fn s1ap_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = S1apPdu::decode(&bytes);
    }

    #[test]
    fn sctp_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = pepc_sigproto::sctp::SctpPacket::decode(&bytes);
    }

    #[test]
    fn imsi_bcd_roundtrips_all_15_digit_values(imsi in 0u64..1_000_000_000_000_000) {
        prop_assert_eq!(imsi_from_bcd(&imsi_to_bcd(imsi)).unwrap(), imsi);
    }

    #[test]
    fn nas_attach_roundtrips(imsi in 0u64..1_000_000_000_000_000, cap in any::<u32>()) {
        let m = NasMsg::AttachRequest { imsi, ue_capability: cap };
        prop_assert_eq!(NasMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn verified_bpf_programs_never_panic_and_terminate(
        insns in proptest::collection::vec(
            prop_oneof![
                (0u8..5).prop_map(|f| Insn::Ld(match f {
                    0 => Field::SrcIp, 1 => Field::DstIp, 2 => Field::SrcPort,
                    3 => Field::DstPort, _ => Field::Proto,
                })),
                any::<u32>().prop_map(Insn::And),
                (any::<u32>(), 0u8..8, 0u8..8).prop_map(|(k, jt, jf)| Insn::JmpEq { k, jt, jf }),
                (any::<u32>(), 0u8..8, 0u8..8).prop_map(|(k, jt, jf)| Insn::JmpGe { k, jt, jf }),
                any::<u32>().prop_map(Insn::Ret),
            ],
            1..40,
        ),
        ft in (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), any::<u8>()),
    ) {
        // Whatever the verifier accepts must run to completion on any
        // five-tuple; what it rejects must never be runnable.
        if let Ok(p) = BpfProgram::new(insns) {
            let ft = FiveTuple { src_ip: ft.0, dst_ip: ft.1, src_port: ft.2, dst_port: ft.3, proto: ft.4 };
            let _ = p.run(&ft);
        }
    }

    #[test]
    fn two_level_table_conserves_users(
        keys in proptest::collection::hash_set(0u64..500, 1..100),
        ops in proptest::collection::vec((0u64..500, 0u8..3), 0..200),
    ) {
        // The table keeps no stamps: activity (the step of a user's last
        // lookup, as a packet would stamp its counter cell) lives here.
        let mut t = TwoLevelTable::new(512, 10);
        let mut active = [0u64; 500];
        for &k in &keys {
            t.insert_active(k, k, 0);
        }
        let n = t.len();
        for (i, (k, op)) in ops.into_iter().enumerate() {
            match op {
                0 => if t.get(k, 0).is_some() { active[k as usize] = i as u64; },
                1 => { t.demote(k); }
                _ => { t.evict_idle(i as u64, |&v| active[v as usize]); }
            }
            prop_assert_eq!(t.len(), n, "user count drifted");
        }
        for &k in &keys {
            prop_assert_eq!(t.get(k, u64::MAX), Some(&k));
        }
    }

    #[test]
    fn histogram_bucket_floor_inverts_index(v in any::<u64>()) {
        // Every value lands in a bucket whose floor is ≤ the value, and
        // the floor itself maps back to the same bucket (the floor is the
        // smallest member of its bucket).
        let idx = LatencyHistogram::index(v);
        let floor = LatencyHistogram::bucket_floor(idx);
        prop_assert!(floor <= v.max(1), "floor {floor} above value {v}");
        prop_assert_eq!(LatencyHistogram::index(floor), idx);
        // Log-linear guarantee: relative bucket width ≤ 1/16 + rounding.
        if v >= 16 {
            prop_assert!((v - floor) as f64 <= v as f64 * 0.0626, "bucket too wide for {v}");
        }
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in proptest::collection::vec(1u64..1_000_000_000, 0..64),
        ys in proptest::collection::vec(1u64..1_000_000_000, 0..64),
        zs in proptest::collection::vec(1u64..1_000_000_000, 0..64),
    ) {
        let hist = |vals: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        // (x ∪ y) ∪ z == x ∪ (y ∪ z) == recording everything into one.
        let mut left = hist(&xs);
        left.merge(&hist(&ys));
        left.merge(&hist(&zs));
        let mut yz = hist(&ys);
        yz.merge(&hist(&zs));
        let mut right = hist(&xs);
        right.merge(&yz);
        prop_assert_eq!(&left, &right);
        let mut all = xs.clone();
        all.extend(&ys);
        all.extend(&zs);
        prop_assert_eq!(&left, &hist(&all));
        // x ∪ y == y ∪ x.
        let mut xy = hist(&xs);
        xy.merge(&hist(&ys));
        let mut yx = hist(&ys);
        yx.merge(&hist(&xs));
        prop_assert_eq!(xy, yx);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        vals in proptest::collection::vec(1u64..10_000_000_000, 1..128),
        qs_permille in proptest::collection::vec(0u64..1001, 2..8),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = qs_permille.clone();
        sorted.sort_unstable();
        let mut prev = 0u64;
        for &qp in &sorted {
            let q = qp as f64 / 1000.0;
            let x = h.quantile_ns(q);
            prop_assert!(x >= prev, "quantile not monotone at q={q}");
            prev = x;
        }
        // All quantiles live within the recorded range (floors may sit
        // below the true minimum, never above the maximum).
        prop_assert!(h.quantile_ns(1.0) <= h.max_ns());
        prop_assert!(h.quantile_ns(0.0) <= *vals.iter().min().unwrap());
    }

    #[test]
    fn metrics_snapshot_json_roundtrips_exactly(
        rx_extra in 0u64..1000, fwd in 0u64..1000, drops in proptest::collection::vec(0u64..250, 4..5),
        users in 0u64..5000, lat in proptest::collection::vec(1u64..100_000_000, 0..64),
        depth in 0u64..4096,
    ) {
        let mut s = SliceSnapshot::new(7);
        s.users = users;
        s.data.forwarded = fwd;
        s.data.drop_unknown_user = drops[0];
        s.data.drop_gate = drops[1];
        s.data.drop_qos = drops[2];
        s.data.drop_malformed = drops[3];
        s.data.rx = fwd + drops.iter().sum::<u64>() + rx_extra;
        s.ctrl.attaches = users;
        for &v in &lat {
            s.pipeline_ns.record(v);
            s.attach_ns.record(v * 3);
        }
        s.rings.push(RingGauge { name: "update_ring".into(), depth, capacity: 65536 });
        let wires = vec![pepc::WireStat {
            name: "repl:node1".into(),
            forwarded: fwd,
            dropped: drops[0],
            ..Default::default()
        }];
        let snap = MetricsSnapshot { slices: vec![s], wires };
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        prop_assert_eq!(&back, &snap);
        prop_assert!(back.deterministic_eq(&snap));
        // Conservation is exactly "no unattributed packets".
        prop_assert_eq!(back.conservation_holds(), rx_extra == 0);
        prop_assert_eq!(back.data_totals().drops_total(), drops.iter().sum::<u64>());
    }

    #[test]
    fn ring_burst_ops_match_fifo_model(
        cap_hint in 1usize..64,
        ops in proptest::collection::vec((any::<bool>(), 1usize..40), 1..60),
    ) {
        // Model check of the once-per-refresh free/available counting in
        // push_burst/pop_burst: any op interleaving must behave exactly
        // like a bounded FIFO queue.
        use std::collections::VecDeque;
        let (mut tx, mut rx) = pepc_fabric::ring::SpscRing::with_capacity::<u32>(cap_hint);
        let cap = tx.capacity();
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        let mut out = Vec::new();
        for (push, n) in ops {
            if push {
                let mut it = next..u32::MAX;
                let pushed = tx.push_burst(&mut (&mut it).take(n));
                prop_assert_eq!(pushed, (cap - model.len()).min(n), "burst fills exactly the free slots");
                for v in next..next + pushed as u32 {
                    model.push_back(v);
                }
                next += pushed as u32;
            } else {
                out.clear();
                let taken = rx.pop_burst(&mut out, n);
                prop_assert_eq!(taken, model.len().min(n), "burst drains exactly the available slots");
                prop_assert_eq!(out.len(), taken);
                for v in &out {
                    prop_assert_eq!(Some(*v), model.pop_front());
                }
            }
        }
        prop_assert_eq!(rx.len(), model.len());
    }

    #[test]
    fn maglev_repair_resteers_only_the_dead_backends_keys(
        n in 3usize..8,
        dead_pick in any::<u64>(),
        size_pick in 0usize..3,
        key_base in any::<u64>(),
    ) {
        // Maglev's minimal-disruption guarantee, across three table sizes:
        // after a backend dies and the table is repaired in place, every
        // key that hashed to a survivor still hashes to the same survivor;
        // only the dead backend's keys move.
        let m = [251usize, 1031, 65537][size_pick];
        let names: Vec<String> = (0..n).map(|k| format!("pepc-node-{k}")).collect();
        let mut lb = pepc_fabric::Maglev::new(&names, m).unwrap();
        let dead = (dead_pick as usize) % n;
        let keys: Vec<u64> = (0..2000u64).map(|i| key_base.wrapping_add(i)).collect();
        let before: Vec<usize> = keys.iter().map(|&k| lb.lookup(k)).collect();
        lb.remove_backend(dead).unwrap();
        prop_assert_eq!(lb.alive_count(), n - 1);
        for (&key, &owner) in keys.iter().zip(&before) {
            let now = lb.lookup(key);
            prop_assert!(now != dead, "key {key} still on the dead backend");
            if owner != dead {
                prop_assert_eq!(now, owner, "surviving key {key} re-steered");
            }
        }
    }

    #[test]
    fn checkpoint_parse_fuzz_never_panics_or_partially_applies(
        users in 1u64..8,
        cut in any::<u64>(),
        flip_at in any::<u64>(),
        flip_bits in 1u8..255,
    ) {
        use pepc::ctrl::{Allocator, ControlPlane, CtrlEvent};
        let fresh = || ControlPlane::new(
            0x0AFE_0001,
            1,
            Allocator { teid_base: 0x1000, ue_ip_base: 0x0A00_0001, guti_base: 0xD000, mme_ue_id_base: 1 },
            None,
        );
        let mut original = fresh();
        for imsi in 0..users {
            original.apply_event(CtrlEvent::Attach { imsi });
        }
        original.take_updates();
        let bytes = pepc::recovery::checkpoint(&original).unwrap();

        // Truncation at any point must reject cleanly (except the full
        // buffer, which restores) and leave the target untouched on error.
        let cut = (cut as usize) % (bytes.len() + 1);
        let mut target = fresh();
        match pepc::recovery::restore(&mut target, &bytes[..cut]) {
            Ok(n) => {
                prop_assert_eq!(cut, bytes.len(), "partial buffer restored");
                prop_assert_eq!(n as u64, users);
            }
            Err(_) => {
                prop_assert_eq!(target.user_count(), 0, "failed restore left users behind");
                prop_assert!(!target.has_updates(), "failed restore queued updates");
            }
        }

        // A flipped byte either still parses to a valid document (and
        // fully applies) or rejects without touching anything — and the
        // whole-checkpoint invariant holds either way: never a panic,
        // never a partial apply.
        let mut corrupt = bytes.clone();
        let at = (flip_at as usize) % corrupt.len();
        corrupt[at] ^= flip_bits;
        let mut target = fresh();
        match pepc::recovery::restore(&mut target, &corrupt) {
            Ok(n) => prop_assert_eq!(target.user_count() as u64, n as u64),
            Err(_) => {
                prop_assert_eq!(target.user_count(), 0);
                prop_assert!(!target.has_updates());
            }
        }
    }

    #[test]
    fn counter_cell_publish_read_roundtrips_exactly(
        fields in proptest::collection::vec(any::<u64>(), 6..7),
        narrow in (any::<u32>(), any::<u32>()),
    ) {
        // An arbitrary CounterState pushed through the seqlock cell must
        // come back bit-identical — publish/read is a pure round-trip.
        use pepc::state::CounterState;
        let slab = pepc::UeSlab::new();
        let h = slab.alloc(ControlState::new(1), CounterState::default()).expect("fresh slab has room");
        let ctx = slab.resolve(h).expect("fresh handle resolves");
        let c = CounterState {
            uplink_packets: fields[0],
            uplink_bytes: fields[1],
            downlink_packets: fields[2],
            downlink_bytes: fields[3],
            qos_drops: narrow.0,
            ambr_tokens: narrow.1,
            last_activity_ns: fields[4],
            ambr_last_refill_ns: fields[5],
        };
        ctx.publish_counters(c);
        prop_assert_eq!(ctx.counters(), c);
        let (again, retries) = ctx.counters_with_retries();
        prop_assert_eq!(again, c);
        prop_assert_eq!(retries, 0, "uncontended read never retries");
    }

    #[test]
    fn ctrl_view_always_equals_lock_projection(
        muts in proptest::collection::vec((0u8..6, any::<u32>()), 0..40),
    ) {
        // After any sequence of control-plane mutations (each through the
        // publishing write guard), the lock-free view must equal what the
        // RwLock-era reader would have projected from the locked state.
        use pepc::state::{CounterState, CtrlView};
        let slab = pepc::UeSlab::new();
        let h = slab.alloc(ControlState::new(9), CounterState::default()).expect("fresh slab has room");
        let ctx = slab.resolve(h).expect("fresh handle resolves");
        for (which, v) in muts {
            {
                let mut g = ctx.ctrl_write();
                match which {
                    0 => g.tunnels.enb_teid = v,
                    1 => g.tunnels.enb_ip = v,
                    2 => g.qos.ambr_kbps = v,
                    3 => g.qos.qci = v as u8,
                    4 => g.tac = v as u16,
                    _ => g.pcef_rules.push(v as u16),
                }
            }
            prop_assert_eq!(ctx.ctrl_view(), CtrlView::project(&ctx.ctrl_read()));
        }
    }

    #[test]
    fn control_state_splits_across_identity_and_view_exactly(
        state in arb_control_state(),
        other in arb_control_state(),
        mask in any::<u16>(),
    ) {
        // A slot stores identifiers and cell in its identity entry and
        // the rest, tracking area included, only in the view cell: every
        // valid state must come back from `ctrl_read` unchanged, and
        // after any write the two halves must still agree.
        use pepc::state::{CounterState, CtrlView};
        let slab = pepc::UeSlab::new();
        let h = slab.alloc(state.clone(), CounterState::default()).expect("fresh slab has room");
        let ctx = slab.resolve(h).expect("fresh handle resolves");
        prop_assert_eq!(&*ctx.ctrl_read(), &state);
        prop_assert_eq!(ctx.ctrl_view().tac, state.tac);
        let mut expect = state;
        mix_fields(&mut expect, &other, mask);
        mix_fields(&mut ctx.ctrl_write(), &other, mask);
        prop_assert_eq!(&*ctx.ctrl_read(), &expect);
        prop_assert_eq!(ctx.ctrl_view(), CtrlView::project(&ctx.ctrl_read()));
        prop_assert_eq!(ctx.ctrl_view().tac, expect.tac);
        prop_assert_eq!(ctx.imsi_guti(), (expect.imsi, expect.guti));
    }

    #[test]
    fn pepc_store_counters_are_exact(
        visits in proptest::collection::vec((0u64..8, any::<bool>(), 1u64..1500), 0..200),
    ) {
        let store = PepcStore::new(8);
        for uid in 0..8 {
            store.insert(uid, ControlState::new(uid));
        }
        let mut expect_pkts = [0u64; 8];
        let mut expect_bytes = [0u64; 8];
        for (uid, up, bytes) in &visits {
            store.data_path_visit(*uid, *up, *bytes, 1, &mut |_| true).unwrap();
            expect_pkts[*uid as usize] += 1;
            expect_bytes[*uid as usize] += bytes;
        }
        for uid in 0..8u64 {
            let s = store.read_counters(uid).unwrap();
            prop_assert_eq!(s.uplink_packets + s.downlink_packets, expect_pkts[uid as usize]);
            prop_assert_eq!(s.uplink_bytes + s.downlink_bytes, expect_bytes[uid as usize]);
        }
    }
}

// ---------------------------------------------------------------------------
// No-panic fuzzing of the packet parsers. These are the functions the data
// path calls on every frame straight off the wire, so the contract is
// total: any byte string — truncated, bit-flipped, or pure noise — must
// come back as `Ok` or a typed `Err`, never a panic, and never an
// out-of-bounds slice. Two input families: raw arbitrary bytes, and a
// valid packet mutated (every truncation point, seeded bit flips) so the
// fuzz actually spends time near the interesting length/flag boundaries.
// ---------------------------------------------------------------------------

/// A well-formed GTP-U encapsulated user packet (outer IPv4 + UDP + GTP-U
/// around an inner IPv4/payload), as built by the real encap path.
fn valid_gtpu_packet(payload_len: usize) -> Vec<u8> {
    let inner_payload = vec![0xABu8; payload_len];
    let mut inner = Mbuf::from_payload(&inner_payload);
    let ip = Ipv4Hdr::new(0x0A00_0001, 0x0808_0808, pepc_net::ipv4::IpProto::Udp, payload_len);
    let mut ip_bytes = [0u8; 20];
    ip.emit(&mut ip_bytes).unwrap();
    inner.push_bytes(&ip_bytes).unwrap();
    pepc_net::gtp::encap_gtpu(&mut inner, 0xC0A8_0001u32, 0x0AFE_0001, 0x1000_0042).unwrap();
    inner.data().to_vec()
}

proptest! {
    #[test]
    fn ipv4_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Ipv4Hdr::parse(&bytes);
    }

    #[test]
    fn tcp_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = TcpHdr::parse(&bytes);
    }

    #[test]
    fn udp_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        let _ = UdpHdr::parse(&bytes);
    }

    #[test]
    fn gtpu_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        let _ = GtpuHdr::parse(&bytes);
    }

    #[test]
    fn ether_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        let _ = EtherHdr::parse(&bytes);
    }

    #[test]
    fn five_tuple_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = FiveTuple::from_ipv4(&bytes);
    }

    #[test]
    fn decap_never_panics_on_truncated_packets(
        payload_len in 0usize..200,
        cut in 0usize..256,
    ) {
        let pkt = valid_gtpu_packet(payload_len);
        let cut = cut.min(pkt.len());
        let mut m = Mbuf::from_payload(&pkt[..cut]);
        let res = pepc_net::gtp::decap_gtpu(&mut m);
        if cut < pkt.len() {
            prop_assert!(res.is_err(), "truncated to {cut} of {} bytes yet decap succeeded", pkt.len());
        } else {
            prop_assert!(res.is_ok());
        }
    }

    #[test]
    fn decap_never_panics_on_bit_flipped_packets(
        payload_len in 0usize..200,
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..8),
    ) {
        let mut pkt = valid_gtpu_packet(payload_len);
        for (pos, bit) in flips {
            let i = pos % pkt.len();
            pkt[i] ^= 1 << bit;
        }
        let mut m = Mbuf::from_payload(&pkt);
        // Flips may or may not land in a field a parser validates; both
        // outcomes are fine — only a panic is a bug.
        let _ = pepc_net::gtp::decap_gtpu(&mut m);
    }

    #[test]
    fn five_tuple_never_panics_on_mutated_tcp_packets(
        cut in 0usize..64,
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 0..6),
    ) {
        // A valid IPv4+TCP packet, then truncate and flip.
        let ip = Ipv4Hdr::new(1, 2, pepc_net::ipv4::IpProto::Tcp, 20);
        let mut pkt = [0u8; 40];
        ip.emit(&mut pkt[..20]).unwrap();
        pkt[20..22].copy_from_slice(&443u16.to_be_bytes());
        pkt[22..24].copy_from_slice(&55555u16.to_be_bytes());
        for (pos, bit) in flips {
            let i = pos % pkt.len();
            pkt[i] ^= 1 << bit;
        }
        let cut = cut.min(pkt.len());
        let _ = FiveTuple::from_ipv4(&pkt[..cut]);
    }

    #[test]
    fn gtpu_parse_rejects_every_truncation_of_a_valid_header(
        teid in any::<u32>(), len in any::<u16>(),
    ) {
        let hdr = GtpuHdr::gpdu(teid, len as usize);
        let mut buf = [0u8; 8];
        hdr.emit(&mut buf).unwrap();
        let parsed = GtpuHdr::parse(&buf).unwrap();
        prop_assert_eq!(parsed.teid, teid);
        for cut in 0..8 {
            prop_assert!(GtpuHdr::parse(&buf[..cut]).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Stateful delivery fuzzing of the procedure-machine dispatcher (PR 6).
// The PR-5 fuzz above proves the *codecs* are total; these extend the
// contract to stateful delivery: an arbitrary PDU sequence — well-formed
// messages with clashing identifiers, truncated NAS, bit-flipped NAS —
// must never panic the control plane, must emit a bounded number of PDUs
// per inbound message, and must keep the signaling/procedure
// conservation identities exact after every single delivery.
// ---------------------------------------------------------------------------

fn fuzz_control_plane() -> pepc::ctrl::ControlPlane {
    let hss = std::sync::Arc::new(pepc_backend::Hss::new());
    hss.provision_range(1, 4, 100_000);
    let pcrf = std::sync::Arc::new(pepc_backend::Pcrf::with_standard_rules());
    let proxy = std::sync::Arc::new(pepc::proxy::Proxy::new(hss, pcrf, 1, 40401));
    let alloc =
        pepc::ctrl::Allocator { teid_base: 0x1000, ue_ip_base: 0x0A00_0001, guti_base: 0xD00D_0000, mme_ue_id_base: 1 };
    pepc::ctrl::ControlPlane::new(0x0AFE_0001, 1, alloc, Some(proxy))
}

/// NAS payloads over a deliberately tiny identifier space so sequences
/// actually collide with each other's sessions.
fn small_nas() -> impl Strategy<Value = NasMsg> {
    prop_oneof![
        (1u64..5, any::<u32>()).prop_map(|(imsi, cap)| NasMsg::AttachRequest { imsi, ue_capability: cap }),
        any::<u64>().prop_map(|res| NasMsg::AuthenticationResponse { res }),
        Just(NasMsg::SecurityModeComplete),
        Just(NasMsg::AttachComplete),
        (0u64..8).prop_map(|g| NasMsg::DetachRequest { guti: 0xD00D_0000 + g }),
        (0u64..8, any::<u16>()).prop_map(|(g, tac)| NasMsg::TrackingAreaUpdateRequest { guti: 0xD00D_0000 + g, tac }),
        (0u64..8).prop_map(|g| NasMsg::ServiceRequest { guti: 0xD00D_0000 + g }),
        // MME-originated NAS arriving inbound: a protocol error the
        // dispatcher must consume without effect.
        any::<u8>().prop_map(|cause| NasMsg::NetworkDetachRequest { cause }),
    ]
}

/// Inbound S1AP PDUs over the same tiny space, NAS-bearing ones built
/// from [`small_nas`] with optional truncation and bit flips.
fn mangled_nas() -> impl Strategy<Value = Vec<u8>> {
    (small_nas(), any::<u16>(), proptest::option::of((any::<usize>(), 0u8..8))).prop_map(|(msg, cut, flip)| {
        let mut bytes = msg.encode();
        if let Some((pos, bit)) = flip {
            if !bytes.is_empty() {
                let i = pos % bytes.len();
                bytes[i] ^= 1 << bit;
            }
        }
        let keep = (cut as usize) % (bytes.len() + 1);
        // Truncate half the time, keep intact otherwise.
        if keep.is_multiple_of(2) {
            bytes.truncate(keep);
        }
        bytes
    })
}

fn fuzz_pdu() -> impl Strategy<Value = S1apPdu> {
    prop_oneof![
        (0u32..4, mangled_nas())
            .prop_map(|(enb_ue_id, nas)| { S1apPdu::InitialUeMessage { enb_ue_id, ecgi: 0x100, tac: 1, nas } }),
        (0u32..4, 0u32..4, mangled_nas())
            .prop_map(|(enb_ue_id, mme_ue_id, nas)| { S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas } }),
        (0u32..4, 0u32..4, any::<u32>(), any::<u32>()).prop_map(|(enb_ue_id, mme_ue_id, enb_teid, enb_ip)| {
            S1apPdu::InitialContextSetupResponse { enb_ue_id, mme_ue_id, enb_teid, enb_ip }
        }),
        (0u32..4, 0u32..4, any::<u32>(), any::<u32>()).prop_map(|(enb_ue_id, mme_ue_id, new_enb_teid, new_enb_ip)| {
            S1apPdu::PathSwitchRequest { enb_ue_id, mme_ue_id, new_enb_teid, new_enb_ip, ecgi: 0x200 }
        }),
        (0u32..4, 0u32..4).prop_map(|(enb_ue_id, mme_ue_id)| {
            S1apPdu::HandoverRequired { enb_ue_id, mme_ue_id, target_ecgi: 0x300 }
        }),
        (0u32..4, any::<u32>(), any::<u32>()).prop_map(|(mme_ue_id, new_enb_teid, new_enb_ip)| {
            S1apPdu::HandoverRequestAck { mme_ue_id, new_enb_teid, new_enb_ip }
        }),
        (0u32..4, 0u32..4)
            .prop_map(|(enb_ue_id, mme_ue_id)| { S1apPdu::UeContextReleaseComplete { enb_ue_id, mme_ue_id } }),
        (0u32..4, 0u32..4, any::<u8>()).prop_map(|(enb_ue_id, mme_ue_id, cause)| {
            S1apPdu::UeContextReleaseRequest { enb_ue_id, mme_ue_id, cause }
        }),
        // MME-originated paging arriving inbound: unroutable, must be
        // discarded cleanly.
        (0u32..4, 0u64..8).prop_map(|(mme_ue_id, g)| S1apPdu::Paging { mme_ue_id, guti: 0xD00D_0000 + g }),
    ]
}

proptest! {
    #[test]
    fn procedure_dispatcher_total_on_arbitrary_pdu_sequences(
        pdus in proptest::collection::vec(fuzz_pdu(), 0..60),
        expire_at in proptest::option::of(0usize..60),
        // Network-originated injections riding the same clock: a page
        // and a forced detach for a small-space IMSI at random points.
        page_at in proptest::option::of((0usize..60, 1u64..5)),
        net_detach_at in proptest::option::of((0usize..60, 1u64..5)),
    ) {
        let mut cp = fuzz_control_plane();
        let assert_identities = |cp: &pepc::ctrl::ControlPlane| {
            let m = cp.metrics();
            assert!(m.signaling_conservation_holds(cp.mailbox_backlog()));
            assert!(m.procedure_accounting_holds(cp.procedures_in_flight()));
            assert!(m.paging_accounting_holds(cp.paging_in_flight()));
        };
        for (i, pdu) in pdus.iter().enumerate() {
            cp.note_tick(i as u64);
            let _ = cp.take_pending_tx();
            if let Some((at, imsi)) = page_at {
                if at == i {
                    let _ = cp.page(imsi);
                    assert_identities(&cp);
                }
            }
            if let Some((at, imsi)) = net_detach_at {
                if at == i {
                    let _ = cp.network_detach(imsi);
                    assert_identities(&cp);
                }
            }
            let out = cp.handle_s1ap(pdu);
            // One delivery can at most answer the message itself plus a
            // full mailbox drained by it.
            prop_assert!(
                out.len() <= pepc::procedure::MAILBOX_CAP + 1,
                "unbounded emission: {} PDUs from one message",
                out.len()
            );
            assert_identities(&cp);
            if expire_at == Some(i) {
                // Expiry must be one-shot safe: a machine the stale scan
                // selected can be gone by the time it is retired (an
                // earlier expiry's rollback compensation removed it).
                cp.expire_procedures(i as u64 + 100, 1);
                assert_identities(&cp);
            }
        }
        // Supervision always converges: after expiry nothing is in
        // flight, parked, or unaccounted — pages included.
        cp.expire_procedures(1_000_000, 1);
        prop_assert_eq!(cp.procedures_in_flight(), 0);
        prop_assert_eq!(cp.mailbox_backlog(), 0);
        prop_assert_eq!(cp.paging_in_flight(), 0);
        let m = cp.metrics();
        prop_assert!(m.signaling_conservation_holds(0));
        prop_assert!(m.procedure_accounting_holds(0));
        prop_assert!(m.paging_accounting_holds(0));
        // Sessions stay within the provisioned population.
        prop_assert!(cp.user_count() <= 4);
    }

    #[test]
    fn procedure_machine_policy_is_total(
        state_idx in 0usize..7,
        pdu in fuzz_pdu(),
    ) {
        use pepc::procedure::{ProcState, UeMachine};
        use pepc::slab::UeHandle;
        // Every reachable machine state must classify every routable
        // message without panicking — the policy table is total.
        let states = [
            ProcState::Idle,
            ProcState::AttachWaitAuth { imsi: 1, xres: 9, handle: UeHandle::from_bits(1), mme_ue_id: 1 },
            ProcState::AttachWaitSmc { imsi: 1, handle: UeHandle::from_bits(1), mme_ue_id: 1 },
            ProcState::AttachWaitIcs { imsi: 1, mme_ue_id: 1 },
            ProcState::AttachWaitComplete { imsi: 1, mme_ue_id: 1 },
            ProcState::HandoverWaitAck { imsi: 1, source_enb_ue_id: 2, mme_ue_id: 1 },
            ProcState::PagingWait { imsi: 1, retries: 0, next_retx: 2 },
        ];
        let mut m = UeMachine::new(1, 0);
        m.enb_ue_id = 2;
        m.state = states[state_idx];
        // Re-derive the routed message the dispatcher would build, if
        // any, and classify it.
        use pepc::procedure::SigMsg;
        let msg = match &pdu {
            S1apPdu::InitialUeMessage { enb_ue_id, ecgi, tac, nas } => match NasMsg::decode(nas) {
                Ok(NasMsg::AttachRequest { imsi, .. }) => {
                    Some(SigMsg::AttachStart { enb_ue_id: *enb_ue_id, ecgi: *ecgi, tac: *tac, imsi })
                }
                Ok(NasMsg::ServiceRequest { guti }) => {
                    Some(SigMsg::ServiceStart { enb_ue_id: *enb_ue_id, ecgi: *ecgi, guti })
                }
                _ => None,
            },
            S1apPdu::UplinkNasTransport { enb_ue_id, mme_ue_id, nas } => NasMsg::decode(nas)
                .ok()
                .map(|msg| SigMsg::Nas { enb_ue_id: *enb_ue_id, mme_ue_id: *mme_ue_id, msg }),
            S1apPdu::InitialContextSetupResponse { enb_ue_id, mme_ue_id, enb_teid, enb_ip } => {
                Some(SigMsg::IcsRsp {
                    enb_ue_id: *enb_ue_id,
                    mme_ue_id: *mme_ue_id,
                    enb_teid: *enb_teid,
                    enb_ip: *enb_ip,
                })
            }
            S1apPdu::UeContextReleaseRequest { enb_ue_id, mme_ue_id, cause } => {
                Some(SigMsg::ReleaseReq { enb_ue_id: *enb_ue_id, mme_ue_id: *mme_ue_id, cause: *cause })
            }
            _ => None,
        };
        if let Some(msg) = msg {
            let _ = m.dispose(&msg); // any Disposition is fine; panic is the bug
        }
    }
}

// ---------------------------------------------------------------------------
// Idle-mode downlink buffer (PR 10, DESIGN.md §17)
// ---------------------------------------------------------------------------

/// One step of the idle-buffer lifecycle exercised below.
#[derive(Debug, Clone, Copy)]
enum IdleOp {
    /// Plain-IP downlink addressed to the UE.
    Downlink,
    /// GTP-U uplink from the (possibly suspended) UE.
    Uplink,
    /// Service Request resolution: re-insert, flushing the buffer.
    Wake,
    /// Paging expiry: discard the buffer, UE stays suspended.
    Expire,
    /// S1 release: park the UE outside the lookup tables.
    Sleep,
}

fn idle_op() -> impl Strategy<Value = IdleOp> {
    // Downlink is over-weighted so buffers actually fill.
    (0u8..8).prop_map(|k| match k {
        0 => IdleOp::Uplink,
        1 => IdleOp::Wake,
        2 => IdleOp::Expire,
        3 => IdleOp::Sleep,
        _ => IdleOp::Downlink,
    })
}

proptest! {
    /// The idle buffer is a bounded parking lot, not a leak: its
    /// occupancy never exceeds the configured cap, the data-path
    /// conservation identity holds after every operation, and every
    /// downlink packet received while suspended is exactly one of
    /// {still buffered, forwarded on wake, dropped}.
    #[test]
    fn idle_buffer_bounded_and_conserving(
        cap in 1usize..6,
        ops in proptest::collection::vec(idle_op(), 0..80),
    ) {
        use pepc::config::{IotConfig, TwoLevelConfig};
        use pepc::data::{DataPlane, DpUpdate};
        use pepc::state::{CounterState, QosPolicy, TunnelState};
        use pepc::PacketVerdict;
        use pepc_net::ipv4::IpProto;
        use pepc_net::udp::UDP_HDR_LEN;
        use pepc_net::IPV4_HDR_LEN;

        const GW_IP: u32 = 0x0AFE_0001;
        const ENB_IP: u32 = 0xC0A8_0001;
        const UE_IP: u32 = 0x0A00_0042;
        const TEID_UL: u32 = 0x1000;
        const TEID_DL: u32 = 0x2000;

        let mut dp = DataPlane::new(GW_IP, 64, TwoLevelConfig::default(), IotConfig::default());
        dp.set_idle_buffer_cap(cap);
        let mut ctrl = ControlState::new(404_010_000_000_001);
        ctrl.ue_ip = UE_IP;
        ctrl.qos = QosPolicy { qci: 9, ambr_kbps: 0, gbr_kbps: 0 };
        ctrl.tunnels = TunnelState { enb_teid: TEID_DL, enb_ip: ENB_IP, gw_teid: TEID_UL };
        let h = dp.slab().alloc(ctrl, CounterState::default()).unwrap();
        dp.apply_update(DpUpdate::Insert { gw_teid: TEID_UL, ue_ip: UE_IP, handle: h, active: true }, 0);

        let downlink = || {
            let payload = 32usize;
            let mut m = Mbuf::new();
            let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
            Ipv4Hdr::new(0x0808_0808, UE_IP, IpProto::Udp, UDP_HDR_LEN + payload)
                .emit(&mut hdr[..IPV4_HDR_LEN])
                .unwrap();
            UdpHdr::new(443, 40_000, payload).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
            m.extend(&hdr);
            m.extend(&vec![0xAB; payload]);
            m
        };
        let uplink = || {
            let payload = 16usize;
            let mut m = Mbuf::new();
            let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
            Ipv4Hdr::new(UE_IP, 0x0808_0808, IpProto::Udp, UDP_HDR_LEN + payload)
                .emit(&mut hdr[..IPV4_HDR_LEN])
                .unwrap();
            UdpHdr::new(40_000, 53, payload).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
            m.extend(&hdr);
            m.extend(&vec![0xCD; payload]);
            encap_gtpu(&mut m, ENB_IP, GW_IP, TEID_UL).unwrap();
            m
        };

        // Shadow model: what the buffer must contain and where every
        // suspended-downlink packet must have ended up.
        let mut suspended = false;
        let mut model_buffered = 0u64;
        let mut model_wake_flushed = 0u64;
        let mut model_overflow = 0u64;
        let mut model_expired = 0u64;
        let mut now = 0u64;
        for op in ops {
            now += 1;
            match op {
                IdleOp::Downlink => {
                    let v = dp.process(downlink(), now);
                    if suspended {
                        if model_buffered < cap as u64 {
                            model_buffered += 1;
                            prop_assert!(matches!(v, PacketVerdict::Buffered));
                        } else {
                            model_overflow += 1;
                            prop_assert!(matches!(v, PacketVerdict::Drop(_)));
                        }
                    } else {
                        prop_assert!(matches!(v, PacketVerdict::Forward(_)));
                    }
                }
                IdleOp::Uplink => {
                    let v = dp.process(uplink(), now);
                    if suspended {
                        // Suspended uplink is a protocol error: dropped,
                        // never a wake.
                        prop_assert!(matches!(v, PacketVerdict::Drop(_)));
                    } else {
                        prop_assert!(matches!(v, PacketVerdict::Forward(_)));
                    }
                }
                IdleOp::Wake if suspended => {
                    dp.apply_update(
                        DpUpdate::Insert { gw_teid: TEID_UL, ue_ip: UE_IP, handle: h, active: true },
                        now,
                    );
                    let woken = dp.take_woken();
                    prop_assert_eq!(woken.len() as u64, model_buffered);
                    model_wake_flushed += model_buffered;
                    model_buffered = 0;
                    suspended = false;
                }
                IdleOp::Expire if suspended => {
                    dp.apply_update(DpUpdate::DropIdleBuffer { ue_ip: UE_IP }, now);
                    model_expired += model_buffered;
                    model_buffered = 0;
                    prop_assert_eq!(dp.suspended_count(), 1); // still parked
                }
                IdleOp::Sleep if !suspended => {
                    dp.apply_update(DpUpdate::Suspend { gw_teid: TEID_UL, ue_ip: UE_IP, imsi: 1 }, now);
                    suspended = true;
                }
                // Wake while awake / Expire or Sleep in the wrong phase
                // are no-ops for the model and skipped by the driver.
                IdleOp::Wake | IdleOp::Expire | IdleOp::Sleep => {}
            }
            let m = dp.metrics();
            // Occupancy is bounded by the cap at every step, never just
            // at the end.
            prop_assert!(m.idle_buffered <= cap as u64, "buffer {} over cap {}", m.idle_buffered, cap);
            prop_assert_eq!(m.idle_buffered, model_buffered);
            // Exact disposition of every suspended-downlink packet.
            prop_assert_eq!(m.forwarded_on_wake, model_wake_flushed);
            prop_assert_eq!(m.drop_idle_overflow, model_overflow);
            prop_assert_eq!(m.drop_idle_expired, model_expired);
            // Data conservation: rx == forwarded + drops + parked.
            prop_assert!(m.conservation_holds(), "conservation broken: {m:?}");
        }
        // Drain: waking at the end leaves nothing parked and conserves.
        if suspended {
            dp.apply_update(
                DpUpdate::Insert { gw_teid: TEID_UL, ue_ip: UE_IP, handle: h, active: true },
                now + 1,
            );
            prop_assert_eq!(dp.take_woken().len() as u64, model_buffered);
        }
        let m = dp.metrics();
        prop_assert_eq!(m.idle_buffered, 0);
        prop_assert_eq!(dp.suspended_count(), 0);
        prop_assert!(m.conservation_holds());
    }
}

// ---------------------------------------------------------------------------
// Branchless/SIMD classifier vs the reference parser chain
// ---------------------------------------------------------------------------

/// Emitted wire images the classifier corpus perturbs: a valid GTP-U
/// uplink, a plain IPv4+UDP downlink, an IPv4+TCP flow, an
/// Ethernet-framed IPv4 packet (not IP-at-offset-0, so Malformed), and
/// a GTP-shaped-but-short frame (the 20..28-byte quirk window).
fn classifier_corpus() -> Vec<Vec<u8>> {
    use pepc_net::ipv4::IpProto;
    use pepc_net::tcp::TCP_HDR_LEN;
    use pepc_net::udp::UDP_HDR_LEN;
    use pepc_net::IPV4_HDR_LEN;

    let ipv4_udp = |src: u32, dst: u32, payload: usize| -> Vec<u8> {
        let mut b = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN + payload];
        Ipv4Hdr::new(src, dst, IpProto::Udp, UDP_HDR_LEN + payload).emit(&mut b[..IPV4_HDR_LEN]).unwrap();
        UdpHdr::new(40_000, 443, payload).emit(&mut b[IPV4_HDR_LEN..]).unwrap();
        b
    };

    let mut corpus = Vec::new();
    // Valid GTP-U uplink.
    let mut m = Mbuf::from_payload(&ipv4_udp(0x0A00_0001, 0x0808_0808, 32));
    encap_gtpu(&mut m, 0xC0A8_0001, 0x0AFE_0001, 0xDEAD_BEEF).unwrap();
    corpus.push(m.data().to_vec());
    // Plain IPv4 + UDP downlink.
    corpus.push(ipv4_udp(0x0808_0808, 0x0A00_0001, 24));
    // IPv4 + TCP.
    let mut tcp = vec![0u8; IPV4_HDR_LEN + TCP_HDR_LEN];
    Ipv4Hdr::new(0x0A00_0002, 0x0808_0404, IpProto::Tcp, TCP_HDR_LEN).emit(&mut tcp[..IPV4_HDR_LEN]).unwrap();
    TcpHdr {
        src_port: 40_001,
        dst_port: 80,
        seq: 7,
        ack: 9,
        data_offset: TCP_HDR_LEN,
        flags: pepc_net::tcp::flags::ACK,
        window: 512,
    }
    .emit(&mut tcp[IPV4_HDR_LEN..])
    .unwrap();
    corpus.push(tcp);
    // Ethernet-framed IPv4 (classifier sees non-0x45 at offset 0).
    let mut eth = vec![0u8; 14];
    eth[12] = 0x08; // ethertype 0x0800
    eth.extend_from_slice(&ipv4_udp(0x0808_0808, 0x0A00_0003, 16));
    corpus.push(eth);
    // GTP-shaped start but cut inside the 20..28 quirk window.
    let mut quirk = corpus[0].clone();
    quirk.truncate(24);
    corpus.push(quirk);
    corpus
}

fn assert_classify_agree(bytes: &[u8], what: &str) {
    let fast = pepc_net::classify_fast(bytes);
    let reference = pepc_net::classify_reference(bytes);
    assert_eq!(fast, reference, "{what}: fast != reference on {bytes:02x?}");
}

/// Exhaustive (deterministic) sweep: the branchless/SIMD classifier must
/// agree with the reference parser chain on every corpus packet, every
/// truncation of it, and every single-bit corruption — and never panic.
#[test]
fn classifier_agrees_on_every_truncation_and_bit_flip() {
    for (i, pkt) in classifier_corpus().iter().enumerate() {
        assert_classify_agree(pkt, &format!("corpus[{i}]"));
        for cut in 0..=pkt.len() {
            assert_classify_agree(&pkt[..cut], &format!("corpus[{i}] cut at {cut}"));
        }
        for byte in 0..pkt.len() {
            for bit in 0..8 {
                let mut flipped = pkt.clone();
                flipped[byte] ^= 1 << bit;
                assert_classify_agree(&flipped, &format!("corpus[{i}] flip {byte}.{bit}"));
            }
        }
    }
}

proptest! {
    #[test]
    fn classifier_agrees_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(pepc_net::classify_fast(&bytes), pepc_net::classify_reference(&bytes));
    }

    #[test]
    fn classifier_agrees_on_corrupted_corpus(
        pick in 0usize..5,
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 0..4),
    ) {
        // Truncate then scatter a few bit flips: multi-fault inputs the
        // exhaustive single-fault sweep cannot reach.
        let corpus = classifier_corpus();
        let mut bytes = corpus[pick % corpus.len()].clone();
        bytes.truncate(cut % (bytes.len() + 1));
        for (at, bit) in flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
            }
        }
        prop_assert_eq!(pepc_net::classify_fast(&bytes), pepc_net::classify_reference(&bytes));
    }
}

// ---------------------------------------------------------------------------
// Overload admission: the limiter's priority contract under arbitrary
// request sequences. Two properties the unit tests only check at fixed
// points: (1) shedding is monotone in priority — within one supervision
// tick the controller never sheds a higher class while admitting a
// strictly lower one, and `would_admit` is monotone in rank at every
// reachable state; (2) the extended conservation identity
// (rx == consumed + deduped + dropped + overflow + shed + backlog) stays
// exact after every delivery of a storm-shaped sequence with admission
// enabled, through mid-storm expiry and after final supervision.
// ---------------------------------------------------------------------------

/// Storm-shaped inbound traffic: mostly valid attach floods from a tiny
/// ECGI set (so per-eNodeB buckets actually starve), a TAU trickle, and
/// the full fuzz PDU space mixed in so mid-procedure and mangled
/// messages cross the admission path too.
fn storm_pdu() -> impl Strategy<Value = S1apPdu> {
    prop_oneof![
        (0u32..6, 1u64..5, 0x100u32..0x103).prop_map(|(enb_ue_id, imsi, ecgi)| S1apPdu::InitialUeMessage {
            enb_ue_id,
            ecgi,
            tac: 1,
            nas: NasMsg::AttachRequest { imsi, ue_capability: 0 }.encode(),
        }),
        (0u32..6, 0u64..8, 0x100u32..0x103).prop_map(|(enb_ue_id, guti, ecgi)| S1apPdu::InitialUeMessage {
            enb_ue_id,
            ecgi,
            tac: 7,
            nas: NasMsg::TrackingAreaUpdateRequest { guti: 0xD00D_0000 + guti, tac: 7 }.encode(),
        }),
        fuzz_pdu(),
    ]
}

proptest! {
    #[test]
    fn admission_never_sheds_higher_class_while_admitting_lower(
        rate in 0u32..3,
        burst in 0u32..6,
        ceiling in 0u32..6,
        reqs in proptest::collection::vec((0u8..3, 0u32..3, 0u64..12, any::<bool>()), 1..80),
    ) {
        use pepc::overload::{AdmissionControl, SigClass};
        let cfg = pepc::config::OverloadConfig {
            enabled: true,
            enb_rate_per_tick: rate,
            enb_burst: burst,
            max_in_flight: ceiling,
            backoff_ms: 10,
        };
        let mut ac = AdmissionControl::new(cfg);
        let mut tick = 0u64;
        // Lowest rank shed so far in the current tick (u8::MAX = none).
        let mut shed_rank_this_tick = u8::MAX;
        for &(class_idx, ecgi, in_flight, advance) in &reqs {
            if advance {
                tick += 1;
                shed_rank_this_tick = u8::MAX;
            }
            let class = [SigClass::Handover, SigClass::Attach, SigClass::Tau][class_idx as usize];

            // `would_admit` is monotone in rank at every reachable state:
            // if a class gets in, every higher-priority class must too.
            let probes: Vec<bool> = [SigClass::Handover, SigClass::Attach, SigClass::Tau]
                .iter()
                .map(|&c| ac.would_admit(c, ecgi, in_flight, tick))
                .collect();
            prop_assert!(!probes[2] || probes[1], "TAU admitted while attach shed (tick {tick})");
            prop_assert!(!probes[1] || probes[0], "attach admitted while handover shed (tick {tick})");

            // The probe is exactly the decision `admit` takes.
            let probe = ac.would_admit(class, ecgi, in_flight, tick);
            let admitted = ac.admit(class, ecgi, in_flight, tick);
            prop_assert_eq!(probe, admitted, "would_admit diverged from admit for {:?} at tick {}", class, tick);

            // Temporal monotonicity within the tick: once a class is
            // shed, nothing of strictly lower priority is admitted
            // until the supervision clock advances.
            if admitted {
                prop_assert!(
                    class.rank() <= shed_rank_this_tick,
                    "admitted {:?} (rank {}) after shedding rank {} in the same tick",
                    class, class.rank(), shed_rank_this_tick
                );
            } else {
                shed_rank_this_tick = shed_rank_this_tick.min(class.rank());
            }
        }
    }

    #[test]
    fn signaling_conservation_exact_mid_storm_and_after_expiry(
        pdus in proptest::collection::vec(storm_pdu(), 1..120),
        expire_at in proptest::option::of(0usize..120),
    ) {
        let mut cp = fuzz_control_plane();
        cp.set_overload(pepc::config::OverloadConfig {
            enabled: true,
            enb_rate_per_tick: 1,
            enb_burst: 2,
            max_in_flight: 3,
            backoff_ms: 7,
        });
        let mut shed_seen = 0u64;
        for (i, pdu) in pdus.iter().enumerate() {
            // Slow clock: several PDUs per supervision tick, so buckets
            // starve mid-tick and the limiter actually sheds.
            let tick = (i / 4) as u64;
            cp.note_tick(tick);
            let out = cp.handle_s1ap(pdu);
            prop_assert!(out.len() <= pepc::procedure::MAILBOX_CAP + 1);
            let m = cp.metrics();
            prop_assert!(
                m.signaling_conservation_holds(cp.mailbox_backlog()),
                "conservation broke mid-storm at delivery {i}"
            );
            prop_assert!(m.procedure_accounting_holds(cp.procedures_in_flight()));
            // Shed counters are monotone: admission only ever adds.
            prop_assert!(m.sig_shed_total() >= shed_seen);
            shed_seen = m.sig_shed_total();
            if expire_at == Some(i) {
                cp.expire_procedures(tick + 100, 1);
                let m = cp.metrics();
                prop_assert!(
                    m.signaling_conservation_holds(cp.mailbox_backlog()),
                    "conservation broke after mid-storm expiry at delivery {i}"
                );
                prop_assert!(m.procedure_accounting_holds(cp.procedures_in_flight()));
            }
        }
        // After the storm: supervision converges and every inbound PDU is
        // accounted to exactly one bucket of the identity.
        cp.expire_procedures(1_000_000, 1);
        prop_assert_eq!(cp.procedures_in_flight(), 0);
        prop_assert_eq!(cp.mailbox_backlog(), 0);
        let m = cp.metrics();
        prop_assert!(m.signaling_conservation_holds(0));
        prop_assert!(m.procedure_accounting_holds(0));
        prop_assert!(cp.user_count() <= 4);
    }
}

/// Any state a slice can hold: 0–6 rules, either device class, arbitrary
/// identifiers, QoS and tunnels.
fn arb_control_state() -> impl Strategy<Value = ControlState> {
    (
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>(), any::<u16>(), any::<bool>()),
        (any::<u8>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        proptest::collection::vec(any::<u16>(), 0..7),
    )
        .prop_map(
            |((imsi, guti, ue_ip, ecgi, tac, iot), (qci, ambr_kbps, gbr_kbps), (enb_teid, enb_ip, gw_teid), rules)| {
                use pepc::state::{DeviceClass, QosPolicy, TunnelState};
                let mut c = ControlState::new(imsi);
                c.guti = guti;
                c.ue_ip = ue_ip;
                c.ecgi = ecgi;
                c.tac = tac;
                c.device_class = if iot { DeviceClass::StatelessIot } else { DeviceClass::Smartphone };
                c.qos = QosPolicy { qci, ambr_kbps, gbr_kbps };
                c.tunnels = TunnelState { enb_teid, enb_ip, gw_teid };
                for id in rules {
                    c.pcef_rules.push(id);
                }
                c
            },
        )
}

/// Copy into `c` each field of `from` whose bit is set in `mask`.
fn mix_fields(c: &mut ControlState, from: &ControlState, mask: u16) {
    let on = |bit: u16| mask & (1 << bit) != 0;
    if on(0) {
        c.imsi = from.imsi;
    }
    if on(1) {
        c.guti = from.guti;
    }
    if on(2) {
        c.ue_ip = from.ue_ip;
    }
    if on(3) {
        c.ecgi = from.ecgi;
    }
    if on(4) {
        c.tac = from.tac;
    }
    if on(5) {
        c.device_class = from.device_class;
    }
    if on(6) {
        c.qos = from.qos;
    }
    if on(7) {
        c.tunnels = from.tunnels;
    }
    if on(8) {
        c.pcef_rules = from.pcef_rules;
    }
}
