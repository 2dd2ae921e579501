//! Handover storm on a *threaded* slice: the control thread absorbs a
//! flood of S1 handovers while the data thread keeps forwarding — the
//! performance-isolation property of PEPC's two-thread slice design
//! (paper §3.2: control and data threads on separate cores, single-writer
//! shared state, so signaling bursts do not stall the pipeline).
//!
//! ```sh
//! cargo run --release --example handover_storm
//! ```

use pepc::config::{BatchingConfig, SliceConfig};
use pepc::ctrl::{Allocator, CtrlEvent};
use pepc::slice::{CtrlCmd, CtrlReply, Slice};
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use std::time::{Duration, Instant};

const USERS: u64 = 1_000;

fn uplink(teid: u32, ue_ip: u32) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(ue_ip, 0x0808_0808, IpProto::Udp, UDP_HDR_LEN + 32).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(40000, 80, 32).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    m.extend(&hdr);
    m.extend(&[0u8; 32]);
    encap_gtpu(&mut m, 0xC0A8_0001, 0x0AFE_0001, teid).unwrap();
    m
}

fn main() {
    let config = SliceConfig {
        batching: BatchingConfig { sync_every_packets: 32 },
        expected_users: USERS as usize,
        ..SliceConfig::default()
    };
    let alloc = Allocator { teid_base: 0x1000, ue_ip_base: 0x0A00_0001, guti_base: 0xD000, mme_ue_id_base: 1 };
    let mut handle = Slice::spawn(&config, 0x0AFE_0001, 1, alloc, None).expect("spawn the slice's threads");

    // Attach a population through the control thread. Its mailbox and
    // reply ring are bounded: a full mailbox hands the command back, and
    // the control thread stops taking commands while replies go unread.
    let mut attached = 0u64;
    let mut imsi = 0u64;
    while attached < USERS {
        if imsi < USERS && handle.ctrl_tx.push(CtrlCmd::Event(CtrlEvent::Attach { imsi })).is_ok() {
            imsi += 1;
        }
        while let Some(reply) = handle.ctrl_rx.pop() {
            attached += u64::from(reply == CtrlReply::Event(true));
        }
    }
    println!("{USERS} users attached on the control thread");

    // Feed data traffic and a handover storm concurrently.
    let start = Instant::now();
    let mut sent = 0u64;
    let mut offered_handovers = 0u64;
    let mut refused_handovers = 0u64;
    let mut applied = 0u64;
    let mut forwarded = 0u64;
    let mut drain = Vec::new();
    while start.elapsed() < Duration::from_secs(1) {
        for i in 0..64u64 {
            let uid = (sent + i) % USERS;
            // Count only packets the (bounded) rx ring accepted: on a
            // single-CPU host the generator easily outruns the pipeline.
            if handle.data_in.push(uplink(0x1000 + uid as u32, 0x0A00_0001 + uid as u32)).is_ok() {
                sent += 1;
            }
        }
        // Storm: every loop iteration rehomes a user to a new eNodeB,
        // unless the mailbox is full.
        let n = offered_handovers;
        let cmd = CtrlCmd::Event(CtrlEvent::S1Handover {
            imsi: n % USERS,
            new_enb_teid: 0xE000_0000 + n as u32,
            new_enb_ip: 0xC0A8_0001 + (n % 64) as u32,
        });
        offered_handovers += 1;
        refused_handovers += u64::from(handle.ctrl_tx.push(cmd).is_err());
        while let Some(reply) = handle.ctrl_rx.pop() {
            applied += u64::from(reply == CtrlReply::Event(true));
        }
        forwarded += handle.data_out.pop_burst(&mut drain, 256) as u64;
        drain.clear();
    }

    // Let the pipeline settle, then report.
    std::thread::sleep(Duration::from_millis(50));
    while let Some(reply) = handle.ctrl_rx.pop() {
        applied += u64::from(reply == CtrlReply::Event(true));
    }
    forwarded += handle.data_out.pop_burst(&mut drain, usize::MAX) as u64;
    println!("in 1s of storm:");
    println!("  handovers offered: {offered_handovers}, refused by the full mailbox: {refused_handovers}");
    println!("  handovers applied by the control thread: {applied}");
    println!("  packets forwarded by the data thread:    {forwarded} of {sent} offered");
    println!(
        "  ({:.1}% delivered while every user's tunnel state was being rewritten)",
        forwarded as f64 / sent as f64 * 100.0
    );
    let (ctrl, data) = handle.shutdown().expect("slice threads exit cleanly");
    println!(
        "final planes: {} users, {} handovers; {} packets forwarded",
        ctrl.user_count(),
        ctrl.metrics().handovers,
        data.metrics().forwarded
    );
}
