// IMSI literals are written MCC_MNC_MSIN (e.g. 404_01_…).
#![allow(clippy::inconsistent_digit_grouping)]

//! Quickstart: bring up a PEPC node with real HSS/PCRF backends, attach a
//! subscriber over the full S1AP/NAS call flow, and push traffic both
//! ways.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pepc::config::{BatchingConfig, EpcConfig, SliceConfig};
use pepc::ctrl::run_attach_with;
use pepc::node::PepcNode;
use pepc_backend::{Hss, Pcrf};
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use std::sync::Arc;

fn main() {
    // 1. Backends: provision 1000 subscribers in the HSS; standard
    //    operator policy rules in the PCRF.
    let hss = Arc::new(Hss::new());
    hss.provision_range(404_01_0000000000, 1000, 100_000);
    let pcrf = Arc::new(Pcrf::with_standard_rules());

    // 2. A PEPC node with two slices.
    let config = EpcConfig {
        slices: 2,
        slice: SliceConfig { batching: BatchingConfig { sync_every_packets: 1 }, ..Default::default() },
        ..EpcConfig::default()
    };
    let mut node = PepcNode::new(config, Some((hss, pcrf)));

    // 3. Full attach over S1AP/NAS: InitialUEMessage → authentication
    //    against the HSS → security mode → context setup → complete.
    let imsi = 404_01_0000000042;
    let (guti, ue_ip, gw_teid) =
        run_attach_with(|pdu| node.handle_s1ap(pdu), imsi, 1, 0xE100, 0xC0A8_0001).expect("attach procedure");
    println!("attached imsi {imsi}");
    println!("  GUTI    {guti:#x}");
    println!("  UE IP   {}", Ipv4Hdr::addr_to_string(ue_ip));
    println!("  S1-U TEID {gw_teid:#x} (eNodeB → PEPC uplink tunnel)");

    // 4. Uplink: the eNodeB tunnels the UE's packet in GTP-U.
    let mut up = Mbuf::new();
    let payload = b"hello from the UE";
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(ue_ip, 0x0808_0808, IpProto::Udp, UDP_HDR_LEN + payload.len()).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(40000, 53, payload.len()).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    up.extend(&hdr);
    up.extend(payload);
    encap_gtpu(&mut up, 0xC0A8_0001, node.config().gw_ip, gw_teid).unwrap();

    match node.process(up) {
        pepc::node::NodeVerdict::Forward(m) => {
            let ip = Ipv4Hdr::parse(m.data()).unwrap();
            println!("uplink: decapsulated and forwarded to {} ({} bytes)", Ipv4Hdr::addr_to_string(ip.dst), m.len());
        }
        other => panic!("uplink failed: {other:?}"),
    }

    // 5. Downlink: a plain IP packet for the UE gets tunnelled to its
    //    serving eNodeB.
    let mut down = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(0x0808_0808, ue_ip, IpProto::Udp, UDP_HDR_LEN + 4).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(53, 40000, 4).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap();
    down.extend(&hdr);
    down.extend(b"pong");

    match node.process(down) {
        pepc::node::NodeVerdict::Forward(mut m) => {
            let (gtp, outer) = pepc_net::gtp::decap_gtpu(&mut m).unwrap();
            println!("downlink: tunnelled to eNodeB {} with TEID {:#x}", Ipv4Hdr::addr_to_string(outer.dst), gtp.teid);
        }
        other => panic!("downlink failed: {other:?}"),
    }

    // 6. Charging counters accumulated in the user's consolidated state.
    let k = node.slice_of(imsi).unwrap();
    let counters = node.slice(k).ctrl.counters_of(imsi).unwrap();
    println!(
        "counters: {} uplink / {} downlink packets, {} / {} bytes",
        counters.uplink_packets, counters.downlink_packets, counters.uplink_bytes, counters.downlink_bytes
    );
}
