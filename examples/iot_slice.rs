//! Stateless-IoT customization (paper §4.2 / Figure 15): devices that run
//! a single best-effort application get TEIDs and IPs from a pre-assigned
//! pool, and the data plane skips the per-user state lookup entirely.
//!
//! ```sh
//! cargo run --release --example iot_slice
//! ```

use pepc::config::{EpcConfig, IotConfig, SliceConfig};
use pepc::node::PepcNode;
use pepc_net::gtp::encap_gtpu;
use pepc_net::ipv4::IpProto;
use pepc_net::udp::{UdpHdr, UDP_HDR_LEN};
use pepc_net::{Ipv4Hdr, Mbuf, IPV4_HDR_LEN};
use std::time::Instant;

const POOL: u32 = 100_000;
const IOT_TEID_BASE: u32 = 0xF000_0000;
const IOT_IP_BASE: u32 = 0x6400_0000;

fn sensor_reading(teid: u32) -> Mbuf {
    let mut m = Mbuf::new();
    let mut hdr = vec![0u8; IPV4_HDR_LEN + UDP_HDR_LEN];
    Ipv4Hdr::new(0x0A00_0001, 0x0808_0808, IpProto::Udp, UDP_HDR_LEN + 16).emit(&mut hdr[..IPV4_HDR_LEN]).unwrap();
    UdpHdr::new(5683, 5683, 16).emit(&mut hdr[IPV4_HDR_LEN..]).unwrap(); // CoAP
    m.extend(&hdr);
    m.extend(&[0u8; 16]); // 16-byte telemetry payload
    encap_gtpu(&mut m, 0xC0A8_0001, 0x0AFE_0001, teid).unwrap();
    m
}

fn main() {
    // An operator dedicates a two-slice node to 100K stateless IoT
    // sensors. Every slice carries the same pool; pool keys lie in no
    // slice's identifier region, so the Demux spreads them by offset.
    let iot = IotConfig { enabled: true, teid_base: IOT_TEID_BASE, ip_base: IOT_IP_BASE, pool_size: POOL };
    let config = EpcConfig { slices: 2, slice: SliceConfig { iot, ..SliceConfig::default() }, ..EpcConfig::default() };
    let teid_base = config.teid_base;
    let mut node = PepcNode::new(config, None);

    // NOTE: no attach, no per-device state. A sensor's TEID membership in
    // the pool is its service definition.
    println!("node up: 2 slices, IoT pool of {POOL} devices, zero per-device state\n");

    let t = Instant::now();
    const N: u32 = 500_000;
    for i in 0..N {
        let teid = IOT_TEID_BASE + (i % POOL);
        assert!(node.process(sensor_reading(teid)).is_forward());
    }
    let elapsed = t.elapsed();
    println!(
        "processed {N} sensor readings from {POOL} devices in {elapsed:?} \
         ({:.2} Mpps incl. generation)",
        N as f64 / elapsed.as_secs_f64() / 1e6
    );

    let totals = node.metrics_snapshot().data_totals();
    println!("fast-path packets: {} (state lookups skipped)", totals.iot_fast_path);
    for k in 0..node.slice_count() {
        let d = &node.slice_ref(k).data;
        println!("slice {k}: aggregate charging for the pool: {} packets, {} bytes", d.iot_packets, d.iot_bytes);
    }
    assert_eq!(totals.iot_fast_path as u32, N);

    // A regular TEID still requires state: this one lies in slice 0's
    // region but nobody attached, so the slice drops it.
    let v = node.process(sensor_reading(teid_base + 0x99));
    println!("\nnon-pool TEID without attach: {:?} (per-user state still enforced)", v);
}
