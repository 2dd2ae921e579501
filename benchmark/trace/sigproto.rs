//! `pepc-sigproto` leaves that are not spans of level A: the NAS codec work
//! of one lifecycle (decode of its six uplink NAS messages, encode of its
//! five downlink ones) per S1AP message, and — for reference only, SCTP-lite
//! is not on the node's path — one SCTP DATA/SACK round trip.

use crate::stream::probe_calls;
use pepc_benchmark::enb::LEGS;
use pepc_sigproto::nas::NasMsg;
use pepc_sigproto::sctp::{Association, SctpPacket};
use std::hint::black_box;

pub fn nas_codec_ns() -> f64 {
    let uplink: Vec<Vec<u8>> = [
        NasMsg::AttachRequest { imsi: 404_01_0000000001, ue_capability: 0xF0 },
        NasMsg::AuthenticationResponse { res: 7 },
        NasMsg::SecurityModeComplete,
        NasMsg::AttachComplete,
        NasMsg::ServiceRequest { guti: 0xD00D_0000_0001 },
        NasMsg::DetachRequest { guti: 0xD00D_0000_0001 },
    ]
    .iter()
    .map(NasMsg::encode)
    .collect();
    let downlink = [
        NasMsg::AuthenticationRequest { rand: 1, autn: 2 },
        NasMsg::SecurityModeCommand { integrity_alg: 2, ciphering_alg: 1 },
        NasMsg::AttachAccept { guti: 0xD00D_0000_0001, ue_ip: 0x0A00_0001, tac: 1 },
        NasMsg::ServiceAccept,
        NasMsg::DetachAccept,
    ];
    let per_lifecycle = probe_calls(4096, |_| {
        for b in &uplink {
            black_box(NasMsg::decode(black_box(b)).is_ok());
        }
        for m in &downlink {
            black_box(m.encode());
        }
    });
    per_lifecycle / LEGS.len() as f64
}

/// Move every queued packet of `from` to `to` as wire bytes.
fn deliver(from: &mut Association, to: &mut Association) {
    for p in from.take_outbound() {
        let pkt = SctpPacket::decode(&p.encode()).expect("own encoding");
        to.handle_packet(&pkt).expect("in-order delivery");
    }
}

pub fn sctp_rtt_ns() -> f64 {
    let mut enb = Association::new(36412, 36412, 0x1111, 1);
    let mut mme = Association::new(36412, 36412, 0x2222, 2);
    enb.connect().expect("closed");
    for _ in 0..2 {
        deliver(&mut enb, &mut mme);
        deliver(&mut mme, &mut enb);
    }
    let payload = vec![0u8; 48];
    probe_calls(2048, |_| {
        enb.send(1, payload.clone()).expect("established");
        deliver(&mut enb, &mut mme);
        deliver(&mut mme, &mut enb);
    })
}
