//! `pepc::overload` leaf: the admission check as the control plane makes it,
//! under the node's own policy (admission control is off by default, so this
//! is the price of the switch, not of the limiter), per S1AP message.

use crate::stream::probe_calls;
use pepc::config::OverloadConfig;
use pepc::overload::{classify_for_admission, AdmissionControl};
use pepc_benchmark::enb::{Ue, LEGS};
use std::hint::black_box;

pub fn admit_ns(policy: OverloadConfig) -> f64 {
    let mut ac = AdmissionControl::new(policy);
    let ue = Ue::new(404_01_0000000001, 1);
    let pdus: Vec<_> = LEGS.iter().map(|&l| ue.request(l)).collect();
    let per_lifecycle = probe_calls(4096, |_| {
        for pdu in &pdus {
            if ac.enabled() {
                if let Some((class, ecgi, ..)) = classify_for_admission(pdu) {
                    black_box(ac.admit(class, ecgi, 0, 0));
                }
            }
            black_box(pdu);
        }
    });
    per_lifecycle / LEGS.len() as f64
}
