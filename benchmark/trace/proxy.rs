//! `pepc::proxy` leaves: the three backend exchanges of one attach, each
//! including its Diameter/Gx codec and the `Hss`/`Pcrf` lookup.

use crate::stream::probe_calls;
use pepc::Proxy;
use pepc_benchmark::sut::Backends;
use std::hint::black_box;
use std::sync::Arc;

/// (auth, update_location, fetch_rules) ns per call over IMSIs from `base`.
pub fn exchange_ns(backends: &Backends, gw_ip: u32, plmn: u32, base: u64) -> (f64, f64, f64) {
    let proxy = Proxy::new(Arc::clone(backends.hss()), Arc::clone(backends.pcrf()), gw_ip, plmn);
    let imsi = |i: usize| base + (i as u64 & 0xFFFF);
    (
        probe_calls(2048, |i| {
            black_box(proxy.authentication_info(imsi(i)).is_ok());
        }),
        probe_calls(2048, |i| {
            black_box(proxy.update_location(imsi(i)).is_ok());
        }),
        probe_calls(2048, |i| {
            black_box(proxy.fetch_rules(i as u32, imsi(i)).is_ok());
        }),
    )
}
