//! The PEPC node proxy — paper §3.3.
//!
//! "The PEPC node proxy interfaces with the backend servers like HSS and
//! PCRF. Specifically, the interface between the HSS and Proxy is the same
//! as the current interface between the MME and HSS (S6a, Diameter) \[and\]
//! the interface between the proxy and PCRF is the same as the current
//! interface between the P-GW and PCRF (Gx)."
//!
//! The proxy is shared by all slices on a node. Exchanges go through the
//! wire codecs (encode → backend → decode), so the full S6a/Gx message
//! path is exercised even though the backends are in-process.

use pepc_backend::{Hss, Pcrf};
use pepc_sigproto::diameter::{result_code, DiameterMsg};
use pepc_sigproto::gx::{GxMsg, GxRule};
use pepc_sigproto::{Result, SigError};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Outcome of an authentication-information fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthChallenge {
    pub rand: u64,
    pub autn: u64,
    pub xres: u64,
}

/// Outcome of an update-location exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionData {
    pub ambr_kbps: u32,
    pub default_qci: u8,
}

/// The node's HSS/PCRF proxy.
pub struct Proxy {
    hss: Arc<Hss>,
    pcrf: Arc<Pcrf>,
    node_id: u32,
    plmn: u32,
    hop_id: AtomicU32,
}

impl Proxy {
    pub fn new(hss: Arc<Hss>, pcrf: Arc<Pcrf>, node_id: u32, plmn: u32) -> Self {
        Proxy { hss, pcrf, node_id, plmn, hop_id: AtomicU32::new(1) }
    }

    fn next_hop(&self) -> u32 {
        self.hop_id.fetch_add(1, Ordering::Relaxed)
    }

    /// S6a Authentication-Information exchange. `Err(BadValue)` when the
    /// subscriber is unknown.
    pub fn authentication_info(&self, imsi: u64) -> Result<AuthChallenge> {
        let hop = self.next_hop();
        let req = DiameterMsg::AuthInfoRequest { hop_id: hop, imsi, plmn: self.plmn }.encode();
        let rsp = self.hss.handle_bytes(&req)?;
        match DiameterMsg::decode(&rsp)? {
            DiameterMsg::AuthInfoAnswer { hop_id, result, rand, autn, xres } => {
                if hop_id != hop {
                    return Err(SigError::BadValue("s6a hop-id mismatch"));
                }
                if result != result_code::SUCCESS {
                    return Err(SigError::BadValue("s6a user unknown"));
                }
                Ok(AuthChallenge { rand, autn, xres })
            }
            _ => Err(SigError::BadState("unexpected s6a answer")),
        }
    }

    /// S6a Update-Location exchange: registers this node as serving the
    /// subscriber and returns the subscription profile.
    pub fn update_location(&self, imsi: u64) -> Result<SubscriptionData> {
        let hop = self.next_hop();
        let req = DiameterMsg::UpdateLocationRequest { hop_id: hop, imsi, serving_node: self.node_id }.encode();
        let rsp = self.hss.handle_bytes(&req)?;
        match DiameterMsg::decode(&rsp)? {
            DiameterMsg::UpdateLocationAnswer { hop_id, result, ambr_kbps, default_qci } => {
                if hop_id != hop {
                    return Err(SigError::BadValue("s6a hop-id mismatch"));
                }
                if result != result_code::SUCCESS {
                    return Err(SigError::BadValue("s6a user unknown"));
                }
                Ok(SubscriptionData { ambr_kbps, default_qci })
            }
            _ => Err(SigError::BadState("unexpected s6a answer")),
        }
    }

    /// Gx CCR-Initial: fetch the subscriber's policy/charging rules.
    pub fn fetch_rules(&self, session_id: u32, imsi: u64) -> Result<Vec<GxRule>> {
        let req = GxMsg::CcrInitial { session_id, imsi }.encode();
        let rsp = self.pcrf.handle_bytes(&req)?;
        match GxMsg::decode(&rsp)? {
            GxMsg::CcaInitial { rules, .. } => Ok(rules),
            _ => Err(SigError::BadState("unexpected gx answer")),
        }
    }

    /// Gx CCR-Update: report usage; returns an AMBR override (0 = keep).
    pub fn report_usage(&self, session_id: u32, imsi: u64, ul_bytes: u64, dl_bytes: u64) -> Result<u32> {
        let req = GxMsg::CcrUpdate { session_id, imsi, uplink_bytes: ul_bytes, downlink_bytes: dl_bytes }.encode();
        let rsp = self.pcrf.handle_bytes(&req)?;
        match GxMsg::decode(&rsp)? {
            GxMsg::CcaUpdate { new_ambr_kbps, .. } => Ok(new_ambr_kbps),
            _ => Err(SigError::BadState("unexpected gx answer")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pepc_backend::hss::{sim_response, SubscriberProfile};

    fn proxy() -> (Proxy, Arc<Hss>, Arc<Pcrf>) {
        let hss = Arc::new(Hss::new());
        hss.provision(7, SubscriberProfile { key: Hss::key_for(7), ambr_kbps: 42_000, default_qci: 8 });
        let pcrf = Arc::new(Pcrf::with_standard_rules());
        let p = Proxy::new(Arc::clone(&hss), Arc::clone(&pcrf), 99, 40401);
        (p, hss, pcrf)
    }

    #[test]
    fn auth_info_roundtrips_through_wire_codecs() {
        let (p, _h, _) = proxy();
        let c = p.authentication_info(7).unwrap();
        assert_eq!(sim_response(Hss::key_for(7), c.rand), c.xres);
    }

    #[test]
    fn unknown_subscriber_surfaces_as_error() {
        let (p, _, _) = proxy();
        assert!(p.authentication_info(999).is_err());
        assert!(p.update_location(999).is_err());
    }

    #[test]
    fn update_location_registers_and_returns_profile() {
        let (p, hss, _) = proxy();
        let d = p.update_location(7).unwrap();
        assert_eq!(d.ambr_kbps, 42_000);
        assert_eq!(d.default_qci, 8);
        assert_eq!(hss.serving_node(7), Some(99));
    }

    #[test]
    fn rules_fetched_over_gx() {
        let (p, _, _) = proxy();
        let rules = p.fetch_rules(1, 7).unwrap();
        assert_eq!(rules.len(), 3);
    }

    #[test]
    fn usage_reports_accumulate_at_pcrf() {
        let (p, _, pcrf) = proxy();
        p.report_usage(1, 7, 100, 200).unwrap();
        p.report_usage(1, 7, 1, 2).unwrap();
        let u = pcrf.usage_for(7);
        assert_eq!(u.uplink_bytes, 101);
        assert_eq!(u.downlink_bytes, 202);
    }
}
