//! Policy and Charging Enforcement Function — paper §4.2.
//!
//! "We also implement the Policy Charging and Enforcement Function (PCEF),
//! as a match-action table, consisting of BPF programs over the 5-tuple
//! and operator specified actions."
//!
//! Rules are installed slice-wide; each user's
//! [`ControlState`](crate::state::ControlState) carries the ids of the
//! rules that apply to it (installed from the PCRF's Gx answer at attach).
//! The data plane runs the user's programs in order; the first non-zero
//! verdict selects the action.
//!
//! Everything a packet needs is resolved when a rule is installed, not
//! when it is matched: the table is indexed by rule id, and a program of
//! one of the usual shapes was reduced to its compares when it was
//! verified ([`pepc_net::bpf`]). A million users share a handful of rules,
//! so the slots a packet touches are as hot as anything in the slice.

use pepc_net::{BpfProgram, FiveTuple};
use pepc_sigproto::gx::GxRule;

/// What to do with a matched packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcefAction {
    /// QoS class the packet is mapped into.
    pub qci: u8,
    /// Rate limit for this class, kbps (0 = unlimited, AMBR still applies).
    pub rate_kbps: u32,
    /// Drop instead of forwarding (operator gating rule).
    pub gate_closed: bool,
}

impl Default for PcefAction {
    fn default() -> Self {
        PcefAction { qci: 9, rate_kbps: 0, gate_closed: false }
    }
}

/// One installed rule: a verified BPF program plus the action.
#[derive(Debug, Clone)]
struct PcefRule {
    program: BpfProgram,
    action: PcefAction,
}

/// The match-action table: slot `id` holds rule `id`.
///
/// Per slice, not per user, and grown only to the highest id installed:
/// the PCRF's three standard rules cost four slots. Worst case — every
/// `u16` id installed — is 65 536 slots of 16 B (asserted below), 1 MiB
/// per slice, plus each program's own block.
#[derive(Debug, Clone, Default)]
pub struct Pcef {
    rules: Vec<Option<PcefRule>>,
}

const _: () = assert!(std::mem::size_of::<Option<PcefRule>>() == 16);

impl Pcef {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) a rule.
    pub fn install(&mut self, id: u16, program: BpfProgram, action: PcefAction) {
        let slot = usize::from(id);
        if slot >= self.rules.len() {
            self.rules.resize_with(slot + 1, || None);
        }
        self.rules[slot] = Some(PcefRule { program, action });
    }

    /// The table id of a Gx rule, or `None` when its 32-bit `rule_id` does
    /// not fit the table's `u16` id space. Such a rule is skipped whole —
    /// not installed, not listed for the user — rather than truncated onto
    /// another rule's id.
    pub fn gx_id(rule: &GxRule) -> Option<u16> {
        u16::try_from(rule.rule_id).ok()
    }

    /// Translate a Gx rule (as the PCRF delivers it) into its program and
    /// action: proto 0 = match-all; a zero port range = any port.
    pub fn from_gx(rule: &GxRule) -> (BpfProgram, PcefAction) {
        let program = match (rule.proto, rule.dst_port_lo, rule.dst_port_hi) {
            (0, 0, 0) => BpfProgram::match_all(rule.rule_id),
            // Proto-only match: any port of that protocol.
            (proto, 0, 0) => BpfProgram::match_proto_port_range(proto, 0, u16::MAX, rule.rule_id),
            (proto, lo, hi) => BpfProgram::match_proto_port_range(proto, lo, hi, rule.rule_id),
        };
        (program, PcefAction { qci: rule.qci, rate_kbps: rule.rate_kbps, gate_closed: false })
    }

    /// Install a rule from its Gx wire form ([`Self::gx_id`],
    /// [`Self::from_gx`]).
    pub fn install_gx(&mut self, rule: &GxRule) {
        if let Some(id) = Self::gx_id(rule) {
            let (program, action) = Self::from_gx(rule);
            self.install(id, program, action);
        }
    }

    /// Remove a rule; returns true if it existed.
    pub fn uninstall(&mut self, id: u16) -> bool {
        self.rules.get_mut(usize::from(id)).and_then(Option::take).is_some()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.iter().flatten().count()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(Option::is_none)
    }

    /// Classify a packet against the given rule ids (a user's rule set),
    /// in order. Returns the first matching action, or the default
    /// (best-effort, open gate) when nothing matches. An id with no rule
    /// behind it — beyond the table, never installed, or uninstalled since
    /// the user listed it — is skipped.
    #[inline]
    pub fn classify<'a>(&self, ft: &FiveTuple, rule_ids: impl Iterator<Item = u16> + 'a) -> PcefAction {
        for id in rule_ids {
            if let Some(Some(rule)) = self.rules.get(usize::from(id)) {
                if rule.program.run(ft) != 0 {
                    return rule.action;
                }
            }
        }
        PcefAction::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(dst_port: u16, proto: u8) -> FiveTuple {
        FiveTuple { src_ip: 1, dst_ip: 2, src_port: 3, dst_port, proto }
    }

    #[test]
    fn first_match_wins_in_user_order() {
        let mut pcef = Pcef::new();
        pcef.install(1, BpfProgram::match_dst_port(80, 1), PcefAction { qci: 7, rate_kbps: 100, gate_closed: false });
        pcef.install(2, BpfProgram::match_all(2), PcefAction { qci: 9, rate_kbps: 0, gate_closed: false });
        // User lists rule 1 before rule 2.
        let a = pcef.classify(&ft(80, 6), [1u16, 2].into_iter());
        assert_eq!(a.qci, 7);
        // Non-80 traffic falls to rule 2.
        let a = pcef.classify(&ft(81, 6), [1u16, 2].into_iter());
        assert_eq!(a.qci, 9);
    }

    #[test]
    fn no_match_returns_default_open_gate() {
        let pcef = Pcef::new();
        let a = pcef.classify(&ft(80, 6), std::iter::empty());
        assert_eq!(a, PcefAction::default());
        assert!(!a.gate_closed);
    }

    #[test]
    fn missing_rule_ids_skipped() {
        let mut pcef = Pcef::new();
        pcef.install(5, BpfProgram::match_all(5), PcefAction { qci: 6, rate_kbps: 0, gate_closed: false });
        // User references rule 4 (uninstalled) then 5.
        let a = pcef.classify(&ft(1, 6), [4u16, 5].into_iter());
        assert_eq!(a.qci, 6);
    }

    #[test]
    fn gate_closed_action_propagates() {
        let mut pcef = Pcef::new();
        pcef.install(1, BpfProgram::match_dst_port(25, 1), PcefAction { qci: 9, rate_kbps: 0, gate_closed: true });
        assert!(pcef.classify(&ft(25, 6), [1u16].into_iter()).gate_closed);
        assert!(!pcef.classify(&ft(26, 6), [1u16].into_iter()).gate_closed);
    }

    #[test]
    fn gx_rule_translation() {
        let mut pcef = Pcef::new();
        // Port-range rule.
        pcef.install_gx(&GxRule {
            rule_id: 1,
            proto: 17,
            dst_port_lo: 5060,
            dst_port_hi: 5062,
            qci: 5,
            rate_kbps: 1000,
        });
        // Proto-wide rule.
        pcef.install_gx(&GxRule { rule_id: 2, proto: 6, dst_port_lo: 0, dst_port_hi: 0, qci: 8, rate_kbps: 0 });
        // Catch-all.
        pcef.install_gx(&GxRule { rule_id: 3, proto: 0, dst_port_lo: 0, dst_port_hi: 0, qci: 9, rate_kbps: 0 });

        let order = [1u16, 2, 3];
        assert_eq!(pcef.classify(&ft(5060, 17), order.into_iter()).qci, 5);
        assert_eq!(pcef.classify(&ft(5062, 17), order.into_iter()).qci, 9, "range is exclusive-high");
        assert_eq!(pcef.classify(&ft(443, 6), order.into_iter()).qci, 8);
        assert_eq!(pcef.classify(&ft(443, 17), order.into_iter()).qci, 9);
    }

    #[test]
    fn gx_rule_id_beyond_u16_is_skipped_not_truncated() {
        let mut pcef = Pcef::new();
        pcef.install_gx(&GxRule { rule_id: 1, proto: 6, dst_port_lo: 0, dst_port_hi: 0, qci: 8, rate_kbps: 0 });
        // 65 537 truncates to 1: it must neither replace rule 1 nor exist.
        let wide = GxRule { rule_id: 65_537, proto: 0, dst_port_lo: 0, dst_port_hi: 0, qci: 3, rate_kbps: 0 };
        assert_eq!(Pcef::gx_id(&wide), None);
        pcef.install_gx(&wide);
        assert_eq!(pcef.len(), 1);
        assert_eq!(pcef.classify(&ft(443, 6), [1u16].into_iter()).qci, 8);
        assert_eq!(pcef.classify(&ft(443, 17), [1u16].into_iter()), PcefAction::default());
        // The last id that fits does install.
        pcef.install_gx(&GxRule { rule_id: 65_535, ..wide });
        assert_eq!(pcef.classify(&ft(443, 17), [u16::MAX].into_iter()).qci, 3);
    }

    #[test]
    fn lookup_is_total_over_u16() {
        let all = PcefAction { qci: 6, rate_kbps: 0, gate_closed: false };
        let mut pcef = Pcef::new();
        // Empty table: every id is beyond it.
        assert_eq!(pcef.classify(&ft(1, 6), [0u16, 7, u16::MAX].into_iter()), PcefAction::default());
        assert!(!pcef.uninstall(u16::MAX));
        pcef.install(7, BpfProgram::match_all(7), all);
        // Id 0 and the holes below 7 are slots with no rule; ids above 7
        // are beyond the table.
        assert_eq!(pcef.classify(&ft(1, 6), [0u16, 3, 8, u16::MAX].into_iter()), PcefAction::default());
        assert_eq!(pcef.classify(&ft(1, 6), [0u16, u16::MAX, 7].into_iter()), all);
        // Both ends of the id space are ordinary rules.
        pcef.install(0, BpfProgram::match_all(1), PcefAction { qci: 1, ..all });
        pcef.install(u16::MAX, BpfProgram::match_all(1), PcefAction { qci: 2, ..all });
        assert_eq!(pcef.classify(&ft(1, 6), [0u16].into_iter()).qci, 1);
        assert_eq!(pcef.classify(&ft(1, 6), [u16::MAX].into_iter()).qci, 2);
        assert_eq!(pcef.len(), 3);
        // Uninstalled after a user listed it: skipped, the next id decides.
        assert!(pcef.uninstall(0));
        assert_eq!(pcef.classify(&ft(1, 6), [0u16, 7].into_iter()), all);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        #[derive(Debug, Clone)]
        enum Op {
            Install(u16, BpfProgram, PcefAction),
            Uninstall(u16),
            Classify(FiveTuple, Vec<u16>),
        }

        /// Few ids, so sequences replace, uninstall and re-list the same
        /// rules; two far ones, so the table grows and has holes.
        fn id() -> impl Strategy<Value = u16> {
            prop_oneof![0u16..6, Just(300u16), Just(4095u16)]
        }

        fn op() -> impl Strategy<Value = Op> {
            let program = prop_oneof![
                (1u32..4).prop_map(BpfProgram::match_all),
                (0u16..4).prop_map(|p| BpfProgram::match_dst_port(p, 1)),
                (0u8..3, 0u16..4, 0u16..4).prop_map(|(pr, lo, hi)| BpfProgram::match_proto_port_range(pr, lo, hi, 1)),
                Just(BpfProgram::match_all(0)),
            ];
            let action = (0u8..10, 0u32..3, any::<bool>()).prop_map(|(qci, r, gate_closed)| PcefAction {
                qci,
                rate_kbps: r * 1000,
                gate_closed,
            });
            let ft = (0u16..4, 0u8..3).prop_map(|(dst_port, proto)| ft(dst_port, proto));
            prop_oneof![
                (id(), program, action).prop_map(|(i, p, a)| Op::Install(i, p, a)),
                id().prop_map(Op::Uninstall),
                // Duplicates in a user's list are legal and likely here.
                (ft, proptest::collection::vec(id(), 0..7)).prop_map(|(f, ids)| Op::Classify(f, ids)),
            ]
        }

        proptest! {
            /// The dense table against the `HashMap` store it replaced.
            #[test]
            fn matches_hashmap_reference(ops in proptest::collection::vec(op(), 0..120)) {
                let mut pcef = Pcef::new();
                let mut model: HashMap<u16, (BpfProgram, PcefAction)> = HashMap::new();
                for op in ops {
                    match op {
                        Op::Install(id, p, a) => {
                            pcef.install(id, p.clone(), a);
                            model.insert(id, (p, a));
                        }
                        Op::Uninstall(id) => prop_assert_eq!(pcef.uninstall(id), model.remove(&id).is_some()),
                        Op::Classify(ft, ids) => {
                            let expect = ids
                                .iter()
                                .filter_map(|id| model.get(id))
                                .find(|(p, _)| p.run(&ft) != 0)
                                .map_or_else(PcefAction::default, |(_, a)| *a);
                            prop_assert_eq!(pcef.classify(&ft, ids.iter().copied()), expect);
                        }
                    }
                    prop_assert_eq!(pcef.len(), model.len());
                    prop_assert_eq!(pcef.is_empty(), model.is_empty());
                }
            }
        }
    }

    #[test]
    fn uninstall_removes() {
        let mut pcef = Pcef::new();
        pcef.install(1, BpfProgram::match_all(1), PcefAction::default());
        assert_eq!(pcef.len(), 1);
        assert!(pcef.uninstall(1));
        assert!(!pcef.uninstall(1));
        assert!(pcef.is_empty());
    }
}
