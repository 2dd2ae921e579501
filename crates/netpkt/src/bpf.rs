//! A small BPF-style match virtual machine.
//!
//! The paper implements the PCEF "as a match-action table, consisting of
//! BPF programs over the 5-tuple and operator specified actions" (§4.2).
//! This module provides those programs: a branching classifier over the
//! [`FiveTuple`](crate::FiveTuple) with bounded, verifiable control flow
//! (forward jumps only, like real BPF), so a malformed operator rule can
//! never hang the data plane.
//!
//! Programs are resolved when they are verified, not when they run: the
//! verifier also recognises the loop-free shapes operators actually
//! install (the four constructors below) and [`BpfProgram::run`] answers
//! those with plain compares. The interpreter remains the general case and
//! the oracle the tests hold `run` to.

use crate::error::{NetError, Result};
use crate::fivetuple::FiveTuple;

/// A field of the five-tuple a [`Insn`] can load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    SrcIp,
    DstIp,
    SrcPort,
    DstPort,
    Proto,
}

/// One instruction of a filter program.
///
/// The machine has a single accumulator loaded by `Ld`, tested by the
/// conditional jumps. Programs terminate with `Ret`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// Load a five-tuple field into the accumulator.
    Ld(Field),
    /// Bitwise-AND the accumulator with an immediate (prefix matching).
    And(u32),
    /// Jump `jt`/`jf` instructions forward when accumulator == k / != k.
    JmpEq { k: u32, jt: u8, jf: u8 },
    /// Jump `jt`/`jf` instructions forward when accumulator >= k / < k.
    JmpGe { k: u32, jt: u8, jf: u8 },
    /// Terminate, returning `verdict` (0 = no match; >0 = rule class).
    Ret(u32),
}

/// What a program computes, when verification recognised one of the
/// constructor shapes: `run` answers these without touching `insns`.
/// Operands stay `u32` as the instructions carry them, so a constant no
/// field can reach (a "protocol" above 255) misses here as it does there.
/// A prefix hit is `dst_ip & mask == prefix`; a range is `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Const(u32),
    DstPort { port: u32, verdict: u32 },
    DstPrefix { mask: u32, prefix: u32, verdict: u32 },
    ProtoPortRange { proto: u32, lo: u32, hi: u32, verdict: u32 },
    General,
}

impl Shape {
    fn of(insns: &[Insn]) -> Shape {
        use {Field::*, Insn::*};
        match *insns {
            [Ret(v)] => Shape::Const(v),
            [Ld(DstPort), JmpEq { k, jt: 0, jf: 1 }, Ret(verdict), Ret(0)] => Shape::DstPort { port: k, verdict },
            [Ld(DstIp), And(mask), JmpEq { k, jt: 0, jf: 1 }, Ret(verdict), Ret(0)] => {
                Shape::DstPrefix { mask, prefix: k, verdict }
            }
            [Ld(Proto), JmpEq { k: proto, jt: 0, jf: 4 }, Ld(DstPort), JmpGe { k: lo, jt: 0, jf: 2 }, JmpGe { k: hi, jt: 1, jf: 0 }, Ret(verdict), Ret(0)] => {
                Shape::ProtoPortRange { proto, lo, hi, verdict }
            }
            _ => Shape::General,
        }
    }
}

/// A verified filter program. One pointer wide, so the data-plane update
/// that carries a rule is no wider than the per-user updates queued beside
/// it; `shape` leads the block it points to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BpfProgram(Box<Verified>);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Verified {
    shape: Shape,
    insns: Vec<Insn>,
}

impl BpfProgram {
    /// Maximum program length accepted by the verifier.
    pub const MAX_LEN: usize = 256;

    /// Verify and wrap a program.
    ///
    /// Verification guarantees: non-empty, bounded length, every jump lands
    /// inside the program, every path ends in `Ret` (ensured by forward
    /// jumps + final instruction being `Ret`).
    pub fn new(insns: Vec<Insn>) -> Result<Self> {
        if insns.is_empty() {
            return Err(NetError::BadProgram { reason: "empty program" });
        }
        if insns.len() > Self::MAX_LEN {
            return Err(NetError::BadProgram { reason: "program too long" });
        }
        for (i, insn) in insns.iter().enumerate() {
            if let Insn::JmpEq { jt, jf, .. } | Insn::JmpGe { jt, jf, .. } = insn {
                // Target is pc + 1 + offset; both branches must stay in range.
                for off in [*jt, *jf] {
                    if i + 1 + usize::from(off) >= insns.len() {
                        return Err(NetError::BadProgram { reason: "jump out of range" });
                    }
                }
            }
        }
        if !matches!(insns.last(), Some(Insn::Ret(_))) {
            return Err(NetError::BadProgram { reason: "program must end in Ret" });
        }
        Ok(BpfProgram(Box::new(Verified { shape: Shape::of(&insns), insns })))
    }

    /// Run the program over a five-tuple; returns the `Ret` verdict.
    ///
    /// A recognised shape costs its compares; anything else is interpreted.
    #[inline]
    pub fn run(&self, ft: &FiveTuple) -> u32 {
        let hit = |cond: bool, verdict: u32| if cond { verdict } else { 0 };
        match self.0.shape {
            Shape::Const(v) => v,
            Shape::DstPort { port, verdict } => hit(u32::from(ft.dst_port) == port, verdict),
            Shape::DstPrefix { mask, prefix, verdict } => hit(ft.dst_ip & mask == prefix, verdict),
            Shape::ProtoPortRange { proto, lo, hi, verdict } => {
                let port = u32::from(ft.dst_port);
                hit(u32::from(ft.proto) == proto && lo <= port && port < hi, verdict)
            }
            Shape::General => self.interpret(ft),
        }
    }

    /// The interpreter. Execution is O(program length): only forward jumps
    /// exist, so each instruction runs at most once.
    fn interpret(&self, ft: &FiveTuple) -> u32 {
        let mut acc: u32 = 0;
        let mut pc = 0usize;
        while pc < self.0.insns.len() {
            match self.0.insns[pc] {
                Insn::Ld(f) => {
                    acc = match f {
                        Field::SrcIp => ft.src_ip,
                        Field::DstIp => ft.dst_ip,
                        Field::SrcPort => u32::from(ft.src_port),
                        Field::DstPort => u32::from(ft.dst_port),
                        Field::Proto => u32::from(ft.proto),
                    };
                    pc += 1;
                }
                Insn::And(k) => {
                    acc &= k;
                    pc += 1;
                }
                Insn::JmpEq { k, jt, jf } => {
                    pc += 1 + usize::from(if acc == k { jt } else { jf });
                }
                Insn::JmpGe { k, jt, jf } => {
                    pc += 1 + usize::from(if acc >= k { jt } else { jf });
                }
                Insn::Ret(v) => return v,
            }
        }
        // Unreachable for verified programs; defensive default: no match.
        0
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.0.insns.len()
    }

    /// True if the program has no instructions (never true post-verify).
    pub fn is_empty(&self) -> bool {
        self.0.insns.is_empty()
    }

    /// Convenience constructor: match an exact destination port.
    pub fn match_dst_port(port: u16, verdict: u32) -> Self {
        BpfProgram::new(vec![
            Insn::Ld(Field::DstPort),
            Insn::JmpEq { k: u32::from(port), jt: 0, jf: 1 },
            Insn::Ret(verdict),
            Insn::Ret(0),
        ])
        .expect("static program verifies")
    }

    /// Convenience constructor: match a destination prefix `ip/len`.
    pub fn match_dst_prefix(prefix: u32, len: u8, verdict: u32) -> Self {
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - u32::from(len)) };
        BpfProgram::new(vec![
            Insn::Ld(Field::DstIp),
            Insn::And(mask),
            Insn::JmpEq { k: prefix & mask, jt: 0, jf: 1 },
            Insn::Ret(verdict),
            Insn::Ret(0),
        ])
        .expect("static program verifies")
    }

    /// Convenience constructor: match a protocol + destination port range
    /// `[lo, hi)` — a typical operator TFT (traffic flow template).
    pub fn match_proto_port_range(proto: u8, lo: u16, hi: u16, verdict: u32) -> Self {
        BpfProgram::new(vec![
            Insn::Ld(Field::Proto),
            Insn::JmpEq { k: u32::from(proto), jt: 0, jf: 4 },
            Insn::Ld(Field::DstPort),
            Insn::JmpGe { k: u32::from(lo), jt: 0, jf: 2 },
            Insn::JmpGe { k: u32::from(hi), jt: 1, jf: 0 },
            Insn::Ret(verdict),
            Insn::Ret(0),
        ])
        .expect("static program verifies")
    }

    /// A program that classifies everything into `verdict`.
    pub fn match_all(verdict: u32) -> Self {
        BpfProgram::new(vec![Insn::Ret(verdict)]).expect("static program verifies")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(dst_port: u16, proto: u8) -> FiveTuple {
        FiveTuple { src_ip: 0x0A000001, dst_ip: 0x08080808, src_port: 40000, dst_port, proto }
    }

    /// Whether verification resolved `p` to a compare shape.
    fn is_resolved(p: &BpfProgram) -> bool {
        p.0.shape != Shape::General
    }

    #[test]
    fn match_all_always_matches() {
        assert_eq!(BpfProgram::match_all(7).run(&ft(1, 17)), 7);
    }

    #[test]
    fn dst_port_matcher() {
        let p = BpfProgram::match_dst_port(53, 3);
        assert_eq!(p.run(&ft(53, 17)), 3);
        assert_eq!(p.run(&ft(54, 17)), 0);
    }

    #[test]
    fn prefix_matcher() {
        let p = BpfProgram::match_dst_prefix(0x08080000, 16, 9);
        assert_eq!(p.run(&ft(1, 6)), 9); // 8.8.8.8 in 8.8.0.0/16
        let other = FiveTuple { dst_ip: 0x08090808, ..ft(1, 6) };
        assert_eq!(p.run(&other), 0);
    }

    #[test]
    fn zero_length_prefix_matches_everything() {
        let p = BpfProgram::match_dst_prefix(0, 0, 5);
        assert_eq!(p.run(&ft(1, 6)), 5);
    }

    #[test]
    fn port_range_matcher() {
        let p = BpfProgram::match_proto_port_range(6, 8000, 9000, 4);
        assert_eq!(p.run(&ft(8000, 6)), 4); // inclusive low
        assert_eq!(p.run(&ft(8999, 6)), 4);
        assert_eq!(p.run(&ft(9000, 6)), 0); // exclusive high
        assert_eq!(p.run(&ft(7999, 6)), 0);
        assert_eq!(p.run(&ft(8500, 17)), 0); // wrong proto
    }

    #[test]
    fn verifier_rejects_bad_programs() {
        assert!(BpfProgram::new(vec![]).is_err());
        // Doesn't end in Ret.
        assert!(BpfProgram::new(vec![Insn::Ld(Field::Proto)]).is_err());
        // Jump past the end.
        assert!(BpfProgram::new(vec![Insn::JmpEq { k: 0, jt: 200, jf: 0 }, Insn::Ret(0),]).is_err());
        // Over-long program.
        let long = vec![Insn::Ret(0); BpfProgram::MAX_LEN + 1];
        assert!(BpfProgram::new(long).is_err());
    }

    /// The five-tuples the resolution tests sweep: every combination of a
    /// few values on and around the operands the programs under test use.
    fn grid() -> Vec<FiveTuple> {
        let mut v = Vec::new();
        for proto in [0u8, 6, 17] {
            for dst_port in [0u16, 79, 80, 81, 8000, 8999, 9000, u16::MAX] {
                for dst_ip in [0u32, 0x0808_0808, 0x0809_0808, u32::MAX] {
                    v.push(FiveTuple { src_ip: 0x0A00_0001, dst_ip, src_port: 40000, dst_port, proto });
                }
            }
        }
        v
    }

    fn constructors() -> Vec<BpfProgram> {
        vec![
            BpfProgram::match_all(7),
            BpfProgram::match_dst_port(80, 3),
            BpfProgram::match_dst_prefix(0x0808_0000, 16, 9),
            BpfProgram::match_proto_port_range(6, 8000, 9000, 4),
        ]
    }

    #[test]
    fn constructors_are_resolved_at_verify_time() {
        for p in constructors() {
            assert!(is_resolved(&p), "{p:?}");
            for ft in grid() {
                assert_eq!(p.run(&ft), p.interpret(&ft), "{p:?} on {ft}");
            }
        }
        // The Gx translation's proto-only form is the range shape too.
        assert!(is_resolved(&BpfProgram::match_proto_port_range(17, 0, u16::MAX, 1)));
    }

    #[test]
    fn one_instruction_off_a_shape_falls_back_and_agrees() {
        for p in constructors() {
            for i in 0..p.len() {
                let mut insns = p.0.insns.clone();
                insns[i] = match insns[i] {
                    Insn::Ld(Field::DstPort) => Insn::Ld(Field::SrcPort),
                    Insn::Ld(_) => Insn::Ld(Field::DstPort),
                    Insn::And(k) => Insn::JmpGe { k, jt: 0, jf: 0 },
                    Insn::JmpEq { k, jt, jf } => Insn::JmpGe { k, jt, jf },
                    Insn::JmpGe { k, jt, jf } => Insn::JmpEq { k, jt, jf },
                    // A non-zero miss verdict, or a one-instruction program
                    // grown by one (still constant, no longer the shape).
                    Insn::Ret(0) => Insn::Ret(1),
                    Insn::Ret(v) if p.len() == 1 => {
                        insns.push(Insn::Ret(v));
                        Insn::Ld(Field::Proto)
                    }
                    Insn::Ret(v) => Insn::JmpEq { k: v, jt: 0, jf: 0 },
                };
                let q = BpfProgram::new(insns).unwrap();
                assert!(!is_resolved(&q), "{q:?}");
                for ft in grid() {
                    assert_eq!(q.run(&ft), q.interpret(&ft), "{q:?} on {ft}");
                }
            }
        }
    }

    mod props {
        // Not `super::*`: this module's `Result` alias would shadow the
        // one `proptest!` expands to.
        use super::is_resolved;
        use crate::bpf::{BpfProgram, Field, Insn};
        use crate::FiveTuple;
        use proptest::prelude::*;

        /// Small operand domains, so random compares hit about as often
        /// as they miss.
        fn operand() -> impl Strategy<Value = u32> {
            prop_oneof![0u32..4, Just(6u32), Just(17u32), any::<u32>()]
        }

        fn field() -> impl Strategy<Value = Field> {
            (0u8..5)
                .prop_map(|f| [Field::SrcIp, Field::DstIp, Field::SrcPort, Field::DstPort, Field::Proto][f as usize])
        }

        /// A random program the verifier accepts: random instructions,
        /// every jump offset folded into the range still ahead of it, a
        /// final `Ret`.
        fn verified_program() -> impl Strategy<Value = BpfProgram> {
            let insn = prop_oneof![
                field().prop_map(Insn::Ld),
                operand().prop_map(Insn::And),
                (operand(), any::<u8>(), any::<u8>()).prop_map(|(k, jt, jf)| Insn::JmpEq { k, jt, jf }),
                (operand(), any::<u8>(), any::<u8>()).prop_map(|(k, jt, jf)| Insn::JmpGe { k, jt, jf }),
                operand().prop_map(Insn::Ret),
            ];
            (proptest::collection::vec(insn, 0..12), operand()).prop_map(|(mut insns, last)| {
                insns.push(Insn::Ret(last));
                let n = insns.len();
                for (i, insn) in insns.iter_mut().enumerate() {
                    if let Insn::JmpEq { jt, jf, .. } | Insn::JmpGe { jt, jf, .. } = insn {
                        // A jump is never last, so `n - 1 - i >= 1`.
                        let ahead = (n - 1 - i) as u8;
                        *jt %= ahead;
                        *jf %= ahead;
                    }
                }
                BpfProgram::new(insns).expect("offsets folded in range")
            })
        }

        fn five_tuple() -> impl Strategy<Value = FiveTuple> {
            (operand(), operand(), operand(), operand(), operand()).prop_map(|(a, b, c, d, e)| FiveTuple {
                src_ip: a,
                dst_ip: b,
                src_port: c as u16,
                dst_port: d as u16,
                proto: e as u8,
            })
        }

        proptest! {
            #[test]
            fn run_is_the_interpreter(p in verified_program(), ft in five_tuple()) {
                prop_assert_eq!(p.run(&ft), p.interpret(&ft), "{:?} on {}", p, ft);
            }

            /// The same property where resolution actually happens: the
            /// constructors over arbitrary operands (inverted and empty
            /// ranges, a `/0` and a `/32`, verdict 0).
            #[test]
            fn resolved_shapes_are_the_interpreter(
                k in (operand(), operand(), operand(), 0u8..33, operand()),
                ft in five_tuple(),
            ) {
                let (a, lo, hi, len, verdict) = k;
                for p in [
                    BpfProgram::match_all(verdict),
                    BpfProgram::match_dst_port(lo as u16, verdict),
                    BpfProgram::match_dst_prefix(a, len, verdict),
                    BpfProgram::match_proto_port_range(a as u8, lo as u16, hi as u16, verdict),
                ] {
                    prop_assert!(is_resolved(&p));
                    prop_assert_eq!(p.run(&ft), p.interpret(&ft), "{:?} on {}", p, ft);
                }
            }
        }
    }

    #[test]
    fn forward_jumps_terminate() {
        // A pathological-but-legal chain of jumps still runs in O(n).
        let mut insns = Vec::new();
        for _ in 0..100 {
            insns.push(Insn::JmpEq { k: 12345, jt: 0, jf: 0 });
        }
        insns.push(Insn::Ret(1));
        let p = BpfProgram::new(insns).unwrap();
        assert_eq!(p.run(&ft(1, 6)), 1);
    }
}
