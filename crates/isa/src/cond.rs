//! Condition codes for the conditional jumps `JMP`/`JMPR`.
//!
//! RISC I has no separate compare instruction: any ALU operation may set the
//! four condition flags (Z, N, V, C) by asserting its `scc` bit, and a
//! following conditional jump tests a boolean combination of them. The 4-bit
//! condition is carried in the `dest` field of the jump. The idiom for a
//! compare-and-branch is therefore:
//!
//! ```text
//! sub r0, r1, r2 {scc}   ; compute r1 - r2 just for the flags (rd = r0)
//! jmp lt, target         ; branch if r1 < r2 (signed)
//! ```
//!
//! The carry convention follows the adder: for `a - b`, C = 1 iff no borrow
//! occurred (i.e. `a >= b` unsigned) — the same convention the Berkeley
//! design used (and SPARC inherited).

use crate::psw::Flags;
use std::fmt;

/// One of the sixteen jump conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Cond {
    /// Never taken (a architecturally visible no-op jump).
    Nvr = 0,
    /// Always taken (the unconditional jump).
    Alw = 1,
    /// Equal: Z.
    Eq = 2,
    /// Not equal: !Z.
    Ne = 3,
    /// Signed less than: N ^ V.
    Lt = 4,
    /// Signed greater or equal: !(N ^ V).
    Ge = 5,
    /// Signed less or equal: Z | (N ^ V).
    Le = 6,
    /// Signed greater than: !Z & !(N ^ V).
    Gt = 7,
    /// Unsigned lower: !C.
    Lo = 8,
    /// Unsigned higher or same: C.
    His = 9,
    /// Unsigned lower or same: !C | Z.
    Los = 10,
    /// Unsigned higher: C & !Z.
    Hi = 11,
    /// Plus (non-negative): !N.
    Pl = 12,
    /// Minus (negative): N.
    Mi = 13,
    /// Overflow clear: !V.
    Nv = 14,
    /// Overflow set: V.
    V = 15,
}

impl Cond {
    /// Every condition in encoding order.
    pub const ALL: &'static [Cond] = &[
        Cond::Nvr,
        Cond::Alw,
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Ge,
        Cond::Le,
        Cond::Gt,
        Cond::Lo,
        Cond::His,
        Cond::Los,
        Cond::Hi,
        Cond::Pl,
        Cond::Mi,
        Cond::Nv,
        Cond::V,
    ];

    /// Evaluates the condition against a set of flags.
    #[inline]
    pub fn eval(self, f: Flags) -> bool {
        let signed_lt = f.n ^ f.v;
        match self {
            Cond::Nvr => false,
            Cond::Alw => true,
            Cond::Eq => f.z,
            Cond::Ne => !f.z,
            Cond::Lt => signed_lt,
            Cond::Ge => !signed_lt,
            Cond::Le => f.z || signed_lt,
            Cond::Gt => !f.z && !signed_lt,
            Cond::Lo => !f.c,
            Cond::His => f.c,
            Cond::Los => !f.c || f.z,
            Cond::Hi => f.c && !f.z,
            Cond::Pl => !f.n,
            Cond::Mi => f.n,
            Cond::Nv => !f.v,
            Cond::V => f.v,
        }
    }

    /// The condition's logical negation (`eval` of the result is always the
    /// complement). Useful for branch inversion in the peephole optimizer.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Nvr => Cond::Alw,
            Cond::Alw => Cond::Nvr,
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Lo => Cond::His,
            Cond::His => Cond::Lo,
            Cond::Los => Cond::Hi,
            Cond::Hi => Cond::Los,
            Cond::Pl => Cond::Mi,
            Cond::Mi => Cond::Pl,
            Cond::Nv => Cond::V,
            Cond::V => Cond::Nv,
        }
    }

    /// Decodes the 4-bit condition field.
    pub fn from_field(n: u8) -> Option<Cond> {
        Cond::ALL.get(n as usize).copied()
    }

    /// The assembler name of the condition.
    pub fn name(self) -> &'static str {
        match self {
            Cond::Nvr => "nvr",
            Cond::Alw => "alw",
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Lo => "lo",
            Cond::His => "his",
            Cond::Los => "los",
            Cond::Hi => "hi",
            Cond::Pl => "pl",
            Cond::Mi => "mi",
            Cond::Nv => "nv",
            Cond::V => "v",
        }
    }

    /// Looks a condition up by its assembler name (case-insensitive).
    pub fn from_name(s: &str) -> Option<Cond> {
        Cond::ALL
            .iter()
            .copied()
            .find(|c| c.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_flags() -> impl Iterator<Item = Flags> {
        (0..16u8).map(|bits| Flags {
            z: bits & 1 != 0,
            n: bits & 2 != 0,
            v: bits & 4 != 0,
            c: bits & 8 != 0,
        })
    }

    #[test]
    fn negation_is_complement_everywhere() {
        for c in Cond::ALL {
            for f in all_flags() {
                assert_eq!(c.eval(f), !c.negate().eval(f), "{c} on {f:?}");
            }
        }
    }

    #[test]
    fn negation_is_involutive() {
        for c in Cond::ALL {
            assert_eq!(c.negate().negate(), *c);
        }
    }

    #[test]
    fn field_roundtrip() {
        for (i, c) in Cond::ALL.iter().enumerate() {
            assert_eq!(Cond::from_field(i as u8), Some(*c));
            assert_eq!(*c as u8, i as u8);
        }
        assert_eq!(Cond::from_field(16), None);
    }

    #[test]
    fn name_roundtrip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_name(c.name()), Some(*c));
            assert_eq!(Cond::from_name(&c.name().to_uppercase()), Some(*c));
        }
        assert_eq!(Cond::from_name("zz"), None);
    }

    /// Semantics check: drive the conditions with flags computed from real
    /// subtractions and compare against Rust's comparison operators.
    #[test]
    fn conditions_agree_with_integer_comparisons() {
        let samples: &[i32] = &[0, 1, -1, 5, -5, i32::MAX, i32::MIN, 100, -100, 7];
        for &a in samples {
            for &b in samples {
                let (diff, borrow) = (a as u32).overflowing_sub(b as u32);
                let v = (a ^ b) & (a ^ diff as i32) < 0;
                let f = Flags {
                    z: diff == 0,
                    n: (diff as i32) < 0,
                    v,
                    c: !borrow, // C = no borrow
                };
                assert_eq!(Cond::Eq.eval(f), a == b, "{a} {b}");
                assert_eq!(Cond::Ne.eval(f), a != b, "{a} {b}");
                assert_eq!(Cond::Lt.eval(f), a < b, "{a} {b}");
                assert_eq!(Cond::Ge.eval(f), a >= b, "{a} {b}");
                assert_eq!(Cond::Le.eval(f), a <= b, "{a} {b}");
                assert_eq!(Cond::Gt.eval(f), a > b, "{a} {b}");
                let (ua, ub) = (a as u32, b as u32);
                assert_eq!(Cond::Lo.eval(f), ua < ub, "{a} {b}");
                assert_eq!(Cond::His.eval(f), ua >= ub, "{a} {b}");
                assert_eq!(Cond::Los.eval(f), ua <= ub, "{a} {b}");
                assert_eq!(Cond::Hi.eval(f), ua > ub, "{a} {b}");
            }
        }
    }
}
