//! Pure ALU semantics: one function per datapath operation, separated from
//! the CPU so the arithmetic (including the carry/borrow and overflow
//! conventions the condition codes depend on) is unit-testable in isolation.

use risc1_isa::psw::Flags;
use risc1_isa::Opcode;

/// Result of an ALU operation: the 32-bit value and the flags it *would*
/// set (the CPU only latches them when the instruction's `scc` bit is on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AluOut {
    /// The 32-bit result.
    pub value: u32,
    /// Flags as the condition-code logic would compute them.
    pub flags: Flags,
}

#[inline]
fn add_with(a: u32, b: u32, carry_in: bool) -> AluOut {
    let (s1, c1) = a.overflowing_add(b);
    let (value, c2) = s1.overflowing_add(carry_in as u32);
    let carry = c1 || c2;
    // Signed overflow: operands agree in sign, result disagrees.
    let v = ((a ^ value) & (b ^ value)) >> 31 != 0;
    AluOut {
        value,
        flags: Flags {
            z: value == 0,
            n: (value as i32) < 0,
            v,
            c: carry,
        },
    }
}

#[inline]
fn sub_with(a: u32, b: u32, no_borrow_in: bool) -> AluOut {
    // a − b − borrow, computed as a + !b + (1 − borrow); the adder's carry
    // out is then C = "no borrow" (C = 1 ⟺ a ≥ b + borrow unsigned), the
    // convention `risc1_isa::Cond` assumes.
    let out = add_with(a, !b, no_borrow_in);
    // Signed overflow for subtraction: operands differ in sign and the
    // result's sign differs from the minuend's.
    let v = ((a ^ b) & (a ^ out.value)) >> 31 != 0;
    AluOut {
        value: out.value,
        flags: Flags { v, ..out.flags },
    }
}

#[inline]
fn logic(value: u32) -> AluOut {
    AluOut {
        value,
        flags: Flags {
            z: value == 0,
            n: (value as i32) < 0,
            v: false,
            c: false,
        },
    }
}

/// Evaluates an ALU/shift opcode on operands `a` (rs1) and `b` (s2), with
/// the current carry flag for the extended-precision variants.
///
/// Always inlined: under a plain `#[inline]` LLVM kept it out of line in
/// the executors, which then paid a call per ALU op, and a caller that
/// reads only `value` needs the inlined copy for the flag computation to
/// fold away.
///
/// # Panics
/// Panics if `op` is not an arithmetic or shift opcode.
#[inline(always)]
pub fn alu(op: Opcode, a: u32, b: u32, carry: bool) -> AluOut {
    match op {
        Opcode::Add => add_with(a, b, false),
        Opcode::Addc => add_with(a, b, carry),
        Opcode::Sub => sub_with(a, b, true),
        Opcode::Subc => sub_with(a, b, carry),
        Opcode::Subr => sub_with(b, a, true),
        Opcode::Subcr => sub_with(b, a, carry),
        Opcode::And => logic(a & b),
        Opcode::Or => logic(a | b),
        Opcode::Xor => logic(a ^ b),
        Opcode::Sll => logic(a << (b & 31)),
        Opcode::Srl => logic(a >> (b & 31)),
        Opcode::Sra => logic(((a as i32) >> (b & 31)) as u32),
        other => panic!("alu() called with non-ALU opcode {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use risc1_isa::Cond;

    #[test]
    fn add_basic_flags() {
        let r = alu(Opcode::Add, 2, 3, false);
        assert_eq!(r.value, 5);
        assert!(!r.flags.z && !r.flags.n && !r.flags.v && !r.flags.c);

        let r = alu(Opcode::Add, u32::MAX, 1, false);
        assert_eq!(r.value, 0);
        assert!(
            r.flags.z && r.flags.c && !r.flags.v,
            "unsigned wrap, not signed overflow"
        );

        let r = alu(Opcode::Add, i32::MAX as u32, 1, false);
        assert!(r.flags.v && r.flags.n, "signed overflow to negative");
    }

    #[test]
    fn sub_carry_is_no_borrow() {
        assert!(alu(Opcode::Sub, 5, 3, false).flags.c, "5-3: no borrow");
        assert!(!alu(Opcode::Sub, 3, 5, false).flags.c, "3-5: borrow");
        assert!(alu(Opcode::Sub, 3, 3, false).flags.c, "3-3: no borrow");
    }

    #[test]
    fn subc_chains_borrow() {
        // 64-bit subtraction (0x1_0000_0000 − 1) in two 32-bit halves.
        let lo = alu(Opcode::Sub, 0, 1, false);
        assert_eq!(lo.value, u32::MAX);
        let hi = alu(Opcode::Subc, 1, 0, lo.flags.c);
        assert_eq!(hi.value, 0, "borrow propagated into the high half");
    }

    #[test]
    fn addc_chains_carry() {
        // 64-bit addition (0xFFFF_FFFF + 1) in two halves.
        let lo = alu(Opcode::Add, u32::MAX, 1, false);
        let hi = alu(Opcode::Addc, 0, 0, lo.flags.c);
        assert_eq!((hi.value, lo.value), (1, 0));
    }

    #[test]
    fn subr_reverses_operands() {
        assert_eq!(alu(Opcode::Subr, 3, 10, false).value, 7);
        assert_eq!(alu(Opcode::Sub, 3, 10, false).value, (-7i32) as u32);
    }

    #[test]
    fn shifts() {
        assert_eq!(alu(Opcode::Sll, 1, 4, false).value, 16);
        assert_eq!(alu(Opcode::Srl, 0x8000_0000, 31, false).value, 1);
        assert_eq!(alu(Opcode::Sra, 0x8000_0000, 31, false).value, u32::MAX);
        // Count is taken mod 32, like the hardware barrel shifter.
        assert_eq!(alu(Opcode::Sll, 1, 32, false).value, 1);
        assert_eq!(alu(Opcode::Sll, 1, 33, false).value, 2);
    }

    #[test]
    fn logic_ops_clear_v_and_c() {
        for op in [Opcode::And, Opcode::Or, Opcode::Xor, Opcode::Sll] {
            let f = alu(op, 0xffff_ffff, 0xffff_ffff, true).flags;
            assert!(!f.v && !f.c, "{op}");
        }
    }

    #[test]
    #[should_panic(expected = "non-ALU")]
    fn rejects_non_alu_opcode() {
        let _ = alu(Opcode::Ldl, 0, 0, false);
    }

    proptest! {
        /// The sub flags must make every signed/unsigned comparison
        /// condition agree with Rust's operators — this is the contract the
        /// compiler's compare-and-branch idiom relies on.
        #[test]
        fn compare_flags_agree_with_rust(a in any::<i32>(), b in any::<i32>()) {
            let f = alu(Opcode::Sub, a as u32, b as u32, false).flags;
            prop_assert_eq!(Cond::Eq.eval(f), a == b);
            prop_assert_eq!(Cond::Lt.eval(f), a < b);
            prop_assert_eq!(Cond::Gt.eval(f), a > b);
            prop_assert_eq!(Cond::Le.eval(f), a <= b);
            prop_assert_eq!(Cond::Ge.eval(f), a >= b);
            prop_assert_eq!(Cond::Lo.eval(f), (a as u32) < (b as u32));
            prop_assert_eq!(Cond::Hi.eval(f), (a as u32) > (b as u32));
        }

        #[test]
        fn add_matches_wrapping_semantics(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(alu(Opcode::Add, a, b, false).value, a.wrapping_add(b));
            prop_assert_eq!(alu(Opcode::Sub, a, b, false).value, a.wrapping_sub(b));
        }

        #[test]
        fn subr_is_sub_flipped(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(alu(Opcode::Subr, a, b, false), alu(Opcode::Sub, b, a, false));
        }
    }
}
