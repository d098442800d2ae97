//! The two-pass assembler.

use crate::parse::{as_cond, parse_line, Token};
use risc1_core::Program;
use risc1_isa::encoding::scc_allowed;
use risc1_isa::insn::{IMM13_MAX, IMM13_MIN, IMM19_MAX, IMM19_MIN};
use risc1_isa::{Category, Instruction, Opcode, Reg, Short2, INSN_BYTES};
use std::collections::HashMap;
use std::fmt;

/// An assembly failure, with the 1-based source line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// One item scheduled for pass 2.
enum Item {
    Insn { line: usize, insn: PendingInsn },
    Word(u32),
}

/// An instruction that may still contain an unresolved label.
enum PendingInsn {
    Ready(Instruction),
    /// `jmpr cond, label` / `callr link, label` — resolved in pass 2.
    Relative {
        op: Opcode,
        cond_or_link: CondOrLink,
        label: String,
    },
    /// `li` expansion (already sized; 1 or 2 instructions).
    Seq(Vec<Instruction>),
}

enum CondOrLink {
    Cond(risc1_isa::Cond),
    Link(Reg),
}

/// Assembles RISC I source text into a loadable [`Program`].
///
/// # Errors
/// Returns an [`AsmError`] naming the offending source line for syntax
/// errors, unknown mnemonics, bad operand shapes, out-of-range immediates,
/// duplicate or undefined labels, and `{scc}` on non-ALU instructions.
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    let err = |line: usize, message: String| AsmError { line, message };

    // Pass 1: parse, size, and collect labels.
    let mut items: Vec<Item> = Vec::new();
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut entry_label: Option<(usize, String)> = None;
    let mut offset: u32 = 0;

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = parse_line(raw).map_err(|e| err(lineno, e.0))?;
        if let Some(label) = line.label {
            if labels.insert(label.clone(), offset).is_some() {
                return Err(err(lineno, format!("duplicate label `{label}`")));
            }
        }
        let Some(op) = line.op else { continue };
        match op.as_str() {
            ".entry" => match line.args.as_slice() {
                [Token::Sym(s)] => entry_label = Some((lineno, s.clone())),
                _ => return Err(err(lineno, ".entry takes one label".into())),
            },
            ".word" => match line.args.as_slice() {
                [Token::Imm(v)] => {
                    items.push(Item::Word(*v as u32));
                    offset += INSN_BYTES;
                }
                _ => return Err(err(lineno, ".word takes one immediate".into())),
            },
            _ => {
                let insn = translate(lineno, &op, &line.args, line.scc, offset)?;
                let words = match &insn {
                    PendingInsn::Seq(v) => v.len() as u32,
                    _ => 1,
                };
                items.push(Item::Insn { line: lineno, insn });
                offset += words * INSN_BYTES;
            }
        }
    }

    // Pass 2: resolve labels and encode.
    let mut prog = Program {
        symbols: labels.clone(),
        ..Program::default()
    };
    let mut pos: u32 = 0;
    for item in items {
        match item {
            Item::Word(w) => {
                prog.words.push(w);
                pos += INSN_BYTES;
            }
            Item::Insn { line, insn } => match insn {
                PendingInsn::Ready(i) => {
                    prog.words.push(i.encode());
                    pos += INSN_BYTES;
                }
                PendingInsn::Seq(seq) => {
                    for i in seq {
                        prog.words.push(i.encode());
                        pos += INSN_BYTES;
                    }
                }
                PendingInsn::Relative {
                    op,
                    cond_or_link,
                    label,
                } => {
                    let target = *labels
                        .get(&label)
                        .ok_or_else(|| err(line, format!("undefined label `{label}`")))?;
                    let delta = target as i64 - pos as i64;
                    if delta < IMM19_MIN as i64 || delta > IMM19_MAX as i64 {
                        return Err(err(line, format!("branch to `{label}` out of range")));
                    }
                    let i = match cond_or_link {
                        CondOrLink::Cond(c) => Instruction::jmpr(c, delta as i32),
                        CondOrLink::Link(r) => Instruction::callr(r, delta as i32),
                    };
                    debug_assert_eq!(i.opcode, op);
                    prog.words.push(i.encode());
                    pos += INSN_BYTES;
                }
            },
        }
    }

    if let Some((lineno, label)) = entry_label {
        prog.entry_offset = *labels
            .get(&label)
            .ok_or_else(|| err(lineno, format!("undefined entry label `{label}`")))?;
    }
    Ok(prog)
}

/// Translates one mnemonic + operand list into a pending instruction.
fn translate(
    lineno: usize,
    op: &str,
    args: &[Token],
    scc: bool,
    offset: u32,
) -> Result<PendingInsn, AsmError> {
    let err = |message: String| AsmError {
        line: lineno,
        message,
    };
    let reg = |t: &Token| match t {
        Token::Reg(r) => Ok(*r),
        other => Err(err(format!("expected register, got {other:?}"))),
    };
    let s2 = |t: &Token| match t {
        Token::Reg(r) => Ok(Short2::Reg(*r)),
        Token::Imm(v) => {
            if (IMM13_MIN as i64..=IMM13_MAX as i64).contains(v) {
                Ok(Short2::imm(*v as i32).expect("checked range"))
            } else {
                Err(err(format!("immediate {v} exceeds 13 bits")))
            }
        }
        other => Err(err(format!("expected register or #imm, got {other:?}"))),
    };
    let imm19 = |t: &Token| match t {
        Token::Imm(v) if (IMM19_MIN as i64..=IMM19_MAX as i64).contains(v) => Ok(*v as i32),
        Token::Imm(v) => Err(err(format!("immediate {v} exceeds 19 bits"))),
        other => Err(err(format!("expected #imm, got {other:?}"))),
    };

    // Pseudo-instructions first.
    match op {
        "nop" => {
            if !args.is_empty() {
                return Err(err("nop takes no operands".into()));
            }
            return Ok(PendingInsn::Ready(Instruction::nop()));
        }
        "halt" => {
            if !args.is_empty() {
                return Err(err("halt takes no operands".into()));
            }
            return Ok(PendingInsn::Ready(Instruction::ret(Reg::R0, Short2::ZERO)));
        }
        "mov" => {
            if args.len() != 2 {
                return Err(err("mov takes `rd, rs`".into()));
            }
            let (d, s) = (reg(&args[0])?, reg(&args[1])?);
            return Ok(PendingInsn::Ready(Instruction::reg(
                Opcode::Add,
                d,
                s,
                Short2::ZERO,
            )));
        }
        "li" => {
            if args.len() != 2 {
                return Err(err("li takes `rd, #imm32`".into()));
            }
            let d = reg(&args[0])?;
            let v = match &args[1] {
                Token::Imm(v) if (i64::from(i32::MIN)..=u32::MAX as i64).contains(v) => *v as u32,
                other => return Err(err(format!("li needs a 32-bit immediate, got {other:?}"))),
            };
            return Ok(PendingInsn::Seq(Instruction::load_constant(d, v)));
        }
        _ => {}
    }

    let opcode =
        Opcode::from_mnemonic(op).ok_or_else(|| err(format!("unknown mnemonic `{op}`")))?;
    if scc && !scc_allowed(opcode) {
        return Err(err(format!("`{op}` cannot set condition codes")));
    }

    let insn = match opcode {
        // Three-operand short format.
        o if matches!(
            o.category(),
            Category::Arithmetic | Category::Shift | Category::Load | Category::Store
        ) =>
        {
            if args.len() != 3 {
                return Err(err(format!("`{op}` takes `rd, rs1, s2`")));
            }
            let i = Instruction::reg(o, reg(&args[0])?, reg(&args[1])?, s2(&args[2])?);
            Instruction { scc, ..i }
        }
        Opcode::Jmp => {
            if args.len() != 3 {
                return Err(err("jmp takes `cond, rs1, s2`".into()));
            }
            let c = as_cond(&args[0]).ok_or_else(|| err("bad jump condition".into()))?;
            Instruction::jmp(c, reg(&args[1])?, s2(&args[2])?)
        }
        Opcode::Jmpr => {
            if args.len() != 2 {
                return Err(err("jmpr takes `cond, label|#offset`".into()));
            }
            let c = as_cond(&args[0]).ok_or_else(|| err("bad jump condition".into()))?;
            match &args[1] {
                Token::Sym(label) => {
                    return Ok(PendingInsn::Relative {
                        op: opcode,
                        cond_or_link: CondOrLink::Cond(c),
                        label: label.clone(),
                    })
                }
                t => Instruction::jmpr(c, imm19(t)?),
            }
        }
        Opcode::Call => {
            if args.len() != 3 {
                return Err(err("call takes `link, rs1, s2`".into()));
            }
            Instruction::call(reg(&args[0])?, reg(&args[1])?, s2(&args[2])?)
        }
        Opcode::Callr => {
            if args.len() != 2 {
                return Err(err("callr takes `link, label|#offset`".into()));
            }
            let link = reg(&args[0])?;
            match &args[1] {
                Token::Sym(label) => {
                    return Ok(PendingInsn::Relative {
                        op: opcode,
                        cond_or_link: CondOrLink::Link(link),
                        label: label.clone(),
                    })
                }
                t => Instruction::callr(link, imm19(t)?),
            }
        }
        Opcode::Ret | Opcode::Reti => {
            if args.len() != 2 {
                return Err(err(format!("`{op}` takes `rs1, s2`")));
            }

            Instruction::reg(opcode, Reg::R0, reg(&args[0])?, s2(&args[1])?)
        }
        Opcode::Calli | Opcode::Gtlpc | Opcode::Getpsw => {
            if args.len() != 1 {
                return Err(err(format!("`{op}` takes `rd`")));
            }
            Instruction::reg(opcode, reg(&args[0])?, Reg::R0, Short2::ZERO)
        }
        Opcode::Putpsw => {
            if args.len() != 2 {
                return Err(err("putpsw takes `rs1, s2`".into()));
            }
            Instruction::reg(opcode, Reg::R0, reg(&args[0])?, s2(&args[1])?)
        }
        Opcode::Ldhi => {
            if args.len() != 2 {
                return Err(err("ldhi takes `rd, #imm19`".into()));
            }
            let d = reg(&args[0])?;
            match &args[1] {
                Token::Imm(v) if (0..(1i64 << 19)).contains(v) => Instruction::ldhi(d, *v as u32),
                other => return Err(err(format!("ldhi needs 19-bit payload, got {other:?}"))),
            }
        }
        _ => return Err(err(format!("`{op}` not handled"))),
    };
    let _ = offset; // reserved for future pc-relative short operands
    Ok(PendingInsn::Ready(insn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use risc1_core::{Cpu, SimConfig};
    use risc1_isa::Cond;

    #[test]
    fn assembles_every_mnemonic_shape() {
        let src = "
            start:  add   r16, r26, #40 {scc}
                    sub   r17, r16, r17
                    sll   r18, r16, #2
                    ldl   r19, r16, #0
                    stb   r19, r16, #3
                    jmp   ne, r19, #0
                    nop
                    jmpr  alw, start
                    nop
                    call  r25, r19, #0
                    nop
                    callr r25, start
                    nop
                    ret   r25, #8
                    nop
                    calli r16
                    reti  r25, #8
                    nop
                    ldhi  r20, #0x7ffff
                    gtlpc r21
                    getpsw r22
                    putpsw r22, #0
                    halt
                    mov   r23, r16
                    li    r24, #0x12345678
                    .word 0xdeadbeef
        ";
        let prog = assemble(src).expect("assembles");
        assert_eq!(prog.symbols["start"], 0);
        // li expands to 2 words; .word is one raw word.
        assert_eq!(prog.words.last().copied(), Some(0xdead_beef));
    }

    #[test]
    fn label_arithmetic_forward_and_back() {
        let src = "
                jmpr alw, fwd   ; offset +12
                nop
            back: nop
            fwd:  jmpr alw, back ; offset -4
                nop
        ";
        let prog = assemble(src).unwrap();
        let first = Instruction::decode(prog.words[0]).unwrap();
        assert_eq!(first, Instruction::jmpr(Cond::Alw, 12));
        let fourth = Instruction::decode(prog.words[3]).unwrap();
        assert_eq!(fourth, Instruction::jmpr(Cond::Alw, -4));
    }

    #[test]
    fn entry_directive_sets_offset() {
        let src = "
            .entry main
            helper: nop
            main:   halt
        ";
        let prog = assemble(src).unwrap();
        assert_eq!(prog.entry_offset, 4);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus r1, r2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = assemble("add r16, r0, #99999").unwrap_err();
        assert!(e.message.contains("13 bits"));

        let e = assemble("jmpr alw, nowhere\n").unwrap_err();
        assert!(e.message.contains("undefined label"));

        let e = assemble("x: nop\nx: nop\n").unwrap_err();
        assert!(e.message.contains("duplicate"));

        let e = assemble("ldl r1, r2, #0 {scc}\n").unwrap_err();
        assert!(e.message.contains("condition codes"));
    }

    #[test]
    fn assembled_program_runs_correctly() {
        // Triangular numbers via a loop with a useful delay slot.
        let src = "
                add   r16, r0, #0        ; acc
                add   r17, r26, #0       ; i := arg
            loop: sub r0, r17, #0 {scc}
                jmpr  eq, done
                nop
                add   r16, r16, r17
                jmpr  alw, loop
                sub   r17, r17, #1       ; delay slot decrements i
            done: add r26, r16, #0
                halt
                nop
        ";
        let prog = assemble(src).unwrap();
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&prog).unwrap();
        cpu.set_args(&[10]);
        cpu.run().unwrap();
        assert_eq!(cpu.result(), 55);
        let stats = cpu.stats();
        assert!(
            stats.delay_slot_fill_rate().unwrap() > 0.0,
            "slots were filled"
        );
    }

    #[test]
    fn li_small_constant_is_one_word() {
        let p1 = assemble("li r16, #5\nhalt\n").unwrap();
        let p2 = assemble("li r16, #0x123456\nhalt\n").unwrap();
        assert_eq!(p1.words.len(), 2);
        assert_eq!(p2.words.len(), 3);
    }
}
