//! Deterministic, seed-driven fault injection.
//!
//! The injector perturbs a running [`Cpu`] from the *outside*: it never
//! reaches into the step function, it only uses architectural surfaces —
//! memory bit flips, [`Cpu::raise_interrupt`], [`Cpu::inject_probe`],
//! [`Cpu::set_fuel_limit`]. Everything is driven by an in-repo
//! xorshift-style PRNG, so **the same seed always produces the same
//! injection schedule** (and, the CPU being deterministic, the same trap
//! counts and final state).
//!
//! The injector rolls one die per step and, at the configured rate,
//! perturbs the machine before that step with one event chosen among the
//! enabled modes. Its two halves let a run loop batch the steps in
//! between: [`FaultInjector::quiet_steps`] rolls the dice ahead (a roll
//! reads no machine state), and [`FaultInjector::draw`] picks the event of
//! the step whose die came up. [`InjectKind::apply`] is the one place an
//! event — drawn here or read back from a journal — touches the machine.
//!
//! [`install_recovery_handlers`] sets up the software half of the story: a
//! block of `reti`-stub trap handlers that turn each vectorable fault into
//! either *re-execute* or *skip-and-continue*, plus an interrupt handler
//! that makes spurious interrupts fully transparent.

use crate::cpu::Cpu;
use crate::mem::MemError;
use crate::trap::TrapKind;
use risc1_isa::{Instruction, Reg, Short2};
use std::fmt;

/// Denominator of the injection rate: a rate of `n` means an expected `n`
/// perturbations per [`RATE_DENOM`] instruction steps.
pub const RATE_DENOM: u32 = 10_000;

/// Default address of the recovery-stub block installed by
/// [`install_recovery_handlers`] — below the default code base, in memory
/// no program image touches.
pub const RECOVERY_STUB_BASE: u32 = 0x100;

/// An xorshift64-based PRNG (xorshift64* output scrambling, splitmix-style
/// seeding) — small, fast, fully deterministic, no dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// A generator seeded from `seed` (any value, including 0, is fine:
    /// the seed is scrambled into a non-zero state).
    pub fn new(seed: u64) -> XorShift64 {
        let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        s = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        s ^= s >> 31;
        XorShift64 {
            state: if s == 0 { 0x9e37_79b9_7f4a_7c15 } else { s },
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A uniform value in `0..n` (0 when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// True with probability `num / denom`.
    pub fn chance(&mut self, num: u32, denom: u32) -> bool {
        self.below(u64::from(denom.max(1))) < u64::from(num)
    }
}

/// Which perturbation modes the injector may apply: one of three named
/// sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectModes {
    /// Every mode: bit flips anywhere in memory, spurious interrupts,
    /// forced decode and misalignment traps, a tightened fuel limit, and
    /// bit flips inside the window-save-stack region.
    All,
    /// Only the perturbations that are *transparent* under the recovery
    /// handlers of [`install_recovery_handlers`]: spurious interrupts and
    /// misalignment probes. A run injected with these and recovered must
    /// reproduce the uninjected result bit for bit.
    Transparent,
    /// No mode (the injector becomes a no-op).
    None,
}

impl InjectModes {
    /// [`InjectModes::All`].
    pub const fn all() -> InjectModes {
        InjectModes::All
    }

    /// [`InjectModes::Transparent`].
    pub const fn transparent() -> InjectModes {
        InjectModes::Transparent
    }

    /// [`InjectModes::None`].
    pub const fn none() -> InjectModes {
        InjectModes::None
    }

    /// The modes of the set in the fixed order the injector draws from,
    /// so a seed picks the same mode in every build.
    fn tags(self) -> &'static [ModeTag] {
        match self {
            InjectModes::All => &[
                ModeTag::BitFlip,
                ModeTag::SpuriousInterrupt,
                ModeTag::DecodeProbe,
                ModeTag::MisalignProbe,
                ModeTag::FuelJitter,
                ModeTag::WstackCorruption,
            ],
            InjectModes::Transparent => &[ModeTag::SpuriousInterrupt, ModeTag::MisalignProbe],
            InjectModes::None => &[],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModeTag {
    BitFlip,
    SpuriousInterrupt,
    DecodeProbe,
    MisalignProbe,
    FuelJitter,
    WstackCorruption,
}

/// Full injection campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectConfig {
    /// PRNG seed — the campaign's identity. Same seed, same schedule.
    pub seed: u64,
    /// Expected perturbations per [`RATE_DENOM`] instruction steps.
    pub rate: u32,
    /// Which perturbations may be applied.
    pub modes: InjectModes,
}

impl InjectConfig {
    /// A campaign with the given seed, a moderate default rate and all
    /// modes enabled.
    pub fn with_seed(seed: u64) -> InjectConfig {
        InjectConfig {
            seed,
            rate: 20,
            modes: InjectModes::all(),
        }
    }
}

/// One applied perturbation, as recorded in the injection log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectKind {
    /// A bit flip at `addr`, bit `bit`.
    BitFlip {
        /// Byte address of the flip.
        addr: u32,
        /// Bit index (0–7).
        bit: u8,
    },
    /// An external interrupt was posted.
    SpuriousInterrupt,
    /// A forced decode trap was queued.
    DecodeProbe,
    /// A forced misalignment trap was queued.
    MisalignProbe,
    /// The fuel limit was tightened to `new_limit`.
    FuelJitter {
        /// The new fuel limit.
        new_limit: u64,
    },
    /// A bit flip inside the window-save-stack region.
    WstackCorruption {
        /// Byte address of the flip.
        addr: u32,
        /// Bit index (0–7).
        bit: u8,
    },
}

impl fmt::Display for InjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InjectKind::BitFlip { addr, bit } => write!(f, "bit-flip {addr:#010x}.{bit}"),
            InjectKind::SpuriousInterrupt => write!(f, "spurious-interrupt"),
            InjectKind::DecodeProbe => write!(f, "decode-probe"),
            InjectKind::MisalignProbe => write!(f, "misalign-probe"),
            InjectKind::FuelJitter { new_limit } => write!(f, "fuel-jitter limit={new_limit}"),
            InjectKind::WstackCorruption { addr, bit } => {
                write!(f, "wstack-corruption {addr:#010x}.{bit}")
            }
        }
    }
}

impl InjectKind {
    /// Perturbs `cpu` with this event, exactly as the injector first did:
    /// the one function through which drawn and replayed events reach the
    /// machine.
    pub fn apply(self, cpu: &mut Cpu) {
        match self {
            InjectKind::BitFlip { addr, bit } | InjectKind::WstackCorruption { addr, bit } => {
                let _ = cpu.mem.flip_bit(addr, bit);
            }
            InjectKind::SpuriousInterrupt => cpu.raise_interrupt(),
            InjectKind::DecodeProbe => cpu.inject_probe(TrapKind::Decode),
            InjectKind::MisalignProbe => cpu.inject_probe(TrapKind::Misaligned),
            InjectKind::FuelJitter { new_limit } => cpu.set_fuel_limit(new_limit),
        }
    }
}

/// One entry of the deterministic injection schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectEvent {
    /// Instructions retired when the perturbation was applied.
    pub at_instruction: u64,
    /// What was applied.
    pub kind: InjectKind,
}

impl fmt::Display for InjectEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:<10} {}", self.at_instruction, self.kind)
    }
}

/// The seed-driven fault injector: one die per step, rolled ahead with
/// [`FaultInjector::quiet_steps`]; the event of a step whose die came up
/// comes from [`FaultInjector::draw`] and goes in with
/// [`InjectKind::apply`] before that step runs.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: InjectConfig,
    rng: XorShift64,
    held: u64,
}

impl FaultInjector {
    /// An injector for the given campaign.
    pub fn new(cfg: InjectConfig) -> FaultInjector {
        FaultInjector {
            rng: XorShift64::new(cfg.seed),
            cfg,
            held: 0,
        }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &InjectConfig {
        &self.cfg
    }

    /// Rolls no die for the next `steps` steps: they are quiet (a
    /// supervisor's backoff after a rollback).
    pub fn hold(&mut self, steps: u64) {
        self.held = steps;
    }

    /// Rolls the dice of up to `max` upcoming steps, stopping at the first
    /// that comes up, and returns how many steps came up quiet before it —
    /// `max` when none did. The rolls read no machine state, so the quiet
    /// steps can run as one batch; when fewer than `max` come back, the
    /// step right after them is due its [`FaultInjector::draw`].
    pub fn quiet_steps(&mut self, max: u64) -> u64 {
        let held = self.held.min(max);
        self.held -= held;
        let mut quiet = held;
        while quiet < max && !self.rng.chance(self.cfg.rate, RATE_DENOM) {
            quiet += 1;
        }
        quiet
    }

    /// Draws the event of a step whose die came up: one perturbation
    /// chosen uniformly among the enabled modes, sized against `cpu` as it
    /// stands before that step. `None` when no mode is enabled or the
    /// chosen one has nothing to act on (an empty window-save region).
    pub fn draw(&mut self, cpu: &Cpu) -> Option<InjectKind> {
        let tags = self.cfg.modes.tags();
        if tags.is_empty() {
            return None;
        }
        let tag = tags[self.rng.below(tags.len() as u64) as usize];
        Some(match tag {
            ModeTag::BitFlip => {
                let addr = self.rng.below(cpu.mem.size() as u64) as u32;
                let bit = (self.rng.next_u64() & 7) as u8;
                InjectKind::BitFlip { addr, bit }
            }
            ModeTag::SpuriousInterrupt => InjectKind::SpuriousInterrupt,
            ModeTag::DecodeProbe => InjectKind::DecodeProbe,
            ModeTag::MisalignProbe => InjectKind::MisalignProbe,
            ModeTag::FuelJitter => {
                let spent = cpu.stats().instructions;
                let remaining = cpu.fuel_limit().saturating_sub(spent);
                let cut = self.rng.below(remaining / 2 + 1);
                InjectKind::FuelJitter {
                    new_limit: cpu.fuel_limit() - cut,
                }
            }
            ModeTag::WstackCorruption => {
                let cfg = cpu.config();
                let (lo, hi) = (cfg.stack_top, cfg.window_stack_top);
                let len = u64::from(hi.saturating_sub(lo));
                if len == 0 {
                    return None;
                }
                let addr = lo + self.rng.below(len) as u32;
                let bit = (self.rng.next_u64() & 7) as u8;
                InjectKind::WstackCorruption { addr, bit }
            }
        })
    }
}

/// Installs the standard software recovery story on a CPU: one `reti`
/// stub per trap cause at `base + index · 16`, plus an interrupt handler
/// stub after them, and wires the trap table and interrupt vector to
/// them.
///
/// Per-cause recovery policy (the `s2` of the stub's `reti r25, s2`):
///
/// | cause       | policy      | rationale                                  |
/// |-------------|-------------|--------------------------------------------|
/// | `ifetch`    | re-execute  | nothing to skip *to*; loops burn fuel       |
/// | `daccess`   | skip (+4)   | drop the faulting load/store, continue      |
/// | `misalign`  | re-execute  | transparent for injected probes             |
/// | `decode`    | skip (+4)   | an undecodable word cannot be re-executed   |
/// | `xfer-slot` | skip (+4)   | run the second transfer outside the slot    |
/// | `wstack`    | skip (+4)   | drop the call, let the recursion unwind     |
///
/// A handler loop (e.g. re-executing a fetch that still faults) is bounded
/// by fuel: each pass retires the stub's two instructions, so the run ends
/// in a structured [`crate::ExecError::OutOfFuel`], never a hang.
///
/// # Errors
/// A memory fault if the stub block does not fit at `base`.
pub fn install_recovery_handlers(cpu: &mut Cpu, base: u32) -> Result<(), MemError> {
    let resume = Short2::imm(0).expect("0 fits");
    let skip = Short2::imm(4).expect("4 fits");
    for kind in TrapKind::ALL {
        let s2 = match kind {
            TrapKind::InstructionAccess | TrapKind::Misaligned => resume,
            TrapKind::DataAccess
            | TrapKind::Decode
            | TrapKind::TransferInDelaySlot
            | TrapKind::WindowStackExhausted => skip,
        };
        let addr = base + kind.index() as u32 * crate::cpu::TRAP_VECTOR_STRIDE;
        write_stub(cpu, addr, s2)?;
        cpu.set_trap_handler(kind, addr);
    }
    let int_addr = base + TrapKind::COUNT as u32 * crate::cpu::TRAP_VECTOR_STRIDE;
    write_stub(cpu, int_addr, resume)?;
    cpu.set_interrupt_handler(int_addr);
    Ok(())
}

fn write_stub(cpu: &mut Cpu, addr: u32, s2: Short2) -> Result<(), MemError> {
    let stub = [Instruction::reti(Reg::R25, s2), Instruction::nop()];
    for (i, insn) in stub.iter().enumerate() {
        cpu.mem
            .load_image(addr + 4 * i as u32, &insn.encode().to_le_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    #[test]
    fn prng_is_deterministic_and_seed_sensitive() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        let mut c = XorShift64::new(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        // Zero seed works too.
        assert_ne!(XorShift64::new(0).next_u64(), 0);
    }

    #[test]
    fn below_is_in_range() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn dice_come_up_at_the_rate_and_hold_keeps_them_quiet() {
        let cpu = Cpu::new(SimConfig::default());
        let mut every = FaultInjector::new(InjectConfig {
            seed: 1,
            rate: RATE_DENOM, // every die comes up
            modes: InjectModes::all(),
        });
        for _ in 0..50 {
            assert_eq!(every.quiet_steps(10), 0);
            assert!(every.draw(&cpu).is_some());
        }
        every.hold(3);
        assert_eq!(every.quiet_steps(2), 2, "held steps roll no die");
        assert_eq!(every.quiet_steps(10), 1, "the hold runs out mid-batch");
        let mut never = FaultInjector::new(InjectConfig {
            rate: 0,
            ..InjectConfig::with_seed(1)
        });
        assert_eq!(never.quiet_steps(1_000), 1_000);
        let mut none = FaultInjector::new(InjectConfig {
            rate: RATE_DENOM,
            modes: InjectModes::none(),
            ..InjectConfig::with_seed(1)
        });
        assert_eq!(none.quiet_steps(10), 0);
        assert_eq!(none.draw(&cpu), None, "no mode enabled, nothing to apply");
    }

    /// The kinds seed 9 draws from each mode set, one letter per event,
    /// pinned: the order a set lists its modes in, and the dice each kind
    /// consumes, are part of every recorded schedule.
    #[test]
    fn each_mode_set_draws_its_pinned_schedule() {
        let cpu = Cpu::new(SimConfig::default());
        for (modes, want) in [
            (InjectModes::All, "DWWDIIMDWFDIDMDDDBFIFMFIIMFWFMDD"),
            (InjectModes::Transparent, "IMIMMIMIMMMIMMMIIIMIMIIIIMMIMMIM"),
            (InjectModes::None, "--------------------------------"),
        ] {
            let mut injector = FaultInjector::new(InjectConfig {
                seed: 9,
                rate: RATE_DENOM,
                modes,
            });
            let got: String = (0..want.len())
                .map(|_| match injector.draw(&cpu) {
                    None => '-',
                    Some(InjectKind::BitFlip { .. }) => 'B',
                    Some(InjectKind::SpuriousInterrupt) => 'I',
                    Some(InjectKind::DecodeProbe) => 'D',
                    Some(InjectKind::MisalignProbe) => 'M',
                    Some(InjectKind::FuelJitter { .. }) => 'F',
                    Some(InjectKind::WstackCorruption { .. }) => 'W',
                })
                .collect();
            assert_eq!(got, want, "{modes:?}");
        }
    }

    #[test]
    fn recovery_handlers_cover_every_cause() {
        let mut cpu = Cpu::new(SimConfig::default());
        install_recovery_handlers(&mut cpu, RECOVERY_STUB_BASE).unwrap();
        for kind in TrapKind::ALL {
            assert!(cpu.trap_handler(kind).is_some(), "{kind}");
        }
        // The stubs decode as reti instructions.
        for kind in TrapKind::ALL {
            let addr = cpu.trap_handler(kind).unwrap();
            let word = cpu.mem.peek_u32(addr).unwrap();
            let insn = Instruction::decode(word).unwrap();
            assert_eq!(insn.opcode, risc1_isa::Opcode::Reti);
        }
    }
}
