use std::fmt;

use crate::Reg;

/// The instruction mnemonics of the implemented Alpha subset.
///
/// The subset matches the paper's processor model: integer operate,
/// integer memory, control transfer, and `CALL_PAL`. Floating point and
/// synchronizing memory operations are not implemented. `/V` variants trap
/// on signed overflow and feed the paper's `except` failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Mnemonic {
    // Memory displacement format (opcode 0x08..0x0F, 0x28..0x2D).
    Lda, Ldah,
    Ldbu, Ldwu, Ldl, Ldq,
    Stb, Stw, Stl, Stq,
    // Integer arithmetic (opcode 0x10).
    Addl, S4addl, Subl, S4subl, Addq, S4addq, S8addq, Subq, S8subq,
    Addlv, Sublv, Addqv, Subqv,
    Cmpeq, Cmplt, Cmple, Cmpult, Cmpule, Cmpbge,
    // Integer logical / conditional move (opcode 0x11).
    And, Bic, Bis, Ornot, Xor, Eqv,
    Cmoveq, Cmovne, Cmovlbs, Cmovlbc, Cmovlt, Cmovge, Cmovle, Cmovgt,
    // Shifts and byte manipulation (opcode 0x12).
    Sll, Srl, Sra,
    Zap, Zapnot,
    Extbl, Extwl, Extll, Extql,
    Insbl, Inswl, Insll, Insql,
    Mskbl, Mskwl, Mskll, Mskql,
    // Multiplies (opcode 0x13) — executed by the complex ALU.
    Mull, Mulq, Umulh, Mullv, Mulqv,
    // Unconditional control (branch format / JMP group).
    Br, Bsr,
    Jmp, Jsr, Ret,
    // Conditional branches (branch format).
    Blbc, Beq, Blt, Ble, Blbs, Bne, Bge, Bgt,
    // PALcode.
    CallPal,
    /// Any word that does not decode to an implemented instruction.
    /// Retiring one raises an OPCDEC-style exception.
    Illegal,
}

/// Alpha instruction encoding formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// `opcode ra rb disp16` — loads, stores, LDA/LDAH.
    Memory,
    /// `opcode ra disp21` — BR/BSR and conditional branches.
    Branch,
    /// `opcode ra rb/lit func rc` — integer operate.
    Operate,
    /// `opcode ra rb hint` — JMP/JSR/RET.
    MemoryJump,
    /// `opcode palfunc26` — CALL_PAL.
    Pal,
}

/// Execution resource class, mapping each instruction to the functional
/// unit that executes it in the pipeline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// Single-cycle integer operations (simple ALUs).
    SimpleAlu,
    /// Multi-cycle integer operations (the complex ALU, 2–5 cycles).
    ComplexAlu,
    /// Control transfers (the branch ALU).
    Branch,
    /// Memory loads (address generation unit + data cache).
    Load,
    /// Memory stores (address generation unit + store queue).
    Store,
    /// `CALL_PAL`: serialized, executed at retirement.
    Pal,
}

/// PAL function codes recognized by `CALL_PAL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PalFunc {
    /// Stop the machine.
    Halt,
    /// OSF/1-style system call dispatch (`callsys`).
    CallSys,
    /// Unrecognized PAL function (raises an exception when retired).
    Other(u32),
}

impl PalFunc {
    /// Decodes a 26-bit PAL function field.
    pub fn from_bits(bits: u32) -> PalFunc {
        match bits & 0x03ff_ffff {
            0x00 => PalFunc::Halt,
            0x83 => PalFunc::CallSys,
            other => PalFunc::Other(other),
        }
    }

    /// The 26-bit encoding of this PAL function.
    pub fn to_bits(self) -> u32 {
        match self {
            PalFunc::Halt => 0x00,
            PalFunc::CallSys => 0x83,
            PalFunc::Other(bits) => bits & 0x03ff_ffff,
        }
    }
}

/// A decoded instruction.
///
/// All fields are kept regardless of format; unused register fields decode
/// as `R31` so downstream consumers can treat every instruction uniformly.
/// The original 32-bit word is retained in [`Insn::raw`] (the pipeline's
/// `insn` state category stores raw words, and the parity protection
/// mechanism computes parity over them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Insn {
    /// Decoded operation.
    pub mnemonic: Mnemonic,
    /// `Ra` field (condition/data source for stores and branches).
    pub ra: Reg,
    /// `Rb` field (base register / second operand).
    pub rb: Reg,
    /// `Rc` field (operate-format destination).
    pub rc: Reg,
    /// Sign-extended displacement (memory/branch formats) or zero-extended
    /// 8-bit literal (operate format with the literal bit set).
    pub imm: i64,
    /// Whether the operate format's literal bit was set (`imm` replaces `Rb`).
    pub uses_literal: bool,
    /// PAL function for `CALL_PAL`.
    pub pal: PalFunc,
    /// The raw 32-bit instruction word this decoded from.
    pub raw: u32,
}

impl Insn {
    /// The encoding format of this instruction.
    pub fn format(&self) -> Format {
        use Mnemonic::*;
        match self.mnemonic {
            Lda | Ldah | Ldbu | Ldwu | Ldl | Ldq | Stb | Stw | Stl | Stq => Format::Memory,
            Br | Bsr | Blbc | Beq | Blt | Ble | Blbs | Bne | Bge | Bgt => Format::Branch,
            Jmp | Jsr | Ret => Format::MemoryJump,
            CallPal => Format::Pal,
            Illegal => Format::Pal, // treated as an opaque word
            _ => Format::Operate,
        }
    }

    /// The functional unit class executing this instruction.
    pub fn exec_class(&self) -> ExecClass {
        use Mnemonic::*;
        match self.mnemonic {
            Ldbu | Ldwu | Ldl | Ldq => ExecClass::Load,
            Stb | Stw | Stl | Stq => ExecClass::Store,
            Br | Bsr | Jmp | Jsr | Ret | Blbc | Beq | Blt | Ble | Blbs | Bne | Bge | Bgt => {
                ExecClass::Branch
            }
            Mull | Mulq | Umulh | Mullv | Mulqv => ExecClass::ComplexAlu,
            CallPal | Illegal => ExecClass::Pal,
            _ => ExecClass::SimpleAlu,
        }
    }

    /// Execution latency in cycles once issued to a functional unit.
    ///
    /// Simple operations take 1 cycle; the complex ALU takes 2–5 cycles
    /// depending on the operation (per the paper's Figure 2); loads take an
    /// additional cache access modeled by the memory stage.
    pub fn exec_latency(&self) -> u8 {
        use Mnemonic::*;
        match self.mnemonic {
            Mull => 3,
            Mullv => 3,
            Mulq => 4,
            Mulqv => 4,
            Umulh => 5,
            _ => 1,
        }
    }

    /// Architectural source registers, up to three.
    ///
    /// The third slot is used only by conditional moves, which read their
    /// old destination value (the Alpha 21264 splits CMOV into two µops for
    /// this reason; our scheduler carries a third source operand instead),
    /// and by stores (store data in `Ra` occupies slot 0, the base register
    /// slot 1).
    pub fn srcs(&self) -> [Option<Reg>; 3] {
        use Mnemonic::*;
        let none_zero = |r: Reg| if r.is_zero() { None } else { Some(r) };
        match self.format() {
            Format::Memory => match self.mnemonic {
                Lda | Ldah | Ldbu | Ldwu | Ldl | Ldq => [none_zero(self.rb), None, None],
                // Stores read data (Ra) and base (Rb).
                _ => [none_zero(self.ra), none_zero(self.rb), None],
            },
            Format::Branch => match self.mnemonic {
                Br | Bsr => [None, None, None],
                _ => [none_zero(self.ra), None, None],
            },
            Format::MemoryJump => [none_zero(self.rb), None, None],
            Format::Pal => [None, None, None],
            Format::Operate => {
                let a = none_zero(self.ra);
                let b = if self.uses_literal { None } else { none_zero(self.rb) };
                if self.is_cmov() {
                    [a, b, none_zero(self.rc)]
                } else {
                    [a, b, None]
                }
            }
        }
    }

    /// Architectural destination register, if any (writes to `R31` count as
    /// no destination).
    pub fn dst(&self) -> Option<Reg> {
        use Mnemonic::*;
        let some = |r: Reg| if r.is_zero() { None } else { Some(r) };
        match self.mnemonic {
            Lda | Ldah | Ldbu | Ldwu | Ldl | Ldq => some(self.ra),
            Stb | Stw | Stl | Stq => None,
            Br | Bsr => some(self.ra),
            Jmp | Jsr | Ret => some(self.ra),
            Blbc | Beq | Blt | Ble | Blbs | Bne | Bge | Bgt => None,
            CallPal | Illegal => None,
            _ => some(self.rc),
        }
    }

    /// Whether this is a conditional move (reads its old destination).
    pub fn is_cmov(&self) -> bool {
        use Mnemonic::*;
        matches!(
            self.mnemonic,
            Cmoveq | Cmovne | Cmovlbs | Cmovlbc | Cmovlt | Cmovge | Cmovle | Cmovgt
        )
    }

    /// Whether this is a conditional branch.
    pub fn is_conditional_branch(&self) -> bool {
        use Mnemonic::*;
        matches!(self.mnemonic, Blbc | Beq | Blt | Ble | Blbs | Bne | Bge | Bgt)
    }

    /// Whether this is any control transfer.
    pub fn is_control(&self) -> bool {
        self.exec_class() == ExecClass::Branch
    }

    /// Whether this instruction transfers control through a register
    /// (`JMP`/`JSR`/`RET`), i.e. its target is not computable at fetch.
    pub fn is_indirect(&self) -> bool {
        matches!(self.mnemonic, Mnemonic::Jmp | Mnemonic::Jsr | Mnemonic::Ret)
    }

    /// Whether this instruction pushes a return address (`BSR`/`JSR`).
    pub fn is_call(&self) -> bool {
        matches!(self.mnemonic, Mnemonic::Bsr | Mnemonic::Jsr)
    }

    /// Direct branch target for branch-format instructions: `PC + 4 + 4*disp`.
    pub fn branch_target(&self, pc: u64) -> u64 {
        pc.wrapping_add(4).wrapping_add((self.imm as u64).wrapping_mul(4))
    }

    /// Memory access size in bytes for loads and stores.
    pub fn access_size(&self) -> u64 {
        use Mnemonic::*;
        match self.mnemonic {
            Ldbu | Stb => 1,
            Ldwu | Stw => 2,
            Ldl | Stl => 4,
            Ldq | Stq => 8,
            _ => 0,
        }
    }

    /// Whether the instruction reads memory.
    pub fn is_load(&self) -> bool {
        self.exec_class() == ExecClass::Load
    }

    /// Whether the instruction writes memory.
    pub fn is_store(&self) -> bool {
        self.exec_class() == ExecClass::Store
    }

    /// Re-encodes the decoded instruction into its 32-bit word.
    ///
    /// For instructions produced by [`decode`](crate::decode), this is the
    /// inverse operation (`Illegal` re-encodes to the captured raw word).
    ///
    /// ```
    /// use tfsim_isa::{decode, Asm, Reg};
    /// let mut a = Asm::new(0);
    /// a.subq(Reg::R4, Reg::R5, Reg::R6);
    /// let w = a.finish_words()[0];
    /// assert_eq!(decode(w).encode(), w);
    /// ```
    pub fn encode(&self) -> u32 {
        crate::decode::encode(self)
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = format!("{:?}", self.mnemonic).to_lowercase();
        match self.format() {
            Format::Memory => write!(f, "{} {}, {}({})", m, self.ra, self.imm, self.rb),
            Format::Branch => write!(f, "{} {}, {:+}", m, self.ra, self.imm),
            Format::MemoryJump => write!(f, "{} {}, ({})", m, self.ra, self.rb),
            Format::Pal => match self.mnemonic {
                Mnemonic::CallPal => write!(f, "call_pal {:#x}", self.pal.to_bits()),
                _ => write!(f, ".illegal {:#010x}", self.raw),
            },
            Format::Operate => {
                if self.uses_literal {
                    write!(f, "{} {}, #{}, {}", m, self.ra, self.imm, self.rc)
                } else {
                    write!(f, "{} {}, {}, {}", m, self.ra, self.rb, self.rc)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;

    fn op(m: Mnemonic, ra: Reg, rb: Reg, rc: Reg) -> Insn {
        Insn {
            mnemonic: m,
            ra,
            rb,
            rc,
            imm: 0,
            uses_literal: false,
            pal: PalFunc::Halt,
            raw: 0,
        }
    }

    #[test]
    fn cmov_reads_old_destination() {
        let i = op(Mnemonic::Cmoveq, Reg::R1, Reg::R2, Reg::R3);
        assert_eq!(i.srcs(), [Some(Reg::R1), Some(Reg::R2), Some(Reg::R3)]);
        assert_eq!(i.dst(), Some(Reg::R3));
    }

    #[test]
    fn store_reads_data_and_base() {
        let i = op(Mnemonic::Stq, Reg::R1, Reg::R2, Reg::R31);
        assert_eq!(i.srcs(), [Some(Reg::R1), Some(Reg::R2), None]);
        assert_eq!(i.dst(), None);
        assert!(i.is_store());
        assert_eq!(i.access_size(), 8);
    }

    #[test]
    fn zero_register_sources_are_elided() {
        let i = op(Mnemonic::Addq, Reg::R31, Reg::R31, Reg::R1);
        assert_eq!(i.srcs(), [None, None, None]);
    }

    #[test]
    fn writes_to_r31_have_no_destination() {
        let i = op(Mnemonic::Addq, Reg::R1, Reg::R2, Reg::R31);
        assert_eq!(i.dst(), None);
    }

    #[test]
    fn branch_target_arithmetic() {
        let mut i = op(Mnemonic::Beq, Reg::R1, Reg::R31, Reg::R31);
        i.imm = -2;
        assert_eq!(i.branch_target(0x1000), 0x1000 + 4 - 8);
        i.imm = 3;
        assert_eq!(i.branch_target(0x1000), 0x1000 + 4 + 12);
    }

    #[test]
    fn exec_latencies_span_complex_alu_range() {
        assert_eq!(op(Mnemonic::Addq, Reg::R1, Reg::R2, Reg::R3).exec_latency(), 1);
        assert_eq!(op(Mnemonic::Mull, Reg::R1, Reg::R2, Reg::R3).exec_latency(), 3);
        assert_eq!(op(Mnemonic::Umulh, Reg::R1, Reg::R2, Reg::R3).exec_latency(), 5);
    }

    #[test]
    fn control_classification() {
        assert!(op(Mnemonic::Beq, Reg::R1, Reg::R31, Reg::R31).is_conditional_branch());
        assert!(op(Mnemonic::Ret, Reg::R31, Reg::R26, Reg::R31).is_indirect());
        assert!(op(Mnemonic::Jsr, Reg::R26, Reg::R27, Reg::R31).is_call());
        assert!(!op(Mnemonic::Br, Reg::R31, Reg::R31, Reg::R31).is_conditional_branch());
        assert!(op(Mnemonic::Br, Reg::R31, Reg::R31, Reg::R31).is_control());
    }

    #[test]
    fn display_formats() {
        let mut a = crate::Asm::new(0);
        a.ldq(Reg::R1, Reg::R2, 16);
        let i = decode(a.finish_words()[0]);
        assert_eq!(i.to_string(), "ldq r1, 16(r2)");
    }

    #[test]
    fn pal_func_round_trip() {
        for f in [PalFunc::Halt, PalFunc::CallSys, PalFunc::Other(0x1234)] {
            assert_eq!(PalFunc::from_bits(f.to_bits()), f);
        }
    }
}
