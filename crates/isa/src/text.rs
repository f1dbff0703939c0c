//! Textual assembly: parse an assembly listing into a [`Program`], and
//! disassemble instruction words back into text.
//!
//! The syntax mirrors conventional Alpha assembly with a few directives
//! and pseudo-instructions:
//!
//! ```text
//! ; comments run to end of line
//! .org 0x10000          ; set the code base (before any instruction)
//!
//! start:
//!     li    r1, 100             ; pseudo: materialize a 64-bit constant
//!     li    r2, 0
//! loop:
//!     addq  r2, r1, r2
//!     subq  r1, #1, r1          ; '#' marks an 8-bit literal operand
//!     bne   r1, loop
//!     ldq   r3, 8(r30)          ; memory operands: disp(base)
//!     mov   r2, r16             ; pseudo: register copy
//!     exit                      ; pseudo: li v0,1 + callsys
//!
//! .data 0x20000          ; start a data section
//! .quad 1, 2, 0xdeadbeef ; 64-bit little-endian words
//! .byte 1, 2, 3
//! .ascii "hello"
//! .zero 64               ; 64 zero bytes
//! ```
//!
//! ```
//! use tfsim_isa::text::parse_program;
//!
//! let p = parse_program("demo", ".org 0x1000\n li r16, 7\n exit\n").unwrap();
//! assert_eq!(p.entry, 0x1000);
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::{decode, Asm, Label, Mnemonic, Program, Reg};

/// An assembly parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

fn parse_u64(tok: &str, line: usize) -> Result<u64, ParseError> {
    let t = tok.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        t.parse::<u64>()
    }
    .map_err(|_| err(line, format!("invalid number {tok:?}")))?;
    Ok(if neg { v.wrapping_neg() } else { v })
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    let t = tok.trim().to_lowercase();
    if let Some(n) = t.strip_prefix('r').and_then(|n| n.parse::<u8>().ok()) {
        if n < 32 {
            return Ok(Reg::from_number(n));
        }
    }
    // Software names.
    for r in Reg::all() {
        if r.software_name() == t {
            return Ok(r);
        }
    }
    Err(err(line, format!("invalid register {tok:?}")))
}

/// Splits `addq r1, r2, r3` into mnemonic and operand list.
fn split_operands(rest: &str) -> Vec<String> {
    rest.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
}

/// Parses `disp(base)` memory operands.
fn parse_mem_operand(tok: &str, line: usize) -> Result<(i64, Reg), ParseError> {
    let open = tok.find('(').ok_or_else(|| err(line, format!("expected disp(base), got {tok:?}")))?;
    let close = tok
        .rfind(')')
        .ok_or_else(|| err(line, format!("missing ')' in {tok:?}")))?;
    if close < open {
        return Err(err(line, format!("expected disp(base), got {tok:?}")));
    }
    let disp_str = tok[..open].trim();
    let disp = if disp_str.is_empty() { 0 } else { parse_u64(disp_str, line)? as i64 };
    let base = parse_reg(&tok[open + 1..close], line)?;
    Ok((disp, base))
}

enum Operand {
    Register(Reg),
    Literal(u8),
}

fn parse_op_b(tok: &str, line: usize) -> Result<Operand, ParseError> {
    if let Some(lit) = tok.strip_prefix('#') {
        let v = parse_u64(lit, line)?;
        if v > 255 {
            return Err(err(line, format!("literal {v} exceeds 8 bits")));
        }
        Ok(Operand::Literal(v as u8))
    } else {
        Ok(Operand::Register(parse_reg(tok, line)?))
    }
}

const OPERATE_MNEMONICS: &[(&str, Mnemonic)] = &[
    ("addl", Mnemonic::Addl),
    ("s4addl", Mnemonic::S4addl),
    ("subl", Mnemonic::Subl),
    ("s4subl", Mnemonic::S4subl),
    ("addq", Mnemonic::Addq),
    ("s4addq", Mnemonic::S4addq),
    ("s8addq", Mnemonic::S8addq),
    ("subq", Mnemonic::Subq),
    ("s8subq", Mnemonic::S8subq),
    ("addlv", Mnemonic::Addlv),
    ("sublv", Mnemonic::Sublv),
    ("addqv", Mnemonic::Addqv),
    ("subqv", Mnemonic::Subqv),
    ("cmpeq", Mnemonic::Cmpeq),
    ("cmplt", Mnemonic::Cmplt),
    ("cmple", Mnemonic::Cmple),
    ("cmpult", Mnemonic::Cmpult),
    ("cmpule", Mnemonic::Cmpule),
    ("cmpbge", Mnemonic::Cmpbge),
    ("and", Mnemonic::And),
    ("bic", Mnemonic::Bic),
    ("bis", Mnemonic::Bis),
    ("or", Mnemonic::Bis),
    ("ornot", Mnemonic::Ornot),
    ("xor", Mnemonic::Xor),
    ("eqv", Mnemonic::Eqv),
    ("cmoveq", Mnemonic::Cmoveq),
    ("cmovne", Mnemonic::Cmovne),
    ("cmovlbs", Mnemonic::Cmovlbs),
    ("cmovlbc", Mnemonic::Cmovlbc),
    ("cmovlt", Mnemonic::Cmovlt),
    ("cmovge", Mnemonic::Cmovge),
    ("cmovle", Mnemonic::Cmovle),
    ("cmovgt", Mnemonic::Cmovgt),
    ("sll", Mnemonic::Sll),
    ("srl", Mnemonic::Srl),
    ("sra", Mnemonic::Sra),
    ("zap", Mnemonic::Zap),
    ("zapnot", Mnemonic::Zapnot),
    ("extbl", Mnemonic::Extbl),
    ("extwl", Mnemonic::Extwl),
    ("extll", Mnemonic::Extll),
    ("extql", Mnemonic::Extql),
    ("insbl", Mnemonic::Insbl),
    ("inswl", Mnemonic::Inswl),
    ("insll", Mnemonic::Insll),
    ("insql", Mnemonic::Insql),
    ("mskbl", Mnemonic::Mskbl),
    ("mskwl", Mnemonic::Mskwl),
    ("mskll", Mnemonic::Mskll),
    ("mskql", Mnemonic::Mskql),
    ("mull", Mnemonic::Mull),
    ("mulq", Mnemonic::Mulq),
    ("umulh", Mnemonic::Umulh),
    ("mullv", Mnemonic::Mullv),
    ("mulqv", Mnemonic::Mulqv),
];

const MEMORY_MNEMONICS: &[(&str, Mnemonic)] = &[
    ("lda", Mnemonic::Lda),
    ("ldah", Mnemonic::Ldah),
    ("ldbu", Mnemonic::Ldbu),
    ("ldwu", Mnemonic::Ldwu),
    ("ldl", Mnemonic::Ldl),
    ("ldq", Mnemonic::Ldq),
    ("stb", Mnemonic::Stb),
    ("stw", Mnemonic::Stw),
    ("stl", Mnemonic::Stl),
    ("stq", Mnemonic::Stq),
];

const BRANCH_MNEMONICS: &[(&str, Mnemonic)] = &[
    ("br", Mnemonic::Br),
    ("bsr", Mnemonic::Bsr),
    ("blbc", Mnemonic::Blbc),
    ("beq", Mnemonic::Beq),
    ("blt", Mnemonic::Blt),
    ("ble", Mnemonic::Ble),
    ("blbs", Mnemonic::Blbs),
    ("bne", Mnemonic::Bne),
    ("bge", Mnemonic::Bge),
    ("bgt", Mnemonic::Bgt),
];

fn lookup<T: Copy>(table: &[(&str, T)], key: &str) -> Option<T> {
    table.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

enum DataMode {
    None,
    Section { addr: u64, bytes: Vec<u8> },
}

/// Most words one source line emits (`exit code`: two `li` and a
/// `callsys`).
const MAX_WORDS_PER_LINE: u64 = 16;

/// Parses an assembly listing into a [`Program`] named `name`.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for unknown
/// mnemonics, malformed operands, duplicate or undefined labels, branches
/// out of range, misplaced directives, a misaligned code base, and code or
/// data that would not fit in memory or the address space.
pub fn parse_program(name: &str, source: &str) -> Result<Program, ParseError> {
    let mut base: Option<u64> = None;
    let mut asm: Option<Asm> = None;
    // Each label and the address it is bound to once defined, so forward
    // references resolve; every branch as (line, address, target label),
    // checked once all labels are defined.
    let mut labels: HashMap<String, (Label, Option<u64>)> = HashMap::new();
    let mut branches: Vec<(usize, u64, String)> = Vec::new();
    let mut data_sections: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut data = DataMode::None;
    let lines = source.lines().count() as u64;

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = line.strip_prefix(".org") {
            if asm.is_some() {
                return Err(err(line_no, ".org must precede all instructions"));
            }
            let b = parse_u64(rest.trim(), line_no)?;
            if b % 4 != 0 {
                return Err(err(line_no, format!("code base {b:#x} is not 4-byte aligned")));
            }
            if b.checked_add(4 * MAX_WORDS_PER_LINE * lines).is_none() {
                return Err(err(line_no, format!("code at {b:#x} runs past the address space")));
            }
            base = Some(b);
            continue;
        }
        if let Some(rest) = line.strip_prefix(".data") {
            if let DataMode::Section { addr, bytes } = std::mem::replace(&mut data, DataMode::None)
            {
                data_sections.push((addr, bytes));
            }
            data = DataMode::Section { addr: parse_u64(rest.trim(), line_no)?, bytes: Vec::new() };
            continue;
        }
        if let DataMode::Section { addr, bytes } = &mut data {
            if let Some(rest) = line.strip_prefix(".quad") {
                for tok in split_operands(rest) {
                    bytes.extend_from_slice(&parse_u64(&tok, line_no)?.to_le_bytes());
                }
            } else if let Some(rest) = line.strip_prefix(".byte") {
                for tok in split_operands(rest) {
                    bytes.push(parse_u64(&tok, line_no)? as u8);
                }
            } else if let Some(rest) = line.strip_prefix(".ascii") {
                let t = rest.trim();
                let inner = t
                    .strip_prefix('"')
                    .and_then(|t| t.strip_suffix('"'))
                    .ok_or_else(|| err(line_no, "expected a double-quoted string"))?;
                bytes.extend_from_slice(inner.as_bytes());
            } else if let Some(rest) = line.strip_prefix(".zero") {
                let n = parse_u64(rest.trim(), line_no)?;
                let n = usize::try_from(n)
                    .ok()
                    .filter(|&n| bytes.try_reserve(n).is_ok())
                    .ok_or_else(|| err(line_no, format!(".zero {n} does not fit in memory")))?;
                bytes.resize(bytes.len() + n, 0);
            } else {
                return Err(err(line_no, format!("unknown data directive {line:?}")));
            }
            if addr.checked_add(bytes.len() as u64).is_none() {
                return Err(err(line_no, "data section runs past the address space"));
            }
            continue;
        }

        let a = asm.get_or_insert_with(|| Asm::new(base.unwrap_or(0x1_0000)));

        // Labels (possibly followed by an instruction on the same line).
        let mut text = line;
        while let Some(colon) = text.find(':') {
            let (label_name, rest) = text.split_at(colon);
            let label_name = label_name.trim();
            if label_name.is_empty() || label_name.contains(char::is_whitespace) {
                break;
            }
            let (l, at) =
                labels.entry(label_name.to_string()).or_insert_with(|| (a.label(), None));
            if at.is_some() {
                return Err(err(line_no, format!("label {label_name:?} defined twice")));
            }
            *at = Some(a.here());
            a.bind(*l);
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }

        // The label a branch emitted next targets, noted for the check.
        let mut target = |a: &mut Asm, label: &str| {
            branches.push((line_no, a.here(), label.to_string()));
            labels.entry(label.to_string()).or_insert_with(|| (a.label(), None)).0
        };

        let (mn, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m.to_lowercase(), r.trim()),
            None => (text.to_lowercase(), ""),
        };
        let ops = split_operands(rest);

        // Pseudo-instructions first.
        match mn.as_str() {
            "li" => {
                if ops.len() != 2 {
                    return Err(err(line_no, "li takes: li rX, imm64"));
                }
                let r = parse_reg(&ops[0], line_no)?;
                let v = parse_u64(&ops[1], line_no)?;
                a.li(r, v);
                continue;
            }
            "mov" => {
                if ops.len() != 2 {
                    return Err(err(line_no, "mov takes: mov rSrc, rDst"));
                }
                a.mov(parse_reg(&ops[0], line_no)?, parse_reg(&ops[1], line_no)?);
                continue;
            }
            "nop" => {
                a.bis(Reg::R31, Reg::R31, Reg::R31);
                continue;
            }
            "halt" => {
                a.halt();
                continue;
            }
            "callsys" => {
                a.callsys();
                continue;
            }
            "exit" => {
                // exit [code]: set v0=1 (and optionally a0) then callsys.
                if let Some(code) = ops.first() {
                    let v = parse_u64(code, line_no)?;
                    a.li(Reg::A0, v);
                }
                a.li(Reg::V0, crate::syscall::EXIT);
                a.callsys();
                continue;
            }
            "ret" => {
                let rb = if ops.is_empty() { Reg::RA } else { parse_reg(&ops[0], line_no)? };
                a.ret(rb);
                continue;
            }
            "jmp" | "jsr" => {
                if ops.len() != 2 {
                    return Err(err(line_no, format!("{mn} takes: {mn} rLink, (rTarget)")));
                }
                let ra = parse_reg(&ops[0], line_no)?;
                let t = ops[1].trim();
                let inner = t
                    .strip_prefix('(')
                    .and_then(|t| t.strip_suffix(')'))
                    .unwrap_or(t);
                let rb = parse_reg(inner, line_no)?;
                if mn == "jmp" {
                    a.jmp(ra, rb);
                } else {
                    a.jsr(ra, rb);
                }
                continue;
            }
            _ => {}
        }

        if let Some(m) = lookup(OPERATE_MNEMONICS, &mn) {
            if ops.len() != 3 {
                return Err(err(line_no, format!("{mn} takes: {mn} rA, rB|#lit, rC")));
            }
            let ra = parse_reg(&ops[0], line_no)?;
            let rc = parse_reg(&ops[2], line_no)?;
            match parse_op_b(&ops[1], line_no)? {
                Operand::Register(rb) => a.op(m, ra, rb, rc),
                Operand::Literal(lit) => a.op_i(m, ra, lit, rc),
            }
            continue;
        }

        if let Some(m) = lookup(MEMORY_MNEMONICS, &mn) {
            if ops.len() != 2 {
                return Err(err(line_no, format!("{mn} takes: {mn} rA, disp(rB)")));
            }
            let ra = parse_reg(&ops[0], line_no)?;
            let (disp, rb) = parse_mem_operand(&ops[1], line_no)?;
            if !(-32768..=32767).contains(&disp) {
                return Err(err(line_no, format!("displacement {disp} out of range")));
            }
            a.mem(m, ra, rb, disp);
            continue;
        }

        if let Some(m) = lookup(BRANCH_MNEMONICS, &mn) {
            match m {
                Mnemonic::Br => {
                    if ops.len() != 1 {
                        return Err(err(line_no, "br takes: br label"));
                    }
                    let l = target(a, &ops[0]);
                    a.br(l);
                }
                Mnemonic::Bsr => {
                    if ops.len() != 2 {
                        return Err(err(line_no, "bsr takes: bsr rLink, label"));
                    }
                    let ra = parse_reg(&ops[0], line_no)?;
                    let l = target(a, &ops[1]);
                    a.bsr(ra, l);
                }
                _ => {
                    if ops.len() != 2 {
                        return Err(err(line_no, format!("{mn} takes: {mn} rA, label")));
                    }
                    let ra = parse_reg(&ops[0], line_no)?;
                    let l = target(a, &ops[1]);
                    match m {
                        Mnemonic::Beq => a.beq(ra, l),
                        Mnemonic::Bne => a.bne(ra, l),
                        Mnemonic::Blt => a.blt(ra, l),
                        Mnemonic::Ble => a.ble(ra, l),
                        Mnemonic::Bgt => a.bgt(ra, l),
                        Mnemonic::Bge => a.bge(ra, l),
                        Mnemonic::Blbc => a.blbc(ra, l),
                        Mnemonic::Blbs => a.blbs(ra, l),
                        _ => unreachable!("branch table"),
                    }
                }
            }
            continue;
        }

        return Err(err(line_no, format!("unknown mnemonic {mn:?}")));
    }

    if let DataMode::Section { addr, bytes } = data {
        data_sections.push((addr, bytes));
    }
    let asm = asm.ok_or_else(|| err(source.lines().count().max(1), "no instructions"))?;
    // What `Asm::finish` would otherwise panic on: an unbound label, or a
    // displacement that does not fit the branch format's 21 bits.
    for (line, pc, label) in branches {
        let at = labels[&label].1;
        let to = at.ok_or_else(|| err(line, format!("branch to undefined label {label:?}")))?;
        let disp = (pc as i64).checked_add(4).and_then(|next| (to as i64).checked_sub(next));
        if !disp.is_some_and(|d| (-(1 << 22)..(1 << 22)).contains(&d)) {
            return Err(err(line, format!("branch to {label:?} out of range")));
        }
    }

    let mut program = Program::new(name, asm);
    for (addr, bytes) in data_sections {
        program = program.with_data(addr, bytes);
    }
    Ok(program)
}

/// Disassembles a sequence of instruction words starting at `base`.
///
/// ```
/// use tfsim_isa::text::disassemble;
/// let word = (0x10u32 << 26) | (1 << 21) | (2 << 16) | (0x20 << 5) | 3; // addq
/// let text = disassemble(&[word], 0x1000);
/// assert!(text.contains("addq r1, r2, r3"));
/// ```
pub fn disassemble(words: &[u32], base: u64) -> String {
    let mut out = String::new();
    for (i, &w) in words.iter().enumerate() {
        let pc = base + 4 * i as u64;
        let insn = decode(w);
        let text = if insn.is_conditional_branch()
            || matches!(insn.mnemonic, Mnemonic::Br | Mnemonic::Bsr)
        {
            // Resolve branch targets to absolute addresses for readability.
            let m = format!("{:?}", insn.mnemonic).to_lowercase();
            format!("{m} {}, {:#x}", insn.ra, insn.branch_target(pc))
        } else {
            insn.to_string()
        };
        out.push_str(&format!("{pc:#10x}:  {w:08x}  {text}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
; sum 1..=10, exit with the total
.org 0x10000
start:
    li   r1, 10
    li   r2, 0
loop:
    addq r2, r1, r2
    subq r1, #1, r1
    bne  r1, loop
    mov  r2, a0
    li   v0, 1
    callsys

.data 0x20000
.quad 1, 2, 0xdead
.byte 65, 66
.ascii "hi"
.zero 4
"#;

    #[test]
    fn parses_and_runs_demo() {
        let p = parse_program("demo", DEMO).expect("parse");
        assert_eq!(p.entry, 0x10000);
        assert_eq!(p.sections.len(), 2);
        let data = &p.sections[1];
        assert_eq!(data.addr, 0x2_0000);
        assert_eq!(data.bytes.len(), 24 + 2 + 2 + 4);
        assert_eq!(&data.bytes[24..28], b"ABhi");
    }

    #[test]
    fn forward_references_resolve() {
        let src = ".org 0x1000\n beq r1, end\n li r9, 1\nend: halt\n";
        let p = parse_program("fwd", src).expect("parse");
        assert!(p.sections[0].bytes.len() >= 12);
    }

    #[test]
    fn software_register_names() {
        let p = parse_program("regs", "li v0, 1\n li a0, 3\n callsys\n").expect("parse");
        let w = u32::from_le_bytes(p.sections[0].bytes[0..4].try_into().unwrap());
        let d = decode(w);
        assert_eq!(d.ra, Reg::R0);
    }

    #[test]
    fn error_reporting() {
        let e = parse_program("bad", "frobnicate r1, r2\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("frobnicate"));

        let e = parse_program("bad", "li r1\n").unwrap_err();
        assert!(e.message.contains("li takes"));

        let e = parse_program("bad", "addq r1, r99, r3\n").unwrap_err();
        assert!(e.message.contains("register"));

        let e = parse_program("bad", "addq r1, #999, r3\n").unwrap_err();
        assert!(e.message.contains("8 bits"));

        let e = parse_program("bad", "x: halt\nx: halt\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("twice"), "{e}");

        let e = parse_program("bad", "br nowhere\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("undefined label"), "{e}");

        // What the assembler cannot place is refused, not a panic or an
        // abort.
        let e = parse_program("bad", ".org 0x10001\n halt\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("not 4-byte aligned"), "{e}");
        let e = parse_program("bad", ".org 0xfffffffffffffff0\n halt\n").unwrap_err();
        assert!(e.message.contains("past the address space"), "{e}");
        let e = parse_program("bad", "halt\n.data 0x20000\n.zero 0x1000000000000\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("does not fit in memory"), "{e}");
        let e = parse_program("bad", "halt\n.data 0xfffffffffffffff8\n.quad 1, 2\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("past the address space"), "{e}");
        let e = parse_program("bad", "ldq r1, 8)r2(\n").unwrap_err();
        assert!(e.message.contains("disp(base)"), "{e}");
    }

    #[test]
    fn exit_pseudo() {
        let p = parse_program("e", "exit 42\n").expect("parse");
        // li a0,42 ; li v0,1 ; callsys
        assert!(p.sections[0].bytes.len() >= 12);
    }

    #[test]
    fn memory_operands() {
        let p = parse_program("m", "ldq r1, -8(sp)\n stq r1, (r2)\n halt\n").expect("parse");
        let w0 = u32::from_le_bytes(p.sections[0].bytes[0..4].try_into().unwrap());
        let d = decode(w0);
        assert_eq!(d.mnemonic, Mnemonic::Ldq);
        assert_eq!(d.imm, -8);
        assert_eq!(d.rb, Reg::SP);
    }

    #[test]
    fn disassembly_round_trip_text() {
        let p = parse_program("demo", DEMO).expect("parse");
        let words: Vec<u32> = p.sections[0]
            .bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let text = disassemble(&words, p.entry);
        assert!(text.contains("addq"));
        assert!(text.contains("bne"));
        assert!(text.contains("call_pal 0x83"));
        // Branch targets resolved to absolute addresses.
        assert!(text.contains("0x1000"), "{text}");
    }
}
