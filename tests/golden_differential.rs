//! Golden-run differential test: with zero faults injected, the pipeline
//! model and the functional simulator must agree *exactly* on final
//! architectural state — every register, the whole memory image, the
//! retired-instruction count, the output stream, and the exit code. Any
//! drift here would silently bias every injection campaign's µArch-Match
//! comparison, so this is the first thing to re-check when touching
//! either model.

use tfsim::arch::FuncSim;
use tfsim::isa::{syscall, Asm, Program, Reg};
use tfsim::uarch::{Pipeline, PipelineConfig};

/// A small assembly workload exercising arithmetic, memory traffic, a
/// data-dependent branch pattern, and syscall output.
fn workload() -> Program {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R10, 0x9e3779b97f4a7c15u64);
    a.li(Reg::R1, 0x10_0000);
    a.li(Reg::R7, 2_000);
    a.li(Reg::R9, 0);
    let top = a.here_label();
    a.mulq_i(Reg::R10, 33, Reg::R10);
    a.addq_i(Reg::R10, 7, Reg::R10);
    a.srl_i(Reg::R10, 20, Reg::R4);
    a.and_i(Reg::R4, 0xf8, Reg::R5);
    a.addq(Reg::R1, Reg::R5, Reg::R5);
    a.stq(Reg::R4, Reg::R5, 0);
    a.ldq(Reg::R6, Reg::R5, 0);
    a.addq(Reg::R9, Reg::R6, Reg::R9);
    a.subq_i(Reg::R7, 1, Reg::R7);
    a.bne(Reg::R7, top);
    // Write 8 bytes of the accumulator to the output stream.
    a.li(Reg::R2, 0x10_0100);
    a.stq(Reg::R9, Reg::R2, 0);
    a.li(Reg::V0, syscall::WRITE);
    a.li(Reg::A0, 1);
    a.li(Reg::A1, 0x10_0100);
    a.li(Reg::A2, 8);
    a.callsys();
    a.li(Reg::V0, syscall::EXIT);
    a.li(Reg::A0, 0);
    a.callsys();
    Program::new("golden-diff", a).with_data(0x10_0000, vec![0u8; 0x200])
}

#[test]
fn pipeline_and_funcsim_agree_on_final_architectural_state() {
    let program = workload();

    // Functional (golden) run.
    let mut golden = FuncSim::new(&program);
    let result = golden.run(10_000_000);
    assert_eq!(result.exit_code, Some(0), "golden run must terminate cleanly");

    // Pipeline run, zero faults injected.
    let mut probe = FuncSim::new(&program);
    probe.run(10_000_000);
    let mut cpu = Pipeline::new(&program, PipelineConfig::baseline());
    cpu.set_tlbs(probe.code_pages().clone(), probe.data_pages().clone());
    let max_cycles = 10_000_000u64;
    for _ in 0..max_cycles {
        if !cpu.running() {
            break;
        }
        cpu.step();
    }

    // Termination and retired-instruction count.
    assert_eq!(cpu.halted(), Some(0), "pipeline must halt with the golden exit code");
    assert_eq!(cpu.exception(), None);
    assert_eq!(
        cpu.instret(),
        golden.instret(),
        "retired-instruction counts must match exactly"
    );

    // Every architectural register.
    let pregs = cpu.arch_regs();
    for (areg, (&p, &g)) in pregs.iter().zip(golden.state.regs().iter()).enumerate() {
        assert_eq!(p, g, "architectural register r{areg} diverged: pipeline {p:#x} vs golden {g:#x}");
    }

    // The entire memory image and the output stream.
    assert_eq!(
        cpu.mem_checksum(),
        golden.mem().checksum(),
        "memory images must be identical"
    );
    assert_eq!(cpu.output(), golden.output(), "output streams must be identical");
}

#[test]
fn differential_holds_under_protected_configuration() {
    // The fully protected pipeline adds ECC/parity state and a watchdog;
    // with no faults injected, none of it may perturb architectural
    // results.
    let program = workload();
    let mut golden = FuncSim::new(&program);
    golden.run(10_000_000);

    let mut probe = FuncSim::new(&program);
    probe.run(10_000_000);
    let mut cpu = Pipeline::new(&program, PipelineConfig::protected());
    cpu.set_tlbs(probe.code_pages().clone(), probe.data_pages().clone());
    for _ in 0..10_000_000u64 {
        if !cpu.running() {
            break;
        }
        cpu.step();
    }

    assert_eq!(cpu.halted(), Some(0));
    assert_eq!(cpu.instret(), golden.instret());
    assert_eq!(cpu.arch_regs(), *golden.state.regs());
    assert_eq!(cpu.mem_checksum(), golden.mem().checksum());
    assert_eq!(cpu.output(), golden.output());
}
