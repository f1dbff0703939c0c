//! The Section-5 snapshot ladder (`swinject::run_campaign`) against its
//! reference, one `swinject::run_trial` from reset per trial, on real
//! workloads; and the functional simulator's code- and data-page sets,
//! which the microarchitectural campaigns preload their TLBs from.
//!
//! The synthetic-program properties and the edge cases of the ladder's
//! early-reconvergence exit live next to the engine, in
//! `crates/arch/src/swinject.rs`.

use tfsim::arch::swinject::{golden_ref, run_campaign, run_trial, FaultModel, SwTally};
use tfsim::arch::{FuncSim, StepEvent};
use tfsim::check::Rng;
use tfsim::isa::{decode, ExecClass};
use tfsim::mem::PageSet;

/// The per-trial reference tally of `run_campaign(program, golden, model,
/// trials, seed)`.
fn reference(
    program: &tfsim::isa::Program,
    golden: &tfsim::arch::swinject::GoldenRef,
    model: FaultModel,
    trials: u64,
    seed: u64,
) -> SwTally {
    let mut rng = Rng::from_seed_stream(seed, model as u64);
    let mut tally = SwTally::default();
    for _ in 0..trials {
        tally.record(run_trial(program, golden, model, &mut rng));
    }
    tally
}

/// One fixed campaign per fault model on `bzip2-like`, the shortest
/// workload (about 22k instructions).
#[test]
fn ladder_equals_per_trial_reference_on_bzip2_like() {
    let program = tfsim::workloads::by_name("bzip2-like").expect("workload").build(1);
    let golden = golden_ref(&program, 10_000_000);
    for model in FaultModel::ALL {
        let seed = 42 ^ (model as u64) << 8;
        let ladder = run_campaign(&program, &golden, model, 24, seed);
        assert_eq!(ladder, reference(&program, &golden, model, 24, seed), "{}", model.label());
        assert_eq!(ladder.total(), 24);
    }
}

/// `FuncSim::code_pages` after a full run equals the set built by
/// inserting every executed instruction's bytes, on every workload.
#[test]
fn code_pages_equal_per_instruction_inserts() {
    for w in tfsim::workloads::all() {
        let program = w.build(1);
        let mut sim = FuncSim::new(&program);
        let mut expect = PageSet::new();
        for s in &program.sections {
            expect.insert_range(s.addr, s.bytes.len() as u64);
        }
        loop {
            expect.insert_range(sim.state.pc, 4);
            if !matches!(sim.step(), StepEvent::Retired(_)) {
                break;
            }
        }
        assert_eq!(sim.code_pages(), &expect, "{}", w.name);
    }
}

/// `FuncSim::data_pages` after a full run equals the set built by
/// inserting every load's and store's bytes, on every workload.
#[test]
fn data_pages_equal_per_access_inserts() {
    for w in tfsim::workloads::all() {
        let program = w.build(1);
        let mut sim = FuncSim::new(&program);
        let mut expect = PageSet::new();
        for s in &program.sections {
            expect.insert_range(s.addr, s.bytes.len() as u64);
        }
        loop {
            let insn = decode(sim.mem().read_u32(sim.state.pc));
            if matches!(insn.exec_class(), ExecClass::Load | ExecClass::Store) {
                let addr = sim.state.read_reg(insn.rb).wrapping_add(insn.imm as u64);
                expect.insert_range(addr, insn.access_size());
            }
            if !matches!(sim.step(), StepEvent::Retired(_)) {
                break;
            }
        }
        assert_eq!(sim.exit_code(), Some(0), "{}", w.name);
        assert_eq!(sim.data_pages(), &expect, "{}", w.name);
    }
}
