//! Property-based tests (on the in-tree `tfsim-check` harness) for the
//! core data structures and invariants: decoder totality and
//! round-tripping, shared ALU semantics, ECC correction, memory
//! consistency, free-list conservation, and constant materialization.
//!
//! A failing property prints its `(seed, case)` pair and the shrunk
//! counterexample; rerun with `TFSIM_PROP_SEED=<seed>` to reproduce.

use tfsim::check::prop::{any_u32, any_u64, ints, select, vecs};
use tfsim_check::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_check};

use tfsim::bitstate::Category;
use tfsim::isa::{alu, decode, Asm, Mnemonic, Program, Reg};
use tfsim::mem::{PageSet, SparseMemory, PAGE_SIZE};
use tfsim::protect::{parity32, pointer_code, ptr7_check, ptr7_fix, regfile_code, Decoded, Hamming};
use tfsim::uarch::rename::FreeList;

/// Shared body of the `alu_identities` property, so the ported
/// regression case and the generated cases run exactly the same checks.
fn check_alu_identities(a: u64, b: u64, c: u64) -> Result<(), String> {
    prop_assert_eq!(
        alu::operate(Mnemonic::Addq, a, b, c).unwrap(),
        alu::operate(Mnemonic::Addq, b, a, c).unwrap()
    );
    prop_assert_eq!(alu::operate(Mnemonic::Xor, a, a, c).unwrap(), 0);
    prop_assert_eq!(alu::operate(Mnemonic::Bis, a, 0, c).unwrap(), a);
    prop_assert_eq!(alu::operate(Mnemonic::And, a, u64::MAX, c).unwrap(), a);
    prop_assert_eq!(alu::operate(Mnemonic::Subq, a, a, c).unwrap(), 0);
    // Scaled adds decompose.
    prop_assert_eq!(
        alu::operate(Mnemonic::S8addq, a, b, c).unwrap(),
        a.wrapping_mul(8).wrapping_add(b)
    );
    // Comparison complement: a < b  iff  !(b <= a).
    let lt = alu::operate(Mnemonic::Cmplt, a, b, 0).unwrap();
    let le_rev = alu::operate(Mnemonic::Cmple, b, a, 0).unwrap();
    prop_assert_eq!(lt == 1, le_rev == 0);
    // Branch-condition complements.
    prop_assert_ne!(alu::branch_taken(Mnemonic::Beq, a), alu::branch_taken(Mnemonic::Bne, a));
    prop_assert_ne!(alu::branch_taken(Mnemonic::Blt, a), alu::branch_taken(Mnemonic::Bge, a));
    prop_assert_ne!(alu::branch_taken(Mnemonic::Blbc, a), alu::branch_taken(Mnemonic::Blbs, a));
    Ok(())
}

/// Shared body of the `cmov_selects` property (see
/// `check_alu_identities` for why it is factored out).
fn check_cmov_selects(a: u64, b: u64, c: u64) -> Result<(), String> {
    for m in [
        Mnemonic::Cmoveq,
        Mnemonic::Cmovne,
        Mnemonic::Cmovlt,
        Mnemonic::Cmovge,
        Mnemonic::Cmovle,
        Mnemonic::Cmovgt,
        Mnemonic::Cmovlbs,
        Mnemonic::Cmovlbc,
    ] {
        let r = alu::operate(m, a, b, c).unwrap();
        prop_assert!(r == b || r == c, "{m:?}: {r} is neither {b} nor {c}");
    }
    Ok(())
}

/// Ported proptest regression (`tests/proptest_invariants.proptest-regressions`,
/// entry `093a87…`, "shrinks to a = 0, b = 1, c = 0"): the shrunk ALU
/// counterexample from early development, kept as an explicit case now
/// that the seed file format is gone.
#[test]
fn regression_alu_identities_a0_b1_c0() {
    check_alu_identities(0, 1, 0).unwrap();
}

/// Second ported regression entry: the same shrunk input run through the
/// CMOV property, which drew from the identical `(a, b, c)` generator.
#[test]
fn regression_cmov_selects_a0_b1_c0() {
    check_cmov_selects(0, 1, 0).unwrap();
}

prop_check! {
    /// The decoder is total: every 32-bit word decodes without panicking,
    /// and re-encoding the decoded form is a fixed point of decoding.
    fn decoder_total_and_idempotent(w in any_u32()) {
        let d1 = decode(w);
        let w2 = d1.encode();
        let d2 = decode(w2);
        prop_assert_eq!(d1.mnemonic, d2.mnemonic);
        prop_assert_eq!(d1.ra, d2.ra);
        prop_assert_eq!(d1.uses_literal, d2.uses_literal);
        if d1.mnemonic != Mnemonic::Illegal {
            prop_assert_eq!(d1.imm, d2.imm);
            prop_assert_eq!(d2.encode(), w2, "encode must be stable");
        }
        // Metadata accessors never panic and stay in range.
        let _ = d1.exec_class();
        prop_assert!(d1.exec_latency() >= 1 && d1.exec_latency() <= 5);
        let srcs = d1.srcs();
        prop_assert!(srcs.iter().flatten().all(|r| !r.is_zero()));
    }

    /// Arithmetic identities of the shared ALU semantics.
    fn alu_identities(a in any_u64(), b in any_u64(), c in any_u64()) {
        check_alu_identities(a, b, c)?;
    }

    /// CMOV keeps exactly one of the two candidate values.
    fn cmov_selects(a in any_u64(), b in any_u64(), c in any_u64()) {
        check_cmov_selects(a, b, c)?;
    }

    /// SECDED corrects any single-bit data error for arbitrary widths.
    fn hamming_corrects_single_flips(width in ints(2u32..65), data in any_u64(), bit in ints(0u32..64)) {
        let bit = bit % width;
        let data = (data as u128) & ((1u128 << width) - 1);
        let code = Hamming::new(width, true);
        let check = code.encode(data);
        prop_assert_eq!(code.decode(data, check), Decoded::Clean);
        let corrupted = data ^ (1u128 << bit);
        prop_assert_eq!(code.decode(corrupted, check), Decoded::CorrectedData(data));
    }

    /// SECDED detects (never miscorrects) any double-bit data error.
    fn hamming_detects_double_flips(data in any_u64(), b1 in ints(0u32..65), b2 in ints(0u32..65)) {
        prop_assume!(b1 != b2);
        let data = (data as u128) | (((data >> 1) as u128 & 1) << 64);
        let code = regfile_code();
        let check = code.encode(data);
        let corrupted = data ^ (1u128 << b1) ^ (1u128 << b2);
        prop_assert_eq!(code.decode(corrupted, check), Decoded::Uncorrectable);
    }

    /// The pointer-ECC lookup tables agree with the codec everywhere.
    fn ptr_tables_agree(data in ints(0u64..128), check in ints(0u64..16)) {
        prop_assert_eq!(ptr7_check(data), pointer_code().encode(data as u128) as u64);
        let fixed = ptr7_fix(data, check);
        match pointer_code().decode(data as u128, check as u32) {
            Decoded::CorrectedData(f) => prop_assert_eq!(fixed, f as u64),
            _ => prop_assert_eq!(fixed, data),
        }
    }

    /// Parity distributes over disjoint bit partitions (the paper's
    /// "update the parity as word portions are dropped" scheme).
    fn parity_partition(w in any_u32(), mask in any_u32()) {
        prop_assert_eq!(parity32(w), parity32(w & mask) ^ parity32(w & !mask));
    }

    /// Sparse memory is byte-exact against a HashMap reference model.
    fn memory_matches_reference(
        ops in vecs((ints(0u64..0x4_0000), any_u64(), select(vec![1u64, 2, 4, 8])), 1..60)
    ) {
        let mut mem = SparseMemory::new();
        let mut reference = std::collections::HashMap::new();
        for (addr, value, size) in &ops {
            mem.write_sized(*addr, *value, *size);
            for i in 0..*size {
                reference.insert(addr + i, (value >> (8 * i)) as u8);
            }
        }
        for (addr, _, size) in &ops {
            let expect: u64 = (0..*size)
                .map(|i| (*reference.get(&(addr + i)).unwrap_or(&0) as u64) << (8 * i))
                .sum();
            prop_assert_eq!(mem.read_sized(*addr, *size), expect);
        }
    }

    /// Reads and writes of every size, concentrated on page edges and on
    /// unallocated pages (including the top page, where accesses wrap),
    /// match the same sequence done one byte at a time: the same values
    /// read, no page allocated by a read, and the same pages, bytes and
    /// checksum at the end.
    fn memory_page_runs_match_bytewise_model(
        ops in vecs(
            (
                ints(0u8..2),
                ints(0u64..8),
                (ints(0u8..3), ints(0u64..PAGE_SIZE)),
                (any_u64(), ints(0usize..6)),
            ),
            1..40,
        )
    ) {
        let mut mem = SparseMemory::new();
        let mut model = SparseMemory::new();
        for (op, page, (edge, off), (value, size)) in ops {
            let page = if page == 7 { u64::MAX / PAGE_SIZE } else { page };
            let off = match edge {
                0 => off,
                1 => PAGE_SIZE - 1 - off % 16,
                _ => off % 16,
            };
            let addr = page * PAGE_SIZE + off;
            let len = [1u64, 2, 4, 8, 3, PAGE_SIZE + 5][size];
            let sized = len.is_power_of_two() && len <= 8;
            let bytes: Vec<u8> = (0..len).map(|i| (value >> (8 * (i % 8))) as u8).collect();
            if op == 0 {
                if sized {
                    mem.write_sized(addr, value, len);
                } else {
                    mem.write_bytes(addr, &bytes);
                }
                for (i, &b) in bytes.iter().enumerate() {
                    model.write_u8(addr.wrapping_add(i as u64), b);
                }
            } else {
                let pages = mem.page_count();
                let expect: Vec<u8> =
                    (0..len).map(|i| model.read_u8(addr.wrapping_add(i))).collect();
                if sized {
                    let mut le = [0u8; 8];
                    le[..len as usize].copy_from_slice(&expect);
                    prop_assert_eq!(mem.read_sized(addr, len), u64::from_le_bytes(le));
                } else {
                    let mut got = vec![0xa5; len as usize];
                    mem.read_bytes(addr, &mut got);
                    prop_assert_eq!(got, expect);
                }
                prop_assert_eq!(mem.page_count(), pages, "a read allocated a page");
            }
        }
        prop_assert_eq!(mem.pages().collect::<Vec<_>>(), model.pages().collect::<Vec<_>>());
        prop_assert_eq!(mem.checksum(), model.checksum());
        prop_assert!(mem == model);
    }

    /// Page sets cover exactly the inserted ranges.
    fn pageset_covers_inserted(addr in ints(0u64..0x10_0000), len in ints(1u64..0x8000)) {
        let mut s = PageSet::new();
        s.insert_range(addr, len);
        prop_assert!(s.covers(addr, 1));
        prop_assert!(s.covers(addr + len - 1, 1));
        prop_assert!(s.covers(addr, len.min(8)));
        // An address at least a full page past the range is not covered.
        prop_assert!(!s.covers(addr + len + PAGE_SIZE, 1));
    }

    /// Free lists conserve registers across arbitrary pop/push/unpop
    /// sequences that respect stack discipline for unpop.
    fn freelist_conservation(ops in vecs(ints(0u8..3), 1..200)) {
        let mut fl = FreeList::new(Category::SpecFreelist, false);
        let mut popped: Vec<u64> = Vec::new();
        let mut retired: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                // rename: allocate
                0 => {
                    if let Some(p) = fl.pop() {
                        popped.push(p);
                    }
                }
                // squash walk: unpop youngest allocation
                1 => {
                    if let Some(p) = popped.pop() {
                        fl.unpop(p);
                    }
                }
                // retire: oldest allocation becomes a freed old mapping
                _ => {
                    if !popped.is_empty() {
                        let p = popped.remove(0);
                        retired.push(p);
                        fl.push(p);
                    }
                }
            }
            prop_assert_eq!(fl.len() as usize + popped.len(), 48, "registers conserved");
        }
        // Drain: every register is still distinct.
        let mut seen = std::collections::BTreeSet::new();
        while let Some(p) = fl.pop() {
            prop_assert!(seen.insert(p), "duplicate register {}", p);
        }
        for p in popped {
            prop_assert!(seen.insert(p), "duplicate register {}", p);
        }
        prop_assert_eq!(seen.len(), 48);
    }

    /// `li` materializes arbitrary constants exactly (validated through the
    /// functional simulator, end to end).
    fn li_materializes_any_constant(v in any_u64()) {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, v);
        a.li(Reg::R2, 0x2_0000);
        a.stq(Reg::R1, Reg::R2, 0);
        a.li(Reg::V0, 1); // exit
        a.li(Reg::A0, 0);
        a.callsys();
        let mut sim = tfsim::arch::FuncSim::new(&Program::new("li", a));
        let r = sim.run(100);
        prop_assert_eq!(r.exit_code, Some(0));
        prop_assert_eq!(sim.mem().read_u64(0x2_0000), v);
    }
}
