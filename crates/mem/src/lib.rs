#![warn(missing_docs)]

//! # tfsim-mem — memory substrate
//!
//! Sparse paged physical memory and the preloaded-TLB model shared by the
//! architectural simulator and the pipeline model.
//!
//! The paper preloads both TLBs with every page the fault-free execution
//! touches; any access outside that set indicates a fault-induced wild
//! access and is conservatively classified as SDC (`itlb`/`dtlb` failure
//! modes). [`PageSet`] implements that model.
//!
//! ```
//! use tfsim_mem::{SparseMemory, PAGE_SIZE};
//!
//! let mut m = SparseMemory::new();
//! m.write_u64(0x1000, 0xdead_beef);
//! assert_eq!(m.read_u64(0x1000), 0xdead_beef);
//! assert_eq!(m.read_u64(0x2000), 0); // untouched memory reads as zero
//! assert_eq!(PAGE_SIZE, 8192);
//! ```

use std::collections::{BTreeMap, BTreeSet};

use tfsim_isa::Program;

/// Page size in bytes (8 KB, the classic Alpha page size).
pub const PAGE_SIZE: u64 = 8192;

/// Byte-addressed sparse memory backed by 8 KB pages.
///
/// Untouched locations read as zero. All multi-byte accesses are
/// little-endian and may span page boundaries.
///
/// Two memories are equal when they hold the same set of allocated pages
/// with the same bytes (an allocated all-zero page is not the same as an
/// unallocated one, matching [`SparseMemory::checksum`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseMemory {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Creates a memory initialized from a program image.
    pub fn from_program(program: &Program) -> SparseMemory {
        let mut m = SparseMemory::new();
        m.load(program);
        m
    }

    /// Copies every section of `program` into memory.
    pub fn load(&mut self, program: &Program) {
        for s in &program.sections {
            self.write_bytes(s.addr, &s.bytes);
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page if needed.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr / PAGE_SIZE)[(addr % PAGE_SIZE) as usize] = value;
    }

    fn page_mut(&mut self, num: u64) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages.entry(num).or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
    }

    /// Splits the `len` bytes from `addr` into runs that each stay within
    /// one page, yielding `(page number, offset in the page, offset from
    /// addr, length)`; addresses wrap at the top of the address space.
    fn page_runs(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
        let mut done = 0usize;
        std::iter::from_fn(move || {
            if done == len {
                return None;
            }
            let a = addr.wrapping_add(done as u64);
            let off = (a % PAGE_SIZE) as usize;
            let n = (len - done).min(PAGE_SIZE as usize - off);
            let run = (a / PAGE_SIZE, off, done, n);
            done += n;
            Some(run)
        })
    }

    /// Reads `N` little-endian bytes starting at `addr`: one page lookup
    /// when they stay inside one page.
    fn read_le<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut buf = [0u8; N];
        let off = (addr % PAGE_SIZE) as usize;
        if off + N <= PAGE_SIZE as usize {
            if let Some(p) = self.pages.get(&(addr / PAGE_SIZE)) {
                buf.copy_from_slice(&p[off..off + N]);
            }
        } else {
            self.read_bytes(addr, &mut buf);
        }
        buf
    }

    /// Writes `N` little-endian bytes starting at `addr`: one page lookup
    /// when they stay inside one page.
    fn write_le<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let off = (addr % PAGE_SIZE) as usize;
        if off + N <= PAGE_SIZE as usize {
            self.page_mut(addr / PAGE_SIZE)[off..off + N].copy_from_slice(&bytes);
        } else {
            self.write_bytes(addr, &bytes);
        }
    }

    /// Reads a little-endian 16-bit value.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_le(addr))
    }

    /// Reads a little-endian 32-bit value.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_le(addr))
    }

    /// Reads a little-endian 64-bit value.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_le(addr))
    }

    /// Writes a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_le(addr, value.to_le_bytes());
    }

    /// Writes a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_le(addr, value.to_le_bytes());
    }

    /// Writes a little-endian 64-bit value.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_le(addr, value.to_le_bytes());
    }

    /// Reads `size` bytes (1, 2, 4, or 8) zero-extended into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics on any other size.
    pub fn read_sized(&self, addr: u64, size: u64) -> u64 {
        match size {
            1 => self.read_u8(addr) as u64,
            2 => self.read_u16(addr) as u64,
            4 => self.read_u32(addr) as u64,
            8 => self.read_u64(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` bytes (1, 2, 4, or 8) of `value`.
    ///
    /// # Panics
    ///
    /// Panics on any other size.
    pub fn write_sized(&mut self, addr: u64, value: u64, size: u64) {
        match size {
            1 => self.write_u8(addr, value as u8),
            2 => self.write_u16(addr, value as u16),
            4 => self.write_u32(addr, value as u32),
            8 => self.write_u64(addr, value),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Reads `buf.len()` bytes starting at `addr` (one page lookup per
    /// page the range touches; never allocates).
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        for (num, off, at, n) in Self::page_runs(addr, buf.len()) {
            let dst = &mut buf[at..at + n];
            match self.pages.get(&num) {
                Some(p) => dst.copy_from_slice(&p[off..off + n]),
                None => dst.fill(0),
            }
        }
    }

    /// Writes a byte slice starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (num, off, at, n) in Self::page_runs(addr, bytes.len()) {
            self.page_mut(num)[off..off + n].copy_from_slice(&bytes[at..at + n]);
        }
    }

    /// Number of allocated pages (for capacity diagnostics).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Iterator over allocated page numbers.
    pub fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.keys().copied()
    }

    /// A deterministic checksum over all allocated pages (used by tests to
    /// compare memory images cheaply).
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for (num, page) in &self.pages {
            h ^= *num;
            h = h.wrapping_mul(0x100_0000_01b3);
            for &b in page.iter() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }
}

/// Whether `addr` is naturally aligned for an access of `size` bytes.
///
/// Misaligned accesses raise alignment exceptions, one source of the
/// paper's `except` failure mode.
pub fn is_aligned(addr: u64, size: u64) -> bool {
    size == 0 || addr.is_multiple_of(size)
}

/// The preloaded-TLB model: the set of virtual pages the fault-free
/// execution is allowed to touch.
///
/// The paper preloads both TLBs with all pages accessed by the workload in
/// the absence of faults, so any TLB miss during an injected run signals a
/// potentially illegal access and counts as SDC.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageSet {
    pages: BTreeSet<u64>,
}

impl PageSet {
    /// Creates an empty page set.
    pub fn new() -> PageSet {
        PageSet::default()
    }

    /// Inserts the page containing `addr`.
    pub fn insert_addr(&mut self, addr: u64) {
        self.pages.insert(addr / PAGE_SIZE);
    }

    /// Inserts every page overlapping `[addr, addr + len)`.
    pub fn insert_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        for page in (addr / PAGE_SIZE)..=((addr + len - 1) / PAGE_SIZE) {
            self.pages.insert(page);
        }
    }

    /// Whether an access of `size` bytes at `addr` stays within loaded pages.
    pub fn covers(&self, addr: u64, size: u64) -> bool {
        let size = size.max(1);
        let first = addr / PAGE_SIZE;
        let last = (addr + size - 1) / PAGE_SIZE;
        (first..=last).all(|p| self.pages.contains(&p))
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Merges another page set into this one.
    pub fn extend_from(&mut self, other: &PageSet) {
        self.pages.extend(other.pages.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfsim_isa::{Asm, Reg};

    #[test]
    fn read_your_writes_all_sizes() {
        let mut m = SparseMemory::new();
        m.write_u8(10, 0xab);
        m.write_u16(100, 0x1234);
        m.write_u32(200, 0xdead_beef);
        m.write_u64(300, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(100), 0x1234);
        assert_eq!(m.read_u32(200), 0xdead_beef);
        assert_eq!(m.read_u64(300), 0x0102_0304_0506_0708);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMemory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let addr = PAGE_SIZE - 4;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn sized_access_round_trip() {
        let mut m = SparseMemory::new();
        for size in [1u64, 2, 4, 8] {
            let v = 0xfedc_ba98_7654_3210u64;
            m.write_sized(0x400, v, size);
            let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
            assert_eq!(m.read_sized(0x400, size), v & mask);
        }
    }

    #[test]
    fn program_loading() {
        let mut a = Asm::new(0x1_0000);
        a.addq(Reg::R1, Reg::R2, Reg::R3);
        let p = tfsim_isa::Program::new("t", a).with_data_words(0x2_0000, &[99]);
        let m = SparseMemory::from_program(&p);
        assert_ne!(m.read_u32(0x1_0000), 0);
        assert_eq!(m.read_u64(0x2_0000), 99);
    }

    #[test]
    fn checksum_detects_differences() {
        let mut a = SparseMemory::new();
        let mut b = SparseMemory::new();
        a.write_u8(0, 1);
        b.write_u8(0, 1);
        assert_eq!(a.checksum(), b.checksum());
        b.write_u8(12345, 7);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn alignment_rules() {
        assert!(is_aligned(0x1000, 8));
        assert!(!is_aligned(0x1001, 2));
        assert!(is_aligned(0x1001, 1));
        assert!(!is_aligned(0x1004, 8));
        assert!(is_aligned(0x1004, 4));
    }

    #[test]
    fn page_set_covers() {
        let mut s = PageSet::new();
        s.insert_range(0x1000, 0x100);
        assert!(s.covers(0x1000, 8));
        assert!(s.covers(0x1ff8, 8)); // same page (0)
        assert!(!s.covers(PAGE_SIZE, 1)); // page 1 not loaded
        s.insert_addr(PAGE_SIZE);
        assert!(s.covers(PAGE_SIZE - 4, 8)); // straddles pages 0 and 1
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn page_set_range_spans_pages() {
        let mut s = PageSet::new();
        s.insert_range(PAGE_SIZE - 1, 2);
        assert_eq!(s.len(), 2);
        s.insert_range(0, 0);
        assert_eq!(s.len(), 2);
        let mut t = PageSet::new();
        t.extend_from(&s);
        assert_eq!(t, s);
        assert!(!t.is_empty());
    }
}
