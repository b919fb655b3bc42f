//! Paged main-memory backing store.

use crate::addr::{Addr, LineAddr};
use crate::line::LineData;
use crate::linemap::FxMap;

/// Cache lines per memory page (64 lines × 64 B = 4 KiB pages).
const PAGE_LINES: usize = 64;
const PAGE_SHIFT: u32 = PAGE_LINES.trailing_zeros();
const PAGE_MASK: u64 = PAGE_LINES as u64 - 1;
// The shift/mask split and the one-word `touched` bitmap both require
// a power-of-two line count of at most 64.
const _: () = assert!(PAGE_LINES.is_power_of_two() && PAGE_LINES <= 64);

/// One 4 KiB page of simulated DRAM: a flat line array plus a bitmap of
/// lines ever written (so sparse iteration stays exact — a zero-filled
/// but never-written line is *not* part of the memory image).
#[derive(Clone, Debug)]
struct Page {
    touched: u64,
    lines: [LineData; PAGE_LINES],
}

impl Page {
    fn zeroed() -> Box<Page> {
        Box::new(Page {
            touched: 0,
            lines: [LineData::zeroed(); PAGE_LINES],
        })
    }
}

/// The simulated DRAM: a sparse *paged* store.
///
/// A page table (open-addressed, hand-rolled mixer — see
/// [`LineMap`](crate::LineMap) for the rationale) maps page numbers to
/// boxed 4 KiB pages, allocated zero-filled on first write. A line read
/// is one page-table probe plus an array index; lines never written read
/// as zero, matching the initial state assumed by litmus tests
/// (`init: data = flag = 0`). This replaces the earlier
/// `HashMap<LineAddr, LineData>`, which paid a SipHash per line access
/// on the `MemRead`/`MemWrite` hot path.
///
/// # Examples
///
/// ```
/// use tsocc_mem::{Addr, LineData, MainMemory};
///
/// let mut mem = MainMemory::new();
/// let line = Addr::new(0x400).line();
/// assert_eq!(mem.read_line(line), LineData::zeroed());
///
/// let mut data = LineData::zeroed();
/// data.write_word(0, 99);
/// mem.write_line(line, data);
/// assert_eq!(mem.read_line(line).read_word(0), 99);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MainMemory {
    pages: FxMap<Box<Page>>,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        MainMemory {
            pages: FxMap::new(),
        }
    }

    #[inline]
    fn split(line: LineAddr) -> (u64, usize) {
        (
            line.as_u64() >> PAGE_SHIFT,
            (line.as_u64() & PAGE_MASK) as usize,
        )
    }

    /// Reads a full line; unwritten lines are zero.
    #[inline]
    pub fn read_line(&self, line: LineAddr) -> LineData {
        let (page, index) = Self::split(line);
        match self.pages.get(page) {
            Some(p) => p.lines[index],
            None => LineData::zeroed(),
        }
    }

    /// Writes a full line back to memory, allocating the page on first
    /// touch.
    #[inline]
    pub fn write_line(&mut self, line: LineAddr, data: LineData) {
        let (page, index) = Self::split(line);
        let p = match self.pages.get_mut(page) {
            Some(p) => p,
            None => {
                self.pages.insert(page, Page::zeroed());
                self.pages.get_mut(page).expect("just inserted")
            }
        };
        p.touched |= 1 << index;
        p.lines[index] = data;
    }

    /// Reads one aligned 64-bit word (test/diagnostic convenience).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn read_word(&self, addr: Addr) -> u64 {
        assert!(addr.is_word_aligned(), "unaligned word read at {addr}");
        self.read_line(addr.line()).read_word(addr.word_index())
    }

    /// Writes one aligned 64-bit word (used for program initialization).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        assert!(addr.is_word_aligned(), "unaligned word write at {addr}");
        let line = addr.line();
        let mut data = self.read_line(line);
        data.write_word(addr.word_index(), value);
        self.write_line(line, data);
    }

    /// Number of distinct lines ever written.
    pub fn touched_lines(&self) -> usize {
        self.pages
            .iter()
            .map(|(_, p)| p.touched.count_ones() as usize)
            .sum()
    }

    /// Makes `self` a copy of `src`, keeping `self`'s page table and the
    /// pages both hold.
    pub fn copy_from(&mut self, src: &MainMemory) {
        let MainMemory { pages } = self;
        pages.copy_from(&src.pages);
    }

    /// Iterates over every line ever written, **sorted by line
    /// address**. This ordering is a guarantee (relied on by
    /// `System::memory_image` and the cross-stepper/protocol parity
    /// tests), not an accident of storage layout: pages are visited in
    /// ascending page-number order and lines in ascending order within
    /// each page.
    pub fn lines(&self) -> impl Iterator<Item = (LineAddr, &LineData)> {
        let mut pages: Vec<(u64, &Page)> = self.pages.iter().map(|(n, p)| (n, &**p)).collect();
        pages.sort_unstable_by_key(|&(n, _)| n);
        pages.into_iter().flat_map(|(number, page)| {
            (0..PAGE_LINES).filter_map(move |i| {
                if page.touched & (1 << i) != 0 {
                    let line = LineAddr::new((number << PAGE_SHIFT) | i as u64);
                    Some((line, &page.lines[i]))
                } else {
                    None
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = MainMemory::new();
        assert_eq!(mem.read_word(Addr::new(0x12340)), 0);
        assert_eq!(mem.read_line(LineAddr::new(77)), LineData::zeroed());
    }

    #[test]
    fn word_write_preserves_neighbours() {
        let mut mem = MainMemory::new();
        mem.write_word(Addr::new(0x100), 1);
        mem.write_word(Addr::new(0x108), 2);
        assert_eq!(mem.read_word(Addr::new(0x100)), 1);
        assert_eq!(mem.read_word(Addr::new(0x108)), 2);
        assert_eq!(mem.read_word(Addr::new(0x110)), 0);
    }

    #[test]
    fn line_write_replaces_whole_line() {
        let mut mem = MainMemory::new();
        mem.write_word(Addr::new(0x40), 5);
        mem.write_line(Addr::new(0x40).line(), LineData::zeroed());
        assert_eq!(mem.read_word(Addr::new(0x40)), 0);
    }

    #[test]
    #[should_panic]
    fn unaligned_read_panics() {
        let mem = MainMemory::new();
        let _ = mem.read_word(Addr::new(0x41));
    }

    #[test]
    fn touched_lines_counts_unique() {
        let mut mem = MainMemory::new();
        mem.write_word(Addr::new(0x00), 1);
        mem.write_word(Addr::new(0x08), 2); // same line
        mem.write_word(Addr::new(0x40), 3); // new line
        assert_eq!(mem.touched_lines(), 2);
    }

    #[test]
    fn zero_valued_writes_still_count_as_touched() {
        // The memory image must distinguish "written with zero" from
        // "never written", exactly like the old map-backed store.
        let mut mem = MainMemory::new();
        mem.write_line(LineAddr::new(5), LineData::zeroed());
        assert_eq!(mem.touched_lines(), 1);
        assert_eq!(
            mem.lines().map(|(l, _)| l).collect::<Vec<_>>(),
            vec![LineAddr::new(5)]
        );
    }

    #[test]
    fn a_copy_reads_as_its_source() {
        let mut src = MainMemory::new();
        src.write_word(Addr::new(0x40), 7);
        src.write_word(Addr::new(0x10_0000), 9);
        let mut copy = MainMemory::new();
        copy.write_word(Addr::new(0x40), 1);
        copy.write_word(Addr::new(0x2000), 2);
        copy.copy_from(&src);
        let image = |m: &MainMemory| m.lines().map(|(l, d)| (l, *d)).collect::<Vec<_>>();
        assert_eq!(image(&copy), image(&src));
        assert_eq!(copy.read_word(Addr::new(0x2000)), 0);
    }

    #[test]
    fn lines_iterates_sorted_by_address() {
        // Scrambled writes across many pages, including within-page
        // neighbours and far-apart pages.
        let mut mem = MainMemory::new();
        let addrs = [
            900_000u64, 3, 64, 65, 1_000_000, 0, 70, 4096, 127, 90_001, 2,
        ];
        for &l in &addrs {
            let mut d = LineData::zeroed();
            d.write_word(0, l);
            mem.write_line(LineAddr::new(l), d);
        }
        let got: Vec<u64> = mem.lines().map(|(l, _)| l.as_u64()).collect();
        let mut want: Vec<u64> = addrs.to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "lines() must iterate sorted by line address");
        for (l, d) in mem.lines() {
            assert_eq!(d.read_word(0), l.as_u64(), "data follows its line");
        }
    }
}
