//! Flat physical memory.

use crate::cache::{word_offset, LINE_SIZE, WORDS_PER_LINE};
use crate::hash::IntMap;

/// Sparse physical memory, stored one 64-byte cache line per entry.
///
/// All accesses are 8-byte and 8-byte aligned (the attack models never need
/// sub-word granularity); unaligned addresses are rounded down. Unwritten
/// memory reads as zero. Lines are keyed by line number, so a cache fill
/// ([`read_line`](Memory::read_line)) costs one lookup, not eight.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    lines: IntMap<u64, [u64; WORDS_PER_LINE]>,
    /// Non-zero words across all lines.
    words: usize,
}

impl Memory {
    /// Creates empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the 8-byte word containing `addr`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.lines
            .get(&(addr / LINE_SIZE))
            .map_or(0, |line| line[word_offset(addr)])
    }

    /// Reads the whole 64-byte line containing `addr`.
    #[must_use]
    pub fn read_line(&self, addr: u64) -> [u64; WORDS_PER_LINE] {
        self.lines
            .get(&(addr / LINE_SIZE))
            .copied()
            .unwrap_or([0; WORDS_PER_LINE])
    }

    /// Writes the 8-byte word containing `addr`. Writing zero to the last
    /// non-zero word of a line releases the line.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let (key, word) = (addr / LINE_SIZE, word_offset(addr));
        if value != 0 {
            let line = self.lines.entry(key).or_insert([0; WORDS_PER_LINE]);
            self.words += usize::from(line[word] == 0);
            line[word] = value;
            return;
        }
        let Some(line) = self.lines.get_mut(&key) else {
            return;
        };
        if line[word] != 0 {
            line[word] = 0;
            self.words -= 1;
            if *line == [0; WORDS_PER_LINE] {
                self.lines.remove(&key);
            }
        }
    }

    /// Number of non-zero words stored.
    #[must_use]
    pub fn populated_words(&self) -> usize {
        self.words
    }

    /// Zeroes all of memory, keeping the heap capacity.
    pub fn clear(&mut self) {
        self.lines.clear();
        self.words = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_by_default() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.read_line(0x1234), [0; WORDS_PER_LINE]);
    }

    #[test]
    fn roundtrip_and_alignment() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 42);
        assert_eq!(m.read_u64(0x1000), 42);
        assert_eq!(m.read_u64(0x1007), 42); // same word
        assert_eq!(m.read_u64(0x1008), 0); // next word
        m.write_u64(0x1003, 7); // rounds down to 0x1000
        assert_eq!(m.read_u64(0x1000), 7);
    }

    #[test]
    fn writing_zero_reclaims_storage() {
        let mut m = Memory::new();
        m.write_u64(8, 5);
        m.write_u64(16, 6);
        assert_eq!(m.populated_words(), 2);
        m.write_u64(8, 0);
        assert_eq!(m.populated_words(), 1);
        assert_eq!(m.read_u64(8), 0);
        m.write_u64(16, 0);
        assert_eq!(m.populated_words(), 0);
        assert!(m.lines.is_empty(), "an all-zero line is released");
    }

    #[test]
    fn read_line_returns_the_lines_words() {
        let mut m = Memory::new();
        m.write_u64(0x1040, 1);
        m.write_u64(0x1078, 8);
        m.write_u64(0x1080, 9); // next line
        let line = m.read_line(0x105f);
        assert_eq!(line, [1, 0, 0, 0, 0, 0, 0, 8]);
    }
}
