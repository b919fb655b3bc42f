//! Functional cache-line data.

use std::fmt;

use crate::addr::WORDS_PER_LINE;

/// The data payload of one 64-byte cache line, as eight 64-bit words.
///
/// # Examples
///
/// ```
/// use tsocc_mem::LineData;
///
/// let mut line = LineData::zeroed();
/// line.write_word(3, 0xdead_beef);
/// assert_eq!(line.read_word(3), 0xdead_beef);
/// assert_eq!(line.read_word(0), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineData {
    words: [u64; WORDS_PER_LINE],
}

impl LineData {
    /// A line of all-zero words (the reset value of simulated memory).
    #[inline]
    pub const fn zeroed() -> Self {
        LineData {
            words: [0; WORDS_PER_LINE],
        }
    }

    /// Reads the word at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`.
    #[inline]
    pub fn read_word(&self, index: usize) -> u64 {
        self.words[index]
    }

    /// Writes the word at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`.
    #[inline]
    pub fn write_word(&mut self, index: usize, value: u64) {
        self.words[index] = value;
    }

    /// All words of the line.
    #[inline]
    pub fn words(&self) -> &[u64; WORDS_PER_LINE] {
        &self.words
    }
}

impl Default for LineData {
    fn default() -> Self {
        LineData::zeroed()
    }
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineData[")?;
        for (i, w) in self.words.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w:x}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_reads_zero() {
        let line = LineData::zeroed();
        for i in 0..WORDS_PER_LINE {
            assert_eq!(line.read_word(i), 0);
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut line = LineData::zeroed();
        for i in 0..WORDS_PER_LINE {
            line.write_word(i, (i as u64 + 1) * 1000);
        }
        for i in 0..WORDS_PER_LINE {
            assert_eq!(line.read_word(i), (i as u64 + 1) * 1000);
        }
    }

    #[test]
    fn writes_do_not_alias() {
        let mut line = LineData::zeroed();
        line.write_word(2, 7);
        assert_eq!(line.read_word(1), 0);
        assert_eq!(line.read_word(3), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_word_panics() {
        let line = LineData::zeroed();
        let _ = line.read_word(8);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", LineData::zeroed()).is_empty());
    }
}
