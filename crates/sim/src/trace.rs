//! Lightweight, zero-cost-when-disabled event tracing.
//!
//! Protocol debugging lives and dies by message traces. [`TraceSink`]
//! collects formatted lines when enabled and discards them (without
//! formatting) when disabled, so the hot path pays only a branch.

use std::fmt;

use crate::Cycle;

/// Collects trace lines for post-mortem protocol debugging.
///
/// # Examples
///
/// ```
/// use tsocc_sim::{Cycle, trace::TraceSink};
///
/// let mut sink = TraceSink::disabled();
/// sink.emit(Cycle::ZERO, || "never formatted".to_string());
/// assert!(sink.lines().is_empty());
///
/// let mut sink = TraceSink::enabled();
/// sink.emit(Cycle::new(5), || format!("L1[0] GetS 0x{:x}", 0x40));
/// assert_eq!(sink.lines().len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    enabled: bool,
    lines: Vec<String>,
}

impl TraceSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        TraceSink {
            enabled: false,
            lines: Vec::new(),
        }
    }

    /// A sink that records every emitted line.
    pub fn enabled() -> Self {
        TraceSink {
            enabled: true,
            lines: Vec::new(),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a line; the closure is only invoked when enabled.
    #[inline]
    pub fn emit<F>(&mut self, at: Cycle, line: F)
    where
        F: FnOnce() -> String,
    {
        if self.enabled {
            self.lines.push(format!("[{:>10}] {}", at.as_u64(), line()));
        }
    }

    /// Recorded lines, oldest first.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Drops all recorded lines.
    pub fn clear(&mut self) {
        self.lines.clear();
    }

    /// Returns the last `n` lines joined for error messages.
    pub fn tail(&self, n: usize) -> String {
        let start = self.lines.len().saturating_sub(n);
        self.lines[start..].join("\n")
    }
}

impl fmt::Display for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lines.is_empty() {
            write!(f, "<empty trace>")
        } else {
            write!(f, "{}", self.lines.join("\n"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_skips_formatting() {
        let mut sink = TraceSink::disabled();
        let mut called = false;
        sink.emit(Cycle::ZERO, || {
            called = true;
            String::new()
        });
        assert!(!called, "closure must not run when disabled");
        assert!(sink.lines().is_empty());
    }

    #[test]
    fn enabled_sink_records_in_order() {
        let mut sink = TraceSink::enabled();
        sink.emit(Cycle::new(1), || "a".into());
        sink.emit(Cycle::new(2), || "b".into());
        assert_eq!(sink.lines().len(), 2);
        assert!(sink.lines()[0].contains('a'));
        assert!(sink.lines()[1].contains('b'));
    }

    #[test]
    fn tail_returns_suffix() {
        let mut sink = TraceSink::enabled();
        for i in 0..5 {
            sink.emit(Cycle::new(i), || format!("line{i}"));
        }
        let t = sink.tail(2);
        assert!(t.contains("line3") && t.contains("line4"));
        assert!(!t.contains("line2"));
    }

    #[test]
    fn clear_empties() {
        let mut sink = TraceSink::enabled();
        sink.emit(Cycle::ZERO, || "x".into());
        sink.clear();
        assert!(sink.lines().is_empty());
        assert_eq!(sink.to_string(), "<empty trace>");
    }
}
