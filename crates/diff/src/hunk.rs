//! Hunks and their annotated lines.

use std::fmt;

/// One line of a hunk, annotated as in a unified diff.
///
/// The payload never contains the trailing newline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DiffLine {
    /// An unannotated line present in both versions.
    Context(String),
    /// A line present only in the new version (`+`).
    Added(String),
    /// A line present only in the old version (`-`).
    Removed(String),
}

impl DiffLine {
    /// The text of the line regardless of annotation.
    pub fn text(&self) -> &str {
        match self {
            DiffLine::Context(s) | DiffLine::Added(s) | DiffLine::Removed(s) => s,
        }
    }

    /// True for [`DiffLine::Added`].
    pub fn is_added(&self) -> bool {
        matches!(self, DiffLine::Added(_))
    }

    /// True for [`DiffLine::Removed`].
    pub fn is_removed(&self) -> bool {
        matches!(self, DiffLine::Removed(_))
    }

    /// The unified-diff annotation character: ` `, `+`, or `-`.
    pub fn sigil(&self) -> char {
        match self {
            DiffLine::Context(_) => ' ',
            DiffLine::Added(_) => '+',
            DiffLine::Removed(_) => '-',
        }
    }
}

impl fmt::Display for DiffLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.sigil(), self.text())
    }
}

/// A contiguous extract of a file patch: an `@@`-headed block of annotated
/// lines.
///
/// Line numbers are 1-based, as in unified diffs. An empty side (pure
/// insertion at the top of a file, say) is represented by git as
/// `start = 0, len = 0`; we preserve that convention.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Hunk {
    /// First line of the hunk in the old file (1-based; 0 when `old_len == 0`).
    pub old_start: u32,
    /// Number of old-file lines covered (context + removed).
    pub old_len: u32,
    /// First line of the hunk in the new file (1-based; 0 when `new_len == 0`).
    pub new_start: u32,
    /// Number of new-file lines covered (context + added).
    pub new_len: u32,
    /// The annotated lines.
    pub lines: Vec<DiffLine>,
}

impl Hunk {
    /// Recompute `old_len`/`new_len` from `lines`.
    ///
    /// Useful after constructing a hunk by hand.
    pub fn recount(&mut self) {
        self.old_len = self
            .lines
            .iter()
            .filter(|l| !l.is_added())
            .count()
            .try_into()
            .expect("hunk longer than u32::MAX lines");
        self.new_len = self
            .lines
            .iter()
            .filter(|l| !l.is_removed())
            .count()
            .try_into()
            .expect("hunk longer than u32::MAX lines");
    }

    /// True if the hunk adds at least one line.
    pub fn adds(&self) -> bool {
        self.lines.iter().any(DiffLine::is_added)
    }

    /// True if the hunk removes at least one line.
    pub fn removes(&self) -> bool {
        self.lines.iter().any(DiffLine::is_removed)
    }

    /// True if the hunk only removes (no added lines, possibly context).
    pub fn is_removal_only(&self) -> bool {
        self.removes() && !self.adds()
    }

    /// Iterate over `(new_file_line_number, line)` pairs for every line that
    /// exists in the new file (context and added lines).
    pub fn new_lines(&self) -> impl Iterator<Item = (u32, &DiffLine)> {
        let mut new_no = self.new_start;
        self.lines.iter().filter_map(move |l| {
            if l.is_removed() {
                None
            } else {
                let no = new_no;
                new_no += 1;
                Some((no, l))
            }
        })
    }

    /// Iterate over `(old_file_line_number, line)` pairs for every line that
    /// exists in the old file (context and removed lines).
    pub fn old_lines(&self) -> impl Iterator<Item = (u32, &DiffLine)> {
        let mut old_no = self.old_start;
        self.lines.iter().filter_map(move |l| {
            if l.is_added() {
                None
            } else {
                let no = old_no;
                old_no += 1;
                Some((no, l))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hunk {
        let mut h = Hunk {
            old_start: 10,
            new_start: 10,
            lines: vec![
                DiffLine::Context("a".into()),
                DiffLine::Removed("b".into()),
                DiffLine::Added("B".into()),
                DiffLine::Added("B2".into()),
                DiffLine::Context("c".into()),
            ],
            ..Hunk::default()
        };
        h.recount();
        h
    }

    #[test]
    fn recount_counts_sides_independently() {
        let h = sample();
        assert_eq!(h.old_len, 3); // a, b, c
        assert_eq!(h.new_len, 4); // a, B, B2, c
    }

    #[test]
    fn new_lines_number_from_new_start() {
        let h = sample();
        let nums: Vec<(u32, &str)> = h.new_lines().map(|(n, l)| (n, l.text())).collect();
        assert_eq!(nums, vec![(10, "a"), (11, "B"), (12, "B2"), (13, "c")]);
    }

    #[test]
    fn old_lines_number_from_old_start() {
        let h = sample();
        let nums: Vec<(u32, &str)> = h.old_lines().map(|(n, l)| (n, l.text())).collect();
        assert_eq!(nums, vec![(10, "a"), (11, "b"), (12, "c")]);
    }

    #[test]
    fn removal_only_detection() {
        let mut h = Hunk {
            old_start: 1,
            new_start: 1,
            lines: vec![DiffLine::Context("x".into()), DiffLine::Removed("y".into())],
            ..Hunk::default()
        };
        h.recount();
        assert!(h.is_removal_only());
        assert!(!sample().is_removal_only());
    }

    #[test]
    fn display_uses_sigils() {
        assert_eq!(DiffLine::Added("x".into()).to_string(), "+x");
        assert_eq!(DiffLine::Removed("x".into()).to_string(), "-x");
        assert_eq!(DiffLine::Context("x".into()).to_string(), " x");
    }
}
