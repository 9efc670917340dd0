//! Lexical source mapping for the mutation engine.
//!
//! Paper §III.B distinguishes three kinds of changed lines: (1) lines
//! within a comment — never mutated; (2) lines within a macro definition —
//! one mutation per changed macro; (3) other lines — one mutation per
//! conditional-compilation section. Placement also needs to know whether a
//! `#define` line ends in a continuation backslash and whether a changed
//! line starts inside a comment that closes on that line.
//!
//! [`analyze`] computes all of that in one pass, per physical line, and
//! keeps the file's conditional [`BranchTree`] next to it.

use crate::cond::BranchTree;
use crate::lines::logical_lines;

/// Lexical facts about one physical source line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineInfo {
    /// The line begins inside a block comment.
    pub starts_in_comment: bool,
    /// When [`LineInfo::starts_in_comment`] and the comment closes on this
    /// line: byte column just past the closing `*/`.
    pub comment_close_col: Option<usize>,
    /// Every non-whitespace character of the line is comment text.
    pub comment_only: bool,
    /// Index into [`SourceMap::macro_defs`] when the line is part of a
    /// macro definition (the `#define` logical line, including
    /// continuations).
    pub in_macro_def: Option<usize>,
    /// The line is (part of) a preprocessing directive.
    pub is_directive: bool,
    /// The line opens a conditional-compilation section boundary:
    /// `#if`, `#ifdef`, `#ifndef`, `#elif`, or `#else`.
    pub is_conditional: bool,
    /// The physical line ends with a `\` continuation.
    pub ends_with_continuation: bool,
}

/// A macro definition's span in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroDefSpan {
    /// Macro name.
    pub name: String,
    /// 1-based physical line of the `#define`.
    pub define_line: u32,
    /// 1-based last physical line of the definition (equals
    /// [`MacroDefSpan::define_line`] when there are no continuations).
    pub end_line: u32,
}

impl MacroDefSpan {
    /// True when `line` (1-based) is within this definition.
    pub fn contains(&self, line: u32) -> bool {
        line >= self.define_line && line <= self.end_line
    }
}

/// The full lexical map of a source file.
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    /// Per-physical-line facts; index 0 is line 1.
    pub lines: Vec<LineInfo>,
    /// All macro definitions, in source order.
    pub macro_defs: Vec<MacroDefSpan>,
    /// The `#if`/`#elif`/`#else` nesting, built from the same logical
    /// lines.
    pub branches: BranchTree,
}

impl SourceMap {
    /// Facts for 1-based `line`, if it exists.
    pub fn line(&self, line: u32) -> Option<&LineInfo> {
        self.lines.get((line as usize).checked_sub(1)?)
    }

    /// The macro definition containing 1-based `line`, if any.
    pub fn macro_def_at(&self, line: u32) -> Option<&MacroDefSpan> {
        let idx = self.line(line)?.in_macro_def?;
        self.macro_defs.get(idx)
    }

    /// Number of physical lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True for an empty file.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Build the [`SourceMap`] of `src`.
pub fn analyze(src: &str) -> SourceMap {
    let mut lines = comment_scan(src);

    // Directive and macro-definition facts come from logical lines, which
    // already splice continuations and strip comments.
    let lls = logical_lines(src);
    let mut macro_defs = Vec::new();
    for ll in &lls {
        if !ll.is_directive() {
            continue;
        }
        let (name, rest) = ll.directive().unwrap_or(("", ""));
        let first = ll.first_line as usize - 1;
        let last = (ll.last_line as usize - 1).min(lines.len().saturating_sub(1));
        for info in &mut lines[first..=last] {
            info.is_directive = true;
        }
        if matches!(name, "if" | "ifdef" | "ifndef" | "elif" | "else") {
            let anchor = conditional_anchor(src, &lines, first, last);
            lines[anchor].is_conditional = true;
        }
        if name == "define" {
            let macro_name: String = rest
                .chars()
                .take_while(|c| *c == '_' || c.is_ascii_alphanumeric())
                .collect();
            if !macro_name.is_empty() {
                let idx = macro_defs.len();
                macro_defs.push(MacroDefSpan {
                    name: macro_name,
                    define_line: ll.first_line,
                    end_line: ll.last_line,
                });
                for info in &mut lines[first..=last] {
                    info.in_macro_def = Some(idx);
                }
            }
        }
    }

    // Real cpp splices (phase 2) before stripping comments (phase 3), so a
    // block comment opened on a `#define` line swallows its newline and the
    // definition continues on the next physical line — through the comment
    // tail and any further `\` continuations. `logical_lines` deliberately
    // ends logical lines at comment-interior newlines, which truncated the
    // macro span there: an `#elif` sitting in such a continuation body kept
    // `is_conditional` from its (bogus) own logical line but lost the
    // enclosing `in_macro_def`. Extend each span along the continuation
    // chain and re-attribute the lines it covers.
    for (idx, def) in macro_defs.iter_mut().enumerate() {
        let mut end = def.end_line as usize - 1;
        loop {
            let next = end + 1;
            if next >= lines.len() {
                break;
            }
            // Continue while the definition's terminating newline was
            // inside an open comment, or a closed comment tail ends in a
            // continuation backslash.
            if !lines[end].ends_with_continuation && !lines[next].starts_in_comment {
                break;
            }
            // Never swallow a line some other definition already owns.
            if lines[next].in_macro_def.is_some_and(|j| j != idx) {
                break;
            }
            end = next;
        }
        let first = def.end_line as usize; // one past the old end
        for info in &mut lines[first..=end] {
            info.is_directive = true;
            info.in_macro_def = Some(idx);
            // Text spliced into a macro body is not a conditional boundary,
            // whatever it lexically looks like.
            info.is_conditional = false;
        }
        def.end_line = end as u32 + 1;
    }

    SourceMap {
        lines,
        macro_defs,
        branches: BranchTree::build(&lls),
    }
}

/// Physical line (0-based index into `lines`) that carries the `#` of a
/// directive whose logical line spans `first..=last`. When a directive's
/// logical line opens on the tail of a multi-line comment (`*/ \` followed
/// by `#elif …`), `first` is the comment tail, not the directive itself —
/// anchor conditional flags to the line whose code portion starts with `#`.
fn conditional_anchor(src: &str, lines: &[LineInfo], first: usize, last: usize) -> usize {
    for (off, raw) in src.lines().skip(first).take(last - first + 1).enumerate() {
        let idx = first + off;
        let info = &lines[idx];
        let code = if info.starts_in_comment {
            match info.comment_close_col {
                Some(col) => raw.get(col..).unwrap_or(""),
                None => continue, // whole line is comment text
            }
        } else {
            raw
        };
        if code.trim_start().starts_with('#') {
            return idx;
        }
    }
    first
}

/// Per-line comment facts via a byte-level scan of the raw source.
///
/// Comment and literal delimiters are ASCII and a UTF-8 continuation byte
/// never is, so literal and comment text is skipped bytewise; a
/// non-ASCII character in code is decoded only to ask whether it is
/// whitespace.
pub(crate) fn comment_scan(src: &str) -> Vec<LineInfo> {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Code,
        Str,
        Chr,
        LineComment,
        BlockComment,
    }
    let mut out = Vec::new();
    let mut st = St::Code;
    for raw in src.lines() {
        let mut info = LineInfo {
            starts_in_comment: st == St::BlockComment,
            ends_with_continuation: raw.ends_with('\\'),
            ..LineInfo::default()
        };
        let mut has_code = false;
        let bytes = raw.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match st {
                St::Code => match bytes[i] {
                    b'/' if bytes.get(i + 1) == Some(&b'/') => {
                        // Nothing after `//` matters on this line.
                        st = St::LineComment;
                        break;
                    }
                    b'/' if bytes.get(i + 1) == Some(&b'*') => {
                        st = St::BlockComment;
                        i += 2;
                    }
                    q @ (b'"' | b'\'') => {
                        has_code = true;
                        st = if q == b'"' { St::Str } else { St::Chr };
                        i += 1;
                    }
                    // Whitespace and continuation backslashes.
                    b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b'\\' => i += 1,
                    c if c.is_ascii() => {
                        has_code = true;
                        i += 1;
                    }
                    _ => {
                        let c = raw[i..]
                            .chars()
                            .next()
                            .expect("a non-ASCII lead byte starts a character");
                        has_code |= !c.is_whitespace();
                        i += c.len_utf8();
                    }
                },
                St::Str | St::Chr => {
                    let quote = if st == St::Str { b'"' } else { b'\'' };
                    // An escape skips the whole next character: stepping past
                    // its first byte is enough, since a continuation byte is
                    // never a quote or a backslash.
                    match bytes[i..].iter().position(|&c| c == b'\\' || c == quote) {
                        Some(n) if bytes[i + n] == b'\\' => i += n + 2,
                        Some(n) => {
                            st = St::Code;
                            i += n + 1;
                        }
                        None => break,
                    }
                }
                St::LineComment => break,
                St::BlockComment => match raw[i..].find("*/") {
                    Some(n) => {
                        st = St::Code;
                        if info.starts_in_comment && info.comment_close_col.is_none() {
                            info.comment_close_col = Some(i + n + 2);
                        }
                        i += n + 2;
                    }
                    None => break,
                },
            }
        }
        // Line comments and unterminated string/char states end at newline.
        if matches!(st, St::LineComment | St::Str | St::Chr) {
            st = St::Code;
        }
        info.comment_only = !has_code && !raw.trim().is_empty();
        out.push(info);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_code_lines() {
        let m = analyze("int a;\nint b;\n");
        assert_eq!(m.len(), 2);
        let l1 = m.line(1).unwrap();
        assert!(!l1.comment_only && !l1.is_directive && !l1.starts_in_comment);
        assert!(m.line(3).is_none());
    }

    #[test]
    fn comment_only_lines_detected() {
        let src = "/* block\n   middle\n   end */\nint code; // trailing\n// whole line\n";
        let m = analyze(src);
        assert!(m.line(1).unwrap().comment_only);
        assert!(m.line(2).unwrap().comment_only);
        assert!(m.line(2).unwrap().starts_in_comment);
        assert!(m.line(3).unwrap().comment_only);
        assert!(!m.line(4).unwrap().comment_only);
        assert!(m.line(5).unwrap().comment_only);
    }

    #[test]
    fn comment_close_col_points_past_star_slash() {
        let src = "/* open\nend */ int x;\n";
        let m = analyze(src);
        let l2 = m.line(2).unwrap();
        assert!(l2.starts_in_comment);
        assert_eq!(l2.comment_close_col, Some(6));
        assert_eq!(&"end */ int x;"[6..], " int x;");
    }

    #[test]
    fn macro_def_span_single_line() {
        let m = analyze("#define HI(x) (((x) & 0xf) << 4)\nint y;\n");
        assert_eq!(m.macro_defs.len(), 1);
        let d = &m.macro_defs[0];
        assert_eq!(d.name, "HI");
        assert_eq!((d.define_line, d.end_line), (1, 1));
        assert!(m.line(1).unwrap().is_directive);
        assert_eq!(m.line(1).unwrap().in_macro_def, Some(0));
        assert_eq!(m.line(2).unwrap().in_macro_def, None);
    }

    #[test]
    fn macro_def_span_with_continuations() {
        let src = "#define SINGLE(x) \\\n (HI(x) | \\\n  LO(x))\nint z;\n";
        let m = analyze(src);
        let d = &m.macro_defs[0];
        assert_eq!((d.define_line, d.end_line), (1, 3));
        assert!(d.contains(2));
        assert!(!d.contains(4));
        assert!(m.line(1).unwrap().ends_with_continuation);
        assert!(m.line(2).unwrap().ends_with_continuation);
        assert!(!m.line(3).unwrap().ends_with_continuation);
        assert_eq!(m.line(2).unwrap().in_macro_def, Some(0));
        assert_eq!(m.macro_def_at(3).unwrap().name, "SINGLE");
    }

    #[test]
    fn conditional_directives_flagged() {
        let src = "#ifdef A\nint a;\n#elif defined(B)\nint b;\n#else\nint c;\n#endif\n";
        let m = analyze(src);
        assert!(m.line(1).unwrap().is_conditional);
        assert!(!m.line(2).unwrap().is_conditional);
        assert!(m.line(3).unwrap().is_conditional);
        assert!(m.line(5).unwrap().is_conditional);
        // #endif closes a section but does not open one.
        assert!(!m.line(7).unwrap().is_conditional);
        assert!(m.line(7).unwrap().is_directive);
    }

    #[test]
    fn comment_markers_in_strings_ignored() {
        let m = analyze("char *s = \"/* not a comment\";\nint x;\n");
        assert!(!m.line(1).unwrap().comment_only);
        assert!(!m.line(2).unwrap().starts_in_comment);
    }

    #[test]
    fn two_macros_indexed_in_order() {
        let src = "#define A 1\n#define B 2\n";
        let m = analyze(src);
        assert_eq!(m.macro_defs.len(), 2);
        assert_eq!(m.macro_def_at(1).unwrap().name, "A");
        assert_eq!(m.macro_def_at(2).unwrap().name, "B");
    }

    #[test]
    fn blank_lines_are_not_comment_only() {
        let m = analyze("\n  \nint x;\n");
        assert!(!m.line(1).unwrap().comment_only);
        assert!(!m.line(2).unwrap().comment_only);
    }

    #[test]
    fn define_inside_conditional() {
        let src = "#ifdef CONFIG_PM\n#define PM_OPS &pm_ops\n#endif\n";
        let m = analyze(src);
        assert!(m.line(1).unwrap().is_conditional);
        assert_eq!(m.macro_def_at(2).unwrap().name, "PM_OPS");
    }

    #[test]
    fn elif_in_macro_continuation_body_keeps_in_macro_def() {
        // The comment opened on the #define line swallows its newline
        // (splice happens before comment removal in real cpp), and the
        // `*/ \` tail splices the next line too — so the #elif text is
        // part of PICK's replacement list, not a conditional boundary.
        // Before the fix it was flagged is_conditional (attributed to the
        // comment-tail line, at that) while losing in_macro_def entirely.
        let src = "#ifdef CONFIG_X\n#define PICK(x) /* pick\nimpl */ \\\n#elif defined(CONFIG_Y)\nint y;\n#endif\n";
        let m = analyze(src);
        let d = &m.macro_defs[0];
        assert_eq!((d.define_line, d.end_line), (2, 4));
        for line in 2..=4 {
            let info = m.line(line).unwrap();
            assert_eq!(info.in_macro_def, Some(0), "line {line} lost in_macro_def");
            assert!(
                !info.is_conditional,
                "line {line} flagged conditional inside macro body"
            );
            assert!(info.is_directive);
        }
        assert_eq!(m.macro_def_at(4).unwrap().name, "PICK");
        assert_eq!(m.line(5).unwrap().in_macro_def, None);
    }

    #[test]
    fn elif_spliced_into_define_is_macro_body() {
        // Plain backslash chain: the #elif physical line is spliced into
        // the define logical line and must carry its in_macro_def.
        let src = "#define PICK(x) \\\n  first(x) \\\n#elif defined(CONFIG_Y)\nint y;\n";
        let m = analyze(src);
        assert_eq!(
            (m.macro_defs[0].define_line, m.macro_defs[0].end_line),
            (1, 3)
        );
        let l3 = m.line(3).unwrap();
        assert_eq!(l3.in_macro_def, Some(0));
        assert!(!l3.is_conditional);
    }

    #[test]
    fn elif_after_completed_define_is_plain_conditional() {
        // Control: once the continuation chain ends, a following #elif is
        // an ordinary conditional outside the macro span.
        let src = "#ifdef CONFIG_X\n#define PICK(x) \\\n  first(x)\n#elif defined(CONFIG_Y)\nint y;\n#endif\n";
        let m = analyze(src);
        assert_eq!(
            (m.macro_defs[0].define_line, m.macro_defs[0].end_line),
            (2, 3)
        );
        let l4 = m.line(4).unwrap();
        assert!(l4.is_conditional);
        assert_eq!(l4.in_macro_def, None);
    }

    #[test]
    fn conditional_anchored_to_hash_line_after_comment_tail() {
        // A directive whose logical line opens on a comment tail (`*/ \`)
        // must flag the physical line holding the `#`, not the tail.
        let src = "#ifdef A\nint a; /* c\nc2 */ \\\n#elif defined(B)\nint b;\n#endif\n";
        let m = analyze(src);
        assert!(!m.line(3).unwrap().is_conditional, "comment tail flagged");
        assert!(m.line(4).unwrap().is_conditional, "#elif line not flagged");
    }

    #[test]
    fn comment_split_define_body_rejoined() {
        let src = "#define M(x) /* c\nc2 */ \\\n  body(x)\nint t;\n";
        let m = analyze(src);
        assert_eq!(
            (m.macro_defs[0].define_line, m.macro_defs[0].end_line),
            (1, 3)
        );
        assert_eq!(m.line(3).unwrap().in_macro_def, Some(0));
        assert_eq!(m.line(4).unwrap().in_macro_def, None);
    }

    #[test]
    fn empty_source() {
        let m = analyze("");
        assert!(m.is_empty());
        assert!(m.macro_defs.is_empty());
    }
}
