//! Translation phases 2 and 3: line splicing and comment removal.
//!
//! Produces *logical lines*: physical lines joined by backslash-newline,
//! with comments replaced by a single space, each annotated with the range
//! of physical lines it came from.

/// A logical source line after splicing and comment removal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalLine {
    /// The cleaned text (no comments, no continuations, no trailing newline).
    pub text: String,
    /// 1-based first physical line.
    pub first_line: u32,
    /// 1-based last physical line (≥ `first_line` when continuations or a
    /// block comment spanned lines).
    pub last_line: u32,
}

impl LogicalLine {
    /// True when nothing but whitespace remains.
    pub fn is_blank(&self) -> bool {
        self.text.trim().is_empty()
    }

    /// True when the line is a preprocessing directive (first non-blank
    /// char is `#`).
    pub fn is_directive(&self) -> bool {
        self.text.trim_start().starts_with('#')
    }

    /// For a directive line, the directive name (`define`, `if`, …) and the
    /// rest of the line.
    /// The name ends at the first byte that is not an ASCII letter, digit or
    /// `_`: a character boundary, since every byte before it is ASCII.
    pub fn directive(&self) -> Option<(&str, &str)> {
        let t = self.text.trim_start();
        let t = t.strip_prefix('#')?;
        let t = t.trim_start();
        let end = t
            .bytes()
            .position(|b| !b.is_ascii_alphanumeric() && b != b'_')
            .unwrap_or(t.len());
        Some((&t[..end], t[end..].trim_start()))
    }
}

/// Split source into logical lines: splice `\`-newline, strip comments
/// (string- and char-literal aware), and record physical line ranges.
///
/// Unterminated block comments run to end of file, like gcc with a warning;
/// unterminated string literals end at the newline (the front-end validator
/// reports those).
///
/// One pass over bytes: every byte phases 2 and 3 treat specially
/// (`\`, `/`, `*`, quotes, newline) is ASCII, and a UTF-8 continuation
/// byte never is, so runs of ordinary bytes are copied whole and
/// multi-byte characters pass through intact. Splices are skipped by the
/// cursor wherever the next byte is read, so a comment delimiter or an
/// escape split by `\`-newline still pairs up.
pub fn logical_lines(src: &str) -> Vec<LogicalLine> {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Code,
        Str,
        Chr,
        LineComment,
        BlockComment,
    }
    let mut sp = Splitter {
        src,
        pos: 0,
        line: 1,
        out: Vec::new(),
        text: String::new(),
        first: None,
        last: 1,
    };
    let bytes = src.as_bytes();
    let mut st = St::Code;
    while let Some(b) = sp.peek() {
        let line = sp.line;
        match (st, b) {
            (_, b'\n') => {
                // A newline ends line comments and unterminated literals;
                // inside a block comment it is kept so a directive cannot
                // absorb the following line.
                sp.newline();
                if st != St::BlockComment {
                    st = St::Code;
                }
            }
            (St::Code, b'/') => {
                sp.pos += 1;
                match sp.peek() {
                    Some(b'/') => st = St::LineComment,
                    Some(b'*') => st = St::BlockComment,
                    _ => {
                        sp.keep(b'/', line);
                        continue;
                    }
                }
                sp.pos += 1;
                sp.keep(b' ', line);
            }
            (St::Code, b'"') => {
                sp.bump(line);
                st = St::Str;
            }
            (St::Code, b'\'') => {
                sp.bump(line);
                st = St::Chr;
            }
            (St::Str | St::Chr, b'\\') => {
                sp.bump(line);
                // The escaped character is kept whatever it is. Only an
                // ASCII one needs handling here: anything else is ordinary
                // literal text, which the next iteration keeps anyway.
                match sp.peek() {
                    Some(b'\n') => sp.newline(),
                    Some(e) if e.is_ascii() => sp.bump(sp.line),
                    _ => {}
                }
            }
            (St::Str, b'"') | (St::Chr, b'\'') => {
                sp.bump(line);
                st = St::Code;
            }
            (St::BlockComment, b'*') => {
                sp.pos += 1;
                if sp.peek() == Some(b'/') {
                    sp.pos += 1;
                    st = St::Code;
                }
            }
            (St::Code | St::Str | St::Chr, _) => {
                // A run of bytes with no meaning in this state (a `\` here
                // is a literal backslash: `peek` already took any splice).
                let stop = |c: u8| match st {
                    St::Code => matches!(c, b'\n' | b'\\' | b'/' | b'"' | b'\''),
                    St::Str => matches!(c, b'\n' | b'\\' | b'"'),
                    _ => matches!(c, b'\n' | b'\\' | b'\''),
                };
                let end = run_end(bytes, sp.pos + 1, stop);
                sp.keep_run(end);
            }
            (St::LineComment | St::BlockComment, _) => {
                // Comment text is dropped; stop where a newline, a splice
                // or (in a block comment) a closing `*/` may follow.
                let end = run_end(bytes, sp.pos + 1, |c| {
                    matches!(c, b'\n' | b'\\') || (st == St::BlockComment && c == b'*')
                });
                sp.pos = end;
            }
        }
    }
    sp.finish()
}

/// Index of the first byte at or after `from` that `stop` accepts, or the
/// end of `bytes`.
fn run_end(bytes: &[u8], from: usize, stop: impl Fn(u8) -> bool) -> usize {
    bytes[from..]
        .iter()
        .position(|&c| stop(c))
        .map_or(bytes.len(), |n| from + n)
}

/// The cursor and output of [`logical_lines`].
struct Splitter<'a> {
    src: &'a str,
    pos: usize,
    /// Physical line of the byte at `pos`.
    line: u32,
    out: Vec<LogicalLine>,
    /// Kept text of the logical line being built.
    text: String,
    /// Physical line of the first byte kept for the current logical line.
    first: Option<u32>,
    /// Physical line of the last byte kept.
    last: u32,
}

impl Splitter<'_> {
    /// Skip any `\`-newline splices at the cursor, then return the next
    /// byte.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        loop {
            match bytes.get(self.pos..) {
                Some([b'\\', b'\n', ..]) => self.pos += 2,
                Some([b'\\', b'\r', b'\n', ..]) => self.pos += 3,
                _ => return bytes.get(self.pos).copied(),
            }
            self.line += 1;
        }
    }

    /// Keep one ASCII byte, attributed to physical line `line`.
    fn keep(&mut self, b: u8, line: u32) {
        self.text.push(char::from(b));
        self.first.get_or_insert(line);
        self.last = line;
    }

    /// Keep the ASCII byte at the cursor and step past it.
    fn bump(&mut self, line: u32) {
        self.keep(self.src.as_bytes()[self.pos], line);
        self.pos += 1;
    }

    /// Keep the newline-free bytes from the cursor to `end`.
    fn keep_run(&mut self, end: usize) {
        self.text.push_str(&self.src[self.pos..end]);
        self.first.get_or_insert(self.line);
        self.last = self.line;
        self.pos = end;
    }

    /// Keep the newline at the cursor: it ends the current logical line.
    fn newline(&mut self) {
        let line = self.line;
        self.out.push(LogicalLine {
            text: std::mem::take(&mut self.text),
            first_line: self.first.take().unwrap_or(line),
            last_line: line,
        });
        self.last = line;
        self.pos += 1;
        self.line += 1;
    }

    /// The logical lines, including a last one with no closing newline.
    fn finish(mut self) -> Vec<LogicalLine> {
        if let Some(first_line) = self.first {
            self.out.push(LogicalLine {
                text: self.text,
                first_line,
                last_line: self.last,
            });
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_lines_pass_through() {
        let lls = logical_lines("int a;\nint b;\n");
        assert_eq!(lls.len(), 2);
        assert_eq!(lls[0].text, "int a;");
        assert_eq!((lls[0].first_line, lls[0].last_line), (1, 1));
        assert_eq!(lls[1].first_line, 2);
    }

    #[test]
    fn continuation_splices_and_tracks_range() {
        let lls = logical_lines("#define M(x) \\\n  ((x) + 1)\nint a;\n");
        assert_eq!(lls.len(), 2);
        assert_eq!(lls[0].text, "#define M(x)   ((x) + 1)");
        assert_eq!((lls[0].first_line, lls[0].last_line), (1, 2));
        assert_eq!(lls[1].first_line, 3);
    }

    #[test]
    fn line_comment_is_stripped() {
        let lls = logical_lines("int a; // trailing\nint b;\n");
        assert_eq!(lls[0].text, "int a;  ");
    }

    #[test]
    fn block_comment_becomes_space() {
        let lls = logical_lines("int/*x*/a;\n");
        assert_eq!(lls[0].text, "int a;");
    }

    #[test]
    fn multiline_block_comment_keeps_line_count() {
        let lls = logical_lines("a /* one\ntwo\nthree */ b\nnext\n");
        assert_eq!(lls.len(), 4);
        assert_eq!(lls[0].text, "a  ");
        assert_eq!(lls[1].text, "");
        assert_eq!(lls[2].text, " b");
        assert_eq!(lls[3].text, "next");
        assert_eq!(lls[3].first_line, 4);
    }

    #[test]
    fn comment_markers_inside_strings_are_ignored() {
        let lls = logical_lines("char *s = \"/* not a comment // \";\n");
        assert_eq!(lls[0].text, "char *s = \"/* not a comment // \";");
    }

    #[test]
    fn escaped_quote_in_string() {
        let lls = logical_lines("char *s = \"a\\\"b/*c*/\";\nint x;\n");
        assert_eq!(lls[0].text, "char *s = \"a\\\"b/*c*/\";");
        assert_eq!(lls[1].text, "int x;");
    }

    #[test]
    fn char_literal_with_quote() {
        let lls = logical_lines("char c = '\\''; /* x */ int y;\n");
        assert_eq!(lls[0].text, "char c = '\\'';   int y;");
    }

    #[test]
    fn directive_detection() {
        let lls = logical_lines("  #  define FOO 1\nbar\n");
        assert!(lls[0].is_directive());
        assert_eq!(lls[0].directive(), Some(("define", "FOO 1")));
        assert!(!lls[1].is_directive());
        assert_eq!(lls[1].directive(), None);
    }

    #[test]
    fn directive_with_no_rest() {
        let lls = logical_lines("#endif\n");
        assert_eq!(lls[0].directive(), Some(("endif", "")));
    }

    #[test]
    fn splice_inside_string_literal() {
        let lls = logical_lines("char *s = \"ab\\\ncd\";\n");
        assert_eq!(lls[0].text, "char *s = \"abcd\";");
        assert_eq!((lls[0].first_line, lls[0].last_line), (1, 2));
    }

    #[test]
    fn unterminated_block_comment_runs_out() {
        let lls = logical_lines("a /* never closed\nmore\n");
        assert_eq!(lls[0].text, "a  ");
        assert_eq!(lls[1].text, "");
    }

    #[test]
    fn no_trailing_newline_still_yields_line() {
        let lls = logical_lines("int x;");
        assert_eq!(lls.len(), 1);
        assert_eq!(lls[0].text, "int x;");
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(logical_lines("").is_empty());
    }
}
