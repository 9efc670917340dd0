//! Property tests over the preprocessor stack.

use crate::analyze::comment_scan;
use crate::lexer::lex;
use crate::lines::logical_lines;
use crate::macros::{MacroDef, MacroTable};
use crate::preprocess::{MapResolver, Preprocessor};
use crate::syntax::validate;
use crate::token::{render_tokens, TokenKind};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// A small C-ish source generator: lines of declarations, macro defs,
/// conditionals, and comments.
fn c_source() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        "[a-z]{1,6}".prop_map(|v| format!("int {v};")),
        "[a-z]{1,6}".prop_map(|v| format!("static long {v} = 42;")),
        ("[A-Z]{1,6}", 0u32..99).prop_map(|(n, v)| format!("#define {n} {v}")),
        "[A-Z]{1,6}".prop_map(|n| format!("#ifdef {n}")),
        Just("#else".to_string()),
        Just("#endif".to_string()),
        Just("/* a comment */".to_string()),
        Just("// line comment".to_string()),
        ("[a-z]{1,4}", "[a-z]{1,4}").prop_map(|(a, b)| format!("{a}({b});")),
    ];
    prop::collection::vec(line, 0..30).prop_map(|ls| {
        // Balance conditionals so the source is well-formed.
        let mut depth = 0i32;
        let mut out = Vec::new();
        for l in ls {
            if l.starts_with("#ifdef") {
                depth += 1;
            } else if l == "#endif" {
                if depth == 0 {
                    continue;
                }
                depth -= 1;
            } else if l == "#else" && depth == 0 {
                continue;
            }
            out.push(l);
        }
        for _ in 0..depth {
            out.push("#endif".to_string());
        }
        if out.is_empty() {
            String::new()
        } else {
            out.join("\n") + "\n"
        }
    })
}

/// Pieces of C-ish text that meet at every boundary the byte-level
/// kernels treat specially: splices (including `\`+CRLF and a lone
/// `\r`), comment delimiters, quotes with escapes and encoding prefixes,
/// pp-numbers with exponent signs, every punctuator, bytes that are no C
/// token, and non-ASCII characters, whitespace among them.
const ATOMS: &[&str] = &[
    "\\\n",
    "\\\r\n",
    "\\",
    "\r",
    "\n",
    "\r\n",
    " ",
    "\t",
    "\x0b",
    "\x0c",
    "//",
    "/*",
    "*/",
    "/",
    "*",
    "\"",
    "'",
    "\\\"",
    "\\'",
    "\\\\",
    "\\n",
    "L\"",
    "u8'",
    "U'",
    "u\"",
    "u8\"",
    "L'",
    "L",
    "u",
    "U",
    "u8",
    "x",
    "_a1",
    "define",
    "#define",
    "#if",
    "#ifdef X",
    "#elif",
    "#else",
    "#endif",
    "#",
    "##",
    "1",
    "0x1",
    "1e+",
    "1E-",
    "0x1p-",
    "2P+",
    ".5",
    ".",
    "...",
    "e",
    "p",
    "+",
    "-",
    "<<=",
    ">>=",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "^=",
    "|=",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    "&",
    "~",
    "!",
    "%",
    "<",
    ">",
    "^",
    "|",
    "?",
    ":",
    ";",
    "=",
    ",",
    "@",
    "$",
    "`",
    "\0",
    "\x01",
    "\x1f",
    "\x7f",
    "\u{e9}",
    "\u{a0}",
    "\u{85}",
    "\u{2028}",
    "\u{3000}",
    "\u{2261}",
    "\u{1f600}",
];

/// Strategy: up to 40 atoms, concatenated.
fn atom_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ATOMS.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| ATOMS[i]).collect())
}

/// Names a macro-table script writes; a small pool, so redefinitions,
/// undefs of live names and undefs of unknown names all occur.
const SCRIPT_NAMES: [&str; 5] = ["A", "B", "C", "CONFIG_X", "MODULE"];

/// Strategy: a macro-table script of `(op, copy, name, body)` steps. Ops
/// 0–1 define `SCRIPT_NAMES[name]` with one of three bodies, 2 undefines
/// it, 3 clones the copy, 4 freezes it; `copy` is taken modulo the number
/// of live copies.
fn table_script() -> impl Strategy<Value = Vec<(u8, usize, usize, u8)>> {
    prop::collection::vec((0u8..5, 0usize..8, 0usize..5, 0u8..3), 0..80)
}

fn script_def(name: usize, body: u8) -> MacroDef {
    let name = SCRIPT_NAMES[name];
    match body {
        0 => MacroDef::object(name, "1"),
        1 => MacroDef::object(name, "(2 + x)"),
        _ => MacroDef::function(name, vec!["x".to_string()], "(x)"),
    }
}

/// `table` answers every query exactly as its `HashMap` model does, and
/// its running fingerprint equals that of a table built fresh from the
/// model's definitions.
fn assert_table_matches(table: &MacroTable, model: &HashMap<String, MacroDef>) {
    for name in SCRIPT_NAMES {
        prop_assert_eq!(table.get(name), model.get(name));
        prop_assert_eq!(table.is_defined(name), model.contains_key(name));
    }
    prop_assert_eq!(table.len(), model.len());
    prop_assert_eq!(table.names().count(), model.len(), "a name listed twice");
    let names: BTreeSet<&str> = table.names().collect();
    prop_assert_eq!(
        names,
        model.keys().map(String::as_str).collect::<BTreeSet<_>>()
    );
    let mut fresh = MacroTable::new();
    for def in model.values() {
        fresh.define(def.clone());
    }
    prop_assert_eq!(table.fingerprint(), fresh.fingerprint());
}

proptest! {
    /// The copy-on-write table is equivalent to a plain map: after every
    /// define, redefine, undef, clone or freeze, each copy matches its own
    /// model — so a write to one copy never shows in another, whether the
    /// name lives in the shared base or the copy's overlay.
    #[test]
    fn cow_macro_table_is_equivalent_to_a_map_model(script in table_script()) {
        let mut copies = vec![(MacroTable::new(), HashMap::new())];
        for (op, copy, name, body) in script {
            let i = copy % copies.len();
            let (table, model) = &mut copies[i];
            match op {
                0 | 1 => {
                    let def = script_def(name, body);
                    model.insert(def.name.clone(), def.clone());
                    table.define(def);
                }
                2 => {
                    table.undef(SCRIPT_NAMES[name]);
                    model.remove(SCRIPT_NAMES[name]);
                }
                3 => {
                    let twin = copies[i].clone();
                    copies.push(twin);
                }
                _ => table.freeze(),
            }
            for (table, model) in &copies {
                assert_table_matches(table, model);
            }
        }
    }

    /// Preprocessing well-formed conditional structure raises no
    /// conditional-nesting diagnostics and terminates.
    #[test]
    fn preprocess_never_panics_and_conditionals_balance(src in c_source()) {
        let out = Preprocessor::new(MapResolver::new()).preprocess("p.c", &src);
        for e in &out.errors {
            prop_assert!(
                !matches!(e.kind, crate::error::CppErrorKind::UnterminatedConditional),
                "balanced source produced {e}"
            );
        }
    }

    /// The .i output of a clean run re-validates (no invalid characters,
    /// balanced or at worst unbalanced the same way the source was).
    #[test]
    fn clean_output_has_no_directives(src in c_source()) {
        let out = Preprocessor::new(MapResolver::new()).preprocess("p.c", &src);
        for line in out.text.lines() {
            let t = line.trim_start();
            if let Some(rest) = t.strip_prefix('#') {
                // Only line markers may remain.
                prop_assert!(rest.trim_start().chars().next().is_none_or(|c| c.is_ascii_digit()),
                    "directive leaked into .i: {line}");
            }
        }
    }

    /// Lexing is total and every non-whitespace char lands in some token.
    #[test]
    fn lexer_is_total(s in "[ -~]{0,60}") {
        let toks = lex(&s, 1);
        let nonws: usize = s.chars().filter(|c| !c.is_whitespace()).count();
        // Unterminated literals may absorb whitespace; count non-whitespace
        // coverage, which must be exact.
        let covered: usize = toks
            .iter()
            .flat_map(|t| t.text.chars())
            .filter(|c| !c.is_whitespace())
            .count();
        prop_assert_eq!(nonws, covered);
    }

    /// render ∘ lex preserves the token stream (lex(render(lex(s))) == lex(s)).
    #[test]
    fn relex_of_render_is_stable(s in "[ -~]{0,60}") {
        let toks = lex(&s, 1);
        let rendered = render_tokens(&toks);
        let again = lex(&rendered, 1);
        let a: Vec<(&TokenKind, &str)> = toks.iter().map(|t| (&t.kind, t.text.as_str())).collect();
        let b: Vec<(&TokenKind, &str)> = again.iter().map(|t| (&t.kind, t.text.as_str())).collect();
        prop_assert_eq!(a, b);
    }

    /// logical_lines covers every physical line exactly once, in order.
    #[test]
    fn logical_lines_cover_all_physical_lines(src in c_source()) {
        let lls = logical_lines(&src);
        let physical = src.lines().count() as u32;
        let mut next = 1u32;
        for ll in &lls {
            prop_assert!(ll.first_line >= next);
            prop_assert!(ll.last_line >= ll.first_line);
            next = ll.last_line + 1;
        }
        prop_assert!(next >= physical, "lost trailing lines");
    }

    /// validate accepts everything a clean preprocess of generated C emits.
    #[test]
    fn validator_accepts_clean_i_files(src in c_source()) {
        let out = Preprocessor::new(MapResolver::new()).preprocess("p.c", &src);
        if out.is_clean() {
            match validate(&out.text) {
                Ok(()) | Err(crate::error::SyntaxError::EmptyTranslationUnit) => {}
                Err(e) => {
                    // Generated code has balanced parens per line only when
                    // parens appear in calls; our generator always closes.
                    prop_assert!(false, "validator rejected clean output: {e}\n{}", out.text);
                }
            }
        }
    }

    /// The byte-level lexer yields exactly the tokens of the char-level
    /// one it replaced (kind, text, spacing and line).
    #[test]
    fn lex_is_equivalent_to_the_char_lexer(s in atom_soup()) {
        prop_assert_eq!(lex(&s, 7), reference::lex(&s, 7), "{:?}", s);
    }

    /// The one-pass splitter yields exactly the logical lines of the
    /// three-pass one it replaced.
    #[test]
    fn logical_lines_are_equivalent_to_the_three_pass_splitter(s in atom_soup()) {
        prop_assert_eq!(logical_lines(&s), reference::logical_lines(&s), "{:?}", s);
    }

    /// The byte-level comment scan yields exactly the per-line facts of
    /// the char-level one, so `analyze` (a pure function of those facts
    /// and of `logical_lines`) is unchanged too.
    #[test]
    fn comment_scan_is_equivalent_to_the_char_scan(s in atom_soup()) {
        prop_assert_eq!(comment_scan(&s), reference::comment_scan(&s), "{:?}", s);
    }

    /// `validate` over the borrowing scanner returns exactly the verdict
    /// of the `lex`-based validator it replaced.
    #[test]
    fn validate_is_equivalent_to_the_lex_based_validator(s in atom_soup()) {
        prop_assert_eq!(validate(&s), reference::validate(&s), "{:?}", s);
    }

    /// `LogicalLine::directive` scanning the name bytewise splits every
    /// logical line exactly as the char scan it replaced.
    #[test]
    fn directive_is_equivalent_to_the_char_scan(s in atom_soup()) {
        for ll in logical_lines(&s) {
            prop_assert_eq!(ll.directive(), reference::directive(&ll), "{:?}", s);
        }
    }
}

/// The char-level kernels the byte-level ones replaced, kept verbatim as
/// the equivalence properties' references.
mod reference {
    use crate::analyze::LineInfo;
    use crate::error::SyntaxError;
    use crate::lines::LogicalLine;
    use crate::token::{Token, TokenKind};

    /// For a directive line, the directive name (`define`, `if`, …) and the
    /// rest of the line.
    pub(super) fn directive(ll: &LogicalLine) -> Option<(&str, &str)> {
        let t = ll.text.trim_start();
        let t = t.strip_prefix('#')?;
        let t = t.trim_start();
        let end = t
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .unwrap_or(t.len());
        Some((&t[..end], t[end..].trim_start()))
    }

    /// Multi-character punctuators, longest first so maximal munch works.
    const PUNCTS: &[&str] = &[
        "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
        "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "##", "#", "[", "]", "(", ")", "{", "}",
        ".", "&", "*", "+", "-", "~", "!", "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",",
    ];

    /// Lex `text` into preprocessing tokens.
    ///
    /// `line` is the 1-based source line attributed to the tokens (callers
    /// lexing a logical line pass its first physical line).
    ///
    /// Characters that cannot begin any C token become [`TokenKind::Other`]
    /// tokens — this is what makes JMake's mutation glyph detectable and what
    /// makes the front-end validator reject mutated files.
    pub(super) fn lex(text: &str, line: u32) -> Vec<Token> {
        let chars: Vec<char> = text.chars().collect();
        let mut out = Vec::new();
        let mut i = 0;
        let mut space_before = false;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                space_before = true;
                i += 1;
                continue;
            }
            let start = i;
            let kind;
            if c == '_' || c.is_ascii_alphabetic() {
                while i < chars.len() && (chars[i] == '_' || chars[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                // Wide/encoded string or char prefixes: L"..." u8"..." etc.
                if i < chars.len()
                    && (chars[i] == '"' || chars[i] == '\'')
                    && is_literal_prefix(&chars[start..i])
                {
                    let quote = chars[i];
                    i = scan_quoted(&chars, i, quote);
                    kind = if quote == '"' {
                        TokenKind::Str
                    } else {
                        TokenKind::Char
                    };
                } else {
                    kind = TokenKind::Ident;
                }
            } else if c.is_ascii_digit()
                || (c == '.' && matches!(chars.get(i + 1), Some(d) if d.is_ascii_digit()))
            {
                // pp-number: digits, letters, dots, and exponent signs.
                i += 1;
                while i < chars.len() {
                    let d = chars[i];
                    let continues = d == '_'
                        || d.is_ascii_alphanumeric()
                        || d == '.'
                        || ((d == '+' || d == '-')
                            && matches!(chars[i - 1], 'e' | 'E' | 'p' | 'P'));
                    if !continues {
                        break;
                    }
                    i += 1;
                }
                kind = TokenKind::Number;
            } else if c == '"' {
                i = scan_quoted(&chars, i, '"');
                kind = TokenKind::Str;
            } else if c == '\'' {
                i = scan_quoted(&chars, i, '\'');
                kind = TokenKind::Char;
            } else if let Some(p) = match_punct(&chars[i..]) {
                i += p.chars().count();
                kind = TokenKind::Punct;
            } else {
                i += 1;
                kind = TokenKind::Other(c);
            }
            out.push(Token {
                kind,
                text: chars[start..i].iter().collect(),
                space_before,
                line,
            });
            space_before = false;
        }
        out
    }

    fn is_literal_prefix(chars: &[char]) -> bool {
        let s: String = chars.iter().collect();
        matches!(s.as_str(), "L" | "u" | "U" | "u8")
    }

    /// Scan a quoted literal starting at the opening quote index; returns the
    /// index just past the closing quote (or end of text if unterminated).
    fn scan_quoted(chars: &[char], open: usize, quote: char) -> usize {
        let mut i = open + 1;
        while i < chars.len() {
            match chars[i] {
                '\\' => i += 2,
                c if c == quote => return i + 1,
                _ => i += 1,
            }
        }
        chars.len()
    }

    fn match_punct(rest: &[char]) -> Option<&'static str> {
        PUNCTS.iter().copied().find(|p| {
            p.chars().zip(rest.iter()).filter(|(a, b)| a == *b).count() == p.chars().count()
                && rest.len() >= p.chars().count()
        })
    }

    /// Split source into logical lines: splice `\`-newline, strip comments
    /// (string- and char-literal aware), and record physical line ranges.
    ///
    /// Unterminated block comments run to end of file, like gcc with a warning;
    /// unterminated string literals end at the newline (the front-end validator
    /// reports those).
    pub(super) fn logical_lines(src: &str) -> Vec<LogicalLine> {
        // Phase 2: splice. Build (char, physical_line) stream.
        let mut spliced: Vec<(char, u32)> = Vec::with_capacity(src.len());
        let mut line = 1u32;
        let bytes: Vec<char> = src.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            if c == '\\' && matches!(bytes.get(i + 1), Some('\n')) {
                line += 1;
                i += 2;
                continue;
            }
            if c == '\\'
                && matches!(bytes.get(i + 1), Some('\r'))
                && matches!(bytes.get(i + 2), Some('\n'))
            {
                line += 1;
                i += 3;
                continue;
            }
            spliced.push((c, line));
            if c == '\n' {
                line += 1;
            }
            i += 1;
        }

        // Phase 3: comments → single space.
        #[derive(PartialEq)]
        enum St {
            Code,
            Str,
            Chr,
            LineComment,
            BlockComment,
        }
        let mut st = St::Code;
        let mut clean: Vec<(char, u32)> = Vec::with_capacity(spliced.len());
        let mut i = 0;
        while i < spliced.len() {
            let (c, ln) = spliced[i];
            let next = spliced.get(i + 1).map(|&(c, _)| c);
            match st {
                St::Code => match c {
                    '/' if next == Some('/') => {
                        st = St::LineComment;
                        clean.push((' ', ln));
                        i += 2;
                        continue;
                    }
                    '/' if next == Some('*') => {
                        st = St::BlockComment;
                        clean.push((' ', ln));
                        i += 2;
                        continue;
                    }
                    '"' => {
                        st = St::Str;
                        clean.push((c, ln));
                    }
                    '\'' => {
                        st = St::Chr;
                        clean.push((c, ln));
                    }
                    _ => clean.push((c, ln)),
                },
                St::Str => {
                    clean.push((c, ln));
                    if c == '\\' {
                        if let Some(&(nc, nln)) = spliced.get(i + 1) {
                            clean.push((nc, nln));
                            i += 2;
                            continue;
                        }
                    } else if c == '"' || c == '\n' {
                        st = St::Code;
                    }
                }
                St::Chr => {
                    clean.push((c, ln));
                    if c == '\\' {
                        if let Some(&(nc, nln)) = spliced.get(i + 1) {
                            clean.push((nc, nln));
                            i += 2;
                            continue;
                        }
                    } else if c == '\'' || c == '\n' {
                        st = St::Code;
                    }
                }
                St::LineComment => {
                    if c == '\n' {
                        st = St::Code;
                        clean.push((c, ln));
                    }
                    // else: drop comment char
                }
                St::BlockComment => {
                    if c == '*' && next == Some('/') {
                        st = St::Code;
                        i += 2;
                        continue;
                    }
                    if c == '\n' {
                        // Keep the newline so a directive cannot absorb the
                        // following line, but the logical line range records it.
                        clean.push((c, ln));
                    }
                }
            }
            i += 1;
        }

        // Split at newlines into logical lines. A block comment that spanned
        // lines left its newlines in place, so directives stay line-bounded.
        let mut out = Vec::new();
        let mut text = String::new();
        let mut first: Option<u32> = None;
        let mut last = 1u32;
        for (c, ln) in clean {
            if first.is_none() {
                first = Some(ln);
            }
            last = ln;
            if c == '\n' {
                out.push(LogicalLine {
                    text: std::mem::take(&mut text),
                    first_line: first.take().unwrap_or(ln),
                    last_line: ln,
                });
            } else {
                text.push(c);
            }
        }
        if first.is_some() || !text.is_empty() {
            out.push(LogicalLine {
                text,
                first_line: first.unwrap_or(last),
                last_line: last,
            });
        }
        out
    }

    /// Per-line comment facts via a char-level scan of the raw source.
    pub(super) fn comment_scan(src: &str) -> Vec<LineInfo> {
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
            let bytes: Vec<(usize, char)> = raw.char_indices().collect();
            let mut i = 0;
            while i < bytes.len() {
                let (pos, c) = bytes[i];
                let next = bytes.get(i + 1).map(|&(_, c)| c);
                match st {
                    St::Code => match c {
                        '/' if next == Some('/') => {
                            st = St::LineComment;
                            i += 2;
                            continue;
                        }
                        '/' if next == Some('*') => {
                            st = St::BlockComment;
                            i += 2;
                            continue;
                        }
                        '"' => {
                            has_code = true;
                            st = St::Str;
                        }
                        '\'' => {
                            has_code = true;
                            st = St::Chr;
                        }
                        c if c.is_whitespace() => {}
                        '\\' => {} // continuation backslash
                        _ => has_code = true,
                    },
                    St::Str => {
                        if c == '\\' {
                            i += 2;
                            continue;
                        }
                        if c == '"' {
                            st = St::Code;
                        }
                    }
                    St::Chr => {
                        if c == '\\' {
                            i += 2;
                            continue;
                        }
                        if c == '\'' {
                            st = St::Code;
                        }
                    }
                    St::LineComment => {}
                    St::BlockComment => {
                        if c == '*' && next == Some('/') {
                            st = St::Code;
                            if info.starts_in_comment && info.comment_close_col.is_none() {
                                info.comment_close_col = Some(pos + 2);
                            }
                            i += 2;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            // Line comments and unterminated string/char states end at newline.
            if st == St::LineComment {
                st = St::Code;
            }
            if st == St::Str || st == St::Chr {
                st = St::Code;
            }
            info.comment_only = !has_code && !raw.trim().is_empty();
            out.push(info);
        }
        out
    }

    pub(super) fn validate(i_text: &str) -> Result<(), SyntaxError> {
        let mut stack: Vec<(char, u32)> = Vec::new();
        let mut any_tokens = false;
        for (idx, line) in i_text.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            if line.trim_start().starts_with('#') {
                continue; // line marker or residual directive text
            }
            for t in lex(line, line_no) {
                any_tokens = true;
                match &t.kind {
                    TokenKind::Other(c) => {
                        return Err(SyntaxError::InvalidCharacter {
                            ch: *c,
                            line: line_no,
                        });
                    }
                    TokenKind::Str if !closes_quoted(&t.text, '"') => {
                        return Err(SyntaxError::UnterminatedLiteral { line: line_no });
                    }
                    TokenKind::Char if !closes_quoted(&t.text, '\'') => {
                        return Err(SyntaxError::UnterminatedLiteral { line: line_no });
                    }
                    TokenKind::Punct => match t.text.as_str() {
                        "(" | "[" | "{" => {
                            stack.push((t.text.chars().next().expect("non-empty"), line_no))
                        }
                        ")" | "]" | "}" => {
                            let close = t.text.chars().next().expect("non-empty");
                            let expected_open = match close {
                                ')' => '(',
                                ']' => '[',
                                _ => '{',
                            };
                            match stack.pop() {
                                Some((open, _)) if open == expected_open => {}
                                _ => {
                                    return Err(SyntaxError::UnbalancedDelimiter {
                                        ch: close,
                                        line: line_no,
                                    })
                                }
                            }
                        }
                        _ => {}
                    },
                    _ => {}
                }
            }
        }
        if let Some(&(open, line)) = stack.first() {
            return Err(SyntaxError::UnbalancedDelimiter { ch: open, line });
        }
        if !any_tokens {
            return Err(SyntaxError::EmptyTranslationUnit);
        }
        Ok(())
    }

    /// A lexed literal is terminated iff it ends with the quote and is longer
    /// than the opening (after skipping any L/u/U prefix).
    fn closes_quoted(text: &str, quote: char) -> bool {
        let body = text.trim_start_matches(|c: char| c != quote && c != '"' && c != '\'');
        body.len() >= 2 && body.ends_with(quote)
    }
}
