//! Preprocessing-token lexer.
//!
//! Operates on *clean* text (comments already removed by
//! [`crate::lines::logical_lines`]) but tolerates raw text too: `//` and
//! `/*` sequences are lexed as punctuators in that case, so callers that
//! need comment semantics must clean first.

use crate::token::{Token, TokenKind};

/// Lex `text` into preprocessing tokens.
///
/// `line` is the 1-based source line attributed to the tokens (callers
/// lexing a logical line pass its first physical line).
///
/// Characters that cannot begin any C token become [`TokenKind::Other`]
/// tokens — this is what makes JMake's mutation glyph detectable and what
/// makes the front-end validator reject mutated files.
pub fn lex(text: &str, line: u32) -> Vec<Token> {
    Scanner::new(text)
        .map(|(kind, text, space_before)| Token {
            kind,
            text: text.to_string(),
            space_before,
            line,
        })
        .collect()
}

/// The tokenizer behind [`lex`] and [`crate::validate`]: yields each
/// token's kind, its text borrowed from the input, and whether whitespace
/// preceded it, without allocating.
///
/// It works on bytes. Every byte that can begin or end a token other
/// than [`TokenKind::Other`] is ASCII, and a UTF-8 continuation byte is
/// never ASCII, so token boundaries always fall on character boundaries.
/// A non-ASCII character is decoded only where a token could start: it
/// is skipped as whitespace when `char::is_whitespace` says so (U+00A0,
/// U+2028, U+3000, …) and is an `Other` token otherwise.
pub(crate) struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Scanner { text, pos: 0 }
    }
}

impl<'a> Iterator for Scanner<'a> {
    type Item = (TokenKind, &'a str, bool);

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.text.as_bytes();
        let mut space_before = false;
        loop {
            let start = self.pos;
            let &b = bytes.get(start)?;
            let (kind, end) = match b {
                // ASCII whitespace as `char::is_whitespace` has it.
                b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r' => {
                    space_before = true;
                    self.pos += 1;
                    continue;
                }
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                    let mut i = start + 1;
                    while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric())
                    {
                        i += 1;
                    }
                    // Wide/encoded string or char prefixes: L"..." u8"..." etc.
                    match bytes.get(i) {
                        Some(&q @ (b'"' | b'\''))
                            if matches!(&bytes[start..i], b"L" | b"u" | b"U" | b"u8") =>
                        {
                            (quoted_kind(q), scan_quoted(bytes, i, q))
                        }
                        _ => (TokenKind::Ident, i),
                    }
                }
                b'0'..=b'9' => (TokenKind::Number, scan_number(bytes, start)),
                b'.' if bytes.get(start + 1).is_some_and(u8::is_ascii_digit) => {
                    (TokenKind::Number, scan_number(bytes, start))
                }
                b'"' | b'\'' => (quoted_kind(b), scan_quoted(bytes, start, b)),
                _ if b.is_ascii() => match punct_len(&bytes[start..]) {
                    0 => (TokenKind::Other(char::from(b)), start + 1),
                    n => (TokenKind::Punct, start + n),
                },
                _ => {
                    let c = self.text[start..]
                        .chars()
                        .next()
                        .expect("a non-ASCII lead byte starts a character");
                    if c.is_whitespace() {
                        space_before = true;
                        self.pos += c.len_utf8();
                        continue;
                    }
                    (TokenKind::Other(c), start + c.len_utf8())
                }
            };
            self.pos = end;
            return Some((kind, &self.text[start..end], space_before));
        }
    }
}

fn quoted_kind(quote: u8) -> TokenKind {
    if quote == b'"' {
        TokenKind::Str
    } else {
        TokenKind::Char
    }
}

/// Scan a pp-number starting at `start`: digits, letters, `_`, dots, and
/// a sign right after an exponent letter. Returns the index just past it.
fn scan_number(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        let d = bytes[i];
        let continues = d == b'_'
            || d.is_ascii_alphanumeric()
            || d == b'.'
            || ((d == b'+' || d == b'-') && matches!(bytes[i - 1], b'e' | b'E' | b'p' | b'P'));
        if !continues {
            break;
        }
        i += 1;
    }
    i
}

/// Scan a quoted literal starting at the opening quote index; returns the
/// index just past the closing quote (or end of text if unterminated).
/// A backslash escapes the whole next character: stepping past its first
/// byte is enough, because a continuation byte is never a quote or a
/// backslash.
fn scan_quoted(bytes: &[u8], open: usize, quote: u8) -> usize {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            c if c == quote => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Length of the longest punctuator `rest` starts with (maximal munch),
/// or 0 when its first byte begins none.
fn punct_len(rest: &[u8]) -> usize {
    let second = rest.get(1).copied();
    let third = rest.get(2).copied();
    match (rest[0], second) {
        (b'<', Some(b'<')) | (b'>', Some(b'>')) if third == Some(b'=') => 3,
        (b'.', Some(b'.')) if third == Some(b'.') => 3,
        (b'-', Some(b'>' | b'-' | b'='))
        | (b'+', Some(b'+' | b'='))
        | (b'<', Some(b'<' | b'='))
        | (b'>', Some(b'>' | b'='))
        | (b'&', Some(b'&' | b'='))
        | (b'|', Some(b'|' | b'='))
        | (b'=' | b'!' | b'*' | b'/' | b'%' | b'^', Some(b'='))
        | (b'#', Some(b'#')) => 2,
        (
            b'#' | b'[' | b']' | b'(' | b')' | b'{' | b'}' | b'.' | b'&' | b'*' | b'+' | b'-'
            | b'~' | b'!' | b'/' | b'%' | b'<' | b'>' | b'^' | b'|' | b'?' | b':' | b';' | b'='
            | b',',
            _,
        ) => 1,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<(TokenKind, String)> {
        lex(text, 1).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lexes_declaration() {
        let ts = kinds("static int x = 42;");
        assert_eq!(
            ts,
            vec![
                (TokenKind::Ident, "static".into()),
                (TokenKind::Ident, "int".into()),
                (TokenKind::Ident, "x".into()),
                (TokenKind::Punct, "=".into()),
                (TokenKind::Number, "42".into()),
                (TokenKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn maximal_munch_on_punctuators() {
        let ts = kinds("a<<=b>>c##d");
        let puncts: Vec<String> = ts
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(puncts, vec!["<<=", ">>", "##"]);
    }

    #[test]
    fn pp_numbers_include_suffixes_and_exponents() {
        assert_eq!(kinds("0xFFUL")[0], (TokenKind::Number, "0xFFUL".into()));
        assert_eq!(kinds("1.5e-3f")[0], (TokenKind::Number, "1.5e-3f".into()));
        assert_eq!(kinds(".5")[0], (TokenKind::Number, ".5".into()));
    }

    #[test]
    fn dot_alone_is_punct() {
        assert_eq!(kinds("a.b")[1], (TokenKind::Punct, ".".into()));
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            kinds("\"a\\\"b\"")[0],
            (TokenKind::Str, "\"a\\\"b\"".into())
        );
        assert_eq!(kinds("'\\n'")[0], (TokenKind::Char, "'\\n'".into()));
    }

    #[test]
    fn wide_string_prefix() {
        assert_eq!(kinds("L\"x\"")[0], (TokenKind::Str, "L\"x\"".into()));
        // But a normal identifier before a string stays separate.
        let ts = kinds("Lx \"y\"");
        assert_eq!(ts[0], (TokenKind::Ident, "Lx".into()));
        assert_eq!(ts[1], (TokenKind::Str, "\"y\"".into()));
    }

    #[test]
    fn mutation_glyph_is_other() {
        let ts = kinds("\u{2261}\"define:f.c:49\"");
        assert_eq!(ts[0], (TokenKind::Other('\u{2261}'), "\u{2261}".into()));
        assert_eq!(ts[1], (TokenKind::Str, "\"define:f.c:49\"".into()));
        assert!(!ts[1].1.is_empty());
    }

    #[test]
    fn non_ascii_whitespace_separates_and_other_characters_are_tokens() {
        let ts = lex("a\u{a0}b\u{3000}\u{e9}", 1);
        let texts: Vec<_> = ts.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "b", "\u{e9}"]);
        assert!(ts[1].space_before && ts[2].space_before);
        assert_eq!(ts[2].kind, TokenKind::Other('\u{e9}'));
    }

    #[test]
    fn at_sign_and_backtick_are_other() {
        assert!(matches!(kinds("@")[0].0, TokenKind::Other('@')));
        assert!(matches!(kinds("`")[0].0, TokenKind::Other('`')));
    }

    #[test]
    fn space_before_is_tracked() {
        let ts = lex("a + b", 7);
        assert!(!ts[0].space_before);
        assert!(ts[1].space_before);
        assert!(ts[2].space_before);
        assert_eq!(ts[0].line, 7);
    }

    #[test]
    fn unterminated_string_consumes_rest() {
        let ts = kinds("\"abc");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0], (TokenKind::Str, "\"abc".into()));
    }

    #[test]
    fn hash_variants() {
        let ts = kinds("# ## #");
        let texts: Vec<_> = ts.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(texts, vec!["#", "##", "#"]);
    }

    #[test]
    fn ellipsis() {
        assert_eq!(kinds("...")[0], (TokenKind::Punct, "...".into()));
    }
}
