//! Preprocessing tokens.

use std::fmt;

/// The kind of a preprocessing token.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// An identifier or keyword (`foo`, `int`, `CONFIG_X86`).
    Ident,
    /// A pp-number (`42`, `0xff`, `1.5e3`, `0UL`).
    Number,
    /// A string literal, text includes the quotes (`"abc"`, `L"x"`).
    Str,
    /// A character constant, text includes the quotes (`'a'`, `'\n'`).
    Char,
    /// A punctuator (`+`, `<<=`, `...`, `##`).
    Punct,
    /// Any character that is not part of valid C source — JMake's mutation
    /// glyph lands here. The compiler front end rejects these.
    Other(char),
}

/// One preprocessing token, with enough layout information to re-render the
/// stream faithfully.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Exact source text of the token.
    pub text: String,
    /// Whether whitespace (or a comment) preceded this token.
    pub space_before: bool,
    /// 1-based source line the token started on (0 for synthesized tokens).
    pub line: u32,
}

impl Token {
    /// Construct a token.
    pub fn new(kind: TokenKind, text: impl Into<String>, space_before: bool, line: u32) -> Self {
        Token {
            kind,
            text: text.into(),
            space_before,
            line,
        }
    }

    /// An identifier token with no provenance (used when synthesizing
    /// expansion results).
    pub fn ident(text: impl Into<String>) -> Self {
        Token::new(TokenKind::Ident, text, true, 0)
    }

    /// A punctuator token with no provenance.
    pub fn punct(text: impl Into<String>) -> Self {
        Token::new(TokenKind::Punct, text, false, 0)
    }

    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// True if this token is the punctuator `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Render a token slice back to text, honouring `space_before` but never
/// letting two tokens fuse into a different token (a conservative space is
/// inserted between adjacent identifiers/numbers).
pub fn render_tokens(tokens: &[Token]) -> String {
    let mut out = String::new();
    render_into(&mut out, tokens);
    out
}

/// [`render_tokens`], appending to `out`.
pub(crate) fn render_into(out: &mut String, tokens: &[Token]) {
    let start = out.len();
    let mut prev_kind: Option<&TokenKind> = None;
    for t in tokens {
        let need_space = t.space_before
            || matches!(
                (prev_kind, &t.kind),
                (
                    Some(TokenKind::Ident | TokenKind::Number),
                    TokenKind::Ident | TokenKind::Number
                )
            );
        if need_space && out.len() > start {
            out.push(' ');
        }
        out.push_str(&t.text);
        prev_kind = Some(&t.kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_preserves_adjacency() {
        let tokens = vec![
            Token::new(TokenKind::Ident, "x", false, 1),
            Token::new(TokenKind::Punct, "++", false, 1),
            Token::new(TokenKind::Ident, "y", true, 1),
        ];
        assert_eq!(render_tokens(&tokens), "x++ y");
    }

    #[test]
    fn render_inserts_protective_space_between_idents() {
        let tokens = vec![
            Token::new(TokenKind::Ident, "unsigned", false, 1),
            Token::new(TokenKind::Ident, "int", false, 1),
        ];
        assert_eq!(render_tokens(&tokens), "unsigned int");
    }

    #[test]
    fn glyph_string_adjacency_survives() {
        // The mutation marker: glyph immediately followed by a string.
        let tokens = vec![
            Token::new(TokenKind::Other('\u{2261}'), "\u{2261}", true, 1),
            Token::new(TokenKind::Str, "\"define:f.c:49\"", false, 1),
        ];
        assert_eq!(render_tokens(&tokens), "\u{2261}\"define:f.c:49\"");
    }

    #[test]
    fn helpers_classify() {
        assert!(Token::ident("foo").is_ident("foo"));
        assert!(!Token::ident("foo").is_ident("bar"));
        assert!(Token::punct("##").is_punct("##"));
    }
}
