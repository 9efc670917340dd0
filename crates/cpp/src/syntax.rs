//! The compiler front-end stand-in.
//!
//! Paper §III.A: "JMake will not be able to produce a `.s`, `.lst`, or `.o`
//! file from a mutated file, as all of these are only generated for files
//! that pass all the verifications of the compiler front end." This module
//! is that verification: it re-lexes a preprocessed translation unit and
//! rejects exactly the constructs that make mutated source unacceptable —
//! invalid characters, unterminated literals, unbalanced bracketing — while
//! accepting any ordinary C token stream.

use crate::error::SyntaxError;
use crate::lexer::Scanner;
use crate::token::TokenKind;

/// Validate a preprocessed (`.i`) translation unit.
///
/// Checks performed, in order per line:
///
/// 1. `# line "file"` markers are skipped (they are not program text);
/// 2. every token must be valid C — [`TokenKind::Other`] is rejected
///    ([`SyntaxError::InvalidCharacter`]);
/// 3. string and character literals must close before end of line
///    ([`SyntaxError::UnterminatedLiteral`]);
/// 4. `()`, `[]`, `{}` must balance across the whole unit
///    ([`SyntaxError::UnbalancedDelimiter`]);
/// 5. the unit must contain at least one token
///    ([`SyntaxError::EmptyTranslationUnit`]).
///
/// # Errors
///
/// The first failure found, as a [`SyntaxError`].
pub fn validate(i_text: &str) -> Result<(), SyntaxError> {
    let mut stack: Vec<(char, u32)> = Vec::new();
    let mut any_tokens = false;
    for (idx, line) in i_text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        if line.trim_start().starts_with('#') {
            continue; // line marker or residual directive text
        }
        for (kind, text, _) in Scanner::new(line) {
            any_tokens = true;
            match kind {
                TokenKind::Other(ch) => {
                    return Err(SyntaxError::InvalidCharacter { ch, line: line_no });
                }
                TokenKind::Str if !closes_quoted(text, '"') => {
                    return Err(SyntaxError::UnterminatedLiteral { line: line_no });
                }
                TokenKind::Char if !closes_quoted(text, '\'') => {
                    return Err(SyntaxError::UnterminatedLiteral { line: line_no });
                }
                TokenKind::Punct => match text {
                    "(" | "[" | "{" => {
                        stack.push((text.chars().next().expect("non-empty"), line_no))
                    }
                    ")" | "]" | "}" => {
                        let close = text.chars().next().expect("non-empty");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_ordinary_c() {
        let src = "int main(void)\n{\n  int a[3] = {1, 2, 3};\n  return a[0];\n}\n";
        assert!(validate(src).is_ok());
    }

    #[test]
    fn rejects_mutation_glyph() {
        let src = "int x;\n\u{2261}\"context:f.c:2\"\nint y;\n";
        match validate(src) {
            Err(SyntaxError::InvalidCharacter { ch, line }) => {
                assert_eq!(ch, '\u{2261}');
                assert_eq!(line, 2);
            }
            other => panic!("expected InvalidCharacter, got {other:?}"),
        }
    }

    #[test]
    fn rejects_at_sign() {
        assert!(matches!(
            validate("int @ x;\n"),
            Err(SyntaxError::InvalidCharacter { ch: '@', .. })
        ));
    }

    #[test]
    fn skips_line_markers() {
        let src = "# 1 \"file with \u{2261} impossible name\"\nint x;\n";
        assert!(validate(src).is_ok());
    }

    #[test]
    fn rejects_unbalanced_delimiters() {
        assert!(matches!(
            validate("int f() {\n"),
            Err(SyntaxError::UnbalancedDelimiter { ch: '{', .. })
        ));
        assert!(matches!(
            validate("int a = (1;\n"),
            Err(SyntaxError::UnbalancedDelimiter { ch: '(', .. })
        ));
        assert!(matches!(
            validate("}\n"),
            Err(SyntaxError::UnbalancedDelimiter { ch: '}', line: 1 })
        ));
        assert!(matches!(
            validate("int a = [1};\n"),
            Err(SyntaxError::UnbalancedDelimiter { ch: '}', .. })
        ));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(matches!(
            validate("char *s = \"abc;\n"),
            Err(SyntaxError::UnterminatedLiteral { line: 1 })
        ));
    }

    #[test]
    fn rejects_empty_unit() {
        assert_eq!(validate(""), Err(SyntaxError::EmptyTranslationUnit));
        assert_eq!(
            validate("# 1 \"f.c\"\n\n"),
            Err(SyntaxError::EmptyTranslationUnit)
        );
    }

    #[test]
    fn glyph_inside_string_is_fine() {
        // Inside a string literal the glyph is data, not program text —
        // exactly why JMake wraps its token payload in a string.
        assert!(validate("const char *s = \"\u{2261}ok\";\n").is_ok());
    }

    #[test]
    fn brackets_balance_across_lines() {
        assert!(validate("int f(\nint x\n)\n{\nreturn x;\n}\n").is_ok());
    }
}
