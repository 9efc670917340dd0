//! `#if` expression evaluation.
//!
//! Implements the C preprocessor constant-expression subset: integer
//! literals, character constants, `defined X` / `defined(X)`, unary
//! `+ - ! ~`, binary arithmetic, shifts, comparisons, bitwise and logical
//! operators, and the ternary conditional. Identifiers remaining after
//! macro expansion evaluate to 0, per the standard.

use crate::expand::Expander;
use crate::macros::MacroTable;
use crate::token::{Token, TokenKind};

/// Evaluate a `#if` expression.
///
/// `tokens` is the directive's token list *before* macro expansion;
/// `defined` is resolved first (its operand must not be expanded), then the
/// rest is macro-expanded and parsed.
///
/// # Errors
///
/// Returns a description of the malformation (empty expression, bad
/// operator placement, division by zero, unbalanced parens).
pub fn eval_if_expr(tokens: &[Token], table: &MacroTable) -> Result<i64, String> {
    let resolved = resolve_defined(tokens, table)?;
    let mut expander = Expander::new(table);
    let expanded = expander.expand(resolved);
    let mut p = Parser {
        tokens: &expanded,
        pos: 0,
    };
    let v = p.ternary()?;
    if p.pos != p.tokens.len() {
        return Err(format!(
            "trailing tokens after expression: {:?}",
            p.tokens[p.pos].text
        ));
    }
    Ok(v)
}

/// Replace `defined NAME` / `defined(NAME)` with `1` or `0`.
fn resolve_defined(tokens: &[Token], table: &MacroTable) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_ident("defined") {
            let (name, consumed) = match tokens.get(i + 1) {
                Some(n) if n.kind == TokenKind::Ident => (n.text.clone(), 2),
                Some(n) if n.is_punct("(") => {
                    let id = tokens
                        .get(i + 2)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .ok_or("defined( without identifier")?;
                    if !matches!(tokens.get(i + 3), Some(c) if c.is_punct(")")) {
                        return Err("defined(NAME without )".into());
                    }
                    (id.text.clone(), 4)
                }
                _ => return Err("defined without identifier".into()),
            };
            let val = if table.is_defined(&name) { "1" } else { "0" };
            out.push(Token::new(TokenKind::Number, val, t.space_before, t.line));
            i += consumed;
        } else {
            out.push(t.clone());
            i += 1;
        }
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(t) if t.is_punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ternary(&mut self) -> Result<i64, String> {
        let cond = self.logical_or()?;
        if self.eat_punct("?") {
            let then = self.ternary()?;
            if !self.eat_punct(":") {
                return Err("expected : in ternary".into());
            }
            let els = self.ternary()?;
            Ok(if cond != 0 { then } else { els })
        } else {
            Ok(cond)
        }
    }

    fn logical_or(&mut self) -> Result<i64, String> {
        let mut v = self.logical_and()?;
        while self.eat_punct("||") {
            let r = self.logical_and()?;
            v = i64::from(v != 0 || r != 0);
        }
        Ok(v)
    }

    fn logical_and(&mut self) -> Result<i64, String> {
        let mut v = self.bit_or()?;
        while self.eat_punct("&&") {
            let r = self.bit_or()?;
            v = i64::from(v != 0 && r != 0);
        }
        Ok(v)
    }

    fn bit_or(&mut self) -> Result<i64, String> {
        let mut v = self.bit_xor()?;
        while self.eat_punct("|") {
            v |= self.bit_xor()?;
        }
        Ok(v)
    }

    fn bit_xor(&mut self) -> Result<i64, String> {
        let mut v = self.bit_and()?;
        while self.eat_punct("^") {
            v ^= self.bit_and()?;
        }
        Ok(v)
    }

    fn bit_and(&mut self) -> Result<i64, String> {
        let mut v = self.equality()?;
        while self.eat_punct("&") {
            v &= self.equality()?;
        }
        Ok(v)
    }

    fn equality(&mut self) -> Result<i64, String> {
        let mut v = self.relational()?;
        loop {
            if self.eat_punct("==") {
                v = i64::from(v == self.relational()?);
            } else if self.eat_punct("!=") {
                v = i64::from(v != self.relational()?);
            } else {
                return Ok(v);
            }
        }
    }

    fn relational(&mut self) -> Result<i64, String> {
        let mut v = self.shift()?;
        loop {
            if self.eat_punct("<=") {
                v = i64::from(v <= self.shift()?);
            } else if self.eat_punct(">=") {
                v = i64::from(v >= self.shift()?);
            } else if self.eat_punct("<") {
                v = i64::from(v < self.shift()?);
            } else if self.eat_punct(">") {
                v = i64::from(v > self.shift()?);
            } else {
                return Ok(v);
            }
        }
    }

    fn shift(&mut self) -> Result<i64, String> {
        let mut v = self.additive()?;
        loop {
            if self.eat_punct("<<") {
                let r = self.additive()? & 63;
                v = v.wrapping_shl(r as u32);
            } else if self.eat_punct(">>") {
                let r = self.additive()? & 63;
                v = v.wrapping_shr(r as u32);
            } else {
                return Ok(v);
            }
        }
    }

    fn additive(&mut self) -> Result<i64, String> {
        let mut v = self.multiplicative()?;
        loop {
            if self.eat_punct("+") {
                v = v.wrapping_add(self.multiplicative()?);
            } else if self.eat_punct("-") {
                v = v.wrapping_sub(self.multiplicative()?);
            } else {
                return Ok(v);
            }
        }
    }

    fn multiplicative(&mut self) -> Result<i64, String> {
        let mut v = self.unary()?;
        loop {
            if self.eat_punct("*") {
                v = v.wrapping_mul(self.unary()?);
            } else if self.eat_punct("/") {
                let r = self.unary()?;
                if r == 0 {
                    return Err("division by zero in #if".into());
                }
                v = v.wrapping_div(r);
            } else if self.eat_punct("%") {
                let r = self.unary()?;
                if r == 0 {
                    return Err("modulo by zero in #if".into());
                }
                v = v.wrapping_rem(r);
            } else {
                return Ok(v);
            }
        }
    }

    fn unary(&mut self) -> Result<i64, String> {
        if self.eat_punct("!") {
            Ok(i64::from(self.unary()? == 0))
        } else if self.eat_punct("~") {
            Ok(!self.unary()?)
        } else if self.eat_punct("-") {
            Ok(self.unary()?.wrapping_neg())
        } else if self.eat_punct("+") {
            self.unary()
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<i64, String> {
        let Some(t) = self.peek() else {
            return Err("unexpected end of #if expression".into());
        };
        if t.is_punct("(") {
            self.pos += 1;
            let v = self.ternary()?;
            if !self.eat_punct(")") {
                return Err("missing ) in #if expression".into());
            }
            return Ok(v);
        }
        let v = match &t.kind {
            TokenKind::Number => {
                parse_int(&t.text).ok_or_else(|| format!("bad integer literal {:?}", t.text))?
            }
            TokenKind::Char => {
                parse_char(&t.text).ok_or_else(|| format!("bad character constant {:?}", t.text))?
            }
            // Any identifier surviving macro expansion is 0. This includes
            // `true`/`false` in pre-C23 preprocessor arithmetic — kernel
            // code does not rely on those in #if.
            TokenKind::Ident => 0,
            other => return Err(format!("unexpected token {:?} in #if", other)),
        };
        self.pos += 1;
        Ok(v)
    }
}

/// Parse a pp-number as an integer, honouring `0x`, `0b`, octal `0`, and
/// ignoring `u`/`l` suffixes. Returns `None` for floats or garbage.
fn parse_int(text: &str) -> Option<i64> {
    let lower = text.to_ascii_lowercase();
    let trimmed = lower.trim_end_matches(['u', 'l']);
    if trimmed.contains('.') || (trimmed.contains('e') && !trimmed.starts_with("0x")) {
        return None;
    }
    let (radix, digits) = if let Some(d) = trimmed.strip_prefix("0x") {
        (16, d)
    } else if let Some(d) = trimmed.strip_prefix("0b") {
        (2, d)
    } else if trimmed.len() > 1 && trimmed.starts_with('0') {
        (8, &trimmed[1..])
    } else {
        (10, trimmed)
    };
    u64::from_str_radix(digits, radix).ok().map(|v| v as i64)
}

/// Value of a character constant.
fn parse_char(text: &str) -> Option<i64> {
    let inner = text.strip_prefix('\'')?.strip_suffix('\'')?;
    let mut chars = inner.chars();
    let c = chars.next()?;
    let v = if c == '\\' {
        match chars.next()? {
            'n' => 10,
            't' => 9,
            'r' => 13,
            '0' => 0,
            '\\' => 92,
            '\'' => 39,
            '"' => 34,
            'x' => i64::from_str_radix(chars.as_str(), 16).ok()?,
            other => other as i64,
        }
    } else {
        c as i64
    };
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::macros::MacroDef;

    fn eval(src: &str) -> i64 {
        eval_if_expr(&lex(src, 1), &MacroTable::new()).unwrap()
    }

    fn eval_with(src: &str, table: &MacroTable) -> i64 {
        eval_if_expr(&lex(src, 1), table).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval("1 + 2 * 3"), 7);
        assert_eq!(eval("(1 + 2) * 3"), 9);
        assert_eq!(eval("10 / 3"), 3);
        assert_eq!(eval("10 % 3"), 1);
        assert_eq!(eval("-3 + 1"), -2);
    }

    #[test]
    fn radix_literals() {
        assert_eq!(eval("0x10"), 16);
        assert_eq!(eval("010"), 8);
        assert_eq!(eval("0b101"), 5);
        assert_eq!(eval("0xFFUL"), 255);
        assert_eq!(eval("0"), 0);
    }

    #[test]
    fn logic_and_comparison() {
        assert_eq!(eval("1 && 0"), 0);
        assert_eq!(eval("1 || 0"), 1);
        assert_eq!(eval("!5"), 0);
        assert_eq!(eval("3 > 2 && 2 >= 2 && 1 < 2 && 1 <= 1"), 1);
        assert_eq!(eval("1 == 1 && 1 != 2"), 1);
    }

    #[test]
    fn bitwise_and_shift() {
        assert_eq!(eval("1 << 4"), 16);
        assert_eq!(eval("256 >> 4"), 16);
        assert_eq!(eval("0xf0 & 0x1f"), 0x10);
        assert_eq!(eval("1 | 2 | 4"), 7);
        assert_eq!(eval("5 ^ 1"), 4);
        assert_eq!(eval("~0 & 0xff"), 0xff);
    }

    #[test]
    fn ternary_nests() {
        assert_eq!(eval("1 ? 2 : 3"), 2);
        assert_eq!(eval("0 ? 2 : 1 ? 4 : 5"), 4);
    }

    #[test]
    fn undefined_identifier_is_zero() {
        assert_eq!(eval("NOT_DEFINED_ANYWHERE + 1"), 1);
    }

    #[test]
    fn defined_operator_both_forms() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("CONFIG_SMP", "1"));
        assert_eq!(eval_with("defined(CONFIG_SMP)", &t), 1);
        assert_eq!(eval_with("defined CONFIG_SMP", &t), 1);
        assert_eq!(eval_with("defined(CONFIG_NUMA)", &t), 0);
        assert_eq!(eval_with("!defined(CONFIG_NUMA)", &t), 1);
    }

    #[test]
    fn defined_operand_is_not_macro_expanded() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("ALIAS", "REAL"));
        // defined(ALIAS) asks about ALIAS itself, which is defined.
        assert_eq!(eval_with("defined(ALIAS)", &t), 1);
    }

    #[test]
    fn macros_expand_in_expressions() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("LINUX_VERSION_CODE", "263168"));
        t.define(MacroDef::function(
            "KERNEL_VERSION",
            vec!["a".into(), "b".into(), "c".into()],
            "(((a) << 16) + ((b) << 8) + (c))",
        ));
        assert_eq!(
            eval_with("LINUX_VERSION_CODE >= KERNEL_VERSION(4, 4, 0)", &t),
            1
        );
    }

    #[test]
    fn char_constants() {
        assert_eq!(eval("'A'"), 65);
        assert_eq!(eval("'\\n'"), 10);
        assert_eq!(eval("'\\x41'"), 65);
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(eval_if_expr(&lex("1 / 0", 1), &MacroTable::new()).is_err());
        assert!(eval_if_expr(&lex("1 % 0", 1), &MacroTable::new()).is_err());
    }

    #[test]
    fn malformed_expressions_error() {
        assert!(eval_if_expr(&lex("", 1), &MacroTable::new()).is_err());
        assert!(eval_if_expr(&lex("(1", 1), &MacroTable::new()).is_err());
        assert!(eval_if_expr(&lex("1 +", 1), &MacroTable::new()).is_err());
        assert!(eval_if_expr(&lex("1 2", 1), &MacroTable::new()).is_err());
        assert!(eval_if_expr(&lex("defined()", 1), &MacroTable::new()).is_err());
        assert!(eval_if_expr(&lex("1 ? 2", 1), &MacroTable::new()).is_err());
    }

    #[test]
    fn kernel_style_compound_condition() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("CONFIG_PM", "1"));
        assert_eq!(
            eval_with("defined(CONFIG_PM) && !defined(CONFIG_PM_SLEEP)", &t),
            1
        );
    }
}
