//! Symbolic preprocessor conditions and their three-valued evaluation.
//!
//! A presence condition is built from `Defined(NAME)` atoms — the only
//! question the kernel's configuration machinery can answer statically is
//! whether a macro is defined, and the `CONFIG_*` macro environment is a
//! pure function of the solved [`Config`] (`CONFIG_X` ⇔ `X=y`,
//! `CONFIG_X_MODULE` ⇔ `X=m`, see `Config::cpp_defines`). Everything the
//! parser cannot reduce to those atoms (arithmetic, comparisons, non-config
//! macros) becomes [`CondExpr::Unknown`], and evaluation is Kleene
//! three-valued so an `Unknown` leaf can still be absorbed by a decided
//! `&&`/`||` sibling.

use jmake_kconfig::{Config, Tristate};
use std::collections::BTreeSet;

/// Three-valued truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Definitely holds.
    True,
    /// Definitely does not hold.
    False,
    /// Cannot be decided statically.
    Unknown,
}

impl Truth {
    /// Kleene conjunction.
    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Lift a two-valued bool.
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }
}

/// Kleene negation.
impl std::ops::Not for Truth {
    type Output = Truth;

    fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }
}

/// A symbolic conditional-compilation expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CondExpr {
    /// Constant truth (`#if 1`, a discharged include guard).
    True,
    /// Constant falsehood (`#if 0`).
    False,
    /// Statically undecidable (arithmetic, unexpanded macros, …).
    Unknown,
    /// `defined(NAME)`.
    Defined(String),
    /// Logical negation.
    Not(Box<CondExpr>),
    /// Logical conjunction.
    And(Box<CondExpr>, Box<CondExpr>),
    /// Logical disjunction.
    Or(Box<CondExpr>, Box<CondExpr>),
}

impl CondExpr {
    /// `defined(name)` atom.
    pub fn defined(name: impl Into<String>) -> CondExpr {
        CondExpr::Defined(name.into())
    }

    /// Negation with constant folding.
    pub fn negate(self) -> CondExpr {
        match self {
            CondExpr::True => CondExpr::False,
            CondExpr::False => CondExpr::True,
            CondExpr::Not(inner) => *inner,
            other => CondExpr::Not(Box::new(other)),
        }
    }

    /// Conjunction with constant folding.
    pub fn and(self, other: CondExpr) -> CondExpr {
        match (self, other) {
            (CondExpr::False, _) | (_, CondExpr::False) => CondExpr::False,
            (CondExpr::True, o) => o,
            (s, CondExpr::True) => s,
            (s, o) => CondExpr::And(Box::new(s), Box::new(o)),
        }
    }

    /// Disjunction with constant folding.
    pub fn or(self, other: CondExpr) -> CondExpr {
        match (self, other) {
            (CondExpr::True, _) | (_, CondExpr::True) => CondExpr::True,
            (CondExpr::False, o) => o,
            (s, CondExpr::False) => s,
            (s, o) => CondExpr::Or(Box::new(s), Box::new(o)),
        }
    }

    /// Evaluate under a solved configuration, mirroring the macro
    /// environment `preprocess_file` builds: `__KERNEL__` is always
    /// defined, `CONFIG_X` is defined exactly when `X=y`,
    /// `CONFIG_X_MODULE` exactly when `X=m`; any other name (including a
    /// bare `MODULE` that file-level analysis could not tie to a gating
    /// variable) is [`Truth::Unknown`].
    pub fn eval(&self, config: &Config) -> Truth {
        match self {
            CondExpr::True => Truth::True,
            CondExpr::False => Truth::False,
            CondExpr::Unknown => Truth::Unknown,
            CondExpr::Defined(name) => defined_under(config, name),
            CondExpr::Not(e) => !e.eval(config),
            CondExpr::And(a, b) => a.eval(config).and(b.eval(config)),
            CondExpr::Or(a, b) => a.eval(config).or(b.eval(config)),
        }
    }

    /// Evaluate under an explicit atom assignment (`name → defined?`);
    /// atoms outside the map evaluate through the usual constants
    /// (`__KERNEL__` true) or to [`Truth::Unknown`].
    pub fn eval_assignment(&self, assign: &std::collections::BTreeMap<String, bool>) -> Truth {
        match self {
            CondExpr::True => Truth::True,
            CondExpr::False => Truth::False,
            CondExpr::Unknown => Truth::Unknown,
            CondExpr::Defined(name) => match assign.get(name) {
                Some(b) => Truth::from_bool(*b),
                None if name == "__KERNEL__" => Truth::True,
                None => Truth::Unknown,
            },
            CondExpr::Not(e) => !e.eval_assignment(assign),
            CondExpr::And(a, b) => a.eval_assignment(assign).and(b.eval_assignment(assign)),
            CondExpr::Or(a, b) => a.eval_assignment(assign).or(b.eval_assignment(assign)),
        }
    }

    /// Collect the `Defined` atom names that actually need deciding
    /// (everything but the constant `__KERNEL__`).
    pub fn atoms(&self, out: &mut BTreeSet<String>) {
        match self {
            CondExpr::Defined(name) if name != "__KERNEL__" => {
                out.insert(name.clone());
            }
            CondExpr::Not(e) => e.atoms(out),
            CondExpr::And(a, b) | CondExpr::Or(a, b) => {
                a.atoms(out);
                b.atoms(out);
            }
            _ => {}
        }
    }

    /// True when an [`CondExpr::Unknown`] leaf occurs anywhere.
    pub fn has_unknown(&self) -> bool {
        match self {
            CondExpr::Unknown => true,
            CondExpr::Not(e) => e.has_unknown(),
            CondExpr::And(a, b) | CondExpr::Or(a, b) => a.has_unknown() || b.has_unknown(),
            _ => false,
        }
    }

    /// Replace every `Defined(from)` atom with `to`.
    pub fn substitute(&self, from: &str, to: &CondExpr) -> CondExpr {
        match self {
            CondExpr::Defined(name) if name == from => to.clone(),
            CondExpr::Not(e) => CondExpr::Not(Box::new(e.substitute(from, to))),
            CondExpr::And(a, b) => CondExpr::And(
                Box::new(a.substitute(from, to)),
                Box::new(b.substitute(from, to)),
            ),
            CondExpr::Or(a, b) => CondExpr::Or(
                Box::new(a.substitute(from, to)),
                Box::new(b.substitute(from, to)),
            ),
            other => other.clone(),
        }
    }
}

impl std::fmt::Display for CondExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CondExpr::True => write!(f, "1"),
            CondExpr::False => write!(f, "0"),
            CondExpr::Unknown => write!(f, "?"),
            CondExpr::Defined(n) => write!(f, "defined({n})"),
            CondExpr::Not(e) => write!(f, "!{e}"),
            CondExpr::And(a, b) => write!(f, "({a} && {b})"),
            CondExpr::Or(a, b) => write!(f, "({a} || {b})"),
        }
    }
}

/// Is the object macro `name` defined under `config`'s environment?
fn defined_under(config: &Config, name: &str) -> Truth {
    if name == "__KERNEL__" {
        return Truth::True;
    }
    if let Some(rest) = name.strip_prefix("CONFIG_") {
        if config.get(rest) == Tristate::Y {
            return Truth::True;
        }
        if let Some(base) = rest.strip_suffix("_MODULE") {
            if config.get(base) == Tristate::M {
                return Truth::True;
            }
        }
        return Truth::False;
    }
    // Non-config macro: may be defined by file-local `#define`s we do not
    // track.
    Truth::Unknown
}

/// Parse the controlling expression of `#<name> <rest>` into a
/// [`CondExpr`]; returns `None` for directives that do not open or
/// continue a conditional branch with an expression (`else`, `endif`,
/// `define`, …).
pub fn parse_directive(name: &str, rest: &str) -> Option<CondExpr> {
    match name {
        "ifdef" => Some(match first_ident(rest) {
            Some(id) => CondExpr::defined(id),
            None => CondExpr::Unknown,
        }),
        "ifndef" => Some(match first_ident(rest) {
            Some(id) => CondExpr::defined(id).negate(),
            None => CondExpr::Unknown,
        }),
        "if" | "elif" => Some(parse_if_expr(rest)),
        _ => None,
    }
}

fn first_ident(rest: &str) -> Option<String> {
    let t = rest.trim_start();
    let id: String = t
        .chars()
        .take_while(|c| *c == '_' || c.is_ascii_alphanumeric())
        .collect();
    if id.is_empty() || id.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(id)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Not,
    AndAnd,
    OrOr,
    LParen,
    RParen,
    /// Anything else (comparison operators, arithmetic, commas…): the
    /// expression leaves the decidable fragment.
    Other,
}

fn tokenize(expr: &str) -> Vec<Tok> {
    let mut out = Vec::new();
    let chars: Vec<char> = expr.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => {
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '!' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Tok::Other);
                    i += 2;
                } else {
                    out.push(Tok::Not);
                    i += 1;
                }
            }
            '&' if chars.get(i + 1) == Some(&'&') => {
                out.push(Tok::AndAnd);
                i += 2;
            }
            '|' if chars.get(i + 1) == Some(&'|') => {
                out.push(Tok::OrOr);
                i += 2;
            }
            c if c == '_' || c.is_ascii_alphabetic() => {
                let mut id = String::new();
                while i < chars.len() && (chars[i] == '_' || chars[i].is_ascii_alphanumeric()) {
                    id.push(chars[i]);
                    i += 1;
                }
                out.push(Tok::Ident(id));
            }
            c if c.is_ascii_digit() => {
                let mut n = String::new();
                while i < chars.len() && chars[i].is_ascii_alphanumeric() {
                    n.push(chars[i]);
                    i += 1;
                }
                // `0x10`, `1UL` and friends parse by prefix digits only;
                // failures fall back to Unknown via Other.
                let digits: String = n.chars().take_while(|c| c.is_ascii_digit()).collect();
                match digits.parse::<i64>() {
                    Ok(v)
                        if digits.len() == n.len()
                            || n.to_ascii_lowercase().ends_with(['l', 'u'])
                            || n.to_ascii_lowercase().starts_with("0x") =>
                    {
                        // Hex re-parse for 0x forms.
                        if let Some(hex) = n.strip_prefix("0x").or_else(|| n.strip_prefix("0X")) {
                            match i64::from_str_radix(
                                hex.trim_end_matches(['u', 'U', 'l', 'L']),
                                16,
                            ) {
                                Ok(h) => out.push(Tok::Int(h)),
                                Err(_) => out.push(Tok::Other),
                            }
                        } else {
                            out.push(Tok::Int(v));
                        }
                    }
                    _ => out.push(Tok::Other),
                }
            }
            _ => {
                out.push(Tok::Other);
                i += 1;
            }
        }
    }
    out
}

/// Parse an `#if`/`#elif` expression. Any construct outside the decidable
/// fragment (`defined`, `IS_ENABLED`, `!`, `&&`, `||`, parentheses,
/// integer literals, bare `CONFIG_*` identifiers) makes the whole
/// expression [`CondExpr::Unknown`] — conservative in both directions.
pub fn parse_if_expr(expr: &str) -> CondExpr {
    let toks = tokenize(expr);
    if toks.contains(&Tok::Other) {
        return CondExpr::Unknown;
    }
    let mut p = Parser {
        toks: &toks,
        pos: 0,
    };
    match p.parse_or() {
        Some(e) if p.pos == p.toks.len() => e,
        _ => CondExpr::Unknown,
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok) -> Option<()> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn parse_or(&mut self) -> Option<CondExpr> {
        let mut e = self.parse_and()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            e = e.or(self.parse_and()?);
        }
        Some(e)
    }

    fn parse_and(&mut self) -> Option<CondExpr> {
        let mut e = self.parse_unary()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            e = e.and(self.parse_unary()?);
        }
        Some(e)
    }

    fn parse_unary(&mut self) -> Option<CondExpr> {
        if self.peek() == Some(&Tok::Not) {
            self.pos += 1;
            return Some(self.parse_unary()?.negate());
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Option<CondExpr> {
        match self.bump()? {
            Tok::LParen => {
                let e = self.parse_or()?;
                self.expect(&Tok::RParen)?;
                Some(e)
            }
            Tok::Int(v) => Some(if *v != 0 {
                CondExpr::True
            } else {
                CondExpr::False
            }),
            Tok::Ident(id) if id == "defined" => {
                // `defined(NAME)` or `defined NAME`.
                if self.peek() == Some(&Tok::LParen) {
                    self.pos += 1;
                    let name = match self.bump()? {
                        Tok::Ident(n) => n.clone(),
                        _ => return None,
                    };
                    self.expect(&Tok::RParen)?;
                    Some(CondExpr::defined(name))
                } else {
                    match self.bump()? {
                        Tok::Ident(n) => Some(CondExpr::defined(n.clone())),
                        _ => None,
                    }
                }
            }
            Tok::Ident(id) if id == "IS_ENABLED" => {
                // `IS_ENABLED(CONFIG_X)` expands (via the Kbuild function
                // macro) to `(CONFIG_X)` — 1 exactly when the option is
                // built in, i.e. when the macro is defined.
                self.expect(&Tok::LParen)?;
                let name = match self.bump()? {
                    Tok::Ident(n) => n.clone(),
                    _ => return None,
                };
                self.expect(&Tok::RParen)?;
                Some(CondExpr::defined(name))
            }
            Tok::Ident(id) if id.starts_with("CONFIG_") => {
                // A bare CONFIG macro in `#if`: defined-as-1 or undefined
                // (hence 0), so truth coincides with definedness.
                Some(CondExpr::defined(id.clone()))
            }
            Tok::Ident(_) => {
                // Any other object macro could expand to anything.
                Some(CondExpr::Unknown)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmake_kconfig::Config;

    fn cfg(pairs: &[(&str, Tristate)]) -> Config {
        let mut c = Config::default();
        for (k, v) in pairs {
            c.set(*k, *v);
        }
        c
    }

    #[test]
    fn ifdef_and_ifndef() {
        assert_eq!(
            parse_directive("ifdef", "CONFIG_NET"),
            Some(CondExpr::defined("CONFIG_NET"))
        );
        assert_eq!(
            parse_directive("ifndef", "CONFIG_NET"),
            Some(CondExpr::defined("CONFIG_NET").negate())
        );
        assert_eq!(parse_directive("define", "X 1"), None);
    }

    #[test]
    fn if_expression_fragment() {
        let e = parse_if_expr("defined(CONFIG_A) && !defined(CONFIG_B)");
        let c = cfg(&[("A", Tristate::Y)]);
        assert_eq!(e.eval(&c), Truth::True);
        let c2 = cfg(&[("A", Tristate::Y), ("B", Tristate::Y)]);
        assert_eq!(e.eval(&c2), Truth::False);
    }

    #[test]
    fn if_zero_and_one() {
        assert_eq!(parse_if_expr("0"), CondExpr::False);
        assert_eq!(parse_if_expr("1"), CondExpr::True);
        assert_eq!(parse_if_expr("0x0"), CondExpr::False);
    }

    #[test]
    fn is_enabled_maps_to_defined() {
        let e = parse_if_expr("IS_ENABLED(CONFIG_NET)");
        assert_eq!(e, CondExpr::defined("CONFIG_NET"));
    }

    #[test]
    fn module_macro_definedness() {
        let c = cfg(&[("E1000", Tristate::M)]);
        assert_eq!(CondExpr::defined("CONFIG_E1000").eval(&c), Truth::False);
        assert_eq!(
            CondExpr::defined("CONFIG_E1000_MODULE").eval(&c),
            Truth::True
        );
        assert_eq!(CondExpr::defined("__KERNEL__").eval(&c), Truth::True);
        assert_eq!(CondExpr::defined("MODULE").eval(&c), Truth::Unknown);
    }

    #[test]
    fn arithmetic_is_unknown() {
        assert_eq!(parse_if_expr("PAGE_SIZE > 4096"), CondExpr::Unknown);
        assert_eq!(
            parse_if_expr("defined(CONFIG_A) && (X + 1)"),
            CondExpr::Unknown
        );
    }

    #[test]
    fn non_config_ident_is_unknown_but_absorbable() {
        // `0 && FOO` is decided even though FOO is unknown.
        let e = parse_if_expr("0 && FOO");
        assert_eq!(e, CondExpr::False);
        let e = parse_if_expr("1 || FOO");
        assert_eq!(e, CondExpr::True);
    }

    #[test]
    fn kleene_absorption_at_eval() {
        let e = parse_if_expr("FOO && !defined(CONFIG_A)");
        let c = cfg(&[("A", Tristate::Y)]);
        assert_eq!(
            e.eval(&c),
            Truth::False,
            "decided right arm absorbs unknown"
        );
        let c2 = cfg(&[]);
        assert_eq!(e.eval(&c2), Truth::Unknown);
    }

    #[test]
    fn assignment_evaluation() {
        let e = parse_if_expr("defined(CONFIG_A) || defined(CONFIG_B)");
        let mut atoms = BTreeSet::new();
        e.atoms(&mut atoms);
        assert_eq!(atoms.len(), 2);
        let assign: std::collections::BTreeMap<String, bool> = [
            ("CONFIG_A".to_string(), false),
            ("CONFIG_B".to_string(), true),
        ]
        .into_iter()
        .collect();
        assert_eq!(e.eval_assignment(&assign), Truth::True);
    }

    #[test]
    fn substitution_rewrites_module() {
        let e = parse_if_expr("defined(MODULE) && defined(CONFIG_A)");
        let sub = e.substitute("MODULE", &CondExpr::defined("CONFIG_E1000_MODULE"));
        let c = cfg(&[("E1000", Tristate::M), ("A", Tristate::Y)]);
        assert_eq!(sub.eval(&c), Truth::True);
    }
}
