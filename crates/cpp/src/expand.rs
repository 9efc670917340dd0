//! Macro expansion: substitution, stringification, pasting, rescanning.

use crate::error::CppErrorKind;
use crate::lexer::lex;
use crate::macros::MacroTable;
use crate::token::{render_tokens, Token, TokenKind};
use std::collections::HashSet;

/// Expands macro invocations in token sequences.
///
/// Recursion is prevented with an active-macro stack (a macro name is not
/// re-expanded while its own expansion is being processed), the same
/// strategy that makes `#define x x` terminate in real preprocessors.
///
/// Tokens move through expansion: every token that is not part of an
/// invocation goes from the input to the output as it is, and definitions
/// are borrowed from the table for the expander's lifetime. Only a macro's
/// body tokens and its arguments are copied, into each expansion.
#[derive(Debug)]
pub struct Expander<'t> {
    table: &'t MacroTable,
    /// Names of every macro that was actually expanded — JMake's unused-
    /// macro classification consumes this.
    pub expanded_names: HashSet<String>,
    /// Diagnostics raised during expansion (wrong argument counts).
    pub errors: Vec<CppErrorKind>,
}

impl<'t> Expander<'t> {
    /// Create an expander over `table`.
    pub fn new(table: &'t MacroTable) -> Self {
        Expander {
            table,
            expanded_names: HashSet::new(),
            errors: Vec::new(),
        }
    }

    /// Fully expand `tokens`.
    pub fn expand(&mut self, tokens: Vec<Token>) -> Vec<Token> {
        let mut active = Vec::new();
        self.expand_inner(tokens, &mut active)
    }

    fn expand_inner(&mut self, tokens: Vec<Token>, active: &mut Vec<&'t str>) -> Vec<Token> {
        let table = self.table;
        let mut out = Vec::with_capacity(tokens.len());
        let mut rest = tokens.into_iter();
        while let Some(t) = rest.next() {
            if t.kind != TokenKind::Ident || active.contains(&t.text.as_str()) {
                out.push(t);
                continue;
            }
            let Some(def) = table.get(&t.text) else {
                out.push(t);
                continue;
            };
            let mut rescanned = match &def.params {
                None => {
                    self.note_expanded(&def.name);
                    let substituted = paste_pass(def.body.clone());
                    active.push(&def.name);
                    let rescanned = self.expand_inner(substituted, active);
                    active.pop();
                    rescanned
                }
                Some(params) => {
                    // Function-like: only an invocation if `(` follows, and
                    // an unbalanced one is left alone.
                    let invocation = match rest.as_slice().first() {
                        Some(n) if n.is_punct("(") => args_len(rest.as_slice()),
                        _ => None,
                    };
                    let Some(consumed) = invocation else {
                        out.push(t);
                        continue;
                    };
                    let args = collect_args(rest.by_ref().take(consumed));
                    let arity_ok = if def.variadic {
                        args.len() >= params.len()
                    } else {
                        args.len() == params.len()
                            || (params.is_empty() && args.len() == 1 && args[0].is_empty())
                    };
                    if !arity_ok {
                        self.errors.push(CppErrorKind::WrongArgumentCount {
                            name: def.name.clone(),
                            expected: params.len(),
                            got: args.len(),
                        });
                    }
                    self.note_expanded(&def.name);
                    // Pre-expand arguments (C99 6.10.3.1) for ordinary use.
                    let expanded_args: Vec<Vec<Token>> = args
                        .iter()
                        .map(|a| self.expand_inner(a.clone(), active))
                        .collect();
                    // Named parameters take the leading arguments; a
                    // variadic macro's remaining arguments are its varargs.
                    let named = if def.variadic {
                        params.len().min(args.len())
                    } else {
                        args.len()
                    };
                    let (raw, varargs_raw) = args.split_at(named);
                    let (expanded, varargs_expanded) = expanded_args.split_at(named);
                    let substituted = substitute_fn(
                        &def.body,
                        params,
                        raw,
                        expanded,
                        varargs_raw,
                        varargs_expanded,
                    );
                    active.push(&def.name);
                    let rescanned = self.expand_inner(substituted, active);
                    active.pop();
                    rescanned
                }
            };
            fix_leading_space(&mut rescanned, t.space_before);
            out.append(&mut rescanned);
        }
        out
    }

    /// Record that `name` was expanded.
    fn note_expanded(&mut self, name: &str) {
        if !self.expanded_names.contains(name) {
            self.expanded_names.insert(name.to_string());
        }
    }
}

/// Function-like substitution: parameter replacement, `#`, `##`.
/// Arguments come raw (for `#` and `##` operands) and pre-expanded (for
/// every other use), each split into the named parameters' and the
/// varargs.
fn substitute_fn(
    body: &[Token],
    params: &[String],
    raw: &[Vec<Token>],
    expanded: &[Vec<Token>],
    varargs_raw: &[Vec<Token>],
    varargs_expanded: &[Vec<Token>],
) -> Vec<Token> {
    let param_index = |name: &str| params.iter().position(|p| p == name);
    let mut out: Vec<Token> = Vec::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        // Stringification: # param
        if t.is_punct("#") {
            if let Some(next) = body.get(i + 1) {
                if next.kind == TokenKind::Ident {
                    let arg = if next.text == "__VA_ARGS__" {
                        Some(join_varargs(varargs_raw))
                    } else {
                        param_index(&next.text).map(|idx| raw.get(idx).cloned().unwrap_or_default())
                    };
                    if let Some(arg) = arg {
                        out.push(Token {
                            kind: TokenKind::Str,
                            text: stringify(&arg),
                            space_before: t.space_before,
                            line: t.line,
                        });
                        i += 2;
                        continue;
                    }
                }
            }
        }
        // Paste operands use RAW (unexpanded) arguments.
        let pasted = matches!(body.get(i + 1), Some(n) if n.is_punct("##"))
            || (!out.is_empty() && i > 0 && body[i - 1].is_punct("##"));
        if t.kind == TokenKind::Ident {
            let start = out.len();
            let replaced = if t.text == "__VA_ARGS__" {
                let varargs = if pasted {
                    varargs_raw
                } else {
                    varargs_expanded
                };
                out.extend(join_varargs(varargs));
                true
            } else if let Some(idx) = param_index(&t.text) {
                let source = if pasted { raw } else { expanded };
                if let Some(arg) = source.get(idx) {
                    out.extend_from_slice(arg);
                }
                true
            } else {
                false
            };
            if replaced {
                fix_leading_space(&mut out[start..], t.space_before);
                i += 1;
                continue;
            }
        }
        out.push(t.clone());
        i += 1;
    }
    paste_pass(out)
}

/// Give the first token of an expansion the spacing of the macro name it
/// replaces, so rendered output keeps word boundaries.
fn fix_leading_space(tokens: &mut [Token], space: bool) {
    if let Some(first) = tokens.first_mut() {
        first.space_before = space;
    }
}

/// The number of tokens a macro invocation's argument list spans, from
/// its `(` through the matching `)`, or `None` if the parens never
/// balance.
fn args_len(tokens: &[Token]) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
    }
    None
}

/// Split a balanced argument list (the tokens [`args_len`] measured,
/// parens included) into its arguments at top-level commas, moving each
/// token.
fn collect_args(tokens: impl Iterator<Item = Token>) -> Vec<Vec<Token>> {
    let mut depth = 0usize;
    let mut args: Vec<Vec<Token>> = vec![Vec::new()];
    for t in tokens {
        if t.is_punct("(") {
            depth += 1;
            if depth == 1 {
                continue;
            }
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct(",") && depth == 1 {
            args.push(Vec::new());
            continue;
        }
        args.last_mut().expect("args never empty").push(t);
    }
    args
}

/// Join vararg argument lists with comma tokens (for `__VA_ARGS__`).
fn join_varargs(varargs: &[Vec<Token>]) -> Vec<Token> {
    let mut out = Vec::new();
    for (i, arg) in varargs.iter().enumerate() {
        if i > 0 {
            out.push(Token::punct(","));
        }
        out.extend(arg.iter().cloned());
    }
    out
}

/// C99 stringification: render, collapse internal whitespace to single
/// spaces, escape `\` and `"` inside string/char literals.
fn stringify(tokens: &[Token]) -> String {
    let rendered = render_tokens(tokens);
    let mut out = String::from("\"");
    for c in rendered.trim().chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Resolve `##` pasting in a substituted body.
fn paste_pass(tokens: Vec<Token>) -> Vec<Token> {
    if !tokens.iter().any(|t| t.is_punct("##")) {
        return tokens;
    }
    let mut out: Vec<Token> = Vec::with_capacity(tokens.len());
    let mut rest = tokens.into_iter().peekable();
    while let Some(t) = rest.next() {
        if !(t.is_punct("##") && !out.is_empty() && rest.peek().is_some()) {
            out.push(t);
            continue;
        }
        let left = out.pop().expect("checked non-empty");
        let right = rest.next().expect("checked by peek");
        let fused_text = format!("{}{}", left.text, right.text);
        let relexed = lex(&fused_text, left.line);
        if relexed.len() == 1 {
            let mut fused = relexed.into_iter().next().expect("len checked");
            fused.space_before = left.space_before;
            fused.line = left.line;
            out.push(fused);
        } else {
            // Invalid paste: keep both tokens (gcc diagnoses; we tolerate).
            out.push(left);
            out.push(right);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macros::MacroDef;

    fn expand_str(table: &MacroTable, src: &str) -> String {
        let mut e = Expander::new(table);
        let toks = e.expand(lex(src, 1));
        render_tokens(&toks)
    }

    #[test]
    fn object_macro_expands() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("N", "42"));
        assert_eq!(expand_str(&t, "int x = N;"), "int x = 42;");
    }

    #[test]
    fn nested_object_macros() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("A", "B"));
        t.define(MacroDef::object("B", "7"));
        assert_eq!(expand_str(&t, "A"), "7");
    }

    #[test]
    fn self_reference_terminates() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("x", "x + 1"));
        assert_eq!(expand_str(&t, "x"), "x + 1");
    }

    #[test]
    fn mutual_recursion_terminates() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("P", "Q"));
        t.define(MacroDef::object("Q", "P"));
        // Expansion must terminate; P -> Q -> P(blocked).
        assert_eq!(expand_str(&t, "P"), "P");
    }

    #[test]
    fn function_macro_substitutes_args() {
        let mut t = MacroTable::new();
        t.define(MacroDef::function(
            "MUX",
            vec!["x".into()],
            "(((x) & 0xf) << 4)",
        ));
        assert_eq!(expand_str(&t, "MUX(chan)"), "(((chan) & 0xf) << 4)");
    }

    #[test]
    fn paper_figure1_macro_chain() {
        // The comedi example from Fig. 1: nested single-channel mux macros.
        let mut t = MacroTable::new();
        t.define(MacroDef::function(
            "HI",
            vec!["x".into()],
            "(((x) & 0xf) << 4)",
        ));
        t.define(MacroDef::function(
            "LO",
            vec!["x".into()],
            "(((x) & 0xf) << 0)",
        ));
        t.define(MacroDef::function(
            "SINGLE",
            vec!["x".into()],
            "(HI(x) | LO(x))",
        ));
        assert_eq!(
            expand_str(&t, "SINGLE(chan)"),
            "((((chan) & 0xf) << 4) | (((chan) & 0xf) << 0))"
        );
    }

    #[test]
    fn macro_name_without_parens_is_not_invoked() {
        let mut t = MacroTable::new();
        t.define(MacroDef::function("F", vec!["x".into()], "x"));
        assert_eq!(expand_str(&t, "int F;"), "int F;");
    }

    #[test]
    fn arguments_are_pre_expanded() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("K", "9"));
        t.define(MacroDef::function("ID", vec!["x".into()], "x"));
        assert_eq!(expand_str(&t, "ID(K)"), "9");
    }

    #[test]
    fn stringify_operator() {
        let mut t = MacroTable::new();
        t.define(MacroDef::function("S", vec!["x".into()], "#x"));
        assert_eq!(expand_str(&t, "S(a + b)"), "\"a + b\"");
    }

    #[test]
    fn stringify_escapes_quotes() {
        let mut t = MacroTable::new();
        t.define(MacroDef::function("S", vec!["x".into()], "#x"));
        assert_eq!(expand_str(&t, "S(\"hi\")"), "\"\\\"hi\\\"\"");
    }

    #[test]
    fn paste_operator_fuses_idents() {
        let mut t = MacroTable::new();
        t.define(MacroDef::function(
            "GLUE",
            vec!["a".into(), "b".into()],
            "a##b",
        ));
        assert_eq!(expand_str(&t, "GLUE(dev, _init)"), "dev_init");
    }

    #[test]
    fn paste_uses_raw_arguments() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("X", "expanded"));
        t.define(MacroDef::function("CAT", vec!["a".into()], "a##_t"));
        // Raw arg "X" is pasted, producing X_t (not expanded_t).
        assert_eq!(expand_str(&t, "CAT(X)"), "X_t");
    }

    #[test]
    fn variadic_macro() {
        let mut t = MacroTable::new();
        t.define(MacroDef {
            name: "pr".into(),
            params: Some(vec!["fmt".into()]),
            variadic: true,
            body: lex("printk(fmt, __VA_ARGS__)", 0),
        });
        assert_eq!(expand_str(&t, "pr(\"%d\", a, b)"), "printk(\"%d\", a, b)");
    }

    #[test]
    fn wrong_arity_is_diagnosed() {
        let mut t = MacroTable::new();
        t.define(MacroDef::function("F", vec!["a".into(), "b".into()], "a+b"));
        let mut e = Expander::new(&t);
        e.expand(lex("F(1)", 1));
        assert_eq!(e.errors.len(), 1);
    }

    #[test]
    fn zero_arg_invocation_of_nullary_macro() {
        let mut t = MacroTable::new();
        t.define(MacroDef::function("F", vec![], "0"));
        let mut e = Expander::new(&t);
        let out = e.expand(lex("F()", 1));
        assert_eq!(render_tokens(&out), "0");
        assert!(e.errors.is_empty());
    }

    #[test]
    fn expanded_names_are_recorded() {
        let mut t = MacroTable::new();
        t.define(MacroDef::object("USED", "1"));
        t.define(MacroDef::object("UNUSED", "2"));
        let mut e = Expander::new(&t);
        e.expand(lex("int a = USED;", 1));
        assert!(e.expanded_names.contains("USED"));
        assert!(!e.expanded_names.contains("UNUSED"));
    }

    #[test]
    fn mutation_glyph_in_macro_body_propagates_to_use_site() {
        // Core JMake mechanism (paper Fig. 2): a mutation inserted in a
        // macro body shows up wherever the macro is used.
        let mut t = MacroTable::new();
        let mut def = MacroDef::function("HI", vec!["x".into()], "(((x) & 0xf) << 4)");
        def.body.extend(lex("\u{2261}\"define:f.c:49\"", 0));
        t.define(def);
        let out = expand_str(&t, "HI(chan)");
        assert!(out.contains("\u{2261}\"define:f.c:49\""), "{out}");
        assert!(out.contains("(((chan) & 0xf) << 4)"));
    }

    #[test]
    fn unbalanced_invocation_left_alone() {
        let mut t = MacroTable::new();
        t.define(MacroDef::function("F", vec!["x".into()], "x"));
        assert_eq!(expand_str(&t, "F(1"), "F(1");
    }
}
