//! Property tests over the preprocessor stack.

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
}
