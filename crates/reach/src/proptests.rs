//! Property tests: the symbolic presence conditions of [`crate::file`]
//! agree, line for line, with what the real preprocessor emits under a
//! concrete configuration.
//!
//! This is the static/dynamic agreement property the cross-check relies
//! on, shrunk to its essence: generate a random nest of conditionals over
//! a small symbol pool, pick a random tristate assignment, and require
//! that a marker line survives `jmake_cpp::Preprocessor` exactly when its
//! presence condition evaluates to [`Truth::True`] under that
//! configuration.

use crate::cond::Truth;
use crate::file::analyze_file;
use jmake_cpp::{MapResolver, Preprocessor};
use jmake_kconfig::{Config, Tristate};
use proptest::prelude::*;

const SYMS: [&str; 4] = ["ALPHA", "BETA", "GAMMA", "DELTA"];

/// One generated line of the conditional nest, before balancing.
#[derive(Debug, Clone)]
enum Item {
    Marker,
    OpenIfdef(usize),
    OpenIfndef(usize),
    OpenIfExpr(usize, usize, bool),
    OpenIfModule(usize),
    Elif(usize),
    Else,
    Endif,
}

fn item() -> impl Strategy<Value = Item> {
    // The vendored prop_oneof! is unweighted; duplicate arms supply the
    // bias toward markers and region closers.
    prop_oneof![
        Just(Item::Marker),
        Just(Item::Marker),
        Just(Item::Marker),
        (0..SYMS.len()).prop_map(Item::OpenIfdef),
        (0..SYMS.len()).prop_map(Item::OpenIfdef),
        (0..SYMS.len()).prop_map(Item::OpenIfndef),
        (0..SYMS.len(), 0..SYMS.len(), prop::bool::ANY)
            .prop_map(|(a, b, conj)| Item::OpenIfExpr(a, b, conj)),
        (0..SYMS.len()).prop_map(Item::OpenIfModule),
        (0..SYMS.len()).prop_map(Item::Elif),
        Just(Item::Else),
        Just(Item::Endif),
        Just(Item::Endif),
    ]
}

/// Render a balanced source: invalid `#elif`/`#else`/`#endif` are dropped,
/// unclosed frames are closed at the end, markers get unique names.
fn render(items: Vec<Item>) -> String {
    let mut out: Vec<String> = Vec::new();
    // Per open frame: has an #else been emitted?
    let mut stack: Vec<bool> = Vec::new();
    let mut marker = 0usize;
    let push_marker = |out: &mut Vec<String>, marker: &mut usize| {
        out.push(format!("int mk{}q;", *marker));
        *marker += 1;
    };
    for item in items {
        match item {
            Item::Marker => push_marker(&mut out, &mut marker),
            Item::OpenIfdef(i) => {
                out.push(format!("#ifdef CONFIG_{}", SYMS[i]));
                stack.push(false);
            }
            Item::OpenIfndef(i) => {
                out.push(format!("#ifndef CONFIG_{}", SYMS[i]));
                stack.push(false);
            }
            Item::OpenIfExpr(a, b, conj) => {
                let op = if conj { "&&" } else { "||" };
                out.push(format!(
                    "#if defined(CONFIG_{}) {op} !defined(CONFIG_{}_MODULE)",
                    SYMS[a], SYMS[b]
                ));
                stack.push(false);
            }
            Item::OpenIfModule(i) => {
                // Bare CONFIG macro in an #if: defined-as-1 or absent.
                out.push(format!("#if CONFIG_{}", SYMS[i]));
                stack.push(false);
            }
            Item::Elif(i) => {
                if stack.last() == Some(&false) {
                    out.push(format!("#elif defined(CONFIG_{})", SYMS[i]));
                }
            }
            Item::Else => {
                if let Some(seen) = stack.last_mut() {
                    if !*seen {
                        *seen = true;
                        out.push("#else".to_string());
                    }
                }
            }
            Item::Endif => {
                if stack.pop().is_some() {
                    out.push("#endif".to_string());
                }
            }
        }
        // Keep every region non-empty-ish so shrinking stays interesting.
    }
    while stack.pop().is_some() {
        out.push("#endif".to_string());
    }
    push_marker(&mut out, &mut marker);
    out.join("\n") + "\n"
}

fn source() -> impl Strategy<Value = String> {
    prop::collection::vec(item(), 0..40).prop_map(render)
}

fn config() -> impl Strategy<Value = Config> {
    prop::collection::vec(0u8..3, SYMS.len()..SYMS.len() + 1).prop_map(|vals| {
        let mut c = Config::default();
        for (sym, v) in SYMS.iter().zip(vals) {
            let t = match v {
                0 => Tristate::N,
                1 => Tristate::M,
                _ => Tristate::Y,
            };
            c.set(*sym, t);
        }
        c
    })
}

proptest! {
    /// Static presence condition ⇔ dynamic preprocessor emission, for
    /// every marker line, under every sampled configuration.
    #[test]
    fn presence_conditions_match_preprocessor(src in source(), cfg in config()) {
        let fa = analyze_file(&src);
        prop_assert!(fa.balanced, "generator must emit balanced nests:\n{src}");

        let mut pp = Preprocessor::new(MapResolver::new());
        for (name, body) in cfg.cpp_defines() {
            pp.define_object(&name, &body);
        }
        let out = pp.preprocess("t.c", &src);
        prop_assert!(out.errors.is_empty(), "clean source preprocessed with errors: {:?}", out.errors);

        for (idx, line) in src.lines().enumerate() {
            let Some(name) = marker_name(line) else { continue };
            let emitted = out
                .text
                .lines()
                .any(|l| l.split(|c: char| !c.is_ascii_alphanumeric()).any(|w| w == name));
            let truth = fa.conds[idx].eval(&cfg);
            prop_assert!(
                truth != Truth::Unknown,
                "pure CONFIG nest must be decidable at line {} of:\n{src}",
                idx + 1
            );
            prop_assert_eq!(
                emitted,
                truth == Truth::True,
                "line {} ({}) static={:?} dynamic={} under {:?}\n{}",
                idx + 1, line, truth, emitted, cfg, src
            );
        }
    }

    /// Directive lines always carry their *enclosing* region's condition:
    /// whenever the enclosing region is active the preprocessor reads the
    /// directive, so a directive's condition must be implied by its
    /// parent's. Weak form checked here: the first and last lines of a
    /// balanced nest (top-level) are always `True`-conditioned.
    #[test]
    fn top_level_lines_are_unconditional(src in source()) {
        let fa = analyze_file(&src);
        prop_assert!(fa.balanced);
        let n = src.lines().count();
        // The trailing marker is always top-level by construction.
        prop_assert_eq!(&fa.conds[n - 1], &crate::cond::CondExpr::True);
    }
}

proptest! {
    /// An include guard is discharged, not conjoined: wrapping a balanced
    /// nest in `#ifndef G` / `#define G` … `#endif` plus trailing blank
    /// lines leaves every body line's condition exactly as it was, and
    /// the guard's own lines unconditional.
    #[test]
    fn guarded_file_equivalent_to_its_body(src in source(), blanks in 0usize..3) {
        let wrapped = format!("#ifndef BODY_H\n#define BODY_H\n{src}#endif\n{}", "\n".repeat(blanks));
        let body = analyze_file(&src);
        let fa = analyze_file(&wrapped);
        prop_assert_eq!(fa.guard.as_deref(), Some("BODY_H"), "{}", wrapped);
        prop_assert!(fa.balanced);
        let n = body.conds.len();
        prop_assert_eq!(&fa.conds[2..2 + n], &body.conds[..], "{}", wrapped);
        for (i, c) in fa.conds.iter().enumerate() {
            if !(2..2 + n).contains(&i) {
                prop_assert_eq!(c, &crate::cond::CondExpr::True, "line {} of:\n{}", i + 1, wrapped);
            }
        }
    }
}

/// `int mk<N>q;` → `mk<N>q`.
fn marker_name(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("int mk")?;
    let end = rest.find(';')?;
    let name = &line[4..4 + 2 + end];
    Some(name)
}
