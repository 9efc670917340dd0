//! The mutation engine: placing tokens at change sites (paper §III.B).
//!
//! Three kinds of changed lines:
//!
//! 1. **comment lines** — never processed by the compiler, never mutated;
//! 2. **macro-definition lines** — one mutation per changed macro: appended
//!    to the `#define` line (before a trailing `\`) when the first change
//!    is on that line, otherwise a fresh continuation line holding only
//!    the mutation and a `\`, inserted before the first changed body line;
//! 3. **everything else** — one mutation per conditional-compilation
//!    section (the stretch since the last `#if`/`#ifdef`/`#ifndef`/
//!    `#elif`/`#else`), inserted as a line of its own before the first
//!    changed line, or after the closing `*/` when the changed line starts
//!    inside a comment that ends on it. A token never splits a directive:
//!    on a conditional directive it goes after the whole directive, and on
//!    a later physical line of any other directive, before it.
//!
//! This module is the one place that decides where a token lands and,
//! through [`region_line`], which pristine line has the token's presence
//! condition; the static oracles read that function (DESIGN.md §23).

use crate::token::{MutationKind, MutationToken};
use jmake_cpp::cond::{BranchTree, LineSlot};
use jmake_cpp::lines::logical_lines;
use jmake_cpp::{analyze, SourceMap};
use jmake_diff::{ChangedLine, ChangedLines};
use std::collections::BTreeMap;

/// The output of mutating one file.
#[derive(Debug, Clone, Default)]
pub struct MutationPlan {
    /// The mutated file content.
    pub mutated: String,
    /// Tokens inserted, in source order.
    pub mutations: Vec<MutationToken>,
    /// Names of macros whose definitions changed — the `.h` pipeline's
    /// hints (paper §III.E).
    pub changed_macros: Vec<String>,
    /// Changed lines that sat entirely in comments (tracked for
    /// reporting; they need no compilation evidence).
    pub comment_lines: Vec<u32>,
    /// The lexical map of the unmutated content the plan was made from;
    /// the classifier reads it for the tokens no trial certified.
    pub map: SourceMap,
}

impl MutationPlan {
    /// True when nothing needs compilation evidence.
    pub fn is_trivial(&self) -> bool {
        self.mutations.is_empty()
    }
}

/// What to insert, where.
#[derive(Debug)]
enum Insertion {
    /// Append text at the end of 1-based line `line` (before a trailing
    /// continuation backslash when `before_continuation`).
    AtLineEnd {
        line: u32,
        text: String,
        before_continuation: bool,
    },
    /// Insert a whole new line before 1-based line `line`.
    NewLineBefore { line: u32, text: String },
    /// Insert text within line `line` at byte column `col`.
    MidLine { line: u32, col: usize, text: String },
    /// Append a new line at end of file.
    AtEof { text: String },
}

/// Compute the mutation plan for `file` whose post-patch content is
/// `content`, with `changed` positions from [`jmake_diff::changed_lines`].
pub fn mutate(file: &str, content: &str, changed: &ChangedLines) -> MutationPlan {
    let map = analyze(content);
    let total_lines = map.len() as u32;
    let mut plan = MutationPlan::default();
    let mut insertions: Vec<Insertion> = Vec::new();

    // Partition changed lines.
    let mut macro_first_change: BTreeMap<usize, u32> = BTreeMap::new();
    // section id -> first changed line in it.
    let mut section_first_change: BTreeMap<u32, u32> = BTreeMap::new();
    let mut eof_changed = false;

    // Section id of a line: count of conditional boundaries at or before it.
    let section_of = |line: u32| -> u32 {
        let mut section = 0;
        for l in 1..=line.min(total_lines) {
            if map.line(l).is_some_and(|i| i.is_conditional) {
                section += 1;
            }
        }
        section
    };

    for pos in &changed.positions {
        let line = match pos {
            ChangedLine::Line(l) => *l,
            ChangedLine::Eof => {
                eof_changed = true;
                continue;
            }
        };
        let Some(info) = map.line(line) else {
            continue; // past EOF; the EOF marker covers it
        };
        if info.comment_only || (info.starts_in_comment && info.comment_close_col.is_none()) {
            plan.comment_lines.push(line);
            continue;
        }
        if let Some(idx) = info.in_macro_def {
            let slot = macro_first_change.entry(idx).or_insert(line);
            *slot = (*slot).min(line);
            continue;
        }
        let sec = section_of(line);
        let slot = section_first_change.entry(sec).or_insert(line);
        *slot = (*slot).min(line);
    }

    // Macro mutations (paper Fig. 2).
    for (idx, first_line) in &macro_first_change {
        let def = &map.macro_defs[*idx];
        plan.changed_macros.push(def.name.clone());
        let token = MutationToken::new(MutationKind::Define, file, *first_line);
        if *first_line == def.define_line {
            let ends_with_cont = map
                .line(def.define_line)
                .is_some_and(|i| i.ends_with_continuation);
            insertions.push(Insertion::AtLineEnd {
                line: def.define_line,
                text: format!(" {}", token.render()),
                before_continuation: ends_with_cont,
            });
        } else {
            insertions.push(Insertion::NewLineBefore {
                line: *first_line,
                text: format!("{} \\", token.render()),
            });
        }
        plan.mutations.push(token);
    }

    // Plain-code mutations (paper Fig. 3), one per conditional section.
    for &first_line in section_first_change.values() {
        let token = MutationToken::new(MutationKind::Context, file, first_line);
        insertions.push(context_insertion(&map, first_line, token.render()));
        plan.mutations.push(token);
    }

    // EOF-only removals: certify that the end of the file is compiled.
    if eof_changed {
        let last_section_covered = section_first_change
            .keys()
            .next_back()
            .is_some_and(|&s| s == section_of(total_lines));
        if !last_section_covered {
            let token = MutationToken::new(MutationKind::Context, file, total_lines.max(1));
            insertions.push(Insertion::AtEof {
                text: token.render(),
            });
            plan.mutations.push(token);
        }
    }

    plan.mutations.sort();
    plan.mutations.dedup();
    plan.comment_lines.sort_unstable();
    plan.comment_lines.dedup();
    plan.mutated = apply_insertions(content, insertions);
    plan.map = map;
    plan
}

/// Where the `Context` token of a section whose first changed line is
/// `line` lands (DESIGN.md §23). It sits in the arm
/// `map.branches.slot(line).arm()` names, and never between two physical
/// lines of one directive:
///
/// - on any line of a conditional directive, after the directive's last
///   physical line: in the arm an opener opens, or the arm an `#endif`
///   returns to;
/// - on a later physical line of any other directive, before the
///   directive's first;
/// - on any other line, before it, or after the `*/` when the line starts
///   in a comment that closes on it.
fn context_insertion(map: &SourceMap, line: u32, text: String) -> Insertion {
    let Some(info) = map.line(line) else {
        // Defensive: every entry was looked up successfully above, but a
        // panic here would take down the whole patch (and, before the
        // driver's catch_unwind, the whole run). If the map ever disagrees
        // — e.g. an append-heavy patch whose diff positions outrun the
        // analyzed snapshot — certify the file tail instead of crashing.
        return Insertion::AtEof { text };
    };
    if let LineSlot::Opens(_) | LineSlot::Closes(_) = map.branches.slot(line) {
        let after = directive_end(&map.branches, line) + 1;
        return if after > map.len() as u32 {
            Insertion::AtEof { text }
        } else {
            Insertion::NewLineBefore { line: after, text }
        };
    }
    let first = directive_start(map, line);
    if first < line {
        return Insertion::NewLineBefore { line: first, text };
    }
    match info.comment_close_col {
        Some(col) => Insertion::MidLine {
            line,
            col,
            text: format!(" {text} "),
        },
        None => Insertion::NewLineBefore { line, text },
    }
}

/// The last physical line of the conditional directive on `line`, whose
/// slot is `Opens` or `Closes`: every physical line of a logical line
/// shares its slot, and no two directives in a row open the same arm or
/// return to the same one.
fn directive_end(tree: &BranchTree, line: u32) -> u32 {
    let slot = tree.slot(line);
    (line + 1..)
        .take_while(|&l| tree.slot(l) == slot)
        .last()
        .unwrap_or(line)
}

/// The first physical line of the directive that `line` continues:
/// `line` itself unless it is a directive line after a directive line
/// ending in `\`. A line that starts in a comment is never stepped onto,
/// since a token inserted before it would sit in the comment.
fn directive_start(map: &SourceMap, line: u32) -> u32 {
    let continued = |l: u32| {
        map.line(l)
            .is_some_and(|i| i.is_directive && i.ends_with_continuation && !i.starts_in_comment)
    };
    if !map.line(line).is_some_and(|i| i.is_directive) {
        return line;
    }
    (1..line)
        .rev()
        .take_while(|&l| continued(l))
        .last()
        .unwrap_or(line)
}

/// The pristine line whose presence condition a token recorded at `line`
/// carries (DESIGN.md §23): `line` itself, except on a conditional opener,
/// whose token sits in the arm it opens. There it is the first line after
/// the directive when that line is in the arm, and `None` when it is not
/// (an empty arm, or an `#elif`/`#else` right after). An `#endif`'s token
/// sits in the arm the `#endif` returns to, the arm reach reads the
/// `#endif` line in.
pub fn region_line(tree: &BranchTree, line: u32) -> Option<u32> {
    let LineSlot::Opens(arm) = tree.slot(line) else {
        return Some(line);
    };
    let next = directive_end(tree, line) + 1;
    let in_arm = match tree.slot(next) {
        LineSlot::Body(a) | LineSlot::Outside(a) => a == Some(arm),
        // A fresh opener nested in the arm, which reach reads in the arm.
        LineSlot::Opens(inner) => tree.arm(inner).parent == Some(arm),
        LineSlot::Closes(_) => false,
    };
    in_arm.then_some(next)
}

/// The branch tree [`region_line`] reads, for a caller holding only the
/// file's text.
pub fn branch_tree(src: &str) -> BranchTree {
    BranchTree::build(&logical_lines(src))
}

/// Apply insertions bottom-up so line numbers stay valid.
fn apply_insertions(content: &str, mut insertions: Vec<Insertion>) -> String {
    let mut lines: Vec<String> = content.lines().map(str::to_string).collect();
    insertions.sort_by_key(|i| {
        std::cmp::Reverse(match i {
            Insertion::AtLineEnd { line, .. }
            | Insertion::NewLineBefore { line, .. }
            | Insertion::MidLine { line, .. } => *line,
            Insertion::AtEof { .. } => u32::MAX,
        })
    });
    for ins in insertions {
        match ins {
            Insertion::AtEof { text } => lines.push(text),
            Insertion::AtLineEnd {
                line,
                text,
                before_continuation,
            } => {
                let idx = (line as usize).saturating_sub(1);
                if let Some(l) = lines.get_mut(idx) {
                    if before_continuation {
                        if let Some(stripped) = l.strip_suffix('\\') {
                            *l = format!("{}{} \\", stripped.trim_end(), text);
                            continue;
                        }
                    }
                    l.push_str(&text);
                }
            }
            Insertion::NewLineBefore { line, text } => {
                let idx = (line as usize).saturating_sub(1).min(lines.len());
                lines.insert(idx, text);
            }
            Insertion::MidLine { line, col, text } => {
                let idx = (line as usize).saturating_sub(1);
                if let Some(l) = lines.get_mut(idx) {
                    let col = col.min(l.len());
                    l.insert_str(col, &text);
                }
            }
        }
    }
    if lines.is_empty() {
        String::new()
    } else {
        lines.join("\n") + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::MUTATION_GLYPH;
    use jmake_diff::ChangedLine;

    fn changed(lines: &[u32]) -> ChangedLines {
        lines.iter().map(|&l| ChangedLine::Line(l)).collect()
    }

    #[test]
    fn plain_change_gets_own_line_before() {
        let src = "int a;\nint b;\nint c;\n";
        let plan = mutate("f.c", src, &changed(&[2]));
        assert_eq!(plan.mutations.len(), 1);
        let lines: Vec<&str> = plan.mutated.lines().collect();
        assert_eq!(lines[0], "int a;");
        assert!(lines[1].starts_with(MUTATION_GLYPH));
        assert_eq!(lines[2], "int b;");
    }

    #[test]
    fn one_mutation_per_conditional_section() {
        let src = "int a;\nint b;\n#ifdef X\nint c;\nint d;\n#endif\n";
        // Changes in lines 1, 2 (same section) and 4, 5 (same section).
        let plan = mutate("f.c", src, &changed(&[1, 2, 4, 5]));
        assert_eq!(plan.mutations.len(), 2);
        assert_eq!(plan.mutations[0].line, 1);
        assert_eq!(plan.mutations[1].line, 4);
    }

    #[test]
    fn else_opens_a_new_section() {
        let src = "#ifdef X\nint a;\n#else\nint b;\n#endif\n";
        let plan = mutate("f.c", src, &changed(&[2, 4]));
        assert_eq!(plan.mutations.len(), 2);
        // One mutation lands in the #ifdef branch, one in the #else branch.
        let text = plan.mutated;
        let glyph_lines: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(MUTATION_GLYPH))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(glyph_lines.len(), 2);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[glyph_lines[0] + 1], "int a;");
        assert_eq!(lines[glyph_lines[1] + 1], "int b;");
    }

    #[test]
    fn comment_only_changes_are_skipped() {
        let src = "/* big\n   comment\n*/\nint code;\n";
        let plan = mutate("f.c", src, &changed(&[1, 2, 3]));
        assert!(plan.is_trivial());
        assert_eq!(plan.comment_lines, vec![1, 2, 3]);
        assert_eq!(plan.mutated, src);
    }

    #[test]
    fn change_on_define_line_appends_at_end() {
        let src = "#define HI(x) (((x) & 0xf) << 4)\nint y;\n";
        let plan = mutate("f.c", src, &changed(&[1]));
        assert_eq!(plan.mutations.len(), 1);
        assert_eq!(plan.mutations[0].kind, MutationKind::Define);
        assert_eq!(plan.changed_macros, vec!["HI".to_string()]);
        let first = plan.mutated.lines().next().unwrap();
        assert!(
            first.starts_with("#define HI(x) (((x) & 0xf) << 4) \u{2261}\"define:f.c:1\""),
            "{first}"
        );
    }

    #[test]
    fn change_on_continued_define_line_inserts_before_backslash() {
        // Paper Fig. 2, third example: mutation before the continuation.
        let src = "#define SINGLE(x) \\\n (HI(x) | \\\n  LO(x))\nint z;\n";
        let plan = mutate("f.c", src, &changed(&[1]));
        let first = plan.mutated.lines().next().unwrap();
        assert!(first.ends_with("\u{2261}\"define:f.c:1\" \\"), "{first}");
        // The macro still has its body attached.
        assert!(plan.mutated.contains("(HI(x) |"));
    }

    #[test]
    fn change_in_macro_body_adds_continuation_line_before() {
        let src = "#define SINGLE(x) \\\n (HI(x) | \\\n  LO(x))\nint z;\n";
        let plan = mutate("f.c", src, &changed(&[3]));
        let lines: Vec<&str> = plan.mutated.lines().collect();
        // New line holding mutation + continuation inserted before line 3.
        assert!(lines[2].starts_with(MUTATION_GLYPH));
        assert!(lines[2].ends_with('\\'));
        assert_eq!(lines[3], "  LO(x))");
        assert_eq!(plan.mutations[0].line, 3);
    }

    #[test]
    fn one_mutation_per_changed_macro() {
        let src = "#define A(x) (x)\n#define B(x) \\\n ((x) + 1)\nint u;\n";
        let plan = mutate("f.c", src, &changed(&[1, 2, 3]));
        // A changed at line 1; B changed at lines 2 (its define) and 3.
        assert_eq!(plan.mutations.len(), 2);
        assert_eq!(plan.changed_macros, vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn mid_comment_close_places_after_comment_end() {
        let src = "int before; /* starts\nends */ int changed;\nint after;\n";
        let plan = mutate("f.c", src, &changed(&[2]));
        let line2 = plan.mutated.lines().nth(1).unwrap();
        assert!(
            line2.starts_with("ends */ \u{2261}\"context:f.c:2\" "),
            "{line2}"
        );
        assert!(line2.ends_with("int changed;"));
    }

    #[test]
    fn changed_conditional_line_certifies_following_section() {
        let src = "int a;\n#ifdef NEW_GUARD\nint b;\n#endif\n";
        let plan = mutate("f.c", src, &changed(&[2]));
        let lines: Vec<&str> = plan.mutated.lines().collect();
        assert_eq!(lines[1], "#ifdef NEW_GUARD");
        assert!(lines[2].starts_with(MUTATION_GLYPH));
        assert_eq!(lines[3], "int b;");
    }

    #[test]
    fn eof_removal_appends_token() {
        let src = "int a;\nint b;\n";
        let changed: ChangedLines = vec![ChangedLine::Eof].into_iter().collect();
        let plan = mutate("f.c", src, &changed);
        assert_eq!(plan.mutations.len(), 1);
        assert!(plan
            .mutated
            .lines()
            .last()
            .unwrap()
            .starts_with(MUTATION_GLYPH));
    }

    #[test]
    fn eof_marker_merges_with_last_section_change() {
        let src = "int a;\nint b;\n";
        let changed: ChangedLines = vec![ChangedLine::Line(2), ChangedLine::Eof]
            .into_iter()
            .collect();
        let plan = mutate("f.c", src, &changed);
        // The line-2 mutation already certifies the final section.
        assert_eq!(plan.mutations.len(), 1);
    }

    #[test]
    fn mutated_file_still_preprocesses_and_carries_tokens() {
        use jmake_cpp::{MapResolver, Preprocessor};
        let src =
            "#define M(x) ((x) + 1)\n#ifdef CONFIG_A\nint a = M(2);\nint b;\n#endif\nint c;\n";
        // Paper sectioning: #endif is NOT a boundary, so lines 3, 4, and 6
        // share the section opened by the #ifdef — one context mutation,
        // plus one define mutation for macro M.
        let plan = mutate("f.c", src, &changed(&[1, 3, 4, 6]));
        assert_eq!(plan.mutations.len(), 2);
        let mut pp = Preprocessor::new(MapResolver::new());
        pp.define_object("CONFIG_A", "1");
        let out = pp.preprocess("f.c", &plan.mutated);
        assert!(out.is_clean(), "{:?}", out.errors);
        let found = MutationToken::scan(&out.text);
        assert_eq!(found.len(), 2, "{}", out.text);
    }

    #[test]
    fn tokens_vanish_when_guard_unset() {
        use jmake_cpp::{MapResolver, Preprocessor};
        let src = "#ifdef CONFIG_RARE\nint rare;\n#endif\nint common;\n";
        // Lines 2 and 4 share the #ifdef-opened section (the paper does
        // not treat #endif as a boundary): one mutation, placed before the
        // first changed line — inside the guard.
        let plan = mutate("f.c", src, &changed(&[2, 4]));
        assert_eq!(plan.mutations.len(), 1);
        let pp = Preprocessor::new(MapResolver::new());
        let out = pp.preprocess("f.c", &plan.mutated);
        // Guard unset: the token vanishes and JMake reports the lines as
        // not subjected to the compiler (conservatively including line 4).
        assert!(MutationToken::scan(&out.text).is_empty());
    }

    #[test]
    fn changes_past_eof_are_ignored_gracefully() {
        let plan = mutate("f.c", "int a;\n", &changed(&[99]));
        assert!(plan.is_trivial());
    }

    #[test]
    fn append_at_eof_patch_is_planned_without_panic() {
        use jmake_diff::{changed_lines, diff_to_patch, DiffOptions};
        // An append-only patch: every added line is at the tail of the
        // file, the shape that once stressed the "validated above" lookup.
        let old = "int a;\nint b;\n";
        let new = "int a;\nint b;\nint tail;\nint tail2;\n";
        let patch = diff_to_patch("f.c", old, new, &DiffOptions::default());
        let fp = &patch.files[0];
        let changed = changed_lines(fp, new.lines().count() as u32);
        let plan = mutate("f.c", new, &changed);
        assert_eq!(plan.mutations.len(), 1);
        // The mutation certifies the appended section: it sits before the
        // first appended line.
        let lines: Vec<&str> = plan.mutated.lines().collect();
        let glyph_at = lines
            .iter()
            .position(|l| l.contains(MUTATION_GLYPH))
            .expect("mutation placed");
        assert!(lines[glyph_at + 1..].contains(&"int tail;"), "{lines:?}");
    }

    /// The mutated lines of `plan`, and the index of its one token line.
    fn token_line(plan: &MutationPlan) -> (Vec<&str>, usize) {
        let lines: Vec<&str> = plan.mutated.lines().collect();
        let at = lines.iter().position(|l| l.starts_with(MUTATION_GLYPH));
        let at = at.expect("one token line");
        (lines, at)
    }

    #[test]
    fn changed_spliced_conditional_keeps_its_logical_line_whole() {
        let src = "int a;\n#if defined(CONFIG_A) || \\\n    defined(CONFIG_B)\nint b;\n\
                   #elif defined(CONFIG_C) && \\\n    defined(CONFIG_D)\nint c;\n#endif\n";
        let pristine: Vec<&str> = src.lines().collect();
        // (changed line, the directive's last physical line)
        for (changed_line, last) in [(2, 3), (3, 3), (5, 6), (6, 6)] {
            let plan = mutate("f.c", src, &changed(&[changed_line]));
            let (lines, at) = token_line(&plan);
            // The token follows the directive's last physical line, and
            // the directive's lines are untouched.
            assert_eq!(at, last, "line {changed_line}: {lines:?}");
            assert_eq!(lines[..at], pristine[..at]);
            assert_eq!(lines[at + 1..], pristine[at..]);
            assert_eq!(plan.mutations[0].line, changed_line);
        }
    }

    #[test]
    fn changed_endif_token_goes_after_it() {
        let src = "int a;\n#ifdef CONFIG_OFF\nint b;\n#endif /* CONFIG_OFF */\nint c;\n";
        let plan = mutate("f.c", src, &changed(&[4]));
        let (lines, at) = token_line(&plan);
        assert_eq!(lines[at - 1], "#endif /* CONFIG_OFF */");
        assert_eq!(lines[at + 1], "int c;");
        // At the end of the file, the token is appended.
        let plan = mutate("f.c", "#ifdef X\nint b;\n#endif\n", &changed(&[3]));
        let (lines, at) = token_line(&plan);
        assert_eq!((at, lines[at - 1]), (3, "#endif"));
    }

    #[test]
    fn continued_directive_token_goes_before_it() {
        let src = "int a;\n#include \\\n  \"x.h\"\nint b;\n";
        let plan = mutate("f.c", src, &changed(&[3]));
        let (lines, at) = token_line(&plan);
        assert_eq!(at, 1, "{lines:?}");
        assert_eq!(lines[at + 1], "#include \\");
        assert_eq!(plan.mutations[0].line, 3);
    }

    #[test]
    fn region_line_reads_an_opener_token_in_the_arm_it_opens() {
        let src = "int a;\n#ifdef X\nint b;\n#endif\n#if A && \\\n  B\n#ifdef Y\n#endif\n#endif\n\
                   #ifdef Z\n#else\nint c;\n#endif\n";
        let tree = branch_tree(src);
        // Plain lines and `#endif`s are read where they are.
        assert_eq!(region_line(&tree, 1), Some(1));
        assert_eq!(region_line(&tree, 4), Some(4));
        // An opener's token is read at the first line of its arm, after a
        // splice, and at a nested opener.
        assert_eq!(region_line(&tree, 2), Some(3));
        assert_eq!(region_line(&tree, 5), Some(7));
        assert_eq!(region_line(&tree, 6), Some(7));
        // An empty arm, or an `#else` right after: no pristine line.
        assert_eq!(region_line(&tree, 7), None);
        assert_eq!(region_line(&tree, 10), None);
        assert_eq!(region_line(&tree, 11), Some(12));
    }

    #[test]
    fn empty_file() {
        let plan = mutate("f.c", "", &changed(&[]));
        assert!(plan.is_trivial());
        assert_eq!(plan.mutated, "");
    }
}
