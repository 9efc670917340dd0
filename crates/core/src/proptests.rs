//! Property tests for the mutation engine, token machinery, precheck and
//! the readers of the conditional branch tree.

use crate::mutation::{mutate, region_line};
use crate::precheck::{locate, precheck};
use crate::token::MutationToken;
use jmake_cpp::cond::{ArmKind, BranchTree};
use jmake_cpp::lines::logical_lines;
use jmake_cpp::{MapResolver, Preprocessor};
use jmake_diff::{diff_to_patch, ChangedLine, ChangedLines, DiffOptions};
use proptest::prelude::*;

/// Generator for C-shaped sources: declarations, macros (with and without
/// continuations), conditionals (a `\`-spliced `#if` and a commented
/// `#endif` among them), comments.
fn c_source() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        "[a-z]{1,6}".prop_map(|v| format!("int {v};")),
        "[a-z]{1,6}".prop_map(|v| format!("\treturn {v} + 1;")),
        "[A-Z]{1,5}".prop_map(|n| format!("#define {n}(x) ((x) + 1)")),
        // A multi-line macro is one generation unit, so a continuation
        // backslash can never splice an unrelated following line.
        "[A-Z]{1,5}".prop_map(|n| format!("#define {n} \\\n\t(1 + \\\n\t 2)")),
        "[A-Z]{1,5}".prop_map(|n| format!("#ifdef CONFIG_{n}")),
        // A spliced conditional is one generation unit too.
        "[A-Z]{1,5}".prop_map(|n| format!("#if defined(CONFIG_{n}) || \\\n    defined(MODULE)")),
        Just("#else".to_string()),
        Just("#endif".to_string()),
        "[A-Z]{1,5}".prop_map(|n| format!("#endif /* CONFIG_{n} */")),
        Just("/* a block comment */".to_string()),
        Just("// line comment".to_string()),
        Just("/* open".to_string()),
        Just("   still comment */".to_string()),
    ];
    prop::collection::vec(line, 1..40).prop_map(|ls| {
        // Balance conditionals; drop trailing continuations.
        let mut out = Vec::new();
        let mut depth = 0;
        for l in ls {
            if l.starts_with("#if") {
                depth += 1;
            } else if l.starts_with("#endif") {
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
        out.join("\n") + "\n"
    })
}

/// Generator for conditional-heavy sources, deliberately including
/// unbalanced directives (stray `#else`/`#endif`), `#elif` chains and
/// `#elif 0` arms, commented guards, changed `#endif` markers,
/// `\`-spliced directives and lone splices, `#include` lines, and an
/// optional include-guard wrapper followed by blank lines — the shapes
/// the branch tree and its readers have to survive. Kept separate from
/// [`c_source`] so hardening it never weakens the mutation properties.
fn conditional_soup() -> impl Strategy<Value = String> {
    soup(prop::bool::ANY)
}

/// [`conditional_soup`] with every stray directive dropped and every open
/// group closed.
fn balanced_soup() -> impl Strategy<Value = String> {
    soup(Just(true))
}

/// The soup generator; `balance` decides whether [`balanced`] runs.
fn soup(balance: impl Strategy<Value = bool>) -> impl Strategy<Value = String> {
    let line = prop_oneof![
        "[a-z]{1,6}".prop_map(|v| format!("int {v};")),
        Just(String::new()),
        "[A-Z]{1,4}".prop_map(|n| format!("#ifdef CONFIG_{n}")),
        "[A-Z]{1,4}".prop_map(|n| format!("#ifndef CONFIG_{n}")),
        "[A-Z]{1,4}".prop_map(|n| format!("#if defined(CONFIG_{n})")),
        "[A-Z]{1,4}".prop_map(|n| format!("#if !defined(CONFIG_{n}) && defined(MODULE)")),
        Just("#if 0".to_string()),
        Just("#if 0 /* disabled */".to_string()),
        Just("#if (0)".to_string()),
        "[A-Z]{1,4}".prop_map(|n| format!("#elif defined(CONFIG_{n})")),
        Just("#elif 0".to_string()),
        Just("#elif (0)".to_string()),
        Just("#else".to_string()),
        Just("#endif".to_string()),
        "[A-Z]{1,4}".prop_map(|n| format!("#endif /* CONFIG_{n} */")),
        "[A-Z]{1,4}".prop_map(|n| format!("#ifdef \\\n  CONFIG_{n}")),
        Just("#elif \\\n 0".to_string()),
        Just("#el\\\nse".to_string()),
        Just("#end\\\nif".to_string()),
        Just("\\".to_string()),
        "[a-z]{1,4}".prop_map(|n| format!("#include <linux/{n}.h>")),
        "[a-z]{1,4}".prop_map(|n| format!("#include \\\n\"{n}.h\"")),
        Just("/* comment */".to_string()),
    ];
    (
        prop::collection::vec(line, 1..30),
        balance,
        prop::bool::ANY,
        0usize..3,
    )
        .prop_map(|(ls, balance, guarded, blanks)| {
            let ls = if balance { balanced(ls) } else { ls };
            let body = ls.join("\n") + "\n";
            if guarded {
                format!(
                    "#ifndef SOUP_H\n#define SOUP_H\n{body}#endif /* SOUP_H */\n{}",
                    "\n".repeat(blanks)
                )
            } else {
                body
            }
        })
}

/// `lines` with every stray `#elif`/`#else`/`#endif` dropped and every
/// group left open closed at the end.
fn balanced(lines: Vec<String>) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    for l in lines {
        let directive = logical_lines(&l)
            .first()
            .and_then(|ll| ll.directive().map(|(name, _)| name.to_string()));
        match directive.as_deref() {
            Some("if" | "ifdef" | "ifndef") => depth += 1,
            Some("elif" | "else") if depth == 0 => continue,
            Some("endif") if depth == 0 => continue,
            Some("endif") => depth -= 1,
            _ => {}
        }
        out.push(l);
    }
    out.extend(std::iter::repeat_n("#endif".to_string(), depth));
    out
}

fn changed_subset(max_line: usize) -> impl Strategy<Value = ChangedLines> {
    prop::collection::btree_set(1..=max_line.max(1) as u32, 0..8)
        .prop_map(|s| s.into_iter().map(ChangedLine::Line).collect())
}

proptest! {
    /// The mutated file still preprocesses without new diagnostics, and
    /// every token that survives scanning belongs to the plan.
    #[test]
    fn mutated_source_is_preprocessable(src in c_source(), seed in 0u32..1000) {
        let lines = src.lines().count();
        let changed: ChangedLines = (0..4)
            .map(|i| ChangedLine::Line(((seed as usize + i * 7) % lines + 1) as u32))
            .collect();
        let plan = mutate("p.c", &src, &changed);
        let pp = Preprocessor::new(MapResolver::new());
        let before = pp.preprocess("p.c", &src);
        let after = pp.preprocess("p.c", &plan.mutated);
        prop_assert_eq!(
            before.errors.len(),
            after.errors.len(),
            "mutation introduced diagnostics:\n{}",
            plan.mutated
        );
        let found = MutationToken::scan(&after.text);
        for tok in &found {
            prop_assert!(plan.mutations.contains(tok), "phantom token {tok}");
        }
    }

    /// Token counts: the minimized placement never exceeds the naive one,
    /// a token per changed non-comment line, plus one for EOF.
    #[test]
    fn minimized_plan_is_no_larger_than_naive(src in c_source()) {
        let lines = src.lines().count();
        let changed: ChangedLines = (1..=lines as u32).map(ChangedLine::Line).collect();
        let minimized = mutate("p.c", &src, &changed);
        let naive = lines - minimized.comment_lines.len();
        prop_assert!(
            minimized.mutations.len() <= naive + 1,
            "minimized {} vs naive {naive}",
            minimized.mutations.len()
        );
    }

    /// Tokens are unique and render/scan round-trips.
    #[test]
    fn tokens_are_unique_and_scannable(src in c_source(), changed in changed_subset(40)) {
        let plan = mutate("a/b.c", &src, &changed);
        let mut seen = std::collections::BTreeSet::new();
        for tok in &plan.mutations {
            prop_assert!(seen.insert(tok.clone()), "duplicate token {tok}");
            let back = MutationToken::scan(&tok.render());
            prop_assert_eq!(back.len(), 1);
            prop_assert_eq!(&back[0], tok);
        }
    }

    /// Comment-only changed lines never produce mutations, and are all
    /// accounted for in the plan.
    #[test]
    fn comment_lines_are_skipped_not_lost(changed in changed_subset(5)) {
        let src = "/* one\n two\n three */\n// four\n/* five */\n";
        let plan = mutate("c.c", src, &changed);
        prop_assert!(plan.mutations.is_empty(), "{:?}", plan.mutations);
        prop_assert_eq!(plan.comment_lines.len(), changed.len());
    }

    /// Mutation is idempotent in the sense that an empty change set leaves
    /// the file untouched.
    #[test]
    fn empty_change_set_is_identity(src in c_source()) {
        let plan = mutate("p.c", &src, &ChangedLines::default());
        prop_assert!(plan.is_trivial());
        prop_assert_eq!(plan.mutated, src);
    }

    /// Precheck never panics — not on unbalanced conditionals, commented
    /// guards, or changed `#endif` lines — and never reports a line
    /// outside the post-patch file.
    #[test]
    fn precheck_never_panics_or_reports_foreign_lines(
        old in conditional_soup(),
        new in conditional_soup(),
    ) {
        let patch = diff_to_patch("soup.c", &old, &new, &DiffOptions::default());
        let new_len = new.lines().count() as u32;
        for fp in &patch.files {
            let warnings = precheck(fp, &new);
            for w in &warnings {
                prop_assert!(!w.lines.is_empty(), "empty warning {w}");
                for l in &w.lines {
                    prop_assert!(
                        (1..=new_len).contains(l),
                        "line {l} outside 1..={new_len}: {w}"
                    );
                }
                let mut sorted = w.lines.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(&sorted, &w.lines, "lines not sorted+deduped");
            }
        }
    }

    /// (a) At every line, and one past the end, the arms the classifier
    /// reads off the branch tree are the old per-token walk's guard stack.
    #[test]
    fn classifier_guard_stack_equivalent_to_walk(src in conditional_soup()) {
        let tree = BranchTree::build(&logical_lines(&src));
        let n = src.lines().count() as u32;
        for line in 1..=n + 1 {
            let mut stack: Vec<reference::Guard> = tree
                .chain(tree.slot(line).arm())
                .map(|arm| reference::Guard::of(&tree, arm))
                .collect();
            stack.reverse();
            prop_assert_eq!(
                stack,
                reference::guard_stack(&src, line),
                "line {} of:\n{}",
                line,
                src
            );
        }
    }

    /// (b) Precheck places every changed line in the same group, arm and
    /// opener as the old walk.
    #[test]
    fn precheck_arms_equivalent_to_walk(
        src in conditional_soup(),
        changed in prop::collection::btree_set(1u32..40, 0..12),
    ) {
        let changed: Vec<u32> = changed.into_iter().collect();
        let tree = BranchTree::build(&logical_lines(&src));
        let located: Vec<(u32, u32, u32, bool, bool)> = locate(&tree, &changed)
            .into_iter()
            .map(|(l, arm)| {
                let opener = tree.opener(arm);
                (
                    l,
                    arm.group,
                    arm.index,
                    opener.kind == ArmKind::Ifndef,
                    opener.kind == ArmKind::If && opener.is_if_zero(),
                )
            })
            .collect();
        prop_assert_eq!(
            located,
            reference::precheck_located(&src, &changed),
            "changed {:?} of:\n{}",
            changed,
            src
        );
    }

    /// (c) Reach's presence conditions, includes, balance and include
    /// guard are exactly the old stack walk's.
    #[test]
    fn presence_conditions_equivalent_to_walk(src in conditional_soup()) {
        let new = jmake_reach::analyze_file(&src);
        let old = reference::analyze_file(&src);
        prop_assert_eq!(&new.conds, &old.conds, "conds of:\n{}", src);
        let incs = |fa: &jmake_reach::FileAnalysis| -> Vec<(String, bool, jmake_reach::CondExpr)> {
            fa.includes
                .iter()
                .map(|i| (i.path.clone(), i.quoted, i.cond.clone()))
                .collect()
        };
        prop_assert_eq!(incs(&new), incs(&old), "includes of:\n{}", src);
        prop_assert_eq!(new.balanced, old.balanced, "balanced of:\n{}", src);
        prop_assert_eq!(new.guard, old.guard, "guard of:\n{}", src);
    }

    /// (d) The mutation engine never splits or moves a directive: every
    /// mutated file has the original's arms, kinds and operands included,
    /// and the original's balance.
    #[test]
    fn mutated_arms_equivalent_to_pristine(
        src in conditional_soup(),
        changed in prop::collection::btree_set(1u32..40, 0..12),
    ) {
        let changed: ChangedLines = changed.into_iter().map(ChangedLine::Line).collect();
        let plan = mutate("soup.c", &src, &changed);
        let before = BranchTree::build(&logical_lines(&src));
        let after = BranchTree::build(&logical_lines(&plan.mutated));
        prop_assert_eq!(after.arms(), before.arms(), "mutated:\n{}", plan.mutated);
        prop_assert_eq!(after.balanced(), before.balanced(), "mutated:\n{}", plan.mutated);
    }

    /// (e) On balanced files, the region function names the line the old
    /// `line_shapes` inversion named wherever that gave one; where it gave
    /// up, so does the region function, except on an `#endif` and around a
    /// spliced conditional directive, which it now reads.
    #[test]
    fn region_line_equivalent_to_line_shapes(src in balanced_soup()) {
        use reference::LineShape::{Closer, Opens, OpensFresh};
        let tree = BranchTree::build(&logical_lines(&src));
        let shapes = reference::line_shapes(&src);
        let spliced = |l: u32| {
            matches!(
                shapes.get(&l),
                Some(Opens { multi: true, .. } | OpensFresh { multi: true, .. })
            )
        };
        for line in 1..=src.lines().count() as u32 + 1 {
            let old = reference::token_region_line(&shapes, line);
            let new = region_line(&tree, line);
            let newly_read = match shapes.get(&line) {
                Some(Closer) => true,
                Some(Opens { end, .. } | OpensFresh { end, .. }) => spliced(line) || spliced(end + 1),
                None => false,
            };
            prop_assert!(
                new == old || (old.is_none() && newly_read),
                "line {}: old {:?}, new {:?} in:\n{}",
                line,
                old,
                new,
                src
            );
        }
    }
}

/// The directive-stack walks the branch tree replaced, and the placement
/// inversion the region function replaced, kept verbatim as references
/// for the equivalence properties above.
mod reference {
    use jmake_cpp::cond::{is_literal_zero, Arm, ArmKind, BranchTree};
    use jmake_cpp::lines::{logical_lines, LogicalLine};
    use jmake_reach::cond::{parse_directive, parse_if_expr, CondExpr};
    use jmake_reach::{FileAnalysis, IncludeRef};
    use std::collections::BTreeMap;

    // ---- the oracles' `line_shapes` inversion of the placement ----

    /// What a physical line is, for token-region attribution. Lines absent
    /// from the map are plain (token and analyzer agree on the region).
    ///
    /// Public because the remediation pass (`jmake-fix`) attributes tokens
    /// to regions with exactly the same rules.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum LineShape {
        /// `#if`/`#ifdef`/`#ifndef`/`#elif`/`#else`: the mutation engine
        /// places the token *after* the directive, inside the branch it
        /// opens. `end` is the last physical line of the (possibly spliced)
        /// logical directive; `multi` flags splices.
        Opens { end: u32, multi: bool },
        /// `#endif`: a token keyed here sits in the region the directive
        /// closes, which no pristine line unambiguously carries.
        Closer,
        /// `#if`/`#ifdef`/`#ifndef` specifically — safe as the *neighbor*
        /// of a branch token, because the analyzer attributes an opener to
        /// its enclosing region, which is exactly the branch the token
        /// certifies. (`#elif`/`#else`/`#endif` neighbors are attributed
        /// one region out and are not safe.)
        OpensFresh { end: u32, multi: bool },
    }

    /// Map physical lines to their [`LineShape`].
    pub fn line_shapes(src: &str) -> BTreeMap<u32, LineShape> {
        let mut shapes = BTreeMap::new();
        for ll in logical_lines(src) {
            let Some((name, _)) = ll.directive() else {
                continue;
            };
            let multi = ll.first_line != ll.last_line;
            let shape = match name {
                "if" | "ifdef" | "ifndef" => LineShape::OpensFresh {
                    end: ll.last_line,
                    multi,
                },
                "elif" | "else" => LineShape::Opens {
                    end: ll.last_line,
                    multi,
                },
                "endif" => LineShape::Closer,
                _ => continue,
            };
            for phys in ll.first_line..=ll.last_line {
                shapes.insert(phys, shape);
            }
        }
        shapes
    }

    /// The pristine-file line whose region a token recorded at `line`
    /// actually certifies, per the attribution rules of [`token_class`].
    /// `None` for ambiguous sites (`#endif` keys, spliced directives,
    /// `#elif`/`#else` neighbors).
    pub fn token_region_line(shapes: &BTreeMap<u32, LineShape>, line: u32) -> Option<u32> {
        match shapes.get(&line) {
            None => Some(line),
            Some(LineShape::Closer) => None,
            Some(LineShape::Opens { multi: true, .. })
            | Some(LineShape::OpensFresh { multi: true, .. }) => None,
            Some(LineShape::Opens { end, .. }) | Some(LineShape::OpensFresh { end, .. }) => {
                let candidate = end + 1;
                match shapes.get(&candidate) {
                    None | Some(LineShape::OpensFresh { multi: false, .. }) => Some(candidate),
                    _ => None,
                }
            }
        }
    }

    // ---- the classifier's `guard_stack` ----

    /// One stack frame of the conditional context around a line.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(super) enum Guard {
        If(String),
        Ifdef(String),
        Ifndef(String),
        /// `#else`/`#elif` of a group whose opening guard is recorded.
        Else(Box<Guard>),
    }

    /// The conditional guard stack enclosing 1-based `line`.
    pub(super) fn guard_stack(content: &str, line: u32) -> Vec<Guard> {
        let mut stack: Vec<Guard> = Vec::new();
        for ll in logical_lines(content) {
            if ll.first_line > line {
                break;
            }
            let Some((name, rest)) = ll.directive() else {
                continue;
            };
            match name {
                "if" => stack.push(Guard::If(rest.to_string())),
                "ifdef" => stack.push(Guard::Ifdef(first_word(rest))),
                "ifndef" => stack.push(Guard::Ifndef(first_word(rest))),
                "elif" | "else" => {
                    if let Some(top) = stack.pop() {
                        let opening = match top {
                            Guard::Else(inner) => inner,
                            other => Box::new(other),
                        };
                        stack.push(Guard::Else(opening));
                    }
                }
                "endif" => {
                    stack.pop();
                }
                _ => {}
            }
        }
        stack
    }

    fn first_word(s: &str) -> String {
        s.split_whitespace().next().unwrap_or("").to_string()
    }

    impl Guard {
        /// The guard the classifier reads off `arm`: its own test for an
        /// opener, the `Else` of its group's opener for any later arm.
        pub(super) fn of(tree: &BranchTree, arm: &Arm) -> Guard {
            match arm.kind {
                ArmKind::If => Guard::If(arm.operand.clone()),
                ArmKind::Ifdef => Guard::Ifdef(first_word(&arm.operand)),
                ArmKind::Ifndef => Guard::Ifndef(first_word(&arm.operand)),
                ArmKind::Elif | ArmKind::Else => {
                    Guard::Else(Box::new(Guard::of(tree, tree.opener(arm))))
                }
            }
        }
    }

    // ---- precheck's `Frame` walk ----

    /// (line, group, branch, ifndef, if_zero) for each changed line the
    /// walk attributes.
    pub(super) fn precheck_located(
        content: &str,
        changed_lines: &[u32],
    ) -> Vec<(u32, u32, u32, bool, bool)> {
        // Walk the conditional structure once, recording for each changed
        // line the innermost group id, branch index, and guard kind.
        #[derive(Clone)]
        struct Frame {
            group: u32,
            /// 0 for the `#if` arm, 1 for the first `#elif`/`#else`, 2 for the
            /// next, … Branches of one group are mutually exclusive, so changes
            /// in two *distinct* branch indices — not merely "if side vs else
            /// side" — are what no single configuration can cover.
            branch: u32,
            ifndef: bool,
            if_zero: bool,
        }
        let mut stack: Vec<Frame> = Vec::new();
        let mut next_group = 0u32;
        // (line, group, branch, ifndef, if_zero)
        let mut located: Vec<(u32, u32, u32, bool, bool)> = Vec::new();
        let mut line_idx = 0usize;
        for ll in logical_lines(content) {
            let directive = ll.directive();
            let mut attribute = true;
            if let Some((name, rest)) = directive {
                match name {
                    "if" | "ifdef" | "ifndef" => {
                        stack.push(Frame {
                            group: next_group,
                            branch: 0,
                            ifndef: name == "ifndef",
                            if_zero: name == "if" && is_literal_zero(rest),
                        });
                        next_group += 1;
                    }
                    "elif" | "else" => {
                        if let Some(top) = stack.last_mut() {
                            top.branch += 1;
                        }
                    }
                    "endif" => {
                        // A changed `#endif` is processed by the preprocessor
                        // whatever branch is live; attributing it to a branch
                        // (or, after an eager pop, to the *enclosing* frame)
                        // fabricates branch changes. Attribute it to nothing,
                        // and pop only after this logical line's attribution.
                        attribute = false;
                    }
                    _ => {}
                }
            }
            // Attribute every physical line of this logical line.
            while line_idx < changed_lines.len() {
                let l = changed_lines[line_idx];
                if l < ll.first_line {
                    line_idx += 1;
                    continue;
                }
                if l > ll.last_line {
                    break;
                }
                if attribute {
                    if let Some(top) = stack.last() {
                        located.push((l, top.group, top.branch, top.ifndef, top.if_zero));
                    }
                }
                line_idx += 1;
            }
            if matches!(directive, Some(("endif", _))) {
                stack.pop();
            }
        }
        located
    }

    // ---- reach's `analyze_file` stack walk ----

    /// One open conditional region during the walk.
    struct Frame {
        /// Condition for the branch currently open: its own test conjoined
        /// with the negation of every earlier branch in the chain.
        cond: CondExpr,
        /// Conjunction of negations of all branch tests so far — the premise
        /// an `#elif`/`#else` inherits.
        not_taken: CondExpr,
    }

    /// Analyze `src`, producing per-line presence conditions.
    pub(super) fn analyze_file(src: &str) -> FileAnalysis {
        let lls = logical_lines(src);
        let guard = detect_include_guard(&lls);
        let total = src
            .lines()
            .count()
            .max(lls.last().map(|l| l.last_line as usize).unwrap_or(0));
        let mut conds = vec![CondExpr::True; total];
        let mut includes = Vec::new();
        let mut balanced = true;

        let mut stack: Vec<Frame> = Vec::new();
        let stack_cond = |stack: &[Frame], depth: usize| -> CondExpr {
            stack[..depth]
                .iter()
                .fold(CondExpr::True, |acc, f| acc.and(f.cond.clone()))
        };

        // Lines in no logical line (a lone `\` spliced onto the next one,
        // or a line past the last) take the condition of the stack open
        // after the logical lines before them.
        let mut next_line = 1;
        for (idx, ll) in lls.iter().enumerate() {
            for phys in next_line..ll.first_line {
                conds[phys as usize - 1] = stack_cond(&stack, stack.len());
            }
            next_line = ll.last_line + 1;
            let mut line_cond = stack_cond(&stack, stack.len());
            if let Some((name, rest)) = ll.directive() {
                match name {
                    "if" | "ifdef" | "ifndef" => {
                        // The opener is read whenever the *outer* region is
                        // active — which is the current full stack.
                        let mut test = parse_directive(name, rest).unwrap_or(CondExpr::Unknown);
                        if guard
                            .as_deref()
                            .is_some_and(|g| is_guard_opener(&lls, idx, g))
                        {
                            test = CondExpr::True;
                        }
                        stack.push(Frame {
                            not_taken: test.clone().negate(),
                            cond: test,
                        });
                    }
                    "elif" => match stack.pop() {
                        Some(frame) => {
                            line_cond = stack_cond(&stack, stack.len());
                            let test = parse_if_expr(rest);
                            stack.push(Frame {
                                cond: frame.not_taken.clone().and(test.clone()),
                                not_taken: frame.not_taken.and(test.negate()),
                            });
                        }
                        None => balanced = false,
                    },
                    "else" => match stack.pop() {
                        Some(frame) => {
                            line_cond = stack_cond(&stack, stack.len());
                            stack.push(Frame {
                                cond: frame.not_taken.clone(),
                                not_taken: frame.not_taken.and(CondExpr::False),
                            });
                        }
                        None => balanced = false,
                    },
                    "endif" => {
                        if stack.pop().is_none() {
                            balanced = false;
                        }
                        line_cond = stack_cond(&stack, stack.len());
                    }
                    "include" => {
                        if let Some(inc) = parse_include(rest) {
                            includes.push(IncludeRef {
                                path: inc.0,
                                quoted: inc.1,
                                cond: line_cond.clone(),
                            });
                        }
                    }
                    _ => {}
                }
            }
            for phys in ll.first_line..=ll.last_line {
                let i = phys as usize - 1;
                if i < conds.len() {
                    conds[i] = line_cond.clone();
                }
            }
        }
        for phys in next_line..=total as u32 {
            conds[phys as usize - 1] = stack_cond(&stack, stack.len());
        }
        if !stack.is_empty() {
            balanced = false;
        }

        FileAnalysis {
            conds,
            includes,
            balanced,
            guard,
        }
    }

    /// `#include "p"` / `#include <p>` → (path, quoted).
    fn parse_include(rest: &str) -> Option<(String, bool)> {
        let t = rest.trim();
        if let Some(r) = t.strip_prefix('"') {
            let end = r.find('"')?;
            return Some((r[..end].to_string(), true));
        }
        if let Some(r) = t.strip_prefix('<') {
            let end = r.find('>')?;
            return Some((r[..end].to_string(), false));
        }
        None
    }

    /// Is logical line `idx` the opener of the detected include guard? The
    /// guard's `#ifndef` is the first non-blank logical line.
    fn is_guard_opener(lls: &[LogicalLine], idx: usize, guard: &str) -> bool {
        let first = lls.iter().position(|l| !l.is_blank());
        first == Some(idx)
            && lls[idx]
                .directive()
                .is_some_and(|(n, r)| n == "ifndef" && r.split_whitespace().next() == Some(guard))
    }

    /// Detect the classic include-guard shape: the first non-blank logical
    /// line is `#ifndef G`, the second is `#define G`, and the matching
    /// `#endif` is the last non-blank logical line. Inside one translation
    /// unit's first inclusion the guard test is vacuously true, so the frame
    /// can be discharged.
    fn detect_include_guard(lls: &[LogicalLine]) -> Option<String> {
        let mut nonblank = lls.iter().enumerate().filter(|(_, l)| !l.is_blank());
        let (open_idx, first) = nonblank.next()?;
        let (_, second) = nonblank.next()?;
        let (n1, r1) = first.directive()?;
        if n1 != "ifndef" {
            return None;
        }
        let guard = r1.split_whitespace().next()?.to_string();
        let (n2, r2) = second.directive()?;
        if n2 != "define" || r2.split_whitespace().next() != Some(guard.as_str()) {
            return None;
        }
        // Find where the guard frame closes and make sure nothing non-blank
        // follows.
        let mut depth = 0usize;
        for (idx, ll) in lls.iter().enumerate() {
            if idx < open_idx {
                continue;
            }
            if let Some((name, _)) = ll.directive() {
                match name {
                    "if" | "ifdef" | "ifndef" => depth += 1,
                    "endif" => {
                        depth = depth.checked_sub(1)?;
                        if depth == 0 {
                            return if lls[idx + 1..].iter().all(|l| l.is_blank()) {
                                Some(guard)
                            } else {
                                None
                            };
                        }
                    }
                    _ => {}
                }
            }
        }
        None
    }
}
