//! Per-file presence conditions: the symbolic reading of one source
//! file's conditional structure.
//!
//! The nesting comes from `jmake_cpp::cond::BranchTree`, built over the
//! same logical-line stream the preprocessor reads (`logical_lines`,
//! phases 2 and 3). Instead of deciding each arm against one concrete
//! macro table, as `jmake_cpp::cond::CondStack` does, this module keeps
//! the conditions symbolic: every physical line gets the conjunction of
//! the arm conditions that must hold for the preprocessor to emit (or
//! even tokenize the body of) that line.
//!
//! Directive lines themselves are attributed to the *enclosing* region:
//! an opener, `#elif` or `#else` gets its parent arm's condition and an
//! `#endif` the condition of the arm open after it, because the
//! preprocessor reads them whenever that region is active, regardless of
//! which arm wins. That matches what the compiler "sees" and is the
//! property the cross-check needs. A line in no logical line (a lone `\`
//! spliced onto the next one) gets the condition of the arm open before
//! it: a token the mutation engine places just before that line sits in
//! that arm.

use crate::cond::{parse_directive, CondExpr};
use jmake_cpp::cond::{ArmId, ArmKind, BranchTree, LineSlot};
use jmake_cpp::lines::{logical_lines, LogicalLine};

/// An `#include` occurrence with the condition under which it fires.
#[derive(Debug, Clone)]
pub struct IncludeRef {
    /// Path text between the delimiters.
    pub path: String,
    /// `"..."` (true) vs `<...>` (false).
    pub quoted: bool,
    /// Presence condition of the directive line.
    pub cond: CondExpr,
}

/// The symbolic analysis of one file.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Presence condition per physical line (index = line − 1).
    pub conds: Vec<CondExpr>,
    /// All `#include` directives with their conditions.
    pub includes: Vec<IncludeRef>,
    /// False when `#endif`s don't pair up with openers — callers must
    /// fall back to a conservative classification for the whole file.
    pub balanced: bool,
    /// Detected include-guard macro, if the file has the classic
    /// `#ifndef G` / `#define G` / … / `#endif` shape. The guard arm is
    /// already discharged to `True` in `conds`.
    pub guard: Option<String>,
}

/// Analyze `src`, producing per-line presence conditions.
pub fn analyze_file(src: &str) -> FileAnalysis {
    let lls = logical_lines(src);
    let tree = BranchTree::build(&lls);
    let guard = include_guard(&lls, &tree);

    // Each arm's condition, in arm order so a parent's is ready before its
    // children's: the parent's condition, the negations of the group's
    // earlier tests, and the arm's own test (none for an `#else`).
    // `untaken[a]` is the conjunction of those negations through arm `a`:
    // the premise the group's next arm inherits. No arm means `true`.
    let at = |conds: &[CondExpr], arm: Option<ArmId>| {
        arm.map_or(CondExpr::True, |a| conds[a as usize].clone())
    };
    let arms = tree.arms();
    let mut arm_conds: Vec<CondExpr> = Vec::with_capacity(arms.len());
    let mut untaken: Vec<CondExpr> = Vec::with_capacity(arms.len());
    for (id, arm) in arms.iter().enumerate() {
        // An `#else` tests nothing, and a discharged include guard holds.
        let test = if arm.kind == ArmKind::Else
            || guard.as_ref().is_some_and(|(g, _)| *g as usize == id)
        {
            CondExpr::True
        } else {
            parse_directive(arm.kind.name(), &arm.operand).unwrap_or(CondExpr::Unknown)
        };
        let earlier = at(&untaken, arm.prev);
        untaken.push(earlier.clone().and(test.clone().negate()));
        arm_conds.push(at(&arm_conds, arm.parent).and(earlier.and(test)));
    }
    let line_cond = |line: u32| match tree.slot(line) {
        LineSlot::Opens(a) => at(&arm_conds, tree.arm(a).parent),
        LineSlot::Outside(a) | LineSlot::Closes(a) | LineSlot::Body(a) => at(&arm_conds, a),
    };

    let last = lls.last().map_or(0, |l| l.last_line as usize);
    let total = src.lines().count().max(last);
    let conds = (1..=total as u32).map(line_cond).collect();
    let includes = lls
        .iter()
        .filter_map(|ll| match ll.directive() {
            Some(("include", rest)) => {
                let (path, quoted) = parse_include(rest)?;
                Some(IncludeRef {
                    path,
                    quoted,
                    cond: line_cond(ll.first_line),
                })
            }
            _ => None,
        })
        .collect();

    FileAnalysis {
        conds,
        includes,
        balanced: tree.balanced(),
        guard: guard.map(|(_, g)| g),
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

/// The classic include guard and the arm it opens: the first non-blank
/// logical line opens `#ifndef G`, the second is `#define G`, and only
/// blank lines follow that group's `#endif`. Inside one translation
/// unit's first inclusion the guard test is vacuously true, so the arm
/// can be discharged.
fn include_guard(lls: &[LogicalLine], tree: &BranchTree) -> Option<(ArmId, String)> {
    let mut nonblank = lls.iter().filter(|l| !l.is_blank());
    // Nothing is open before the first non-blank line, so an arm open
    // after it is one it opened.
    let id = tree.slot(nonblank.next()?.first_line).arm()?;
    let arm = tree.arm(id);
    let guard = arm.operand.split_whitespace().next()?;
    let (name, rest) = nonblank.next()?.directive()?;
    let defines = name == "define" && rest.split_whitespace().next() == Some(guard);
    if arm.kind != ArmKind::Ifndef || !defines {
        return None;
    }
    let endif = tree.endif(arm.group)?;
    lls[endif + 1..]
        .iter()
        .all(LogicalLine::is_blank)
        .then(|| (id, guard.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Truth;
    use jmake_kconfig::{Config, Tristate};

    fn cfg(pairs: &[(&str, Tristate)]) -> Config {
        let mut c = Config::default();
        for (k, v) in pairs {
            c.set(*k, *v);
        }
        c
    }

    #[test]
    fn unconditional_lines_are_true() {
        let fa = analyze_file("int x;\nint y;\n");
        assert!(fa.balanced);
        assert_eq!(fa.conds, vec![CondExpr::True, CondExpr::True]);
    }

    #[test]
    fn ifdef_body_gets_defined_cond() {
        let src = "#ifdef CONFIG_NET\nint net;\n#endif\nint always;\n";
        let fa = analyze_file(src);
        let on = cfg(&[("NET", Tristate::Y)]);
        let off = cfg(&[]);
        // Line 1 (#ifdef) and line 3 (#endif) belong to the outer region.
        assert_eq!(fa.conds[0], CondExpr::True);
        assert_eq!(fa.conds[2], CondExpr::True);
        assert_eq!(fa.conds[1].eval(&on), Truth::True);
        assert_eq!(fa.conds[1].eval(&off), Truth::False);
        assert_eq!(fa.conds[3], CondExpr::True);
    }

    #[test]
    fn elif_chain_branches_exclude_earlier_tests() {
        let src = "#if defined(CONFIG_A)\na\n#elif defined(CONFIG_B)\nb\n#else\nc\n#endif\n";
        let fa = analyze_file(src);
        let a = cfg(&[("A", Tristate::Y), ("B", Tristate::Y)]);
        // A set: branch a holds, b excluded even though B is set.
        assert_eq!(fa.conds[1].eval(&a), Truth::True);
        assert_eq!(fa.conds[3].eval(&a), Truth::False);
        assert_eq!(fa.conds[5].eval(&a), Truth::False);
        let b = cfg(&[("B", Tristate::Y)]);
        assert_eq!(fa.conds[1].eval(&b), Truth::False);
        assert_eq!(fa.conds[3].eval(&b), Truth::True);
        assert_eq!(fa.conds[5].eval(&b), Truth::False);
        let none = cfg(&[]);
        assert_eq!(fa.conds[5].eval(&none), Truth::True);
        // The #elif and #else directive lines are read in all three cases.
        for c in [&a, &b, &none] {
            assert_eq!(fa.conds[2].eval(c), Truth::True);
            assert_eq!(fa.conds[4].eval(c), Truth::True);
        }
    }

    #[test]
    fn nested_conditions_conjoin() {
        let src = "#ifdef CONFIG_A\n#ifdef CONFIG_B\nboth\n#endif\n#endif\n";
        let fa = analyze_file(src);
        let both = cfg(&[("A", Tristate::Y), ("B", Tristate::Y)]);
        let only_a = cfg(&[("A", Tristate::Y)]);
        assert_eq!(fa.conds[2].eval(&both), Truth::True);
        assert_eq!(fa.conds[2].eval(&only_a), Truth::False);
        // The inner #ifdef line is under the outer condition only.
        assert_eq!(fa.conds[1].eval(&only_a), Truth::True);
        assert_eq!(fa.conds[1].eval(&cfg(&[])), Truth::False);
    }

    #[test]
    fn include_guard_is_discharged() {
        let src = "#ifndef MY_H\n#define MY_H\nint decl;\n#endif\n";
        let fa = analyze_file(src);
        assert_eq!(fa.guard.as_deref(), Some("MY_H"));
        assert_eq!(fa.conds[2], CondExpr::True);
    }

    #[test]
    fn guard_shape_with_trailing_code_is_not_a_guard() {
        let src = "#ifndef MY_H\n#define MY_H\nint decl;\n#endif\nint after;\n";
        let fa = analyze_file(src);
        assert_eq!(fa.guard, None);
    }

    #[test]
    fn if_zero_block_is_false() {
        let src = "#if 0\ndead\n#endif\n";
        let fa = analyze_file(src);
        assert_eq!(fa.conds[1], CondExpr::False);
    }

    #[test]
    fn includes_carry_conditions() {
        let src = "#include <linux/kernel.h>\n#ifdef CONFIG_X\n#include \"x.h\"\n#endif\n";
        let fa = analyze_file(src);
        assert_eq!(fa.includes.len(), 2);
        assert_eq!(fa.includes[0].path, "linux/kernel.h");
        assert!(!fa.includes[0].quoted);
        assert_eq!(fa.includes[0].cond, CondExpr::True);
        assert_eq!(fa.includes[1].path, "x.h");
        assert!(fa.includes[1].quoted);
        assert_eq!(
            fa.includes[1].cond.eval(&cfg(&[("X", Tristate::Y)])),
            Truth::True
        );
    }

    #[test]
    fn unbalanced_endif_flags_file() {
        let fa = analyze_file("#endif\nint x;\n");
        assert!(!fa.balanced);
        let fa2 = analyze_file("#ifdef CONFIG_A\nint x;\n");
        assert!(!fa2.balanced);
    }

    #[test]
    fn lone_splice_line_takes_the_open_arm() {
        // Line 2 is a lone `\`: its logical line starts on line 3, so it
        // belongs to no logical line, yet it sits inside the `#ifdef`.
        let src = "#ifdef CONFIG_A\n\\\nint a;\n#endif\n\\\nint b;\n";
        let fa = analyze_file(src);
        let on = cfg(&[("A", Tristate::Y)]);
        assert_eq!(fa.conds[1].eval(&on), Truth::True);
        assert_eq!(fa.conds[1].eval(&cfg(&[])), Truth::False);
        assert_eq!(fa.conds[1], fa.conds[2]);
        // After the `#endif`, a lone `\` is unconditional again.
        assert_eq!(fa.conds[4], CondExpr::True);
    }

    #[test]
    fn spliced_condition_covers_all_physical_lines() {
        let src = "#if defined(CONFIG_A) && \\\n    defined(CONFIG_B)\nbody\n#endif\n";
        let fa = analyze_file(src);
        // Both physical lines of the spliced #if are outer-region lines.
        assert_eq!(fa.conds[0], CondExpr::True);
        assert_eq!(fa.conds[1], CondExpr::True);
        let both = cfg(&[("A", Tristate::Y), ("B", Tristate::Y)]);
        assert_eq!(fa.conds[2].eval(&both), Truth::True);
        assert_eq!(fa.conds[2].eval(&cfg(&[("A", Tristate::Y)])), Truth::False);
    }
}
