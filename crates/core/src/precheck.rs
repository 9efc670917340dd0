//! Pre-compilation warnings (paper §VII).
//!
//! > "JMake could simply detect the issue and ask for user assistance,
//! > which could save running time by avoiding the exploration of
//! > unpromising cases."
//!
//! Two patterns are decidable from the patch text alone, before any
//! configuration is created:
//!
//! - changes under **both** an `#ifdef` branch and its `#else` — no single
//!   configuration can ever certify both sides (the paper: "JMake never
//!   succeeds for a file containing a change that comprises changes under
//!   both an ifdef and the corresponding else");
//! - changes under `#ifndef` — `allyesconfig` drives variables to *yes*,
//!   so these branches usually lose.
//!
//! [`precheck`] reports them so an interactive user can decide whether to
//! spend compilations at all.

use jmake_cpp::cond::{Arm, ArmKind, BranchTree, LineSlot};
use jmake_cpp::lines::logical_lines;
use jmake_diff::{changed_lines, FilePatch};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One early warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecheckWarning {
    /// File concerned.
    pub path: String,
    /// Kind of unpromising pattern.
    pub kind: PrecheckKind,
    /// 1-based lines (post-patch) involved.
    pub lines: Vec<u32>,
}

/// The decidable-from-text patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecheckKind {
    /// The patch changes both branches of one conditional group.
    BothBranches,
    /// Changed lines sit under `#ifndef`.
    UnderIfndef,
    /// Changed lines sit under `#if 0`.
    UnderIfZero,
}

impl fmt::Display for PrecheckWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            PrecheckKind::BothBranches => {
                "changes on both sides of one #ifdef/#else: no single configuration can cover both"
            }
            PrecheckKind::UnderIfndef => {
                "changes under #ifndef: allyesconfig sets variables to yes, this branch will likely stay dark"
            }
            PrecheckKind::UnderIfZero => "changes under #if 0: this code is never compiled",
        };
        write!(f, "{}: lines {:?}: {}", self.path, self.lines, what)
    }
}

/// Scan one file patch (with the post-patch `content`) for unpromising
/// patterns, with no compilation at all.
pub fn precheck(patch: &FilePatch, content: &str) -> Vec<PrecheckWarning> {
    let changed = changed_lines(patch, content.lines().count() as u32);
    let changed: Vec<u32> = changed.line_numbers().collect();
    let tree = BranchTree::build(&logical_lines(content));
    let located = locate(&tree, &changed);

    let mut warnings = Vec::new();
    let mut warn = |kind, lines: Vec<u32>| {
        if !lines.is_empty() {
            let path = patch.path().to_string();
            warnings.push(PrecheckWarning { path, kind, lines });
        }
    };
    // Both-branches: a group with changed lines in two or more distinct
    // (mutually exclusive) arms. This covers #if/#else, #if/#elif, and
    // two different #elif arms alike.
    let mut by_group: BTreeMap<u32, (BTreeSet<u32>, Vec<u32>)> = BTreeMap::new();
    for (l, arm) in &located {
        let (arms, lines) = by_group.entry(arm.group).or_default();
        arms.insert(arm.index);
        lines.push(*l);
    }
    for (arms, lines) in by_group.into_values() {
        if arms.len() >= 2 {
            warn(PrecheckKind::BothBranches, lines);
        }
    }
    let lines_where = |pred: fn(&Arm) -> bool| {
        let lines = located.iter().filter(|(_, arm)| pred(arm));
        lines.map(|(l, _)| *l).collect()
    };
    // Later arms of an #ifndef are the positively-guarded ones.
    let ifndef: fn(&Arm) -> bool = |arm| arm.kind == ArmKind::Ifndef;
    warn(PrecheckKind::UnderIfndef, lines_where(ifndef));
    warn(PrecheckKind::UnderIfZero, lines_where(Arm::is_if_zero));
    warnings
}

/// The innermost arm of each changed line that sits in one, in line order.
///
/// A line belongs to the arm open after its logical line, so an opener,
/// `#elif` or `#else` belongs to the arm it opens. A changed `#endif` is
/// processed by the preprocessor whatever arm is live, so it belongs to
/// no arm, nor does a line that is in no logical line.
pub(crate) fn locate<'t>(tree: &'t BranchTree, changed: &[u32]) -> Vec<(u32, &'t Arm)> {
    let in_arm = |l| match tree.slot(l) {
        LineSlot::Opens(a) | LineSlot::Body(Some(a)) => Some((l, tree.arm(a))),
        _ => None,
    };
    changed.iter().filter_map(|&l| in_arm(l)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmake_diff::{diff_to_patch, DiffOptions};

    fn patch_for(old: &str, new: &str) -> (FilePatch, String) {
        let p = diff_to_patch("f.c", old, new, &DiffOptions::default());
        (
            p.files.into_iter().next().expect("non-empty diff"),
            new.to_string(),
        )
    }

    #[test]
    fn both_branches_warned() {
        let old = "#ifdef A\nint a;\n#else\nint b;\n#endif\n";
        let new = "#ifdef A\nint a2;\n#else\nint b2;\n#endif\n";
        let (fp, content) = patch_for(old, new);
        let w = precheck(&fp, &content);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, PrecheckKind::BothBranches);
        assert_eq!(w[0].lines, vec![2, 4]);
        assert!(w[0].to_string().contains("both sides"));
    }

    #[test]
    fn single_side_change_not_warned() {
        let old = "#ifdef A\nint a;\n#else\nint b;\n#endif\n";
        let new = "#ifdef A\nint a2;\n#else\nint b;\n#endif\n";
        let (fp, content) = patch_for(old, new);
        assert!(precheck(&fp, &content).is_empty());
    }

    #[test]
    fn ifndef_warned_but_not_its_else() {
        let old = "#ifndef G\nint fallback;\n#else\nint normal;\n#endif\n";
        let new = "#ifndef G\nint fallback2;\n#else\nint normal;\n#endif\n";
        let (fp, content) = patch_for(old, new);
        let w = precheck(&fp, &content);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, PrecheckKind::UnderIfndef);

        // Changing only the else of an ifndef: no warning.
        let new2 = "#ifndef G\nint fallback;\n#else\nint normal2;\n#endif\n";
        let (fp2, content2) = patch_for(old, new2);
        assert!(precheck(&fp2, &content2).is_empty());
    }

    #[test]
    fn if_zero_warned() {
        let old = "#if 0\nint x;\n#endif\nint y;\n";
        let new = "#if 0\nint x2;\n#endif\nint y;\n";
        let (fp, content) = patch_for(old, new);
        let w = precheck(&fp, &content);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, PrecheckKind::UnderIfZero);
    }

    #[test]
    fn changes_outside_conditionals_are_silent() {
        let old = "int a;\nint b;\n";
        let new = "int a;\nint b2;\n";
        let (fp, content) = patch_for(old, new);
        assert!(precheck(&fp, &content).is_empty());
    }

    #[test]
    fn nested_groups_tracked_independently() {
        let old = "#ifdef A\n#ifdef B\nint ab;\n#endif\nint a;\n#else\nint c;\n#endif\n";
        // Change inner-if line and outer-else line: the outer group has
        // both sides changed (inner change is on the outer if-side).
        let new = "#ifdef A\n#ifdef B\nint ab2;\n#endif\nint a;\n#else\nint c2;\n#endif\n";
        let (fp, content) = patch_for(old, new);
        let w = precheck(&fp, &content);
        // The inner change attributes to group(B), the else change to
        // group(A): no single group has both sides, so only… actually the
        // inner change's innermost frame is B(if-side). Outer group A has
        // only the else change. No both-branches warning fires.
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn elif_counts_as_else_side() {
        let old = "#ifdef A\nint a;\n#elif defined(B)\nint b;\n#endif\n";
        let new = "#ifdef A\nint a2;\n#elif defined(B)\nint b2;\n#endif\n";
        let (fp, content) = patch_for(old, new);
        let w = precheck(&fp, &content);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, PrecheckKind::BothBranches);
    }

    #[test]
    fn if_zero_with_trailing_comment_warned() {
        let old = "#if 0 /* dead since 2.4 */\nint x;\n#endif\nint y;\n";
        let new = "#if 0 /* dead since 2.4 */\nint x2;\n#endif\nint y;\n";
        let (fp, content) = patch_for(old, new);
        let w = precheck(&fp, &content);
        assert_eq!(w.len(), 1, "{w:?}");
        assert_eq!(w[0].kind, PrecheckKind::UnderIfZero);

        // Also via the helper directly: parens and // comments.
        use jmake_cpp::cond::is_literal_zero;
        assert!(is_literal_zero("0"));
        assert!(is_literal_zero("0 /* why */"));
        assert!(is_literal_zero("0 // why"));
        assert!(is_literal_zero("(0)"));
        assert!(!is_literal_zero("1"));
        assert!(!is_literal_zero("0x0 + 0"));
        assert!(!is_literal_zero("CONFIG_FOO"));
    }

    #[test]
    fn changes_under_two_elif_arms_warn_both_branches() {
        // Two *different* #elif arms are mutually exclusive: no single
        // configuration covers both. The old else-side collapse saw both
        // changes as "else side" and stayed silent.
        let old =
            "#if defined(A)\nint a;\n#elif defined(B)\nint b;\n#elif defined(C)\nint c;\n#endif\n";
        let new = "#if defined(A)\nint a;\n#elif defined(B)\nint b2;\n#elif defined(C)\nint c2;\n#endif\n";
        let (fp, content) = patch_for(old, new);
        let w = precheck(&fp, &content);
        assert_eq!(w.len(), 1, "{w:?}");
        assert_eq!(w[0].kind, PrecheckKind::BothBranches);
        assert_eq!(w[0].lines, vec![4, 6]);
    }

    #[test]
    fn changed_endif_not_attributed_to_enclosing_group() {
        // Only cosmetic markers change: the inner `#endif` gains a comment,
        // and one line of the *outer else* changes. The old code popped the
        // inner frame before attribution, crediting the `#endif` line to
        // the outer group's else branch — and together with the real
        // else-side change that never produced a bogus warning, but pairing
        // it with an if-side change did. Reproduce that shape: change the
        // outer if-side line and the inner #endif (inside the outer else).
        let old = "#ifdef OUTER\nint o;\n#else\n#ifdef A\nint a;\n#endif\nint c;\n#endif\n";
        let new =
            "#ifdef OUTER\nint o2;\n#else\n#ifdef A\nint a;\n#endif /* A */\nint c;\n#endif\n";
        let (fp, content) = patch_for(old, new);
        let w = precheck(&fp, &content);
        assert!(
            w.is_empty(),
            "a changed #endif must not count as a branch change: {w:?}"
        );
    }

    #[test]
    fn elif_zero_arm_warned_as_if_zero() {
        let old = "#ifdef A\nint a;\n#elif 0\nint b;\n#endif\n";
        let new = "#ifdef A\nint a;\n#elif 0\nint b2;\n#endif\n";
        let (fp, content) = patch_for(old, new);
        let w = precheck(&fp, &content);
        assert_eq!(w.len(), 1, "{w:?}");
        assert_eq!(w[0].kind, PrecheckKind::UnderIfZero);
        assert_eq!(w[0].lines, vec![4]);
    }
}
