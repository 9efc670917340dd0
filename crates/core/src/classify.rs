//! Why a changed line escaped the compiler (paper Table IV).
//!
//! When JMake reports that a mutation never surfaced in any `.i` file for
//! any successfully-compiled configuration, this module inspects the
//! source context of the mutation site and assigns one of the paper's
//! seven reasons.

use crate::token::{MutationKind, MutationToken};
use jmake_cpp::cond::{Arm, ArmKind};
use jmake_cpp::SourceMap;
use jmake_kconfig::{DeadSymbols, KconfigModel};
use std::collections::BTreeSet;
use std::fmt;

/// The reason categories of paper Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UncoveredReason {
    /// Guarded by `#ifdef CONFIG_X` where X exists but allyesconfig does
    /// not set it (e.g. it conflicts with another y symbol).
    IfdefNotSetByAllyesconfig,
    /// Guarded by a variable never settable anywhere in the kernel
    /// (undeclared, or declared with unsatisfiable dependencies).
    IfdefNeverSetInKernel,
    /// Guarded by `#ifdef MODULE`; allyesconfig builds everything in, so
    /// MODULE is never defined (allmodconfig would recover these).
    IfdefModule,
    /// Under `#ifndef X` or in the `#else` of a satisfied guard —
    /// allyesconfig sets variables to *yes*, so these branches lose.
    IfndefOrElse,
    /// The patch changes both the `#ifdef` branch and the matching
    /// `#else` branch: no single configuration can cover both.
    IfdefAndElse,
    /// Inside `#if 0` (or an `#elif 0` arm).
    IfZero,
    /// The change is in a macro definition that no configuration expands.
    UnusedMacro,
    /// None of the above patterns matched (not a Table IV row; kept so the
    /// classifier is total).
    Unknown,
}

impl fmt::Display for UncoveredReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UncoveredReason::IfdefNotSetByAllyesconfig => {
                "change under #ifdef variable not set by allyesconfig"
            }
            UncoveredReason::IfdefNeverSetInKernel => {
                "change under #ifdef variable never set in the kernel"
            }
            UncoveredReason::IfdefModule => "change under #ifdef MODULE",
            UncoveredReason::IfndefOrElse => "change under #ifndef or #else",
            UncoveredReason::IfdefAndElse => "change under both #ifdef and #else",
            UncoveredReason::IfZero => "change under #if 0",
            UncoveredReason::UnusedMacro => "change in unused macro",
            UncoveredReason::Unknown => "unclassified",
        };
        f.write_str(s)
    }
}

/// Classify one uncovered mutation within the file mapped by `map`.
///
/// `model` and `dead` come from the allyesconfig attempt's Kconfig model;
/// `macro_was_expanded` reports whether the mutated macro's name ever
/// appeared among expanded macros in any attempted `.i`. Changes to both
/// branches of one conditional are found across mutations by
/// [`detect_both_branches`].
pub fn classify(
    token: &MutationToken,
    map: &SourceMap,
    model: &KconfigModel,
    dead: &DeadSymbols,
    allyes: &jmake_kconfig::Config,
    macro_was_expanded: bool,
) -> UncoveredReason {
    if token.kind == MutationKind::Define && !macro_was_expanded {
        return UncoveredReason::UnusedMacro;
    }
    let tree = &map.branches;
    let chain = || tree.chain(tree.slot(token.line).arm());
    // A literal-zero arm anywhere in the chain hides the line in every
    // configuration, whatever the guards inside it test.
    if chain().any(Arm::is_if_zero) {
        return UncoveredReason::IfZero;
    }
    // Inspect innermost-outward; the innermost decisive guard wins. Arm 0
    // is the group's own guard; a later arm is the `#else` of its opener.
    for arm in chain() {
        let var = arm.operand.split_whitespace().next().unwrap_or("");
        match arm.kind {
            ArmKind::If => {
                let e = arm.operand.trim();
                if let Some(var) = single_defined_var(e) {
                    return classify_var(var, model, dead, allyes);
                }
                if e.starts_with('!') {
                    return UncoveredReason::IfndefOrElse;
                }
            }
            ArmKind::Ifdef if var == "MODULE" => return UncoveredReason::IfdefModule,
            ArmKind::Ifdef => return classify_var(var, model, dead, allyes),
            ArmKind::Ifndef => return UncoveredReason::IfndefOrElse,
            // else-of-ifndef is the positively-guarded branch; keep
            // looking outward.
            ArmKind::Elif | ArmKind::Else if tree.opener(arm).kind == ArmKind::Ifndef => {}
            // In the else of an #ifdef that allyesconfig satisfies.
            ArmKind::Elif | ArmKind::Else => return UncoveredReason::IfndefOrElse,
        }
    }
    UncoveredReason::Unknown
}

/// Upgrade a pair of reasons when a patch changed two arms of the same
/// conditional (paper Table IV row 5): arms of one group are mutually
/// exclusive, so no single configuration covers both — `#if` and `#else`,
/// `#elif` and `#else`, or two `#elif` arms alike.
pub fn detect_both_branches(map: &SourceMap, tokens: &[&MutationToken]) -> bool {
    let tree = &map.branches;
    let arms: BTreeSet<(u32, u32)> = tokens
        .iter()
        .filter_map(|t| tree.slot(t.line).arm())
        .map(|a| (tree.arm(a).group, tree.arm(a).index))
        .collect();
    // Sorted by group, so two arms of one group are neighbours.
    arms.iter()
        .zip(arms.iter().skip(1))
        .any(|(a, b)| a.0 == b.0)
}

fn classify_var(
    var: &str,
    model: &KconfigModel,
    dead: &DeadSymbols,
    allyes: &jmake_kconfig::Config,
) -> UncoveredReason {
    let name = var.strip_prefix("CONFIG_").unwrap_or(var);
    if dead.is_dead(model, name) {
        return UncoveredReason::IfdefNeverSetInKernel;
    }
    if !allyes.is_builtin(name) {
        return UncoveredReason::IfdefNotSetByAllyesconfig;
    }
    UncoveredReason::Unknown
}

/// `#if defined(X)` / `#if defined X` with nothing else → the variable.
fn single_defined_var(expr: &str) -> Option<&str> {
    let e = expr.trim();
    let inner = e.strip_prefix("defined")?.trim();
    let inner = inner
        .strip_prefix('(')
        .and_then(|i| i.strip_suffix(')'))
        .unwrap_or(inner)
        .trim();
    if !inner.is_empty() && inner.chars().all(|c| c == '_' || c.is_ascii_alphanumeric()) {
        Some(inner)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::MutationKind;
    use jmake_cpp::analyze;

    fn setup(kconfig: &str) -> (KconfigModel, DeadSymbols, jmake_kconfig::Config) {
        let mut model = KconfigModel::new();
        model.parse_str("Kconfig", kconfig).unwrap();
        let dead = DeadSymbols::compute(&model);
        let allyes = model.allyesconfig();
        (model, dead, allyes)
    }

    fn ctx(file_line: u32) -> MutationToken {
        MutationToken::new(MutationKind::Context, "f.c", file_line)
    }

    #[test]
    fn if_zero_detected() {
        let (m, d, a) = setup("");
        let src = "#if 0\nint dead;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(src), &m, &d, &a, true),
            UncoveredReason::IfZero
        );
    }

    #[test]
    fn if_zero_wins_over_an_inner_guard() {
        // TINY is declared but allyesconfig leaves it unset; the outer
        // `#if 0` still hides the line in every configuration.
        let (m, d, a) =
            setup("config FULL\n\tbool \"f\"\nconfig TINY\n\tbool \"t\"\n\tdepends on !FULL\n");
        for guard in ["#ifdef CONFIG_TINY", "#ifdef MODULE"] {
            let src = format!("#if 0\n{guard}\nint x;\n#endif\n#endif\n");
            assert_eq!(
                classify(&ctx(3), &analyze(&src), &m, &d, &a, true),
                UncoveredReason::IfZero,
                "{guard}"
            );
        }
    }

    #[test]
    fn module_guard_detected() {
        let (m, d, a) = setup("");
        let src = "#ifdef MODULE\nint mod_only;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(src), &m, &d, &a, true),
            UncoveredReason::IfdefModule
        );
    }

    #[test]
    fn never_set_vs_not_set_by_allyesconfig() {
        // TINY depends on !FULL: settable but not by allyesconfig.
        // GHOST is undeclared: never settable.
        let (m, d, a) =
            setup("config FULL\n\tbool \"f\"\nconfig TINY\n\tbool \"t\"\n\tdepends on !FULL\n");
        let tiny = "#ifdef CONFIG_TINY\nint t;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(tiny), &m, &d, &a, true),
            UncoveredReason::IfdefNotSetByAllyesconfig
        );
        let ghost = "#ifdef CONFIG_GHOST\nint g;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(ghost), &m, &d, &a, true),
            UncoveredReason::IfdefNeverSetInKernel
        );
    }

    #[test]
    fn ifndef_and_else_detected() {
        let (m, d, a) = setup("config NET\n\tbool \"n\"\n");
        let ifndef = "#ifndef CONFIG_NET\nint fallback;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(ifndef), &m, &d, &a, true),
            UncoveredReason::IfndefOrElse
        );
        let else_side = "#ifdef CONFIG_NET\nint with;\n#else\nint without;\n#endif\n";
        assert_eq!(
            classify(&ctx(4), &analyze(else_side), &m, &d, &a, true),
            UncoveredReason::IfndefOrElse
        );
    }

    #[test]
    fn else_of_ifndef_looks_outward() {
        let (m, d, a) = setup("");
        // The else of an ifndef is the "defined" branch — covered when the
        // guard is defined; classification should not blame it.
        let src = "#ifndef GUARD\nint a;\n#else\nint b;\n#endif\n";
        assert_eq!(
            classify(&ctx(4), &analyze(src), &m, &d, &a, true),
            UncoveredReason::Unknown
        );
    }

    #[test]
    fn defined_expression_form() {
        let (m, d, a) = setup("");
        let src = "#if defined(CONFIG_NOPE)\nint x;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(src), &m, &d, &a, true),
            UncoveredReason::IfdefNeverSetInKernel
        );
    }

    #[test]
    fn unused_macro_detected() {
        let (m, d, a) = setup("");
        let tok = MutationToken::new(MutationKind::Define, "f.c", 1);
        let src = "#define NEVER_USED(x) ((x) + 1)\n";
        assert_eq!(
            classify(&tok, &analyze(src), &m, &d, &a, false),
            UncoveredReason::UnusedMacro
        );
        // But an expanded macro with a live guard is not "unused".
        assert_ne!(
            classify(&tok, &analyze(src), &m, &d, &a, true),
            UncoveredReason::UnusedMacro
        );
    }

    #[test]
    fn nested_guards_use_innermost() {
        let (m, d, a) = setup("config NET\n\tbool \"n\"\n");
        let src = "#ifdef CONFIG_NET\n#if 0\nint x;\n#endif\n#endif\n";
        assert_eq!(
            classify(&ctx(3), &analyze(src), &m, &d, &a, true),
            UncoveredReason::IfZero
        );
    }

    #[test]
    fn both_branches_detection() {
        let src = "#ifdef A\nint a;\n#else\nint b;\n#endif\nint c;\n";
        let t1 = ctx(2);
        let t2 = ctx(4);
        let t3 = ctx(6);
        let map = analyze(src);
        assert!(detect_both_branches(&map, &[&t1, &t2]));
        assert!(!detect_both_branches(&map, &[&t1, &t3]));
        assert!(!detect_both_branches(&map, &[&t2]));
    }

    #[test]
    fn endif_pops_correctly() {
        let (m, d, a) = setup("");
        let src = "#ifdef MODULE\nint m;\n#endif\nint after;\n";
        assert_eq!(
            classify(&ctx(4), &analyze(src), &m, &d, &a, true),
            UncoveredReason::Unknown
        );
    }

    #[test]
    fn parenthesized_if_zero_and_elif_zero_arms_are_if_zero() {
        let (m, d, a) = setup("config NET\n\tbool \"n\"\n");
        let paren = "#if (0)\nint dead;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(paren), &m, &d, &a, true),
            UncoveredReason::IfZero
        );
        for elif in ["#elif 0", "#elif (0)"] {
            let src = format!("#ifdef CONFIG_NET\nint live;\n{elif}\nint dead;\n#endif\n");
            assert_eq!(
                classify(&ctx(4), &analyze(&src), &m, &d, &a, true),
                UncoveredReason::IfZero,
                "{elif}"
            );
        }
    }

    #[test]
    fn two_arms_after_the_opener_are_both_branches() {
        let src = "#ifdef A\nint a;\n#elif defined(B)\nint b;\n#elif defined(C)\nint c;\n#else\nint d;\n#endif\n";
        let map = analyze(src);
        let (b, c, d) = (ctx(4), ctx(6), ctx(8));
        assert!(detect_both_branches(&map, &[&b, &d]), "#elif and #else");
        assert!(detect_both_branches(&map, &[&b, &c]), "two #elif arms");
        assert!(!detect_both_branches(&map, &[&c]));
    }
}
