//! End-to-end tests of the JMake pipeline over a handcrafted mini kernel.

use crate::check::{JMake, Options};
use crate::classify::UncoveredReason;
use crate::report::{FileStatus, PatchReport};
use jmake_diff::{diff_to_patch, DiffOptions, Patch};
use jmake_kbuild::{BuildEngine, SourceTree};

/// A miniature kernel: two arches, networking driver, arm-only driver,
/// module-y driver, headers, pathological conditionals.
fn mini_kernel() -> SourceTree {
    let mut t = SourceTree::new();
    t.insert(
        "Kconfig",
        "config NET\n\tbool \"net\"\n\nconfig E1000\n\ttristate \"e1000\"\n\tdepends on NET\n\nconfig TINY\n\tbool \"tiny\"\n\tdepends on !NET\n\nconfig PL330\n\tbool \"pl330\"\n\tdepends on ARM\n",
    );
    t.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
    t.insert("arch/arm/Kconfig", "config ARM\n\tdef_bool y\n");
    t.insert(
        "arch/arm/configs/multi_defconfig",
        "CONFIG_NET=y\nCONFIG_PL330=y\n",
    );
    t.insert("Makefile", "obj-y += drivers/ kernel/\n");
    t.insert("drivers/Makefile", "obj-y += net/ dma/\n");
    t.insert(
        "drivers/net/Makefile",
        "obj-$(CONFIG_E1000) += e1000.o\nobj-y += core.o\n",
    );
    t.insert(
        "drivers/net/e1000.c",
        "#include <linux/hw.h>\nint e1000_up(void)\n{\nreturn HW_REG(3);\n}\n",
    );
    t.insert(
        "drivers/net/core.c",
        "#include <linux/hw.h>\nint net_core(void)\n{\nreturn HW_REG(1) + 1;\n}\n",
    );
    t.insert("drivers/dma/Makefile", "obj-$(CONFIG_PL330) += pl330.o\n");
    t.insert(
        "drivers/dma/pl330.c",
        "#include <asm/dma.h>\nint pl330_probe(void)\n{\nreturn DMA_BASE;\n}\n",
    );
    t.insert("kernel/Makefile", "obj-y += sched.o\n");
    t.insert("kernel/sched.c", "int sched_tick(void)\n{\nreturn 0;\n}\n");
    t.insert("kernel/bounds.c", "int bounds;\n");
    t.insert(
        "include/linux/hw.h",
        "#ifndef _HW_H\n#define _HW_H\n#define HW_REG(n) ((n) << 2)\n#endif\n",
    );
    t.insert("arch/arm/include/asm/dma.h", "#define DMA_BASE 0x4000\n");
    // ARM subtree mentions CONFIG_PL330 so the arch heuristic finds it.
    t.insert(
        "arch/arm/mach/board.c",
        "#ifdef CONFIG_PL330\nint board_uses_pl330;\n#endif\n",
    );
    t.insert("arch/arm/mach/Makefile", "obj-y += board.o\n");
    t
}

/// Apply an edit to one file of the tree and return (tree, patch).
fn edit(mut tree: SourceTree, path: &str, new_content: &str) -> (SourceTree, Patch) {
    let old = tree.get(path).expect("file exists").to_string();
    let patch = diff_to_patch(path, &old, new_content, &DiffOptions::default());
    tree.insert(path, new_content);
    (tree, patch)
}

fn check(tree: SourceTree, patch: &Patch) -> PatchReport {
    let mut engine = BuildEngine::new(tree);
    JMake::new().check_patch(&mut engine, patch, "test author")
}

#[test]
fn simple_host_buildable_change_is_fully_covered() {
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "int sched_tick(void)\n{\nreturn 42;\n}\n",
    );
    let report = check(tree, &patch);
    assert!(report.is_success(), "{report}");
    let f = &report.files[0];
    assert_eq!(f.status, FileStatus::FullyCovered);
    assert!(f.full_with_host_allyes);
    assert!(f.full_on_first_success);
    assert_eq!(f.mutation_count, 1);
    assert_eq!(report.o_invocations, 1);
}

#[test]
fn comment_only_change_needs_no_compilation() {
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "/* better docs */\nint sched_tick(void)\n{\nreturn 0;\n}\n",
    );
    let report = check(tree, &patch);
    assert!(report.is_success());
    assert_eq!(report.files[0].status, FileStatus::CommentOnly);
    assert_eq!(report.o_invocations, 0);
}

#[test]
fn arm_only_driver_needs_arm_and_gets_it() {
    let (tree, patch) = edit(
        mini_kernel(),
        "drivers/dma/pl330.c",
        "#include <asm/dma.h>\nint pl330_probe(void)\n{\nreturn DMA_BASE + 1;\n}\n",
    );
    let report = check(tree, &patch);
    assert!(report.is_success(), "{report}");
    let f = &report.files[0];
    assert!(!f.full_with_host_allyes);
    assert!(
        f.covered.iter().all(|(_, d)| d.starts_with("arm/")),
        "{:?}",
        f.covered
    );
    // The host was tried first and failed (missing asm header / not enabled).
    assert_eq!(f.targets_tried[0], "x86_64/allyesconfig");
}

#[test]
fn change_under_unset_config_is_reported_with_reason() {
    // TINY depends on !NET: allyesconfig can never build it.
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "#ifdef CONFIG_TINY\nint tiny_path;\n#endif\nint sched_tick(void)\n{\nreturn 0;\n}\n",
    );
    let report = check(tree, &patch);
    assert!(!report.is_success());
    let f = &report.files[0];
    assert!(matches!(
        f.status,
        FileStatus::PartiallyCovered | FileStatus::Uncovered
    ));
    assert_eq!(
        f.uncovered[0].reason,
        UncoveredReason::IfdefNotSetByAllyesconfig
    );
}

#[test]
fn change_under_undeclared_config_is_never_set() {
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "#ifdef CONFIG_DOES_NOT_EXIST\nint ghost;\n#endif\nint sched_tick(void)\n{\nreturn 0;\n}\n",
    );
    let report = check(tree, &patch);
    let f = &report.files[0];
    assert_eq!(
        f.uncovered[0].reason,
        UncoveredReason::IfdefNeverSetInKernel
    );
}

#[test]
fn change_under_if_zero() {
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "#if 0\nint debug_only;\n#endif\nint sched_tick(void)\n{\nreturn 0;\n}\n",
    );
    let report = check(tree, &patch);
    assert_eq!(report.files[0].uncovered[0].reason, UncoveredReason::IfZero);
}

#[test]
fn change_under_module_guard_and_allmod_rescue() {
    let new = "#ifdef MODULE\nint module_exit_path;\n#endif\nint e1000_up(void)\n{\nreturn 0;\n}\n";
    let (tree, patch) = edit(mini_kernel(), "drivers/net/e1000.c", new);
    // Default (allyesconfig only): the MODULE branch is dead.
    let report = check(tree.clone(), &patch);
    let f = &report.files[0];
    assert_eq!(f.uncovered[0].reason, UncoveredReason::IfdefModule);

    // With the paper's proposed allmodconfig extension, E1000 is built as
    // a module, MODULE is defined, and the line is certified.
    let mut engine = BuildEngine::new(tree);
    let jmake = JMake::with_options(Options {
        use_allmodconfig: true,
        ..Options::default()
    });
    let report2 = jmake.check_patch(&mut engine, &patch, "test author");
    assert!(report2.is_success(), "{report2}");
}

#[test]
fn unused_macro_change_detected() {
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "#define SCHED_UNUSED_HELPER(x) ((x) * 3)\nint sched_tick(void)\n{\nreturn 0;\n}\n",
    );
    let report = check(tree, &patch);
    let f = &report.files[0];
    assert!(!report.is_success());
    assert_eq!(f.uncovered[0].reason, UncoveredReason::UnusedMacro);
}

#[test]
fn used_macro_change_is_covered_via_use_site() {
    let (tree, patch) = edit(
        mini_kernel(),
        "include/linux/hw.h",
        "#ifndef _HW_H\n#define _HW_H\n#define HW_REG(n) ((n) << 3)\n#endif\n",
    );
    let report = check(tree, &patch);
    assert!(report.is_success(), "{report}");
    let f = &report.files[0];
    assert!(f.is_header);
    assert_eq!(f.status, FileStatus::FullyCovered);
    // No .c file of the patch exists; candidates were needed.
    assert!(!f.header_covered_by_patch_c);
    assert!(f.header_candidates_used >= 1);
}

#[test]
fn header_credited_during_c_phase_when_patch_touches_both() {
    let mut tree = mini_kernel();
    let old_h = tree.get("include/linux/hw.h").unwrap().to_string();
    let new_h = "#ifndef _HW_H\n#define _HW_H\n#define HW_REG(n) ((n) << 4)\n#endif\n";
    let old_c = tree.get("drivers/net/core.c").unwrap().to_string();
    let new_c = "#include <linux/hw.h>\nint net_core(void)\n{\nreturn HW_REG(2) + 1;\n}\n";
    let mut patch = diff_to_patch("include/linux/hw.h", &old_h, new_h, &DiffOptions::default());
    patch.extend(diff_to_patch("drivers/net/core.c", &old_c, new_c, &DiffOptions::default()).files);
    tree.insert("include/linux/hw.h", new_h);
    tree.insert("drivers/net/core.c", new_c);
    let report = check(tree, &patch);
    assert!(report.is_success(), "{report}");
    let h = report.files.iter().find(|f| f.is_header).unwrap();
    assert!(h.header_covered_by_patch_c, "{report}");
}

#[test]
fn bootstrap_file_cannot_be_checked() {
    let (tree, patch) = edit(mini_kernel(), "kernel/bounds.c", "int bounds = 1;\n");
    let report = check(tree, &patch);
    assert_eq!(report.files[0].status, FileStatus::Bootstrap);
    assert!(report.touches_bootstrap());
    assert!(!report.is_success());
}

#[test]
fn multi_file_patch_groups_compilations() {
    let mut tree = mini_kernel();
    let mut patch = Patch::new();
    for path in [
        "drivers/net/e1000.c",
        "drivers/net/core.c",
        "kernel/sched.c",
    ] {
        let old = tree.get(path).unwrap().to_string();
        let new = old.replace("return", "return 1 +");
        patch.extend(diff_to_patch(path, &old, &new, &DiffOptions::default()).files);
        tree.insert(path, new);
    }
    let report = check(tree, &patch);
    assert!(report.is_success(), "{report}");
    assert_eq!(report.files.len(), 3);
    // One grouped .i invocation covers all three on the host.
    assert_eq!(report.i_invocations, 1);
    assert_eq!(report.o_invocations, 3);
}

#[test]
fn group_limit_splits_invocations() {
    let mut tree = mini_kernel();
    let mut patch = Patch::new();
    for path in [
        "drivers/net/e1000.c",
        "drivers/net/core.c",
        "kernel/sched.c",
    ] {
        let old = tree.get(path).unwrap().to_string();
        let new = old.replace("return", "return 2 +");
        patch.extend(diff_to_patch(path, &old, &new, &DiffOptions::default()).files);
        tree.insert(path, new);
    }
    let mut engine = BuildEngine::new(tree);
    let jmake = JMake::with_options(Options {
        group_limit: 1,
        ..Options::default()
    });
    let report = jmake.check_patch(&mut engine, &patch, "a");
    assert!(report.is_success());
    assert_eq!(report.i_invocations, 3);
}

#[test]
fn skip_dirs_are_ignored() {
    let mut tree = mini_kernel();
    tree.insert("Documentation/notes.c", "int doc;\n");
    let (tree, patch) = edit(tree, "Documentation/notes.c", "int doc = 1;\n");
    let report = check(tree, &patch);
    assert!(report.files.is_empty());
}

#[test]
fn changes_in_both_branches_never_succeed() {
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "#ifdef CONFIG_NET\nint with_net_changed;\n#else\nint without_net_changed;\n#endif\nint sched_tick(void)\n{\nreturn 0;\n}\n",
    );
    let report = check(tree, &patch);
    assert!(!report.is_success());
    let f = &report.files[0];
    // The #else side is uncertifiable under allyesconfig; the pair is
    // diagnosed as a both-branches change (Table IV row 5).
    assert!(
        f.uncovered
            .iter()
            .any(|u| u.reason == UncoveredReason::IfdefAndElse),
        "{report}"
    );
}

#[test]
fn coverage_configs_rescue_ifndef_and_else_branches() {
    // The paper (§VII): "JMake never succeeds for a file containing a
    // change that comprises changes under both an ifdef and the
    // corresponding else … JMake could be complemented with more
    // sophisticated configuration generation techniques." This is that
    // complement: flipping NET off covers the #else side and the #ifndef.
    let new = "\
#ifdef CONFIG_NET\nint with_net_changed;\n#else\nint without_net_changed;\n#endif\n\
#ifndef CONFIG_NET\nint no_net_fallback;\n#endif\n\
int sched_tick(void)\n{\nreturn 0;\n}\n";
    let (tree, patch) = edit(mini_kernel(), "kernel/sched.c", new);

    // Standard JMake: both the #else and the #ifndef stay dark.
    let standard = check(tree.clone(), &patch);
    assert!(!standard.is_success());
    assert!(standard.files[0].uncovered.len() >= 2, "{standard}");

    // With coverage-config generation: everything is certified.
    let mut engine = BuildEngine::new(tree);
    let jmake = JMake::with_options(Options {
        use_coverage_configs: true,
        ..Options::default()
    });
    let report = jmake.check_patch(&mut engine, &patch, "test author");
    assert!(report.is_success(), "{report}");
    // The rescuing targets are the synthesized cover configurations.
    assert!(
        report.files[0]
            .covered
            .iter()
            .any(|(_, d)| d.contains("custom:cover")),
        "{report}"
    );
}

#[test]
fn coverage_configs_enable_negatively_dependent_symbols() {
    // TINY depends on !NET: allyesconfig can never set it (Table IV row
    // 1). The coverage generator chases the negated dependency, flips NET
    // off, forces TINY on, and certifies the branch.
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "#ifdef CONFIG_TINY\nint tiny_path_changed;\n#endif\nint sched_tick(void)\n{\nreturn 0;\n}\n",
    );
    let standard = check(tree.clone(), &patch);
    assert!(!standard.is_success());
    assert_eq!(
        standard.files[0].uncovered[0].reason,
        UncoveredReason::IfdefNotSetByAllyesconfig
    );

    let mut engine = BuildEngine::new(tree);
    let jmake = JMake::with_options(Options {
        use_coverage_configs: true,
        ..Options::default()
    });
    let report = jmake.check_patch(&mut engine, &patch, "test author");
    assert!(report.is_success(), "{report}");
}

#[test]
fn coverage_configs_follow_witnesses_through_negated_dependencies() {
    // SLIMLINE needs the promptless KERNEL_CORE off while the file's gate
    // PLOVER needs NET_DRIVERS on; the reach witness (the solver's
    // negated-dependency strategy) names the configuration that does both.
    let mut tree = SourceTree::new();
    tree.insert(
        "Kconfig",
        "config KERNEL_CORE\n\tdef_bool y\n\
         config SLIMLINE\n\tbool \"slim\"\n\tdepends on !KERNEL_CORE\n\
         config NET_DRIVERS\n\tdef_bool y\n\
         config PLOVER\n\ttristate \"plover\"\n\tdepends on NET_DRIVERS\n",
    );
    tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
    tree.insert("Makefile", "obj-y += drivers/\n");
    tree.insert("drivers/Makefile", "obj-$(CONFIG_PLOVER) += plover.o\n");
    tree.insert("drivers/plover.c", "int plover;\n");
    let (tree, patch) = edit(
        tree,
        "drivers/plover.c",
        "int plover;\n#ifdef CONFIG_SLIMLINE\nint slim_path;\n#endif\n",
    );
    assert!(!check(tree.clone(), &patch).is_success());

    let mut engine = BuildEngine::new(tree);
    let jmake = JMake::with_options(Options {
        use_coverage_configs: true,
        ..Options::default()
    });
    let report = jmake.check_patch(&mut engine, &patch, "test author");
    assert!(report.is_success(), "{report}");
    assert_eq!(report.files[0].covered.len(), 1);
    assert!(report.files[0].covered[0]
        .1
        .starts_with("x86_64/custom:cover-"));
}

#[test]
fn timing_and_config_accounting() {
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "int sched_tick(void)\n{\nreturn 7;\n}\n",
    );
    let report = check(tree, &patch);
    assert!(report.elapsed_us > 0);
    assert!(report.config_creations >= 1);
    assert!(report.i_invocations >= 1);
}

#[test]
fn broken_cross_compiler_is_reported_not_fatal() {
    // arm64 exists in the tree but its cross-compiler does not work
    // (paper footnote 3). The file is under arch/arm64, so that is the
    // only candidate — JMake must surface the error, not hang or panic.
    let mut tree = mini_kernel();
    tree.insert("arch/arm64/Kconfig", "config ARM64\n\tdef_bool y\n");
    tree.insert("arch/arm64/kernel/Makefile", "obj-y += setup64.o\n");
    tree.insert("arch/arm64/kernel/setup64.c", "int s64;\n");
    let (tree, patch) = edit(tree, "arch/arm64/kernel/setup64.c", "int s64 = 1;\n");
    let report = check(tree, &patch);
    assert!(!report.is_success());
    let f = &report.files[0];
    assert_eq!(f.status, FileStatus::Uncovered);
    assert!(
        f.errors.iter().any(|e| e.contains("cross-compiler")),
        "{:?}",
        f.errors
    );
}

#[test]
fn missing_makefile_is_reported() {
    let mut tree = mini_kernel();
    tree.insert("orphan/lost.c", "int lost;\n");
    let (tree, patch) = edit(tree, "orphan/lost.c", "int lost = 1;\n");
    let report = check(tree, &patch);
    assert!(!report.is_success());
    let f = &report.files[0];
    // The .i was produced (so the mutation was seen), but no Makefile
    // covers the file, so the certifying .o can never be built.
    assert!(
        f.errors.iter().any(|e| e.contains("no Makefile")),
        "{report}"
    );
}

#[test]
fn arch_file_with_missing_kconfig_is_reported() {
    let mut tree = mini_kernel();
    // A file under an arch directory with no Kconfig at all.
    tree.insert("arch/mips/kernel/setup.c", "int mips_setup;\n");
    tree.insert("arch/mips/kernel/Makefile", "obj-y += setup.o\n");
    let (tree, patch) = edit(tree, "arch/mips/kernel/setup.c", "int mips_setup = 1;\n");
    let report = check(tree, &patch);
    assert!(!report.is_success());
    let f = &report.files[0];
    assert!(
        f.errors.iter().any(|e| e.contains("Kconfig")),
        "{:?}",
        f.errors
    );
}

#[test]
fn deleted_and_created_files_are_not_checked() {
    // --diff-filter=M semantics: only modifications are JMake's business.
    use jmake_diff::{ChangeKind, FilePatch};
    let tree = mini_kernel();
    let patch: Patch = vec![
        FilePatch {
            old_path: "drivers/net/gone.c".into(),
            new_path: "/dev/null".into(),
            kind: ChangeKind::Delete,
            hunks: vec![],
        },
        FilePatch {
            old_path: "drivers/net/new.c".into(),
            new_path: "drivers/net/new.c".into(),
            kind: ChangeKind::Create,
            hunks: vec![],
        },
    ]
    .into_iter()
    .collect();
    let report = check(tree, &patch);
    assert!(report.files.is_empty());
}

#[test]
fn header_over_candidate_threshold_uses_allyes_only() {
    // Force the threshold to zero: every header goes allyesconfig-only,
    // and certification still works through an including .c file.
    let (tree, patch) = edit(
        mini_kernel(),
        "include/linux/hw.h",
        "#ifndef _HW_H\n#define _HW_H\n#define HW_REG(n) ((n) << 5)\n#endif\n",
    );
    let mut engine = BuildEngine::new(tree);
    let jmake = JMake::with_options(Options {
        header_candidate_threshold: 0,
        ..Options::default()
    });
    let report = jmake.check_patch(&mut engine, &patch, "t");
    assert!(report.is_success(), "{report}");
    let h = &report.files[0];
    assert!(h.covered.iter().all(|(_, d)| d.ends_with("/allyesconfig")));
}

#[test]
fn defconfigs_off_tries_no_defconfig_target() {
    // allyesconfig sets E1000; only the arm defconfig picked for PL330
    // leaves it unset and so reaches the `#ifndef` branch.
    let (tree, patch) = edit(
        mini_kernel(),
        "drivers/dma/pl330.c",
        "#include <asm/dma.h>\n#ifndef CONFIG_E1000\nint pl330_alone;\n#endif\nint pl330_probe(void)\n{\nreturn DMA_BASE;\n}\n",
    );
    let run = |use_defconfigs| {
        let mut engine = BuildEngine::new(tree.clone());
        let jmake = JMake::with_options(Options {
            use_defconfigs,
            ..Options::default()
        });
        jmake.check_patch(&mut engine, &patch, "t")
    };
    let on = run(true);
    assert!(on.is_success(), "{on}");
    let tried = &on.files[0].targets_tried;
    assert!(tried.iter().any(|t| t.contains("/defconfig:")), "{tried:?}");
    let off = run(false);
    assert!(!off.is_success(), "{off}");
    let tried = &off.files[0].targets_tried;
    assert!(!tried.is_empty(), "{off}");
    assert!(tried.iter().all(|t| !t.contains("defconfig:")), "{tried:?}");
}

#[test]
fn header_hints_off_ranks_by_include_evidence_alone() {
    // kernel/wrap.c reaches regs.h only through wrap.h: it names the
    // changed macro but has no `#include` line for the header itself.
    let mut tree = mini_kernel();
    tree.insert("kernel/Makefile", "obj-y += sched.o wrap.o\n");
    tree.insert("include/linux/regs.h", "#define REG_SHIFT 2\n");
    tree.insert("include/linux/wrap.h", "#include <linux/regs.h>\n");
    tree.insert(
        "kernel/wrap.c",
        "#include <linux/wrap.h>\nint wrap(void)\n{\nreturn 1 << REG_SHIFT;\n}\n",
    );
    let (tree, patch) = edit(tree, "include/linux/regs.h", "#define REG_SHIFT 3\n");
    let run = |use_header_hints| {
        let mut engine = BuildEngine::new(tree.clone());
        let jmake = JMake::with_options(Options {
            use_header_hints,
            ..Options::default()
        });
        jmake.check_patch(&mut engine, &patch, "t")
    };
    let on = run(true);
    assert!(on.is_success(), "{on}");
    assert_eq!(on.files[0].header_candidates_used, 1);
    let off = run(false);
    assert!(!off.is_success(), "{off}");
    assert_eq!(off.files[0].header_candidates_used, 0);
    assert!(
        off.files[0]
            .errors
            .iter()
            .any(|e| e.contains("no .c file found that could exercise include/linux/regs.h")),
        "{off}"
    );
}

#[test]
fn naive_mutation_option_still_certifies() {
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "int sched_tick(void)\n{\nreturn 42;\n}\n",
    );
    let mut engine = BuildEngine::new(tree);
    let jmake = JMake::with_options(Options {
        naive_mutations: true,
        ..Options::default()
    });
    let report = jmake.check_patch(&mut engine, &patch, "t");
    assert!(report.is_success(), "{report}");
}

#[test]
fn report_display_is_actionable() {
    let (tree, patch) = edit(
        mini_kernel(),
        "kernel/sched.c",
        "#if 0\nint dead_code;\n#endif\nint sched_tick(void)\n{\nreturn 0;\n}\n",
    );
    let report = check(tree, &patch);
    let text = report.to_string();
    assert!(text.contains("ATTENTION"), "{text}");
    assert!(text.contains("#if 0"), "{text}");
    assert!(text.contains("kernel/sched.c"), "{text}");
}
