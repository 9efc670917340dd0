use super::*;
use jmake_core::{cross_check, run_evaluation, CrossCheckReport, DriverOptions, PatchOutcome};
use jmake_vcs::{CommitId, Repo};

/// Base tree shared by the fixtures: a Kconfig where `TINY` is settable
/// but excluded by allyesconfig (`depends on !FULL`), a tristate driver
/// symbol, and an always-built library file.
fn base_tree() -> SourceTree {
    let mut tree = SourceTree::new();
    tree.insert(
        "Kconfig",
        "config FULL\n\tbool \"full\"\n\tdefault y\n\
         config TINY\n\tbool \"tiny\"\n\tdepends on !FULL\n\
         config DRV\n\ttristate \"drv\"\n\tdefault y\n",
    );
    tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
    tree.insert("Makefile", "obj-y += lib/\n");
    tree.insert("lib/Makefile", "obj-y += t.o\nobj-$(CONFIG_DRV) += m.o\n");
    tree.insert("lib/t.c", "int base;\n");
    tree.insert("lib/m.c", "int drv_base;\n");
    tree
}

fn one_commit(path: &str, new_content: &str) -> (Repo, Vec<CommitId>) {
    let tree = base_tree();
    let mut repo = Repo::new();
    let base = repo.commit(&[], "seed", "seed", &tree);
    let mut t2 = tree.clone();
    t2.insert(path, new_content);
    let c1 = repo.commit(&[base], "janitor", "edit", &t2);
    (repo, vec![c1])
}

fn run_on(repo: &Repo, commits: &[CommitId], workers: usize) -> EvaluationRun {
    let opts = DriverOptions {
        workers,
        ..DriverOptions::default()
    };
    run_evaluation(repo, commits, &opts)
}

fn remediation_for(report: &FixReport, line: u32) -> &Remediation {
    report
        .remediations
        .iter()
        .find(|r| r.line == line)
        .unwrap_or_else(|| panic!("no remediation for line {line}: {report:?}"))
}

#[test]
fn unsettable_guard_gets_verified_minimal_delta() {
    let (repo, commits) = one_commit(
        "lib/t.c",
        "int base;\n#ifdef CONFIG_TINY\nint tiny_path;\n#endif\n",
    );
    let run = run_on(&repo, &commits, 1);
    assert_eq!(run.stats.checked, 1);
    let report = remediate(&repo, &run);
    assert_eq!(report.patches, 1);
    assert!(report.missed >= 1);
    let r = remediation_for(&report, 2);
    assert_eq!(r.cause, "unsettable-under-allyes");
    assert!(r.agrees, "static and dynamic must agree: {r:?}");
    let Remedy::Delta { suggestion, flips } = &r.remedy else {
        panic!("expected a verified delta, got {:?}", r.remedy);
    };
    assert!(
        suggestion.contains("CONFIG_TINY=y") && suggestion.contains("CONFIG_FULL=n"),
        "unexpected suggestion {suggestion}"
    );
    assert_eq!(*flips, 2, "minimal delta flips exactly FULL and TINY");
    assert_eq!(report.deltas_emitted, 1);
    assert_eq!(report.deltas_verified, 1);
    assert_eq!(report.verification_failures, 0);
    assert!(report.is_clean(), "clean run expected: {report:?}");
}

#[test]
fn negated_dependency_inside_a_gated_driver_gets_verified_delta() {
    // SLIMLINE needs the promptless KERNEL_CORE off while the file's gate
    // PLOVER needs NET_DRIVERS on: only the solver's negated-dependency
    // strategy finds a witness, without which the line is unfixable.
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
    let mut repo = Repo::new();
    let base = repo.commit(&[], "seed", "seed", &tree);
    tree.insert(
        "drivers/plover.c",
        "int plover;\n#ifdef CONFIG_SLIMLINE\nint slim_path;\n#endif\n",
    );
    let commit = repo.commit(&[base], "janitor", "edit", &tree);
    let run = run_on(&repo, &[commit], 1);
    let report = remediate(&repo, &run);
    let r = remediation_for(&report, 2);
    assert_eq!(r.cause, "unsettable-under-allyes");
    assert!(r.agrees, "{r:?}");
    assert_eq!(
        r.remedy,
        Remedy::Delta {
            suggestion: "CONFIG_KERNEL_CORE=n CONFIG_SLIMLINE=y".to_string(),
            flips: 2,
        }
    );
    assert_eq!(report.deltas_verified, 1);
    assert_eq!(report.verification_failures, 0);
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn undeclared_guard_is_never_defined_and_unfixable() {
    let (repo, commits) = one_commit(
        "lib/t.c",
        "int base;\n#ifdef CONFIG_GHOST\nint ghost_path;\n#endif\n",
    );
    let run = run_on(&repo, &commits, 1);
    let report = remediate(&repo, &run);
    let r = remediation_for(&report, 2);
    assert_eq!(r.cause, "never-defined:GHOST");
    assert!(r.agrees, "{r:?}");
    assert!(
        matches!(&r.remedy, Remedy::Unfixable { reason } if reason.contains("GHOST")),
        "expected unfixable with the symbol named, got {:?}",
        r.remedy
    );
    assert_eq!(report.deltas_emitted, 0);
    assert!(report.is_clean());
}

#[test]
fn if_zero_is_root_caused_from_the_condition() {
    let (repo, commits) = one_commit("lib/t.c", "int base;\n#if 0\nint dead_path;\n#endif\n");
    let run = run_on(&repo, &commits, 1);
    let report = remediate(&repo, &run);
    let r = remediation_for(&report, 2);
    assert_eq!(r.cause, "if-0");
    assert!(r.agrees, "{r:?}");
    assert!(matches!(&r.remedy, Remedy::Unfixable { .. }));
    assert!(report.is_clean());
}

#[test]
fn module_guard_gets_verified_allmod_environment() {
    let (repo, commits) = one_commit(
        "lib/m.c",
        "int drv_base;\n#ifdef MODULE\nint mod_path;\n#endif\n",
    );
    let run = run_on(&repo, &commits, 1);
    let report = remediate(&repo, &run);
    let r = remediation_for(&report, 2);
    assert_eq!(r.cause, "ifdef-module");
    assert!(r.agrees, "{r:?}");
    assert_eq!(
        r.remedy,
        Remedy::Environment {
            target: "x86_64/allmodconfig".to_string()
        },
        "allmodconfig must be verified as the remedy"
    );
    assert!(report.is_clean());
}

#[test]
fn module_guard_on_builtin_object_is_module_on_builtin_and_unfixable() {
    // lib/t.c is `obj-y`: MODULE is never defined for it, so the raw
    // guard folds to constant-false, yet the miss is the MODULE guard's.
    let (repo, commits) = one_commit(
        "lib/t.c",
        "int base;\n#ifdef MODULE\nint mod_path;\n#endif\n",
    );
    let run = run_on(&repo, &commits, 1);
    let report = remediate(&repo, &run);
    let r = remediation_for(&report, 2);
    assert_eq!(r.cause, "module-on-builtin");
    assert!(r.agrees, "{r:?}");
    assert!(
        matches!(&r.remedy, Remedy::Unfixable { reason } if reason.contains("never built as a module")),
        "expected unfixable, got {:?}",
        r.remedy
    );
    assert_eq!(report.deltas_emitted, 0);
    assert!(report.is_clean(), "clean run expected: {report:?}");
}

#[test]
fn if_zero_around_a_module_guard_stays_if_zero() {
    // False even with MODULE defined: the outer `#if 0` is the cause.
    let (repo, commits) = one_commit(
        "lib/t.c",
        "int base;\n#if 0\n#ifdef MODULE\nint mod_path;\n#endif\n#endif\n",
    );
    let run = run_on(&repo, &commits, 1);
    let report = remediate(&repo, &run);
    let r = remediation_for(&report, 3);
    assert_eq!(r.cause, "if-0");
    assert!(matches!(&r.remedy, Remedy::Unfixable { .. }));
    // The classifier names the outer `#if 0` too, so the two sides agree.
    assert_eq!(r.dynamic, "change under #if 0");
    assert!(r.agrees, "{r:?}");
    assert!(
        report.disagreements.is_empty(),
        "{:?}",
        report.disagreements
    );
}

#[test]
fn forged_dynamic_label_is_flagged_as_disagreement() {
    let (repo, commits) = one_commit(
        "lib/t.c",
        "int base;\n#ifdef CONFIG_TINY\nint tiny_path;\n#endif\n",
    );
    let mut run = run_on(&repo, &commits, 1);
    let report = match &mut run.results[0].outcome {
        PatchOutcome::Checked(r) => r,
        other => panic!("expected checked outcome, got {other:?}"),
    };
    let file = report
        .files
        .iter_mut()
        .find(|f| f.path == "lib/t.c")
        .expect("t.c report");
    let unc = file
        .uncovered
        .iter_mut()
        .find(|u| u.token.line == 2)
        .expect("missed guard token");
    unc.reason = UncoveredReason::IfZero;

    let fix = remediate(&repo, &run);
    assert!(!fix.is_clean());
    let d = &fix.disagreements[0];
    assert_eq!(d.file, "lib/t.c");
    assert_eq!(d.line, 2);
    assert_eq!(d.static_cause, "unsettable-under-allyes");
    assert!(fix.to_json().contains("\"clean\": false"));
}

#[test]
fn report_is_deterministic_across_replays_and_workers() {
    let (repo, commits) = one_commit(
        "lib/t.c",
        "int base;\n#ifdef CONFIG_TINY\nint tiny_path;\n#endif\n",
    );
    let run1 = run_on(&repo, &commits, 1);
    let run8 = run_on(&repo, &commits, 8);
    let a = remediate(&repo, &run1).to_json();
    let b = remediate(&repo, &run1).to_json();
    let c = remediate(&repo, &run8).to_json();
    assert_eq!(a, b, "same run must replay identically");
    assert_eq!(a, c, "worker count must not leak into the fix report");
    // Warm shared caches must not change the bytes either.
    let ctx = FixContext {
        objects: Some(Arc::new(ObjectCache::new())),
        preproc: Some(Arc::new(PreprocCache::new())),
        ..FixContext::default()
    };
    let warm1 = remediate_with(&repo, &run1, &ctx).to_json();
    let warm2 = remediate_with(&repo, &run1, &ctx).to_json();
    assert_eq!(a, warm1, "cache modes must not leak into the fix report");
    assert_eq!(warm1, warm2, "cache temperature must not leak either");
}

#[test]
fn annotate_run_grafts_rendered_lines_into_file_reports() {
    let (repo, commits) = one_commit(
        "lib/t.c",
        "int base;\n#ifdef CONFIG_TINY\nint tiny_path;\n#endif\n",
    );
    let mut run = run_on(&repo, &commits, 1);
    let baseline = run.results[0].report().expect("report").to_json();
    assert!(
        !baseline.contains("remediations"),
        "fix-off reports must not mention remediations"
    );
    let fix = remediate(&repo, &run);
    annotate_run(&mut run, &fix);
    let annotated = run.results[0].report().expect("report");
    let file = annotated
        .files
        .iter()
        .find(|f| f.path == "lib/t.c")
        .expect("t.c report");
    assert!(
        file.remediations
            .iter()
            .any(|l| l.starts_with("line 2 — set ") && l.ends_with("(verified)")),
        "expected a rendered verified suggestion, got {:?}",
        file.remediations
    );
    assert!(annotated.to_json().contains("\"remediations\""));
}

#[test]
fn unchecked_commits_are_skipped_with_a_note() {
    let (repo, commits) = one_commit("lib/t.c", "int base;\nint more;\n");
    let mut run = run_on(&repo, &commits, 1);
    run.results[0].outcome = PatchOutcome::CheckoutFailed("gone".to_string());
    let fix = remediate(&repo, &run);
    assert_eq!(fix.patches, 0);
    assert_eq!(fix.skipped.len(), 1);
    assert!(fix.skipped[0].contains("gone"));
    assert!(fix.is_clean());
}

#[test]
fn one_replay_serves_both_oracles() {
    // The cross-check's planted repo (a dead `#ifdef` block next to a live
    // edit), plus an unchecked result ahead of the checked one.
    let mut tree = SourceTree::new();
    tree.insert(
        "Kconfig",
        "config CRC\n\tbool \"crc\"\n\tdefault y\n\
         config DEAD_OPTION\n\tbool \"dead\"\n\tdepends on MISSING_EVERYWHERE\n",
    );
    tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
    tree.insert("Makefile", "obj-y += lib/\n");
    tree.insert("lib/Makefile", "obj-$(CONFIG_CRC) += crc.o\n");
    tree.insert("lib/crc.c", "int crc_base;\nint crc_step;\n");
    let mut repo = Repo::new();
    let base = repo.commit(&[], "seed", "seed", &tree);
    tree.insert(
        "lib/crc.c",
        "int crc_base;\nint crc_step2;\n#ifdef CONFIG_DEAD_OPTION\nint planted_dead;\n#endif\n",
    );
    let c1 = repo.commit(&[base], "janitor", "plant dead block", &tree);
    let mut run = run_on(&repo, &[c1], 1);
    let mut unchecked = run.results[0].clone();
    unchecked.outcome = PatchOutcome::CheckoutFailed("gone".to_string());
    run.results.insert(0, unchecked);

    let cc = cross_check(&repo, &run);
    let fix = remediate(&repo, &run);
    assert_eq!(cc.patches, 1);
    assert_eq!(cc.skipped.len(), 1, "{cc:?}");
    assert!(cc.dead_agreed >= 1 && cc.allyes_agreed >= 1, "{cc:?}");
    assert_eq!(fix.skipped, cc.skipped);
    assert!(fix.missed >= 1 && fix.virtual_us > 0, "{fix:?}");

    let ctx = FixContext::default();
    let (mut cc1, mut fix1) = (CrossCheckReport::default(), FixReport::default());
    replay(&repo, &run, &|t| ctx.engine(t), &mut [&mut cc1, &mut fix1]);
    let (mut cc2, mut fix2) = (CrossCheckReport::default(), FixReport::default());
    replay(&repo, &run, &|t| ctx.engine(t), &mut [&mut fix2, &mut cc2]);
    for (both_cc, both_fix) in [(&cc1, &fix1), (&cc2, &fix2)] {
        assert_eq!(both_cc, &cc);
        assert_eq!(both_fix, &fix);
    }
}

#[test]
fn elif_zero_arm_is_if_zero_on_both_sides() {
    // A commit that edits only the body of an `#elif 0` arm, which is dead
    // in every configuration: the classifier reads the arm's own literal
    // zero, and the static side folds the arm's condition to
    // constant-false. Both must name `#if 0`.
    let mut tree = base_tree();
    let guarded = |body: &str| {
        format!("int base;\n#ifdef CONFIG_FULL\nint full_path;\n#elif 0\n{body}\n#endif\n")
    };
    tree.insert("lib/t.c", guarded("int dead_elif;"));
    let mut repo = Repo::new();
    let base = repo.commit(&[], "seed", "seed", &tree);
    tree.insert("lib/t.c", guarded("int dead_elif2;"));
    let c1 = repo.commit(&[base], "janitor", "edit the #elif 0 arm", &tree);
    let run = run_on(&repo, &[c1], 1);
    let report = remediate(&repo, &run);
    let r = remediation_for(&report, 5);
    assert_eq!(r.cause, "if-0");
    assert_eq!(r.dynamic, "change under #if 0");
    assert!(r.agrees, "{r:?}");
    assert!(matches!(&r.remedy, Remedy::Unfixable { .. }));
    assert!(
        report.disagreements.is_empty(),
        "{:?}",
        report.disagreements
    );
    assert!(report.is_clean(), "clean run expected: {report:?}");
}

#[test]
fn spliced_guard_edit_is_never_defined() {
    // A commit that edits the continuation line of a spliced `#if` that
    // no configuration enables: the token lands after the whole
    // directive, in the dead arm, and the static side reads it there.
    let mut tree = base_tree();
    let guarded = |operand: &str| {
        format!(
            "int base;\n#if defined(CONFIG_NOWHERE) && \\\n    {operand}\nint hidden;\n#endif\n"
        )
    };
    tree.insert("lib/t.c", guarded("defined(CONFIG_FULL)"));
    let mut repo = Repo::new();
    let base = repo.commit(&[], "seed", "seed", &tree);
    tree.insert("lib/t.c", guarded("defined(CONFIG_FULL) && 1"));
    let c1 = repo.commit(&[base], "janitor", "edit the spliced guard", &tree);
    let run = run_on(&repo, &[c1], 1);
    let report = remediate(&repo, &run);
    let r = remediation_for(&report, 3);
    assert_eq!(r.cause, "never-defined:NOWHERE");
    assert!(matches!(&r.remedy, Remedy::Unfixable { .. }));
    assert!(report.is_clean(), "clean run expected: {report:?}");
}
