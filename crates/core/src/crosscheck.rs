//! Static-vs-dynamic cross-checking: does the reachability analyzer
//! (`jmake-reach`) agree with what the mutation pipeline actually
//! observed?
//!
//! The two sides answer the same question with independent machinery:
//!
//! - *dynamic*: a changed line is **covered** when its mutation token
//!   surfaced in some configuration's `.i` and the pristine `.o`
//!   compiled ([`crate::check`]);
//! - *static*: a line is [`ReachClass::Dead`] when no configuration can
//!   ever let the compiler see it, and
//!   [`ReachClass::AllyesReachable`] when `allyesconfig` must see it
//!   ([`jmake_reach`]).
//!
//! Agreement is a strong end-to-end property, so disagreement is always
//! a bug somewhere — in the analyzer, the solver, the build engine, or
//! the mutation pipeline. [`cross_check`] replays an [`EvaluationRun`]
//! and reports every disagreement:
//!
//! 1. **dead-but-covered** — the analyzer proved the line unreachable,
//!    yet a mutation on it was certified. The static proof is unsound.
//! 2. **allyes-but-missed** — the analyzer proved `allyesconfig` sees
//!    the line, the file's own gate is enabled under that very config,
//!    the pipeline tried that allyesconfig and hit no operational
//!    errors — yet the token never surfaced. The dynamic side lost a
//!    mutation.
//!
//! Both rules are deliberately one-sided: every fuzzy case (conditional
//! verdicts, files with build errors, headers that are only reached
//! through other translation units, opener tokens in an arm no pristine
//! line shares — see [`region_line`]) is counted but never flagged. A clean report therefore means "no
//! provable disagreement", which is exactly the property CI can gate
//! on; see `jmake-eval --cross-check`.
//!
//! The report is deterministic: commits are visited in run order, files
//! and tokens in report order, and the JSON rendering contains no
//! wall-clock — byte-identical across worker counts and cache modes.

use crate::driver::EvaluationRun;
use crate::mutation::{branch_tree, region_line};
use crate::replay::{json_objects, json_strings, replay, ArchView, Oracle, Replayed};
use crate::report::{FileReport, FileStatus};
use crate::token::MutationKind;
use jmake_cpp::cond::BranchTree;
use jmake_kbuild::{BuildEngine, ConfigCache};
use jmake_reach::{FileReach, ReachClass};
use jmake_trace::jsonl::escape;
use jmake_vcs::Repo;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which way the two sides disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscrepancyKind {
    /// Statically proved dead, dynamically certified covered.
    DeadButCovered,
    /// Statically allyes-reachable with the gate enabled, allyesconfig
    /// tried cleanly, yet the token never surfaced.
    AllyesButMissed,
}

impl DiscrepancyKind {
    /// Stable report tag.
    pub fn label(self) -> &'static str {
        match self {
            DiscrepancyKind::DeadButCovered => "dead-but-covered",
            DiscrepancyKind::AllyesButMissed => "allyes-but-missed",
        }
    }
}

/// One static/dynamic disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discrepancy {
    /// Commit whose patch exposed the disagreement.
    pub commit: String,
    /// File the token lives in.
    pub file: String,
    /// 1-based line of the mutation token.
    pub line: u32,
    /// Direction of the disagreement.
    pub kind: DiscrepancyKind,
    /// Architecture whose model/configuration the static side used.
    pub arch: String,
    /// The static verdict (proof tag or class label).
    pub static_detail: String,
    /// The dynamic observation (certifying target or uncovered reason).
    pub dynamic_detail: String,
}

/// The outcome of replaying a run against the static analyzer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossCheckReport {
    /// Commits examined (checked patches only).
    pub patches: usize,
    /// File reports examined.
    pub files: usize,
    /// Mutation tokens examined (covered + uncovered).
    pub tokens: usize,
    /// Uncovered tokens the analyzer also proved dead — the strongest
    /// form of agreement.
    pub dead_agreed: usize,
    /// Tokens certified via an allyesconfig target that the analyzer
    /// also classes allyes-reachable.
    pub allyes_agreed: usize,
    /// Deterministic notes about commits/architectures the cross-check
    /// could not replay (checkout failures, missing cross-compilers).
    /// Skips are reported, never silently dropped.
    pub skipped: Vec<String>,
    /// Every provable disagreement, in run order.
    pub discrepancies: Vec<Discrepancy>,
}

impl CrossCheckReport {
    /// True when static and dynamic sides never provably disagreed.
    pub fn is_clean(&self) -> bool {
        self.discrepancies.is_empty()
    }

    /// Deterministic JSON rendering — no wall-clock, no hashing order;
    /// byte-identical for identical runs regardless of worker count or
    /// cache mode.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"clean\": {},\n  \"patches\": {},\n  \"files\": {},\n  \"tokens\": {},\n  \"dead_agreed\": {},\n  \"allyes_agreed\": {},\n",
            self.is_clean(),
            self.patches,
            self.files,
            self.tokens,
            self.dead_agreed,
            self.allyes_agreed
        ));
        let discrepancies = self.discrepancies.iter().map(|d| format!(
            "{{\"commit\": \"{}\", \"file\": \"{}\", \"line\": {}, \"kind\": \"{}\", \"arch\": \"{}\", \"static\": \"{}\", \"dynamic\": \"{}\"}}",
            escape(&d.commit),
            escape(&d.file),
            d.line,
            escape(d.kind.label()),
            escape(&d.arch),
            escape(&d.static_detail),
            escape(&d.dynamic_detail)
        ));
        out.push_str(&format!(
            "  \"skipped\": {},\n  \"discrepancies\": {}\n}}\n",
            json_strings(&self.skipped),
            json_objects(discrepancies)
        ));
        out
    }
}

/// Replay `run` against the static analyzer and report disagreements.
/// The [`replay`]'s views solve their configurations through one shared
/// [`ConfigCache`], so each distinct Kconfig fingerprint is solved once
/// per run, not once per commit.
pub fn cross_check(repo: &Repo, run: &EvaluationRun) -> CrossCheckReport {
    let cache = Arc::new(ConfigCache::new());
    let engine = |tree| BuildEngine::with_shared_cache(tree, Arc::clone(&cache));
    let mut out = CrossCheckReport::default();
    replay(repo, run, &engine, &mut [&mut out]);
    out
}

impl Oracle for CrossCheckReport {
    fn visit(&mut self, commit: &mut Replayed<'_>) {
        for file in commit.files {
            self.files += 1;
            self.tokens += file.covered.len() + file.uncovered.len();
            let tree = branch_tree(commit.tree.get(&file.path).unwrap_or(""));
            check_file(file, commit.commit, &commit.views, &tree, self);
        }
    }

    fn close(&mut self, patches: usize, skipped: &[String]) {
        self.patches = patches;
        self.skipped = skipped.to_vec();
    }
}

/// Apply both rules to one file report.
fn check_file(
    file: &FileReport,
    commit: &str,
    views: &BTreeMap<String, ArchView<'_>>,
    tree: &BranchTree,
    out: &mut CrossCheckReport,
) {
    // Rule 1: a certified token on a statically-dead line.
    for (tok, desc) in &file.covered {
        let Some((arch, _)) = desc.split_once('/') else {
            continue;
        };
        let Some(view) = views.get(arch) else {
            continue;
        };
        let Some(class) = token_class(view.classes.files.get(&file.path), tree, tok.line) else {
            continue;
        };
        match class {
            ReachClass::Dead { proof } => out.discrepancies.push(Discrepancy {
                commit: commit.to_string(),
                file: file.path.clone(),
                line: tok.line,
                kind: DiscrepancyKind::DeadButCovered,
                arch: arch.to_string(),
                static_detail: proof.clone(),
                dynamic_detail: format!("covered via {desc}"),
            }),
            ReachClass::AllyesReachable if desc.ends_with("/allyesconfig") => {
                out.allyes_agreed += 1;
            }
            _ => {}
        }
    }

    // Rule 2: an allyes-reachable token that allyesconfig missed.
    if file.is_header
        || matches!(
            file.status,
            FileStatus::Bootstrap | FileStatus::CommentOnly | FileStatus::NoViableTarget
        )
        || !file.errors.is_empty()
    {
        // Headers are only reached through other translation units and
        // files with operational errors never got a fair dynamic shot —
        // both fuzzy, neither flaggable.
        return;
    }
    for unc in &file.uncovered {
        let tok = &unc.token;
        if tok.kind != MutationKind::Context {
            continue;
        }
        let mut dead_seen = false;
        for desc in &file.targets_tried {
            let Some(arch) = desc.strip_suffix("/allyesconfig") else {
                continue;
            };
            let Some(view) = views.get(arch) else {
                continue;
            };
            let Some(class) = token_class(view.classes.files.get(&file.path), tree, tok.line)
            else {
                continue;
            };
            match class {
                ReachClass::AllyesReachable
                    if view.reach.gate_enabled(&file.path, &view.allyes.config) =>
                {
                    out.discrepancies.push(Discrepancy {
                        commit: commit.to_string(),
                        file: file.path.clone(),
                        line: tok.line,
                        kind: DiscrepancyKind::AllyesButMissed,
                        arch: arch.to_string(),
                        static_detail: "allyes-reachable".to_string(),
                        dynamic_detail: format!("uncovered: {}", unc.reason),
                    });
                    break;
                }
                ReachClass::Dead { .. } => dead_seen = true,
                _ => {}
            }
        }
        if dead_seen {
            out.dead_agreed += 1;
        }
    }
}

/// The static class of the region a token recorded at `line` sits in,
/// read at [`region_line`]; `None` when no pristine line shares the
/// token's arm (the token is counted but exempt from both rules).
fn token_class<'a>(
    fr: Option<&'a FileReach>,
    tree: &BranchTree,
    line: u32,
) -> Option<&'a ReachClass> {
    fr?.class(region_line(tree, line)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_evaluation, DriverOptions};
    use jmake_kbuild::SourceTree;
    use jmake_vcs::Repo;

    /// A repo whose one commit turns `lib/crc.c` from `before` into
    /// `after`, on a tree whose Kconfig declares a dead symbol.
    fn crc_commit(before: &str, after: &str) -> (Repo, Vec<jmake_vcs::CommitId>) {
        let mut tree = SourceTree::new();
        tree.insert(
            "Kconfig",
            "config CRC\n\tbool \"crc\"\n\tdefault y\n\
             config DEAD_OPTION\n\tbool \"dead\"\n\tdepends on MISSING_EVERYWHERE\n",
        );
        tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        tree.insert("Makefile", "obj-y += lib/\n");
        tree.insert("lib/Makefile", "obj-$(CONFIG_CRC) += crc.o\n");
        tree.insert("lib/crc.c", before);

        let mut repo = Repo::new();
        let base = repo.commit(&[], "seed", "seed", &tree);
        let mut t2 = tree.clone();
        t2.insert("lib/crc.c", after);
        let c1 = repo.commit(&[base], "janitor", "edit crc.c", &t2);
        (repo, vec![c1])
    }

    /// A tiny repo: one commit planting a dead `#ifdef` block next to a
    /// live edit.
    fn planted_repo() -> (Repo, Vec<jmake_vcs::CommitId>) {
        crc_commit(
            "int crc_base;\nint crc_step;\n",
            "int crc_base;\nint crc_step2;\n\
             #ifdef CONFIG_DEAD_OPTION\nint planted_dead;\n#endif\n",
        )
    }

    fn run_on(repo: &Repo, commits: &[jmake_vcs::CommitId]) -> EvaluationRun {
        let opts = DriverOptions {
            workers: 1,
            ..DriverOptions::default()
        };
        run_evaluation(repo, commits, &opts)
    }

    #[test]
    fn planted_dead_block_agrees_and_report_is_clean() {
        let (repo, commits) = planted_repo();
        let run = run_on(&repo, &commits);
        assert_eq!(run.stats.checked, 1);
        let report = cross_check(&repo, &run);
        assert!(
            report.is_clean(),
            "expected clean cross-check, got {:?}",
            report.discrepancies
        );
        assert_eq!(report.patches, 1);
        assert!(report.tokens >= 2, "live edit + dead block tokens");
        assert!(
            report.dead_agreed >= 1,
            "the planted dead line must be dead statically AND uncovered dynamically: {report:?}"
        );
        assert!(
            report.allyes_agreed >= 1,
            "the live edit agrees: {report:?}"
        );
    }

    #[test]
    fn report_json_is_deterministic() {
        let (repo, commits) = planted_repo();
        let run = run_on(&repo, &commits);
        let a = cross_check(&repo, &run).to_json();
        let b = cross_check(&repo, &run).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"clean\": true"));
        assert!(a.contains("\"dead_agreed\""));
    }

    #[test]
    fn fabricated_dead_but_covered_is_flagged() {
        // Forge a run claiming the planted dead line was certified: the
        // cross-check must cry foul.
        let (repo, commits) = planted_repo();
        let mut run = run_on(&repo, &commits);
        let report = match &mut run.results[0].outcome {
            crate::driver::PatchOutcome::Checked(r) => r,
            other => panic!("expected checked outcome, got {other:?}"),
        };
        let file = report
            .files
            .iter_mut()
            .find(|f| f.path == "lib/crc.c")
            .expect("crc.c report");
        // The dead-block token is recorded on the `#ifdef` line (3); the
        // mutation engine physically placed it inside the branch.
        let dead_tok = file
            .uncovered
            .iter()
            .map(|u| u.token.clone())
            .find(|t| t.line == 3)
            .expect("planted dead block token");
        file.uncovered.retain(|u| u.token.line != 3);
        file.covered
            .push((dead_tok, "x86_64/allyesconfig".to_string()));

        let cc = cross_check(&repo, &run);
        assert!(!cc.is_clean());
        let d = &cc.discrepancies[0];
        assert_eq!(d.kind, DiscrepancyKind::DeadButCovered);
        assert_eq!(d.file, "lib/crc.c");
        assert_eq!(d.line, 3);
        assert_eq!(d.arch, "x86_64");
        assert!(cc.to_json().contains("dead-but-covered"));
    }

    #[test]
    fn fabricated_allyes_but_missed_is_flagged() {
        // Forge the opposite direction: claim the live edit's token was
        // never covered despite a clean allyesconfig attempt.
        let (repo, commits) = planted_repo();
        let mut run = run_on(&repo, &commits);
        let report = match &mut run.results[0].outcome {
            crate::driver::PatchOutcome::Checked(r) => r,
            other => panic!("expected checked outcome, got {other:?}"),
        };
        let file = report
            .files
            .iter_mut()
            .find(|f| f.path == "lib/crc.c")
            .expect("crc.c report");
        let (live_tok, _) = file
            .covered
            .iter()
            .find(|(t, _)| t.line == 2)
            .cloned()
            .expect("live edit token");
        file.covered.retain(|(t, _)| t.line != 2);
        file.uncovered.push(crate::report::UncoveredMutation {
            token: live_tok,
            reason: crate::classify::UncoveredReason::Unknown,
        });
        file.status = FileStatus::PartiallyCovered;

        let cc = cross_check(&repo, &run);
        assert!(cc
            .discrepancies
            .iter()
            .any(|d| d.kind == DiscrepancyKind::AllyesButMissed && d.line == 2));
    }

    #[test]
    fn token_before_a_lone_splice_line_is_read_in_its_arm() {
        // The commit renames the guard of a block whose first body line
        // is a lone `\`. The token lands after the `#ifdef`, in the dead
        // arm, just before the `\` line that is its region line; the
        // static side must read that line under the arm, not as `true`.
        let block =
            |guard: &str| format!("int crc_base;\n#ifdef {guard}\n\\\nint hidden;\n#endif\n");
        let (repo, commits) = crc_commit(&block("CONFIG_NOWHERE"), &block("CONFIG_NOWHERE2"));
        let run = run_on(&repo, &commits);
        assert_eq!(run.stats.checked, 1);
        let cc = cross_check(&repo, &run);
        assert!(cc.is_clean(), "{}", cc.to_json());
        assert_eq!(cc.tokens, 1, "{cc:?}");
        assert_eq!(cc.dead_agreed, 1, "{cc:?}");
    }

    #[test]
    fn unchecked_commits_are_skipped_with_a_note() {
        let (repo, commits) = planted_repo();
        let mut run = run_on(&repo, &commits);
        run.results[0].outcome = crate::driver::PatchOutcome::CheckoutFailed("gone".to_string());
        let cc = cross_check(&repo, &run);
        assert_eq!(cc.patches, 0);
        assert_eq!(cc.skipped.len(), 1);
        assert!(cc.skipped[0].contains("gone"));
        assert!(cc.is_clean());
    }

    #[test]
    fn spliced_guard_edit_is_read_in_its_dead_arm() {
        // The commit edits the continuation line of a spliced `#if` that
        // no configuration enables. The token lands after the whole
        // directive, in the dead arm, so the file preprocesses cleanly and
        // the static side reads the token at the arm's first line.
        let block = |operand: &str| {
            format!(
                "int crc_base;\n#if defined(CONFIG_NOWHERE) && \\\n    {operand}\nint hidden;\n#endif\n"
            )
        };
        let (repo, commits) = crc_commit(
            &block("defined(CONFIG_CRC)"),
            &block("defined(CONFIG_CRC) && 1"),
        );
        let run = run_on(&repo, &commits);
        let report = run.results[0].report().expect("checked");
        assert!(report.files[0].errors.is_empty(), "{report}");
        let cc = cross_check(&repo, &run);
        assert!(cc.is_clean(), "{}", cc.to_json());
        assert_eq!(cc.tokens, 1, "{cc:?}");
        assert_eq!(cc.dead_agreed, 1, "{cc:?}");
    }

    #[test]
    fn token_class_maps_opener_tokens_into_the_branch() {
        use jmake_reach::FileReach;
        let src = "int a;\n#ifdef CONFIG_X\nint b;\n#endif\nint c;\n";
        let tree = branch_tree(src);
        let fr = FileReach {
            path: "f.c".to_string(),
            classes: vec![
                ReachClass::AllyesReachable, // 1
                ReachClass::AllyesReachable, // 2 (#ifdef → enclosing)
                ReachClass::Dead {
                    proof: "p".to_string(),
                }, // 3 (branch)
                ReachClass::AllyesReachable, // 4 (#endif → the arm it returns to)
                ReachClass::AllyesReachable, // 5
            ],
        };
        // A token on the #ifdef line certifies the branch: line 3's class.
        assert!(token_class(Some(&fr), &tree, 2).is_some_and(ReachClass::is_dead));
        // Plain lines map to themselves.
        assert_eq!(
            token_class(Some(&fr), &tree, 1),
            Some(&ReachClass::AllyesReachable)
        );
        // An #endif token lands after the #endif, in the region it returns
        // to: the #endif line's own class.
        assert_eq!(
            token_class(Some(&fr), &tree, 4),
            Some(&ReachClass::AllyesReachable)
        );
        // Missing file report → no verdict.
        assert_eq!(token_class(None, &tree, 1), None);
    }
}
