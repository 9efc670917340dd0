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
//! through other translation units, tokens parked on conditional
//! directive lines whose insertion point belongs to a different region)
//! is counted but never flagged. A clean report therefore means "no
//! provable disagreement", which is exactly the property CI can gate
//! on; see `jmake-eval --cross-check`.
//!
//! The report is deterministic: commits are visited in run order, files
//! and tokens in report order, and the JSON rendering contains no
//! wall-clock — byte-identical across worker counts and cache modes.

use crate::driver::EvaluationRun;
use crate::replay::{json_objects, json_strings, replay, ArchView, Oracle, Replayed};
use crate::report::{FileReport, FileStatus};
use crate::token::MutationKind;
use jmake_cpp::lines::logical_lines;
use jmake_kbuild::{BuildEngine, ConfigCache};
use jmake_reach::ReachClass;
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
            let shapes = line_shapes(commit.tree.get(&file.path).unwrap_or(""));
            check_file(file, commit.commit, &commit.views, &shapes, self);
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
    shapes: &BTreeMap<u32, LineShape>,
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
        let Some(class) = token_class(view.classes.files.get(&file.path), shapes, tok.line) else {
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
            let Some(class) = token_class(view.classes.files.get(&file.path), shapes, tok.line)
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

/// The static class of the *region a mutation token actually sits in*.
///
/// A `Context` token recorded at line `L` physically lands:
///
/// - on a fresh line just before `L` when `L` is a plain line — same
///   region as `L`, so `class(L)` is the answer;
/// - just *after* the directive when `L` is a conditional opener or
///   branch switch ([`mutation`](crate::mutation) certifies the branch
///   the directive opens) — the region of the first line inside the
///   branch. That class is only read off the pristine file when the
///   next line is a plain line or a fresh opener (both attributed to
///   exactly that region by the analyzer); spliced directives,
///   `#endif`s, and `#elif`/`#else` neighbors are ambiguous and yield
///   `None` (the token is counted but exempt from both rules).
///
/// `Define` tokens live on their `#define`/continuation line and take
/// the plain-line path.
pub fn token_class<'a>(
    fr: Option<&'a jmake_reach::FileReach>,
    shapes: &BTreeMap<u32, LineShape>,
    line: u32,
) -> Option<&'a ReachClass> {
    fr?.class(token_region_line(shapes, line)?)
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
    fn line_shapes_classify_directives() {
        let shapes = line_shapes(
            "int a;\n#if defined(X) && \\\n    defined(Y)\nint b;\n#else\nint c;\n#endif\n",
        );
        assert!(!shapes.contains_key(&1), "plain line");
        assert_eq!(
            shapes.get(&2),
            Some(&LineShape::OpensFresh {
                end: 3,
                multi: true
            }),
            "spliced opener marks both physical lines"
        );
        assert_eq!(shapes.get(&3), shapes.get(&2));
        assert!(!shapes.contains_key(&4));
        assert_eq!(
            shapes.get(&5),
            Some(&LineShape::Opens {
                end: 5,
                multi: false
            })
        );
        assert_eq!(shapes.get(&7), Some(&LineShape::Closer));
    }

    #[test]
    fn token_class_maps_opener_tokens_into_the_branch() {
        use jmake_reach::FileReach;
        let src = "int a;\n#ifdef CONFIG_X\nint b;\n#endif\nint c;\n";
        let shapes = line_shapes(src);
        let fr = FileReach {
            path: "f.c".to_string(),
            classes: vec![
                ReachClass::AllyesReachable, // 1
                ReachClass::AllyesReachable, // 2 (#ifdef → enclosing)
                ReachClass::Dead {
                    proof: "p".to_string(),
                }, // 3 (branch)
                ReachClass::AllyesReachable, // 4 (#endif → enclosing)
                ReachClass::AllyesReachable, // 5
            ],
        };
        // A token on the #ifdef line certifies the branch: line 3's class.
        assert!(token_class(Some(&fr), &shapes, 2).is_some_and(ReachClass::is_dead));
        // Plain lines map to themselves.
        assert_eq!(
            token_class(Some(&fr), &shapes, 1),
            Some(&ReachClass::AllyesReachable)
        );
        // #endif tokens are ambiguous.
        assert_eq!(token_class(Some(&fr), &shapes, 4), None);
        // Missing file report → no verdict.
        assert_eq!(token_class(None, &shapes, 1), None);
    }
}
