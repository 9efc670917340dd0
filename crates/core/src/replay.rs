//! One static replay of a finished run (DESIGN.md §22).
//!
//! [`ArchView`] is the per-(commit × architecture) static analysis that
//! `--cross-check` ([`crate::crosscheck`]), `--fix` (`jmake-fix`) and
//! `--coverage` ([`crate::check`]) read. [`replay`] is the one loop over
//! a run's results: it builds each checked commit's views and hands them
//! to every [`Oracle`] in turn, in run order. Configuration solves are
//! pure functions of (tree, arch, kind), so the stores a view's engine
//! uses change no byte an oracle reports.

use crate::driver::EvaluationRun;
use crate::report::FileReport;
use jmake_kbuild::{BuildConfig, BuildEngine, BuildError, SourceTree};
use jmake_reach::{Reach, TreeReach};
use jmake_trace::jsonl::escape;
use jmake_vcs::Repo;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One architecture's static view of one tree: the arch's Kconfig model
/// with its allyes and allmod environments ([`Reach::add_arch`]), the
/// classes of the files asked for, and the engine that solved them.
pub struct ArchView<'t> {
    /// The engine the view's configurations were solved on; `--fix`
    /// verifies its deltas on it, so its clock carries the solves too.
    pub engine: BuildEngine,
    /// The analyzer, kept for presence-condition and witness queries.
    pub reach: Reach<'t>,
    /// [`Reach::analyze_files`] over the requested paths.
    pub classes: TreeReach,
    /// The solved allyesconfig.
    pub allyes: Arc<BuildConfig>,
}

impl<'t> ArchView<'t> {
    /// Solve `arch`'s allyes and allmod configurations on `engine` (an
    /// engine over `tree`) and classify `paths`; `Err` is the first
    /// failed solve.
    pub fn build(
        tree: &'t SourceTree,
        arch: &str,
        mut engine: BuildEngine,
        paths: &[String],
    ) -> Result<Self, BuildError> {
        let mut reach = Reach::new(tree);
        let allyes = reach.add_arch(&mut engine, arch)?;
        let classes = reach.analyze_files(paths);
        Ok(ArchView {
            engine,
            reach,
            classes,
            allyes,
        })
    }
}

/// One checked commit, as the replay hands it to each oracle.
pub struct Replayed<'a> {
    /// The commit id, as reports print it.
    pub commit: &'a str,
    /// The commit's tree, checked out again from the repository.
    pub tree: &'a SourceTree,
    /// The commit's file reports, in report order.
    pub files: &'a [FileReport],
    /// One view per architecture in [`arches_used`] whose
    /// configurations solved; the others have a skip note.
    pub views: BTreeMap<String, ArchView<'a>>,
}

/// A static oracle over a replayed run.
pub trait Oracle {
    /// Apply the oracle's rules to one checked commit. Commits arrive in
    /// run order.
    fn visit(&mut self, commit: &mut Replayed<'_>);

    /// After the last visit: the number of checked commits, and a note
    /// for each result, commit or architecture not replayed, in order.
    fn close(&mut self, patches: usize, skipped: &[String]);
}

/// Replay `run` once for every oracle in `oracles`: check each checked
/// commit out of `repo` again, build a view of its files on a fresh
/// `engine` per architecture in [`arches_used`], and let each oracle
/// visit it, in slice order. An unchecked result, a failed checkout or
/// an unsolvable architecture leaves a skip note instead.
pub fn replay(
    repo: &Repo,
    run: &EvaluationRun,
    engine: &dyn Fn(SourceTree) -> BuildEngine,
    oracles: &mut [&mut dyn Oracle],
) {
    let mut patches = 0;
    let mut skipped = Vec::new();
    for result in &run.results {
        let commit = result.commit.to_string();
        let Some(report) = result.report() else {
            let why = result.outcome.failure().unwrap_or("not checked");
            skipped.push(format!("{commit}: {why}"));
            continue;
        };
        patches += 1;
        let tree = match repo.checkout(result.commit) {
            Ok(t) => t,
            Err(e) => {
                skipped.push(format!("{commit}: re-checkout failed: {e}"));
                continue;
            }
        };
        let paths: Vec<String> = report.files.iter().map(|f| f.path.clone()).collect();
        let mut views = BTreeMap::new();
        for arch in arches_used(&report.files) {
            match ArchView::build(&tree, &arch, engine(tree.clone()), &paths) {
                Ok(view) => {
                    views.insert(arch, view);
                }
                Err(e) => skipped.push(format!("{commit}: {arch}: {e}")),
            }
        }
        let mut replayed = Replayed {
            commit: &commit,
            tree: &tree,
            files: &report.files,
            views,
        };
        for oracle in oracles.iter_mut() {
            oracle.visit(&mut replayed);
        }
    }
    for oracle in oracles {
        oracle.close(patches, &skipped);
    }
}

/// A JSON array of strings on one line: the oracles' skip notes.
pub fn json_strings(items: &[String]) -> String {
    let quoted: Vec<_> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(", "))
}

/// A JSON array of rendered objects, one per line: the oracles' findings.
pub fn json_objects(objects: impl Iterator<Item = String>) -> String {
    let objects: Vec<String> = objects.collect();
    if objects.is_empty() {
        return "[]".to_string();
    }
    format!("[\n    {}\n  ]", objects.join(",\n    "))
}

/// Architectures the dynamic side exercised: every certifying target's
/// arch plus every arch whose allyesconfig was at least attempted.
pub fn arches_used(files: &[FileReport]) -> BTreeSet<String> {
    let mut arches = BTreeSet::new();
    for f in files {
        for (_, desc) in &f.covered {
            if let Some((arch, _)) = desc.split_once('/') {
                arches.insert(arch.to_string());
            }
        }
        for desc in &f.targets_tried {
            if let Some(arch) = desc.strip_suffix("/allyesconfig") {
                arches.insert(arch.to_string());
            }
        }
    }
    arches
}

/// The architecture whose model classifies a file's misses: the same
/// environment the dynamic classifier used — `x86_64` when the file was
/// tried there, else the first architecture it was tried on (`None` when
/// it never was). `targets_tried` holds `arch/kind` descriptions.
pub fn class_arch(targets_tried: &[String]) -> Option<String> {
    let mut first = None;
    for (arch, _) in targets_tried.iter().filter_map(|d| d.split_once('/')) {
        if arch == "x86_64" {
            return Some(arch.to_string());
        }
        first.get_or_insert(arch);
    }
    first.map(str::to_string)
}
