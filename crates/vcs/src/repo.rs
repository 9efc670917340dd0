//! Commits, tags, log, show, checkout.

use crate::object::BlobStore;
use jmake_diff::{diff_to_patch, ChangeKind, DiffOptions, FilePatch, Patch};
use jmake_kbuild::SourceTree;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identity of a commit (index into the repository's commit sequence,
/// displayed as a short hex id like git abbreviates hashes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommitId(pub(crate) u32);

impl CommitId {
    /// An id from a raw history index, without checking that any
    /// repository contains it. Resolving a fabricated id beyond a
    /// repository's history yields [`RepoError::NoSuchCommit`] — which is
    /// exactly what evaluation-driver tests need to exercise their
    /// checkout-failure paths.
    pub fn from_raw(index: u32) -> Self {
        CommitId(index)
    }
}

impl fmt::Display for CommitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{:07x}", self.0)
    }
}

/// One commit: a snapshot plus metadata.
#[derive(Debug, Clone)]
pub struct Commit {
    /// This commit's id.
    pub id: CommitId,
    /// Parent commits; more than one makes this a merge.
    pub parents: Vec<CommitId>,
    /// Author name (the janitor analysis keys on this).
    pub author: String,
    /// Commit message subject.
    pub message: String,
    /// Snapshot. Trees are persistent, so a commit shares every leaf its
    /// edit left alone with its parent: storing one costs O(changed
    /// files), and checking one out is a pointer copy.
    pub tree: SourceTree,
}

impl Commit {
    /// True for merge commits (≥2 parents).
    pub fn is_merge(&self) -> bool {
        self.parents.len() >= 2
    }
}

/// Errors from repository queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepoError {
    /// The commit id does not exist.
    NoSuchCommit(String),
    /// The tag name does not exist.
    NoSuchTag(String),
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::NoSuchCommit(id) => write!(f, "no such commit: {id}"),
            RepoError::NoSuchTag(t) => write!(f, "no such tag: {t}"),
        }
    }
}

impl Error for RepoError {}

/// The tree a parentless commit is diffed against.
fn empty_tree() -> &'static SourceTree {
    static EMPTY: OnceLock<SourceTree> = OnceLock::new();
    EMPTY.get_or_init(SourceTree::new)
}

/// Options for [`Repo::log`], mirroring the paper's
/// `git log -w --diff-filter=M --no-merges v4.3..v4.4` (§V.A).
#[derive(Debug, Clone, Default)]
pub struct LogOptions {
    /// Skip merge commits (`--no-merges`).
    pub no_merges: bool,
    /// Only commits that modify at least one existing file
    /// (`--diff-filter=M`).
    pub diff_filter_modify: bool,
    /// Ignore whitespace when deciding whether a file changed (`-w`).
    pub ignore_whitespace: bool,
    /// Tag range `from..to` (exclusive, inclusive), like git revision
    /// ranges over linear history.
    pub tag_range: Option<(String, String)>,
}

impl LogOptions {
    /// The paper's exact selection: `-w --diff-filter=M --no-merges`.
    pub fn paper_defaults() -> Self {
        LogOptions {
            no_merges: true,
            diff_filter_modify: true,
            ignore_whitespace: true,
            tag_range: None,
        }
    }

    /// Restrict to commits after tag `from` up to and including tag `to`.
    pub fn range(mut self, from: &str, to: &str) -> Self {
        self.tag_range = Some((from.to_string(), to.to_string()));
        self
    }
}

/// The repository.
#[derive(Debug, Clone, Default)]
pub struct Repo {
    blobs: BlobStore,
    commits: Vec<Commit>,
    tags: BTreeMap<String, CommitId>,
}

impl Repo {
    /// An empty repository.
    pub fn new() -> Self {
        Repo::default()
    }

    /// Record a commit of `tree` with the given parents. The commit keeps
    /// a clone of `tree` (a pointer copy); only the files that differ
    /// from the first parent are content-addressed into the blob store.
    pub fn commit(
        &mut self,
        parents: &[CommitId],
        author: &str,
        message: &str,
        tree: &SourceTree,
    ) -> CommitId {
        let id = CommitId(self.commits.len() as u32);
        let parent = parents
            .first()
            .and_then(|p| self.commits.get(p.0 as usize))
            .map_or(empty_tree(), |c| &c.tree);
        // Content-address only what this commit introduces. An edit that
        // restores known content gets the stored blob, so its derived
        // state is shared with every earlier tree holding it.
        let mut snapshot = tree.clone();
        for change in parent.diff(tree) {
            if let Some(blob) = change.new {
                let stored = self.blobs.intern(blob);
                if !Arc::ptr_eq(&stored, blob) {
                    snapshot.insert_blob(Arc::clone(change.path), stored);
                }
            }
        }
        self.commits.push(Commit {
            id,
            parents: parents.to_vec(),
            author: author.to_string(),
            message: message.to_string(),
            tree: snapshot,
        });
        id
    }

    /// Tag a commit.
    pub fn tag(&mut self, name: &str, id: CommitId) {
        self.tags.insert(name.to_string(), id);
    }

    /// Resolve a tag.
    pub fn resolve_tag(&self, name: &str) -> Result<CommitId, RepoError> {
        self.tags
            .get(name)
            .copied()
            .ok_or_else(|| RepoError::NoSuchTag(name.to_string()))
    }

    /// Fetch commit metadata.
    pub fn get(&self, id: CommitId) -> Result<&Commit, RepoError> {
        self.commits
            .get(id.0 as usize)
            .ok_or_else(|| RepoError::NoSuchCommit(id.to_string()))
    }

    /// Number of commits.
    pub fn len(&self) -> usize {
        self.commits.len()
    }

    /// The id of the `index`-th commit in history order.
    pub fn nth(&self, index: usize) -> Option<CommitId> {
        self.commits.get(index).map(|c| c.id)
    }

    /// The most recent commit id.
    pub fn head(&self) -> Option<CommitId> {
        self.commits.last().map(|c| c.id)
    }

    /// True when no commits exist.
    pub fn is_empty(&self) -> bool {
        self.commits.is_empty()
    }

    /// `git clean -dfx && git reset --hard <id>`: materialize the pristine
    /// snapshot of a commit.
    ///
    /// # Errors
    ///
    /// [`RepoError::NoSuchCommit`].
    pub fn checkout(&self, id: CommitId) -> Result<SourceTree, RepoError> {
        Ok(self.get(id)?.tree.clone())
    }

    /// `git show <id>`: the patch this commit applies relative to its
    /// first parent (empty patch for a parentless root).
    ///
    /// # Errors
    ///
    /// [`RepoError::NoSuchCommit`].
    pub fn show(&self, id: CommitId) -> Result<Patch, RepoError> {
        self.show_with(id, &DiffOptions::default())
    }

    /// [`Repo::show`] with explicit diff options (`-w` etc.). Costs
    /// O(changed files): the structural diff skips every leaf the commit
    /// shares with its parent.
    ///
    /// # Errors
    ///
    /// [`RepoError::NoSuchCommit`].
    pub fn show_with(&self, id: CommitId, opts: &DiffOptions) -> Result<Patch, RepoError> {
        let commit = self.get(id)?;
        let mut files: Vec<FilePatch> = Vec::new();
        for change in self.first_parent_tree(commit)?.diff(&commit.tree) {
            let path = &**change.path;
            let old = change.old.map_or("", |b| b.text());
            let new = change.new.map_or("", |b| b.text());
            let patch = diff_to_patch(path, old, new, opts);
            let (new_path, kind) = match (change.old, change.new) {
                (Some(_), Some(_)) => {
                    // Content hashes differ but the -w diff may be empty.
                    files.extend(patch.files.into_iter().next());
                    continue;
                }
                (None, _) => (path, ChangeKind::Create),
                (Some(_), None) => ("/dev/null", ChangeKind::Delete),
            };
            files.push(FilePatch {
                old_path: path.to_string(),
                new_path: new_path.to_string(),
                kind,
                hunks: patch.files.into_iter().flat_map(|f| f.hunks).collect(),
            });
        }
        Ok(Patch { files })
    }

    /// The tree of `commit`'s first parent; the empty tree for a root.
    fn first_parent_tree(&self, commit: &Commit) -> Result<&SourceTree, RepoError> {
        match commit.parents.first() {
            Some(p) => Ok(&self.get(*p)?.tree),
            None => Ok(empty_tree()),
        }
    }

    /// `git log` with the given options; returns matching commit ids in
    /// history order (oldest first).
    ///
    /// # Errors
    ///
    /// [`RepoError::NoSuchTag`] for an unknown range endpoint.
    pub fn log(&self, opts: &LogOptions) -> Result<Vec<CommitId>, RepoError> {
        let (lo, hi) = match &opts.tag_range {
            Some((from, to)) => (self.resolve_tag(from)?.0 + 1, self.resolve_tag(to)?.0),
            None => (0, self.commits.len().saturating_sub(1) as u32),
        };
        let diff_opts = DiffOptions {
            ignore_whitespace: opts.ignore_whitespace,
            ..DiffOptions::default()
        };
        let mut out = Vec::new();
        for commit in &self.commits {
            if commit.id.0 < lo || commit.id.0 > hi {
                continue;
            }
            if opts.no_merges && commit.is_merge() {
                continue;
            }
            if opts.diff_filter_modify {
                let patch = self.show_with(commit.id, &diff_opts)?;
                let modifies = patch
                    .files
                    .iter()
                    .any(|f| f.kind == ChangeKind::Modify && !f.hunks.is_empty());
                if !modifies {
                    continue;
                }
            }
            out.push(commit.id);
        }
        Ok(out)
    }

    /// All commits in history order (for the janitor activity analysis,
    /// which looks at every contribution).
    pub fn all_commits(&self) -> impl Iterator<Item = &Commit> {
        self.commits.iter()
    }

    /// Paths touched by a commit relative to its first parent, in path
    /// order, decided by blob identity alone — much cheaper than
    /// [`Repo::show`] when only the file list matters (the janitor
    /// activity analysis runs this over years of history).
    ///
    /// # Errors
    ///
    /// [`RepoError::NoSuchCommit`].
    pub fn changed_paths(&self, id: CommitId) -> Result<Vec<String>, RepoError> {
        let commit = self.get(id)?;
        Ok(self
            .first_parent_tree(commit)?
            .diff(&commit.tree)
            .into_iter()
            .map(|change| change.path.to_string())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(pairs: &[(&str, &str)]) -> SourceTree {
        let mut t = SourceTree::new();
        for (p, c) in pairs {
            t.insert(*p, *c);
        }
        t
    }

    fn sample_repo() -> (Repo, CommitId, CommitId, CommitId, CommitId, CommitId) {
        let mut repo = Repo::new();
        let base = repo.commit(
            &[],
            "torvalds",
            "initial",
            &tree(&[("a.c", "int a;\n"), ("b.h", "#define B 1\n")]),
        );
        repo.tag("v4.3", base);
        // Modify a.c.
        let m1 = repo.commit(
            &[base],
            "alice",
            "a: set value",
            &tree(&[("a.c", "int a = 5;\n"), ("b.h", "#define B 1\n")]),
        );
        // Add-only commit.
        let add = repo.commit(
            &[m1],
            "bob",
            "add c.c",
            &tree(&[
                ("a.c", "int a = 5;\n"),
                ("b.h", "#define B 1\n"),
                ("c.c", "int c;\n"),
            ]),
        );
        // Merge commit that also modifies.
        let merge = repo.commit(
            &[add, m1],
            "torvalds",
            "Merge branch",
            &tree(&[
                ("a.c", "int a = 6;\n"),
                ("b.h", "#define B 1\n"),
                ("c.c", "int c;\n"),
            ]),
        );
        // Whitespace-only change.
        let ws = repo.commit(
            &[merge],
            "carol",
            "reindent",
            &tree(&[
                ("a.c", "int  a  =  6;\n"),
                ("b.h", "#define B 1\n"),
                ("c.c", "int c;\n"),
            ]),
        );
        repo.tag("v4.4", ws);
        (repo, base, m1, add, merge, ws)
    }

    #[test]
    fn commit_checkout_round_trips() {
        let (repo, base, m1, ..) = sample_repo();
        let t0 = repo.checkout(base).unwrap();
        assert_eq!(t0.get("a.c"), Some("int a;\n"));
        let t1 = repo.checkout(m1).unwrap();
        assert_eq!(t1.get("a.c"), Some("int a = 5;\n"));
        assert_eq!(t1.len(), 2);
    }

    #[test]
    fn show_produces_modify_patch() {
        let (repo, _, m1, ..) = sample_repo();
        let patch = repo.show(m1).unwrap();
        assert_eq!(patch.files.len(), 1);
        let fp = &patch.files[0];
        assert_eq!(fp.path(), "a.c");
        assert_eq!(fp.kind, ChangeKind::Modify);
        assert_eq!(fp.added_count(), 1);
        assert_eq!(fp.removed_count(), 1);
    }

    #[test]
    fn show_detects_creation() {
        let (repo, _, _, add, ..) = sample_repo();
        let patch = repo.show(add).unwrap();
        assert_eq!(patch.files.len(), 1);
        assert_eq!(patch.files[0].kind, ChangeKind::Create);
        assert_eq!(patch.files[0].path(), "c.c");
    }

    #[test]
    fn show_detects_deletion() {
        let mut repo = Repo::new();
        let a = repo.commit(&[], "x", "add", &tree(&[("gone.c", "int g;\n")]));
        let b = repo.commit(&[a], "x", "remove", &tree(&[]));
        let patch = repo.show(b).unwrap();
        assert_eq!(patch.files[0].kind, ChangeKind::Delete);
        assert_eq!(patch.files[0].path(), "gone.c");
    }

    #[test]
    fn root_commit_shows_all_creations() {
        let (repo, base, ..) = sample_repo();
        let patch = repo.show(base).unwrap();
        assert_eq!(patch.files.len(), 2);
        assert!(patch.files.iter().all(|f| f.kind == ChangeKind::Create));
    }

    #[test]
    fn paper_log_selection() {
        let (repo, _, m1, _add, _merge, _ws) = sample_repo();
        let ids = repo
            .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
            .unwrap();
        // m1 modifies a file: included. add only creates: filtered.
        // merge: --no-merges. ws: -w makes it empty: filtered.
        assert_eq!(ids, vec![m1]);
    }

    #[test]
    fn log_without_filters_includes_everything_in_range() {
        let (repo, _, m1, add, merge, ws) = sample_repo();
        let ids = repo
            .log(&LogOptions::default().range("v4.3", "v4.4"))
            .unwrap();
        assert_eq!(ids, vec![m1, add, merge, ws]);
    }

    #[test]
    fn merge_detection() {
        let (repo, _, _, _, merge, _) = sample_repo();
        assert!(repo.get(merge).unwrap().is_merge());
    }

    #[test]
    fn unknown_tag_and_commit_error() {
        let (repo, ..) = sample_repo();
        assert!(matches!(
            repo.log(&LogOptions::default().range("v9.9", "v4.4")),
            Err(RepoError::NoSuchTag(_))
        ));
        assert!(matches!(
            repo.get(CommitId(999)),
            Err(RepoError::NoSuchCommit(_))
        ));
    }

    #[test]
    fn blobs_are_deduplicated_across_commits() {
        let (repo, ..) = sample_repo();
        // b.h is identical in all five commits: one blob.
        // Total distinct contents: b.h, four a.c versions… (ws version
        // differs), c.c. At most 7 blobs for 5 commits × ~3 files.
        assert!(repo.blobs.len() <= 7, "{}", repo.blobs.len());
    }

    #[test]
    fn whitespace_sensitive_show_still_sees_reindent() {
        let (repo, _, _, _, _, ws) = sample_repo();
        let strict = repo.show(ws).unwrap();
        assert_eq!(strict.files.len(), 1);
        let loose = repo
            .show_with(
                ws,
                &DiffOptions {
                    ignore_whitespace: true,
                    ..DiffOptions::default()
                },
            )
            .unwrap();
        assert!(loose.files.is_empty());
    }
}
