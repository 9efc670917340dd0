//! Property tests for the repository.

use crate::repo::{CommitId, LogOptions, Repo};
use jmake_diff::{apply, diff_to_patch, ChangeKind, DiffOptions, FilePatch, Patch};
use jmake_kbuild::{Blob, ContentHash, SourceTree};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Strategy: a sequence of small trees (each a map of ≤4 files).
fn tree_sequence() -> impl Strategy<Value = Vec<SourceTree>> {
    let file = prop_oneof![Just("a.c"), Just("b.c"), Just("c.h"), Just("d/e.c")];
    let content = prop::collection::vec("[a-z ]{0,12}", 0..6).prop_map(|lines| {
        if lines.is_empty() {
            String::new()
        } else {
            lines.join("\n") + "\n"
        }
    });
    let tree = prop::collection::btree_map(file, content, 0..4).prop_map(|m| {
        m.into_iter()
            .filter(|(_, c)| !c.is_empty())
            .map(|(p, c)| (p.to_string(), c))
            .collect::<SourceTree>()
    });
    prop::collection::vec(tree, 1..8)
}

proptest! {
    /// checkout(commit(tree)) == tree, for every commit in a chain.
    #[test]
    fn checkout_round_trips(trees in tree_sequence()) {
        let mut repo = Repo::new();
        let mut prev = Vec::new();
        let mut ids = Vec::new();
        for t in &trees {
            let id = repo.commit(&prev, "dev", "msg", t);
            prev = vec![id];
            ids.push(id);
        }
        for (id, t) in ids.iter().zip(&trees) {
            prop_assert_eq!(&repo.checkout(*id).unwrap(), t);
        }
    }

    /// Applying show(c) to the parent snapshot reproduces c's snapshot.
    #[test]
    fn show_patch_transforms_parent_into_child(trees in tree_sequence()) {
        let mut repo = Repo::new();
        let mut prev: Vec<crate::repo::CommitId> = Vec::new();
        for t in &trees {
            let id = repo.commit(&prev, "dev", "msg", t);
            let patch = repo.show(id).unwrap();
            let parent_tree = match prev.first() {
                Some(p) => repo.checkout(*p).unwrap(),
                None => SourceTree::new(),
            };
            let mut rebuilt = parent_tree.clone();
            for fp in &patch.files {
                match fp.kind {
                    jmake_diff::ChangeKind::Delete => {
                        rebuilt.remove(fp.path());
                    }
                    _ => {
                        let old = parent_tree.get(fp.path()).unwrap_or("");
                        let new = apply(old, fp).unwrap();
                        rebuilt.insert(fp.path(), new);
                    }
                }
            }
            prop_assert_eq!(&rebuilt, t, "patch:\n{}", patch.render());
            prev = vec![id];
        }
    }

    /// log without filters lists exactly the non-root commits in order.
    #[test]
    fn log_covers_history(trees in tree_sequence()) {
        let mut repo = Repo::new();
        let mut prev = Vec::new();
        let mut ids = Vec::new();
        for t in &trees {
            let id = repo.commit(&prev, "dev", "msg", t);
            prev = vec![id];
            ids.push(id);
        }
        let logged = repo.log(&LogOptions::default()).unwrap();
        prop_assert_eq!(logged, ids);
    }

    /// diff-filter=M never returns a commit whose patch has no modified file.
    #[test]
    fn diff_filter_is_sound(trees in tree_sequence()) {
        let mut repo = Repo::new();
        let mut prev = Vec::new();
        for t in &trees {
            let id = repo.commit(&prev, "dev", "msg", t);
            prev = vec![id];
        }
        let opts = LogOptions { diff_filter_modify: true, ..LogOptions::default() };
        for id in repo.log(&opts).unwrap() {
            let patch = repo.show(id).unwrap();
            prop_assert!(patch.files.iter().any(|f| f.kind == jmake_diff::ChangeKind::Modify));
        }
    }

    /// On histories grown the way the synthesizer grows them (one working
    /// tree, edited and committed, with merges and extra roots), `show`,
    /// `show_with -w`, `changed_paths` and `log` equal the full-tree
    /// reference, and every checkout equals the tree that was committed.
    #[test]
    fn structural_diffs_match_the_full_tree_reference(
        files in prop::collection::vec((history_path(), lines()), 0..120),
        steps in prop::collection::vec(step(), 1..10),
    ) {
        let mut repo = Repo::new();
        let mut current: SourceTree = files.into_iter().collect();
        let mut committed = Vec::new();
        let mut prev: Option<CommitId> = None;
        for (parents, edits) in &steps {
            for edit in edits {
                edit.apply(&mut current);
            }
            let parents: Vec<CommitId> = match (prev, parents) {
                (None, _) | (_, Parents::Root) => Vec::new(),
                (Some(p), Parents::Linear) => vec![p],
                (Some(p), Parents::Merge(n)) => vec![p, CommitId(*n as u32 % (p.0 + 1))],
            };
            let id = repo.commit(&parents, "dev", "msg", &current);
            committed.push((id, current.clone()));
            prev = Some(id);
        }
        repo.tag("first", committed[0].0);
        repo.tag("last", committed[committed.len() - 1].0);
        let ws = DiffOptions { ignore_whitespace: true, ..DiffOptions::default() };
        for (id, tree) in &committed {
            prop_assert_eq!(&repo.checkout(*id).unwrap(), tree);
            for opts in [&DiffOptions::default(), &ws] {
                prop_assert_eq!(repo.show_with(*id, opts).unwrap(), reference_show(&repo, *id, opts));
            }
            prop_assert_eq!(repo.changed_paths(*id).unwrap(), reference_changed_paths(&repo, *id));
        }
        let paper = LogOptions::paper_defaults();
        for opts in [
            LogOptions::default(),
            LogOptions { no_merges: true, ..LogOptions::default() },
            LogOptions { diff_filter_modify: true, ..LogOptions::default() },
            paper.clone(),
            paper.range("first", "last"),
        ] {
            prop_assert_eq!(repo.log(&opts).unwrap(), reference_log(&repo, &opts));
        }
    }
}

#[derive(Debug, Clone)]
enum Parents {
    Linear,
    /// A merge whose second parent is the `n`-th commit (mod history).
    Merge(usize),
    /// A parentless commit: `show` lists every file as created.
    Root,
}

#[derive(Debug, Clone)]
enum Edit {
    /// Write `content` to `path`.
    Put(String, String),
    /// Re-insert the `n`-th file's content as a new blob: no change.
    Same(usize),
    /// Double every space of the `n`-th file: a change `-w` ignores.
    Respace(usize),
    /// Copy the `n`-th file's content onto the `m`-th: content the blob
    /// store has seen before, under a new blob.
    Copy(usize, usize),
    /// Delete the `n`-th file.
    Remove(usize),
}

impl Edit {
    fn apply(&self, tree: &mut SourceTree) {
        let nth = |n: usize| -> Option<(Arc<str>, String)> {
            let len = tree.len().max(1);
            let (p, b) = tree.iter_blobs().nth(n % len)?;
            Some((Arc::clone(p), b.text().to_string()))
        };
        match self {
            Edit::Put(p, c) => tree.insert(p.clone(), c.clone()),
            Edit::Same(n) => {
                if let Some((p, c)) = nth(*n) {
                    tree.insert_blob(p, Blob::new(c));
                }
            }
            Edit::Respace(n) => {
                if let Some((p, c)) = nth(*n) {
                    tree.insert_blob(p, Blob::new(c.replace(' ', "  ")));
                }
            }
            Edit::Copy(n, m) => {
                if let (Some((_, c)), Some((p, _))) = (nth(*n), nth(*m)) {
                    tree.insert_blob(p, Blob::new(c));
                }
            }
            Edit::Remove(n) => {
                if let Some((p, _)) = nth(*n) {
                    tree.remove(&p);
                }
            }
        }
    }
}

fn history_path() -> impl Strategy<Value = String> {
    (0usize..8, "[a-z]{1,2}").prop_map(|(k, name)| match ["a.c", "b.c", "c.h", "d/e.c"].get(k) {
        Some(p) => p.to_string(),
        None => format!("{}/{name}.c", ["d", "d/e", "d-e", "x"][k % 4]),
    })
}

fn lines() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-z ]{0,12}", 0..6).prop_map(|lines| {
        if lines.is_empty() {
            String::new()
        } else {
            lines.join("\n") + "\n"
        }
    })
}

fn edit() -> impl Strategy<Value = Edit> {
    (0u8..8, history_path(), lines(), 0usize..512, 0usize..512).prop_map(
        |(k, p, c, n, m)| match k {
            0..=2 => Edit::Put(p, c),
            3 => Edit::Same(n),
            4 => Edit::Respace(n),
            5 => Edit::Copy(n, m),
            _ => Edit::Remove(n),
        },
    )
}

fn step() -> impl Strategy<Value = (Parents, Vec<Edit>)> {
    let parents = (0u8..8, 0usize..64).prop_map(|(k, n)| match k {
        0 => Parents::Root,
        1 | 2 => Parents::Merge(n),
        _ => Parents::Linear,
    });
    (parents, prop::collection::vec(edit(), 0..6))
}

/// A tree as a full path → (content hash, text) map: the shape commits
/// were stored in before trees became persistent.
fn snapshot(tree: &SourceTree) -> BTreeMap<String, (ContentHash, String)> {
    tree.iter_blobs()
        .map(|(p, b)| (p.to_string(), (b.hash(), b.text().to_string())))
        .collect()
}

fn first_parent_snapshot(repo: &Repo, id: CommitId) -> BTreeMap<String, (ContentHash, String)> {
    match repo.get(id).unwrap().parents.first() {
        Some(p) => snapshot(&repo.get(*p).unwrap().tree),
        None => BTreeMap::new(),
    }
}

/// `show_with` as it was before trees became persistent: walk every path
/// of both full snapshots.
fn reference_show(repo: &Repo, id: CommitId, opts: &DiffOptions) -> Patch {
    let old = first_parent_snapshot(repo, id);
    let new = snapshot(&repo.get(id).unwrap().tree);
    let mut files: Vec<FilePatch> = Vec::new();
    for (path, (new_id, new_text)) in &new {
        match old.get(path) {
            None => {
                let patch = diff_to_patch(path, "", new_text, opts);
                files.push(FilePatch {
                    old_path: path.clone(),
                    new_path: path.clone(),
                    kind: ChangeKind::Create,
                    hunks: patch.files.into_iter().flat_map(|f| f.hunks).collect(),
                });
            }
            Some((old_id, old_text)) if old_id != new_id => {
                let patch = diff_to_patch(path, old_text, new_text, opts);
                if let Some(fp) = patch.files.into_iter().next() {
                    files.push(fp);
                }
            }
            Some(_) => {}
        }
    }
    for (path, (_, old_text)) in &old {
        if !new.contains_key(path) {
            let patch = diff_to_patch(path, old_text, "", opts);
            files.push(FilePatch {
                old_path: path.clone(),
                new_path: "/dev/null".to_string(),
                kind: ChangeKind::Delete,
                hunks: patch.files.into_iter().flat_map(|f| f.hunks).collect(),
            });
        }
    }
    files.sort_by(|a, b| a.path().cmp(b.path()));
    Patch { files }
}

/// `changed_paths` as it was: every path whose content hash differs.
fn reference_changed_paths(repo: &Repo, id: CommitId) -> Vec<String> {
    let old = first_parent_snapshot(repo, id);
    let new = snapshot(&repo.get(id).unwrap().tree);
    let mut out: Vec<String> = new
        .iter()
        .filter(|(p, (h, _))| old.get(*p).map(|(o, _)| o) != Some(h))
        .map(|(p, _)| p.clone())
        .chain(old.keys().filter(|p| !new.contains_key(*p)).cloned())
        .collect();
    out.sort();
    out
}

/// `log` over [`reference_show`].
fn reference_log(repo: &Repo, opts: &LogOptions) -> Vec<CommitId> {
    let (lo, hi) = match &opts.tag_range {
        Some((from, to)) => (
            repo.resolve_tag(from).unwrap().0 + 1,
            repo.resolve_tag(to).unwrap().0,
        ),
        None => (0, repo.len().saturating_sub(1) as u32),
    };
    let diff_opts = DiffOptions {
        ignore_whitespace: opts.ignore_whitespace,
        ..DiffOptions::default()
    };
    repo.all_commits()
        .filter(|c| (lo..=hi).contains(&c.id.0))
        .filter(|c| !(opts.no_merges && c.is_merge()))
        .filter(|c| {
            !opts.diff_filter_modify
                || reference_show(repo, c.id, &diff_opts)
                    .files
                    .iter()
                    .any(|f| f.kind == ChangeKind::Modify && !f.hunks.is_empty())
        })
        .map(|c| c.id)
        .collect()
}
