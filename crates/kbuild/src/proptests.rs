//! Property tests over the persistent tree.
//!
//! [`SourceTree`] is checked against a `BTreeMap<String, String>` model
//! under random scripts of inserts, replacements, same-content
//! re-inserts and removals, over paths chosen to hit the ordering edge
//! cases of a path-sorted map (`a/b` < `a/b-x/f` < `a/b.c` < `a/b/g`),
//! and with enough files to split leaves.

use crate::tree::{Blob, SourceTree};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Paths every script draws from often: a file and a directory sharing a
/// name (`a/b`, `a/b/g`), the two siblings that sort between them, and
/// two files the config digest covers.
const EDGE_PATHS: [&str; 6] = [
    "a/b",
    "a/b.c",
    "a/b-x/f",
    "a/b/g",
    "Kconfig",
    "a/Kconfig.debug",
];

/// Directories of the generated paths; `arch/x/configs` feeds the config
/// digest.
const DIRS: [&str; 7] = ["a", "a/b", "a/b-x", "a/b.c", "a-b", "ab", "arch/x/configs"];

/// Prefixes `files_under` is checked at, including non-directories and
/// absent ones.
const PREFIXES: [&str; 10] = [
    "", "a", "a/b", "a/b-x", "a/b.c", "a/b/g", "ab", "arch", "arch/x", "zz",
];

type Model = BTreeMap<String, String>;

fn path() -> impl Strategy<Value = String> {
    (0usize..16, 0usize..DIRS.len(), "[a-z]{1,2}").prop_map(|(k, d, name)| {
        match EDGE_PATHS.get(k) {
            Some(edge) => edge.to_string(),
            None => format!("{}/{name}", DIRS[d]),
        }
    })
}

fn content() -> impl Strategy<Value = String> {
    "[a-z ]{0,10}"
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert `content` at `path`: a new file or a replacement.
    Insert(String, String),
    /// Replace the `n`-th existing file's content.
    Replace(usize, String),
    /// Re-insert the `n`-th existing file's content as a new `Arc`.
    Reinsert(usize),
    /// Remove `path`, present or not.
    Remove(String),
    /// Remove the `n`-th existing file.
    RemoveNth(usize),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..10, path(), content(), 0usize..4096).prop_map(|(k, path, content, n)| match k {
        0..=3 => Op::Insert(path, content),
        4 | 5 => Op::Replace(n, content),
        6 => Op::Reinsert(n),
        7 => Op::Remove(path),
        _ => Op::RemoveNth(n),
    })
}

fn script() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op(), 0..240)
}

fn initial() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((path(), content()), 0..160)
}

fn build(files: &[(String, String)]) -> (SourceTree, Model) {
    let mut tree = SourceTree::new();
    let mut model = Model::new();
    for (p, c) in files {
        tree.insert(p.clone(), c.clone());
        model.insert(p.clone(), c.clone());
    }
    (tree, model)
}

fn nth(model: &Model, n: usize) -> Option<String> {
    model.keys().nth(n % model.len().max(1)).cloned()
}

/// Apply `op` to both.
fn apply(tree: &mut SourceTree, model: &mut Model, op: &Op) {
    let (path, new) = match op {
        Op::Insert(p, c) => (Some(p.clone()), Some(c.clone())),
        Op::Replace(n, c) => (nth(model, *n), Some(c.clone())),
        Op::Reinsert(n) => {
            let p = nth(model, *n);
            let c = p.as_ref().map(|p| model[p].clone());
            (p, c)
        }
        Op::Remove(p) => (Some(p.clone()), None),
        Op::RemoveNth(n) => (nth(model, *n), None),
    };
    let Some(path) = path else {
        return;
    };
    match new {
        Some(c) => {
            tree.insert_blob(Arc::from(path.as_str()), Blob::new(c.clone()));
            model.insert(path, c);
        }
        None => prop_assert_eq!(&tree.remove(&path), &model.remove(&path)),
    }
}

fn assert_matches(tree: &SourceTree, model: &Model) {
    let got: Vec<(&str, &str)> = tree.iter().collect();
    let want: Vec<(&str, &str)> = model
        .iter()
        .map(|(p, c)| (p.as_str(), c.as_str()))
        .collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(tree.len(), model.len());
    prop_assert_eq!(tree.is_empty(), model.is_empty());
    prop_assert_eq!(
        tree.total_bytes(),
        model.values().map(|c| c.len() as u64).sum::<u64>()
    );
    for p in model
        .keys()
        .map(String::as_str)
        .chain(EDGE_PATHS)
        .chain(["", "a", "zz"])
    {
        prop_assert_eq!(tree.get(p), model.get(p).map(String::as_str), "get({})", p);
        prop_assert_eq!(tree.contains(p), model.contains_key(p));
    }
    for prefix in PREFIXES {
        let got: Vec<&str> = tree.files_under(prefix).collect();
        // The definition `files_under` had as a filter over every path.
        let want: Vec<&str> = model
            .keys()
            .map(String::as_str)
            .filter(|p| {
                prefix.is_empty() || p.strip_prefix(prefix).is_some_and(|r| r.starts_with('/'))
            })
            .collect();
        prop_assert_eq!(got, want, "files_under({:?})", prefix);
    }
    // The digest depends on content only: a tree built in the opposite
    // order agrees, and so does equality.
    let rebuilt: SourceTree = model
        .iter()
        .rev()
        .map(|(p, c)| (p.clone(), c.clone()))
        .collect();
    prop_assert_eq!(tree.config_digest(), rebuilt.config_digest());
    prop_assert!(*tree == rebuilt);
}

/// `(path, old content, new content)` for every path whose content
/// differs between two models.
fn model_diff(old: &Model, new: &Model) -> Vec<(String, Option<String>, Option<String>)> {
    let paths: std::collections::BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    paths
        .into_iter()
        .filter(|p| old.get(*p) != new.get(*p))
        .map(|p| (p.clone(), old.get(p).cloned(), new.get(p).cloned()))
        .collect()
}

fn tree_diff(old: &SourceTree, new: &SourceTree) -> Vec<(String, Option<String>, Option<String>)> {
    old.diff(new)
        .into_iter()
        .map(|c| {
            let text = |b: Option<&Arc<Blob>>| b.map(|b| b.text().to_string());
            (c.path.to_string(), text(c.old), text(c.new))
        })
        .collect()
}

proptest! {
    /// A scripted tree agrees with the model on iteration order, `get`,
    /// `len`, `total_bytes`, `files_under` and the config digest; a clone
    /// taken before the script is untouched by it; and `diff` reports
    /// exactly the model's changes.
    #[test]
    fn tree_matches_a_btreemap_model(files in initial(), ops in script()) {
        let (mut tree, mut model) = build(&files);
        assert_matches(&tree, &model);
        let (before, before_model) = (tree.clone(), model.clone());
        for op in &ops {
            apply(&mut tree, &mut model, op);
            prop_assert_eq!(tree.len(), model.len());
        }
        assert_matches(&tree, &model);
        assert_matches(&before, &before_model);
        prop_assert_eq!(tree_diff(&before, &tree), model_diff(&before_model, &model));
        prop_assert_eq!(tree_diff(&tree, &before), model_diff(&model, &before_model));
        prop_assert!(tree.diff(&tree.clone()).is_empty());
    }

    /// Two trees scripted apart from one base diff like their models —
    /// the diff must stay exact when neither side is the other's
    /// ancestor and their leaves split differently.
    #[test]
    fn sibling_trees_diff_like_their_models(files in initial(), left in script(), right in script()) {
        let (base, base_model) = build(&files);
        let (mut a, mut am) = (base.clone(), base_model.clone());
        let (mut b, mut bm) = (base, base_model);
        for op in &left {
            apply(&mut a, &mut am, op);
        }
        for op in &right {
            apply(&mut b, &mut bm, op);
        }
        prop_assert_eq!(tree_diff(&a, &b), model_diff(&am, &bm));
        prop_assert_eq!(a == b, am == bm);
    }
}
