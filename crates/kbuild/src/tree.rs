//! The in-memory source tree.

use crate::hash::{ContentHash, Fnv};
use crate::makefile::Makefile;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Monotone counter behind [`SourceTree::epoch`]. Epochs are globally
/// unique across all trees in the process: two trees share an epoch only
/// when one is an unmutated clone of the other, so an epoch value is a
/// sound memoization key for any pure function of tree content.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// The `#include` directives of one file, pre-parsed for the
/// include-closure fingerprint walk (`objcache::include_fingerprint`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncludeScan {
    /// `(target, quoted)` per literal `#include "t"` / `#include <t>`
    /// line, in order.
    pub targets: Vec<(Box<str>, bool)>,
    /// The file contains a computed include, a malformed target, or
    /// `#include_next` — its closure cannot be fingerprinted lexically.
    pub uncacheable: bool,
}

/// The configuration variables one file mentions, pre-scanned for
/// architecture selection (`jmake_core::ArchSelector`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigScan {
    /// `X` for every `CONFIG_X` token, in first-occurrence order.
    pub refs: Vec<Box<str>>,
    /// Names on `config`, `menuconfig`, `depends on` and `select` lines,
    /// in first-occurrence order. They count as mentions only when the
    /// file is a Kconfig file, which its path (not its content) decides.
    pub kconfig: Vec<Box<str>>,
}

/// One file's content plus lazily-computed derived state.
///
/// Blobs always live behind `Arc` and are shared: between the version
/// store and every checkout, between a tree and its clones, and between a
/// patch's base and mutated trees. The derived state (content hash,
/// parsed makefile, include scan, `#include` lines, configuration-variable
/// scan) is therefore computed once per distinct content per process, no
/// matter how many trees or patches touch it.
pub struct Blob {
    text: Arc<str>,
    hash: OnceLock<ContentHash>,
    makefile: OnceLock<Arc<Makefile>>,
    includes: OnceLock<IncludeScan>,
    /// Byte ranges of the `#include` lines in `text`.
    include_lines: OnceLock<Box<[Range<usize>]>>,
    config_vars: OnceLock<ConfigScan>,
}

impl Blob {
    /// A blob over `text`; derived state is computed on demand.
    pub fn new(text: impl Into<Arc<str>>) -> Arc<Blob> {
        Arc::new(Blob {
            text: text.into(),
            hash: OnceLock::new(),
            makefile: OnceLock::new(),
            includes: OnceLock::new(),
            include_lines: OnceLock::new(),
            config_vars: OnceLock::new(),
        })
    }

    /// A blob whose content hash is already known (the version store
    /// hashes content to address it — no point hashing twice).
    pub fn with_hash(text: impl Into<Arc<str>>, hash: ContentHash) -> Arc<Blob> {
        let blob = Blob::new(text);
        let _ = blob.hash.set(hash);
        blob
    }

    /// The content.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The content as a shareable handle (for include resolution — the
    /// preprocessor holds file contents across calls without copying).
    pub fn shared_text(&self) -> Arc<str> {
        Arc::clone(&self.text)
    }

    /// Content length in bytes.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True when the content is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The content hash, computed once per blob.
    pub fn hash(&self) -> ContentHash {
        *self.hash.get_or_init(|| ContentHash::of(&self.text))
    }

    /// The blob parsed as a Kbuild makefile, once per blob.
    pub fn makefile(&self) -> &Arc<Makefile> {
        self.makefile
            .get_or_init(|| Arc::new(Makefile::parse(&self.text)))
    }

    /// The blob's `#include` scan, computed by `scan` once per blob.
    pub fn include_scan_with(&self, scan: impl FnOnce(&str) -> IncludeScan) -> &IncludeScan {
        self.includes.get_or_init(|| scan(&self.text))
    }

    /// Every line that starts with `#include` once leading whitespace is
    /// trimmed, trimmed that way, in order. The lines are found once per
    /// blob and kept as byte ranges into the content. Unlike
    /// [`Self::include_scan_with`] this is purely textual: it keeps lines
    /// after a computed include and skips `# include`, which is what the
    /// header-candidate ranking (`jmake_core`, paper §III.E) matches on.
    pub fn include_lines(&self) -> impl Iterator<Item = &str> {
        let spans = self.include_lines.get_or_init(|| {
            // Every line is a subslice of `text`, so its offset is the
            // distance between the two start pointers.
            let base = self.text.as_ptr() as usize;
            self.text
                .lines()
                .map(str::trim_start)
                .filter(|line| line.starts_with("#include"))
                .map(|line| {
                    let start = line.as_ptr() as usize - base;
                    start..start + line.len()
                })
                .collect()
        });
        spans.iter().map(|span| &self.text[span.clone()])
    }

    /// The blob's configuration-variable scan, computed by `scan` once
    /// per blob.
    pub fn config_scan_with(&self, scan: impl FnOnce(&str) -> ConfigScan) -> &ConfigScan {
        self.config_vars.get_or_init(|| scan(&self.text))
    }
}

impl std::fmt::Debug for Blob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blob")
            .field("len", &self.text.len())
            .field("hash", &self.hash.get())
            .finish()
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl Eq for Blob {}

/// Most entries one leaf holds; an insert that overflows a leaf splits it
/// in half. A write to a shared leaf copies it, so the cap bounds that
/// copy (64 path/blob pointer pairs, about a kilobyte), while a
/// 2,433-file tree still fits in a root array of under a hundred leaves.
const LEAF_CAP: usize = 64;

/// One file of a tree: its path and its shared content.
type Entry = (Arc<str>, Arc<Blob>);

/// A run of consecutive entries in path order. Every tree that has not
/// written to a leaf shares it by pointer.
type Leaf = Arc<Vec<Entry>>;

/// A kernel source tree held entirely in memory, path → content.
///
/// Paths are `/`-separated and relative to the tree root
/// (`drivers/net/e1000.c`). The paper's evaluation kept 25 clones of the
/// kernel tree in a tmpfs for the same reason: eliminate disk access.
///
/// The tree is persistent: a root array of sorted leaves, each holding at
/// most 64 entries, all behind `Arc`. `clone` copies one pointer. A write
/// copies the root's pointer array and the one leaf it lands in when
/// another tree still shares them, so a tree derived from another by `k`
/// edits costs `O(k)` leaves and shares the rest — which is what lets
/// [`SourceTree::diff`] skip everything two trees share.
#[derive(Clone)]
pub struct SourceTree {
    /// Non-empty leaves in path order: every path in leaf `i` sorts
    /// before every path in leaf `i + 1`.
    leaves: Arc<Vec<Leaf>>,
    len: usize,
    bytes: u64,
    config_digest: u64,
    epoch: u64,
}

/// One path whose content differs between two trees, as reported by
/// [`SourceTree::diff`].
#[derive(Debug, Clone, Copy)]
pub struct TreeChange<'a> {
    /// The path.
    pub path: &'a Arc<str>,
    /// Its blob in the old tree; `None` when the new tree created it.
    pub old: Option<&'a Arc<Blob>>,
    /// Its blob in the new tree; `None` when the new tree deleted it.
    pub new: Option<&'a Arc<Blob>>,
}

impl SourceTree {
    /// An empty tree.
    pub fn new() -> Self {
        SourceTree {
            leaves: Arc::new(Vec::new()),
            len: 0,
            bytes: 0,
            config_digest: 0,
            epoch: next_epoch(),
        }
    }

    /// Where `path` is or would go: the leaf to search (the last leaf
    /// whose first path sorts at or before `path`, else leaf 0) and the
    /// binary-search result within it. `None` for an empty tree.
    fn locate(&self, path: &str) -> Option<(usize, Result<usize, usize>)> {
        if self.leaves.is_empty() {
            return None;
        }
        let li = self
            .leaves
            .partition_point(|leaf| &*leaf[0].0 <= path)
            .saturating_sub(1);
        Some((
            li,
            self.leaves[li].binary_search_by(|(p, _)| (**p).cmp(path)),
        ))
    }

    fn entry(&self, path: &str) -> Option<&Entry> {
        match self.locate(path)? {
            (li, Ok(i)) => Some(&self.leaves[li][i]),
            _ => None,
        }
    }

    /// The position of the first entry whose path sorts at or after
    /// `key`, as (leaf, index); `(leaves, 0)` when there is none.
    fn lower_bound(&self, key: &str) -> (usize, usize) {
        let li = self.leaves.partition_point(|leaf| &*leaf[0].0 < key);
        if li > 0 {
            let prev = &self.leaves[li - 1];
            let i = prev.partition_point(|(p, _)| &**p < key);
            if i < prev.len() {
                return (li - 1, i);
            }
        }
        (li, 0)
    }

    /// Insert or replace a file.
    pub fn insert(&mut self, path: impl Into<String>, content: impl Into<String>) {
        let content: String = content.into();
        self.insert_blob(Arc::from(path.into()), Blob::new(content));
    }

    /// Insert or replace a file as a pre-built (possibly shared) blob.
    pub fn insert_blob(&mut self, path: Arc<str>, blob: Arc<Blob>) {
        self.bytes += blob.len() as u64;
        self.config_digest = self.config_digest.wrapping_add(config_term(&path, &blob));
        self.epoch = next_epoch();
        let Some((li, found)) = self.locate(&path) else {
            Arc::make_mut(&mut self.leaves).push(Arc::new(vec![(path, blob)]));
            self.len = 1;
            return;
        };
        let leaves = Arc::make_mut(&mut self.leaves);
        let leaf = Arc::make_mut(&mut leaves[li]);
        match found {
            Ok(i) => {
                let old = std::mem::replace(&mut leaf[i].1, blob);
                self.bytes -= old.len() as u64;
                self.config_digest = self.config_digest.wrapping_sub(config_term(&path, &old));
            }
            Err(i) => {
                leaf.insert(i, (path, blob));
                self.len += 1;
                if leaf.len() > LEAF_CAP {
                    let right = leaf.split_off(leaf.len() / 2);
                    leaves.insert(li + 1, Arc::new(right));
                }
            }
        }
    }

    /// Remove a file; returns its content if present.
    pub fn remove(&mut self, path: &str) -> Option<String> {
        let (li, Ok(i)) = self.locate(path)? else {
            return None;
        };
        let leaves = Arc::make_mut(&mut self.leaves);
        let leaf = Arc::make_mut(&mut leaves[li]);
        let (path, old) = leaf.remove(i);
        if leaf.is_empty() {
            leaves.remove(li);
        }
        self.len -= 1;
        self.bytes -= old.len() as u64;
        self.config_digest = self.config_digest.wrapping_sub(config_term(&path, &old));
        self.epoch = next_epoch();
        Some(old.text().to_string())
    }

    /// Content of `path`.
    pub fn get(&self, path: &str) -> Option<&str> {
        self.entry(path).map(|(_, b)| b.text())
    }

    /// The blob of `path`.
    pub fn get_blob(&self, path: &str) -> Option<&Arc<Blob>> {
        self.entry(path).map(|(_, b)| b)
    }

    /// True when `path` exists.
    pub fn contains(&self, path: &str) -> bool {
        self.entry(path).is_some()
    }

    /// Iterate over `(path, content)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.iter_blobs().map(|(p, b)| (&**p, b.text()))
    }

    /// Iterate over `(path, blob)` in path order.
    pub fn iter_blobs(&self) -> impl Iterator<Item = (&Arc<str>, &Arc<Blob>)> {
        self.leaves
            .iter()
            .flat_map(|leaf| leaf.iter().map(|(p, b)| (p, b)))
    }

    /// Iterate over `(path, blob)` under `prefix` (a directory path
    /// without a trailing slash, or `""` for the whole tree), in path
    /// order. A range walk: it touches only the entries it yields.
    pub fn blobs_under<'a>(
        &'a self,
        prefix: &str,
    ) -> impl Iterator<Item = (&'a Arc<str>, &'a Arc<Blob>)> + 'a {
        let dir = if prefix.is_empty() {
            String::new()
        } else {
            format!("{prefix}/")
        };
        let (li, start) = self.lower_bound(&dir);
        self.leaves[li..]
            .iter()
            .enumerate()
            .flat_map(move |(k, leaf)| leaf[if k == 0 { start } else { 0 }..].iter())
            .take_while(move |(p, _)| p.starts_with(dir.as_str()))
            .map(|(p, b)| (p, b))
    }

    /// Iterate over paths under `prefix` (a directory path without a
    /// trailing slash, or `""` for the whole tree).
    pub fn files_under<'a>(&'a self, prefix: &str) -> impl Iterator<Item = &'a str> + 'a {
        self.blobs_under(prefix).map(|(p, _)| &**p)
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree has no files.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bytes of content — the virtual clock's whole-kernel compile
    /// cost scales with this. Maintained incrementally, O(1).
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Digest of everything configuration solving reads: every file
    /// whose name mentions `Kconfig` and every prepared configuration
    /// under `arch/*/configs/`, with its content. An order-independent
    /// sum of one mixed hash of (path, content hash) per such file,
    /// maintained by `insert_blob` and `remove` like
    /// [`SourceTree::total_bytes`], so reading it is O(1). Equal trees
    /// have equal digests whatever order their files were inserted in.
    ///
    /// Trees with equal digests solve to identical configurations for
    /// every `(arch, kind)`, so the digest keys the shared
    /// [`ConfigCache`](crate::ConfigCache) across patches that do not
    /// touch those files.
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// Paths of every file, in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.iter_blobs().map(|(p, _)| &**p)
    }

    /// The tree's content epoch: globally unique per mutation, copied by
    /// `clone`. Equal epochs imply byte-identical content, so pure
    /// functions of tree content may memoize on `(epoch, …)` keys.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every path whose content differs between `self` (the old tree)
    /// and `new`, in path order. Two blobs count as equal when they are
    /// the same `Arc` or have the same content hash. Leaves the two
    /// trees share by pointer are skipped whole, so diffing a tree
    /// against one derived from it by `k` edits costs `O(k)` leaves plus
    /// one pass over the root arrays.
    pub fn diff<'a>(&'a self, new: &'a SourceTree) -> Vec<TreeChange<'a>> {
        let mut out = Vec::new();
        if Arc::ptr_eq(&self.leaves, &new.leaves) {
            return out;
        }
        let (mut a, mut b) = (Cursor::new(&self.leaves), Cursor::new(&new.leaves));
        loop {
            while let (Some(x), Some(y)) = (a.leaf_start(), b.leaf_start()) {
                if !Arc::ptr_eq(x, y) {
                    break;
                }
                a.leaf += 1;
                b.leaf += 1;
            }
            let (path, old, new) = match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some((p, x)), None) => {
                    a.advance();
                    (p, Some(x), None)
                }
                (None, Some((p, y))) => {
                    b.advance();
                    (p, None, Some(y))
                }
                (Some((pa, x)), Some((pb, y))) => match pa.cmp(pb) {
                    std::cmp::Ordering::Less => {
                        a.advance();
                        (pa, Some(x), None)
                    }
                    std::cmp::Ordering::Greater => {
                        b.advance();
                        (pb, None, Some(y))
                    }
                    std::cmp::Ordering::Equal => {
                        a.advance();
                        b.advance();
                        if Arc::ptr_eq(x, y) || x.hash() == y.hash() {
                            continue;
                        }
                        (pb, Some(x), Some(y))
                    }
                },
            };
            out.push(TreeChange { path, old, new });
        }
        out
    }
}

/// A position in a tree's leaves, for [`SourceTree::diff`].
struct Cursor<'a> {
    leaves: &'a [Leaf],
    leaf: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(leaves: &'a [Leaf]) -> Self {
        Cursor {
            leaves,
            leaf: 0,
            pos: 0,
        }
    }

    /// The current leaf when the cursor sits on its first entry.
    fn leaf_start(&self) -> Option<&'a Leaf> {
        if self.pos == 0 {
            self.leaves.get(self.leaf)
        } else {
            None
        }
    }

    fn peek(&self) -> Option<&'a Entry> {
        self.leaves.get(self.leaf).map(|leaf| &leaf[self.pos])
    }

    fn advance(&mut self) {
        self.pos += 1;
        if self.pos == self.leaves[self.leaf].len() {
            self.leaf += 1;
            self.pos = 0;
        }
    }
}

/// True for the paths configuration solving reads: every file whose name
/// mentions `Kconfig` (the top-level and per-arch files plus everything
/// `source` directives chase, which kernel convention names `Kconfig*`),
/// and every prepared configuration under `arch/*/configs/`.
pub(crate) fn feeds_config(path: &str) -> bool {
    file_name(path).contains("Kconfig") || (path.starts_with("arch/") && path.contains("/configs/"))
}

/// One entry's share of [`SourceTree::config_digest`]: zero unless
/// [`feeds_config`] selects the path, else a well-mixed hash of the path
/// and the blob's (memoized) content hash.
fn config_term(path: &str, blob: &Blob) -> u64 {
    if !feeds_config(path) {
        return 0;
    }
    let content = blob.hash();
    let mut h = Fnv::new();
    h.write(path.as_bytes());
    h.write(&[0]);
    h.write(&content.hi().to_le_bytes());
    h.write(&content.lo().to_le_bytes());
    // The splitmix64 finalizer: FNV's low bits mix poorly, and the
    // digest adds terms, so each term must be uniform on its own.
    let mut x = h.finish();
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl std::fmt::Debug for SourceTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter_blobs()).finish()
    }
}

impl Default for SourceTree {
    fn default() -> Self {
        SourceTree::new()
    }
}

impl PartialEq for SourceTree {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.leaves, &other.leaves)
            || self.len == other.len
                && self
                    .iter_blobs()
                    .zip(other.iter_blobs())
                    .all(|((pa, ba), (pb, bb))| pa == pb && (Arc::ptr_eq(ba, bb) || ba == bb))
    }
}

impl Eq for SourceTree {}

impl FromIterator<(String, String)> for SourceTree {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Self {
        let mut tree = SourceTree::new();
        tree.extend(iter);
        tree
    }
}

impl Extend<(String, String)> for SourceTree {
    fn extend<T: IntoIterator<Item = (String, String)>>(&mut self, iter: T) {
        for (p, c) in iter {
            self.insert(p, c);
        }
    }
}

/// The directory part of a path (`""` for top-level files).
pub fn dir_of(path: &str) -> &str {
    path.rsplit_once('/').map(|(d, _)| d).unwrap_or("")
}

/// The file-name part of a path.
pub fn file_name(path: &str) -> &str {
    path.rsplit_once('/').map(|(_, f)| f).unwrap_or(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert("Makefile", "obj-y += drivers/\n");
        t.insert("drivers/net/a.c", "int a;\n");
        t.insert("drivers/net/ab.c", "int ab;\n");
        t.insert("drivers/nvme/b.c", "int b;\n");
        t
    }

    #[test]
    fn include_lines_are_the_trimmed_include_directives() {
        let blob = Blob::new(
            "#include <a.h>\n  #include \"b.h\"\n# include <c.h>\n#include HDR\n\
             #include <d.h>\r\nint x; /* #include <e.h> */\n\t#include_next <f.h>\n",
        );
        let lines: Vec<&str> = blob.include_lines().collect();
        // Textual, unlike the include scan: a computed include does not
        // stop it, `# include` is not an `#include` line, and
        // `#include_next` is.
        assert_eq!(
            lines,
            [
                "#include <a.h>",
                "#include \"b.h\"",
                "#include HDR",
                "#include <d.h>",
                "#include_next <f.h>",
            ]
        );
        assert_eq!(blob.include_lines().collect::<Vec<_>>(), lines, "memoized");
    }

    #[test]
    fn insert_get_remove() {
        let mut t = sample();
        assert_eq!(t.get("drivers/net/a.c"), Some("int a;\n"));
        assert!(t.contains("Makefile"));
        assert_eq!(t.remove("Makefile"), Some("obj-y += drivers/\n".into()));
        assert!(!t.contains("Makefile"));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn files_under_respects_boundaries() {
        let t = sample();
        let under: Vec<&str> = t.files_under("drivers/net").collect();
        assert_eq!(under, vec!["drivers/net/a.c", "drivers/net/ab.c"]);
        // "drivers/n" is not a directory prefix of drivers/net.
        assert_eq!(t.files_under("drivers/n").count(), 0);
        assert_eq!(t.files_under("").count(), 4);
    }

    #[test]
    fn total_bytes_sums_content() {
        let t = sample();
        assert_eq!(
            t.total_bytes(),
            t.iter().map(|(_, c)| c.len() as u64).sum::<u64>()
        );
        let mut t = t;
        t.insert("drivers/net/a.c", "int aa;\n"); // replace: 7 -> 8 bytes
        assert_eq!(
            t.total_bytes(),
            t.iter().map(|(_, c)| c.len() as u64).sum::<u64>()
        );
        t.remove("drivers/nvme/b.c");
        assert_eq!(
            t.total_bytes(),
            t.iter().map(|(_, c)| c.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn path_helpers() {
        assert_eq!(dir_of("a/b/c.c"), "a/b");
        assert_eq!(dir_of("top.c"), "");
        assert_eq!(file_name("a/b/c.c"), "c.c");
        assert_eq!(file_name("top.c"), "top.c");
    }

    #[test]
    fn clone_shares_blobs_and_epoch() {
        let t = sample();
        let u = t.clone();
        assert_eq!(t.epoch(), u.epoch());
        assert_eq!(t, u);
        let (_, a) = t.iter_blobs().next().unwrap();
        let (_, b) = u.iter_blobs().next().unwrap();
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn mutation_changes_epoch() {
        let t = sample();
        let mut u = t.clone();
        u.insert("drivers/net/a.c", "int mutated;\n");
        assert_ne!(t.epoch(), u.epoch());
        assert_ne!(t, u);
        // The untouched files are still shared.
        assert!(Arc::ptr_eq(
            t.get_blob("Makefile").unwrap(),
            u.get_blob("Makefile").unwrap()
        ));
    }

    #[test]
    fn blob_hash_is_content_hash() {
        let t = sample();
        let blob = t.get_blob("drivers/net/a.c").unwrap();
        assert_eq!(blob.hash(), ContentHash::of("int a;\n"));
        // with_hash trusts the caller.
        let b = Blob::with_hash("xyz", ContentHash::of("xyz"));
        assert_eq!(b.hash(), ContentHash::of("xyz"));
    }

    #[test]
    fn blob_makefile_parses_once() {
        let t = sample();
        let blob = t.get_blob("Makefile").unwrap();
        let a = Arc::as_ptr(blob.makefile());
        let b = Arc::as_ptr(blob.makefile());
        assert_eq!(a, b);
        assert_eq!(blob.makefile().objs.len(), 1);
    }

    #[test]
    fn diff_reports_each_changed_path_in_order() {
        let old = sample();
        let mut new = old.clone();
        new.insert("drivers/net/ab.c", "int ab2;\n");
        new.insert("drivers/net/new.c", "int n;\n");
        new.remove("Makefile");
        // The same content as a fresh blob is not a change.
        new.insert("drivers/nvme/b.c", "int b;\n");
        let changes: Vec<(&str, bool, bool)> = old
            .diff(&new)
            .iter()
            .map(|c| (&**c.path, c.old.is_some(), c.new.is_some()))
            .collect();
        assert_eq!(
            changes,
            vec![
                ("Makefile", true, false),
                ("drivers/net/ab.c", true, true),
                ("drivers/net/new.c", false, true),
            ]
        );
        assert!(old.diff(&old.clone()).is_empty());
    }

    #[test]
    fn diff_skips_shared_leaves_of_a_wide_tree() {
        let mut old = SourceTree::new();
        for i in 0..1000 {
            old.insert(format!("d{:02}/f{i:04}.c", i % 37), format!("int v{i};\n"));
        }
        let mut new = old.clone();
        new.insert("d05/f0005.c", "int changed;\n");
        new.insert("d36/zz.c", "int created;\n");
        let paths: Vec<String> = old.diff(&new).iter().map(|c| c.path.to_string()).collect();
        assert_eq!(paths, vec!["d05/f0005.c", "d36/zz.c"]);
        // Every leaf but the two written ones is still shared.
        let shared = old
            .leaves
            .iter()
            .filter(|l| new.leaves.iter().any(|m| Arc::ptr_eq(l, m)))
            .count();
        assert!(old.leaves.len() > 10, "{} leaves", old.leaves.len());
        assert!(
            shared >= old.leaves.len() - 2,
            "{shared} of {}",
            old.leaves.len()
        );
    }

    #[test]
    fn config_digest_tracks_only_config_inputs() {
        let mut t = sample();
        assert_eq!(t.config_digest(), 0);
        t.insert("Kconfig", "config NET\n\tbool\n");
        let with_kconfig = t.config_digest();
        assert_ne!(with_kconfig, 0);
        t.insert("drivers/net/a.c", "int a2;\n");
        assert_eq!(t.config_digest(), with_kconfig);
        t.insert("arch/arm/configs/x_defconfig", "CONFIG_NET=y\n");
        assert_ne!(t.config_digest(), with_kconfig);
        t.remove("arch/arm/configs/x_defconfig");
        assert_eq!(t.config_digest(), with_kconfig);
        assert!(feeds_config("drivers/net/Kconfig.debug"));
        assert!(!feeds_config("configs/arm/x_defconfig"));
        assert!(!feeds_config("Kconfig.d/readme"));
    }
}
