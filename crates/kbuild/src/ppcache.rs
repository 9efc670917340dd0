//! Cross-patch preprocess memoization: the `PreprocCache`.
//!
//! The `check` hot path preprocesses the same kernel headers under the
//! same macro environment thousands of times per run — every trial of
//! every patch expands the same include closures. `jmake-cpp` exposes the
//! mechanism ([`jmake_cpp::memo`]): record the complete effect of one
//! header inclusion, replay it when an identical inclusion recurs. This
//! module supplies the policy and storage:
//!
//! - [`PreprocCache`] — a sharded, content-addressed store of
//!   [`IncludeEffect`]s keyed by [`IncludeKey`] (header path, include-
//!   closure fingerprint, macro-environment fingerprint, pragma-once
//!   fingerprint, nesting depth). The key discipline is the object
//!   cache's: fingerprints pin content, so entries are shared across
//!   patches, workers, and trees — a patch touching a header changes the
//!   closure fingerprint and misses.
//! - a closure-fingerprint memo keyed `(tree epoch, arch, header)`. Tree
//!   epochs are globally unique per mutation and copied by `clone`, so
//!   equal epochs imply identical content and the walk in
//!   [`include_fingerprint`] runs once per (tree, arch, header) instead
//!   of once per inclusion.
//! - [`TreeMemo`] — the [`IncludeMemo`] adapter the build engine attaches
//!   to its preprocessor, binding a tree + architecture to the shared
//!   cache.
//!
//! Like every other host-side cache in this workspace, hits never touch
//! the virtual clock: `make_i`/`make_o` charge per invocation above this
//! layer, so reports, Fig. 4 streams, and virtual-µs totals are
//! byte-identical with the cache on or off.

use crate::intern::{ArchId, PathId};
use crate::objcache::include_fingerprint;
use crate::tree::SourceTree;
use jmake_cpp::{IncludeEffect, IncludeKey, IncludeMemo};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of independent lock shards, mirroring the other caches.
const SHARDS: usize = 16;

/// Overflow bound for the closure-fingerprint memo. Epoch keys are dead
/// once their tree is dropped (~2 trees per patch), so the memo is
/// cleared wholesale when it outgrows this — correctness never depends
/// on retention.
const CLOSURE_CAP: usize = 1 << 17;

/// Aggregate preprocess-cache counters, cheap to copy into driver stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocCacheStats {
    /// Inclusions replayed from a recorded effect.
    pub hits: u64,
    /// Inclusions processed live (and usually recorded).
    pub misses: u64,
    /// Distinct effects currently held.
    pub entries: u64,
    /// Closure fingerprints answered from the epoch memo.
    pub closure_hits: u64,
    /// Closure fingerprints computed by walking the tree.
    pub closure_misses: u64,
}

impl PreprocCacheStats {
    /// Fraction of inclusions served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe store of recorded header-inclusion effects, shared
/// across the build engines of an evaluation run (and persisted by the
/// disk tier between runs).
#[derive(Debug, Default)]
pub struct PreprocCache {
    shards: [RwLock<HashMap<IncludeKey, Arc<IncludeEffect>>>; SHARDS],
    closure: RwLock<HashMap<(u64, ArchId, PathId), Option<u64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    closure_hits: AtomicU64,
    closure_misses: AtomicU64,
}

impl PreprocCache {
    /// An empty cache.
    pub fn new() -> Self {
        PreprocCache::default()
    }

    fn shard_index(key: &IncludeKey) -> usize {
        (key.closure_fp ^ key.macro_fp) as usize % SHARDS
    }

    /// Look up a recorded effect; counts a hit or a miss.
    pub fn lookup(&self, key: &IncludeKey) -> Option<Arc<IncludeEffect>> {
        let found = self.shards[Self::shard_index(key)]
            .read()
            .expect("preproc cache shard poisoned")
            .get(key)
            .map(Arc::clone);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store an effect. The first writer wins a race; identical later
    /// recordings are dropped.
    pub fn insert(&self, key: IncludeKey, effect: Arc<IncludeEffect>) {
        self.shards[Self::shard_index(&key)]
            .write()
            .expect("preproc cache shard poisoned")
            .entry(key)
            .or_insert(effect);
    }

    /// The include-closure fingerprint of `(tree, arch, path)`, memoized
    /// by tree epoch (equal epochs imply identical trees, so the walk
    /// runs once per distinct tree rather than once per inclusion).
    pub fn closure_fp(&self, tree: &SourceTree, arch: &'static str, path: &str) -> Option<u64> {
        let key = (tree.epoch(), ArchId::intern(arch), PathId::intern(path));
        if let Some(fp) = self
            .closure
            .read()
            .expect("closure memo poisoned")
            .get(&key)
        {
            self.closure_hits.fetch_add(1, Ordering::Relaxed);
            return *fp;
        }
        self.closure_misses.fetch_add(1, Ordering::Relaxed);
        let fp = include_fingerprint(tree, arch, path);
        let mut memo = self.closure.write().expect("closure memo poisoned");
        if memo.len() >= CLOSURE_CAP {
            memo.clear();
        }
        memo.insert(key, fp);
        fp
    }

    /// Number of distinct effects held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("preproc cache shard poisoned").len())
            .sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry currently held, in unspecified order (the disk tier
    /// persists the cache at the end of a run).
    pub fn snapshot(&self) -> Vec<(IncludeKey, Arc<IncludeEffect>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().expect("preproc cache shard poisoned");
            out.extend(shard.iter().map(|(k, e)| (k.clone(), Arc::clone(e))));
        }
        out
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PreprocCacheStats {
        PreprocCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
            closure_hits: self.closure_hits.load(Ordering::Relaxed),
            closure_misses: self.closure_misses.load(Ordering::Relaxed),
        }
    }
}

/// [`IncludeMemo`] adapter binding one (tree, architecture) pair to a
/// shared [`PreprocCache`]. Cloning the tree copies one pointer and pins
/// the epoch the closure memo keys on.
pub struct TreeMemo {
    tree: SourceTree,
    arch: &'static str,
    cache: Arc<PreprocCache>,
}

impl TreeMemo {
    /// An adapter over `tree` for `arch`, storing into `cache`.
    pub fn new(tree: SourceTree, arch: &'static str, cache: Arc<PreprocCache>) -> Self {
        TreeMemo { tree, arch, cache }
    }
}

impl IncludeMemo for TreeMemo {
    fn closure_fp(&self, canon_path: &str) -> Option<u64> {
        self.cache.closure_fp(&self.tree, self.arch, canon_path)
    }

    fn lookup(&self, key: &IncludeKey) -> Option<Arc<IncludeEffect>> {
        self.cache.lookup(key)
    }

    fn insert(&self, key: IncludeKey, effect: Arc<IncludeEffect>) {
        self.cache.insert(key, effect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(closure_fp: u64) -> IncludeKey {
        IncludeKey {
            path: "include/linux/k.h".to_string(),
            closure_fp,
            macro_fp: 7,
            pragma_fp: 0,
            depth: 1,
        }
    }

    #[test]
    fn lookup_insert_and_counters() {
        let cache = PreprocCache::new();
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), Arc::new(IncludeEffect::default()));
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(2)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn first_insert_wins() {
        let cache = PreprocCache::new();
        let first = Arc::new(IncludeEffect {
            chunk: "first".to_string(),
            ..IncludeEffect::default()
        });
        cache.insert(key(1), Arc::clone(&first));
        cache.insert(
            key(1),
            Arc::new(IncludeEffect {
                chunk: "second".to_string(),
                ..IncludeEffect::default()
            }),
        );
        assert_eq!(cache.lookup(&key(1)).unwrap().chunk, "first");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn closure_fp_memoizes_by_epoch() {
        let mut tree = SourceTree::new();
        tree.insert("include/linux/k.h", "#define K 1\n");
        let cache = PreprocCache::new();
        let a = cache.closure_fp(&tree, "x86_64", "include/linux/k.h");
        let b = cache.closure_fp(&tree, "x86_64", "include/linux/k.h");
        assert_eq!(a, b);
        assert!(a.is_some());
        let stats = cache.stats();
        assert_eq!((stats.closure_hits, stats.closure_misses), (1, 1));

        // A clone shares the epoch; a mutation does not.
        let clone = tree.clone();
        cache.closure_fp(&clone, "x86_64", "include/linux/k.h");
        assert_eq!(cache.stats().closure_hits, 2);
        tree.insert("include/linux/k.h", "#define K 2\n");
        let c = cache.closure_fp(&tree, "x86_64", "include/linux/k.h");
        assert_ne!(a, c);
        assert_eq!(cache.stats().closure_misses, 2);
    }

    #[test]
    fn tree_memo_adapts_the_cache() {
        let mut tree = SourceTree::new();
        tree.insert("include/linux/k.h", "#define K 1\n");
        let cache = Arc::new(PreprocCache::new());
        let memo = TreeMemo::new(tree, "x86_64", Arc::clone(&cache));
        let fp = memo.closure_fp("include/linux/k.h").unwrap();
        let k = key(fp);
        assert!(memo.lookup(&k).is_none());
        memo.insert(k.clone(), Arc::new(IncludeEffect::default()));
        assert!(memo.lookup(&k).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn computed_includes_are_unfingerprintable() {
        let mut tree = SourceTree::new();
        tree.insert("include/h.h", "#include TARGET\n");
        let cache = PreprocCache::new();
        assert!(cache.closure_fp(&tree, "x86_64", "include/h.h").is_none());
        // The None answer is memoized too.
        assert!(cache.closure_fp(&tree, "x86_64", "include/h.h").is_none());
        assert_eq!(cache.stats().closure_hits, 1);
    }
}
