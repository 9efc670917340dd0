//! Cross-patch preprocess memoization: the `PreprocCache`.
//!
//! The `check` hot path preprocesses the same kernel headers under the
//! same macro environment thousands of times per run — every trial of
//! every patch expands the same include closures. `jmake-cpp` exposes the
//! mechanism ([`jmake_cpp::memo`]): record the complete effect of one
//! header inclusion, replay it when an identical inclusion recurs. This
//! module supplies the policy:
//!
//! - [`PreprocCache`] — a [`Store`] of recorded
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

use crate::arch::ArchRegistry;
use crate::diskcache::{decode_preproc_entry, encode_preproc_entry};
use crate::hash::Fnv;
use crate::intern::{ArchId, PathId};
use crate::objcache::include_fingerprint;
use crate::store::{Entry, Store, StoreStats};
use crate::tree::SourceTree;
use jmake_cpp::{IncludeEffect, IncludeKey, IncludeMemo};
use jmake_faults::Faults;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Overflow bound for the closure-fingerprint memo. Epoch keys are dead
/// once their tree is dropped (~2 trees per patch), so the memo is
/// cleared wholesale when it outgrows this — correctness never depends
/// on retention.
const CLOSURE_CAP: usize = 1 << 17;

impl Entry for IncludeEffect {
    type Key = IncludeKey;
    const SECTION: &'static str = "preproc";
    const MAGIC: &'static str = "jmake-cache v1 preproc";

    fn shard_bits(key: &IncludeKey) -> u64 {
        key.closure_fp ^ key.macro_fp
    }

    fn key_digest(key: &IncludeKey) -> u64 {
        let mut h = Fnv::new();
        h.write(key.path.as_bytes());
        h.write(&[0]);
        h.write(&key.closure_fp.to_le_bytes());
        h.write(&key.macro_fp.to_le_bytes());
        h.write(&key.pragma_fp.to_le_bytes());
        h.write(&key.depth.to_le_bytes());
        h.finish()
    }

    fn encode(key: &IncludeKey, effect: &Self) -> Vec<u8> {
        encode_preproc_entry(key, effect)
    }

    fn decode(payload: &[u8], _: &ArchRegistry) -> Result<(IncludeKey, Self), String> {
        decode_preproc_entry(payload)
    }
}

/// The [`Store`] of recorded header-inclusion effects, shared across the
/// build engines of a run (and persisted by the disk tier between runs),
/// plus the closure-fingerprint memo. Dereferences to the store.
#[derive(Debug, Default)]
pub struct PreprocCache {
    effects: Store<IncludeEffect>,
    closure: RwLock<HashMap<(u64, ArchId, PathId), Option<u64>>>,
    closure_hits: AtomicU64,
    closure_misses: AtomicU64,
}

impl Deref for PreprocCache {
    type Target = Store<IncludeEffect>;

    fn deref(&self) -> &Store<IncludeEffect> {
        &self.effects
    }
}

impl PreprocCache {
    /// An empty cache.
    pub fn new() -> Self {
        PreprocCache::default()
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

    /// Counters of the closure-fingerprint memo: walks answered from the
    /// memo (hits) and walks run (misses).
    pub fn closure_stats(&self) -> StoreStats {
        StoreStats {
            hits: self.closure_hits.load(Ordering::Relaxed),
            misses: self.closure_misses.load(Ordering::Relaxed),
            ..StoreStats::default()
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
        self.cache.lookup(key, &Faults::disabled()).entry()
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
    fn closure_fp_memoizes_by_epoch() {
        let mut tree = SourceTree::new();
        tree.insert("include/linux/k.h", "#define K 1\n");
        let cache = PreprocCache::new();
        let a = cache.closure_fp(&tree, "x86_64", "include/linux/k.h");
        let b = cache.closure_fp(&tree, "x86_64", "include/linux/k.h");
        assert_eq!(a, b);
        assert!(a.is_some());
        let stats = cache.closure_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // A clone shares the epoch; a mutation does not.
        let clone = tree.clone();
        cache.closure_fp(&clone, "x86_64", "include/linux/k.h");
        assert_eq!(cache.closure_stats().hits, 2);
        tree.insert("include/linux/k.h", "#define K 2\n");
        let c = cache.closure_fp(&tree, "x86_64", "include/linux/k.h");
        assert_ne!(a, c);
        assert_eq!(cache.closure_stats().misses, 2);
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
        assert_eq!(cache.closure_stats().hits, 1);
    }
}
