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
//! - [`TreeMemo`] — the [`IncludeMemo`] adapter the build engine attaches
//!   to its preprocessor, binding a tree + architecture to the shared
//!   cache. Closure fingerprints are computed by [`include_fingerprint`]
//!   on each inclusion, as the object cache's keys are.
//!
//! Like every other host-side cache in this workspace, hits never touch
//! the virtual clock: `make_i`/`make_o` charge per invocation above this
//! layer, so reports, Fig. 4 streams, and virtual-µs totals are
//! byte-identical with the cache on or off.

use crate::arch::ArchRegistry;
use crate::diskcache::{decode_preproc_entry, encode_preproc_entry};
use crate::hash::Fnv;
use crate::objcache::include_fingerprint;
use crate::store::{Entry, Store};
use crate::tree::SourceTree;
use jmake_cpp::{IncludeEffect, IncludeKey, IncludeMemo};
use jmake_faults::Faults;
use std::sync::Arc;

/// The [`Store`] of recorded header-inclusion effects, shared across the
/// build engines of a run (and persisted by the disk tier between runs).
pub type PreprocCache = Store<IncludeEffect>;

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

/// [`IncludeMemo`] adapter binding one (tree, architecture) pair to a
/// shared [`PreprocCache`]. Cloning the tree copies one pointer.
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
        include_fingerprint(&self.tree, self.arch, canon_path)
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
        let memo = TreeMemo::new(tree, "x86_64", Arc::new(PreprocCache::new()));
        assert!(memo.closure_fp("include/h.h").is_none());
    }
}
