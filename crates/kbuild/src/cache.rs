//! Cross-patch, content-addressed configuration cache.
//!
//! The paper's evaluation recreates every configuration per patch (§V.A:
//! each worker starts from a clean clone), which dominates wall-clock
//! time. Consecutive patches overwhelmingly share identical Kconfig and
//! defconfig sources, so the solved [`BuildConfig`] is identical too.
//! [`ConfigCache`] lets every [`BuildEngine`](crate::BuildEngine) in a
//! run share solved configurations — keyed by a fingerprint of the
//! tree's Kconfig/defconfig content, the architecture, and the
//! configuration kind — behind a sharded `RwLock` map.
//!
//! Sharing is a **host-side** optimization only: on a cache hit the
//! engine still charges the virtual clock the full configuration-creation
//! cost, so the paper's Figure 4a CDF (and every per-patch virtual time)
//! is bit-identical with or without the cache. Only real wall-clock
//! drops.

use crate::build::{BuildConfig, ConfigKey};
use crate::hash::Fnv;
use crate::tree::SourceTree;
use jmake_trace::CacheOutcome;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of independent lock shards; keys spread by fingerprint+kind
/// hash so concurrent workers on different architectures rarely contend.
const SHARDS: usize = 16;

/// Key of one cached configuration: (tree fingerprint, interned
/// `(arch, kind)` identity, custom-content fingerprint — zero for
/// non-custom kinds).
type Key = (u64, ConfigKey, u64);

/// Aggregate cache counters, cheap to copy into driver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to solve the configuration.
    pub misses: u64,
    /// Distinct configurations currently held.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, content-addressed store of solved [`BuildConfig`]s,
/// shared across the build engines of an evaluation run.
#[derive(Debug, Default)]
pub struct ConfigCache {
    shards: [RwLock<HashMap<Key, Arc<BuildConfig>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ConfigCache {
    /// An empty cache.
    pub fn new() -> Self {
        ConfigCache::default()
    }

    fn shard(&self, key: &Key) -> &RwLock<HashMap<Key, Arc<BuildConfig>>> {
        // The fingerprint is already a strong 64-bit hash; fold in the
        // kind key's length so AllYes/AllMod on one tree can land apart.
        let idx = (key.0 ^ key.1.kind_key().len() as u64) as usize % SHARDS;
        &self.shards[idx]
    }

    /// Look up a solved configuration; counts a hit or a miss. Under a
    /// concurrent miss-then-solve race both solvers count a miss — the
    /// counters describe lookups, not distinct solving work.
    pub fn get(
        &self,
        fingerprint: u64,
        key: &ConfigKey,
        content_fp: u64,
    ) -> Option<Arc<BuildConfig>> {
        self.lookup(fingerprint, key, content_fp).0
    }

    /// [`ConfigCache::get`] plus the [`CacheOutcome`] for tracing. The
    /// outcome is derived from the same lookup that bumps the counters, so
    /// per-span outcomes always sum to exactly [`CacheStats`]'s hits and
    /// misses.
    pub fn lookup(
        &self,
        fingerprint: u64,
        key: &ConfigKey,
        content_fp: u64,
    ) -> (Option<Arc<BuildConfig>>, CacheOutcome) {
        let found = self.read_entry(fingerprint, key, content_fp);
        let outcome = match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                CacheOutcome::Hit
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                CacheOutcome::Miss
            }
        };
        (found, outcome)
    }

    /// Look up without touching the hit/miss counters. The speculative
    /// cache-warming path uses this: its lookups are not part of the
    /// authoritative run, so they must not perturb [`CacheStats`] (which
    /// tracing reconciles per span, µs- and count-exact).
    pub fn peek(
        &self,
        fingerprint: u64,
        key: &ConfigKey,
        content_fp: u64,
    ) -> Option<Arc<BuildConfig>> {
        self.read_entry(fingerprint, key, content_fp)
    }

    fn read_entry(
        &self,
        fingerprint: u64,
        key: &ConfigKey,
        content_fp: u64,
    ) -> Option<Arc<BuildConfig>> {
        let key = (fingerprint, key.clone(), content_fp);
        self.shard(&key)
            .read()
            .expect("config cache shard poisoned")
            .get(&key)
            .cloned()
    }

    /// Store a solved configuration. The first writer wins a race; later
    /// identical solutions are dropped.
    pub fn insert(
        &self,
        fingerprint: u64,
        key: &ConfigKey,
        content_fp: u64,
        cfg: Arc<BuildConfig>,
    ) {
        let key = (fingerprint, key.clone(), content_fp);
        self.shard(&key)
            .write()
            .expect("config cache shard poisoned")
            .entry(key)
            .or_insert(cfg);
    }

    /// Number of distinct configurations held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("config cache shard poisoned").len())
            .sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry currently held — `(tree fingerprint, key,
    /// content fingerprint, configuration)` — in unspecified order. The
    /// disk tier uses this to persist the cache at the end of a run.
    pub fn snapshot(&self) -> Vec<(u64, ConfigKey, u64, Arc<BuildConfig>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().expect("config cache shard poisoned");
            out.extend(
                shard
                    .iter()
                    .map(|((fp, key, content_fp), cfg)| {
                        (*fp, key.clone(), *content_fp, Arc::clone(cfg))
                    }),
            );
        }
        out
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Content fingerprint of everything configuration solving reads
    /// from a tree: every path whose file name mentions `Kconfig`
    /// (the top-level and per-arch files plus everything `source`
    /// directives chase, which kernel convention names `Kconfig*`), and
    /// every prepared configuration under `arch/*/configs/`.
    ///
    /// Two trees with equal fingerprints solve to identical
    /// configurations for every `(arch, kind)`, so solved configs are
    /// safely shared across patches that do not touch those files. The
    /// tree maintains this digest as files come and go, so reading it is
    /// O(1), and it does not depend on the order files were inserted in.
    pub fn fingerprint_tree(tree: &SourceTree) -> u64 {
        tree.config_digest()
    }

    /// Fingerprint arbitrary bytes (used to widen custom-config keys).
    pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BuildEngine, ConfigKind};

    fn tiny_tree() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert("Kconfig", "config NET\n\tbool \"net\"\n");
        t.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        t.insert("Makefile", "obj-y += kernel/\n");
        t.insert("kernel/Makefile", "obj-y += core.o\n");
        t.insert("kernel/core.c", "int core;\n");
        t
    }

    #[test]
    fn fingerprint_tracks_kconfig_and_defconfig_content_only() {
        let base = tiny_tree();
        let fp = ConfigCache::fingerprint_tree(&base);
        // The fingerprint after writing `content` to `path` (None removes).
        let edited = |tree: &SourceTree, path: &str, content: Option<&str>| {
            let mut t = tree.clone();
            match content {
                Some(c) => t.insert(path, c),
                None => drop(t.remove(path)),
            }
            ConfigCache::fingerprint_tree(&t)
        };

        // Edits to .c, .h and Makefiles leave the fingerprint alone…
        for (path, content) in [
            ("kernel/core.c", Some("int core_v2;\n")),
            ("kernel/core.c", None),
            ("include/linux/core.h", Some("#define CORE 1\n")),
            ("kernel/Makefile", Some("obj-y += core.o x.o\n")),
        ] {
            assert_eq!(fp, edited(&base, path, content), "{path}");
        }
        // …while adding, editing or removing a Kconfig or defconfig
        // changes it.
        let defconfig = "arch/x86_64/configs/tiny_defconfig";
        for (path, content) in [
            ("Kconfig", Some("config NET\n\tbool \"network\"\n")),
            ("net/Kconfig", Some("config INET\n\tbool\n")),
            ("arch/x86_64/Kconfig", None),
            (defconfig, Some("CONFIG_NET=y\n")),
        ] {
            assert_ne!(fp, edited(&base, path, content), "{path}");
        }
        let mut with_defconfig = base;
        with_defconfig.insert(defconfig, "CONFIG_NET=y\n");
        let dfp = ConfigCache::fingerprint_tree(&with_defconfig);
        let edit = Some("CONFIG_NET=n\n");
        assert_ne!(dfp, edited(&with_defconfig, defconfig, edit));
        assert_eq!(fp, edited(&with_defconfig, defconfig, None));

        // The value is a function of content, not of insertion order.
        let files: Vec<(String, String)> = with_defconfig
            .iter()
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .collect();
        let reversed: SourceTree = files.iter().rev().cloned().collect();
        assert_eq!(dfp, ConfigCache::fingerprint_tree(&reversed));
        let mut rotated: SourceTree = files[2..].iter().cloned().collect();
        rotated.extend(files[..2].iter().cloned());
        assert_eq!(dfp, ConfigCache::fingerprint_tree(&rotated));
    }

    #[test]
    fn get_insert_and_counters() {
        let cache = ConfigCache::new();
        let key = ConfigKey::new("x86_64", &ConfigKind::AllYes);
        assert!(cache.is_empty());
        assert!(cache.get(1, &key, 0).is_none());

        let mut engine = BuildEngine::new(tiny_tree());
        let cfg = engine.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        cache.insert(1, &key, 0, cfg);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(1, &key, 0).is_some());
        assert!(cache.get(2, &key, 0).is_none());

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn peek_finds_entries_without_counting() {
        let cache = ConfigCache::new();
        let key = ConfigKey::new("x86_64", &ConfigKind::AllYes);
        assert!(cache.peek(1, &key, 0).is_none());

        let mut engine = BuildEngine::new(tiny_tree());
        let cfg = engine.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        cache.insert(1, &key, 0, cfg);
        assert!(cache.peek(1, &key, 0).is_some());

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn shared_engines_hit_the_cache_but_charge_the_clock() {
        let cache = Arc::new(ConfigCache::new());

        let mut first = BuildEngine::with_shared_cache(tiny_tree(), Arc::clone(&cache));
        first.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);

        let mut second = BuildEngine::with_shared_cache(tiny_tree(), Arc::clone(&cache));
        second.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        assert_eq!(cache.stats().hits, 1);

        // Virtual-clock charge is identical whether solved or shared:
        // the simulated run still pays full configuration creation.
        assert_eq!(
            first.clock.samples.config, second.clock.samples.config,
            "cache hits must charge the same virtual config cost"
        );
    }

    #[test]
    fn different_trees_do_not_share() {
        let cache = Arc::new(ConfigCache::new());
        let mut a = BuildEngine::with_shared_cache(tiny_tree(), Arc::clone(&cache));
        a.make_config("x86_64", &ConfigKind::AllYes).unwrap();

        let mut changed = tiny_tree();
        changed.insert("Kconfig", "config NET\n\tbool \"net\"\n\nconfig EXTRA\n\tbool \"x\"\n");
        let mut b = BuildEngine::with_shared_cache(changed, Arc::clone(&cache));
        let cfg = b.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.len(), 2);
        // Solved against its own tree: NET, EXTRA, and X86_64 are all in
        // the model, where the first tree declares only two symbols.
        assert!(cfg.model.len() >= 3);
    }
}
