//! Cross-patch, content-addressed configuration cache.
//!
//! The paper's evaluation recreates every configuration per patch (§V.A:
//! each worker starts from a clean clone), which dominates wall-clock
//! time. Consecutive patches overwhelmingly share identical Kconfig and
//! defconfig sources, so the solved [`BuildConfig`] is identical too.
//! [`ConfigCache`] lets every [`BuildEngine`](crate::BuildEngine) in a
//! run share solved configurations — keyed by a fingerprint of the
//! tree's Kconfig/defconfig content, the architecture, and the
//! configuration kind — in a [`Store`]. This module supplies the
//! configuration [`Entry`]; the storage itself is the store's.
//!
//! A hit still charges the virtual clock the full configuration-creation
//! cost, so the paper's Figure 4a CDF (and every per-patch virtual time)
//! is bit-identical with or without the cache.

use crate::arch::ArchRegistry;
use crate::build::{BuildConfig, ConfigKey};
use crate::diskcache::{decode_config_entry, encode_config_entry};
use crate::hash::Fnv;
use crate::store::{Entry, Store};

/// The shared store of solved configurations.
pub type ConfigCache = Store<BuildConfig>;

impl Entry for BuildConfig {
    /// (tree fingerprint — [`SourceTree::config_digest`](crate::SourceTree::config_digest)
    /// —, interned `(arch, kind)` identity, custom-content fingerprint —
    /// zero for non-custom kinds).
    type Key = (u64, ConfigKey, u64);
    const SECTION: &'static str = "configs";
    const MAGIC: &'static str = "jmake-cache v1 config";

    fn shard_bits((fingerprint, key, _): &Self::Key) -> u64 {
        // The fingerprint is already a strong 64-bit hash; fold in the
        // kind key's length so AllYes/AllMod on one tree can land apart.
        fingerprint ^ key.kind_key().len() as u64
    }

    fn key_digest((fingerprint, key, content_fp): &Self::Key) -> u64 {
        let mut h = Fnv::new();
        h.write(&fingerprint.to_le_bytes());
        h.write(key.arch().as_bytes());
        h.write(&[0]);
        h.write(key.kind_key().as_bytes());
        h.write(&content_fp.to_le_bytes());
        h.finish()
    }

    fn encode((fingerprint, _, content_fp): &Self::Key, cfg: &Self) -> Vec<u8> {
        encode_config_entry(*fingerprint, *content_fp, cfg)
    }

    fn decode(payload: &[u8], registry: &ArchRegistry) -> Result<(Self::Key, Self), String> {
        let (fingerprint, content_fp, cfg) = decode_config_entry(payload, registry)?;
        Ok(((fingerprint, cfg.key().clone(), content_fp), cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BuildEngine, ConfigKind};
    use crate::tree::SourceTree;
    use std::sync::Arc;

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
        let fp = base.config_digest();
        // The fingerprint after writing `content` to `path` (None removes).
        let edited = |tree: &SourceTree, path: &str, content: Option<&str>| {
            let mut t = tree.clone();
            match content {
                Some(c) => t.insert(path, c),
                None => drop(t.remove(path)),
            }
            t.config_digest()
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
        let dfp = with_defconfig.config_digest();
        let edit = Some("CONFIG_NET=n\n");
        assert_ne!(dfp, edited(&with_defconfig, defconfig, edit));
        assert_eq!(fp, edited(&with_defconfig, defconfig, None));

        // The value is a function of content, not of insertion order.
        let files: Vec<(String, String)> = with_defconfig
            .iter()
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .collect();
        let reversed: SourceTree = files.iter().rev().cloned().collect();
        assert_eq!(dfp, reversed.config_digest());
        let mut rotated: SourceTree = files[2..].iter().cloned().collect();
        rotated.extend(files[..2].iter().cloned());
        assert_eq!(dfp, rotated.config_digest());
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
