//! Cross-patch, content-addressed object cache for `make file.i` /
//! `make file.o`.
//!
//! Preprocessing and compilation dominate an evaluation run's host cost,
//! and across a v4.3→v4.4-style sweep the vast majority of
//! (file content, include chain, configuration, arch) combinations are
//! bit-identical between neighbouring commits. [`ObjectCache`] memoizes
//! the outcome of one preprocess/compile *including failures* — negative
//! caching is where most mutation-probe wins are, because the same
//! arch-specific file fails preprocessing the same way on every patch
//! that does not touch it.
//!
//! Soundness comes entirely from the key ([`ObjectKey`]): the blob hash
//! of the file's own content (the same [`ContentHash`] identity
//! `jmake_vcs::BlobId` uses), a fingerprint of the transitive include
//! closure ([`include_fingerprint`] — resolved exactly like the engine's
//! resolver, conditional branches over-approximated), the configuration's
//! macro environment, the `MODULE` define, the architecture, and the
//! build kind. A mutated file changes its blob hash; a touched header
//! changes the include fingerprint; a different configuration changes the
//! environment fingerprint — each forces a miss. Files whose include
//! closure contains a *computed* `#include` (macro-valued target, which
//! the preprocessor supports but a lexical scan cannot see through) are
//! simply never cached.
//!
//! A hit still charges the virtual clock the full preprocess/compile
//! cost, so every report, Fig. 4b/4c sample, and per-stage virtual-µs
//! total is bit-identical with the cache on or off.

use crate::arch::ArchRegistry;
use crate::build::{BuildError, IFile};
use crate::diskcache::{decode_object_entry, encode_object_entry};
use crate::hash::{ContentHash, Fnv};
use crate::store::{Entry, Store};
use crate::tree::{IncludeScan, SourceTree};
use std::collections::VecDeque;
use std::sync::Arc;

/// The shared store of preprocess/compile outcomes.
pub type ObjectCache = Store<CachedObj>;

/// Which build operation an entry memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// `make file.i` — preprocess only.
    I,
    /// `make file.o` — preprocess plus front-end validation.
    O,
}

/// Identity of one memoized build operation. Everything the operation's
/// outcome can depend on is pinned here; see the module docs for the
/// soundness argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectKey {
    /// Blob hash of the file's own content.
    pub blob: ContentHash,
    /// The file's path — quoted-include resolution anchors on its
    /// directory, so equal content at different paths is not the same
    /// translation unit.
    pub path: Arc<str>,
    /// Fingerprint of the transitive include closure
    /// ([`include_fingerprint`]).
    pub include_fp: u64,
    /// Fingerprint of the configuration's macro environment.
    pub env_fp: u64,
    /// Whether Kbuild defines `MODULE` for this object.
    pub module: bool,
    /// Architecture (drives the `arch/<a>/include` search path).
    pub arch: &'static str,
    /// Preprocess or full compile.
    pub kind: ObjKind,
}

/// One memoized outcome. `text_len` is stored even for failures: the
/// virtual clock charges by preprocessed-output size whether or not the
/// preprocessor reported errors, and a hit must charge exactly what the
/// miss did.
#[derive(Debug, Clone)]
pub enum CachedObj {
    /// A `make file.i` outcome: the full `.i` payload on success (JMake
    /// scans its text for mutation tokens), the first diagnostic on
    /// failure.
    I {
        /// Length of the preprocessed text (the `.i` charge driver).
        text_len: u64,
        /// The per-file result `make_i` produced.
        result: Result<IFile, String>,
    },
    /// A `make file.o` outcome past the live makefile/gating checks:
    /// success, `PreprocessFailed`, or `FrontEndRejected`.
    O {
        /// Length of the preprocessed text (the `.o` charge driver).
        text_len: u64,
        /// The result `make_o` produced.
        result: Result<(), BuildError>,
    },
}

impl Entry for CachedObj {
    type Key = ObjectKey;
    const SECTION: &'static str = "objects";
    const MAGIC: &'static str = "jmake-cache v1 object";

    fn shard_bits(key: &ObjectKey) -> u64 {
        // The blob hash is already strong; fold in the environment and
        // include fingerprints so one hot file spreads across shards per
        // configuration.
        key.blob.hi() ^ key.env_fp ^ key.include_fp
    }

    fn key_digest(key: &ObjectKey) -> u64 {
        let mut h = Fnv::new();
        h.write(&key.blob.hi().to_le_bytes());
        h.write(&key.blob.lo().to_le_bytes());
        h.write(key.path.as_bytes());
        h.write(&key.include_fp.to_le_bytes());
        h.write(&key.env_fp.to_le_bytes());
        h.write(&[u8::from(key.module)]);
        h.write(key.arch.as_bytes());
        h.write(if key.kind == ObjKind::I { b"I" } else { b"O" });
        h.finish()
    }

    fn encode(key: &ObjectKey, obj: &Self) -> Vec<u8> {
        encode_object_entry(key, obj)
    }

    fn decode(payload: &[u8], registry: &ArchRegistry) -> Result<(ObjectKey, Self), String> {
        decode_object_entry(payload, registry)
    }

    /// Every object hit is verified. The digest covers the charge driver
    /// (`text_len`), the outcome polarity, and the payload the caller
    /// will actually consume.
    fn digest(&self) -> Option<u64> {
        let mut h = Fnv::new();
        match self {
            CachedObj::I { text_len, result } => {
                h.write(b"I");
                h.write(&text_len.to_le_bytes());
                match result {
                    Ok(ifile) => {
                        h.write(b"ok");
                        h.write(ifile.path.as_bytes());
                        h.write(&[0x00]);
                        h.write(ifile.text.as_bytes());
                    }
                    Err(e) => {
                        h.write(b"err");
                        h.write(e.as_bytes());
                    }
                }
            }
            CachedObj::O { text_len, result } => {
                h.write(b"O");
                h.write(&text_len.to_le_bytes());
                match result {
                    Ok(()) => h.write(b"ok"),
                    Err(e) => {
                        h.write(b"err");
                        h.write(e.to_string().as_bytes());
                    }
                }
            }
        }
        Some(h.finish())
    }

    fn fault_identity(key: &ObjectKey) -> String {
        format!("{}:{:016x}", key.path, key.blob.hi())
    }

    fn is_negative(&self) -> bool {
        match self {
            CachedObj::I { result, .. } => result.is_err(),
            CachedObj::O { result, .. } => result.is_err(),
        }
    }
}

/// Fingerprint everything preprocessing `file` can read *besides* the
/// file's own content: the transitive closure of its literal `#include`
/// targets, resolved exactly like the engine's resolver
/// ([`jmake_cpp::resolve_include`] with the search paths `include/` and
/// `arch/<arch>/include/`).
///
/// Conditional compilation is over-approximated: both branches' includes
/// are walked, so the closure is a superset of what any configuration
/// actually reads — equal fingerprints therefore imply equal resolution
/// outcomes for every include the preprocessor *could* take, which is
/// sound over-invalidation. Unresolvable targets are folded in too (a
/// later tree that *does* provide the header must miss).
///
/// Returns `None` when any reachable include target is not a literal
/// `"…"`/`<…>` (a computed include, `#include CONFIG_HDR`, which the
/// preprocessor expands but this lexical scan cannot) — such files are
/// not cacheable.
pub fn include_fingerprint(tree: &SourceTree, arch: &str, file: &str) -> Option<u64> {
    let search_paths = ["include".to_string(), format!("arch/{arch}/include")];
    let mut h = Fnv::new();
    let mut visited = std::collections::BTreeSet::new();
    let mut queue = VecDeque::new();
    visited.insert(file.to_string());
    queue.push_back(file.to_string());
    while let Some(path) = queue.pop_front() {
        h.write(path.as_bytes());
        h.write(&[0x00]);
        let Some(blob) = tree.get_blob(&path) else {
            // Only the root file can be absent; queued paths resolved.
            h.write(&[0xff]);
            continue;
        };
        // Both the content hash and the lexical include scan are computed
        // once per distinct blob process-wide and shared by every tree
        // holding it — the walk touches no file content after the first
        // visit of a given blob anywhere in the run.
        let hash = blob.hash();
        h.write(&hash.hi().to_le_bytes());
        h.write(&hash.lo().to_le_bytes());
        h.write(&[0xff]);
        let scan = blob.include_scan_with(scan_includes);
        if scan.uncacheable {
            return None;
        }
        for (target, quoted) in &scan.targets {
            let found = jmake_cpp::resolve_include(target, *quoted, &path, &search_paths, |c| {
                tree.contains(c).then_some(())
            });
            match found {
                Some((resolved, ())) => {
                    if visited.insert(resolved.clone()) {
                        queue.push_back(resolved);
                    }
                }
                None => {
                    // Unresolved: pin the failure so a tree that adds the
                    // header invalidates.
                    h.write(&[0x01, u8::from(*quoted)]);
                    h.write(target.as_bytes());
                    h.write(&[0xff]);
                }
            }
        }
    }
    Some(h.finish())
}

/// Pre-parse one blob's `#include` lines for the fingerprint walk. The
/// result is cached on the blob ([`crate::tree::Blob::include_scan_with`]).
fn scan_includes(content: &str) -> IncludeScan {
    let mut scan = IncludeScan::default();
    for line in content.lines() {
        match parse_include_target(line) {
            Some(None) => {}
            Some(Some((target, quoted))) => scan.targets.push((target.into(), quoted)),
            None => {
                scan.uncacheable = true;
                return scan;
            }
        }
    }
    scan
}

/// Classify one source line: `Some(Some((target, quoted)))` for a literal
/// include, `Some(None)` for anything that is not an include, and `None`
/// for an include this scan cannot pin down (computed or malformed) —
/// which makes the whole file uncacheable.
#[allow(clippy::type_complexity)]
fn parse_include_target(line: &str) -> Option<Option<(&str, bool)>> {
    let t = line.trim_start();
    let Some(after_hash) = t.strip_prefix('#') else {
        return Some(None);
    };
    let Some(rest) = after_hash.trim_start().strip_prefix("include") else {
        return Some(None);
    };
    // `#include_next` and friends are distinct directives, not includes
    // this resolver understands — refuse to cache rather than guess.
    if rest
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return None;
    }
    let rest = rest.trim_start();
    if let Some(body) = rest.strip_prefix('"') {
        return match body.split_once('"') {
            Some((target, _)) => Some(Some((target, true))),
            None => None,
        };
    }
    if let Some(body) = rest.strip_prefix('<') {
        return match body.split_once('>') {
            Some((target, _)) => Some(Some((target, false))),
            None => None,
        };
    }
    // A macro-valued target — the preprocessor supports it, we cannot.
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(files: &[(&str, &str)]) -> SourceTree {
        let mut t = SourceTree::new();
        for (p, c) in files {
            t.insert(*p, *c);
        }
        t
    }

    fn key(blob: &str, include_fp: u64) -> ObjectKey {
        ObjectKey {
            blob: ContentHash::of(blob),
            path: Arc::from("drivers/a.c"),
            include_fp,
            env_fp: 7,
            module: false,
            arch: "x86_64",
            kind: ObjKind::I,
        }
    }

    #[test]
    fn object_hits_verify_their_digest_and_count_negatives() {
        let cache = ObjectCache::new();
        let k = key("int y;\n", 2);
        cache.insert(
            k.clone(),
            Arc::new(CachedObj::I {
                text_len: 7,
                result: Err("missing header".to_string()),
            }),
        );
        let found = cache.lookup(&k, &jmake_faults::Faults::disabled());
        assert_eq!(found.outcome(), jmake_trace::CacheOutcome::Hit);
        assert!(found.entry().unwrap().is_negative());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.negative_hits), (1, 1));
        assert_eq!(stats.corruptions_detected, 0);
    }

    #[test]
    fn include_fingerprint_tracks_transitive_headers() {
        let base = tree_with(&[
            ("drivers/a.c", "#include <linux/k.h>\nint a;\n"),
            ("include/linux/k.h", "#include \"inner.h\"\n#define K 1\n"),
            ("include/linux/inner.h", "#define INNER 2\n"),
        ]);
        let fp = include_fingerprint(&base, "x86_64", "drivers/a.c").unwrap();

        // Touching a transitively-included header changes the fingerprint…
        let mut deep = base.clone();
        deep.insert("include/linux/inner.h", "#define INNER 3\n");
        assert_ne!(
            fp,
            include_fingerprint(&deep, "x86_64", "drivers/a.c").unwrap()
        );

        // …while touching an unrelated file does not.
        let mut unrelated = base;
        unrelated.insert("drivers/b.c", "int b;\n");
        assert_eq!(
            fp,
            include_fingerprint(&unrelated, "x86_64", "drivers/a.c").unwrap()
        );
    }

    #[test]
    fn adding_a_previously_missing_header_changes_the_fingerprint() {
        let base = tree_with(&[("drivers/a.c", "#include <linux/ghost.h>\nint a;\n")]);
        let fp = include_fingerprint(&base, "x86_64", "drivers/a.c").unwrap();
        let mut provided = base;
        provided.insert("include/linux/ghost.h", "#define GHOST 1\n");
        assert_ne!(
            fp,
            include_fingerprint(&provided, "x86_64", "drivers/a.c").unwrap()
        );
    }

    #[test]
    fn quoted_include_resolves_via_including_dir_and_arch_search_path_matters() {
        let t = tree_with(&[
            ("drivers/a.c", "#include \"local.h\"\n"),
            ("drivers/local.h", "#define L 1\n"),
            ("arch/arm/include/asm/only.h", "#define O 1\n"),
            ("drivers/b.c", "#include <asm/only.h>\n"),
        ]);
        // Quoted resolution anchors on the including directory.
        assert!(include_fingerprint(&t, "x86_64", "drivers/a.c").is_some());
        // The same file fingerprints differently per arch when the arch
        // search path changes what resolves.
        let on_arm = include_fingerprint(&t, "arm", "drivers/b.c").unwrap();
        let on_x86 = include_fingerprint(&t, "x86_64", "drivers/b.c").unwrap();
        assert_ne!(on_arm, on_x86);
    }

    #[test]
    fn computed_and_malformed_includes_are_uncacheable() {
        let computed = tree_with(&[("a.c", "#define H <x.h>\n#include H\n")]);
        assert!(include_fingerprint(&computed, "x86_64", "a.c").is_none());
        let via_header = tree_with(&[
            ("a.c", "#include <b.h>\n"),
            ("include/b.h", "#include MACRO_TARGET\n"),
        ]);
        // Transitive computed includes poison the root file too.
        assert!(include_fingerprint(&via_header, "x86_64", "a.c").is_none());
        let malformed = tree_with(&[("a.c", "#include \"unterminated\n")]);
        assert!(include_fingerprint(&malformed, "x86_64", "a.c").is_none());
        let include_next = tree_with(&[("a.c", "#include_next <x.h>\n")]);
        assert!(include_fingerprint(&include_next, "x86_64", "a.c").is_none());
    }

    #[test]
    fn include_cycles_terminate() {
        let t = tree_with(&[
            ("include/a.h", "#include <b.h>\n"),
            ("include/b.h", "#include <a.h>\n"),
            ("a.c", "#include <a.h>\n"),
        ]);
        assert!(include_fingerprint(&t, "x86_64", "a.c").is_some());
    }
}
