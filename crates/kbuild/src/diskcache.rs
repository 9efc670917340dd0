//! Persistent, digest-verified on-disk tier behind the [`ConfigCache`],
//! [`ObjectCache`] and [`PreprocCache`] stores.
//!
//! Every store is content-addressed and immutable per key, so persisting
//! it is safe by construction: an entry loaded from a previous run
//! answers a lookup if and only if the *key* — which pins everything the
//! outcome depends on — matches, and a warm hit charges the virtual clock
//! exactly what a cold miss would, keeping reports byte-identical cold
//! vs. warm (the CI gate diffs them).
//!
//! What the disk can do that memory cannot is rot. Every entry file
//! carries an FNV-1a integrity digest of its payload, written at store
//! time and re-verified on load; a mismatch (flipped bytes), a truncated
//! payload, or an unparseable frame (torn concurrent write) routes the
//! entry through the same quarantine discipline the in-memory store
//! applies to corrupted shards: the entry is moved to
//! `<root>/quarantine/`, never served, counted in [`DiskTierStats`] and —
//! when fault injection is active — in the shared
//! [`FaultStats`](jmake_faults::FaultStats). The `jmake-faults` layer can
//! also corrupt disk loads deterministically ([`FaultSite::CacheLookup`]
//! with [`FaultKind::Corrupt`](jmake_faults::FaultKind::Corrupt)),
//! exercising the same detection path end-to-end.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/objects/<hh>/<16-hex-key-digest>.entry   memoized .i/.o outcomes
//! <root>/configs/<hh>/<16-hex-key-digest>.entry   solved configurations
//! <root>/preproc/<hh>/<16-hex-key-digest>.entry   recorded header-inclusion effects
//! <root>/quarantine/<filename>                    entries that failed verification
//! ```
//!
//! Each section directory, magic line and key digest comes from the
//! section's [`Entry`] implementation; load and store are one loop over
//! that trait. `<hh>` is the first byte of the key digest in hex
//! (256-way fan-out). Entry files are immutable once written: stores go
//! to a temporary file in the same directory and `rename(2)` into place,
//! and existing files are never rewritten (same name ⇒ same
//! content-addressed key ⇒ same outcome). Eviction is by quarantine only
//! — a corrupt entry is moved aside, everything healthy persists
//! indefinitely.
//!
//! ## Entry format
//!
//! ```text
//! jmake-cache v1 <object|config|preproc>\n
//! <16-hex digest of payload>\n
//! <payload>
//! ```
//!
//! The payload is a deterministic sequence of length-prefixed fields (no
//! escaping, so arbitrary file text round-trips byte-exactly).

use crate::arch::ArchRegistry;
use crate::build::{BuildConfig, BuildError, ConfigKind, IFile};
use crate::cache::ConfigCache;
use crate::hash::{ContentHash, Fnv};
use crate::objcache::{CachedObj, ObjKind, ObjectCache, ObjectKey};
use crate::ppcache::PreprocCache;
use crate::store::{served_digest, Entry, Store};
use jmake_cpp::error::CppErrorKind;
use jmake_cpp::{
    CppError, IncludeEffect, IncludeKey, MacroDef, MacroEvent, SyntaxError, Token, TokenKind,
};
use jmake_faults::{FaultSite, Faults};
use jmake_kconfig::{Config, Expr, KconfigModel, Symbol, SymbolType, Tristate};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Counters for one load or store pass over the disk tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskTierStats {
    /// Object entries verified and loaded into the in-memory cache.
    pub objects_loaded: u64,
    /// Configuration entries verified and loaded.
    pub configs_loaded: u64,
    /// Object entries written (existing files are never rewritten).
    pub objects_stored: u64,
    /// Configuration entries written.
    pub configs_stored: u64,
    /// Recorded header-inclusion effects verified and loaded into the
    /// in-memory [`PreprocCache`].
    pub preproc_loaded: u64,
    /// Header-inclusion effects written.
    pub preproc_stored: u64,
    /// Entry files that failed digest verification or parsing and were
    /// moved to `<root>/quarantine/` — never served.
    pub entries_quarantined: u64,
}

/// Handle to one on-disk cache directory. See the module docs for layout
/// and integrity rules.
#[derive(Debug, Clone)]
pub struct DiskCache {
    root: PathBuf,
}

impl DiskCache {
    /// Open (creating if needed) the cache rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let root = root.into();
        for dir in ["objects", "configs", "preproc", "quarantine"] {
            std::fs::create_dir_all(root.join(dir))?;
        }
        Ok(DiskCache { root })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Load every verifiable entry into `objects`, `configs`, and
    /// `preproc`. Entries that fail digest verification or parsing —
    /// including loads the fault plan corrupts — are quarantined, never
    /// served. Entry files are visited in sorted order, so the pass is
    /// deterministic.
    pub fn load(
        &self,
        objects: &ObjectCache,
        configs: &ConfigCache,
        preproc: &PreprocCache,
        faults: &Faults,
    ) -> io::Result<DiskTierStats> {
        let registry = ArchRegistry::new();
        let mut stats = DiskTierStats::default();
        let quarantined = &mut stats.entries_quarantined;
        stats.objects_loaded = self.load_section(objects, &registry, faults, quarantined)?;
        stats.configs_loaded = self.load_section(configs, &registry, faults, quarantined)?;
        stats.preproc_loaded = self.load_section(preproc, &registry, faults, quarantined)?;
        Ok(stats)
    }

    /// Load one section into `store`; returns the number of entries
    /// loaded and counts each quarantined one in `quarantined`.
    fn load_section<E: Entry>(
        &self,
        store: &Store<E>,
        registry: &ArchRegistry,
        faults: &Faults,
        quarantined: &mut u64,
    ) -> io::Result<u64> {
        let mut loaded = 0;
        for path in self.entry_files(E::SECTION)? {
            let decoded = self
                .read_verified(&path, E::MAGIC, faults)
                .and_then(|payload| E::decode(&payload, registry));
            match decoded {
                Ok((key, value)) => {
                    store.insert(key, Arc::new(value));
                    loaded += 1;
                }
                Err(_) => {
                    *quarantined += 1;
                    self.quarantine(&path, faults);
                }
            }
        }
        Ok(loaded)
    }

    /// Persist every entry currently held by `objects`, `configs`, and
    /// `preproc`. Existing entry files are left untouched; new ones are
    /// written to a temporary name and renamed into place, so a concurrent
    /// reader never observes a partial entry under its final name.
    pub fn store(
        &self,
        objects: &ObjectCache,
        configs: &ConfigCache,
        preproc: &PreprocCache,
    ) -> io::Result<DiskTierStats> {
        Ok(DiskTierStats {
            objects_stored: self.store_section(objects)?,
            configs_stored: self.store_section(configs)?,
            preproc_stored: self.store_section(preproc)?,
            ..DiskTierStats::default()
        })
    }

    /// Persist one store's snapshot; returns the number of new files.
    fn store_section<E: Entry>(&self, store: &Store<E>) -> io::Result<u64> {
        let mut written = 0;
        for (key, value) in store.snapshot() {
            let payload = E::encode(&key, &value);
            if self.write_entry(E::SECTION, E::key_digest(&key), E::MAGIC, &payload)? {
                written += 1;
            }
        }
        Ok(written)
    }

    /// All `.entry` files under `<root>/<section>/`, sorted.
    fn entry_files(&self, section: &str) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let dir = self.root.join(section);
        for bucket in std::fs::read_dir(&dir)? {
            let bucket = bucket?.path();
            if !bucket.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&bucket)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "entry") {
                    out.push(path);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Read one entry file, check its frame and digest, and hand back the
    /// payload bytes. The fault plan may corrupt the read (simulated media
    /// rot), which the digest check then catches.
    fn read_verified(
        &self,
        path: &Path,
        magic: &str,
        faults: &Faults,
    ) -> Result<Vec<u8>, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
        let mut header = Dec::new(&bytes);
        let got_magic = header.line()?;
        if got_magic != magic {
            return Err(format!("bad magic {got_magic:?}"));
        }
        let stored_digest = header.u64()?;
        let payload = &bytes[header.pos..];
        let identity = || {
            let stem = path.file_stem().and_then(|s| s.to_str());
            stem.unwrap_or_default().to_string()
        };
        if served_digest(payload_digest(payload), faults, identity) != stored_digest {
            return Err("digest mismatch".to_string());
        }
        Ok(payload.to_vec())
    }

    /// Move a failed entry to `<root>/quarantine/` — the disk-tier
    /// analogue of flushing a corrupted in-memory shard. The entry keeps
    /// its bytes there for post-mortem.
    fn quarantine(&self, path: &Path, faults: &Faults) {
        if let Some(fault_stats) = faults.stats() {
            fault_stats.corruptions_detected.fetch_add(1, Ordering::Relaxed);
        }
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed.entry".to_string());
        let dest = self.root.join("quarantine").join(name);
        // Best-effort: if the move fails (another process already moved
        // it), fall back to removal so the bad entry cannot be re-served.
        if std::fs::rename(path, &dest).is_err() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Write one framed entry unless its file already exists. Returns
    /// whether a new file was written.
    fn write_entry(
        &self,
        section: &str,
        key_digest: u64,
        magic: &str,
        payload: &[u8],
    ) -> io::Result<bool> {
        let bucket = self.root.join(section).join(format!("{:02x}", key_digest >> 56));
        let dest = bucket.join(format!("{key_digest:016x}.entry"));
        if dest.exists() {
            return Ok(false);
        }
        std::fs::create_dir_all(&bucket)?;
        let mut framed = Vec::with_capacity(payload.len() + 64);
        framed.extend_from_slice(magic.as_bytes());
        framed.push(b'\n');
        framed.extend_from_slice(format!("{:016x}\n", payload_digest(payload)).as_bytes());
        framed.extend_from_slice(payload);
        let tmp = bucket.join(format!(
            "{key_digest:016x}.tmp.{}",
            std::process::id()
        ));
        std::fs::write(&tmp, &framed)?;
        match std::fs::rename(&tmp, &dest) {
            Ok(()) => Ok(true),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                // A concurrent writer beat us to it: same key, same
                // content-addressed outcome — not an error.
                if dest.exists() {
                    Ok(false)
                } else {
                    Err(e)
                }
            }
        }
    }
}

/// FNV-1a digest of an entry payload.
fn payload_digest(payload: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(payload);
    h.finish()
}

// ---------------------------------------------------------------------------
// Payload encoding: deterministic length-prefixed fields.
// ---------------------------------------------------------------------------

/// Payload writer. Strings are length-prefixed raw bytes (no escaping),
/// numbers are fixed-width hex lines, so encoding is deterministic and
/// file text of any shape round-trips byte-exactly.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(format!("{v:016x}\n").as_bytes());
    }

    fn boolean(&mut self, v: bool) {
        self.buf.push(if v { b'y' } else { b'n' });
        self.buf.push(b'\n');
    }

    /// A short ASCII token (a variant tag).
    fn tag(&mut self, t: &str) {
        debug_assert!(t.bytes().all(|b| b.is_ascii_graphic()));
        self.buf.extend_from_slice(t.as_bytes());
        self.buf.push(b'\n');
    }

    fn str(&mut self, s: &str) {
        self.buf
            .extend_from_slice(format!("{}\n", s.len()).as_bytes());
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(b'\n');
    }

    /// `Some(v)` as a `some` tag then `v`; `None` as a `none` tag.
    fn opt<T>(&mut self, v: Option<T>, some: impl FnOnce(&mut Enc, T)) {
        match v {
            Some(v) => {
                self.tag("some");
                some(self, v);
            }
            None => self.tag("none"),
        }
    }

    /// A count line, then each item.
    fn seq<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Enc, &T)) {
        self.u64(items.len() as u64);
        for item in items {
            each(self, item);
        }
    }
}

/// Payload reader mirroring [`Enc`]. Every error is a short reason string
/// — the caller quarantines the entry, it never panics.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn line(&mut self) -> Result<&'a str, String> {
        let rest = &self.bytes[self.pos..];
        let nl = rest
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("truncated payload")?;
        let line = std::str::from_utf8(&rest[..nl]).map_err(|_| "non-utf8 field")?;
        self.pos += nl + 1;
        Ok(line)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let line = self.line()?;
        u64::from_str_radix(line, 16).map_err(|_| format!("bad number {line:?}"))
    }

    fn u32(&mut self) -> Result<u32, String> {
        u32::try_from(self.u64()?).map_err(|_| "number out of u32 range".to_string())
    }

    fn boolean(&mut self) -> Result<bool, String> {
        match self.line()? {
            "y" => Ok(true),
            "n" => Ok(false),
            other => Err(format!("bad bool {other:?}")),
        }
    }

    fn tag(&mut self) -> Result<&'a str, String> {
        self.line()
    }

    fn str(&mut self) -> Result<String, String> {
        let len: usize = self
            .line()?
            .parse()
            .map_err(|_| "bad string length".to_string())?;
        let rest = &self.bytes[self.pos..];
        // Checked: a forged length must fail here, not overflow.
        let end = len
            .checked_add(1)
            .filter(|&end| end <= rest.len())
            .ok_or("truncated string")?;
        let s = std::str::from_utf8(&rest[..len]).map_err(|_| "non-utf8 string")?;
        if rest[len] != b'\n' {
            return Err("unterminated string".to_string());
        }
        self.pos += end;
        Ok(s.to_string())
    }

    fn opt<T>(
        &mut self,
        some: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.tag()? {
            "some" => some(self).map(Some),
            "none" => Ok(None),
            other => Err(format!("bad option tag {other:?}")),
        }
    }

    /// A count line, then that many items. Every item consumes at least
    /// one byte, so a forged count fails at the payload's end.
    fn seq<T>(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.u64()?;
        (0..n).map(|_| each(self)).collect()
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------------
// Object entries.
// ---------------------------------------------------------------------------

pub(crate) fn encode_object_entry(key: &ObjectKey, obj: &CachedObj) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(key.blob.hi());
    e.u64(key.blob.lo());
    e.str(&key.path);
    e.u64(key.include_fp);
    e.u64(key.env_fp);
    e.boolean(key.module);
    e.str(key.arch);
    match obj {
        CachedObj::I { text_len, result } => {
            e.tag("I");
            e.u64(*text_len);
            match result {
                Ok(ifile) => {
                    e.tag("ok");
                    e.str(&ifile.path);
                    e.str(&ifile.text);
                    // HashSet iteration order is nondeterministic; sort so
                    // equal entries encode to equal bytes.
                    let mut macros: Vec<&str> =
                        ifile.expanded_macros.iter().map(String::as_str).collect();
                    macros.sort_unstable();
                    e.seq(&macros, |e, m| e.str(m));
                    e.seq(&ifile.includes, |e, inc| e.str(inc));
                }
                Err(msg) => {
                    e.tag("err");
                    e.str(msg);
                }
            }
        }
        CachedObj::O { text_len, result } => {
            e.tag("O");
            e.u64(*text_len);
            match result {
                Ok(()) => e.tag("ok"),
                Err(err) => {
                    e.tag("err");
                    encode_build_error(&mut e, err);
                }
            }
        }
    }
    e.buf
}

pub(crate) fn decode_object_entry(
    payload: &[u8],
    registry: &ArchRegistry,
) -> Result<(ObjectKey, CachedObj), String> {
    let mut d = Dec::new(payload);
    let blob = ContentHash::from_parts(d.u64()?, d.u64()?);
    let path: Arc<str> = Arc::from(d.str()?.as_str());
    let include_fp = d.u64()?;
    let env_fp = d.u64()?;
    let module = d.boolean()?;
    let arch_name = d.str()?;
    // Re-intern the architecture: the key wants the registry's 'static
    // name, and an arch this build does not know cannot be served.
    let arch = registry
        .get(&arch_name)
        .ok_or_else(|| format!("unknown arch {arch_name:?}"))?
        .name;
    let (kind, obj) = match d.tag()? {
        "I" => {
            let text_len = d.u64()?;
            let result = match d.tag()? {
                "ok" => Ok(IFile {
                    path: d.str()?,
                    text: d.str()?,
                    expanded_macros: d.seq(Dec::str)?.into_iter().collect(),
                    includes: d.seq(Dec::str)?,
                }),
                "err" => Err(d.str()?),
                other => return Err(format!("bad result tag {other:?}")),
            };
            (ObjKind::I, CachedObj::I { text_len, result })
        }
        "O" => {
            let text_len = d.u64()?;
            let result = match d.tag()? {
                "ok" => Ok(()),
                "err" => Err(decode_build_error(&mut d)?),
                other => return Err(format!("bad result tag {other:?}")),
            };
            (ObjKind::O, CachedObj::O { text_len, result })
        }
        other => return Err(format!("bad kind tag {other:?}")),
    };
    if !d.at_end() {
        return Err("trailing bytes".to_string());
    }
    Ok((
        ObjectKey {
            blob,
            path,
            include_fp,
            env_fp,
            module,
            arch,
            kind,
        },
        obj,
    ))
}

fn encode_build_error(e: &mut Enc, err: &BuildError) {
    // Every shape is a tag and a leading string; three carry more.
    let (tag, lead) = match err {
        BuildError::UnknownArch(a) => ("unknown_arch", a.as_str()),
        BuildError::CrossCompilerMissing(a) => ("cross_compiler_missing", a.as_str()),
        BuildError::NoKconfig(a) => ("no_kconfig", a.as_str()),
        BuildError::KconfigParse(m) => ("kconfig_parse", m.as_str()),
        BuildError::MissingFile(p) => ("missing_file", p.as_str()),
        BuildError::NoMakefile(p) => ("no_makefile", p.as_str()),
        BuildError::NotEnabled(p) => ("not_enabled", p.as_str()),
        BuildError::SetupCompilationFailed(p) => ("setup_compilation_failed", p.as_str()),
        BuildError::PreprocessFailed { file, .. } => ("preprocess_failed", file.as_str()),
        BuildError::FrontEndRejected { file, .. } => ("front_end_rejected", file.as_str()),
        BuildError::RetriesExhausted { op, .. } => ("retries_exhausted", *op),
    };
    e.tag(tag);
    e.str(lead);
    match err {
        BuildError::PreprocessFailed { first_error, .. } => e.str(first_error),
        BuildError::FrontEndRejected { error, .. } => encode_syntax_error(e, error),
        BuildError::RetriesExhausted { attempts, .. } => e.u64(u64::from(*attempts)),
        _ => {}
    }
}

fn decode_build_error(d: &mut Dec) -> Result<BuildError, String> {
    Ok(match d.tag()? {
        "unknown_arch" => BuildError::UnknownArch(d.str()?),
        "cross_compiler_missing" => BuildError::CrossCompilerMissing(d.str()?),
        "no_kconfig" => BuildError::NoKconfig(d.str()?),
        "kconfig_parse" => BuildError::KconfigParse(d.str()?),
        "missing_file" => BuildError::MissingFile(d.str()?),
        "no_makefile" => BuildError::NoMakefile(d.str()?),
        "not_enabled" => BuildError::NotEnabled(d.str()?),
        "setup_compilation_failed" => BuildError::SetupCompilationFailed(d.str()?),
        "preprocess_failed" => BuildError::PreprocessFailed {
            file: d.str()?,
            first_error: d.str()?,
        },
        "front_end_rejected" => BuildError::FrontEndRejected {
            file: d.str()?,
            error: decode_syntax_error(d)?,
        },
        "retries_exhausted" => BuildError::RetriesExhausted {
            op: intern_fault_op(&d.str()?)?,
            attempts: d.u32()?,
        },
        other => return Err(format!("bad error tag {other:?}")),
    })
}

/// Map a serialized retry-site name back to the `'static` string the
/// fault layer uses. The set is closed — an unknown name means a corrupt
/// or incompatible entry.
fn intern_fault_op(name: &str) -> Result<&'static str, String> {
    for site in [
        FaultSite::Checkout,
        FaultSite::Show,
        FaultSite::ConfigSolve,
        FaultSite::MakeI,
        FaultSite::MakeO,
        FaultSite::CacheLookup,
    ] {
        if site.name() == name {
            return Ok(site.name());
        }
    }
    Err(format!("unknown fault op {name:?}"))
}

fn encode_syntax_error(e: &mut Enc, err: &SyntaxError) {
    match err {
        SyntaxError::InvalidCharacter { ch, line } => {
            e.tag("invalid_character");
            e.u64(u64::from(*ch as u32));
            e.u64(u64::from(*line));
        }
        SyntaxError::UnbalancedDelimiter { ch, line } => {
            e.tag("unbalanced_delimiter");
            e.u64(u64::from(*ch as u32));
            e.u64(u64::from(*line));
        }
        SyntaxError::UnterminatedLiteral { line } => {
            e.tag("unterminated_literal");
            e.u64(u64::from(*line));
        }
        SyntaxError::EmptyTranslationUnit => e.tag("empty_translation_unit"),
    }
}

fn decode_syntax_error(d: &mut Dec) -> Result<SyntaxError, String> {
    let ch_of = |v: u32| char::from_u32(v).ok_or_else(|| format!("bad char {v:#x}"));
    Ok(match d.tag()? {
        "invalid_character" => SyntaxError::InvalidCharacter {
            ch: ch_of(d.u32()?)?,
            line: d.u32()?,
        },
        "unbalanced_delimiter" => SyntaxError::UnbalancedDelimiter {
            ch: ch_of(d.u32()?)?,
            line: d.u32()?,
        },
        "unterminated_literal" => SyntaxError::UnterminatedLiteral { line: d.u32()? },
        "empty_translation_unit" => SyntaxError::EmptyTranslationUnit,
        other => return Err(format!("bad syntax-error tag {other:?}")),
    })
}

// ---------------------------------------------------------------------------
// Preproc entries: recorded header-inclusion effects.
// ---------------------------------------------------------------------------

pub(crate) fn encode_preproc_entry(key: &IncludeKey, effect: &IncludeEffect) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(&key.path);
    e.u64(key.closure_fp);
    e.u64(key.macro_fp);
    e.u64(key.pragma_fp);
    e.u64(u64::from(key.depth));
    e.str(&effect.chunk);
    e.opt(effect.exit_marker.as_ref(), encode_marker);
    e.seq(&effect.errors, encode_cpp_error);
    e.seq(&effect.expanded, |e, name| e.str(name));
    e.seq(&effect.includes, |e, inc| e.str(inc));
    e.seq(&effect.pragma_adds, |e, p| e.str(p));
    e.seq(&effect.macro_events, |e, event| match event {
        MacroEvent::Define(def) => {
            e.tag("define");
            encode_macro_def(e, def);
        }
        MacroEvent::Undef(name) => {
            e.tag("undef");
            e.str(name);
        }
    });
    e.opt(effect.first_flush.as_ref(), encode_marker);
    e.buf
}

pub(crate) fn decode_preproc_entry(payload: &[u8]) -> Result<(IncludeKey, IncludeEffect), String> {
    let mut d = Dec::new(payload);
    let key = IncludeKey {
        path: d.str()?,
        closure_fp: d.u64()?,
        macro_fp: d.u64()?,
        pragma_fp: d.u64()?,
        depth: d.u32()?,
    };
    let effect = IncludeEffect {
        chunk: d.str()?,
        exit_marker: d.opt(decode_marker)?,
        errors: d.seq(decode_cpp_error)?,
        expanded: d.seq(Dec::str)?,
        includes: d.seq(Dec::str)?,
        pragma_adds: d.seq(Dec::str)?,
        macro_events: d.seq(|d| match d.tag()? {
            "define" => Ok(MacroEvent::Define(Arc::new(decode_macro_def(d)?))),
            "undef" => Ok(MacroEvent::Undef(d.str()?)),
            other => Err(format!("bad macro-event tag {other:?}")),
        })?,
        first_flush: d.opt(decode_marker)?,
    };
    if !d.at_end() {
        return Err("trailing bytes".to_string());
    }
    Ok((key, effect))
}

/// A `(file, line)` output marker.
fn encode_marker(e: &mut Enc, (file, line): &(String, u32)) {
    e.str(file);
    e.u64(u64::from(*line));
}

fn decode_marker(d: &mut Dec) -> Result<(String, u32), String> {
    Ok((d.str()?, d.u32()?))
}

fn encode_macro_def(e: &mut Enc, def: &MacroDef) {
    e.str(&def.name);
    e.opt(def.params.as_ref(), |e, params| {
        e.seq(params, |e, p| e.str(p))
    });
    e.boolean(def.variadic);
    e.seq(&def.body, encode_token);
}

fn decode_macro_def(d: &mut Dec) -> Result<MacroDef, String> {
    Ok(MacroDef {
        name: d.str()?,
        params: d.opt(|d| d.seq(Dec::str))?,
        variadic: d.boolean()?,
        body: d.seq(decode_token)?,
    })
}

fn encode_token(e: &mut Enc, t: &Token) {
    match t.kind {
        TokenKind::Ident => e.tag("id"),
        TokenKind::Number => e.tag("num"),
        TokenKind::Str => e.tag("str"),
        TokenKind::Char => e.tag("chr"),
        TokenKind::Punct => e.tag("pun"),
        TokenKind::Other(c) => {
            e.tag("oth");
            e.u64(u64::from(c as u32));
        }
    }
    e.str(&t.text);
    e.boolean(t.space_before);
    e.u64(u64::from(t.line));
}

fn decode_token(d: &mut Dec) -> Result<Token, String> {
    let kind = match d.tag()? {
        "id" => TokenKind::Ident,
        "num" => TokenKind::Number,
        "str" => TokenKind::Str,
        "chr" => TokenKind::Char,
        "pun" => TokenKind::Punct,
        "oth" => {
            let v = d.u32()?;
            TokenKind::Other(char::from_u32(v).ok_or_else(|| format!("bad char {v:#x}"))?)
        }
        other => return Err(format!("bad token kind {other:?}")),
    };
    let text = d.str()?;
    let space_before = d.boolean()?;
    let line = d.u32()?;
    Ok(Token {
        kind,
        text,
        space_before,
        line,
    })
}

fn encode_cpp_error(e: &mut Enc, err: &CppError) {
    e.str(&err.file);
    e.u64(u64::from(err.line));
    match &err.kind {
        CppErrorKind::IncludeNotFound(t) => {
            e.tag("include_not_found");
            e.str(t);
        }
        CppErrorKind::IncludeDepthExceeded => e.tag("include_depth_exceeded"),
        CppErrorKind::MalformedDirective(m) => {
            e.tag("malformed_directive");
            e.str(m);
        }
        CppErrorKind::BadExpression(x) => {
            e.tag("bad_expression");
            e.str(x);
        }
        CppErrorKind::UserError(m) => {
            e.tag("user_error");
            e.str(m);
        }
        CppErrorKind::UnterminatedConditional => e.tag("unterminated_conditional"),
        CppErrorKind::WrongArgumentCount {
            name,
            expected,
            got,
        } => {
            e.tag("wrong_argument_count");
            e.str(name);
            e.u64(*expected as u64);
            e.u64(*got as u64);
        }
    }
}

fn decode_cpp_error(d: &mut Dec) -> Result<CppError, String> {
    let file = d.str()?;
    let line = d.u32()?;
    let kind = match d.tag()? {
        "include_not_found" => CppErrorKind::IncludeNotFound(d.str()?),
        "include_depth_exceeded" => CppErrorKind::IncludeDepthExceeded,
        "malformed_directive" => CppErrorKind::MalformedDirective(d.str()?),
        "bad_expression" => CppErrorKind::BadExpression(d.str()?),
        "user_error" => CppErrorKind::UserError(d.str()?),
        "unterminated_conditional" => CppErrorKind::UnterminatedConditional,
        "wrong_argument_count" => CppErrorKind::WrongArgumentCount {
            name: d.str()?,
            expected: d.u64()? as usize,
            got: d.u64()? as usize,
        },
        other => return Err(format!("bad cpp-error tag {other:?}")),
    };
    Ok(CppError { file, line, kind })
}

// ---------------------------------------------------------------------------
// Config entries.
// ---------------------------------------------------------------------------

pub(crate) fn encode_config_entry(fingerprint: u64, content_fp: u64, cfg: &BuildConfig) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(fingerprint);
    e.u64(content_fp);
    e.str(cfg.arch.name);
    match &cfg.kind {
        ConfigKind::AllYes => e.tag("allyes"),
        ConfigKind::AllMod => e.tag("allmod"),
        ConfigKind::Defconfig(path) => {
            e.tag("defconfig");
            e.str(path);
        }
        ConfigKind::Custom { name, content } => {
            e.tag("custom");
            e.str(name);
            e.str(content);
        }
        ConfigKind::Rand { seed } => {
            e.tag("rand");
            e.u64(*seed);
        }
    }
    // The Config's `.config` rendering lists every symbol (set *and*
    // explicitly-unset) in BTreeMap order — a lossless, deterministic
    // serialization the decoder re-parses line by line.
    e.str(&cfg.config.render());
    let symbols: Vec<&Symbol> = cfg.model.symbols().collect();
    e.seq(&symbols, |e, sym| {
        e.str(&sym.name);
        e.tag(match sym.ty {
            SymbolType::Bool => "bool",
            SymbolType::Tristate => "tristate",
            SymbolType::Int => "int",
            SymbolType::Hex => "hex",
            SymbolType::String => "string",
        });
        e.opt(sym.prompt.as_deref(), Enc::str);
        e.opt(sym.depends.as_ref(), encode_expr);
        e.seq(&sym.selects, |e, (target, cond)| {
            e.str(target);
            e.opt(cond.as_ref(), encode_expr);
        });
        e.seq(&sym.defaults, |e, (value, cond)| {
            e.tag(&value.to_string());
            e.opt(cond.as_ref(), encode_expr);
        });
        e.str(&sym.declared_in);
        e.opt(sym.choice_group, |e, g| e.u64(u64::from(g)));
    });
    e.buf
}

pub(crate) fn decode_config_entry(
    payload: &[u8],
    registry: &ArchRegistry,
) -> Result<(u64, u64, BuildConfig), String> {
    let mut d = Dec::new(payload);
    let fingerprint = d.u64()?;
    let content_fp = d.u64()?;
    let arch_name = d.str()?;
    let arch = registry
        .get(&arch_name)
        .ok_or_else(|| format!("unknown arch {arch_name:?}"))?;
    let kind = match d.tag()? {
        "allyes" => ConfigKind::AllYes,
        "allmod" => ConfigKind::AllMod,
        "defconfig" => ConfigKind::Defconfig(d.str()?),
        "custom" => ConfigKind::Custom {
            name: d.str()?,
            content: d.str()?,
        },
        "rand" => ConfigKind::Rand { seed: d.u64()? },
        other => return Err(format!("bad kind tag {other:?}")),
    };
    let config = parse_config_render(&d.str()?)?;
    let mut model = KconfigModel::new();
    for sym in d.seq(decode_symbol)? {
        model.insert(sym);
    }
    if !d.at_end() {
        return Err("trailing bytes".to_string());
    }
    let built = BuildConfig::from_parts(arch, kind, config, model);
    if built.content_fingerprint() != content_fp {
        // The stored key disagrees with the recomputed one — the entry
        // cannot be trusted to answer the lookups it claims to.
        return Err("content fingerprint mismatch".to_string());
    }
    Ok((fingerprint, content_fp, built))
}

fn decode_symbol(d: &mut Dec) -> Result<Symbol, String> {
    Ok(Symbol {
        name: d.str()?,
        ty: match d.tag()? {
            "bool" => SymbolType::Bool,
            "tristate" => SymbolType::Tristate,
            "int" => SymbolType::Int,
            "hex" => SymbolType::Hex,
            "string" => SymbolType::String,
            other => return Err(format!("bad symbol type {other:?}")),
        },
        prompt: d.opt(Dec::str)?,
        depends: d.opt(decode_expr)?,
        selects: d.seq(|d| Ok((d.str()?, d.opt(decode_expr)?)))?,
        defaults: d.seq(|d| Ok((parse_tristate(d.tag()?)?, d.opt(decode_expr)?)))?,
        declared_in: d.str()?,
        choice_group: d.opt(Dec::u32)?,
    })
}

/// `Expr::Display` round-trips through `Expr::parse` (pinned by
/// jmake-kconfig's display_round_trips test).
fn encode_expr(e: &mut Enc, x: &Expr) {
    e.str(&x.to_string());
}

fn decode_expr(d: &mut Dec) -> Result<Expr, String> {
    Expr::parse(&d.str()?).map_err(|e| format!("bad expr: {e}"))
}

fn parse_tristate(tag: &str) -> Result<Tristate, String> {
    let mut chars = tag.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => {
            Tristate::from_config_char(c).ok_or_else(|| format!("bad tristate {tag:?}"))
        }
        _ => Err(format!("bad tristate {tag:?}")),
    }
}

/// Re-parse `Config::render` output: `CONFIG_X=y|m` or
/// `# CONFIG_X is not set`, one line each.
fn parse_config_render(text: &str) -> Result<Config, String> {
    let mut config = Config::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# CONFIG_") {
            let name = rest
                .strip_suffix(" is not set")
                .ok_or_else(|| format!("bad config line {line:?}"))?;
            config.set(name, Tristate::N);
        } else if let Some(rest) = line.strip_prefix("CONFIG_") {
            let (name, value) = rest
                .split_once('=')
                .ok_or_else(|| format!("bad config line {line:?}"))?;
            let value = parse_tristate(value)?;
            config.set(name, value);
        } else if !line.trim().is_empty() {
            return Err(format!("bad config line {line:?}"));
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BuildEngine, ConfigKind};
    use crate::tree::SourceTree;
    use jmake_faults::{FaultKind, FaultSpec};
    use std::collections::HashSet;

    fn tiny_tree() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert(
            "Kconfig",
            "config NET\n\tbool \"net\"\n\nconfig E1000\n\ttristate \"e1000\"\n\tdepends on NET\n",
        );
        t.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        t.insert("Makefile", "obj-y += kernel/\n");
        t.insert("kernel/Makefile", "obj-y += core.o\n");
        t.insert("kernel/core.c", "int core;\n");
        t
    }

    fn sample_object() -> (ObjectKey, CachedObj) {
        let key = ObjectKey {
            blob: ContentHash::of("int x;\n"),
            path: Arc::from("drivers/net/a.c"),
            include_fp: 0x1234,
            env_fp: 0x5678,
            module: true,
            arch: "x86_64",
            kind: ObjKind::I,
        };
        let mut macros = HashSet::new();
        macros.insert("CONFIG_NET".to_string());
        macros.insert("MODULE".to_string());
        let obj = CachedObj::I {
            text_len: 42,
            result: Ok(IFile {
                path: "drivers/net/a.c".to_string(),
                text: "int x;\nweird \"text\"\nwith\nnewlines\n".to_string(),
                expanded_macros: macros,
                includes: vec!["include/linux/k.h".to_string()],
            }),
        };
        (key, obj)
    }

    fn solved_config() -> Arc<BuildConfig> {
        let mut engine = BuildEngine::new(tiny_tree());
        engine.make_config("x86_64", &ConfigKind::AllYes).unwrap()
    }

    fn sample_preproc() -> (IncludeKey, IncludeEffect) {
        let key = IncludeKey {
            path: "include/linux/k.h".to_string(),
            closure_fp: 0xfeed,
            macro_fp: 0xbead,
            pragma_fp: 0,
            depth: 2,
        };
        let effect = IncludeEffect {
            chunk: "# 1 \"include/linux/k.h\"\nint k;\nweird \"text\"\n".to_string(),
            exit_marker: Some(("drivers/net/a.c".to_string(), 17)),
            errors: vec![
                CppError {
                    file: "include/linux/k.h".into(),
                    line: 3,
                    kind: CppErrorKind::IncludeNotFound("missing.h".into()),
                },
                CppError {
                    file: "include/linux/k.h".into(),
                    line: 9,
                    kind: CppErrorKind::WrongArgumentCount {
                        name: "MAX".into(),
                        expected: 2,
                        got: 3,
                    },
                },
            ],
            expanded: vec!["CONFIG_NET".to_string()],
            includes: vec!["include/linux/inner.h".to_string()],
            pragma_adds: vec!["include/linux/k.h".to_string()],
            macro_events: vec![
                MacroEvent::Define(Arc::new(MacroDef::object("K", "1"))),
                MacroEvent::Define(Arc::new(MacroDef::function(
                    "MAX",
                    vec!["a".into(), "b".into()],
                    "((a)>(b)?(a):(b))",
                ))),
                MacroEvent::Undef("K".to_string()),
            ],
            first_flush: Some(("include/linux/k.h".to_string(), 1)),
        };
        (key, effect)
    }

    #[test]
    fn object_entry_round_trips() {
        let registry = ArchRegistry::new();
        let (key, obj) = sample_object();
        let payload = encode_object_entry(&key, &obj);
        let (key2, obj2) = decode_object_entry(&payload, &registry).unwrap();
        assert_eq!(key, key2);
        assert_eq!(payload, encode_object_entry(&key2, &obj2));
    }

    #[test]
    fn object_entry_round_trips_every_error_shape() {
        let registry = ArchRegistry::new();
        let (key, _) = sample_object();
        let errors = vec![
            BuildError::UnknownArch("weird".into()),
            BuildError::KconfigParse("bad line".into()),
            BuildError::PreprocessFailed {
                file: "a.c".into(),
                first_error: "missing.h not found".into(),
            },
            BuildError::FrontEndRejected {
                file: "a.c".into(),
                error: SyntaxError::UnbalancedDelimiter { ch: '}', line: 7 },
            },
            BuildError::RetriesExhausted {
                op: "make_o",
                attempts: 4,
            },
        ];
        for err in errors {
            let key = ObjectKey {
                kind: ObjKind::O,
                ..key.clone()
            };
            let obj = CachedObj::O {
                text_len: 9,
                result: Err(err),
            };
            let payload = encode_object_entry(&key, &obj);
            let (key2, obj2) = decode_object_entry(&payload, &registry).unwrap();
            assert_eq!(key, key2);
            assert_eq!(payload, encode_object_entry(&key2, &obj2));
        }
    }

    #[test]
    fn preproc_entry_round_trips() {
        let (key, effect) = sample_preproc();
        let payload = encode_preproc_entry(&key, &effect);
        let (key2, effect2) = decode_preproc_entry(&payload).unwrap();
        assert_eq!(key, key2);
        assert_eq!(effect.chunk, effect2.chunk);
        assert_eq!(effect.macro_events, effect2.macro_events);
        assert_eq!(payload, encode_preproc_entry(&key2, &effect2));
    }

    #[test]
    fn preproc_entry_round_trips_empty_effect() {
        let (key, _) = sample_preproc();
        let effect = IncludeEffect::default();
        let payload = encode_preproc_entry(&key, &effect);
        let (key2, effect2) = decode_preproc_entry(&payload).unwrap();
        assert_eq!(key, key2);
        assert_eq!(payload, encode_preproc_entry(&key2, &effect2));
    }

    #[test]
    fn config_entry_round_trips() {
        let registry = ArchRegistry::new();
        let cfg = solved_config();
        let payload = encode_config_entry(11, 0, &cfg);
        let (fp, content_fp, cfg2) = decode_config_entry(&payload, &registry).unwrap();
        assert_eq!((fp, content_fp), (11, 0));
        assert_eq!(cfg.config, cfg2.config);
        assert_eq!(cfg.env_fingerprint(), cfg2.env_fingerprint());
        assert_eq!(cfg.key(), cfg2.key());
        assert_eq!(payload, encode_config_entry(11, 0, &cfg2));
    }

    #[test]
    fn store_load_round_trips_through_disk() {
        let dir = tempdir("round");
        let disk = DiskCache::open(&dir).unwrap();
        let objects = ObjectCache::new();
        let configs = ConfigCache::new();
        let preproc = PreprocCache::new();
        let (key, obj) = sample_object();
        objects.insert(key.clone(), Arc::new(obj));
        let cfg = solved_config();
        configs.insert((5, cfg.key().clone(), 0), Arc::clone(&cfg));
        let (pkey, effect) = sample_preproc();
        preproc.insert(pkey.clone(), Arc::new(effect));
        let stored = disk.store(&objects, &configs, &preproc).unwrap();
        assert_eq!(
            (stored.objects_stored, stored.configs_stored, stored.preproc_stored),
            (1, 1, 1)
        );
        // Storing again writes nothing: entries are immutable.
        let again = disk.store(&objects, &configs, &preproc).unwrap();
        assert_eq!(
            (again.objects_stored, again.configs_stored, again.preproc_stored),
            (0, 0, 0)
        );

        let objects2 = ObjectCache::new();
        let configs2 = ConfigCache::new();
        let preproc2 = PreprocCache::new();
        let loaded = disk
            .load(&objects2, &configs2, &preproc2, &Faults::disabled())
            .unwrap();
        assert_eq!(
            (loaded.objects_loaded, loaded.configs_loaded, loaded.preproc_loaded),
            (1, 1, 1)
        );
        assert_eq!(loaded.entries_quarantined, 0);
        assert!(objects2.peek(&key).is_some());
        assert!(configs2.peek(&(5, cfg.key().clone(), 0)).is_some());
        assert!(preproc2.peek(&pkey).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entry_is_quarantined_not_served() {
        let dir = tempdir("trunc");
        let disk = DiskCache::open(&dir).unwrap();
        let objects = ObjectCache::new();
        let configs = ConfigCache::new();
        let (key, obj) = sample_object();
        objects.insert(key.clone(), Arc::new(obj));
        disk.store(&objects, &configs, &PreprocCache::new()).unwrap();
        let entry = find_one_entry(&dir, "objects");
        let bytes = std::fs::read(&entry).unwrap();
        std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

        let objects2 = ObjectCache::new();
        let loaded = disk
            .load(&objects2, &configs, &PreprocCache::new(), &Faults::disabled())
            .unwrap();
        assert_eq!(loaded.objects_loaded, 0);
        assert_eq!(loaded.entries_quarantined, 1);
        assert!(objects2.peek(&key).is_none());
        assert!(!entry.exists(), "corrupt entry must leave the live tree");
        assert!(dir.join("quarantine").read_dir().unwrap().next().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_digest_byte_is_quarantined() {
        let dir = tempdir("flip");
        let disk = DiskCache::open(&dir).unwrap();
        let objects = ObjectCache::new();
        let configs = ConfigCache::new();
        let (key, obj) = sample_object();
        objects.insert(key.clone(), Arc::new(obj));
        disk.store(&objects, &configs, &PreprocCache::new()).unwrap();
        let entry = find_one_entry(&dir, "objects");
        let mut bytes = std::fs::read(&entry).unwrap();
        // Flip one hex digit of the digest line (second line).
        let digest_pos = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[digest_pos] = if bytes[digest_pos] == b'0' { b'1' } else { b'0' };
        std::fs::write(&entry, &bytes).unwrap();

        let objects2 = ObjectCache::new();
        let loaded = disk
            .load(&objects2, &configs, &PreprocCache::new(), &Faults::disabled())
            .unwrap();
        assert_eq!(loaded.objects_loaded, 0);
        assert_eq!(loaded.entries_quarantined, 1);
        assert!(objects2.peek(&key).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_injected_corruption_quarantines_and_counts() {
        let dir = tempdir("fault");
        let disk = DiskCache::open(&dir).unwrap();
        let objects = ObjectCache::new();
        let configs = ConfigCache::new();
        let (key, obj) = sample_object();
        objects.insert(key, Arc::new(obj));
        disk.store(&objects, &configs, &PreprocCache::new()).unwrap();

        let faults = Faults::new(FaultSpec::default().with_rate(FaultKind::Corrupt, 1.0), 9);
        let objects2 = ObjectCache::new();
        let loaded = disk
            .load(&objects2, &configs, &PreprocCache::new(), &faults)
            .unwrap();
        assert_eq!(loaded.objects_loaded, 0);
        assert_eq!(loaded.entries_quarantined, 1);
        let snap = faults.stats_snapshot();
        assert_eq!(snap.corruptions_detected, 1);
        assert!(snap.injected_corrupt >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Write one entry with a valid digest whose first string field
    /// (after the fixed-width `prefix` fields) claims `usize::MAX` bytes,
    /// then load the tier: the entry must quarantine, not panic.
    fn forged_length_is_quarantined<E: Entry>(prefix: &str) {
        let dir = tempdir(&format!("forged-{}", E::SECTION));
        let disk = DiskCache::open(&dir).unwrap();
        let payload = format!("{prefix}{}\nx\n", usize::MAX);
        assert!(disk
            .write_entry(E::SECTION, 1, E::MAGIC, payload.as_bytes())
            .unwrap());
        let loaded = disk
            .load(
                &ObjectCache::new(),
                &ConfigCache::new(),
                &PreprocCache::new(),
                &Faults::disabled(),
            )
            .unwrap();
        assert_eq!(loaded.entries_quarantined, 1);
        assert_eq!(
            loaded.objects_loaded + loaded.configs_loaded + loaded.preproc_loaded,
            0
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_object_string_length_is_quarantined() {
        // Blob hash halves, then the path.
        forged_length_is_quarantined::<CachedObj>("0000000000000001\n0000000000000002\n");
    }

    #[test]
    fn forged_config_string_length_is_quarantined() {
        // Tree and content fingerprints, then the arch name.
        forged_length_is_quarantined::<BuildConfig>("0000000000000001\n0000000000000000\n");
    }

    #[test]
    fn forged_preproc_string_length_is_quarantined() {
        // The header path comes first.
        forged_length_is_quarantined::<IncludeEffect>("");
    }

    mod decode_fuzz {
        use super::*;
        use proptest::prelude::*;

        /// Feed `E::decode` arbitrary bytes, a truncation and a one-byte
        /// rewrite of `valid`: each must answer `Ok` or `Err`, never
        /// panic.
        fn decode_survives<E: Entry>(valid: &[u8], noise: &[u8], cut: usize, at: usize, byte: u8) {
            let registry = ArchRegistry::new();
            let _ = E::decode(noise, &registry);
            let _ = E::decode(&valid[..cut % (valid.len() + 1)], &registry);
            let mut flipped = valid.to_vec();
            flipped[at % valid.len()] = byte;
            let _ = E::decode(&flipped, &registry);
        }

        proptest! {
            #[test]
            fn decoders_never_panic(
                noise in prop::collection::vec(0u8..=255, 0..96),
                cut in 0usize..4096,
                at in 0usize..4096,
                byte in 0u8..=255,
            ) {
                let (key, obj) = sample_object();
                let payload = CachedObj::encode(&key, &obj);
                decode_survives::<CachedObj>(&payload, &noise, cut, at, byte);
                let cfg = solved_config();
                let payload = BuildConfig::encode(&(7, cfg.key().clone(), 0), &cfg);
                decode_survives::<BuildConfig>(&payload, &noise, cut, at, byte);
                let (key, effect) = sample_preproc();
                let payload = IncludeEffect::encode(&key, &effect);
                decode_survives::<IncludeEffect>(&payload, &noise, cut, at, byte);
            }
        }
    }

    mod preproc_props {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary text, including newlines and quotes — the codec is
        /// length-prefixed, so any payload must round-trip byte-exactly.
        fn any_text() -> impl Strategy<Value = String> {
            "[ -~\n\"\\\\]{0,40}"
        }

        fn any_marker() -> impl Strategy<Value = Option<(String, u32)>> {
            proptest::option::of((any_text(), 0u32..u32::MAX))
        }

        fn any_event() -> impl Strategy<Value = MacroEvent> {
            prop_oneof![
                ("[A-Z_]{1,8}", "[ -~]{0,20}")
                    .prop_map(|(n, b)| MacroEvent::Define(Arc::new(MacroDef::object(n, &b)))),
                (
                    "[A-Z_]{1,8}",
                    proptest::collection::vec("[a-z]{1,4}".prop_map(String::from), 0..3),
                    "[ -~]{0,20}"
                )
                    .prop_map(|(n, p, b)| MacroEvent::Define(Arc::new(MacroDef::function(n, p, &b)))),
                "[A-Z_]{1,8}".prop_map(MacroEvent::Undef),
            ]
        }

        fn any_effect() -> impl Strategy<Value = IncludeEffect> {
            (
                (any_text(), any_marker(), any_marker()),
                (
                    proptest::collection::vec(any_text(), 0..4),
                    proptest::collection::vec(any_text(), 0..4),
                    proptest::collection::vec(any_text(), 0..4),
                    proptest::collection::vec(any_event(), 0..4),
                ),
            )
                .prop_map(
                    |(
                        (chunk, exit_marker, first_flush),
                        (expanded, includes, pragma_adds, macro_events),
                    )| IncludeEffect {
                        chunk,
                        exit_marker,
                        errors: Vec::new(),
                        expanded,
                        includes,
                        pragma_adds,
                        macro_events,
                        first_flush,
                    },
                )
        }

        proptest! {
            /// encode → decode → encode is a fixpoint for any effect.
            #[test]
            fn preproc_entries_round_trip(
                path in "[ -~]{1,30}",
                closure_fp in 0u64..u64::MAX,
                macro_fp in 0u64..u64::MAX,
                pragma_fp in 0u64..u64::MAX,
                depth in 0u32..u32::MAX,
                effect in any_effect(),
            ) {
                let key = IncludeKey { path, closure_fp, macro_fp, pragma_fp, depth };
                let payload = encode_preproc_entry(&key, &effect);
                let (key2, effect2) = decode_preproc_entry(&payload).unwrap();
                prop_assert_eq!(&key, &key2);
                prop_assert_eq!(&effect.macro_events, &effect2.macro_events);
                prop_assert_eq!(payload, encode_preproc_entry(&key2, &effect2));
            }
        }
    }

    /// The tree fingerprint as builds before the tree-maintained config
    /// digest computed it: FNV over the sorted Kconfig/defconfig paths
    /// and their content.
    fn fnv_tree_fingerprint(tree: &SourceTree) -> u64 {
        let mut h = Fnv::new();
        for (p, c) in tree.iter() {
            let name = p.rsplit('/').next().unwrap_or(p);
            if name.contains("Kconfig") || (p.starts_with("arch/") && p.contains("/configs/")) {
                h.write(p.as_bytes());
                h.write(&[0]);
                h.write(c.as_bytes());
                h.write(&[0xff]);
            }
        }
        h.finish()
    }

    #[test]
    fn configs_keyed_by_an_older_tree_fingerprint_load_but_only_miss() {
        let dir = tempdir("old-fingerprint");
        let disk = DiskCache::open(&dir).unwrap();
        let tree = tiny_tree();
        let old_fp = fnv_tree_fingerprint(&tree);
        assert_ne!(old_fp, tree.config_digest());
        let configs = ConfigCache::new();
        let cfg = solved_config();
        configs.insert((old_fp, cfg.key().clone(), 0), cfg);
        disk.store(&ObjectCache::new(), &configs, &PreprocCache::new())
            .unwrap();

        // The tier loads cleanly; the entry is never served to the tree
        // it was solved for, so the config is solved afresh.
        let loaded = Arc::new(ConfigCache::new());
        let stats = disk
            .load(
                &ObjectCache::new(),
                &loaded,
                &PreprocCache::new(),
                &Faults::disabled(),
            )
            .unwrap();
        assert_eq!((stats.configs_loaded, stats.entries_quarantined), (1, 0));
        let mut engine = BuildEngine::with_shared_cache(tree, Arc::clone(&loaded));
        engine.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let s = loaded.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file under `root` as `(relative path, bytes)`, sorted.
    fn tier_files(root: &Path) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                    out.push((rel, String::from_utf8(std::fs::read(&path).unwrap()).unwrap()));
                }
            }
        }
        out.sort();
        out
    }

    /// The exact files one sample entry per section stores to. A tier
    /// written by any earlier build must keep loading, so the names,
    /// frames and payload bytes may never drift.
    #[test]
    fn on_disk_format_is_pinned() {
        let dir = tempdir("golden");
        let disk = DiskCache::open(&dir).unwrap();
        let objects = ObjectCache::new();
        let (key, obj) = sample_object();
        objects.insert(key, Arc::new(obj));
        let configs = Arc::new(ConfigCache::new());
        BuildEngine::with_shared_cache(tiny_tree(), Arc::clone(&configs))
            .make_config("x86_64", &ConfigKind::AllYes)
            .unwrap();
        let preproc = PreprocCache::new();
        let (pkey, effect) = sample_preproc();
        preproc.insert(pkey, Arc::new(effect));
        disk.store(&objects, &configs, &preproc).unwrap();

        let config = concat!(
            "jmake-cache v1 config\nd21141a56bcdaf3c\n",
            "c9b16ac762100716\n0000000000000000\n6\nx86_64\nallyes\n",
            "44\nCONFIG_E1000=y\nCONFIG_NET=y\nCONFIG_X86_64=y\n\n",
            "0000000000000003\n",
            "5\nE1000\ntristate\nsome\n5\ne1000\nsome\n3\nNET\n",
            "0000000000000000\n0000000000000000\n7\nKconfig\nnone\n",
            "3\nNET\nbool\nsome\n3\nnet\nnone\n",
            "0000000000000000\n0000000000000000\n7\nKconfig\nnone\n",
            "6\nX86_64\nbool\nnone\nnone\n",
            "0000000000000000\n0000000000000001\ny\nnone\n19\narch/x86_64/Kconfig\nnone\n",
        );
        let object = concat!(
            "jmake-cache v1 object\n4f9b137b14c2b1dc\n",
            "cebbb8a74bd80e97\n5954734dcbf0f087\n15\ndrivers/net/a.c\n",
            "0000000000001234\n0000000000005678\ny\n6\nx86_64\n",
            "I\n000000000000002a\nok\n15\ndrivers/net/a.c\n",
            "34\nint x;\nweird \"text\"\nwith\nnewlines\n\n",
            "0000000000000002\n10\nCONFIG_NET\n6\nMODULE\n",
            "0000000000000001\n17\ninclude/linux/k.h\n",
        );
        let preproc_entry = concat!(
            "jmake-cache v1 preproc\n0946c2956bb2828f\n",
            "17\ninclude/linux/k.h\n000000000000feed\n000000000000bead\n",
            "0000000000000000\n0000000000000002\n",
            "44\n# 1 \"include/linux/k.h\"\nint k;\nweird \"text\"\n\n",
            "some\n15\ndrivers/net/a.c\n0000000000000011\n",
            "0000000000000002\n",
            "17\ninclude/linux/k.h\n0000000000000003\ninclude_not_found\n9\nmissing.h\n",
            "17\ninclude/linux/k.h\n0000000000000009\nwrong_argument_count\n3\nMAX\n",
            "0000000000000002\n0000000000000003\n",
            "0000000000000001\n10\nCONFIG_NET\n",
            "0000000000000001\n21\ninclude/linux/inner.h\n",
            "0000000000000001\n17\ninclude/linux/k.h\n",
            "0000000000000003\n",
            "define\n1\nK\nnone\nn\n0000000000000001\nnum\n1\n1\nn\n0000000000000000\n",
            "define\n3\nMAX\nsome\n0000000000000002\n1\na\n1\nb\nn\n0000000000000011\n",
            "pun\n1\n(\nn\n0000000000000000\npun\n1\n(\nn\n0000000000000000\n",
            "id\n1\na\nn\n0000000000000000\npun\n1\n)\nn\n0000000000000000\n",
            "pun\n1\n>\nn\n0000000000000000\npun\n1\n(\nn\n0000000000000000\n",
            "id\n1\nb\nn\n0000000000000000\npun\n1\n)\nn\n0000000000000000\n",
            "pun\n1\n?\nn\n0000000000000000\npun\n1\n(\nn\n0000000000000000\n",
            "id\n1\na\nn\n0000000000000000\npun\n1\n)\nn\n0000000000000000\n",
            "pun\n1\n:\nn\n0000000000000000\npun\n1\n(\nn\n0000000000000000\n",
            "id\n1\nb\nn\n0000000000000000\npun\n1\n)\nn\n0000000000000000\n",
            "pun\n1\n)\nn\n0000000000000000\n",
            "undef\n1\nK\n",
            "some\n17\ninclude/linux/k.h\n0000000000000001\n",
        );
        let expected: Vec<(String, String)> = [
            ("configs/59/591c77db85f65e56.entry", config),
            ("objects/b1/b1c43af3f6fdd6af.entry", object),
            ("preproc/1d/1dcfc02a747c6084.entry", preproc_entry),
        ]
        .iter()
        .map(|(p, b)| (p.to_string(), b.to_string()))
        .collect();
        assert_eq!(tier_files(&dir), expected);

        // The pinned files load back whole, and storing the same entries
        // again writes nothing new.
        let loaded = disk
            .load(
                &ObjectCache::new(),
                &ConfigCache::new(),
                &PreprocCache::new(),
                &Faults::disabled(),
            )
            .unwrap();
        assert_eq!(
            (
                loaded.objects_loaded,
                loaded.configs_loaded,
                loaded.preproc_loaded,
                loaded.entries_quarantined
            ),
            (1, 1, 1, 0)
        );
        let again = disk.store(&objects, &configs, &preproc).unwrap();
        assert_eq!(
            (again.objects_stored, again.configs_stored, again.preproc_stored),
            (0, 0, 0)
        );
        assert_eq!(tier_files(&dir), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "jmake-diskcache-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn find_one_entry(root: &Path, section: &str) -> PathBuf {
        let disk = DiskCache { root: root.to_path_buf() };
        disk.entry_files(section).unwrap().pop().expect("one entry")
    }
}
