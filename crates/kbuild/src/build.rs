//! The build engine: `make allyesconfig`, `make file.i`, `make file.o`.

use crate::arch::{Arch, ArchRegistry};
use crate::cache::ConfigCache;
use crate::clock::{CostModel, SampleKind, VirtualClock};
use crate::hash::{ContentHash, Fnv};
use crate::objcache::{include_fingerprint, CachedObj, ObjKind, ObjectCache, ObjectKey};
use crate::objgraph::ObjGraph;
use crate::ppcache::{PreprocCache, TreeMemo};
use crate::store::Lookup;
use crate::tree::SourceTree;
use jmake_cpp::{
    validate, IncludeResolver, MacroDef, MacroTable, PreprocessOutput, Preprocessor, SyntaxError,
};
use jmake_faults::{FaultSite, Faults};
use jmake_kconfig::{Config, DeadSymbols, KconfigModel, Tristate};
use jmake_trace::{CacheOutcome, Span, Stage, Tracer};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Which configuration to create (paper §II.B).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// `make allyesconfig` — JMake's primary choice.
    AllYes,
    /// `make allmodconfig` — measured as the paper's suggested extension.
    AllMod,
    /// A prepared configuration file from an `arch/*/configs` directory.
    Defconfig(String),
    /// A synthesized configuration (coverage-maximizing generation, the
    /// §VII extension): `.config`-format content under a display name.
    Custom {
        /// Short label shown in reports (`cover-1`).
        name: String,
        /// `.config`-format assignments.
        content: String,
    },
    /// `make randconfig KCONFIG_SEED=seed` — a model-satisfying assignment
    /// sampled deterministically from the seed
    /// ([`KconfigModel::randconfig`]). The seed fully names the
    /// configuration: the same `(arch, seed)` pair solves to byte-identical
    /// content everywhere, so randconfigs are content-addressed by their
    /// `randconfig:{seed}` key exactly like every other solved config.
    Rand {
        /// The sampling seed (`--rand-seed` + portfolio member index).
        seed: u64,
    },
}

impl ConfigKind {
    fn cache_key(&self) -> String {
        match self {
            ConfigKind::AllYes => "allyesconfig".to_string(),
            ConfigKind::AllMod => "allmodconfig".to_string(),
            ConfigKind::Defconfig(p) => format!("defconfig:{p}"),
            ConfigKind::Custom { name, .. } => format!("custom:{name}"),
            ConfigKind::Rand { seed } => format!("randconfig:{seed}"),
        }
    }

    /// Content fingerprint widening cross-patch [`ConfigCache`] keys.
    /// Unlike the per-engine key, a custom configuration's *content* is
    /// folded into the shared key: two patches may reuse one display name
    /// for different synthesized configs, and the shared cache must not
    /// conflate them. Non-custom kinds are fully named by [`ConfigKey`]
    /// and fingerprint to zero.
    pub fn content_fingerprint(&self) -> u64 {
        match self {
            ConfigKind::Custom { content, .. } => {
                let mut h = Fnv::new();
                h.write(content.as_bytes());
                h.finish()
            }
            _ => 0,
        }
    }
}

impl fmt::Display for ConfigKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.cache_key())
    }
}

/// Interned cache identity of a configuration: `(arch, kind key)` as
/// shared `Arc<str>`s, precomputed once per [`BuildConfig`] so the hot
/// lookup paths (`setup_cost`, the per-engine memo, the shared
/// [`ConfigCache`]) hash existing allocations instead of formatting a
/// fresh `String` per call.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigKey {
    arch: Arc<str>,
    kind: Arc<str>,
}

impl ConfigKey {
    /// Build the key for `(arch, kind)`. Allocates; call once per
    /// configuration and clone afterwards (two `Arc` bumps).
    pub fn new(arch: &str, kind: &ConfigKind) -> ConfigKey {
        ConfigKey {
            arch: Arc::from(arch),
            kind: Arc::from(kind.cache_key().as_str()),
        }
    }

    /// The architecture name.
    pub fn arch(&self) -> &str {
        &self.arch
    }

    /// The kind's display key (`allyesconfig`, `defconfig:<path>`, …).
    pub fn kind_key(&self) -> &str {
        &self.kind
    }
}

/// A created configuration, ready to compile against.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// The architecture it was created for.
    pub arch: Arch,
    /// How it was created.
    pub kind: ConfigKind,
    /// Resolved symbol values.
    pub config: Config,
    /// The Kconfig model it was solved against (the failure classifier
    /// needs symbol declarations).
    pub model: KconfigModel,
    /// Interned `(arch, kind)` identity, precomputed at solve time.
    key: ConfigKey,
    /// `kind.content_fingerprint()`, precomputed at solve time.
    content_fp: u64,
    /// Fingerprint of the macro environment `config.cpp_defines()`
    /// induces — one of the object-cache key dimensions.
    env_fp: u64,
    /// Predefined preprocessor macro tables ([0] = builtin, [1] =
    /// modular), built from `config.cpp_defines()` on first use, frozen
    /// into their shared base, and shared by every clone — the per-file
    /// preprocess path copies one in O(1) instead of re-defining (or
    /// deep-copying) hundreds of `CONFIG_*` macros per translation unit.
    macros: Arc<[OnceLock<MacroTable>; 2]>,
}

impl BuildConfig {
    /// The interned `(arch, kind)` cache identity.
    pub fn key(&self) -> &ConfigKey {
        &self.key
    }

    /// The custom-content fingerprint (zero for non-custom kinds).
    pub fn content_fingerprint(&self) -> u64 {
        self.content_fp
    }

    /// The model's dead-symbol set: the linear worklist lint, memoized
    /// on the model itself ([`KconfigModel::dead_symbols`]). Configurations
    /// live behind `Arc` — including the ones the shared
    /// [`crate::ConfigCache`] hands to other workers — so one evaluation
    /// run pays the O(symbols + edges) lint once per distinct
    /// configuration rather than once per patch.
    pub fn dead_symbols(&self) -> &DeadSymbols {
        self.model.dead_symbols()
    }

    /// Fingerprint of the preprocessor macro environment this
    /// configuration induces.
    pub fn env_fingerprint(&self) -> u64 {
        self.env_fp
    }

    /// The predefined macro table this configuration induces on the
    /// preprocessor (`__KERNEL__`, `IS_ENABLED`, every `CONFIG_*`
    /// define, plus `MODULE` when the object builds modular). Built once
    /// per distinct configuration with every definition in the table's
    /// shared base, so the copy returned here costs a refcount bump; the
    /// multiset fingerprint is identical to defining each macro
    /// individually, so preprocess-memo keys are unchanged.
    pub(crate) fn macro_table(&self, module: bool) -> MacroTable {
        self.macros[usize::from(module)]
            .get_or_init(|| {
                let mut table = MacroTable::new();
                table.define(MacroDef::object("__KERNEL__", "1"));
                // The kernel's IS_ENABLED idiom: `#if IS_ENABLED(CONFIG_X)`
                // expands to the CONFIG macro itself — 1 when the option is
                // built in, an undefined identifier (hence 0 in #if)
                // otherwise. (The real kernel also covers =m; module-only
                // visibility is handled by the MODULE define below.)
                table.define(MacroDef::function(
                    "IS_ENABLED",
                    vec!["option".to_string()],
                    "(option)",
                ));
                for (name, value) in self.config.cpp_defines() {
                    table.define(MacroDef::object(name, &value));
                }
                // Kbuild defines MODULE when the object is built as a module.
                if module {
                    table.define(MacroDef::object("MODULE", "1"));
                }
                table.freeze();
                table
            })
            .clone()
    }

    /// Reassemble a configuration from its serialized parts (the disk
    /// cache tier). The derived fields — interned key, content and
    /// environment fingerprints, the model's dead-symbol memo, the lazy
    /// macro tables — are recomputed from the parts rather than trusted
    /// from disk, so a reassembled configuration is indistinguishable
    /// from a freshly solved one.
    pub(crate) fn from_parts(
        arch: Arch,
        kind: ConfigKind,
        config: Config,
        model: KconfigModel,
    ) -> BuildConfig {
        let key = ConfigKey::new(arch.name, &kind);
        let content_fp = kind.content_fingerprint();
        let env_fp = env_fingerprint_of(&config);
        BuildConfig {
            arch,
            kind,
            config,
            model,
            key,
            content_fp,
            env_fp,
            macros: Arc::new([OnceLock::new(), OnceLock::new()]),
        }
    }
}

/// Fingerprint the macro environment `config` induces on the
/// preprocessor. `Config` stores symbol values in a `BTreeMap`, so
/// `cpp_defines()` is deterministically ordered and the fingerprint is
/// stable across engines and runs.
fn env_fingerprint_of(config: &Config) -> u64 {
    let mut h = Fnv::new();
    for (name, value) in config.cpp_defines() {
        h.write(name.as_bytes());
        h.write(&[0x00]);
        h.write(value.as_bytes());
        h.write(&[0xff]);
    }
    h.finish()
}

/// Why a build operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No `arch/<name>` is known at all.
    UnknownArch(String),
    /// The architecture exists but its cross-compiler does not work
    /// (paper footnote 3).
    CrossCompilerMissing(String),
    /// `arch/<name>/Kconfig` is missing from the tree.
    NoKconfig(String),
    /// A Kconfig file failed to parse.
    KconfigParse(String),
    /// The target file does not exist.
    MissingFile(String),
    /// No Makefile covers the file's directory (paper §III.D lists this
    /// among JMake's reported errors).
    NoMakefile(String),
    /// The configuration does not enable compilation of the file.
    NotEnabled(String),
    /// A file involved in the build system's own preliminary compilation
    /// carries a mutation; no make invocation can run (paper §V.D).
    SetupCompilationFailed(String),
    /// The preprocessor reported errors (missing headers, `#error`, …).
    PreprocessFailed {
        /// The file being preprocessed.
        file: String,
        /// The first diagnostic (enough to report; the full set is large).
        first_error: String,
    },
    /// The compiler front end rejected the translation unit.
    FrontEndRejected {
        /// The file being compiled.
        file: String,
        /// What the front end objected to.
        error: SyntaxError,
    },
    /// Injected faults kept failing the operation until the bounded-retry
    /// budget ran out; callers degrade the trial instead of aborting the
    /// run. Only ever produced under `--faults`.
    RetriesExhausted {
        /// The fault site that exhausted its budget (`config_solve`,
        /// `make_i`, `make_o`).
        op: &'static str,
        /// Attempts consumed (the policy's `max_attempts`).
        attempts: u32,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownArch(a) => write!(f, "unknown architecture {a}"),
            BuildError::CrossCompilerMissing(a) => {
                write!(f, "cross-compiler for {a} does not work")
            }
            BuildError::NoKconfig(a) => write!(f, "arch/{a}/Kconfig not found"),
            BuildError::KconfigParse(m) => write!(f, "Kconfig parse failure: {m}"),
            BuildError::MissingFile(p) => write!(f, "no such file: {p}"),
            BuildError::NoMakefile(p) => write!(f, "no Makefile covers {p}"),
            BuildError::NotEnabled(p) => write!(f, "configuration does not build {p}"),
            BuildError::SetupCompilationFailed(p) => {
                write!(f, "build-system bootstrap file {p} does not compile")
            }
            BuildError::PreprocessFailed { file, first_error } => {
                write!(f, "preprocessing {file} failed: {first_error}")
            }
            BuildError::FrontEndRejected { file, error } => {
                write!(f, "compiling {file} failed: {error}")
            }
            BuildError::RetriesExhausted { op, attempts } => {
                write!(f, "{op} gave up after {attempts} attempts under injected faults")
            }
        }
    }
}

impl Error for BuildError {}

/// Per-file outcomes of one grouped `.i` invocation, in input order.
pub type IResults = Vec<(String, Result<IFile, BuildError>)>;

/// The result of `make file.i`.
#[derive(Debug, Clone)]
pub struct IFile {
    /// Source path.
    pub path: String,
    /// The preprocessed text — where JMake scans for its mutation tokens.
    pub text: String,
    /// Macros expanded during preprocessing.
    pub expanded_macros: std::collections::HashSet<String>,
    /// Headers pulled in.
    pub includes: Vec<String>,
}

/// The heavy file: compiling it triggers compilation of the entire
/// kernel (paper §V.C).
const HEAVY_FILE: &str = "arch/powerpc/kernel/prom_init.c";

/// Resolver over a [`SourceTree`] with kernel-style include paths.
struct TreeResolver<'t> {
    tree: &'t SourceTree,
    search_paths: Vec<String>,
}

impl<'t> IncludeResolver for TreeResolver<'t> {
    fn resolve(
        &self,
        target: &str,
        quoted: bool,
        including_file: &str,
    ) -> Option<(String, Arc<str>)> {
        jmake_cpp::resolve_include(target, quoted, including_file, &self.search_paths, |c| {
            self.tree.get_blob(c).map(|blob| blob.shared_text())
        })
    }
}

/// The engine. Owns the *pristine* tree (configs, Kconfig, Makefiles are
/// always read from it); `make_i`/`make_o` take the possibly mutated tree
/// to compile, exactly as JMake patches a checkout and invokes make.
#[derive(Debug)]
pub struct BuildEngine {
    base: SourceTree,
    registry: ArchRegistry,
    cost: CostModel,
    /// The simulated clock; the evaluation driver reads its samples.
    pub clock: VirtualClock,
    config_cache: HashMap<ConfigKey, Arc<BuildConfig>>,
    warm: HashSet<ConfigKey>,
    bootstrap: BTreeSet<String>,
    /// Cross-patch configuration cache plus this tree's fingerprint
    /// (computed once at construction); `None` runs fully per-engine.
    shared: Option<(Arc<ConfigCache>, u64)>,
    /// Cross-patch object cache memoizing preprocess/compile outcomes;
    /// `None` preprocesses everything live.
    object: Option<Arc<ObjectCache>>,
    /// Cross-patch preprocess cache memoizing header-inclusion effects;
    /// `None` expands every inclusion live.
    preproc: Option<Arc<PreprocCache>>,
    /// Span emitter for `config_solve`/`build_i`/`build_o`. Disabled by
    /// default; every span is then a no-op.
    tracer: Tracer,
    /// Fault-injection plan consulted before each build operation and at
    /// object-cache lookups. Disabled by default: the gate is then a
    /// single branch, so fault-free runs are bit-identical to a build
    /// without the harness.
    faults: Faults,
}

impl BuildEngine {
    /// Create an engine over `tree` with the default cost model.
    ///
    /// Files under `scripts/` are treated as bootstrap files (the build
    /// system compiles them before doing anything else), as are
    /// `kernel/bounds.c` and each `arch/*/kernel/asm-offsets.c` when
    /// present. `arch/powerpc/kernel/prom_init.c` is registered as a
    /// heavy file when present (paper §V.C: compiling it triggers
    /// compilation of the entire kernel).
    pub fn new(tree: SourceTree) -> Self {
        let bootstrap = bootstrap_files_of(&tree);
        BuildEngine {
            base: tree,
            registry: ArchRegistry::new(),
            cost: CostModel::default(),
            clock: VirtualClock::new(),
            config_cache: HashMap::new(),
            warm: HashSet::new(),
            bootstrap,
            shared: None,
            object: None,
            preproc: None,
            tracer: Tracer::disabled(),
            faults: Faults::disabled(),
        }
    }

    /// Create an engine over `tree` that shares solved configurations
    /// with every other engine holding the same [`ConfigCache`].
    ///
    /// The tree's Kconfig/defconfig fingerprint is read here (the tree
    /// maintains it, so this is O(1)); cache hits require an exact
    /// content match, so sharing across patches is sound (a patch
    /// touching any Kconfig or defconfig file gets a fresh solve). Hits
    /// still charge the virtual clock the full configuration-creation
    /// cost — simulated timing, including the Figure 4a CDF, is
    /// identical with or without sharing.
    pub fn with_shared_cache(tree: SourceTree, cache: Arc<ConfigCache>) -> Self {
        let fingerprint = tree.config_digest();
        let mut engine = BuildEngine::new(tree);
        engine.shared = Some((cache, fingerprint));
        engine
    }

    /// The shared configuration cache, when one is attached.
    pub fn shared_cache(&self) -> Option<&Arc<ConfigCache>> {
        self.shared.as_ref().map(|(cache, _)| cache)
    }

    /// Attach a cross-patch [`ObjectCache`]. `make_i`/`make_o` will then
    /// memoize preprocess and front-end outcomes (including failures) by
    /// content-addressed key; hits skip host work but charge the virtual
    /// clock exactly what a live run would.
    pub fn set_object_cache(&mut self, cache: Arc<ObjectCache>) {
        self.object = Some(cache);
    }

    /// The attached object cache, if any.
    pub fn object_cache(&self) -> Option<&Arc<ObjectCache>> {
        self.object.as_ref()
    }

    /// Attach a cross-patch [`PreprocCache`]. Preprocessor runs will then
    /// record and replay header-inclusion effects; replay is
    /// byte-identical to live expansion and the virtual clock is charged
    /// per make invocation above this layer, so only host time changes.
    pub fn set_preproc_cache(&mut self, cache: Arc<PreprocCache>) {
        self.preproc = Some(cache);
    }

    /// Attach a tracer; build-side stages will emit spans through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attach a fault-injection plan (usually pre-salted per commit by the
    /// driver). `make_config`/`make_i`/`make_o` then run behind a bounded
    /// retry gate, and object-cache lookups verify entry integrity.
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// The engine's fault plan (disabled unless [`set_faults`] was
    /// called).
    ///
    /// [`set_faults`]: BuildEngine::set_faults
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Consult the fault plan before one build operation
    /// ([`Faults::gate`]). Recovery delays are charged to the virtual
    /// clock via `advance`, which adds time without minting a Fig. 4
    /// sample, so sample streams keep their one-per-invocation shape.
    /// Fails with [`BuildError::RetriesExhausted`] when every attempt
    /// failed.
    fn fault_gate(&mut self, site: FaultSite, identity: &str) -> Result<(), BuildError> {
        let clock = &mut self.clock;
        self.faults
            .gate(site, identity, &self.tracer, |us| clock.advance(us))
            .map_err(|attempts| BuildError::RetriesExhausted {
                op: site.name(),
                attempts,
            })
    }

    /// The engine's tracer (disabled unless [`set_tracer`] was called).
    ///
    /// [`set_tracer`]: BuildEngine::set_tracer
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Open a span for a build stage tied to a created configuration. The
    /// arch/config labels allocate only when tracing is enabled.
    fn stage_span(&self, stage: Stage, cfg: &BuildConfig) -> Span {
        let span = self.tracer.span(stage);
        if self.tracer.is_enabled() {
            span.with_arch(cfg.arch.name).with_config(cfg.key.kind_key())
        } else {
            span
        }
    }

    /// The pristine tree.
    pub fn tree(&self) -> &SourceTree {
        &self.base
    }

    /// The architecture registry.
    pub fn registry(&self) -> &ArchRegistry {
        &self.registry
    }

    /// True when `path` is involved in the build system's own setup
    /// compilation (paper §V.D — JMake cannot mutate these).
    pub fn is_bootstrap(&self, path: &str) -> bool {
        self.bootstrap.contains(path)
    }

    /// Prepared configuration files for `arch` (its `configs/` directory).
    pub fn defconfig_paths(&self, arch: &str) -> Vec<String> {
        self.base
            .files_under(&format!("arch/{arch}/configs"))
            .map(str::to_string)
            .collect()
    }

    /// `make ARCH=<arch> <kind>` — create (or fetch the cached)
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownArch`], [`BuildError::CrossCompilerMissing`],
    /// [`BuildError::NoKconfig`], [`BuildError::KconfigParse`], or
    /// [`BuildError::MissingFile`] for a bad defconfig path.
    pub fn make_config(
        &mut self,
        arch: &str,
        kind: &ConfigKind,
    ) -> Result<Arc<BuildConfig>, BuildError> {
        let key = ConfigKey::new(arch, kind);
        if self.faults.is_enabled() {
            let identity = format!("{arch}:{}", key.kind_key());
            self.fault_gate(FaultSite::ConfigSolve, &identity)?;
        }
        let mut span = self.tracer.span(Stage::ConfigSolve);
        if self.tracer.is_enabled() {
            span = span.with_arch(arch).with_config(key.kind_key());
        }
        let before = self.clock.now_us();
        let result = self.make_config_uncached(arch, kind, key, &mut span);
        span.set_virtual_us(self.clock.now_us() - before);
        result
    }

    fn make_config_uncached(
        &mut self,
        arch: &str,
        kind: &ConfigKind,
        key: ConfigKey,
        span: &mut Span,
    ) -> Result<Arc<BuildConfig>, BuildError> {
        if let Some(cfg) = self.config_cache.get(&key) {
            span.set_cache(CacheOutcome::Local);
            return Ok(Arc::clone(cfg));
        }
        let arch_info = self
            .registry
            .get(arch)
            .ok_or_else(|| BuildError::UnknownArch(arch.to_string()))?;
        if !arch_info.cross_compiler_works {
            return Err(BuildError::CrossCompilerMissing(arch.to_string()));
        }
        let content_fp = kind.content_fingerprint();
        // Consult the cross-patch cache before solving. A hit skips the
        // host-side model assembly and constraint solving but charges
        // the virtual clock exactly what solving would have — simulated
        // timing does not depend on the cache.
        if let Some((cache, fingerprint)) = self.shared.clone() {
            let found = cache.lookup(&(fingerprint, key.clone(), content_fp), &self.faults);
            span.set_cache(found.outcome());
            if let Lookup::Hit(shared_cfg) = found {
                self.charge_config_creation(shared_cfg.model.len() as u64, &arch_info);
                self.config_cache.insert(key, Arc::clone(&shared_cfg));
                return Ok(shared_cfg);
            }
        } else {
            span.set_cache(CacheOutcome::Off);
        }
        let model = self.kconfig_model(arch)?;
        let config = match kind {
            ConfigKind::AllYes => model.allyesconfig(),
            ConfigKind::AllMod => model.allmodconfig(),
            ConfigKind::Defconfig(path) => {
                let content = self
                    .base
                    .get(path)
                    .ok_or_else(|| BuildError::MissingFile(path.clone()))?;
                model.defconfig(content)
            }
            ConfigKind::Custom { content, .. } => model.defconfig(content),
            ConfigKind::Rand { seed } => model.randconfig(*seed),
        };
        self.charge_config_creation(model.len() as u64, &arch_info);
        let env_fp = env_fingerprint_of(&config);
        let built = Arc::new(BuildConfig {
            arch: arch_info,
            kind: kind.clone(),
            config,
            model,
            key: key.clone(),
            content_fp,
            env_fp,
            macros: Arc::new([OnceLock::new(), OnceLock::new()]),
        });
        if let Some((cache, fingerprint)) = &self.shared {
            cache.insert((*fingerprint, key.clone(), content_fp), Arc::clone(&built));
        }
        self.config_cache.insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// Configuration creation pays the Makefile's per-arch setup
    /// sequence too (a fraction of the ops run during *config), which
    /// is what spreads Fig. 4a across architectures. Shared-cache hits
    /// go through the same formula with the cached model's symbol count,
    /// which equals what a fresh solve would produce (the fingerprint
    /// pins the Kconfig sources).
    fn charge_config_creation(&mut self, symbols: u64, arch_info: &Arch) {
        self.clock.charge(
            SampleKind::Config,
            self.cost.config_base_us
                + symbols * self.cost.config_per_symbol_us
                + u64::from(arch_info.setup_ops) * self.cost.setup_op_us / 8,
        );
    }

    /// Assemble the Kconfig model for `arch`: the top-level `Kconfig` plus
    /// `arch/<arch>/Kconfig`, chasing `source` directives.
    fn kconfig_model(&self, arch: &str) -> Result<KconfigModel, BuildError> {
        let arch_root = format!("arch/{arch}/Kconfig");
        if !self.base.contains(&arch_root) {
            return Err(BuildError::NoKconfig(arch.to_string()));
        }
        let mut model = KconfigModel::new();
        let mut queue = Vec::new();
        if self.base.contains("Kconfig") {
            queue.push("Kconfig".to_string());
        }
        queue.push(arch_root);
        let mut seen = BTreeSet::new();
        while let Some(path) = queue.pop() {
            if !seen.insert(path.clone()) {
                continue;
            }
            let Some(content) = self.base.get(&path) else {
                continue; // missing sourced file: tolerated, like kconfig
            };
            let sources = model
                .parse_str(&path, content)
                .map_err(|e| BuildError::KconfigParse(e.to_string()))?;
            queue.extend(sources);
        }
        Ok(model)
    }

    /// One `make file1.i file2.i …` invocation over (possibly mutated)
    /// `tree`.
    ///
    /// Per-file results preserve input order. The whole invocation fails
    /// when a bootstrap file cannot compile (paper §V.D).
    ///
    /// # Errors
    ///
    /// Invocation-level: [`BuildError::SetupCompilationFailed`].
    pub fn make_i(
        &mut self,
        cfg: &BuildConfig,
        tree: &SourceTree,
        files: &[String],
    ) -> Result<IResults, BuildError> {
        if self.faults.is_enabled() {
            let identity = files.join(",");
            self.fault_gate(FaultSite::MakeI, &identity)?;
        }
        let mut span = self.stage_span(Stage::BuildI, cfg);
        let before = self.clock.now_us();
        let result = self.make_i_uncharged(cfg, tree, files, &mut span);
        span.set_virtual_us(self.clock.now_us() - before);
        result
    }

    fn make_i_uncharged(
        &mut self,
        cfg: &BuildConfig,
        tree: &SourceTree,
        files: &[String],
        span: &mut Span,
    ) -> Result<IResults, BuildError> {
        self.check_bootstrap(tree)?;
        let mut invocation_us = self.setup_cost(cfg);
        let graph = ObjGraph::new(tree);
        // The grouped invocation gets one aggregate cache outcome: Miss
        // when any file had to be preprocessed live, Hit when every
        // cacheable file was served from the cache, Off with no cache.
        let mut any_hit = false;
        let mut any_miss = false;
        let memo = tree_memo(tree, cfg, self.preproc.as_ref());
        let mut out = Vec::with_capacity(files.len());
        for file in files {
            let result = if !tree.contains(file) {
                Err(BuildError::MissingFile(file.clone()))
            } else {
                let module = graph.gating_value(file, &cfg.config) == Tristate::M;
                let key = self
                    .object
                    .as_ref()
                    .and_then(|_| object_key_for(tree, cfg, file, module, ObjKind::I));
                let found = self.lookup_object(key.as_ref(), file);
                if let Some(found) = &found {
                    let hit = matches!(found, Lookup::Hit(_));
                    any_hit |= hit;
                    any_miss |= !hit;
                }
                let entry = match found.and_then(Lookup::entry) {
                    Some(entry) => entry,
                    None => {
                        let pp = preprocess_file(tree, cfg, module, file, memo.as_ref());
                        self.keep_object(key, i_entry_from_pp(file, pp))
                    }
                };
                let (text_len, result) = i_result(entry, file);
                invocation_us += self.cost.i_base_us + text_len * self.cost.i_per_byte_us;
                result
            };
            out.push((file.clone(), result));
        }
        self.clock.charge(SampleKind::IGen, invocation_us);
        if self.object.is_none() {
            span.set_cache(CacheOutcome::Off);
        } else if any_miss {
            span.set_cache(CacheOutcome::Miss);
        } else if any_hit {
            span.set_cache(CacheOutcome::Hit);
        }
        Ok(out)
    }

    /// One `make file.o` invocation over `tree`.
    ///
    /// # Errors
    ///
    /// Any [`BuildError`]; success means the configuration genuinely
    /// compiles the file.
    pub fn make_o(
        &mut self,
        cfg: &BuildConfig,
        tree: &SourceTree,
        file: &str,
    ) -> Result<(), BuildError> {
        self.fault_gate(FaultSite::MakeO, file)?;
        let mut span = self.stage_span(Stage::BuildO, cfg).with_file(file);
        let before = self.clock.now_us();
        let result = self.make_o_charged(cfg, tree, file, &mut span);
        span.set_virtual_us(self.clock.now_us() - before);
        result
    }

    fn make_o_charged(
        &mut self,
        cfg: &BuildConfig,
        tree: &SourceTree,
        file: &str,
        span: &mut Span,
    ) -> Result<(), BuildError> {
        self.check_bootstrap(tree)?;
        let mut invocation_us = self.setup_cost(cfg);
        let result = self.make_o_inner(cfg, tree, file, &mut invocation_us, span);
        self.clock.charge(SampleKind::OGen, invocation_us);
        result
    }

    fn make_o_inner(
        &mut self,
        cfg: &BuildConfig,
        tree: &SourceTree,
        file: &str,
        invocation_us: &mut u64,
        span: &mut Span,
    ) -> Result<(), BuildError> {
        if self.object.is_none() {
            span.set_cache(CacheOutcome::Off);
        }
        if !tree.contains(file) {
            return Err(BuildError::MissingFile(file.to_string()));
        }
        let graph = ObjGraph::new(tree);
        if !graph.has_makefile(file) {
            return Err(BuildError::NoMakefile(file.to_string()));
        }
        let gating = graph.gating_value(file, &cfg.config);
        if !gating.enabled() {
            return Err(BuildError::NotEnabled(file.to_string()));
        }
        let module = gating == Tristate::M;
        let key = self
            .object
            .as_ref()
            .and_then(|_| object_key_for(tree, cfg, file, module, ObjKind::O));
        let found = self.lookup_object(key.as_ref(), file);
        if let Some(found) = &found {
            span.set_cache(found.outcome());
        }
        let entry = match found.and_then(Lookup::entry) {
            Some(entry) => entry,
            None => {
                let memo = tree_memo(tree, cfg, self.preproc.as_ref());
                let pp = preprocess_file(tree, cfg, module, file, memo.as_ref());
                self.keep_object(key, o_entry_from_pp(file, &pp))
            }
        };
        let (text_len, result) = o_result(entry);
        *invocation_us += self.cost.o_base_us + text_len * self.cost.o_per_byte_us;
        if file == HEAVY_FILE && self.base.contains(file) {
            // Compiling this file triggers compilation of the entire
            // kernel, whether or not JMake is used (paper §V.C): charge a
            // per-file base for every .c in the tree plus the whole tree's
            // byte-proportional cost, scaled for synthetic file sizes.
            *invocation_us += self.heavy_rebuild_us(tree);
        }
        result
    }

    /// Look `key` up in the attached object store, tracing a shard
    /// quarantine against `file`; `None` without a store or a key.
    fn lookup_object(&self, key: Option<&ObjectKey>, file: &str) -> Option<Lookup<CachedObj>> {
        let found = self.object.as_ref()?.lookup(key?, &self.faults);
        if matches!(found, Lookup::Quarantined) {
            let _ = self.tracer.span(Stage::Quarantine).with_file(file);
        }
        Some(found)
    }

    /// Share a freshly built entry with the object store when one is
    /// attached and the file has a `key`. Otherwise the returned `Arc` is
    /// the only reference, and the result is moved out of it, not cloned.
    fn keep_object(&self, key: Option<ObjectKey>, entry: CachedObj) -> Arc<CachedObj> {
        let entry = Arc::new(entry);
        if let (Some(cache), Some(key)) = (&self.object, key) {
            cache.insert(key, Arc::clone(&entry));
        }
        entry
    }

    /// The whole-kernel rebuild charge a heavy file triggers (paper §V.C).
    fn heavy_rebuild_us(&self, tree: &SourceTree) -> u64 {
        let c_files = tree.paths().filter(|p| p.ends_with(".c")).count() as u64;
        crate::clock::HEAVY_REBUILD_FACTOR
            * (c_files * self.cost.o_base_us + tree.total_bytes() * self.cost.o_per_byte_us)
    }

    /// Setup work for one make invocation: full operation sequence the
    /// first time a configuration is used, a handful of checks afterwards
    /// (paper §III.D).
    fn setup_cost(&mut self, cfg: &BuildConfig) -> u64 {
        if self.warm.insert(cfg.key.clone()) {
            u64::from(cfg.arch.setup_ops) * self.cost.setup_op_us
        } else {
            self.cost.warm_setup_us
        }
    }

    /// Fail the invocation when any bootstrap file carries a mutation
    /// glyph — the build system compiles those files before honouring any
    /// target (paper §V.D).
    fn check_bootstrap(&self, tree: &SourceTree) -> Result<(), BuildError> {
        for path in &self.bootstrap {
            if let Some(content) = tree.get(path) {
                if content.contains('\u{2261}') {
                    return Err(BuildError::SetupCompilationFailed(path.clone()));
                }
            }
        }
        Ok(())
    }
}

/// Bootstrap files of `tree`: everything under `scripts/`, plus
/// `kernel/bounds.c` and each `arch/*/kernel/asm-offsets.c` when present
/// (paper §V.D — the build system compiles these before any target).
/// Range walks over `scripts/` and `arch/` plus one point lookup: the
/// rest of the tree is never visited.
pub fn bootstrap_files_of(tree: &SourceTree) -> BTreeSet<String> {
    let mut bootstrap: BTreeSet<String> = tree
        .files_under("scripts")
        .filter(|p| p.ends_with(".c") || p.ends_with(".h"))
        .map(str::to_string)
        .collect();
    if tree.contains("kernel/bounds.c") {
        bootstrap.insert("kernel/bounds.c".to_string());
    }
    bootstrap.extend(
        tree.files_under("arch")
            .filter(|p| p.ends_with("/kernel/asm-offsets.c"))
            .map(str::to_string),
    );
    bootstrap
}

/// Build the cross-patch include memo for preprocessing runs over
/// `tree` — one per make invocation, shared by every file in the group
/// (the tree clone inside is one pointer copy).
pub(crate) fn tree_memo(
    tree: &SourceTree,
    cfg: &BuildConfig,
    preproc: Option<&Arc<PreprocCache>>,
) -> Option<Arc<TreeMemo>> {
    preproc.map(|cache| Arc::new(TreeMemo::new(tree.clone(), cfg.arch.name, Arc::clone(cache))))
}

/// Run the preprocessor on `file` with the configuration's macro
/// environment and kernel include paths.
pub(crate) fn preprocess_file(
    tree: &SourceTree,
    cfg: &BuildConfig,
    module: bool,
    file: &str,
    memo: Option<&Arc<TreeMemo>>,
) -> PreprocessOutput {
    let resolver = TreeResolver {
        tree,
        search_paths: vec![
            "include".to_string(),
            format!("arch/{}/include", cfg.arch.name),
        ],
    };
    let mut pp = Preprocessor::new(resolver);
    if let Some(memo) = memo {
        pp.set_memo(Arc::clone(memo) as Arc<dyn jmake_cpp::IncludeMemo>);
    }
    // The configuration's macro environment, memoized per (config,
    // module) pair: installing the shared table costs a refcount bump,
    // not hundreds of per-file `#define`s.
    pp.set_predefined(cfg.macro_table(module));
    let content = tree.get(file).unwrap_or_default();
    pp.preprocess(file, content)
}

/// Derive the object-cache key for `(tree, cfg, file)`, or `None` when
/// the file's include closure cannot be fingerprinted soundly (computed
/// `#include` targets) — such files are simply never cached.
fn object_key_for(
    tree: &SourceTree,
    cfg: &BuildConfig,
    file: &str,
    module: bool,
    kind: ObjKind,
) -> Option<ObjectKey> {
    let include_fp = include_fingerprint(tree, cfg.arch.name, file)?;
    Some(ObjectKey {
        blob: match tree.get_blob(file) {
            Some(blob) => blob.hash(),
            None => ContentHash::of(""),
        },
        path: Arc::from(file),
        include_fp,
        env_fp: cfg.env_fingerprint(),
        module,
        arch: cfg.arch.name,
        kind,
    })
}

/// Fold one preprocess run into the cache entry `make_i` stores —
/// success keeps the full `.i` artifact, failure keeps the first
/// diagnostic (negative caching).
fn i_entry_from_pp(file: &str, pp: PreprocessOutput) -> CachedObj {
    let text_len = pp.text.len() as u64;
    let result = match pp.errors.first() {
        Some(first) => Err(first.to_string()),
        None => Ok(IFile {
            path: file.to_string(),
            text: pp.text,
            expanded_macros: pp.expanded_macros,
            includes: pp.includes,
        }),
    };
    CachedObj::I { text_len, result }
}

/// An `I` entry's preprocessed length (what the clock charges by) and
/// the `make_i` result it records, moved out of the entry when nothing
/// else holds it.
fn i_result(entry: Arc<CachedObj>, file: &str) -> (u64, Result<IFile, BuildError>) {
    let CachedObj::I { text_len, result } = Arc::unwrap_or_clone(entry) else {
        unreachable!("kind is part of the key: an I key finds an I entry")
    };
    let result = result.map_err(|first_error| BuildError::PreprocessFailed {
        file: file.to_string(),
        first_error,
    });
    (text_len, result)
}

/// Fold one preprocess run into the cache entry `make_o` stores: the
/// preprocess diagnostics and the front-end verdict, success or not.
fn o_entry_from_pp(file: &str, pp: &PreprocessOutput) -> CachedObj {
    let text_len = pp.text.len() as u64;
    let result = if let Some(first) = pp.errors.first() {
        Err(BuildError::PreprocessFailed {
            file: file.to_string(),
            first_error: first.to_string(),
        })
    } else {
        validate(&pp.text).map_err(|error| BuildError::FrontEndRejected {
            file: file.to_string(),
            error,
        })
    };
    CachedObj::O { text_len, result }
}

/// An `O` entry's preprocessed length and the `make_o` verdict it
/// records, moved out of the entry when nothing else holds it.
fn o_result(entry: Arc<CachedObj>) -> (u64, Result<(), BuildError>) {
    let CachedObj::O { text_len, result } = Arc::unwrap_or_clone(entry) else {
        unreachable!("kind is part of the key: an O key finds an O entry")
    };
    (text_len, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature two-arch kernel: x86_64 and arm, one driver gated by
    /// CONFIG_E1000 (needs NET), one arm-only driver.
    fn mini_kernel() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert("Kconfig", "config NET\n\tbool \"net\"\n\nconfig E1000\n\ttristate \"e1000\"\n\tdepends on NET\n\nconfig ARM_ONLY_DRV\n\tbool \"arm drv\"\n\tdepends on ARM\n");
        t.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        t.insert("arch/arm/Kconfig", "config ARM\n\tdef_bool y\n");
        t.insert(
            "arch/arm/configs/vexpress_defconfig",
            "CONFIG_NET=y\nCONFIG_E1000=m\n",
        );
        t.insert("Makefile", "obj-y += drivers/ kernel/\n");
        t.insert("drivers/Makefile", "obj-y += net/ misc/\n");
        t.insert("drivers/net/Makefile", "obj-$(CONFIG_E1000) += e1000.o\n");
        t.insert(
            "drivers/net/e1000.c",
            "#include <linux/kernel.h>\nint e1000_init(void)\n{\nreturn KERNEL_CONST;\n}\n",
        );
        t.insert(
            "drivers/misc/Makefile",
            "obj-$(CONFIG_ARM_ONLY_DRV) += armdrv.o\n",
        );
        t.insert(
            "drivers/misc/armdrv.c",
            "#include <asm/armspecific.h>\nint armdrv(void)\n{\nreturn ARM_MAGIC;\n}\n",
        );
        t.insert("include/linux/kernel.h", "#define KERNEL_CONST 42\n");
        t.insert(
            "arch/arm/include/asm/armspecific.h",
            "#define ARM_MAGIC 7\n",
        );
        t.insert("kernel/Makefile", "obj-y += core.o\n");
        t.insert("kernel/core.c", "int core;\n");
        t.insert("kernel/bounds.c", "int bounds;\n");
        t
    }

    #[test]
    fn allyesconfig_for_host_arch() {
        let mut e = BuildEngine::new(mini_kernel());
        let cfg = e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        assert_eq!(cfg.config.get("NET"), Tristate::Y);
        assert_eq!(cfg.config.get("E1000"), Tristate::Y);
        // ARM_ONLY_DRV depends on ARM, absent from the x86_64 model's arch
        // symbols — never set.
        assert_eq!(cfg.config.get("ARM_ONLY_DRV"), Tristate::N);
        assert_eq!(e.clock.samples.config.len(), 1);
    }

    #[test]
    fn config_is_cached_per_arch_and_kind() {
        let mut e = BuildEngine::new(mini_kernel());
        e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        e.make_config("x86_64", &ConfigKind::AllMod).unwrap();
        assert_eq!(e.clock.samples.config.len(), 2);
    }

    #[test]
    fn unknown_and_broken_arches_fail() {
        let mut e = BuildEngine::new(mini_kernel());
        assert!(matches!(
            e.make_config("z80", &ConfigKind::AllYes),
            Err(BuildError::UnknownArch(_))
        ));
        assert!(matches!(
            e.make_config("arm64", &ConfigKind::AllYes),
            Err(BuildError::CrossCompilerMissing(_))
        ));
        assert!(matches!(
            e.make_config("mips", &ConfigKind::AllYes),
            Err(BuildError::NoKconfig(_))
        ));
    }

    #[test]
    fn make_i_produces_expanded_text() {
        let mut e = BuildEngine::new(mini_kernel());
        let cfg = e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let tree = e.tree().clone();
        let results = e
            .make_i(&cfg, &tree, &["drivers/net/e1000.c".to_string()])
            .unwrap();
        let ifile = results[0].1.as_ref().unwrap();
        assert!(ifile.text.contains("return 42;"));
        assert!(ifile
            .includes
            .contains(&"include/linux/kernel.h".to_string()));
        assert_eq!(e.clock.samples.i_gen.len(), 1);
    }

    #[test]
    fn arm_only_file_fails_preprocessing_on_x86() {
        let mut e = BuildEngine::new(mini_kernel());
        let cfg = e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let tree = e.tree().clone();
        let results = e
            .make_i(&cfg, &tree, &["drivers/misc/armdrv.c".to_string()])
            .unwrap();
        assert!(matches!(
            results[0].1,
            Err(BuildError::PreprocessFailed { .. })
        ));
        // …but preprocesses fine for arm.
        let cfg_arm = e.make_config("arm", &ConfigKind::AllYes).unwrap();
        let results = e
            .make_i(&cfg_arm, &tree, &["drivers/misc/armdrv.c".to_string()])
            .unwrap();
        assert!(results[0].1.is_ok());
    }

    #[test]
    fn make_o_success_and_not_enabled() {
        let mut e = BuildEngine::new(mini_kernel());
        let cfg = e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let tree = e.tree().clone();
        assert!(e.make_o(&cfg, &tree, "drivers/net/e1000.c").is_ok());
        // armdrv is not enabled on x86_64 (ARM_ONLY_DRV=n).
        assert!(matches!(
            e.make_o(&cfg, &tree, "drivers/misc/armdrv.c"),
            Err(BuildError::NotEnabled(_))
        ));
        assert_eq!(e.clock.samples.o_gen.len(), 2);
    }

    #[test]
    fn make_o_on_arm_defconfig_builds_module() {
        let mut e = BuildEngine::new(mini_kernel());
        let kind = ConfigKind::Defconfig("arch/arm/configs/vexpress_defconfig".to_string());
        let cfg = e.make_config("arm", &kind).unwrap();
        assert_eq!(cfg.config.get("E1000"), Tristate::M);
        let tree = e.tree().clone();
        assert!(e.make_o(&cfg, &tree, "drivers/net/e1000.c").is_ok());
    }

    #[test]
    fn module_build_defines_module_macro() {
        let mut e = BuildEngine::new(mini_kernel());
        let kind = ConfigKind::Defconfig("arch/arm/configs/vexpress_defconfig".to_string());
        let cfg = e.make_config("arm", &kind).unwrap();
        let mut tree = e.tree().clone();
        tree.insert(
            "drivers/net/e1000.c",
            "#ifdef MODULE\nint as_module;\n#else\nint builtin;\n#endif\n",
        );
        let results = e
            .make_i(&cfg, &tree, &["drivers/net/e1000.c".to_string()])
            .unwrap();
        let text = &results[0].1.as_ref().unwrap().text;
        assert!(text.contains("as_module"), "{text}");
        assert!(!text.contains("builtin"));
    }

    #[test]
    fn mutated_file_fails_front_end_but_not_preprocessing() {
        let mut e = BuildEngine::new(mini_kernel());
        let cfg = e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let mut tree = e.tree().clone();
        tree.insert(
            "drivers/net/e1000.c",
            "\u{2261}\"context:drivers/net/e1000.c:1\"\nint x;\n",
        );
        let results = e
            .make_i(&cfg, &tree, &["drivers/net/e1000.c".to_string()])
            .unwrap();
        let ifile = results[0].1.as_ref().unwrap();
        assert!(ifile
            .text
            .contains("\u{2261}\"context:drivers/net/e1000.c:1\""));
        assert!(matches!(
            e.make_o(&cfg, &tree, "drivers/net/e1000.c"),
            Err(BuildError::FrontEndRejected { .. })
        ));
    }

    #[test]
    fn bootstrap_mutation_fails_every_invocation() {
        let mut e = BuildEngine::new(mini_kernel());
        let cfg = e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let mut tree = e.tree().clone();
        tree.insert(
            "kernel/bounds.c",
            "\u{2261}\"context:kernel/bounds.c:1\"\nint b;\n",
        );
        assert!(matches!(
            e.make_i(&cfg, &tree, &["kernel/core.c".to_string()]),
            Err(BuildError::SetupCompilationFailed(_))
        ));
        assert!(matches!(
            e.make_o(&cfg, &tree, "kernel/core.c"),
            Err(BuildError::SetupCompilationFailed(_))
        ));
        assert!(e.is_bootstrap("kernel/bounds.c"));
    }

    #[test]
    fn is_enabled_idiom_tracks_configuration() {
        let mut e = BuildEngine::new(mini_kernel());
        let cfg = e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let mut tree = e.tree().clone();
        tree.insert(
            "drivers/net/e1000.c",
            "#if IS_ENABLED(CONFIG_NET)\nint net_on;\n#endif\n#if IS_ENABLED(CONFIG_TOTALLY_ABSENT)\nint absent_on;\n#endif\nint base;\n",
        );
        let results = e
            .make_i(&cfg, &tree, &["drivers/net/e1000.c".to_string()])
            .unwrap();
        let text = &results[0].1.as_ref().unwrap().text;
        assert!(text.contains("net_on"), "{text}");
        assert!(!text.contains("absent_on"), "{text}");
        assert!(text.contains("base"));
    }

    #[test]
    fn cold_invocation_costs_more_than_warm() {
        let mut e = BuildEngine::new(mini_kernel());
        let cfg = e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let tree = e.tree().clone();
        let files = vec!["kernel/core.c".to_string()];
        e.make_i(&cfg, &tree, &files).unwrap();
        e.make_i(&cfg, &tree, &files).unwrap();
        let s = &e.clock.samples.i_gen;
        assert!(s[0] > s[1], "cold {} should exceed warm {}", s[0], s[1]);
    }

    #[test]
    fn heavy_file_dominates_o_times() {
        let mut t = mini_kernel();
        t.insert("arch/powerpc/Kconfig", "config PPC\n\tdef_bool y\n");
        t.insert("arch/powerpc/kernel/Makefile", "obj-y += prom_init.o\n");
        t.insert("arch/powerpc/kernel/prom_init.c", "int prom_init;\n");
        let mut e = BuildEngine::new(t);
        let cfg = e.make_config("powerpc", &ConfigKind::AllYes).unwrap();
        let tree = e.tree().clone();
        e.make_o(&cfg, &tree, "arch/powerpc/kernel/prom_init.c")
            .unwrap();
        e.make_o(&cfg, &tree, "kernel/core.c").unwrap();
        let s = &e.clock.samples.o_gen;
        // The heavy file's invocation includes a whole-kernel compile; even
        // on this miniature tree it must dwarf an ordinary .o.
        assert!(s[0] > 3 * s[1], "heavy {} vs normal {}", s[0], s[1]);
        assert!(
            s[0] > 2_000_000,
            "heavy compile should exceed 2 s, got {}",
            s[0]
        );
    }

    #[test]
    fn engine_spans_carry_cache_outcomes_and_virtual_charges() {
        use jmake_trace::jsonl;
        let cache = Arc::new(ConfigCache::new());
        let tracer = Tracer::in_memory();

        let mut first = BuildEngine::with_shared_cache(mini_kernel(), Arc::clone(&cache));
        first.set_tracer(tracer.clone());
        first.make_config("x86_64", &ConfigKind::AllYes).unwrap(); // shared miss
        first.make_config("x86_64", &ConfigKind::AllYes).unwrap(); // local memo

        let mut second = BuildEngine::with_shared_cache(mini_kernel(), Arc::clone(&cache));
        second.set_tracer(tracer.clone());
        second.make_config("x86_64", &ConfigKind::AllYes).unwrap(); // shared hit

        let records: Vec<_> = tracer
            .jsonl_lines()
            .iter()
            .map(|l| jsonl::parse_line(l).expect("engine emits valid jsonl"))
            .collect();
        let outcomes: Vec<_> = records
            .iter()
            .filter(|r| r.stage == Some(Stage::ConfigSolve))
            .map(|r| r.cache)
            .collect();
        assert_eq!(
            outcomes,
            vec![
                Some(CacheOutcome::Miss),
                Some(CacheOutcome::Local),
                Some(CacheOutcome::Hit)
            ]
        );
        // Span virtual charges reconcile with the engines' clock samples.
        let span_virtual: u64 = records.iter().map(|r| r.virtual_us).sum();
        let clock_virtual: u64 = first.clock.samples.config.iter().sum::<u64>()
            + second.clock.samples.config.iter().sum::<u64>();
        assert_eq!(span_virtual, clock_virtual);
        // Metrics agree with the shared cache's own counters.
        let (hits, misses) = tracer.metrics().cache_hits_misses();
        assert_eq!((hits, misses), (cache.stats().hits, cache.stats().misses));
        assert!(tracer.balance().is_balanced());
    }

    #[test]
    fn untraced_engine_without_shared_cache_marks_spans_off() {
        use jmake_trace::jsonl;
        let tracer = Tracer::in_memory();
        let mut e = BuildEngine::new(mini_kernel());
        e.set_tracer(tracer.clone());
        e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let record = jsonl::parse_line(&tracer.jsonl_lines()[0]).unwrap();
        assert_eq!(record.cache, Some(CacheOutcome::Off));
        assert_eq!(record.arch.as_deref(), Some("x86_64"));
        assert_eq!(record.config.as_deref(), Some("allyesconfig"));
    }

    #[test]
    fn defconfig_paths_listed() {
        let e = BuildEngine::new(mini_kernel());
        assert_eq!(
            e.defconfig_paths("arm"),
            vec!["arch/arm/configs/vexpress_defconfig".to_string()]
        );
        assert!(e.defconfig_paths("x86_64").is_empty());
    }

    #[test]
    fn transient_faults_exhaust_the_retry_budget_and_charge_backoff() {
        use jmake_faults::FaultSpec;
        let tracer = Tracer::in_memory();
        let mut e = BuildEngine::new(mini_kernel());
        e.set_tracer(tracer.clone());
        e.set_faults(Faults::new(FaultSpec::parse("transient:1.0").unwrap(), 1));
        let err = e.make_config("x86_64", &ConfigKind::AllYes).unwrap_err();
        assert!(matches!(
            err,
            BuildError::RetriesExhausted {
                op: "config_solve",
                attempts: 4
            }
        ));
        // Backoff is charged via advance(): time passes, no Fig. 4 sample.
        assert!(e.clock.samples.config.is_empty());
        assert_eq!(e.clock.now_us(), 250_000 + 500_000 + 1_000_000);
        // Three retry spans carrying the backoff, no solve span.
        let retries: Vec<_> = tracer
            .jsonl_lines()
            .iter()
            .map(|l| jmake_trace::jsonl::parse_line(l).unwrap())
            .filter(|r| r.stage == Some(Stage::Retry))
            .collect();
        assert_eq!(retries.len(), 3);
        assert_eq!(retries[0].virtual_us, 250_000);
        let snap = e.faults().stats_snapshot();
        assert_eq!((snap.retries, snap.exhausted), (3, 1));
    }

    #[test]
    fn latency_spike_adds_time_but_the_operation_still_succeeds() {
        use jmake_faults::FaultSpec;
        let mut plain = BuildEngine::new(mini_kernel());
        plain.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let baseline = plain.clock.now_us();

        let mut spiked = BuildEngine::new(mini_kernel());
        spiked.set_faults(Faults::new(FaultSpec::parse("latency:1.0").unwrap(), 1));
        spiked.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        assert_eq!(spiked.clock.now_us(), baseline + 2_000_000);
        // The sample stream keeps its one-sample-per-invocation shape.
        assert_eq!(
            spiked.clock.samples.config,
            plain.clock.samples.config,
        );
    }

    #[test]
    fn hang_consumes_the_timeout_budget_before_retrying() {
        use jmake_faults::FaultSpec;
        let mut e = BuildEngine::new(mini_kernel());
        e.set_faults(Faults::new(FaultSpec::parse("hang:1.0").unwrap(), 1));
        let err = e
            .make_o(&fresh_cfg(), &e.tree().clone(), "kernel/core.c")
            .unwrap_err();
        assert!(matches!(err, BuildError::RetriesExhausted { op: "make_o", .. }));
        let snap = e.faults().stats_snapshot();
        assert_eq!(snap.timeouts, 4);
        // Each of the four attempts consumed the 30 s timeout budget.
        assert!(e.clock.now_us() >= 4 * 30_000_000);
    }

    /// A config solved by a fault-free engine, for tests that inject
    /// faults only into the compile ops.
    fn fresh_cfg() -> Arc<BuildConfig> {
        let mut e = BuildEngine::new(mini_kernel());
        e.make_config("x86_64", &ConfigKind::AllYes).unwrap()
    }

    #[test]
    fn missing_file_and_no_makefile_errors() {
        let mut e = BuildEngine::new(mini_kernel());
        let cfg = e.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        let mut tree = e.tree().clone();
        assert!(matches!(
            e.make_o(&cfg, &tree, "drivers/net/ghost.c"),
            Err(BuildError::MissingFile(_))
        ));
        tree.insert("lonely/file.c", "int x;\n");
        assert!(matches!(
            e.make_o(&cfg, &tree, "lonely/file.c"),
            Err(BuildError::NoMakefile(_))
        ));
    }
}
