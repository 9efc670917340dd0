//! `jmake-reach`: variability-aware reachability for a Kbuild tree.
//!
//! The mutation pipeline (paper §III) answers "was this changed line ever
//! seen by the compiler?" *dynamically*, by running configurations. This
//! crate answers the same question *statically*, without a single build:
//! for every line of every `.c`/`.h` file it derives a **presence
//! condition** — the conjunction of
//!
//! 1. the Kbuild guard chain reaching the file (`obj-$(CONFIG_X) += …`
//!    along the Makefile descent path, via [`jmake_kbuild::ObjGraph`]
//!    semantics), and
//! 2. the stack of nested `#if`/`#ifdef`/`#elif`/`#else` conditions
//!    around the line ([`file::analyze_file`]),
//!
//! and then decides satisfiability of that condition against the
//! [`KconfigModel`] using the conjunction solver
//! ([`KconfigModel::solve_conjunction`]). Every line is classified
//!
//! - [`ReachClass::AllyesReachable`] — present under an `allyesconfig`
//!   environment (JMake's first try);
//! - [`ReachClass::ConditionallyReachable`] — present under some other
//!   environment or a solver witness, or undecidable (conservative);
//! - [`ReachClass::Dead`] — provably never seen by any compiler
//!   invocation, with a proof tag.
//!
//! # Soundness contract
//!
//! `Dead` is the load-bearing verdict: the cross-check
//! (`jmake-eval --cross-check`) fails CI if a statically-dead line is ever
//! covered dynamically. The classifier therefore only emits `Dead` when
//! the whole decision was exact: every atom of the condition is a
//! `CONFIG_*` macro, the Kbuild chain is simple enough to pin, and every
//! satisfying atom assignment carries a *hard* unsatisfiability proof
//! ([`DeadnessProof::Undeclared`], [`DeadnessProof::DeadSymbol`],
//! [`DeadnessProof::ChoiceConflict`]) or is internally contradictory.
//! Anything fuzzy — unknown macros, arithmetic `#if`s, unlisted files,
//! headers nobody includes, solver exhaustion — degrades to
//! `ConditionallyReachable { witness: None }`, never to `Dead`.
//!
//! # Example
//!
//! ```
//! use jmake_kbuild::{BuildEngine, ConfigKind, SourceTree};
//! use jmake_reach::{Reach, ReachEnv};
//!
//! let mut tree = SourceTree::new();
//! tree.insert("Kconfig", "config DRV\n\tbool \"drv\"\n");
//! tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
//! tree.insert("Makefile", "obj-y += drivers/\n");
//! tree.insert("drivers/Makefile", "obj-$(CONFIG_DRV) += drv.o\n");
//! tree.insert(
//!     "drivers/drv.c",
//!     "#ifdef CONFIG_NEVER\nint dead;\n#endif\nint live;\n",
//! );
//!
//! // Solve allyesconfig once; its model doubles as the solver's input.
//! let mut engine = BuildEngine::new(tree.clone());
//! let allyes = engine.make_config("x86_64", &ConfigKind::AllYes).unwrap();
//!
//! let mut reach = Reach::new(&tree);
//! reach.add_model("x86_64", allyes.model.clone());
//! reach.add_env(ReachEnv {
//!     label: "x86_64-allyes".to_string(),
//!     arch: "x86_64".to_string(),
//!     config: allyes.config.clone(),
//!     allyes: true,
//! });
//! let report = reach.analyze();
//! let drv = &report.files["drivers/drv.c"];
//! // CONFIG_NEVER is declared nowhere: line 2 is provably dead.
//! assert!(drv.class(2).unwrap().is_dead());
//! assert_eq!(drv.class(4).unwrap().label(), "allyes");
//! ```

#![deny(missing_docs)]
pub mod cond;
pub mod file;

pub use cond::{CondExpr, Truth};
pub use file::{analyze_file, FileAnalysis, IncludeRef};

use jmake_kbuild::tree::SourceTree;
use jmake_kbuild::{Barred, BuildConfig, BuildEngine, BuildError, Cond, ConfigKind, ObjGraph};
use jmake_kconfig::{
    Config, ConfigDelta, ConjunctionVerdict, DeadnessProof, KconfigModel, Tristate,
};
use jmake_trace::jsonl::escape;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Cap on enumerated condition atoms: 2^8 assignments per condition.
const MAX_ATOMS: usize = 8;
/// Cap on Kbuild chain variables folded into the `MODULE` substitution.
const MAX_MODULE_CHAIN: usize = 3;

/// A concrete configuration that realizes a line, attached to
/// [`ReachClass::ConditionallyReachable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// One of the analyzer's named environments reaches the line.
    Env(String),
    /// A solver witness: pin these symbols to these values and complete
    /// the configuration with [`KconfigModel::solve_conjunction`].
    Pins(BTreeMap<String, Tristate>),
}

/// Static verdict for one physical source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachClass {
    /// Present under an allyes environment: a mutation here must be
    /// detected by the very first configuration JMake tries.
    AllyesReachable,
    /// Present under some configuration (`witness`), or not provably
    /// anything (`witness: None` — the conservative default).
    ConditionallyReachable {
        /// How to reach the line, when the analyzer knows.
        witness: Option<Witness>,
    },
    /// No configuration ever lets the compiler see this line.
    Dead {
        /// Human-readable proof tag (`constant-false`,
        /// `undeclared symbol X`, …).
        proof: String,
    },
}

impl ReachClass {
    /// True for [`ReachClass::Dead`].
    pub fn is_dead(&self) -> bool {
        matches!(self, ReachClass::Dead { .. })
    }

    /// Stable short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ReachClass::AllyesReachable => "allyes",
            ReachClass::ConditionallyReachable { .. } => "conditional",
            ReachClass::Dead { .. } => "dead",
        }
    }
}

/// A named, solved configuration the analyzer checks lines against.
#[derive(Debug, Clone)]
pub struct ReachEnv {
    /// Report label, e.g. `x86_64-allyes`.
    pub label: String,
    /// Architecture the configuration belongs to (selects the include
    /// search path `arch/<arch>/include`).
    pub arch: String,
    /// The solved configuration.
    pub config: Config,
    /// Whether this is an allyes-class environment (phase A).
    pub allyes: bool,
}

/// Per-file classification result.
#[derive(Debug, Clone)]
pub struct FileReach {
    /// Tree-relative path.
    pub path: String,
    /// One class per physical line (index = line − 1).
    pub classes: Vec<ReachClass>,
}

impl FileReach {
    /// Class of 1-based physical `line`.
    pub fn class(&self, line: u32) -> Option<&ReachClass> {
        self.classes.get(line as usize - 1)
    }

    /// (allyes, conditional, dead) line counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for cls in &self.classes {
            match cls {
                ReachClass::AllyesReachable => c.0 += 1,
                ReachClass::ConditionallyReachable { .. } => c.1 += 1,
                ReachClass::Dead { .. } => c.2 += 1,
            }
        }
        c
    }
}

/// Whole-tree classification.
#[derive(Debug, Clone, Default)]
pub struct TreeReach {
    /// Path → per-line classes, in path order.
    pub files: BTreeMap<String, FileReach>,
    /// Labels of the environments the analysis ran against.
    pub env_labels: Vec<String>,
}

impl TreeReach {
    /// Tree-wide (allyes, conditional, dead) line counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for f in self.files.values() {
            let c = f.counts();
            t.0 += c.0;
            t.1 += c.1;
            t.2 += c.2;
        }
        t
    }

    /// Deterministic JSON summary: per-file counts plus every dead line
    /// with its proof. Byte-identical across runs on the same input.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"envs\": [");
        for (i, l) in self.env_labels.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape(l)));
        }
        out.push_str("],\n  \"files\": {\n");
        let mut first = true;
        for (path, fr) in &self.files {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let (a, c, d) = fr.counts();
            out.push_str(&format!(
                "    \"{}\": {{\"allyes\": {a}, \"conditional\": {c}, \"dead\": {d}, \"dead_lines\": [",
                escape(path)
            ));
            let mut firstd = true;
            for (idx, cls) in fr.classes.iter().enumerate() {
                if let ReachClass::Dead { proof } = cls {
                    if !firstd {
                        out.push_str(", ");
                    }
                    firstd = false;
                    out.push_str(&format!(
                        "{{\"line\": {}, \"proof\": \"{}\"}}",
                        idx + 1,
                        escape(proof)
                    ));
                }
            }
            out.push_str("]}");
        }
        let (a, c, d) = self.counts();
        out.push_str(&format!(
            "\n  }},\n  \"total\": {{\"allyes\": {a}, \"conditional\": {c}, \"dead\": {d}}}\n}}\n"
        ));
        out
    }
}

/// The whole-tree reachability analyzer.
pub struct Reach<'t> {
    tree: &'t SourceTree,
    graph: ObjGraph<'t>,
    /// (arch, model); index 0 is the primary model used for files outside
    /// `arch/`.
    models: Vec<(String, KconfigModel)>,
    envs: Vec<ReachEnv>,
}

impl<'t> Reach<'t> {
    /// Analyzer over `tree` with no models or environments yet.
    pub fn new(tree: &'t SourceTree) -> Self {
        Reach {
            tree,
            graph: ObjGraph::new(tree),
            models: Vec::new(),
            envs: Vec::new(),
        }
    }

    /// Register the Kconfig model for `arch`. The first registration is
    /// the primary model (used for non-`arch/` files).
    pub fn add_model(&mut self, arch: impl Into<String>, model: KconfigModel) {
        self.models.push((arch.into(), model));
    }

    /// Register a solved environment to check lines against.
    pub fn add_env(&mut self, env: ReachEnv) {
        self.envs.push(env);
    }

    /// Solve `arch`'s allyesconfig and allmodconfig on `engine`, then
    /// register the arch's Kconfig model and both configurations as the
    /// `{arch}-allyes` and `{arch}-allmod` environments — the per-arch
    /// analyzer of `jmake_core::ArchView` (which the cross-check, the
    /// remediator and the coverage configurations read), the portfolio
    /// selector and `jmake-eval --reach`. Returns the solved allyesconfig.
    ///
    /// # Errors
    ///
    /// The [`BuildError`] of whichever solve failed first; nothing is
    /// registered then.
    pub fn add_arch(
        &mut self,
        engine: &mut BuildEngine,
        arch: &str,
    ) -> Result<Arc<BuildConfig>, BuildError> {
        let allyes = engine.make_config(arch, &ConfigKind::AllYes)?;
        let allmod = engine.make_config(arch, &ConfigKind::AllMod)?;
        self.add_model(arch, allyes.model.clone());
        for (kind, cfg, allyes) in [("allyes", &allyes, true), ("allmod", &allmod, false)] {
            self.add_env(ReachEnv {
                label: format!("{arch}-{kind}"),
                arch: arch.to_string(),
                config: cfg.config.clone(),
                allyes,
            });
        }
        Ok(allyes)
    }

    /// Turn a [`Witness::Pins`] for 1-based `line` of `path` into the
    /// smallest configuration delta against allyesconfig that presents
    /// the line: [`KconfigModel::minimize_delta`] over the file's model,
    /// accepting only configurations under which [`Reach::line_present`]
    /// holds. Both the remediator and the coverage configurations
    /// synthesize their deltas here.
    ///
    /// # Errors
    ///
    /// The reason no delta exists: no model governs the file, or no
    /// witness survives minimization (with the pins' unsatisfiable core
    /// when the solver finds one).
    pub fn witness_delta(
        &self,
        path: &str,
        line: u32,
        pins: &BTreeMap<String, Tristate>,
    ) -> Result<ConfigDelta, String> {
        let Some((_, model)) = self.model_for(path) else {
            return Err("no Kconfig model for this file".to_string());
        };
        model
            .minimize_delta(pins, &|cfg| self.line_present(path, line, cfg))
            .map_err(|proof| {
                let core = model
                    .unsat_core(pins)
                    .map(|(core, _)| {
                        let parts: Vec<String> = core
                            .iter()
                            .map(|(n, v)| format!("CONFIG_{n}={v}"))
                            .collect();
                        format!(" (unsatisfiable core: {})", parts.join(" "))
                    })
                    .unwrap_or_default();
                format!("no witness: {proof}{core}")
            })
    }

    /// Classify every line of every `.c`/`.h` file.
    pub fn analyze(&self) -> TreeReach {
        self.analyze_paths(None)
    }

    /// Classify only the listed files (paths not ending in `.c`/`.h` or
    /// absent from the tree are silently skipped). The include-closure and
    /// Kbuild reasoning still consider the whole tree, so the verdicts are
    /// identical to the corresponding entries of [`Reach::analyze`] — this
    /// only skips the per-line classification cost of unrequested files.
    pub fn analyze_files(&self, only: &[String]) -> TreeReach {
        let set: BTreeSet<String> = only.iter().cloned().collect();
        self.analyze_paths(Some(&set))
    }

    /// The `#if`-stack presence condition of 1-based `line` in `path`,
    /// with the `MODULE` macro substituted by its Kbuild-derived symbolic
    /// truth (for simple-chain `.c` files). `None` when the file is
    /// missing, the line is out of range, or its conditional stack is
    /// unbalanced — the same cases the classifier treats conservatively.
    ///
    /// This is the remediator's entry point: the condition's atoms are
    /// what a config delta must satisfy for the compiler to see the line.
    pub fn line_condition(&self, path: &str, line: u32) -> Option<CondExpr> {
        let raw = self.raw_condition(path, line)?;
        let is_c = path.ends_with(".c");
        let module_expr = is_c.then(|| self.module_expr(&self.chain_of(path)));
        Some(match module_expr.flatten() {
            Some(m) => raw.substitute("MODULE", &m),
            None => raw,
        })
    }

    /// The raw `#if`-stack condition of 1-based `line` in `path`, before
    /// [`Reach::line_condition`] substitutes `MODULE`; `None` in the same
    /// cases.
    pub fn raw_condition(&self, path: &str, line: u32) -> Option<CondExpr> {
        let mut fa = analyze_file(self.tree.get(path)?);
        let i = line.checked_sub(1)? as usize;
        (fa.balanced && i < fa.conds.len()).then(|| fa.conds.swap_remove(i))
    }

    /// Whether the Kbuild guard chain opens `path`'s translation unit
    /// under `cfg`.
    pub fn gate_enabled(&self, path: &str, cfg: &Config) -> bool {
        self.graph.gating_value(path, cfg).enabled()
    }

    /// End-to-end presence of `line` in `path` under a candidate
    /// configuration: the `#if` stack must evaluate to definitely-true
    /// and, for a `.c` file, the Kbuild guard chain must open the
    /// translation unit. Headers only check the condition (whether some
    /// compiled unit includes them is the build engine's job — the
    /// remediation driver verifies that by actually re-running the trial).
    pub fn line_present(&self, path: &str, line: u32, cfg: &Config) -> bool {
        let Some(cond) = self.line_condition(path, line) else {
            return false;
        };
        let gate_ok = !path.ends_with(".c") || self.gate_enabled(path, cfg);
        gate_ok && cond.eval(cfg) == Truth::True
    }

    /// The Kconfig model governing `path` (the arch-specific model for
    /// files under `arch/<a>/`, else the primary model), with its arch
    /// name. `None` when no model is registered.
    pub fn model_for(&self, path: &str) -> Option<(&str, &KconfigModel)> {
        let i = self.model_idx_for(path)?;
        let (arch, model) = &self.models[i];
        Some((arch.as_str(), model))
    }

    fn analyze_paths(&self, only: Option<&BTreeSet<String>>) -> TreeReach {
        let sources: Vec<String> = self
            .tree
            .iter()
            .map(|(p, _)| p.to_string())
            .filter(|p| p.ends_with(".c") || p.ends_with(".h"))
            .collect();
        let fas: BTreeMap<String, FileAnalysis> = sources
            .iter()
            .map(|p| (p.clone(), analyze_file(self.tree.get(p).unwrap_or(""))))
            .collect();
        // Per environment, the set of files pulled in by `#include` from
        // some compiled translation unit (transitively, along includes
        // whose conditions hold).
        let included: Vec<BTreeSet<String>> = self
            .envs
            .iter()
            .map(|env| self.must_included(env, &sources, &fas))
            .collect();
        // Over-approximation of "some configuration pulls this file in by
        // `#include`": every include directive in the tree whose condition
        // is not constant-false, resolved under every registered arch,
        // regardless of whether the includer itself is reachable. A Dead
        // proof that rests on the Kbuild gate barring a translation unit
        // is only sound when no `#include` can open the file text behind
        // the gate's back — and that question ranges over all
        // configurations, not just the environments in `included` (an
        // include guarded by `#ifndef CONFIG_X` is invisible to allyes
        // environments yet very much alive when X is off).
        let maybe_included: BTreeSet<String> = {
            let arches: BTreeSet<&str> = self
                .envs
                .iter()
                .map(|e| e.arch.as_str())
                .chain(self.models.iter().map(|(a, _)| a.as_str()))
                .collect();
            let mut out = BTreeSet::new();
            for (path, fa) in &fas {
                for inc in &fa.includes {
                    if inc.cond == CondExpr::False {
                        continue;
                    }
                    for arch in &arches {
                        if let Some(r) = self.resolve_include(path, &inc.path, inc.quoted, arch) {
                            out.insert(r);
                        }
                    }
                }
            }
            out
        };

        let mut solver_memo: BTreeMap<(usize, BTreeMap<String, Tristate>), ConjunctionVerdict> =
            BTreeMap::new();
        let mut files = BTreeMap::new();
        for path in &sources {
            if only.is_some_and(|set| !set.contains(path)) {
                continue;
            }
            let fa = &fas[path];
            let fr = self.classify_file(path, fa, &included, &maybe_included, &mut solver_memo);
            files.insert(path.clone(), fr);
        }
        TreeReach {
            files,
            env_labels: self.envs.iter().map(|e| e.label.clone()).collect(),
        }
    }

    /// Files transitively `#include`d (conditions holding under `env`)
    /// from any translation unit the env compiles.
    fn must_included(
        &self,
        env: &ReachEnv,
        sources: &[String],
        fas: &BTreeMap<String, FileAnalysis>,
    ) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<String> = sources
            .iter()
            .filter(|p| p.ends_with(".c"))
            .filter(|p| self.graph.gating_value(p, &env.config).enabled())
            .cloned()
            .collect();
        while let Some(p) = stack.pop() {
            let Some(fa) = fas.get(&p) else { continue };
            for inc in &fa.includes {
                if inc.cond.eval(&env.config) != Truth::True {
                    continue;
                }
                if let Some(r) = self.resolve_include(&p, &inc.path, inc.quoted, &env.arch) {
                    if seen.insert(r.clone()) {
                        stack.push(r);
                    }
                }
            }
        }
        seen
    }

    /// The build engine's include resolution
    /// ([`jmake_cpp::resolve_include`] with the search paths `include` and
    /// `arch/<arch>/include`).
    fn resolve_include(
        &self,
        includer: &str,
        path: &str,
        quoted: bool,
        arch: &str,
    ) -> Option<String> {
        let arch_include = format!("arch/{arch}/include");
        let search_paths = ["include", arch_include.as_str()];
        jmake_cpp::resolve_include(path, quoted, includer, &search_paths, |c| {
            self.tree.contains(c).then_some(())
        })
        .map(|(resolved, ())| resolved)
    }

    /// Model index for `path`: the arch-specific model for files under
    /// `arch/<a>/`, otherwise the primary model.
    fn model_idx_for(&self, path: &str) -> Option<usize> {
        if let Some(rest) = path.strip_prefix("arch/") {
            if let Some(a) = rest.split('/').next() {
                if let Some(i) = self.models.iter().position(|(arch, _)| arch == a) {
                    return Some(i);
                }
            }
        }
        if self.models.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    fn classify_file(
        &self,
        path: &str,
        fa: &FileAnalysis,
        included: &[BTreeSet<String>],
        maybe_included: &BTreeSet<String>,
        solver_memo: &mut BTreeMap<(usize, BTreeMap<String, Tristate>), ConjunctionVerdict>,
    ) -> FileReach {
        let conservative = || FileReach {
            path: path.to_string(),
            classes: vec![ReachClass::ConditionallyReachable { witness: None }; fa.conds.len()],
        };
        if !fa.balanced {
            return conservative();
        }
        let is_c = path.ends_with(".c");
        let chain = if is_c {
            self.chain_of(path)
        } else {
            Chain::Complex
        };
        if is_c && matches!(chain, Chain::Never) {
            // The Makefile chain contains an unconditional dead guard
            // (`obj-n`/never-descended directory): the build system never
            // opens this translation unit. A line could still be reached
            // through `#include` of the .c file under *some* configuration
            // — not necessarily one of the registered environments — so
            // the whole-file proof stands only when no include directive
            // anywhere can resolve to this path.
            if !maybe_included.contains(path) {
                return FileReach {
                    path: path.to_string(),
                    classes: vec![
                        ReachClass::Dead {
                            proof: "never-built".to_string()
                        };
                        fa.conds.len()
                    ],
                };
            }
        }
        let module_expr = if is_c { self.module_expr(&chain) } else { None };

        let mut memo: BTreeMap<CondExpr, ReachClass> = BTreeMap::new();
        let mut classes = Vec::with_capacity(fa.conds.len());
        for raw in &fa.conds {
            let cond = match &module_expr {
                Some(m) => raw.substitute("MODULE", m),
                None => raw.clone(),
            };
            if let Some(c) = memo.get(&cond) {
                classes.push(c.clone());
                continue;
            }
            let class = self.classify_cond(
                path,
                is_c,
                &cond,
                &chain,
                included,
                maybe_included.contains(path),
                solver_memo,
            );
            memo.insert(cond, class.clone());
            classes.push(class);
        }
        FileReach {
            path: path.to_string(),
            classes,
        }
    }

    /// Is the line guarded by `cond` in `path` present under `env`? For a
    /// `.c` file the translation unit must be compiled (or the file
    /// itself included from one); headers must be included.
    fn present_under(
        &self,
        path: &str,
        is_c: bool,
        cond: &CondExpr,
        env_idx: usize,
        included: &[BTreeSet<String>],
    ) -> bool {
        let env = &self.envs[env_idx];
        let file_open = if is_c {
            self.graph.gating_value(path, &env.config).enabled() || included[env_idx].contains(path)
        } else {
            included[env_idx].contains(path)
        };
        file_open && cond.eval(&env.config) == Truth::True
    }

    #[allow(clippy::too_many_arguments)]
    fn classify_cond(
        &self,
        path: &str,
        is_c: bool,
        cond: &CondExpr,
        chain: &Chain,
        included: &[BTreeSet<String>],
        bypassable: bool,
        solver_memo: &mut BTreeMap<(usize, BTreeMap<String, Tristate>), ConjunctionVerdict>,
    ) -> ReachClass {
        if *cond == CondExpr::False {
            return ReachClass::Dead {
                proof: "constant-false".to_string(),
            };
        }
        // Phase A: present under an allyes environment.
        for (i, env) in self.envs.iter().enumerate() {
            if env.allyes && self.present_under(path, is_c, cond, i, included) {
                return ReachClass::AllyesReachable;
            }
        }
        // Phase B: present under any other environment.
        for (i, env) in self.envs.iter().enumerate() {
            if !env.allyes && self.present_under(path, is_c, cond, i, included) {
                return ReachClass::ConditionallyReachable {
                    witness: Some(Witness::Env(env.label.clone())),
                };
            }
        }
        // Phase C: enumerate atom assignments and ask the conjunction
        // solver for a witness — only exact for simple `.c` chains.
        if !is_c {
            return ReachClass::ConditionallyReachable { witness: None };
        }
        self.classify_by_solver(path, cond, chain, bypassable, solver_memo)
    }

    fn classify_by_solver(
        &self,
        path: &str,
        cond: &CondExpr,
        chain: &Chain,
        bypassable: bool,
        solver_memo: &mut BTreeMap<(usize, BTreeMap<String, Tristate>), ConjunctionVerdict>,
    ) -> ReachClass {
        let conservative = ReachClass::ConditionallyReachable { witness: None };
        if cond.has_unknown() {
            return conservative;
        }
        let mut atoms = BTreeSet::new();
        cond.atoms(&mut atoms);
        if atoms.iter().any(|a| !a.starts_with("CONFIG_")) || atoms.len() > MAX_ATOMS {
            return conservative;
        }
        let Some(model_idx) = self.model_idx_for(path) else {
            return conservative;
        };
        // Gate pins are only posed for simple chains that no `#include`
        // can bypass; if another translation unit may open the file text
        // directly, the gate need not hold for the line to be compiled.
        // For complex/unlisted/bypassable shapes the solver sees the
        // condition atoms alone, so a hard proof there is about the
        // condition itself and stays sound regardless of what the gate
        // would have added. (The witness end-to-end check below still
        // demands the gate, so dropping the pins only ever degrades a
        // verdict to the conservative class, never inflates it.)
        let chain_vars: &[String] = match chain {
            Chain::Simple(v) if !bypassable => v,
            _ => &[],
        };

        let atom_list: Vec<&String> = atoms.iter().collect();
        let model = &self.models[model_idx].1;
        let mut viable = 0usize;
        let mut hard = 0usize;
        let mut first_proof: Option<String> = None;
        for mask in 0u32..(1u32 << atom_list.len()) {
            let assign: BTreeMap<String, bool> = atom_list
                .iter()
                .enumerate()
                .map(|(i, a)| ((*a).clone(), mask & (1 << i) != 0))
                .collect();
            if cond.eval_assignment(&assign) != Truth::True {
                continue;
            }
            viable += 1;
            match self.try_assignment(
                path,
                cond,
                &assign,
                chain_vars,
                model_idx,
                model,
                solver_memo,
            ) {
                Attempt::Witness(pins) => {
                    return ReachClass::ConditionallyReachable {
                        witness: Some(Witness::Pins(pins)),
                    };
                }
                Attempt::Hard(proof) => {
                    hard += 1;
                    first_proof.get_or_insert(proof);
                }
                Attempt::Soft => {}
            }
        }
        if viable == 0 {
            return ReachClass::Dead {
                proof: "unsatisfiable-conditional-stack".to_string(),
            };
        }
        if hard == viable {
            return ReachClass::Dead {
                proof: first_proof.unwrap_or_else(|| "unsatisfiable".to_string()),
            };
        }
        conservative
    }

    #[allow(clippy::too_many_arguments)]
    fn try_assignment(
        &self,
        path: &str,
        cond: &CondExpr,
        assign: &BTreeMap<String, bool>,
        chain_vars: &[String],
        model_idx: usize,
        model: &KconfigModel,
        solver_memo: &mut BTreeMap<(usize, BTreeMap<String, Tristate>), ConjunctionVerdict>,
    ) -> Attempt {
        // Allowed-value sets per symbol, as bitmasks over {N, M, Y}.
        const N: u8 = 1;
        const M: u8 = 2;
        const Y: u8 = 4;
        let mut allowed: BTreeMap<String, u8> = BTreeMap::new();
        let constrain = |sym: String, set: u8, allowed: &mut BTreeMap<String, u8>| -> bool {
            let slot = allowed.entry(sym).or_insert(N | M | Y);
            *slot &= set;
            *slot != 0
        };
        for (atom, val) in assign {
            let rest = atom.strip_prefix("CONFIG_").unwrap_or(atom);
            // `CONFIG_FOO_MODULE` usually means "FOO built as a module",
            // unless the model really declares a symbol named FOO_MODULE.
            let module_form = rest
                .strip_suffix("_MODULE")
                .filter(|base| !model.is_declared(rest) && !base.is_empty());
            let ok = match (module_form, val) {
                (Some(base), true) => constrain(base.to_string(), M, &mut allowed),
                (Some(base), false) => constrain(base.to_string(), N | Y, &mut allowed),
                (None, true) => constrain(rest.to_string(), Y, &mut allowed),
                (None, false) => constrain(rest.to_string(), N | M, &mut allowed),
            };
            if !ok {
                return Attempt::Hard(format!("contradictory constraints on {rest}"));
            }
        }
        // The translation unit must be compiled: every chain variable ≥ m.
        for var in chain_vars {
            if !constrain(var.clone(), M | Y, &mut allowed) {
                return Attempt::Hard(format!("gate conflict on {var}"));
            }
        }
        // Turn allowed-sets into exact pins. {M,Y} symbols get two
        // candidate fills (all-Y, then all-M).
        let mut base: BTreeMap<String, Tristate> = BTreeMap::new();
        let mut flexible: Vec<String> = Vec::new();
        for (sym, set) in &allowed {
            match *set {
                x if x == Y => {
                    base.insert(sym.clone(), Tristate::Y);
                }
                x if x == M => {
                    base.insert(sym.clone(), Tristate::M);
                }
                x if x == N => {
                    base.insert(sym.clone(), Tristate::N);
                }
                x if x == N | M => {
                    // "not y": pinning n is a sound strengthening for the
                    // witness search (a miss degrades to conservative,
                    // never to a false Dead — hard proofs fire only on
                    // enabled pins).
                    base.insert(sym.clone(), Tristate::N);
                }
                x if x == M | Y => flexible.push(sym.clone()),
                // {N,Y} or unconstrained: leave unpinned.
                _ => {}
            }
        }
        let mut candidates: Vec<BTreeMap<String, Tristate>> = Vec::new();
        if flexible.is_empty() {
            candidates.push(base);
        } else {
            for fill in [Tristate::Y, Tristate::M] {
                let mut pins = base.clone();
                for sym in &flexible {
                    pins.insert(sym.clone(), fill);
                }
                candidates.push(pins);
            }
        }

        let mut hard = 0usize;
        let mut first_proof: Option<String> = None;
        let total = candidates.len();
        for pins in candidates {
            let verdict = solver_memo
                .entry((model_idx, pins.clone()))
                .or_insert_with(|| model.solve_conjunction(&pins))
                .clone();
            match verdict {
                ConjunctionVerdict::Witness(cfg) => {
                    // Concrete end-to-end verification before trusting it.
                    if cond.eval(&cfg) == Truth::True
                        && self.graph.gating_value(path, &cfg).enabled()
                    {
                        return Attempt::Witness(pins);
                    }
                }
                ConjunctionVerdict::Dead(DeadnessProof::Exhausted) => {}
                ConjunctionVerdict::Dead(proof) => {
                    hard += 1;
                    first_proof.get_or_insert(proof.to_string());
                }
            }
        }
        if hard == total {
            Attempt::Hard(first_proof.unwrap_or_else(|| "unsatisfiable".to_string()))
        } else {
            Attempt::Soft
        }
    }

    /// The Kbuild guard chain for a `.c` file, reduced to its simple form
    /// when every level is a single `Always`/`Config` guard.
    fn chain_of(&self, c_path: &str) -> Chain {
        let mut vars: Vec<String> = Vec::new();
        let walked = self.graph.walk_chain(c_path, |conds| {
            if absorb_level(conds, &mut vars) {
                ControlFlow::Continue(())
            } else if single_never(conds) {
                ControlFlow::Break(Chain::Never)
            } else {
                ControlFlow::Break(Chain::Complex)
            }
        });
        match walked {
            Err(Barred::Unlisted) => Chain::Unlisted,
            Err(Barred::NeverDescended) => Chain::Never,
            Ok(ControlFlow::Break(chain)) => chain,
            Ok(ControlFlow::Continue(())) => {
                vars.sort();
                vars.dedup();
                Chain::Simple(vars)
            }
        }
    }

    /// The symbolic truth of the `MODULE` macro for a file with the given
    /// chain: the build engine defines `MODULE` exactly when the gating
    /// value is `m`, i.e. all chain guards are enabled and not all are
    /// built-in.
    fn module_expr(&self, chain: &Chain) -> Option<CondExpr> {
        match chain {
            Chain::Simple(vars) if vars.is_empty() => Some(CondExpr::False),
            Chain::Simple(vars) if vars.len() <= MAX_MODULE_CHAIN => {
                let enabled = vars.iter().fold(CondExpr::True, |acc, v| {
                    acc.and(
                        CondExpr::defined(format!("CONFIG_{v}"))
                            .or(CondExpr::defined(format!("CONFIG_{v}_MODULE"))),
                    )
                });
                let all_builtin = vars.iter().fold(CondExpr::True, |acc, v| {
                    acc.and(CondExpr::defined(format!("CONFIG_{v}")))
                });
                Some(enabled.and(all_builtin.negate()))
            }
            _ => None,
        }
    }
}

enum Attempt {
    Witness(BTreeMap<String, Tristate>),
    Hard(String),
    Soft,
}

/// The Kbuild chain shape for one `.c` file.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Chain {
    /// Contains an unconditional dead guard (`obj-n`, undescended dir):
    /// the build never opens the file.
    Never,
    /// Every level is one `Always` or `Config(var)` guard; these are the
    /// variables along the chain.
    Simple(Vec<String>),
    /// Multiple alternative guards or `Module` lists somewhere — gate
    /// pins would be unsound, stay conservative.
    Complex,
    /// Not listed in any Makefile (no object entry).
    Unlisted,
}

/// One makefile level with a single simple guard folds into `vars`.
fn absorb_level(conds: &[&Cond], vars: &mut Vec<String>) -> bool {
    if conds.len() != 1 {
        return false;
    }
    match conds[0] {
        Cond::Always => true,
        Cond::Config(v) => {
            vars.push(v.clone());
            true
        }
        _ => false,
    }
}

fn single_never(conds: &[&Cond]) -> bool {
    conds.len() == 1 && matches!(conds[0], Cond::Never)
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;
    use jmake_kconfig::KconfigModel;

    fn model(src: &str) -> KconfigModel {
        let mut m = KconfigModel::new();
        m.parse_str("Kconfig", src).unwrap();
        m
    }

    fn reach_over(tree: &SourceTree, m: KconfigModel) -> TreeReach {
        let mut r = Reach::new(tree);
        let allyes = m.allyesconfig();
        let allmod = m.allmodconfig();
        r.add_model("x86_64", m);
        r.add_env(ReachEnv {
            label: "x86_64-allyes".into(),
            arch: "x86_64".into(),
            config: allyes,
            allyes: true,
        });
        r.add_env(ReachEnv {
            label: "x86_64-allmod".into(),
            arch: "x86_64".into(),
            config: allmod,
            allyes: false,
        });
        r.analyze()
    }

    fn demo_tree() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert("Makefile", "obj-y += kernel/ drivers/\n");
        t.insert("kernel/Makefile", "obj-y += main.o\n");
        t.insert(
            "kernel/main.c",
            "#include <linux/foo.h>\n\
             int always;\n\
             #ifdef CONFIG_NET\n\
             int net_only;\n\
             #endif\n\
             #ifdef CONFIG_MISSING\n\
             int never;\n\
             #endif\n\
             #if 0\n\
             int dead_code;\n\
             #endif\n\
             #ifndef CONFIG_NET\n\
             int no_net;\n\
             #endif\n",
        );
        t.insert("drivers/Makefile", "obj-$(CONFIG_E1000) += e1000.o\n");
        t.insert(
            "drivers/e1000.c",
            "int probe;\n\
             #ifdef MODULE\n\
             int module_only;\n\
             #endif\n",
        );
        t.insert(
            "include/linux/foo.h",
            "#ifndef LINUX_FOO_H\n\
             #define LINUX_FOO_H\n\
             int foo_decl;\n\
             #ifdef CONFIG_NET\n\
             int foo_net;\n\
             #endif\n\
             #endif\n",
        );
        t
    }

    fn demo_model() -> KconfigModel {
        model(
            "config NET\n\tbool \"net\"\n\
             config E1000\n\ttristate \"e1000\"\n\tdepends on NET\n",
        )
    }

    #[test]
    fn plain_lines_are_allyes_reachable() {
        let t = demo_tree();
        let tr = reach_over(&t, demo_model());
        let main = &tr.files["kernel/main.c"];
        assert_eq!(main.class(2), Some(&ReachClass::AllyesReachable));
        assert_eq!(
            main.class(4),
            Some(&ReachClass::AllyesReachable),
            "NET=y under allyes"
        );
    }

    #[test]
    fn line_condition_exposes_the_if_stack() {
        let t = demo_tree();
        let m = demo_model();
        let allyes = m.allyesconfig();
        let mut r = Reach::new(&t);
        r.add_model("x86_64", m);
        // Unconditional line: trivially true condition.
        let c2 = r.line_condition("kernel/main.c", 2).unwrap();
        assert_eq!(c2.eval(&allyes), Truth::True);
        // `#ifdef CONFIG_NET` body: true exactly when NET is builtin.
        let c4 = r.line_condition("kernel/main.c", 4).unwrap();
        assert_eq!(c4.eval(&allyes), Truth::True);
        let mut off = allyes;
        off.set("NET", Tristate::N);
        assert_eq!(c4.eval(&off), Truth::False);
        // Out-of-range lines and line 0 yield nothing.
        assert!(r.line_condition("kernel/main.c", 0).is_none());
        assert!(r.line_condition("kernel/main.c", 999).is_none());
        assert!(r.line_condition("no/such/file.c", 1).is_none());
    }

    #[test]
    fn line_condition_substitutes_module_from_the_chain() {
        let t = demo_tree();
        let m = demo_model();
        let allyes = m.allyesconfig();
        let allmod = m.allmodconfig();
        let mut r = Reach::new(&t);
        r.add_model("x86_64", m);
        // `#ifdef MODULE` in an obj-$(CONFIG_E1000) file: true exactly
        // when E1000 is built as a module.
        let c = r.line_condition("drivers/e1000.c", 3).unwrap();
        assert_eq!(
            c.eval(&allyes),
            Truth::False,
            "builtin build defines no MODULE"
        );
        assert_eq!(c.eval(&allmod), Truth::True, "E1000=m build defines MODULE");
    }

    #[test]
    fn line_present_demands_gate_and_condition() {
        let t = demo_tree();
        let m = demo_model();
        let allyes = m.allyesconfig();
        let allmod = m.allmodconfig();
        let mut r = Reach::new(&t);
        r.add_model("x86_64", m);
        assert!(r.line_present("drivers/e1000.c", 1, &allyes));
        assert!(!r.line_present("drivers/e1000.c", 3, &allyes));
        assert!(r.line_present("drivers/e1000.c", 3, &allmod));
        // Gate closed: E1000 off keeps even unconditional lines out.
        let mut off = allyes;
        off.set("E1000", Tristate::N);
        assert!(!r.line_present("drivers/e1000.c", 1, &off));
        // Headers only check the condition.
        assert!(r.line_present("include/linux/foo.h", 3, &off));
    }

    #[test]
    fn model_for_picks_arch_models() {
        let t = demo_tree();
        let mut r = Reach::new(&t);
        r.add_model("x86_64", demo_model());
        r.add_model("arm", KconfigModel::new());
        let (arch, m) = r.model_for("kernel/main.c").unwrap();
        assert_eq!(arch, "x86_64");
        assert!(m.is_declared("NET"));
        let (arch, _) = r.model_for("arch/arm/setup.c").unwrap();
        assert_eq!(arch, "arm");
    }

    #[test]
    fn undeclared_config_guard_is_dead() {
        let t = demo_tree();
        let tr = reach_over(&t, demo_model());
        let main = &tr.files["kernel/main.c"];
        match main.class(7) {
            Some(ReachClass::Dead { proof }) => {
                assert!(proof.contains("undeclared"), "got proof {proof}")
            }
            other => panic!("expected Dead, got {other:?}"),
        }
    }

    #[test]
    fn if_zero_is_dead_constant() {
        let t = demo_tree();
        let tr = reach_over(&t, demo_model());
        let main = &tr.files["kernel/main.c"];
        assert_eq!(
            main.class(10),
            Some(&ReachClass::Dead {
                proof: "constant-false".to_string()
            })
        );
    }

    #[test]
    fn negated_guard_gets_pin_witness() {
        let t = demo_tree();
        let tr = reach_over(&t, demo_model());
        let main = &tr.files["kernel/main.c"];
        match main.class(13) {
            Some(ReachClass::ConditionallyReachable {
                witness: Some(Witness::Pins(pins)),
            }) => {
                assert_eq!(pins.get("NET"), Some(&Tristate::N));
            }
            other => panic!("expected pin witness, got {other:?}"),
        }
    }

    /// `SLIMLINE` needs the promptless `KERNEL_CORE` off while the file's
    /// gate `PLOVER` needs `NET_DRIVERS` on: only the solver's
    /// negated-dependency strategy satisfies both.
    fn slimline_tree_and_model() -> (SourceTree, KconfigModel) {
        let mut t = SourceTree::new();
        t.insert("Makefile", "obj-y += drivers/\n");
        t.insert("drivers/Makefile", "obj-$(CONFIG_PLOVER) += plover.o\n");
        t.insert(
            "drivers/plover.c",
            "int plover;\n#ifdef CONFIG_SLIMLINE\nint slim_path;\n#endif\n",
        );
        let m = model(
            "config KERNEL_CORE\n\tdef_bool y\n\
             config SLIMLINE\n\tbool \"slim\"\n\tdepends on !KERNEL_CORE\n\
             config NET_DRIVERS\n\tdef_bool y\n\
             config PLOVER\n\ttristate \"plover\"\n\tdepends on NET_DRIVERS\n",
        );
        (t, m)
    }

    #[test]
    fn negated_dependency_inside_a_gated_driver_gets_pin_witness() {
        let (t, m) = slimline_tree_and_model();
        let tr = reach_over(&t, m);
        match tr.files["drivers/plover.c"].class(3) {
            Some(ReachClass::ConditionallyReachable {
                witness: Some(Witness::Pins(pins)),
            }) => {
                assert_eq!(pins.get("SLIMLINE"), Some(&Tristate::Y));
                assert!(pins.get("PLOVER").is_some_and(|v| v.enabled()));
            }
            other => panic!("expected pin witness, got {other:?}"),
        }
    }

    #[test]
    fn witness_delta_minimizes_the_pins_against_allyes() {
        let (t, m) = slimline_tree_and_model();
        let mut r = Reach::new(&t);
        r.add_model("x86_64", m);
        let pins = BTreeMap::from([
            ("PLOVER".to_string(), Tristate::Y),
            ("SLIMLINE".to_string(), Tristate::Y),
        ]);
        let delta = r.witness_delta("drivers/plover.c", 3, &pins).unwrap();
        assert_eq!(delta.suggestion(), "CONFIG_KERNEL_CORE=n CONFIG_SLIMLINE=y");
        assert!(r.line_present("drivers/plover.c", 3, &delta.config));
        // A pin on an undeclared symbol has no witness, and says why.
        let ghost = BTreeMap::from([("GHOST".to_string(), Tristate::Y)]);
        assert_eq!(
            r.witness_delta("drivers/plover.c", 3, &ghost).unwrap_err(),
            "no witness: undeclared symbol GHOST (unsatisfiable core: CONFIG_GHOST=y)"
        );
    }

    #[test]
    fn module_guard_reachable_via_allmod() {
        let t = demo_tree();
        let tr = reach_over(&t, demo_model());
        let e1000 = &tr.files["drivers/e1000.c"];
        assert_eq!(e1000.class(1), Some(&ReachClass::AllyesReachable));
        match e1000.class(3) {
            Some(ReachClass::ConditionallyReachable { witness: Some(w) }) => match w {
                Witness::Env(l) => assert_eq!(l, "x86_64-allmod"),
                Witness::Pins(p) => assert_eq!(p.get("E1000"), Some(&Tristate::M)),
            },
            other => panic!("expected conditional, got {other:?}"),
        }
    }

    #[test]
    fn header_lines_follow_inclusion_and_guard() {
        let t = demo_tree();
        let tr = reach_over(&t, demo_model());
        let foo = &tr.files["include/linux/foo.h"];
        // Guard discharged: declaration is allyes-reachable via main.c.
        assert_eq!(foo.class(3), Some(&ReachClass::AllyesReachable));
        assert_eq!(foo.class(5), Some(&ReachClass::AllyesReachable));
    }

    #[test]
    fn unincluded_header_is_conservative() {
        let mut t = demo_tree();
        t.insert("include/linux/orphan.h", "int orphan;\n");
        let tr = reach_over(&t, demo_model());
        let orphan = &tr.files["include/linux/orphan.h"];
        assert_eq!(
            orphan.class(1),
            Some(&ReachClass::ConditionallyReachable { witness: None })
        );
    }

    #[test]
    fn undeclared_gate_makes_whole_file_dead() {
        let mut t = demo_tree();
        t.insert(
            "drivers/Makefile",
            "obj-$(CONFIG_E1000) += e1000.o\nobj-$(CONFIG_LEGACY_IO) += legacy.o\n",
        );
        t.insert("drivers/legacy.c", "int legacy_io;\n");
        let tr = reach_over(&t, demo_model());
        let legacy = &tr.files["drivers/legacy.c"];
        match legacy.class(1) {
            Some(ReachClass::Dead { proof }) => {
                assert!(proof.contains("LEGACY_IO"), "got proof {proof}")
            }
            other => panic!("expected Dead, got {other:?}"),
        }
    }

    #[test]
    fn obj_n_file_is_never_built() {
        let mut t = demo_tree();
        t.insert("kernel/Makefile", "obj-y += main.o\nobj-n += stale.o\n");
        t.insert("kernel/stale.c", "int stale;\n");
        let tr = reach_over(&t, demo_model());
        let stale = &tr.files["kernel/stale.c"];
        assert_eq!(
            stale.class(1),
            Some(&ReachClass::Dead {
                proof: "never-built".to_string()
            })
        );
    }

    #[test]
    fn unlisted_file_stays_conservative() {
        let mut t = demo_tree();
        t.insert("kernel/ghost.c", "int ghost;\n");
        let tr = reach_over(&t, demo_model());
        let ghost = &tr.files["kernel/ghost.c"];
        assert_eq!(
            ghost.class(1),
            Some(&ReachClass::ConditionallyReachable { witness: None })
        );
    }

    #[test]
    fn unknown_macro_guard_stays_conservative() {
        let mut t = demo_tree();
        t.insert("kernel/main.c", "#if WEIRD_MACRO > 3\nint weird;\n#endif\n");
        let tr = reach_over(&t, demo_model());
        let main = &tr.files["kernel/main.c"];
        assert_eq!(
            main.class(2),
            Some(&ReachClass::ConditionallyReachable { witness: None })
        );
    }

    #[test]
    fn json_summary_is_deterministic_and_counts_add_up() {
        let t = demo_tree();
        let m = demo_model();
        let a = reach_over(&t, m.clone());
        let b = reach_over(&t, m);
        assert_eq!(a.to_json(), b.to_json());
        let (ay, cond, dead) = a.counts();
        let total: usize = a.files.values().map(|f| f.classes.len()).sum();
        assert_eq!(ay + cond + dead, total);
        assert!(a.to_json().contains("\"total\""));
    }

    #[test]
    fn analyze_files_matches_full_analysis() {
        let t = demo_tree();
        let m = demo_model();
        let full = reach_over(&t, m.clone());
        let mut r = Reach::new(&t);
        let allyes = m.allyesconfig();
        let allmod = m.allmodconfig();
        r.add_model("x86_64", m);
        r.add_env(ReachEnv {
            label: "x86_64-allyes".into(),
            arch: "x86_64".into(),
            config: allyes,
            allyes: true,
        });
        r.add_env(ReachEnv {
            label: "x86_64-allmod".into(),
            arch: "x86_64".into(),
            config: allmod,
            allyes: false,
        });
        let only = vec![
            "kernel/main.c".to_string(),
            "include/linux/foo.h".to_string(),
            "not/in/tree.c".to_string(),
        ];
        let partial = r.analyze_files(&only);
        assert_eq!(partial.files.len(), 2, "missing paths are skipped");
        for (path, fr) in &partial.files {
            assert_eq!(
                fr.classes, full.files[path].classes,
                "restricted analysis diverged for {path}"
            );
        }
    }

    #[test]
    fn dead_ifdef_block_is_classified_dead_with_witnessed_neighbors() {
        // The acceptance-criterion shape: a planted dead block among live
        // conditional code.
        let mut t = SourceTree::new();
        t.insert("Makefile", "obj-y += lib/\n");
        t.insert("lib/Makefile", "obj-$(CONFIG_CRC) += crc.o\n");
        t.insert(
            "lib/crc.c",
            "int crc_base;\n\
             #ifdef CONFIG_DEAD_OPTION\n\
             int planted_dead;\n\
             #endif\n",
        );
        let m = model("config CRC\n\tbool \"crc\"\n");
        let tr = reach_over(&t, m);
        let crc = &tr.files["lib/crc.c"];
        assert_eq!(crc.class(1), Some(&ReachClass::AllyesReachable));
        match crc.class(3) {
            Some(ReachClass::Dead { proof }) => {
                assert!(proof.contains("DEAD_OPTION"), "got proof {proof}")
            }
            other => panic!("expected Dead, got {other:?}"),
        }
    }
}
