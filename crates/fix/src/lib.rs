//! `jmake-fix`: static root-cause analysis and *verified* configuration
//! remediation for the lines JMake could not certify.
//!
//! The mutation pipeline ([`jmake_core::check`]) tells a janitor *that* a
//! changed line escaped the compiler and labels it with the paper's
//! Table IV reason ([`jmake_core::classify`]). This crate answers the two
//! follow-up questions:
//!
//! 1. **Why, provably?** For every missed line the remediator derives the
//!    line's *presence condition* — the `#if` stack (with the Kbuild
//!    `MODULE` substitution) conjoined with the file's Kbuild guard chain
//!    and the Kconfig constraints — via [`jmake_reach`], and root-causes
//!    the miss into a static taxonomy ([`StaticCause`]) *from the
//!    condition alone*. The static verdict is cross-checked against the
//!    dynamic Table IV label; a provable clash is surfaced as a
//!    [`Disagreement`], exactly like `--cross-check` discrepancies.
//!
//! 2. **What should I flip?** When the reachability analyzer holds a
//!    solver witness for the line, the remediator minimizes it over
//!    [`jmake_kconfig::KconfigModel::minimize_delta`] into the smallest
//!    set of symbol flips against `allyesconfig` (fewest flips;
//!    deterministic name-order tie-breaking) and renders it as a
//!    `CONFIG_FOO=m`-style suggestion. **Every emitted delta is
//!    verified**: the driver re-runs that single (file × arch) trial —
//!    re-mutate, `make file.i` under the synthesized config, scan for the
//!    token, `make file.o` pristine — before the suggestion may appear in
//!    a report. Deltas that fail re-verification are downgraded to
//!    [`Remedy::Unfixable`] with the failure reason; conjunctions the
//!    solver proves hopeless carry the solver's proof and (when one
//!    exists) a locally-minimal unsatisfiable core.
//!
//! The pass is an [`Oracle`] over the one static replay of a finished
//! run ([`jmake_core::replay()`]) that [`jmake_core::crosscheck`] also
//! reads: commits in run order, files and tokens in report order, no
//! wall-clock in the JSON. Running it does not perturb
//! the evaluation — with `--fix` off, reports are byte-identical to a
//! build without this crate; with `--fix` on, the remediation output is
//! identical across worker counts, cache modes, and disk-tier
//! temperature.

#![deny(missing_docs)]

use jmake_core::{
    branch_tree, class_arch, json_objects, json_strings, mutate, region_line, replay, ArchView,
    EvaluationRun, FileReport, MutationKind, MutationToken, Oracle, Replayed, UncoveredMutation,
    UncoveredReason,
};
use jmake_diff::{ChangedLine, ChangedLines};
use jmake_kbuild::{BuildEngine, ConfigCache, ConfigKind, ObjectCache, PreprocCache, SourceTree};
use jmake_kconfig::Tristate;
use jmake_reach::{ReachClass, Truth, Witness};
use jmake_trace::jsonl::escape;
use jmake_trace::{Stage, Tracer};
use jmake_vcs::Repo;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// The static root-cause taxonomy, derived from the presence condition
/// alone (paper Table IV, restated over proofs instead of guard shapes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticCause {
    /// The `#if` stack is constant-false (`#if 0` and friends).
    IfZero,
    /// The condition requires the `MODULE` macro, which no built-in
    /// compilation defines (`allmodconfig` territory).
    IfdefModule,
    /// The condition requires `MODULE`, but the object is built in only
    /// (`obj-y`), so no configuration — `allmodconfig` included —
    /// compiles it as a module.
    ModuleOnBuiltin,
    /// The condition requires a symbol declared nowhere in Kconfig.
    NeverDefined(String),
    /// Satisfiable, but not under `allyesconfig` — the delta-synthesis
    /// case.
    UnsettableUnderAllyes,
    /// The file lives under `arch/<a>/` for an architecture the
    /// classifying environment does not cover.
    ArchGated(String),
    /// Statically dead with a solver or Kbuild proof (dead symbol,
    /// choice conflict, never-built translation unit, …).
    DeadByProof(String),
    /// No definite static claim (ambiguous token region, analyzer
    /// bounds, or a statically allyes-reachable miss, which is
    /// `--cross-check`'s department).
    Unclassified,
}

impl StaticCause {
    /// Stable report tag.
    pub fn label(&self) -> String {
        match self {
            StaticCause::IfZero => "if-0".to_string(),
            StaticCause::IfdefModule => "ifdef-module".to_string(),
            StaticCause::ModuleOnBuiltin => "module-on-builtin".to_string(),
            StaticCause::NeverDefined(s) => format!("never-defined:{s}"),
            StaticCause::UnsettableUnderAllyes => "unsettable-under-allyes".to_string(),
            StaticCause::ArchGated(a) => format!("arch-gated:{a}"),
            StaticCause::DeadByProof(p) => format!("dead-by-proof:{p}"),
            StaticCause::Unclassified => "unclassified".to_string(),
        }
    }

    /// Can this static claim coexist with the dynamic Table IV label?
    ///
    /// Each definite static cause lists the dynamic rows it legitimately
    /// co-occurs with; the permissive dynamic rows (`Unknown`,
    /// `UnusedMacro`, `IfdefAndElse`) never clash because they make no
    /// claim about the guard the static side reasoned over. Anything
    /// outside the listed sets is a provable taxonomy clash and becomes a
    /// [`Disagreement`].
    pub fn compatible_with(&self, dynamic: UncoveredReason) -> bool {
        use UncoveredReason as R;
        if matches!(dynamic, R::Unknown | R::UnusedMacro | R::IfdefAndElse) {
            return true;
        }
        match self {
            StaticCause::IfZero => dynamic == R::IfZero,
            StaticCause::IfdefModule | StaticCause::ModuleOnBuiltin => dynamic == R::IfdefModule,
            StaticCause::NeverDefined(_) => dynamic == R::IfdefNeverSetInKernel,
            StaticCause::UnsettableUnderAllyes => matches!(
                dynamic,
                R::IfdefNotSetByAllyesconfig | R::IfndefOrElse | R::IfdefNeverSetInKernel
            ),
            // Kbuild-gate and solver proofs have no dynamic counterpart
            // row; the dynamic side reads guards only.
            StaticCause::DeadByProof(_) | StaticCause::ArchGated(_) | StaticCause::Unclassified => {
                true
            }
        }
    }
}

/// The remediation attached to one missed line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Remedy {
    /// A minimal, *verified* config delta against `allyesconfig`.
    Delta {
        /// `CONFIG_FOO=m CONFIG_BAR=n`-style rendering of the flips.
        suggestion: String,
        /// Number of symbols flipped.
        flips: usize,
    },
    /// A whole-environment switch (e.g. `allmodconfig`, another arch's
    /// `allyesconfig`), verified by re-running the trial under it.
    Environment {
        /// `arch/kind` description of the verified environment.
        target: String,
    },
    /// No verified remedy exists; the reason carries the proof or the
    /// verification failure.
    Unfixable {
        /// Why nothing could be (or needed to be) synthesized.
        reason: String,
    },
}

impl fmt::Display for Remedy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Remedy::Delta { suggestion, .. } => write!(f, "set {suggestion} (verified)"),
            Remedy::Environment { target } => write!(f, "build with {target} (verified)"),
            Remedy::Unfixable { reason } => write!(f, "unfixable: {reason}"),
        }
    }
}

/// One missed line's full remediation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Remediation {
    /// Commit whose patch missed the line.
    pub commit: String,
    /// File the token lives in.
    pub file: String,
    /// 1-based line of the mutation token.
    pub line: u32,
    /// Architecture whose model/configuration the static side used.
    pub arch: String,
    /// Static root cause ([`StaticCause::label`]).
    pub cause: String,
    /// The dynamic Table IV label the pipeline recorded.
    pub dynamic: String,
    /// Whether the static and dynamic verdicts are compatible.
    pub agrees: bool,
    /// The verified remedy (or the reason there is none).
    pub remedy: Remedy,
}

impl Remediation {
    /// The per-file report line grafted into
    /// [`jmake_core::FileReport::remediations`].
    pub fn render(&self) -> String {
        format!("line {} — {}", self.line, self.remedy)
    }
}

/// A provable static-vs-dynamic taxonomy clash, surfaced exactly like a
/// `--cross-check` discrepancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// Commit whose patch exposed the clash.
    pub commit: String,
    /// File the token lives in.
    pub file: String,
    /// 1-based line of the mutation token.
    pub line: u32,
    /// The static claim ([`StaticCause::label`]).
    pub static_cause: String,
    /// The dynamic Table IV label.
    pub dynamic: String,
}

/// The outcome of the remediation pass over one [`EvaluationRun`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FixReport {
    /// Commits examined (checked patches only).
    pub patches: usize,
    /// File reports examined.
    pub files: usize,
    /// Missed (uncovered) tokens examined.
    pub missed: usize,
    /// Config deltas emitted — every one verified by a driver re-run.
    pub deltas_emitted: usize,
    /// Deltas that passed verification (equals `deltas_emitted` by
    /// construction: failures are downgraded, never emitted).
    pub deltas_verified: usize,
    /// Synthesized deltas that *failed* the verification re-run and were
    /// downgraded to [`Remedy::Unfixable`].
    pub verification_failures: usize,
    /// Missed lines with no verified remedy.
    pub unfixable: usize,
    /// Simulated build time the verification re-runs charged (config
    /// solving, preprocessing, compiling). Cache modes and worker counts
    /// do not perturb it — hits charge the clock what a live run would —
    /// so it participates in the byte-identity contract.
    pub virtual_us: u64,
    /// Deterministic notes about commits/files the pass could not replay.
    pub skipped: Vec<String>,
    /// Every provable static-vs-dynamic clash, in run order.
    pub disagreements: Vec<Disagreement>,
    /// One record per missed token, in run order.
    pub remediations: Vec<Remediation>,
}

impl FixReport {
    /// True when no taxonomy clash was found and every emitted delta was
    /// verified.
    pub fn is_clean(&self) -> bool {
        self.disagreements.is_empty() && self.deltas_emitted == self.deltas_verified
    }

    /// Deterministic JSON rendering — no wall-clock; byte-identical
    /// across worker counts, cache modes, and disk-tier temperature.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"clean\": {},\n  \"patches\": {},\n  \"files\": {},\n  \"missed\": {},\n  \"deltas_emitted\": {},\n  \"deltas_verified\": {},\n  \"verification_failures\": {},\n  \"unfixable\": {},\n",
            self.is_clean(),
            self.patches,
            self.files,
            self.missed,
            self.deltas_emitted,
            self.deltas_verified,
            self.verification_failures,
            self.unfixable
        ));
        out.push_str(&format!("  \"virtual_us\": {},\n", self.virtual_us));
        let disagreements = self.disagreements.iter().map(|d| format!(
            "{{\"commit\": \"{}\", \"file\": \"{}\", \"line\": {}, \"static\": \"{}\", \"dynamic\": \"{}\"}}",
            escape(&d.commit),
            escape(&d.file),
            d.line,
            escape(&d.static_cause),
            escape(&d.dynamic)
        ));
        let remediations = self.remediations.iter().map(|r| {
            let remedy = match &r.remedy {
                Remedy::Delta { suggestion, flips } => format!(
                    "\"delta\", \"suggestion\": \"{}\", \"flips\": {flips}",
                    escape(suggestion)
                ),
                Remedy::Environment { target } => {
                    format!("\"environment\", \"target\": \"{}\"", escape(target))
                }
                Remedy::Unfixable { reason } => {
                    format!("\"unfixable\", \"reason\": \"{}\"", escape(reason))
                }
            };
            format!(
                "{{\"commit\": \"{}\", \"file\": \"{}\", \"line\": {}, \"arch\": \"{}\", \"cause\": \"{}\", \"dynamic\": \"{}\", \"agrees\": {}, \"remedy\": {remedy}}}",
                escape(&r.commit),
                escape(&r.file),
                r.line,
                escape(&r.arch),
                escape(&r.cause),
                escape(&r.dynamic),
                r.agrees
            )
        });
        out.push_str(&format!(
            "  \"skipped\": {},\n  \"disagreements\": {},\n  \"remediations\": {}\n}}\n",
            json_strings(&self.skipped),
            json_objects(disagreements),
            json_objects(remediations)
        ));
        out
    }
}

/// Shared infrastructure for the pass: the caches a warm daemon (or the
/// evaluation that just ran) already holds, plus the tracer that tags the
/// verification re-runs with [`Stage::Remediate`].
#[derive(Clone, Default)]
pub struct FixContext {
    /// Cross-patch configuration cache (shared with the evaluation run
    /// for warm reuse).
    pub configs: Arc<ConfigCache>,
    /// Object cache, when the run had one.
    pub objects: Option<Arc<ObjectCache>>,
    /// Preprocessor cache, when the run had one.
    pub preproc: Option<Arc<PreprocCache>>,
    /// Tracer for `remediate` spans (disabled by default).
    pub tracer: Tracer,
}

impl FixContext {
    /// An engine over `tree` attached to the context's stores and tracer:
    /// the engine each replayed view is solved and verified on.
    pub fn engine(&self, tree: SourceTree) -> BuildEngine {
        let mut engine = BuildEngine::with_shared_cache(tree, Arc::clone(&self.configs));
        if let Some(o) = &self.objects {
            engine.set_object_cache(Arc::clone(o));
        }
        if let Some(p) = &self.preproc {
            engine.set_preproc_cache(Arc::clone(p));
        }
        engine.set_tracer(self.tracer.clone());
        engine
    }
}

/// Replay `run` and remediate every missed line with default (cold,
/// untraced) infrastructure. See [`remediate_with`].
pub fn remediate(repo: &Repo, run: &EvaluationRun) -> FixReport {
    remediate_with(repo, run, &FixContext::default())
}

/// Replay `run` against the static analyzer, root-cause every uncovered
/// token, synthesize minimal config deltas where a witness exists, and
/// verify each one by re-running its (file × arch) trial on the view's
/// [`BuildEngine`], which shares `ctx`'s caches.
pub fn remediate_with(repo: &Repo, run: &EvaluationRun, ctx: &FixContext) -> FixReport {
    let mut out = FixReport::default();
    replay(repo, run, &|tree| ctx.engine(tree), &mut [&mut out]);
    out
}

/// Graft the remediation lines into the run's file reports, so the
/// per-patch report (text and JSON) carries the suggestions. Only
/// called with `--fix` on — without it the reports stay byte-identical.
pub fn annotate_run(run: &mut EvaluationRun, fix: &FixReport) {
    let mut by_key: BTreeMap<(&str, &str), Vec<&Remediation>> = BTreeMap::new();
    for r in &fix.remediations {
        by_key
            .entry((r.commit.as_str(), r.file.as_str()))
            .or_default()
            .push(r);
    }
    for result in &mut run.results {
        let commit = result.commit.to_string();
        let jmake_core::PatchOutcome::Checked(report) = &mut result.outcome else {
            continue;
        };
        for file in &mut report.files {
            if let Some(rs) = by_key.get(&(commit.as_str(), file.path.as_str())) {
                file.remediations = rs.iter().map(|r| r.render()).collect();
            }
        }
    }
}

impl Oracle for FixReport {
    fn visit(&mut self, commit: &mut Replayed<'_>) {
        let files = commit.files;
        let unfixable = |reason| (StaticCause::Unclassified, Remedy::Unfixable { reason });
        self.files += files.len();
        for file in files.iter().filter(|f| !f.uncovered.is_empty()) {
            let arch = class_arch(&file.targets_tried);
            let tree = branch_tree(commit.tree.get(&file.path).unwrap_or(""));
            for unc in &file.uncovered {
                self.missed += 1;
                let (cause, remedy) = match &arch {
                    None => unfixable("no architecture was ever configured for this file".into()),
                    Some(arch) => match commit.views.get_mut(arch) {
                        None => unfixable(format!("architecture {arch} could not be replayed")),
                        Some(view) => {
                            let region = region_line(&tree, unc.token.line);
                            let (cause, plan) = static_cause(file, &unc.token, region, arch, view);
                            let remedy = execute_plan(plan, file, &unc.token, arch, view, self);
                            (cause, remedy)
                        }
                    },
                };
                let arch = arch.as_deref().unwrap_or("-");
                self.record(commit.commit, file, unc, arch, &cause, remedy);
            }
        }
        for view in commit.views.values() {
            self.virtual_us += view.engine.clock.now_us();
        }
    }

    fn close(&mut self, patches: usize, skipped: &[String]) {
        self.patches = patches;
        self.skipped = skipped.to_vec();
    }
}

impl FixReport {
    /// Record one missed token's static cause and remedy.
    fn record(
        &mut self,
        commit: &str,
        file: &FileReport,
        unc: &UncoveredMutation,
        arch: &str,
        cause: &StaticCause,
        remedy: Remedy,
    ) {
        let (line, dynamic) = (unc.token.line, unc.reason);
        let agrees = cause.compatible_with(dynamic);
        if !agrees {
            self.disagreements.push(Disagreement {
                commit: commit.to_string(),
                file: file.path.clone(),
                line,
                static_cause: cause.label(),
                dynamic: dynamic.to_string(),
            });
        }
        match &remedy {
            Remedy::Delta { .. } => {
                self.deltas_emitted += 1;
                self.deltas_verified += 1;
            }
            Remedy::Environment { .. } => {}
            Remedy::Unfixable { .. } => self.unfixable += 1,
        }
        self.remediations.push(Remediation {
            commit: commit.to_string(),
            file: file.path.clone(),
            line,
            arch: arch.to_string(),
            cause: cause.label(),
            dynamic: dynamic.to_string(),
            agrees,
            remedy,
        });
    }
}

/// What the verification driver should attempt for one missed line.
enum Plan {
    /// Minimize the solver witness for the token's region line into a
    /// config delta, then verify it.
    Delta(u32, BTreeMap<String, Tristate>),
    /// Verify a whole environment: `kind` solved for an arch.
    Env(String, ConfigKind),
    /// Nothing to verify; the reason ships as [`Remedy::Unfixable`].
    Nothing(String),
}

/// Root-cause one missed token from the presence condition of its
/// `region` line ([`region_line`]), and decide what (if anything) the
/// driver should try to verify.
fn static_cause(
    file: &FileReport,
    token: &MutationToken,
    region: Option<u32>,
    arch: &str,
    view: &ArchView<'_>,
) -> (StaticCause, Plan) {
    if token.kind != MutationKind::Context {
        return (
            StaticCause::Unclassified,
            Plan::Nothing(
                "changed macro surfaced in no attempted configuration; no config delta applies"
                    .to_string(),
            ),
        );
    }
    let Some(region) = region else {
        return (
            StaticCause::Unclassified,
            Plan::Nothing("no pristine line shares the token's arm".to_string()),
        );
    };
    // Files owned by another architecture: the classifying environment
    // never sees them; the remedy is that arch's own allyesconfig.
    if let Some(owner) = file
        .path
        .strip_prefix("arch/")
        .and_then(|rest| rest.split('/').next())
    {
        if owner != arch {
            return (
                StaticCause::ArchGated(owner.to_string()),
                Plan::Env(owner.to_string(), ConfigKind::AllYes),
            );
        }
    }
    // The raw `#if` stack, before `MODULE` is substituted by its Kbuild
    // truth.
    let Some(raw) = view.reach.raw_condition(&file.path, region) else {
        return (
            StaticCause::Unclassified,
            Plan::Nothing("unbalanced or out-of-range conditional stack".to_string()),
        );
    };
    let mut atoms = BTreeSet::new();
    raw.atoms(&mut atoms);
    let raw_mentions_module = atoms.contains("MODULE");
    let class = view
        .classes
        .files
        .get(&file.path)
        .and_then(|f| f.class(region));
    match class {
        None => (
            StaticCause::Unclassified,
            Plan::Nothing("no static class for the token's region".to_string()),
        ),
        Some(ReachClass::Dead { proof }) => {
            if let Some(sym) = proof.strip_prefix("undeclared symbol ") {
                let s = sym.to_string();
                (
                    StaticCause::NeverDefined(s.clone()),
                    Plan::Nothing(format!("symbol {s} is declared nowhere in Kconfig")),
                )
            } else if proof == "constant-false" {
                // Kbuild's MODULE truth is constant false for a built-in
                // object, which folds `#ifdef MODULE` to constant-false.
                // The MODULE guard is the cause unless the raw stack is
                // false even with MODULE defined (`#if 0` around it).
                let assign = BTreeMap::from([("MODULE".to_string(), true)]);
                let module_guarded =
                    raw_mentions_module && raw.eval_assignment(&assign) != Truth::False;
                if module_guarded {
                    (
                        StaticCause::ModuleOnBuiltin,
                        Plan::Nothing("this object is never built as a module".to_string()),
                    )
                } else {
                    (
                        StaticCause::IfZero,
                        Plan::Nothing("the #if stack is constant-false".to_string()),
                    )
                }
            } else {
                (
                    StaticCause::DeadByProof(proof.clone()),
                    Plan::Nothing(format!("statically dead: {proof}")),
                )
            }
        }
        Some(ReachClass::AllyesReachable) => (
            StaticCause::Unclassified,
            Plan::Nothing(
                "statically allyes-reachable — a cross-check case, not a config problem"
                    .to_string(),
            ),
        ),
        Some(ReachClass::ConditionallyReachable { witness }) => {
            if raw_mentions_module {
                return (
                    StaticCause::IfdefModule,
                    Plan::Env(arch.to_string(), ConfigKind::AllMod),
                );
            }
            match witness {
                Some(Witness::Env(label)) => {
                    let kind = if label.ends_with("-allmod") {
                        ConfigKind::AllMod
                    } else {
                        ConfigKind::AllYes
                    };
                    (
                        StaticCause::UnsettableUnderAllyes,
                        Plan::Env(arch.to_string(), kind),
                    )
                }
                Some(Witness::Pins(pins)) => (
                    StaticCause::UnsettableUnderAllyes,
                    Plan::Delta(region, pins.clone()),
                ),
                None => (
                    StaticCause::Unclassified,
                    Plan::Nothing(
                        "conditionally reachable, but no witness within analyzer bounds"
                            .to_string(),
                    ),
                ),
            }
        }
    }
}

/// Execute a remediation plan: minimize, verify, and downgrade on any
/// verification failure.
fn execute_plan(
    plan: Plan,
    file: &FileReport,
    token: &MutationToken,
    arch: &str,
    view: &mut ArchView<'_>,
    out: &mut FixReport,
) -> Remedy {
    match plan {
        Plan::Nothing(reason) => Remedy::Unfixable { reason },
        Plan::Env(env_arch, kind) => {
            let target = format!("{env_arch}/{kind}");
            if file.is_header {
                return Remedy::Unfixable {
                    reason: format!(
                        "{target} reaches the line, but verifying a header needs an including \
                         translation unit"
                    ),
                };
            }
            match verify_trial(&file.path, token, &env_arch, &kind, view) {
                Ok(()) => Remedy::Environment { target },
                Err(why) => Remedy::Unfixable {
                    reason: format!("{target} failed verification: {why}"),
                },
            }
        }
        Plan::Delta(region, pins) => {
            if file.is_header {
                return Remedy::Unfixable {
                    reason: "a solver witness exists, but verifying a header needs an including \
                             translation unit"
                        .to_string(),
                };
            }
            match view.reach.witness_delta(&file.path, region, &pins) {
                Err(reason) => Remedy::Unfixable { reason },
                Ok(delta) => {
                    let kind = ConfigKind::Custom {
                        name: format!("fix:{}:{}", file.path, token.line),
                        content: delta.config.render(),
                    };
                    match verify_trial(&file.path, token, arch, &kind, view) {
                        Ok(()) => Remedy::Delta {
                            suggestion: delta.suggestion(),
                            flips: delta.flips.len(),
                        },
                        Err(why) => {
                            out.verification_failures += 1;
                            Remedy::Unfixable {
                                reason: format!("delta failed verification: {why}"),
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Re-run the single (file × arch) trial under `kind`: re-mutate the one
/// changed line, preprocess the mutated tree, require the token to
/// surface, then certify by compiling the pristine file.
fn verify_trial(
    path: &str,
    token: &MutationToken,
    arch: &str,
    kind: &ConfigKind,
    view: &mut ArchView<'_>,
) -> Result<(), String> {
    let tracer = view.engine.tracer();
    let mut span = tracer.span(Stage::Remediate);
    if tracer.is_enabled() {
        span = span
            .with_file(path)
            .with_arch(arch)
            .with_config(&kind.to_string());
    }
    let _span = span;
    let tree = view.engine.tree().clone();
    let cfg = view
        .engine
        .make_config(arch, kind)
        .map_err(|e| format!("config: {e}"))?;
    let content = tree.get(path).ok_or_else(|| "file missing".to_string())?;
    let changed = ChangedLines {
        positions: vec![ChangedLine::Line(token.line)],
    };
    let plan = mutate(path, content, &changed);
    let expect = MutationToken::new(MutationKind::Context, path, token.line);
    if !plan.mutations.contains(&expect) {
        return Err("mutation replay did not reproduce the token".to_string());
    }
    let mut mutated = tree.clone();
    mutated.insert(path, plan.mutated);
    let results = view
        .engine
        .make_i(&cfg, &mutated, &[path.to_string()])
        .map_err(|e| format!("make_i: {e}"))?;
    let Some((_, ires)) = results.into_iter().next() else {
        return Err("empty make_i result".to_string());
    };
    let ifile = ires.map_err(|e| format!("preprocess: {e}"))?;
    if !MutationToken::scan(&ifile.text).contains(&expect) {
        return Err("token did not surface under the synthesized config".to_string());
    }
    view.engine
        .make_o(&cfg, &tree, path)
        .map_err(|e| format!("make_o: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests;
