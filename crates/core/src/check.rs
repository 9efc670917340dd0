//! The JMake pipeline: mutate → preprocess → scan → compile
//! (paper §III.D for `.c` files, §III.E for `.h` files).

use crate::archsel::{ArchSelector, Target};
use crate::classify::{classify, detect_both_branches};
use crate::mutation::{mutate, region_line, MutationPlan};
use crate::replay::{class_arch, ArchView};
use crate::report::{FileReport, FileStatus, PatchReport, UncoveredMutation};
use crate::token::{MutationKind, MutationToken};
use jmake_diff::{changed_lines, ChangeKind, Patch};
use jmake_kbuild::{tree::file_name, BuildEngine, BuildError, ConfigKind, SourceTree};
use jmake_reach::{ReachClass, Witness};
use jmake_trace::Stage;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Tunable behaviour of the pipeline.
#[derive(Debug, Clone)]
pub struct Options {
    /// Maximum `.c` files per make invocation (paper: 50, to bound the
    /// tmpfs footprint).
    pub group_limit: usize,
    /// When a header has more candidate `.c` files than this, only
    /// allyesconfig is tried (paper: 100, user-configurable; costs 23
    /// false positives out of 21,012 file instances in the paper's runs).
    pub header_candidate_threshold: usize,
    /// Hard cap on candidate `.c` files actually compiled per header
    /// (the paper observed 1–12 compilations per header).
    pub max_header_candidates: usize,
    /// Additionally try allmodconfig — the paper's proposed extension for
    /// the `#ifdef MODULE` rows of Table IV.
    pub use_allmodconfig: bool,
    /// Directory prefixes whose files are ignored (paper §V.A).
    pub skip_dirs: Vec<String>,
    /// Extension (§VII): for leftovers the standard configurations miss,
    /// try the configurations the static analyzer's reach witnesses name
    /// (an allmodconfig environment, or a minimized solver witness) — the
    /// Vampyr/Troll-style complement the paper proposes.
    pub use_coverage_configs: bool,
    /// Randconfig portfolio: for each seed, every file's trials also fan
    /// out to `ConfigKind::Rand { seed }` on its selected architectures
    /// (the seeds come from `covsel::select_portfolio`). Empty (the
    /// default) keeps the paper's allyes-first behaviour byte-identical.
    pub portfolio: Vec<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            group_limit: 50,
            header_candidate_threshold: 100,
            max_header_candidates: 16,
            use_allmodconfig: false,
            skip_dirs: vec![
                "Documentation".to_string(),
                "scripts".to_string(),
                "tools".to_string(),
            ],
            use_coverage_configs: false,
            portfolio: Vec::new(),
        }
    }
}

/// The JMake checker.
#[derive(Debug, Clone, Default)]
pub struct JMake {
    /// Behaviour knobs.
    pub options: Options,
}

impl JMake {
    /// A checker with default options.
    pub fn new() -> Self {
        JMake::default()
    }

    /// A checker with explicit options.
    pub fn with_options(options: Options) -> Self {
        JMake { options }
    }

    /// Check one patch against the snapshot held by `engine` (the
    /// post-commit checkout). Returns the full report.
    pub fn check_patch(
        &self,
        engine: &mut BuildEngine,
        patch: &Patch,
        author: &str,
    ) -> PatchReport {
        let start_us = engine.clock.now_us();
        let start_cfg = engine.clock.samples.config.len();
        let start_i = engine.clock.samples.i_gen.len();
        let start_o = engine.clock.samples.o_gen.len();

        let base = engine.tree().clone();
        let selector = ArchSelector::new(&base);
        let mut works = self.collect_work(engine, &base, &selector, patch);
        // Path → work-slot index: `run_target` resolves files by name on
        // every trial, so give it O(1) lookups instead of linear scans.
        let index: WorkIndex = works
            .iter()
            .enumerate()
            .map(|(i, w)| (w.path.clone(), i))
            .collect();

        // Build the mutated tree (bootstrap files stay pristine: mutating
        // them would fail every make invocation, paper §V.D).
        let mut mutated = base.clone();
        for w in works.iter().filter(|w| !w.bootstrap) {
            mutated.insert(w.path.clone(), w.plan.mutated.clone());
        }

        let mut expanded_macros: HashSet<String> = HashSet::new();

        self.c_phase(
            engine,
            &base,
            &mutated,
            &mut works,
            &index,
            &mut expanded_macros,
        );
        if self.options.use_coverage_configs {
            self.coverage_phase(
                engine,
                &base,
                &mutated,
                &mut works,
                &index,
                &mut expanded_macros,
            );
        }
        for w in works.iter_mut().filter(|w| w.is_header) {
            w.header_covered_by_patch_c = !w.plan.is_trivial() && w.remaining.is_empty();
        }
        self.h_phase(
            engine,
            &base,
            &mutated,
            &selector,
            &mut works,
            &index,
            &mut expanded_macros,
        );
        let files = self.finish(engine, &base, works, &expanded_macros);

        PatchReport {
            author: author.to_string(),
            files,
            elapsed_us: engine.clock.now_us() - start_us,
            config_creations: engine.clock.samples.config.len() - start_cfg,
            i_invocations: engine.clock.samples.i_gen.len() - start_i,
            o_invocations: engine.clock.samples.o_gen.len() - start_o,
        }
    }

    fn collect_work(
        &self,
        engine: &BuildEngine,
        base: &SourceTree,
        selector: &ArchSelector,
        patch: &Patch,
    ) -> Vec<Work> {
        let mut works = Vec::new();
        for fp in &patch.files {
            if fp.kind != ChangeKind::Modify {
                continue;
            }
            let path = fp.path().to_string();
            let is_header = path.ends_with(".h");
            if !is_header && !path.ends_with(".c") {
                continue;
            }
            if self
                .options
                .skip_dirs
                .iter()
                .any(|d| path.starts_with(&format!("{d}/")))
            {
                continue;
            }
            let Some(content) = base.get(&path) else {
                continue;
            };
            let new_len = content.lines().count() as u32;
            let changed = changed_lines(fp, new_len);
            let plan = {
                let _span = engine.tracer().span(Stage::MutationPlan).with_file(&path);
                mutate(&path, content, &changed)
            };
            let candidates = if is_header {
                Vec::new() // headers are compiled via candidate .c files
            } else {
                self.extend_targets(selector.candidates(base, &path))
            };
            let remaining: BTreeSet<MutationToken> = plan.mutations.iter().cloned().collect();
            works.push(Work {
                path: path.clone(),
                is_header,
                bootstrap: engine.is_bootstrap(&path),
                candidates,
                remaining,
                plan,
                covered: Vec::new(),
                targets_tried: Vec::new(),
                o_attempts: 0,
                compiled_somewhere: false,
                first_success_seen: false,
                full_on_first_success: false,
                header_candidates_used: 0,
                header_covered_by_patch_c: false,
                errors: Vec::new(),
                degraded: Vec::new(),
            });
        }
        works
    }

    /// `out` followed by the allmodconfig and portfolio targets the
    /// options ask for.
    fn extend_targets(&self, mut out: Vec<Target>) -> Vec<Target> {
        if self.options.use_allmodconfig {
            let arches: Vec<String> = out.iter().map(|t| t.arch.clone()).collect();
            for arch in arches {
                let t = Target::new(arch, ConfigKind::AllMod);
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        // Portfolio members fan out after the standard targets: trials try
        // allyes/defconfig/allmod first, then each selected randconfig, so
        // attribution ("which config first covered this token") and report
        // bytes are independent of worker count and cache mode — the same
        // global target order every phase uses.
        if !self.options.portfolio.is_empty() {
            let arches: Vec<String> = out.iter().map(|t| t.arch.clone()).collect();
            for seed in &self.options.portfolio {
                for arch in &arches {
                    let t = Target::new(arch.clone(), ConfigKind::Rand { seed: *seed });
                    if !out.contains(&t) {
                        out.push(t);
                    }
                }
            }
        }
        out
    }

    /// §III.D: process the patch's `.c` files across candidate targets.
    #[allow(clippy::too_many_arguments)]
    fn c_phase(
        &self,
        engine: &mut BuildEngine,
        base: &SourceTree,
        mutated: &SourceTree,
        works: &mut [Work],
        index: &WorkIndex,
        expanded_macros: &mut HashSet<String>,
    ) {
        // Global target order: first-seen across the files' candidates.
        let mut order: Vec<Target> = Vec::new();
        for w in works.iter().filter(|w| !w.is_header) {
            for t in &w.candidates {
                if !order.contains(t) {
                    order.push(t.clone());
                }
            }
        }
        for target in &order {
            let pending: Vec<String> = works
                .iter()
                .filter(|w| {
                    !w.is_header
                        && !w.bootstrap
                        && !w.remaining.is_empty()
                        && w.candidates.contains(target)
                })
                .map(|w| w.path.clone())
                .collect();
            if pending.is_empty() {
                continue;
            }
            self.run_target(
                engine,
                base,
                mutated,
                works,
                index,
                expanded_macros,
                target,
                &pending,
                &pending,
            );
            if works
                .iter()
                .all(|w| w.is_header || w.bootstrap || w.remaining.is_empty())
            {
                break;
            }
        }
    }

    /// §VII extension (DESIGN.md §12): for `.c` leftovers, try the
    /// configurations reach witnesses name. Per file, the per-arch view
    /// `--fix` reads ([`ArchView`], arch chosen by [`class_arch`])
    /// classifies each leftover token's region; a
    /// conditionally-reachable region names either one of its
    /// environments or solver pins, which
    /// [`witness_delta`](jmake_reach::Reach::witness_delta) minimizes
    /// into a `cover-…` configuration. Each distinct configuration is
    /// tried once, in token order, until the file is done. Each view
    /// solves its configurations on a scratch engine sharing the config
    /// cache, so only the trials charge the clock.
    #[allow(clippy::too_many_arguments)]
    fn coverage_phase(
        &self,
        engine: &mut BuildEngine,
        base: &SourceTree,
        mutated: &SourceTree,
        works: &mut [Work],
        index: &WorkIndex,
        expanded_macros: &mut HashSet<String>,
    ) {
        let leftovers: Vec<usize> = (0..works.len())
            .filter(|&i| {
                let w = &works[i];
                !w.is_header && !w.bootstrap && !w.remaining.is_empty()
            })
            .collect();
        if leftovers.is_empty() {
            return;
        }
        let paths: Vec<String> = leftovers.iter().map(|&i| works[i].path.clone()).collect();
        let mut views: BTreeMap<String, Option<ArchView<'_>>> = BTreeMap::new();
        for i in leftovers {
            let Some(arch) = class_arch(&works[i].targets_tried) else {
                continue;
            };
            let view = views.entry(arch.clone()).or_insert_with(|| {
                let scratch = match engine.shared_cache() {
                    Some(cache) => BuildEngine::with_shared_cache(base.clone(), Arc::clone(cache)),
                    None => BuildEngine::new(base.clone()),
                };
                ArchView::build(base, &arch, scratch, &paths).ok()
            });
            let Some(view) = view else {
                continue;
            };
            let path = works[i].path.clone();
            let tokens: Vec<MutationToken> = works[i].remaining.iter().cloned().collect();
            for tok in tokens {
                if !works[i].remaining.contains(&tok) {
                    continue; // certified by an earlier witness's trial
                }
                let Some(region) = region_line(&works[i].plan.map.branches, tok.line) else {
                    continue;
                };
                let Some(ReachClass::ConditionallyReachable {
                    witness: Some(witness),
                }) = view.classes.files.get(&path).and_then(|f| f.class(region))
                else {
                    continue;
                };
                let kind = match witness {
                    Witness::Env(label) if label.ends_with("-allmod") => ConfigKind::AllMod,
                    Witness::Env(_) => ConfigKind::AllYes,
                    Witness::Pins(pins) => match view.reach.witness_delta(&path, region, pins) {
                        Ok(delta) => cover_config(delta.config.render()),
                        Err(_) => continue,
                    },
                };
                let target = Target::new(arch.clone(), kind);
                if works[i].targets_tried.contains(&target.describe()) {
                    continue;
                }
                let file = std::slice::from_ref(&path);
                self.run_target(
                    engine,
                    base,
                    mutated,
                    works,
                    index,
                    expanded_macros,
                    &target,
                    file,
                    file,
                );
                if works[i].remaining.is_empty() {
                    break;
                }
            }
        }
    }

    /// §III.E: headers with tokens the `.c` phase did not certify.
    #[allow(clippy::too_many_arguments)]
    fn h_phase(
        &self,
        engine: &mut BuildEngine,
        base: &SourceTree,
        mutated: &SourceTree,
        selector: &ArchSelector,
        works: &mut [Work],
        index: &WorkIndex,
        expanded_macros: &mut HashSet<String>,
    ) {
        let headers: Vec<usize> = works
            .iter()
            .enumerate()
            .filter(|(_, w)| {
                w.is_header && !w.bootstrap && !w.remaining.is_empty() && !w.plan.is_trivial()
            })
            .map(|(i, _)| i)
            .collect();
        for idx in headers {
            let h_path = works[idx].path.clone();
            let all_candidates = header_candidates(base, &h_path, &works[idx].plan.changed_macros);
            let over_threshold = all_candidates.len() > self.options.header_candidate_threshold;
            let candidates: Vec<String> = all_candidates
                .into_iter()
                .take(self.options.max_header_candidates)
                .collect();
            if candidates.is_empty() {
                works[idx]
                    .errors
                    .push(format!("no .c file found that could exercise {h_path}"));
                continue;
            }
            // Targets derive from the candidate .c files, like §III.D —
            // over the threshold only allyesconfig is considered.
            let mut order: Vec<Target> = Vec::new();
            for c in &candidates {
                for t in self.extend_targets(selector.candidates(base, c)) {
                    let t = if over_threshold && !matches!(t.kind, ConfigKind::AllYes) {
                        continue;
                    } else {
                        t
                    };
                    if !order.contains(&t) {
                        order.push(t);
                    }
                }
            }
            for target in &order {
                self.run_target(
                    engine,
                    base,
                    mutated,
                    works,
                    index,
                    expanded_macros,
                    target,
                    &candidates,
                    &[],
                );
                if works[idx].remaining.is_empty() {
                    break;
                }
            }
        }
    }

    /// Run one (architecture, configuration) over a set of `.c` files:
    /// create the configuration, preprocess in groups, scan for tokens,
    /// and certify newly-found tokens by compiling the pristine file.
    ///
    /// `record_tried` lists the files whose reports should note this
    /// target (the patch's own files, not header candidates).
    #[allow(clippy::too_many_arguments)]
    fn run_target(
        &self,
        engine: &mut BuildEngine,
        base: &SourceTree,
        mutated: &SourceTree,
        works: &mut [Work],
        index: &WorkIndex,
        expanded_macros: &mut HashSet<String>,
        target: &Target,
        c_files: &[String],
        record_tried: &[String],
    ) {
        let work_of = |path: &str| -> Option<usize> { index.get(path).copied() };
        let desc = target.describe();
        for path in record_tried {
            if let Some(i) = work_of(path) {
                let w = &mut works[i];
                if !w.targets_tried.contains(&desc) {
                    w.targets_tried.push(desc.clone());
                }
            }
        }
        // An invocation-level failure lands on every file that tried
        // this target.
        let fail_tried = |works: &mut [Work], e: &BuildError| {
            for i in record_tried.iter().filter_map(|path| work_of(path)) {
                works[i].record_error(&desc, e);
            }
        };
        let cfg = match engine.make_config(&target.arch, &target.kind) {
            Ok(c) => c,
            Err(e) => return fail_tried(works, &e),
        };
        for chunk in c_files.chunks(self.options.group_limit.max(1)) {
            let results = match engine.make_i(&cfg, mutated, chunk) {
                Ok(r) => r,
                Err(e) => return fail_tried(works, &e),
            };
            for (c_path, res) in results {
                let ifile = match res {
                    Ok(f) => f,
                    Err(e) => {
                        if let Some(i) = work_of(&c_path) {
                            works[i].record_error(&desc, &e);
                        }
                        continue;
                    }
                };
                expanded_macros.extend(ifile.expanded_macros.iter().cloned());
                let found = MutationToken::scan(&ifile.text);
                let new_tokens: Vec<MutationToken> = found
                    .iter()
                    .filter(|t| {
                        index
                            .get(t.file.as_str())
                            .is_some_and(|&i| works[i].remaining.contains(t))
                    })
                    .cloned()
                    .collect();
                if new_tokens.is_empty() {
                    continue;
                }
                // A mutant surfaced: certify by compiling the pristine file
                // (paper §III.D step 4).
                let compiled = {
                    if let Some(i) = work_of(&c_path) {
                        works[i].o_attempts += 1;
                    }
                    engine.make_o(&cfg, base, &c_path)
                };
                match compiled {
                    Ok(()) => {
                        if let Some(i) = work_of(&c_path) {
                            let w = &mut works[i];
                            w.compiled_somewhere = true;
                            if !w.first_success_seen {
                                w.first_success_seen = true;
                                w.full_on_first_success =
                                    w.plan.mutations.iter().all(|t| found.contains(t));
                            }
                        }
                        let mut credited_headers: BTreeSet<String> = BTreeSet::new();
                        for tok in new_tokens {
                            if let Some(i) = work_of(&tok.file) {
                                let w = &mut works[i];
                                if w.remaining.remove(&tok) {
                                    if w.is_header && w.path != c_path {
                                        credited_headers.insert(w.path.clone());
                                    }
                                    w.covered.push((tok, desc.clone()));
                                }
                            }
                        }
                        // One candidate compilation may certify several
                        // header tokens; count it once per header.
                        for h in credited_headers {
                            if let Some(i) = work_of(&h) {
                                works[i].header_candidates_used += 1;
                            }
                        }
                    }
                    Err(e) => {
                        if let Some(i) = work_of(&c_path) {
                            works[i].record_error(&desc, &e);
                        }
                    }
                }
            }
        }
    }

    /// Classify leftovers and assemble the reports.
    fn finish(
        &self,
        engine: &mut BuildEngine,
        base: &SourceTree,
        works: Vec<Work>,
        expanded_macros: &HashSet<String>,
    ) -> Vec<FileReport> {
        let mut span = engine.tracer().span(Stage::Classify);
        let before = engine.clock.now_us();
        let reports = self.finish_inner(engine, base, works, expanded_macros);
        span.set_virtual_us(engine.clock.now_us() - before);
        reports
    }

    fn finish_inner(
        &self,
        engine: &mut BuildEngine,
        base: &SourceTree,
        works: Vec<Work>,
        expanded_macros: &HashSet<String>,
    ) -> Vec<FileReport> {
        // Classification environment: the host allyesconfig model when
        // available, else the first architecture that configures at all.
        let class_cfg = engine
            .make_config("x86_64", &ConfigKind::AllYes)
            .ok()
            .or_else(|| {
                ArchSelector::new(base)
                    .arches()
                    .iter()
                    .find_map(|a| engine.make_config(a, &ConfigKind::AllYes).ok())
            });
        // Memoized inside the BuildConfig (and therefore shared across
        // patches through the configuration caches): the lint is
        // O(symbols²) and depends only on the solved model.
        let dead = class_cfg.as_ref().map(|c| c.dead_symbols());

        works
            .into_iter()
            .map(|w| {
                let map = &w.plan.map;
                let uncovered: Vec<UncoveredMutation> = w
                    .remaining
                    .iter()
                    .map(|tok| {
                        let reason = match (&class_cfg, &dead) {
                            (Some(cfg), Some(dead)) => {
                                let macro_expanded = if tok.kind == MutationKind::Define {
                                    map.macro_def_at(tok.line)
                                        .is_some_and(|d| expanded_macros.contains(&d.name))
                                } else {
                                    true
                                };
                                classify(tok, map, &cfg.model, dead, &cfg.config, macro_expanded)
                            }
                            _ => crate::classify::UncoveredReason::Unknown,
                        };
                        UncoveredMutation {
                            token: tok.clone(),
                            reason,
                        }
                    })
                    .collect();
                // "Both branches" is a property of the *patch*: it changed
                // the #if side and the #else side, so no single
                // configuration can certify everything — inspect every
                // mutation, not just the leftover ones.
                let both_branches = {
                    let refs: Vec<&MutationToken> = w.plan.mutations.iter().collect();
                    !w.remaining.is_empty() && detect_both_branches(map, &refs)
                };
                let status = if w.bootstrap {
                    FileStatus::Bootstrap
                } else if w.plan.is_trivial() {
                    FileStatus::CommentOnly
                } else if w.remaining.is_empty() {
                    FileStatus::FullyCovered
                } else if w.covered.is_empty() {
                    if w.targets_tried.is_empty() && !w.is_header {
                        FileStatus::NoViableTarget
                    } else {
                        FileStatus::Uncovered
                    }
                } else {
                    FileStatus::PartiallyCovered
                };
                let all_covered_via = |pred: &dyn Fn(&str) -> bool| {
                    !w.plan.mutations.is_empty()
                        && w.remaining.is_empty()
                        && w.covered.iter().all(|(_, d)| pred(d))
                };
                let mut report = FileReport {
                    path: w.path,
                    is_header: w.is_header,
                    status,
                    mutation_count: w.plan.mutations.len(),
                    full_with_host_allyes: all_covered_via(&|d: &str| d == "x86_64/allyesconfig"),
                    full_with_allyes_only: all_covered_via(&|d: &str| d.ends_with("/allyesconfig")),
                    covered: w.covered,
                    uncovered,
                    targets_tried: w.targets_tried,
                    o_attempts: w.o_attempts,
                    compiled_somewhere: w.compiled_somewhere,
                    full_on_first_success: w.full_on_first_success,
                    header_candidates_used: w.header_candidates_used,
                    header_covered_by_patch_c: w.header_covered_by_patch_c,
                    errors: w.errors,
                    degraded_trials: w.degraded,
                    remediations: Vec::new(),
                };
                if both_branches {
                    for u in &mut report.uncovered {
                        if matches!(
                            u.reason,
                            crate::classify::UncoveredReason::IfndefOrElse
                                | crate::classify::UncoveredReason::IfdefNotSetByAllyesconfig
                        ) {
                            u.reason = crate::classify::UncoveredReason::IfdefAndElse;
                        }
                    }
                }
                report
            })
            .collect()
    }
}

/// Path → work-slot index, built once per patch so the hot trial loop in
/// `run_target` resolves files in O(1) instead of scanning `works`.
type WorkIndex = HashMap<String, usize>;

/// Work-in-progress state for one file of the patch.
#[derive(Debug)]
struct Work {
    path: String,
    is_header: bool,
    bootstrap: bool,
    plan: MutationPlan,
    candidates: Vec<Target>,
    remaining: BTreeSet<MutationToken>,
    covered: Vec<(MutationToken, String)>,
    targets_tried: Vec<String>,
    o_attempts: usize,
    compiled_somewhere: bool,
    first_success_seen: bool,
    full_on_first_success: bool,
    header_candidates_used: usize,
    header_covered_by_patch_c: bool,
    errors: Vec<String>,
    degraded: Vec<String>,
}

impl Work {
    /// Record a failed step of the target `desc`: each distinct error
    /// once, and one whose retry budget ran out as a degraded trial too.
    fn record_error(&mut self, desc: &str, e: &BuildError) {
        let msg = format!("{desc}: {e}");
        if matches!(e, BuildError::RetriesExhausted { .. }) && !self.degraded.contains(&msg) {
            self.degraded.push(msg.clone());
        }
        if !self.errors.contains(&msg) {
            self.errors.push(msg);
        }
    }
}

/// A synthesized coverage configuration. The name is the content's
/// fingerprint: a build engine memoizes configurations by name, and equal
/// names must mean equal content.
fn cover_config(content: String) -> ConfigKind {
    let mut kind = ConfigKind::Custom {
        name: String::new(),
        content,
    };
    let fingerprint = kind.content_fingerprint();
    if let ConfigKind::Custom { name, .. } = &mut kind {
        *name = format!("cover-{fingerprint:016x}");
    }
    kind
}

/// Candidate `.c` files likely to exercise a changed header, in priority
/// order (paper §III.E): files that both include the header and mention
/// every changed-macro hint first, then all-hints files, then includers.
fn header_candidates(base: &SourceTree, h_path: &str, hints: &[String]) -> Vec<String> {
    let h_name = file_name(h_path);
    let include_needle_a = format!("/{h_name}\"");
    let include_needle_b = format!("/{h_name}>");
    let include_needle_c = format!("\"{h_name}\"");
    let include_needle_d = format!("<{h_name}>");
    // An arch header is only relevant to its own arch or to non-arch code.
    let arch_prefix = h_path
        .strip_prefix("arch/")
        .and_then(|r| r.split('/').next().map(|a| format!("arch/{a}/")));
    let mut tiers: [Vec<String>; 3] = Default::default();
    for (path, blob) in base.iter_blobs() {
        if !path.ends_with(".c") {
            continue;
        }
        if let Some(prefix) = &arch_prefix {
            if path.starts_with("arch/") && !path.starts_with(prefix) {
                continue;
            }
        }
        // The blob memoizes its `#include` lines, so each `.c` file is
        // line-scanned once per content rather than once per changed header.
        let includes = blob.include_lines().any(|t| {
            t.contains(&include_needle_a)
                || t.contains(&include_needle_b)
                || t.contains(&include_needle_c)
                || t.contains(&include_needle_d)
        });
        let content = blob.text();
        let has_all_hints = !hints.is_empty() && hints.iter().all(|h| content.contains(h.as_str()));
        let tier = match (includes, has_all_hints) {
            (true, true) => 0,
            (false, true) => 1,
            (true, false) => 2,
            (false, false) => continue,
        };
        tiers[tier].push(path.to_string());
    }
    let mut out = Vec::new();
    for tier in tiers {
        out.extend(tier);
    }
    out
}
