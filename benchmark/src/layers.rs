//! The one file that calls into the JMake crates.
//!
//! Every library function the benchmark drives, and every field of a
//! result it inspects, is reached through this module, so an API change
//! in a crate is absorbed here. Driver options start from
//! `DriverOptions::default()` and name no scheduler setting: the
//! benchmark measures whatever driver the repository ships.

use jmake_core::{DriverOptions, JMake};
use jmake_faults::Faults;
use jmake_kbuild::{
    BuildConfig, BuildEngine, ConfigCache, ConfigKind, DiskCache, ObjectCache, PreprocCache,
};
use jmake_reach::{Reach, ReachEnv};
use jmake_synth::PathologyKind;
use jmake_trace::jsonl::{self, TraceLine};
use jmake_vcs::LogOptions;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use jmake_diff::Patch;
use jmake_fix::FixContext;
use jmake_kbuild::SourceTree;
use jmake_synth::WorkloadProfile;
use jmake_trace::{Stage, Tracer};
use jmake_vcs::Repo;

pub use jmake_core::{EvaluationRun, PatchReport};
pub use jmake_fix::FixReport;
pub use jmake_kbuild::Samples;
pub use jmake_synth::SynthOutput;
pub use jmake_vcs::CommitId;

// ---- synth ----

/// The workload profile: the repository's default kernel (or the tiny
/// test kernel for smoke runs), `commits` long, optionally with a wider
/// tree.
pub fn profile(
    seed: u64,
    commits: usize,
    drivers_per_subsystem: Option<usize>,
    smoke: bool,
) -> WorkloadProfile {
    let base = if smoke {
        WorkloadProfile::tiny()
    } else {
        WorkloadProfile {
            commits,
            drivers_per_subsystem: drivers_per_subsystem
                .unwrap_or(WorkloadProfile::default().drivers_per_subsystem),
            ..WorkloadProfile::default()
        }
    };
    WorkloadProfile { seed, ..base }
}

/// `jmake_synth::generate`.
pub fn generate(profile: &WorkloadProfile) -> SynthOutput {
    jmake_synth::generate(profile)
}

// ---- vcs ----

/// `Repo::log` over the paper's v4.3..v4.4 window.
pub fn log_window(repo: &Repo) -> Vec<CommitId> {
    repo.log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .expect("synthetic repositories tag v4.3 and v4.4")
}

/// `Repo::checkout`.
pub fn checkout(repo: &Repo, id: CommitId) -> Result<SourceTree, String> {
    repo.checkout(id).map_err(|e| e.to_string())
}

/// `Repo::show_with`, with the whitespace-insensitive diff the driver uses.
pub fn show(repo: &Repo, id: CommitId) -> Result<Patch, String> {
    let opts = jmake_diff::DiffOptions {
        ignore_whitespace: true,
        ..jmake_diff::DiffOptions::default()
    };
    repo.show_with(id, &opts).map_err(|e| e.to_string())
}

/// The commit's author, as the driver looks it up.
pub fn author(repo: &Repo, id: CommitId) -> String {
    repo.get(id).map(|c| c.author.clone()).unwrap_or_default()
}

// ---- kbuild ----

/// Hits, misses and entries of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCount {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

impl CacheCount {
    /// Hits over lookups; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// The lookups made since `before` (entries stay absolute).
    pub fn since(&self, before: &CacheCount) -> CacheCount {
        CacheCount {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            entries: self.entries,
        }
    }
}

/// The configuration, object and preprocess caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub config: CacheCount,
    pub object: CacheCount,
    pub preproc: CacheCount,
}

impl CacheCounts {
    pub fn since(&self, before: &CacheCounts) -> CacheCounts {
        CacheCounts {
            config: self.config.since(&before.config),
            object: self.object.since(&before.object),
            preproc: self.preproc.since(&before.preproc),
        }
    }
}

/// One set of cross-patch cache handles.
#[derive(Clone)]
pub struct Caches {
    config: Arc<ConfigCache>,
    object: Arc<ObjectCache>,
    preproc: Arc<PreprocCache>,
}

impl Caches {
    /// Empty caches.
    pub fn fresh() -> Caches {
        Caches {
            config: Arc::new(ConfigCache::new()),
            object: Arc::new(ObjectCache::new()),
            preproc: Arc::new(PreprocCache::new()),
        }
    }

    pub fn counts(&self) -> CacheCounts {
        let c = self.config.stats();
        let o = self.object.stats();
        let p = self.preproc.stats();
        CacheCounts {
            config: CacheCount {
                hits: c.hits,
                misses: c.misses,
                entries: c.entries,
            },
            object: CacheCount {
                hits: o.hits,
                misses: o.misses,
                entries: o.entries,
            },
            preproc: CacheCount {
                hits: p.hits,
                misses: p.misses,
                entries: p.entries,
            },
        }
    }
}

/// `BuildEngine::with_shared_cache` with the object and preprocess caches
/// and `tracer` attached, as the driver builds one per patch.
pub fn engine(tree: SourceTree, caches: &Caches, tracer: Tracer) -> BuildEngine {
    let mut engine = BuildEngine::with_shared_cache(tree, Arc::clone(&caches.config));
    engine.set_object_cache(Arc::clone(&caches.object));
    engine.set_preproc_cache(Arc::clone(&caches.preproc));
    engine.set_tracer(tracer);
    engine
}

/// The virtual-clock samples an engine has charged.
pub fn engine_samples(engine: &BuildEngine) -> &Samples {
    &engine.clock.samples
}

/// Work counts that are pure functions of the inputs: `make` invocations
/// charged to the virtual clock, and the virtual time they charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub make_config: u64,
    pub make_i: u64,
    pub make_o: u64,
    pub virtual_us: u64,
}

impl Counts {
    pub fn of(samples: &Samples) -> Counts {
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        Counts {
            make_config: samples.config.len() as u64,
            make_i: samples.i_gen.len() as u64,
            make_o: samples.o_gen.len() as u64,
            virtual_us: sum(&samples.config) + sum(&samples.i_gen) + sum(&samples.o_gen),
        }
    }
}

/// Merge one engine's samples into `into`.
pub fn merge_samples(into: &mut Samples, from: &Samples) {
    into.merge(from);
}

/// Persist every cache entry under `dir` (`DiskCache::store`); returns the
/// number of entries written.
pub fn disk_store(dir: &Path, caches: &Caches) -> std::io::Result<u64> {
    let disk = DiskCache::open(dir)?;
    let s = disk.store(&caches.object, &caches.config, &caches.preproc)?;
    Ok(s.objects_stored + s.configs_stored + s.preproc_stored)
}

/// Load the tier under `dir` into fresh handles (`DiskCache::load`);
/// returns them with the number of entries loaded.
pub fn disk_load(dir: &Path) -> std::io::Result<(Caches, u64)> {
    let disk = DiskCache::open(dir)?;
    let caches = Caches::fresh();
    let s = disk.load(
        &caches.object,
        &caches.config,
        &caches.preproc,
        &Faults::disabled(),
    )?;
    if s.entries_quarantined > 0 {
        return Err(std::io::Error::other(format!(
            "{} entries quarantined on load",
            s.entries_quarantined
        )));
    }
    Ok((
        caches,
        s.objects_loaded + s.configs_loaded + s.preproc_loaded,
    ))
}

// ---- core ----

/// A checker with the default pipeline options.
pub fn checker() -> JMake {
    JMake::new()
}

/// `JMake::check_patch`.
pub fn check(jmake: &JMake, engine: &mut BuildEngine, patch: &Patch, author: &str) -> PatchReport {
    jmake.check_patch(engine, patch, author)
}

/// `run_evaluation` over `commits` with `workers` threads, the given
/// cache handles and `tracer`; everything else is the driver's default.
pub fn evaluate(
    repo: &Repo,
    commits: &[CommitId],
    workers: usize,
    caches: &Caches,
    tracer: &Tracer,
) -> EvaluationRun {
    let opts = DriverOptions {
        workers,
        config_cache_handle: Some(Arc::clone(&caches.config)),
        object_cache_handle: Some(Arc::clone(&caches.object)),
        preproc_cache_handle: Some(Arc::clone(&caches.preproc)),
        tracer: tracer.clone(),
        ..DriverOptions::default()
    };
    jmake_core::run_evaluation(repo, commits, &opts)
}

/// Runs over consecutive slices of one window, as one run: results in
/// order and samples merged. Driver stats are not merged.
pub fn concat(runs: Vec<EvaluationRun>) -> EvaluationRun {
    let mut out = EvaluationRun::default();
    for run in runs {
        out.results.extend(run.results);
        out.samples.merge(&run.samples);
    }
    out
}

/// The samples a run charged.
pub fn run_samples(run: &EvaluationRun) -> &Samples {
    &run.samples
}

/// Checkout + show + check wall time summed over the driver's workers,
/// from `DriverStats`.
pub fn driver_stage_sum_us(run: &EvaluationRun) -> u64 {
    run.stats.checkout_wall_us + run.stats.show_wall_us + run.stats.check_wall_us
}

/// The run's commits, in order.
pub fn run_commits(run: &EvaluationRun) -> Vec<CommitId> {
    run.results.iter().map(|r| r.commit).collect()
}

/// The reports of a run, `None` for a commit that was not checked.
pub fn run_reports(run: &EvaluationRun) -> Vec<Option<&PatchReport>> {
    run.results.iter().map(|r| r.report()).collect()
}

/// The commits whose outcome differs between two runs of one window.
pub fn differing_commits(a: &EvaluationRun, b: &EvaluationRun) -> BTreeSet<CommitId> {
    if a.results.len() != b.results.len() {
        return a
            .results
            .iter()
            .chain(&b.results)
            .map(|r| r.commit)
            .collect();
    }
    a.results
        .iter()
        .zip(&b.results)
        .filter(|(x, y)| x != y)
        .map(|(x, _)| x.commit)
        .collect()
}

/// One pathology the synthesizer planted, with the Table IV reason the
/// classifier must report for it (the mapping `tests/end_to_end.rs` uses).
#[derive(Debug, Clone)]
pub struct Planted {
    pub commit: CommitId,
    pub path: String,
    reason: jmake_core::UncoveredReason,
}

/// The planted pathologies that carry an expected reason.
pub fn planted(synth: &SynthOutput) -> Vec<Planted> {
    use jmake_core::UncoveredReason as R;
    synth
        .planted
        .iter()
        .filter_map(|p| {
            let reason = match p.kind {
                PathologyKind::UnsetConfig => R::IfdefNotSetByAllyesconfig,
                PathologyKind::NeverConfig => R::IfdefNeverSetInKernel,
                PathologyKind::Module => R::IfdefModule,
                PathologyKind::IfndefOrElse => R::IfndefOrElse,
                PathologyKind::BothBranches => R::IfdefAndElse,
                PathologyKind::IfZero => R::IfZero,
                PathologyKind::UnusedMacro => R::UnusedMacro,
                _ => return None,
            };
            Some(Planted {
                commit: p.commit,
                path: p.path.clone(),
                reason,
            })
        })
        .collect()
}

/// Whether `report` diagnoses the planted pathology with its reason.
pub fn diagnosed(report: &PatchReport, planted: &Planted) -> bool {
    report
        .files
        .iter()
        .find(|f| f.path == planted.path)
        .is_some_and(|f| f.uncovered.iter().any(|u| u.reason == planted.reason))
}

// ---- fix ----

/// One single-result `EvaluationRun` per checked patch of `run`: the unit
/// `remediate_with` is called on.
pub fn one_result_runs(run: &EvaluationRun) -> Vec<EvaluationRun> {
    run.results
        .iter()
        .filter(|r| r.report().is_some())
        .map(|r| EvaluationRun {
            results: vec![r.clone()],
            ..EvaluationRun::default()
        })
        .collect()
}

/// A `FixContext` over fresh caches.
pub fn fix_context(caches: &Caches, tracer: Tracer) -> FixContext {
    FixContext {
        configs: Arc::clone(&caches.config),
        objects: Some(Arc::clone(&caches.object)),
        preproc: Some(Arc::clone(&caches.preproc)),
        tracer,
    }
}

/// The fix context with its tracer labelled for one patch.
pub fn fix_context_for_patch(ctx: &FixContext, label: impl FnOnce() -> String) -> FixContext {
    FixContext {
        tracer: ctx.tracer.for_patch_with(label),
        ..ctx.clone()
    }
}

/// The commit a single-result run holds.
pub fn only_commit(one: &EvaluationRun) -> CommitId {
    one.results[0].commit
}

/// `remediate_with`.
pub fn remediate(repo: &Repo, one: &EvaluationRun, ctx: &FixContext) -> FixReport {
    jmake_fix::remediate_with(repo, one, ctx)
}

/// What the oracle reads from one remediation report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixTally {
    pub missed: u64,
    pub deltas_emitted: u64,
    pub deltas_verified: u64,
    pub verification_failures: u64,
    /// Static/dynamic disagreements listed in [`KNOWN_DEFECTS`].
    pub known_disagreements: u64,
    /// Any other disagreement.
    pub other_disagreements: u64,
    pub virtual_us: u64,
}

impl FixTally {
    pub fn of(fix: &FixReport) -> FixTally {
        let known = fix
            .disagreements
            .iter()
            .filter(|d| is_known_defect(d))
            .count() as u64;
        FixTally {
            missed: fix.missed as u64,
            deltas_emitted: fix.deltas_emitted as u64,
            deltas_verified: fix.deltas_verified as u64,
            verification_failures: fix.verification_failures as u64,
            known_disagreements: known,
            other_disagreements: fix.disagreements.len() as u64 - known,
            virtual_us: fix.virtual_us,
        }
    }

    pub fn add(&mut self, o: &FixTally) {
        self.missed += o.missed;
        self.deltas_emitted += o.deltas_emitted;
        self.deltas_verified += o.deltas_verified;
        self.verification_failures += o.verification_failures;
        self.known_disagreements += o.known_disagreements;
        self.other_disagreements += o.other_disagreements;
        self.virtual_us += o.virtual_us;
    }
}

/// The recorded open remediation defect, as (commit, file, line): at the
/// `remediate` workload's default seed the static side proves these lines
/// dead as `if-0` while the dynamic classifier files them under
/// `#ifdef MODULE`. They still count as failed operations; they are the
/// only failures a run may have and stay correct.
pub const KNOWN_DEFECTS: [(&str, &str, u32); 2] = [
    ("c00002de", "crypto/godwit13_0.c", 39),
    ("c0000337", "net/sanderling12_10.c", 25),
];

fn is_known_defect(d: &jmake_fix::Disagreement) -> bool {
    KNOWN_DEFECTS
        .iter()
        .any(|&(commit, file, line)| d.commit == commit && d.file == file && d.line == line)
}

/// `commit file:line static→dynamic` for every disagreement, for the log.
pub fn disagreement_lines(fix: &FixReport) -> Vec<String> {
    fix.disagreements
        .iter()
        .map(|d| {
            format!(
                "{} {}:{} static {} / dynamic {}",
                d.commit, d.file, d.line, d.static_cause, d.dynamic
            )
        })
        .collect()
}

// ---- reach ----

/// What the reachability step of remediating one patch consumes: the
/// patch's tree and paths, and per architecture its files were tried on,
/// the solved allyes and allmod configurations.
pub struct ReachInput {
    tree: SourceTree,
    paths: Vec<String>,
    arches: Vec<(String, Arc<BuildConfig>, Option<Arc<BuildConfig>>)>,
}

/// Rebuild the inputs `remediate_with` hands the reachability analyzer
/// for one patch, solving configurations through `caches`.
pub fn reach_input(repo: &Repo, one: &EvaluationRun, caches: &Caches) -> Option<ReachInput> {
    let report = one.results[0].report()?;
    let tree = repo.checkout(one.results[0].commit).ok()?;
    let paths = report.files.iter().map(|f| f.path.clone()).collect();
    let mut arches = Vec::new();
    for arch in jmake_core::arches_used(&report.files) {
        let mut engine = BuildEngine::with_shared_cache(tree.clone(), Arc::clone(&caches.config));
        let Ok(allyes) = engine.make_config(&arch, &ConfigKind::AllYes) else {
            continue;
        };
        let allmod = engine.make_config(&arch, &ConfigKind::AllMod).ok();
        arches.push((arch, allyes, allmod));
    }
    Some(ReachInput {
        tree,
        paths,
        arches,
    })
}

/// `Reach::new` + `add_model`/`add_env` + `analyze_files`, per
/// architecture, exactly as `remediate_with` calls them.
pub fn reach_analyze(input: &ReachInput) {
    for (arch, allyes, allmod) in &input.arches {
        let mut reach = Reach::new(&input.tree);
        reach.add_model(arch.clone(), allyes.model.clone());
        reach.add_env(ReachEnv {
            label: format!("{arch}-allyes"),
            arch: arch.clone(),
            config: allyes.config.clone(),
            allyes: true,
        });
        if let Some(am) = allmod {
            reach.add_env(ReachEnv {
                label: format!("{arch}-allmod"),
                arch: arch.clone(),
                config: am.config.clone(),
                allyes: false,
            });
        }
        std::hint::black_box(reach.analyze_files(&input.paths));
    }
}

// ---- trace ----

/// The program's in-memory tracer, or the no-op one.
pub fn tracer(enabled: bool) -> Tracer {
    if enabled {
        Tracer::in_memory()
    } else {
        Tracer::disabled()
    }
}

/// `tracer` labelled with a patch id (the label is built only when
/// tracing is on).
pub fn for_patch(tracer: &Tracer, label: impl FnOnce() -> String) -> Tracer {
    tracer.for_patch_with(label)
}

/// Ceil nearest-rank percentile of `samples`, the repository's quantile
/// convention (`jmake_trace::quantile`).
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    jmake_trace::quantile::ceil_nearest_rank(&sorted, q)
}

/// Host time per program stage, folded from a tracer's spans.
#[derive(Debug, Clone, Default)]
pub struct ProgramSpans {
    /// Host µs of every span, per stage name.
    samples: BTreeMap<&'static str, Vec<u64>>,
    /// Work counts from `config_solve`/`build_i`/`build_o` spans that
    /// charged the virtual clock — the same invocations `Samples` counts.
    pub counts: Counts,
    /// Host µs of the `config_solve` spans nested in a `classify` span.
    pub classify_kbuild_us: u64,
    /// The raw JSONL lines.
    pub lines: Vec<String>,
}

impl ProgramSpans {
    /// Summed host µs of a stage.
    pub fn total(&self, stage: &str) -> u64 {
        self.samples_of(stage).iter().sum()
    }

    pub fn samples_of(&self, stage: &str) -> &[u64] {
        self.samples.get(stage).map_or(&[], Vec::as_slice)
    }
}

/// Fold every span `tracer` recorded.
///
/// Spans carry no parent, but one patch's spans come from one thread in
/// the order they closed, so the `config_solve` spans a `classify` span
/// encloses are the ones right before it. They are told from earlier
/// pipeline solves by the virtual time: `classify` carries exactly what
/// its nested solves charged.
pub fn program_spans(tracer: &Tracer) -> ProgramSpans {
    let mut out = ProgramSpans {
        lines: tracer.jsonl_lines(),
        ..ProgramSpans::default()
    };
    // Per patch: the (host, virtual) µs of the solves since its last
    // other span.
    let mut solves: BTreeMap<Option<String>, Vec<(u64, u64)>> = BTreeMap::new();
    for line in &out.lines {
        let Ok(TraceLine::Span(record)) = jsonl::parse_any(line) else {
            continue;
        };
        let Some(stage) = record.stage else { continue };
        match stage {
            Stage::ConfigSolve => solves
                .entry(record.patch.clone())
                .or_default()
                .push((record.host_us, record.virtual_us)),
            Stage::Classify => {
                let mut left = record.virtual_us;
                for (host, virt) in solves
                    .remove(&record.patch)
                    .unwrap_or_default()
                    .into_iter()
                    .rev()
                {
                    if left == 0 {
                        break;
                    }
                    left = left.saturating_sub(virt);
                    out.classify_kbuild_us += host;
                }
            }
            _ => {
                solves.remove(&record.patch);
            }
        }
        out.samples
            .entry(stage.name())
            .or_default()
            .push(record.host_us);
        if record.virtual_us > 0 {
            let c = &mut out.counts;
            match stage {
                Stage::ConfigSolve => c.make_config += 1,
                Stage::BuildI => c.make_i += 1,
                Stage::BuildO => c.make_o += 1,
                _ => continue,
            }
            c.virtual_us += record.virtual_us;
        }
    }
    out
}
