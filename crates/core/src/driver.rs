//! Parallel evaluation driver (paper §V.A).
//!
//! The paper processed 11,057 patches with 25 worker processes, each on
//! its own kernel clone in a tmpfs. Here each worker checks out the
//! commit's snapshot into memory, builds a [`BuildEngine`], runs JMake,
//! and hands back the report plus the engine's virtual-clock samples.
//!
//! Three properties the original driver lacked, now guaranteed:
//!
//! - **No patch vanishes.** Every input commit produces exactly one
//!   [`PatchResult`]; checkout errors, `git show` errors, and per-patch
//!   panics become explicit [`PatchOutcome`] variants instead of being
//!   silently skipped, and `run_evaluation` asserts the count matches.
//! - **A panic does not abort the run.** Each patch is checked under
//!   `catch_unwind`; the panic message is captured in
//!   [`PatchOutcome::Panicked`] and the remaining patches still run.
//! - **Configuration solving is shared.** With
//!   [`DriverOptions::config_cache_handle`] set (the default), all workers
//!   share a content-addressed [`ConfigCache`], so identical Kconfig/defconfig
//!   sources are solved once per run instead of once per patch. Cache
//!   hits still charge the virtual clock the full creation cost, so the
//!   simulated timings (Figure 4a) are identical either way — only host
//!   wall-clock drops. [`DriverStats`] reports the hit rate and
//!   per-stage wall-clock.
//!
//! Two further host-side accelerations (DESIGN.md §7), both preserving
//! the same bit-identity contract:
//!
//! - **Preprocess/compile results are shared.** With
//!   [`DriverOptions::object_cache_handle`] set (the default), workers
//!   share a content-addressed [`ObjectCache`] keyed on file content, include
//!   closure, macro environment, architecture, and build kind. `make .i`
//!   and `make .o` outcomes — including *failures* (negative caching) —
//!   are memoized across patches; hits replay the stored result and
//!   charge the virtual clock exactly what a live run would.
//! - **Preprocessed headers are shared.** With
//!   [`DriverOptions::preproc_cache_handle`] set (the default), workers
//!   share a content-addressed [`PreprocCache`] of recorded header-inclusion
//!   effects keyed on include-closure, macro-environment, and
//!   pragma-once fingerprints. Re-including an identical header replays
//!   the recording instead of re-expanding it; the virtual clock is
//!   charged per `make` invocation above this layer, so timings are
//!   unchanged.

use crate::check::{JMake, Options};
use crate::report::PatchReport;
use jmake_faults::{FaultSite, FaultStatsSnapshot, Faults};
use jmake_kbuild::{
    BuildEngine, ConfigCache, ContentHash, ObjectCache, PreprocCache, Samples, StoreStats,
};
use jmake_trace::{Stage, Tracer};
use jmake_vcs::{CommitId, Repo};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Options for an evaluation run.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// Worker threads (the paper used 25 processes).
    pub workers: usize,
    /// JMake pipeline options.
    pub jmake: Options,
    /// The solved-configuration store every worker shares; `None` solves
    /// each configuration per patch. Host wall-clock only: reports and
    /// virtual timings are identical with or without it. `Default` holds
    /// a fresh store; pass one in to run warm (`--cache-dir` pre-loads
    /// it from disk, `jmake-serve` keeps it across requests).
    pub config_cache_handle: Option<Arc<ConfigCache>>,
    /// The store of memoized preprocess/compile outcomes every worker
    /// shares ([`ObjectCache`]); `None` preprocesses every `.i`/`.o` live.
    /// Host wall-clock only, like `config_cache_handle`.
    pub object_cache_handle: Option<Arc<ObjectCache>>,
    /// The store of recorded header-inclusion effects every worker shares
    /// ([`PreprocCache`]); `None` expands every inclusion live. Host
    /// wall-clock only, like `config_cache_handle`.
    pub preproc_cache_handle: Option<Arc<PreprocCache>>,
    /// Span emitter for per-stage tracing. Disabled by default — a
    /// disabled tracer is a no-op and leaves reports and the Figure 4
    /// distributions bit-identical.
    pub tracer: Tracer,
    /// Deterministic fault-injection plan (`--faults`). Disabled by
    /// default; the driver salts it per commit, so whether a given
    /// operation faults depends only on the seed and the commit — never
    /// on worker count, scheduling, or cache mode.
    pub faults: Faults,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            workers: 4,
            jmake: Options::default(),
            config_cache_handle: Some(Arc::new(ConfigCache::new())),
            object_cache_handle: Some(Arc::new(ObjectCache::new())),
            preproc_cache_handle: Some(Arc::new(PreprocCache::new())),
            tracer: Tracer::disabled(),
            faults: Faults::disabled(),
        }
    }
}

/// What happened to one commit. Every commit handed to
/// [`run_evaluation`] ends in exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum PatchOutcome {
    /// JMake ran; here is its report.
    Checked(PatchReport),
    /// The commit's snapshot could not be checked out.
    CheckoutFailed(String),
    /// The commit's patch could not be produced (`git show`).
    ShowFailed(String),
    /// Checking this patch panicked; the message is preserved and the
    /// run continued.
    Panicked(String),
    /// Injected faults exhausted a host-side stage's retry budget; the
    /// commit still gets an explicit outcome instead of vanishing. Only
    /// ever produced under `--faults`.
    Degraded {
        /// The stage that gave up (`checkout` or `show`).
        stage: &'static str,
        /// Why (attempt count and fault site).
        reason: String,
    },
}

impl PatchOutcome {
    /// The report, when the patch was actually checked.
    pub fn report(&self) -> Option<&PatchReport> {
        match self {
            PatchOutcome::Checked(report) => Some(report),
            _ => None,
        }
    }

    /// True when the patch was checked (successfully or not — this is
    /// about the driver completing, not the paper's coverage verdict).
    pub fn is_checked(&self) -> bool {
        matches!(self, PatchOutcome::Checked(_))
    }

    /// The failure message for any non-checked outcome.
    pub fn failure(&self) -> Option<&str> {
        match self {
            PatchOutcome::Checked(_) => None,
            PatchOutcome::CheckoutFailed(m)
            | PatchOutcome::ShowFailed(m)
            | PatchOutcome::Panicked(m) => Some(m),
            PatchOutcome::Degraded { reason, .. } => Some(reason),
        }
    }
}

/// One processed patch.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchResult {
    /// The commit checked.
    pub commit: CommitId,
    /// What became of it.
    pub outcome: PatchOutcome,
}

impl PatchResult {
    /// The report, when the patch was actually checked.
    pub fn report(&self) -> Option<&PatchReport> {
        self.outcome.report()
    }
}

/// Host-side accounting for one run: outcome counts, cache and lint
/// work, and real (not virtual) per-stage wall-clock. The run summary
/// ([`EvaluationRun::render_stats`]) renders it together with the
/// virtual-clock samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriverStats {
    /// Commits handed to the driver.
    pub commits: usize,
    /// Outcomes that are [`PatchOutcome::Checked`].
    pub checked: usize,
    /// Outcomes that are [`PatchOutcome::CheckoutFailed`].
    pub checkout_failures: usize,
    /// Outcomes that are [`PatchOutcome::ShowFailed`].
    pub show_failures: usize,
    /// Outcomes that are [`PatchOutcome::Panicked`].
    pub panics: usize,
    /// Outcomes that are [`PatchOutcome::Degraded`] (retry budget
    /// exhausted under injected faults).
    pub degraded: usize,
    /// Fault-injection and recovery counters (all zero without
    /// `--faults`).
    pub faults: FaultStatsSnapshot,
    /// Shared configuration-store counters (zero without the store).
    pub cache: StoreStats,
    /// Shared object-store counters (zero without the store).
    pub object: StoreStats,
    /// Shared preprocess-store counters (zero without the store).
    pub preproc: StoreStats,
    /// Kconfig lint expression evaluations the workers ran
    /// ([`jmake_kconfig::lint::evaluations`]), summed over workers.
    pub lint_evaluations: u64,
    /// Wall-clock spent in `checkout`, summed across workers (µs).
    pub checkout_wall_us: u64,
    /// Wall-clock spent producing patches (`show`), summed (µs).
    pub show_wall_us: u64,
    /// Wall-clock spent inside JMake checking, summed (µs).
    pub check_wall_us: u64,
    /// End-to-end wall-clock of [`run_evaluation`] (µs, not summed):
    /// the driver alone, without workload synthesis or reporting.
    pub total_wall_us: u64,
}

/// The whole run: per-patch results plus merged timing samples.
#[derive(Debug, Clone, Default)]
pub struct EvaluationRun {
    /// One result per input commit, in commit order.
    pub results: Vec<PatchResult>,
    /// Merged per-invocation virtual-clock samples (Figure 4 inputs).
    pub samples: Samples,
    /// Host-side run accounting.
    pub stats: DriverStats,
}

impl EvaluationRun {
    /// Per-patch total virtual times in microseconds (Figure 5/6 input),
    /// for the patches that were actually checked.
    pub fn patch_times_us(&self) -> Vec<u64> {
        self.results
            .iter()
            .filter_map(|r| r.report().map(|report| report.elapsed_us))
            .collect()
    }

    /// The results that failed to produce a report, with their messages.
    pub fn failures(&self) -> impl Iterator<Item = (&PatchResult, &str)> {
        self.results
            .iter()
            .filter_map(|r| r.outcome.failure().map(|m| (r, m)))
    }

    /// The run summary `jmake-eval --stats` prints. A `run work` block
    /// comes first: outcomes, `make` invocations with their virtual µs,
    /// lint evaluations, and each cache's counters. The invocation lines
    /// are a pure function of (seed, commits, options), whatever the
    /// worker count or cache mode; at one worker every line of the block
    /// is. Host wall-clock follows, with throughput as commits per
    /// second of driver wall.
    pub fn render_stats(&self) -> String {
        let s = &self.stats;
        let driver_s = s.total_wall_us as f64 / 1e6;
        let throughput = if driver_s > 0.0 {
            s.commits as f64 / driver_s
        } else {
            0.0
        };
        let mut out = self.render_work();
        out.push_str("host wall-clock (varies run to run)\n");
        out.push_str(&format!(
            "  stage wall      checkout {:.1} ms, show {:.1} ms, check {:.1} ms (summed over workers)\n",
            s.checkout_wall_us as f64 / 1e3,
            s.show_wall_us as f64 / 1e3,
            s.check_wall_us as f64 / 1e3
        ));
        out.push_str(&format!(
            "  throughput      {throughput:.1} commits/s over {:.1} ms of driver wall\n",
            s.total_wall_us as f64 / 1e3
        ));
        out
    }

    /// The summary's `run work` block.
    fn render_work(&self) -> String {
        let s = &self.stats;
        let with_changes = self
            .results
            .iter()
            .filter_map(PatchResult::report)
            .filter(|report| !report.files.is_empty())
            .count();
        let mut out = String::from("run work (exact counts)\n");
        out.push_str(&format!(
            "  commits         {:>8}  (checked {}, checkout-failed {}, show-failed {}, panicked {}; {with_changes} patches with .c/.h changes)\n",
            s.commits, s.checked, s.checkout_failures, s.show_failures, s.panics
        ));
        for (name, samples) in [
            ("make_config", &self.samples.config),
            ("make_i", &self.samples.i_gen),
            ("make_o", &self.samples.o_gen),
        ] {
            out.push_str(&format!(
                "  {name:<15} {:>8}  invocations, {} virtual µs\n",
                samples.len(),
                samples.iter().sum::<u64>()
            ));
        }
        out.push_str(&format!(
            "  kconfig lint    {:>8}  expression evaluations\n",
            s.lint_evaluations
        ));
        out.push_str(&format!("  config cache    {}\n", s.cache.render(false)));
        out.push_str(&format!("  object cache    {}\n", s.object.render(true)));
        out.push_str(&format!("  preproc cache   {}\n", s.preproc.render(false)));
        // Fault lines only appear when the harness actually ran, so
        // fault-free summaries are unchanged.
        if s.degraded > 0 || s.faults.injected_total() > 0 {
            out.push_str(&format!("  degraded        {:>8}\n", s.degraded));
            out.push_str(&format!("  faults          {}\n", s.faults));
        }
        out
    }
}

/// Per-worker output: completed slots plus stage wall-clock accumulators.
#[derive(Default)]
struct WorkerOutput {
    items: Vec<(usize, PatchResult, Samples)>,
    checkout_us: u64,
    show_us: u64,
    check_us: u64,
    lint_evaluations: u64,
}

/// Extract a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run `work` for one patch, converting a panic into
/// [`PatchOutcome::Panicked`] so one bad patch cannot end the run.
fn guard_patch<F>(work: F) -> (PatchOutcome, Samples)
where
    F: FnOnce() -> (PatchOutcome, Samples),
{
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(done) => done,
        Err(payload) => (
            PatchOutcome::Panicked(panic_message(payload.as_ref())),
            Samples::default(),
        ),
    }
}

/// Consult the fault plan before a host-side stage (checkout/show) runs
/// ([`Faults::gate`]). Host stages live outside the virtual clock, so
/// recovery delays charge nothing; retries and timeouts still show as
/// trace spans and [`FaultStatsSnapshot`] counters. Returns the
/// degradation reason when the retry budget is exhausted.
fn host_fault_gate(faults: &Faults, site: FaultSite, tracer: &Tracer) -> Result<(), String> {
    faults.gate(site, "", tracer, |_| {}).map_err(|attempts| {
        format!("{site} gave up after {attempts} attempts under injected faults")
    })
}

/// Check one commit end to end; timings land in `out`'s accumulators.
///
/// Each stage's wall-clock is measured exactly once and the same value
/// feeds both the [`DriverStats`] accumulator and the stage's trace span
/// (via `finish_with_host_us`), so the metrics table reconciles with the
/// driver statistics to the microsecond.
fn check_commit(
    repo: &Repo,
    commit: CommitId,
    jmake: &JMake,
    opts: &DriverOptions,
    out: &mut WorkerOutput,
) -> (PatchOutcome, Samples) {
    let tracer = opts.tracer.for_patch_with(|| commit.to_string());

    // Salt the fault plan with the commit identity so each operation's
    // fate travels with the commit: the same seed faults the same
    // commits regardless of worker count, scheduling, or cache mode.
    let faults = if opts.faults.is_enabled() {
        opts.faults.with_salt(ContentHash::of(&commit.to_string()).hi())
    } else {
        Faults::disabled()
    };

    if let Err(reason) = host_fault_gate(&faults, FaultSite::Checkout, &tracer) {
        return (
            PatchOutcome::Degraded { stage: "checkout", reason },
            Samples::default(),
        );
    }
    let span = tracer.span(Stage::Checkout);
    let started = Instant::now();
    let tree = repo.checkout(commit);
    let elapsed_us = started.elapsed().as_micros() as u64;
    out.checkout_us += elapsed_us;
    span.finish_with_host_us(elapsed_us);
    let tree = match tree {
        Ok(tree) => tree,
        Err(e) => {
            return (PatchOutcome::CheckoutFailed(e.to_string()), Samples::default());
        }
    };

    if let Err(reason) = host_fault_gate(&faults, FaultSite::Show, &tracer) {
        return (
            PatchOutcome::Degraded { stage: "show", reason },
            Samples::default(),
        );
    }
    let span = tracer.span(Stage::Show);
    let started = Instant::now();
    let shown = repo.show_with(
        commit,
        &jmake_diff::DiffOptions {
            ignore_whitespace: true,
            ..jmake_diff::DiffOptions::default()
        },
    );
    let elapsed_us = started.elapsed().as_micros() as u64;
    out.show_us += elapsed_us;
    span.finish_with_host_us(elapsed_us);
    let patch = match shown {
        Ok(patch) => patch,
        Err(e) => return (PatchOutcome::ShowFailed(e.to_string()), Samples::default()),
    };

    let mut span = tracer.span(Stage::Check);
    let started = Instant::now();
    let author = repo
        .get(commit)
        .map(|c| c.author.clone())
        .unwrap_or_default();
    let mut engine = match &opts.config_cache_handle {
        Some(cache) => BuildEngine::with_shared_cache(tree, Arc::clone(cache)),
        None => BuildEngine::new(tree),
    };
    if let Some(object) = &opts.object_cache_handle {
        engine.set_object_cache(Arc::clone(object));
    }
    if let Some(preproc) = &opts.preproc_cache_handle {
        engine.set_preproc_cache(Arc::clone(preproc));
    }
    engine.set_tracer(tracer);
    engine.set_faults(faults);
    let report = jmake.check_patch(&mut engine, &patch, &author);
    let elapsed_us = started.elapsed().as_micros() as u64;
    out.check_us += elapsed_us;
    span.set_virtual_us(report.elapsed_us);
    span.finish_with_host_us(elapsed_us);
    (PatchOutcome::Checked(report), engine.clock.samples)
}

/// Run JMake over `commits` of `repo` with `opts.workers` threads.
///
/// Returns exactly one [`PatchResult`] per input commit, in input order
/// — failures included. A panic while checking one patch is recorded in
/// its result; the other patches still run.
pub fn run_evaluation(repo: &Repo, commits: &[CommitId], opts: &DriverOptions) -> EvaluationRun {
    let run_started = Instant::now();
    let next = AtomicUsize::new(0);
    let workers = opts.workers.max(1).min(commits.len().max(1));

    let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let jmake = JMake::with_options(opts.jmake.clone());
                    let mut out = WorkerOutput::default();
                    let lint_before = jmake_kconfig::lint::evaluations();
                    // Claim the next unchecked commit until none is left.
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&commit) = commits.get(idx) else { break };
                        let (outcome, samples) = guard_patch(AssertUnwindSafe(|| {
                            check_commit(repo, commit, &jmake, opts, &mut out)
                        }));
                        out.items.push((idx, PatchResult { commit, outcome }, samples));
                    }
                    out.lint_evaluations = jmake_kconfig::lint::evaluations() - lint_before;
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            // A worker dying outside the per-patch guard loses only its
            // buffered items; the structural fill below still yields one
            // outcome per commit.
            .filter_map(|h| h.join().ok())
            .collect()
    });

    let mut stats = DriverStats {
        commits: commits.len(),
        ..DriverStats::default()
    };
    let mut slots: Vec<Option<(PatchResult, Samples)>> = vec![None; commits.len()];
    for out in outputs {
        stats.checkout_wall_us += out.checkout_us;
        stats.show_wall_us += out.show_us;
        stats.check_wall_us += out.check_us;
        stats.lint_evaluations += out.lint_evaluations;
        for (idx, result, samples) in out.items {
            slots[idx] = Some((result, samples));
        }
    }

    let mut run = EvaluationRun::default();
    for (idx, slot) in slots.into_iter().enumerate() {
        let (result, samples) = slot.unwrap_or_else(|| {
            (
                PatchResult {
                    commit: commits[idx],
                    outcome: PatchOutcome::Panicked(
                        "worker thread died before reporting this patch".to_string(),
                    ),
                },
                Samples::default(),
            )
        });
        match &result.outcome {
            PatchOutcome::Checked(_) => stats.checked += 1,
            PatchOutcome::CheckoutFailed(_) => stats.checkout_failures += 1,
            PatchOutcome::ShowFailed(_) => stats.show_failures += 1,
            PatchOutcome::Panicked(_) => stats.panics += 1,
            PatchOutcome::Degraded { .. } => stats.degraded += 1,
        }
        run.samples.merge(&samples);
        run.results.push(result);
    }

    if let Some(cache) = &opts.config_cache_handle {
        stats.cache = cache.stats();
    }
    if let Some(object) = &opts.object_cache_handle {
        stats.object = object.stats();
    }
    if let Some(preproc) = &opts.preproc_cache_handle {
        stats.preproc = preproc.stats();
    }
    stats.faults = opts.faults.stats_snapshot();
    stats.total_wall_us = run_started.elapsed().as_micros() as u64;
    run.stats = stats;
    assert_eq!(
        run.results.len(),
        commits.len(),
        "every input commit must produce exactly one outcome"
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_converts_panics_into_outcomes() {
        let (outcome, samples) = guard_patch(|| panic!("mutation table overflow"));
        assert_eq!(
            outcome,
            PatchOutcome::Panicked("mutation table overflow".to_string())
        );
        assert_eq!(samples, Samples::default());

        // String payloads (e.g. from `expect` / formatted panics) must
        // survive the downcast too, not only `&'static str`.
        let (outcome, _) = guard_patch(|| {
            std::panic::panic_any("formatted: patch 7".to_string());
        });
        match outcome {
            PatchOutcome::Panicked(msg) => assert!(msg.contains("patch 7"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn outcome_accessors() {
        let failed = PatchOutcome::CheckoutFailed("no such commit".to_string());
        assert!(!failed.is_checked());
        assert!(failed.report().is_none());
        assert_eq!(failed.failure(), Some("no such commit"));
    }

    #[test]
    fn summary_renders_work_then_wall() {
        let run = EvaluationRun {
            samples: Samples {
                config: vec![3, 4],
                i_gen: vec![10],
                o_gen: vec![],
            },
            stats: DriverStats {
                commits: 10,
                checked: 8,
                checkout_failures: 1,
                panics: 1,
                lint_evaluations: 42,
                total_wall_us: 2_000_000,
                ..DriverStats::default()
            },
            ..EvaluationRun::default()
        };
        let work = run.render_work();
        assert!(work.contains("checked 8"), "{work}");
        assert!(work.contains("panicked 1"), "{work}");
        assert!(work.contains("make_config            2  invocations, 7 virtual µs"), "{work}");
        assert!(work.contains("make_o                 0  invocations, 0 virtual µs"), "{work}");
        assert!(work.contains("42  expression evaluations"), "{work}");
        assert!(!work.contains("faults"), "{work}");
        let text = run.render_stats();
        assert!(text.starts_with(&work), "{text}");
        assert!(text.contains("5.0 commits/s over 2000.0 ms of driver wall"), "{text}");
        assert!(EvaluationRun::default()
            .render_stats()
            .contains("0.0 commits/s"));
    }
}
