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
//!   [`DriverOptions::shared_cache`] (the default), all workers share a
//!   content-addressed [`ConfigCache`], so identical Kconfig/defconfig
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
//!   [`DriverOptions::object_cache`] (the default), workers share a
//!   content-addressed [`ObjectCache`] keyed on file content, include
//!   closure, macro environment, architecture, and build kind. `make .i`
//!   and `make .o` outcomes — including *failures* (negative caching) —
//!   are memoized across patches; hits replay the stored result and
//!   charge the virtual clock exactly what a live run would.
//! - **Preprocessed headers are shared.** With
//!   [`DriverOptions::preproc_cache`] (the default), workers share a
//!   content-addressed [`PreprocCache`] of recorded header-inclusion
//!   effects keyed on include-closure, macro-environment, and
//!   pragma-once fingerprints. Re-including an identical header replays
//!   the recording instead of re-expanding it; the virtual clock is
//!   charged per `make` invocation above this layer, so timings are
//!   unchanged.

use crate::check::{JMake, Options};
use crate::report::PatchReport;
use jmake_faults::{FaultKind, FaultSite, FaultStatsSnapshot, Faults};
use jmake_kbuild::{
    BuildEngine, CacheStats, ConfigCache, ContentHash, ObjectCache, ObjectCacheStats, PreprocCache,
    PreprocCacheStats, Samples,
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
    /// Share solved configurations across patches and workers. Affects
    /// host wall-clock only; reports and virtual timings are identical
    /// with or without it.
    pub shared_cache: bool,
    /// Share memoized preprocess/compile outcomes across patches and
    /// workers (the content-addressed [`ObjectCache`]). Host wall-clock
    /// only; reports and virtual timings are identical with or without.
    pub object_cache: bool,
    /// Share recorded header-inclusion effects across patches and
    /// workers (the content-addressed [`PreprocCache`]). Host wall-clock
    /// only; reports and virtual timings are identical with or without.
    pub preproc_cache: bool,
    /// Reuse an existing object cache instead of starting cold — lets
    /// benchmarks measure warm runs and long-lived tools keep their cache
    /// across `run_evaluation` calls. Ignored when `object_cache` is off.
    pub object_cache_handle: Option<Arc<ObjectCache>>,
    /// Reuse an existing configuration cache instead of starting cold —
    /// the companion of `object_cache_handle` for the solved-config
    /// store (`--cache-dir` pre-loads both from disk). Ignored when
    /// `shared_cache` is off.
    pub config_cache_handle: Option<Arc<ConfigCache>>,
    /// Reuse an existing preprocess cache instead of starting cold — the
    /// companion of `object_cache_handle` for recorded header-inclusion
    /// effects. Ignored when `preproc_cache` is off.
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
            shared_cache: true,
            object_cache: true,
            preproc_cache: true,
            object_cache_handle: None,
            config_cache_handle: None,
            preproc_cache_handle: None,
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

/// Host-side accounting for one run: outcome counts, shared-cache
/// effectiveness, and real (not virtual) per-stage wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriverStats {
    /// Commits handed to the driver.
    pub patches: usize,
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
    /// Shared configuration-cache counters (zero when sharing is off).
    pub cache: CacheStats,
    /// Shared object-cache counters (zero when the object cache is off).
    pub object: ObjectCacheStats,
    /// Shared preprocess-cache counters (zero when the cache is off).
    pub preproc: PreprocCacheStats,
    /// Wall-clock spent in `checkout`, summed across workers (µs).
    pub checkout_wall_us: u64,
    /// Wall-clock spent producing patches (`show`), summed (µs).
    pub show_wall_us: u64,
    /// Wall-clock spent inside JMake checking, summed (µs).
    pub check_wall_us: u64,
    /// End-to-end wall-clock of the whole run (µs, not summed).
    pub total_wall_us: u64,
}

impl DriverStats {
    /// Patches processed per wall-clock second.
    pub fn patches_per_sec(&self) -> f64 {
        if self.total_wall_us == 0 {
            0.0
        } else {
            self.patches as f64 / (self.total_wall_us as f64 / 1e6)
        }
    }

    /// Human-readable rendering for `jmake-eval --stats`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("driver statistics (host wall-clock, not simulated time)\n");
        out.push_str(&format!(
            "  patches         {:>8}  (checked {}, checkout-failed {}, show-failed {}, panicked {})\n",
            self.patches, self.checked, self.checkout_failures, self.show_failures, self.panics
        ));
        out.push_str(&format!(
            "  config cache    {:>8.1}% hit rate  ({} hits, {} misses, {} entries)\n",
            self.cache.hit_rate() * 100.0,
            self.cache.hits,
            self.cache.misses,
            self.cache.entries
        ));
        out.push_str(&format!(
            "  object cache    {:>8.1}% hit rate  ({} hits of which {} negative, {} misses, {} entries)\n",
            self.object.hit_rate() * 100.0,
            self.object.hits,
            self.object.negative_hits,
            self.object.misses,
            self.object.entries
        ));
        out.push_str(&format!(
            "  preproc cache   {:>8.1}% hit rate  ({} hits, {} misses, {} entries, closure memo {}/{})\n",
            self.preproc.hit_rate() * 100.0,
            self.preproc.hits,
            self.preproc.misses,
            self.preproc.entries,
            self.preproc.closure_hits,
            self.preproc.closure_hits + self.preproc.closure_misses
        ));
        out.push_str(&format!(
            "  stage wall      checkout {:.1} ms, show {:.1} ms, check {:.1} ms (summed over workers)\n",
            self.checkout_wall_us as f64 / 1e3,
            self.show_wall_us as f64 / 1e3,
            self.check_wall_us as f64 / 1e3
        ));
        out.push_str(&format!(
            "  throughput      {:.1} patches/s over {:.1} ms total\n",
            self.patches_per_sec(),
            self.total_wall_us as f64 / 1e3
        ));
        // Fault lines only appear when the harness actually ran, so
        // fault-free `--stats` output is unchanged.
        if self.degraded > 0 || self.faults.injected_total() > 0 {
            out.push_str(&format!("  degraded        {:>8}\n", self.degraded));
            out.push_str(&format!("  faults          {}\n", self.faults));
        }
        out
    }
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
}

/// Per-worker output: completed slots plus stage wall-clock accumulators.
#[derive(Default)]
struct WorkerOutput {
    items: Vec<(usize, PatchResult, Samples)>,
    checkout_us: u64,
    show_us: u64,
    check_us: u64,
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

/// Everything a worker shares across the commits it checks: the
/// cross-patch caches, the span emitter and the fault plan.
struct CheckCtx<'a> {
    cache: Option<&'a Arc<ConfigCache>>,
    object: Option<&'a Arc<ObjectCache>>,
    preproc: Option<&'a Arc<PreprocCache>>,
    tracer: &'a Tracer,
    faults: &'a Faults,
}

/// Consult the fault plan before a host-side stage (checkout/show) runs.
///
/// Host stages live outside the virtual clock, so recovery here is pure
/// control flow: a transient fault fails the attempt, a hang consumes
/// the (virtual) timeout budget, and a latency spike is a no-op — there
/// is no clock to charge it to. Retries and timeouts are still visible
/// as trace spans and [`FaultStatsSnapshot`] counters. Returns the
/// degradation reason when the retry budget is exhausted.
fn host_fault_gate(faults: &Faults, site: FaultSite, tracer: &Tracer) -> Result<(), String> {
    if !faults.is_enabled() {
        return Ok(());
    }
    let policy = faults.policy();
    let stats = faults.stats();
    let mut attempt = 0u32;
    loop {
        match faults.decide(site, "", attempt) {
            None | Some(FaultKind::Latency) => return Ok(()),
            Some(FaultKind::Corrupt) => unreachable!("corruption only fires on cache lookups"),
            Some(kind @ (FaultKind::Transient | FaultKind::Hang)) => {
                if kind == FaultKind::Hang {
                    if let Some(stats) = &stats {
                        stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut span = tracer.span(Stage::Timeout);
                    span.set_virtual_us(policy.timeout_us);
                }
                attempt += 1;
                if attempt >= policy.max_attempts {
                    if let Some(stats) = &stats {
                        stats.exhausted.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(format!(
                        "{site} gave up after {attempt} attempts under injected faults"
                    ));
                }
                if let Some(stats) = &stats {
                    stats.retries.fetch_add(1, Ordering::Relaxed);
                }
                let mut span = tracer.span(Stage::Retry);
                span.set_virtual_us(policy.backoff_us(attempt - 1));
            }
        }
    }
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
    ctx: &CheckCtx<'_>,
    out: &mut WorkerOutput,
) -> (PatchOutcome, Samples) {
    let tracer = ctx.tracer.for_patch_with(|| commit.to_string());

    // Salt the fault plan with the commit identity so each operation's
    // fate travels with the commit: the same seed faults the same
    // commits regardless of worker count, scheduling, or cache mode.
    let faults = if ctx.faults.is_enabled() {
        ctx.faults.with_salt(ContentHash::of(&commit.to_string()).hi())
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
    let mut engine = match ctx.cache {
        Some(cache) => BuildEngine::with_shared_cache(tree, Arc::clone(cache)),
        None => BuildEngine::new(tree),
    };
    if let Some(object) = ctx.object {
        engine.set_object_cache(Arc::clone(object));
    }
    if let Some(preproc) = ctx.preproc {
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
    let cache = opts.shared_cache.then(|| {
        opts.config_cache_handle
            .clone()
            .unwrap_or_else(|| Arc::new(ConfigCache::new()))
    });
    let object = opts.object_cache.then(|| {
        opts.object_cache_handle
            .clone()
            .unwrap_or_else(|| Arc::new(ObjectCache::new()))
    });
    let preproc = opts.preproc_cache.then(|| {
        opts.preproc_cache_handle
            .clone()
            .unwrap_or_else(|| Arc::new(PreprocCache::new()))
    });
    let next = AtomicUsize::new(0);
    let workers = opts.workers.max(1).min(commits.len().max(1));

    let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let ctx = CheckCtx {
                    cache: cache.as_ref(),
                    object: object.as_ref(),
                    preproc: preproc.as_ref(),
                    tracer: &opts.tracer,
                    faults: &opts.faults,
                };
                let next = &next;
                scope.spawn(move || {
                    let jmake = JMake::with_options(opts.jmake.clone());
                    let mut out = WorkerOutput::default();
                    // Claim the next unchecked commit until none is left.
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&commit) = commits.get(idx) else { break };
                        let (outcome, samples) = guard_patch(AssertUnwindSafe(|| {
                            check_commit(repo, commit, &jmake, &ctx, &mut out)
                        }));
                        out.items.push((idx, PatchResult { commit, outcome }, samples));
                    }
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
        patches: commits.len(),
        ..DriverStats::default()
    };
    let mut slots: Vec<Option<(PatchResult, Samples)>> = vec![None; commits.len()];
    for out in outputs {
        stats.checkout_wall_us += out.checkout_us;
        stats.show_wall_us += out.show_us;
        stats.check_wall_us += out.check_us;
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

    if let Some(cache) = &cache {
        stats.cache = cache.stats();
    }
    if let Some(object) = &object {
        stats.object = object.stats();
    }
    if let Some(preproc) = &preproc {
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
    fn stats_render_and_rate() {
        let stats = DriverStats {
            patches: 10,
            checked: 8,
            checkout_failures: 1,
            panics: 1,
            total_wall_us: 2_000_000,
            ..DriverStats::default()
        };
        assert!((stats.patches_per_sec() - 5.0).abs() < 1e-9);
        let text = stats.render();
        assert!(text.contains("checked 8"));
        assert!(text.contains("panicked 1"));
        assert_eq!(DriverStats::default().patches_per_sec(), 0.0);
    }
}
