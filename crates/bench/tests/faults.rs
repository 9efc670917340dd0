//! Chaos suite for the deterministic fault-injection layer (DESIGN.md §9).
//!
//! The contract under test: `--faults` may change *what happens* to a
//! commit, but never silently. Every commit gets exactly one outcome
//! under every fault profile, degradation only appears when a retry
//! budget was genuinely exhausted, and a run with no faults configured
//! is byte-identical to one without the fault layer at all.

use jmake_core::{run_evaluation, DriverOptions, EvaluationRun, PatchOutcome};
use jmake_faults::{FaultKind, FaultSpec, Faults};
use jmake_kbuild::ObjectCache;
use jmake_synth::WorkloadProfile;
use jmake_trace::{Stage, Tracer};
use jmake_vcs::{CommitId, LogOptions};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn workload(commits: usize) -> (jmake_synth::SynthOutput, Vec<CommitId>) {
    let profile = WorkloadProfile {
        commits,
        ..WorkloadProfile::tiny()
    };
    let workload = jmake_synth::generate(&profile);
    let range = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    assert!(!range.is_empty());
    (workload, range)
}

/// The 60-commit range the chaos property sweeps, generated once — each
/// of the property's cases runs a fresh evaluation over the same repo.
fn chaos_workload() -> &'static (jmake_synth::SynthOutput, Vec<CommitId>) {
    static WORKLOAD: OnceLock<(jmake_synth::SynthOutput, Vec<CommitId>)> = OnceLock::new();
    WORKLOAD.get_or_init(|| workload(60))
}

fn eval(
    workload: &jmake_synth::SynthOutput,
    commits: &[CommitId],
    workers: usize,
    caches: bool,
    faults: Faults,
    tracer: Tracer,
) -> EvaluationRun {
    run_evaluation(
        &workload.repo,
        commits,
        &DriverOptions {
            workers,
            config_cache_handle: caches.then(Default::default),
            object_cache_handle: caches.then(Default::default),
            faults,
            tracer,
            ..DriverOptions::default()
        },
    )
}

/// One outcome per input commit, in input order — the "never drop a
/// commit" half of the contract.
fn assert_one_outcome_per_commit(run: &EvaluationRun, commits: &[CommitId]) {
    assert_eq!(run.results.len(), commits.len());
    for (result, commit) in run.results.iter().zip(commits) {
        assert_eq!(result.commit, *commit, "outcomes out of input order");
    }
}

/// With no `--faults`, the explicit `Faults::disabled()` handle leaves
/// reports and sample streams byte-identical across worker counts and
/// cache modes — the fault layer is invisible until asked for.
#[test]
fn fault_free_runs_are_byte_identical_across_the_matrix() {
    let (workload, commits) = workload(30);
    let baseline = eval(
        &workload,
        &commits,
        1,
        false,
        Faults::disabled(),
        Tracer::disabled(),
    );
    for workers in [1, 8] {
        for caches in [false, true] {
            let run = eval(
                &workload,
                &commits,
                workers,
                caches,
                Faults::disabled(),
                Tracer::disabled(),
            );
            let label = format!("workers={workers} caches={caches}");
            assert_eq!(run.results, baseline.results, "reports differ: {label}");
            assert_eq!(run.samples, baseline.samples, "samples differ: {label}");
            assert_eq!(run.stats.degraded, 0);
            assert_eq!(run.stats.faults.injected_total(), 0);
        }
    }
}

/// The same fault seed produces the same outcomes whether one worker or
/// eight race through the range: fault fates travel with the commit.
#[test]
fn fault_outcomes_are_deterministic_across_worker_counts() {
    let (workload, commits) = workload(40);
    let spec = FaultSpec::default()
        .with_rate(FaultKind::Transient, 0.3)
        .with_rate(FaultKind::Hang, 0.1);
    let one = eval(
        &workload,
        &commits,
        1,
        true,
        Faults::new(spec, 42),
        Tracer::disabled(),
    );
    let eight = eval(
        &workload,
        &commits,
        8,
        true,
        Faults::new(spec, 42),
        Tracer::disabled(),
    );
    assert_eq!(one.results, eight.results);
    assert_eq!(one.samples, eight.samples);
    assert_eq!(one.stats.faults, eight.stats.faults);
}

/// Corruption recovery is charge-identical: a corrupted cache entry is
/// detected, its shard quarantined, and the unit recomputed — so even a
/// run where *every* lookup is corrupted produces byte-identical reports
/// and samples. Only wall-clock (and the quarantine counters) change.
#[test]
fn corrupted_cache_entries_are_quarantined_without_changing_reports() {
    let (workload, commits) = workload(30);
    let baseline = eval(
        &workload,
        &commits,
        1,
        true,
        Faults::disabled(),
        Tracer::disabled(),
    );
    // Corruption fires on cache hits, and a cold pass over distinct
    // commits barely hits: fill the object cache with a clean pass first,
    // then rerun against it with every served entry corrupted.
    let objects = Arc::new(ObjectCache::new());
    let driver = |faults| DriverOptions {
        workers: 4,
        object_cache_handle: Some(Arc::clone(&objects)),
        faults,
        ..DriverOptions::default()
    };
    run_evaluation(&workload.repo, &commits, &driver(Faults::disabled()));
    let spec = FaultSpec::default().with_rate(FaultKind::Corrupt, 1.0);
    let run = run_evaluation(&workload.repo, &commits, &driver(Faults::new(spec, 7)));
    assert_eq!(run.results, baseline.results);
    assert_eq!(run.samples, baseline.samples);
    assert!(
        run.stats.faults.corruptions_detected > 0,
        "a rate-1.0 corrupt profile must detect at least one corruption"
    );
    assert!(run.stats.faults.quarantined_shards > 0);
    assert_eq!(
        run.stats.object.corruptions_detected,
        run.stats.faults.corruptions_detected
    );
}

/// The issue's acceptance run: `--faults transient:0.5` over a
/// 120-commit range completes with zero dropped commits and visible
/// retry spans in the trace.
#[test]
fn transient_half_rate_over_120_commits_drops_nothing_and_retries() {
    let (workload, commits) = workload(120);
    let tracer = Tracer::in_memory();
    let spec = FaultSpec::default().with_rate(FaultKind::Transient, 0.5);
    let run = eval(
        &workload,
        &commits,
        8,
        true,
        Faults::new(spec, 1),
        tracer.clone(),
    );
    assert_one_outcome_per_commit(&run, &commits);
    assert!(run.stats.faults.retries > 0, "rate 0.5 must force retries");
    let metrics = tracer.metrics();
    let retry_spans = metrics.stage(Stage::Retry).map_or(0, |s| s.count());
    assert!(retry_spans > 0, "retry spans must be visible in the trace");
    assert_eq!(run.stats.faults.retries, retry_spans);
}

proptest! {
    /// Random fault profiles over a 60-commit range never panic, never
    /// drop a commit, and degrade only when a retry budget was actually
    /// exhausted.
    #[test]
    fn chaos_profiles_never_drop_commits(
        transient_pct in 0u32..60,
        latency_pct in 0u32..60,
        corrupt_pct in 0u32..60,
        hang_pct in 0u32..40,
        seed in 0u64..u64::MAX,
        workers in 1usize..8,
        caches in prop::bool::ANY,
    ) {
        let (workload, commits) = chaos_workload();
        let spec = FaultSpec::default()
            .with_rate(FaultKind::Transient, transient_pct as f64 / 100.0)
            .with_rate(FaultKind::Latency, latency_pct as f64 / 100.0)
            .with_rate(FaultKind::Corrupt, corrupt_pct as f64 / 100.0)
            .with_rate(FaultKind::Hang, hang_pct as f64 / 100.0);
        let run = eval(
            workload,
            commits,
            workers,
            caches,
            Faults::new(spec, seed),
            Tracer::disabled(),
        );
        assert_one_outcome_per_commit(&run, commits);

        let snap = run.stats.faults;
        let mut degraded_outcomes = 0u64;
        let mut degraded_trials = 0u64;
        for result in &run.results {
            match &result.outcome {
                PatchOutcome::Panicked(msg) => {
                    panic!("faults must degrade, not panic: {msg}")
                }
                PatchOutcome::Degraded { reason, .. } => {
                    prop_assert!(reason.contains("gave up"), "{reason}");
                    degraded_outcomes += 1;
                }
                PatchOutcome::Checked(report) => {
                    degraded_trials += report
                        .files
                        .iter()
                        .map(|f| f.degraded_trials.len() as u64)
                        .sum::<u64>();
                }
                PatchOutcome::CheckoutFailed(_) | PatchOutcome::ShowFailed(_) => {}
            }
        }
        prop_assert_eq!(degraded_outcomes, run.stats.degraded as u64);
        // Degraded outcomes/trials appear only when a retry budget was
        // genuinely exhausted; zero exhaustion means zero degradation.
        if snap.exhausted == 0 {
            prop_assert_eq!(degraded_outcomes, 0);
            prop_assert_eq!(degraded_trials, 0);
        }
        if degraded_outcomes + degraded_trials > 0 {
            prop_assert!(snap.exhausted > 0);
        }
        // Quarantine implies a detected corruption and vice versa can
        // only happen with the cache on.
        if snap.quarantined_shards > 0 {
            prop_assert!(snap.corruptions_detected > 0);
            prop_assert!(caches);
        }
    }
}
