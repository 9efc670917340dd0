//! Warm-replay test for the cross-patch preprocess memo (the
//! `PreprocCache`).
//!
//! The contract: replaying recorded header-inclusion effects may change
//! wall-clock time only. Reports, per-patch outcomes, and Figure-4
//! virtual-time sample streams must be bit-identical whether the store
//! starts cold or is reused warm across runs. The identity matrix over
//! worker counts and every store combination is in `object_cache.rs`.

use jmake_core::{run_evaluation, DriverOptions, EvaluationRun};
use jmake_kbuild::PreprocCache;
use jmake_synth::WorkloadProfile;
use jmake_vcs::LogOptions;
use std::sync::Arc;

fn eval(
    workload: &jmake_synth::SynthOutput,
    commits: &[jmake_vcs::CommitId],
    handle: &Arc<PreprocCache>,
) -> EvaluationRun {
    run_evaluation(
        &workload.repo,
        commits,
        &DriverOptions {
            workers: 4,
            preproc_cache_handle: Some(Arc::clone(handle)),
            ..DriverOptions::default()
        },
    )
}

/// A memo handle reused across runs (cold vs warm) changes wall-clock
/// only: identical reports and samples, and the warm run replays more
/// inclusions from the shared cache than the cold one recorded.
#[test]
fn warm_preproc_cache_replays_identically_and_hits() {
    let profile = WorkloadProfile {
        commits: 20,
        ..WorkloadProfile::tiny()
    };
    let workload = jmake_synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();

    let handle = Arc::new(PreprocCache::new());
    let cold = eval(&workload, &commits, &handle);
    let warm = eval(&workload, &commits, &handle);
    assert_eq!(cold.results, warm.results);
    assert_eq!(cold.samples, warm.samples);
    assert!(
        warm.stats.preproc.hits > cold.stats.preproc.hits,
        "warm run should replay from the pre-populated memo (cold {} vs warm {})",
        cold.stats.preproc.hits,
        warm.stats.preproc.hits
    );
    assert_eq!(warm.results.len(), commits.len());
}
