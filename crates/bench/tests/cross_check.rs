//! Static-vs-dynamic cross-check over the synthetic workload
//! (DESIGN.md §8).
//!
//! The contract under test: the reachability analyzer's per-line verdicts
//! and the mutation pipeline's observed coverage must never provably
//! disagree on the real workload, and the discrepancy report must be
//! byte-identical whichever caches are on and however many workers run —
//! it contains no wall-clock and no nondeterminism.

use jmake_core::{cross_check, run_evaluation, DriverOptions, EvaluationRun};
use jmake_synth::WorkloadProfile;
use jmake_vcs::LogOptions;

fn eval(
    workload: &jmake_synth::SynthOutput,
    commits: &[jmake_vcs::CommitId],
    workers: usize,
    caches: bool,
) -> EvaluationRun {
    run_evaluation(
        &workload.repo,
        commits,
        &DriverOptions {
            workers,
            shared_cache: caches,
            object_cache: caches,
            ..DriverOptions::default()
        },
    )
}

/// {workers 1, 8} × {caches on, off}: every cell is clean and serializes
/// to the exact same bytes.
#[test]
fn cross_check_is_clean_and_bit_identical_across_the_matrix() {
    let profile = WorkloadProfile {
        commits: 40,
        ..WorkloadProfile::tiny()
    };
    let workload = jmake_synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    assert!(!commits.is_empty());

    let baseline_run = eval(&workload, &commits, 1, false);
    let baseline = cross_check(&workload.repo, &baseline_run);
    assert!(
        baseline.is_clean(),
        "static analyzer and mutation pipeline disagree:\n{}",
        baseline.to_json()
    );
    assert!(baseline.patches > 0, "nothing was cross-checked");
    assert!(baseline.tokens > 0, "no tokens were attributed");
    assert!(
        baseline.allyes_agreed > 0,
        "expected at least one allyes-reachable token to be covered"
    );
    let baseline_json = baseline.to_json();

    for workers in [1, 8] {
        for caches in [false, true] {
            let run = eval(&workload, &commits, workers, caches);
            let report = cross_check(&workload.repo, &run);
            assert_eq!(
                report.to_json(),
                baseline_json,
                "cross-check report differs: workers={workers} caches={caches}"
            );
        }
    }
}
