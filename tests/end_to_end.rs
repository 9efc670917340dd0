//! Cross-crate integration tests: the full JMake stack over the synthetic
//! workload, end to end.

use jmake::core::{
    run_evaluation, DriverOptions, FileStatus, PatchOutcome, SliceStats, UncoveredReason,
};
use jmake::synth::{PathologyKind, WorkloadProfile};
use jmake::vcs::{CommitId, LogOptions};
use std::collections::BTreeSet;

fn tiny_run() -> (jmake::synth::SynthOutput, jmake::core::EvaluationRun) {
    let profile = WorkloadProfile::tiny();
    let workload = jmake::synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .expect("tags exist");
    let run = run_evaluation(
        &workload.repo,
        &commits,
        &DriverOptions {
            workers: 2,
            ..DriverOptions::default()
        },
    );
    (workload, run)
}

#[test]
fn evaluation_processes_every_selected_commit() {
    let (workload, run) = tiny_run();
    let selected = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    assert_eq!(run.results.len(), selected.len());
    // Results come back in commit order despite parallel workers.
    let ids: Vec<_> = run.results.iter().map(|r| r.commit).collect();
    assert_eq!(ids, selected);
}

#[test]
fn majority_of_patches_are_certified() {
    let (_, run) = tiny_run();
    let stats = SliceStats::collect(&run.results, &|_| true);
    assert!(stats.patches > 20, "too few patches: {}", stats.patches);
    assert!(
        stats.success_rate() > 0.7,
        "success rate collapsed: {:.2}",
        stats.success_rate()
    );
    assert!(
        stats.success_rate() < 1.0,
        "pathologies disappeared entirely"
    );
}

#[test]
fn evaluation_is_deterministic_across_runs() {
    let (_, run_a) = tiny_run();
    let (_, run_b) = tiny_run();
    assert_eq!(run_a.results.len(), run_b.results.len());
    for (a, b) in run_a.results.iter().zip(&run_b.results) {
        assert_eq!(a.commit, b.commit);
        let (ra, rb) = (a.report().unwrap(), b.report().unwrap());
        assert_eq!(ra.is_success(), rb.is_success());
        assert_eq!(ra.elapsed_us, rb.elapsed_us);
        assert_eq!(ra.files.len(), rb.files.len());
    }
}

#[test]
fn reports_are_identical_across_worker_counts_and_cache_modes() {
    let profile = WorkloadProfile::tiny();
    let workload = jmake::synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .expect("tags exist");
    let run_with = |workers: usize, shared_cache: bool| {
        run_evaluation(
            &workload.repo,
            &commits,
            &DriverOptions {
                workers,
                config_cache_handle: shared_cache.then(Default::default),
                ..DriverOptions::default()
            },
        )
    };
    let baseline = run_with(1, false);
    for (workers, shared_cache) in [(1, true), (8, false), (8, true)] {
        let other = run_with(workers, shared_cache);
        assert_eq!(
            baseline.results, other.results,
            "reports diverged at workers={workers} shared_cache={shared_cache}"
        );
    }
    // The cache actually participates: a multi-patch run must hit it.
    let cached = run_with(8, true);
    assert!(cached.stats.cache.hits > 0, "shared cache never hit");
    assert_eq!(run_with(8, false).stats.cache, Default::default());
}

#[test]
fn unresolvable_commits_yield_explicit_failures_not_omissions() {
    let profile = WorkloadProfile::tiny();
    let workload = jmake::synth::generate(&profile);
    let mut commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .expect("tags exist");
    let dangling = CommitId::from_raw(u32::MAX);
    commits.insert(0, dangling);
    commits.push(dangling);
    let run = run_evaluation(&workload.repo, &commits, &DriverOptions::default());
    // One outcome per input, in order — the bad commits don't vanish.
    assert_eq!(run.results.len(), commits.len());
    for idx in [0, commits.len() - 1] {
        assert_eq!(run.results[idx].commit, dangling);
        assert!(
            matches!(run.results[idx].outcome, PatchOutcome::CheckoutFailed(_)),
            "expected CheckoutFailed, got {:?}",
            run.results[idx].outcome
        );
    }
    assert_eq!(run.stats.checkout_failures, 2);
    assert_eq!(run.stats.checked, commits.len() - 2);
    // SliceStats quietly skips report-less results.
    let stats = SliceStats::collect(&run.results, &|_| true);
    assert!(stats.patches <= commits.len() - 2);
}

#[test]
fn planted_pathologies_are_diagnosed_with_matching_reasons() {
    let profile = WorkloadProfile {
        commits: 400,
        ..WorkloadProfile::tiny()
    };
    let workload = jmake::synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    let run = run_evaluation(&workload.repo, &commits, &DriverOptions::default());
    let by_commit: std::collections::BTreeMap<_, _> = run
        .results
        .iter()
        .map(|r| (r.commit, r.report().expect("patch checked")))
        .collect();

    let expectation = |kind: PathologyKind| -> Option<UncoveredReason> {
        match kind {
            PathologyKind::UnsetConfig => Some(UncoveredReason::IfdefNotSetByAllyesconfig),
            PathologyKind::NeverConfig => Some(UncoveredReason::IfdefNeverSetInKernel),
            PathologyKind::Module => Some(UncoveredReason::IfdefModule),
            PathologyKind::IfndefOrElse => Some(UncoveredReason::IfndefOrElse),
            PathologyKind::BothBranches => Some(UncoveredReason::IfdefAndElse),
            PathologyKind::IfZero => Some(UncoveredReason::IfZero),
            PathologyKind::UnusedMacro => Some(UncoveredReason::UnusedMacro),
            _ => None,
        }
    };

    let mut checked = 0;
    for planted in &workload.planted {
        let Some(expected) = expectation(planted.kind) else {
            continue;
        };
        let Some(report) = by_commit.get(&planted.commit) else {
            continue; // filtered from the log (e.g. whitespace-only)
        };
        let file = report
            .files
            .iter()
            .find(|f| f.path == planted.path)
            .unwrap_or_else(|| panic!("planted file {} missing from report", planted.path));
        let reasons: BTreeSet<UncoveredReason> = file.uncovered.iter().map(|u| u.reason).collect();
        assert!(
            reasons.contains(&expected),
            "{:?} at {}: expected {:?}, got {:?}",
            planted.kind,
            planted.path,
            expected,
            reasons
        );
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} planted pathologies verified");
}

#[test]
fn bootstrap_patches_are_flagged_not_crashed() {
    let profile = WorkloadProfile {
        commits: 400,
        ..WorkloadProfile::tiny()
    };
    let workload = jmake::synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    let run = run_evaluation(&workload.repo, &commits, &DriverOptions::default());
    let by_commit: std::collections::BTreeMap<_, _> = run
        .results
        .iter()
        .map(|r| (r.commit, r.report().expect("patch checked")))
        .collect();
    let mut seen = 0;
    for planted in workload
        .planted
        .iter()
        .filter(|p| p.kind == PathologyKind::Bootstrap)
    {
        if let Some(report) = by_commit.get(&planted.commit) {
            let file = report.files.iter().find(|f| f.path == planted.path);
            if let Some(file) = file {
                assert_eq!(file.status, FileStatus::Bootstrap, "{}", planted.path);
                seen += 1;
            }
        }
    }
    assert!(seen >= 1, "no bootstrap patch exercised");
}

#[test]
fn heavy_file_patches_dominate_the_time_distribution() {
    let profile = WorkloadProfile {
        commits: 600,
        p_heavy: 0.01,
        ..WorkloadProfile::tiny()
    };
    let workload = jmake::synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    let run = run_evaluation(&workload.repo, &commits, &DriverOptions::default());
    let heavy_commits: BTreeSet<_> = workload
        .planted
        .iter()
        .filter(|p| p.kind == PathologyKind::Heavy)
        .map(|p| p.commit)
        .collect();
    assert!(!heavy_commits.is_empty(), "no heavy patches generated");
    let mut heavy_max = 0u64;
    let mut normal_max = 0u64;
    for r in &run.results {
        let elapsed = r.report().expect("patch checked").elapsed_us;
        if heavy_commits.contains(&r.commit) {
            heavy_max = heavy_max.max(elapsed);
        } else {
            normal_max = normal_max.max(elapsed);
        }
    }
    assert!(
        heavy_max > 5 * normal_max,
        "heavy {heavy_max}us vs normal {normal_max}us"
    );
}

#[test]
fn samples_cover_all_three_figure4_buckets() {
    let (_, run) = tiny_run();
    assert!(!run.samples.config.is_empty());
    assert!(!run.samples.i_gen.is_empty());
    assert!(!run.samples.o_gen.is_empty());
    // Figure 4a: every configuration creation at 5 s or less.
    let worst_config = run.samples.config.iter().max().copied().unwrap_or(0);
    assert!(worst_config <= 5_000_000, "{worst_config}");
}

#[test]
fn janitor_slice_outperforms_overall_slice() {
    let profile = WorkloadProfile {
        commits: 800,
        ..WorkloadProfile::tiny()
    };
    let workload = jmake::synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    let run = run_evaluation(&workload.repo, &commits, &DriverOptions::default());
    let names: BTreeSet<&str> = workload.janitor_names.iter().map(String::as_str).collect();
    let all = SliceStats::collect(&run.results, &|_| true);
    let janitor = SliceStats::collect(&run.results, &|a| names.contains(a));
    assert!(janitor.patches >= 10);
    // The paper's observation: janitor patches certify at least as often.
    assert!(
        janitor.success_rate() + 0.05 >= all.success_rate(),
        "janitor {:.2} vs all {:.2}",
        janitor.success_rate(),
        all.success_rate()
    );
}
