//! Exact work counts of the standard evaluation window, pinned.
//!
//! At one worker every count the run summary (`jmake-eval --stats`)
//! prints is a pure function of (seed, commits, options): outcomes,
//! `make_config`/`make_i`/`make_o` invocations and their virtual µs, each
//! store's hits, negative hits, misses and entries, and the Kconfig
//! lint's expression evaluations. A change that makes the pipeline do
//! more work — a memo that stops hitting, a lint that reruns, a cache
//! that misses — moves a count and fails here on any machine, however
//! fast or slow.
//!
//! The window runs twice on the same cache handles: cold, then warm, as
//! a long-lived tool (`jmake-serve`, a `--cache-dir` restart) would. Store
//! counters are cumulative, so the warm pass shows the cold pass's plus
//! its own.
//!
//! A change that moves a count on purpose refreshes the constant and
//! says why in CHANGES.md. `cargo test -q --test counts` lists every
//! moved count with its new value.

use jmake::core::{run_evaluation, DriverOptions, EvaluationRun};
use jmake::kbuild::{ConfigCache, ObjectCache, PreprocCache, StoreStats};
use jmake::synth::WorkloadProfile;
use jmake::vcs::LogOptions;
use std::sync::Arc;

/// The counts pinned for one pass.
#[derive(Debug, PartialEq)]
struct Work {
    /// Commits, checked, checkout-failed, show-failed, panicked, degraded.
    outcomes: [usize; 6],
    /// Invocations and their virtual µs.
    make_config: [u64; 2],
    make_i: [u64; 2],
    make_o: [u64; 2],
    /// Hits, negative hits, misses, entries.
    config_store: [u64; 4],
    object_store: [u64; 4],
    preproc_store: [u64; 4],
    lint_evaluations: u64,
}

impl Work {
    fn of(run: &EvaluationRun) -> Work {
        let s = &run.stats;
        let invocations = |samples: &[u64]| [samples.len() as u64, samples.iter().sum()];
        let store = |st: &StoreStats| [st.hits, st.negative_hits, st.misses, st.entries];
        Work {
            outcomes: [
                s.commits,
                s.checked,
                s.checkout_failures,
                s.show_failures,
                s.panics,
                s.degraded,
            ],
            make_config: invocations(&run.samples.config),
            make_i: invocations(&run.samples.i_gen),
            make_o: invocations(&run.samples.o_gen),
            config_store: store(&s.cache),
            object_store: store(&s.object),
            preproc_store: store(&s.preproc),
            lint_evaluations: s.lint_evaluations,
        }
    }

    fn fields(&self) -> [(&'static str, String); 8] {
        [
            ("outcomes", format!("{:?}", self.outcomes)),
            ("make_config", format!("{:?}", self.make_config)),
            ("make_i", format!("{:?}", self.make_i)),
            ("make_o", format!("{:?}", self.make_o)),
            ("config_store", format!("{:?}", self.config_store)),
            ("object_store", format!("{:?}", self.object_store)),
            ("preproc_store", format!("{:?}", self.preproc_store)),
            ("lint_evaluations", format!("{:?}", self.lint_evaluations)),
        ]
    }
}

/// Every count of `pass` that moved, with its pinned and its new value.
fn moved(pass: &str, now: &Work, pinned: &Work) -> Vec<String> {
    now.fields()
        .into_iter()
        .zip(pinned.fields())
        .filter(|(now, pinned)| now != pinned)
        .map(|((name, now), (_, pinned))| format!("  {pass} {name}: pinned {pinned}, now {now}"))
        .collect()
}

const COLD: Work = Work {
    outcomes: [1131, 1131, 0, 0, 0, 0],
    make_config: [1331, 6_060_671_500],
    make_i: [1095, 6_135_374_600],
    make_o: [1463, 5_091_285_800],
    config_store: [1317, 0, 14, 14],
    object_store: [0, 0, 3787, 3787],
    preproc_store: [7640, 0, 1638, 1638],
    lint_evaluations: 264,
};

/// The warm pass charges the same invocations and virtual µs, and every
/// lookup hits: no configuration is solved, no lint rerun, nothing
/// preprocessed (the preprocess store keeps the cold pass's counts).
const WARM: Work = Work {
    outcomes: [1131, 1131, 0, 0, 0, 0],
    make_config: [1331, 6_060_671_500],
    make_i: [1095, 6_135_374_600],
    make_o: [1463, 5_091_285_800],
    config_store: [2648, 0, 14, 14],
    object_store: [3787, 0, 3787, 3787],
    preproc_store: [7640, 0, 1638, 1638],
    lint_evaluations: 0,
};

#[test]
fn standard_window_work_counts_are_pinned() {
    let profile = WorkloadProfile {
        seed: 319_123_704_645,
        commits: 1_200,
        ..WorkloadProfile::default()
    };
    let workload = jmake::synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .expect("synthetic repositories tag v4.3 and v4.4");
    let opts = DriverOptions {
        workers: 1,
        config_cache_handle: Some(Arc::new(ConfigCache::new())),
        object_cache_handle: Some(Arc::new(ObjectCache::new())),
        preproc_cache_handle: Some(Arc::new(PreprocCache::new())),
        ..DriverOptions::default()
    };
    let cold = run_evaluation(&workload.repo, &commits, &opts);
    let warm = run_evaluation(&workload.repo, &commits, &opts);
    let mut moved_counts = moved("cold", &Work::of(&cold), &COLD);
    moved_counts.extend(moved("warm", &Work::of(&warm), &WARM));
    assert!(
        moved_counts.is_empty(),
        "{} pinned count(s) moved:\n{}",
        moved_counts.len(),
        moved_counts.join("\n")
    );
}
