//! Soundness and bit-identity tests for the content-addressed object
//! cache, and the identity matrix over every store and the parallel
//! driver (DESIGN.md §7).
//!
//! The contract under test: host-side caches may change wall-clock time
//! only — every report, every virtual-time sample,
//! and every per-patch outcome must be bit-identical whichever stores are
//! attached and however many workers run.

use jmake_core::{run_evaluation, DriverOptions};
use jmake_kbuild::{BuildEngine, BuildError, ConfigKind, ObjectCache, SourceTree};
use jmake_synth::WorkloadProfile;
use jmake_vcs::LogOptions;
use std::sync::Arc;

/// A one-driver kernel, small enough to reason about cache counters.
fn tiny_tree() -> SourceTree {
    let mut tree = SourceTree::new();
    tree.insert("Kconfig", "config DRV\n\tbool \"drv\"\n");
    tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
    tree.insert("Makefile", "obj-y += drivers/\n");
    tree.insert("drivers/Makefile", "obj-$(CONFIG_DRV) += drv.o\n");
    tree.insert("drivers/drv.c", "int drv_init(void)\n{\nreturn 0;\n}\n");
    tree
}

#[test]
fn mutated_file_never_hits_a_stale_entry() {
    let cache = Arc::new(ObjectCache::new());
    let tree = tiny_tree();
    let mut engine = BuildEngine::new(tree.clone());
    engine.set_object_cache(Arc::clone(&cache));
    let cfg = engine.make_config("x86_64", &ConfigKind::AllYes).unwrap();
    let files = vec!["drivers/drv.c".to_string()];

    // Cold: one miss, entry stored.
    let first = engine.make_i(&cfg, &tree, &files).unwrap();
    let text_v0 = first[0].1.as_ref().unwrap().text.clone();
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 0);

    // Same content again: a hit, and the identical artifact.
    let second = engine.make_i(&cfg, &tree, &files).unwrap();
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(second[0].1.as_ref().unwrap().text, text_v0);

    // Changed content: the blob hash changes, so the stale entry cannot
    // be returned — the result must reflect the new content.
    let mut mutated = tree.clone();
    mutated.insert("drivers/drv.c", "int drv_init(void)\n{\nreturn 1;\n}\n");
    let third = engine.make_i(&cfg, &mutated, &files).unwrap();
    let text_v1 = third[0].1.as_ref().unwrap().text.clone();
    assert_ne!(text_v1, text_v0);
    assert!(text_v1.contains("return 1"));
    assert_eq!(cache.stats().misses, 2);

    // And flipping back still hits the original entry, not the new one.
    let fourth = engine.make_i(&cfg, &tree, &files).unwrap();
    assert_eq!(fourth[0].1.as_ref().unwrap().text, text_v0);
    assert_eq!(cache.stats().hits, 2);
}

#[test]
fn failed_preprocessing_is_cached_negatively() {
    let cache = Arc::new(ObjectCache::new());
    let mut tree = tiny_tree();
    tree.insert(
        "drivers/drv.c",
        "#error boom\nint drv_init(void) { return 0; }\n",
    );
    let mut engine = BuildEngine::new(tree.clone());
    engine.set_object_cache(Arc::clone(&cache));
    let cfg = engine.make_config("x86_64", &ConfigKind::AllYes).unwrap();
    let files = vec!["drivers/drv.c".to_string()];

    let first = engine.make_i(&cfg, &tree, &files).unwrap();
    let err1 = first[0].1.as_ref().unwrap_err().to_string();
    assert!(
        matches!(
            first[0].1.as_ref().unwrap_err(),
            BuildError::PreprocessFailed { .. }
        ),
        "expected a preprocess failure, got {err1}"
    );
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().negative_hits, 0);

    // The error itself is served from the cache the second time.
    let second = engine.make_i(&cfg, &tree, &files).unwrap();
    assert_eq!(second[0].1.as_ref().unwrap_err().to_string(), err1);
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(cache.stats().negative_hits, 1);

    // make_o on the same broken file: its own (O-kind) entry, also
    // negative, also replayed on the second call.
    let o1 = engine.make_o(&cfg, &tree, "drivers/drv.c").unwrap_err();
    let o2 = engine.make_o(&cfg, &tree, "drivers/drv.c").unwrap_err();
    assert_eq!(o1.to_string(), o2.to_string());
    assert_eq!(cache.stats().negative_hits, 2);
}

/// The full matrix: {workers 1, 8} × every combination of the config,
/// object and preprocess stores attached or not. Reports AND Figure-4
/// sample streams must match the one-worker run with no store bit for
/// bit.
#[test]
fn reports_and_samples_bit_identical_across_the_matrix() {
    let profile = WorkloadProfile {
        commits: 30,
        ..WorkloadProfile::tiny()
    };
    let workload = jmake_synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    assert!(!commits.is_empty());

    let baseline = run_evaluation(
        &workload.repo,
        &commits,
        &DriverOptions {
            workers: 1,
            config_cache_handle: None,
            object_cache_handle: None,
            preproc_cache_handle: None,
            ..DriverOptions::default()
        },
    );
    assert_eq!(baseline.results.len(), commits.len());

    for workers in [1, 8] {
        for stores in 0..8u8 {
            let (config, object, preproc) = (stores & 1 != 0, stores & 2 != 0, stores & 4 != 0);
            let run = run_evaluation(
                &workload.repo,
                &commits,
                &DriverOptions {
                    workers,
                    config_cache_handle: config.then(Default::default),
                    object_cache_handle: object.then(Default::default),
                    preproc_cache_handle: preproc.then(Default::default),
                    ..DriverOptions::default()
                },
            );
            let label =
                format!("workers={workers} config={config} object={object} preproc={preproc}");
            assert_eq!(run.results, baseline.results, "reports differ: {label}");
            assert_eq!(run.samples, baseline.samples, "samples differ: {label}");
        }
    }
}

/// A warm cache reused across runs (cold vs warm) changes wall-clock
/// only: identical reports and samples, and the warm run actually hits.
#[test]
fn warm_cache_replays_identically_and_hits() {
    let profile = WorkloadProfile {
        commits: 20,
        ..WorkloadProfile::tiny()
    };
    let workload = jmake_synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();

    let handle = Arc::new(ObjectCache::new());
    let opts = || DriverOptions {
        workers: 4,
        object_cache_handle: Some(Arc::clone(&handle)),
        ..DriverOptions::default()
    };
    let cold = run_evaluation(&workload.repo, &commits, &opts());
    let warm = run_evaluation(&workload.repo, &commits, &opts());
    assert_eq!(cold.results, warm.results);
    assert_eq!(cold.samples, warm.samples);
    assert!(
        warm.stats.object.hits > cold.stats.object.hits,
        "warm run should hit the pre-populated cache (cold {} vs warm {})",
        cold.stats.object.hits,
        warm.stats.object.hits
    );
    assert_eq!(warm.results.len(), commits.len());
}
