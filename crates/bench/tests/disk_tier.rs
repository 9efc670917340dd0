//! Determinism contract for the persistent cache tier (DESIGN.md §10):
//! a report rendered from a cold run, from a warm run that loaded the
//! disk tier, and from a second warm run must be **byte-identical**, at
//! any worker count — the tier may only move host-side time, never
//! simulated results. A warm run must also actually hit the loaded
//! entries, or the tier is dead weight.

use jmake_bench::{build_context_with_driver, render_command};
use jmake_core::DriverOptions;
use jmake_faults::Faults;
use jmake_kbuild::{ConfigCache, DiskCache, DiskTierStats, ObjectCache, PreprocCache};
use jmake_synth::WorkloadProfile;
use std::path::PathBuf;
use std::sync::Arc;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "jmake-disk-tier-{tag}-{}-{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-"),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn profile() -> WorkloadProfile {
    WorkloadProfile {
        commits: 25,
        ..WorkloadProfile::default()
    }
}

/// Evaluate with fresh in-memory caches backed by `cache_dir`, returning
/// the full rendered report, the in-memory object-cache hit count, and
/// the disk-tier load stats.
fn run(cache_dir: &PathBuf, workers: usize) -> (String, u64, DiskTierStats) {
    let objects = Arc::new(ObjectCache::new());
    let configs = Arc::new(ConfigCache::new());
    let preproc = Arc::new(PreprocCache::new());
    let disk = DiskCache::open(cache_dir).unwrap();
    let loaded = disk
        .load(&objects, &configs, &preproc, &Faults::disabled())
        .unwrap();
    assert_eq!(
        loaded.entries_quarantined, 0,
        "healthy tier, nothing quarantined"
    );
    let driver = DriverOptions {
        workers,
        object_cache_handle: Some(Arc::clone(&objects)),
        config_cache_handle: Some(Arc::clone(&configs)),
        preproc_cache_handle: Some(Arc::clone(&preproc)),
        ..DriverOptions::default()
    };
    let ctx = build_context_with_driver(&profile(), &driver);
    let report = render_command(&ctx, "all").unwrap();
    disk.store(&objects, &configs, &preproc).unwrap();
    (report, objects.stats().hits, loaded)
}

#[test]
fn cold_warm_warm_reports_are_byte_identical_across_worker_counts() {
    let dir = tempdir("identity");

    let (cold, _, _) = run(&dir, 1);
    assert!(!cold.is_empty());

    // The cold run persisted entries the warm runs must find.
    let stored: Vec<_> = walk(&dir.join("objects"));
    assert!(!stored.is_empty(), "cold run persisted object entries");
    assert!(
        !walk(&dir.join("preproc")).is_empty(),
        "cold run persisted preproc entries"
    );

    for workers in [1, 8] {
        for round in ["warm", "warm again"] {
            let (report, hits, loaded) = run(&dir, workers);
            assert_eq!(
                report, cold,
                "{round} report with {workers} worker(s) differs from cold"
            );
            assert!(
                hits > 0,
                "{round} run with {workers} worker(s) never hit the loaded tier"
            );
            assert!(
                loaded.preproc_loaded > 0,
                "{round} run with {workers} worker(s) loaded no preproc entries"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupting_every_entry_on_disk_changes_nothing_but_the_quarantine() {
    let dir = tempdir("corrupt");
    let (cold, _, _) = run(&dir, 2);

    // Truncate every persisted entry: each must quarantine, none may
    // surface as a wrong result — the report stays byte-identical.
    let entries: Vec<_> = walk(&dir.join("objects"))
        .into_iter()
        .chain(walk(&dir.join("configs")))
        .chain(walk(&dir.join("preproc")))
        .collect();
    assert!(!entries.is_empty());
    for path in &entries {
        let bytes = std::fs::read(path).unwrap();
        std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
    }

    let objects = Arc::new(ObjectCache::new());
    let configs = Arc::new(ConfigCache::new());
    let preproc = Arc::new(PreprocCache::new());
    let disk = DiskCache::open(&dir).unwrap();
    let loaded = disk
        .load(&objects, &configs, &preproc, &Faults::disabled())
        .unwrap();
    assert_eq!(loaded.entries_quarantined as usize, entries.len());
    assert_eq!(
        loaded.objects_loaded + loaded.configs_loaded + loaded.preproc_loaded,
        0
    );

    let driver = DriverOptions {
        workers: 2,
        object_cache_handle: Some(objects),
        config_cache_handle: Some(configs),
        preproc_cache_handle: Some(preproc),
        ..DriverOptions::default()
    };
    let report = render_command(&build_context_with_driver(&profile(), &driver), "all").unwrap();
    assert_eq!(
        report, cold,
        "a fully-corrupt tier must degrade to a cold run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `.entry` file under `root`, recursively.
fn walk(root: &PathBuf) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir(root) else {
        return out;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else if path.extension().is_some_and(|e| e == "entry") {
            out.push(path);
        }
    }
    out
}
