//! Determinism contract for randconfig portfolios (DESIGN.md §15): the
//! rendered portfolio report — selection, line accounting, and per-member
//! token attribution — must be **byte-identical** across worker counts,
//! cache modes, and disk-tier states. Caches and the tier may only move
//! host-side time, never which lines a config covers or which tokens a
//! member certifies. A K>1 portfolio must also measurably beat the
//! allyes-only baseline, or the whole exercise is dead weight.

use jmake_bench::{build_context_from_workload, render_portfolio_json};
use jmake_core::{select_portfolio, DriverOptions, Portfolio};
use jmake_faults::Faults;
use jmake_kbuild::DiskCache;
use jmake_synth::WorkloadProfile;
use std::path::PathBuf;

fn profile() -> WorkloadProfile {
    WorkloadProfile {
        commits: 60,
        ..WorkloadProfile::default()
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "jmake-portfolio-{tag}-{}-{}",
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

/// Mirror `jmake-eval --portfolio K`: generate the workload, select the
/// portfolio on the v4.4 tree, fan the chosen seeds out through the
/// driver, and render the portfolio report. Returns the report bytes and
/// the selection itself.
fn run(k: usize, workers: usize, caches: bool, cache_dir: Option<&PathBuf>) -> (String, Portfolio) {
    let workload = jmake_synth::generate(&profile());
    let tree = workload
        .repo
        .resolve_tag("v4.4")
        .and_then(|id| workload.repo.checkout(id))
        .unwrap();
    let selected = select_portfolio(&tree, "x86_64", k, 1).unwrap();

    let mut driver = DriverOptions {
        workers,
        config_cache_handle: caches.then(Default::default),
        object_cache_handle: caches.then(Default::default),
        preproc_cache_handle: caches.then(Default::default),
        ..DriverOptions::default()
    };
    driver.jmake.portfolio = selected.seeds();
    let disk = cache_dir.map(|dir| {
        let objects = driver.object_cache_handle.clone().unwrap_or_default();
        let configs = driver.config_cache_handle.clone().unwrap_or_default();
        let preproc = driver.preproc_cache_handle.clone().unwrap_or_default();
        let disk = DiskCache::open(dir).unwrap();
        disk.load(&objects, &configs, &preproc, &Faults::disabled())
            .unwrap();
        (disk, objects, configs, preproc)
    });

    let ctx = build_context_from_workload(&profile(), workload, &driver);
    if let Some((disk, objects, configs, preproc)) = disk {
        disk.store(&objects, &configs, &preproc).unwrap();
    }
    (render_portfolio_json(&selected, &ctx), selected)
}

#[test]
fn portfolio_reports_are_byte_identical_across_workers_caches_and_tier() {
    let (baseline, selected) = run(4, 1, true, None);
    assert!(baseline.contains("\"schema\": 1"));
    assert!(
        selected.members.len() >= 2,
        "K=4 must pick at least one randconfig beyond allyes"
    );

    // Worker counts and cache modes.
    let (w8, _) = run(4, 8, true, None);
    assert_eq!(w8, baseline, "8-worker report differs from 1-worker");
    let (nocache, _) = run(4, 8, false, None);
    assert_eq!(nocache, baseline, "cache-off report differs from cache-on");

    // Disk tier: a cold run that populates the tier, then a warm run
    // that loads it, must both render the same bytes.
    let dir = tempdir("identity");
    let (cold, _) = run(4, 4, true, Some(&dir));
    assert_eq!(cold, baseline, "cold disk-tier report differs");
    let (warm, _) = run(4, 4, true, Some(&dir));
    assert_eq!(warm, baseline, "warm disk-tier report differs from cold");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_k4_portfolio_covers_lines_and_tokens_allyes_alone_misses() {
    let (report, selected) = run(4, 2, true, None);

    // Static coverage: the randconfig members reach conditional lines the
    // allyes baseline provably cannot (they are conditional precisely
    // because allyes misses them).
    assert!(
        selected.covered_conditional_lines > 0,
        "portfolio covered no conditional lines beyond allyes"
    );
    assert!(selected.covered_lines() > selected.allyes_lines);

    // Dynamic attribution: tokens certified by randconfig members alone
    // show up in the report, so the sweep measurably benefits.
    let (k1, k1_selected) = run(1, 2, true, None);
    assert_eq!(k1_selected.members.len(), 1, "K=1 is the allyes baseline");
    assert!(k1.contains("\"by_rand\": 0"));
    assert!(
        !report.contains("\"by_rand\": 0"),
        "K=4 certified no tokens via randconfig members:\n{report}"
    );
}
