//! Criterion micro/throughput benchmarks for every pipeline stage, plus
//! the ablation benches DESIGN.md §5 calls out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jmake_core::{mutate, mutate_naive, run_evaluation, DriverOptions, JMake, Options};
use jmake_diff::{diff_to_patch, DiffOptions};
use jmake_kbuild::{BuildEngine, ConfigCache, ConfigKey, ConfigKind, ObjectCache, PreprocCache};
use jmake_synth::WorkloadProfile;
use jmake_vcs::LogOptions;
use std::sync::Arc;

fn bench_profile() -> WorkloadProfile {
    WorkloadProfile {
        commits: 40,
        ..WorkloadProfile::tiny()
    }
}

/// Substrate: unified diff of two medium files.
fn bench_diff(c: &mut Criterion) {
    let old: String = (0..400).map(|i| format!("line number {i};\n")).collect();
    let new = old
        .replace("line number 37;", "changed 37;")
        .replace("line number 201;", "changed 201;")
        .replace("line number 322;", "changed 322;");
    c.bench_function("diff/myers_400_lines", |b| {
        b.iter(|| diff_to_patch("f.c", &old, &new, &DiffOptions::default()))
    });
}

/// Substrate: preprocessing a driver with its headers.
fn bench_preprocess(c: &mut Criterion) {
    let (tree, layout) = jmake_synth::generate_tree(&bench_profile());
    let mut engine = BuildEngine::new(tree.clone());
    let cfg = engine.make_config("x86_64", &ConfigKind::AllYes).unwrap();
    let file = layout
        .drivers
        .iter()
        .find(|d| d.arch_specific.is_none())
        .map(|d| d.c_path.clone())
        .expect("host driver exists");
    c.bench_function("cpp/make_i_one_driver", |b| {
        b.iter(|| {
            engine
                .make_i(&cfg, &tree, std::slice::from_ref(&file))
                .unwrap()
        })
    });
}

/// Hot path (DESIGN.md §13.1): preprocessing with the cross-patch
/// include memo cold vs warm. The warm case replays recorded
/// header-inclusion effects instead of re-expanding every header, which
/// is where the cross-patch speedup comes from.
fn bench_preproc_memo(c: &mut Criterion) {
    let (tree, layout) = jmake_synth::generate_tree(&bench_profile());
    let file = layout
        .drivers
        .iter()
        .find(|d| d.arch_specific.is_none())
        .map(|d| d.c_path.clone())
        .expect("host driver exists");
    let mut group = c.benchmark_group("check/preproc_memo");
    group.bench_function("memo_off", |b| {
        let mut engine = BuildEngine::new(tree.clone());
        let cfg = engine.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        b.iter(|| {
            engine
                .make_i(&cfg, &tree, std::slice::from_ref(&file))
                .unwrap()
        })
    });
    group.bench_function("memo_warm", |b| {
        let mut engine = BuildEngine::new(tree.clone());
        let memo = Arc::new(PreprocCache::new());
        engine.set_preproc_cache(Arc::clone(&memo));
        let cfg = engine.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        // Prime the memo once; subsequent iterations replay from it.
        engine
            .make_i(&cfg, &tree, std::slice::from_ref(&file))
            .unwrap();
        b.iter(|| {
            engine
                .make_i(&cfg, &tree, std::slice::from_ref(&file))
                .unwrap()
        })
    });
    group.finish();
}

/// Substrate: Kconfig allyesconfig resolution.
fn bench_kconfig(c: &mut Criterion) {
    let (tree, _) = jmake_synth::generate_tree(&bench_profile());
    c.bench_function("kconfig/allyesconfig", |b| {
        b.iter(|| {
            let mut engine = BuildEngine::new(tree.clone());
            engine.make_config("x86_64", &ConfigKind::AllYes).unwrap()
        })
    });
}

/// Core: the mutation engine on a realistic file.
fn bench_mutation(c: &mut Criterion) {
    let (tree, layout) = jmake_synth::generate_tree(&bench_profile());
    let path = &layout.drivers[0].c_path;
    let content = tree.get(path).unwrap();
    let changed: jmake_diff::ChangedLines = (1..=content.lines().count() as u32)
        .step_by(4)
        .map(jmake_diff::ChangedLine::Line)
        .collect();
    c.bench_function("core/mutation_engine", |b| {
        b.iter(|| mutate(path, content, &changed))
    });
}

/// Core: one full patch check, end to end.
fn bench_check_patch(c: &mut Criterion) {
    let (tree, layout) = jmake_synth::generate_tree(&bench_profile());
    let path = layout.drivers[0].c_path.clone();
    let old = tree.get(&path).unwrap().to_string();
    let new = old.replace("+ 0;", "+ 1;");
    let patch = diff_to_patch(&path, &old, &new, &DiffOptions::default());
    let mut patched = tree;
    patched.insert(&path, new);
    c.bench_function("core/check_patch_end_to_end", |b| {
        b.iter(|| {
            let mut engine = BuildEngine::new(patched.clone());
            JMake::new().check_patch(&mut engine, &patch, "bench")
        })
    });
}

/// Ablation 1 (DESIGN.md §5): minimized vs naive mutation placement.
fn ablation_mutation_density(c: &mut Criterion) {
    let (tree, layout) = jmake_synth::generate_tree(&bench_profile());
    let path = &layout.drivers[0].c_path;
    let content = tree.get(path).unwrap();
    let changed: jmake_diff::ChangedLines = (1..=content.lines().count() as u32)
        .map(jmake_diff::ChangedLine::Line)
        .collect();
    let mut group = c.benchmark_group("ablation/mutation_density");
    group.bench_function("paper_placement", |b| {
        b.iter(|| mutate(path, content, &changed))
    });
    group.bench_function("naive_per_line", |b| {
        b.iter(|| mutate_naive(path, content, &changed))
    });
    // The quantity the paper optimizes: token count (reported via
    // criterion's output as iterations are equal-cost here).
    let minimized = mutate(path, content, &changed).mutations.len();
    let naive = mutate_naive(path, content, &changed).mutations.len();
    assert!(minimized <= naive);
    group.finish();
}

/// Ablation 2: grouped .i invocations (≤50) vs one file per invocation.
fn ablation_grouping(c: &mut Criterion) {
    let workload = jmake_synth::generate(&bench_profile());
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    let commit = commits[0];
    let tree = workload.repo.checkout(commit).unwrap();
    let patch = workload.repo.show(commit).unwrap();
    let mut group = c.benchmark_group("ablation/grouping");
    for (name, limit) in [("grouped_50", 50usize), ("one_per_invocation", 1)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &limit, |b, &limit| {
            let jmake = JMake::with_options(Options {
                group_limit: limit,
                ..Options::default()
            });
            b.iter(|| {
                let mut engine = BuildEngine::new(tree.clone());
                jmake.check_patch(&mut engine, &patch, "bench")
            })
        });
    }
    group.finish();
}

/// Ablation 3: header-candidate ranking with vs without macro hints.
fn ablation_hint_ranking(c: &mut Criterion) {
    let (tree, layout) = jmake_synth::generate_tree(&bench_profile());
    let header = &layout.headers[0];
    let old = tree.get(&header.path).unwrap().to_string();
    let new = old.replace("<< 1)", "<< 2)");
    let patch = diff_to_patch(&header.path, &old, &new, &DiffOptions::default());
    let mut patched = tree;
    patched.insert(&header.path, new);
    let mut group = c.benchmark_group("ablation/hint_ranking");
    for (name, hints) in [("with_hints", true), ("without_hints", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &hints, |b, &hints| {
            let jmake = JMake::with_options(Options {
                use_header_hints: hints,
                ..Options::default()
            });
            b.iter(|| {
                let mut engine = BuildEngine::new(patched.clone());
                jmake.check_patch(&mut engine, &patch, "bench")
            })
        });
    }
    group.finish();
}

/// Ablation 4: prepared configurations on/off, and allmodconfig on/off.
fn ablation_config_sets(c: &mut Criterion) {
    let (tree, layout) = jmake_synth::generate_tree(&bench_profile());
    let drv = layout
        .drivers
        .iter()
        .find(|d| d.arch_specific.is_some())
        .expect("arch-specific driver");
    let old = tree.get(&drv.c_path).unwrap().to_string();
    let new = old.replace("+ 0;", "+ 1;");
    let patch = diff_to_patch(&drv.c_path, &old, &new, &DiffOptions::default());
    let mut patched = tree;
    patched.insert(&drv.c_path, new);
    let mut group = c.benchmark_group("ablation/config_sets");
    let variants: [(&str, Options); 3] = [
        (
            "allyes_only",
            Options {
                use_defconfigs: false,
                ..Options::default()
            },
        ),
        ("with_defconfigs", Options::default()),
        (
            "with_allmodconfig",
            Options {
                use_allmodconfig: true,
                ..Options::default()
            },
        ),
    ];
    for (name, opts) in variants {
        group.bench_function(name, |b| {
            let jmake = JMake::with_options(opts.clone());
            b.iter(|| {
                let mut engine = BuildEngine::new(patched.clone());
                jmake.check_patch(&mut engine, &patch, "bench")
            })
        });
    }
    group.finish();
}

/// Driver: the evaluation run with the cross-patch configuration cache
/// shared between workers vs solved per patch (the original behavior).
/// Reports are identical either way; this measures host wall-clock only.
fn driver_shared_config_cache(c: &mut Criterion) {
    // The default tree shape (8 arches, 12 drivers per subsystem): on the
    // tiny tree configuration solving is too cheap for the cache to show.
    let workload = jmake_synth::generate(&WorkloadProfile {
        commits: 120,
        ..WorkloadProfile::default()
    });
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    let mut group = c.benchmark_group("driver/config_cache");
    group.sample_size(10);
    for (name, shared_cache) in [("shared_across_patches", true), ("per_patch_solve", false)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &shared_cache,
            |b, &shared_cache| {
                let opts = DriverOptions {
                    workers: 4,
                    shared_cache,
                    ..DriverOptions::default()
                };
                b.iter(|| run_evaluation(&workload.repo, &commits, &opts))
            },
        );
    }
    group.finish();
}

/// Driver: the content-addressed object cache off, cold (empty cache per
/// run), and warm (a pre-populated cache shared across runs via
/// `object_cache_handle`). Reports and virtual-time samples are
/// bit-identical across all three; only host wall-clock differs.
///
/// One worker, deliberately: this is a cache ablation, and extra threads
/// would fold scheduler noise into the comparison (on a single-core
/// runner they dominate it). Thread scaling is a separate axis.
fn driver_object_cache(c: &mut Criterion) {
    let workload = jmake_synth::generate(&WorkloadProfile {
        commits: 120,
        ..WorkloadProfile::default()
    });
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .unwrap();
    let mut group = c.benchmark_group("driver/object_cache");
    group.sample_size(10);
    group.bench_function("off", |b| {
        let opts = DriverOptions {
            workers: 1,
            object_cache: false,
            ..DriverOptions::default()
        };
        b.iter(|| run_evaluation(&workload.repo, &commits, &opts))
    });
    group.bench_function("cold", |b| {
        // No handle: each run builds and discards its own cache.
        let opts = DriverOptions {
            workers: 1,
            ..DriverOptions::default()
        };
        b.iter(|| run_evaluation(&workload.repo, &commits, &opts))
    });
    group.bench_function("warm", |b| {
        let opts = DriverOptions {
            workers: 1,
            object_cache_handle: Some(Arc::new(ObjectCache::new())),
            ..DriverOptions::default()
        };
        // Prime the shared cache once; every measured run then replays
        // the same content against a fully warm cache.
        run_evaluation(&workload.repo, &commits, &opts);
        b.iter(|| run_evaluation(&workload.repo, &commits, &opts))
    });
    group.finish();
}

/// Satellite: configuration-cache lookups through the interned
/// [`ConfigKey`] (an `Arc<str>` pair hashed directly, no per-lookup
/// string formatting).
fn config_key_lookup(c: &mut Criterion) {
    let (tree, _) = jmake_synth::generate_tree(&bench_profile());
    let fingerprint = tree.config_digest();
    let cache = ConfigCache::new();
    let kinds = [ConfigKind::AllYes, ConfigKind::AllMod];
    let arches = ["x86_64", "arm", "powerpc", "mips"];
    let mut engine = BuildEngine::new(tree);
    for arch in arches {
        for kind in &kinds {
            let cfg = engine.make_config(arch, kind).unwrap();
            let key = ConfigKey::new(arch, kind);
            cache.insert((fingerprint, key, kind.content_fingerprint()), cfg);
        }
    }
    let mut group = c.benchmark_group("config_cache");
    group.bench_function("lookup_interned_key", |b| {
        let key = (
            fingerprint,
            ConfigKey::new("powerpc", &ConfigKind::AllMod),
            ConfigKind::AllMod.content_fingerprint(),
        );
        b.iter(|| cache.peek(&key))
    });
    group.bench_function("lookup_with_key_construction", |b| {
        // What a caller pays when it has not interned the key yet.
        b.iter(|| {
            let key = ConfigKey::new("powerpc", &ConfigKind::AllMod);
            cache.peek(&(fingerprint, key, ConfigKind::AllMod.content_fingerprint()))
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_diff,
        bench_preprocess,
        bench_preproc_memo,
        bench_kconfig,
        bench_mutation,
        bench_check_patch,
        ablation_mutation_density,
        ablation_grouping,
        ablation_hint_ranking,
        ablation_config_sets,
        driver_shared_config_cache,
        driver_object_cache,
        config_key_lookup
);
criterion_main!(benches);
