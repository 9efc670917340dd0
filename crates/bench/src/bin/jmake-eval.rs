//! Regenerate the paper's tables and figures over the synthetic workload.
//!
//! ```text
//! jmake-eval [OPTIONS] <table1|table2|table3|table4|fig4a|fig4b|fig4c|fig5|fig6|summary|all>
//! jmake-eval trace-check <trace.jsonl>
//!
//!   --commits N        window size (default 1200; paper scale ~12000)
//!   --seed S           workload seed
//!   --workers W        parallel workers (default 4; the paper used 25)
//!   --full             shorthand for --commits 12000
//!   --allmodconfig     also try allmodconfig (the paper's Table IV remedy)
//!   --coverage         for leftover .c lines, also try the configuration
//!                      each line's reach witness names (allmodconfig, or
//!                      the witness minimized into a delta against
//!                      allyesconfig)
//!   --portfolio K      select a K-config portfolio up front (greedy
//!                      newly-reachable-lines per virtual-clock dollar
//!                      over the v4.4 tree's presence conditions; member
//!                      0 is always allyesconfig, the rest are seeded
//!                      randconfigs) and fan every trial out to its
//!                      members; prints the portfolio report — static
//!                      line coverage plus measured per-config token
//!                      attribution — as JSON on stdout
//!   --rand-seed N      base seed for the randconfig candidate pool
//!                      (default 1; candidate i samples with seed N+i,
//!                      deterministically — same seed, same configs,
//!                      everywhere)
//!   --no-shared-cache  solve every configuration per patch (original
//!                      per-patch-cleanup behavior; slower wall-clock,
//!                      identical reports)
//!   --no-object-cache  disable the content-addressed object cache
//!                      (every .i/.o is preprocessed from scratch;
//!                      slower wall-clock, identical reports)
//!   --no-preproc-cache disable the cross-patch preprocess memo (every
//!                      header inclusion is expanded live; slower
//!                      wall-clock, identical reports)
//!   --cache-dir DIR    persist the config, object and preprocess
//!                      caches under DIR (created if missing) and
//!                      pre-load them from it, so a second run starts
//!                      warm. Entries carry an
//!                      integrity digest verified on load; corrupt or
//!                      truncated files are quarantined under
//!                      DIR/quarantine and recomputed live. Host-side
//!                      only: reports are byte-identical cold vs. warm
//!                      (the CI gate diffs them)
//!   --stats            print the run summary: exact work (outcomes,
//!                      make invocations and their virtual µs, lint
//!                      evaluations, cache counters), then host
//!                      wall-clock (per-stage, driver throughput)
//!   --trace FILE       write one JSON line per pipeline span to FILE
//!   --metrics          print per-stage span metrics (count, p50/p90/max
//!                      host µs, total virtual µs, config cache hit rate)
//!   --faults SPEC      inject deterministic faults; SPEC is a comma list
//!                      of kind:rate with kinds transient, latency,
//!                      corrupt, hang (e.g. "transient:0.2,corrupt:0.1").
//!                      Recovery is automatic (bounded retry, timeouts,
//!                      cache-shard quarantine); a commit whose retry
//!                      budget is exhausted degrades explicitly instead
//!                      of disappearing. Without --faults the run is
//!                      byte-identical to a build without the fault layer
//!   --fault-seed N     seed for the fault plan (default 1); the same
//!                      seed faults the same operations regardless of
//!                      worker count, scheduling, or cache mode
//!   --reach            print the static reachability classification of
//!                      the v4.4 tree (per-file allyes/conditional/dead
//!                      line counts plus every dead line with its proof)
//!                      as JSON on stdout
//!   --cross-check      replay the run against the static analyzer and
//!                      print the discrepancy report as JSON on stdout;
//!                      exits non-zero when static and dynamic verdicts
//!                      provably disagree (the CI gate)
//!   --fix              statically root-cause every missed line, then
//!                      synthesize and *verify* a minimal config delta
//!                      (or allmodconfig / cross-arch environment) that
//!                      would have covered it; prints the remediation
//!                      report as JSON on stdout and grafts per-file FIX
//!                      lines into the tables. Exits non-zero when a
//!                      static root cause disagrees with the dynamic
//!                      classifier or an emitted delta fails its
//!                      verification re-run (the CI gate). Without
//!                      `--fix` the reports are byte-identical to a
//!                      build without the remediator
//!   --fix-json FILE    write the remediation report to FILE as well
//!                      (implies --fix)
//!
//! With `--reach`/`--cross-check`/`--fix`/`--portfolio` and no explicit
//! table command, the tables are suppressed so stdout is pure JSON (pipe
//! into a file and `diff` across worker counts / cache modes / disk-tier
//! states — the bytes must match). `--cross-check` and `--fix` read one
//! replay of the run; with both, the cross-check report comes first.
//!
//! `trace-check` re-parses a `--trace` file, validates every line against
//! the documented schema, and prints per-stage span counts. It exits
//! non-zero on the first malformed line.
//! ```

use jmake_bench::{build_context_from_workload, render_command, render_portfolio_json};
use jmake_core::{CrossCheckReport, DriverOptions, Oracle};
use jmake_faults::{FaultSpec, Faults};
use jmake_fix::FixReport;
use jmake_kbuild::{BuildEngine, DiskCache, SourceTree};
use jmake_reach::Reach;
use jmake_synth::WorkloadProfile;
use jmake_trace::{Stage, Tracer};
use std::sync::Arc;

/// Classify the whole `tree` statically: one model and one
/// allyes/allmod environment pair per architecture present, host
/// (x86_64) first so it serves as the primary model for non-arch files.
fn render_reach(tree: &SourceTree) -> Result<String, String> {
    let mut arches: Vec<String> = tree
        .iter()
        .filter_map(|(p, _)| {
            p.strip_prefix("arch/")
                .and_then(|r| r.strip_suffix("/Kconfig"))
                .filter(|a| !a.contains('/'))
                .map(str::to_string)
        })
        .collect();
    arches.sort();
    if let Some(i) = arches.iter().position(|a| a == "x86_64") {
        let host = arches.remove(i);
        arches.insert(0, host);
    }
    if arches.is_empty() {
        return Err("no arch/<a>/Kconfig in the tree".to_string());
    }
    let mut reach = Reach::new(tree);
    for arch in &arches {
        let mut engine = BuildEngine::new(tree.clone());
        reach
            .add_arch(&mut engine, arch)
            .map_err(|e| format!("{arch}: {e}"))?;
    }
    Ok(reach.analyze().to_json())
}

/// Validate a trace file produced by `--trace`: every line must parse as
/// a span record with a documented stage name. Prints per-stage counts.
fn trace_check(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let records = match jmake_trace::jsonl::parse(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace-check: {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut counts = std::collections::BTreeMap::new();
    for stage in records.iter().filter_map(|r| r.stage) {
        *counts.entry(stage.name()).or_insert(0u64) += 1;
    }
    println!("trace-check: {path}: {} span(s) OK", records.len());
    for (stage, n) in counts {
        println!("  {stage:<14} {n}");
    }
    std::process::exit(0);
}

/// Write a report file, creating missing parent directories first (same
/// behavior `Tracer::to_file` has for `--trace FILE`).
fn write_report(path: &str, text: &str) -> std::io::Result<()> {
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)
}

/// The value of a numeric flag. A missing or unparsable value is a usage
/// error (exit 2): silently running the default instead would report on
/// a workload nobody asked for.
fn integer_arg<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    match value {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} needs an integer, got {v:?}");
            std::process::exit(2);
        }),
        None => {
            eprintln!("{flag} needs an integer");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace-check") {
        match args.get(1) {
            Some(path) => trace_check(path),
            None => {
                eprintln!("usage: jmake-eval trace-check <trace.jsonl>");
                std::process::exit(2);
            }
        }
    }
    let mut profile = WorkloadProfile::default();
    let mut driver = DriverOptions::default();
    let mut explicit_command: Option<String> = None;
    let mut show_stats = false;
    let mut show_metrics = false;
    let mut do_reach = false;
    let mut do_cross_check = false;
    let mut do_fix = false;
    let mut portfolio_k: Option<usize> = None;
    let mut rand_seed: u64 = 1;
    let mut fix_json: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut fault_spec: Option<FaultSpec> = None;
    let mut fault_seed: u64 = 1;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--commits" => profile.commits = integer_arg("--commits", it.next()),
            "--seed" => profile.seed = integer_arg("--seed", it.next()),
            "--workers" => driver.workers = integer_arg("--workers", it.next()),
            "--full" => profile.commits = 12_000,
            "--allmodconfig" => driver.jmake.use_allmodconfig = true,
            "--coverage" => driver.jmake.use_coverage_configs = true,
            "--portfolio" => {
                let Some(k) = it.next().and_then(|v| v.parse().ok()).filter(|k| *k >= 1) else {
                    eprintln!("--portfolio needs an integer K >= 1");
                    std::process::exit(2);
                };
                portfolio_k = Some(k);
            }
            "--rand-seed" => rand_seed = integer_arg("--rand-seed", it.next()),
            "--no-shared-cache" => driver.config_cache_handle = None,
            "--no-object-cache" => driver.object_cache_handle = None,
            "--no-preproc-cache" => driver.preproc_cache_handle = None,
            "--cache-dir" => {
                let Some(dir) = it.next() else {
                    eprintln!("--cache-dir needs a directory path");
                    std::process::exit(2);
                };
                cache_dir = Some(dir.clone());
            }
            "--stats" => show_stats = true,
            "--trace" => {
                let Some(path) = it.next() else {
                    eprintln!("--trace needs a file path");
                    std::process::exit(2);
                };
                driver.tracer = match Tracer::to_file(std::path::Path::new(path)) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot open trace file {path}: {e}");
                        std::process::exit(1);
                    }
                };
            }
            "--metrics" => show_metrics = true,
            "--faults" => {
                let Some(spec) = it.next() else {
                    eprintln!("--faults needs a spec like transient:0.2,corrupt:0.1");
                    std::process::exit(2);
                };
                fault_spec = match FaultSpec::parse(spec) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!("--faults: {e}");
                        std::process::exit(2);
                    }
                };
            }
            "--fault-seed" => fault_seed = integer_arg("--fault-seed", it.next()),
            "--reach" => do_reach = true,
            "--cross-check" => do_cross_check = true,
            "--fix" => do_fix = true,
            "--fix-json" => {
                let Some(path) = it.next() else {
                    eprintln!("--fix-json needs a file path");
                    std::process::exit(2);
                };
                fix_json = Some(path.clone());
                do_fix = true;
            }
            cmd if !cmd.starts_with("--") => explicit_command = Some(cmd.to_string()),
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    // `--metrics` without `--trace` still needs span recording; keep the
    // records in memory instead of a file.
    if show_metrics && !driver.tracer.is_enabled() {
        driver.tracer = Tracer::in_memory();
    }
    let tracer = driver.tracer.clone();
    if let Some(spec) = &fault_spec {
        driver.faults = Faults::new(*spec, fault_seed);
        eprintln!("fault injection enabled: {spec} (seed {fault_seed})");
    }
    // Open the persistent tier and pre-load all three stores before the
    // run (a store a `--no-*` flag turned off is loaded too, but the run
    // does not use it); corrupt entries quarantine on load and are
    // recomputed live.
    let disk = cache_dir.as_ref().map(|dir| match DiskCache::open(dir) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot open cache dir {dir}: {e}");
            std::process::exit(1);
        }
    });
    let objects = driver.object_cache_handle.clone().unwrap_or_default();
    let configs = driver.config_cache_handle.clone().unwrap_or_default();
    let preproc = driver.preproc_cache_handle.clone().unwrap_or_default();
    if let Some(disk) = &disk {
        match disk.load(&objects, &configs, &preproc, &driver.faults) {
            Ok(s) => eprintln!(
                "disk cache: loaded {} object / {} config / {} preproc entr{} from {} ({} quarantined)",
                s.objects_loaded,
                s.configs_loaded,
                s.preproc_loaded,
                if s.objects_loaded + s.configs_loaded + s.preproc_loaded == 1 { "y" } else { "ies" },
                disk.root().display(),
                s.entries_quarantined,
            ),
            Err(e) => {
                eprintln!("cannot load cache dir {}: {e}", disk.root().display());
                std::process::exit(1);
            }
        }
    }

    eprintln!(
        "generating workload (seed {:#x}, {} commits) and running JMake with {} workers (shared config cache: {})…",
        profile.seed,
        profile.commits,
        driver.workers,
        if driver.config_cache_handle.is_some() { "on" } else { "off" },
    );
    let started = std::time::Instant::now();
    let workload = jmake_synth::generate(&profile);
    // Portfolio selection runs before the evaluation: pick the randconfig
    // seeds on the v4.4 tree, then hand them to every worker's pipeline
    // options. Selection is a pure function of (tree, arch, K, seed) on a
    // scratch engine, so it never perturbs the run's virtual clock.
    let portfolio = portfolio_k.map(|k| {
        let tree = match workload
            .repo
            .resolve_tag("v4.4")
            .and_then(|id| workload.repo.checkout(id))
        {
            Ok(t) => t,
            Err(e) => {
                eprintln!("--portfolio: cannot check out v4.4: {e}");
                std::process::exit(1);
            }
        };
        let mut span = tracer.span(Stage::Portfolio).with_arch("x86_64");
        let selected = match jmake_core::select_portfolio(&tree, "x86_64", k, rand_seed) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("--portfolio: {e}");
                std::process::exit(1);
            }
        };
        span.set_virtual_us(selected.total_cost_virtual_us());
        drop(span);
        driver.jmake.portfolio = selected.seeds();
        eprintln!(
            "portfolio: K={} rand-seed {} → {} member(s) from {} candidate(s); {} conditional line(s) covered beyond allyes ({} dead, {} beyond the pool), cost {}µs virtual",
            k,
            rand_seed,
            selected.members.len(),
            selected.pool,
            selected.covered_conditional_lines,
            selected.dead_lines,
            selected.unfixable_lines,
            selected.total_cost_virtual_us(),
        );
        selected
    });
    let mut ctx = build_context_from_workload(&profile, workload, &driver);
    eprintln!(
        "workload generated and evaluated in {:.1}s wall clock ({} commits, {} patches with .c/.h changes)",
        started.elapsed().as_secs_f64(),
        ctx.run.stats.commits,
        ctx.all.patches
    );
    if let Some(disk) = &disk {
        // Persisting is best-effort: a full disk loses warm starts, not
        // results.
        match disk.store(&objects, &configs, &preproc) {
            Ok(s) => eprintln!(
                "disk cache: stored {} new object / {} new config / {} new preproc entries under {}",
                s.objects_stored,
                s.configs_stored,
                s.preproc_stored,
                disk.root().display(),
            ),
            Err(e) => {
                eprintln!("WARNING: cannot persist cache dir {}: {e}", disk.root().display());
            }
        }
    }
    let failures = ctx.run.stats.commits - ctx.run.stats.checked;
    if failures > 0 {
        eprintln!(
            "WARNING: {failures} patch(es) did not produce a report (checkout {}, show {}, panics {}, degraded {})",
            ctx.run.stats.checkout_failures,
            ctx.run.stats.show_failures,
            ctx.run.stats.panics,
            ctx.run.stats.degraded
        );
    }
    if fault_spec.is_some() {
        eprintln!("fault recovery: {}", ctx.run.stats.faults);
    }
    // `--cross-check` and `--fix` read one replay of the run, whose views
    // are solved on engines attached to the run's stores and tracer.
    let mut cross_report = do_cross_check.then(CrossCheckReport::default);
    let mut fix_report = do_fix.then(FixReport::default);
    let mut oracles: Vec<&mut dyn Oracle> = Vec::new();
    oracles.extend(cross_report.as_mut().map(|r| r as &mut dyn Oracle));
    oracles.extend(fix_report.as_mut().map(|r| r as &mut dyn Oracle));
    if !oracles.is_empty() {
        let fctx = jmake_fix::FixContext {
            configs: Arc::clone(&configs),
            objects: driver.object_cache_handle.clone(),
            preproc: driver.preproc_cache_handle,
            tracer: tracer.clone(),
        };
        let replay_started = std::time::Instant::now();
        let engine = |tree| fctx.engine(tree);
        jmake_core::replay(&ctx.workload.repo, &ctx.run, &engine, &mut oracles);
        let secs = replay_started.elapsed().as_secs_f64();
        eprintln!("static replay finished in {secs:.1}s wall clock");
    }
    if let Some(fix) = &fix_report {
        jmake_fix::annotate_run(&mut ctx.run, fix);
    }
    if show_stats {
        eprint!("{}", ctx.run.render_stats());
    }
    if let Err(e) = tracer.flush() {
        eprintln!("WARNING: flushing trace file failed: {e}");
    }
    if show_metrics {
        eprint!("{}", tracer.metrics().render());
        let balance = tracer.balance();
        if !balance.is_balanced() {
            eprintln!(
                "WARNING: unbalanced spans ({} opened, {} closed)",
                balance.opened, balance.closed
            );
        }
    }

    let mut exit_code = 0;
    if do_reach {
        let tree = ctx
            .workload
            .repo
            .resolve_tag("v4.4")
            .and_then(|id| ctx.workload.repo.checkout(id));
        match tree {
            Ok(tree) => match render_reach(&tree) {
                Ok(json) => print!("{json}"),
                Err(e) => {
                    eprintln!("--reach: {e}");
                    std::process::exit(1);
                }
            },
            Err(e) => {
                eprintln!("--reach: cannot check out v4.4: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(report) = &cross_report {
        print!("{}", report.to_json());
        if !report.is_clean() {
            eprintln!(
                "CROSS-CHECK FAILED: {} discrepanc{} between static reachability and mutation coverage",
                report.discrepancies.len(),
                if report.discrepancies.len() == 1 { "y" } else { "ies" }
            );
            exit_code = 1;
        } else {
            eprintln!(
                "cross-check clean: {} patches, {} tokens, {} dead-agreed, {} allyes-agreed, {} skipped",
                report.patches,
                report.tokens,
                report.dead_agreed,
                report.allyes_agreed,
                report.skipped.len()
            );
        }
    }
    if let Some(fix) = &fix_report {
        let json = fix.to_json();
        print!("{json}");
        if let Some(path) = &fix_json {
            if let Err(e) = write_report(path, &json) {
                eprintln!("cannot write remediation report {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("remediation report written to {path}");
        }
        if fix.is_clean() {
            eprintln!(
                "remediation clean: {} missed line(s), every emitted delta verified ({} of {}), {} unfixable, 0 disagreements",
                fix.missed, fix.deltas_verified, fix.deltas_emitted, fix.unfixable
            );
        } else {
            eprintln!(
                "REMEDIATION FAILED: {} static/dynamic disagreement(s), {} delta(s) failed verification",
                fix.disagreements.len(),
                fix.verification_failures,
            );
            exit_code = 1;
        }
    }
    if let Some(p) = &portfolio {
        print!("{}", render_portfolio_json(p, &ctx));
        eprintln!(
            "portfolio report: {} member(s), {}/{} line(s) covered, {} dead, {} beyond the pool",
            p.members.len(),
            p.covered_lines(),
            p.total_lines(),
            p.dead_lines,
            p.unfixable_lines,
        );
    }
    // With `--reach`/`--cross-check`/`--fix`/`--portfolio` and no explicit
    // command, stdout stays pure JSON for CI diffing.
    if explicit_command.is_none() && (do_reach || do_cross_check || do_fix || portfolio.is_some()) {
        std::process::exit(exit_code);
    }

    let command = explicit_command.unwrap_or_else(|| "all".to_string());
    match render_command(&ctx, &command) {
        Some(text) => print!("{text}"),
        None => {
            eprintln!("unknown command {command:?}");
            std::process::exit(2);
        }
    }
    std::process::exit(exit_code);
}
