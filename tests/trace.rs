//! Integration tests for the structured tracing layer: tracing off is
//! bit-identical to the seed behavior, and tracing on reconciles — span
//! for span — with `DriverStats` and the Figure 4 sample streams.

use jmake::core::{run_evaluation, DriverOptions, EvaluationRun};
use jmake::synth::WorkloadProfile;
use jmake::trace::{jsonl, Stage, Tracer};
use jmake::vcs::LogOptions;

fn run_with(workers: usize, tracer: Tracer) -> EvaluationRun {
    let profile = WorkloadProfile::tiny();
    let workload = jmake::synth::generate(&profile);
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .expect("tags exist");
    run_evaluation(
        &workload.repo,
        &commits,
        &DriverOptions {
            workers,
            tracer,
            ..DriverOptions::default()
        },
    )
}

/// The no-op tracer leaves every report and every Fig. 4 sample stream
/// bit-identical: tracing can never perturb the science.
#[test]
fn disabled_tracer_is_bit_identical_to_traced_run() {
    for workers in [1, 8] {
        let off = run_with(workers, Tracer::disabled());
        let on_tracer = Tracer::in_memory();
        let on = run_with(workers, on_tracer.clone());
        assert_eq!(off.results, on.results, "reports differ (workers={workers})");
        assert_eq!(
            off.samples, on.samples,
            "Fig. 4 samples differ (workers={workers})"
        );
        assert!(on_tracer.balance().is_balanced());
    }
}

/// Every span opened during a run is recorded exactly once, and the
/// span-derived totals reconcile with `DriverStats` and the virtual-clock
/// sample streams — for both a serial and a parallel driver.
#[test]
fn span_totals_reconcile_with_driver_stats_across_worker_counts() {
    for workers in [1, 8] {
        let tracer = Tracer::in_memory();
        let run = run_with(workers, tracer.clone());
        let balance = tracer.balance();
        assert!(
            balance.is_balanced(),
            "unbalanced spans (workers={workers}): {} opened, {} closed",
            balance.opened,
            balance.closed
        );
        let metrics = tracer.metrics();

        // Host wall-clock: the driver feeds the same measurement to the
        // stats counters and the spans, so totals match to the µs.
        assert_eq!(
            metrics.host_total_us(Stage::Checkout),
            run.stats.checkout_wall_us,
            "checkout host µs (workers={workers})"
        );
        assert_eq!(
            metrics.host_total_us(Stage::Show),
            run.stats.show_wall_us,
            "show host µs (workers={workers})"
        );
        assert_eq!(
            metrics.host_total_us(Stage::Check),
            run.stats.check_wall_us,
            "check host µs (workers={workers})"
        );

        // Virtual time: the umbrella check spans carry each report's
        // elapsed virtual time; the nested build spans carry exactly the
        // per-invocation samples behind Figures 4a/4b/4c.
        let reports_virtual: u64 = run
            .results
            .iter()
            .filter_map(|r| r.report())
            .map(|rep| rep.elapsed_us)
            .sum();
        assert_eq!(
            metrics.virtual_total_us(Stage::Check),
            reports_virtual,
            "check virtual µs (workers={workers})"
        );
        assert_eq!(
            metrics.virtual_total_us(Stage::ConfigSolve),
            run.samples.config.iter().sum::<u64>(),
            "config_solve virtual µs (workers={workers})"
        );
        assert_eq!(
            metrics.virtual_total_us(Stage::BuildI),
            run.samples.i_gen.iter().sum::<u64>(),
            "build_i virtual µs (workers={workers})"
        );
        assert_eq!(
            metrics.virtual_total_us(Stage::BuildO),
            run.samples.o_gen.iter().sum::<u64>(),
            "build_o virtual µs (workers={workers})"
        );
        // The build stages nest inside the check umbrella, so their
        // virtual sum can never exceed it.
        assert!(
            metrics.virtual_total_us(Stage::ConfigSolve)
                + metrics.virtual_total_us(Stage::BuildI)
                + metrics.virtual_total_us(Stage::BuildO)
                <= reports_virtual,
            "nested stage virtual time exceeds check umbrella (workers={workers})"
        );

        // Span counts line up with the sample streams too: one
        // config_solve span per solve (hit or miss), one build span per
        // invocation.
        assert_eq!(
            metrics.stage(Stage::BuildI).map_or(0, |s| s.count()),
            run.samples.i_gen.len() as u64,
            "build_i span count (workers={workers})"
        );
        assert_eq!(
            metrics.stage(Stage::BuildO).map_or(0, |s| s.count()),
            run.samples.o_gen.len() as u64,
            "build_o span count (workers={workers})"
        );

        // Shared-cache accounting: hit/miss outcomes on config_solve
        // spans are the same counters the config store's `StoreStats` reports.
        let (hits, misses) = metrics.cache_hits_misses();
        assert_eq!(hits, run.stats.cache.hits, "cache hits (workers={workers})");
        assert_eq!(
            misses, run.stats.cache.misses,
            "cache misses (workers={workers})"
        );
    }
}

/// The JSONL sink emits one parseable line per span, labelled with a
/// documented stage name and the owning patch id.
#[test]
fn jsonl_sink_round_trips_every_span() {
    let tracer = Tracer::in_memory();
    let run = run_with(2, tracer.clone());
    let lines = tracer.jsonl_lines();
    let balance = tracer.balance();
    let text = lines.join("\n");
    let records = jsonl::parse(&text).expect("every emitted line parses");
    assert_eq!(records.len(), lines.len());
    // Every line is a span, and spans reconcile with the open/close
    // balance.
    assert_eq!(records.len() as u64, balance.closed);
    let commits: std::collections::BTreeSet<String> = run
        .results
        .iter()
        .map(|r| r.commit.to_string())
        .collect();
    for r in &records {
        let stage = r.stage.expect("stage present");
        assert!(
            Stage::ALL.contains(&stage),
            "undocumented stage {stage:?}"
        );
        let patch = r.patch.as_deref().expect("span carries its patch id");
        assert!(commits.contains(patch), "unknown patch id {patch}");
        if stage == Stage::BuildO {
            assert!(r.file.is_some(), "build_o span without file: {r:?}");
        }
    }
}
