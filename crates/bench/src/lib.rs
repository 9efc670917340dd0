//! The evaluation harness: regenerates every table and figure of the
//! paper over the synthetic workload.
//!
//! The `jmake-eval` binary is the entry point
//! (`cargo run -p jmake-bench --release --bin jmake-eval -- all`);
//! this library holds the shared machinery so integration tests and
//! `jmake-serve` reuse it. Wall-clock throughput is measured by the
//! standalone `benchmark/` package, not here.

use jmake_core::{run_evaluation, DriverOptions, EvaluationRun, SliceStats};
use jmake_janitor::{compute_metrics, identify_janitors, JanitorReport, Maintainers, Thresholds};
use jmake_kbuild::clock::Cdf;
use jmake_synth::{SynthOutput, WorkloadProfile};
use jmake_vcs::LogOptions;
use std::collections::BTreeSet;

/// Everything one evaluation run produces.
#[derive(Debug, Clone)]
pub struct EvalContext {
    /// The synthetic workload.
    pub workload: SynthOutput,
    /// Raw per-patch results and timing samples.
    pub run: EvaluationRun,
    /// Aggregates over all patches.
    pub all: SliceStats,
    /// Aggregates over janitor-authored patches.
    pub janitor: SliceStats,
    /// The scaled Table I thresholds used for janitor identification.
    pub thresholds: Thresholds,
    /// The identified janitor ranking (Table II analogue).
    pub janitor_table: Vec<JanitorReport>,
}

/// Build the workload, run JMake over the window with `driver`'s options
/// (worker count, pipeline options, the cache stores attached or not),
/// aggregate.
pub fn build_context_with_driver(profile: &WorkloadProfile, driver: &DriverOptions) -> EvalContext {
    let workload = jmake_synth::generate(profile);
    build_context_from_workload(profile, workload, driver)
}

/// [`build_context_with_driver`] over a pre-generated workload. The
/// portfolio path needs this split: `jmake-eval --portfolio` generates the
/// workload once, selects randconfig seeds on its `v4.4` tree
/// ([`jmake_core::select_portfolio`]), stores them in
/// `driver.jmake.portfolio`, and only then runs the evaluation.
pub fn build_context_from_workload(
    profile: &WorkloadProfile,
    workload: SynthOutput,
    driver: &DriverOptions,
) -> EvalContext {
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .expect("tags exist");
    let run = run_evaluation(&workload.repo, &commits, driver);
    let janitor_names: BTreeSet<&str> = workload.janitor_names.iter().map(String::as_str).collect();
    let all = SliceStats::collect(&run.results, &|_| true);
    let janitor = SliceStats::collect(&run.results, &|a| janitor_names.contains(a));

    // Janitor identification over the full activity log, with window
    // thresholds scaled to the workload size (the paper's ≥20 window
    // patches assumes ~12,000 commits).
    let activity = workload.full_activity_log();
    let maintainers = Maintainers::parse(
        workload
            .repo
            .checkout(workload.repo.resolve_tag("v4.3").expect("tag"))
            .expect("checkout")
            .get("MAINTAINERS")
            .unwrap_or_default(),
    );
    let metrics = compute_metrics(&activity, &maintainers);
    let scale = profile.commits as f64 / 12_000.0;
    let thresholds = Thresholds {
        min_window_patches: ((20.0 * scale).round() as usize).max(1),
        min_subsystems: 20.min(10 + profile.drivers_per_subsystem),
        ..Thresholds::default()
    };
    let janitor_table = identify_janitors(&metrics, &thresholds);

    EvalContext {
        workload,
        run,
        all,
        janitor,
        thresholds,
        janitor_table,
    }
}

/// Render the portfolio report as deterministic JSON: the greedy
/// selection (static coverage per member, virtual-clock cost) plus the
/// measured per-config token attribution from the evaluation run —
/// `tokens.by_rand > 0` is the dynamic proof that portfolio members
/// certified mutations allyesconfig alone missed. The bytes depend only
/// on the selection and the run's reports, both of which are
/// byte-identical across worker counts, cache modes, and disk-tier
/// states, so the rendered JSON is too (the CI gate diffs it).
pub fn render_portfolio_json(portfolio: &jmake_core::Portfolio, ctx: &EvalContext) -> String {
    // Attribute every certified token to the configuration family that
    // certified it; `covered` descriptors are `arch/<kind key>`.
    let seeds = portfolio.seeds();
    let mut total = 0usize;
    let mut by_allyes = 0usize;
    let mut by_rand = vec![0usize; seeds.len()];
    let mut by_other = 0usize;
    for report in ctx.run.results.iter().filter_map(|r| r.report()) {
        for file in &report.files {
            for (_token, desc) in &file.covered {
                total += 1;
                let kind = desc.rsplit('/').next().unwrap_or(desc);
                if kind == "allyesconfig" {
                    by_allyes += 1;
                } else if let Some(i) = kind
                    .strip_prefix("randconfig:")
                    .and_then(|s| s.parse::<u64>().ok())
                    .and_then(|seed| seeds.iter().position(|s| *s == seed))
                {
                    by_rand[i] += 1;
                } else {
                    by_other += 1;
                }
            }
        }
    }
    let by_rand_total: usize = by_rand.iter().sum();

    let mut members = String::new();
    let mut rand_idx = 0usize;
    for (i, m) in portfolio.members.iter().enumerate() {
        let tokens = match m.kind {
            jmake_kbuild::ConfigKind::Rand { .. } => {
                rand_idx += 1;
                by_rand[rand_idx - 1]
            }
            _ => by_allyes,
        };
        members.push_str(&format!(
            "{}    {{\"config\": \"{}\", \"cost_virtual_us\": {}, \"new_lines\": {}, \"tokens_certified\": {}}}",
            if i == 0 { "" } else { ",\n" },
            m.kind,
            m.cost_virtual_us,
            m.new_lines,
            tokens,
        ));
    }
    format!(
        "{{\n  \"schema\": 1,\n  \"arch\": \"{}\",\n  \"requested\": {},\n  \"rand_seed\": {},\n  \"pool\": {},\n  \"cost_virtual_us\": {},\n  \"lines\": {{\"total\": {}, \"allyes\": {}, \"conditional\": {}, \"covered_conditional\": {}, \"covered\": {}, \"dead\": {}, \"unfixable\": {}}},\n  \"tokens\": {{\"certified\": {}, \"by_allyes\": {}, \"by_rand\": {}, \"by_other\": {}}},\n  \"members\": [\n{}\n  ]\n}}\n",
        portfolio.arch,
        portfolio.requested,
        portfolio.rand_seed,
        portfolio.pool,
        portfolio.total_cost_virtual_us(),
        portfolio.total_lines(),
        portfolio.allyes_lines,
        portfolio.conditional_lines,
        portfolio.covered_conditional_lines,
        portfolio.covered_lines(),
        portfolio.dead_lines,
        portfolio.unfixable_lines,
        total,
        by_allyes,
        by_rand_total,
        by_other,
        members,
    )
}

/// Render a CDF as a fixed set of `(seconds, fraction)` checkpoints plus
/// the quantiles the paper quotes.
pub fn render_cdf(title: &str, samples_us: &[u64], checkpoints_secs: &[f64]) -> String {
    let cdf = Cdf::new(samples_us);
    let mut out = format!("{title}  (n = {})\n", cdf.len());
    out.push_str("  seconds  fraction<=\n");
    for &s in checkpoints_secs {
        out.push_str(&format!(
            "  {s:>7.1}  {:>9.3}\n",
            cdf.fraction_at((s * 1e6) as u64)
        ));
    }
    out.push_str(&format!(
        "  p50 = {:.2}s  p90 = {:.2}s  p95 = {:.2}s  p99 = {:.2}s  max = {:.2}s\n",
        cdf.quantile(0.5) as f64 / 1e6,
        cdf.quantile(0.9) as f64 / 1e6,
        cdf.quantile(0.95) as f64 / 1e6,
        cdf.quantile(0.99) as f64 / 1e6,
        cdf.max() as f64 / 1e6,
    ));
    out
}

/// Table I: the thresholds (paper values plus the scaled window minimum).
pub fn render_table1(ctx: &EvalContext) -> String {
    let t = &ctx.thresholds;
    format!(
        "Table I — thresholds on janitor activity\n\
         # patches              >= {}\n\
         # subsystems           >= {}\n\
         # lists                >= {}\n\
         # maintainer patches   <  {:.0}%\n\
         # window patches       >= {} (scaled to workload)\n",
        t.min_patches,
        t.min_subsystems,
        t.min_lists,
        t.max_maintainer_fraction * 100.0,
        t.min_window_patches,
    )
}

/// Table II: the identified janitors.
pub fn render_table2(ctx: &EvalContext) -> String {
    let mut out = String::from("Table II — janitors identified (ranked by file cv)\n");
    out.push_str(&jmake_janitor::select::render_table(&ctx.janitor_table));
    out
}

/// Table III: patch-kind split, all vs janitor patches.
pub fn render_table3(ctx: &EvalContext) -> String {
    format!(
        "Table III — characteristics of patches\n--- all patches ({}) ---\n{}--- janitor patches ({}) ---\n{}",
        ctx.all.patches,
        ctx.all.render_kinds(),
        ctx.janitor.patches,
        ctx.janitor.render_kinds(),
    )
}

/// Table IV: reasons changed lines escaped the compiler (janitor slice,
/// as in the paper; the all-patches column is included for context).
pub fn render_table4(ctx: &EvalContext) -> String {
    format!(
        "Table IV — why changed lines are not subjected to the compiler\n--- janitor file instances ---\n{}--- all file instances ---\n{}",
        ctx.janitor.render_reasons(),
        ctx.all.render_reasons(),
    )
}

/// The §V.B prose numbers.
pub fn render_summary(ctx: &EvalContext) -> String {
    let a = &ctx.all;
    let j = &ctx.janitor;
    let pct = |n: usize, d: usize| {
        if d == 0 {
            0.0
        } else {
            100.0 * n as f64 / d as f64
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "== Summary (paper §V.B analogues) ==\n\
         patches considered                    all: {:>6}   janitor: {:>5}\n\
         patch fully certified                 all: {:>5.1}%   janitor: {:>5.1}%  (paper: 85% / 88%)\n\
         …with allyesconfig only               all: {:>5.1}%                      (paper: 84%)\n",
        a.patches,
        j.patches,
        100.0 * a.success_rate(),
        100.0 * j.success_rate(),
        pct(a.patch_success_allyes_only, a.patches),
    ));
    out.push_str(&format!(
        ".c instances                          all: {:>6}   janitor: {:>5}\n\
         …full at first error-free compile     all: {:>5.1}%  (paper: 88%)\n\
         …compiled yet lines missed            all: {:>6}   (paper: 415, 3%)\n\
         …of those, rescued by more configs    all: {:>6}   (paper: 54)\n\
         non-arch .c needing non-host arch     all: {:>6}   janitor: {:>5}  (paper: 365 / 38)\n",
        a.c_instances,
        j.c_instances,
        pct(a.c_full_on_first_success, a.c_instances),
        a.c_compiled_but_initially_uncovered,
        a.c_rescued_by_more_configs,
        a.c_nonarch_needing_other_arch,
        j.c_nonarch_needing_other_arch,
    ));
    out.push_str(&format!(
        "instances benefiting from x86_64      all: {:>5.1}%   janitor: {:>5.1}%  (paper: 96% / 95%)\n",
        pct(a.instances_touching_host, a.instances_with_coverage),
        pct(j.instances_touching_host, j.instances_with_coverage),
    ));
    out.push_str(&format!(
        ".c mutations: one / <=3               all: {:>4.0}% / {:>4.0}%  (paper: 82% / 95%)\n\
         .c mutations janitor: one / <=3            {:>4.0}% / {:>4.0}%  (paper: 91% / 98%)\n\
         .h mutations: one / <=3               all: {:>4.0}% / {:>4.0}%  (paper: 75% / 92%)\n",
        100.0 * a.c_mutations.fraction_le(1),
        100.0 * a.c_mutations.fraction_le(3),
        100.0 * j.c_mutations.fraction_le(1),
        100.0 * j.c_mutations.fraction_le(3),
        100.0 * a.h_mutations.fraction_le(1),
        100.0 * a.h_mutations.fraction_le(3),
    ));
    out.push_str(&format!(
        ".h instances                          all: {:>6}   janitor: {:>5}\n\
         …certified via the patch's own .c     all: {:>5.1}%   janitor: {:>5.1}%  (paper: 66% / 76%)\n\
         …rescued via candidate .c files       all: {:>6}   (paper: 16%)\n\
         …never certified                      all: {:>6}   (paper: 2%)\n",
        a.h_instances,
        j.h_instances,
        pct(a.h_covered_by_patch_c, a.h_instances),
        pct(j.h_covered_by_patch_c, j.h_instances),
        a.h_rescued_by_candidates,
        a.h_never_covered,
    ));
    out.push_str(&format!(
        "patches touching bootstrap files      all: {:>6} ({:>4.1}%)  (paper: 317, 2%)\n",
        a.bootstrap_patches,
        pct(a.bootstrap_patches, a.patches),
    ));
    out
}

/// Render exactly the stdout `jmake-eval` produces for `command` — each
/// matching section followed by one newline, `"all"` emitting every
/// section in order. `jmake-serve` responds with the same bytes, so a
/// served report is byte-identical to a locally rendered one (the CI
/// gate diffs them). `None` for an unknown command.
pub fn render_command(ctx: &EvalContext, command: &str) -> Option<String> {
    let print_all = command == "all";
    let mut out = String::new();
    let mut printed = false;
    let mut emit = |name: &str, text: String| {
        if print_all || command == name {
            out.push_str(&text);
            out.push('\n');
            printed = true;
        }
    };
    emit("table1", render_table1(ctx));
    emit("table2", render_table2(ctx));
    emit("table3", render_table3(ctx));
    emit("table4", render_table4(ctx));
    let (f4a, f4b, f4c) = render_fig4(ctx);
    emit("fig4a", f4a);
    emit("fig4b", f4b);
    emit("fig4c", f4c);
    let (f5, f6) = render_fig5_fig6(ctx);
    emit("fig5", f5);
    emit("fig6", f6);
    emit("summary", render_summary(ctx));
    printed.then_some(out)
}

/// Figure 4a/4b/4c.
pub fn render_fig4(ctx: &EvalContext) -> (String, String, String) {
    let s = &ctx.run.samples;
    (
        render_cdf(
            "Figure 4a — configuration-creation time per invocation (paper: all <= 5s)",
            &s.config,
            &[0.5, 1.0, 2.0, 3.0, 5.0],
        ),
        render_cdf(
            "Figure 4b — .i generation time per invocation (paper: 98% <= 15s, max 22s)",
            &s.i_gen,
            &[0.5, 1.0, 2.0, 5.0, 15.0, 22.0],
        ),
        render_cdf(
            "Figure 4c — .o generation time per invocation (paper: 97% <= 7s, heavy outliers > 6000s)",
            &s.o_gen,
            &[0.5, 1.0, 3.0, 7.0, 15.0],
        ),
    )
}

/// Figure 5 (all patches) and Figure 6 (janitor patches).
pub fn render_fig5_fig6(ctx: &EvalContext) -> (String, String) {
    (
        render_cdf(
            "Figure 5 — overall JMake time per patch, all patches (paper: 82% <= 30s, 95% <= 60s)",
            &ctx.all.patch_times_us,
            &[5.0, 10.0, 30.0, 60.0, 120.0, 600.0],
        ),
        render_cdf(
            "Figure 6 — overall JMake time per patch, janitor patches (paper: >90% <= 60s, max ~1080s)",
            &ctx.janitor.patch_times_us,
            &[5.0, 10.0, 30.0, 60.0, 120.0, 600.0],
        ),
    )
}
