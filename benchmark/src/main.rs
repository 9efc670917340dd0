//! The JMake benchmark.
//!
//! ```text
//! jmake-benchmark run --seconds S [--workload NAME] [--seed N] [--trace 0|1]
//! jmake-benchmark run --scale smoke [--workload NAME] [--seed N] [--trace 0|1]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints a
//! table followed, as the last line of standard output, by one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics, or with `--trace 1` the per-layer ones). Without it, runs
//! the workloads `BENCHMARK.json` lists, each in a child process of its
//! own. `--seconds` is the timed budget of a run (`BENCHMARK.json`'s
//! `run_seconds`); smoke runs make one rep and need none. The exit code
//! is non-zero when any output is wrong or the deterministic work counts
//! differ between repetitions. See README.md.

mod layers;
mod measure;
mod workloads;

use measure::Summary;
use std::fmt::Write as _;
use workloads::{Outcome, Params, Spec};

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("patches_per_s", "patches/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_ms_per_patch", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them. A share is a
/// layer's self time over the timed phase's thread time; a layer off a
/// workload's path reads 0. The table printed above the result line also
/// lists every other per-layer measurement (sums, p50/p99, cache
/// counters, and the `reach`/`fix` layers on `remediate`).
const PER_LAYER: [(&str, &str); 22] = [
    ("synth.generate_s", "s"),
    ("vcs.log_ms", "ms"),
    ("kbuild.config_solve_us", "us"),
    ("kbuild.build_i_us", "us"),
    ("kbuild.build_o_us", "us"),
    ("vcs.share", "ratio"),
    ("core.share", "ratio"),
    ("kbuild.share", "ratio"),
    ("unattributed.share", "ratio"),
    ("driver.busy_frac", "ratio"),
    ("core.check_self_frac", "ratio"),
    ("kbuild.config_cache_hit_rate", "ratio"),
    ("kbuild.object_cache_hit_rate", "ratio"),
    ("kbuild.preproc_cache_hit_rate", "ratio"),
    ("kbuild.make_config_calls", "count"),
    ("kbuild.make_i_calls", "count"),
    ("kbuild.make_o_calls", "count"),
    ("kbuild.virtual_s", "virtual_s"),
    ("kbuild.disk_entries", "count"),
    ("kbuild.disk_bytes", "bytes"),
    ("kbuild.disk_setup_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: Option<&'static Spec>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("jmake-benchmark: {msg}");
    eprintln!(
        "usage: jmake-benchmark run (--seconds S | --scale smoke) [--workload {}] [--seed N] [--trace 0|1]",
        workloads::SPECS.iter().map(|s| s.name).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    if args.first().map(String::as_str) != Some("run") {
        usage("expected the `run` command");
    }
    let mut out = Args {
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    workloads::spec(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => {
                out.seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed needs an unsigned integer")),
                )
            }
            "--seconds" => {
                out.seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("--seconds needs a non-negative number")),
                );
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--scale" => {
                out.smoke = match value.as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => usage("--scale takes full or smoke"),
                }
            }
            other => usage(&format!("unknown option {other}")),
        }
    }
    if out.seconds.is_none() && !out.smoke {
        usage("--seconds is required, except with --scale smoke");
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    match args.workload {
        Some(spec) => std::process::exit(run_one(spec, &args)),
        None => std::process::exit(run_all(&argv)),
    }
}

/// Run every workload `BENCHMARK.json` lists in a child process of its
/// own, so caches and peak memory are per workload.
fn run_all(argv: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut code = 0;
    for spec in workloads::SPECS.iter().filter(|s| s.gated) {
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", spec.name])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("workload {} failed: {s}", spec.name);
                code = 1;
            }
            Err(e) => {
                eprintln!("workload {} could not start: {e}", spec.name);
                code = 1;
            }
        }
    }
    code
}

fn run_one(spec: &'static Spec, args: &Args) -> i32 {
    let p = Params {
        seed: args.seed.unwrap_or(spec.default_seed),
        seconds: args.seconds.unwrap_or(0.0),
        trace: args.trace,
        smoke: args.smoke,
    };
    let outcome = workloads::run(spec, &p);
    if p.trace {
        if let Err(e) = write_trace(spec.name, &outcome) {
            eprintln!("cannot write the trace files: {e}");
            return 1;
        }
    }
    let attempted: usize =
        outcome.setup_failed + outcome.reps.iter().map(|r| r.patches).sum::<usize>();
    let failed: usize = outcome.setup_failed + outcome.reps.iter().map(|r| r.failed).sum::<usize>();
    let known: usize = outcome.reps.iter().map(|r| r.known_defects).sum();
    let correct = failed == known && outcome.count_mismatch.is_none();

    let mut table = String::new();
    let untraced: Vec<_> = outcome.reps.iter().filter(|r| !r.traced).collect();
    let _ = writeln!(
        table,
        "workload {}  seed {}  nproc {}  workers {}  set-ups {}  reps {} untraced + {} traced  patches/rep {}",
        spec.name,
        p.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        workloads::WORKERS,
        outcome.setups.len(),
        untraced.len(),
        outcome.reps.len() - untraced.len(),
        outcome.reps.first().map_or(0, |r| r.patches),
    );
    let _ = writeln!(
        table,
        "  per rep: patches/s {}",
        outcome
            .reps
            .iter()
            .map(|r| format!(
                "{:.1}{}",
                r.patches_per_s(),
                if r.traced { "t" } else { "" }
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let e2e = end_to_end(&outcome);
    let _ = writeln!(
        table,
        "  {:<22} {:>14} {:<10} {:>14} {:>14} {:>8}",
        "metric", "value", "unit", "q1", "q3", "n"
    );
    for ((name, unit), s) in END_TO_END.iter().zip(&e2e) {
        let _ = writeln!(
            table,
            "  {name:<22} {:>14.4} {unit:<10} {:>14.4} {:>14.4} {:>8}",
            s.value, s.q1, s.q3, s.n
        );
    }
    let _ = writeln!(
        table,
        "  {:<22} {:>14.6} {:<10} ({failed} failed of {attempted} attempted)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    if !outcome.notes.is_empty() {
        let _ = writeln!(
            table,
            "  static/dynamic disagreements, each a failed operation; {known} of the failed are recorded known defects:"
        );
        for n in &outcome.notes {
            let _ = writeln!(table, "    {n}");
        }
    }
    if let Some(why) = &outcome.count_mismatch {
        let _ = writeln!(table, "  DETERMINISTIC COUNTS DISAGREE: {why}");
    }

    let metrics: Vec<(&str, &str, f64)> = if p.trace {
        let layers = per_layer(&outcome);
        let _ = writeln!(
            table,
            "  per-layer (medians over traced reps; shares of the timed phase's thread time)"
        );
        let mut keys: Vec<&str> = outcome
            .reps
            .iter()
            .flat_map(|r| r.layers.keys().copied())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            if !PER_LAYER.iter().any(|(n, _)| *n == key) {
                let _ = writeln!(
                    table,
                    "    {key:<34} {:>16.4}",
                    workloads::layer_median(&outcome.reps, key)
                );
            }
        }
        let store: Vec<f64> = outcome.setups.iter().map(|s| s.disk_store_ms).collect();
        let load: Vec<f64> = outcome.setups.iter().map(|s| s.disk_load_ms).collect();
        let _ = writeln!(
            table,
            "    {:<34} {:>16.4}",
            "kbuild.disk_store_ms",
            measure::median(&store)
        );
        let _ = writeln!(
            table,
            "    {:<34} {:>16.4}",
            "kbuild.disk_load_ms",
            measure::median(&load)
        );
        for ((name, unit), v) in PER_LAYER.iter().zip(&layers) {
            let _ = writeln!(table, "    {name:<34} {v:>16.4} {unit}");
        }
        PER_LAYER
            .iter()
            .zip(layers)
            .map(|((n, u), v)| (*n, *u, v))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&e2e)
            .map(|((n, u), s)| (*n, *u, s.value))
            .collect()
    };
    print!("{table}");
    let mut json = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    i32::from(!correct)
}

/// The end-to-end metrics, from the untraced reps only.
fn end_to_end(o: &Outcome) -> Vec<Summary> {
    let reps: Vec<_> = o.reps.iter().filter(|r| !r.traced).collect();
    let per_rep = |f: &dyn Fn(&workloads::Rep) -> f64| -> Summary {
        Summary::of(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    // The percentile of every operation of the reps pooled, so that even
    // a batch workload's few pushes per rep leave at least ten samples
    // beyond p95; q1 and q3 are those of the per-rep percentiles.
    let latency = |q: f64| {
        let all: Vec<u64> = reps
            .iter()
            .flat_map(|r| r.latencies_ns.iter().copied())
            .collect();
        Summary {
            value: layers::percentile(&all, q) as f64 / 1e6,
            n: all.len(),
            ..per_rep(&|r| layers::percentile(&r.latencies_ns, q) as f64 / 1e6)
        }
    };
    vec![
        Summary::of(&o.setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
        per_rep(&|r| r.patches_per_s()),
        latency(0.5),
        latency(0.95),
        per_rep(&|r| r.cpu_s * 1e3 / r.patches.max(1) as f64),
        Summary {
            value: o.peak_rss_mb,
            q1: o.peak_rss_mb,
            q3: o.peak_rss_mb,
            n: 1,
        },
    ]
}

/// The per-layer metrics, in `PER_LAYER` order.
fn per_layer(o: &Outcome) -> Vec<f64> {
    let setup = |f: &dyn Fn(&workloads::SetupTimes) -> f64| {
        measure::median(&o.setups.iter().map(f).collect::<Vec<_>>())
    };
    let pps = |traced: bool| {
        measure::median(
            &o.reps
                .iter()
                .filter(|r| r.traced == traced)
                .map(workloads::Rep::patches_per_s)
                .collect::<Vec<_>>(),
        )
    };
    PER_LAYER
        .iter()
        .map(|(name, _)| match *name {
            "synth.generate_s" => setup(&|s| s.synth_s),
            "vcs.log_ms" => setup(&|s| s.log_ms),
            "kbuild.disk_entries" => setup(&|s| s.disk_entries),
            "kbuild.disk_bytes" => setup(&|s| s.disk_bytes),
            "kbuild.disk_setup_share" => {
                setup(&|s| (s.disk_store_ms + s.disk_load_ms) / 1e3 / s.total_s)
            }
            "trace.overhead_frac" => 1.0 - pps(true) / pps(false),
            key => workloads::layer_median(&o.reps, key),
        })
        .collect()
}

/// `out/trace/<workload>.jsonl` (the benchmark's spans) and
/// `out/trace/<workload>.program.jsonl` (the program's own spans, in the
/// schema `jmake-eval trace-check` validates).
fn write_trace(name: &str, o: &Outcome) -> std::io::Result<()> {
    let dir = workloads::out_dir().join("trace");
    std::fs::create_dir_all(&dir)?;
    o.recorder.write_jsonl(&dir.join(format!("{name}.jsonl")))?;
    let mut program = String::new();
    for line in o.reps.iter().flat_map(|r| &r.program_lines) {
        program.push_str(line);
        program.push('\n');
    }
    std::fs::write(dir.join(format!("{name}.program.jsonl")), program)?;
    eprintln!("trace written under {}", dir.display());
    Ok(())
}
