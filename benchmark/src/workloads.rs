//! The four workloads, their correctness oracle, and the measurement loop
//! they share.
//!
//! Why these four (README.md has the full rationale, and why `remediate`
//! is kept out of `BENCHMARK.json`):
//! - `sweep` is the build-bot use: the window fed to the driver in pushes
//!   of [`PUSH`] commits, exercising `vcs` and `core::check` behind a warm
//!   preprocess memo, with the object cache missing on every commit;
//! - `recheck-warm` restarts from a stored disk tier, the only traffic on
//!   which the object cache and the tier are hit;
//! - `janitor-latency` is one janitor waiting for each verdict on a wide
//!   tree, a closed loop with no driver, where O(tree) checkout and show
//!   show up;
//! - `remediate` is the `--fix` user: reachability, delta minimization
//!   and verification replays, with many distinct configurations.

use crate::layers::{
    self, CacheCounts, Caches, CommitId, Counts, EvaluationRun, FixReport, FixTally, PatchReport,
    Planted, ProgramSpans, Samples, SynthOutput,
};
use crate::measure::{median, Recorder, Timer};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

/// Driver workers: one per core of the 2-core machine the baseline was
/// recorded on, so a workload never runs more threads than `nproc`.
pub const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Patches per `run_evaluation` call on the batch workloads: a build bot
/// receives the window as a stream of pushes of this size, and a push's
/// time to verdict is one latency sample.
pub const PUSH: usize = 32;

/// One workload: its name, default seed and input size.
pub struct Spec {
    pub name: &'static str,
    pub default_seed: u64,
    /// Listed in `BENCHMARK.json`, and run when no workload is named.
    pub gated: bool,
    commits: usize,
    drivers_per_subsystem: Option<usize>,
}

pub static SPECS: [Spec; 4] = [
    Spec {
        name: "sweep",
        default_seed: 319_123_704_645,
        gated: true,
        commits: 4_000,
        drivers_per_subsystem: None,
    },
    Spec {
        name: "recheck-warm",
        default_seed: 2,
        gated: true,
        commits: 1_200,
        drivers_per_subsystem: None,
    },
    Spec {
        name: "janitor-latency",
        default_seed: 3,
        gated: true,
        commits: 1_200,
        drivers_per_subsystem: Some(96),
    },
    Spec {
        name: "remediate",
        default_seed: 319_123_704_645,
        gated: false,
        commits: 1_200,
        drivers_per_subsystem: None,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// How one run is made.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one set-up cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub synth_s: f64,
    pub log_ms: f64,
    pub disk_store_ms: f64,
    pub disk_load_ms: f64,
    pub disk_entries: f64,
    pub disk_bytes: f64,
}

/// One timed repetition over the workload's whole input.
pub struct Rep {
    pub traced: bool,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub patches: usize,
    /// Time to verdict per operation: a push on the batch workloads, a
    /// patch on the closed loops.
    pub latencies_ns: Vec<u64>,
    pub counts: Counts,
    /// False when `counts` holds only `virtual_us` (untraced `remediate`:
    /// its engines live inside `remediate_with`).
    pub calls_known: bool,
    pub cache: CacheCounts,
    pub failed: usize,
    /// How many of the failed patches fail only by a recorded known
    /// defect (`layers::KNOWN_DEFECTS`).
    pub known_defects: usize,
    /// Per-layer measurements, filled on traced reps.
    pub layers: BTreeMap<&'static str, f64>,
    pub program_lines: Vec<String>,
}

impl Rep {
    pub fn patches_per_s(&self) -> f64 {
        self.patches as f64 / self.wall_s
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub setups: Vec<SetupTimes>,
    pub reps: Vec<Rep>,
    pub setup_failed: usize,
    pub peak_rss_mb: f64,
    /// Why the run's deterministic counts disagree, if they do.
    pub count_mismatch: Option<String>,
    pub notes: Vec<String>,
    pub recorder: Recorder,
}

trait Workload {
    /// Build the inputs (replacing any earlier ones). Everything here
    /// counts toward `setup_s`.
    fn setup(&mut self, p: &Params, t: &mut SetupTimes, rec: &mut Recorder);
    /// One timed pass; on a traced rep `rec` is recording and the
    /// program's tracer is to be attached.
    fn rep(&mut self, rec: &mut Recorder, traced: bool) -> Rep;
    /// Patches the set-up could not check (they never reach a rep).
    fn setup_failed(&self) -> usize {
        0
    }
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Run workload `spec` under `p`: set up [`SETUPS`] times, then repeat
/// timed passes for `p.seconds` (at least three, or two traced and two
/// untraced in alternation when tracing).
pub fn run(spec: &'static Spec, p: &Params) -> Outcome {
    let mut w: Box<dyn Workload> = match spec.name {
        "sweep" => Box::new(Batch::new(spec, false)),
        "recheck-warm" => Box::new(Batch::new(spec, true)),
        "janitor-latency" => Box::new(Closed::new(spec)),
        "remediate" => Box::new(Remediate::new(spec)),
        other => unreachable!("unknown workload {other}"),
    };
    let mut rec = Recorder::new();
    let mut setups = Vec::new();
    rec.set_enabled(p.trace);
    for _ in 0..if p.smoke { 1 } else { SETUPS } {
        let started = Instant::now();
        let mut t = SetupTimes::default();
        w.setup(p, &mut t, &mut rec);
        t.total_s = started.elapsed().as_secs_f64();
        setups.push(t);
    }
    let min_each = match (p.smoke, p.trace) {
        (true, _) => 1,
        (false, true) => 2,
        (false, false) => 3,
    };
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        let untraced = reps.iter().filter(|r| !r.traced).count();
        let traced = reps.len() - untraced;
        let enough = untraced >= min_each && (!p.trace || traced >= min_each);
        if enough && (p.smoke || started.elapsed().as_secs_f64() >= p.seconds) {
            break;
        }
        let trace_this = p.trace && reps.len() % 2 == 1;
        rec.rep = Some(reps.len());
        rec.set_enabled(trace_this);
        let mut r = w.rep(&mut rec, trace_this);
        if trace_this {
            fill_common_layers(&mut r);
        }
        reps.push(r);
    }
    Outcome {
        count_mismatch: count_mismatch(&reps),
        setup_failed: w.setup_failed(),
        notes: w.notes(),
        peak_rss_mb: crate::measure::peak_rss_mb(),
        setups,
        reps,
        recorder: rec,
    }
}

/// Deterministic counts must repeat exactly across reps, traced or not.
fn count_mismatch(reps: &[Rep]) -> Option<String> {
    let first = reps.first()?;
    for r in reps {
        if r.counts.virtual_us != first.counts.virtual_us {
            return Some(format!(
                "virtual µs differ across reps: {} vs {}",
                first.counts.virtual_us, r.counts.virtual_us
            ));
        }
    }
    let known: Vec<&Counts> = reps
        .iter()
        .filter(|r| r.calls_known)
        .map(|r| &r.counts)
        .collect();
    if known.windows(2).any(|w| w[0] != w[1]) {
        return Some(format!("make call counts differ across reps: {known:?}"));
    }
    None
}

const CONFIG_CACHE_KEYS: [&str; 4] = [
    "kbuild.config_cache_hit_rate",
    "kbuild.config_cache_hits",
    "kbuild.config_cache_misses",
    "kbuild.config_cache_entries",
];
const OBJECT_CACHE_KEYS: [&str; 4] = [
    "kbuild.object_cache_hit_rate",
    "kbuild.object_cache_hits",
    "kbuild.object_cache_misses",
    "kbuild.object_cache_entries",
];
const PREPROC_CACHE_KEYS: [&str; 4] = [
    "kbuild.preproc_cache_hit_rate",
    "kbuild.preproc_cache_hits",
    "kbuild.preproc_cache_misses",
    "kbuild.preproc_cache_entries",
];

/// The per-layer entries every workload reports the same way.
fn fill_common_layers(r: &mut Rep) {
    let c = r.counts;
    let l = &mut r.layers;
    l.insert("kbuild.make_config_calls", c.make_config as f64);
    l.insert("kbuild.make_i_calls", c.make_i as f64);
    l.insert("kbuild.make_o_calls", c.make_o as f64);
    l.insert("kbuild.virtual_s", c.virtual_us as f64 / 1e6);
    for (cc, [rate, hits, misses, entries]) in [
        (r.cache.config, CONFIG_CACHE_KEYS),
        (r.cache.object, OBJECT_CACHE_KEYS),
        (r.cache.preproc, PREPROC_CACHE_KEYS),
    ] {
        l.insert(rate, cc.hit_rate());
        l.insert(hits, cc.hits as f64);
        l.insert(misses, cc.misses as f64);
        l.insert(entries, cc.entries as f64);
    }
}

/// Self time per layer over a traced rep, as shares of `base_us` (the
/// worker-thread time the rep had), plus the explicit unattributed rest.
fn shares(
    l: &mut BTreeMap<&'static str, f64>,
    base_us: f64,
    parts: &[(&'static str, f64)],
    covered_us: f64,
) {
    for &(name, us) in parts {
        l.insert(name, us / base_us);
    }
    l.insert("unattributed.share", (base_us - covered_us) / base_us);
}

/// Program-span totals every workload folds: the `kbuild` stages.
fn kbuild_layers(l: &mut BTreeMap<&'static str, f64>, ps: &ProgramSpans) -> f64 {
    let mut k = 0.0;
    for (stage, key) in [
        ("config_solve", "kbuild.config_solve_us"),
        ("build_i", "kbuild.build_i_us"),
        ("build_o", "kbuild.build_o_us"),
    ] {
        let us = ps.total(stage) as f64;
        l.insert(key, us);
        k += us;
    }
    k
}

/// The `vcs` and `core` rows of a checking workload, from the per-patch
/// host µs of checkout, show and check and the `kbuild` µs spent inside
/// check; returns the three sums. `core.check_self_us` is check time no
/// program sub-span covers (the solves `classify` encloses are counted
/// once, inside `classify`).
fn check_layers(
    l: &mut BTreeMap<&'static str, f64>,
    ps: &ProgramSpans,
    [checkout, show, check]: [&[u64]; 3],
    kbuild_us: f64,
) -> (f64, f64, f64) {
    dist(
        l,
        [
            "vcs.checkout_us",
            "vcs.checkout_us_p50",
            "vcs.checkout_us_p99",
        ],
        checkout,
    );
    dist(
        l,
        ["vcs.show_us", "vcs.show_us_p50", "vcs.show_us_p99"],
        show,
    );
    dist(
        l,
        ["core.check_us", "core.check_us_p50", "core.check_us_p99"],
        check,
    );
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let (plan, classify) = (
        ps.total("mutation_plan") as f64,
        ps.total("classify") as f64,
    );
    let check_self = sum(check) - plan - classify - (kbuild_us - ps.classify_kbuild_us as f64);
    l.insert("core.mutation_plan_us", plan);
    l.insert("core.classify_us", classify);
    l.insert("core.check_self_us", check_self);
    l.insert("core.check_self_frac", check_self / sum(check));
    (sum(checkout), sum(show), sum(check))
}

/// Sum, p50 and p99 of a set of durations in µs.
fn dist(l: &mut BTreeMap<&'static str, f64>, keys: [&'static str; 3], samples_us: &[u64]) {
    l.insert(keys[0], samples_us.iter().sum::<u64>() as f64);
    l.insert(keys[1], layers::percentile(samples_us, 0.5) as f64);
    l.insert(keys[2], layers::percentile(samples_us, 0.99) as f64);
}

/// Patches whose report is missing or misses a planted pathology.
fn oracle(
    commits: &[CommitId],
    reports: &[Option<&PatchReport>],
    planted: &[Planted],
) -> BTreeSet<CommitId> {
    let mut failed: BTreeSet<CommitId> = commits
        .iter()
        .zip(reports)
        .filter(|(_, r)| r.is_none())
        .map(|(c, _)| *c)
        .collect();
    let index: BTreeMap<CommitId, usize> =
        commits.iter().enumerate().map(|(i, c)| (*c, i)).collect();
    for p in planted {
        // Planted commits the log filters out (whitespace-only edits) are
        // not in the window.
        let Some(&i) = index.get(&p.commit) else {
            continue;
        };
        if let Some(report) = reports[i] {
            if !layers::diagnosed(report, p) {
                failed.insert(p.commit);
            }
        }
    }
    failed
}

/// The synthesized repository and its v4.3..v4.4 window.
struct Inputs {
    synth: SynthOutput,
    window: Vec<CommitId>,
    planted: Vec<Planted>,
}

fn inputs(spec: &Spec, p: &Params, t: &mut SetupTimes, rec: &mut Recorder) -> Inputs {
    let profile = layers::profile(p.seed, spec.commits, spec.drivers_per_subsystem, p.smoke);
    let started = Instant::now();
    let synth = rec.time("synth.generate", None, None, || layers::generate(&profile));
    t.synth_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let window = rec.time("vcs.log", None, None, || layers::log_window(&synth.repo));
    t.log_ms = started.elapsed().as_secs_f64() * 1e3;
    let planted = layers::planted(&synth);
    Inputs {
        synth,
        window,
        planted,
    }
}

/// `benchmark/out`: the disk tier and the trace files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

// ---- sweep and recheck-warm: `run_evaluation` over the whole window ----

struct Batch {
    spec: &'static Spec,
    warm: bool,
    inputs: Option<Inputs>,
    /// The run every rep must reproduce: the cold pass for
    /// `recheck-warm`, the first rep for `sweep`.
    reference: Option<EvaluationRun>,
    /// Handles loaded from the disk tier (`recheck-warm`).
    loaded: Option<Caches>,
    tier: PathBuf,
}

impl Batch {
    fn new(spec: &'static Spec, warm: bool) -> Batch {
        Batch {
            spec,
            warm,
            inputs: None,
            reference: None,
            loaded: None,
            tier: out_dir().join(format!("tier-{}", std::process::id())),
        }
    }
}

impl Drop for Batch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tier);
    }
}

impl Workload for Batch {
    fn setup(&mut self, p: &Params, t: &mut SetupTimes, rec: &mut Recorder) {
        self.inputs = None;
        self.reference = None;
        self.loaded = None;
        let inputs = inputs(self.spec, p, t, rec);
        if self.warm {
            let _ = std::fs::remove_dir_all(&self.tier);
            let caches = Caches::fresh();
            let cold = rec.time("driver.run_evaluation", None, None, || {
                layers::evaluate(
                    &inputs.synth.repo,
                    &inputs.window,
                    WORKERS,
                    &caches,
                    &layers::tracer(false),
                )
            });
            let started = Instant::now();
            let stored = rec
                .time("kbuild.disk_store", None, None, || {
                    layers::disk_store(&self.tier, &caches)
                })
                .expect("disk tier store");
            t.disk_store_ms = started.elapsed().as_secs_f64() * 1e3;
            drop(caches);
            let started = Instant::now();
            let (loaded, entries) = rec
                .time("kbuild.disk_load", None, None, || {
                    layers::disk_load(&self.tier)
                })
                .expect("disk tier load");
            t.disk_load_ms = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(stored, entries, "the tier loads what was stored");
            t.disk_entries = entries as f64;
            t.disk_bytes = dir_bytes(&self.tier) as f64;
            self.reference = Some(cold);
            self.loaded = Some(loaded);
        }
        self.inputs = Some(inputs);
    }

    fn rep(&mut self, rec: &mut Recorder, traced: bool) -> Rep {
        let inputs = self.inputs.as_ref().expect("set up");
        let caches = self.loaded.clone().unwrap_or_else(Caches::fresh);
        let before = caches.counts();
        let tracer = layers::tracer(traced);
        let mut runs = Vec::new();
        let mut latencies_ns = Vec::new();
        let mut stage_sum = 0;
        let timer = Timer::start();
        for push in inputs.window.chunks(PUSH) {
            let started = Instant::now();
            let run = rec.time("driver.run_evaluation", None, None, || {
                layers::evaluate(&inputs.synth.repo, push, WORKERS, &caches, &tracer)
            });
            latencies_ns.push(started.elapsed().as_nanos() as u64);
            stage_sum += layers::driver_stage_sum_us(&run);
            runs.push(run);
        }
        let (wall_s, cpu_s) = timer.stop();
        let cache = caches.counts().since(&before);
        let run = layers::concat(runs);

        let commits = layers::run_commits(&run);
        let mut failed = oracle(&commits, &layers::run_reports(&run), &inputs.planted);
        let counts = Counts::of(layers::run_samples(&run));
        let patches = commits.len();
        let mut layers_map = BTreeMap::new();
        let mut program_lines = Vec::new();
        if traced {
            let ps = layers::program_spans(&tracer);
            let l = &mut layers_map;
            let k = kbuild_layers(l, &ps);
            let (checkout, show, check) = check_layers(
                l,
                &ps,
                [
                    ps.samples_of("checkout"),
                    ps.samples_of("show"),
                    ps.samples_of("check"),
                ],
                k,
            );
            let workers = WORKERS.min(patches.max(1)) as f64;
            let base = workers * wall_s * 1e6;
            l.insert("driver.stage_sum_us", stage_sum as f64);
            l.insert("driver.busy_frac", stage_sum as f64 / base);
            shares(
                l,
                base,
                &[
                    ("vcs.share", checkout + show),
                    ("core.share", check - k),
                    ("kbuild.share", k),
                ],
                checkout + show + check,
            );
            program_lines = ps.lines;
        }
        match &self.reference {
            Some(reference) => failed.extend(layers::differing_commits(reference, &run)),
            None => self.reference = Some(run),
        }
        Rep {
            traced,
            wall_s,
            cpu_s,
            patches,
            latencies_ns,
            counts,
            calls_known: true,
            cache,
            failed: failed.len(),
            known_defects: 0,
            layers: layers_map,
            program_lines,
        }
    }
}

// ---- janitor-latency: one client, one thread, checkout → show → check ----

struct Closed {
    spec: &'static Spec,
    inputs: Option<Inputs>,
    authors: Vec<String>,
    reference: Option<Vec<Result<PatchReport, String>>>,
}

impl Closed {
    fn new(spec: &'static Spec) -> Closed {
        Closed {
            spec,
            inputs: None,
            authors: Vec::new(),
            reference: None,
        }
    }
}

impl Workload for Closed {
    fn setup(&mut self, p: &Params, t: &mut SetupTimes, rec: &mut Recorder) {
        self.inputs = None;
        self.reference = None;
        let inputs = inputs(self.spec, p, t, rec);
        self.authors = inputs
            .window
            .iter()
            .map(|c| layers::author(&inputs.synth.repo, *c))
            .collect();
        self.inputs = Some(inputs);
    }

    fn rep(&mut self, rec: &mut Recorder, traced: bool) -> Rep {
        let inputs = self.inputs.as_ref().expect("set up");
        let repo = &inputs.synth.repo;
        let caches = Caches::fresh();
        let jmake = layers::checker();
        let tracer = layers::tracer(traced);
        let mut samples = Samples::default();
        let mut outcomes: Vec<Result<PatchReport, String>> =
            Vec::with_capacity(inputs.window.len());
        let mut latencies_ns = Vec::with_capacity(inputs.window.len());
        let timer = Timer::start();
        for (i, &commit) in inputs.window.iter().enumerate() {
            let label = rec.enabled().then(|| commit.to_string());
            let label = label.as_deref();
            let patch_tracer = layers::for_patch(&tracer, || commit.to_string());
            let started = Instant::now();
            let root = rec.open("janitor.patch", None, label);
            let tree = rec.time("vcs.checkout", root, label, || {
                layers::checkout(repo, commit)
            });
            let verdict = tree.and_then(|tree| {
                let patch = rec.time("vcs.show", root, label, || layers::show(repo, commit))?;
                let mut engine = rec.time("kbuild.engine", root, label, || {
                    layers::engine(tree, &caches, patch_tracer)
                });
                let report = rec.time("core.check", root, label, || {
                    layers::check(&jmake, &mut engine, &patch, &self.authors[i])
                });
                Ok((report, engine))
            });
            rec.close(root);
            latencies_ns.push(started.elapsed().as_nanos() as u64);
            outcomes.push(verdict.map(|(report, engine)| {
                layers::merge_samples(&mut samples, layers::engine_samples(&engine));
                report
            }));
        }
        let (wall_s, cpu_s) = timer.stop();
        let cache = caches.counts();

        let reports: Vec<Option<&PatchReport>> = outcomes.iter().map(|o| o.as_ref().ok()).collect();
        let mut failed = oracle(&inputs.window, &reports, &inputs.planted);
        let mut layers_map = BTreeMap::new();
        let mut program_lines = Vec::new();
        if traced {
            let ps = layers::program_spans(&tracer);
            let l = &mut layers_map;
            let k = kbuild_layers(l, &ps);
            let r = rec.rep.expect("inside a rep");
            let us = |name| {
                rec.durations_ns(r, name)
                    .iter()
                    .map(|ns| ns / 1000)
                    .collect::<Vec<u64>>()
            };
            let engine = us("kbuild.engine").iter().sum::<u64>() as f64;
            l.insert("kbuild.engine_us", engine);
            let (checkout, show, check) = check_layers(
                l,
                &ps,
                [&us("vcs.checkout"), &us("vcs.show"), &us("core.check")],
                k,
            );
            let base = wall_s * 1e6;
            l.insert(
                "driver.busy_frac",
                (checkout + show + engine + check) / base,
            );
            shares(
                l,
                base,
                &[
                    ("vcs.share", checkout + show),
                    ("core.share", check - k),
                    ("kbuild.share", k + engine),
                ],
                checkout + show + engine + check,
            );
            program_lines = ps.lines;
        }
        match &self.reference {
            Some(reference) => failed.extend(
                inputs
                    .window
                    .iter()
                    .zip(reference.iter().zip(&outcomes))
                    .filter(|(_, (a, b))| a != b)
                    .map(|(c, _)| *c),
            ),
            None => self.reference = Some(outcomes),
        }
        Rep {
            traced,
            wall_s,
            cpu_s,
            patches: inputs.window.len(),
            latencies_ns,
            counts: Counts::of(&samples),
            calls_known: true,
            cache,
            failed: failed.len(),
            known_defects: 0,
            layers: layers_map,
            program_lines,
        }
    }
}

// ---- remediate: `remediate_with` once per checked patch ----

struct Remediate {
    spec: &'static Spec,
    inputs: Option<Inputs>,
    /// One single-result run per checked patch.
    runs: Vec<EvaluationRun>,
    setup_failed: usize,
    reference: Option<Vec<FixReport>>,
    notes: Vec<String>,
}

impl Remediate {
    fn new(spec: &'static Spec) -> Remediate {
        Remediate {
            spec,
            inputs: None,
            runs: Vec::new(),
            setup_failed: 0,
            reference: None,
            notes: Vec::new(),
        }
    }
}

impl Workload for Remediate {
    fn setup(&mut self, p: &Params, t: &mut SetupTimes, rec: &mut Recorder) {
        self.inputs = None;
        self.runs.clear();
        self.reference = None;
        let inputs = inputs(self.spec, p, t, rec);
        let run = rec.time("driver.run_evaluation", None, None, || {
            layers::evaluate(
                &inputs.synth.repo,
                &inputs.window,
                WORKERS,
                &Caches::fresh(),
                &layers::tracer(false),
            )
        });
        let commits = layers::run_commits(&run);
        self.setup_failed = oracle(&commits, &layers::run_reports(&run), &inputs.planted).len();
        self.runs = layers::one_result_runs(&run);
        self.inputs = Some(inputs);
    }

    fn setup_failed(&self) -> usize {
        self.setup_failed
    }

    fn notes(&self) -> Vec<String> {
        self.notes.clone()
    }

    fn rep(&mut self, rec: &mut Recorder, traced: bool) -> Rep {
        let inputs = self.inputs.as_ref().expect("set up");
        let repo = &inputs.synth.repo;
        let caches = Caches::fresh();
        let tracer = layers::tracer(traced);
        let ctx = layers::fix_context(&caches, tracer.clone());
        let mut reports = Vec::with_capacity(self.runs.len());
        let mut latencies_ns = Vec::with_capacity(self.runs.len());
        let timer = Timer::start();
        for one in &self.runs {
            let commit = layers::only_commit(one);
            let label = rec.enabled().then(|| commit.to_string());
            let started = Instant::now();
            let ctx = layers::fix_context_for_patch(&ctx, || commit.to_string());
            let fix = rec.time("fix.remediate", None, label.as_deref(), || {
                layers::remediate(repo, one, &ctx)
            });
            latencies_ns.push(started.elapsed().as_nanos() as u64);
            reports.push(fix);
        }
        let (wall_s, cpu_s) = timer.stop();
        let cache = caches.counts();

        let mut total = FixTally::default();
        // Every patch with a disagreement or a failed verification fails;
        // the unexplained ones are those not down to a known defect alone.
        let mut failed = BTreeSet::new();
        let mut unexplained = BTreeSet::new();
        for (i, fix) in reports.iter().enumerate() {
            let tally = FixTally::of(fix);
            if tally.verification_failures > 0 || tally.other_disagreements > 0 {
                unexplained.insert(i);
            }
            if tally.known_disagreements > 0 {
                failed.insert(i);
            }
            total.add(&tally);
        }
        if self.notes.is_empty() {
            self.notes = reports
                .iter()
                .flat_map(layers::disagreement_lines)
                .collect();
        }
        let mut counts = Counts {
            virtual_us: total.virtual_us,
            ..Counts::default()
        };
        let mut layers_map = BTreeMap::new();
        let mut program_lines = Vec::new();
        if traced {
            let ps = layers::program_spans(&tracer);
            // Span-derived counts must add up to the reports' virtual time.
            counts = ps.counts;
            let l = &mut layers_map;
            let k = kbuild_layers(l, &ps);
            // The reachability step, replayed from outside after the timed
            // pass, over its own configuration cache.
            let replay = Caches::fresh();
            for one in &self.runs {
                let label = layers::only_commit(one).to_string();
                if let Some(input) = layers::reach_input(repo, one, &replay) {
                    rec.time("reach.analyze", None, Some(&label), || {
                        layers::reach_analyze(&input)
                    });
                }
            }
            let r = rec.rep.expect("inside a rep");
            let remediate: Vec<u64> = rec
                .durations_ns(r, "fix.remediate")
                .iter()
                .map(|ns| ns / 1000)
                .collect();
            dist(
                l,
                [
                    "fix.remediate_us",
                    "fix.remediate_us_p50",
                    "fix.remediate_us_p99",
                ],
                &remediate,
            );
            let total_r = l["fix.remediate_us"];
            let reach = rec.total_us(r, "reach.analyze");
            let verify = ps.total("remediate") as f64;
            l.insert("reach.analyze_us", reach);
            l.insert("fix.verify_us", verify);
            l.insert("fix.self_us", total_r - reach - verify);
            l.insert("fix.missed_lines", total.missed as f64);
            l.insert("fix.deltas_emitted", total.deltas_emitted as f64);
            l.insert("fix.deltas_verified", total.deltas_verified as f64);
            l.insert(
                "fix.disagreements",
                (total.known_disagreements + total.other_disagreements) as f64,
            );
            let base = wall_s * 1e6;
            l.insert("driver.busy_frac", total_r / base);
            shares(
                l,
                base,
                &[
                    ("kbuild.share", k),
                    ("reach.share", reach),
                    ("fix.share", total_r - reach - k),
                ],
                total_r,
            );
            program_lines = ps.lines;
        }
        match &self.reference {
            Some(reference) => unexplained
                .extend((0..reports.len()).filter(|&i| reference.get(i) != Some(&reports[i]))),
            None => self.reference = Some(reports),
        }
        failed.extend(&unexplained);
        Rep {
            traced,
            wall_s,
            cpu_s,
            patches: self.runs.len(),
            latencies_ns,
            counts,
            calls_known: traced,
            cache,
            failed: failed.len(),
            known_defects: failed.len() - unexplained.len(),
            layers: layers_map,
            program_lines,
        }
    }
}

/// Median of one per-layer entry over the traced reps (0 when absent).
pub fn layer_median(reps: &[Rep], key: &str) -> f64 {
    let values: Vec<f64> = reps
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| r.layers.get(key).copied())
        .collect();
    median(&values)
}
