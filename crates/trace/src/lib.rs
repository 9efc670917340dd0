//! Structured per-stage tracing and metrics for the JMake pipeline.
//!
//! A [`Tracer`] is a cheap-to-clone handle threaded through the driver, the
//! per-patch checker, and the build engine. When disabled (the default) every
//! operation is a no-op on an `Option::None` — no allocation, no clock read,
//! no lock — so a disabled tracer cannot perturb reports or the Fig. 4a
//! distributions. When enabled, each pipeline stage opens a [`Span`] that
//! records on drop (balanced even across panics) into two sinks at once:
//!
//! * a JSONL event log (one [`SpanRecord`] per line, schema in DESIGN.md §6);
//! * in-memory per-stage histograms surfaced as [`metrics::Metrics`].
//!
//! Two clocks appear on every span. `host_us` is real elapsed time measured
//! with `std::time::Instant`; `virtual_us` is the simulated kernel-build cost
//! charged to the deterministic virtual clock. Host time varies run to run,
//! virtual time must not.
//!
//! # Example
//!
//! ```
//! use jmake_trace::{CacheOutcome, Stage, Tracer, jsonl};
//!
//! let tracer = Tracer::in_memory();
//! {
//!     let mut span = tracer.span(Stage::ConfigSolve).with_arch("x86_64");
//!     span.set_virtual_us(2_400_000);
//!     span.set_cache(CacheOutcome::Miss);
//! } // recorded here, on drop
//!
//! let lines = tracer.jsonl_lines();
//! let record = jsonl::parse_line(&lines[0]).unwrap();
//! assert_eq!(record.stage, Some(Stage::ConfigSolve));
//! assert_eq!(record.virtual_us, 2_400_000);
//! assert!(tracer.balance().is_balanced());
//! ```

#![deny(missing_docs)]

pub mod jsonl;
pub mod metrics;
pub mod quantile;

use metrics::Metrics;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One pipeline stage. The wire names (see [`Stage::name`]) are the canonical
/// set documented in DESIGN.md §6; `jmake-eval trace-check` rejects any JSONL
/// line whose stage is not one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Materialize the commit's tree from the synthetic repository.
    Checkout,
    /// Produce the unified diff for the commit (`git show` analogue).
    Show,
    /// The whole per-patch check (umbrella over the stages below).
    Check,
    /// Preprocess + analyze + plan mutations for one changed file.
    MutationPlan,
    /// Solve (or fetch from cache) one kernel configuration.
    ConfigSolve,
    /// Generate `.i` preprocessed output for a batch of files.
    BuildI,
    /// Compile `.o` objects for one file.
    BuildO,
    /// Classify scan results into per-file coverage verdicts.
    Classify,
    /// Root-cause missed lines and verify synthesized config deltas
    /// (`jmake-fix`; only emitted when remediation is requested).
    Remediate,
    /// Greedy randconfig-portfolio selection over the reach analyzer's
    /// presence conditions (`covsel::select_portfolio`; only emitted when
    /// `--portfolio` is requested).
    Portfolio,
    /// A failed attempt was retried after exponential backoff; `virtual_us`
    /// carries the backoff charged to the virtual clock.
    Retry,
    /// A hung attempt was cancelled by the per-unit timeout; `virtual_us`
    /// carries the timeout budget the attempt consumed.
    Timeout,
    /// A cache shard served a corrupted entry and was taken out of service.
    Quarantine,
}

impl Stage {
    /// Every stage: the pipeline stages in order, then the recovery stages
    /// (`retry`, `timeout`, `quarantine`) emitted only under fault injection.
    pub const ALL: [Stage; 13] = [
        Stage::Checkout,
        Stage::Show,
        Stage::Check,
        Stage::MutationPlan,
        Stage::ConfigSolve,
        Stage::BuildI,
        Stage::BuildO,
        Stage::Classify,
        Stage::Remediate,
        Stage::Portfolio,
        Stage::Retry,
        Stage::Timeout,
        Stage::Quarantine,
    ];

    /// The canonical wire name used in JSONL and the metrics table.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Checkout => "checkout",
            Stage::Show => "show",
            Stage::Check => "check",
            Stage::MutationPlan => "mutation_plan",
            Stage::ConfigSolve => "config_solve",
            Stage::BuildI => "build_i",
            Stage::BuildO => "build_o",
            Stage::Classify => "classify",
            Stage::Remediate => "remediate",
            Stage::Portfolio => "portfolio",
            Stage::Retry => "retry",
            Stage::Timeout => "timeout",
            Stage::Quarantine => "quarantine",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a `config_solve` span was served by the configuration caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheOutcome {
    /// No shared cache attached to the engine; the solve ran locally.
    Off,
    /// Served by the engine's own per-patch memo; the shared cache was
    /// never consulted, so this counts in neither hits nor misses.
    Local,
    /// Shared-cache hit.
    Hit,
    /// Shared-cache miss — a fresh solve that was then published.
    Miss,
}

impl CacheOutcome {
    /// Wire name used in JSONL.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Off => "off",
            CacheOutcome::Local => "local",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }

    /// Inverse of [`CacheOutcome::name`].
    pub fn from_name(name: &str) -> Option<CacheOutcome> {
        [
            CacheOutcome::Off,
            CacheOutcome::Local,
            CacheOutcome::Hit,
            CacheOutcome::Miss,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }
}

/// One completed span, as written to the JSONL log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanRecord {
    /// The pipeline stage this span measured (always present on real spans;
    /// `None` only in hand-built defaults).
    pub stage: Option<Stage>,
    /// Patch (commit) identifier, if the span ran under a per-patch tracer.
    pub patch: Option<String>,
    /// Source file the stage operated on, when it is file-scoped.
    pub file: Option<String>,
    /// Architecture, for build-side stages.
    pub arch: Option<String>,
    /// Configuration kind key (`allyes`, `allmod`, `def`, `custom:…`).
    pub config: Option<String>,
    /// Real elapsed time in microseconds.
    pub host_us: u64,
    /// Simulated kernel-build cost charged to the virtual clock.
    pub virtual_us: u64,
    /// Cache outcome, only on `config_solve` spans.
    pub cache: Option<CacheOutcome>,
}

enum Sink {
    Memory(Vec<String>),
    File(BufWriter<File>),
}

struct Inner {
    sink: Mutex<Sink>,
    metrics: Mutex<Metrics>,
    opened: AtomicU64,
    closed: AtomicU64,
}

/// Open/closed span counters, for asserting that tracing is balanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanBalance {
    /// Spans opened via [`Tracer::span`].
    pub opened: u64,
    /// Spans recorded (dropped) so far.
    pub closed: u64,
}

impl SpanBalance {
    /// True when every opened span has been recorded exactly once.
    pub fn is_balanced(&self) -> bool {
        self.opened == self.closed
    }
}

/// Handle for emitting spans. Clone freely; all clones share one sink.
///
/// The `patch` label (set by [`Tracer::for_patch_with`]) is carried by the
/// handle itself so every span opened through a per-patch clone is tagged
/// without the call sites having to know which patch they serve.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
    patch: Option<Arc<str>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.is_some())
            .field("patch", &self.patch)
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer. Every span is free and records nothing.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Tracer that keeps JSONL lines in memory (for tests and `--metrics`
    /// without an event-log path).
    pub fn in_memory() -> Tracer {
        Tracer::with_sink(Sink::Memory(Vec::new()))
    }

    /// Tracer that streams JSONL to `path` (truncating any existing file).
    /// Missing parent directories are created, so `--trace target/x/t.jsonl`
    /// works on a fresh checkout.
    pub fn to_file(path: &Path) -> io::Result<Tracer> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(Tracer::with_sink(Sink::File(BufWriter::new(file))))
    }

    fn with_sink(sink: Sink) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                sink: Mutex::new(sink),
                metrics: Mutex::new(Metrics::default()),
                opened: AtomicU64::new(0),
                closed: AtomicU64::new(0),
            })),
            patch: None,
        }
    }

    /// True when spans are being recorded somewhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Clone of this tracer whose spans carry a patch label. The label
    /// closure is only evaluated when tracing is enabled, so disabled runs
    /// pay nothing for it.
    pub fn for_patch_with(&self, label: impl FnOnce() -> String) -> Tracer {
        match &self.inner {
            None => Tracer::default(),
            Some(inner) => Tracer {
                inner: Some(Arc::clone(inner)),
                patch: Some(Arc::from(label())),
            },
        }
    }

    /// Open a span for `stage`. Records on drop; attach detail with the
    /// `with_*` builders and `set_*` mutators before then.
    pub fn span(&self, stage: Stage) -> Span {
        match &self.inner {
            None => Span::noop(stage),
            Some(inner) => {
                inner.opened.fetch_add(1, Ordering::Relaxed);
                Span {
                    inner: Some(Arc::clone(inner)),
                    record: SpanRecord {
                        stage: Some(stage),
                        patch: self.patch.as_deref().map(str::to_owned),
                        ..SpanRecord::default()
                    },
                    start: Some(Instant::now()),
                    host_override_us: None,
                }
            }
        }
    }

    /// Record a named counter: added into the metrics snapshot and
    /// written to the sink as its own JSONL line (`{"counter":…,
    /// "value":…}`). No-op when disabled. Counters carry host-side
    /// bookkeeping that has no span to live on.
    pub fn counter(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        {
            let mut metrics = inner.metrics.lock().expect("metrics poisoned");
            metrics.record_counter(name, value);
        }
        let line = jsonl::counter_line(name, value);
        match &mut *inner.sink.lock().expect("sink poisoned") {
            Sink::Memory(lines) => lines.push(line),
            Sink::File(writer) => {
                let _ = writeln!(writer, "{line}");
            }
        }
    }

    /// Snapshot of the per-stage histograms. Empty when disabled.
    pub fn metrics(&self) -> Metrics {
        match &self.inner {
            None => Metrics::default(),
            Some(inner) => inner.metrics.lock().expect("metrics poisoned").clone(),
        }
    }

    /// Span open/close counters.
    pub fn balance(&self) -> SpanBalance {
        match &self.inner {
            None => SpanBalance::default(),
            Some(inner) => SpanBalance {
                opened: inner.opened.load(Ordering::SeqCst),
                closed: inner.closed.load(Ordering::SeqCst),
            },
        }
    }

    /// The JSONL lines collected so far (in-memory sink only; a file sink
    /// returns an empty vec — read the file instead).
    pub fn jsonl_lines(&self) -> Vec<String> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => match &*inner.sink.lock().expect("sink poisoned") {
                Sink::Memory(lines) => lines.clone(),
                Sink::File(_) => Vec::new(),
            },
        }
    }

    /// Flush a file sink to disk. No-op for memory or disabled tracers.
    pub fn flush(&self) -> io::Result<()> {
        if let Some(inner) = &self.inner {
            if let Sink::File(writer) = &mut *inner.sink.lock().expect("sink poisoned") {
                writer.flush()?;
            }
        }
        Ok(())
    }
}

/// Guard for one in-flight stage. Records exactly once, on drop — including
/// during a panic unwind, which keeps the open/close counters balanced.
pub struct Span {
    inner: Option<Arc<Inner>>,
    record: SpanRecord,
    start: Option<Instant>,
    host_override_us: Option<u64>,
}

impl Span {
    fn noop(stage: Stage) -> Span {
        Span {
            inner: None,
            record: SpanRecord {
                stage: Some(stage),
                ..SpanRecord::default()
            },
            start: None,
            host_override_us: None,
        }
    }

    /// Tag the span with the source file it operates on.
    #[must_use]
    pub fn with_file(mut self, file: &str) -> Span {
        if self.inner.is_some() {
            self.record.file = Some(file.to_owned());
        }
        self
    }

    /// Tag the span with a target architecture.
    #[must_use]
    pub fn with_arch(mut self, arch: &str) -> Span {
        if self.inner.is_some() {
            self.record.arch = Some(arch.to_owned());
        }
        self
    }

    /// Tag the span with a configuration-kind key.
    #[must_use]
    pub fn with_config(mut self, config: &str) -> Span {
        if self.inner.is_some() {
            self.record.config = Some(config.to_owned());
        }
        self
    }

    /// Set the virtual-clock charge attributed to this span.
    pub fn set_virtual_us(&mut self, us: u64) {
        if self.inner.is_some() {
            self.record.virtual_us = us;
        }
    }

    /// Set the cache outcome (meaningful on `config_solve` spans).
    pub fn set_cache(&mut self, outcome: CacheOutcome) {
        if self.inner.is_some() {
            self.record.cache = Some(outcome);
        }
    }

    /// Close the span with an externally measured host duration instead of
    /// the span's own clock. The driver uses this so the exact same
    /// measurement feeds both `DriverStats` and the trace, making the two
    /// reconcile to the microsecond.
    pub fn finish_with_host_us(mut self, us: u64) {
        self.host_override_us = Some(us);
        // Drop records it.
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        self.record.host_us = match self.host_override_us {
            Some(us) => us,
            None => self
                .start
                .map(|s| s.elapsed().as_micros() as u64)
                .unwrap_or(0),
        };
        let record = std::mem::take(&mut self.record);
        {
            let mut metrics = inner.metrics.lock().expect("metrics poisoned");
            metrics.record(&record);
        }
        {
            let line = jsonl::to_json_line(&record);
            let mut sink = inner.sink.lock().expect("sink poisoned");
            match &mut *sink {
                Sink::Memory(lines) => lines.push(line),
                Sink::File(writer) => {
                    // Best effort: a full disk must not panic the pipeline.
                    let _ = writeln!(writer, "{line}");
                }
            }
        }
        inner.closed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let mut span = tracer.span(Stage::Check).with_file("a.c");
            span.set_virtual_us(123);
        }
        tracer.span(Stage::Checkout).finish_with_host_us(7);
        assert!(!tracer.is_enabled());
        assert_eq!(tracer.balance(), SpanBalance::default());
        assert!(tracer.metrics().stages().is_empty());
        assert!(tracer.jsonl_lines().is_empty());
    }

    #[test]
    fn spans_record_on_drop_and_stay_balanced() {
        let tracer = Tracer::in_memory();
        {
            let mut span = tracer
                .span(Stage::ConfigSolve)
                .with_arch("x86")
                .with_config("allyes");
            span.set_virtual_us(500);
            span.set_cache(CacheOutcome::Miss);
        }
        tracer.span(Stage::Checkout).finish_with_host_us(42);
        let balance = tracer.balance();
        assert!(balance.is_balanced());
        assert_eq!(balance.closed, 2);
        let lines = tracer.jsonl_lines();
        assert_eq!(lines.len(), 2);
        let first = jsonl::parse_line(&lines[0]).expect("valid jsonl");
        assert_eq!(first.stage, Some(Stage::ConfigSolve));
        assert_eq!(first.virtual_us, 500);
        assert_eq!(first.cache, Some(CacheOutcome::Miss));
        let second = jsonl::parse_line(&lines[1]).expect("valid jsonl");
        assert_eq!(second.stage, Some(Stage::Checkout));
        assert_eq!(second.host_us, 42);
    }

    #[test]
    fn span_records_even_when_dropped_during_panic() {
        let tracer = Tracer::in_memory();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = tracer.span(Stage::Check);
            panic!("boom");
        }));
        assert!(result.is_err());
        assert!(tracer.balance().is_balanced());
        assert_eq!(tracer.jsonl_lines().len(), 1);
    }

    #[test]
    fn for_patch_labels_every_span_from_the_clone() {
        let tracer = Tracer::in_memory();
        let patch = tracer.for_patch_with(|| "1234".to_owned());
        drop(patch.span(Stage::Show));
        let record = jsonl::parse_line(&tracer.jsonl_lines()[0]).unwrap();
        assert_eq!(record.patch.as_deref(), Some("1234"));
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(Stage::from_name("nonsense"), None);
    }
}
