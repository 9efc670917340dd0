//! Deterministic, seed-driven fault injection for the JMake pipeline.
//!
//! JMake's value proposition is *dependability*: a janitor must be able to
//! trust the report even when individual build steps misbehave.  This crate
//! supplies the fault model the rest of the workspace recovers from, and it
//! does so **deterministically**: whether a given operation fails is a pure
//! function of `(seed, salt, site, identity, attempt)`, never of wall-clock
//! time, scheduling order, worker count, or cache state.  Two runs with the
//! same seed inject exactly the same faults; a run with no spec injects
//! nothing and costs nothing.
//!
//! The crate knows nothing about builds or repositories; it depends only
//! on `jmake-trace`, for the spans its recovery emits.  Operation sites
//! (the driver's checkout/show stages, the build engine's
//! `make_config`/`make_i`/`make_o` wrappers) run behind [`Faults::gate`],
//! the one bounded-retry loop with exponential backoff and simulated
//! per-unit timeouts.  The cache lookup path asks [`Faults::decide`]
//! directly and quarantines the shard itself.  Both record what happened
//! in the shared [`FaultStats`], using the knobs in [`RetryPolicy`].
//!
//! # Example
//!
//! ```
//! use jmake_faults::{FaultKind, FaultSite, FaultSpec, Faults};
//!
//! // Nothing configured: the handle is free to clone and never fires.
//! let off = Faults::disabled();
//! assert!(!off.is_enabled());
//! assert_eq!(off.decide(FaultSite::MakeI, "lib/crc.c", 0), None);
//!
//! // A spec parsed from `--faults transient:1.0` fires on every attempt.
//! let spec = FaultSpec::parse("transient:1.0").unwrap();
//! let faults = Faults::new(spec, 7);
//! assert_eq!(
//!     faults.decide(FaultSite::MakeI, "lib/crc.c", 0),
//!     Some(FaultKind::Transient)
//! );
//! // Decisions are deterministic: same inputs, same answer.
//! assert_eq!(
//!     faults.decide(FaultSite::MakeI, "lib/crc.c", 0),
//!     Some(FaultKind::Transient)
//! );
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

use jmake_trace::{Stage, Tracer};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The kinds of fault the harness can inject.
///
/// `Corrupt` only ever fires at [`FaultSite::CacheLookup`]; the other three
/// only fire at operation sites.  This keeps the model honest: a cache can
/// serve poison but cannot "hang", and a compiler invocation can hang but
/// cannot silently corrupt a content-addressed entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The operation fails once; an identical retry may succeed.
    Transient,
    /// The operation succeeds but takes [`RetryPolicy::latency_spike_us`]
    /// extra virtual microseconds.
    Latency,
    /// A cache entry is served with corrupted bytes (caught by content-hash
    /// verification, which quarantines the shard).
    Corrupt,
    /// The operation never completes; the per-unit timeout cancels it after
    /// [`RetryPolicy::timeout_us`] virtual microseconds and it counts as a
    /// failed attempt.
    Hang,
}

impl FaultKind {
    /// All kinds, in the fixed priority order used by [`Faults::decide`]
    /// when several kinds would fire on the same attempt.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Transient,
        FaultKind::Latency,
        FaultKind::Corrupt,
        FaultKind::Hang,
    ];

    /// Stable lower-case name, as written in `--faults` specs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Latency => "latency",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Hang => "hang",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultKind::Transient => 0,
            FaultKind::Latency => 1,
            FaultKind::Corrupt => 2,
            FaultKind::Hang => 3,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the pipeline a fault decision is being made.
///
/// The site is part of the hash input, so (for example) a commit whose
/// checkout fails does not automatically also fail its `git show`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `git checkout` of the commit under test (driver, host side).
    Checkout,
    /// `git show` / patch extraction (driver, host side).
    Show,
    /// Kconfig constraint solving in `make_config`.
    ConfigSolve,
    /// Preprocessing (`make CC=... foo.i`).
    MakeI,
    /// Compilation proper (`make foo.o`).
    MakeO,
    /// An object- or config-cache lookup (only [`FaultKind::Corrupt`]
    /// fires here).
    CacheLookup,
}

impl FaultSite {
    /// Stable lower-case name (used in traces and error messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Checkout => "checkout",
            FaultSite::Show => "show",
            FaultSite::ConfigSolve => "config_solve",
            FaultSite::MakeI => "make_i",
            FaultSite::MakeO => "make_o",
            FaultSite::CacheLookup => "cache_lookup",
        }
    }

    fn index(self) -> u64 {
        match self {
            FaultSite::Checkout => 0,
            FaultSite::Show => 1,
            FaultSite::ConfigSolve => 2,
            FaultSite::MakeI => 3,
            FaultSite::MakeO => 4,
            FaultSite::CacheLookup => 5,
        }
    }

    /// Can `kind` fire at this site?  Corruption is cache-only; everything
    /// else is operation-only.
    fn admits(self, kind: FaultKind) -> bool {
        match self {
            FaultSite::CacheLookup => kind == FaultKind::Corrupt,
            _ => kind != FaultKind::Corrupt,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-kind injection rates, parsed from a `--faults` spec string.
///
/// The spec grammar is a comma-separated list of `kind:rate` pairs where
/// `kind` is one of `transient`, `latency`, `corrupt`, `hang` and `rate`
/// is a probability in `[0, 1]`:
///
/// ```
/// use jmake_faults::{FaultKind, FaultSpec};
///
/// let spec = FaultSpec::parse("transient:0.2, corrupt:0.1").unwrap();
/// assert_eq!(spec.rate(FaultKind::Transient), 0.2);
/// assert_eq!(spec.rate(FaultKind::Corrupt), 0.1);
/// assert_eq!(spec.rate(FaultKind::Hang), 0.0);
/// assert!(FaultSpec::parse("solar-flare:0.5").is_err());
/// assert!(FaultSpec::parse("transient:1.5").is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    rates: [f64; 4],
}

impl FaultSpec {
    /// Parse a `kind:rate` comma list.  Whitespace around items is ignored;
    /// listing a kind twice keeps the last rate.  Returns a human-readable
    /// error for unknown kinds and out-of-range or malformed rates.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (name, rate) = item
                .split_once(':')
                .ok_or_else(|| format!("fault spec item `{item}` is not `kind:rate`"))?;
            let kind = match name.trim() {
                "transient" => FaultKind::Transient,
                "latency" => FaultKind::Latency,
                "corrupt" => FaultKind::Corrupt,
                "hang" => FaultKind::Hang,
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (expected transient|latency|corrupt|hang)"
                    ))
                }
            };
            let rate: f64 = rate
                .trim()
                .parse()
                .map_err(|_| format!("fault rate `{rate}` is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} is outside [0, 1]"));
            }
            out.rates[kind.index()] = rate;
        }
        Ok(out)
    }

    /// Set the rate for one kind (clamped to `[0, 1]`), builder style.
    /// Handy for tests that construct profiles programmatically.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> FaultSpec {
        self.rates[kind.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// The configured rate for `kind` (0.0 when unset).
    pub fn rate(self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }

    /// True when every rate is zero — such a spec is equivalent to no spec
    /// at all, and [`Faults::new`] degenerates to [`Faults::disabled`].
    pub fn is_empty(self) -> bool {
        self.rates.iter().all(|&r| r == 0.0)
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for kind in FaultKind::ALL {
            let rate = self.rate(kind);
            if rate > 0.0 {
                if !first {
                    f.write_str(",")?;
                }
                write!(f, "{}:{rate}", kind.name())?;
                first = false;
            }
        }
        if first {
            f.write_str("none")?;
        }
        Ok(())
    }
}

/// Recovery knobs shared by every fault-aware call site.
///
/// All durations are **virtual** microseconds: recovery is charged to the
/// evaluation's virtual clock (via `advance`, so Figure 4 sample streams
/// keep their one-sample-per-invocation shape), never to the host clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try + retries).  Exhausting
    /// this budget degrades the trial instead of panicking.
    pub max_attempts: u32,
    /// Backoff charged before retry `n` is `backoff_base_us << (n - 1)`.
    pub backoff_base_us: u64,
    /// Virtual budget a hung attempt consumes before cancellation.
    pub timeout_us: u64,
    /// Extra virtual time a latency spike adds to a successful attempt.
    pub latency_spike_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_us: 250_000,
            timeout_us: 30_000_000,
            latency_spike_us: 2_000_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff to charge before re-running after failed attempt `attempt`
    /// (0-based): 250 ms, 500 ms, 1 s, ... with the default base.
    ///
    /// ```
    /// let p = jmake_faults::RetryPolicy::default();
    /// assert_eq!(p.backoff_us(0), 250_000);
    /// assert_eq!(p.backoff_us(1), 500_000);
    /// assert_eq!(p.backoff_us(2), 1_000_000);
    /// ```
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        self.backoff_base_us.saturating_mul(1u64 << attempt.min(32))
    }
}

/// Shared atomic counters describing what the harness injected and what
/// the recovery machinery did about it.  One instance is shared by every
/// clone (and every [`Faults::with_salt`] derivative) of a handle, so the
/// driver can print a single summary at the end of a run.
#[derive(Debug, Default)]
pub struct FaultStats {
    injected: [AtomicU64; 4],
    /// Attempts re-run after a transient failure or cancelled hang.
    pub retries: AtomicU64,
    /// Hung attempts cancelled by the per-unit timeout.
    pub timeouts: AtomicU64,
    /// Cache entries whose content-hash verification failed.
    pub corruptions_detected: AtomicU64,
    /// Cache shards taken out of service after serving corruption.
    pub quarantined_shards: AtomicU64,
    /// Operations that ran out of attempts and degraded their trial.
    pub exhausted: AtomicU64,
}

impl FaultStats {
    /// Record one injected fault of `kind` (called by [`Faults::decide`]).
    fn record_injected(&self, kind: FaultKind) {
        self.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the counters into a plain value for reporting or assertions.
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            injected_transient: self.injected[0].load(Ordering::Relaxed),
            injected_latency: self.injected[1].load(Ordering::Relaxed),
            injected_corrupt: self.injected[2].load(Ordering::Relaxed),
            injected_hang: self.injected[3].load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            corruptions_detected: self.corruptions_detected.load(Ordering::Relaxed),
            quarantined_shards: self.quarantined_shards.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStatsSnapshot {
    /// Transient failures injected.
    pub injected_transient: u64,
    /// Latency spikes injected.
    pub injected_latency: u64,
    /// Corrupted cache entries injected.
    pub injected_corrupt: u64,
    /// Hangs injected.
    pub injected_hang: u64,
    /// Attempts re-run after a failure.
    pub retries: u64,
    /// Hung attempts cancelled by the per-unit timeout.
    pub timeouts: u64,
    /// Cache corruptions caught by verification.
    pub corruptions_detected: u64,
    /// Cache shards quarantined.
    pub quarantined_shards: u64,
    /// Operations that exhausted their retry budget.
    pub exhausted: u64,
}

impl FaultStatsSnapshot {
    /// Total faults injected across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected_transient + self.injected_latency + self.injected_corrupt + self.injected_hang
    }
}

impl fmt::Display for FaultStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} (transient {}, latency {}, corrupt {}, hang {}); \
             retries {}, timeouts {}, corruptions detected {}, \
             shards quarantined {}, exhausted {}",
            self.injected_total(),
            self.injected_transient,
            self.injected_latency,
            self.injected_corrupt,
            self.injected_hang,
            self.retries,
            self.timeouts,
            self.corruptions_detected,
            self.quarantined_shards,
            self.exhausted,
        )
    }
}

struct FaultPlan {
    spec: FaultSpec,
    seed: u64,
    salt: u64,
    policy: RetryPolicy,
    stats: Arc<FaultStats>,
}

/// Cheap-to-clone handle consulted at every fault site.
///
/// Mirrors `jmake_trace::Tracer`: a disabled handle is a `None` behind the
/// scenes, so the fault-free fast path costs one branch and allocates
/// nothing — which is what makes the "no faults ⇒ bit-identical reports"
/// contract trivial to uphold.
///
/// Use [`Faults::with_salt`] to derive a per-commit handle: decisions stay
/// independent of which worker processes the commit or in what order,
/// because the salt (not the schedule) distinguishes commits.
#[derive(Clone, Default)]
pub struct Faults {
    plan: Option<Arc<FaultPlan>>,
}

impl fmt::Debug for Faults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.plan {
            None => f.write_str("Faults(disabled)"),
            Some(p) => write!(f, "Faults({}, seed {}, salt {})", p.spec, p.seed, p.salt),
        }
    }
}

impl Faults {
    /// A handle that never injects anything.  This is the default wired
    /// into every pipeline component.
    pub fn disabled() -> Faults {
        Faults { plan: None }
    }

    /// Build an active handle from a spec and a seed.  An all-zero spec
    /// returns a disabled handle (so `--faults transient:0` is genuinely
    /// free, not just quiet).
    pub fn new(spec: FaultSpec, seed: u64) -> Faults {
        if spec.is_empty() {
            return Faults::disabled();
        }
        Faults {
            plan: Some(Arc::new(FaultPlan {
                spec,
                seed,
                salt: 0,
                policy: RetryPolicy::default(),
                stats: Arc::new(FaultStats::default()),
            })),
        }
    }

    /// Derive a handle whose decisions are additionally keyed by `salt`
    /// (the driver uses a hash of the commit id), sharing this handle's
    /// stats.  Disabled handles stay disabled.
    pub fn with_salt(&self, salt: u64) -> Faults {
        match &self.plan {
            None => Faults::disabled(),
            Some(p) => Faults {
                plan: Some(Arc::new(FaultPlan {
                    spec: p.spec,
                    seed: p.seed,
                    salt,
                    policy: p.policy,
                    stats: Arc::clone(&p.stats),
                })),
            },
        }
    }

    /// True when a non-empty spec is loaded.
    pub fn is_enabled(&self) -> bool {
        self.plan.is_some()
    }

    /// The shared counters, if enabled.
    pub fn stats(&self) -> Option<Arc<FaultStats>> {
        self.plan.as_ref().map(|p| Arc::clone(&p.stats))
    }

    /// Shorthand: snapshot of the shared counters (zeroes when disabled).
    pub fn stats_snapshot(&self) -> FaultStatsSnapshot {
        match &self.plan {
            None => FaultStatsSnapshot::default(),
            Some(p) => p.stats.snapshot(),
        }
    }

    /// Decide whether a fault fires for attempt `attempt` (0-based) of the
    /// operation identified by `identity` at `site`.
    ///
    /// The decision is a pure function of
    /// `(seed, salt, site, identity, attempt, kind)` — scheduling, worker
    /// count, and cache mode cannot change it.  Kinds are tested in
    /// [`FaultKind::ALL`] order and the first whose hash falls under its
    /// configured rate wins.  Kinds a site does not admit (see
    /// [`FaultKind`]) are skipped.  Each injected fault is counted in the
    /// shared [`FaultStats`].
    pub fn decide(&self, site: FaultSite, identity: &str, attempt: u32) -> Option<FaultKind> {
        let plan = self.plan.as_ref()?;
        for kind in FaultKind::ALL {
            let rate = plan.spec.rate(kind);
            if rate <= 0.0 || !site.admits(kind) {
                continue;
            }
            let mut h = Fnv::new();
            h.write_u64(plan.seed);
            h.write_u64(plan.salt);
            h.write_u64(site.index());
            h.write_bytes(identity.as_bytes());
            h.write_u64(attempt as u64);
            h.write_u64(kind.index() as u64);
            if h.unit_interval() < rate {
                plan.stats.record_injected(kind);
                return Some(kind);
            }
        }
        None
    }

    /// Consult the plan before one operation at `site` and run its
    /// bounded-retry recovery. Returns `Ok(())` when the operation should
    /// run, or `Err(attempts)` when every attempt failed and the caller
    /// must degrade.
    ///
    /// A transient fault fails the attempt; a hang fails it after the
    /// per-unit timeout. Each failed attempt but the last is followed by
    /// exponential backoff. A latency spike lets the attempt succeed
    /// late. `advance` receives every recovery delay (spike, timeout,
    /// backoff): the build engine charges them to its virtual clock
    /// without minting a Fig. 4 sample, and host stages, which have no
    /// clock, ignore them. `retry` and `timeout` spans carry their delay
    /// as virtual µs and `identity` as their file label when it is
    /// non-empty.
    ///
    /// A disabled plan returns at once, so fault-free runs pay one branch.
    pub fn gate(
        &self,
        site: FaultSite,
        identity: &str,
        tracer: &Tracer,
        mut advance: impl FnMut(u64),
    ) -> Result<(), u32> {
        let Some(plan) = &self.plan else {
            return Ok(());
        };
        let policy = plan.policy;
        let stats = &plan.stats;
        let span = |stage, us| {
            let mut span = tracer.span(stage);
            if !identity.is_empty() {
                span = span.with_file(identity);
            }
            span.set_virtual_us(us);
        };
        let mut attempt = 0u32;
        loop {
            match self.decide(site, identity, attempt) {
                None => return Ok(()),
                Some(FaultKind::Latency) => {
                    advance(policy.latency_spike_us);
                    return Ok(());
                }
                Some(kind @ (FaultKind::Transient | FaultKind::Hang)) => {
                    if kind == FaultKind::Hang {
                        // The attempt hangs; the per-unit timeout cancels
                        // it after consuming its virtual budget.
                        advance(policy.timeout_us);
                        span(Stage::Timeout, policy.timeout_us);
                        stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    attempt += 1;
                    if attempt >= policy.max_attempts {
                        stats.exhausted.fetch_add(1, Ordering::Relaxed);
                        return Err(attempt);
                    }
                    let backoff = policy.backoff_us(attempt - 1);
                    advance(backoff);
                    span(Stage::Retry, backoff);
                    stats.retries.fetch_add(1, Ordering::Relaxed);
                }
                Some(FaultKind::Corrupt) => {
                    unreachable!("corrupt faults only fire at cache-lookup sites")
                }
            }
        }
    }
}

/// FNV-1a with a final avalanche, giving a well-mixed 64-bit value whose
/// top 53 bits we map onto `[0, 1)`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn unit_interval(&self) -> f64 {
        // splitmix-style finalizer: FNV alone is weak in the high bits.
        let mut z = self.0;
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_issue_grammar() {
        let s = FaultSpec::parse("transient:0.2,corrupt:0.1, hang:0.05 ,latency:1").unwrap();
        assert_eq!(s.rate(FaultKind::Transient), 0.2);
        assert_eq!(s.rate(FaultKind::Corrupt), 0.1);
        assert_eq!(s.rate(FaultKind::Hang), 0.05);
        assert_eq!(s.rate(FaultKind::Latency), 1.0);
        assert_eq!(
            s.to_string(),
            "transient:0.2,latency:1,corrupt:0.1,hang:0.05"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("transient").is_err());
        assert!(FaultSpec::parse("cosmic-ray:0.1").is_err());
        assert!(FaultSpec::parse("transient:-0.1").is_err());
        assert!(FaultSpec::parse("transient:1.01").is_err());
        assert!(FaultSpec::parse("transient:lots").is_err());
        assert!(FaultSpec::parse("").unwrap().is_empty());
    }

    #[test]
    fn zero_spec_degenerates_to_disabled() {
        let f = Faults::new(FaultSpec::parse("transient:0").unwrap(), 1);
        assert!(!f.is_enabled());
        assert_eq!(f.decide(FaultSite::MakeO, "x", 0), None);
    }

    #[test]
    fn decisions_are_deterministic_and_identity_sensitive() {
        let spec = FaultSpec::default().with_rate(FaultKind::Transient, 0.5);
        let a = Faults::new(spec, 42);
        let b = Faults::new(spec, 42);
        let mut differs = false;
        for i in 0..256 {
            let id = format!("file-{i}.c");
            let da = a.decide(FaultSite::MakeI, &id, 0);
            assert_eq!(da, b.decide(FaultSite::MakeI, &id, 0));
            if da != a.decide(FaultSite::MakeI, &format!("file-{}.c", i + 1), 0) {
                differs = true;
            }
        }
        assert!(differs, "a 0.5 rate must not treat all identities alike");
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let always = Faults::new(FaultSpec::default().with_rate(FaultKind::Hang, 1.0), 9);
        let never = Faults::new(FaultSpec::default().with_rate(FaultKind::Hang, 0.0), 9);
        for attempt in 0..8 {
            assert_eq!(
                always.decide(FaultSite::ConfigSolve, "cfg", attempt),
                Some(FaultKind::Hang)
            );
            assert!(!never.is_enabled());
        }
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let f = Faults::new(
            FaultSpec::default().with_rate(FaultKind::Transient, 0.3),
            1234,
        );
        let n = 4000;
        let mut hits = 0;
        for i in 0..n {
            if f.decide(FaultSite::MakeO, &format!("obj-{i}"), 0).is_some() {
                hits += 1;
            }
        }
        let observed = hits as f64 / n as f64;
        assert!(
            (observed - 0.3).abs() < 0.05,
            "observed {observed}, wanted ~0.3"
        );
        assert_eq!(f.stats_snapshot().injected_transient, hits);
    }

    #[test]
    fn sites_gate_kinds() {
        let spec = FaultSpec::default()
            .with_rate(FaultKind::Corrupt, 1.0)
            .with_rate(FaultKind::Transient, 1.0);
        let f = Faults::new(spec, 5);
        assert_eq!(
            f.decide(FaultSite::CacheLookup, "k", 0),
            Some(FaultKind::Corrupt)
        );
        assert_eq!(
            f.decide(FaultSite::MakeI, "k", 0),
            Some(FaultKind::Transient)
        );
        // MakeI admits no corruption even at rate 1.0.
        let corrupt_only = Faults::new(FaultSpec::default().with_rate(FaultKind::Corrupt, 1.0), 5);
        assert_eq!(corrupt_only.decide(FaultSite::MakeI, "k", 0), None);
    }

    #[test]
    fn salt_changes_decisions_but_shares_stats() {
        let spec = FaultSpec::default().with_rate(FaultKind::Transient, 0.5);
        let base = Faults::new(spec, 77);
        let a = base.with_salt(1);
        let b = base.with_salt(2);
        let mut differs = false;
        for i in 0..128 {
            let id = format!("u{i}");
            if a.decide(FaultSite::Show, &id, 0) != b.decide(FaultSite::Show, &id, 0) {
                differs = true;
            }
        }
        assert!(differs, "different salts must decide independently");
        let total = base.stats_snapshot().injected_transient;
        assert_eq!(a.stats_snapshot().injected_transient, total);
        assert!(total > 0);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_us(0), 250_000);
        assert_eq!(p.backoff_us(1), 500_000);
        assert_eq!(p.backoff_us(3), 2_000_000);
        // No overflow panic for absurd attempt numbers.
        let _ = p.backoff_us(200);
    }
}
