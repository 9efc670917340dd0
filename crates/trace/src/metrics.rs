//! In-memory per-stage histograms built from completed spans.

use crate::{CacheOutcome, SpanRecord, Stage};
use std::collections::BTreeMap;

/// Accumulated measurements for one stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageMetrics {
    /// Every host-clock duration, in arrival order (sorted on demand for
    /// quantiles).
    host_us: Vec<u64>,
    host_total_us: u64,
    virtual_total_us: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_local: u64,
}

impl StageMetrics {
    fn record(&mut self, record: &SpanRecord) {
        self.host_us.push(record.host_us);
        self.host_total_us += record.host_us;
        self.virtual_total_us += record.virtual_us;
        match record.cache {
            Some(CacheOutcome::Hit) => self.cache_hits += 1,
            Some(CacheOutcome::Miss) => self.cache_misses += 1,
            Some(CacheOutcome::Local) => self.cache_local += 1,
            Some(CacheOutcome::Off) | None => {}
        }
    }

    /// Number of spans recorded for this stage.
    pub fn count(&self) -> u64 {
        self.host_us.len() as u64
    }

    /// Sum of host-clock durations across all spans, in microseconds.
    pub fn host_total_us(&self) -> u64 {
        self.host_total_us
    }

    /// Sum of virtual-clock charges across all spans, in microseconds.
    pub fn virtual_total_us(&self) -> u64 {
        self.virtual_total_us
    }

    /// Shared-cache hits observed on this stage's spans.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Shared-cache misses observed on this stage's spans.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Engine-local memo hits (shared cache never consulted).
    pub fn cache_local(&self) -> u64 {
        self.cache_local
    }

    /// Ceil nearest-rank quantile of the host durations (same convention as
    /// `Cdf::quantile` in jmake-kbuild; both call
    /// [`crate::quantile::ceil_nearest_rank`]). Zero when no samples.
    pub fn host_quantile_us(&self, q: f64) -> u64 {
        let mut sorted = self.host_us.clone();
        sorted.sort_unstable();
        crate::quantile::ceil_nearest_rank(&sorted, q)
    }

    /// Largest single host-clock duration, in microseconds.
    pub fn host_max_us(&self) -> u64 {
        self.host_us.iter().copied().max().unwrap_or(0)
    }
}

/// Per-stage histograms for one tracer. Cloneable snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    stages: BTreeMap<Stage, StageMetrics>,
}

impl Metrics {
    pub(crate) fn record(&mut self, record: &SpanRecord) {
        if let Some(stage) = record.stage {
            self.stages.entry(stage).or_default().record(record);
        }
    }

    /// All stages with at least one recorded span, in pipeline order.
    pub fn stages(&self) -> &BTreeMap<Stage, StageMetrics> {
        &self.stages
    }

    /// Measurements for one stage, if any span of it was recorded.
    pub fn stage(&self, stage: Stage) -> Option<&StageMetrics> {
        self.stages.get(&stage)
    }

    /// Total host time recorded for `stage` (0 when absent).
    pub fn host_total_us(&self, stage: Stage) -> u64 {
        self.stage(stage).map_or(0, StageMetrics::host_total_us)
    }

    /// Total virtual time recorded for `stage` (0 when absent).
    pub fn virtual_total_us(&self, stage: Stage) -> u64 {
        self.stage(stage).map_or(0, StageMetrics::virtual_total_us)
    }

    /// Shared-cache hits and misses over `config_solve` spans. Engine-local
    /// memo hits are excluded so this matches the config store's
    /// `StoreStats` exactly.
    pub fn cache_hits_misses(&self) -> (u64, u64) {
        match self.stage(Stage::ConfigSolve) {
            None => (0, 0),
            Some(s) => (s.cache_hits(), s.cache_misses()),
        }
    }

    /// Shared-cache hit rate in [0, 1]; 0 when the cache was never consulted.
    pub fn cache_hit_rate(&self) -> f64 {
        let (hits, misses) = self.cache_hits_misses();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Human-readable per-stage breakdown, one row per recorded stage.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("per-stage trace metrics (host = wall clock, virtual = simulated)\n");
        out.push_str(&format!(
            "  {:<14} {:>8} {:>10} {:>10} {:>10} {:>14} {:>16}\n",
            "stage", "count", "p50 us", "p90 us", "max us", "host total us", "virt total us"
        ));
        for stage in Stage::ALL {
            let Some(s) = self.stage(stage) else { continue };
            out.push_str(&format!(
                "  {:<14} {:>8} {:>10} {:>10} {:>10} {:>14} {:>16}\n",
                stage.name(),
                s.count(),
                s.host_quantile_us(0.5),
                s.host_quantile_us(0.9),
                s.host_max_us(),
                s.host_total_us(),
                s.virtual_total_us(),
            ));
        }
        let (hits, misses) = self.cache_hits_misses();
        let local = self
            .stage(Stage::ConfigSolve)
            .map_or(0, StageMetrics::cache_local);
        out.push_str(&format!(
            "  config cache: {:.1}% hit rate ({hits} hits, {misses} misses, {local} local memo)\n",
            self.cache_hit_rate() * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(stage: Stage, host_us: u64, virtual_us: u64, cache: Option<CacheOutcome>) -> SpanRecord {
        SpanRecord {
            stage: Some(stage),
            host_us,
            virtual_us,
            cache,
            ..SpanRecord::default()
        }
    }

    #[test]
    fn totals_and_quantiles_accumulate() {
        let mut m = Metrics::default();
        for (host, virt) in [(10, 100), (20, 200), (30, 300), (40, 400)] {
            m.record(&record(Stage::BuildO, host, virt, None));
        }
        let s = m.stage(Stage::BuildO).unwrap();
        assert_eq!(s.count(), 4);
        assert_eq!(s.host_total_us(), 100);
        assert_eq!(s.virtual_total_us(), 1000);
        assert_eq!(s.host_quantile_us(0.5), 20);
        assert_eq!(s.host_quantile_us(0.9), 40);
        assert_eq!(s.host_max_us(), 40);
    }

    #[test]
    fn host_quantile_matches_shared_helper() {
        // StageMetrics must agree with the shared ceil nearest-rank helper
        // (and therefore with Cdf::quantile) on every q.
        let samples = [5u64, 1, 3, 9, 9, 2, 8];
        let mut m = Metrics::default();
        for &host in &samples {
            m.record(&record(Stage::BuildI, host, 0, None));
        }
        let s = m.stage(Stage::BuildI).unwrap();
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            assert_eq!(
                s.host_quantile_us(q),
                crate::quantile::ceil_nearest_rank(&sorted, q),
                "q={q}"
            );
        }
    }

    #[test]
    fn hit_rate_excludes_local_memo() {
        let mut m = Metrics::default();
        m.record(&record(Stage::ConfigSolve, 1, 1, Some(CacheOutcome::Hit)));
        m.record(&record(Stage::ConfigSolve, 1, 1, Some(CacheOutcome::Miss)));
        m.record(&record(Stage::ConfigSolve, 1, 1, Some(CacheOutcome::Local)));
        m.record(&record(Stage::ConfigSolve, 1, 1, Some(CacheOutcome::Local)));
        assert_eq!(m.cache_hits_misses(), (1, 1));
        assert!((m.cache_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn render_lists_only_recorded_stages() {
        let mut m = Metrics::default();
        m.record(&record(Stage::Checkout, 5, 0, None));
        let text = m.render();
        assert!(text.contains("checkout"));
        assert!(!text.contains("build_o"));
        assert!(text.contains("config cache"));
    }
}
