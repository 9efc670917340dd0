//! One content-addressed store behind the configuration, object and
//! preprocess caches.
//!
//! Every cross-patch cache in this crate memoizes a pure function of its
//! key: the key pins everything the value depends on, so an entry never
//! changes once inserted, the first insert wins a race, and a later
//! identical insert is dropped. [`Store`] implements that discipline once
//! — sixteen `RwLock` shards, hit/miss counters, shard quarantine, and
//! the snapshot the disk tier persists — over an [`Entry`] type that
//! supplies only what differs between caches: its key and shard bits, an
//! optional integrity check, and its on-disk section, magic, file-name
//! digest and codec.
//!
//! Stores are a **host-side** optimization: engines charge the virtual
//! clock the same on a hit as on a miss, so every report is
//! byte-identical with any store on or off.

use crate::arch::ArchRegistry;
use jmake_faults::{FaultKind, FaultSite, Faults};
use jmake_trace::CacheOutcome;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of independent lock shards; [`Entry::shard_bits`] spreads keys
/// so concurrent workers rarely contend.
const SHARDS: usize = 16;

/// One kind of stored value: everything [`Store`] and the disk tier
/// ([`crate::DiskCache`]) need to know about it.
pub trait Entry: Sized + Send + Sync + 'static {
    /// Everything the value depends on.
    type Key: Clone + Eq + Hash + Send + Sync;
    /// Directory holding this type's entry files under a disk tier root.
    const SECTION: &'static str;
    /// First line of every entry file in [`Entry::SECTION`].
    const MAGIC: &'static str;

    /// Bits choosing the key's shard (taken modulo the shard count).
    fn shard_bits(key: &Self::Key) -> u64;
    /// Stable digest naming the key's entry file on disk.
    fn key_digest(key: &Self::Key) -> u64;
    /// Serialize one key and value as a disk payload.
    fn encode(key: &Self::Key, value: &Self) -> Vec<u8>;
    /// Parse a payload [`Entry::encode`] wrote. Malformed input of any
    /// shape is an `Err` reason, never a panic.
    fn decode(payload: &[u8], registry: &ArchRegistry) -> Result<(Self::Key, Self), String>;

    /// Integrity digest recorded at insert and recomputed on every hit;
    /// `None` (the default) serves hits unchecked.
    fn digest(&self) -> Option<u64> {
        None
    }
    /// The name the fault plan keys a simulated corruption of this key's
    /// hits on (only consulted for entries with a [`Entry::digest`]).
    /// Defaults to the key's entry-file name, the name disk loads use.
    fn fault_identity(key: &Self::Key) -> String {
        format!("{:016x}", Self::key_digest(key))
    }
    /// True when the value memoizes a failure (a *negative* entry).
    fn is_negative(&self) -> bool {
        false
    }
}

/// Counters of one store, cheap to copy into driver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// The subset of hits that returned a memoized failure.
    pub negative_hits: u64,
    /// Distinct entries currently held.
    pub entries: u64,
    /// Hits whose integrity digest failed verification (only ever
    /// non-zero under injected corruption); each counts as a miss.
    pub corruptions_detected: u64,
    /// Shards flushed and taken out of service after serving corruption.
    pub quarantined_shards: u64,
}

impl StoreStats {
    /// Fraction of lookups served from the store, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The `--stats` line body: hit rate, then hits (with their negative
    /// share when `negatives`), misses and entries.
    pub fn render(&self, negatives: bool) -> String {
        let negative = if negatives {
            format!(" of which {} negative", self.negative_hits)
        } else {
            String::new()
        };
        format!(
            "{:>8.1}% hit rate  ({} hits{negative}, {} misses, {} entries)",
            self.hit_rate() * 100.0,
            self.hits,
            self.misses,
            self.entries
        )
    }
}

/// What one [`Store::lookup`] found.
pub enum Lookup<E> {
    /// A stored (and, where the type checks hits, verified) value.
    Hit(Arc<E>),
    /// Nothing usable: absent, in a quarantined shard, or corrupt.
    Miss,
    /// A corrupt value whose shard *this* lookup flushed and took out of
    /// service. Counts as a miss.
    Quarantined,
}

impl<E> Lookup<E> {
    /// The outcome as counted, for tracing: a corrupt value is a miss,
    /// because the caller must recompute.
    pub fn outcome(&self) -> CacheOutcome {
        match self {
            Lookup::Hit(_) => CacheOutcome::Hit,
            Lookup::Miss | Lookup::Quarantined => CacheOutcome::Miss,
        }
    }

    /// The value, on a hit.
    pub fn entry(self) -> Option<Arc<E>> {
        match self {
            Lookup::Hit(value) => Some(value),
            Lookup::Miss | Lookup::Quarantined => None,
        }
    }
}

/// The digest a store or disk tier *serves* for one recorded `digest`:
/// perturbed when the fault plan corrupts this read of `identity`
/// (simulated wire or media rot), so the caller's check against a
/// recomputed digest catches it, as a content-hash check over corrupted
/// bytes would.
pub(crate) fn served_digest(
    digest: u64,
    faults: &Faults,
    identity: impl FnOnce() -> String,
) -> u64 {
    let corrupt = faults.is_enabled()
        && faults.decide(FaultSite::CacheLookup, &identity(), 0) == Some(FaultKind::Corrupt);
    if corrupt {
        digest ^ 0xdead_beef_dead_beef
    } else {
        digest
    }
}

/// One lock shard: each key's value plus the integrity digest recorded
/// when it was inserted.
type Shard<E> = RwLock<HashMap<<E as Entry>::Key, (Option<u64>, Arc<E>)>>;

/// A thread-safe, content-addressed, first-insert-wins map shared across
/// the build engines of a run (and persisted by the disk tier between
/// runs).
pub struct Store<E: Entry> {
    shards: [Shard<E>; SHARDS],
    quarantined: [AtomicBool; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    negative_hits: AtomicU64,
    corruptions: AtomicU64,
    quarantines: AtomicU64,
}

impl<E: Entry> Default for Store<E> {
    fn default() -> Self {
        Store {
            shards: Default::default(),
            quarantined: Default::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            negative_hits: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        }
    }
}

impl<E: Entry> fmt::Debug for Store<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Store<{}>({:?})", E::SECTION, self.stats())
    }
}

impl<E: Entry> Store<E> {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// The key's shard, or `None` once that shard is quarantined.
    fn shard(&self, key: &E::Key) -> Option<(usize, &Shard<E>)> {
        let idx = E::shard_bits(key) as usize % SHARDS;
        (!self.quarantined[idx].load(Ordering::Acquire)).then(|| (idx, &self.shards[idx]))
    }

    /// Look up a value and count a hit or a miss (plus a negative hit
    /// when the value memoizes a failure). For types with an
    /// [`Entry::digest`] the recorded digest is re-verified; under an
    /// injected [`FaultKind::Corrupt`] the served digest is perturbed,
    /// the mismatch is detected, and the key's whole shard is flushed and
    /// **quarantined**: later lookups and peeks miss and inserts are
    /// dropped. The caller recomputes, and because a hit charges the
    /// virtual clock exactly what a miss does, reports stay identical.
    pub fn lookup(&self, key: &E::Key, faults: &Faults) -> Lookup<E> {
        let found = self.shard(key).and_then(|(idx, shard)| {
            let guard = shard.read().expect("store shard poisoned");
            guard
                .get(key)
                .map(|(digest, value)| (idx, *digest, Arc::clone(value)))
        });
        let Some((idx, stored, value)) = found else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        };
        if let Some(stored) = stored {
            let served = served_digest(stored, faults, || E::fault_identity(key));
            if value.digest() != Some(served) {
                return self.quarantine(idx, faults);
            }
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        if value.is_negative() {
            self.negative_hits.fetch_add(1, Ordering::Relaxed);
        }
        Lookup::Hit(value)
    }

    /// Count a detected corruption in shard `idx` and, unless a racing
    /// lookup already did, flush the shard and take it out of service.
    fn quarantine(&self, idx: usize, faults: &Faults) -> Lookup<E> {
        self.corruptions.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let now = !self.quarantined[idx].swap(true, Ordering::AcqRel);
        if now {
            self.quarantines.fetch_add(1, Ordering::Relaxed);
            self.shards[idx]
                .write()
                .expect("store shard poisoned")
                .clear();
        }
        if let Some(stats) = faults.stats() {
            stats.corruptions_detected.fetch_add(1, Ordering::Relaxed);
            if now {
                stats.quarantined_shards.fetch_add(1, Ordering::Relaxed);
            }
        }
        if now {
            Lookup::Quarantined
        } else {
            Lookup::Miss
        }
    }

    /// Look without touching any counter, so inspecting the store leaves
    /// its statistics describing only the engines' lookups (which tracing
    /// reconciles per span). A quarantined shard answers `None`.
    pub fn peek(&self, key: &E::Key) -> Option<Arc<E>> {
        let (_, shard) = self.shard(key)?;
        let guard = shard.read().expect("store shard poisoned");
        guard.get(key).map(|(_, value)| Arc::clone(value))
    }

    /// Store a value. The first writer wins a race; later values under
    /// the same key are dropped, as is anything aimed at a quarantined
    /// shard.
    pub fn insert(&self, key: E::Key, value: Arc<E>) {
        if let Some((_, shard)) = self.shard(&key) {
            let digest = value.digest();
            let mut guard = shard.write().expect("store shard poisoned");
            guard.entry(key).or_insert((digest, value));
        }
    }

    /// Number of distinct entries held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("store shard poisoned").len())
            .sum()
    }

    /// True when nothing is stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry held, in unspecified order. Quarantined shards were
    /// flushed and contribute nothing, so corruption never leaks out
    /// through persistence.
    pub fn snapshot(&self) -> Vec<(E::Key, Arc<E>)> {
        let mut out = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            if self.quarantined[idx].load(Ordering::Acquire) {
                continue;
            }
            let guard = shard.read().expect("store shard poisoned");
            out.extend(guard.iter().map(|(k, (_, v))| (k.clone(), Arc::clone(v))));
        }
        out
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            entries: self.len() as u64,
            corruptions_detected: self.corruptions.load(Ordering::Relaxed),
            quarantined_shards: self.quarantines.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmake_faults::FaultSpec;

    /// A minimal entry type: hits are checked like object entries, and an
    /// empty value memoizes a failure.
    #[derive(Debug)]
    struct Probe(&'static str);

    impl Entry for Probe {
        type Key = u64;
        const SECTION: &'static str = "probes";
        const MAGIC: &'static str = "probe";

        fn shard_bits(key: &u64) -> u64 {
            *key
        }

        fn key_digest(key: &u64) -> u64 {
            *key
        }

        fn encode(_: &u64, _: &Self) -> Vec<u8> {
            Vec::new()
        }

        fn decode(_: &[u8], _: &ArchRegistry) -> Result<(u64, Self), String> {
            Err("probes are never persisted".to_string())
        }

        fn digest(&self) -> Option<u64> {
            Some(self.0.len() as u64)
        }

        fn is_negative(&self) -> bool {
            self.0.is_empty()
        }
    }

    fn hit(found: Lookup<Probe>) -> &'static str {
        found.entry().expect("a hit").0
    }

    #[test]
    fn lookups_count_hits_misses_and_negative_hits() {
        let store = Store::<Probe>::new();
        let off = Faults::disabled();
        assert!(store.is_empty());
        assert_eq!(store.lookup(&1, &off).outcome(), CacheOutcome::Miss);
        store.insert(1, Arc::new(Probe("")));
        store.insert(2, Arc::new(Probe("ok")));
        assert_eq!(hit(store.lookup(&1, &off)), "");
        assert_eq!(store.lookup(&2, &off).outcome(), CacheOutcome::Hit);
        assert!(store.lookup(&3, &off).entry().is_none());
        let stats = store.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.negative_hits, stats.entries),
            (2, 2, 1, 2)
        );
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(stats.corruptions_detected, 0);
    }

    #[test]
    fn first_insert_wins_and_peek_does_not_count() {
        let store = Store::<Probe>::new();
        assert!(store.peek(&1).is_none());
        store.insert(1, Arc::new(Probe("first")));
        store.insert(1, Arc::new(Probe("second")));
        assert_eq!(store.peek(&1).unwrap().0, "first");
        assert_eq!(store.len(), 1);
        assert_eq!(store.snapshot().len(), 1);
        assert_eq!(
            store.stats(),
            StoreStats {
                entries: 1,
                ..StoreStats::default()
            }
        );
    }

    #[test]
    fn corrupt_lookup_flushes_and_quarantines_the_shard() {
        let store = Store::<Probe>::new();
        let neighbour = 1 + SHARDS as u64;
        store.insert(1, Arc::new(Probe("x")));
        store.insert(neighbour, Arc::new(Probe("y")));
        store.insert(2, Arc::new(Probe("z")));
        let faults = Faults::new(FaultSpec::default().with_rate(FaultKind::Corrupt, 1.0), 3);
        assert!(matches!(store.lookup(&1, &faults), Lookup::Quarantined));
        // The whole shard is out of service: lookups miss without
        // consulting the fault plan again, peeks see nothing, inserts are
        // dropped, and persistence skips it. Other shards still serve.
        assert!(matches!(store.lookup(&neighbour, &faults), Lookup::Miss));
        assert!(store.peek(&1).is_none());
        store.insert(1, Arc::new(Probe("x")));
        assert!(store.peek(&1).is_none());
        assert_eq!(store.snapshot().len(), 1);
        assert_eq!(hit(store.lookup(&2, &Faults::disabled())), "z");
        let stats = store.stats();
        assert_eq!(
            (stats.corruptions_detected, stats.quarantined_shards),
            (1, 1)
        );
        assert_eq!((stats.hits, stats.misses), (1, 2));
        // The shared fault counters mirror the detection.
        let snap = faults.stats_snapshot();
        assert_eq!(snap.corruptions_detected, 1);
        assert_eq!(snap.quarantined_shards, 1);
        assert_eq!(snap.injected_corrupt, 1);
    }

    #[test]
    fn stats_render_for_the_run_summary() {
        let stats = StoreStats {
            hits: 3,
            misses: 1,
            negative_hits: 2,
            entries: 4,
            ..StoreStats::default()
        };
        assert_eq!(
            stats.render(true),
            "    75.0% hit rate  (3 hits of which 2 negative, 1 misses, 4 entries)"
        );
        assert_eq!(
            stats.render(false),
            "    75.0% hit rate  (3 hits, 1 misses, 4 entries)"
        );
    }
}
