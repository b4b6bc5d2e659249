//! A sharded, concurrent decision cache keyed by [`CanonKey`]s.
//!
//! The engine ([`crate::engine::Engine::decide`],
//! [`crate::engine::Engine::solve_batch`]) answers streams of
//! implication questions in which many instances are disguised copies of
//! each other. Once one copy is decided, every other copy has — provably —
//! the same verdict: the question is invariant under renaming symbols,
//! reordering equations, swapping an equation's sides and repeating an
//! equation, which is exactly the equivalence the engine's presentation
//! key ([`crate::engine::Engine::canonical_key`]) quotients by. The cache
//! stores one [`CachedOutcome`] per key, so a verdict is computed once per
//! class per process.
//!
//! Only **settled** verdicts (`Implied` / `Refuted`) are cached. `Unknown`
//! is a statement about the *budgets* of one particular call, not about the
//! instance — a later call with larger budgets might settle it — so caching
//! it would wrongly freeze a transient answer. (Within a single batch call,
//! where budgets are fixed, [`crate::engine::Engine::solve_batch`] still dedups
//! `Unknown` work through its own per-call bookkeeping.)
//!
//! The map is sharded `N` ways, each shard an independent
//! `RwLock<HashMap>`: readers of different keys proceed in parallel and
//! writers only contend within one shard. Plain standard-library locks — no
//! external dependencies.
//!
//! # Bounded residency
//!
//! A long-lived engine serves an unbounded stream of distinct keys, so the
//! cache is **capacity-bounded**: each shard holds at most
//! [`DecisionCache::shard_capacity`] entries and evicts its oldest entry
//! (FIFO insertion order) to make room for a new key. Eviction is purely a
//! residency decision — a verdict is a theorem about a class of
//! questions and never goes stale, so evicting one costs a re-solve, not
//! correctness. The cumulative eviction count is exposed via
//! [`DecisionCache::evictions`] and surfaced in the batch and engine
//! stats; the default capacity ([`DEFAULT_SHARD_CAPACITY`] per shard) is
//! generous enough that one-shot and test workloads never evict.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use td_core::canon::CanonKey;

use crate::pipeline::SpendReport;

/// Default per-shard entry capacity: with the default 16 shards, about one
/// million resident verdicts (~100 bytes each) before eviction starts —
/// generous for anything short of a very long-lived server.
pub const DEFAULT_SHARD_CAPACITY: usize = 65_536;

/// A settled verdict, compressed to the numbers a batch report needs (the
/// full certificates stay with the [`crate::pipeline::PipelineRun`] that
/// produced them; replaying a cached hit does not rebuild them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedVerdict {
    /// `D ⊨ D₀`: a derivation of the given length was found and compiled
    /// into a chase proof with the given number of firings.
    Implied {
        /// Steps of the word-problem derivation.
        derivation_steps: usize,
        /// Firings of the compiled part (A) chase proof.
        proof_firings: usize,
    },
    /// `D ⊭ D₀` over finite databases: a countermodel with the given
    /// number of rows exists.
    Refuted {
        /// Rows of the part (B) countermodel.
        model_rows: usize,
    },
}

/// What the cache remembers per key: the settled verdict plus
/// the spent-budget provenance of the run that settled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedOutcome {
    /// The settled verdict.
    pub verdict: CachedVerdict,
    /// Spend accounting of the solving run (winner exact, loser labelled
    /// truncated — see [`SpendReport`]).
    pub spend: SpendReport,
}

/// One resident entry: the outcome plus the sequence number of the insert
/// that gave the key its current FIFO slot. The sequence number is what
/// makes lazy deletion sound: an `order` entry is live exactly when its
/// `(seq, key)` pair matches the map — a removed-then-reinserted key leaves
/// a stale pair behind that eviction and export both skip.
#[derive(Debug, Clone, Copy)]
struct Entry {
    outcome: CachedOutcome,
    seq: u64,
}

/// One lock domain: the key→outcome map plus the FIFO insertion order its
/// evictions follow.
///
/// [`DecisionCache::remove`] is **lazy**: it drops the map entry in O(1)
/// and leaves the `(seq, key)` pair in `order` as a tombstone, counted in
/// `tombstones`. Eviction pops skip tombstones without charging the
/// eviction counter, and the queue is compacted (drop every stale pair)
/// whenever tombstones outnumber live entries — so `order` stays within a
/// constant factor of the resident population and the amortized cost of
/// every operation is O(1). The previous implementation scanned `order`
/// under the write lock on every remove, which made session-invalidation
/// churn quadratic per shard and stalled all readers of that shard.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CanonKey, Entry>,
    /// `(seq, key)` pairs in insertion order. Overwrites keep the original
    /// position — they refresh provenance, not residency.
    order: VecDeque<(u64, CanonKey)>,
    /// Stale pairs currently in `order` (their key was removed, or removed
    /// and later reinserted under a newer sequence number).
    tombstones: usize,
    /// Next insertion sequence number (per shard).
    next_seq: u64,
}

impl Shard {
    /// `true` when the `order` pair at hand still names a resident entry.
    fn is_live(&self, seq: u64, key: CanonKey) -> bool {
        self.map.get(&key).is_some_and(|e| e.seq == seq)
    }

    /// Drops every tombstone from `order` once they outnumber the live
    /// entries: O(len) now, amortized O(1) per preceding remove.
    fn maybe_compact(&mut self) {
        if self.tombstones > self.map.len() {
            let map = &self.map;
            self.order
                .retain(|&(seq, key)| map.get(&key).is_some_and(|e| e.seq == seq));
            self.tombstones = 0;
        }
    }
}

/// A sharded `CanonKey → CachedOutcome` map, safe to share across the
/// batch worker threads by reference, with per-shard FIFO eviction once a
/// shard reaches its capacity.
#[derive(Debug)]
pub struct DecisionCache {
    shards: Vec<RwLock<Shard>>,
    shard_capacity: usize,
    evictions: AtomicU64,
}

impl Default for DecisionCache {
    /// 16 shards: comfortably more than the worker counts the batch
    /// pipeline uses, so writer contention stays negligible. Capacity is
    /// the generous [`DEFAULT_SHARD_CAPACITY`].
    fn default() -> Self {
        Self::new(16)
    }
}

impl DecisionCache {
    /// Creates a cache with `shards` independent lock domains (clamped to
    /// at least 1) and the default per-shard capacity.
    pub fn new(shards: usize) -> Self {
        Self::with_capacity(shards, DEFAULT_SHARD_CAPACITY)
    }

    /// Creates a cache with `shards` lock domains, each holding at most
    /// `shard_capacity` entries (both clamped to at least 1). The total
    /// residency bound is `shards * shard_capacity`.
    pub fn with_capacity(shards: usize, shard_capacity: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| RwLock::default()).collect(),
            shard_capacity: shard_capacity.max(1),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: CanonKey) -> &RwLock<Shard> {
        let ix = (key.fold64() % self.shards.len() as u64) as usize;
        &self.shards[ix]
    }

    /// Looks up a settled verdict.
    pub fn get(&self, key: CanonKey) -> Option<CachedOutcome> {
        self.shard(key)
            .read()
            .expect("cache shard lock poisoned")
            .map
            .get(&key)
            .map(|e| e.outcome)
    }

    /// Records a settled verdict. A later insert for the same key
    /// overwrites the earlier one; both describe the same class of
    /// questions, so the verdicts agree and only the provenance can differ.
    /// Inserting a *new* key into a full shard first evicts the shard's
    /// oldest entry (FIFO) and counts it in [`DecisionCache::evictions`];
    /// tombstones left behind by [`DecisionCache::remove`] are skipped
    /// without charging the counter.
    pub fn insert(&self, key: CanonKey, outcome: CachedOutcome) {
        let mut shard = self.shard(key).write().expect("cache shard lock poisoned");
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.outcome = outcome;
            return; // overwrite: residency and order unchanged
        }
        let seq = shard.next_seq;
        shard.next_seq += 1;
        shard.map.insert(key, Entry { outcome, seq });
        shard.order.push_back((seq, key));
        while shard.map.len() > self.shard_capacity {
            let (seq, oldest) = shard
                .order
                .pop_front()
                .expect("over-capacity shard has a non-empty insertion order");
            if shard.is_live(seq, oldest) {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                shard.tombstones -= 1; // stale pair: skip, not an eviction
            }
        }
    }

    /// Drops one key, returning its outcome if it was resident. This is
    /// the targeted invalidation hook: a caller whose *question* changed
    /// identity (e.g. a session whose premise subset was edited — see
    /// [`crate::engine::Session`]) removes exactly the stale key instead
    /// of flushing the cache. Removal does not count as an eviction: the
    /// eviction counter measures capacity pressure, not invalidation.
    ///
    /// Amortized O(1): the FIFO queue keeps a tombstone instead of being
    /// scanned (see [`Shard`]) — invalidation-heavy churn no longer goes
    /// quadratic in the shard population.
    pub fn remove(&self, key: CanonKey) -> Option<CachedOutcome> {
        let mut shard = self.shard(key).write().expect("cache shard lock poisoned");
        let entry = shard.map.remove(&key)?;
        shard.tombstones += 1;
        shard.maybe_compact();
        Some(entry.outcome)
    }

    /// A lock-coherent export of the resident entries, in per-shard FIFO
    /// insertion order (shard by shard). Each shard is read-locked for the
    /// duration of its own copy only, so exports interleave with concurrent
    /// solving: the result is a union of per-shard consistent snapshots —
    /// exactly the guarantee a persistence layer needs, since every entry
    /// is individually a theorem and cross-shard "tearing" can at worst
    /// omit or include a concurrently settled verdict.
    pub fn export(&self) -> Vec<(CanonKey, CachedOutcome)> {
        let mut out = Vec::with_capacity(self.len());
        for lock in &self.shards {
            let shard = lock.read().expect("cache shard lock poisoned");
            out.extend(shard.order.iter().filter_map(|&(seq, key)| {
                shard
                    .map
                    .get(&key)
                    .filter(|e| e.seq == seq)
                    .map(|e| (key, e.outcome))
            }));
        }
        out
    }

    /// Number of cached verdicts currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard lock poisoned").map.len())
            .sum()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards (lock domains).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum entries per shard before eviction.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Maximum entries the whole cache holds: shards × per-shard capacity.
    pub fn capacity(&self) -> usize {
        self.shards.len().saturating_mul(self.shard_capacity)
    }

    /// Cumulative number of entries evicted to make room for new keys.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_core::prelude::*;

    fn key(n: u32) -> CanonKey {
        // Distinct keys from distinct real TDs: a chain sharing column-0
        // variables across `n` rows.
        let schema = Schema::new("R", ["A", "B"]).unwrap();
        let rows: Vec<td_core::td::TdRow> = (0..=n)
            .map(|i| td_core::td::TdRow::from_raw([0, i]))
            .collect();
        let td = td_core::td::Td::new(
            schema,
            rows,
            td_core::td::TdRow::from_raw([1, 0]),
            format!("k{n}"),
        )
        .unwrap();
        canon_key(&td)
    }

    fn outcome(rows: usize) -> CachedOutcome {
        CachedOutcome {
            verdict: CachedVerdict::Refuted { model_rows: rows },
            spend: crate::pipeline::SpendReport::default(),
        }
    }

    #[test]
    fn insert_get_roundtrip_across_shards() {
        let cache = DecisionCache::new(4);
        assert!(cache.is_empty());
        for n in 0..32 {
            cache.insert(key(n), outcome(n as usize));
        }
        assert_eq!(cache.len(), 32);
        for n in 0..32 {
            assert_eq!(cache.get(key(n)), Some(outcome(n as usize)));
        }
        assert_eq!(cache.get(key(99)), None);
    }

    #[test]
    fn overwrite_same_key() {
        let cache = DecisionCache::default();
        cache.insert(key(1), outcome(3));
        cache.insert(key(1), outcome(5));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(key(1)), Some(outcome(5)));
    }

    #[test]
    fn remove_invalidates_without_counting_an_eviction() {
        // One shard, capacity 2, so residency accounting is observable.
        let cache = DecisionCache::with_capacity(1, 2);
        cache.insert(key(0), outcome(0));
        cache.insert(key(1), outcome(1));
        assert_eq!(cache.remove(key(0)), Some(outcome(0)));
        assert_eq!(cache.remove(key(0)), None, "removal is not idempotent-Some");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0, "invalidation is not eviction");
        // The freed slot is real: two more inserts fit without evicting,
        // and the FIFO order no longer contains the removed key.
        cache.insert(key(2), outcome(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        cache.insert(key(3), outcome(3));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(key(1)), None, "oldest *resident* key evicted");
    }

    #[test]
    fn shard_count_clamped() {
        assert_eq!(DecisionCache::new(0).shard_count(), 1);
        assert_eq!(DecisionCache::default().shard_count(), 16);
        assert_eq!(
            DecisionCache::default().shard_capacity(),
            DEFAULT_SHARD_CAPACITY
        );
        assert_eq!(DecisionCache::with_capacity(1, 0).shard_capacity(), 1);
    }

    #[test]
    fn full_shard_evicts_oldest_first() {
        // One shard, capacity 3: every key lands in the same FIFO queue.
        let cache = DecisionCache::with_capacity(1, 3);
        for n in 0..3 {
            cache.insert(key(n), outcome(n as usize));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 0);

        cache.insert(key(3), outcome(3));
        assert_eq!(cache.len(), 3, "capacity is a hard residency bound");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(key(0)), None, "the oldest entry was evicted");
        for n in 1..=3 {
            assert!(cache.get(key(n)).is_some(), "newer entries survive");
        }

        cache.insert(key(4), outcome(4));
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.get(key(1)), None, "FIFO: next-oldest goes next");
    }

    #[test]
    fn overwrites_do_not_evict_or_reorder() {
        let cache = DecisionCache::with_capacity(1, 2);
        cache.insert(key(0), outcome(0));
        cache.insert(key(1), outcome(1));
        // Overwriting key(0) must not push it to the back of the queue.
        cache.insert(key(0), outcome(10));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get(key(0)), Some(outcome(10)));
        // A new key still evicts key(0) — the original insertion order.
        cache.insert(key(2), outcome(2));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(key(0)), None);
        assert!(cache.get(key(1)).is_some());
        assert!(cache.get(key(2)).is_some());
    }

    /// Fabricated keys for churn tests: one real canonicalization costs
    /// milliseconds, which would turn a 10⁴-op churn loop into minutes.
    /// [`CanonKey::from_raw`] exists for the snapshot decoder; here it
    /// doubles as a cheap source of distinct keys.
    fn raw_key(n: u64) -> CanonKey {
        CanonKey::from_raw(u128::from(n))
    }

    #[test]
    fn eviction_skips_tombstones_without_charging() {
        // One shard, capacity 4. Fill it, invalidate the two oldest, then
        // push past capacity: the eviction pop must step over the two
        // tombstones (uncharged) and evict the oldest *resident* key.
        let cache = DecisionCache::with_capacity(1, 4);
        for n in 0..4 {
            cache.insert(raw_key(n), outcome(n as usize));
        }
        cache.remove(raw_key(0));
        cache.remove(raw_key(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        cache.insert(raw_key(4), outcome(4));
        cache.insert(raw_key(5), outcome(5));
        assert_eq!(cache.len(), 4, "freed slots are reused");
        assert_eq!(cache.evictions(), 0, "removes never inflate evictions");
        cache.insert(raw_key(6), outcome(6));
        assert_eq!(cache.evictions(), 1, "exactly one eviction, not three");
        assert_eq!(cache.get(raw_key(2)), None, "oldest resident evicted");
        assert!(cache.get(raw_key(3)).is_some());
    }

    #[test]
    fn reinserted_key_gets_a_fresh_fifo_slot() {
        let cache = DecisionCache::with_capacity(1, 2);
        cache.insert(raw_key(0), outcome(0));
        cache.insert(raw_key(1), outcome(1));
        // Remove + reinsert key 0: its stale pair lingers in the queue but
        // its residency restarts at the back.
        cache.remove(raw_key(0));
        cache.insert(raw_key(0), outcome(10));
        cache.insert(raw_key(2), outcome(2));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(raw_key(1)), None, "key 1 is now the oldest");
        assert_eq!(
            cache.get(raw_key(0)),
            Some(outcome(10)),
            "the reinserted key is young, not evicted via its stale pair"
        );
    }

    #[test]
    fn churn_stays_amortized_constant() {
        // Regression for the linear `remove` scan: 10⁴ insert/remove
        // cycles against one shard. Under the old implementation each
        // remove re-scanned the FIFO queue under the write lock; under
        // lazy deletion the queue is compacted whenever tombstones
        // outnumber residents, so its length — checked every iteration —
        // stays within a constant factor of the population.
        let cache = DecisionCache::with_capacity(1, 8);
        for n in 0..10_000u64 {
            cache.insert(raw_key(n), outcome(1));
            cache.remove(raw_key(n));
            let shard = cache.shards[0].read().unwrap();
            assert!(
                shard.order.len() <= 2 * (shard.map.len() + 1),
                "iteration {n}: order grew to {} over {} residents",
                shard.order.len(),
                shard.map.len()
            );
        }
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 0, "pure churn is not capacity pressure");

        // And mixed churn — a resident population plus invalidation
        // traffic — still evicts FIFO over the tombstones.
        for n in 0..8 {
            cache.insert(raw_key(100_000 + n), outcome(2));
        }
        for n in 0..4 {
            cache.remove(raw_key(100_000 + n));
        }
        for n in 0..8 {
            cache.insert(raw_key(200_000 + n), outcome(3));
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.evictions(), 4, "only live FIFO heads were charged");
    }

    #[test]
    fn export_skips_tombstones_and_preserves_fifo_order() {
        let cache = DecisionCache::with_capacity(1, 16);
        for n in 0..6 {
            cache.insert(raw_key(n), outcome(n as usize));
        }
        cache.remove(raw_key(2));
        cache.remove(raw_key(4));
        let exported = cache.export();
        assert_eq!(
            exported.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            [0u64, 1, 3, 5].map(raw_key).to_vec(),
            "export is FIFO order minus tombstones"
        );
        assert_eq!(exported[2].1, outcome(3));
    }

    #[test]
    fn concurrent_reads_and_writes() {
        let cache = DecisionCache::new(8);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let cache = &cache;
                s.spawn(move || {
                    for n in 0..16 {
                        cache.insert(key(t * 16 + n), outcome(n as usize));
                        assert!(cache.get(key(t * 16 + n)).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64);
    }
}
