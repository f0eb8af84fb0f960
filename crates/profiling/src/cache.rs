//! A shared, thread-safe cache of per-column [`AttributeProfile`]s.
//!
//! The pipeline profiles the same column repeatedly: the value fit
//! detector (Algorithm 1) profiles both ends of every attribute
//! correspondence, instance-based matching profiles every column under
//! every candidate partner's datatype, and a column that participates in
//! several correspondences is profiled once per correspondence. A
//! [`ProfileCache`] memoizes these computations behind an `Arc`-shared
//! lookup keyed by (database tag, table, attribute, reference datatype),
//! so each distinct profile is computed exactly once per estimation run
//! — also under concurrent access from the parallel execution layer.
//!
//! Every fill runs the one profiling kernel, [`PartialProfile`], and
//! consults the `profiling.fill` fault-injection site once per miss.

use crate::partial::PartialProfile;
use crate::profile::AttributeProfile;
use efes_exec::{fault, Cancelled, ExecutionMode, RunContext};
use efes_relational::schema::{AttrId, TableId};
use efes_relational::{DataType, Database};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Caller-assigned identity of a database within one cache's scope.
///
/// The cache cannot key on the `Database` value itself (hashing an
/// instance is as expensive as profiling it) and must not key on a
/// pointer (an estimator outlives any one scenario, inviting ABA
/// aliasing). Callers therefore assign a small tag per database —
/// [`DbTag::TARGET`] for the integration target, [`DbTag::source`] for
/// source databases — that is unambiguous within one estimation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DbTag(pub u32);

impl DbTag {
    /// Conventional tag for the integration target database.
    pub const TARGET: DbTag = DbTag(u32::MAX);

    /// Conventional tag for source database `i`.
    pub fn source(i: u32) -> DbTag {
        DbTag(i)
    }
}

/// The full cache key: one column profiled under one reference datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// Which database the column belongs to.
    pub db: DbTag,
    /// The column's table.
    pub table: TableId,
    /// The column's attribute.
    pub attr: AttrId,
    /// The datatype designating the computed statistics (the *target*
    /// side's type in Algorithm 1, either side's in instance matching).
    pub reference_type: DataType,
}

/// The fill protocol of one cache slot.
///
/// A `OnceLock` would guarantee exactly-once, but its fill is
/// irrevocable: a filler that panics or aborts on cancellation would
/// leave every waiter blocked forever. This explicit state machine keeps
/// the exactly-once *success* path while making failure recoverable —
/// a failed fill resets to `Empty` and wakes the waiters, one of which
/// takes over the computation.
#[derive(Debug)]
enum FillState {
    /// No fill attempted (or the last attempt failed); the next caller
    /// becomes the filler.
    Empty,
    /// A fill is in progress; callers wait on the condvar.
    Filling,
    /// The profile is resident, optionally alongside the mergeable
    /// partial it was finalized from (when the cache retains partials
    /// for the O(delta) append path).
    Full(Arc<AttributeProfile>, Option<Arc<PartialProfile>>),
}

#[derive(Debug)]
struct FillCell {
    state: Mutex<FillState>,
    ready: Condvar,
}

impl FillCell {
    fn new() -> Self {
        FillCell {
            state: Mutex::new(FillState::Empty),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FillState> {
        // Poison-tolerant: the fill protocol never panics while holding
        // this lock (compute runs unlocked), but a poisoned state is
        // still a valid FillState and the reset guard must get through.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Resets a cell to `Empty` and wakes waiters unless disarmed — the
/// cleanup invariant that makes fills panic- and cancellation-safe: the
/// guard drops on *every* exit path of the filler (success disarms it
/// first), so no failure mode can strand the cell in `Filling`.
struct FillGuard<'a> {
    cell: &'a FillCell,
    armed: bool,
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            *self.cell.lock() = FillState::Empty;
            self.cell.ready.notify_all();
        }
    }
}

type Cell = Arc<FillCell>;

const SHARDS: usize = 16;

/// How long a waiter sleeps between checks of its own cancellation
/// while another thread fills the slot it wants.
const WAIT_SLICE: Duration = Duration::from_millis(20);

/// The memoization table. Cheap to share (`Arc<ProfileCache>`); interior
/// mutability is sharded so concurrent lookups of different columns
/// rarely contend, and per-key fill-state cells guarantee each profile
/// is computed exactly once even when several threads miss simultaneously
/// — while staying recoverable when a fill panics or is cancelled
/// mid-computation (the slot resets and the next caller recomputes).
///
/// A cache can optionally be [bounded](ProfileCache::bounded): once the
/// entry count reaches the bound, inserting a fresh profile evicts an
/// arbitrary existing one, so a long-running process (e.g. a server
/// keeping caches across requests) cannot grow it without limit. The
/// default is unbounded, preserving the one-shot pipeline behaviour
/// where every profile of a run stays resident.
#[derive(Debug, Default)]
pub struct ProfileCache {
    shards: [Mutex<HashMap<ProfileKey, Cell>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity: Option<usize>,
    retain_partials: bool,
}

impl ProfileCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded at `capacity` entries (at least one).
    /// The bound is enforced by evicting an arbitrary resident entry
    /// when a fresh insert would exceed it; eviction never affects
    /// correctness, only the hit rate.
    pub fn bounded(capacity: usize) -> Self {
        ProfileCache {
            capacity: Some(capacity.max(1)),
            ..Self::default()
        }
    }

    /// Switch this cache into partial-retaining mode: every profile
    /// computed through [`of_attribute_ctx`](Self::of_attribute_ctx)
    /// keeps its [`PartialProfile`] alongside the finalized result, so
    /// [`snapshot_partials`](Self::snapshot_partials) can hand them to
    /// an O(delta) append. Each entry then also holds its partial, one
    /// count per distinct value and one float per row: about twice its
    /// column. Intended for caches backing mutable (uploaded) scenarios.
    pub fn retaining_partials(mut self) -> Self {
        self.retain_partials = true;
        self
    }

    /// Whether this cache retains mergeable partials.
    pub fn retains_partials(&self) -> bool {
        self.retain_partials
    }

    /// The configured entry bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Entries evicted to enforce the bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Remove one resident entry other than `keep`, searching from
    /// `keep`'s shard outward. Returns whether anything was evicted.
    fn evict_one(&self, keep: &ProfileKey) -> bool {
        let start = self.shard_index(keep);
        for offset in 0..SHARDS {
            let mut shard = self.shards[(start + offset) % SHARDS]
                .lock()
                .expect("profile cache shard poisoned");
            let victim = shard.keys().find(|k| *k != keep).copied();
            if let Some(victim) = victim {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    fn shard_index(&self, key: &ProfileKey) -> usize {
        // Mix table/attr/db into a shard index; DataType only has four
        // values, so it contributes via the multiplier below.
        let h = key.table.0
            .wrapping_mul(31)
            .wrapping_add(key.attr.0)
            .wrapping_mul(31)
            .wrapping_add(key.db.0 as usize)
            .wrapping_mul(31)
            .wrapping_add(key.reference_type as usize);
        h % SHARDS
    }

    fn shard(&self, key: &ProfileKey) -> &Mutex<HashMap<ProfileKey, Cell>> {
        &self.shards[self.shard_index(key)]
    }

    /// Look up the profile for `key`, computing it with `compute` on the
    /// first request. Concurrent callers for the same key block until the
    /// single computation finishes and then share its result.
    pub fn get_or_compute(
        &self,
        key: ProfileKey,
        compute: impl FnOnce() -> AttributeProfile,
    ) -> Arc<AttributeProfile> {
        self.get_or_compute_ctx(&RunContext::unbounded(), key, || Ok(compute()))
            .expect("unbounded context never cancels")
    }

    /// [`get_or_compute`](Self::get_or_compute) under a [`RunContext`]:
    /// both the caller's *wait* (while another thread fills the slot)
    /// and its own *fill* (when `compute` honours a checkpoint) abort
    /// promptly once `run` is cancelled.
    ///
    /// Slot safety: a fill that returns `Err(Cancelled)` — or panics —
    /// resets its slot to empty and wakes all waiters, one of which
    /// takes over the computation. The success path stays exactly-once;
    /// an aborted fill never wedges or poisons the slot and never
    /// caches a partial profile.
    pub fn get_or_compute_ctx(
        &self,
        run: &RunContext,
        key: ProfileKey,
        compute: impl FnOnce() -> Result<AttributeProfile, Cancelled>,
    ) -> Result<Arc<AttributeProfile>, Cancelled> {
        self.get_or_compute_with_partial_ctx(run, key, || Ok((compute()?, None)))
    }

    /// The fill protocol shared by every lookup path: `compute` may
    /// return the [`PartialProfile`] the profile was finalized from,
    /// which is retained in the slot for
    /// [`snapshot_partials`](Self::snapshot_partials). Each miss consults
    /// the `profiling.fill` fault site once before computing.
    fn get_or_compute_with_partial_ctx(
        &self,
        run: &RunContext,
        key: ProfileKey,
        compute: impl FnOnce() -> Result<(AttributeProfile, Option<PartialProfile>), Cancelled>,
    ) -> Result<Arc<AttributeProfile>, Cancelled> {
        run.check()?;
        let (cell, inserted): (Cell, bool) = {
            let mut shard = self.shard(&key).lock().expect("profile cache shard poisoned");
            let before = shard.len();
            let cell = shard
                .entry(key)
                .or_insert_with(|| Arc::new(FillCell::new()))
                .clone();
            (cell, shard.len() > before)
        };
        if inserted {
            if let Some(cap) = self.capacity {
                // `len()` walks all shards without holding this key's
                // lock, so the bound is approximate under concurrency —
                // good enough to keep a long-running cache from growing
                // without limit.
                while self.len() > cap && self.evict_one(&key) {}
            }
        }

        // Resolve the slot: take over an empty one, share a full one,
        // wait (cancellably) on one being filled.
        {
            let mut state = cell.lock();
            loop {
                match &*state {
                    FillState::Full(profile, _) => {
                        let profile = profile.clone();
                        drop(state);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(profile);
                    }
                    FillState::Empty => {
                        *state = FillState::Filling;
                        break; // this thread fills
                    }
                    FillState::Filling => {
                        let (guard, _) = cell
                            .ready
                            .wait_timeout(state, WAIT_SLICE)
                            .unwrap_or_else(|e| e.into_inner());
                        state = guard;
                        // Still in progress after the slice: honour our
                        // own cancellation instead of waiting forever.
                        if matches!(&*state, FillState::Filling) && run.is_cancelled() {
                            return Err(Cancelled);
                        }
                    }
                }
            }
        }

        // This thread owns the fill. The guard resets the slot on every
        // failure path (Err below, or a panic inside `compute`); the
        // compute itself runs without holding any lock.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = FillGuard { cell: &cell, armed: true };
        // The alloc-cap mode has no budget to trip here; panic, delay
        // and cancel act through `fire` itself.
        let _alloc_capped = fault::fire("profiling.fill", Some(run.token()));
        match run.check().and_then(|()| compute()) {
            Ok((profile, partial)) => {
                let profile = Arc::new(profile);
                guard.armed = false;
                *cell.lock() = FillState::Full(profile.clone(), partial.map(Arc::new));
                cell.ready.notify_all();
                Ok(profile)
            }
            Err(cancelled) => {
                drop(guard);
                Err(cancelled)
            }
        }
    }

    /// Profile a concrete attribute of `db` through the cache. `key.db`
    /// must consistently identify `db` across all calls on this cache.
    pub fn of_attribute(&self, db: &Database, key: ProfileKey) -> Arc<AttributeProfile> {
        self.of_attribute_ctx(&RunContext::unbounded(), db, key)
            .expect("unbounded context never cancels")
    }

    /// [`of_attribute`](Self::of_attribute) under a [`RunContext`]: the
    /// profiling walk ticks a checkpoint per cell, so cancellation
    /// aborts a running fill within one check interval and the slot
    /// recovers per [`get_or_compute_ctx`](Self::get_or_compute_ctx).
    /// On a [partial-retaining](Self::retaining_partials) cache the
    /// filled slot also keeps the partial for the O(delta) append path.
    pub fn of_attribute_ctx(
        &self,
        run: &RunContext,
        db: &Database,
        key: ProfileKey,
    ) -> Result<Arc<AttributeProfile>, Cancelled> {
        self.get_or_compute_with_partial_ctx(run, key, || {
            let partial = PartialProfile::of_attribute_ctx(
                db,
                key.table,
                key.attr,
                key.reference_type,
                &run.checkpoint(),
            )?;
            let profile = partial.finalize();
            Ok((profile, self.retain_partials.then_some(partial)))
        })
    }

    /// Forwards to [`of_attribute_ctx`](Self::of_attribute_ctx); `mode`
    /// is ignored. Kept so callers written against the sharded
    /// evaluator keep compiling.
    pub fn of_attribute_sharded_ctx(
        &self,
        run: &RunContext,
        db: &Database,
        key: ProfileKey,
        _mode: ExecutionMode,
    ) -> Result<Arc<AttributeProfile>, Cancelled> {
        self.of_attribute_ctx(run, db, key)
    }

    /// Insert a precomputed profile (and optionally its partial)
    /// directly into the slot for `key`, overwriting whatever the slot
    /// held. The O(delta) append path uses this to seed a successor
    /// cache with extended profiles; concurrent waiters on the slot are
    /// woken with the seeded value.
    pub fn seed(
        &self,
        key: ProfileKey,
        profile: Arc<AttributeProfile>,
        partial: Option<Arc<PartialProfile>>,
    ) {
        let inserted = {
            let mut shard = self.shard(&key).lock().expect("profile cache shard poisoned");
            let before = shard.len();
            let cell = shard
                .entry(key)
                .or_insert_with(|| Arc::new(FillCell::new()))
                .clone();
            let inserted = shard.len() > before;
            drop(shard);
            *cell.lock() = FillState::Full(profile, partial);
            cell.ready.notify_all();
            inserted
        };
        if inserted {
            if let Some(cap) = self.capacity {
                while self.len() > cap && self.evict_one(&key) {}
            }
        }
    }

    /// Every resident `(key, profile, partial)` triple whose slot kept
    /// its mergeable partial. Slots currently filling (or computed
    /// through a non-retaining path) are skipped.
    pub fn snapshot_partials(
        &self,
    ) -> Vec<(ProfileKey, Arc<AttributeProfile>, Arc<PartialProfile>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("profile cache shard poisoned");
            for (key, cell) in shard.iter() {
                if let FillState::Full(profile, Some(partial)) = &*cell.lock() {
                    out.push((*key, profile.clone(), partial.clone()));
                }
            }
        }
        out
    }

    /// Lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that computed a fresh profile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct profiles held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("profile cache shard poisoned").len())
            .sum()
    }

    /// `true` iff no profile has been requested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efes_relational::{DatabaseBuilder, Value};
    use std::sync::atomic::AtomicUsize;

    fn db() -> Database {
        let mut b = DatabaseBuilder::new("d").table("t", |t| {
            t.attr("a", DataType::Text).attr("b", DataType::Integer)
        });
        b = b.rows(
            "t",
            (0..30)
                .map(|i| vec![Value::from(format!("v{i}")), Value::from(i as i64)])
                .collect(),
        );
        b.build().unwrap()
    }

    fn key(attr: usize, dt: DataType) -> ProfileKey {
        ProfileKey {
            db: DbTag::source(0),
            table: TableId(0),
            attr: AttrId(attr),
            reference_type: dt,
        }
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let db = db();
        let cache = ProfileCache::new();
        let first = cache.of_attribute(&db, key(0, DataType::Text));
        let second = cache.of_attribute(&db, key(0, DataType::Text));
        assert_eq!(*first, *second);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_reference_types_are_distinct_entries() {
        let db = db();
        let cache = ProfileCache::new();
        cache.of_attribute(&db, key(1, DataType::Integer));
        cache.of_attribute(&db, key(1, DataType::Text));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_equals_fresh() {
        let db = db();
        let cache = ProfileCache::new();
        for (attr, dt) in [(0, DataType::Text), (1, DataType::Integer), (1, DataType::Text)] {
            let cached = cache.of_attribute(&db, key(attr, dt));
            let fresh = AttributeProfile::of_attribute(&db, TableId(0), AttrId(attr), dt);
            assert_eq!(*cached, fresh);
        }
    }

    #[test]
    fn bounded_cache_stays_within_capacity() {
        let db = db();
        let cache = ProfileCache::bounded(2);
        assert_eq!(cache.capacity(), Some(2));
        for dt in [DataType::Text, DataType::Integer, DataType::Float, DataType::Boolean] {
            for attr in 0..2 {
                cache.of_attribute(&db, key(attr, dt));
            }
        }
        assert!(cache.len() <= 2, "len {} exceeds bound", cache.len());
        assert_eq!(cache.evictions(), 8 - 2);
        assert_eq!(cache.misses(), 8);
    }

    #[test]
    fn bounded_cache_still_returns_correct_profiles() {
        let db = db();
        let cache = ProfileCache::bounded(1);
        for _ in 0..3 {
            for (attr, dt) in [(0, DataType::Text), (1, DataType::Integer)] {
                let cached = cache.of_attribute(&db, key(attr, dt));
                let fresh = AttributeProfile::of_attribute(&db, TableId(0), AttrId(attr), dt);
                assert_eq!(*cached, fresh);
            }
        }
        assert!(cache.len() <= 1);
    }

    #[test]
    fn unbounded_cache_reports_no_capacity() {
        let cache = ProfileCache::new();
        assert_eq!(cache.capacity(), None);
        assert_eq!(cache.evictions(), 0);
    }

    /// The `of_attribute_sharded_ctx` forwarder answers exactly like the
    /// plain lookup, on a partial-retaining cache too.
    #[test]
    fn sharded_lookup_matches_plain_lookup() {
        let db = db();
        let run = RunContext::unbounded();
        let mode = ExecutionMode::Parallel(4);
        for (attr, dt) in [(0, DataType::Text), (1, DataType::Integer), (1, DataType::Text)] {
            let plain = ProfileCache::new();
            let sharded = ProfileCache::new().retaining_partials();
            let a = plain.of_attribute_ctx(&run, &db, key(attr, dt)).unwrap();
            let b = sharded
                .of_attribute_sharded_ctx(&run, &db, key(attr, dt), mode)
                .unwrap();
            assert_eq!(*a, *b, "attr={attr} dt={dt:?}");
        }
    }

    #[test]
    fn retaining_cache_snapshots_partials_and_seeds_a_successor() {
        let db = db();
        let run = RunContext::unbounded();
        let cache = ProfileCache::new().retaining_partials();
        assert!(cache.retains_partials());
        cache
            .of_attribute_ctx(&run, &db, key(0, DataType::Text))
            .unwrap();
        cache
            .of_attribute_ctx(&run, &db, key(1, DataType::Integer))
            .unwrap();
        let snapshot = cache.snapshot_partials();
        assert_eq!(snapshot.len(), 2);
        for (k, profile, partial) in &snapshot {
            assert_eq!(partial.finalize(), **profile, "key {k:?}");
        }

        let successor = ProfileCache::new().retaining_partials();
        for (k, profile, partial) in snapshot {
            successor.seed(k, profile, Some(partial));
        }
        assert_eq!(successor.len(), 2);
        // Seeded slots answer without recomputing: misses stay 0.
        let seeded = successor
            .of_attribute_ctx(&run, &db, key(0, DataType::Text))
            .unwrap();
        assert_eq!(
            *seeded,
            AttributeProfile::of_attribute(&db, TableId(0), AttrId(0), DataType::Text)
        );
        assert_eq!(successor.misses(), 0);
        assert_eq!(successor.hits(), 1);
    }

    #[test]
    fn non_retaining_cache_snapshots_nothing() {
        let db = db();
        let run = RunContext::unbounded();
        let cache = ProfileCache::new();
        cache.of_attribute_ctx(&run, &db, key(0, DataType::Text)).unwrap();
        cache.of_attribute_ctx(&run, &db, key(1, DataType::Integer)).unwrap();
        assert!(cache.snapshot_partials().is_empty());
    }

    #[test]
    fn concurrent_misses_compute_exactly_once() {
        let db = db();
        let cache = ProfileCache::new();
        let computations = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        cache.get_or_compute(key(0, DataType::Text), || {
                            computations.fetch_add(1, Ordering::SeqCst);
                            AttributeProfile::of_attribute(
                                &db,
                                TableId(0),
                                AttrId(0),
                                DataType::Text,
                            )
                        });
                    }
                });
            }
        });
        assert_eq!(computations.load(Ordering::SeqCst), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 8 * 50 - 1);
    }
}
