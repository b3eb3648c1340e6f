//! Baskets — the key data structure of the DataCell (paper §3.2).
//!
//! A basket holds a portion of a stream as a transient, main-memory
//! columnar table. Receptors append, factories read-and-consume, and the
//! whole structure is protected by a single lock (Algorithm 1 locks input
//! and output baskets for the duration of one factory firing).
//!
//! Differences from relational tables, per the paper, all present here:
//!
//! * **Basket integrity** — constraint-violating events are *silently
//!   dropped*, indistinguishable from never having arrived;
//! * **Basket ACID** — contents are transient (no crash survival), and
//!   concurrent access is regulated by the basket lock;
//! * **Basket control** — a disabled basket blocks its stream: appends are
//!   rejected until re-enabled.
//!
//! As a Petri-net place, a basket wakes the threads parked on it
//! ([`Basket::watch`]) on every change that can flip their condition, so
//! factory threads and blocked feeders never poll.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use dctrace::BasketProbe;

use dcsql::ast::Expr;
use dcsql::exec::{eval_expr, ExecEnv, QueryContext, StaticContext};
use monet::bitset::Bitset;
use monet::ops::select::select_true;
use monet::prelude::*;
use parking_lot::{Mutex, MutexGuard};

use crate::clock::Clock;
use crate::error::{EngineError, Result};
use crate::persist::{PersistStats, StreamPersist};

/// Name of the automatic arrival-timestamp column.
pub const TS_COLUMN: &str = "dc_ts";

/// Counters exposed for monitoring and the benchmark harness.
#[derive(Debug, Default)]
pub struct BasketStats {
    /// Tuples accepted into the basket over its lifetime.
    pub total_in: AtomicU64,
    /// Tuples removed (consumed or drained).
    pub total_out: AtomicU64,
    /// Tuples silently dropped by integrity constraints.
    pub dropped: AtomicU64,
    /// Largest buffered tuple count ever observed after an append.
    pub high_water: AtomicU64,
}

impl BasketStats {
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.total_in.load(Ordering::Relaxed),
            self.total_out.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Logically-deleted rows below this count never trigger compaction on
/// their own (they still compact when they reach half the physical store).
pub const DEFAULT_COMPACT_THRESHOLD: usize = 1024;

/// The lock-protected contents.
///
/// Deletes are *logical*: consumption marks rows in a deleted-bitmap
/// instead of eagerly rewriting every column, and the physical store is
/// compacted lazily once enough rows are dead (the bounded-memory,
/// compact-lazily discipline). Physical row positions therefore stay
/// stable across marks, which is what lets a firing record consumption
/// positions against a snapshot taken earlier — guarded by the
/// generation counters below.
#[derive(Debug)]
pub struct BasketInner {
    /// Physical store; may contain logically-deleted rows.
    rel: Relation,
    /// Bit `i` set ⇒ physical row `i` is logically deleted. `None` ⇔ clean.
    deleted: Option<Bitset>,
    deleted_count: usize,
    /// Bumped whenever live-row numbering could have changed: logical
    /// marks, compaction, drains. A firing that snapshotted at generation
    /// `g` may apply its consumption positions only while `delete_gen`
    /// still reads `g`. Appends need no counter — they extend the store
    /// without renumbering existing rows, so snapshot positions survive
    /// them.
    delete_gen: u64,
    /// Lifetime count of physical compactions.
    compactions: u64,
    /// Memoized live gather for dirty snapshots, keyed on
    /// `(delete_gen, physical len)` — both change whenever the live view
    /// does (marks/compaction/drain bump the generation, appends grow the
    /// store), so repeated snapshots between mutations cost O(width).
    live_cache: Option<(u64, usize, Relation)>,
}

impl BasketInner {
    /// The physical store (under the basket lock). May contain
    /// logically-deleted rows — use [`BasketInner::live_snapshot`] for the
    /// visible contents.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// Buffered (live) tuples.
    pub fn live_len(&self) -> usize {
        self.rel.len() - self.deleted_count
    }

    /// Logically-deleted rows awaiting compaction.
    pub fn pending_deletes(&self) -> usize {
        self.deleted_count
    }

    /// Lifetime physical compactions.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    pub fn delete_gen(&self) -> u64 {
        self.delete_gen
    }

    /// The visible contents. O(width) when no deletes are pending (a
    /// copy-on-write share of every column); a gather of the live rows
    /// otherwise — memoized, so only the first snapshot after a mutation
    /// pays the gather.
    pub fn live_snapshot(&mut self) -> Relation {
        let Some(live) = self.live_sel() else {
            return self.rel.clone();
        };
        if let Some((gen, len, cached)) = &self.live_cache {
            if *gen == self.delete_gen && *len == self.rel.len() {
                return cached.clone();
            }
        }
        let snap = self
            .rel
            .gather(&live)
            .expect("live positions are in bounds by construction");
        self.live_cache = Some((self.delete_gen, self.rel.len(), snap.clone()));
        snap
    }

    /// Pruned visible contents: only the `wanted` columns (plus a first-
    /// column row-count carrier when `wanted` names no stored column, so
    /// the snapshot's length always matches the live row count). `None`
    /// means everything — [`BasketInner::live_snapshot`]. O(wanted) Arc
    /// bumps on a clean basket; a gather of only the wanted columns when
    /// deletes are pending — the compiled-plan firing path's
    /// O(touched-columns) incremental snapshot.
    pub fn live_snapshot_cols(
        &mut self,
        wanted: Option<&std::collections::BTreeSet<String>>,
    ) -> Relation {
        let Some(wanted) = wanted else {
            return self.live_snapshot();
        };
        if self.rel.width() == 0 || wanted.len() >= self.rel.width() {
            // possibly everything wanted — the full snapshot is memoized
            // and costs the same or less than re-filtering
            if self.rel.width() == 0
                || self.rel.names().iter().all(|n| wanted.contains(n))
            {
                return self.live_snapshot();
            }
        }
        // iterate the (small) wanted set, not the (wide) schema: the
        // touched-columns cost model holds even per firing
        let names = self.rel.names();
        let mut idx: Vec<usize> = Vec::with_capacity(wanted.len());
        for w in wanted {
            if let Some(i) = names.iter().position(|n| n == w) {
                idx.push(i);
            }
        }
        idx.sort_unstable(); // keep schema order
        if idx.is_empty() {
            idx.push(0); // row-count carrier
        }
        match self.live_sel() {
            // clean store: column shares, O(wanted)
            None => {
                let cols: Vec<(String, Column)> = idx
                    .iter()
                    .map(|&i| (names[i].clone(), self.rel.col_at(i).clone()))
                    .collect();
                Relation::from_columns(cols).expect("non-empty aligned columns")
            }
            Some(live) => {
                // dirty store: reuse the memoized full gather when one is
                // current; otherwise gather only the wanted columns
                if let Some((gen, len, cached)) = &self.live_cache {
                    if *gen == self.delete_gen && *len == self.rel.len() {
                        let cols: Vec<(String, Column)> = idx
                            .iter()
                            .map(|&i| (names[i].clone(), cached.col_at(i).clone()))
                            .collect();
                        return Relation::from_columns(cols)
                            .expect("cache shares the store's schema");
                    }
                }
                let cols: Vec<(String, Column)> = idx
                    .iter()
                    .map(|&i| {
                        let col = self
                            .rel
                            .col_at(i)
                            .gather(&live)
                            .expect("live positions are in bounds by construction");
                        (names[i].clone(), col)
                    })
                    .collect();
                Relation::from_columns(cols).expect("non-empty aligned columns")
            }
        }
    }

    /// Ascending physical positions of the live rows; `None` when the
    /// identity mapping applies (no pending deletes).
    fn live_sel(&self) -> Option<SelVec> {
        let deleted = self.deleted.as_ref()?;
        let live: Vec<u32> = (0..self.rel.len() as u32)
            .filter(|&p| !deleted.get(p as usize))
            .collect();
        Some(SelVec::from_sorted(live).expect("ascending by construction"))
    }

    /// Translate live-view positions (ascending) to physical positions.
    fn to_physical(&self, live: &SelVec) -> Vec<u32> {
        match &self.deleted {
            None => live.as_slice().to_vec(),
            Some(deleted) => {
                let mut out = Vec::with_capacity(live.len());
                let mut want = live.iter();
                let mut next = want.next();
                let mut live_idx = 0u32;
                for phys in 0..self.rel.len() as u32 {
                    if deleted.get(phys as usize) {
                        continue;
                    }
                    match next {
                        Some(n) if n == live_idx => {
                            out.push(phys);
                            next = want.next();
                        }
                        _ => {}
                    }
                    live_idx += 1;
                }
                out
            }
        }
    }

    /// Keep the deleted-bitmap aligned after `appended` new rows.
    fn note_append(&mut self, appended: usize) {
        if let Some(d) = &mut self.deleted {
            d.extend_filled(appended, false);
        }
    }

    /// Physically drop the marked rows and reset the bitmap.
    fn compact(&mut self) {
        self.live_cache = None;
        let Some(deleted) = self.deleted.take() else {
            return;
        };
        if self.deleted_count == self.rel.len() {
            self.rel.clear();
        } else {
            let dead: Vec<u32> = deleted.iter_ones().map(|p| p as u32).collect();
            let sel = SelVec::from_sorted(dead).expect("bitmap yields ascending positions");
            self.rel
                .delete_sel(&sel)
                .expect("bitmap is aligned with the physical store");
        }
        self.deleted_count = 0;
        self.delete_gen += 1;
        self.compactions += 1;
    }
}

/// A shared, lockable stream buffer.
pub struct Basket {
    id: u64,
    name: String,
    schema: Schema,
    stamps_arrival: bool,
    enabled: AtomicBool,
    /// Receptor backpressure: buffered tuples above which feeders should
    /// block (0 = unbounded). Appends themselves are never rejected by
    /// the cap — cooperating producers gate on [`Basket::has_capacity`].
    pending_cap: AtomicUsize,
    /// Compaction knob: minimum logically-deleted rows before a physical
    /// rewrite is considered (0 = compact eagerly on every delete, the
    /// pre-copy-on-write behavior).
    compact_threshold: AtomicUsize,
    constraints: Mutex<Vec<Expr>>,
    inner: Mutex<BasketInner>,
    stats: BasketStats,
    /// Telemetry probe (dwell/append histograms, backpressure and
    /// compaction counters, the ingest watermark). Set once by the
    /// engine right after construction; absent when telemetry is off.
    probe: OnceLock<Arc<BasketProbe>>,
    /// Durability sink (`CREATE STREAM ... PERSIST`). Set once after
    /// construction — and after WAL replay, so recovered batches are not
    /// re-logged. Absent on ordinary transient baskets.
    persist: OnceLock<Arc<dyn StreamPersist>>,
    /// Threads to unpark on every change ([`Basket::watch`]).
    watchers: Mutex<Vec<Thread>>,
    /// Live [`Basket::hold_appends`] guards; appends skip their wake-up
    /// while any is held.
    holds: AtomicUsize,
}

/// A thread's registration on a basket's change notifications; dropping
/// it unregisters. See [`Basket::watch`].
pub struct Watch<'a> {
    basket: &'a Basket,
    thread: std::thread::ThreadId,
}

/// Holds a basket's append wake-ups until dropped; see
/// [`Basket::hold_appends`].
pub struct AppendHold<'a>(&'a Basket);

impl Drop for AppendHold<'_> {
    fn drop(&mut self) {
        self.0.holds.fetch_sub(1, Ordering::SeqCst);
        self.0.notify();
    }
}

impl Drop for Watch<'_> {
    fn drop(&mut self) {
        let mut watchers = self.basket.watchers.lock();
        if let Some(i) = watchers.iter().position(|t| t.id() == self.thread) {
            watchers.swap_remove(i);
        }
    }
}

impl std::fmt::Debug for Basket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Basket")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("len", &self.len())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

static NEXT_BASKET_ID: AtomicU64 = AtomicU64::new(0);

impl Basket {
    /// Create a basket. `stamp_arrivals` adds the automatic [`TS_COLUMN`]
    /// holding each tuple's arrival time.
    pub fn new(name: impl Into<String>, schema: &Schema, stamp_arrivals: bool) -> Arc<Basket> {
        let mut fields: Vec<Field> = schema.fields().to_vec();
        if stamp_arrivals {
            fields.push(Field::new(TS_COLUMN, ValueType::Ts));
        }
        let full = Schema::new(fields);
        Arc::new(Basket {
            id: NEXT_BASKET_ID.fetch_add(1, Ordering::Relaxed),
            name: name.into(),
            schema: full.clone(),
            stamps_arrival: stamp_arrivals,
            enabled: AtomicBool::new(true),
            pending_cap: AtomicUsize::new(0),
            compact_threshold: AtomicUsize::new(DEFAULT_COMPACT_THRESHOLD),
            constraints: Mutex::new(Vec::new()),
            inner: Mutex::new(BasketInner {
                rel: Relation::new(&full),
                deleted: None,
                deleted_count: 0,
                delete_gen: 0,
                compactions: 0,
                live_cache: None,
            }),
            stats: BasketStats::default(),
            probe: OnceLock::new(),
            persist: OnceLock::new(),
            watchers: Mutex::new(Vec::new()),
            holds: AtomicUsize::new(0),
        })
    }

    // ---- change notification -------------------------------------------------

    /// Register the calling thread to be unparked on every change to this
    /// basket, until the returned guard drops. The protocol is *register,
    /// check, park*: a change landing between the check and
    /// [`std::thread::park`] leaves the thread's unpark token set, so
    /// the park returns at once and the wake-up is never lost.
    pub fn watch(&self) -> Watch<'_> {
        let thread = std::thread::current();
        let id = thread.id();
        self.watchers.lock().push(thread);
        Watch {
            basket: self,
            thread: id,
        }
    }

    /// Unpark every watching thread so it re-checks its condition. Every
    /// mutation calls this itself; call it directly when a condition a
    /// watcher reads changed outside the basket (a ready gate's flag, a
    /// capacity waiter's abort flag).
    pub fn notify(&self) {
        for t in self.watchers.lock().iter() {
            t.unpark();
        }
    }

    /// Hold back the wake-ups of appends until the guard drops, which
    /// wakes the watchers once — for a feeder landing a burst of batches
    /// (every frame of one socket read), so factories fire once per burst
    /// rather than once per batch. Every release wakes, so an append
    /// landing during any hold is announced late, never lost. Other
    /// changes (deletes, enable/disable) still wake at once.
    pub fn hold_appends(&self) -> AppendHold<'_> {
        self.holds.fetch_add(1, Ordering::SeqCst);
        AppendHold(self)
    }

    /// Attach the telemetry probe (idempotent; first caller wins).
    pub fn set_probe(&self, probe: Arc<BasketProbe>) {
        let _ = self.probe.set(probe);
    }

    /// The attached telemetry probe, if any.
    pub fn probe(&self) -> Option<&Arc<BasketProbe>> {
        self.probe.get()
    }

    /// Attach the durability sink (idempotent; first caller wins).
    /// Attach only *after* any WAL replay — from this point on, every
    /// accepted append is logged before it is acknowledged.
    pub fn set_persist(&self, sink: Arc<dyn StreamPersist>) {
        let _ = self.persist.set(sink);
    }

    /// The attached durability sink, if any.
    pub fn persist(&self) -> Option<&Arc<dyn StreamPersist>> {
        self.persist.get()
    }

    /// Whether this basket is backed by durable storage.
    pub fn is_persistent(&self) -> bool {
        self.persist.get().is_some()
    }

    /// Durability counters (`None` on transient baskets).
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.persist.get().map(|p| p.stats())
    }

    /// Globally unique id; the engine locks baskets in id order to avoid
    /// deadlocks when factories touch overlapping sets.
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Full schema (including the timestamp column when stamping).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Width of user-facing rows (excludes the auto timestamp column).
    pub fn user_width(&self) -> usize {
        self.schema.width() - usize::from(self.stamps_arrival)
    }

    /// The user-facing part of the schema — what travels on the wire
    /// through receptors and emitters (excludes the auto timestamp column).
    pub fn user_schema(&self) -> Schema {
        Schema::new(self.schema.fields()[..self.user_width()].to_vec())
    }

    pub fn stats(&self) -> &BasketStats {
        &self.stats
    }

    // ---- basket control ----------------------------------------------------

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Block the stream: subsequent appends are rejected.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
        self.notify();
    }

    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
        self.notify();
    }

    // ---- backpressure -------------------------------------------------------

    /// Set the pending-batch cap (buffered tuples) above which feeders
    /// should stop appending; 0 removes the cap.
    pub fn set_pending_cap(&self, cap: usize) {
        self.pending_cap.store(cap, Ordering::Release);
        self.notify();
    }

    /// The configured pending cap (0 = unbounded).
    pub fn pending_cap(&self) -> usize {
        self.pending_cap.load(Ordering::Acquire)
    }

    /// Whether a cooperating feeder may append right now.
    pub fn has_capacity(&self) -> bool {
        let cap = self.pending_cap();
        cap == 0 || self.len() < cap
    }

    // ---- compaction ---------------------------------------------------------

    /// Set the minimum pending logical deletes before compaction is
    /// considered; 0 compacts eagerly on every delete.
    pub fn set_compact_threshold(&self, rows: usize) {
        self.compact_threshold.store(rows, Ordering::Release);
    }

    pub fn compact_threshold(&self) -> usize {
        self.compact_threshold.load(Ordering::Acquire)
    }

    /// `(pending logical deletes, lifetime compactions)` — the
    /// [`crate::engine::BasketReport`] telemetry.
    pub fn compaction_stats(&self) -> (usize, u64) {
        let inner = self.inner.lock();
        (inner.pending_deletes(), inner.compactions())
    }

    /// Force a physical compaction now (rewrites columns if any rows are
    /// marked deleted).
    pub fn compact_now(&self) {
        let mut inner = self.inner.lock();
        let rows = inner.deleted_count;
        inner.compact();
        if rows > 0 {
            if let Some(p) = self.probe() {
                p.note_compaction(rows);
            }
        }
        drop(inner);
        self.notify();
    }

    fn maybe_compact(&self, inner: &mut BasketInner) {
        if inner.deleted_count == 0 {
            return;
        }
        let threshold = self.compact_threshold();
        // Compact once the dead rows clear the absolute threshold AND an
        // eighth of the store: the rewrite is O(live), so this amortizes
        // to ≤ 8 rows moved per deleted row while bounding how long
        // snapshots/deletes stay in the dirty (gather/translate) regime.
        let due = threshold == 0
            || inner.deleted_count == inner.rel.len()
            || (inner.deleted_count >= threshold
                && inner.deleted_count * 8 >= inner.rel.len());
        if due {
            let rows = inner.deleted_count;
            inner.compact();
            if let Some(p) = self.probe() {
                p.note_compaction(rows);
            }
        }
    }

    /// Block until the basket drains below its cap (receptor
    /// backpressure). The caller [watches](Basket::watch) the basket and
    /// parks; every change (a consuming delete, a drain, a cap change,
    /// `disable()`) unparks it to re-check. A *disabled* basket always
    /// aborts the wait — `disable()` is the caller-independent lever to
    /// unwedge a blocked feeder whose consumer died. `abort` is re-checked
    /// on each wake-up, so whoever flips it (server shutdown) must
    /// [`Basket::notify`] afterwards. Returns `false` when aborted, `true`
    /// when capacity is available.
    pub fn wait_for_capacity(&self, abort: impl Fn() -> bool) -> bool {
        if self.has_capacity() {
            return true;
        }
        let started = std::time::Instant::now();
        let _watch = self.watch();
        if self.holds.load(Ordering::SeqCst) > 0 {
            // the consumer this feeder waits for may be parked on appends
            // the feeder itself holds back
            self.notify();
        }
        let ok = loop {
            if self.has_capacity() {
                break true;
            }
            if !self.is_enabled() || abort() {
                break false;
            }
            std::thread::park();
        };
        if let Some(p) = self.probe() {
            p.note_backpressure(started.elapsed().as_micros() as u64);
        }
        ok
    }

    // ---- integrity ----------------------------------------------------------

    /// Install an integrity constraint (a boolean SQL expression over the
    /// basket's columns). Violating tuples are silently dropped on append.
    pub fn add_constraint(&self, predicate: Expr) {
        self.constraints.lock().push(predicate);
    }

    /// Apply constraints to a candidate batch, returning the accepted rows.
    fn filter_constraints(&self, batch: Relation) -> Result<Relation> {
        let constraints = self.constraints.lock();
        if constraints.is_empty() || batch.is_empty() {
            return Ok(batch);
        }
        let ctx = StaticContext::new();
        let env = ExecEnv::default();
        let mut keep = SelVec::all(batch.len());
        for c in constraints.iter() {
            let mask = eval_expr(c, &batch, &ctx as &dyn QueryContext, &env)
                .map_err(EngineError::Sql)?;
            // NULL is not TRUE → dropped, exactly like a silent filter
            let passing = select_true(&mask, None)?;
            keep = keep.intersect(&passing);
        }
        let dropped = batch.len() - keep.len();
        if dropped > 0 {
            self.stats.dropped.fetch_add(dropped as u64, Ordering::Relaxed);
        }
        Ok(batch.gather(&keep)?)
    }

    // ---- ingestion ----------------------------------------------------------

    /// Append user rows (without the timestamp column); stamps arrival time
    /// when the basket was created with stamping. Returns accepted count.
    pub fn append_rows(&self, rows: &[Vec<Value>], clock: &dyn Clock) -> Result<usize> {
        if rows.is_empty() {
            return Ok(0);
        }
        let mut batch = Relation::new(&self.schema);
        let now = clock.now();
        for row in rows {
            if row.len() != self.user_width() {
                return Err(EngineError::Config(format!(
                    "basket {}: row width {} != schema width {}",
                    self.name,
                    row.len(),
                    self.user_width()
                )));
            }
            if self.stamps_arrival {
                let mut full = row.clone();
                full.push(Value::Ts(now));
                batch.append_row(&full)?;
            } else {
                batch.append_row(row)?;
            }
        }
        let uniform_ts = self.stamps_arrival.then_some(now);
        self.append_filtered(batch, uniform_ts)
    }

    /// Append an already-columnar batch. The batch must either match the
    /// full schema, or (for stamping baskets) the user schema — in which
    /// case arrival timestamps are added.
    pub fn append_relation(&self, batch: Relation, clock: &dyn Clock) -> Result<usize> {
        let (accepted, uniform_ts) = self.prepare_batch(batch, clock)?;
        self.commit(&accepted, uniform_ts)
    }

    /// Append through an already-held guard (factory firing path, where
    /// the apply phase holds the output-basket lock).
    pub fn append_relation_locked(
        &self,
        inner: &mut BasketInner,
        batch: Relation,
        clock: &dyn Clock,
    ) -> Result<usize> {
        let (accepted, uniform_ts) = self.prepare_batch(batch, clock)?;
        let appended = self.commit_locked(inner, &accepted, uniform_ts);
        self.notify();
        appended
    }

    /// Append accepted rows under the lock, then wake the watchers once
    /// it is released (a woken factory finds the basket free).
    fn commit(&self, accepted: &Relation, uniform_ts: Option<i64>) -> Result<usize> {
        if accepted.is_empty() {
            return Ok(0);
        }
        let appended = self.commit_locked(&mut self.inner.lock(), accepted, uniform_ts);
        if self.holds.load(Ordering::SeqCst) == 0 {
            self.notify();
        }
        appended
    }

    /// WAL, append and count accepted rows through the held lock.
    fn commit_locked(
        &self,
        inner: &mut BasketInner,
        accepted: &Relation,
        uniform_ts: Option<i64>,
    ) -> Result<usize> {
        let n = accepted.len();
        if n > 0 {
            self.log_accepted(accepted, uniform_ts)?;
            // positional compatibility was validated by the caller
            inner.rel.append_relation(accepted)?;
            inner.note_append(n);
            self.stats.total_in.fetch_add(n as u64, Ordering::Relaxed);
            self.note_high_water(inner.live_len());
            if let Some(p) = self.probe() {
                p.note_append(n);
            }
            self.maybe_seal(inner)?;
        }
        Ok(n)
    }

    fn note_high_water(&self, len: usize) {
        self.stats.high_water.fetch_max(len as u64, Ordering::Relaxed);
    }

    /// Stamp, validate and constraint-filter a batch (no locking).
    /// The second value is the single arrival timestamp this call
    /// stamped onto every row, when it did the stamping itself.
    fn prepare_batch(
        &self,
        mut batch: Relation,
        clock: &dyn Clock,
    ) -> Result<(Relation, Option<i64>)> {
        if !self.is_enabled() {
            return Err(EngineError::Disabled(self.name.clone()));
        }
        if batch.is_empty() {
            return Ok((Relation::new(&self.schema), None));
        }
        let mut uniform_ts = None;
        if self.stamps_arrival && batch.width() + 1 == self.schema.width() {
            let now = clock.now();
            let ts = Column::from_ts(vec![now; batch.len()]);
            batch.add_column(TS_COLUMN, ts)?;
            uniform_ts = Some(now);
        }
        if !batch.schema().compatible(&self.schema) {
            return Err(EngineError::Config(format!(
                "basket {}: incompatible batch schema",
                self.name
            )));
        }
        Ok((self.filter_constraints(batch)?, uniform_ts))
    }

    fn append_filtered(&self, batch: Relation, uniform_ts: Option<i64>) -> Result<usize> {
        if !self.is_enabled() {
            return Err(EngineError::Disabled(self.name.clone()));
        }
        let accepted = self.filter_constraints(batch)?;
        self.commit(&accepted, uniform_ts)
    }

    // ---- durability ---------------------------------------------------------

    /// WAL the accepted batch ahead of the in-memory append (no-op on
    /// transient baskets). Called under the basket lock; an error here
    /// rejects the whole append, so an acknowledged batch is always on
    /// the log first.
    fn log_accepted(&self, accepted: &Relation, uniform_ts: Option<i64>) -> Result<()> {
        match self.persist.get() {
            Some(p) => p.log_append(accepted, uniform_ts),
            None => Ok(()),
        }
    }

    /// Auto-seal once the resident rows cross the sink's threshold.
    fn maybe_seal(&self, inner: &mut BasketInner) -> Result<()> {
        if let Some(p) = self.persist.get() {
            let threshold = p.seal_threshold();
            if threshold > 0 && inner.live_len() >= threshold {
                self.seal_locked(inner, p.as_ref())?;
            }
        }
        Ok(())
    }

    /// Seal the live rows into durable storage now (`FLUSH STREAM`).
    /// Returns the number of rows sealed. Errors on transient baskets.
    pub fn seal_now(&self) -> Result<usize> {
        let sink = Arc::clone(self.persist.get().ok_or_else(|| {
            EngineError::Config(format!("basket {} is not persistent", self.name))
        })?);
        let mut inner = self.inner.lock();
        self.seal_locked(&mut inner, sink.as_ref())
    }

    /// Hand the live snapshot to the sink, then release the hot rows —
    /// they now live in an immutable segment. The snapshot is the
    /// copy-on-write column chain: O(width) Arc shares on a clean
    /// basket, never a row-wise re-encode.
    fn seal_locked(&self, inner: &mut BasketInner, sink: &dyn StreamPersist) -> Result<usize> {
        let snapshot = inner.live_snapshot();
        sink.seal(&snapshot)?;
        let n = snapshot.len();
        if !inner.rel.is_empty() {
            inner.rel = Relation::new(&self.schema);
            inner.deleted = None;
            inner.deleted_count = 0;
            inner.live_cache = None;
            inner.delete_gen += 1;
            self.notify();
        }
        if n > 0 {
            self.stats.total_out.fetch_add(n as u64, Ordering::Relaxed);
            if let Some(p) = self.probe() {
                p.take_watermark();
            }
        }
        Ok(n)
    }

    // ---- reading & consumption ----------------------------------------------

    /// Number of buffered (live) tuples.
    pub fn len(&self) -> usize {
        self.inner.lock().live_len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The visible contents ("a basket can also be inspected outside a
    /// basket expression; then it behaves as any table"). O(width) when no
    /// deletes are pending — every column is a copy-on-write share.
    pub fn snapshot(&self) -> Relation {
        self.inner.lock().live_snapshot()
    }

    /// Pruned snapshot: only the `wanted` columns (`None` = everything).
    /// Same visibility semantics as [`Basket::snapshot`], but a query
    /// touching 2 of 32 columns pays 2 Arc bumps, not 32 — see
    /// [`BasketInner::live_snapshot_cols`].
    pub fn snapshot_cols(
        &self,
        wanted: Option<&std::collections::BTreeSet<String>>,
    ) -> Relation {
        self.inner.lock().live_snapshot_cols(wanted)
    }

    /// Acquire the basket lock for a multi-step read-modify cycle (the
    /// factory firing path). Lock ordering by [`Basket::id`] is the
    /// caller's responsibility.
    pub fn lock(&self) -> MutexGuard<'_, BasketInner> {
        self.inner.lock()
    }

    /// Delete the given live-view positions (consumption after a basket
    /// expression). Positions index the relation [`Basket::snapshot`]
    /// returns; they stay valid as long as no other delete/drain runs
    /// between snapshot and this call (appends are always safe). The
    /// delete is logical — columns are rewritten only when the compaction
    /// threshold trips.
    pub fn delete_sel(&self, sel: &SelVec) -> Result<()> {
        let mut inner = self.inner.lock();
        self.delete_sel_locked(&mut inner, sel)
    }

    /// Delete live-view positions through an already-held guard (keeps
    /// snapshot positions valid across the read-consume cycle).
    pub fn delete_sel_locked(
        &self,
        inner: &mut BasketInner,
        sel: &SelVec,
    ) -> Result<()> {
        if sel.is_empty() {
            return Ok(());
        }
        sel.check_bounds(inner.live_len())?;
        self.stats
            .total_out
            .fetch_add(sel.len() as u64, Ordering::Relaxed);
        if let Some(p) = self.probe() {
            p.take_watermark(); // records dwell for the consumed batch(es)
        }
        match &mut inner.deleted {
            None if sel.len() == inner.rel.len() => {
                // consuming everything in a clean basket: release the
                // storage wholesale, no bitmap needed (the common
                // "whole batch referenced" firing)
                inner.rel.clear();
                inner.delete_gen += 1;
                self.notify();
                return Ok(());
            }
            None => {
                // clean basket: live positions ARE physical positions
                let mut deleted = Bitset::filled(inner.rel.len(), false);
                for p in sel.iter() {
                    deleted.set(p as usize, true);
                }
                inner.deleted = Some(deleted);
                inner.deleted_count = sel.len();
            }
            Some(_) => {
                let phys = inner.to_physical(sel);
                let deleted = inner.deleted.as_mut().expect("matched Some");
                for &p in &phys {
                    deleted.set(p as usize, true);
                }
                inner.deleted_count += phys.len();
            }
        }
        inner.delete_gen += 1;
        self.maybe_compact(inner);
        self.notify();
        Ok(())
    }

    /// Remove and return everything live (`basket.empty` in Algorithm 1).
    pub fn drain(&self) -> Relation {
        let mut inner = self.inner.lock();
        let n = inner.live_len();
        let full = match inner.live_sel() {
            None => {
                let empty = Relation::new(&self.schema);
                std::mem::replace(&mut inner.rel, empty)
            }
            Some(live) => {
                let out = inner
                    .rel
                    .gather(&live)
                    .expect("live positions are in bounds by construction");
                inner.rel = Relation::new(&self.schema);
                inner.deleted = None;
                inner.deleted_count = 0;
                inner.live_cache = None;
                out
            }
        };
        if !full.is_empty() {
            inner.delete_gen += 1;
            if let Some(p) = self.probe() {
                p.take_watermark();
            }
            self.notify();
        }
        self.stats.total_out.fetch_add(n as u64, Ordering::Relaxed);
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use dcsql::ast::BinOp;

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", ValueType::Int), ("payload", ValueType::Int)])
    }

    #[test]
    fn append_stamps_arrival_time() {
        let clock = VirtualClock::starting_at(42);
        let b = Basket::new("B", &schema(), true);
        assert_eq!(b.schema().width(), 3);
        b.append_rows(&[vec![Value::Int(1), Value::Int(10)]], &clock)
            .unwrap();
        clock.advance(8);
        b.append_rows(&[vec![Value::Int(2), Value::Int(20)]], &clock)
            .unwrap();
        let snap = b.snapshot();
        assert_eq!(snap.column(TS_COLUMN).unwrap().ints().unwrap(), &[42, 50]);
        assert_eq!(b.stats().snapshot().0, 2);
    }

    #[test]
    fn unstamped_basket_keeps_user_schema() {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), false);
        assert_eq!(b.schema().width(), 2);
        b.append_rows(&[vec![Value::Int(1), Value::Int(2)]], &clock)
            .unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn row_width_validated() {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), true);
        assert!(b.append_rows(&[vec![Value::Int(1)]], &clock).is_err());
    }

    #[test]
    fn integrity_constraints_silently_drop() {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), false);
        // payload > 0
        b.add_constraint(Expr::bin(
            BinOp::Gt,
            Expr::col("payload"),
            Expr::lit(0i64),
        ));
        let n = b
            .append_rows(
                &[
                    vec![Value::Int(1), Value::Int(5)],
                    vec![Value::Int(2), Value::Int(-1)],
                    vec![Value::Int(3), Value::Null], // NULL is not TRUE → dropped
                ],
                &clock,
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.stats().snapshot().2, 2, "two silent drops");
    }

    #[test]
    fn disable_blocks_the_stream() {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), false);
        b.disable();
        assert!(matches!(
            b.append_rows(&[vec![Value::Int(1), Value::Int(1)]], &clock),
            Err(EngineError::Disabled(_))
        ));
        b.enable();
        assert_eq!(
            b.append_rows(&[vec![Value::Int(1), Value::Int(1)]], &clock)
                .unwrap(),
            1
        );
    }

    #[test]
    fn drain_and_delete_track_outflow() {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), false);
        b.append_rows(
            &[
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(2)],
                vec![Value::Int(3), Value::Int(3)],
            ],
            &clock,
        )
        .unwrap();
        b.delete_sel(&SelVec::from_sorted(vec![1]).unwrap()).unwrap();
        assert_eq!(b.len(), 2);
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.stats().snapshot().1, 3);
    }

    #[test]
    fn append_relation_columnar_path() {
        let clock = VirtualClock::starting_at(7);
        let b = Basket::new("B", &schema(), true);
        let batch = Relation::from_columns(vec![
            ("id".into(), Column::from_ints(vec![1, 2])),
            ("payload".into(), Column::from_ints(vec![10, 20])),
        ])
        .unwrap();
        assert_eq!(b.append_relation(batch, &clock).unwrap(), 2);
        let snap = b.snapshot();
        assert_eq!(snap.column(TS_COLUMN).unwrap().ints().unwrap(), &[7, 7]);

        // full-schema batch passes through unchanged
        let full = Relation::from_columns(vec![
            ("id".into(), Column::from_ints(vec![3])),
            ("payload".into(), Column::from_ints(vec![30])),
            (TS_COLUMN.into(), Column::from_ts(vec![99])),
        ])
        .unwrap();
        b.append_relation(full, &clock).unwrap();
        assert_eq!(
            b.snapshot().column(TS_COLUMN).unwrap().ints().unwrap(),
            &[7, 7, 99]
        );

        let bad = Relation::from_columns(vec![("x".into(), Column::from_strs(vec!["s".into()]))])
            .unwrap();
        assert!(b.append_relation(bad, &clock).is_err());
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), false);
        b.append_rows(
            &[
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(2)],
            ],
            &clock,
        )
        .unwrap();
        assert_eq!(b.stats().high_water(), 2);
        let _ = b.drain();
        b.append_rows(&[vec![Value::Int(3), Value::Int(3)]], &clock)
            .unwrap();
        assert_eq!(b.stats().high_water(), 2, "high water is a lifetime max");
        b.append_rows(
            &[
                vec![Value::Int(4), Value::Int(4)],
                vec![Value::Int(5), Value::Int(5)],
            ],
            &clock,
        )
        .unwrap();
        assert_eq!(b.stats().high_water(), 3);
    }

    #[test]
    fn pending_cap_gates_capacity() {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), false);
        assert!(b.has_capacity(), "unbounded by default");
        b.set_pending_cap(2);
        assert_eq!(b.pending_cap(), 2);
        b.append_rows(
            &[
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(2)],
            ],
            &clock,
        )
        .unwrap();
        assert!(!b.has_capacity());
        assert!(!b.wait_for_capacity(|| true), "abort unblocks the wait");
        b.disable();
        assert!(
            !b.wait_for_capacity(|| false),
            "disabling the basket unblocks a waiting feeder"
        );
        b.enable();
        let _ = b.drain();
        assert!(b.has_capacity());
        assert!(b.wait_for_capacity(|| false));
    }

    #[test]
    fn pruned_snapshot_columns_and_fallbacks() {
        let clock = VirtualClock::new();
        let wide = Schema::from_pairs(&[
            ("a", ValueType::Int),
            ("b", ValueType::Int),
            ("c", ValueType::Int),
        ]);
        let b = Basket::new("B", &wide, false);
        b.append_rows(
            &[
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                vec![Value::Int(2), Value::Int(20), Value::Int(200)],
                vec![Value::Int(3), Value::Int(30), Value::Int(300)],
            ],
            &clock,
        )
        .unwrap();
        let wanted: std::collections::BTreeSet<String> =
            ["a".to_string(), "c".to_string()].into();
        // clean basket: column shares of exactly the wanted columns
        let snap = b.snapshot_cols(Some(&wanted));
        assert_eq!(snap.names(), &["a", "c"]);
        assert_eq!(snap.len(), 3);
        assert!(snap.column("a").unwrap().shares_data(b.snapshot().column("a").unwrap()));
        // None = full snapshot
        assert_eq!(b.snapshot_cols(None).width(), 3);
        // unknown names leave a row-count carrier
        let ghost: std::collections::BTreeSet<String> = ["zz".to_string()].into();
        let snap = b.snapshot_cols(Some(&ghost));
        assert_eq!(snap.width(), 1);
        assert_eq!(snap.len(), 3);

        // dirty basket (pending logical delete): pruned gather sees only
        // live rows, same numbering as the full snapshot
        b.set_compact_threshold(1_000_000);
        b.delete_sel(&SelVec::from_sorted(vec![1]).unwrap()).unwrap();
        let full = b.snapshot();
        let pruned = b.snapshot_cols(Some(&wanted));
        assert_eq!(pruned.len(), full.len());
        assert_eq!(pruned.column("a").unwrap().ints().unwrap(), &[1, 3]);
        assert_eq!(pruned.column("c").unwrap().ints().unwrap(), &[100, 300]);
    }

    /// Test durability sink: captures every logged batch and the seal
    /// snapshot; optionally fails log_append to model a full disk.
    #[derive(Default)]
    struct MockSink {
        fail_log: AtomicBool,
        logged: Mutex<Vec<Relation>>,
        sealed: Mutex<Vec<Relation>>,
        threshold: AtomicUsize,
    }

    impl StreamPersist for MockSink {
        fn log_append(&self, batch: &Relation, _uniform_ts: Option<i64>) -> Result<()> {
            if self.fail_log.load(Ordering::Relaxed) {
                return Err(EngineError::Io("disk full".into()));
            }
            self.logged.lock().push(batch.clone());
            Ok(())
        }

        fn seal(&self, snapshot: &Relation) -> Result<()> {
            self.sealed.lock().push(snapshot.clone());
            Ok(())
        }

        fn seal_threshold(&self) -> usize {
            self.threshold.load(Ordering::Relaxed)
        }

        fn stats(&self) -> PersistStats {
            PersistStats::default()
        }
    }

    #[test]
    fn persistent_append_logs_before_ack() {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), true);
        let sink = Arc::new(MockSink::default());
        b.set_persist(Arc::clone(&sink) as Arc<dyn StreamPersist>);
        b.append_rows(&[vec![Value::Int(1), Value::Int(10)]], &clock)
            .unwrap();
        {
            let logged = sink.logged.lock();
            assert_eq!(logged.len(), 1);
            assert_eq!(
                logged[0].schema().width(),
                b.schema().width(),
                "full schema (timestamps included) hits the log"
            );
        }
        // a failing log rejects the append outright: nothing enters the
        // basket, nothing is counted — the producer is never acked
        sink.fail_log.store(true, Ordering::Relaxed);
        assert!(b
            .append_rows(&[vec![Value::Int(2), Value::Int(20)]], &clock)
            .is_err());
        assert_eq!(b.len(), 1);
        assert_eq!(b.stats().snapshot().0, 1, "rejected batch not counted in");
    }

    #[test]
    fn seal_shares_columns_and_empties_the_basket() {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), true);
        let sink = Arc::new(MockSink::default());
        b.set_persist(Arc::clone(&sink) as Arc<dyn StreamPersist>);
        b.append_rows(
            &[
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ],
            &clock,
        )
        .unwrap();
        let before = b.snapshot();
        assert_eq!(b.seal_now().unwrap(), 2);
        assert!(b.is_empty(), "sealed rows left the hot basket");
        assert_eq!(b.stats().snapshot().1, 2, "sealing counts as outflow");
        let sealed = sink.sealed.lock();
        assert_eq!(sealed.len(), 1);
        // O(width) clean path: the sealed snapshot *shares* the basket's
        // column storage — no row-wise re-encode happened
        for name in before.names() {
            assert!(
                sealed[0]
                    .column(name)
                    .unwrap()
                    .shares_data(before.column(name).unwrap()),
                "column {name} was copied, not shared"
            );
        }
    }

    #[test]
    fn threshold_crossing_seals_automatically() {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), true);
        let sink = Arc::new(MockSink::default());
        sink.threshold.store(3, Ordering::Relaxed);
        b.set_persist(Arc::clone(&sink) as Arc<dyn StreamPersist>);
        for i in 0..5 {
            b.append_rows(&[vec![Value::Int(i), Value::Int(i)]], &clock)
                .unwrap();
        }
        assert_eq!(sink.sealed.lock().len(), 1, "one threshold crossing");
        assert_eq!(b.len(), 2, "post-seal tail stays hot");
    }

    #[test]
    fn seal_on_transient_basket_is_an_error() {
        let b = Basket::new("B", &schema(), true);
        assert!(matches!(b.seal_now(), Err(EngineError::Config(_))));
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let a = Basket::new("a", &schema(), false);
        let b = Basket::new("b", &schema(), false);
        assert!(b.id() > a.id());
    }

    #[test]
    fn concurrent_appends() {
        let clock = std::sync::Arc::new(VirtualClock::new());
        let b = Basket::new("B", &schema(), true);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let b = Arc::clone(&b);
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        b.append_rows(&[vec![Value::Int(t), Value::Int(i)]], clock.as_ref())
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.len(), 1000);
    }
}
