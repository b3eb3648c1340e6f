//! Factories — stateful continuous-query execution units (paper §3.3).
//!
//! A factory wraps (part of) a query plan. Its execution state survives
//! between calls; each call (`fire`) snapshots the involved baskets,
//! evaluates the plan over the snapshots and applies the effects —
//! Algorithm 1 of the paper, restructured so query execution happens
//! *outside* the basket locks:
//!
//! 1. **snapshot under lock** — O(width) copy-on-write clones of every
//!    involved basket, plus their delete-generation counters;
//! 2. **execute unlocked** — other factories and receptors proceed
//!    concurrently;
//! 3. **reacquire and apply** — if no conflicting delete intervened
//!    (generation check), consumption positions are still valid and the
//!    effects apply as-is; otherwise fall back to re-executing under the
//!    held locks (the original whole-firing-locked Algorithm 1).
//!
//! The scheduler treats factories as Petri-net transitions: `ready()` is
//! the firing condition.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

use dcsql::ast::Stmt;
use dctrace::now_micros;
use dcsql::exec::{execute_script, Effects, QueryContext};
use dcsql::SqlError;
use monet::catalog::Catalog;
use monet::prelude::*;
use parking_lot::Mutex;

use crate::analyze::analyze;
use crate::basket::Basket;
use crate::clock::Clock;
use crate::error::{EngineError, Result};
use crate::varstore::VarStore;

/// Outcome of one firing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FireReport {
    /// Tuples removed from input baskets.
    pub consumed: usize,
    /// Tuples appended to output baskets / result channels / tables.
    pub produced: usize,
    /// Wall-clock execution time of this firing, in microseconds.
    pub elapsed_micros: u64,
    /// Time spent holding basket locks, in microseconds (contention
    /// telemetry; ≤ `elapsed_micros`, and far below it when the
    /// short-lock protocol is winning).
    pub lock_micros: u64,
    /// Rows the plan actually pulled through the firing context (snapshot
    /// and catalog scans alike, on every execution path — compiled,
    /// interpreter, and interpreter fallback); delta statements count
    /// only the appended rows they processed.
    pub rows_scanned: u64,
    /// Rows the plan emitted (result rows + insert rows).
    pub rows_out: u64,
    /// Plan compile time, µs — a *gauge*, not a per-firing cost: every
    /// firing reports the factory's one-time compile time, and stats
    /// absorb it by assignment (a query that never compiled reports 0).
    pub plan_micros: u64,
    /// Appended rows processed incrementally by delta-capable statements
    /// this firing (0 when the firing ran full re-executions only).
    pub delta_rows: u64,
    /// Delta-capable statements that fell back to full re-execution this
    /// firing (bootstrap, generation bump, variable poisoning, errors).
    pub full_reexecutes: u64,
    /// Heap bytes held by this factory's delta state plus the shared
    /// arrangements it touched — a *gauge* like `plan_micros`.
    pub arrangement_bytes: u64,
}

/// Which execution path a [`QueryFactory`] fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanMode {
    /// The compiled [`dcsql::plan::PhysicalPlan`]: pruned snapshots,
    /// selection-vector filters, gather-at-projection.
    #[default]
    Compiled,
    /// The legacy AST interpreter with full-width snapshots — kept as
    /// the equivalence baseline (and the `fig6_pruning` comparison).
    Interpreted,
}

/// A Petri-net transition over baskets.
pub trait Factory: Send {
    fn name(&self) -> &str;

    /// Input places: the baskets whose contents trigger this factory.
    fn inputs(&self) -> &[Arc<Basket>];

    /// Output places (baskets this factory appends to).
    fn outputs(&self) -> &[Arc<Basket>];

    /// The Petri-net firing condition. Default: every input basket holds at
    /// least [`Factory::min_input`] tuples.
    fn ready(&self) -> bool {
        !self.inputs().is_empty()
            && self
                .inputs()
                .iter()
                .all(|b| b.len() >= self.min_input())
    }

    /// Minimum tuples per input before firing — the batch-processing
    /// threshold `T` of the micro-benchmarks.
    fn min_input(&self) -> usize {
        1
    }

    /// Every basket whose change can flip [`Factory::ready`]. A threaded
    /// scheduler parks the factory's thread until one of them changes, so
    /// a readiness condition reading a basket not listed here can miss
    /// its wake-up. Default: the inputs.
    fn wakers(&self) -> Vec<Arc<Basket>> {
        self.inputs().to_vec()
    }

    /// For readiness that also depends on time (metronomes): the longest
    /// a parked thread may wait before re-checking [`Factory::ready`].
    /// `None` (the default) means only basket changes flip readiness.
    fn recheck_after(&self) -> Option<std::time::Duration> {
        None
    }

    /// Execute one firing. Must be a no-op returning a default report if
    /// inputs vanished between `ready()` and `fire()`.
    fn fire(&mut self) -> Result<FireReport>;
}

/// How a query factory applies basket-expression consumption.
#[derive(Clone)]
pub enum ConsumeMode {
    /// Delete consumed tuples immediately after execution (separate-baskets
    /// and default behaviour — Algorithm 1).
    Apply,
    /// Record consumption into a shared ledger; an unlocker factory applies
    /// the union later (shared-baskets strategy, §4.2).
    Defer(Arc<PendingDeletes>),
}

impl std::fmt::Debug for ConsumeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsumeMode::Apply => f.write_str("Apply"),
            ConsumeMode::Defer(_) => f.write_str("Defer"),
        }
    }
}

/// Deferred-deletion ledger shared between a group of factories and their
/// unlocker. Positions stay valid as long as no deletes run on the basket
/// between recording and applying (appends are safe — they never shift
/// existing rows).
#[derive(Debug, Default)]
pub struct PendingDeletes {
    map: Mutex<HashMap<String, SelVec>>,
}

impl PendingDeletes {
    pub fn new() -> Arc<Self> {
        Arc::new(PendingDeletes::default())
    }

    /// Union `sel` into the pending set for `basket`.
    pub fn record(&self, basket: &str, sel: &SelVec) {
        let mut map = self.map.lock();
        match map.get_mut(basket) {
            Some(existing) => *existing = existing.union(sel),
            None => {
                map.insert(basket.to_string(), sel.clone());
            }
        }
    }

    /// Take everything recorded so far.
    pub fn take(&self) -> HashMap<String, SelVec> {
        std::mem::take(&mut self.map.lock())
    }

    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }
}

/// Snapshot-based [`QueryContext`] for one firing.
struct FiringContext<'a> {
    snapshots: &'a HashMap<String, Relation>,
    catalog: &'a Catalog,
    vars: &'a VarStore,
    now: i64,
    /// Rows handed to the executor, counted at the pull boundary — so
    /// interpreter-fallback statements and catalog-table scans are
    /// accounted exactly like compiled ones, and the delta executor can
    /// subtract the prefix it skipped.
    scans: AtomicU64,
}

impl<'a> FiringContext<'a> {
    fn new(
        snapshots: &'a HashMap<String, Relation>,
        catalog: &'a Catalog,
        vars: &'a VarStore,
        now: i64,
    ) -> Self {
        FiringContext {
            snapshots,
            catalog,
            vars,
            now,
            scans: AtomicU64::new(0),
        }
    }

    fn rows_scanned(&self) -> u64 {
        self.scans.load(AtomicOrdering::Relaxed)
    }
}

impl QueryContext for FiringContext<'_> {
    fn relation(&self, name: &str) -> dcsql::Result<Relation> {
        let rel = if let Some(r) = self.snapshots.get(name) {
            r.clone()
        } else {
            match self.catalog.get(name) {
                Ok(t) => t.read().expect("catalog lock").clone(),
                Err(_) => return Err(SqlError::Unknown(name.to_string())),
            }
        };
        self.scans
            .fetch_add(rel.len() as u64, AtomicOrdering::Relaxed);
        Ok(rel)
    }

    fn get_var(&self, name: &str) -> Option<Value> {
        self.vars.get(name)
    }

    fn now(&self) -> i64 {
        self.now
    }

    fn scan_counter(&self) -> Option<&AtomicU64> {
        Some(&self.scans)
    }
}

/// A factory executing a SQL script (the common case: one continuous
/// query, possibly a WITH-split or multiple statements).
pub struct QueryFactory {
    name: String,
    stmts: Vec<Stmt>,
    /// Compiled once at registration; fired forever.
    plan: dcsql::plan::PhysicalPlan,
    plan_mode: PlanMode,
    /// Baskets that gate firing (the consumed baskets, unless overridden
    /// by `trigger_on`).
    inputs: Vec<Arc<Basket>>,
    /// Baskets consumed by basket expressions — the only baskets whose
    /// delete generation can invalidate this factory's recorded
    /// consumption positions.
    consumed_inputs: Vec<Arc<Basket>>,
    /// Baskets read non-consumingly (snapshotted, but don't gate firing).
    reads: Vec<Arc<Basket>>,
    /// Baskets inserted into.
    outputs: Vec<Arc<Basket>>,
    catalog: Arc<Catalog>,
    vars: Arc<VarStore>,
    clock: Arc<dyn Clock>,
    min_input: usize,
    consume: ConsumeMode,
    /// Channel receiving bare-SELECT results (the emitter side).
    result_tx: Option<crossbeam::channel::Sender<Relation>>,
    /// Telemetry probe (fire-phase histograms, tuple latency, the flight
    /// recorder); absent when telemetry is off.
    probe: Option<Arc<dctrace::FireProbe>>,
    /// Carried delta-execution state (join pair lists, group
    /// accumulators), committed only after a firing's effects applied.
    delta_state: dcsql::plan::PlanDeltaState,
    /// Engine-wide shared arrangements; `None` keeps delta execution
    /// working with private per-statement indexes.
    arrangements: Option<Arc<dcsql::plan::ArrangementRegistry>>,
    /// `(len, delete_gen)` of each `reads` basket at the start of the
    /// last completed firing. Readiness mark for *read-only* standing
    /// queries (no consumed inputs, no trigger): such a factory is ready
    /// exactly when a read basket changed, so schedulers re-fire it on
    /// new data without spinning on unchanged inputs.
    read_marks: Option<Vec<(usize, u64)>>,
}

impl QueryFactory {
    /// Build a query factory. `resolve` maps table names to baskets; names
    /// that don't resolve are treated as catalog tables.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        stmts: Vec<Stmt>,
        resolve: &dyn Fn(&str) -> Option<Arc<Basket>>,
        catalog: Arc<Catalog>,
        vars: Arc<VarStore>,
        clock: Arc<dyn Clock>,
        consume: ConsumeMode,
        trigger_on: Option<Vec<Arc<Basket>>>,
    ) -> Result<Self> {
        let shape = analyze(&stmts);
        let mut inputs = Vec::new();
        for name in &shape.consumed {
            match resolve(name) {
                Some(b) => inputs.push(b),
                None => {
                    // a consumed name that is a catalog table is a config
                    // error: persistent tables are not consumable
                    if catalog.contains(name) {
                        return Err(EngineError::Config(format!(
                            "basket expression over persistent table {name}"
                        )));
                    }
                    return Err(EngineError::Unknown(name.clone()));
                }
            }
        }
        let mut reads = Vec::new();
        for name in &shape.read {
            if let Some(b) = resolve(name) {
                reads.push(b);
            } else if !catalog.contains(name) {
                return Err(EngineError::Unknown(name.clone()));
            }
        }
        let mut outputs = Vec::new();
        for name in &shape.inserted {
            if let Some(b) = resolve(name) {
                outputs.push(b);
            } else if !catalog.contains(name) {
                return Err(EngineError::Unknown(name.clone()));
            }
        }
        let consumed_inputs = inputs.clone();
        let inputs = trigger_on.unwrap_or(inputs);
        let plan = dcsql::plan::PhysicalPlan::compile(&stmts);
        Ok(QueryFactory {
            name: name.into(),
            stmts,
            plan,
            plan_mode: PlanMode::default(),
            inputs,
            consumed_inputs,
            reads,
            outputs,
            catalog,
            vars,
            clock,
            min_input: 1,
            consume,
            result_tx: None,
            probe: None,
            delta_state: dcsql::plan::PlanDeltaState::default(),
            arrangements: None,
            read_marks: None,
        })
    }

    /// Batch threshold: fire only once every input holds ≥ `n` tuples.
    pub fn with_min_input(mut self, n: usize) -> Self {
        self.min_input = n.max(1);
        self
    }

    /// Select the execution path (default: the compiled plan).
    pub fn with_plan_mode(mut self, mode: PlanMode) -> Self {
        self.plan_mode = mode;
        self
    }

    /// Attach the telemetry probe (fire-phase histograms and events).
    pub fn with_probe(mut self, probe: Option<Arc<dctrace::FireProbe>>) -> Self {
        self.probe = probe;
        self
    }

    /// Share the engine's arrangement registry so delta-capable joins
    /// reuse one `(basket, key)` index across standing queries.
    pub fn with_arrangements(
        mut self,
        registry: Option<Arc<dcsql::plan::ArrangementRegistry>>,
    ) -> Self {
        self.arrangements = registry;
        self
    }

    /// Live delta-execution footprint in bytes (EXPLAIN introspection).
    pub fn delta_state_bytes(&self) -> u64 {
        self.delta_state.bytes() as u64
    }

    /// Whether a variable read permanently disabled delta execution.
    pub fn delta_poisoned(&self) -> bool {
        self.delta_state.is_poisoned()
    }

    /// The compiled plan (EXPLAIN introspection).
    pub fn plan(&self) -> &dcsql::plan::PhysicalPlan {
        &self.plan
    }

    /// Snapshot one scanned basket for a firing: pruned to the plan's
    /// column requirements on the compiled path, full-width on the
    /// interpreter path.
    fn snapshot_for_fire(
        &self,
        basket: &Basket,
        guard: &mut crate::basket::BasketInner,
    ) -> Relation {
        match self.plan_mode {
            PlanMode::Compiled => guard.live_snapshot_cols(self.plan.wanted_for(basket.name())),
            PlanMode::Interpreted => guard.live_snapshot(),
        }
    }

    /// Run the script over the firing snapshots on the configured path.
    /// On the compiled path with delta-capable statements this runs the
    /// standing-query executor: `spans` carries the delete generation of
    /// every scanned basket (the append-only premise check) and the
    /// returned state is committed by the caller only after the firing's
    /// effects applied.
    #[allow(clippy::type_complexity)]
    fn run_script(
        &self,
        ctx: &FiringContext<'_>,
        spans: &HashMap<String, u64>,
    ) -> dcsql::Result<(
        Effects,
        Option<(dcsql::plan::DeltaOutcome, dcsql::plan::PlanDeltaState)>,
    )> {
        match self.plan_mode {
            PlanMode::Compiled if self.plan.delta_count() > 0 => {
                let (effects, outcome, state) = self.plan.execute_standing(
                    ctx,
                    spans,
                    &self.delta_state,
                    self.arrangements.as_deref(),
                )?;
                Ok((effects, Some((outcome, state))))
            }
            PlanMode::Compiled => Ok((self.plan.execute(ctx)?, None)),
            PlanMode::Interpreted => Ok((execute_script(&self.stmts, ctx)?, None)),
        }
    }

    /// Attach a result channel; bare SELECT results are sent there batch
    /// by batch (an emitter drains the other end).
    pub fn result_channel(&mut self) -> crossbeam::channel::Receiver<Relation> {
        let (tx, rx) = crossbeam::channel::unbounded();
        self.result_tx = Some(tx);
        rx
    }

    /// All baskets this firing must lock, in id order, deduplicated.
    fn involved(&self) -> Vec<Arc<Basket>> {
        let mut v: Vec<Arc<Basket>> = self
            .inputs
            .iter()
            .chain(self.consumed_inputs.iter())
            .chain(self.reads.iter())
            .chain(self.outputs.iter())
            .cloned()
            .collect();
        v.sort_by_key(|b| b.id());
        v.dedup_by_key(|b| b.id());
        v
    }

    /// Apply the executor's effects under the held basket guards.
    fn apply_effects(
        &self,
        mut effects: Effects,
        baskets: &HashMap<String, (Arc<Basket>, usize)>,
        guards: &mut [parking_lot::MutexGuard<'_, crate::basket::BasketInner>],
    ) -> Result<FireReport> {
        let mut consumed = 0usize;
        let mut produced = 0usize;

        // deletions (basket-expression consumption). The executor unions
        // selections per basket (`merge_consumed`), so each basket appears
        // at most once — crucial, since every selection is positioned
        // against the same snapshot and chained deletes would shift later
        // positions.
        debug_assert!(
            {
                let names: Vec<&String> = effects.consumed.iter().map(|(n, _)| n).collect();
                names.iter().collect::<std::collections::HashSet<_>>().len() == names.len()
            },
            "executor must union consumption per basket"
        );
        for (name, sel) in std::mem::take(&mut effects.consumed) {
            match &self.consume {
                ConsumeMode::Apply => {
                    if let Some((basket, gi)) = baskets.get(&name) {
                        basket.delete_sel_locked(&mut guards[*gi], &sel)?;
                        consumed += sel.len();
                    }
                }
                ConsumeMode::Defer(pending) => {
                    pending.record(&name, &sel);
                    consumed += sel.len();
                }
            }
        }

        // inserts
        for (table, columns, rows) in effects.inserts {
            let rows = match &columns {
                Some(cols) => remap_columns(rows, cols)?,
                None => rows,
            };
            produced += rows.len();
            if let Some((basket, gi)) = baskets.get(&table) {
                basket.append_relation_locked(
                    &mut guards[*gi],
                    rows,
                    self.clock.as_ref(),
                )?;
            } else {
                let t = self.catalog.get(&table)?;
                let mut t = t.write().expect("catalog table lock");
                t.append_relation(&rows)?;
            }
        }

        // variables
        for (name, vtype) in effects.declares {
            // re-declare silently: continuous scripts run repeatedly
            let _ = self.vars.declare(&name, vtype);
        }
        for (name, value) in effects.var_updates {
            if !self.vars.is_declared(&name) {
                let vtype = value.value_type().unwrap_or(ValueType::Int);
                self.vars.declare(&name, vtype)?;
            }
            self.vars.set(&name, value)?;
        }

        // bare SELECT result
        if let Some(rel) = effects.result {
            if !rel.is_empty() {
                produced += rel.len();
                if let Some(tx) = &self.result_tx {
                    let _ = tx.send(rel);
                }
            }
        }
        Ok(FireReport {
            consumed,
            produced,
            ..FireReport::default()
        })
    }
}

/// Rename an insert batch to an explicit column list (positional payload,
/// named targets). The batch is renamed in place — no column data moves.
fn remap_columns(rows: Relation, cols: &[String]) -> Result<Relation> {
    if cols.len() != rows.width() {
        return Err(EngineError::Config(format!(
            "insert column list has {} names but select produced {} columns",
            cols.len(),
            rows.width()
        )));
    }
    let mut renamed = rows;
    renamed.rename_columns(cols.to_vec())?;
    Ok(renamed)
}

impl Factory for QueryFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> &[Arc<Basket>] {
        &self.inputs
    }

    fn outputs(&self) -> &[Arc<Basket>] {
        &self.outputs
    }

    fn min_input(&self) -> usize {
        self.min_input
    }

    fn wakers(&self) -> Vec<Arc<Basket>> {
        self.inputs.iter().chain(&self.reads).cloned().collect()
    }

    fn ready(&self) -> bool {
        if !self.inputs.is_empty() {
            return self.inputs.iter().all(|b| b.len() >= self.min_input);
        }
        // Read-only standing query: fire when a read basket changed
        // since the last firing (or holds data and we never fired).
        match &self.read_marks {
            None => self.reads.iter().any(|b| !b.is_empty()),
            Some(marks) => self.reads.iter().zip(marks).any(|(b, &(len, gen))| {
                let g = b.lock();
                g.live_len() != len || g.delete_gen() != gen
            }),
        }
    }

    fn fire(&mut self) -> Result<FireReport> {
        let started = Instant::now();
        let involved = self.involved();
        // Mark the read baskets *before* snapshotting: anything appended
        // after the mark re-arms `ready()` even if this firing already
        // saw it — one redundant firing, never a missed one.
        let read_marks: Vec<(usize, u64)> = self
            .reads
            .iter()
            .map(|b| {
                let g = b.lock();
                (g.live_len(), g.delete_gen())
            })
            .collect();
        // Oldest pending ingest timestamp across the consumed baskets —
        // read before the snapshot so the end-to-end tuple latency spans
        // the whole firing. One relaxed load per basket; 0 when unset or
        // telemetry is off.
        let watermark = if self.probe.is_some() {
            self.consumed_inputs
                .iter()
                .filter_map(|b| b.probe())
                .map(|p| p.watermark())
                .filter(|&w| w != 0)
                .min()
                .unwrap_or(0)
        } else {
            0
        };
        // Pending trace mark of a sampled batch in one of the consumed
        // baskets — the firing that drains it owns its basket-dwell and
        // fire spans (first mark wins when several inputs are traced).
        let trace_mark = if self.probe.is_some() {
            self.consumed_inputs
                .iter()
                .filter_map(|b| b.probe())
                .find_map(|p| p.take_trace_mark())
        } else {
            None
        };
        if let Some(p) = &self.probe {
            p.note_fire_start();
        }

        // Phase 1 — snapshot under a short lock. Only the baskets the
        // script can actually *read* need snapshots (consumed + reads);
        // pure outputs are locked later, in the apply phase, so a
        // downstream consumer of our output is never serialized against
        // our snapshot. With copy-on-write columns each snapshot is
        // O(width); the delete generations (by basket id) pin the
        // live-row numbering the consumed snapshots were taken at.
        let mut scanned: Vec<Arc<Basket>> = self
            .consumed_inputs
            .iter()
            .chain(self.reads.iter())
            .cloned()
            .collect();
        scanned.sort_by_key(|b| b.id());
        scanned.dedup_by_key(|b| b.id());
        let scanned_ids: std::collections::HashSet<u64> =
            scanned.iter().map(|b| b.id()).collect();
        let lock_started = Instant::now();
        let mut guards: Vec<parking_lot::MutexGuard<'_, crate::basket::BasketInner>> =
            scanned.iter().map(|b| b.lock()).collect();
        let acquire_micros = lock_started.elapsed().as_micros() as u64;
        let snapshot_started = Instant::now();
        let mut snapshots: HashMap<String, Relation> = HashMap::new();
        let mut gens: HashMap<u64, u64> = HashMap::with_capacity(scanned.len());
        let mut spans: HashMap<String, u64> = HashMap::with_capacity(scanned.len());
        for (i, b) in scanned.iter().enumerate() {
            let snap = self.snapshot_for_fire(b, &mut guards[i]);
            snapshots.insert(b.name().to_string(), snap);
            gens.insert(b.id(), guards[i].delete_gen());
            spans.insert(b.name().to_string(), guards[i].delete_gen());
        }
        drop(guards);
        let snapshot_micros = snapshot_started.elapsed().as_micros() as u64;
        let mut lock_micros = acquire_micros + snapshot_micros;

        // Phase 2 — execute with no basket locks held: other factories,
        // receptors and emitters proceed concurrently. The compiled plan
        // walks selection vectors; the interpreter re-walks the AST.
        // Rows-scanned is counted at the context's pull boundary, so the
        // interpreter and interpreter-fallback statements are accounted
        // too, and delta statements subtract the prefix they skipped.
        let execute_started = Instant::now();
        let (effects, delta, mut rows_scanned) = {
            let ctx = FiringContext::new(&snapshots, &self.catalog, &self.vars, self.clock.now());
            let (effects, delta) = self.run_script(&ctx, &spans)?;
            let rows = ctx.rows_scanned();
            (effects, delta, rows)
        };
        let mut execute_micros = execute_started.elapsed().as_micros() as u64;
        // Release the snapshots' column shares before the phase-3 re-lock:
        // a receptor blocked on a basket lock during the apply would
        // otherwise append into still-shared columns and deep-copy them
        // (the re-execute path below takes its own snapshots).
        drop(snapshots);

        // Phase 3 — reacquire and apply. Appends elsewhere are harmless
        // (they never renumber existing rows); a delete/drain/compaction
        // on a *consumed* basket shifts the live numbering our consumption
        // positions refer to, so on a generation mismatch fall back to
        // re-executing with every lock held (the original whole-firing-
        // locked Algorithm 1) — conservative, rare, and guaranteed
        // consistent. Only consumed baskets matter here: nothing positional
        // is ever applied to read-only or output baskets, so a downstream
        // consumer draining our output must not force a re-execution.
        let lock_started = Instant::now();
        let mut guards: Vec<parking_lot::MutexGuard<'_, crate::basket::BasketInner>> =
            involved.iter().map(|b| b.lock()).collect();
        let acquire_micros = acquire_micros + lock_started.elapsed().as_micros() as u64;
        let mut index: HashMap<String, (Arc<Basket>, usize)> = HashMap::new();
        for (i, b) in involved.iter().enumerate() {
            index.insert(b.name().to_string(), (Arc::clone(b), i));
        }
        let consumed_ids: std::collections::HashSet<u64> =
            self.consumed_inputs.iter().map(|b| b.id()).collect();
        let unchanged = involved
            .iter()
            .enumerate()
            .filter(|(_, b)| consumed_ids.contains(&b.id()))
            .all(|(i, b)| Some(&guards[i].delete_gen()) == gens.get(&b.id()));
        let (effects, delta) = if unchanged {
            (effects, delta)
        } else {
            if let Some(p) = &self.probe {
                p.note_reexecute();
            }
            let reexec_started = Instant::now();
            let mut snapshots: HashMap<String, Relation> = HashMap::new();
            let mut spans: HashMap<String, u64> = HashMap::new();
            for (i, b) in involved.iter().enumerate() {
                let snap = self.snapshot_for_fire(b, &mut guards[i]);
                // `involved` also carries pure output baskets — those are
                // snapshotted for the context but are not plan input (the
                // scan counter only sees what the plan pulls), and their
                // generations don't gate delta execution
                if scanned_ids.contains(&b.id()) {
                    spans.insert(b.name().to_string(), guards[i].delete_gen());
                }
                snapshots.insert(b.name().to_string(), snap);
            }
            let ctx = FiringContext::new(&snapshots, &self.catalog, &self.vars, self.clock.now());
            let (effects, delta) = self.run_script(&ctx, &spans)?;
            rows_scanned = ctx.rows_scanned();
            execute_micros += reexec_started.elapsed().as_micros() as u64;
            (effects, delta)
        };
        let apply_started = Instant::now();
        let mut report = self.apply_effects(effects, &index, &mut guards)?;
        let apply_micros = apply_started.elapsed().as_micros() as u64;
        // Commit the delta state only now: if applying the effects had
        // failed, the old state would replay the same appended rows on the
        // next firing instead of silently dropping them (exactly-once).
        if let Some((outcome, state)) = delta {
            self.delta_state = state;
            report.delta_rows = outcome.delta_rows;
            report.full_reexecutes = outcome.full_reexecutes;
            report.arrangement_bytes = outcome.state_bytes + outcome.arrangement_bytes;
            if let Some(p) = &self.probe {
                for reason in &outcome.fallbacks {
                    p.note_delta_fallback(reason);
                }
            }
        }
        self.read_marks = Some(read_marks);
        lock_micros += lock_started.elapsed().as_micros() as u64;
        report.elapsed_micros = started.elapsed().as_micros() as u64;
        report.lock_micros = lock_micros;
        report.rows_scanned = rows_scanned;
        // today the plan's output cardinality coincides with `produced`
        // (everything the plan emits is applied); the field is the
        // plan-boundary counter, so paths that apply less than they
        // compute (e.g. future delta re-execution) report them apart
        report.rows_out = report.produced as u64;
        report.plan_micros = self.plan.compile_micros;
        if let Some(p) = &self.probe {
            p.note_fire_end(
                acquire_micros,
                snapshot_micros,
                execute_micros,
                apply_micros,
                report.elapsed_micros,
                watermark,
                report.rows_scanned,
                report.rows_out,
            );
            if let Some((batch, stamp)) = trace_mark {
                let fire_start = now_micros().saturating_sub(report.elapsed_micros);
                p.note_trace(batch, fire_start.saturating_sub(stamp), report.elapsed_micros);
            }
        }
        Ok(report)
    }
}

/// A factory defined by a closure — used for lockers/unlockers, replica-
/// tors, Linear Road's bespoke operators, and tests. The closure receives
/// no arguments: it captures the baskets it needs and does its own locking.
pub struct ClosureFactory {
    name: String,
    inputs: Vec<Arc<Basket>>,
    outputs: Vec<Arc<Basket>>,
    min_input: usize,
    ready_fn: Option<Box<dyn Fn() -> bool + Send>>,
    /// Baskets a custom ready gate reads besides the inputs.
    watched: Vec<Arc<Basket>>,
    fire_fn: Box<dyn FnMut() -> Result<FireReport> + Send>,
}

impl ClosureFactory {
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<Arc<Basket>>,
        outputs: Vec<Arc<Basket>>,
        fire_fn: impl FnMut() -> Result<FireReport> + Send + 'static,
    ) -> Self {
        ClosureFactory {
            name: name.into(),
            inputs,
            outputs,
            min_input: 1,
            ready_fn: None,
            watched: Vec::new(),
            fire_fn: Box::new(fire_fn),
        }
    }

    pub fn with_min_input(mut self, n: usize) -> Self {
        self.min_input = n.max(1);
        self
    }

    /// Override the firing condition entirely. `reads` names every
    /// basket the gate reads besides the inputs (see [`Factory::wakers`]).
    pub fn with_ready(
        mut self,
        reads: Vec<Arc<Basket>>,
        f: impl Fn() -> bool + Send + 'static,
    ) -> Self {
        self.ready_fn = Some(Box::new(f));
        self.watched = reads;
        self
    }
}

impl Factory for ClosureFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> &[Arc<Basket>] {
        &self.inputs
    }

    fn outputs(&self) -> &[Arc<Basket>] {
        &self.outputs
    }

    fn min_input(&self) -> usize {
        self.min_input
    }

    fn wakers(&self) -> Vec<Arc<Basket>> {
        self.inputs.iter().chain(&self.watched).cloned().collect()
    }

    fn ready(&self) -> bool {
        match &self.ready_fn {
            Some(f) => f(),
            None => {
                !self.inputs.is_empty()
                    && self.inputs.iter().all(|b| b.len() >= self.min_input)
            }
        }
    }

    fn fire(&mut self) -> Result<FireReport> {
        let started = Instant::now();
        let mut report = (self.fire_fn)()?;
        report.elapsed_micros = started.elapsed().as_micros() as u64;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use dcsql::parse_statements;

    #[allow(clippy::type_complexity)]
    fn setup() -> (
        Arc<VirtualClock>,
        Arc<Catalog>,
        Arc<VarStore>,
        Arc<Basket>,
        Arc<Basket>,
    ) {
        let clock = Arc::new(VirtualClock::starting_at(1_000));
        let catalog = Arc::new(Catalog::new());
        let vars = Arc::new(VarStore::new());
        let schema = Schema::from_pairs(&[("id", ValueType::Int), ("payload", ValueType::Int)]);
        let input = Basket::new("S", &schema, false);
        let output = Basket::new("OUT", &schema, false);
        (clock, catalog, vars, input, output)
    }

    fn mkq(
        sql: &str,
        input: &Arc<Basket>,
        output: &Arc<Basket>,
        clock: Arc<VirtualClock>,
        catalog: Arc<Catalog>,
        vars: Arc<VarStore>,
        consume: ConsumeMode,
    ) -> QueryFactory {
        let stmts = parse_statements(sql).unwrap();
        let i2 = Arc::clone(input);
        let o2 = Arc::clone(output);
        QueryFactory::new(
            "q",
            stmts,
            &move |n: &str| match n {
                "S" => Some(Arc::clone(&i2)),
                "OUT" => Some(Arc::clone(&o2)),
                _ => None,
            },
            catalog,
            vars,
            clock,
            consume,
            None,
        )
        .unwrap()
    }

    #[test]
    fn algorithm1_select_into_output() {
        let (clock, catalog, vars, input, output) = setup();
        input
            .append_rows(
                &[
                    vec![Value::Int(1), Value::Int(50)],
                    vec![Value::Int(2), Value::Int(150)],
                    vec![Value::Int(3), Value::Int(250)],
                ],
                clock.as_ref(),
            )
            .unwrap();
        let mut q = mkq(
            "insert into OUT select * from [select * from S where payload > 100] as Z",
            &input,
            &output,
            clock,
            catalog,
            vars,
            ConsumeMode::Apply,
        );
        assert!(q.ready());
        let report = q.fire().unwrap();
        assert_eq!(report.consumed, 2);
        assert_eq!(report.produced, 2);
        assert_eq!(input.len(), 1, "only the non-matching tuple remains");
        assert_eq!(output.len(), 2);
        // the unmatched tuple is still buffered, so the factory stays ready
        assert!(q.ready());
    }

    #[test]
    fn consume_all_referenced_empties_basket() {
        let (clock, catalog, vars, input, output) = setup();
        input
            .append_rows(&[vec![Value::Int(1), Value::Int(5)]], clock.as_ref())
            .unwrap();
        let mut q = mkq(
            "insert into OUT select * from [select * from S] as Z where Z.payload > 100",
            &input,
            &output,
            clock,
            catalog,
            vars,
            ConsumeMode::Apply,
        );
        let report = q.fire().unwrap();
        assert_eq!(report.consumed, 1, "referenced despite failing outer filter");
        assert_eq!(report.produced, 0);
        assert!(input.is_empty());
        assert!(output.is_empty());
    }

    #[test]
    fn deferred_consumption_records_only() {
        let (clock, catalog, vars, input, output) = setup();
        input
            .append_rows(&[vec![Value::Int(1), Value::Int(5)]], clock.as_ref())
            .unwrap();
        let pending = PendingDeletes::new();
        let mut q = mkq(
            "insert into OUT select * from [select * from S] as Z",
            &input,
            &output,
            clock,
            catalog,
            vars,
            ConsumeMode::Defer(Arc::clone(&pending)),
        );
        q.fire().unwrap();
        assert_eq!(input.len(), 1, "tuple still in basket");
        let taken = pending.take();
        assert_eq!(taken["S"].as_slice(), &[0]);
        assert!(pending.is_empty());
    }

    #[test]
    fn result_channel_receives_select_output() {
        let (clock, catalog, vars, input, output) = setup();
        input
            .append_rows(&[vec![Value::Int(7), Value::Int(70)]], clock.as_ref())
            .unwrap();
        let mut q = mkq(
            "select * from [select * from S] as Z",
            &input,
            &output,
            clock,
            catalog,
            vars,
            ConsumeMode::Apply,
        );
        let rx = q.result_channel();
        q.fire().unwrap();
        let batch = rx.try_recv().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.column("id").unwrap().ints().unwrap(), &[7]);
    }

    #[test]
    fn min_input_batch_threshold() {
        let (clock, catalog, vars, input, output) = setup();
        let mut q = mkq(
            "insert into OUT select * from [select * from S] as Z",
            &input,
            &output,
            Arc::clone(&clock),
            catalog,
            vars,
            ConsumeMode::Apply,
        )
        .with_min_input(3);
        input
            .append_rows(&[vec![Value::Int(1), Value::Int(1)]], clock.as_ref())
            .unwrap();
        assert!(!q.ready());
        input
            .append_rows(
                &[
                    vec![Value::Int(2), Value::Int(2)],
                    vec![Value::Int(3), Value::Int(3)],
                ],
                clock.as_ref(),
            )
            .unwrap();
        assert!(q.ready());
        let r = q.fire().unwrap();
        assert_eq!(r.consumed, 3);
    }

    #[test]
    fn inserts_into_catalog_tables() {
        let (clock, catalog, vars, input, output) = setup();
        catalog
            .create_table(
                "hist",
                &Schema::from_pairs(&[("id", ValueType::Int), ("payload", ValueType::Int)]),
            )
            .unwrap();
        input
            .append_rows(&[vec![Value::Int(4), Value::Int(40)]], clock.as_ref())
            .unwrap();
        let mut q = mkq(
            "insert into hist select * from [select * from S] as Z",
            &input,
            &output,
            clock,
            catalog.clone(),
            vars,
            ConsumeMode::Apply,
        );
        q.fire().unwrap();
        let t = catalog.get("hist").unwrap();
        assert_eq!(t.read().unwrap().len(), 1);
    }

    #[test]
    fn variables_update_via_set() {
        let (clock, catalog, vars, input, output) = setup();
        input
            .append_rows(
                &[
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), Value::Int(20)],
                ],
                clock.as_ref(),
            )
            .unwrap();
        vars.declare("cnt", ValueType::Int).unwrap();
        vars.set("cnt", Value::Int(0)).unwrap();
        let mut q = mkq(
            "with Z as [select payload from S] begin \
             set cnt = cnt + (select count(*) from Z); end",
            &input,
            &output,
            Arc::clone(&clock),
            catalog,
            Arc::clone(&vars),
            ConsumeMode::Apply,
        );
        q.fire().unwrap();
        assert_eq!(vars.get("cnt"), Some(Value::Int(2)));
        assert!(input.is_empty(), "WITH source consumed");
    }

    #[test]
    fn closure_factory_ready_and_fire() {
        let (clock, _, _, input, output) = setup();
        input
            .append_rows(&[vec![Value::Int(1), Value::Int(1)]], clock.as_ref())
            .unwrap();
        let i = Arc::clone(&input);
        let o = Arc::clone(&output);
        let c2 = Arc::clone(&clock);
        let mut f = ClosureFactory::new(
            "copier",
            vec![Arc::clone(&input)],
            vec![Arc::clone(&output)],
            move || {
                let batch = i.drain();
                let n = batch.len();
                o.append_relation(batch, c2.as_ref())?;
                Ok(FireReport {
                    consumed: n,
                    produced: n,
                    ..FireReport::default()
                })
            },
        );
        assert!(f.ready());
        let r = f.fire().unwrap();
        assert_eq!(r.consumed, 1);
        assert!(!f.ready());
        assert_eq!(output.len(), 1);

        let always = ClosureFactory::new("gen", vec![], vec![], || Ok(FireReport::default()))
            .with_ready(vec![], || true);
        assert!(always.ready());
    }

    #[test]
    fn compiled_and_interpreted_paths_agree() {
        for mode in [PlanMode::Compiled, PlanMode::Interpreted] {
            let (clock, catalog, vars, input, output) = setup();
            input
                .append_rows(
                    &[
                        vec![Value::Int(1), Value::Int(50)],
                        vec![Value::Int(2), Value::Int(150)],
                        vec![Value::Int(3), Value::Int(250)],
                    ],
                    clock.as_ref(),
                )
                .unwrap();
            let mut q = mkq(
                "insert into OUT select id, payload from \
                 [select id, payload from S where payload > 100] as Z where Z.id < 3",
                &input,
                &output,
                clock,
                catalog,
                vars,
                ConsumeMode::Apply,
            )
            .with_plan_mode(mode);
            let r = q.fire().unwrap();
            assert_eq!(r.consumed, 2, "inner filter defines consumption ({mode:?})");
            assert_eq!(r.produced, 1, "outer filter bounds output ({mode:?})");
            assert_eq!(r.rows_scanned, 3);
            assert_eq!(r.rows_out, 1);
            assert_eq!(input.len(), 1);
            assert_eq!(output.len(), 1);
            assert_eq!(
                output.snapshot().column("id").unwrap().ints().unwrap(),
                &[2]
            );
        }
    }

    #[test]
    fn plan_micros_is_a_persistent_gauge() {
        let (clock, catalog, vars, input, output) = setup();
        input
            .append_rows(&[vec![Value::Int(1), Value::Int(5)]], clock.as_ref())
            .unwrap();
        let mut q = mkq(
            "insert into OUT select * from [select * from S] as Z",
            &input,
            &output,
            Arc::clone(&clock),
            catalog,
            vars,
            ConsumeMode::Apply,
        );
        let first = q.fire().unwrap();
        // compile time can legitimately round to 0µs; the invariant is
        // that every firing reports the same gauge value, so stats that
        // absorb by assignment never lose it
        assert_eq!(first.plan_micros, q.plan().compile_micros);
        input
            .append_rows(&[vec![Value::Int(2), Value::Int(6)]], clock.as_ref())
            .unwrap();
        let second = q.fire().unwrap();
        assert_eq!(second.plan_micros, q.plan().compile_micros);
    }

    #[test]
    fn unknown_table_rejected_at_build() {
        let (clock, catalog, vars, input, output) = setup();
        let stmts = parse_statements("select * from [select * from NOPE] as Z").unwrap();
        let i2 = Arc::clone(&input);
        let o2 = Arc::clone(&output);
        let err = QueryFactory::new(
            "q",
            stmts,
            &move |n: &str| match n {
                "S" => Some(Arc::clone(&i2)),
                "OUT" => Some(Arc::clone(&o2)),
                _ => None,
            },
            catalog,
            vars,
            clock,
            ConsumeMode::Apply,
            None,
        );
        assert!(err.is_err());
    }
}
