//! The traced run: per-layer metrics from an in-process, single-threaded
//! replay of the same seed's inputs through each layer's public
//! functions, one span per call (see [`crate::trace`]).
//!
//! Each input batch is a root span (`batch`, or `second` for
//! LinearRoad) whose children are the calls on the workload's own path;
//! the root's duration is the single-threaded work the batch costs. Layers
//! the workload's path does not use are still called on the same inputs,
//! as separate root spans, so every traced run reports every layer; the
//! notes record which layers each workload is predicted to leave flat.
//! The replay runs twice — spans off (the single-threaded baseline) and
//! spans on — and only the recording run's spans are written out.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use datacell::basket::{Basket, TS_COLUMN};
use datacell::clock::{Clock, SystemClock};
use datacell::engine::{DataCell, QueryOptions};
use datacell::frame::{decode_frame, encode_frame};
use datacell::partition::Partitioner;
use datacell::persist::{DurabilityProvider, StreamPersist};
use dcsql::plan::PhysicalPlan;
use dcstore::{FsyncPolicy, Store, StoreOptions};
use monet::ops::group::{agg_count_star, agg_sum, group_by};
use monet::ops::join::hash_join;
use monet::ops::select::select_cmp;
use monet::ops::CmpOp;
use monet::prelude::*;
use std::result::Result;

use crate::gen::{self, row_digest};
use crate::lr::{self, Prepared};
use crate::report::{self, median, percentile, ratio, Outcome, Unit};
use crate::trace::{Recorder, Totals};
use crate::workloads::{self, DaemonRun};
use crate::{err, Args};

/// WAL records between explicit syncs: the shipped default policy
/// (`every_n:64`).
const FSYNC_EVERY: usize = 64;
/// Batches between replication pump rounds (the router pumps every
/// 200 ms, ≈ 300 batches at the offered rate).
const PUMP_EVERY: usize = 256;
/// Repetitions of the plan compile; `sql.compile_us` is their median.
const COMPILES: usize = 50;
/// Scale of the LinearRoad replay that reports the `linearroad` layer
/// (≈ 100 000 tuples over the three simulated hours).
const SIDE_LR_SCALE: f64 = 0.01;

type R<T> = Result<T, String>;

// ---- layer probes ----------------------------------------------------------

/// Encode `rel` as one binary frame and decode it back, as a sender and
/// its receiver do.
fn frame_roundtrip(rec: &mut Recorder, b: u64, rel: &Relation, bytes: &mut u64) -> R<Relation> {
    let n = rel.len() as u64;
    let mut buf = Vec::new();
    rec.span("frame.encode", b, n, |_| encode_frame(&mut buf, rel))
        .map_err(err("encode_frame"))?;
    *bytes += buf.len() as u64;
    let schema = rel.schema();
    rec.span("frame.decode", b, n, |_| decode_frame(&buf, &schema))
        .map_err(err("decode_frame"))?
        .map(|(r, _)| r)
        .ok_or_else(|| "decode_frame: incomplete frame".to_string())
}

/// The workload's own columns for the monet kernels.
struct KernelCols {
    select: &'static str,
    below: i64,
    group: &'static str,
    join: &'static str,
    /// Build side of the join probe.
    build: Column,
}

fn monet_probe(rec: &mut Recorder, b: u64, rel: &Relation, k: &KernelCols) -> R<()> {
    let n = rel.len() as u64;
    let sel = rel.column(k.select).map_err(err("select column"))?;
    rec.span("monet.select", b, n, |_| {
        select_cmp(sel, CmpOp::Lt, &Value::Int(k.below), None).map(black_box)
    })
    .map_err(err("select_cmp"))?;
    let g = rel.column(k.group).map_err(err("group column"))?;
    rec.span("monet.group", b, n, |_| -> Result<(), MonetError> {
        let grouping = group_by(&[g], None)?;
        black_box(agg_count_star(&grouping));
        black_box(agg_sum(sel, &grouping)?);
        Ok(())
    })
    .map_err(err("group_by"))?;
    let j = rel.column(k.join).map_err(err("join column"))?;
    rec.span("monet.join", b, n, |_| {
        hash_join(j, &k.build, None, None).map(black_box)
    })
    .map_err(err("hash_join"))?;
    Ok(())
}

/// A primary store, a follower store, and the replication cursor between
/// them, driven through `DurabilityProvider`/`StreamPersist` and the
/// `replica` export/apply calls.
struct StorageProbe {
    primary: Arc<Store>,
    replica: Arc<Store>,
    names: Vec<String>,
    sinks: Vec<Arc<dyn StreamPersist>>,
    cursor: Vec<(u64, u64)>,
    since_sync: usize,
    since_pump: usize,
    /// Rows logged since the last pump round.
    pub lag_rows: u64,
    pub rows: u64,
}

impl StorageProbe {
    fn open(dir: &Path, shards: usize, schema: &Schema) -> R<StorageProbe> {
        let _ = std::fs::remove_dir_all(dir);
        // fsync is issued explicitly every FSYNC_EVERY records so it is
        // its own span; the sum matches the shipped every_n:64 policy
        let opts = StoreOptions {
            fsync: FsyncPolicy::Off,
            seal_rows: 0,
        };
        let primary = Store::open(dir.join("primary"), opts, dctrace::Telemetry::disabled())
            .map_err(err("Store::open"))?;
        let replica = Store::open(dir.join("replica"), opts, dctrace::Telemetry::disabled())
            .map_err(err("Store::open"))?;
        let names: Vec<String> = (0..shards).map(|s| format!("S{s}")).collect();
        let mut sinks = Vec::new();
        for n in &names {
            sinks.push(primary.open_stream(n, schema).map_err(err("open_stream"))?);
            replica
                .open_replica(n, schema)
                .map_err(err("open_replica"))?;
        }
        Ok(StorageProbe {
            primary,
            replica,
            cursor: vec![(0, 0); names.len()],
            names,
            sinks,
            since_sync: 0,
            since_pump: 0,
            lag_rows: 0,
            rows: 0,
        })
    }

    /// Log one accepted batch ahead of its append, as a durable basket
    /// does; every FSYNC_EVERY records sync the log.
    fn append(
        &mut self,
        rec: &mut Recorder,
        b: u64,
        shard: usize,
        rel: &Relation,
        ts: i64,
    ) -> R<()> {
        let n = rel.len();
        let mut full = rel.clone();
        full.add_column(TS_COLUMN, Column::from_ts(vec![ts; n]))
            .map_err(err("timestamp column"))?;
        let sink = &self.sinks[shard];
        rec.span("storage.wal_append", b, n as u64, |_| {
            sink.log_append(&full, Some(ts))
        })
        .map_err(err("log_append"))?;
        self.rows += n as u64;
        self.lag_rows += n as u64;
        self.since_sync += 1;
        if self.since_sync == FSYNC_EVERY {
            self.since_sync = 0;
            let primary = &self.primary;
            rec.span("storage.fsync", b, 0, |_| primary.sync_all())
                .map_err(err("sync"))?;
        }
        Ok(())
    }

    /// After every PUMP_EVERY batches, one replication round (off the
    /// batch path: the router pumps in the background).
    fn after_batch(&mut self, rec: &mut Recorder) -> R<()> {
        self.since_pump += 1;
        if self.since_pump == PUMP_EVERY {
            self.since_pump = 0;
            self.pump(rec)?;
        }
        Ok(())
    }

    /// Ship everything past each follower cursor.
    fn pump(&mut self, rec: &mut Recorder) -> R<()> {
        let lag = self.lag_rows;
        let (primary, replica, names, cursor) =
            (&self.primary, &self.replica, &self.names, &mut self.cursor);
        rec.span("storage.repl", 0, lag, |_| -> R<()> {
            for (name, cur) in names.iter().zip(cursor.iter_mut()) {
                loop {
                    let chunk = primary
                        .export_since(name, 0, cur.0, cur.1)
                        .map_err(err("export_since"))?;
                    replica
                        .apply_wal(name, chunk.epoch, chunk.wal_from, &chunk.wal_data)
                        .map_err(err("apply_wal"))?;
                    *cur = (chunk.epoch, chunk.wal_from + chunk.wal_data.len() as u64);
                    if chunk.pending_rows == 0 || chunk.wal_data.is_empty() {
                        break;
                    }
                }
            }
            Ok(())
        })?;
        self.lag_rows = 0;
        Ok(())
    }

    fn wal_bytes(&self) -> u64 {
        self.sinks.iter().map(|s| s.stats().wal_bytes).sum()
    }
}

/// Time a standalone logical delete of a whole batch on a scratch
/// basket (the consume step of a basket expression).
fn delete_probe(rec: &mut Recorder, b: u64, scratch: &Basket, rel: &Relation) -> R<()> {
    scratch
        .append_relation(rel.clone(), &SystemClock)
        .map_err(err("scratch append"))?;
    let sel = SelVec::all(scratch.len());
    rec.span("basket.delete", b, sel.len() as u64, |_| {
        scratch.delete_sel(&sel)
    })
    .map_err(err("delete_sel"))
}

/// Median compile time of a workload's standing SQL, µs.
fn compile_us(sqls: &[&str]) -> R<f64> {
    let mut times = Vec::with_capacity(COMPILES);
    for _ in 0..COMPILES {
        let mut total = 0.0;
        for sql in sqls {
            let stmts = dcsql::parse_statements(sql).map_err(err("parse"))?;
            let t = Instant::now();
            black_box(PhysicalPlan::compile(&stmts));
            total += t.elapsed().as_nanos() as f64 / 1e3;
        }
        times.push(total);
    }
    Ok(median(&times))
}

// ---- metric assembly --------------------------------------------------------

/// Everything the per-layer metrics are computed from.
#[derive(Default)]
struct Acc {
    totals: BTreeMap<&'static str, Totals>,
    frame_bytes: u64,
    frame_tuples: u64,
    tuples: u64,
    batches: u64,
    compactions: u64,
    firings: u64,
    rows_scanned: u64,
    delta_rows: u64,
    full_reexecutes: u64,
    compile_us: f64,
    wal_bytes: u64,
    storage_rows: u64,
    repl_lag_rows_end: u64,
    shard_skew: f64,
    /// Median per-batch root duration of the recording run, µs.
    layer_sum_p50_us: f64,
    /// Wall time of the on-path root calls of this replay, s.
    on_path_s: f64,
    /// The same, spans on vs spans off, s.
    traced_s: f64,
    baseline_s: f64,
    baseline_tuples: u64,
    e2e_p50_us: f64,
    /// CPU of the process under test per million input tuples.
    process_cpu_s_per_mtuple: f64,
    coalesced_frac: f64,
    gen_late_p99_us: f64,
    lr: LrLayer,
}

#[derive(Default)]
struct LrLayer {
    busy_us_per_ktuple: [f64; 7],
    q7_us_per_activation: f64,
    append_ns_per_tuple: f64,
}

impl Acc {
    fn ns_per_item(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map(|t| ratio(t.self_ns as f64, t.items as f64))
            .unwrap_or(0.0)
    }

    fn durs_us(&self, name: &str) -> Vec<f64> {
        self.totals
            .get(name)
            .map(|t| t.durs_ns.iter().map(|d| d / 1e3).collect())
            .unwrap_or_default()
    }

    fn outcome(self, correct: bool, attempted: u64, failed: u64) -> Outcome {
        use Unit::*;
        let snap = self.durs_us("basket.snapshot");
        let fire = self.durs_us("factory.fire");
        let fsync = self.durs_us("storage.fsync");
        let repl_ns = self.totals.get("storage.repl").map_or(0, |t| t.self_ns);
        let unattributed = self.e2e_p50_us - self.layer_sum_p50_us;
        let tuples = self.tuples as f64;
        let per = |name: &str| self.ns_per_item(name);
        let metrics = [
            ("frame.decode_ns_per_tuple", per("frame.decode"), NsPerTuple),
            ("frame.encode_ns_per_tuple", per("frame.encode"), NsPerTuple),
            (
                "frame.bytes_per_tuple",
                ratio(self.frame_bytes as f64, self.frame_tuples as f64),
                BytesPerTuple,
            ),
            (
                "basket.append_ns_per_tuple",
                per("basket.append"),
                NsPerTuple,
            ),
            (
                "basket.snapshot_us_per_fire",
                ratio(snap.iter().sum(), snap.len() as f64),
                Us,
            ),
            (
                "basket.delete_ns_per_tuple",
                per("basket.delete"),
                NsPerTuple,
            ),
            (
                "basket.compactions_per_mtuple",
                ratio(self.compactions as f64 * 1e6, tuples),
                PerMtuple,
            ),
            ("factory.fire_us_p50", median(&fire), Us),
            ("factory.fire_us_p99", percentile(&fire, 0.99), Us),
            (
                "factory.fires_per_kbatch",
                ratio(self.firings as f64 * 1e3, self.batches as f64),
                PerKbatch,
            ),
            (
                "factory.rows_scanned_per_tuple",
                ratio(self.rows_scanned as f64, tuples),
                RowsPerTuple,
            ),
            (
                "factory.delta_rows_frac",
                ratio(self.delta_rows as f64, self.rows_scanned as f64),
                Ratio,
            ),
            (
                "factory.full_reexec_frac",
                ratio(self.full_reexecutes as f64, self.firings as f64),
                Ratio,
            ),
            ("sql.compile_us", self.compile_us, Us),
            ("monet.select_ns_per_row", per("monet.select"), Ns),
            ("monet.group_ns_per_row", per("monet.group"), Ns),
            ("monet.join_ns_per_row", per("monet.join"), Ns),
            (
                "storage.wal_append_ns_per_tuple",
                per("storage.wal_append"),
                NsPerTuple,
            ),
            ("storage.fsync_us_p50", median(&fsync), Us),
            ("storage.fsync_us_p99", percentile(&fsync, 0.99), Us),
            (
                "storage.wal_bytes_per_tuple",
                ratio(self.wal_bytes as f64, self.storage_rows as f64),
                BytesPerTuple,
            ),
            (
                "storage.repl_ns_per_tuple",
                ratio(repl_ns as f64, self.storage_rows as f64),
                NsPerTuple,
            ),
            (
                "storage.repl_lag_rows_end",
                self.repl_lag_rows_end as f64,
                Count,
            ),
            (
                "cluster.split_ns_per_tuple",
                per("cluster.split"),
                NsPerTuple,
            ),
            ("cluster.shard_skew", self.shard_skew, Ratio),
            ("server.unattributed_us_p50", unattributed, Us),
            (
                "server.unattributed_frac",
                ratio(unattributed, self.e2e_p50_us),
                Ratio,
            ),
            ("server.coalesced_frac", self.coalesced_frac, Ratio),
            (
                "process.cpu_s_per_mtuple",
                self.process_cpu_s_per_mtuple,
                SecPerMtuple,
            ),
            (
                "linearroad.q7_us_per_activation",
                self.lr.q7_us_per_activation,
                Us,
            ),
            (
                "linearroad.append_ns_per_tuple",
                self.lr.append_ns_per_tuple,
                NsPerTuple,
            ),
            ("bench.gen_late_p99_us", self.gen_late_p99_us, Us),
            (
                "bench.trace_overhead_frac",
                ratio(self.traced_s - self.baseline_s, self.baseline_s),
                Ratio,
            ),
            (
                "bench.baseline_ns_per_tuple",
                ratio(self.baseline_s * 1e9, self.baseline_tuples as f64),
                NsPerTuple,
            ),
        ];
        let mut o = Outcome::new(attempted, failed, correct);
        for (name, value, unit) in metrics {
            o.metric(name, value, unit);
        }
        for (i, v) in self.lr.busy_us_per_ktuple.iter().enumerate() {
            o.metric(
                &format!("linearroad.q{}_busy_us_per_ktuple", i + 1),
                *v,
                UsPerKtuple,
            );
        }
        o
    }

    fn take_recording(&mut self, rec: &Recorder, root: &str) {
        let roots = rec.root_durations_us(root);
        self.layer_sum_p50_us = median(&roots);
        self.traced_s = self.on_path_s;
        self.totals = rec.totals();
    }

    fn take_daemon(&mut self, run: &DaemonRun, query: &str) {
        self.e2e_p50_us = median(&run.window.lat_us);
        self.process_cpu_s_per_mtuple = run.cpu_s_per_mtuple();
        self.gen_late_p99_us = run.gen_late_p99_us();
        let delivered: u64 = run
            .stats
            .queries
            .iter()
            .filter(|q| q.name == query)
            .map(|q| q.delivered_batches)
            .sum();
        let coalesced: u64 = run.stats.emitters.iter().map(|e| e.coalesced_batches).sum();
        self.coalesced_frac = ratio(coalesced as f64, delivered as f64);
    }

    fn take_storage(&mut self, s: &StorageProbe) {
        self.wal_bytes = s.wal_bytes();
        self.storage_rows = s.rows;
        self.repl_lag_rows_end = s.lag_rows;
    }

    fn take_lr(&mut self, r: &lr::Replay, rec: &Recorder, tuples: usize) {
        let kt = tuples as f64 / 1e3;
        for (i, s) in r.stats().iter().take(7).enumerate() {
            self.lr.busy_us_per_ktuple[i] = ratio(s.busy_micros as f64, kt);
        }
        if let Some(q7) = r.stats().get(6) {
            self.lr.q7_us_per_activation = ratio(q7.busy_micros as f64, q7.firings as f64);
        }
        let t = rec.totals();
        self.lr.append_ns_per_tuple = t
            .get("basket.append")
            .map(|t| ratio(t.self_ns as f64, t.items as f64))
            .unwrap_or(0.0);
    }
}

fn skew(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    let max = counts.iter().copied().max().unwrap_or(0);
    ratio(max as f64 * counts.len() as f64, total as f64)
}

fn span_path(args: &Args) -> PathBuf {
    args.run_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn finish(args: &Args, rec: &Recorder) -> R<()> {
    let path = span_path(args);
    rec.write(&path)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        rec.spans.len(),
        path.display()
    );
    Ok(())
}

/// The LinearRoad layer, from a small replay of the same seed (the daemon
/// workloads do not run LinearRoad; their prediction is "flat"). Returns
/// whether the replay passed every `linearroad::validate` check.
fn side_lr(acc: &mut Acc, seed: u64) -> R<bool> {
    let p = lr::prepare(seed, SIDE_LR_SCALE);
    let mut rec = Recorder::new(true);
    let r = lr::replay(&p, lr::network(&p), &mut rec)?;
    acc.take_lr(&r, &rec, p.total);
    let (ok, rendered) = lr::validate_replay(&p, &r, false);
    if !ok {
        eprintln!("perfbench: linearroad validation failed:\n{rendered}");
    }
    Ok(ok)
}

// ---- standing_sql -----------------------------------------------------------

fn sql_engine(input: &gen::SqlInput) -> R<(DataCell, impl Fn() -> Option<Relation>)> {
    let engine = DataCell::new();
    engine
        .create_stream("E", &gen::event_schema())
        .map_err(err("create E"))?;
    engine
        .create_stream("D", &gen::dim_schema())
        .map_err(err("create D"))?;
    let rx = engine
        .register_query("agg", workloads::AGG_SQL, QueryOptions::subscribed())
        .map_err(err("register agg"))?
        .ok_or("agg has no result channel")?;
    engine
        .register_query("jn", workloads::JOIN_SQL, QueryOptions::default())
        .map_err(err("register jn"))?;
    engine
        .ingest_relation("D", input.dim.clone())
        .map_err(err("load D"))?;
    Ok((engine, move || rx.try_recv().ok()))
}

fn replay_sql(
    input: &gen::SqlInput,
    rec: &mut Recorder,
    acc: &mut Acc,
    side: Option<(&mut StorageProbe, &Basket)>,
) -> R<bool> {
    let (engine, next_result) = sql_engine(input)?;
    let ebasket = engine.basket("E").map_err(err("basket E"))?;
    let kcols = KernelCols {
        select: "v",
        below: 500,
        group: "g",
        join: "k",
        build: input.dim.column("k").map_err(err("dim k"))?.clone(),
    };
    let part = Partitioner::new(0, 2).map_err(err("partitioner"))?;
    let mut shard_rows = [0u64; 2];
    let mut side = side;
    let mut last: Option<Relation> = None;
    let mut on_path_s = 0.0;
    for (b, batch) in input.sched.batches.iter().enumerate() {
        let b = b as u64;
        let n = batch.len() as u64;
        let t = Instant::now();
        rec.span("batch", b, n, |rec| -> R<()> {
            let mut bytes = 0;
            let decoded = frame_roundtrip(rec, b, batch, &mut bytes)?;
            rec.span("basket.append", b, n, |_| {
                engine.ingest_relation("E", decoded)
            })
            .map_err(err("ingest"))?;
            rec.span("factory.fire", b, 0, |_| engine.run_round())
                .map_err(err("run_round"))?;
            while let Some(res) = next_result() {
                last = Some(frame_roundtrip(rec, b, &res, &mut bytes)?);
            }
            acc.frame_bytes += bytes;
            Ok(())
        })?;
        on_path_s += t.elapsed().as_secs_f64();
        acc.frame_tuples += n;
        if let Some((storage, scratch)) = side.as_mut() {
            rec.span("basket.snapshot", b, 0, |_| ebasket.snapshot_cols(None));
            monet_probe(rec, b, batch, &kcols)?;
            delete_probe(rec, b, scratch, batch)?;
            let pieces = rec
                .span("cluster.split", b, n, |_| part.split(batch))
                .map_err(err("split"))?;
            for (s, piece) in pieces.iter().enumerate() {
                shard_rows[s] += piece.len() as u64;
            }
            storage.append(rec, b, 0, batch, b as i64)?;
            storage.after_batch(rec)?;
        }
    }
    acc.on_path_s = on_path_s;
    acc.shard_skew = skew(&shard_rows);
    for (_, s) in engine.factory_stats() {
        acc.firings += s.firings;
        acc.rows_scanned += s.rows_scanned;
        acc.delta_rows += s.delta_rows;
        acc.full_reexecutes += s.full_reexecutes;
    }
    acc.compactions = ebasket.compaction_stats().1;
    Ok(last.as_ref().and_then(gen::agg_rows).as_ref() == Some(&input.groups))
}

pub fn standing_sql(args: &Args, input: &gen::SqlInput, run: &DaemonRun) -> R<Outcome> {
    let mut acc = Acc::default();
    let dir = args.run_dir.join("trace-standing_sql");
    let mut storage = StorageProbe::open(&dir, 1, &gen::event_schema())?;
    let scratch = Basket::new("scratch", &gen::event_schema(), true);
    let mut rec = Recorder::new(true);
    let agg_ok = replay_sql(input, &mut rec, &mut acc, Some((&mut storage, &scratch)))?;
    acc.take_recording(&rec, "batch");
    acc.take_storage(&storage);
    // baseline: the workload's own path only, spans off
    let mut base = Acc::default();
    replay_sql(input, &mut Recorder::new(false), &mut base, None)?;
    acc.baseline_s = base.on_path_s;
    acc.baseline_tuples = input.sched.tuples();
    acc.tuples = input.sched.tuples();
    acc.batches = input.sched.batches.len() as u64;
    acc.compile_us = compile_us(&[workloads::AGG_SQL, workloads::JOIN_SQL])?;
    acc.take_daemon(run, "agg");
    let lr_ok = side_lr(&mut acc, args.seed)?;
    finish(args, &rec)?;
    drop(storage);
    let _ = std::fs::remove_dir_all(&dir);
    let ok = agg_ok && lr_ok;
    Ok(acc.outcome(run.checks_ok && ok, run.tuples, run.failed + u64::from(!ok)))
}

// ---- durable_cluster --------------------------------------------------------

fn replay_cluster(
    input: &gen::FilterInput,
    rec: &mut Recorder,
    acc: &mut Acc,
    storage: &mut StorageProbe,
    side: Option<&Basket>,
) -> R<bool> {
    let filter = workloads::filter_sql();
    let part = Partitioner::new(0, 2).map_err(err("partitioner"))?;
    let mut engines = Vec::new();
    let mut results = Vec::new();
    for _ in 0..2 {
        let e = DataCell::new();
        e.create_stream("S", &gen::stream_schema())
            .map_err(err("create S"))?;
        let rx = e
            .register_query("f", &filter, QueryOptions::subscribed())
            .map_err(err("register f"))?
            .ok_or("f has no result channel")?;
        results.push(rx);
        engines.push(e);
    }
    let baskets: Vec<_> = engines
        .iter()
        .map(|e| e.basket("S"))
        .collect::<Result<_, _>>()
        .map_err(err("basket S"))?;
    let kcols = KernelCols {
        select: "v",
        below: gen::FILTER_BELOW,
        group: "v",
        join: "id",
        build: Column::from_ints((0..gen::DIM_ROWS as i64).map(|i| i * 997).collect()),
    };
    let clock = SystemClock;
    let (mut rows, mut digest) = (0u64, 0u64);
    let mut on_path_s = 0.0;
    for (b, batch) in input.sched.batches.iter().enumerate() {
        let b = b as u64;
        let n = batch.len() as u64;
        let ts = clock.now();
        let t = Instant::now();
        rec.span("batch", b, n, |rec| -> R<()> {
            let mut bytes = 0;
            let at_router = frame_roundtrip(rec, b, batch, &mut bytes)?;
            let pieces = rec
                .span("cluster.split", b, n, |_| part.split(&at_router))
                .map_err(err("split"))?;
            for (s, piece) in pieces.into_iter().enumerate() {
                if piece.is_empty() {
                    continue;
                }
                let k = piece.len() as u64;
                let at_shard = frame_roundtrip(rec, b, &piece, &mut bytes)?;
                storage.append(rec, b, s, &at_shard, ts)?;
                rec.span("basket.append", b, k, |_| {
                    engines[s].ingest_relation("S", at_shard)
                })
                .map_err(err("ingest"))?;
                rec.span("factory.fire", b, 0, |_| engines[s].run_round())
                    .map_err(err("run_round"))?;
                while let Ok(res) = results[s].try_recv() {
                    let got = frame_roundtrip(rec, b, &res, &mut bytes)?;
                    if let Some([id, v, t0]) = gen::int_cols(&got, ["id", "v", "t0"]) {
                        for i in 0..id.len() {
                            rows += 1;
                            digest = digest.wrapping_add(row_digest(&[id[i], v[i], t0[i]]));
                        }
                    }
                }
            }
            acc.frame_bytes += bytes;
            Ok(())
        })?;
        on_path_s += t.elapsed().as_secs_f64();
        acc.frame_tuples += n;
        storage.after_batch(rec)?;
        if let Some(scratch) = side {
            rec.span("basket.snapshot", b, 0, |_| baskets[0].snapshot_cols(None));
            monet_probe(rec, b, batch, &kcols)?;
            delete_probe(rec, b, scratch, batch)?;
        }
    }
    acc.on_path_s = on_path_s;
    for e in &engines {
        for (_, s) in e.factory_stats() {
            acc.firings += s.firings;
            acc.rows_scanned += s.rows_scanned;
            acc.delta_rows += s.delta_rows;
            acc.full_reexecutes += s.full_reexecutes;
        }
    }
    acc.compactions = baskets.iter().map(|b| b.compaction_stats().1).sum();
    let want_rows: u64 = input.expect_rows.iter().map(|&r| r as u64).sum();
    let want_digest = input
        .expect_digest
        .iter()
        .fold(0u64, |a, &d| a.wrapping_add(d));
    Ok(rows == want_rows && digest == want_digest)
}

pub fn durable_cluster(args: &Args, input: &gen::FilterInput, run: &DaemonRun) -> R<Outcome> {
    let schema = gen::stream_schema();
    let dir = args.run_dir.join("trace-durable_cluster");
    let mut acc = Acc::default();
    let mut storage = StorageProbe::open(&dir, 2, &schema)?;
    let scratch = Basket::new("scratch", &schema, true);
    let mut rec = Recorder::new(true);
    let ok = replay_cluster(input, &mut rec, &mut acc, &mut storage, Some(&scratch))?;
    acc.take_recording(&rec, "batch");
    acc.take_storage(&storage);
    drop(storage);
    // baseline: the workload's own path only, spans off
    let mut base = Acc::default();
    let mut base_storage = StorageProbe::open(&dir, 2, &schema)?;
    replay_cluster(
        input,
        &mut Recorder::new(false),
        &mut base,
        &mut base_storage,
        None,
    )?;
    drop(base_storage);
    acc.baseline_s = base.on_path_s;
    acc.baseline_tuples = input.sched.tuples();
    acc.tuples = input.sched.tuples();
    acc.batches = input.sched.batches.len() as u64;
    acc.compile_us = compile_us(&[&workloads::filter_sql()])?;
    acc.take_daemon(run, "f");
    // the daemon's own view: lag right after the window, shard balance
    acc.repl_lag_rows_end = run.repl_lag_rows;
    let shard_in: Vec<u64> = run.stats.shards.iter().map(|s| s.baskets_in).collect();
    acc.shard_skew = skew(&shard_in);
    let ok = ok && side_lr(&mut acc, args.seed)?;
    finish(args, &rec)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(acc.outcome(run.checks_ok && ok, run.tuples, run.failed + u64::from(!ok)))
}

// ---- linearroad -------------------------------------------------------------

pub fn linearroad(args: &Args, p: &Prepared) -> R<Outcome> {
    let me = std::process::id();
    let cpu0 = report::cpu_seconds(me)?;
    let base = lr::replay(p, lr::network(p), &mut Recorder::new(false))?;
    let cpu_s = report::cpu_seconds(me)? - cpu0;
    let e2e_p50_us = median(&base.lat_us);
    let baseline_s = base.wall_s;
    drop(base);

    let mut acc = Acc::default();
    let mut rec = Recorder::new(true);
    let r = lr::replay(p, lr::network(p), &mut rec)?;
    let (ok, rendered) = lr::validate_replay(p, &r, args.corrupt);
    if !ok {
        eprintln!("perfbench: linearroad validation failed:\n{rendered}");
    }
    acc.take_lr(&r, &rec, p.total);
    acc.on_path_s = r.wall_s;
    acc.baseline_s = baseline_s;
    acc.baseline_tuples = p.total as u64;
    acc.e2e_p50_us = e2e_p50_us;
    acc.process_cpu_s_per_mtuple = ratio(cpu_s, p.total as f64 / 1e6);
    acc.gen_late_p99_us = percentile(&r.gap_us, 0.99);
    acc.tuples = p.total as u64;
    acc.batches = p.seconds.len() as u64;
    for s in r.stats() {
        acc.firings += s.firings;
        acc.rows_scanned += s.rows_scanned;
        acc.delta_rows += s.delta_rows;
        acc.full_reexecutes += s.full_reexecutes;
    }
    acc.compactions = r.net.baskets.input.compaction_stats().1;

    // the layers LinearRoad's path does not use, on its own input
    let schema = linearroad::types::input_schema();
    let dir = args.run_dir.join("trace-linearroad");
    let mut storage = StorageProbe::open(&dir, 1, &schema)?;
    let scratch = Basket::new("scratch", &schema, true);
    let input = Basket::new("lr_input", &schema, false);
    let part = Partitioner::new(2, 2).map_err(err("partitioner"))?;
    let kcols = KernelCols {
        select: "spd",
        below: 40,
        group: "seg",
        join: "vid",
        build: Column::from_ints((0..gen::DIM_ROWS as i64).map(|i| i * 31).collect()),
    };
    let mut shard_rows = [0u64; 2];
    for (sec, rows) in p.seconds.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
        let b = sec as u64;
        let mut rel = Relation::new(&schema);
        for row in rows {
            rel.append_row(row).map_err(err("row"))?;
        }
        let n = rel.len() as u64;
        input
            .append_relation(rel.clone(), &SystemClock)
            .map_err(err("append"))?;
        rec.span("basket.snapshot", b, 0, |_| input.snapshot_cols(None));
        input.drain();
        let mut bytes = 0;
        frame_roundtrip(&mut rec, b, &rel, &mut bytes)?;
        acc.frame_bytes += bytes;
        acc.frame_tuples += n;
        monet_probe(&mut rec, b, &rel, &kcols)?;
        delete_probe(&mut rec, b, &scratch, &rel)?;
        let pieces = rec
            .span("cluster.split", b, n, |_| part.split(&rel))
            .map_err(err("split"))?;
        for (s, piece) in pieces.iter().enumerate() {
            shard_rows[s] += piece.len() as u64;
        }
        storage.append(&mut rec, b, 0, &rel, b as i64)?;
        storage.after_batch(&mut rec)?;
    }
    acc.shard_skew = skew(&shard_rows);
    acc.take_storage(&storage);
    acc.take_recording(&rec, "second");
    acc.compile_us = compile_us(&[
        "select xway, dir, seg, count(*) as cars, avg(spd) as lav from lr_input group by xway, dir, seg",
    ])?;
    finish(args, &rec)?;
    drop(storage);
    let _ = std::fs::remove_dir_all(&dir);
    let failed = if ok { 0 } else { p.total as u64 };
    Ok(acc.outcome(ok, p.total as u64, failed))
}
