//! The server runtime: engine + scheduler + data-plane supervision.
//!
//! Wires the pieces of the paper's Figure 1 into one supervised process:
//! a [`DataCell`] engine, a thread-per-factory [`ThreadedScheduler`] that
//! accepts factories dynamically as clients register queries, receptor
//! accept loops feeding stream baskets from TCP sensors, and emitter
//! fan-out threads delivering query results to TCP subscribers — with a
//! single [`StopSignal`] driving graceful shutdown of the whole tree.
//! Accept loops block in `accept` ([`Acceptor`]), factory threads park
//! until a basket changes and timers wait on the stop signal; only idle
//! socket reads wake on a timeout, to notice shutdown.

use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datacell::emitter::Emitter;
use datacell::engine::{DataCell, QueryOptions};
use datacell::frame::{decode_frame_traced, WireFormat};
use datacell::net::parse_row;
use datacell::scheduler::ThreadedScheduler;
use monet::prelude::*;
use parking_lot::Mutex;

use crate::accept::{Acceptor, StopSignal};
use crate::error::{Result, ServerError};
use crate::session::{QueryHandle, QueryRegistry, SessionManager};

/// How long a blocking socket read (in either daemon) waits before
/// re-checking the stop flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Upper bound on a single emitter socket write (a stalled subscriber is
/// disconnected rather than allowed to wedge delivery and shutdown).
const EMITTER_WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Receptor batching: flush after this many buffered rows.
const RECEPTOR_BATCH: usize = 4096;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Host data-plane listeners bind to (control plane binds separately).
    pub data_host: String,
    /// Pending-batch cap applied to every receptor-fed basket: when a
    /// basket holds this many buffered tuples, its receptor connections
    /// block (backpressure onto the sender's socket) instead of growing
    /// the basket unboundedly. 0 = unbounded (the pre-backpressure
    /// behavior).
    pub receptor_basket_cap: usize,
    /// Collect latency histograms, counters and flight-recorder events
    /// (the `METRICS` / `TRACE` commands). On the hot path this costs
    /// one atomic add per probe point when on, one branch when off.
    pub telemetry_enabled: bool,
    /// Flight-recorder ring capacity (`--trace-ring`): recent structured
    /// events kept for `TRACE DUMP` / `TRACE SPANS`.
    pub trace_ring: usize,
    /// Stamp every Nth ingested batch with a wire trace header and
    /// record its per-hop spans (`--trace-sample`, 0 = off).
    pub trace_sample: u64,
    /// How often the background snapshotter captures `METRICS` into the
    /// history ring (`--metrics-interval-ms`).
    pub metrics_interval: Duration,
    /// Snapshots the history ring retains (`--metrics-depth`).
    pub metrics_depth: usize,
    /// Root of the durable store (`--data-dir`). When set, the runtime
    /// opens a [`dcstore::Store`] there, replays its WALs into the engine
    /// *before* the control plane accepts connections, and honors
    /// `CREATE STREAM ... PERSIST`. `None` = fully in-memory (the
    /// pre-durability behavior).
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy for durable streams.
    pub fsync: dcstore::FsyncPolicy,
    /// Seal a durable stream's hot rows into a segment once this many
    /// accumulate (0 = only on explicit `FLUSH STREAM`).
    pub seal_rows: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            data_host: "127.0.0.1".into(),
            receptor_basket_cap: 0,
            telemetry_enabled: true,
            trace_ring: dctrace::TRACE_RING_CAP,
            trace_sample: 256,
            metrics_interval: Duration::from_secs(1),
            metrics_depth: 120,
            data_dir: None,
            fsync: dcstore::FsyncPolicy::default(),
            seal_rows: 0,
        }
    }
}

/// A receptor data-plane port: accept loop + per-connection reader threads.
pub struct ReceptorPort {
    pub stream: String,
    pub port: u16,
    pub format: WireFormat,
    pub connections: AtomicU64,
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    /// `DETACH RECEPTOR` closes this: the accept loop exits and releases
    /// the listener (established connections drain until the peer hangs
    /// up).
    acceptor: Arc<Acceptor>,
}

/// An emitter data-plane port: accept loop + per-subscriber emitter threads.
pub struct EmitterPort {
    pub query: String,
    pub port: u16,
    pub format: WireFormat,
    pub connections: AtomicU64,
    /// Result batches absorbed into a merged frame across this port's
    /// subscribers (adaptive coalescing when a socket is the bottleneck).
    pub coalesced: Arc<AtomicU64>,
    emitters: Mutex<Vec<Emitter>>,
    /// `DETACH EMITTER` closes this: the accept loop exits and releases
    /// the listener (existing subscribers keep their streams).
    acceptor: Arc<Acceptor>,
}

/// The running server: owns every supervised thread.
pub struct ServerRuntime {
    engine: Arc<DataCell>,
    config: ServerConfig,
    sched: Mutex<Option<ThreadedScheduler>>,
    pub queries: QueryRegistry,
    pub sessions: SessionManager,
    receptors: Mutex<Vec<Arc<ReceptorPort>>>,
    emitters: Mutex<Vec<Arc<EmitterPort>>>,
    /// Emitter ports removed by `DETACH` whose subscriber threads still
    /// need joining at shutdown.
    detached_emitters: Mutex<Vec<Arc<EmitterPort>>>,
    /// Live `TRACE QUERY <q> ON` ports, by query (`TRACE ... OFF` closes
    /// them).
    trace_ports: Mutex<Vec<(String, Arc<Acceptor>)>>,
    telemetry: dctrace::Telemetry,
    /// Bounded ring of periodic `METRICS` snapshots (`METRICS HISTORY`,
    /// windowed gauges, health scoring). Populated by the snapshotter
    /// thread; empty when telemetry is disabled.
    history: Arc<dctrace::MetricsHistory>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes register_query's engine-registration + factory-takeover
    /// sequence: a concurrent registration from another control session
    /// must not interleave between `register_query` and `take_factories`,
    /// or it would steal the other session's factory.
    registration: Mutex<()>,
    stop: StopSignal,
    started_at: Instant,
    /// The durable store behind `--data-dir` (`None` = in-memory server).
    store: Option<Arc<dcstore::Store>>,
    /// What boot-time recovery replayed (present when `store` is).
    recovery: Option<dcstore::RecoveryReport>,
}

impl ServerRuntime {
    pub fn new(engine: Arc<DataCell>, config: ServerConfig) -> Result<Arc<ServerRuntime>> {
        let sched = ThreadedScheduler::new();
        let telemetry = if config.telemetry_enabled {
            let t = dctrace::Telemetry::enabled_with_ring(config.trace_ring);
            t.set_trace_sampling(config.trace_sample);
            t
        } else {
            dctrace::Telemetry::disabled()
        };
        // install before any DDL runs so every basket and factory the
        // engine creates picks up its probes
        engine.set_telemetry(telemetry.clone());
        // durable boot: open the store and replay manifest + WAL tails
        // into the engine BEFORE any connection is accepted, so clients
        // only ever observe the recovered state
        let (store, recovery) = match &config.data_dir {
            Some(dir) => {
                let store = dcstore::Store::open(
                    dir,
                    dcstore::StoreOptions {
                        fsync: config.fsync,
                        seal_rows: config.seal_rows,
                    },
                    telemetry.clone(),
                )?;
                let report = store.recover_into(&engine)?;
                engine.set_durability(Arc::clone(&store) as _);
                (Some(store), Some(report))
            }
            None => (None, None),
        };
        let history = Arc::new(dctrace::MetricsHistory::new(config.metrics_depth));
        let rt = Arc::new(ServerRuntime {
            engine,
            config,
            sched: Mutex::new(Some(sched)),
            queries: QueryRegistry::new(),
            sessions: SessionManager::new(),
            receptors: Mutex::new(Vec::new()),
            emitters: Mutex::new(Vec::new()),
            detached_emitters: Mutex::new(Vec::new()),
            trace_ports: Mutex::new(Vec::new()),
            telemetry,
            history,
            threads: Mutex::new(Vec::new()),
            registration: Mutex::new(()),
            stop: StopSignal::default(),
            started_at: Instant::now(),
            store,
            recovery,
        });
        if rt.telemetry.is_enabled() {
            rt.spawn_snapshotter();
        }
        Ok(rt)
    }

    /// Background metrics snapshotter: every `metrics_interval`, capture
    /// the full exposition into the history ring and refresh the derived
    /// windowed gauges + the node's own health score.
    fn spawn_snapshotter(self: &Arc<Self>) {
        let rt = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("dc-metrics".into())
            .spawn(move || {
                while !rt.stop.wait_timeout(rt.config.metrics_interval) {
                    rt.capture_metrics_now();
                }
            })
            .expect("spawn metrics snapshotter thread");
        self.threads.lock().push(handle);
    }

    /// One snapshotter tick: capture `METRICS` into the history ring,
    /// then derive the windowed gauges and health score from the last
    /// two snapshots. Public so tests (and the cluster router) can force
    /// a tick without waiting out the interval.
    pub fn capture_metrics_now(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let lines = self.metrics();
        self.history.capture(&lines, dctrace::now_micros());
        if let Some((prev, curr)) = self.history.last_two() {
            for s in dctrace::windowed_gauges(&prev, &curr) {
                // map back to 'static metric names for the registry
                let name = match s.name.as_str() {
                    "dc_ingest_rate" => "dc_ingest_rate",
                    "dc_fire_p99_window_micros" => "dc_fire_p99_window_micros",
                    _ => continue,
                };
                self.telemetry.set_gauge_rendered(name, s.labels, s.value);
            }
            let report = dctrace::health::evaluate(&prev, &curr);
            self.telemetry
                .set_gauge("dc_health_score", &[], report.score as f64);
        }
    }

    /// The durable store, when the server runs with a data directory.
    pub fn store(&self) -> Option<&Arc<dcstore::Store>> {
        self.store.as_ref()
    }

    /// What boot-time recovery replayed (`None` on an in-memory server).
    pub fn recovery_report(&self) -> Option<&dcstore::RecoveryReport> {
        self.recovery.as_ref()
    }

    pub fn engine(&self) -> &Arc<DataCell> {
        &self.engine
    }

    /// The stop signal: tripped by [`ServerRuntime::request_shutdown`];
    /// acceptors made through it close with it.
    pub fn stop_signal(&self) -> &StopSignal {
        &self.stop
    }

    pub fn is_stopping(&self) -> bool {
        self.stop.is_stopped()
    }

    pub fn uptime(&self) -> Duration {
        self.started_at.elapsed()
    }

    fn ensure_running(&self) -> Result<()> {
        if self.is_stopping() {
            Err(ServerError::ShuttingDown)
        } else {
            Ok(())
        }
    }

    // ---- control-plane operations ---------------------------------------

    /// Execute DDL or a one-shot script; returns result rows (wire text)
    /// for a trailing SELECT, prefixed with a `#`-marked header line.
    pub fn exec(&self, sql: &str) -> Result<Vec<String>> {
        self.ensure_running()?;
        let result = self.engine.execute(sql)?;
        let mut body = Vec::new();
        if let Some(rel) = result {
            body.push(format!("# {}", rel.names().join("|")));
            for row in rel.iter_rows() {
                body.push(datacell::net::format_row(&row));
            }
        }
        Ok(body)
    }

    /// `EXPLAIN <sql>`: compile the script and render the physical plan
    /// (pruned column sets per scan, predicate order, materialization
    /// boundaries) without executing anything.
    pub fn explain_sql(&self, sql: &str) -> Result<Vec<String>> {
        self.ensure_running()?;
        let stmts = dcsql::parse_statements(sql)
            .map_err(|e| ServerError::Protocol(format!("EXPLAIN: {e}")))?;
        Ok(dcsql::plan::PhysicalPlan::compile(&stmts).describe())
    }

    /// `EXPLAIN QUERY <name>`: the plan of a registered continuous query,
    /// plus its live incremental-execution state — lifetime delta/full
    /// counters and the shared arrangements the engine currently holds
    /// (`holders` > 1 means queries are reusing one index).
    pub fn explain_query(&self, name: &str) -> Result<Vec<String>> {
        let handle = self
            .queries
            .get(name)
            .ok_or_else(|| ServerError::Unknown(format!("query {name}")))?;
        let mut body = vec![format!("query {} AS {}", handle.name, handle.sql)];
        body.extend(self.explain_sql(&handle.sql)?);
        let s = handle.stats.lock().clone();
        body.push(format!(
            "delta delta_rows={} full_reexecutes={} arrangement_bytes={}",
            s.delta_rows, s.full_reexecutes, s.arrangement_bytes
        ));
        for (table, column, rows, bytes, holders) in self.engine.arrangements().describe() {
            body.push(format!(
                "arrangement {table}.{column} rows={rows} bytes={bytes} holders={holders}"
            ));
        }
        Ok(body)
    }

    /// Register a continuous query: parse, build the factory, hand it to
    /// the live scheduler, and set up result fan-out.
    pub fn register_query(&self, name: &str, sql: &str) -> Result<Arc<QueryHandle>> {
        self.ensure_running()?;
        let _reg = self.registration.lock();
        if self.queries.contains(name) {
            return Err(ServerError::Duplicate(name.to_string()));
        }
        let rx = self
            .engine
            .register_query(name, sql, QueryOptions::subscribed())?;
        // move the freshly built factory into the running scheduler
        let factories = self.engine.take_factories();
        let mut sched_guard = self.sched.lock();
        let sched = sched_guard.as_mut().ok_or(ServerError::ShuttingDown)?;
        let mut stats = None;
        for f in factories {
            let is_this = f.name() == name;
            let live = sched.add_shared(f);
            if is_this {
                stats = Some(live);
            }
        }
        drop(sched_guard);
        let stats = stats.ok_or_else(|| {
            ServerError::Io("registered factory did not surface in scheduler".into())
        })?;
        let handle = QueryHandle::new(name, sql, stats, rx);
        if !self.queries.insert(Arc::clone(&handle)) {
            return Err(ServerError::Duplicate(name.to_string()));
        }
        Ok(handle)
    }

    /// Open a receptor port for `stream`; port 0 picks an ephemeral port.
    /// Returns the bound port.
    pub fn attach_receptor(
        self: &Arc<Self>,
        stream: &str,
        port: u16,
        format: WireFormat,
    ) -> Result<u16> {
        self.ensure_running()?;
        let basket = self
            .engine
            .basket(stream)
            .map_err(|_| ServerError::Unknown(format!("stream {stream}")))?;
        if self.config.receptor_basket_cap > 0 {
            basket.set_pending_cap(self.config.receptor_basket_cap);
        }
        let listener = TcpListener::bind((self.config.data_host.as_str(), port))?;
        let acceptor = self.stop.acceptor(&listener)?;
        let rport = Arc::new(ReceptorPort {
            stream: stream.to_string(),
            port: acceptor.port(),
            format,
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            acceptor: Arc::clone(&acceptor),
        });
        self.receptors.lock().push(Arc::clone(&rport));

        let rt = Arc::clone(self);
        let handle = acceptor.spawn(format!("dc-rcpt-{stream}"), listener, move |sock, _peer| {
            rport.connections.fetch_add(1, Ordering::AcqRel);
            let (rt, rport, basket) = (Arc::clone(&rt), Arc::clone(&rport), Arc::clone(&basket));
            let conn = std::thread::Builder::new()
                .name(format!("dc-rcpt-{}-conn", rport.stream))
                .spawn(move || receptor_connection(&rt, &rport, &basket, sock))
                .expect("spawn receptor connection thread");
            Some(conn)
        });
        self.threads.lock().push(handle);
        Ok(acceptor.port())
    }

    /// Open an emitter port for `query`; port 0 picks an ephemeral port.
    /// Returns the bound port.
    pub fn attach_emitter(
        self: &Arc<Self>,
        query: &str,
        port: u16,
        format: WireFormat,
    ) -> Result<u16> {
        self.ensure_running()?;
        let handle = self
            .queries
            .get(query)
            .ok_or_else(|| ServerError::Unknown(format!("query {query}")))?;
        let broadcast = handle
            .broadcast
            .as_ref()
            .ok_or_else(|| {
                ServerError::Protocol(format!(
                    "query {query} has no subscription output (no bare SELECT)"
                ))
            })?
            .clone();
        let listener = TcpListener::bind((self.config.data_host.as_str(), port))?;
        let acceptor = self.stop.acceptor(&listener)?;
        let eport = Arc::new(EmitterPort {
            query: query.to_string(),
            port: acceptor.port(),
            format,
            connections: AtomicU64::new(0),
            coalesced: Arc::new(AtomicU64::new(0)),
            emitters: Mutex::new(Vec::new()),
            acceptor: Arc::clone(&acceptor),
        });
        self.emitters.lock().push(Arc::clone(&eport));

        let probe = dctrace::EmitterProbe::new(&self.telemetry, query);
        let thread = acceptor.spawn(format!("dc-emit-{query}"), listener, move |sock, _peer| {
            eport.connections.fetch_add(1, Ordering::AcqRel);
            // a subscriber that stops reading must not be able to wedge
            // shutdown behind a full send buffer — bound the emitter's
            // writes
            let _ = sock.set_write_timeout(Some(EMITTER_WRITE_TIMEOUT));
            // shared frames: one encoding per batch per format, shared
            // across every subscriber; batches queued behind a slow socket
            // coalesce into one frame (counted per port for STATS)
            let emitter = Emitter::spawn_tcp_shared_probed(
                format!("{}@{}", eport.query, eport.port),
                broadcast.subscribe(),
                sock,
                eport.format,
                Arc::clone(&eport.coalesced),
                probe.clone(),
            );
            let mut emitters = eport.emitters.lock();
            emitters.retain(|e| !e.is_finished());
            emitters.push(emitter);
            None
        });
        self.threads.lock().push(thread);
        Ok(acceptor.port())
    }

    /// `DETACH RECEPTOR <stream> PORT <p>`: stop the port's accept loop
    /// and release its listener. Established connections drain until the
    /// peer hangs up. Returns how many ports matched (stream AND port).
    pub fn detach_receptor(&self, stream: &str, port: u16) -> Result<usize> {
        let mut n = 0;
        self.receptors.lock().retain(|p| {
            let hit = p.stream == stream && p.port == port;
            n += usize::from(hit && p.acceptor.close());
            !hit
        });
        if n == 0 {
            return Err(ServerError::Unknown(format!(
                "receptor {stream} on port {port}"
            )));
        }
        Ok(n)
    }

    /// `DETACH EMITTER <query> PORT <p>`: stop the port's accept loop and
    /// release its listener. Existing subscribers keep their streams
    /// until the query ends or they hang up. Returns how many ports
    /// matched.
    pub fn detach_emitter(&self, query: &str, port: u16) -> Result<usize> {
        let mut detached = Vec::new();
        self.emitters.lock().retain(|p| {
            let hit = p.query == query && p.port == port;
            if hit && p.acceptor.close() {
                detached.push(Arc::clone(p));
            }
            !hit
        });
        let n = detached.len();
        if n == 0 {
            return Err(ServerError::Unknown(format!(
                "emitter {query} on port {port}"
            )));
        }
        // keep the detached ports' subscriber threads joinable at
        // shutdown even though the port left the live list
        self.detached_emitters.lock().extend(detached);
        Ok(n)
    }

    /// Parse a plain `CREATE STREAM` line into the stream's user schema,
    /// checking the declared name matches `stream`. Shared by the
    /// persistent-create and replica-open paths.
    fn parse_stream_ddl(ddl: &str, stream: &str) -> Result<Schema> {
        let stmt = dcsql::parse_statement(ddl)
            .map_err(|e| ServerError::Protocol(format!("stream DDL: {e}")))?;
        let dcsql::ast::Stmt::Create {
            kind: dcsql::ast::CreateKind::Stream,
            name,
            fields,
        } = stmt
        else {
            return Err(ServerError::Protocol(
                "expected a CREATE STREAM statement".into(),
            ));
        };
        if name != stream {
            return Err(ServerError::Protocol(format!(
                "stream name mismatch: {name} vs {stream}"
            )));
        }
        Ok(Schema::new(
            fields
                .iter()
                .map(|(n, t)| Field::new(n.clone(), *t))
                .collect(),
        ))
    }

    /// `CREATE STREAM ... PERSIST`: parse the plain DDL, then create the
    /// stream durably (WAL opened and manifest updated before the OK goes
    /// out). `ddl` is the CREATE STREAM line with the clause stripped.
    pub fn create_stream_persistent(&self, ddl: &str, stream: &str) -> Result<()> {
        self.ensure_running()?;
        let schema = Self::parse_stream_ddl(ddl, stream)?;
        self.engine.create_stream_persistent(stream, &schema)?;
        Ok(())
    }

    // ---- replication (REPL verbs; see dcstore::replica) ------------------

    /// The durable store, or the error every REPL verb shares.
    fn store_required(&self) -> Result<&Arc<dcstore::Store>> {
        self.store.as_ref().ok_or_else(|| {
            ServerError::Protocol("replication requires a daemon running with --data-dir".into())
        })
    }

    /// Replication may only write to **replica** streams — a stream with
    /// a live basket is this engine's own primary state.
    fn ensure_replica(&self, stream: &str) -> Result<()> {
        if self.engine.basket(stream).is_ok() {
            return Err(ServerError::Protocol(format!(
                "stream {stream} has a live basket — replication applies only to replica streams"
            )));
        }
        Ok(())
    }

    /// `REPL OPEN <stream> AS <ddl>`: open a stream in replica mode
    /// (durable layout, no live basket). Idempotent for the same schema.
    pub fn repl_open(&self, stream: &str, ddl: &str) -> Result<()> {
        self.ensure_running()?;
        let schema = Self::parse_stream_ddl(ddl, stream)?;
        self.ensure_replica(stream)?;
        self.store_required()?.open_replica(stream, &schema)?;
        Ok(())
    }

    /// `REPL STATUS <stream>`: the stream's durable catch-up cursor.
    pub fn repl_status(&self, stream: &str) -> Result<Vec<String>> {
        let s = self.store_required()?.replica_status(stream)?;
        Ok(vec![format!(
            "epoch={} wal_bytes={} segments={}",
            s.epoch, s.wal_bytes, s.segments
        )])
    }

    /// `REPL EXPORT`: primary side of one replication round — durable
    /// state past the follower's cursor, hex-encoded for the line
    /// protocol.
    pub fn repl_export(
        &self,
        stream: &str,
        segs: usize,
        epoch: u64,
        offset: u64,
    ) -> Result<Vec<String>> {
        self.ensure_running()?;
        let chunk = self
            .store_required()?
            .export_since(stream, segs, epoch, offset)?;
        let mut body = vec![format!(
            "epoch={} wal_bytes={} pending_rows={}",
            chunk.epoch, chunk.wal_bytes, chunk.pending_rows
        )];
        for s in &chunk.segments {
            body.push(format!(
                "segment file={} rows={} hex={}",
                s.file,
                s.rows,
                dcstore::hex_encode(&s.data)
            ));
        }
        body.push(format!(
            "wal from={} hex={}",
            chunk.wal_from,
            dcstore::hex_encode(&chunk.wal_data)
        ));
        Ok(body)
    }

    /// `REPL SEGMENT`: follower side — land one shipped segment durably.
    pub fn repl_segment(&self, stream: &str, file: &str, rows: u64, hex: &str) -> Result<()> {
        self.ensure_running()?;
        self.ensure_replica(stream)?;
        let data = dcstore::hex_decode(hex)?;
        self.store_required()?
            .apply_segment(stream, file, rows, &data)?;
        Ok(())
    }

    /// `REPL WAL`: follower side — append one shipped WAL chunk.
    pub fn repl_wal(&self, stream: &str, epoch: u64, from: u64, hex: &str) -> Result<()> {
        self.ensure_running()?;
        self.ensure_replica(stream)?;
        let data = dcstore::hex_decode(hex)?;
        self.store_required()?.apply_wal(stream, epoch, from, &data)?;
        Ok(())
    }

    /// `REPL PROMOTE`: replay every replica stream into a live basket
    /// and attach persistence — this follower becomes a primary. Reports
    /// what the replay rebuilt.
    pub fn repl_promote(&self) -> Result<Vec<String>> {
        self.ensure_running()?;
        let report = self.store_required()?.promote_replicas(&self.engine)?;
        Ok(vec![format!(
            "streams={} replayed_batches={} replayed_rows={} segments={}",
            report.streams, report.replayed_batches, report.replayed_rows, report.segments
        )])
    }

    /// `FLUSH STREAM <name>`: seal the durable stream's hot rows into a
    /// segment now. Returns the number of rows sealed.
    pub fn flush_stream(&self, stream: &str) -> Result<usize> {
        self.ensure_running()?;
        Ok(self.engine.flush_stream(stream)?)
    }

    /// The server's telemetry handle (disabled when the config said so).
    pub fn telemetry(&self) -> &dctrace::Telemetry {
        &self.telemetry
    }

    /// The `METRICS` report: every registered series in Prometheus text
    /// exposition format. Empty when telemetry is disabled. Process
    /// gauges (uptime, basket occupancy) are refreshed at render time.
    pub fn metrics(&self) -> Vec<String> {
        if self.telemetry.is_enabled() {
            self.telemetry
                .set_gauge("dc_uptime_seconds", &[], self.uptime().as_secs_f64());
            for b in self.engine.basket_report() {
                self.telemetry
                    .set_gauge("dc_basket_rows", &[("stream", &b.name)], b.len as f64);
                // approximate occupancy: 8-byte cells across the user
                // columns plus the arrival-timestamp column
                let width = self
                    .engine
                    .basket(&b.name)
                    .map(|bk| bk.user_schema().width() + 1)
                    .unwrap_or(1);
                self.telemetry.set_gauge(
                    "dc_basket_bytes",
                    &[("stream", &b.name)],
                    (b.len * width * 8) as f64,
                );
            }
        }
        self.telemetry.render()
    }

    /// The `METRICS HISTORY` report: snapshots from the history ring,
    /// oldest first, optionally filtered to one series and/or the last
    /// `n` snapshots.
    pub fn metrics_history(&self, series: Option<&str>, last: Option<usize>) -> Result<Vec<String>> {
        if !self.telemetry.is_enabled() {
            return Err(ServerError::Protocol(
                "telemetry is disabled on this server".into(),
            ));
        }
        Ok(self.history.render(series, last))
    }

    /// The `TRACE SPANS` report: per-batch span trees reconstructed from
    /// the flight recorder, optionally filtered to one batch id.
    pub fn trace_spans(&self, batch: Option<u64>) -> Result<Vec<String>> {
        let rec = self.recorder()?;
        Ok(dctrace::render_spans(&rec.events(), batch))
    }

    /// The `HEALTH` report: this node's health score from the last two
    /// metrics snapshots (healthy while the ring is still warming up).
    pub fn health(&self) -> Result<Vec<String>> {
        if !self.telemetry.is_enabled() {
            return Err(ServerError::Protocol(
                "telemetry is disabled on this server".into(),
            ));
        }
        let report = match self.history.last_two() {
            Some((prev, curr)) => dctrace::health::evaluate(&prev, &curr),
            None => dctrace::HealthReport::healthy(),
        };
        Ok(report.render())
    }

    /// The `TRACE DUMP` report: flight-recorder events, oldest first,
    /// optionally filtered to one query.
    pub fn trace_dump(&self, query: Option<&str>) -> Result<Vec<String>> {
        let rec = self.recorder()?;
        Ok(rec.dump(query))
    }

    fn recorder(&self) -> Result<Arc<dctrace::FlightRecorder>> {
        self.telemetry
            .recorder()
            .ok_or_else(|| ServerError::Protocol("telemetry is disabled on this server".into()))
    }

    /// `TRACE QUERY <q> ON`: open an emitter-style port streaming the
    /// query's future flight-recorder events to every subscriber, one
    /// rendered event per line. Returns the bound port.
    pub fn trace_on(self: &Arc<Self>, query: &str) -> Result<u16> {
        self.ensure_running()?;
        if !self.queries.contains(query) {
            return Err(ServerError::Unknown(format!("query {query}")));
        }
        let recorder = self.recorder()?;
        let listener = TcpListener::bind((self.config.data_host.as_str(), 0))?;
        let acceptor = self.stop.acceptor(&listener)?;
        let entry = (query.to_string(), Arc::clone(&acceptor));
        self.trace_ports.lock().push(entry);

        let rt = Arc::clone(self);
        let (tap, query) = (Arc::clone(&acceptor), query.to_string());
        let handle = acceptor.spawn(format!("dc-trace-{query}"), listener, move |sock, _peer| {
            let _ = sock.set_write_timeout(Some(EMITTER_WRITE_TIMEOUT));
            let rx = recorder.subscribe(Some(query.clone()));
            let (rt, tap) = (Arc::clone(&rt), Arc::clone(&tap));
            let writer = std::thread::Builder::new()
                .name(format!("dc-trace-{query}-conn"))
                .spawn(move || trace_writer(&rt, &tap, rx, sock))
                .expect("spawn trace writer thread");
            Some(writer)
        });
        self.threads.lock().push(handle);
        Ok(acceptor.port())
    }

    /// `TRACE QUERY <q> OFF`: close the query's live taps (subscribers
    /// drain what they already received, then their stream ends) and
    /// retire its trace ports. Returns how many taps were closed.
    pub fn trace_off(&self, query: &str) -> Result<usize> {
        let recorder = self.recorder()?;
        self.trace_ports.lock().retain(|(q, port)| {
            if q == query {
                port.close();
            }
            q != query
        });
        Ok(recorder.close_taps(Some(query)))
    }

    /// The `STATS` report: one line per server object.
    pub fn stats(&self) -> Vec<String> {
        let mut body = Vec::new();
        body.push(format!(
            "server uptime_micros={} sessions={} queries={} receptor_ports={} emitter_ports={}",
            self.uptime().as_micros(),
            self.sessions.live_count(),
            self.queries.len(),
            self.receptors.lock().len(),
            self.emitters.lock().len(),
        ));
        for b in self.engine.basket_report() {
            let mut line = format!(
                "basket {} len={} enabled={} in={} out={} dropped={} high_water={} cap={} \
                 pending_deletes={} compactions={} persistent={} wal_bytes={} segments={}",
                b.name, b.len, b.enabled, b.total_in, b.total_out, b.dropped,
                b.high_water, b.pending_cap, b.pending_deletes, b.compactions,
                b.persistent, b.wal_bytes, b.segments
            );
            if b.persistent {
                // WAL fsync tail latency (zero when telemetry is off or
                // nothing has been logged yet)
                let fsync = self
                    .telemetry
                    .hist_snapshot("dc_wal_fsync_micros", &[("stream", &b.name)])
                    .unwrap_or_default();
                line.push_str(&format!(" wal_fsync_p99_micros={}", fsync.quantile(0.99)));
            }
            body.push(line);
        }
        for q in self.queries.snapshot() {
            let s = q.stats.lock().clone();
            let (subs, batches, tuples, dropped) = match &q.broadcast {
                Some(bc) => {
                    let (b, t) = bc.delivered();
                    (bc.subscriber_count(), b, t, bc.dropped_batches())
                }
                None => (0, 0, 0, 0),
            };
            // fire-latency summary from the telemetry histogram (zeros
            // when telemetry is off or the query has not fired yet)
            let fire = self
                .telemetry
                .hist_snapshot("dc_fire_micros", &[("query", &q.name)])
                .unwrap_or_default();
            body.push(format!(
                "query {} firings={} consumed={} produced={} busy_micros={} lock_micros={} \
                 rows_scanned={} rows_out={} plan_micros={} \
                 delta_rows={} full_reexecutes={} arrangement_bytes={} \
                 subscribers={} delivered_batches={} delivered_tuples={} dropped_batches={} \
                 p50_micros={} p99_micros={} max_micros={}",
                q.name, s.firings, s.consumed, s.produced, s.busy_micros, s.lock_micros,
                s.rows_scanned, s.rows_out, s.plan_micros,
                s.delta_rows, s.full_reexecutes, s.arrangement_bytes,
                subs, batches, tuples, dropped,
                fire.quantile(0.5), fire.quantile(0.99), fire.max
            ));
        }
        for r in self.receptors.lock().iter() {
            body.push(format!(
                "receptor {} port={} format={} connections={} accepted={} rejected={}",
                r.stream,
                r.port,
                r.format,
                r.connections.load(Ordering::Acquire),
                r.accepted.load(Ordering::Acquire),
                r.rejected.load(Ordering::Acquire),
            ));
        }
        for e in self.emitters.lock().iter() {
            body.push(format!(
                "emitter {} port={} format={} connections={} coalesced_batches={}",
                e.query,
                e.port,
                e.format,
                e.connections.load(Ordering::Acquire),
                e.coalesced.load(Ordering::Acquire),
            ));
        }
        for s in self.sessions.snapshot() {
            body.push(format!(
                "session {} peer={} commands={}",
                s.id, s.peer, s.commands
            ));
        }
        body
    }

    /// Request a graceful stop (idempotent; actual teardown happens in
    /// [`ServerRuntime::shutdown`]): trips the stop signal, closing every
    /// accept loop, and wakes feeders blocked on a full basket so they
    /// see the stop.
    pub fn request_shutdown(&self) {
        self.stop.stop();
        for name in self.engine.basket_names() {
            if let Ok(b) = self.engine.basket(&name) {
                b.notify();
            }
        }
    }

    /// Graceful teardown, in dependency order: stop ingest, drain the
    /// scheduler, flush result pumps and emitters, join every thread.
    pub fn shutdown(&self) {
        self.request_shutdown();
        // 0. close every live trace tap so their writer threads see the
        //    channel disconnect and exit with the accept loops
        if let Some(rec) = self.telemetry.recorder() {
            rec.close_taps(None);
        }
        // 1. the stop signal closed every accept loop; receptor connection
        //    readers observe the flag and flush their final batches into
        //    the baskets
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
        // 2. stop the scheduler — each factory thread drains remaining
        //    input once, then drops its factory (disconnecting result
        //    channels)
        if let Some(sched) = self.sched.lock().take() {
            sched.stop();
        }
        // 3. pumps see the disconnect after forwarding everything; then
        //    broadcasts drop, disconnecting subscriber channels, and the
        //    emitter threads flush and exit
        for q in self.queries.drain() {
            q.join_pump();
        }
        let mut eports: Vec<Arc<EmitterPort>> = self.emitters.lock().drain(..).collect();
        eports.extend(self.detached_emitters.lock().drain(..));
        for eport in eports {
            // other clones of the Arc only read stats; the emitter vec is
            // drained through the lock
            for emitter in eport.emitters.lock().drain(..) {
                let _ = emitter.join();
            }
        }
        // 4. every acknowledged append is already in the WAL; one final
        //    fsync narrows the window of an `off`/`every_n` policy
        if let Some(store) = &self.store {
            let _ = store.sync_all();
        }
    }
}

/// Drain one flight-recorder tap onto a trace subscriber socket until
/// the tap closes (`TRACE ... OFF` / shutdown), the subscriber hangs
/// up, or the server stops.
fn trace_writer(
    rt: &ServerRuntime,
    port: &Acceptor,
    rx: std::sync::mpsc::Receiver<String>,
    sock: TcpStream,
) {
    let mut writer = std::io::BufWriter::new(sock);
    loop {
        match rx.recv_timeout(POLL_INTERVAL) {
            Ok(line) => {
                if writeln!(writer, "{line}").is_err() || writer.flush().is_err() {
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if rt.is_stopping() || port.is_closed() {
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// One receptor TCP connection, dispatched on the port's wire format.
fn receptor_connection(
    rt: &ServerRuntime,
    port: &ReceptorPort,
    basket: &Arc<datacell::basket::Basket>,
    sock: TcpStream,
) {
    match port.format {
        WireFormat::Text => receptor_connection_text(rt, port, basket, sock),
        WireFormat::Binary => receptor_connection_binary(rt, port, basket, sock),
    }
}

/// Text data plane: parsed rows land in the basket one batch per
/// drained read buffer ([`read_text_batches`]).
fn receptor_connection_text(
    rt: &ServerRuntime,
    port: &ReceptorPort,
    basket: &Arc<datacell::basket::Basket>,
    sock: TcpStream,
) {
    let schema = basket.user_schema();
    let clock = Arc::clone(rt.engine.clock());
    let stop = || rt.is_stopping();
    let flush = |batch: Vec<Vec<Value>>| {
        let trace_batch = rt.telemetry().maybe_sample().unwrap_or(0);
        let append = || basket.append_rows(&batch, clock.as_ref());
        append_batch(rt, port, basket, trace_batch, batch.len() as u64, append)
    };
    read_text_batches(sock, &schema, RECEPTOR_BATCH, &port.rejected, stop, flush);
}

/// Read a TEXT data-plane connection, handing `flush` each batch of
/// parsed rows: at most `max` rows, and whatever is pending as soon as
/// the read buffer drains (latency when idle, batching under load — the
/// emitter's flush-on-drain rule). Lines that fail to parse count in
/// `rejected`. Ends when the peer hangs up, a read fails, `stop()` holds
/// or `flush` returns `false`.
pub fn read_text_batches(
    sock: TcpStream,
    schema: &Schema,
    max: usize,
    rejected: &AtomicU64,
    stop: impl Fn() -> bool,
    mut flush: impl FnMut(Vec<Vec<Value>>) -> bool,
) {
    let _ = sock.set_read_timeout(Some(POLL_INTERVAL));
    let mut reader = std::io::BufReader::new(sock);
    let mut line = String::new();
    let mut batch: Vec<Vec<Value>> = Vec::new();
    loop {
        let eof = match reader.read_line(&mut line) {
            Ok(0) => true,
            Ok(_) => {
                let trimmed = line.trim_end_matches(['\n', '\r']);
                if !trimmed.is_empty() {
                    match parse_row(trimmed, schema) {
                        Ok(row) => batch.push(row),
                        Err(_) => {
                            rejected.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                }
                line.clear();
                false
            }
            // idle: a partially read line stays in `line` for the next
            // read_line call to complete
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
        };
        let drained = eof || reader.buffer().is_empty();
        if (batch.len() >= max || drained)
            && !batch.is_empty()
            && !flush(std::mem::take(&mut batch))
        {
            return;
        }
        // honor shutdown between reads — a client streaming continuously
        // never takes the idle branch
        if eof || stop() {
            return;
        }
    }
}

/// Read a data-plane connection until the peer hangs up, a read fails
/// or `stop()` holds, handing the unconsumed bytes to `consume` after
/// every read (and every idle read timeout). `consume` returns how many
/// bytes it used, or `None` to drop the connection.
pub fn read_stream(
    mut sock: TcpStream,
    stop: impl Fn() -> bool,
    mut consume: impl FnMut(&[u8]) -> Option<usize>,
) {
    use std::io::Read;

    let _ = sock.set_read_timeout(Some(POLL_INTERVAL));
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let eof = match sock.read(&mut chunk) {
            Ok(0) => true,
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                false
            }
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
        };
        match consume(&pending) {
            Some(used) => {
                pending.drain(..used);
            }
            None => return,
        }
        if eof || stop() {
            return;
        }
    }
}

/// Append one decoded batch of `rows` rows with the receptor's
/// backpressure, accounting and tracing; `trace_batch` is the sampled
/// batch id (0 = untraced). Returns `false` when the server is stopping
/// and the connection should end.
fn append_batch(
    rt: &ServerRuntime,
    port: &ReceptorPort,
    basket: &datacell::basket::Basket,
    trace_batch: u64,
    rows: u64,
    append: impl FnOnce() -> datacell::error::Result<usize>,
) -> bool {
    let started = basket.probe().map(|_| Instant::now());
    // backpressure: a capped basket blocks this connection (and thereby
    // the peer's socket) until the factory drains it. A false return also
    // covers "disabled while full" — then fall through so the append
    // soft-rejects exactly like a disabled basket below cap; only
    // shutdown drops the connection.
    if !basket.wait_for_capacity(|| rt.is_stopping()) && rt.is_stopping() {
        return false;
    }
    if trace_batch != 0 {
        // the WAL append span learns its batch from the thread-local
        // while the basket logs under its lock
        dctrace::span::set_current(trace_batch);
        // arm the basket mark before the rows land: the firing that
        // consumes them can run the instant append releases the basket
        // lock, and a mark set afterwards would miss it (losing the
        // dwell/fire/emitter spans)
        if let Some(p) = basket.probe() {
            p.set_trace_mark(trace_batch);
        }
    }
    let appended = append().map_or(0, |n| n as u64);
    port.accepted.fetch_add(appended, Ordering::AcqRel);
    port.rejected.fetch_add(rows - appended, Ordering::AcqRel);
    dctrace::span::clear_current();
    // decode→append latency for this batch (capacity wait included: that
    // is what the sender experiences)
    if let (Some(p), Some(started)) = (basket.probe(), started) {
        let dur = started.elapsed().as_micros() as u64;
        p.note_append_micros(dur);
        if trace_batch != 0 {
            if appended > 0 {
                p.note_span("receptor", trace_batch, dur);
            } else {
                p.clear_trace_mark(trace_batch);
            }
        }
    }
    true
}

/// Binary data plane: peel complete columnar frames off the connection
/// and append each as one columnar basket insert. Frames are
/// self-delimiting, so read timeouts never corrupt the stream — a
/// partial frame just waits in the buffer for its tail.
fn receptor_connection_binary(
    rt: &ServerRuntime,
    port: &ReceptorPort,
    basket: &Arc<datacell::basket::Basket>,
    sock: TcpStream,
) {
    let schema = basket.user_schema();
    let clock = Arc::clone(rt.engine.clock());
    // append every complete frame that has landed, waking the factories
    // once for the whole burst
    let consume = |pending: &[u8]| {
        let mut consumed = 0usize;
        let mut _hold = None;
        loop {
            match decode_frame_traced(&pending[consumed..], &schema) {
                Ok(Some((rel, used, header))) => {
                    consumed += used;
                    _hold.get_or_insert_with(|| basket.hold_appends());
                    // trace: propagate a wire header stamped upstream
                    // (router → shard hop), otherwise sample locally
                    let trace_batch = header
                        .map(|h| h.batch)
                        .or_else(|| rt.telemetry().maybe_sample())
                        .unwrap_or(0);
                    let rows = rel.len() as u64;
                    let append = || basket.append_relation(rel, clock.as_ref());
                    if !append_batch(rt, port, basket, trace_batch, rows, append) {
                        return None;
                    }
                }
                Ok(None) => return Some(consumed),
                Err(_) => {
                    // corrupt stream: count one reject, drop the peer
                    port.rejected.fetch_add(1, Ordering::AcqRel);
                    return None;
                }
            }
        }
    };
    read_stream(sock, || rt.is_stopping(), consume);
}
