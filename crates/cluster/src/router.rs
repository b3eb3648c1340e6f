//! The cluster runtime: shard map, ingest splitting, result merging.
//!
//! One logical stream, N physical engines. The router owns:
//!
//! * the **shard map** — which engines host which stream, and the
//!   [`Partitioner`] for `SHARD BY` streams;
//! * **placement** — unsharded streams (and sub-cluster `SHARDS n`
//!   declarations) land on the least-loaded engines, judged by each
//!   engine's typed `STATS` report;
//! * **ingest splitting** — one logical receptor port per stream; every
//!   arriving batch is sliced column-wise into per-shard sub-batches
//!   ([`Partitioner::split`] — no row materialization) and forwarded to
//!   the shard engines as binary frames over per-shard sockets;
//! * **result merging** — one logical emitter port per query; per-shard
//!   result streams are relayed byte-for-byte (frames are peeled with
//!   `frame_len`, never decoded) into every subscriber socket.
//!
//! Control operations fan out over the engines' ordinary control planes,
//! so a shard is just a `datacelld` — in this process or on another host.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use datacell::frame::{self, WireFormat};
use datacell::partition::Partitioner;
use dcsql::ast::{CreateKind, Stmt};
use dcserver::accept::{Acceptor, StopSignal};
use dcserver::error::{Result, ServerError};
use dcserver::runtime::{read_stream, read_text_batches, POLL_INTERVAL};
use dcserver::session::SessionManager;
use dcserver::stats::StatsReport;
use dcserver::ServerConfig;
use monet::prelude::*;
use parking_lot::{Mutex, RwLock};

use crate::engines::{ControlPolicy, ShardEngine, ShardSpec};
use crate::relay::FrameRelay;

/// Upper bound on a subscriber socket write.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Text-ingest batching: split + forward after this many buffered rows.
const ROUTER_BATCH: usize = 4096;
/// Batches a shard forwarder queues before the splitter blocks —
/// backpressure from a slow shard propagates to the sender's socket.
const FORWARD_QUEUE_CAP: usize = 64;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Host the router's logical data-plane ports bind to.
    pub data_host: String,
    /// The shard engines, in shard order.
    pub shards: Vec<ShardSpec>,
    /// Follower engines, one per shard (empty = no replication). An
    /// in-process follower inherits the engine config with its own
    /// durability root (`shard-<i>-replica` under the data dir).
    pub followers: Vec<ShardSpec>,
    /// Configuration for in-process shard engines.
    pub engine: ServerConfig,
    /// Timeouts + backoff for every router→engine control session.
    pub control: ControlPolicy,
    /// How often the replication pump ships segments + WAL tail from
    /// each primary to its follower.
    pub repl_interval: Duration,
    /// Consecutive failed HEALTH polls before a shard with a follower
    /// is failed over. A single timeout is never enough: transient
    /// stalls (GC pauses, load spikes) must not trigger promotion.
    pub failover_misses: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::in_process(2)
    }
}

impl ClusterConfig {
    /// `n` in-process shard engines with default settings.
    pub fn in_process(n: usize) -> ClusterConfig {
        ClusterConfig {
            data_host: "127.0.0.1".into(),
            shards: vec![ShardSpec::InProcess; n],
            followers: Vec::new(),
            engine: ServerConfig::default(),
            control: ControlPolicy::default(),
            repl_interval: Duration::from_millis(200),
            failover_misses: 3,
        }
    }

    /// `n` in-process shards, each with an in-process follower.
    pub fn in_process_replicated(n: usize) -> ClusterConfig {
        let mut c = ClusterConfig::in_process(n);
        c.followers = vec![ShardSpec::InProcess; n];
        c
    }
}

/// One logical stream in the shard map.
pub struct StreamEntry {
    pub name: String,
    /// User schema (wire order), parsed from the DDL.
    pub schema: Schema,
    /// `None` for unsharded (single-engine) streams.
    pub partitioner: Option<Partitioner>,
    pub key: Option<String>,
    /// Engine ids hosting this stream; index = shard index.
    pub engines: Vec<usize>,
    /// The plain per-shard `CREATE STREAM` DDL (clauses stripped) —
    /// replayed on a promoted follower: as `REPL OPEN ... AS <ddl>` for
    /// persistent streams, as-is for non-persistent ones.
    pub ddl: String,
    /// Whether each shard keeps this stream on its durable substrate
    /// (and the replication pump ships it to followers).
    pub persist: bool,
}

/// One shard of the cluster: a primary engine, optionally a follower
/// replica, and the failure-detection bookkeeping that drives
/// promotion. The primary is behind an `RwLock` because promotion swaps
/// it while STATS/METRICS fan-outs and ingest accept loops read it.
pub struct ShardSlot {
    pub(crate) primary: RwLock<Arc<ShardEngine>>,
    pub(crate) follower: Mutex<Option<Arc<ShardEngine>>>,
    /// Consecutive HEALTH polls that failed to reach the primary.
    pub(crate) health_misses: AtomicU32,
    /// CAS guard: exactly one thread runs the promotion protocol.
    pub(crate) failing_over: AtomicBool,
    /// Set by the replication pump when shipping to the follower has
    /// stopped making progress — surfaced as a HEALTH reason.
    repl_stalled: AtomicBool,
    /// Completed promotions on this shard (mirrors `dc_failover_total`).
    pub(crate) failovers: AtomicU64,
}

impl ShardSlot {
    fn new(primary: ShardEngine, follower: Option<ShardEngine>) -> ShardSlot {
        ShardSlot {
            primary: RwLock::new(Arc::new(primary)),
            follower: Mutex::new(follower.map(Arc::new)),
            health_misses: AtomicU32::new(0),
            failing_over: AtomicBool::new(false),
            repl_stalled: AtomicBool::new(false),
            failovers: AtomicU64::new(0),
        }
    }

    pub(crate) fn primary(&self) -> Arc<ShardEngine> {
        Arc::clone(&self.primary.read())
    }

    pub(crate) fn follower(&self) -> Option<Arc<ShardEngine>> {
        self.follower.lock().clone()
    }

    pub(crate) fn set_stalled(&self, stalled: bool) {
        self.repl_stalled.store(stalled, Ordering::Release);
    }

    pub(crate) fn is_stalled(&self) -> bool {
        self.repl_stalled.load(Ordering::Acquire)
    }

    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Acquire)
    }
}

/// One registered continuous query.
pub struct QueryEntry {
    pub name: String,
    pub sql: String,
    /// Engines where registration succeeded (a query over an unsharded
    /// stream only resolves on the engine hosting it).
    pub engines: Vec<usize>,
    pub kind: String,
}

/// A logical receptor port (router side).
pub struct ClusterReceptorPort {
    pub stream: String,
    pub port: u16,
    pub format: WireFormat,
    pub connections: AtomicU64,
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    /// `DETACH RECEPTOR` closes this: the accept loop exits, established
    /// ingest connections drain until their peers hang up.
    acceptor: Arc<Acceptor>,
    /// Shard-side binary receptor ports behind this logical port, so
    /// DETACH can close them too — `(engine id, shard port)`, in shard
    /// index order. Behind a mutex: promotion re-points entries at the
    /// new primary while accept loops resolve them per connection.
    pub(crate) shard_ports: Mutex<Vec<(usize, u16)>>,
}

/// A logical emitter port (router side).
pub struct ClusterEmitterPort {
    pub query: String,
    pub port: u16,
    pub format: WireFormat,
    pub connections: AtomicU64,
    pub relay: Arc<FrameRelay>,
    /// `DETACH EMITTER` closes this; existing subscribers keep their
    /// streams until the taps see EOF.
    acceptor: Arc<Acceptor>,
    /// Shard-side emitter ports behind this logical port (re-pointed by
    /// promotion, like the receptor's).
    pub(crate) shard_ports: Mutex<Vec<(usize, u16)>>,
    writers: Mutex<Vec<JoinHandle<()>>>,
}

/// A logical `TRACE QUERY <q> ON` port (router side): per-shard live
/// trace streams merged line-for-line into every subscriber.
pub struct ClusterTracePort {
    pub query: String,
    acceptor: Arc<Acceptor>,
    relay: Arc<FrameRelay>,
    writers: Mutex<Vec<JoinHandle<()>>>,
}

/// The running cluster: shard engines + router state.
pub struct ClusterRuntime {
    pub(crate) config: ClusterConfig,
    pub(crate) slots: Vec<ShardSlot>,
    pub sessions: SessionManager,
    pub(crate) streams: Mutex<HashMap<String, Arc<StreamEntry>>>,
    pub(crate) queries: Mutex<HashMap<String, Arc<QueryEntry>>>,
    /// Names whose CREATE fanned out partially before failing, with the
    /// exact DDL and the engine set chosen for that attempt. A retry may
    /// see "duplicate" from engines that already created the object, and
    /// only then — with byte-identical DDL, on the same engine set — is
    /// that tolerable (a different DDL colliding with the leftover would
    /// silently adopt a wrong-schema basket).
    failed_creates: Mutex<HashMap<String, (String, Vec<usize>)>>,
    /// Stream names with a CREATE currently fanning out: concurrent
    /// same-name CREATEs must serialize here (without wedging the whole
    /// stream map), or the loser could place an orphan basket on engines
    /// the winner did not choose.
    in_flight_creates: Mutex<std::collections::HashSet<String>>,
    /// Query names whose REGISTER fanned out partially before failing,
    /// with the exact SQL — mirrors `failed_creates`: a retry may see
    /// "duplicate" from engines that already registered, and only the
    /// byte-identical SQL makes that tolerable.
    failed_registers: Mutex<HashMap<String, String>>,
    pub(crate) receptors: Mutex<Vec<Arc<ClusterReceptorPort>>>,
    pub(crate) emitters: Mutex<Vec<Arc<ClusterEmitterPort>>>,
    /// Emitter ports retired by `DETACH EMITTER`: their relays and
    /// subscriber writers still need the shutdown drain/join.
    detached_emitters: Mutex<Vec<Arc<ClusterEmitterPort>>>,
    trace_ports: Mutex<Vec<Arc<ClusterTracePort>>>,
    /// Router-local telemetry (forwarder-queue saturation, router-hop
    /// spans, cluster health gauges); shard engines carry their own
    /// registries, merged by `metrics()`.
    pub(crate) telemetry: dctrace::Telemetry,
    /// Replication pump bookkeeping (per stream × shard cursors and
    /// stall tracking) — see `crate::repl`.
    pub(crate) repl: Mutex<crate::repl::ReplState>,
    /// Bounded ring of periodic cluster-wide `METRICS` snapshots
    /// (`METRICS HISTORY`, windowed gauges). Populated by the router's
    /// snapshotter thread; empty when telemetry is disabled.
    history: Arc<dctrace::MetricsHistory>,
    /// Receptor accept loops (joined before the engines shut down, so
    /// final batches reach the shard baskets).
    ingress_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Emitter accept loops + shard taps (joined after the engines shut
    /// down, so final results drain through the relays).
    pub(crate) egress_threads: Mutex<Vec<JoinHandle<()>>>,
    stop: StopSignal,
    /// Set only AFTER the shard engines shut down (and thus flushed
    /// their final results): shard taps must not stop on the earlier
    /// `stop` flag, or tail results racing the shutdown would be lost.
    drain_taps: AtomicBool,
    started_at: Instant,
}

impl ClusterRuntime {
    /// Boot/adopt every shard engine and assemble the router.
    pub fn new(config: ClusterConfig) -> Result<Arc<ClusterRuntime>> {
        if config.shards.is_empty() {
            return Err(ServerError::Protocol(
                "cluster needs at least one shard engine".into(),
            ));
        }
        if !config.followers.is_empty() && config.followers.len() != config.shards.len() {
            return Err(ServerError::Protocol(format!(
                "cluster has {} shards but {} followers — give every shard \
                 a follower or none",
                config.shards.len(),
                config.followers.len()
            )));
        }
        let spawn = |i: usize, spec: &ShardSpec, suffix: &str| match spec {
            ShardSpec::InProcess => {
                // every in-process engine gets its own durability root:
                // persistent streams on different shards (and a shard's
                // primary vs its follower) must never share a WAL or
                // manifest
                let mut engine_config = config.engine.clone();
                if let Some(root) = &engine_config.data_dir {
                    engine_config.data_dir = Some(root.join(format!("shard-{i}{suffix}")));
                }
                ShardEngine::spawn_in_process_with(i, engine_config, config.control)
            }
            ShardSpec::Remote(addr) => ShardEngine::connect_remote_with(i, addr, config.control),
        };
        let slots = config
            .shards
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let primary = spawn(i, spec, "")?;
                let follower = match config.followers.get(i) {
                    Some(fspec) => Some(spawn(i, fspec, "-replica")?),
                    None => None,
                };
                Ok(ShardSlot::new(primary, follower))
            })
            .collect::<Result<Vec<_>>>()?;
        let telemetry = if config.engine.telemetry_enabled {
            let t = dctrace::Telemetry::enabled_with_ring(config.engine.trace_ring);
            t.set_trace_sampling(config.engine.trace_sample);
            t
        } else {
            dctrace::Telemetry::disabled()
        };
        let history = Arc::new(dctrace::MetricsHistory::new(config.engine.metrics_depth));
        let has_followers = slots.iter().any(|s| s.follower.lock().is_some());
        let rt = Arc::new(ClusterRuntime {
            config,
            slots,
            telemetry,
            history,
            repl: Mutex::new(crate::repl::ReplState::default()),
            sessions: SessionManager::new(),
            streams: Mutex::new(HashMap::new()),
            queries: Mutex::new(HashMap::new()),
            failed_creates: Mutex::new(HashMap::new()),
            in_flight_creates: Mutex::new(std::collections::HashSet::new()),
            failed_registers: Mutex::new(HashMap::new()),
            receptors: Mutex::new(Vec::new()),
            emitters: Mutex::new(Vec::new()),
            detached_emitters: Mutex::new(Vec::new()),
            trace_ports: Mutex::new(Vec::new()),
            ingress_threads: Mutex::new(Vec::new()),
            egress_threads: Mutex::new(Vec::new()),
            stop: StopSignal::default(),
            drain_taps: AtomicBool::new(false),
            started_at: Instant::now(),
        });
        if rt.telemetry.is_enabled() {
            rt.spawn_snapshotter();
        }
        if has_followers {
            rt.spawn_repl_pump();
        }
        Ok(rt)
    }

    /// Background replication pump: every `repl_interval`, ship sealed
    /// segments + the WAL tail of every persistent stream from each
    /// shard's primary to its follower.
    fn spawn_repl_pump(self: &Arc<Self>) {
        let rt = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("dcc-repl".into())
            .spawn(move || {
                while !rt.stop.wait_timeout(rt.config.repl_interval) {
                    rt.pump_replication_now();
                }
            })
            .expect("spawn cluster replication pump");
        self.ingress_threads.lock().push(handle);
    }

    /// Background metrics snapshotter (the router-side twin of the
    /// engine's): every `metrics_interval`, capture the aggregated
    /// cluster exposition into the history ring and refresh the
    /// windowed + health gauges.
    fn spawn_snapshotter(self: &Arc<Self>) {
        let rt = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("dcc-metrics".into())
            .spawn(move || {
                while !rt.stop.wait_timeout(rt.config.engine.metrics_interval) {
                    rt.capture_metrics_now();
                }
            })
            .expect("spawn cluster metrics snapshotter");
        self.ingress_threads.lock().push(handle);
    }

    /// Capture one cluster-wide metrics snapshot into the history ring,
    /// derive the windowed gauges from the last two snapshots, and
    /// refresh the per-shard health gauges. Public so tests (and
    /// operators via scripts) can force a tick instead of waiting out
    /// `metrics_interval`.
    pub fn capture_metrics_now(self: &Arc<Self>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let lines = self.metrics();
        self.history.capture(&lines, dctrace::now_micros());
        if let Some((prev, curr)) = self.history.last_two() {
            for s in dctrace::windowed_gauges(&prev, &curr) {
                // re-key through static names: the registry interns
                // series under `&'static str` metric names
                let name = match s.name.as_str() {
                    "dc_ingest_rate" => "dc_ingest_rate",
                    "dc_fire_p99_window_micros" => "dc_fire_p99_window_micros",
                    _ => continue,
                };
                self.telemetry.set_gauge_rendered(name, s.labels, s.value);
            }
        }
        self.poll_shard_health();
    }

    pub fn engine_count(&self) -> usize {
        self.slots.len()
    }

    /// Current primary engine of shard `eid`. The handle stays valid
    /// across a promotion (control calls just start failing once the
    /// engine is dead) — resolve per operation, not per port lifetime.
    pub(crate) fn engine(&self, eid: usize) -> Arc<ShardEngine> {
        self.slots[eid].primary()
    }

    /// Current primaries, in shard order.
    fn primaries(&self) -> Vec<Arc<ShardEngine>> {
        self.slots.iter().map(|s| s.primary()).collect()
    }

    pub fn is_stopping(&self) -> bool {
        self.stop.is_stopped()
    }

    /// The stop signal: tripped by [`ClusterRuntime::request_shutdown`];
    /// acceptors made through it close with it.
    pub fn stop_signal(&self) -> &StopSignal {
        &self.stop
    }

    pub fn request_shutdown(&self) {
        self.stop.stop();
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

    /// Engine ids ordered by current ingest load (ascending) — the
    /// placement policy. Engines whose STATS cannot be read sort last.
    fn least_loaded(&self, n: usize) -> Vec<usize> {
        let mut loads: Vec<(u64, usize)> = self
            .slots
            .iter()
            .enumerate()
            .map(|(eid, s)| {
                (
                    s.primary()
                        .stats()
                        .map(|s| s.ingest_load())
                        .unwrap_or(u64::MAX),
                    eid,
                )
            })
            .collect();
        loads.sort_unstable();
        loads.truncate(n);
        let mut ids: Vec<usize> = loads.into_iter().map(|(_, id)| id).collect();
        ids.sort_unstable(); // stable shard-index → engine mapping
        ids
    }

    // ---- control-plane operations ---------------------------------------

    /// Plain (unsharded) DDL. `CREATE TABLE`/`CREATE BASKET` fan out to
    /// every engine (reference data must resolve everywhere); a plain
    /// `CREATE STREAM` becomes a single-shard stream placed on the
    /// least-loaded engine.
    pub fn ddl(&self, sql: &str) -> Result<Vec<String>> {
        self.ensure_running()?;
        let (kind, name, schema) = parse_create(sql)?;
        match kind {
            CreateKind::Stream => {
                self.create_stream_entry(sql, &name, schema, None, Some(1), false)
            }
            CreateKind::Table | CreateKind::Basket => {
                let all: Vec<usize> = (0..self.slots.len()).collect();
                self.forward_create(&name, sql, sql, &all)?;
                // reference data must also resolve on a promoted
                // follower: best-effort fan-out, duplicates tolerated
                // (a follower that already has it from an earlier
                // attempt), hard failures mark the shard stalled so
                // the gap is visible before any promotion relies on it
                for (eid, slot) in self.slots.iter().enumerate() {
                    let Some(f) = slot.follower() else { continue };
                    match f.control(|c| c.request(sql)) {
                        Ok(_) => {}
                        Err(e) if e.to_string().contains("duplicate") => {}
                        Err(_) => {
                            slot.set_stalled(true);
                            if let Some(rec) = self.telemetry.recorder() {
                                rec.record(
                                    "replication",
                                    None,
                                    format!("shard={eid} follower missed DDL {name}"),
                                );
                            }
                        }
                    }
                }
                Ok(Vec::new())
            }
        }
    }

    /// Engine set recorded by a failed partial CREATE of `name` with
    /// this exact signature (DDL **plus** shard clause), if any — a
    /// retry must repeat the whole declaration and target the same
    /// engines, or the leftover baskets of the first attempt would be
    /// stranded outside the retried stream's entry.
    fn recorded_create(&self, name: &str, signature: &str) -> Option<Vec<usize>> {
        self.failed_creates
            .lock()
            .get(name)
            .filter(|(prev_sig, _)| prev_sig == signature)
            .map(|(_, engines)| engines.clone())
    }

    /// Forward one CREATE to the given engines, with retry idempotency:
    /// "duplicate" from an engine is tolerable ONLY on a retry of the
    /// byte-identical declaration (`signature` = DDL + shard clause)
    /// after a recorded partial failure (the engine kept the object from
    /// our earlier attempt) — never on a first attempt or a changed
    /// declaration, where it means the name collides with an object of
    /// unknown or known-different shape.
    fn forward_create(
        &self,
        name: &str,
        signature: &str,
        ddl: &str,
        engines: &[usize],
    ) -> Result<()> {
        let retrying = self.recorded_create(name, signature).is_some();
        let mut any_created = false;
        for &eid in engines {
            match self.engine(eid).control(|c| c.request(ddl)) {
                Ok(_) => any_created = true,
                Err(e) if retrying && e.to_string().contains("duplicate") => {}
                Err(e) => {
                    if any_created || retrying {
                        self.failed_creates
                            .lock()
                            .insert(name.to_string(), (signature.to_string(), engines.to_vec()));
                    }
                    return Err(e);
                }
            }
        }
        self.failed_creates.lock().remove(name);
        Ok(())
    }

    /// `CREATE STREAM ... PERSIST` (unsharded): a single-shard durable
    /// stream placed on the least-loaded engine. The shard engine does
    /// the actual WAL/segment work — it must run with a `--data-dir`.
    pub fn create_persistent(&self, ddl: &str, stream: &str) -> Result<Vec<String>> {
        self.ensure_running()?;
        let (kind, name, schema) = parse_create(ddl)?;
        if kind != CreateKind::Stream || name != stream {
            return Err(ServerError::Protocol(format!(
                "PERSIST applies to CREATE STREAM {stream}, got {ddl:?}"
            )));
        }
        self.create_stream_entry(ddl, stream, schema, None, Some(1), true)
    }

    /// `CREATE STREAM ... [PERSIST] SHARD BY (key) [SHARDS n]`.
    pub fn create_sharded(
        &self,
        ddl: &str,
        stream: &str,
        key: &str,
        shards: Option<usize>,
        persist: bool,
    ) -> Result<Vec<String>> {
        self.ensure_running()?;
        let (kind, name, schema) = parse_create(ddl)?;
        if kind != CreateKind::Stream || name != stream {
            return Err(ServerError::Protocol(format!(
                "SHARD BY applies to CREATE STREAM {stream}, got {ddl:?}"
            )));
        }
        self.create_stream_entry(ddl, stream, schema, Some(key), shards, persist)
    }

    /// Shared CREATE STREAM path. `key = None` → unsharded; `shards =
    /// None` → one shard per engine.
    fn create_stream_entry(
        &self,
        ddl: &str,
        stream: &str,
        schema: Schema,
        key: Option<&str>,
        shards: Option<usize>,
        persist: bool,
    ) -> Result<Vec<String>> {
        let n = shards.unwrap_or(self.slots.len());
        if n == 0 || n > self.slots.len() {
            return Err(ServerError::Protocol(format!(
                "SHARDS {n} out of range (cluster has {} engines)",
                self.slots.len()
            )));
        }
        let partitioner = match key {
            None => None,
            Some(k) => {
                let (idx, _) = schema.find(k).ok_or_else(|| {
                    ServerError::Protocol(format!(
                        "SHARD BY key {k} is not a column of {stream}"
                    ))
                })?;
                Some(Partitioner::new(idx, n).map_err(ServerError::Engine)?)
            }
        };
        // duplicate pre-check + in-flight claim, WITHOUT holding the map
        // lock across the engine round-trips below — a slow shard must
        // only stall this CREATE, not every control command touching the
        // stream map; the in-flight claim makes a racing same-name
        // CREATE fail here, before it can place baskets anywhere
        {
            let streams = self.streams.lock();
            let mut in_flight = self.in_flight_creates.lock();
            if streams.contains_key(stream) || !in_flight.insert(stream.to_string()) {
                return Err(ServerError::Duplicate(stream.to_string()));
            }
        }
        let result = (|| {
            // the retry signature covers the shard clause too: a retry
            // with a different key or SHARDS count is a NEW declaration
            // colliding with the old attempt's leftovers, not a retry
            let signature = format!("{ddl}#key={key:?}#shards={n}#persist={persist}");
            // a same-declaration retry reuses the engine set of the
            // recorded partial attempt (fresh placement could strand its
            // baskets)
            let engines = match self.recorded_create(stream, &signature) {
                Some(prev) if prev.len() == n => prev,
                _ => self.least_loaded(n),
            };
            // the shard clause stays router-side, but PERSIST travels to
            // the shard engines: each shard keeps its own WAL + segments
            let shard_ddl = if persist {
                format!("{ddl} PERSIST")
            } else {
                ddl.to_string()
            };
            self.forward_create(stream, &signature, &shard_ddl, &engines)?;
            let entry = Arc::new(StreamEntry {
                name: stream.to_string(),
                schema,
                partitioner,
                key: key.map(str::to_string),
                engines: engines.clone(),
                ddl: ddl.to_string(),
                persist,
            });
            self.streams.lock().insert(stream.to_string(), entry);
            let engine_list: Vec<String> = engines.iter().map(usize::to_string).collect();
            let mut line = format!(
                "stream={stream} shards={n} key={} engines={}",
                key.unwrap_or("-"),
                engine_list.join(",")
            );
            if persist {
                line.push_str(" persistent=true");
            }
            Ok(vec![line])
        })();
        self.in_flight_creates.lock().remove(stream);
        result
    }

    /// One-shot SQL, fanned out to every engine. Only statements whose
    /// N-way execution is equivalent to single-engine execution are
    /// allowed (CREATE / DECLARE / SET — the setup surface); INSERTs and
    /// SELECTs are rejected with a pointer to the data plane, because
    /// fanning them out would duplicate data N× or return one shard's
    /// slice as if it were the whole answer.
    pub fn exec(&self, sql: &str) -> Result<Vec<String>> {
        self.ensure_running()?;
        let stmts = dcsql::parse_statements(sql)
            .map_err(|e| ServerError::Protocol(format!("EXEC: {e}")))?;
        // every CREATE goes through the ddl() path: streams need the
        // shard map (placement + routing entry), and tables/baskets need
        // forward_create's partial-failure retry idempotency
        if stmts.iter().any(|s| matches!(s, Stmt::Create { .. })) {
            if stmts.len() == 1 {
                return self.ddl(sql);
            }
            return Err(ServerError::Protocol(
                "EXEC scripts may not mix CREATE with other statements \
                 on a cluster — issue each CREATE as its own command so \
                 the router can place and track it"
                    .into(),
            ));
        }
        let fan_out_safe = stmts
            .iter()
            .all(|s| matches!(s, Stmt::Declare { .. } | Stmt::Set { .. }));
        if !fan_out_safe {
            return Err(ServerError::Protocol(
                "EXEC on a cluster is limited to CREATE/DECLARE/SET \
                 (data statements would run once per engine — use receptor \
                 and emitter ports, or EXEC against a single engine)"
                    .into(),
            ));
        }
        let mut first: Option<Vec<String>> = None;
        for e in self.primaries() {
            let body = e.control(|c| c.exec(sql))?;
            if first.is_none() {
                first = Some(body);
            }
        }
        Ok(first.unwrap_or_default())
    }

    /// Register a continuous query on every engine that can resolve it.
    pub fn register_query(&self, name: &str, sql: &str) -> Result<Vec<String>> {
        self.ensure_running()?;
        // as in create_stream_entry: never hold the map lock across the
        // engine round-trips — a slow shard stalls this registration only
        if self.queries.lock().contains_key(name) {
            return Err(ServerError::Duplicate(name.to_string()));
        }
        let retrying = self
            .failed_registers
            .lock()
            .get(name)
            .is_some_and(|prev| prev == sql);
        let mut engines = Vec::new();
        let mut skipped: Vec<(usize, String)> = Vec::new();
        let mut kind = String::new();
        let mut first_err = None;
        for (eid, slot) in self.slots.iter().enumerate() {
            let e = slot.primary();
            match e.control(|c| c.request(&format!("REGISTER QUERY {name} AS {sql}"))) {
                Ok(body) => {
                    engines.push(eid);
                    if kind.is_empty() {
                        kind = body
                            .first()
                            .and_then(|l| l.split("kind=").nth(1))
                            .unwrap_or("unknown")
                            .to_string();
                    }
                }
                Err(err) => {
                    let msg = err.to_string();
                    if msg.contains("unknown name") {
                        // expected: this engine does not host a stream
                        // the query references (unsharded, placed
                        // elsewhere) — the query has no results there.
                        // Recorded so partial success is visible in the
                        // response instead of silently narrowing fan-out
                        skipped.push((eid, msg.replace(['\n', '\r'], " ")));
                        if first_err.is_none() {
                            first_err = Some(err);
                        }
                    } else if retrying && msg.contains("duplicate") {
                        // a recorded same-SQL partial fan-out already
                        // registered it here — count the engine. A
                        // changed-SQL retry is NOT tolerated: it would
                        // merge two different queries under one name.
                        engines.push(eid);
                    } else {
                        // ANY other failure (socket error, engine fault)
                        // must abort: tolerating it would silently drop
                        // that shard's results from every subscriber
                        if !engines.is_empty() || retrying {
                            self.failed_registers
                                .lock()
                                .insert(name.to_string(), sql.to_string());
                        }
                        return Err(err);
                    }
                }
            }
        }
        if engines.is_empty() {
            return Err(first_err
                .unwrap_or_else(|| ServerError::Unknown(format!("query {name}"))));
        }
        self.failed_registers.lock().remove(name);
        let engine_list: Vec<String> = engines.iter().map(usize::to_string).collect();
        let mut queries = self.queries.lock();
        if queries.contains_key(name) {
            // raced with a concurrent identical registration; the shard
            // engines themselves rejected one of the two fan-outs as
            // duplicate, so nothing dangles
            return Err(ServerError::Duplicate(name.to_string()));
        }
        queries.insert(
            name.to_string(),
            Arc::new(QueryEntry {
                name: name.to_string(),
                sql: sql.to_string(),
                engines,
                kind: kind.clone(),
            }),
        );
        // partial success is explicit: the summary line counts the
        // engines that declined, and one detail line per declined
        // engine carries its exact error
        let mut body = vec![format!(
            "query={name} kind={kind} engines={} skipped={}",
            engine_list.join(","),
            skipped.len()
        )];
        for (eid, msg) in &skipped {
            body.push(format!("skipped engine={eid} error={msg}"));
        }
        Ok(body)
    }

    /// `FLUSH STREAM <name>`: seal every shard's open basket rows into
    /// segments. Returns the total rows sealed across shards.
    pub fn flush_stream(&self, stream: &str) -> Result<u64> {
        self.ensure_running()?;
        let entry = self
            .streams
            .lock()
            .get(stream)
            .cloned()
            .ok_or_else(|| ServerError::Unknown(format!("stream {stream}")))?;
        let mut sealed = 0u64;
        for &eid in &entry.engines {
            sealed += self.engine(eid).control(|c| c.flush_stream(stream))?;
        }
        Ok(sealed)
    }

    /// `EXPLAIN <sql>`: plan compilation is identical on every engine
    /// (same binary, same compiler), so forward to the first one.
    pub fn explain_sql(&self, sql: &str) -> Result<Vec<String>> {
        self.ensure_running()?;
        self.engine(0).control(|c| c.explain(sql))
    }

    /// `EXPLAIN QUERY <name>`: forward to an engine hosting the query
    /// (registration fans out, so any resolving engine has the plan).
    pub fn explain_query(&self, name: &str) -> Result<Vec<String>> {
        self.ensure_running()?;
        let eid = {
            let queries = self.queries.lock();
            let q = queries
                .get(name)
                .ok_or_else(|| ServerError::Unknown(format!("query {name}")))?;
            *q.engines.first().expect("registered queries resolve somewhere")
        };
        self.engine(eid).control(|c| c.explain_query(name))
    }

    // ---- ingest: one logical receptor port ------------------------------

    /// Open a logical receptor port for `stream`; port 0 picks an
    /// ephemeral port. Behind it, one binary receptor per shard engine.
    pub fn attach_receptor(
        self: &Arc<Self>,
        stream: &str,
        port: u16,
        format: WireFormat,
    ) -> Result<u16> {
        self.ensure_running()?;
        let entry = self
            .streams
            .lock()
            .get(stream)
            .cloned()
            .ok_or_else(|| ServerError::Unknown(format!("stream {stream}")))?;
        // bind the logical port FIRST: a bad local port (in use,
        // privileged) must fail before any engine-side port is attached
        let listener = TcpListener::bind((self.config.data_host.as_str(), port))?;
        // shard-side ingest is always binary: the router has columnar
        // batches in hand, whatever the client-facing format. A failure
        // partway through the loop detaches the shard ports already
        // attached — no engine-side port outlives a failed ATTACH
        let mut shard_ports: Vec<(usize, u16)> = Vec::with_capacity(entry.engines.len());
        for &eid in &entry.engines {
            match self.engine(eid)
                .control(|c| c.attach_receptor_fmt(stream, 0, WireFormat::Binary))
            {
                Ok(p) => shard_ports.push((eid, p)),
                Err(e) => {
                    for &(peid, pp) in &shard_ports {
                        let _ = self.engine(peid).control(|c| c.detach_receptor(stream, pp));
                    }
                    return Err(e);
                }
            }
        }
        let acceptor = self.stop.acceptor(&listener)?;
        let rport = Arc::new(ClusterReceptorPort {
            stream: stream.to_string(),
            port: acceptor.port(),
            format,
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            acceptor: Arc::clone(&acceptor),
            shard_ports: Mutex::new(shard_ports),
        });
        self.receptors.lock().push(Arc::clone(&rport));

        let rt = Arc::clone(self);
        let name = format!("dcc-rcpt-{stream}");
        let handle = acceptor.spawn(name, listener, move |sock, _peer| {
            rport.connections.fetch_add(1, Ordering::AcqRel);
            // resolve shard addresses per connection, not per port:
            // promotion re-points shard_ports at the new primary, and
            // connections accepted afterwards must ingest there
            let addrs: Vec<_> = rport
                .shard_ports
                .lock()
                .iter()
                .map(|&(eid, p)| rt.engine(eid).data_addr(p))
                .collect();
            let (rt, rport, entry) = (Arc::clone(&rt), Arc::clone(&rport), Arc::clone(&entry));
            let conn = std::thread::Builder::new()
                .name(format!("dcc-rcpt-{}-conn", rport.stream))
                .spawn(move || ingest_connection(&rt, &rport, &entry, &addrs, sock))
                .expect("spawn router ingest thread");
            Some(conn)
        });
        self.ingress_threads.lock().push(handle);
        Ok(acceptor.port())
    }

    // ---- results: one logical emitter port ------------------------------

    /// Open a logical emitter port for `query`; port 0 picks an ephemeral
    /// port. Behind it, one emitter subscription per shard engine, all
    /// merged into every subscriber.
    pub fn attach_emitter(
        self: &Arc<Self>,
        query: &str,
        port: u16,
        format: WireFormat,
    ) -> Result<u16> {
        self.ensure_running()?;
        let entry = self
            .queries
            .lock()
            .get(query)
            .cloned()
            .ok_or_else(|| ServerError::Unknown(format!("query {query}")))?;
        // bind the logical port FIRST (see attach_receptor): local bind
        // failures must not leak engine-side ports or tap threads
        let listener = TcpListener::bind((self.config.data_host.as_str(), port))?;
        let relay = FrameRelay::new();
        // subscribe to each shard in the *client's* format, so merging is
        // a byte relay — frames are never decoded in the router; attach
        // every shard port before spawning taps so a failure mid-list
        // leaves no thread behind, and detach the shard ports already
        // attached so none leaks on a partial failure
        let mut shard_ports: Vec<(usize, u16)> = Vec::with_capacity(entry.engines.len());
        let mut shard_socks = Vec::with_capacity(entry.engines.len());
        for &eid in &entry.engines {
            let engine = self.engine(eid);
            let attempt = engine
                .control(|c| c.attach_emitter_fmt(query, 0, format))
                .and_then(|p| {
                    shard_ports.push((eid, p));
                    Ok(TcpStream::connect(engine.data_addr(p))?)
                });
            match attempt {
                Ok(sock) => shard_socks.push((eid, sock)),
                Err(e) => {
                    for &(peid, pp) in &shard_ports {
                        let _ = self.engine(peid).control(|c| c.detach_emitter(query, pp));
                    }
                    return Err(e);
                }
            }
        }
        for (eid, sock) in shard_socks {
            let rt = Arc::clone(self);
            let relay2 = Arc::clone(&relay);
            let tap = std::thread::Builder::new()
                .name(format!("dcc-tap-{query}-{eid}"))
                .spawn(move || shard_tap(&rt, &relay2, sock, format))
                .map_err(|e| ServerError::Io(format!("spawn shard tap: {e}")))?;
            self.egress_threads.lock().push(tap);
        }
        let acceptor = self.stop.acceptor(&listener)?;
        let eport = Arc::new(ClusterEmitterPort {
            query: query.to_string(),
            port: acceptor.port(),
            format,
            connections: AtomicU64::new(0),
            relay,
            acceptor: Arc::clone(&acceptor),
            shard_ports: Mutex::new(shard_ports),
            writers: Mutex::new(Vec::new()),
        });
        self.emitters.lock().push(Arc::clone(&eport));

        let handle = acceptor.spawn(format!("dcc-emit-{query}"), listener, move |sock, _peer| {
            eport.connections.fetch_add(1, Ordering::AcqRel);
            let _ = sock.set_write_timeout(Some(WRITE_TIMEOUT));
            spawn_subscriber(&eport.query, &eport.relay, &eport.writers, sock);
            None
        });
        self.egress_threads.lock().push(handle);
        Ok(acceptor.port())
    }

    // ---- detach: close logical ports + their shard-side ports ------------

    /// `DETACH RECEPTOR <stream> PORT <p>`: retire the logical port and
    /// close the shard-side receptor ports behind it. Established ingest
    /// connections drain until their peers hang up. Returns how many
    /// shard-side ports were detached.
    pub fn detach_receptor(&self, stream: &str, port: u16) -> Result<usize> {
        let rport = {
            let mut receptors = self.receptors.lock();
            let idx = receptors
                .iter()
                .position(|r| r.stream == stream && r.port == port)
                .ok_or_else(|| {
                    ServerError::Unknown(format!("receptor {stream} on port {port}"))
                })?;
            receptors.remove(idx)
        };
        rport.acceptor.close();
        let mut detached = 0usize;
        for (eid, p) in rport.shard_ports.lock().clone() {
            if self.engine(eid)
                .control(|c| c.detach_receptor(stream, p))
                .is_ok()
            {
                detached += 1;
            }
        }
        Ok(detached)
    }

    /// `DETACH EMITTER <query> PORT <p>`: retire the logical port and
    /// close the shard-side emitter ports behind it. Existing
    /// subscribers keep their streams (the shard taps run until EOF);
    /// the retired port is kept aside so shutdown still drains its
    /// relay and joins its writers. Returns how many shard-side ports
    /// were detached.
    pub fn detach_emitter(&self, query: &str, port: u16) -> Result<usize> {
        let eport = {
            let mut emitters = self.emitters.lock();
            let idx = emitters
                .iter()
                .position(|e| e.query == query && e.port == port)
                .ok_or_else(|| {
                    ServerError::Unknown(format!("emitter {query} on port {port}"))
                })?;
            emitters.remove(idx)
        };
        eport.acceptor.close();
        let mut detached = 0usize;
        for (eid, p) in eport.shard_ports.lock().clone() {
            if self.engine(eid)
                .control(|c| c.detach_emitter(query, p))
                .is_ok()
            {
                detached += 1;
            }
        }
        self.detached_emitters.lock().push(eport);
        Ok(detached)
    }

    // ---- telemetry -------------------------------------------------------

    /// Aggregated `METRICS`: per-shard Prometheus expositions merged
    /// bucket-wise (identical series sum, so `dc_fire_micros{query=..}`
    /// histograms aggregate exactly), plus the router's own series and
    /// one `dc_shard_up{shard="i"}` health gauge per engine.
    ///
    /// Shard-local *derived* gauges (uptime, health score, windowed
    /// rates/quantiles) are dropped before the merge: summing them
    /// across shards is meaningless, and the router re-derives the
    /// cluster-level versions from its own snapshot history (and
    /// republishes health as `dc_health_score{shard}`).
    pub fn metrics(&self) -> Vec<String> {
        if self.telemetry.is_enabled() {
            self.telemetry
                .set_gauge("dc_uptime_seconds", &[], self.uptime().as_secs_f64());
        }
        let mut sources: Vec<Vec<String>> = Vec::new();
        let mut up: Vec<(usize, bool)> = Vec::new();
        for (eid, slot) in self.slots.iter().enumerate() {
            match slot.primary().control(|c| c.metrics()) {
                Ok(m) => {
                    sources.push(m.into_iter().filter(|l| !is_derived_gauge(l)).collect());
                    up.push((eid, true));
                }
                Err(_) => up.push((eid, false)),
            }
        }
        sources.push(self.telemetry.render());
        let mut body = dctrace::merge_expositions(&sources);
        body.push("# TYPE dc_shard_up gauge".into());
        for (id, ok) in up {
            body.push(format!(
                "dc_shard_up{{shard=\"{id}\"}} {}",
                if ok { 1 } else { 0 }
            ));
        }
        body
    }

    /// Aggregated `TRACE DUMP`: every shard's flight-recorder events
    /// (each line prefixed `shard=<id>`), then the router's own events
    /// (prefixed `shard=router`).
    pub fn trace_dump(&self, query: Option<&str>) -> Result<Vec<String>> {
        let mut body = Vec::new();
        for (id, slot) in self.slots.iter().enumerate() {
            let lines = slot.primary().control(|c| match query {
                Some(q) => c.trace_dump_query(q),
                None => c.trace_dump(),
            })?;
            body.extend(lines.into_iter().map(|l| format!("shard={id} {l}")));
        }
        if let Some(rec) = self.telemetry.recorder() {
            body.extend(
                rec.dump(query)
                    .into_iter()
                    .map(|l| format!("shard=router {l}")),
            );
        }
        Ok(body)
    }

    /// `METRICS HISTORY [series] [LAST n]` over the router's ring of
    /// cluster-wide snapshots.
    pub fn metrics_history(&self, series: Option<&str>, last: Option<usize>) -> Result<Vec<String>> {
        if !self.telemetry.is_enabled() {
            return Err(ServerError::Protocol(
                "telemetry is disabled on this cluster".into(),
            ));
        }
        Ok(self.history.render(series, last))
    }

    /// Aggregated `TRACE SPANS [BATCH id]`: per-shard span trees merged
    /// by batch id, every span line re-tagged with its origin recorder
    /// (`shard=<id>`, router-local spans as `shard=router`), so one
    /// sampled batch reads as a single cross-process tree.
    pub fn trace_spans(&self, batch: Option<u64>) -> Result<Vec<String>> {
        let mut groups: Vec<(u64, Vec<String>)> = Vec::new();
        let mut add = |id: u64, line: String| match groups.iter_mut().find(|(b, _)| *b == id) {
            Some((_, lines)) => lines.push(line),
            None => groups.push((id, vec![line])),
        };
        // router spans first: a batch enters the cluster at the router,
        // so its receptor/forward hops lead each merged tree
        if let Some(rec) = self.telemetry.recorder() {
            merge_span_lines(&mut add, "router", &dctrace::render_spans(&rec.events(), batch));
        }
        for (eid, slot) in self.slots.iter().enumerate() {
            let lines = slot.primary().control(|c| c.trace_spans(batch))?;
            merge_span_lines(&mut add, &eid.to_string(), &lines);
        }
        let mut out = Vec::new();
        for (id, lines) in groups {
            out.push(format!("batch {id} spans={}", lines.len()));
            out.extend(lines);
        }
        Ok(out)
    }

    /// Poll every shard's `HEALTH`, overlay `unreachable` (score 0) for
    /// engines whose control plane fails, and republish the scores as
    /// `dc_health_score{shard}` plus per-reason `dc_health_degraded`
    /// gauges. Returns one `shard <id> addr=<a> score=<s>
    /// reasons=<csv|->` line per engine — the `HEALTH` response body.
    ///
    /// This poll is also the failure detector: `failover_misses`
    /// consecutive unreachable polls on a shard with a follower trigger
    /// [`ClusterRuntime::promote_shard`].
    fn poll_shard_health(self: &Arc<Self>) -> Vec<String> {
        const REASONS: [&str; 6] = [
            "unreachable",
            "ingest_stalled",
            "reexecute_rate",
            "forward_saturation",
            "wal_fsync_slow",
            "replication_stalled",
        ];
        let mut body = Vec::new();
        for (id, slot) in self.slots.iter().enumerate() {
            let polled = slot.primary().control(|c| c.health());
            let reachable = polled.is_ok();
            let (score, mut reasons) = match polled {
                Ok(lines) => dctrace::HealthReport::parse_head(&lines)
                    .unwrap_or((100, "-".to_string())),
                Err(_) => (0, "unreachable".to_string()),
            };
            if reachable {
                slot.health_misses.store(0, Ordering::Release);
            } else {
                let misses = slot.health_misses.fetch_add(1, Ordering::AcqRel) + 1;
                if misses >= self.config.failover_misses && slot.follower().is_some() {
                    self.promote_shard(id);
                }
            }
            if slot.is_stalled() {
                if reasons == "-" {
                    reasons = "replication_stalled".to_string();
                } else {
                    reasons.push_str(",replication_stalled");
                }
            }
            let shard_label = id.to_string();
            self.telemetry
                .set_gauge("dc_health_score", &[("shard", &shard_label)], score as f64);
            for r in REASONS {
                let degraded = reasons.split(',').any(|x| x == r);
                self.telemetry.set_gauge(
                    "dc_health_degraded",
                    &[("shard", &shard_label), ("reason", r)],
                    if degraded { 1.0 } else { 0.0 },
                );
            }
            body.push(format!(
                "shard {id} addr={} score={score} reasons={reasons}",
                slot.primary().addr()
            ));
        }
        body
    }

    /// `HEALTH` on the router: one freshly-polled line per shard (the
    /// gauges refresh as a side effect, so scraping `HEALTH` and
    /// `METRICS` stays consistent).
    pub fn health(self: &Arc<Self>) -> Result<Vec<String>> {
        Ok(self.poll_shard_health())
    }

    /// `TRACE QUERY <q> ON`: one logical trace-stream port fronting the
    /// query's shards. Each shard's live event stream (text lines) is
    /// relayed into every subscriber, exactly like result merging.
    /// Returns the bound port.
    pub fn trace_on(self: &Arc<Self>, query: &str) -> Result<u16> {
        self.ensure_running()?;
        let entry = self
            .queries
            .lock()
            .get(query)
            .cloned()
            .ok_or_else(|| ServerError::Unknown(format!("query {query}")))?;
        // bind the logical port FIRST (see attach_emitter): local bind
        // failures must not leak shard-side taps
        let listener = TcpListener::bind((self.config.data_host.as_str(), 0))?;
        let relay = FrameRelay::new();
        let mut shard_socks = Vec::with_capacity(entry.engines.len());
        for &eid in &entry.engines {
            let engine = self.engine(eid);
            let p = engine.control(|c| c.trace_on(query))?;
            shard_socks.push((eid, TcpStream::connect(engine.data_addr(p))?));
        }
        for (eid, sock) in shard_socks {
            let rt = Arc::clone(self);
            let relay2 = Arc::clone(&relay);
            let tap = std::thread::Builder::new()
                .name(format!("dcc-trace-tap-{query}-{eid}"))
                .spawn(move || shard_tap(&rt, &relay2, sock, WireFormat::Text))
                .map_err(|e| ServerError::Io(format!("spawn trace tap: {e}")))?;
            self.egress_threads.lock().push(tap);
        }
        let acceptor = self.stop.acceptor(&listener)?;
        let tport = Arc::new(ClusterTracePort {
            query: query.to_string(),
            acceptor: Arc::clone(&acceptor),
            relay,
            writers: Mutex::new(Vec::new()),
        });
        self.trace_ports.lock().push(Arc::clone(&tport));

        let name = format!("dcc-trace-{query}");
        let handle = acceptor.spawn(name, listener, move |sock, _peer| {
            let _ = sock.set_write_timeout(Some(WRITE_TIMEOUT));
            spawn_subscriber(&tport.query, &tport.relay, &tport.writers, sock);
            None
        });
        self.egress_threads.lock().push(handle);
        Ok(acceptor.port())
    }

    /// `TRACE QUERY <q> OFF`: close the shard-side taps (their streams
    /// end, the router taps see EOF), retire the logical ports, end
    /// subscriber streams. Returns how many shards were told to stop.
    pub fn trace_off(&self, query: &str) -> Result<usize> {
        let entry = self
            .queries
            .lock()
            .get(query)
            .cloned()
            .ok_or_else(|| ServerError::Unknown(format!("query {query}")))?;
        let mut closed = 0usize;
        for &eid in &entry.engines {
            if self.engine(eid).control(|c| c.trace_off(query)).is_ok() {
                closed += 1;
            }
        }
        let mut ports = self.trace_ports.lock();
        for p in ports.iter().filter(|p| p.query == query) {
            p.acceptor.close();
            p.relay.close();
        }
        ports.retain(|p| p.query != query);
        Ok(closed)
    }

    // ---- introspection ---------------------------------------------------

    /// Aggregated `STATS`: cluster-level lines in the same `kind name
    /// k=v` shape as a single engine (so [`StatsReport`] parses them),
    /// with per-stream/per-query metrics **summed across shards**, plus
    /// one `shard` summary line per engine.
    pub fn stats(&self) -> Vec<String> {
        let primaries = self.primaries();
        let reports: Vec<Option<StatsReport>> =
            primaries.iter().map(|e| e.stats().ok()).collect();
        let streams = self.streams.lock();
        let queries = self.queries.lock();
        let receptors = self.receptors.lock();
        let emitters = self.emitters.lock();
        let mut body = Vec::new();
        body.push(format!(
            "server uptime_micros={} sessions={} queries={} receptor_ports={} \
             emitter_ports={} engines={} streams={}",
            self.uptime().as_micros(),
            self.sessions.live_count(),
            queries.len(),
            receptors.len(),
            emitters.len(),
            self.slots.len(),
            streams.len(),
        ));
        let mut stream_names: Vec<&String> = streams.keys().collect();
        stream_names.sort();
        for name in stream_names {
            let s = &streams[name];
            let engine_list: Vec<String> = s.engines.iter().map(usize::to_string).collect();
            body.push(format!(
                "stream {} shards={} key={} engines={}",
                s.name,
                s.engines.len(),
                s.key.as_deref().unwrap_or("-"),
                engine_list.join(","),
            ));
            // aggregate the per-shard basket rows
            let (mut len, mut total_in, mut total_out, mut dropped) = (0u64, 0u64, 0u64, 0u64);
            let (mut high_water, mut cap) = (0u64, 0u64);
            let (mut pending_deletes, mut compactions) = (0u64, 0u64);
            let (mut persistent, mut wal_bytes, mut segments) = (false, 0u64, 0u64);
            let mut wal_fsync_p99 = 0u64;
            for &eid in &s.engines {
                if let Some(b) = reports[eid].as_ref().and_then(|r| r.basket(&s.name)) {
                    len += b.len;
                    total_in += b.total_in;
                    total_out += b.total_out;
                    dropped += b.dropped;
                    high_water = high_water.max(b.high_water);
                    cap = cap.max(b.cap);
                    pending_deletes += b.pending_deletes;
                    compactions += b.compactions;
                    persistent |= b.persistent;
                    wal_bytes += b.wal_bytes;
                    segments += b.segments;
                    // quantiles don't sum — report the slowest shard
                    wal_fsync_p99 = wal_fsync_p99.max(b.wal_fsync_p99_micros);
                }
            }
            let mut line = format!(
                "basket {} len={len} enabled=true in={total_in} out={total_out} \
                 dropped={dropped} high_water={high_water} cap={cap} \
                 pending_deletes={pending_deletes} compactions={compactions} \
                 persistent={persistent} wal_bytes={wal_bytes} segments={segments}",
                s.name
            );
            if persistent {
                line.push_str(&format!(" wal_fsync_p99_micros={wal_fsync_p99}"));
            }
            body.push(line);
        }
        let mut query_names: Vec<&String> = queries.keys().collect();
        query_names.sort();
        for name in query_names {
            let q = &queries[name];
            let mut agg = dcserver::stats::QueryStats {
                name: q.name.clone(),
                ..Default::default()
            };
            for &eid in &q.engines {
                if let Some(row) = reports[eid].as_ref().and_then(|r| r.query(&q.name)) {
                    agg.firings += row.firings;
                    agg.consumed += row.consumed;
                    agg.produced += row.produced;
                    agg.busy_micros += row.busy_micros;
                    agg.lock_micros += row.lock_micros;
                    agg.rows_scanned += row.rows_scanned;
                    agg.rows_out += row.rows_out;
                    agg.plan_micros += row.plan_micros;
                    agg.delta_rows += row.delta_rows;
                    agg.full_reexecutes += row.full_reexecutes;
                    // a gauge, but shard states are disjoint — the
                    // cluster-wide footprint is their sum
                    agg.arrangement_bytes += row.arrangement_bytes;
                    agg.delivered_batches += row.delivered_batches;
                    agg.delivered_tuples += row.delivered_tuples;
                    agg.dropped_batches += row.dropped_batches;
                    // latency quantiles don't sum — report the worst
                    // shard (a conservative cluster-level summary)
                    agg.p50_micros = agg.p50_micros.max(row.p50_micros);
                    agg.p99_micros = agg.p99_micros.max(row.p99_micros);
                    agg.max_micros = agg.max_micros.max(row.max_micros);
                }
            }
            // subscribers are router-side: sockets on this query's
            // logical emitter ports
            let subscribers: usize = emitters
                .iter()
                .filter(|e| e.query == q.name)
                .map(|e| e.relay.subscriber_count())
                .sum();
            let engine_list: Vec<String> = q.engines.iter().map(usize::to_string).collect();
            body.push(format!(
                "query {} firings={} consumed={} produced={} busy_micros={} lock_micros={} \
                 rows_scanned={} rows_out={} plan_micros={} \
                 delta_rows={} full_reexecutes={} arrangement_bytes={} \
                 subscribers={} delivered_batches={} delivered_tuples={} dropped_batches={} \
                 p50_micros={} p99_micros={} max_micros={} engines={}",
                agg.name,
                agg.firings,
                agg.consumed,
                agg.produced,
                agg.busy_micros,
                agg.lock_micros,
                agg.rows_scanned,
                agg.rows_out,
                agg.plan_micros,
                agg.delta_rows,
                agg.full_reexecutes,
                agg.arrangement_bytes,
                subscribers,
                agg.delivered_batches,
                agg.delivered_tuples,
                agg.dropped_batches,
                agg.p50_micros,
                agg.p99_micros,
                agg.max_micros,
                engine_list.join(","),
            ));
        }
        for r in receptors.iter() {
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
        for e in emitters.iter() {
            let (chunks, bytes) = e.relay.relayed();
            body.push(format!(
                "emitter {} port={} format={} connections={} relayed_chunks={chunks} \
                 relayed_bytes={bytes} dropped_chunks={} lost_sources={}",
                e.query,
                e.port,
                e.format,
                e.connections.load(Ordering::Acquire),
                e.relay.dropped_chunks(),
                e.relay.lost_sources(),
            ));
        }
        for (eid, report) in reports.iter().enumerate() {
            let slot = &self.slots[eid];
            let follower = slot
                .follower()
                .map(|f| f.addr().to_string())
                .unwrap_or_else(|| "-".to_string());
            let failovers = slot.failovers();
            match report {
                Some(r) => body.push(format!(
                    "shard {eid} addr={} baskets_in={} delivered_tuples={} sessions={} \
                     follower={follower} failovers={failovers}",
                    primaries[eid].addr(),
                    r.ingest_load(),
                    r.delivered_tuples(),
                    r.server.sessions,
                )),
                None => body.push(format!(
                    "shard {eid} addr={} unreachable=true follower={follower} \
                     failovers={failovers}",
                    primaries[eid].addr()
                )),
            }
        }
        for s in self.sessions.snapshot() {
            body.push(format!(
                "session {} peer={} commands={}",
                s.id, s.peer, s.commands
            ));
        }
        body
    }

    // ---- shutdown --------------------------------------------------------

    /// Graceful teardown in dependency order: stop taking ingest, flush
    /// final batches into the shards, shut the shard engines down (they
    /// drain and close their emitter streams), drain the relays, join
    /// everything.
    pub fn shutdown(&self) {
        self.request_shutdown();
        // 1. receptor accept loops + ingest connections wind down; their
        //    per-shard forwarders flush and close, so the shard engines
        //    see EOF on every router ingest socket
        for t in std::mem::take(&mut *self.ingress_threads.lock()) {
            let _ = t.join();
        }
        // 2. in-process shard engines shut down gracefully (factories
        //    drain, final results flush, emitter sockets close);
        //    followers after primaries, so the last pump tick's writes
        //    are already on the follower's disk
        for slot in &self.slots {
            slot.primary().shutdown();
        }
        for slot in &self.slots {
            if let Some(f) = slot.follower() {
                f.shutdown();
            }
        }
        // 3. shard taps see EOF and publish their final chunks (the
        //    drain flag releases taps on remote engines that never
        //    close); emitter accept loops closed with the stop signal
        self.drain_taps.store(true, Ordering::Release);
        for t in std::mem::take(&mut *self.egress_threads.lock()) {
            let _ = t.join();
        }
        // 4. disconnect subscriber channels and join the writers —
        //    DETACHed emitter ports included, their subscribers may
        //    still be draining
        let mut eports: Vec<Arc<ClusterEmitterPort>> = self.emitters.lock().clone();
        eports.extend(self.detached_emitters.lock().drain(..));
        for eport in &eports {
            eport.relay.close();
        }
        for eport in &eports {
            for w in std::mem::take(&mut *eport.writers.lock()) {
                let _ = w.join();
            }
        }
        let tports: Vec<Arc<ClusterTracePort>> = self.trace_ports.lock().clone();
        for tport in &tports {
            tport.relay.close();
        }
        for tport in &tports {
            for w in std::mem::take(&mut *tport.writers.lock()) {
                let _ = w.join();
            }
        }
    }
}

/// Derived per-process gauges that must NOT be summed across shards by
/// the exposition merge: the router recomputes the cluster-level
/// versions itself (see [`ClusterRuntime::metrics`]).
const DERIVED_GAUGES: [&str; 4] = [
    "dc_uptime_seconds",
    "dc_health_score",
    "dc_ingest_rate",
    "dc_fire_p99_window_micros",
];

/// True when `line` is a sample (or `# TYPE` comment) of one of the
/// [`DERIVED_GAUGES`] — matched on the full metric name, not a prefix.
fn is_derived_gauge(line: &str) -> bool {
    let name = line.strip_prefix("# TYPE ").unwrap_or(line);
    DERIVED_GAUGES.iter().any(|g| {
        name.strip_prefix(g).is_some_and(|rest| {
            rest.is_empty() || rest.starts_with('{') || rest.starts_with(' ')
        })
    })
}

/// Fold one recorder's rendered span tree ([`dctrace::render_spans`]
/// output) into the cluster-wide merge: `batch <id> spans=n` headers
/// select the current group; span lines are re-tagged with their origin
/// recorder as `shard=<tag>`.
fn merge_span_lines(add: &mut impl FnMut(u64, String), tag: &str, lines: &[String]) {
    let mut current: Option<u64> = None;
    for l in lines {
        if let Some(rest) = l.strip_prefix("batch ") {
            current = rest.split_whitespace().next().and_then(|id| id.parse().ok());
        } else if let (Some(id), Some(span)) = (current, l.strip_prefix("  ")) {
            add(id, format!("  shard={tag} {span}"));
        }
    }
}

/// Parse a single CREATE statement; returns (kind, name, user schema).
fn parse_create(sql: &str) -> Result<(CreateKind, String, Schema)> {
    let stmts = dcsql::parse_statements(sql)
        .map_err(|e| ServerError::Protocol(format!("DDL: {e}")))?;
    match stmts.as_slice() {
        [Stmt::Create { kind, name, fields }] => Ok((
            *kind,
            name.clone(),
            Schema::new(
                fields
                    .iter()
                    .map(|(n, t)| Field::new(n.clone(), *t))
                    .collect(),
            ),
        )),
        _ => Err(ServerError::Protocol(
            "expected a single CREATE statement".into(),
        )),
    }
}

// ---- ingest plumbing --------------------------------------------------------

/// One sub-batch queued to a shard forwarder, with the trace context to
/// re-stamp onto its wire frame (every split part of a sampled batch
/// carries the same batch id) and the enqueue time, so the forwarder
/// records queue dwell as the batch's `forward` hop.
struct TracedRel {
    rel: Relation,
    trace: Option<frame::TraceHeader>,
    enqueued_micros: u64,
}

/// Sending half of one shard forwarder: a bounded queue (sends fail once
/// the forwarder thread is gone and its receiver dropped).
struct Forwarder {
    tx: Sender<TracedRel>,
    probe: Option<Arc<ForwardProbe>>,
}

/// Router-side telemetry for one shard forwarder queue: counts (and
/// records in the flight recorder) episodes where the splitter blocked
/// on a full queue — the slow-shard signal.
struct ForwardProbe {
    stream: String,
    shard: usize,
    saturations: Arc<AtomicU64>,
    recorder: Arc<dctrace::FlightRecorder>,
}

impl ForwardProbe {
    /// `None` when router telemetry is disabled.
    fn new(t: &dctrace::Telemetry, stream: &str, shard: usize) -> Option<Arc<ForwardProbe>> {
        let shard_label = shard.to_string();
        Some(Arc::new(ForwardProbe {
            stream: stream.to_string(),
            shard,
            saturations: t.counter(
                "dc_forward_saturation_total",
                &[("stream", stream), ("shard", &shard_label)],
            )?,
            recorder: t.recorder()?,
        }))
    }

    fn note_saturation(&self) {
        self.saturations.fetch_add(1, Ordering::Relaxed);
        self.recorder.record(
            "forward_saturation",
            None,
            format!("stream={} shard={}", self.stream, self.shard),
        );
    }

    /// Record the `forward` hop of a traced batch: the dwell between
    /// the splitter's enqueue and this forwarder writing the frame.
    fn note_forward(&self, batch: u64, dwell_micros: u64) {
        self.recorder.record(
            "span",
            None,
            format!(
                "batch={batch} hop=forward dur_micros={dwell_micros} stream={} shard={}",
                self.stream, self.shard
            ),
        );
    }
}

/// Forward sub-batches to one shard engine as binary frames; sampled
/// batches keep their trace header on the shard-bound frame, so the
/// shard's receptor continues the same span tree.
fn shard_forwarder(rx: Receiver<TracedRel>, sock: TcpStream, probe: Option<Arc<ForwardProbe>>) {
    let mut writer = std::io::BufWriter::new(sock);
    let mut buf: Vec<u8> = Vec::new();
    while let Ok(item) = rx.recv() {
        buf.clear();
        if frame::encode_frame_traced(&mut buf, &item.rel, item.trace.as_ref()).is_err() {
            break;
        }
        if let (Some(p), Some(t)) = (&probe, &item.trace) {
            p.note_forward(
                t.batch,
                dctrace::now_micros().saturating_sub(item.enqueued_micros),
            );
        }
        if writer.write_all(&buf).is_err() {
            break;
        }
        // flush on queue drain: latency when idle, batching under load
        if rx.is_empty() && writer.flush().is_err() {
            break;
        }
    }
    let _ = writer.flush();
}

/// Send one sub-batch to a shard forwarder, blocking while its queue is
/// full (backpressure reaches the client's socket through this thread).
/// Returns false when the forwarder is gone.
fn forward(f: &Forwarder, item: TracedRel) -> bool {
    match f.tx.try_send(item) {
        Ok(()) => true,
        Err(TrySendError::Full(item)) => {
            // one saturation event per full-queue episode
            if let Some(p) = &f.probe {
                p.note_saturation();
            }
            f.tx.send(item).is_ok()
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// Split one decoded batch and forward the non-empty parts. Returns
/// false when a shard forwarder is gone: the caller must then drop the
/// client connection, so the sender's next write fails — as it would
/// against a dead single engine — instead of tuples black-holing for one
/// shard while the socket looks healthy.
fn route_batch(
    port: &ClusterReceptorPort,
    entry: &StreamEntry,
    txs: &[Forwarder],
    rel: Relation,
    trace: Option<frame::TraceHeader>,
) -> bool {
    let total = rel.len() as u64;
    let mut sent = 0u64;
    let enqueued_micros = if trace.is_some() {
        dctrace::now_micros()
    } else {
        0
    };
    // a split failure is structural (schema/key drift), not a bad row:
    // per the contract above, drop the connection rather than silently
    // rejecting every batch from now on
    let parts = match &entry.partitioner {
        None => Ok(vec![rel]),
        Some(p) => p.split(&rel),
    };
    let mut alive = parts.is_ok();
    for (i, part) in parts.unwrap_or_default().into_iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        let n = part.len() as u64;
        // every non-empty part of a sampled batch carries the same batch
        // id: the shard-side spans of one logical batch regroup under one
        // tree
        let item = TracedRel {
            rel: part,
            trace,
            enqueued_micros,
        };
        if forward(&txs[i], item) {
            sent += n;
        } else {
            alive = false;
        }
    }
    port.accepted.fetch_add(sent, Ordering::AcqRel);
    port.rejected.fetch_add(total - sent, Ordering::AcqRel);
    alive
}

/// One client connection on a logical receptor port: decode batches in
/// the port's format, split by partition key, fan out to the shards.
fn ingest_connection(
    rt: &ClusterRuntime,
    port: &ClusterReceptorPort,
    entry: &StreamEntry,
    shard_addrs: &[std::net::SocketAddr],
    sock: TcpStream,
) {
    // single-shard binary ingest never needs the split: relay frames
    // verbatim (schema-free peel, no decode/re-encode on the hot path)
    if shard_addrs.len() == 1 && port.format == WireFormat::Binary {
        let Ok(shard_sock) = TcpStream::connect(shard_addrs[0]) else {
            return;
        };
        ingest_binary_passthrough(rt, port, sock, shard_sock);
        return;
    }
    let mut txs = Vec::with_capacity(shard_addrs.len());
    let mut forwarders = Vec::with_capacity(shard_addrs.len());
    for (shard, addr) in shard_addrs.iter().enumerate() {
        let Ok(shard_sock) = TcpStream::connect(addr) else {
            return; // shard unreachable: refuse the connection outright
        };
        let (tx, rx) = bounded::<TracedRel>(FORWARD_QUEUE_CAP);
        let probe = ForwardProbe::new(&rt.telemetry, &port.stream, shard);
        let probe2 = probe.clone();
        forwarders.push(
            std::thread::Builder::new()
                .name(format!("dcc-fwd-{}", port.stream))
                .spawn(move || shard_forwarder(rx, shard_sock, probe2))
                .expect("spawn shard forwarder"),
        );
        txs.push(Forwarder { tx, probe });
    }
    match port.format {
        WireFormat::Text => ingest_text(rt, port, entry, &txs, sock),
        WireFormat::Binary => ingest_binary(rt, port, entry, &txs, sock),
    }
    drop(txs); // disconnect the forwarders: they flush and exit
    for f in forwarders {
        let _ = f.join();
    }
}

/// Text ingest: batch wire lines as the engine's receptor does, then
/// split columnar.
fn ingest_text(
    rt: &ClusterRuntime,
    port: &ClusterReceptorPort,
    entry: &StreamEntry,
    txs: &[Forwarder],
    sock: TcpStream,
) {
    let flush = |rows: Vec<Vec<Value>>| {
        let mut batch = Relation::new(&entry.schema);
        for row in &rows {
            if batch.append_row(row).is_err() {
                port.rejected.fetch_add(1, Ordering::AcqRel);
            }
        }
        // text clients carry no trace headers: the router is the
        // sampling entry point for their batches
        let trace = rt.telemetry.maybe_sample().map(|b| frame::TraceHeader {
            batch: b,
            origin_micros: dctrace::now_micros(),
        });
        if let Some(t) = &trace {
            rt.telemetry.span(
                "receptor",
                t.batch,
                None,
                0,
                &format!("stream={} rows={}", port.stream, batch.len()),
            );
        }
        // false = shard gone: drop the client connection
        route_batch(port, entry, txs, batch, trace)
    };
    let (schema, stop) = (&entry.schema, || rt.is_stopping());
    read_text_batches(sock, schema, ROUTER_BATCH, &port.rejected, stop, flush);
}

/// Binary ingest: peel complete frames, split each columnar.
fn ingest_binary(
    rt: &ClusterRuntime,
    port: &ClusterReceptorPort,
    entry: &StreamEntry,
    txs: &[Forwarder],
    sock: TcpStream,
) {
    let consume = |pending: &[u8]| {
        let mut consumed = 0usize;
        loop {
            let decode_started = Instant::now();
            match frame::decode_frame_traced(&pending[consumed..], &entry.schema) {
                Ok(Some((rel, used, header))) => {
                    consumed += used;
                    // propagate the client's trace header, or stamp a
                    // fresh sample at the cluster's entry point
                    let trace = header.or_else(|| {
                        rt.telemetry.maybe_sample().map(|b| frame::TraceHeader {
                            batch: b,
                            origin_micros: dctrace::now_micros(),
                        })
                    });
                    if let Some(t) = &trace {
                        rt.telemetry.span(
                            "receptor",
                            t.batch,
                            None,
                            decode_started.elapsed().as_micros() as u64,
                            &format!("stream={} rows={}", port.stream, rel.len()),
                        );
                    }
                    if !route_batch(port, entry, txs, rel, trace) {
                        return None; // shard gone: drop the client connection
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

/// Single-shard binary ingest: peel complete frames off the client
/// socket with the schema-free [`frame::frame_meta`] and write them to
/// the one shard engine byte-for-byte — tuple counters without a decode.
fn ingest_binary_passthrough(
    rt: &ClusterRuntime,
    port: &ClusterReceptorPort,
    sock: TcpStream,
    shard_sock: TcpStream,
) {
    let mut writer = std::io::BufWriter::new(shard_sock);
    let consume = |pending: &[u8]| {
        let (mut consumed, mut rows) = (0usize, 0u64);
        let intact = loop {
            match frame::frame_meta(&pending[consumed..]) {
                Ok(Some((total, n))) => {
                    consumed += total;
                    rows += n;
                }
                Ok(None) => break true,
                Err(_) => {
                    // corrupt stream: count one reject, drop the peer
                    // after relaying the frames before it
                    port.rejected.fetch_add(1, Ordering::AcqRel);
                    break false;
                }
            }
        };
        if consumed > 0 {
            if writer
                .write_all(&pending[..consumed])
                .and_then(|()| writer.flush())
                .is_err()
            {
                return None; // shard gone: drop the client connection
            }
            port.accepted.fetch_add(rows, Ordering::AcqRel);
        }
        intact.then_some(consumed)
    };
    read_stream(sock, || rt.is_stopping(), consume);
    let _ = writer.flush();
}

// ---- result plumbing --------------------------------------------------------

/// Read one shard's result stream and publish complete frames (binary)
/// or complete lines (text) into the relay, byte-for-byte.
pub(crate) fn shard_tap(
    rt: &ClusterRuntime,
    relay: &Arc<FrameRelay>,
    mut sock: TcpStream,
    format: WireFormat,
) {
    let _ = sock.set_read_timeout(Some(POLL_INTERVAL));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match sock.read(&mut chunk) {
            Ok(0) => break, // natural end of the shard's result stream
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // in-process shards end with EOF after their graceful
                // drain; the drain flag (set after engine shutdown) only
                // unsticks taps on remote engines that never close
                if rt.drain_taps.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Err(_) => {
                // abnormal end: the merged stream is now missing this
                // shard — surfaced in STATS as lost_sources
                relay.mark_source_lost();
                break;
            }
        }
        // forward every complete, self-delimiting unit in one chunk
        let mut corrupt = false;
        let cut = match format {
            WireFormat::Binary => {
                let mut consumed = 0usize;
                loop {
                    match frame::frame_len(&buf[consumed..]) {
                        Ok(Some(total)) => consumed += total,
                        Ok(None) => break consumed,
                        Err(_) => {
                            // corrupt shard stream: relay the complete
                            // frames peeled before the corruption, then
                            // stop
                            corrupt = true;
                            break consumed;
                        }
                    }
                }
            }
            WireFormat::Text => buf
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1),
        };
        if cut > 0 {
            relay.publish(buf[..cut].to_vec());
            buf.drain(..cut);
        }
        if corrupt {
            relay.mark_source_lost();
            return;
        }
    }
}

/// Start a writer thread relaying `relay` into one subscriber socket,
/// tracked in `writers` for the shutdown join.
fn spawn_subscriber(
    query: &str,
    relay: &FrameRelay,
    writers: &Mutex<Vec<JoinHandle<()>>>,
    sock: TcpStream,
) {
    let rx = relay.subscribe();
    let writer = std::thread::Builder::new()
        .name(format!("dcc-sub-{query}"))
        .spawn(move || subscriber_writer(rx, sock))
        .expect("spawn subscriber writer");
    let mut writers = writers.lock();
    writers.retain(|w| !w.is_finished());
    writers.push(writer);
}

/// Write relayed chunks to one subscriber socket.
fn subscriber_writer(rx: Receiver<Arc<Vec<u8>>>, sock: TcpStream) {
    let mut writer = std::io::BufWriter::new(sock);
    while let Ok(chunk) = rx.recv() {
        if writer.write_all(&chunk).is_err() {
            break;
        }
        if rx.is_empty() && writer.flush().is_err() {
            break;
        }
    }
    let _ = writer.flush();
}
