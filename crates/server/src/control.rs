//! The control plane both daemons serve: one verb table, one dispatch.
//!
//! [`ControlPlane`] declares every control verb once, one method per
//! verb. `datacelld`'s [`ServerRuntime`] implements it on a single
//! engine; the `dccluster` router implements it as fan-out over its
//! shard engines plus a merge. `dispatch` parses a request line (see
//! [`crate::protocol`]), calls the verb and frames the reply, so each
//! reply key (`port=`, `detached=`, `sealed_rows=`, ...) is written in
//! one place for both daemons, and `STATS` is written only by
//! [`StatsReport::render`].
//!
//! [`ControlServer`] runs one thread per control connection. Its accept
//! loop blocks in `accept` and closes with the runtime's stop signal, so
//! `SHUTDOWN` (from any session) tears the whole daemon down gracefully.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use datacell::frame::WireFormat;

use crate::accept::{Acceptor, StopSignal};
use crate::error::{Result, ServerError};
use crate::protocol::{parse_command, Command, Response};
use crate::runtime::{ServerRuntime, POLL_INTERVAL};
use crate::session::SessionManager;
use crate::stats::StatsReport;

/// Upper bound on a control-plane response write — a client that stops
/// reading must not wedge its connection thread (and thereby shutdown).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The control verbs, one method per [`Command`]. A verb that one daemon
/// does not serve is a provided method answering with an error that
/// names the daemon that does.
pub trait ControlPlane: Send + Sync {
    /// The daemon-wide stop signal; every accept loop closes with it.
    fn stop_signal(&self) -> &StopSignal;
    /// Control-connection bookkeeping (the `session` rows of `STATS`).
    fn sessions(&self) -> &SessionManager;
    /// `SHUTDOWN`: trip the stop signal (idempotent). The teardown runs
    /// in [`ControlPlane::shutdown`] once the serve loop has returned.
    fn request_shutdown(&self);
    /// Graceful teardown of every supervised thread.
    fn shutdown(&self);

    fn is_stopping(&self) -> bool {
        self.stop_signal().is_stopped()
    }

    /// Run `tick` on a named thread every `interval` until the stop
    /// signal trips: the daemons' timers (metrics snapshotter,
    /// replication pump).
    fn spawn_timer(
        self: &Arc<Self>,
        name: &str,
        interval: Duration,
        tick: fn(&Arc<Self>),
    ) -> JoinHandle<()>
    where
        Self: 'static,
    {
        let rt = Arc::clone(self);
        std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while !rt.stop_signal().wait_timeout(interval) {
                    tick(&rt);
                }
            })
            .expect("spawn timer thread")
    }

    /// Refuse new work once a shutdown was requested.
    fn ensure_running(&self) -> Result<()> {
        if self.is_stopping() {
            Err(ServerError::ShuttingDown)
        } else {
            Ok(())
        }
    }

    /// `CREATE STREAM/TABLE/BASKET ...`; an engine executes it like
    /// `EXEC`.
    fn ddl(&self, sql: &str) -> Result<Vec<String>> {
        self.exec(sql)
    }
    /// `CREATE STREAM ... PERSIST`; `ddl` has the clause stripped.
    fn create_persistent(&self, ddl: &str, stream: &str) -> Result<Vec<String>>;
    /// `CREATE STREAM ... [PERSIST] SHARD BY (key) [SHARDS n]`.
    fn create_sharded(
        &self,
        _ddl: &str,
        stream: &str,
        _key: &str,
        _shards: Option<usize>,
        _persist: bool,
    ) -> Result<Vec<String>> {
        Err(ServerError::Unsupported(format!(
            "stream {stream}: SHARD BY needs a dccluster shard router \
             (this is a single datacelld engine)"
        )))
    }
    /// `FLUSH STREAM <name>`: rows sealed into segments.
    fn flush_stream(&self, stream: &str) -> Result<u64>;
    /// `EXEC <sql>`: result rows of a trailing SELECT, after a `#` header.
    fn exec(&self, sql: &str) -> Result<Vec<String>>;
    /// `REGISTER QUERY <name> AS <sql>`.
    fn register_query(&self, name: &str, sql: &str) -> Result<Vec<String>>;
    /// `ATTACH RECEPTOR`: the bound port (0 asks for an ephemeral one).
    fn attach_receptor(
        self: &Arc<Self>,
        stream: &str,
        port: u16,
        format: WireFormat,
    ) -> Result<u16>;
    /// `ATTACH EMITTER`: the bound port.
    fn attach_emitter(self: &Arc<Self>, query: &str, port: u16, format: WireFormat) -> Result<u16>;
    /// `DETACH RECEPTOR`: how many ports were closed.
    fn detach_receptor(&self, stream: &str, port: u16) -> Result<usize>;
    /// `DETACH EMITTER`: how many ports were closed.
    fn detach_emitter(&self, query: &str, port: u16) -> Result<usize>;
    /// `EXPLAIN <sql>`: the compiled physical plan.
    fn explain_sql(&self, sql: &str) -> Result<Vec<String>>;
    /// `EXPLAIN QUERY <name>`: a registered query's plan and delta state.
    fn explain_query(&self, name: &str) -> Result<Vec<String>>;
    /// `STATS`, typed; the dispatch renders it.
    fn stats(&self) -> StatsReport;
    /// `METRICS`: Prometheus text exposition (empty with telemetry off).
    fn metrics(&self) -> Vec<String>;
    /// `METRICS HISTORY [<series>] [LAST <n>]`.
    fn metrics_history(&self, series: Option<&str>, last: Option<usize>) -> Result<Vec<String>>;
    /// `HEALTH`.
    fn health(self: &Arc<Self>) -> Result<Vec<String>>;
    /// `TRACE DUMP [QUERY <name>]`.
    fn trace_dump(&self, query: Option<&str>) -> Result<Vec<String>>;
    /// `TRACE SPANS [BATCH <id>]`.
    fn trace_spans(&self, batch: Option<u64>) -> Result<Vec<String>>;
    /// `TRACE QUERY <q> ON`: the port of a live trace stream.
    fn trace_on(self: &Arc<Self>, query: &str) -> Result<u16>;
    /// `TRACE QUERY <q> OFF`: how many subscriber streams were ended.
    fn trace_off(&self, query: &str) -> Result<usize>;
    /// `REPL STATUS <stream>`.
    fn repl_status(&self, stream: &str) -> Result<Vec<String>>;

    /// `REPL OPEN <stream> AS <ddl>` (a follower engine).
    fn repl_open(&self, _stream: &str, _ddl: &str) -> Result<()> {
        Err(repl_transfer_on_router())
    }
    /// `REPL EXPORT` (a primary engine).
    fn repl_export(
        &self,
        _stream: &str,
        _segs: usize,
        _epoch: u64,
        _offset: u64,
    ) -> Result<Vec<String>> {
        Err(repl_transfer_on_router())
    }
    /// `REPL SEGMENT` (a follower engine).
    fn repl_segment(&self, _stream: &str, _file: &str, _rows: u64, _hex: &str) -> Result<()> {
        Err(repl_transfer_on_router())
    }
    /// `REPL WAL` (a follower engine).
    fn repl_wal(&self, _stream: &str, _epoch: u64, _from: u64, _hex: &str) -> Result<()> {
        Err(repl_transfer_on_router())
    }
    /// `REPL PROMOTE` (a follower engine).
    fn repl_promote(&self) -> Result<Vec<String>> {
        Err(repl_transfer_on_router())
    }
}

fn repl_transfer_on_router() -> ServerError {
    ServerError::Unsupported(
        "REPL transfer verbs are shard-engine commands — the router \
         replicates automatically (see REPL STATUS <stream>)"
            .into(),
    )
}

/// The control-plane server of either daemon.
pub struct ControlServer<R: ControlPlane = ServerRuntime> {
    listener: TcpListener,
    acceptor: Arc<Acceptor>,
    runtime: Arc<R>,
}

impl<R: ControlPlane> ControlServer<R> {
    /// Bind the control listener (e.g. `127.0.0.1:7077`, port 0 for
    /// ephemeral).
    pub fn bind(addr: &str, runtime: Arc<R>) -> Result<ControlServer<R>> {
        let listener = TcpListener::bind(addr)?;
        let acceptor = runtime.stop_signal().acceptor(&listener)?;
        Ok(ControlServer {
            listener,
            acceptor,
            runtime,
        })
    }

    /// The bound control-plane address (useful with ephemeral ports).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    pub fn runtime(&self) -> &Arc<R> {
        &self.runtime
    }

    /// Serve until a `SHUTDOWN` command arrives (or the stop signal is
    /// tripped elsewhere), then tear the runtime down. Blocks the caller.
    /// Connection threads are scoped, so teardown starts only after every
    /// connection wound down (each notices the stop between reads).
    pub fn serve(self) -> Result<()> {
        let ControlServer {
            listener,
            acceptor,
            runtime,
        } = self;
        let rt = &runtime;
        std::thread::scope(|scope| {
            acceptor.run(listener, |sock, peer| {
                let peer = peer.to_string();
                std::thread::Builder::new()
                    .name("dc-control-conn".into())
                    .spawn_scoped(scope, move || control_connection(rt, sock, peer))
                    .expect("spawn control connection thread");
            });
        });
        runtime.shutdown();
        Ok(())
    }
}

/// Serve one control connection until QUIT/SHUTDOWN/EOF/stop.
fn control_connection<R: ControlPlane>(rt: &Arc<R>, sock: TcpStream, peer: String) {
    let sessions = rt.sessions();
    let session = sessions.open(&peer);
    let _ = sock.set_read_timeout(Some(POLL_INTERVAL));
    let _ = sock.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(write_half) = sock.try_clone() else {
        sessions.close(session);
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(sock);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break, // client hung up
            Ok(_) => {
                let request = line.trim().to_string();
                line.clear();
                if request.is_empty() {
                    continue;
                }
                sessions.note_command(session);
                let (response, end) = dispatch(rt, &request);
                if response.write_to(&mut writer).is_err() {
                    break;
                }
                let _ = writer.flush();
                // `end` covers QUIT/SHUTDOWN from this session; the stop
                // check covers a shutdown requested elsewhere while this
                // client pipelines commands back-to-back (it would never
                // take the idle branch below)
                if end || rt.is_stopping() {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if rt.is_stopping() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    sessions.close(session);
}

/// Execute one request line; the bool says "close this connection
/// afterwards".
fn dispatch<R: ControlPlane>(rt: &Arc<R>, request: &str) -> (Response, bool) {
    let cmd = match parse_command(request) {
        Ok(c) => c,
        Err(e) => return (Response::Err(e), false),
    };
    let end = matches!(cmd, Command::Quit | Command::Shutdown);
    let one = |line: String| vec![line];
    let body = match cmd {
        Command::Ping => Ok(one("pong".into())),
        Command::Ddl(sql) => rt.ddl(&sql),
        Command::DdlPersist { ddl, stream } => rt.create_persistent(&ddl, &stream),
        Command::DdlSharded {
            ddl,
            stream,
            key,
            shards,
            persist,
        } => rt.create_sharded(&ddl, &stream, &key, shards, persist),
        Command::FlushStream { stream } => rt
            .flush_stream(&stream)
            .map(|n| one(format!("sealed_rows={n}"))),
        Command::Exec(sql) => rt.exec(&sql),
        Command::RegisterQuery { name, sql } => rt.register_query(&name, &sql),
        Command::AttachReceptor {
            stream,
            port,
            format,
        } => rt
            .attach_receptor(&stream, port, format)
            .map(|p| one(format!("port={p}"))),
        Command::AttachEmitter {
            query,
            port,
            format,
        } => rt
            .attach_emitter(&query, port, format)
            .map(|p| one(format!("port={p}"))),
        Command::DetachReceptor { stream, port } => rt
            .detach_receptor(&stream, port)
            .map(|n| one(format!("detached={n}"))),
        Command::DetachEmitter { query, port } => rt
            .detach_emitter(&query, port)
            .map(|n| one(format!("detached={n}"))),
        Command::Explain(sql) => rt.explain_sql(&sql),
        Command::ExplainQuery { name } => rt.explain_query(&name),
        Command::Stats => Ok(rt.stats().render()),
        Command::Metrics => Ok(rt.metrics()),
        Command::MetricsHistory { series, last } => rt.metrics_history(series.as_deref(), last),
        Command::Health => rt.health(),
        Command::TraceDump { query } => rt.trace_dump(query.as_deref()),
        Command::TraceSpans { batch } => rt.trace_spans(batch),
        Command::TraceStream { query, on: true } => {
            rt.trace_on(&query).map(|p| one(format!("port={p}")))
        }
        Command::TraceStream { query, on: false } => rt
            .trace_off(&query)
            .map(|n| one(format!("closed_taps={n}"))),
        Command::ReplOpen { stream, ddl } => rt
            .repl_open(&stream, &ddl)
            .map(|()| one(format!("stream={stream} replica=true"))),
        Command::ReplStatus { stream } => rt.repl_status(&stream),
        Command::ReplExport {
            stream,
            segs,
            epoch,
            offset,
        } => rt.repl_export(&stream, segs, epoch, offset),
        Command::ReplSegment {
            stream,
            file,
            rows,
            hex,
        } => rt
            .repl_segment(&stream, &file, rows, &hex)
            .map(|()| one(format!("segment={file} applied=true"))),
        Command::ReplWal {
            stream,
            epoch,
            from,
            hex,
        } => rt
            .repl_wal(&stream, epoch, from, &hex)
            .map(|()| one(format!("stream={stream} wal_applied=true"))),
        Command::ReplPromote => rt.repl_promote(),
        Command::Quit => Ok(Vec::new()),
        Command::Shutdown => {
            rt.request_shutdown();
            Ok(Vec::new())
        }
    };
    let response = match body {
        Ok(body) => Response::Ok(body),
        Err(e) => Response::Err(e.to_string()),
    };
    (response, end)
}
