//! `dcclient` — the client library for `datacelld`.
//!
//! Three connection kinds mirror the server's port layout:
//!
//! * [`Client`] speaks the control-plane protocol (DDL, query
//!   registration, port attachment, stats, shutdown);
//! * [`ReceptorSink`] writes tuple batches into a receptor port;
//! * [`EmitterTap`] reads result batches from an emitter port.
//!
//! The data plane is **batch-first**: [`ReceptorSink::send_batch`] and
//! [`EmitterTap::next_batch`] move whole [`Relation`]s, in either the
//! §3.1 text protocol or the columnar binary frame format
//! ([`datacell::frame`]); the per-row methods are thin convenience
//! wrappers that buffer into batches. Text is the default everywhere, so
//! pre-existing sessions run unmodified.
//!
//! ```no_run
//! use dcserver::client::Client;
//! use monet::prelude::*;
//!
//! let mut c = Client::connect("127.0.0.1:7077").unwrap();
//! c.create_stream("S", "(id int, v int)").unwrap();
//! c.register_query("hot", "select id from [select * from S where S.v > 10] as W")
//!     .unwrap();
//! let rport = c.attach_receptor("S", 0).unwrap();
//! let eport = c.attach_emitter("hot", 0).unwrap();
//! let mut sink = c.open_receptor(rport).unwrap();
//! let mut tap = c.open_emitter(eport).unwrap();
//! sink.send_row(&[Value::Int(1), Value::Int(99)]).unwrap();
//! sink.flush().unwrap();
//! let row = tap
//!     .next_row(&Schema::from_pairs(&[("id", ValueType::Int)]))
//!     .unwrap();
//! assert_eq!(row, Some(vec![Value::Int(1)]));
//! ```
//!
//! The binary fast path negotiates the format at `ATTACH` time and moves
//! columnar batches end-to-end:
//!
//! ```no_run
//! use dcserver::client::Client;
//! use datacell::frame::WireFormat;
//! use monet::prelude::*;
//!
//! let mut c = Client::connect("127.0.0.1:7077").unwrap();
//! c.create_stream("S", "(id int, v int)").unwrap();
//! c.register_query("all", "select id, v from [select * from S] as Z").unwrap();
//! let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
//! let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
//! let eport = c.attach_emitter_fmt("all", 0, WireFormat::Binary).unwrap();
//! let mut sink = c.open_receptor_with(rport, WireFormat::Binary, &schema).unwrap();
//! let mut tap = c.open_emitter_with(eport, WireFormat::Binary).unwrap();
//! let batch = Relation::from_columns(vec![
//!     ("id".into(), Column::from_ints(vec![1, 2])),
//!     ("v".into(), Column::from_ints(vec![10, 20])),
//! ]).unwrap();
//! sink.send_batch(&batch).unwrap();
//! sink.flush().unwrap();
//! let result = tap.next_batch(&schema).unwrap().unwrap();
//! assert_eq!(result.len(), 2);
//! ```

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use datacell::frame::{self, WireFormat};
use datacell::net::{encode_batch_text, parse_row};
use monet::prelude::*;

use crate::accept;
use crate::error::{Result, ServerError};
use crate::protocol::Response;
use crate::stats::StatsReport;

/// Upper bound on establishing any client connection (control, receptor
/// or emitter port). Every socket is opened with `TCP_NODELAY`
/// ([`accept::connect`]).
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Rows a [`ReceptorSink`] buffers before `send_row` auto-flushes them
/// as one batch.
const SINK_BATCH: usize = 4096;

/// A control-plane connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    server: SocketAddr,
}

impl Client {
    /// Connect to a `datacelld` control port within [`CONNECT_TIMEOUT`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::open(accept::connect(addr, CONNECT_TIMEOUT)?)
    }

    /// Connect with an explicit connect timeout. The cluster router uses
    /// this on its engine control sessions so a dead or unresponsive
    /// host fails the connect within its control policy.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Client> {
        Client::open(accept::connect(addr, timeout)?)
    }

    fn open(stream: TcpStream) -> Result<Client> {
        let server = stream.peer_addr()?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            server,
        })
    }

    /// Bound how long control-plane reads and writes may block. The
    /// cluster router sets this on its per-shard control sessions so one
    /// hung engine fails requests instead of wedging the whole control
    /// plane. After a timeout fires mid-response the connection may be
    /// desynced — treat the peer as broken.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.reader.get_ref().set_write_timeout(timeout)?;
        Ok(())
    }

    /// Send one raw command line; return the response body on success.
    pub fn request(&mut self, line: &str) -> Result<Vec<String>> {
        if line.contains(['\n', '\r']) {
            // the control protocol is line-oriented: a newline here would
            // be parsed as a second command, desyncing every later
            // request/response pair (or injecting commands like SHUTDOWN)
            return Err(ServerError::Protocol(
                "control commands must be a single line (flatten SQL before sending)".into(),
            ));
        }
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        match Response::read_from(&mut self.reader)? {
            Response::Ok(body) => Ok(body),
            Response::Err(msg) => Err(ServerError::Protocol(msg)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        self.request("PING").map(|_| ())
    }

    /// `CREATE STREAM name (col type, ...)`.
    pub fn create_stream(&mut self, name: &str, columns: &str) -> Result<()> {
        self.request(&format!("CREATE STREAM {name} {columns}"))
            .map(|_| ())
    }

    /// `CREATE STREAM name (cols) SHARD BY (key) [SHARDS n]` — declare a
    /// hash-partitioned stream on a `dccluster` shard router (a single
    /// engine rejects it). `shards = None` lets the router place one
    /// shard per engine.
    pub fn create_sharded_stream(
        &mut self,
        name: &str,
        columns: &str,
        key: &str,
        shards: Option<usize>,
    ) -> Result<()> {
        let clause = shards.map_or_else(String::new, |n| format!(" SHARDS {n}"));
        self.request(&format!("CREATE STREAM {name} {columns} SHARD BY ({key}){clause}"))
            .map(|_| ())
    }

    /// `CREATE TABLE name (col type, ...)`.
    pub fn create_table(&mut self, name: &str, columns: &str) -> Result<()> {
        self.request(&format!("CREATE TABLE {name} {columns}"))
            .map(|_| ())
    }

    /// `CREATE STREAM name (col type, ...) PERSIST` — a durable stream:
    /// acknowledged appends survive a server crash. Requires a daemon
    /// running with `--data-dir`.
    pub fn create_persistent_stream(&mut self, name: &str, columns: &str) -> Result<()> {
        self.request(&format!("CREATE STREAM {name} {columns} PERSIST"))
            .map(|_| ())
    }

    /// `FLUSH STREAM name` — seal the durable stream's hot rows into a
    /// segment now. Returns the number of rows sealed.
    pub fn flush_stream(&mut self, name: &str) -> Result<u64> {
        let body = self.request(&format!("FLUSH STREAM {name}"))?;
        body.first()
            .and_then(|l| l.strip_prefix("sealed_rows="))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ServerError::Protocol(format!("malformed FLUSH response {body:?}")))
    }

    /// `DETACH RECEPTOR <stream> PORT <p>` — close a receptor port
    /// previously opened with [`Client::attach_receptor`].
    pub fn detach_receptor(&mut self, stream: &str, port: u16) -> Result<()> {
        self.request(&format!("DETACH RECEPTOR {stream} PORT {port}"))
            .map(|_| ())
    }

    /// `DETACH EMITTER <query> PORT <p>` — close an emitter port
    /// previously opened with [`Client::attach_emitter`].
    pub fn detach_emitter(&mut self, query: &str, port: u16) -> Result<()> {
        self.request(&format!("DETACH EMITTER {query} PORT {port}"))
            .map(|_| ())
    }

    /// One-shot SQL; returns result lines (`# col|col` header then wire
    /// rows) when the script ends in a SELECT.
    pub fn exec(&mut self, sql: &str) -> Result<Vec<String>> {
        self.request(&format!("EXEC {sql}"))
    }

    /// Register a continuous query.
    pub fn register_query(&mut self, name: &str, sql: &str) -> Result<()> {
        self.request(&format!("REGISTER QUERY {name} AS {sql}"))
            .map(|_| ())
    }

    /// Open a text receptor port for `stream` (0 = ephemeral); returns
    /// the bound port.
    pub fn attach_receptor(&mut self, stream: &str, port: u16) -> Result<u16> {
        self.attach_receptor_fmt(stream, port, WireFormat::Text)
    }

    /// Open a receptor port with an explicit wire format.
    pub fn attach_receptor_fmt(
        &mut self,
        stream: &str,
        port: u16,
        format: WireFormat,
    ) -> Result<u16> {
        let body = self.request(&format!(
            "ATTACH RECEPTOR {stream} ON PORT {port}{}",
            format_clause(format)
        ))?;
        parse_port(&body)
    }

    /// Open a text emitter port for `query` (0 = ephemeral); returns the
    /// bound port.
    pub fn attach_emitter(&mut self, query: &str, port: u16) -> Result<u16> {
        self.attach_emitter_fmt(query, port, WireFormat::Text)
    }

    /// Open an emitter port with an explicit wire format.
    pub fn attach_emitter_fmt(
        &mut self,
        query: &str,
        port: u16,
        format: WireFormat,
    ) -> Result<u16> {
        let body = self.request(&format!(
            "ATTACH EMITTER {query} ON PORT {port}{}",
            format_clause(format)
        ))?;
        parse_port(&body)
    }

    /// The server's `STATS` report, raw lines.
    pub fn stats(&mut self) -> Result<Vec<String>> {
        self.request("STATS")
    }

    /// `EXPLAIN <sql>`: the compiled physical plan of a script (pruned
    /// column sets per scan, predicate order, materialization
    /// boundaries), one line per plan row.
    pub fn explain(&mut self, sql: &str) -> Result<Vec<String>> {
        self.request(&format!("EXPLAIN {sql}"))
    }

    /// `EXPLAIN QUERY <name>`: the plan of a registered continuous query.
    pub fn explain_query(&mut self, name: &str) -> Result<Vec<String>> {
        self.request(&format!("EXPLAIN QUERY {name}"))
    }

    /// The server's `STATS` report, parsed into typed rows — the form
    /// machine consumers (the cluster router's placement, tests) want.
    pub fn stats_report(&mut self) -> Result<StatsReport> {
        StatsReport::parse(&self.stats()?)
    }

    /// The server's `METRICS` report: Prometheus text exposition lines
    /// (parse them with [`dctrace::parse_exposition`]).
    pub fn metrics(&mut self) -> Result<Vec<String>> {
        self.request("METRICS")
    }

    /// `METRICS HISTORY [<series>] [LAST <n>]`: snapshots from the
    /// server's metrics-history ring, oldest first, optionally filtered
    /// to one series and/or the last `n` snapshots.
    pub fn metrics_history(
        &mut self,
        series: Option<&str>,
        last: Option<usize>,
    ) -> Result<Vec<String>> {
        let mut line = "METRICS HISTORY".to_string();
        if let Some(s) = series {
            line.push(' ');
            line.push_str(s);
        }
        if let Some(n) = last {
            line.push_str(&format!(" LAST {n}"));
        }
        self.request(&line)
    }

    /// `HEALTH`: the node's windowed health score, degraded reasons and
    /// raw signals (parse the head with [`dctrace::HealthReport::parse_head`]).
    pub fn health(&mut self) -> Result<Vec<String>> {
        self.request("HEALTH")
    }

    /// `TRACE SPANS [BATCH <id>]`: per-batch span trees reconstructed
    /// from the flight recorder.
    pub fn trace_spans(&mut self, batch: Option<u64>) -> Result<Vec<String>> {
        match batch {
            Some(id) => self.request(&format!("TRACE SPANS BATCH {id}")),
            None => self.request("TRACE SPANS"),
        }
    }

    /// `TRACE DUMP`: every flight-recorder event, oldest first.
    pub fn trace_dump(&mut self) -> Result<Vec<String>> {
        self.request("TRACE DUMP")
    }

    /// `TRACE DUMP QUERY <name>`: one query's flight-recorder events.
    pub fn trace_dump_query(&mut self, query: &str) -> Result<Vec<String>> {
        self.request(&format!("TRACE DUMP QUERY {query}"))
    }

    /// `TRACE QUERY <name> ON`: open a live trace-stream port; read it
    /// with [`Client::open_trace`]. Returns the bound port.
    pub fn trace_on(&mut self, query: &str) -> Result<u16> {
        let body = self.request(&format!("TRACE QUERY {query} ON"))?;
        parse_port(&body)
    }

    /// `TRACE QUERY <name> OFF`: close the query's live trace taps.
    pub fn trace_off(&mut self, query: &str) -> Result<()> {
        self.request(&format!("TRACE QUERY {query} OFF")).map(|_| ())
    }

    /// Open a data-plane connection to a trace-stream port (text, one
    /// rendered flight-recorder event per line).
    pub fn open_trace(&self, port: u16) -> Result<EmitterTap> {
        EmitterTap::connect((self.server.ip(), port))
    }

    // ---- replication (REPL verbs; the cluster router's channel) ---------

    /// `REPL OPEN <stream> AS <ddl>` — open a stream in replica mode on
    /// a follower engine.
    pub fn repl_open(&mut self, stream: &str, ddl: &str) -> Result<()> {
        self.request(&format!("REPL OPEN {stream} AS {ddl}")).map(|_| ())
    }

    /// `REPL STATUS <stream>` — the follower's durable catch-up cursor.
    pub fn repl_status(&mut self, stream: &str) -> Result<ReplStatus> {
        let body = self.request(&format!("REPL STATUS {stream}"))?;
        let line = body.first().map(String::as_str).unwrap_or("");
        let bad = || ServerError::Protocol(format!("malformed REPL STATUS response {body:?}"));
        Ok(ReplStatus {
            epoch: kv_num(line, "epoch").ok_or_else(bad)?,
            wal_bytes: kv_num(line, "wal_bytes").ok_or_else(bad)?,
            segments: kv_num(line, "segments").ok_or_else(bad)? as usize,
        })
    }

    /// `REPL EXPORT` — ask a primary for everything past the follower's
    /// `(segs, epoch, offset)` cursor.
    pub fn repl_export(
        &mut self,
        stream: &str,
        segs: usize,
        epoch: u64,
        offset: u64,
    ) -> Result<ReplExport> {
        let body = self.request(&format!(
            "REPL EXPORT {stream} SEGS {segs} EPOCH {epoch} OFFSET {offset}"
        ))?;
        let bad = |what: &str| ServerError::Protocol(format!("malformed REPL EXPORT {what}"));
        let head = body.first().map(String::as_str).unwrap_or("");
        let mut export = ReplExport {
            epoch: kv_num(head, "epoch").ok_or_else(|| bad("head"))?,
            wal_bytes: kv_num(head, "wal_bytes").ok_or_else(|| bad("head"))?,
            pending_rows: kv_num(head, "pending_rows").ok_or_else(|| bad("head"))?,
            segments: Vec::new(),
            wal_from: 0,
            wal_data: Vec::new(),
        };
        for line in &body[1..] {
            if let Some(rest) = line.strip_prefix("segment ") {
                let file = kv(rest, "file").ok_or_else(|| bad("segment line"))?;
                let rows = kv_num(rest, "rows").ok_or_else(|| bad("segment line"))?;
                let hex = kv(rest, "hex").ok_or_else(|| bad("segment line"))?;
                export
                    .segments
                    .push((file.to_string(), rows, dcstore::hex_decode(hex)?));
            } else if let Some(rest) = line.strip_prefix("wal ") {
                export.wal_from = kv_num(rest, "from").ok_or_else(|| bad("wal line"))?;
                export.wal_data = dcstore::hex_decode(kv(rest, "hex").unwrap_or(""))?;
            }
        }
        Ok(export)
    }

    /// `REPL SEGMENT` — land one shipped segment on a follower.
    pub fn repl_segment(&mut self, stream: &str, file: &str, rows: u64, data: &[u8]) -> Result<()> {
        self.request(&format!(
            "REPL SEGMENT {stream} {file} {rows} {}",
            dcstore::hex_encode(data)
        ))
        .map(|_| ())
    }

    /// `REPL WAL` — append one shipped WAL chunk on a follower.
    pub fn repl_wal(&mut self, stream: &str, epoch: u64, from: u64, data: &[u8]) -> Result<()> {
        self.request(&format!(
            "REPL WAL {stream} EPOCH {epoch} FROM {from} {}",
            dcstore::hex_encode(data)
        ))
        .map(|_| ())
    }

    /// `REPL PROMOTE` — make the follower replay its replica streams
    /// into live baskets and become a primary. Returns the replay
    /// report line(s).
    pub fn repl_promote(&mut self) -> Result<Vec<String>> {
        self.request("REPL PROMOTE")
    }

    /// Gracefully stop the server.
    pub fn shutdown(&mut self) -> Result<()> {
        self.request("SHUTDOWN").map(|_| ())
    }

    /// Open a text data-plane connection to a receptor port on this
    /// server's host.
    pub fn open_receptor(&self, port: u16) -> Result<ReceptorSink> {
        ReceptorSink::connect((self.server.ip(), port))
    }

    /// Open a data-plane connection to a receptor port with an explicit
    /// format. The schema (user columns, wire order) lets the sink
    /// buffer rows into columnar batches.
    pub fn open_receptor_with(
        &self,
        port: u16,
        format: WireFormat,
        schema: &Schema,
    ) -> Result<ReceptorSink> {
        ReceptorSink::connect_with((self.server.ip(), port), format, schema)
    }

    /// Open a text data-plane connection to an emitter port on this
    /// server's host.
    pub fn open_emitter(&self, port: u16) -> Result<EmitterTap> {
        EmitterTap::connect((self.server.ip(), port))
    }

    /// Open a data-plane connection to an emitter port with an explicit
    /// format.
    pub fn open_emitter_with(&self, port: u16, format: WireFormat) -> Result<EmitterTap> {
        EmitterTap::connect_with((self.server.ip(), port), format)
    }
}

/// TEXT is the wire default, so it is requested by *omitting* the
/// clause — keeping text-only sessions compatible with daemons that
/// predate the FORMAT grammar.
fn format_clause(format: WireFormat) -> String {
    match format {
        WireFormat::Text => String::new(),
        other => format!(" FORMAT {other}"),
    }
}

fn parse_port(body: &[String]) -> Result<u16> {
    body.first()
        .and_then(|l| l.strip_prefix("port="))
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| ServerError::Protocol(format!("malformed port response {body:?}")))
}

/// A follower's durable catch-up cursor, from `REPL STATUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplStatus {
    pub epoch: u64,
    pub wal_bytes: u64,
    pub segments: usize,
}

/// One `REPL EXPORT` response: sealed segments past the follower's
/// cursor plus a bounded WAL tail chunk. `pending_rows` counts rows in
/// WAL records beyond this chunk (replication lag still to ship).
#[derive(Debug, Clone, Default)]
pub struct ReplExport {
    pub epoch: u64,
    pub wal_bytes: u64,
    pub pending_rows: u64,
    /// `(file, rows, bytes)` per shipped segment.
    pub segments: Vec<(String, u64, Vec<u8>)>,
    pub wal_from: u64,
    pub wal_data: Vec<u8>,
}

/// Find `key=value` in a space-separated response line.
fn kv<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

fn kv_num(line: &str, key: &str) -> Option<u64> {
    kv(line, key).and_then(|v| v.parse().ok())
}

/// Data-plane writer: pushes tuple batches into a receptor port.
pub struct ReceptorSink {
    writer: BufWriter<TcpStream>,
    format: WireFormat,
    /// Row buffer for the convenience `send_row` path; present when the
    /// sink was opened with a schema.
    pending: Option<Relation>,
    /// Reused per-frame scratch buffers.
    text_buf: String,
    bin_buf: Vec<u8>,
}

impl ReceptorSink {
    /// Connect in text mode without a schema. `send_batch` works;
    /// `send_row` writes wire lines directly (the pre-batch behavior).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ReceptorSink> {
        Ok(ReceptorSink {
            writer: BufWriter::new(accept::connect(addr, CONNECT_TIMEOUT)?),
            format: WireFormat::Text,
            pending: None,
            text_buf: String::new(),
            bin_buf: Vec::new(),
        })
    }

    /// Connect with an explicit wire format. The schema (user columns,
    /// wire order) backs the row-buffering convenience methods.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        format: WireFormat,
        schema: &Schema,
    ) -> Result<ReceptorSink> {
        Ok(ReceptorSink {
            writer: BufWriter::new(accept::connect(addr, CONNECT_TIMEOUT)?),
            format,
            pending: Some(Relation::new(schema)),
            text_buf: String::new(),
            bin_buf: Vec::new(),
        })
    }

    /// The sink's wire format.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Send one columnar batch as a single frame. Any rows buffered by
    /// `send_row` are flushed first to preserve order.
    pub fn send_batch(&mut self, batch: &Relation) -> Result<usize> {
        self.flush_pending()?;
        self.write_frame_of(batch)?;
        Ok(batch.len())
    }

    fn write_frame_of(&mut self, batch: &Relation) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        match self.format {
            WireFormat::Text => {
                self.text_buf.clear();
                encode_batch_text(&mut self.text_buf, batch);
                self.writer.write_all(self.text_buf.as_bytes())?;
            }
            WireFormat::Binary => {
                self.bin_buf.clear();
                frame::encode_frame(&mut self.bin_buf, batch)
                    .map_err(|e| ServerError::Protocol(e.to_string()))?;
                self.writer.write_all(&self.bin_buf)?;
            }
        }
        Ok(())
    }

    /// Queue one tuple (schema order, user columns only). With a schema
    /// the row lands in a columnar buffer that auto-flushes as one frame
    /// every [`SINK_BATCH`] rows; without one (text mode) it is written
    /// as a wire line immediately.
    pub fn send_row(&mut self, row: &[Value]) -> Result<()> {
        match &mut self.pending {
            Some(rel) => {
                rel.append_row(row)
                    .map_err(|e| ServerError::Protocol(format!("row rejected: {e}")))?;
                if rel.len() >= SINK_BATCH {
                    self.flush_pending()?;
                }
            }
            None => {
                self.text_buf.clear();
                datacell::net::format_row_into(&mut self.text_buf, row);
                self.text_buf.push('\n');
                self.writer.write_all(self.text_buf.as_bytes())?;
            }
        }
        Ok(())
    }

    fn flush_pending(&mut self) -> Result<()> {
        let Some(rel) = &mut self.pending else {
            return Ok(());
        };
        if rel.is_empty() {
            return Ok(());
        }
        let batch = std::mem::replace(rel, Relation::new(&rel.schema()));
        self.write_frame_of(&batch)
    }

    /// Push buffered tuples to the server.
    pub fn flush(&mut self) -> Result<()> {
        self.flush_pending()?;
        self.writer.flush()?;
        Ok(())
    }
}

/// Data-plane reader: consumes result batches from an emitter port.
///
/// Reads are timeout-safe in both formats: when a read timeout fires
/// mid-frame (binary) or mid-line (text), the partial input stays
/// buffered and the next call resumes where it left off.
pub struct EmitterTap {
    reader: BufReader<TcpStream>,
    format: WireFormat,
    /// Rows decoded but not yet handed out by `next_row`.
    pending: std::collections::VecDeque<Vec<Value>>,
    /// Bytes received but not yet forming a complete frame (binary) or
    /// a complete newline-terminated line (text). Kept as raw bytes so
    /// a timeout can never land "inside" a multi-byte UTF-8 character
    /// from the decoder's point of view.
    wire_buf: Vec<u8>,
}

impl EmitterTap {
    /// Connect in text mode.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<EmitterTap> {
        EmitterTap::connect_with(addr, WireFormat::Text)
    }

    /// Connect with an explicit wire format.
    pub fn connect_with(addr: impl ToSocketAddrs, format: WireFormat) -> Result<EmitterTap> {
        Ok(EmitterTap {
            reader: BufReader::new(accept::connect(addr, CONNECT_TIMEOUT)?),
            format,
            pending: std::collections::VecDeque::new(),
            wire_buf: Vec::new(),
        })
    }

    /// The tap's wire format.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Bound how long reads block waiting for a result.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Next raw wire line (text format only); `None` once the server
    /// closes the stream.
    pub fn next_line(&mut self) -> Result<Option<String>> {
        if self.format != WireFormat::Text {
            return Err(ServerError::Protocol(
                "next_line reads the text protocol; this tap is binary".into(),
            ));
        }
        self.read_line_blocking()
    }

    /// Pop the next complete, non-blank line out of `wire_buf`, if one
    /// is fully buffered. Never touches the socket.
    fn take_buffered_line(&mut self) -> Result<Option<String>> {
        loop {
            let Some(pos) = self.wire_buf.iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            let raw: Vec<u8> = self.wire_buf.drain(..=pos).collect();
            if let Some(line) = finish_line(&raw)? {
                return Ok(Some(line));
            }
        }
    }

    /// Pull whatever the reader has already buffered into `wire_buf`
    /// without a syscall.
    fn slurp_readahead(&mut self) {
        let buffered = self.reader.buffer();
        if !buffered.is_empty() {
            let n = buffered.len();
            self.wire_buf.extend_from_slice(buffered);
            self.reader.consume(n);
        }
    }

    /// Block for the next complete line. Timeout-safe: a timeout error
    /// leaves all received bytes in `wire_buf` and the next call resumes
    /// — even when the cut lands inside a multi-byte UTF-8 character
    /// (bytes are only decoded once a full line is present).
    fn read_line_blocking(&mut self) -> Result<Option<String>> {
        loop {
            if let Some(line) = self.take_buffered_line()? {
                return Ok(Some(line));
            }
            let chunk = self.reader.fill_buf()?;
            if chunk.is_empty() {
                // EOF: surface a trailing unterminated line, then end
                let raw = std::mem::take(&mut self.wire_buf);
                return finish_line(&raw);
            }
            let n = chunk.len();
            self.wire_buf.extend_from_slice(chunk);
            self.reader.consume(n);
        }
    }

    /// A complete line already received, if any — no blocking, no
    /// syscall.
    fn buffered_line(&mut self) -> Result<Option<String>> {
        if let Some(line) = self.take_buffered_line()? {
            return Ok(Some(line));
        }
        self.slurp_readahead();
        self.take_buffered_line()
    }

    /// Next result batch, parsed against the result schema; `None` once
    /// the server closes the stream.
    ///
    /// Binary taps return exactly one wire frame (the batch boundary the
    /// server chose). Text taps block for the first tuple, then greedily
    /// take every further tuple already buffered — one batch per burst.
    pub fn next_batch(&mut self, schema: &Schema) -> Result<Option<Relation>> {
        match self.format {
            WireFormat::Binary => self.next_frame(schema),
            WireFormat::Text => {
                let Some(first) = self.read_line_blocking()? else {
                    return Ok(None);
                };
                let mut rel = Relation::new(schema);
                append_parsed(&mut rel, &first, schema)?;
                while let Some(line) = self.buffered_line()? {
                    append_parsed(&mut rel, &line, schema)?;
                }
                Ok(Some(rel))
            }
        }
    }

    /// Accumulate bytes until one complete binary frame is buffered,
    /// then decode it. A read timeout mid-frame leaves the partial frame
    /// in `wire_buf`; the next call resumes accumulating.
    fn next_frame(&mut self, schema: &Schema) -> Result<Option<Relation>> {
        loop {
            if let Some((rel, used)) =
                frame::decode_frame(&self.wire_buf, schema).map_err(ServerError::Engine)?
            {
                self.wire_buf.drain(..used);
                return Ok(Some(rel));
            }
            let chunk = self.reader.fill_buf()?;
            if chunk.is_empty() {
                if self.wire_buf.is_empty() {
                    return Ok(None); // clean EOF between frames
                }
                return Err(ServerError::Protocol(
                    "stream closed mid-frame".into(),
                ));
            }
            let n = chunk.len();
            self.wire_buf.extend_from_slice(chunk);
            self.reader.consume(n);
        }
    }

    /// Next tuple, parsed against the result schema. A convenience
    /// wrapper over [`EmitterTap::next_batch`]: decoded batches are
    /// buffered and handed out row by row.
    pub fn next_row(&mut self, schema: &Schema) -> Result<Option<Vec<Value>>> {
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Ok(Some(row));
            }
            match self.next_batch(schema)? {
                Some(batch) => {
                    self.pending.extend(batch.iter_rows());
                }
                None => return Ok(None),
            }
        }
    }

    /// Collect rows until `n` arrive or the stream ends.
    pub fn take_rows(&mut self, schema: &Schema, n: usize) -> Result<Vec<Vec<Value>>> {
        let mut rows = Vec::with_capacity(n);
        while rows.len() < n {
            match self.next_row(schema)? {
                Some(row) => rows.push(row),
                None => break,
            }
        }
        Ok(rows)
    }
}

/// Decode one raw wire line (terminator included, if any): validate
/// UTF-8, strip the terminator, map blank lines to `None`.
fn finish_line(raw: &[u8]) -> Result<Option<String>> {
    let s = std::str::from_utf8(raw)
        .map_err(|_| ServerError::Protocol("wire line is not UTF-8".into()))?;
    let trimmed = s.trim_end_matches(['\n', '\r']);
    if trimmed.is_empty() {
        Ok(None)
    } else {
        Ok(Some(trimmed.to_string()))
    }
}

fn append_parsed(rel: &mut Relation, line: &str, schema: &Schema) -> Result<()> {
    let row = parse_row(line, schema)?;
    rel.append_row(&row)
        .map_err(|e| ServerError::Protocol(format!("result row rejected: {e}")))
}
