//! The `STATS` report, typed: the one place its wire format lives.
//!
//! Both daemons answer `STATS` with one line per server object (`kind
//! [name] k=v k=v ...`). Each builds a typed [`StatsReport`] — `datacelld`
//! from its engine state, the `dccluster` router by folding its shard
//! engines' reports ([`fold`], with the per-field policy of [`MergeRow`])
//! — and only [`StatsReport::render`] writes lines. [`StatsReport::parse`]
//! is its inverse, so machine consumers (the router's placement logic,
//! tests, dashboards) read fields instead of scraping strings.
//!
//! Parsing is deliberately lenient: unknown line kinds and unknown keys
//! are ignored, missing numeric keys default to zero. A newer server can
//! add telemetry without breaking older clients.

use std::collections::HashMap;

use crate::error::{Result, ServerError};

/// The `server ...` summary line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub uptime_micros: u64,
    pub sessions: u64,
    pub queries: u64,
    pub receptor_ports: u64,
    pub emitter_ports: u64,
    /// Shard engines behind this control plane (`dccluster` only; 0 on
    /// a single engine).
    pub engines: u64,
    /// Sharded logical streams (`dccluster` only).
    pub streams: u64,
}

/// One `basket <name> ...` line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BasketStats {
    pub name: String,
    pub len: u64,
    pub enabled: bool,
    pub total_in: u64,
    pub total_out: u64,
    pub dropped: u64,
    pub high_water: u64,
    pub cap: u64,
    /// Logically-deleted rows awaiting physical compaction.
    pub pending_deletes: u64,
    /// Lifetime physical compactions of the basket store.
    pub compactions: u64,
    /// Whether the basket is a durable stream (WAL + segments behind it).
    pub persistent: bool,
    /// Bytes currently in the stream's write-ahead log (0 if transient).
    pub wal_bytes: u64,
    /// Sealed immutable segments backing the stream (0 if transient).
    pub segments: u64,
    /// 99th-percentile WAL fsync latency, µs (rendered only on
    /// persistent baskets; 0 when telemetry is off or transient).
    pub wal_fsync_p99_micros: u64,
}

/// One `query <name> ...` line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    pub name: String,
    pub firings: u64,
    pub consumed: u64,
    pub produced: u64,
    pub busy_micros: u64,
    /// Time spent holding basket locks, out of `busy_micros` (contention).
    pub lock_micros: u64,
    /// Snapshot rows the plan executed over, lifetime.
    pub rows_scanned: u64,
    /// Rows the plan emitted (results + inserts), lifetime.
    pub rows_out: u64,
    /// One-time plan compile cost, µs (reported once per factory).
    pub plan_micros: u64,
    /// Rows processed incrementally (delta executions only), lifetime.
    pub delta_rows: u64,
    /// Standing statements that fell back to full re-execution, lifetime.
    pub full_reexecutes: u64,
    /// Current bytes held in delta state + shared arrangements (gauge).
    pub arrangement_bytes: u64,
    pub subscribers: u64,
    pub delivered_batches: u64,
    pub delivered_tuples: u64,
    pub dropped_batches: u64,
    /// Median firing latency, µs (from the `dc_fire_micros` telemetry
    /// histogram; 0 when telemetry is off or the query never fired).
    pub p50_micros: u64,
    /// 99th-percentile firing latency, µs.
    pub p99_micros: u64,
    /// Worst observed firing latency, µs.
    pub max_micros: u64,
    /// Comma-joined engine ids hosting this query (`dccluster` only —
    /// empty on a single engine, and rendered only when non-empty).
    /// A query registered on fewer engines than the cluster has was a
    /// partial-success registration; the missing engines declined it.
    pub engines: String,
}

/// One `receptor <stream> ...` line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReceptorStats {
    pub stream: String,
    pub port: u16,
    pub format: String,
    pub connections: u64,
    pub accepted: u64,
    pub rejected: u64,
}

/// One `emitter <query> ...` line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmitterStats {
    pub query: String,
    pub port: u16,
    pub format: String,
    pub connections: u64,
    pub coalesced_batches: u64,
}

/// The router's relay counters behind one logical emitter port
/// (`dccluster` only). They are rendered at the end of that port's
/// `emitter` line, so a single engine's lines never carry them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelayStats {
    pub query: String,
    pub port: u16,
    /// Result chunks (and their bytes) relayed to at least one subscriber.
    pub relayed_chunks: u64,
    pub relayed_bytes: u64,
    /// Chunks the subscriber-less backlog dropped.
    pub dropped_chunks: u64,
    /// Shard result streams that ended abnormally: the merged stream is
    /// missing their results from then on.
    pub lost_sources: u64,
}

/// One `session <id> ...` line: a live control-plane connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    pub id: u64,
    pub peer: String,
    pub commands: u64,
}

/// One `stream <name> ...` line (`dccluster` only): a sharded logical
/// stream's placement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    pub name: String,
    pub shards: u64,
    /// Hash-partition key column (`-` = round-robin placement).
    pub key: String,
    /// Comma-joined engine ids hosting a shard of this stream.
    pub engines: String,
}

/// One `shard <id> ...` line (`dccluster` only): a shard engine's
/// health summary. An unreachable engine reports only its address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub id: u64,
    pub addr: String,
    pub baskets_in: u64,
    pub delivered_tuples: u64,
    pub sessions: u64,
    pub unreachable: bool,
    /// Follower replica's control address (`-` = shard has no follower;
    /// empty = pre-replication router). Rendered on both reachable and
    /// unreachable shards — an unreachable primary with a follower is
    /// exactly the failover case.
    pub follower: String,
    /// Lifetime promotions of a follower to primary on this shard.
    pub failovers: u64,
}

/// The whole `STATS` body, typed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReport {
    pub server: ServerStats,
    pub baskets: Vec<BasketStats>,
    pub queries: Vec<QueryStats>,
    pub receptors: Vec<ReceptorStats>,
    pub emitters: Vec<EmitterStats>,
    pub sessions: Vec<SessionStats>,
    pub streams: Vec<StreamStats>,
    pub shards: Vec<ShardStats>,
    /// One row per `emitter` line that carries relay counters, in the
    /// same order as those lines.
    pub relays: Vec<RelayStats>,
}

/// How the `dccluster` router folds one shard engine's row into the
/// cluster-wide row for the same object — the merge policy, declared
/// field by field in each impl:
///
/// * counters, and gauges over the shards' disjoint state (such as
///   `arrangement_bytes`), **sum**;
/// * high-water marks, caps and latency quantiles take the **max** —
///   quantiles do not sum, so the worst shard is the conservative
///   cluster-level summary;
/// * what the router observes itself — names, ports, formats,
///   `connections`, `subscribers`, `engines`, `enabled` — is set on the
///   router-side row before the fold and left alone.
pub trait MergeRow {
    fn merge(&mut self, shard: &Self);
}

/// Fold shard rows into the router-side row `into` ([`MergeRow`]).
pub fn fold<'a, T: MergeRow + 'a>(mut into: T, shards: impl IntoIterator<Item = &'a T>) -> T {
    for row in shards {
        into.merge(row);
    }
    into
}

impl MergeRow for BasketStats {
    fn merge(&mut self, s: &BasketStats) {
        self.len += s.len;
        self.total_in += s.total_in;
        self.total_out += s.total_out;
        self.dropped += s.dropped;
        self.high_water = self.high_water.max(s.high_water);
        self.cap = self.cap.max(s.cap);
        self.pending_deletes += s.pending_deletes;
        self.compactions += s.compactions;
        self.persistent |= s.persistent;
        self.wal_bytes += s.wal_bytes;
        self.segments += s.segments;
        self.wal_fsync_p99_micros = self.wal_fsync_p99_micros.max(s.wal_fsync_p99_micros);
    }
}

impl MergeRow for QueryStats {
    fn merge(&mut self, s: &QueryStats) {
        self.firings += s.firings;
        self.consumed += s.consumed;
        self.produced += s.produced;
        self.busy_micros += s.busy_micros;
        self.lock_micros += s.lock_micros;
        self.rows_scanned += s.rows_scanned;
        self.rows_out += s.rows_out;
        self.plan_micros += s.plan_micros;
        self.delta_rows += s.delta_rows;
        self.full_reexecutes += s.full_reexecutes;
        self.arrangement_bytes += s.arrangement_bytes;
        self.delivered_batches += s.delivered_batches;
        self.delivered_tuples += s.delivered_tuples;
        self.dropped_batches += s.dropped_batches;
        self.p50_micros = self.p50_micros.max(s.p50_micros);
        self.p99_micros = self.p99_micros.max(s.p99_micros);
        self.max_micros = self.max_micros.max(s.max_micros);
    }
}

impl MergeRow for EmitterStats {
    fn merge(&mut self, s: &EmitterStats) {
        self.coalesced_batches += s.coalesced_batches;
    }
}

/// Split one report line into (kind, name, key→value map). The `server`
/// line has no name.
fn tokenize(line: &str) -> Option<(&str, &str, HashMap<&str, &str>)> {
    let mut words = line.split_whitespace();
    let kind = words.next()?;
    let mut name = "";
    let mut kv = HashMap::new();
    for w in words {
        match w.split_once('=') {
            Some((k, v)) => {
                kv.insert(k, v);
            }
            // the first bare word after the kind is the object name
            None if name.is_empty() => name = w,
            None => return None,
        }
    }
    Some((kind, name, kv))
}

fn num(kv: &HashMap<&str, &str>, key: &str) -> u64 {
    kv.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn text(kv: &HashMap<&str, &str>, key: &str) -> String {
    kv.get(key).map(|v| v.to_string()).unwrap_or_default()
}

impl StatsReport {
    /// Parse a `STATS` response body. Unknown kinds/keys are ignored;
    /// a line that fails to tokenize at all is an error.
    pub fn parse(lines: &[String]) -> Result<StatsReport> {
        let mut report = StatsReport::default();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let Some((kind, name, kv)) = tokenize(line) else {
                return Err(ServerError::Protocol(format!(
                    "malformed STATS line {line:?}"
                )));
            };
            match kind {
                "server" => {
                    report.server = ServerStats {
                        uptime_micros: num(&kv, "uptime_micros"),
                        sessions: num(&kv, "sessions"),
                        queries: num(&kv, "queries"),
                        receptor_ports: num(&kv, "receptor_ports"),
                        emitter_ports: num(&kv, "emitter_ports"),
                        engines: num(&kv, "engines"),
                        streams: num(&kv, "streams"),
                    };
                }
                "basket" => report.baskets.push(BasketStats {
                    name: name.to_string(),
                    len: num(&kv, "len"),
                    enabled: kv.get("enabled").is_some_and(|v| *v == "true"),
                    total_in: num(&kv, "in"),
                    total_out: num(&kv, "out"),
                    dropped: num(&kv, "dropped"),
                    high_water: num(&kv, "high_water"),
                    cap: num(&kv, "cap"),
                    pending_deletes: num(&kv, "pending_deletes"),
                    compactions: num(&kv, "compactions"),
                    persistent: kv.get("persistent").is_some_and(|v| *v == "true"),
                    wal_bytes: num(&kv, "wal_bytes"),
                    segments: num(&kv, "segments"),
                    wal_fsync_p99_micros: num(&kv, "wal_fsync_p99_micros"),
                }),
                "query" => report.queries.push(QueryStats {
                    name: name.to_string(),
                    firings: num(&kv, "firings"),
                    consumed: num(&kv, "consumed"),
                    produced: num(&kv, "produced"),
                    busy_micros: num(&kv, "busy_micros"),
                    lock_micros: num(&kv, "lock_micros"),
                    rows_scanned: num(&kv, "rows_scanned"),
                    rows_out: num(&kv, "rows_out"),
                    plan_micros: num(&kv, "plan_micros"),
                    delta_rows: num(&kv, "delta_rows"),
                    full_reexecutes: num(&kv, "full_reexecutes"),
                    arrangement_bytes: num(&kv, "arrangement_bytes"),
                    subscribers: num(&kv, "subscribers"),
                    delivered_batches: num(&kv, "delivered_batches"),
                    delivered_tuples: num(&kv, "delivered_tuples"),
                    dropped_batches: num(&kv, "dropped_batches"),
                    p50_micros: num(&kv, "p50_micros"),
                    p99_micros: num(&kv, "p99_micros"),
                    max_micros: num(&kv, "max_micros"),
                    engines: text(&kv, "engines"),
                }),
                "receptor" => report.receptors.push(ReceptorStats {
                    stream: name.to_string(),
                    port: num(&kv, "port") as u16,
                    format: text(&kv, "format"),
                    connections: num(&kv, "connections"),
                    accepted: num(&kv, "accepted"),
                    rejected: num(&kv, "rejected"),
                }),
                "emitter" => {
                    let port = num(&kv, "port") as u16;
                    if kv.contains_key("relayed_chunks") {
                        report.relays.push(RelayStats {
                            query: name.to_string(),
                            port,
                            relayed_chunks: num(&kv, "relayed_chunks"),
                            relayed_bytes: num(&kv, "relayed_bytes"),
                            dropped_chunks: num(&kv, "dropped_chunks"),
                            lost_sources: num(&kv, "lost_sources"),
                        });
                    }
                    report.emitters.push(EmitterStats {
                        query: name.to_string(),
                        port,
                        format: text(&kv, "format"),
                        connections: num(&kv, "connections"),
                        coalesced_batches: num(&kv, "coalesced_batches"),
                    });
                }
                "session" => report.sessions.push(SessionStats {
                    id: name.parse().unwrap_or(0),
                    peer: text(&kv, "peer"),
                    commands: num(&kv, "commands"),
                }),
                "stream" => report.streams.push(StreamStats {
                    name: name.to_string(),
                    shards: num(&kv, "shards"),
                    key: text(&kv, "key"),
                    engines: text(&kv, "engines"),
                }),
                "shard" => report.shards.push(ShardStats {
                    id: name.parse().unwrap_or(0),
                    addr: text(&kv, "addr"),
                    baskets_in: num(&kv, "baskets_in"),
                    delivered_tuples: num(&kv, "delivered_tuples"),
                    sessions: num(&kv, "sessions"),
                    unreachable: kv.get("unreachable").is_some_and(|v| *v == "true"),
                    follower: text(&kv, "follower"),
                    failovers: num(&kv, "failovers"),
                }),
                _ => {} // forward compatibility: skip unknown kinds
            }
        }
        Ok(report)
    }

    /// Render the report as wire lines — the only writer of the `STATS`
    /// format: both daemons answer `STATS` with `render` of the report
    /// they build, the router's merged cluster rows included. Names and
    /// text values must be whitespace/`=`-free, as on the wire; then
    /// `parse(render(r)) == r`, which the roundtrip property test pins.
    pub fn render(&self) -> Vec<String> {
        let mut body = Vec::new();
        let s = &self.server;
        let mut line = format!(
            "server uptime_micros={} sessions={} queries={} receptor_ports={} emitter_ports={}",
            s.uptime_micros, s.sessions, s.queries, s.receptor_ports, s.emitter_ports
        );
        if s.engines > 0 || s.streams > 0 {
            line.push_str(&format!(" engines={} streams={}", s.engines, s.streams));
        }
        body.push(line);
        for st in &self.streams {
            body.push(format!(
                "stream {} shards={} key={} engines={}",
                st.name, st.shards, st.key, st.engines
            ));
        }
        for b in &self.baskets {
            let mut line = format!(
                "basket {} len={} enabled={} in={} out={} dropped={} high_water={} cap={} \
                 pending_deletes={} compactions={} persistent={} wal_bytes={} segments={}",
                b.name, b.len, b.enabled, b.total_in, b.total_out, b.dropped, b.high_water,
                b.cap, b.pending_deletes, b.compactions, b.persistent, b.wal_bytes, b.segments
            );
            if b.persistent {
                line.push_str(&format!(
                    " wal_fsync_p99_micros={}",
                    b.wal_fsync_p99_micros
                ));
            }
            body.push(line);
        }
        for q in &self.queries {
            let mut line = format!(
                "query {} firings={} consumed={} produced={} busy_micros={} lock_micros={} \
                 rows_scanned={} rows_out={} plan_micros={} \
                 delta_rows={} full_reexecutes={} arrangement_bytes={} \
                 subscribers={} delivered_batches={} delivered_tuples={} dropped_batches={} \
                 p50_micros={} p99_micros={} max_micros={}",
                q.name, q.firings, q.consumed, q.produced, q.busy_micros, q.lock_micros,
                q.rows_scanned, q.rows_out, q.plan_micros,
                q.delta_rows, q.full_reexecutes, q.arrangement_bytes,
                q.subscribers, q.delivered_batches, q.delivered_tuples, q.dropped_batches,
                q.p50_micros, q.p99_micros, q.max_micros
            );
            if !q.engines.is_empty() {
                line.push_str(&format!(" engines={}", q.engines));
            }
            body.push(line);
        }
        for r in &self.receptors {
            body.push(format!(
                "receptor {} port={} format={} connections={} accepted={} rejected={}",
                r.stream, r.port, r.format, r.connections, r.accepted, r.rejected
            ));
        }
        for e in &self.emitters {
            let mut line = format!(
                "emitter {} port={} format={} connections={} coalesced_batches={}",
                e.query, e.port, e.format, e.connections, e.coalesced_batches
            );
            let mut relays = self.relays.iter();
            if let Some(r) = relays.find(|r| r.query == e.query && r.port == e.port) {
                line.push_str(&format!(
                    " relayed_chunks={} relayed_bytes={} dropped_chunks={} lost_sources={}",
                    r.relayed_chunks, r.relayed_bytes, r.dropped_chunks, r.lost_sources
                ));
            }
            body.push(line);
        }
        for sh in &self.shards {
            let mut line = if sh.unreachable {
                format!("shard {} addr={} unreachable=true", sh.id, sh.addr)
            } else {
                format!(
                    "shard {} addr={} baskets_in={} delivered_tuples={} sessions={}",
                    sh.id, sh.addr, sh.baskets_in, sh.delivered_tuples, sh.sessions
                )
            };
            if !sh.follower.is_empty() {
                line.push_str(&format!(
                    " follower={} failovers={}",
                    sh.follower, sh.failovers
                ));
            }
            body.push(line);
        }
        for se in &self.sessions {
            body.push(format!(
                "session {} peer={} commands={}",
                se.id, se.peer, se.commands
            ));
        }
        body
    }

    /// Basket row by name.
    pub fn basket(&self, name: &str) -> Option<&BasketStats> {
        self.baskets.iter().find(|b| b.name == name)
    }

    /// Query row by name.
    pub fn query(&self, name: &str) -> Option<&QueryStats> {
        self.queries.iter().find(|q| q.name == name)
    }

    /// Emitter row by query and port.
    pub fn emitter(&self, query: &str, port: u16) -> Option<&EmitterStats> {
        self.emitters
            .iter()
            .find(|e| e.query == query && e.port == port)
    }

    /// Lifetime tuples ingested across all baskets — the load signal the
    /// cluster router's placement uses.
    pub fn ingest_load(&self) -> u64 {
        self.baskets.iter().map(|b| b.total_in).sum()
    }

    /// Lifetime tuples delivered to subscribers across all queries.
    pub fn delivered_tuples(&self) -> u64 {
        self.queries.iter().map(|q| q.delivered_tuples).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_report() {
        let body = lines(&[
            "server uptime_micros=1234 sessions=2 queries=1 receptor_ports=1 emitter_ports=1",
            "basket S len=3 enabled=true in=100 out=97 dropped=0 high_water=50 cap=256 \
             pending_deletes=4 compactions=2",
            "query hot firings=7 consumed=100 produced=42 busy_micros=999 lock_micros=111 \
             rows_scanned=640 rows_out=42 plan_micros=17 \
             subscribers=2 delivered_batches=5 delivered_tuples=42 dropped_batches=0",
            "receptor S port=5001 format=binary connections=1 accepted=100 rejected=2",
            "emitter hot port=5002 format=text connections=2 coalesced_batches=3",
            "session 1 peer=127.0.0.1:9 commands=12",
        ]);
        let r = StatsReport::parse(&body).unwrap();
        assert_eq!(r.server.sessions, 2);
        assert_eq!(r.basket("S").unwrap().total_in, 100);
        assert_eq!(r.basket("S").unwrap().high_water, 50);
        assert_eq!(r.basket("S").unwrap().pending_deletes, 4);
        assert_eq!(r.basket("S").unwrap().compactions, 2);
        assert!(r.basket("S").unwrap().enabled);
        let q = r.query("hot").unwrap();
        assert_eq!(q.delivered_tuples, 42);
        assert_eq!(q.lock_micros, 111);
        assert_eq!(q.rows_scanned, 640);
        assert_eq!(q.rows_out, 42);
        assert_eq!(q.plan_micros, 17);
        assert_eq!(q.subscribers, 2);
        assert_eq!(r.receptors[0].port, 5001);
        assert_eq!(r.receptors[0].format, "binary");
        assert_eq!(r.emitters[0].coalesced_batches, 3);
        assert_eq!(r.sessions[0].id, 1);
        assert_eq!(r.sessions[0].commands, 12);
        assert_eq!(r.ingest_load(), 100);
        assert_eq!(r.delivered_tuples(), 42);
    }

    #[test]
    fn unknown_kinds_and_keys_are_ignored() {
        let body = lines(&[
            "wormhole X flux=9",
            "basket S len=1 enabled=false in=5 out=4 dropped=0 high_water=1 cap=0 shiny=yes",
        ]);
        let r = StatsReport::parse(&body).unwrap();
        assert_eq!(r.baskets.len(), 1);
        assert!(!r.baskets[0].enabled);
        assert_eq!(r.baskets[0].total_in, 5);
    }

    #[test]
    fn missing_keys_default_to_zero() {
        let r = StatsReport::parse(&lines(&["query q firings=3"])).unwrap();
        assert_eq!(r.query("q").unwrap().firings, 3);
        assert_eq!(r.query("q").unwrap().delivered_tuples, 0);
    }

    #[test]
    fn stray_bare_words_are_errors() {
        assert!(StatsReport::parse(&lines(&["basket S whoops extra"])).is_err());
    }

    #[test]
    fn parses_cluster_lines() {
        let body = lines(&[
            "server uptime_micros=9 sessions=1 queries=1 receptor_ports=1 emitter_ports=1 \
             engines=2 streams=1",
            "stream S shards=2 key=id engines=0,1",
            "shard 0 addr=127.0.0.1:9001 baskets_in=50 delivered_tuples=7 sessions=1 \
             follower=127.0.0.1:9101 failovers=0",
            "shard 1 addr=127.0.0.1:9002 unreachable=true follower=- failovers=2",
        ]);
        let r = StatsReport::parse(&body).unwrap();
        assert_eq!(r.server.engines, 2);
        assert_eq!(r.server.streams, 1);
        assert_eq!(r.streams[0].key, "id");
        assert_eq!(r.streams[0].engines, "0,1");
        assert_eq!(r.shards[0].baskets_in, 50);
        assert!(!r.shards[0].unreachable);
        assert_eq!(r.shards[0].follower, "127.0.0.1:9101");
        assert_eq!(r.shards[0].failovers, 0);
        assert!(r.shards[1].unreachable);
        assert_eq!(r.shards[1].addr, "127.0.0.1:9002");
        assert_eq!(r.shards[1].follower, "-");
        assert_eq!(r.shards[1].failovers, 2);
    }

    #[test]
    fn render_parse_roundtrips() {
        let body = lines(&[
            "server uptime_micros=9 sessions=1 queries=1 receptor_ports=1 emitter_ports=1 \
             engines=2 streams=1",
            "stream S shards=2 key=- engines=0,1",
            "basket S len=3 enabled=true in=100 out=97 dropped=0 high_water=50 cap=256 \
             pending_deletes=4 compactions=2 persistent=true wal_bytes=2048 segments=3 \
             wal_fsync_p99_micros=840",
            "query hot firings=7 consumed=100 produced=42 busy_micros=999 lock_micros=111 \
             rows_scanned=640 rows_out=42 plan_micros=17 \
             delta_rows=120 full_reexecutes=2 arrangement_bytes=4096 \
             subscribers=2 delivered_batches=5 delivered_tuples=42 dropped_batches=0 \
             p50_micros=8 p99_micros=64 max_micros=70",
            "receptor S port=5001 format=binary connections=1 accepted=100 rejected=2",
            "emitter hot port=5002 format=text connections=2 coalesced_batches=3",
            "shard 0 addr=127.0.0.1:9001 baskets_in=50 delivered_tuples=7 sessions=1 \
             follower=127.0.0.1:9101 failovers=1",
            "shard 1 addr=127.0.0.1:9002 unreachable=true follower=- failovers=0",
            "session 1 peer=127.0.0.1:9 commands=12",
        ]);
        let r = StatsReport::parse(&body).unwrap();
        assert_eq!(r.query("hot").unwrap().p99_micros, 64);
        assert_eq!(r.query("hot").unwrap().delta_rows, 120);
        assert_eq!(r.query("hot").unwrap().full_reexecutes, 2);
        assert_eq!(r.query("hot").unwrap().arrangement_bytes, 4096);
        assert!(r.basket("S").unwrap().persistent);
        assert_eq!(r.basket("S").unwrap().wal_bytes, 2048);
        assert_eq!(r.basket("S").unwrap().segments, 3);
        assert_eq!(r.basket("S").unwrap().wal_fsync_p99_micros, 840);
        let r2 = StatsReport::parse(&r.render()).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn relay_counters_ride_on_cluster_emitter_lines() {
        let body = lines(&[
            "emitter hot port=5002 format=binary connections=1 coalesced_batches=3 \
             relayed_chunks=9 relayed_bytes=900 dropped_chunks=1 lost_sources=2",
            "emitter hot port=5003 format=text connections=0 coalesced_batches=0",
        ]);
        let r = StatsReport::parse(&body).unwrap();
        assert_eq!(r.emitters.len(), 2);
        assert_eq!(r.emitter("hot", 5002).unwrap().coalesced_batches, 3);
        assert_eq!(r.relays.len(), 1, "only the relayed line has relay keys");
        assert_eq!((r.relays[0].port, r.relays[0].relayed_bytes), (5002, 900));
        assert_eq!(r.relays[0].lost_sources, 2);
        // render always leads with the server line
        assert_eq!(r.render()[1..], body);
    }

    #[test]
    fn fold_sums_counters_and_takes_the_worst_shard_for_peaks_and_quantiles() {
        let basket = |total_in, high_water, cap, p99| BasketStats {
            name: "S".into(),
            total_in,
            high_water,
            cap,
            wal_fsync_p99_micros: p99,
            persistent: p99 > 0,
            ..BasketStats::default()
        };
        let router = BasketStats {
            name: "S".into(),
            enabled: true,
            ..BasketStats::default()
        };
        let shards = [basket(10, 4, 64, 0), basket(30, 9, 32, 700)];
        let b = fold(router, &shards);
        // name and enabled are the router's
        assert_eq!((b.name.as_str(), b.enabled), ("S", true));
        assert_eq!(b.total_in, 40);
        assert_eq!((b.high_water, b.cap, b.wal_fsync_p99_micros), (9, 64, 700));
        assert!(b.persistent);

        let query = |firings, arrangement_bytes, p99_micros, subscribers| QueryStats {
            firings,
            arrangement_bytes,
            p99_micros,
            subscribers,
            ..QueryStats::default()
        };
        let shards = [query(2, 100, 50, 7), query(3, 200, 80, 7)];
        let q = fold(query(0, 0, 0, 1), &shards);
        assert_eq!((q.firings, q.arrangement_bytes, q.p99_micros), (5, 300, 80));
        assert_eq!(q.subscribers, 1, "subscribers are the router's own sockets");

        let emitter = |connections, coalesced_batches| EmitterStats {
            connections,
            coalesced_batches,
            ..EmitterStats::default()
        };
        let e = fold(emitter(2, 0), &[emitter(1, 4), emitter(1, 5)]);
        assert_eq!((e.connections, e.coalesced_batches), (2, 9));
    }
}
