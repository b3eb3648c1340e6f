//! The router's control-plane listener.
//!
//! Speaks exactly the `datacelld` wire protocol ([`dcserver::protocol`])
//! — same commands, same `OK n`/`ERR` framing — so every existing client
//! (including `dcserver::client::Client`) talks to a cluster unchanged.
//! The accept/read/respond plumbing *is* the engine's
//! ([`dcserver::control::serve_loop`]); only the dispatch differs: DDL
//! places streams on shards, `SHARD BY` is honored instead of rejected,
//! `ATTACH` opens logical ports fronting the whole cluster, and `STATS`
//! aggregates.

use std::net::TcpListener;
use std::sync::Arc;

use dcserver::accept::Acceptor;
use dcserver::control::serve_loop;
use dcserver::error::Result;
use dcserver::protocol::{parse_command, Command, Response};

use crate::router::ClusterRuntime;

/// The cluster's control-plane server.
pub struct ClusterControl {
    listener: TcpListener,
    acceptor: Arc<Acceptor>,
    runtime: Arc<ClusterRuntime>,
}

impl ClusterControl {
    /// Bind the router control listener (port 0 for ephemeral).
    pub fn bind(addr: &str, runtime: Arc<ClusterRuntime>) -> Result<ClusterControl> {
        let listener = TcpListener::bind(addr)?;
        let acceptor = runtime.stop_signal().acceptor(&listener)?;
        Ok(ClusterControl {
            listener,
            acceptor,
            runtime,
        })
    }

    /// The bound control-plane address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    pub fn runtime(&self) -> &Arc<ClusterRuntime> {
        &self.runtime
    }

    /// Serve until `SHUTDOWN` (or an external stop), then tear the whole
    /// cluster down. Blocks the caller.
    pub fn serve(self) -> Result<()> {
        let rt = &self.runtime;
        serve_loop(
            self.listener,
            &self.acceptor,
            &rt.sessions,
            &|| rt.is_stopping(),
            &|request| dispatch(rt, request),
        );
        self.runtime.shutdown();
        Ok(())
    }
}

/// Execute one command; the bool says "close this connection afterwards".
fn dispatch(rt: &Arc<ClusterRuntime>, request: &str) -> (Response, bool) {
    let cmd = match parse_command(request) {
        Ok(c) => c,
        Err(e) => return (Response::Err(e), false),
    };
    let result = match cmd {
        Command::Ping => Ok((Response::one("pong"), false)),
        Command::Ddl(sql) => rt.ddl(&sql).map(|b| (Response::Ok(b), false)),
        Command::DdlPersist { ddl, stream } => rt
            .create_persistent(&ddl, &stream)
            .map(|b| (Response::Ok(b), false)),
        Command::DdlSharded {
            ddl,
            stream,
            key,
            shards,
            persist,
        } => rt
            .create_sharded(&ddl, &stream, &key, shards, persist)
            .map(|b| (Response::Ok(b), false)),
        Command::FlushStream { stream } => rt
            .flush_stream(&stream)
            .map(|n| (Response::one(format!("sealed_rows={n}")), false)),
        Command::Exec(sql) => rt.exec(&sql).map(|b| (Response::Ok(b), false)),
        Command::RegisterQuery { name, sql } => rt
            .register_query(&name, &sql)
            .map(|b| (Response::Ok(b), false)),
        Command::AttachReceptor {
            stream,
            port,
            format,
        } => rt
            .attach_receptor(&stream, port, format)
            .map(|p| (Response::one(format!("port={p}")), false)),
        Command::AttachEmitter {
            query,
            port,
            format,
        } => rt
            .attach_emitter(&query, port, format)
            .map(|p| (Response::one(format!("port={p}")), false)),
        Command::DetachReceptor { stream, port } => rt
            .detach_receptor(&stream, port)
            .map(|n| (Response::one(format!("detached={n}")), false)),
        Command::DetachEmitter { query, port } => rt
            .detach_emitter(&query, port)
            .map(|n| (Response::one(format!("detached={n}")), false)),
        Command::Explain(sql) => rt.explain_sql(&sql).map(|b| (Response::Ok(b), false)),
        Command::ExplainQuery { name } => {
            rt.explain_query(&name).map(|b| (Response::Ok(b), false))
        }
        Command::Stats => Ok((Response::Ok(rt.stats()), false)),
        Command::Metrics => Ok((Response::Ok(rt.metrics()), false)),
        Command::MetricsHistory { series, last } => rt
            .metrics_history(series.as_deref(), last)
            .map(|b| (Response::Ok(b), false)),
        Command::Health => rt.health().map(|b| (Response::Ok(b), false)),
        Command::TraceSpans { batch } => rt
            .trace_spans(batch)
            .map(|b| (Response::Ok(b), false)),
        Command::TraceDump { query } => rt
            .trace_dump(query.as_deref())
            .map(|b| (Response::Ok(b), false)),
        Command::TraceStream { query, on } => {
            if on {
                rt.trace_on(&query)
                    .map(|p| (Response::one(format!("port={p}")), false))
            } else {
                rt.trace_off(&query)
                    .map(|n| (Response::one(format!("closed_shards={n}")), false))
            }
        }
        Command::ReplStatus { stream } => rt
            .repl_status_lines(&stream)
            .map(|b| (Response::Ok(b), false)),
        Command::ReplOpen { .. }
        | Command::ReplExport { .. }
        | Command::ReplSegment { .. }
        | Command::ReplWal { .. }
        | Command::ReplPromote => Ok((
            Response::Err(
                "REPL transfer verbs are shard-engine commands — the router \
                 replicates automatically (see REPL STATUS <stream>)"
                    .to_string(),
            ),
            false,
        )),
        Command::Quit => Ok((Response::ok(), true)),
        Command::Shutdown => {
            rt.request_shutdown();
            Ok((Response::ok(), true))
        }
    };
    result.unwrap_or_else(|e| (Response::Err(e.to_string()), false))
}
