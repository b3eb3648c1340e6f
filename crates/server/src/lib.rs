//! # dcserver — the standalone DataCell stream server
//!
//! The paper's architecture (§3.1) connects a relational kernel to the
//! outside world through receptors and emitters. This crate assembles the
//! `datacell` engine into a long-running daemon, `datacelld`, that real
//! clients talk to over TCP:
//!
//! * a **control plane** (one listener, line-oriented commands — see
//!   [`protocol`]) for DDL, continuous-query registration and
//!   introspection;
//! * a **data plane** of per-stream receptor ports (ingest) and per-query
//!   emitter ports (result delivery), attached on demand;
//! * a **session manager** ([`session`]) tracking client connections and
//!   per-query result fan-out;
//! * a **runtime** ([`runtime`]) supervising the thread-per-factory
//!   scheduler, accept loops and pumps, with graceful shutdown.
//! * blocking **accept loops** and the daemon-wide stop signal
//!   ([`accept`]), shared with the `dccluster` router.
//!
//! The [`client`] module is the matching client library (`dcclient`).
//!
//! ## Port layout
//!
//! ```text
//!                 ┌──────────────────────────────────────┐
//!  control :7077  │ CREATE STREAM / REGISTER QUERY /     │
//!  ─────────────▶ │ ATTACH ... / STATS / SHUTDOWN        │
//!                 │                                      │
//!  receptor :p1   │ S ──▶ [baskets] ──▶ factories ──▶ Q  │  emitter :p2
//!  tuples in ───▶ │          (ThreadedScheduler)         │ ───▶ tuples out
//!                 └──────────────────────────────────────┘
//! ```
//!
//! Receptor/emitter ports speak a per-port wire format negotiated at
//! `ATTACH` time: the engine's textual tuple format ([`datacell::net`],
//! `|`-separated fields, one tuple per line — the default) or columnar
//! binary frames ([`datacell::frame`]) that move whole `Relation`
//! batches end-to-end.

pub mod accept;
pub mod client;
pub mod control;
pub mod error;
pub mod protocol;
pub mod runtime;
pub mod session;
pub mod stats;

pub use client::Client;
pub use control::{ControlPlane, ControlServer};
pub use error::{Result, ServerError};
pub use runtime::{ServerConfig, ServerRuntime};
pub use stats::StatsReport;

use std::sync::Arc;

use datacell::engine::DataCell;

/// Build a server on a fresh engine and bind its control plane.
///
/// Returns the bound control server; call [`ControlServer::serve`] to run
/// it (blocking) and use [`ControlServer::local_addr`] for the actual
/// port when binding ephemeral.
pub fn bind(control_addr: &str, config: ServerConfig) -> Result<ControlServer> {
    let engine = Arc::new(DataCell::new());
    bind_with_engine(control_addr, config, engine)
}

/// Build a server around an existing engine (tests, embedded use).
pub fn bind_with_engine(
    control_addr: &str,
    config: ServerConfig,
    engine: Arc<DataCell>,
) -> Result<ControlServer> {
    // when a data dir is configured, ServerRuntime::new replays the
    // durable state into the engine before the listener is bound — a
    // client can never connect to a partially recovered server
    let runtime = ServerRuntime::new(engine, config)?;
    ControlServer::bind(control_addr, runtime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_on_ephemeral_port() {
        let server = bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        // tear down without serving
        server.runtime().request_shutdown();
        server.runtime().shutdown();
    }
}
