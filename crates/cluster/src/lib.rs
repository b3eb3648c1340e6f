//! # dccluster — sharded multi-engine DataCell behind one control plane
//!
//! DataCell's bet (EDBT 2009) is that a stream engine built on relational
//! kernels inherits the database's scaling toolbox. This crate cashes in
//! the next piece of that toolbox: **hash partitioning**. A `dccluster`
//! router fronts N independent `datacelld` engines — in this process or
//! on other hosts — behind the *same* line-oriented control plane and
//! data-plane wire formats a single engine speaks, so clients scale from
//! one engine to many by changing an address and adding one DDL clause:
//!
//! ```text
//! CREATE STREAM trades (sym varchar, px double) SHARD BY (sym) SHARDS 4
//! ```
//!
//! ## Topology
//!
//! ```text
//!                       ┌───────────── dccluster ─────────────┐
//!  control ───────────▶ │  shard map · placement · agg STATS  │
//!                       │                                     │
//!  receptor :p ───────▶ │  split by hash(key) ──▶ frames ───▶ │ ──▶ engine 0 (datacelld)
//!  (one logical port)   │        (columnar gather)        ──▶ │ ──▶ engine 1 (datacelld)
//!                       │                                     │
//!  emitter :q ◀──────── │  byte-level frame relay (merge) ◀── │ ◀── per-shard emitters
//!  (one logical port)   └─────────────────────────────────────┘
//! ```
//!
//! * **Control plane** — the same verb table, dispatch and server as
//!   `datacelld` ([`dcserver::control`]), with [`ClusterRuntime`] as the
//!   verbs' fan-out implementation; `CREATE STREAM ... SHARD BY` declares
//!   a partitioned stream, `REGISTER QUERY` fans out to every shard,
//!   `STATS` folds the shards' reports ([`dcserver::stats::fold`]).
//! * **Ingest** — the logical receptor port decodes client batches
//!   (text or binary), slices each one column-wise by partition key
//!   ([`datacell::partition::Partitioner`] — a typed gather per column,
//!   no row re-encoding) and forwards per-shard sub-batches as binary
//!   frames.
//! * **Results** — the logical emitter port subscribes to each shard in
//!   the client's wire format and relays complete frames/lines
//!   byte-for-byte into every subscriber; results are never decoded in
//!   the router.
//!
//! Placement uses the engines' typed `STATS` reports
//! ([`dcserver::stats::StatsReport`]): unsharded streams and
//! `SHARDS n < engines` declarations land on the least-loaded engines.
//!
//! ## Quick start
//!
//! ```no_run
//! use dccluster::{bind_cluster, ClusterConfig};
//! use dcserver::client::Client;
//!
//! let cluster = bind_cluster("127.0.0.1:0", ClusterConfig::in_process(2)).unwrap();
//! let addr = cluster.local_addr().unwrap();
//! std::thread::spawn(move || cluster.serve());
//!
//! let mut c = Client::connect(addr).unwrap();
//! c.create_sharded_stream("S", "(id int, v int)", "id", None).unwrap();
//! c.register_query("hot", "select id from [select * from S] as Z where Z.v > 10")
//!     .unwrap();
//! let rport = c.attach_receptor("S", 0).unwrap();
//! let eport = c.attach_emitter("hot", 0).unwrap();
//! # let _ = (rport, eport);
//! ```

pub mod engines;
pub mod relay;
pub mod repl;
pub mod router;

pub use engines::{ShardEngine, ShardSpec};
pub use relay::FrameRelay;
pub use router::{ClusterConfig, ClusterRuntime};

use dcserver::control::ControlServer;
use dcserver::error::Result;

/// Boot the shard engines and bind the router's control plane — the
/// same [`ControlServer`] a single engine serves, over the router's
/// [`ControlPlane`](dcserver::control::ControlPlane) implementation.
///
/// Call [`ControlServer::serve`] to run it (blocking) and
/// [`ControlServer::local_addr`] for the actual port when binding
/// ephemeral.
pub fn bind_cluster(
    control_addr: &str,
    config: ClusterConfig,
) -> Result<ControlServer<ClusterRuntime>> {
    let runtime = ClusterRuntime::new(config)?;
    ControlServer::bind(control_addr, runtime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcserver::control::ControlPlane;

    #[test]
    fn bind_boots_engines_on_ephemeral_ports() {
        let cluster = bind_cluster("127.0.0.1:0", ClusterConfig::in_process(2)).unwrap();
        assert_ne!(cluster.local_addr().unwrap().port(), 0);
        assert_eq!(cluster.runtime().engine_count(), 2);
        cluster.runtime().shutdown();
    }
}
