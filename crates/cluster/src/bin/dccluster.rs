//! `dccluster` — the DataCell shard-router daemon.
//!
//! ```text
//! dccluster [--listen HOST:PORT] [--shards N] [--engine HOST:PORT]...
//!           [--replicas] [--follower HOST:PORT]...
//!           [--repl-interval-ms N] [--failover-misses N]
//!           [--data-host HOST]
//!           [--data-dir PATH] [--fsync always|every_n:N|off] [--seal-rows N]
//!           [--trace-ring N] [--trace-sample N]
//!           [--metrics-interval-ms N] [--metrics-depth N]
//! ```
//!
//! Fronts N `datacelld` engines behind one control plane speaking the
//! standard `datacelld` protocol. Without `--engine` arguments, `--shards
//! N` (default 2) in-process engines are spawned on ephemeral ports; each
//! `--engine` adds an already-running remote `datacelld` as a shard
//! instead.
//!
//! `--data-dir` enables durability on the in-process shards: shard `i`
//! persists under `PATH/shard-i`, and `CREATE STREAM ... PERSIST [SHARD
//! BY ...]` streams are write-ahead logged per shard. Remote engines
//! manage their own `--data-dir`.
//!
//! `--replicas` gives every in-process shard an in-process follower
//! (persisting under `PATH/shard-i-replica`); each `--follower` instead
//! names an already-running `datacelld` as the follower of the next
//! shard in order (give one per shard or none). The router streams
//! durable state to followers every `--repl-interval-ms` (default 200)
//! and promotes a follower after `--failover-misses` (default 3)
//! consecutive failed health polls of its primary.

use std::time::Duration;

use dccluster::{bind_cluster, ClusterConfig, ShardSpec};

fn main() {
    let mut listen = "127.0.0.1:7071".to_string();
    let mut shards = 2usize;
    let mut remotes: Vec<String> = Vec::new();
    let mut replicas = false;
    let mut follower_addrs: Vec<String> = Vec::new();
    let mut config = ClusterConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(v) => listen = v,
                None => die("--listen requires HOST:PORT"),
            },
            "--shards" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => die("--shards requires a number >= 1"),
            },
            "--engine" => match args.next() {
                Some(v) => remotes.push(v),
                None => die("--engine requires HOST:PORT"),
            },
            "--replicas" => replicas = true,
            "--follower" => match args.next() {
                Some(v) => follower_addrs.push(v),
                None => die("--follower requires HOST:PORT"),
            },
            "--repl-interval-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => config.repl_interval = Duration::from_millis(ms),
                _ => die("--repl-interval-ms requires a positive number"),
            },
            "--failover-misses" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => config.failover_misses = n,
                _ => die("--failover-misses requires a number >= 1"),
            },
            "--data-host" => match args.next() {
                Some(v) => config.data_host = v,
                None => die("--data-host requires HOST"),
            },
            "--data-dir" => match args.next() {
                Some(v) => config.engine.data_dir = Some(v.into()),
                None => die("--data-dir requires a path"),
            },
            "--fsync" => match args.next().map(|v| v.parse()) {
                Some(Ok(policy)) => config.engine.fsync = policy,
                Some(Err(e)) => die(&format!("--fsync: {e}")),
                None => die("--fsync requires always|every_n:N|off"),
            },
            "--seal-rows" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.engine.seal_rows = n,
                None => die("--seal-rows requires a number"),
            },
            "--trace-ring" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.engine.trace_ring = n,
                _ => die("--trace-ring requires a positive number"),
            },
            "--trace-sample" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => config.engine.trace_sample = n,
                None => die("--trace-sample requires a number (0 = off)"),
            },
            "--metrics-interval-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => {
                    config.engine.metrics_interval = Duration::from_millis(ms)
                }
                _ => die("--metrics-interval-ms requires a positive number"),
            },
            "--metrics-depth" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.engine.metrics_depth = n,
                None => die("--metrics-depth requires a number"),
            },
            "--help" | "-h" => {
                println!(
                    "dccluster [--listen HOST:PORT] [--shards N] [--engine HOST:PORT]...\n          \
                     [--replicas] [--follower HOST:PORT]...\n          \
                     [--repl-interval-ms N] [--failover-misses N]\n          \
                     [--data-host HOST]\n          \
                     [--data-dir PATH] [--fsync always|every_n:N|off] [--seal-rows N]\n          \
                     [--trace-ring N] [--trace-sample N (0 = off)]\n          \
                     [--metrics-interval-ms N] [--metrics-depth N]\n\n\
                     Same control protocol as datacelld (METRICS HISTORY, TRACE SPANS\n\
                     and HEALTH aggregate across shards), plus:\n  \
                     CREATE STREAM <name> (cols) [PERSIST] SHARD BY (<col>) [SHARDS <n>]\n  \
                     REPL STATUS <stream>   per-shard replication lag and failover count"
                );
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    config.shards = if remotes.is_empty() {
        vec![ShardSpec::InProcess; shards]
    } else {
        remotes.into_iter().map(ShardSpec::Remote).collect()
    };
    if !follower_addrs.is_empty() {
        if follower_addrs.len() != config.shards.len() {
            die(&format!(
                "{} shards but {} --follower addresses — give one per shard or none",
                config.shards.len(),
                follower_addrs.len()
            ));
        }
        config.followers = follower_addrs.into_iter().map(ShardSpec::Remote).collect();
    } else if replicas {
        config.followers = vec![ShardSpec::InProcess; config.shards.len()];
    }

    let n = config.shards.len();
    let cluster = match bind_cluster(&listen, config) {
        Ok(c) => c,
        Err(e) => die(&format!("cannot bind {listen}: {e}")),
    };
    match cluster.local_addr() {
        Ok(addr) => eprintln!("dccluster: control plane on {addr} fronting {n} engines"),
        Err(_) => eprintln!("dccluster: control plane on {listen} fronting {n} engines"),
    }
    if let Err(e) = cluster.serve() {
        die(&format!("cluster error: {e}"));
    }
    eprintln!("dccluster: shut down cleanly");
}

fn die(msg: &str) -> ! {
    eprintln!("dccluster: {msg}");
    std::process::exit(2);
}
