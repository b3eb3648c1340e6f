//! `datacelld` — the DataCell stream-server daemon.
//!
//! ```text
//! datacelld [--listen HOST:PORT] [--data-host HOST]
//!           [--data-dir PATH] [--fsync always|every_n:N|off] [--seal-rows N]
//!           [--trace-ring N] [--trace-sample N]
//!           [--metrics-interval-ms N] [--metrics-depth N]
//! ```
//!
//! Binds the control plane on `--listen` (default `127.0.0.1:7077`) and
//! serves until a client sends `SHUTDOWN`. Data-plane receptor/emitter
//! ports are opened on `--data-host` (default `127.0.0.1`) by `ATTACH`
//! commands. See the crate docs for the command grammar.
//!
//! `--data-dir` enables durability: `CREATE STREAM ... PERSIST` streams
//! are write-ahead logged and sealed into columnar segments under that
//! directory, and on boot the daemon replays the manifest and WAL tails
//! *before* accepting connections.

use std::time::Duration;

use dcserver::{bind, ServerConfig};

fn main() {
    let mut listen = "127.0.0.1:7077".to_string();
    let mut config = ServerConfig::default();
    let mut data_host_explicit = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(v) => listen = v,
                None => die("--listen requires HOST:PORT"),
            },
            "--data-host" => match args.next() {
                Some(v) => {
                    config.data_host = v;
                    data_host_explicit = true;
                }
                None => die("--data-host requires HOST"),
            },
            "--data-dir" => match args.next() {
                Some(v) => config.data_dir = Some(v.into()),
                None => die("--data-dir requires a path"),
            },
            "--fsync" => match args.next().map(|v| v.parse()) {
                Some(Ok(policy)) => config.fsync = policy,
                Some(Err(e)) => die(&format!("--fsync: {e}")),
                None => die("--fsync requires always|every_n:N|off"),
            },
            "--seal-rows" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.seal_rows = n,
                None => die("--seal-rows requires a number"),
            },
            "--trace-ring" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.trace_ring = n,
                _ => die("--trace-ring requires a positive number"),
            },
            "--trace-sample" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => config.trace_sample = n,
                None => die("--trace-sample requires a number (0 = off)"),
            },
            "--metrics-interval-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => config.metrics_interval = Duration::from_millis(ms),
                _ => die("--metrics-interval-ms requires a positive number"),
            },
            "--metrics-depth" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.metrics_depth = n,
                None => die("--metrics-depth requires a number"),
            },
            "--help" | "-h" => {
                println!(
                    "datacelld [--listen HOST:PORT] [--data-host HOST]\n          \
                     [--data-dir PATH] [--fsync always|every_n:N|off] [--seal-rows N]\n          \
                     [--trace-ring N] [--trace-sample N (0 = off)]\n          \
                     [--metrics-interval-ms N] [--metrics-depth N]\n\n\
                     Control-plane commands (one per line):\n  \
                     PING | CREATE STREAM/TABLE/BASKET ... [PERSIST] | EXEC <sql> |\n  \
                     FLUSH STREAM <name> | REGISTER QUERY <name> AS <sql> |\n  \
                     ATTACH RECEPTOR <stream> ON PORT <p> |\n  \
                     ATTACH EMITTER <query> ON PORT <p> |\n  \
                     DETACH RECEPTOR/EMITTER <name> PORT <p> | STATS |\n  \
                     METRICS | METRICS HISTORY [<series>] [LAST <n>] |\n  \
                     TRACE DUMP | TRACE SPANS [BATCH <id>] | HEALTH | QUIT | SHUTDOWN"
                );
                return;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    // data-plane ports follow the control-plane interface unless
    // overridden — clients derive data addresses from the host they
    // dialed, so a diverging default would strand ATTACHed ports
    if !data_host_explicit {
        if let Some(host) = listen.rsplit_once(':').map(|(h, _)| h) {
            // IPv6 literals arrive bracketed ([::1]:7077) but bind takes
            // the bare address
            let host = host.trim_start_matches('[').trim_end_matches(']');
            if !host.is_empty() {
                config.data_host = host.to_string();
            }
        }
    }

    let server = match bind(&listen, config) {
        Ok(s) => s,
        Err(e) => die(&format!("cannot bind {listen}: {e}")),
    };
    if let Some(r) = server.runtime().recovery_report() {
        eprintln!(
            "datacelld: recovered {} stream(s): {} segment(s), {} WAL batch(es) / {} row(s) \
             replayed, {} torn tail(s) truncated",
            r.streams, r.segments, r.replayed_batches, r.replayed_rows, r.torn_tails
        );
    }
    match server.local_addr() {
        Ok(addr) => eprintln!("datacelld: control plane on {addr}"),
        Err(_) => eprintln!("datacelld: control plane on {listen}"),
    }
    if let Err(e) = server.serve() {
        die(&format!("server error: {e}"));
    }
    eprintln!("datacelld: shut down cleanly");
}

fn die(msg: &str) -> ! {
    eprintln!("datacelld: {msg}");
    std::process::exit(2);
}
