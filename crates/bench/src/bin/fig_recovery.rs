//! Durability cost and recovery speed.
//!
//! Two measurements the paper's in-memory design leaves open once a WAL
//! is bolted on:
//!
//! 1. **Ingest tax** — tuples/sec through a binary receptor into a
//!    transient stream vs a `PERSIST` stream under each fsync policy
//!    (`off`, `every_n:64`, `always`). The log-before-ack ordering puts
//!    the WAL append on the ingest hot path, so this is the end-to-end
//!    price of durability.
//! 2. **Recovery time vs WAL size** — reboot the daemon on data dirs
//!    whose WAL tails hold growing row counts and time the
//!    replay-before-accept window (the added downtime after a crash).
//!
//! `cargo run -p dc_bench --release --bin fig_recovery
//!     [--tuples N] [--batch B] [--trials T] [--json PATH] [--gate PCT]`
//!
//! `--gate PCT` exits nonzero if `every_n` durable ingest falls below
//! PCT percent of in-memory ingest — the CI floor on the durability tax.
//! Each ingest mode runs `--trials` times (default 3) and reports the
//! best. The gate compares *paired* trials — an in-memory run and an
//! `every_n` run back-to-back, taking the best ratio across pairs — so
//! it measures the durability tax itself, not whatever load the host
//! happened to carry when one of the two modes ran.

use std::path::PathBuf;
use std::time::Instant;

use datacell::frame::WireFormat;
use dc_bench::{arg, arg_opt, secs, Figure, JsonReport};
use dcserver::client::Client;
use dcserver::{bind, ControlPlane, ServerConfig};
use monet::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dc-fig-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)])
}

/// Ingest `n` tuples through a binary receptor; returns seconds from
/// first byte to the last row acknowledged in `STATS`. `data_dir = None`
/// runs the transient baseline.
fn ingest(n: usize, batch: usize, data_dir: Option<(&PathBuf, dcstore::FsyncPolicy)>) -> f64 {
    let config = ServerConfig {
        data_dir: data_dir.map(|(d, _)| d.clone()),
        fsync: data_dir.map(|(_, f)| f).unwrap_or_default(),
        ..ServerConfig::default()
    };
    let durable = config.data_dir.is_some();
    let server = bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = std::thread::spawn(move || server.serve());

    let mut c = Client::connect(addr).unwrap();
    if durable {
        c.create_persistent_stream("S", "(id int, v int)").unwrap();
    } else {
        c.create_stream("S", "(id int, v int)").unwrap();
    }
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let schema = schema();
    let mut sink = c
        .open_receptor_with(rport, WireFormat::Binary, &schema)
        .unwrap();

    let start = Instant::now();
    let mut sent = 0usize;
    while sent < n {
        let take = batch.min(n - sent);
        let mut rel = Relation::new(&schema);
        for i in sent..sent + take {
            rel.append_row(&[Value::Int(i as i64), Value::Int((i % 1000) as i64)])
                .unwrap();
        }
        sink.send_batch(&rel).unwrap();
        sent += take;
    }
    sink.flush().unwrap();
    loop {
        let stats = c.stats_report().unwrap();
        let acked: u64 = stats
            .receptors
            .iter()
            .filter(|r| r.stream == "S")
            .map(|r| r.accepted)
            .sum();
        if acked >= n as u64 {
            break;
        }
        std::thread::yield_now();
    }
    let elapsed = start.elapsed().as_secs_f64();
    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    elapsed
}

/// Rebind a daemon on `dir` and return (wal bytes replayed, seconds the
/// recovery-before-accept window took, rows replayed).
fn recover(dir: &std::path::Path) -> (u64, f64, u64) {
    let wal_bytes = std::fs::metadata(dir.join("streams").join("S").join("wal.log"))
        .map(|m| m.len())
        .unwrap_or(0);
    let start = Instant::now();
    let server = bind(
        "127.0.0.1:0",
        ServerConfig {
            data_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    let replayed = server
        .runtime()
        .recovery_report()
        .map(|r| r.replayed_rows)
        .unwrap_or(0);
    server.runtime().request_shutdown();
    server.runtime().shutdown();
    (wal_bytes, elapsed, replayed)
}

/// Best-of-`trials` ingest time: each trial gets a fresh server (and a
/// wiped data dir for durable modes), the minimum wins.
fn best_ingest(
    trials: usize,
    n: usize,
    batch: usize,
    data_dir: Option<(&PathBuf, dcstore::FsyncPolicy)>,
) -> f64 {
    (0..trials.max(1))
        .map(|_| {
            if let Some((dir, _)) = data_dir {
                let _ = std::fs::remove_dir_all(dir);
                std::fs::create_dir_all(dir).unwrap();
            }
            ingest(n, batch, data_dir)
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let tuples: usize = arg("--tuples", 200_000);
    let batch: usize = arg("--batch", 4096);
    let trials: usize = arg("--trials", 3);
    let gate_pct: f64 = arg("--gate", 0.0);

    let mut fig = Figure::new("fig_recovery", &["mode", "tuples", "secs", "tuples_per_sec"]);
    let mut json = JsonReport::new("fig_recovery");
    json.param("tuples", tuples);
    json.param("batch", batch);
    json.param("trials", trials);

    // paired trials: in-memory and every_n back-to-back, so each pair
    // sees the same host conditions; the best pairwise ratio feeds the
    // gate while the best absolute time of each mode feeds the figure
    let every_dir = temp_dir("durable-every_n");
    let mut base_secs = f64::INFINITY;
    let mut every_secs = f64::INFINITY;
    let mut best_ratio = 0.0f64;
    for _ in 0..trials.max(1) {
        let b = ingest(tuples, batch, None);
        let _ = std::fs::remove_dir_all(&every_dir);
        std::fs::create_dir_all(&every_dir).unwrap();
        let d = ingest(tuples, batch, Some((&every_dir, dcstore::FsyncPolicy::default())));
        base_secs = base_secs.min(b);
        every_secs = every_secs.min(d);
        best_ratio = best_ratio.max(b / d);
    }
    let _ = std::fs::remove_dir_all(&every_dir);
    let base_tps = tuples as f64 / base_secs;
    let every_n_tps = tuples as f64 / every_secs;
    fig.row(vec![
        "in-memory".into(),
        tuples.to_string(),
        secs(base_secs),
        format!("{base_tps:.0}"),
    ]);
    json.metric("in_memory_tuples_per_sec", base_tps);
    json.metric("durable_over_in_memory_pct", best_ratio * 100.0);

    for (label, policy) in [
        ("durable-off", dcstore::FsyncPolicy::Off),
        ("durable-every_n", dcstore::FsyncPolicy::default()),
        ("durable-always", dcstore::FsyncPolicy::Always),
    ] {
        let (s, tps) = if label == "durable-every_n" {
            (every_secs, every_n_tps)
        } else {
            let dir = temp_dir(label);
            let s = best_ingest(trials, tuples, batch, Some((&dir, policy)));
            let _ = std::fs::remove_dir_all(&dir);
            (s, tuples as f64 / s)
        };
        fig.row(vec![
            format!("{label} ({policy})"),
            tuples.to_string(),
            secs(s),
            format!("{tps:.0}"),
        ]);
        json.metric(&format!("{}_tuples_per_sec", label.replace('-', "_")), tps);
    }

    // recovery time as a function of the WAL tail left behind
    let mut rfig = Figure::new(
        "fig_recovery_replay",
        &["wal_rows", "wal_bytes", "recover_secs", "rows_per_sec"],
    );
    for frac in [4usize, 2, 1] {
        let rows = tuples / frac;
        let dir = temp_dir(&format!("replay-{frac}"));
        // leave the whole ingest in the WAL (no seal), shut down, reboot
        let _ = ingest(rows, batch, Some((&dir, dcstore::FsyncPolicy::Off)));
        let (wal_bytes, secs_r, replayed) = recover(&dir);
        assert_eq!(replayed, rows as u64, "recovery must replay every row");
        rfig.row(vec![
            rows.to_string(),
            wal_bytes.to_string(),
            secs(secs_r),
            format!("{:.0}", rows as f64 / secs_r),
        ]);
        json.metric(&format!("recover_secs_{rows}_rows"), secs_r);
        json.metric(&format!("recover_wal_bytes_{rows}_rows"), wal_bytes as f64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fig.finish();
    rfig.finish();
    if let Some(path) = arg_opt("--json") {
        json.write(&path);
    }

    if gate_pct > 0.0 {
        let pct = best_ratio * 100.0;
        if pct < gate_pct {
            eprintln!(
                "GATE FAIL: durable every_n ingest at {pct:.1}% of paired \
                 in-memory ingest (floor {gate_pct}%)"
            );
            std::process::exit(1);
        }
        println!("[gate ok: durable every_n at {pct:.1}% of paired in-memory ingest (floor {gate_pct}%)]");
    }
}
