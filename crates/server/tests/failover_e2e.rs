//! Failover end-to-end against real engine processes: four `datacelld`
//! children (two shard primaries, two followers) fronted by an
//! in-process `dccluster` router, `kill -9` one primary mid-ingest, and
//! verify the promotion protocol on the wire:
//!
//! * every row that had reached the follower's disk (replication lag 0
//!   observed past the acknowledged count) is re-emitted by the
//!   re-registered standing query on the promoted follower — the
//!   multiset is exactly the killed shard's hash slice, computed
//!   independently with [`Partitioner`];
//! * fresh ingest keeps flowing end-to-end through both shards after
//!   the promotion (new connections resolve the promoted topology);
//! * `STATS`, `HEALTH`, and `METRICS` report the new topology
//!   (`follower=-`, `failovers=1`, `dc_failover_total`).
//!
//! Replication is asynchronous: the durable-ack rule for a cluster is
//! "receptor acknowledged AND `REPL STATUS` lag 0 observed at that
//! count". Rows acknowledged after the last lag-0 observation may exist
//! only on the dead primary's disk; the test's sorted-slice equality is
//! therefore asserted on the pre-kill synced prefix, while the
//! mid-ingest tail only has to keep flowing.
//!
//! Both wire formats run the same scenario — TEXT and BINARY clients
//! must see identical failover semantics.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::frame::WireFormat;
use datacell::partition::Partitioner;
use dccluster::{bind_cluster, ClusterConfig, ShardSpec};
use dcserver::client::Client;
use monet::prelude::*;

const SYNCED: i64 = 600; // rows ingested and replicated before the kill
const POLL_DEADLINE: Duration = Duration::from_secs(60);

/// A `datacelld` child process bound to an ephemeral control port.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(data_dir: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_datacelld"))
            .args(["--listen", "127.0.0.1:0", "--fsync", "always", "--data-dir"])
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn datacelld");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).expect("read daemon banner") == 0 {
                panic!("datacelld exited before announcing its control plane");
            }
            if let Some(addr) = line.trim().strip_prefix("datacelld: control plane on ") {
                break addr.parse::<SocketAddr>().expect("daemon address");
            }
        };
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        Daemon { child, addr }
    }

    /// SIGKILL — no drop handlers, no flush: the crash under test.
    fn kill_dash_nine(mut self) {
        self.child.kill().expect("kill -9 datacelld");
        self.child.wait().expect("reap datacelld");
    }

    fn reap(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dc-failover-{tag}-{}-{:?}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn row_schema() -> Schema {
    Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)])
}

/// The ids in `lo..hi` that hash to partition `part` of 2 — the same
/// deterministic splitmix the router's forwarder uses.
fn ids_on_partition(lo: i64, hi: i64, part: usize) -> Vec<i64> {
    let rel = Relation::from_columns(vec![
        ("id".into(), Column::from_ints((lo..hi).collect())),
        ("v".into(), Column::from_ints((lo..hi).map(|i| i * 3).collect())),
    ])
    .unwrap();
    let p = Partitioner::new(0, 2).unwrap();
    (0..rel.len())
        .filter(|&i| p.shard_of(&rel, i).unwrap() == part)
        .map(|i| lo + i as i64)
        .collect()
}

fn run(format: WireFormat) {
    let tag = format!("{format}").to_lowercase();
    let dirs: Vec<PathBuf> = ["p0", "f0", "p1", "f1"]
        .iter()
        .map(|r| temp_dir(&format!("{tag}-{r}")))
        .collect();
    let p0 = Daemon::spawn(&dirs[0]);
    let f0 = Daemon::spawn(&dirs[1]);
    let p1 = Daemon::spawn(&dirs[2]);
    let f1 = Daemon::spawn(&dirs[3]);

    let mut config = ClusterConfig::in_process(2);
    config.shards = vec![
        ShardSpec::Remote(p0.addr.to_string()),
        ShardSpec::Remote(p1.addr.to_string()),
    ];
    config.followers = vec![
        ShardSpec::Remote(f0.addr.to_string()),
        ShardSpec::Remote(f1.addr.to_string()),
    ];
    config.repl_interval = Duration::from_millis(50);
    config.failover_misses = 2;
    config.control.connect_timeout = Duration::from_millis(500);
    config.control.backoff_base = Duration::from_millis(50);
    config.control.backoff_max = Duration::from_millis(200);
    let cluster = bind_cluster("127.0.0.1:0", config).expect("bind router");
    let addr = cluster.local_addr().unwrap();
    let rt = Arc::clone(cluster.runtime());
    let serve_thread = std::thread::spawn(move || {
        cluster.serve().expect("serve router");
    });

    let mut c = Client::connect(addr).unwrap();
    c.request("CREATE STREAM S (id int, v int) PERSIST SHARD BY (id)")
        .unwrap();
    c.register_query("all", "select id, v from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, format).unwrap();
    let eport = c.attach_emitter_fmt("all", 0, format).unwrap();
    let schema = row_schema();
    let mut tap = c.open_emitter_with(eport, format).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // which engine serves partition 0, and which child process is it?
    let stats = c.stats_report().unwrap();
    let engines: Vec<usize> = stats.streams[0]
        .engines
        .split(',')
        .map(|e| e.parse().unwrap())
        .collect();
    let victim_eid = engines[0]; // partition 0's engine id
    let mut by_addr: BTreeMap<String, Daemon> = [p0, f0, p1, f1]
        .into_iter()
        .map(|d| (d.addr.to_string(), d))
        .collect();
    let victim_addr = stats.shards[victim_eid].addr.clone();
    let standby_addr = stats.shards[victim_eid].follower.clone();
    assert_ne!(standby_addr, "-", "{stats:?}");

    // phase 1: a synced prefix — ingest, consume the emissions, wait
    // for replication lag 0 on both shards at this count
    let mut sink = c.open_receptor_with(rport, format, &schema).unwrap();
    for i in 0..SYNCED {
        sink.send_row(&[Value::Int(i), Value::Int(i * 3)]).unwrap();
    }
    sink.flush().unwrap();
    assert_eq!(tap.take_rows(&schema, SYNCED as usize).unwrap().len(), SYNCED as usize);
    let deadline = Instant::now() + POLL_DEADLINE;
    loop {
        rt.pump_replication_now();
        let body = c.request("REPL STATUS S").unwrap();
        if body.iter().all(|l| l.contains("lag_rows=0")) {
            break;
        }
        assert!(Instant::now() < deadline, "never synced: {body:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // phase 2: keep ingesting from a background client (reconnects on
    // error — mid-kill connections die with the primary's forwarder)
    let stop = Arc::new(AtomicBool::new(false));
    let next_id = Arc::new(AtomicI64::new(SYNCED));
    let sender = {
        let (stop, next_id) = (Arc::clone(&stop), Arc::clone(&next_id));
        let schema = schema.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let attempt = (|| -> std::result::Result<(), String> {
                    let bg = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut sink = bg
                        .open_receptor_with(rport, format, &schema)
                        .map_err(|e| e.to_string())?;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..20 {
                            let id = next_id.fetch_add(1, Ordering::Relaxed);
                            sink.send_row(&[Value::Int(id), Value::Int(id * 3)])
                                .map_err(|e| e.to_string())?;
                        }
                        sink.flush().map_err(|e| e.to_string())?;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok(())
                })();
                if attempt.is_err() {
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        })
    };

    // the crash: SIGKILL partition 0's primary mid-ingest, then drive
    // health polls until the router promotes its follower
    by_addr
        .remove(&victim_addr)
        .expect("victim daemon")
        .kill_dash_nine();
    let deadline = Instant::now() + POLL_DEADLINE;
    loop {
        rt.capture_metrics_now();
        let stats = c.stats_report().unwrap();
        if stats.shards[victim_eid].failovers >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shard {victim_eid} never failed over: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    stop.store(true, Ordering::Relaxed);
    sender.join().unwrap();

    // ---- zero acknowledged loss on the synced prefix -----------------
    // the promoted follower replayed its WAL and the re-registered query
    // re-emitted the replayed rows: collect until every prefix id of the
    // killed partition reappears. Partition 1 never re-emits (its engine
    // was untouched), and mid-ingest ids >= SYNCED pass through freely.
    let expected: Vec<i64> = ids_on_partition(0, SYNCED, 0);
    assert!(!expected.is_empty(), "partition 0 must own prefix rows");
    let mut replayed: Vec<i64> = Vec::new();
    let deadline = Instant::now() + POLL_DEADLINE;
    while replayed.len() < expected.len() {
        assert!(
            Instant::now() < deadline,
            "only {}/{} prefix rows re-emitted",
            replayed.len(),
            expected.len()
        );
        match tap.next_row(&schema).unwrap() {
            Some(row) => match (&row[0], &row[1]) {
                (Value::Int(id), Value::Int(v)) if *id < SYNCED => {
                    assert_eq!(*v, id * 3, "replayed row corrupted");
                    replayed.push(*id);
                }
                (Value::Int(_), Value::Int(_)) => {} // mid-ingest tail
                other => panic!("unexpected row {other:?}"),
            },
            None => panic!("emitter stream ended mid-verification"),
        }
    }
    replayed.sort_unstable();
    assert_eq!(
        replayed, expected,
        "re-emitted prefix must be exactly the killed shard's hash slice"
    );

    // ---- fresh ingest flows through BOTH shards ----------------------
    let fresh_lo = 1_000_000;
    let fresh_hi = fresh_lo + 40;
    let mut sink2 = c.open_receptor_with(rport, format, &schema).unwrap();
    for i in fresh_lo..fresh_hi {
        sink2.send_row(&[Value::Int(i), Value::Int(i * 3)]).unwrap();
    }
    sink2.flush().unwrap();
    let mut fresh: Vec<i64> = Vec::new();
    let deadline = Instant::now() + POLL_DEADLINE;
    while fresh.len() < (fresh_hi - fresh_lo) as usize {
        assert!(
            Instant::now() < deadline,
            "only {}/{} fresh rows arrived",
            fresh.len(),
            fresh_hi - fresh_lo
        );
        match tap.next_row(&schema).unwrap() {
            Some(row) => {
                if let (Value::Int(id), Value::Int(_)) = (&row[0], &row[1]) {
                    if (fresh_lo..fresh_hi).contains(id) {
                        fresh.push(*id);
                    }
                }
            }
            None => panic!("emitter stream ended mid-verification"),
        }
    }
    fresh.sort_unstable();
    assert_eq!(fresh, (fresh_lo..fresh_hi).collect::<Vec<i64>>());
    for part in 0..2 {
        assert!(
            !ids_on_partition(fresh_lo, fresh_hi, part).is_empty(),
            "fresh batch must exercise both shards"
        );
    }

    // ---- the new topology is reported everywhere ---------------------
    let stats = c.stats_report().unwrap();
    assert_eq!(stats.shards[victim_eid].addr, standby_addr, "{stats:?}");
    assert_eq!(stats.shards[victim_eid].follower, "-", "{stats:?}");
    assert_eq!(stats.shards[victim_eid].failovers, 1, "{stats:?}");
    assert!(!stats.shards[victim_eid].unreachable, "{stats:?}");
    let health = c.health().unwrap();
    assert!(
        health[victim_eid].contains(&format!("addr={standby_addr}")),
        "{health:?}"
    );
    let samples = dctrace::parse_exposition(&c.metrics().unwrap()).unwrap();
    let failover_total = samples
        .iter()
        .find(|s| {
            s.name == "dc_failover_total" && s.labels == format!("shard=\"{victim_eid}\"")
        })
        .expect("dc_failover_total counter");
    assert!(failover_total.value >= 1.0, "{failover_total:?}");

    c.shutdown().unwrap();
    serve_thread.join().unwrap();
    drop(tap);
    // the router never shuts remote engines down — reap the survivors
    for (_, d) in by_addr {
        d.reap();
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_dash_nine_primary_mid_ingest_fails_over_text() {
    run(WireFormat::Text);
}

#[test]
fn kill_dash_nine_primary_mid_ingest_fails_over_binary() {
    run(WireFormat::Binary);
}
