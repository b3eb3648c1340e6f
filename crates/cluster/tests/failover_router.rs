//! Router-level replication & failover tests on in-process shard
//! engines: a replicated cluster ships durable state to followers,
//! promotes a follower when the primary's health polls miss, re-points
//! the logical data-plane ports, and survives the classic retry
//! hazards (duplicate CREATE after promotion, dead follower).
//!
//! The real-process `kill -9` version lives in
//! `crates/server/tests/failover_e2e.rs`; these tests exercise the same
//! promotion protocol deterministically by driving the health poll and
//! replication pump by hand.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::frame::WireFormat;
use datacell::partition::Partitioner;
use dccluster::{bind_cluster, ClusterConfig, ClusterRuntime};
use dcserver::client::Client;
use monet::prelude::*;

struct TestCluster {
    addr: SocketAddr,
    rt: Arc<ClusterRuntime>,
    thread: Option<std::thread::JoinHandle<()>>,
    dir: std::path::PathBuf,
}

impl TestCluster {
    fn boot(shards: usize, tag: &str) -> TestCluster {
        let dir = std::env::temp_dir().join(format!(
            "dc-failover-{tag}-{}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = ClusterConfig::in_process_replicated(shards);
        config.engine.data_dir = Some(dir.clone());
        // fast + deterministic: tests drive the pump and health poll by
        // hand, the background pump just must not get in the way
        config.failover_misses = 2;
        config.control.connect_timeout = Duration::from_millis(500);
        config.control.io_timeout = Duration::from_secs(5);
        config.control.backoff_base = Duration::from_millis(50);
        config.control.backoff_max = Duration::from_millis(200);
        let cluster = bind_cluster("127.0.0.1:0", config).expect("bind cluster");
        let addr = cluster.local_addr().unwrap();
        let rt = Arc::clone(cluster.runtime());
        let thread = std::thread::spawn(move || {
            cluster.serve().expect("serve cluster");
        });
        TestCluster {
            addr,
            rt,
            thread: Some(thread),
            dir,
        }
    }

    /// Pump until every shard of `stream` reports `lag_rows=0`.
    fn pump_until_synced(&self, c: &mut Client, stream: &str) {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            self.rt.pump_replication_now();
            let body = c.request(&format!("REPL STATUS {stream}")).unwrap();
            if !body.is_empty() && body.iter().all(|l| l.contains("lag_rows=0")) {
                return;
            }
            assert!(Instant::now() < deadline, "replication never synced: {body:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Kill one engine (primary or follower) by control address — the
    /// in-process equivalent of `kill -9` for connection purposes: after
    /// SHUTDOWN the port refuses, exactly what the health poll sees.
    fn kill_engine(addr: &str) {
        let sock: SocketAddr = addr.parse().unwrap();
        let mut c = Client::connect(sock).unwrap();
        let _ = c.shutdown();
        // wait until the port actually refuses
        let deadline = Instant::now() + Duration::from_secs(10);
        while std::net::TcpStream::connect_timeout(&sock, Duration::from_millis(100)).is_ok() {
            assert!(Instant::now() < deadline, "engine at {addr} never died");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Drive health polls until shard `eid` reports a failover.
    fn wait_for_failover(&self, c: &mut Client, eid: usize) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            self.rt.capture_metrics_now();
            let stats = c.stats_report().unwrap();
            if stats.shards[eid].failovers >= 1 {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "shard {eid} never failed over: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn finish(mut self, c: &mut Client) {
        c.shutdown().unwrap();
        self.thread.take().unwrap().join().unwrap();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const SCHEMA: &str = "(id int, v int)";

fn batch(ids: std::ops::Range<i64>) -> Relation {
    Relation::from_columns(vec![
        ("id".into(), Column::from_ints(ids.clone().collect())),
        ("v".into(), Column::from_ints(ids.map(|i| i * 3).collect())),
    ])
    .unwrap()
}

/// The ids of `rel` that hash to shard `shard` of `shards` — the same
/// deterministic splitmix the router's forwarder uses.
fn ids_on_shard(rel: &Relation, shard: usize, shards: usize) -> Vec<i64> {
    let p = Partitioner::new(0, shards).unwrap();
    let mut out = Vec::new();
    for i in 0..rel.len() {
        if p.shard_of(rel, i).unwrap() == shard {
            match rel.col_at(0).get(i) {
                Value::Int(id) => out.push(id),
                other => panic!("unexpected key {other:?}"),
            }
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn primary_kill_promotes_follower_without_losing_replicated_rows() {
    let tc = TestCluster::boot(2, "promote");
    let mut c = Client::connect(tc.addr).unwrap();
    let body = c
        .request(&format!("CREATE STREAM S {SCHEMA} PERSIST SHARD BY (id)"))
        .unwrap();
    assert!(body[0].contains("persistent=true"), "{body:?}");
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let out_schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    let mut sink = c
        .open_receptor_with(rport, WireFormat::Binary, &schema)
        .unwrap();

    // phase 1: 400 rows with no consumer, sealed into per-shard
    // segments (FLUSH snapshots the basket and truncates the WALs)
    sink.send_batch(&batch(0..400)).unwrap();
    sink.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    while c.stats_report().unwrap().basket("S").map(|b| b.total_in) != Some(400) {
        assert!(Instant::now() < deadline, "phase-1 rows never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(c.flush_stream("S").unwrap(), 400);

    // the standing query watches phase-2 ids only, so registering it
    // (which drains the 400 sealed rows from the baskets) emits nothing
    // and every later emission is attributable
    c.register_query("all", "select id from [select * from S] as Z where Z.id >= 400")
        .unwrap();
    let eport = c.attach_emitter_fmt("all", 0, WireFormat::Binary).unwrap();
    let mut tap = c.open_emitter_with(eport, WireFormat::Binary).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // phase 2: 100 more rows that stay in the WAL tail
    sink.send_batch(&batch(400..500)).unwrap();
    sink.flush().unwrap();
    assert_eq!(tap.take_rows(&out_schema, 100).unwrap().len(), 100);
    tc.pump_until_synced(&mut c, "S");

    // both replica roots materialized, and shard 0's sealed segments
    // were shipped file-for-file
    let replica0 = tc.dir.join("shard-0-replica").join("streams").join("S");
    assert!(replica0.is_dir());
    assert!(tc.dir.join("shard-1-replica").join("streams").join("S").is_dir());
    let shipped_segs = std::fs::read_dir(&replica0)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".dcs"))
        .count();
    assert!(shipped_segs >= 1, "phase-1 segment must reach the replica");
    let stats = c.stats_report().unwrap();
    let primary0 = stats.shards[0].addr.clone();
    let follower0 = stats.shards[0].follower.clone();
    assert_ne!(follower0, "-", "{stats:?}");
    assert_eq!(stats.shards[0].failovers, 0, "{stats:?}");

    TestCluster::kill_engine(&primary0);
    tc.wait_for_failover(&mut c, 0);

    // topology re-pointed: the follower is the new primary
    let stats = c.stats_report().unwrap();
    assert_eq!(stats.shards[0].addr, follower0, "{stats:?}");
    assert_eq!(stats.shards[0].follower, "-", "{stats:?}");
    assert_eq!(stats.shards[0].failovers, 1, "{stats:?}");
    assert!(!stats.shards[0].unreachable, "{stats:?}");

    // the promoted engine replayed its WAL tail into the live basket and
    // the re-registered query re-emitted those rows (at-least-once): the
    // still-open emitter subscription sees exactly shard 0's slice of
    // the unsealed phase-2 batch
    let wal_resident = ids_on_shard(&batch(400..500), 0, 2);
    assert!(!wal_resident.is_empty(), "test needs phase-2 rows on shard 0");
    let replayed = tap.take_rows(&out_schema, wal_resident.len()).unwrap();
    let mut got: Vec<i64> = replayed
        .iter()
        .map(|r| match r[0] {
            Value::Int(id) => id,
            ref other => panic!("unexpected row {other:?}"),
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, wal_resident, "replayed emission must be shard 0's WAL tail");

    // fresh ingest flows end-to-end through the promoted topology (new
    // receptor connection: it resolves shard addresses at accept time)
    let mut sink2 = c
        .open_receptor_with(rport, WireFormat::Binary, &schema)
        .unwrap();
    sink2.send_batch(&batch(500..600)).unwrap();
    sink2.flush().unwrap();
    assert_eq!(tap.take_rows(&out_schema, 100).unwrap().len(), 100);

    // HEALTH scores the promoted shard as live again
    let health = c.health().unwrap();
    assert!(
        health[0].starts_with(&format!("shard 0 addr={follower0}")),
        "{health:?}"
    );
    let score: u64 = health[0]
        .split_whitespace()
        .find_map(|t| t.strip_prefix("score="))
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(score > 0, "{health:?}");

    tc.finish(&mut c);
}

#[test]
fn create_retry_after_promotion_does_not_double_create_or_leak_ports() {
    let tc = TestCluster::boot(2, "retry");
    let mut c = Client::connect(tc.addr).unwrap();
    let ddl = format!("CREATE STREAM S {SCHEMA} PERSIST SHARD BY (id)");
    c.request(&ddl).unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    tc.pump_until_synced(&mut c, "S");

    let stats = c.stats_report().unwrap();
    let ports_before = stats.receptors.len();
    TestCluster::kill_engine(&stats.shards[0].addr.clone());
    tc.wait_for_failover(&mut c, 0);

    // a client whose CREATE ack was lost retries the identical DDL after
    // the promotion: the router must reject it as a duplicate...
    let err = c.request(&ddl).expect_err("duplicate CREATE must fail");
    assert!(err.to_string().contains("duplicate"), "{err}");
    // ...without disturbing the shard map, the promoted engine's stream,
    // or the logical port set
    let stats = c.stats_report().unwrap();
    assert_eq!(
        stats.streams.iter().filter(|s| s.name == "S").count(),
        1,
        "{stats:?}"
    );
    assert_eq!(stats.server.streams, 1, "{stats:?}");
    assert_eq!(stats.receptors.len(), ports_before, "{stats:?}");
    assert_eq!(stats.shards[0].failovers, 1, "{stats:?}");

    // the surviving port still ingests into the promoted topology
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let mut sink = c
        .open_receptor_with(rport, WireFormat::Binary, &schema)
        .unwrap();
    sink.send_batch(&batch(0..50)).unwrap();
    sink.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let stats = c.stats_report().unwrap();
        if stats.basket("S").map(|b| b.total_in) == Some(50) {
            break;
        }
        assert!(Instant::now() < deadline, "{stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    tc.finish(&mut c);
}

#[test]
fn dead_follower_raises_replication_stalled_without_failover() {
    let tc = TestCluster::boot(2, "stall");
    let mut c = Client::connect(tc.addr).unwrap();
    c.request(&format!("CREATE STREAM S {SCHEMA} PERSIST SHARD BY (id)"))
        .unwrap();
    tc.pump_until_synced(&mut c, "S");

    let stats = c.stats_report().unwrap();
    let follower0 = stats.shards[0].follower.clone();
    assert_ne!(follower0, "-");
    TestCluster::kill_engine(&follower0);

    // pump into the dead follower until the stall threshold trips
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        tc.rt.pump_replication_now();
        let body = c.request("REPL STATUS S").unwrap();
        if body[0].contains("stalled=true") {
            break;
        }
        assert!(Instant::now() < deadline, "never stalled: {body:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // the primary is unaffected: HEALTH degrades with the new reason but
    // never fails the shard over (there is nothing to promote onto)
    let health = c.health().unwrap();
    assert!(health[0].contains("replication_stalled"), "{health:?}");
    let stats = c.stats_report().unwrap();
    assert_eq!(stats.shards[0].failovers, 0, "{stats:?}");
    assert!(!stats.shards[0].unreachable, "{stats:?}");

    // transfer verbs stay shard-engine-only on the router
    let err = c.request("REPL PROMOTE").expect_err("router must reject");
    assert!(err.to_string().contains("shard-engine"), "{err}");

    tc.finish(&mut c);
}
