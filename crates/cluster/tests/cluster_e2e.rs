//! End-to-end tests of the shard router: boot a 2-shard cluster on
//! ephemeral ports, drive the full loop over TCP — sharded ingest through
//! the logical receptor port, per-shard continuous queries, merged
//! results on the logical emitter port — and check the cluster is
//! **semantically transparent**: the same input through a single engine
//! yields the same result multiset.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

use datacell::frame::WireFormat;
use dccluster::{bind_cluster, ClusterConfig};
use dcserver::client::Client;
use dcserver::ServerConfig;
use monet::prelude::*;

fn boot_cluster(n: usize) -> (SocketAddr, JoinHandle<()>) {
    let cluster = bind_cluster("127.0.0.1:0", ClusterConfig::in_process(n)).expect("bind cluster");
    let addr = cluster.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        cluster.serve().expect("serve cluster");
    });
    (addr, handle)
}

fn boot_single() -> (SocketAddr, JoinHandle<()>) {
    let server = dcserver::bind("127.0.0.1:0", ServerConfig::default()).expect("bind engine");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        server.serve().expect("serve engine");
    });
    (addr, handle)
}

/// The workload both topologies run: a stream of (id, v), a continuous
/// query keeping v > threshold, fed the same 400 tuples.
const THRESHOLD: i64 = 150;

fn input_batch() -> Relation {
    Relation::from_columns(vec![
        ("id".into(), Column::from_ints((0..400).collect())),
        (
            "v".into(),
            Column::from_ints((0..400).map(|i| (i * 7919) % 1000).collect()),
        ),
    ])
    .unwrap()
}

fn expected_rows() -> Vec<(i64, i64)> {
    let mut rows: Vec<(i64, i64)> = (0..400)
        .map(|i| (i, (i * 7919) % 1000))
        .filter(|&(_, v)| v > THRESHOLD)
        .collect();
    rows.sort_unstable();
    rows
}

/// Feed the input through one control plane (single engine or cluster)
/// and collect the result multiset, in the given wire format.
fn run_workload(addr: SocketAddr, sharded: bool, format: WireFormat) -> Vec<(i64, i64)> {
    let mut c = Client::connect(addr).unwrap();
    if sharded {
        c.create_sharded_stream("S", "(id int, v int)", "id", None)
            .unwrap();
    } else {
        c.create_stream("S", "(id int, v int)").unwrap();
    }
    c.register_query(
        "hot",
        &format!("select id, v from [select * from S] as Z where Z.v > {THRESHOLD}"),
    )
    .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, format).unwrap();
    let eport = c.attach_emitter_fmt("hot", 0, format).unwrap();

    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let mut sink = c.open_receptor_with(rport, format, &schema).unwrap();
    let mut tap = c.open_emitter_with(eport, format).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();

    sink.send_batch(&input_batch()).unwrap();
    sink.flush().unwrap();

    let expected = expected_rows().len();
    let raw = tap.take_rows(&schema, expected).unwrap();
    let mut rows: Vec<(i64, i64)> = raw
        .iter()
        .map(|r| match (&r[0], &r[1]) {
            (Value::Int(id), Value::Int(v)) => (*id, *v),
            other => panic!("unexpected row {other:?}"),
        })
        .collect();
    rows.sort_unstable();
    c.shutdown().unwrap();
    rows
}

#[test]
fn two_shard_cluster_matches_single_engine_text_and_binary() {
    // the acceptance loop: identical result multisets from a 2-shard
    // cluster and a single engine, in BOTH wire formats
    for format in [WireFormat::Text, WireFormat::Binary] {
        let (cluster_addr, cluster_thread) = boot_cluster(2);
        let (single_addr, single_thread) = boot_single();
        let from_cluster = run_workload(cluster_addr, true, format);
        let from_single = run_workload(single_addr, false, format);
        assert_eq!(
            from_cluster,
            expected_rows(),
            "{format}: cluster must deliver the full result multiset"
        );
        assert_eq!(
            from_cluster, from_single,
            "{format}: sharding must be semantically transparent"
        );
        cluster_thread.join().unwrap();
        single_thread.join().unwrap();
    }
}

#[test]
fn ingest_is_hash_partitioned_across_both_shards() {
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    c.create_sharded_stream("S", "(id int, v int)", "id", Some(2))
        .unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let eport = c.attach_emitter_fmt("all", 0, WireFormat::Binary).unwrap();

    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let mut sink = c.open_receptor_with(rport, WireFormat::Binary, &schema).unwrap();
    let mut tap = c.open_emitter_with(eport, WireFormat::Binary).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();

    sink.send_batch(&input_batch()).unwrap();
    sink.flush().unwrap();
    let out_schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    let rows = tap.take_rows(&out_schema, 400).unwrap();
    assert_eq!(rows.len(), 400);

    // aggregated STATS parse with the standard typed report, and the
    // shard rows prove both engines carried real load
    let stats = c.stats_report().unwrap();
    assert_eq!(stats.basket("S").unwrap().total_in, 400, "{stats:?}");
    let q = stats.query("all").unwrap();
    assert_eq!(q.delivered_tuples, 400, "{stats:?}");
    assert_eq!(q.subscribers, 1, "{stats:?}");
    assert_eq!(stats.shards.len(), 2, "{stats:?}");
    for shard in &stats.shards {
        assert!(!shard.unreachable, "{shard:?}");
        assert!(
            shard.baskets_in > 50,
            "shard {} must carry a real share of 400 tuples: {shard:?}",
            shard.id
        );
    }

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn cluster_emitter_coalescing_is_the_sum_of_its_shards() {
    // results that pile up before any subscriber attaches are replayed
    // to the first one in a burst, which each shard's emitter coalesces
    // into one frame: the router's `emitter` line must report the sum of
    // the shard emitters behind its logical port
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    c.create_sharded_stream("S", "(id int, v int)", "id", Some(2))
        .unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let mut sink = c.open_receptor_with(rport, WireFormat::Binary, &schema).unwrap();
    const ROUNDS: i64 = 8;
    const ROWS: i64 = 16;
    for round in 0..ROUNDS {
        let ids: Vec<i64> = (round * ROWS..(round + 1) * ROWS).collect();
        let batch = Relation::from_columns(vec![
            ("id".into(), Column::from_ints(ids.clone())),
            ("v".into(), Column::from_ints(ids)),
        ])
        .unwrap();
        sink.send_batch(&batch).unwrap();
        sink.flush().unwrap();
        // one firing per round on each shard: the next round waits
        let want = ((round + 1) * ROWS) as u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while c.stats_report().unwrap().query("all").unwrap().consumed < want {
            assert!(std::time::Instant::now() < deadline, "round {round} not consumed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let eport = c.attach_emitter_fmt("all", 0, WireFormat::Binary).unwrap();
    let mut tap = c.open_emitter_with(eport, WireFormat::Binary).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let out_schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    let rows = tap.take_rows(&out_schema, (ROUNDS * ROWS) as usize).unwrap();
    assert_eq!(rows.len(), (ROUNDS * ROWS) as usize);

    let stats = c.stats_report().unwrap();
    let on_router = stats.emitter("all", eport).unwrap().coalesced_batches;
    let mut on_shards = 0;
    for shard in &stats.shards {
        let mut engine = Client::connect(shard.addr.as_str()).unwrap();
        let report = engine.stats_report().unwrap();
        on_shards += report
            .emitters
            .iter()
            .filter(|e| e.query == "all")
            .map(|e| e.coalesced_batches)
            .sum::<u64>();
    }
    assert!(on_shards > 0, "the replayed backlog must coalesce: {stats:?}");
    assert_eq!(on_router, on_shards, "{stats:?}");

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn same_key_lands_on_one_shard() {
    // all tuples share one key: exactly one engine must see them
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    c.create_sharded_stream("S", "(sym varchar, px int)", "sym", None)
        .unwrap();
    c.register_query("all", "select sym from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let eport = c.attach_emitter("all", 0).unwrap();
    let mut sink = c.open_receptor(rport).unwrap();
    let mut tap = c.open_emitter(eport).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for _ in 0..60 {
        sink.send_row(&[Value::Str("ACME".into()), Value::Int(1)]).unwrap();
    }
    sink.flush().unwrap();
    let out_schema = Schema::from_pairs(&[("sym", ValueType::Str)]);
    assert_eq!(tap.take_rows(&out_schema, 60).unwrap().len(), 60);

    let stats = c.stats_report().unwrap();
    let loads: Vec<u64> = stats.shards.iter().map(|s| s.baskets_in).collect();
    assert_eq!(loads.iter().sum::<u64>(), 60, "{stats:?}");
    assert!(
        loads.contains(&0),
        "one key must co-locate on one shard: {loads:?}"
    );

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn unsharded_streams_place_on_least_loaded_engine() {
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    // load shard engines unevenly through a sharded stream first
    c.create_sharded_stream("S", "(id int)", "id", None).unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let mut sink = c.open_receptor(rport).unwrap();
    for i in 0..100i64 {
        sink.send_row(&[Value::Int(i)]).unwrap();
    }
    sink.flush().unwrap();
    // wait until the load registered in shard STATS
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if c.stats_report().unwrap().basket("S").map(|b| b.total_in) == Some(100) {
            break;
        }
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }

    // an unsharded stream is a 1-shard stream; its single engine is
    // chosen by load, and the cluster still serves it end-to-end
    let body = c.request("CREATE STREAM solo (x int)").unwrap();
    assert!(body[0].contains("shards=1"), "{body:?}");
    c.register_query("solo_all", "select x from [select * from solo] as Z")
        .unwrap();
    let rp = c.attach_receptor("solo", 0).unwrap();
    let ep = c.attach_emitter("solo_all", 0).unwrap();
    let mut sink2 = c.open_receptor(rp).unwrap();
    let mut tap = c.open_emitter(ep).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();
    sink2.send_row(&[Value::Int(7)]).unwrap();
    sink2.flush().unwrap();
    let out_schema = Schema::from_pairs(&[("x", ValueType::Int)]);
    assert_eq!(
        tap.next_row(&out_schema).unwrap(),
        Some(vec![Value::Int(7)])
    );

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn single_shard_binary_ingest_passthrough_round_trips() {
    // entry.engines.len() == 1 && FORMAT BINARY takes the verbatim
    // frame-relay ingest path (no decode in the router) — results and
    // STATS counters must be identical to the decoding path
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    c.create_sharded_stream("S", "(id int, tag varchar)", "id", Some(1))
        .unwrap();
    c.register_query("all", "select id, tag from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let eport = c.attach_emitter_fmt("all", 0, WireFormat::Binary).unwrap();
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("tag", ValueType::Str)]);
    let mut sink = c.open_receptor_with(rport, WireFormat::Binary, &schema).unwrap();
    let mut tap = c.open_emitter_with(eport, WireFormat::Binary).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut batch = Relation::from_columns(vec![
        ("id".into(), Column::from_ints(vec![1, 2])),
        (
            "tag".into(),
            Column::from_strs(vec!["a|b".into(), String::new()]),
        ),
    ])
    .unwrap();
    batch.append_row(&[Value::Int(3), Value::Null]).unwrap();
    sink.send_batch(&batch).unwrap();
    sink.flush().unwrap();
    let rows = tap.take_rows(&schema, 3).unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0], vec![Value::Int(1), Value::Str("a|b".into())]);
    assert_eq!(rows[1], vec![Value::Int(2), Value::Str(String::new())]);
    assert_eq!(rows[2], vec![Value::Int(3), Value::Null]);
    let stats = c.stats_report().unwrap();
    assert_eq!(stats.receptors[0].accepted, 3, "{stats:?}");
    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn cluster_control_plane_rejects_bad_requests() {
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    c.create_sharded_stream("S", "(id int)", "id", None).unwrap();
    // duplicate stream
    assert!(c.create_sharded_stream("S", "(id int)", "id", None).is_err());
    // unknown key column
    assert!(c
        .create_sharded_stream("T", "(id int)", "nosuch", None)
        .is_err());
    // more shards than engines
    assert!(c
        .create_sharded_stream("U", "(id int)", "id", Some(99))
        .is_err());
    // unknown stream/query on ATTACH
    assert!(c.attach_receptor("nosuch", 0).is_err());
    assert!(c.attach_emitter("nosuch", 0).is_err());
    // bad SQL fans out and fails everywhere
    assert!(c.register_query("broken", "selectt nonsense").is_err());
    // EXEC: a stream create routes through the shard map (placement)...
    let body = c.exec("create stream ES (x int)").unwrap();
    assert!(body[0].contains("shards=1"), "{body:?}");
    // ...setup DDL fans out, but data statements are rejected outright
    c.exec("create table REF (k int)").unwrap();
    assert!(c.exec("insert into REF values (1)").is_err());
    assert!(c.exec("select * from REF").is_err());
    // the session survives all of the above
    c.ping().unwrap();
    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn cluster_metrics_merge_and_trace_dump() {
    // METRICS on the router is the bucket-wise merge of every shard's
    // exposition plus the shard_up gauge; TRACE DUMP carries per-shard
    // firing events tagged with their origin
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    c.create_sharded_stream("S", "(id int, v int)", "id", None)
        .unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let eport = c.attach_emitter("all", 0).unwrap();
    let mut sink = c.open_receptor(rport).unwrap();
    let mut tap = c.open_emitter(eport).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for i in 0..200i64 {
        sink.send_row(&[Value::Int(i), Value::Int(i)]).unwrap();
    }
    sink.flush().unwrap();
    let out_schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    assert_eq!(tap.take_rows(&out_schema, 200).unwrap().len(), 200);

    let body = c.metrics().unwrap();
    let samples = dctrace::parse_exposition(&body).expect("merged exposition must parse");
    // both shards report up
    for shard in 0..2 {
        let up = samples
            .iter()
            .find(|s| s.name == "dc_shard_up" && s.labels == format!("shard=\"{shard}\""))
            .expect("shard_up gauge");
        assert_eq!(up.value, 1.0, "{up:?}");
    }
    // the merged fire histogram sums both shards' firings
    let fire_count = samples
        .iter()
        .find(|s| s.name == "dc_fire_micros_count" && s.labels.contains("query=\"all\""))
        .expect("merged fire histogram");
    assert!(fire_count.value >= 2.0, "both shards fired: {fire_count:?}");

    // aggregated STATS carries the worst-shard latency summary
    let stats = c.stats_report().unwrap();
    let q = stats.query("all").unwrap();
    assert!(q.max_micros >= q.p50_micros, "{q:?}");

    // TRACE DUMP merges shard recorders, each line tagged with its origin
    let dump = c.trace_dump_query("all").unwrap();
    assert!(
        dump.iter()
            .any(|l| l.starts_with("shard=") && l.contains("kind=fire_end")),
        "{dump:?}"
    );
    assert!(c.trace_dump_query("nosuch").unwrap().is_empty());

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn cluster_trace_stream_relays_shard_events() {
    // TRACE QUERY ON opens a logical tap port relaying live flight-recorder
    // lines from every shard running the query
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    c.create_sharded_stream("S", "(id int)", "id", None).unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let eport = c.attach_emitter("all", 0).unwrap();

    let tport = c.trace_on("all").unwrap();
    let mut trace = c.open_trace(tport).unwrap();
    trace.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let mut sink = c.open_receptor(rport).unwrap();
    let mut tap = c.open_emitter(eport).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for i in 0..50i64 {
        sink.send_row(&[Value::Int(i)]).unwrap();
    }
    sink.flush().unwrap();
    let out_schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    assert_eq!(tap.take_rows(&out_schema, 50).unwrap().len(), 50);

    let line = trace.next_line().unwrap().expect("live trace line");
    assert!(line.contains("kind="), "{line}");
    c.trace_off("all").unwrap();
    assert!(c.trace_on("nosuch").is_err());

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn explain_routes_through_the_router() {
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    c.create_sharded_stream("S", "(id int, v int, w int)", "id", None)
        .unwrap();
    c.register_query(
        "hot",
        "select id from [select id, v from S where v > 10] as Z",
    )
    .unwrap();

    // raw-script EXPLAIN forwards to a shard engine and comes back whole
    let plan = c
        .explain("select id from [select id, v from S where v > 10] as Z")
        .unwrap()
        .join("\n");
    assert!(plan.contains("fast select"), "{plan}");
    assert!(plan.contains("cols=id,v"), "pruned columns survive routing: {plan}");

    // EXPLAIN QUERY resolves through the router's registry; the shard's
    // live delta line rides along
    let plan = c.explain_query("hot").unwrap().join("\n");
    assert!(plan.starts_with("query hot AS "), "{plan}");
    assert!(plan.contains("lineage=selection-vector"), "{plan}");
    assert!(plan.contains("delta delta_rows="), "{plan}");
    assert!(c.explain_query("nosuch").is_err());

    // delta-capable shapes render their physical operators through the
    // router too
    let plan = c
        .explain("select A.v as a, B.w as b from A, B where A.id = B.id")
        .unwrap()
        .join("\n");
    assert!(plan.contains("hash_join"), "{plan}");
    assert!(plan.contains("arrange A.id (shared)"), "{plan}");
    assert!(plan.contains("mode delta|full"), "{plan}");
    let plan = c
        .explain("select k, count(*) as n from A group by k")
        .unwrap()
        .join("\n");
    assert!(plan.contains("grouped_agg"), "{plan}");

    // aggregated STATS still parses with the new plan fields in the line
    let stats = c.stats_report().unwrap();
    assert!(stats.query("hot").is_some(), "{stats:?}");

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn detach_fans_out_to_every_shard() {
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    c.create_sharded_stream("S", "(id int, v int)", "id", None)
        .unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let eport = c.attach_emitter("all", 0).unwrap();

    // each logical port fronts one shard-side port per engine; DETACH
    // reports how many of those it closed
    let body = c.request(&format!("DETACH RECEPTOR S PORT {rport}")).unwrap();
    assert_eq!(body, vec!["detached=2".to_string()]);
    let body = c.request(&format!("DETACH EMITTER all PORT {eport}")).unwrap();
    assert_eq!(body, vec!["detached=2".to_string()]);

    let stats = c.stats_report().unwrap();
    assert!(stats.receptors.is_empty(), "{stats:?}");
    assert!(stats.emitters.is_empty(), "{stats:?}");
    assert!(c.detach_receptor("S", rport).is_err());

    // fresh attachments still work end to end
    let rport2 = c.attach_receptor("S", 0).unwrap();
    assert_ne!(rport2, 0);

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn register_query_reports_partial_success_detail() {
    let (addr, cluster_thread) = boot_cluster(2);
    let mut c = Client::connect(addr).unwrap();
    // an UNSHARDED stream lives on exactly one of the two engines, so a
    // query over it registers on one engine and is declined by the other
    c.create_stream("solo", "(x int)").unwrap();
    let body = c
        .request("REGISTER QUERY one AS select x from [select * from solo] as Z")
        .unwrap();
    let summary = &body[0];
    assert!(summary.starts_with("query=one "), "{summary}");
    assert!(summary.contains("skipped=1"), "{summary}");
    // one detail line per declining engine, carrying its exact error
    assert_eq!(body.len(), 2, "{body:?}");
    assert!(body[1].starts_with("skipped engine="), "{body:?}");
    assert!(body[1].contains("error="), "{body:?}");

    // the typed STATS report shows the narrowed placement
    let stats = c.stats_report().unwrap();
    let q = stats.query("one").expect("query row");
    assert_eq!(q.engines.split(',').count(), 1, "{q:?}");

    // a fully-resolving query reports skipped=0 and both engines
    c.create_sharded_stream("S", "(id int)", "id", None).unwrap();
    let body = c
        .request("REGISTER QUERY all AS select id from [select * from S] as Z")
        .unwrap();
    assert_eq!(body.len(), 1, "{body:?}");
    assert!(body[0].contains("engines=0,1"), "{body:?}");
    assert!(body[0].contains("skipped=0"), "{body:?}");

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
}

#[test]
fn persistent_sharded_stream_logs_and_seals_per_shard() {
    let dir = std::env::temp_dir().join(format!(
        "dc-cluster-persist-{}-{:?}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut config = ClusterConfig::in_process(2);
    config.engine.data_dir = Some(dir.clone());
    let cluster = bind_cluster("127.0.0.1:0", config).expect("bind cluster");
    let addr = cluster.local_addr().unwrap();
    let cluster_thread = std::thread::spawn(move || {
        cluster.serve().expect("serve cluster");
    });

    let mut c = Client::connect(addr).unwrap();
    let body = c
        .request("CREATE STREAM S (id int, v int) PERSIST SHARD BY (id)")
        .unwrap();
    assert!(body[0].contains("persistent=true"), "{body:?}");

    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let mut sink = c
        .open_receptor_with(rport, WireFormat::Binary, &schema)
        .unwrap();
    sink.send_batch(&input_batch()).unwrap();
    sink.flush().unwrap();

    // aggregated STATS: the logical basket row is persistent and its
    // WAL bytes sum the per-shard logs
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let basket = loop {
        let stats = c.stats_report().unwrap();
        let b = stats.basket("S").expect("basket row").clone();
        if b.total_in >= 400 || std::time::Instant::now() > deadline {
            break b;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(basket.total_in, 400, "{basket:?}");
    assert!(basket.persistent, "{basket:?}");
    assert!(basket.wal_bytes > 0, "{basket:?}");

    // FLUSH STREAM fans out and sums the per-shard sealed rows
    let sealed = c.flush_stream("S").unwrap();
    assert_eq!(sealed, 400);
    let stats = c.stats_report().unwrap();
    let basket = stats.basket("S").expect("basket row");
    assert!(basket.segments >= 2, "one+ segment per shard: {basket:?}");
    assert_eq!(basket.wal_bytes, 0, "wals truncated after seal: {basket:?}");

    // both shards persisted under their own roots
    assert!(dir.join("shard-0").join("streams").join("S").is_dir());
    assert!(dir.join("shard-1").join("streams").join("S").is_dir());

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group rendered `TRACE SPANS` output back into `(batch id, span lines)`.
fn span_groups(lines: &[String]) -> Vec<(u64, Vec<String>)> {
    let mut groups: Vec<(u64, Vec<String>)> = Vec::new();
    for l in lines {
        if let Some(rest) = l.strip_prefix("batch ") {
            let id: u64 = rest
                .split_whitespace()
                .next()
                .and_then(|t| t.parse().ok())
                .unwrap_or_else(|| panic!("bad batch header: {l}"));
            groups.push((id, Vec::new()));
        } else if let Some((_, spans)) = groups.last_mut() {
            spans.push(l.clone());
        }
    }
    groups
}

#[test]
fn distributed_trace_spans_metrics_history_and_health() {
    // the observability acceptance loop: one sampled batch through a
    // 2-shard persistent cluster must reconstruct as a single span tree
    // spanning the router and both shard recorders; the router's
    // snapshot ring must yield a non-zero windowed ingest rate; HEALTH
    // must score both shards
    let dir = std::env::temp_dir().join(format!(
        "dc-cluster-trace-{}-{:?}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut config = ClusterConfig::in_process(2);
    config.engine.data_dir = Some(dir.clone());
    config.engine.trace_sample = 1; // stamp every batch
    let cluster = bind_cluster("127.0.0.1:0", config).expect("bind cluster");
    let addr = cluster.local_addr().unwrap();
    let rt = std::sync::Arc::clone(cluster.runtime());
    let cluster_thread = std::thread::spawn(move || {
        cluster.serve().expect("serve cluster");
    });

    let mut c = Client::connect(addr).unwrap();
    c.request("CREATE STREAM S (id int, v int) PERSIST SHARD BY (id)")
        .unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let eport = c.attach_emitter_fmt("all", 0, WireFormat::Binary).unwrap();
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let mut sink = c
        .open_receptor_with(rport, WireFormat::Binary, &schema)
        .unwrap();
    let mut tap = c.open_emitter_with(eport, WireFormat::Binary).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // baseline snapshot before any ingest, so the next one has a window
    rt.capture_metrics_now();

    sink.send_batch(&input_batch()).unwrap();
    sink.flush().unwrap();
    let out_schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    assert_eq!(tap.take_rows(&out_schema, 400).unwrap().len(), 400);

    // ---- TRACE SPANS: the cross-process span tree --------------------
    // results delivered ⇒ every hop already recorded; poll only to let
    // straggler emitter writes land
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let (batch_id, spans) = loop {
        let body = c.trace_spans(None).unwrap();
        let groups = span_groups(&body);
        let complete = groups.into_iter().find(|(_, spans)| {
            let router_receptor = spans
                .iter()
                .any(|l| l.contains("shard=router") && l.contains("hop=receptor"));
            let forward = spans
                .iter()
                .any(|l| l.contains("shard=router") && l.contains("hop=forward"));
            let shard_receptor = spans.iter().any(|l| {
                !l.contains("shard=router") && l.contains("hop=receptor")
            });
            let wal = spans.iter().any(|l| l.contains("hop=wal_append"));
            let dwell = spans.iter().any(|l| l.contains("hop=basket_dwell"));
            let fire = spans.iter().any(|l| l.contains("hop=fire"));
            let emitter = spans.iter().any(|l| l.contains("hop=emitter"));
            router_receptor && forward && shard_receptor && wal && dwell && fire && emitter
        });
        if let Some(found) = complete {
            break found;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no complete span tree: {body:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    // the batch hash-split across both shards: both recorders contribute
    // spans under the SAME batch id
    assert!(
        spans.iter().any(|l| l.contains("shard=0 ")),
        "{spans:?}"
    );
    assert!(
        spans.iter().any(|l| l.contains("shard=1 ")),
        "{spans:?}"
    );
    // BATCH filter narrows to exactly this tree
    let one = c.trace_spans(Some(batch_id)).unwrap();
    let one_groups = span_groups(&one);
    assert_eq!(one_groups.len(), 1, "{one:?}");
    assert_eq!(one_groups[0].0, batch_id, "{one:?}");

    // ---- METRICS HISTORY: windowed ingest rate -----------------------
    // wait for both shards' ingest counters, then force two more ticks:
    // the 2nd derives the windowed gauges, the 3rd snapshots them
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while c.stats_report().unwrap().basket("S").map(|b| b.total_in) != Some(400) {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }
    rt.capture_metrics_now();
    rt.capture_metrics_now();
    let history = c.metrics_history(None, None).unwrap();
    let mut stamps: Vec<&str> = history
        .iter()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    stamps.dedup();
    assert!(stamps.len() >= 2, "need >= 2 snapshots: {stamps:?}");
    let rate_lines = c.metrics_history(Some("dc_ingest_rate"), None).unwrap();
    assert!(
        rate_lines.iter().any(|l| {
            l.split_whitespace()
                .last()
                .and_then(|v| v.parse::<f64>().ok())
                .is_some_and(|v| v > 0.0)
        }),
        "windowed ingest rate must be non-zero: {rate_lines:?}"
    );
    // LAST n truncates to the most recent snapshots
    let last_one = c.metrics_history(None, Some(1)).unwrap();
    let mut last_stamps: Vec<&str> = last_one
        .iter()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    last_stamps.dedup();
    assert_eq!(last_stamps.len(), 1, "{last_stamps:?}");

    // ---- HEALTH + health gauges --------------------------------------
    let health = c.health().unwrap();
    assert_eq!(health.len(), 2, "{health:?}");
    for (i, line) in health.iter().enumerate() {
        assert!(line.starts_with(&format!("shard {i} addr=")), "{line}");
        let score: u64 = line
            .split_whitespace()
            .find_map(|t| t.strip_prefix("score="))
            .and_then(|v| v.parse().ok())
            .expect("score field");
        // live in-process shards must never read as down
        assert!(score > 0, "{line}");
        assert!(line.contains("reasons="), "{line}");
    }
    let samples = dctrace::parse_exposition(&c.metrics().unwrap()).unwrap();
    for shard in 0..2 {
        let g = samples
            .iter()
            .find(|s| {
                s.name == "dc_health_score" && s.labels == format!("shard=\"{shard}\"")
            })
            .expect("dc_health_score{shard} gauge");
        assert!(g.value > 0.0, "{g:?}");
    }
    // the router republishes ONE uptime gauge (shard-local copies are
    // dropped before the merge, so the value is never a 3-way sum)
    assert_eq!(
        samples
            .iter()
            .filter(|s| s.name == "dc_uptime_seconds")
            .count(),
        1,
        "derived gauges must not merge across shards"
    );

    c.shutdown().unwrap();
    cluster_thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
