//! Control-plane conformance: `datacelld` and `dccluster` serve one verb
//! table through one dispatch, so the same verb script must get the same
//! reply shapes from an in-process engine and from a 1-shard router.
//!
//! For every verb both daemons serve, the reply keys (`k=` tokens of the
//! body) must match; a router may only add the placement keys of
//! [`CLUSTER_KEYS`]. `EXPLAIN` bodies must be the same lines up to their
//! values. Both daemons'
//! `STATS` bodies must survive `StatsReport::parse` followed by
//! `StatsReport::render` line for line, and on every line kind both
//! emit, the engine's keys must be a prefix of the router's: a cluster
//! only appends keys.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;

use dccluster::{bind_cluster, ClusterConfig};
use dcserver::client::Client;
use dcserver::stats::StatsReport;
use dcserver::{bind, ServerConfig};
use monet::prelude::*;

/// Reply keys only a shard router adds: where a stream or query was
/// placed, and which engines declined a registration.
const CLUSTER_KEYS: [&str; 4] = ["shards", "key", "engines", "skipped"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dc-conformance-{tag}-{}-{:?}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `k` of every `k=v` token in a reply body.
fn keys(body: &[String]) -> BTreeSet<String> {
    body.iter()
        .flat_map(|l| l.split_whitespace())
        .filter_map(|w| w.split_once('=').map(|(k, _)| k.to_string()))
        .collect()
}

/// A reply body with every `k=v` token cut to its key — its shape, free of
/// values such as timings and ports.
fn shape(body: &[String]) -> Vec<String> {
    body.iter()
        .map(|l| {
            let words: Vec<&str> = l
                .split(' ')
                .map(|w| w.split_once('=').map_or(w, |(k, _)| k))
                .collect();
            words.join(" ")
        })
        .collect()
}

/// The keys of one `STATS` line, in order.
fn line_keys(line: &str) -> Vec<&str> {
    line.split_whitespace()
        .filter_map(|w| w.split_once('=').map(|(k, _)| k))
        .collect()
}

/// One verb's reply from a daemon: the body, or `ERR` text.
type Reply = std::result::Result<Vec<String>, String>;

/// Run the verb script on the daemon at `addr`; returns each verb's
/// reply by label, then shuts the daemon down.
fn run_script(addr: SocketAddr) -> Vec<(&'static str, Reply)> {
    let mut c = Client::connect(addr).unwrap();
    let mut replies = Vec::new();
    let mut ask = |c: &mut Client, label: &'static str, line: &str| {
        let reply = c.request(line).map_err(|e| e.to_string());
        replies.push((label, reply.clone()));
        reply
    };
    let port = |reply: Reply| -> u16 {
        let body = reply.unwrap();
        body[0].strip_prefix("port=").unwrap().parse().unwrap()
    };
    ask(&mut c, "ping", "PING").unwrap();
    ask(
        &mut c,
        "create persist",
        "CREATE STREAM S (id int, v int) PERSIST",
    )
    .unwrap();
    ask(&mut c, "create table", "CREATE TABLE T (a int)").unwrap();
    let sql = "select id, v from [select * from S] as Z where Z.v > 10";
    ask(&mut c, "register", &format!("REGISTER QUERY q AS {sql}")).unwrap();
    let rport = port(ask(
        &mut c,
        "attach receptor",
        "ATTACH RECEPTOR S ON PORT 0",
    ));
    let eport = port(ask(
        &mut c,
        "attach emitter",
        "ATTACH EMITTER q ON PORT 0 FORMAT BINARY",
    ));

    // a few rows through the ports, so STATS carries live counters
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let mut tap = c
        .open_emitter_with(eport, datacell::frame::WireFormat::Binary)
        .unwrap();
    tap.set_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut sink = c.open_receptor(rport).unwrap();
    for i in 0..4 {
        sink.send_row(&[Value::Int(i), Value::Int(100 + i)])
            .unwrap();
    }
    sink.flush().unwrap();
    let mut seen = 0;
    while seen < 4 {
        seen += tap
            .next_batch(&schema)
            .unwrap()
            .expect("result batch")
            .len();
    }

    ask(&mut c, "flush", "FLUSH STREAM S").unwrap();
    ask(&mut c, "explain", &format!("EXPLAIN {sql}")).unwrap();
    ask(&mut c, "explain query", "EXPLAIN QUERY q").unwrap();
    ask(&mut c, "stats", "STATS").unwrap();
    ask(&mut c, "metrics", "METRICS").unwrap();
    ask(&mut c, "trace on", "TRACE QUERY q ON").unwrap();
    ask(&mut c, "trace off", "TRACE QUERY q OFF").unwrap();
    ask(
        &mut c,
        "detach emitter",
        &format!("DETACH EMITTER q PORT {eport}"),
    )
    .unwrap();
    ask(
        &mut c,
        "detach receptor",
        &format!("DETACH RECEPTOR S PORT {rport}"),
    )
    .unwrap();
    ask(&mut c, "quit", "QUIT").unwrap();
    // QUIT closed this session; the daemon still serves others
    assert!(c.ping().is_err(), "QUIT must close the connection");
    drop((sink, tap));
    Client::connect(addr).unwrap().shutdown().unwrap();
    replies
}

fn reply<'a>(replies: &'a [(&str, Reply)], label: &str) -> &'a [String] {
    let (_, r) = replies.iter().find(|(l, _)| *l == label).unwrap();
    r.as_ref().unwrap()
}

/// `render(parse(body)) == body`, line for line.
fn assert_stats_roundtrip(daemon: &str, body: &[String]) {
    let rendered = StatsReport::parse(body).unwrap().render();
    assert_eq!(rendered.len(), body.len(), "{daemon}: STATS line count");
    for (got, want) in rendered.iter().zip(body) {
        assert_eq!(got, want, "{daemon}: STATS line does not round-trip");
    }
}

#[test]
fn both_daemons_answer_the_verb_script_with_the_same_reply_keys() {
    let engine_dir = temp_dir("engine");
    let engine = bind(
        "127.0.0.1:0",
        ServerConfig {
            data_dir: Some(engine_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let engine_addr = engine.local_addr().unwrap();
    let serving = std::thread::spawn(move || engine.serve().unwrap());
    let on_engine = run_script(engine_addr);
    serving.join().unwrap();

    let cluster_dir = temp_dir("cluster");
    let mut config = ClusterConfig::in_process(1);
    config.engine.data_dir = Some(cluster_dir.clone());
    let router = bind_cluster("127.0.0.1:0", config).unwrap();
    let router_addr = router.local_addr().unwrap();
    let serving = std::thread::spawn(move || router.serve().unwrap());
    let on_router = run_script(router_addr);
    serving.join().unwrap();

    for ((label, e), (_, r)) in on_engine.iter().zip(&on_router) {
        let (e, r) = (e.as_ref().unwrap(), r.as_ref().unwrap());
        match *label {
            // plans: the same lines, up to values such as compile time
            "explain" | "explain query" => {
                assert_eq!(shape(e), shape(r), "{label}: plans differ")
            }
            "stats" | "metrics" => {}
            _ => {
                let (ek, rk) = (keys(e), keys(r));
                assert!(ek.is_subset(&rk), "{label}: engine {e:?} vs router {r:?}");
                let extra: Vec<&String> = rk.difference(&ek).collect();
                assert!(
                    extra.iter().all(|k| CLUSTER_KEYS.contains(&k.as_str())),
                    "{label}: router-only keys {extra:?} in {r:?}"
                );
            }
        }
    }

    let (e_stats, r_stats) = (reply(&on_engine, "stats"), reply(&on_router, "stats"));
    assert_stats_roundtrip("datacelld", e_stats);
    assert_stats_roundtrip("dccluster", r_stats);
    for line in e_stats {
        let kind = line.split_whitespace().next().unwrap();
        let Some(twin) = r_stats
            .iter()
            .find(|l| l.split_whitespace().next() == Some(kind))
        else {
            continue;
        };
        let (ek, rk) = (line_keys(line), line_keys(twin));
        assert_eq!(
            ek,
            rk[..ek.len().min(rk.len())],
            "{kind}: {line:?} vs {twin:?}"
        );
    }
    for body in [reply(&on_engine, "metrics"), reply(&on_router, "metrics")] {
        let samples = dctrace::parse_exposition(body).expect("METRICS parses");
        assert!(!samples.is_empty(), "METRICS is empty");
    }

    let _ = std::fs::remove_dir_all(engine_dir);
    let _ = std::fs::remove_dir_all(cluster_dir);
}
