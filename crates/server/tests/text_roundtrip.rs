//! TEXT ingest latency over real sockets: one row in through a receptor
//! port, out through an emitter port, 50 times in sequence. Receptors
//! append a text batch as soon as their read buffer drains, so a lone row
//! is not held back for a read timeout — 50 round trips take well under
//! 500 ms on `datacelld` and through a 1-shard `dccluster` router alike.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dccluster::{bind_cluster, ClusterConfig};
use dcserver::client::Client;
use dcserver::{bind, ServerConfig};
use monet::prelude::*;

const TRIALS: i64 = 50;
const BUDGET: Duration = Duration::from_millis(500);

/// Create a pass-through query, then time `TRIALS` sequential
/// single-row TEXT round trips (send one row, wait for its result).
fn time_round_trips(addr: SocketAddr) -> Duration {
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, v int)").unwrap();
    c.register_query("echo", "select id, v from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let eport = c.attach_emitter("echo", 0).unwrap();
    let mut sink = c.open_receptor(rport).unwrap();
    let mut tap = c.open_emitter(eport).unwrap();
    tap.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let started = Instant::now();
    for i in 0..TRIALS {
        sink.send_row(&[Value::Int(i), Value::Int(i * 2)]).unwrap();
        sink.flush().unwrap();
        let row = tap.next_row(&schema).unwrap().expect("result row");
        assert_eq!(row, vec![Value::Int(i), Value::Int(i * 2)]);
    }
    let elapsed = started.elapsed();
    c.shutdown().unwrap();
    elapsed
}

#[test]
fn text_round_trips_on_datacelld_are_not_held_for_a_read_timeout() {
    let server = bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.serve().unwrap());
    let elapsed = time_round_trips(addr);
    serving.join().unwrap();
    assert!(
        elapsed < BUDGET,
        "{TRIALS} TEXT round trips took {elapsed:?} (budget {BUDGET:?})"
    );
}

#[test]
fn text_round_trips_through_a_one_shard_router_are_not_held_for_a_read_timeout() {
    let control = bind_cluster("127.0.0.1:0", ClusterConfig::in_process(1)).unwrap();
    let addr = control.local_addr().unwrap();
    let serving = std::thread::spawn(move || control.serve().unwrap());
    let elapsed = time_round_trips(addr);
    serving.join().unwrap();
    assert!(
        elapsed < BUDGET,
        "{TRIALS} TEXT round trips took {elapsed:?} (budget {BUDGET:?})"
    );
}
