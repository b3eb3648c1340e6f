//! Open-loop data-plane latency over real sockets. One sender thread
//! pushes a 64-row BINARY frame every 1 ms for 1 s through a pass-through
//! query; a reader thread timestamps every result frame. A frame's
//! latency runs from just before its send to the arrival of its last
//! result row. The p50 must stay under 2 ms on a real `datacelld` and
//! through a 2-shard `dccluster` router.
//!
//! Sequential round trips cannot show a Nagle stall: a lone segment
//! leaves at once. Pipelined frames, written while the previous segment
//! is still unacknowledged, wait for the peer's delayed ACK (≈ 40 ms)
//! unless every hop sets `TCP_NODELAY`.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use datacell::frame::WireFormat;
use dccluster::{bind_cluster, ClusterConfig};
use dcserver::client::Client;
use monet::prelude::*;

const FRAMES: usize = 1000;
const ROWS: usize = 64;
const PERIOD: Duration = Duration::from_millis(1);
const P50_BUDGET: Duration = Duration::from_millis(2);

/// The two daemons take turns: each run wants the machine to itself.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Kills and reaps the daemon however the test ends.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)])
}

/// Frame `i`: ids `i*ROWS..(i+1)*ROWS`, every row's `v` is `i`.
fn frame(i: usize) -> Relation {
    let ids: Vec<i64> = (0..ROWS).map(|j| (i * ROWS + j) as i64).collect();
    Relation::from_columns(vec![
        ("id".into(), Column::from_ints(ids)),
        ("v".into(), Column::from_ints(vec![i as i64; ROWS])),
    ])
    .unwrap()
}

/// Drive the open loop through a pass-through query over `stream_ddl`
/// and return each frame's latency, sorted.
fn frame_latencies(addr: SocketAddr, stream_ddl: &str) -> Vec<Duration> {
    let mut c = Client::connect(addr).unwrap();
    c.request(stream_ddl).unwrap();
    c.register_query("echo", "select id, v from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let eport = c.attach_emitter_fmt("echo", 0, WireFormat::Binary).unwrap();
    let mut sink = c
        .open_receptor_with(rport, WireFormat::Binary, &schema())
        .unwrap();
    let mut tap = c.open_emitter_with(eport, WireFormat::Binary).unwrap();
    tap.set_timeout(Some(Duration::from_secs(10))).unwrap();

    let reader = std::thread::spawn(move || {
        let mut rows_seen = vec![0usize; FRAMES];
        let mut arrived = vec![None; FRAMES];
        let mut total = 0;
        while total < FRAMES * ROWS {
            let batch = tap.next_batch(&schema()).unwrap().expect("result frame");
            let at = Instant::now();
            for &v in batch.column("v").unwrap().ints().unwrap() {
                let i = v as usize;
                rows_seen[i] += 1;
                if rows_seen[i] == ROWS {
                    arrived[i] = Some(at);
                }
            }
            total += batch.len();
        }
        arrived
    });

    let frames: Vec<Relation> = (0..FRAMES).map(frame).collect();
    let start = Instant::now();
    let mut sent = Vec::with_capacity(FRAMES);
    for (i, f) in frames.iter().enumerate() {
        let due = start + PERIOD * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        sent.push(Instant::now());
        sink.send_batch(f).unwrap();
        sink.flush().unwrap();
    }
    let arrived = reader.join().unwrap();
    c.shutdown().unwrap();

    let mut lat: Vec<Duration> = sent
        .iter()
        .zip(&arrived)
        .map(|(s, a)| a.expect("every frame arrives").duration_since(*s))
        .collect();
    lat.sort();
    lat
}

fn check(what: &str, lat: &[Duration]) {
    let pct = |p: usize| lat[(lat.len() * p / 100).min(lat.len() - 1)];
    let (p50, p99) = (pct(50), pct(99));
    println!(
        "{what}: {} frames, p50 {p50:?}, p99 {p99:?}, max {:?}",
        lat.len(),
        lat[lat.len() - 1]
    );
    assert!(
        p50 < P50_BUDGET,
        "{what}: p50 {p50:?} (budget {P50_BUDGET:?})"
    );
}

#[test]
fn pipelined_frames_through_datacelld_arrive_within_two_ms() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let mut child = Command::new(env!("CARGO_BIN_EXE_datacelld"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn datacelld");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let _daemon = Daemon(child);
    let mut line = String::new();
    let addr: SocketAddr = loop {
        line.clear();
        assert_ne!(
            stderr.read_line(&mut line).unwrap(),
            0,
            "datacelld exited early"
        );
        if let Some(a) = line.trim().strip_prefix("datacelld: control plane on ") {
            break a.parse().unwrap();
        }
    };
    std::thread::spawn(move || {
        let _ = stderr.read_to_end(&mut Vec::new());
    });
    let lat = frame_latencies(addr, "CREATE STREAM S (id int, v int)");
    check("datacelld", &lat);
}

#[test]
fn pipelined_frames_through_a_two_shard_router_arrive_within_two_ms() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let control = bind_cluster("127.0.0.1:0", ClusterConfig::in_process(2)).unwrap();
    let addr = control.local_addr().unwrap();
    let serving = std::thread::spawn(move || control.serve().unwrap());
    let lat = frame_latencies(
        addr,
        "CREATE STREAM S (id int, v int) SHARD BY (id) SHARDS 2",
    );
    serving.join().unwrap();
    check("2-shard dccluster", &lat);
}
