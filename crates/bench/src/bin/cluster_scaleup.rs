//! Aggregate ingest throughput through the `dccluster` router as the
//! shard count grows.
//!
//! For each shard count, boots a cluster of in-process engines behind
//! one router, declares a `SHARD BY (id)` stream with a selective (1%)
//! continuous query, then pumps binary batches through the logical
//! receptor port from several concurrent writer connections and measures
//! tuples/sec until the last matching result lands on the logical
//! emitter port — the full loop: client → router split → shard engines →
//! router merge → client.
//!
//! The point of the figure: adding engines moves the bottleneck off the
//! single engine's append/scan/delete path, so aggregate throughput
//! scales; the `scaleup 2/1` line is the CI-tracked number.
//!
//! `cargo run --release -p dc_bench --bin cluster_scaleup
//!     [--tuples N] [--batch B] [--writers W] [--shards "1,2"]
//!     [--json PATH]`

use std::time::Instant;

use datacell::frame::WireFormat;
use dc_bench::{arg, arg_opt, Figure, JsonReport};
use dccluster::{bind_cluster, ClusterConfig};
use dcserver::client::Client;
use monet::prelude::*;

/// n tuples through a cluster with `shards` engines; returns elapsed
/// seconds (first batch sent → last result received).
fn through_cluster(n: usize, shards: usize, batch: usize, writers: usize) -> f64 {
    let cluster = bind_cluster("127.0.0.1:0", ClusterConfig::in_process(shards)).unwrap();
    let addr = cluster.local_addr().unwrap();
    let daemon = std::thread::spawn(move || cluster.serve());

    let mut c = Client::connect(addr).unwrap();
    c.create_sharded_stream("S", "(id int, v int)", "id", Some(shards))
        .unwrap();
    // 1% of v ∈ 0..1000 pass: the engines do real scan+delete work per
    // tuple while the result stream stays light
    c.register_query("q", "select id, v from [select * from S] as Z where Z.v < 10")
        .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let eport = c.attach_emitter_fmt("q", 0, WireFormat::Binary).unwrap();

    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let expected: usize = (0..n as i64).filter(|i| i % 1000 < 10).count();
    let mut tap = c.open_emitter_with(eport, WireFormat::Binary).unwrap();
    tap.set_timeout(Some(std::time::Duration::from_secs(120)))
        .unwrap();
    let reader_schema = schema.clone();
    let reader = std::thread::spawn(move || {
        let mut got = 0usize;
        while got < expected {
            match tap
                .next_batch(&reader_schema)
                .expect("results stalled >120s (lost tuples?)")
            {
                Some(b) => got += b.len(),
                None => break,
            }
        }
        got
    });

    // carve 0..n into one contiguous span per writer connection
    let span = n.div_ceil(writers);
    let mut sinks = Vec::new();
    for w in 0..writers {
        let lo = (w * span).min(n) as i64;
        let hi = ((w + 1) * span).min(n) as i64;
        if lo < hi {
            let sink = c
                .open_receptor_with(rport, WireFormat::Binary, &schema)
                .unwrap();
            sinks.push((lo, hi, sink));
        }
    }

    let start = Instant::now();
    let writer_threads: Vec<_> = sinks
        .into_iter()
        .map(|(lo, hi, mut sink)| {
            std::thread::spawn(move || {
                let mut at = lo;
                while at < hi {
                    let top = (at + batch as i64).min(hi);
                    let rel = Relation::from_columns(vec![
                        ("id".into(), Column::from_ints((at..top).collect())),
                        (
                            "v".into(),
                            Column::from_ints((at..top).map(|i| i % 1000).collect()),
                        ),
                    ])
                    .unwrap();
                    sink.send_batch(&rel).unwrap();
                    at = top;
                }
                sink.flush().unwrap();
            })
        })
        .collect();
    for t in writer_threads {
        t.join().unwrap();
    }
    let got = reader.join().unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(got, expected, "all matching tuples must arrive");

    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    elapsed
}

fn main() {
    let n: usize = arg("--tuples", 200_000);
    let batch: usize = arg("--batch", 4096);
    let writers: usize = arg("--writers", 4);
    let shard_list: String = arg("--shards", "1,2".to_string());
    let shard_counts: Vec<usize> = shard_list
        .split(',')
        .map(|s| s.trim().parse().expect("--shards takes e.g. \"1,2,4\""))
        .collect();

    let mut report = JsonReport::new("cluster_scaleup");
    report.param("tuples", n);
    report.param("batch", batch);
    report.param("writers", writers);
    report.param("shards", &shard_list);
    let mut fig = Figure::new(
        "cluster_scaleup",
        &["shards", "tuples", "writers", "elapsed_s", "tuples_per_s"],
    );
    let mut tput: Vec<(usize, f64)> = Vec::new();
    for &shards in &shard_counts {
        let elapsed = through_cluster(n, shards, batch, writers);
        let t = n as f64 / elapsed;
        tput.push((shards, t));
        report.metric(&format!("shards_{shards}_tuples_per_s"), t);
        fig.row(vec![
            shards.to_string(),
            n.to_string(),
            writers.to_string(),
            format!("{elapsed:.3}"),
            format!("{t:.0}"),
        ]);
    }
    fig.finish();
    let of = |want: usize| tput.iter().find(|(s, _)| *s == want).map(|(_, t)| *t);
    if let (Some(one), Some(two)) = (of(1), of(2)) {
        println!("\nscaleup 2/1: {:.2}x aggregate binary-ingest throughput", two / one);
        report.metric("scaleup_2_over_1", two / one);
    }
    if let Some(path) = arg_opt("--json") {
        report.write(&path);
    }
}
