//! The `linearroad` workload: the paper's benchmark replayed in-process.
//! A seeded generator builds the three simulated hours; each replay
//! builds the seven collections of `linearroad::queries::build_network`
//! on a virtual clock and, per stream-second, appends that second's
//! tuples and runs the single-threaded `Scheduler` to quiescence. Only
//! the replay is timed; generation and network build are set-up.

use std::sync::Arc;
use std::time::Instant;

use datacell::clock::{VirtualClock, MICROS_PER_SEC};
use datacell::scheduler::{FactoryStats, Scheduler};
use linearroad::driver::{LoadSample, LrRun};
use linearroad::gen::{generate, AccidentPlan, GenConfig, Workload};
use linearroad::queries::{build_network, LrBaskets, LrState};
use linearroad::types::InputTuple;
use linearroad::validate::validate;
use monet::prelude::*;
use parking_lot::Mutex;
use std::result::Result;

use crate::gen::row_digest;
use crate::report::{self, median, percentile, print_config, Outcome};
use crate::trace::Recorder;
use crate::{end_to_end, layers, Args};

/// Scale factor of the measured replays (1.0 ≈ the paper's SF 1).
pub const SCALE: f64 = 0.04;
pub const TINY_SCALE: f64 = 0.004;
/// Simulated seconds: the benchmark's three hours.
pub const DURATION: i64 = 10_800;
/// Stream-seconds between load samples (what validation reads).
const SAMPLE_EVERY: i64 = 60;
const SETUPS: usize = 3;
/// Replays per run, at least; more while `--seconds` allows.
const MIN_REPLAYS: usize = 3;

/// A generated workload ready to replay.
pub struct Prepared {
    pub cfg: GenConfig,
    pub tuples: Vec<InputTuple>,
    pub accidents: Vec<AccidentPlan>,
    /// Rows per stream-second, in input-schema order.
    pub seconds: Vec<Vec<Vec<Value>>>,
    pub total: usize,
}

pub fn prepare(seed: u64, scale: f64) -> Prepared {
    let cfg = GenConfig {
        scale,
        duration_secs: DURATION,
        seed,
        xways: 1,
        query_fraction: 0.01,
    };
    let w = generate(&cfg);
    let seconds: Vec<Vec<Vec<Value>>> = w
        .by_second(DURATION)
        .iter()
        .map(|b| b.iter().map(InputTuple::to_row).collect())
        .collect();
    let total = w.tuples.len();
    Prepared {
        cfg,
        tuples: w.tuples,
        accidents: w.accidents,
        seconds,
        total,
    }
}

/// One built network.
pub struct Net {
    clock: Arc<VirtualClock>,
    pub baskets: LrBaskets,
    state: Arc<Mutex<LrState>>,
    pub sched: Scheduler,
}

pub fn network(p: &Prepared) -> Net {
    let clock = Arc::new(VirtualClock::new());
    let baskets = LrBaskets::new();
    let state = Arc::new(Mutex::new(LrState::new(p.cfg.seed)));
    let mut sched = Scheduler::new();
    for f in build_network(&baskets, Arc::clone(&state), clock.clone()) {
        sched.add(f);
    }
    Net {
        clock,
        baskets,
        state,
        sched,
    }
}

/// What one replay produced.
pub struct Replay {
    pub wall_s: f64,
    /// Per stream-second: ingest → quiescence, µs.
    pub lat_us: Vec<f64>,
    /// Per stream-second: the replay loop's own gap before the ingest, µs.
    pub gap_us: Vec<f64>,
    pub load: Vec<(String, Vec<LoadSample>)>,
    pub max_second_ms: f64,
    pub net: Net,
}

impl Replay {
    pub fn stats(&self) -> &[FactoryStats] {
        self.net.sched.stats()
    }
}

/// Replay every stream-second through `net`. With a recording
/// recorder, each second is a root span with the basket append and every
/// scheduler round as children.
pub fn replay(p: &Prepared, mut net: Net, rec: &mut Recorder) -> Result<Replay, String> {
    let names = net.sched.factory_names();
    let mut load: Vec<(String, Vec<LoadSample>)> =
        names.iter().map(|n| (n.clone(), Vec::new())).collect();
    let mut prev = vec![(0u64, 0u64, 0u64); names.len()];
    let mut lat_us = Vec::with_capacity(p.seconds.len());
    let mut gap_us = Vec::with_capacity(p.seconds.len());
    let mut max_second_ms = 0.0f64;
    let started = Instant::now();
    let mut last_end = started;
    for (sec, rows) in p.seconds.iter().enumerate() {
        let t = Instant::now();
        gap_us.push(t.duration_since(last_end).as_nanos() as f64 / 1e3);
        net.clock.set(sec as i64 * MICROS_PER_SEC + 1);
        let Net {
            baskets,
            sched,
            clock,
            ..
        } = &mut net;
        rec.span(
            "second",
            sec as u64,
            rows.len() as u64,
            |rec| -> Result<(), String> {
                if !rows.is_empty() {
                    rec.span("basket.append", sec as u64, rows.len() as u64, |_| {
                        baskets.input.append_rows(rows, clock.as_ref())
                    })
                    .map_err(|e| format!("ingest: {e}"))?;
                }
                for _ in 0..1_000 {
                    let r = rec
                        .span("factory.fire", sec as u64, 0, |_| sched.run_round())
                        .map_err(|e| format!("scheduler: {e}"))?;
                    if r.fired == 0 {
                        return Ok(());
                    }
                }
                Err(format!("second {sec} did not quiesce in 1000 rounds"))
            },
        )?;
        last_end = Instant::now();
        let dt = last_end.duration_since(t);
        lat_us.push(dt.as_nanos() as f64 / 1e3);
        max_second_ms = max_second_ms.max(dt.as_secs_f64() * 1e3);
        let sec = sec as i64;
        if sec % SAMPLE_EVERY == SAMPLE_EVERY - 1 || sec == DURATION - 1 {
            for (i, s) in net.sched.stats().iter().enumerate() {
                let cur = (s.busy_micros, s.firings, s.consumed);
                load[i].1.push(LoadSample {
                    time_sec: sec + 1,
                    busy_ms: (cur.0 - prev[i].0) as f64 / 1e3,
                    firings: cur.1 - prev[i].1,
                    consumed: cur.2 - prev[i].2,
                });
                prev[i] = cur;
            }
        }
    }
    Ok(Replay {
        wall_s: started.elapsed().as_secs_f64(),
        lat_us,
        gap_us,
        load,
        max_second_ms,
        net,
    })
}

/// Order-independent digest of every output basket and the accident
/// count: equal digests mean equal results.
fn output_digest(r: &Replay) -> u64 {
    let b = &r.net.baskets;
    let mut d = 0u64;
    for (tag, rel) in [
        (1i64, &b.tolls),
        (2, &b.accalerts),
        (3, &b.balans),
        (4, &b.expans),
    ] {
        let rel = rel.snapshot();
        for row in rel.iter_rows() {
            let vals: Vec<i64> = std::iter::once(tag)
                .chain(row.iter().map(value_bits))
                .collect();
            d = d.wrapping_add(row_digest(&vals));
        }
    }
    let accidents = r.net.state.lock().accidents.accidents().len() as i64;
    d.wrapping_add(row_digest(&[5, accidents]))
}

/// An integer standing for any value, for digests.
fn value_bits(v: &Value) -> i64 {
    v.as_int()
        .or_else(|| v.as_double().map(|d| d.to_bits() as i64))
        .or_else(|| v.as_bool().map(i64::from))
        .or_else(|| {
            v.as_str()
                .map(|s| row_digest(&s.bytes().map(i64::from).collect::<Vec<_>>()) as i64)
        })
        .unwrap_or(i64::MIN)
}

/// Run `linearroad::validate` on one replay. `corrupt` drops one toll
/// notification first, as a damaged result.
pub fn validate_replay(p: &Prepared, r: &Replay, corrupt: bool) -> (bool, String) {
    let b = &r.net.baskets;
    let mut tolls = b.tolls.snapshot();
    if corrupt && !tolls.is_empty() {
        let keep = monet::selvec::SelVec::range(0, tolls.len() as u32 - 1);
        tolls = tolls.gather(&keep).expect("gather");
    }
    let run = LrRun {
        load: r.load.clone(),
        arrivals: p.seconds.iter().map(Vec::len).collect(),
        state: Arc::clone(&r.net.state),
        tolls,
        alerts: b.accalerts.snapshot(),
        balance_answers: b.balans.snapshot(),
        expenditure_answers: b.expans.snapshot(),
        workload: Workload {
            tuples: p.tuples.clone(),
            accidents: p.accidents.clone(),
        },
        total_input: p.total,
        wall_secs: r.wall_s,
        max_second_ms: r.max_second_ms,
    };
    let report = validate(&run);
    (report.all_passed(), report.render())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = if args.tiny { TINY_SCALE } else { SCALE };
    print_config(&[
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        (
            "loop",
            "closed (virtual clock, one stream-second at a time)".to_string(),
        ),
        ("scale", scale.to_string()),
        ("simulated_seconds", DURATION.to_string()),
        ("batch", "one stream-second".to_string()),
    ]);
    // set-up: generation plus network build, several times; keep the last
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let p = prepare(args.seed, scale);
        let net = network(&p);
        setup_times.push(t.elapsed().as_secs_f64());
        prepared = Some((p, net));
    }
    let (p, first_net) = prepared.expect("at least one set-up");
    let setup_s = median(&setup_times);
    if args.trace {
        drop(first_net);
        return layers::linearroad(args, &p);
    }

    let mut net = Some(first_net);
    let mut rates = Vec::new();
    let mut lat_us = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference: Option<u64> = None;
    let measured = Instant::now();
    while rates.len() < MIN_REPLAYS || measured.elapsed().as_secs_f64() < args.seconds {
        let n = net.take().unwrap_or_else(|| network(&p));
        let r = replay(&p, n, &mut Recorder::new(false))?;
        rates.push(p.total as f64 / r.wall_s);
        lat_us.extend_from_slice(&r.lat_us);
        attempted += p.total as u64;
        let digest = output_digest(&r);
        let ok = match reference {
            // the first replay is validated against the independent
            // reference; later ones must reproduce its outputs exactly
            None => {
                let (ok, rendered) = validate_replay(&p, &r, args.corrupt);
                if !ok {
                    eprintln!("perfbench: linearroad validation failed:\n{rendered}");
                }
                reference = Some(digest);
                ok
            }
            Some(d) => d == digest,
        };
        if !ok {
            failed += p.total as u64;
        }
    }
    eprintln!(
        "perfbench: {} replays of {} tuples, {} latency samples, rates {:.0?}",
        rates.len(),
        p.total,
        lat_us.len(),
        rates
    );
    let mut out = Outcome::new(attempted, failed, true);
    end_to_end(
        &mut out,
        median(&rates),
        median(&lat_us),
        percentile(&lat_us, 0.99),
        report::peak_rss_mb(std::process::id())?,
        setup_s,
    );
    Ok(out)
}
