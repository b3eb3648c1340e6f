//! The two daemon workloads: `standing_sql` against one `datacelld` and
//! `durable_cluster` against one `dccluster`. Both are open loop at a
//! fixed offered rate, BINARY frames of [`BATCH`] tuples, one receptor
//! connection and one emitter connection; the control connection stays
//! idle during the measured window.

use std::path::Path;
use std::time::{Duration, Instant};

use datacell::frame::WireFormat;
use dcserver::client::{Client, EmitterTap, ReceptorSink};
use dcserver::stats::StatsReport;
use monet::prelude::*;
use std::result::Result;

use crate::daemon::Daemon;
use crate::gen::{self, BATCH};
use crate::openloop::{self, AggTracker, FilterTracker, Tracker, Window};
use crate::report::{self, median, percentile, print_config, ratio, Outcome};
use crate::{end_to_end, err, layers, Args};

/// Offered load of both daemon workloads, tuples/s. Fixed: never derived
/// from a measurement, so a faster program is offered the same load.
pub const RATE: f64 = 100_000.0;
/// Set-ups per run, at least; `setup_s` is their median.
const SETUPS: usize = 7;
/// Seconds one measured window lasts. A run of `--seconds S` measures
/// `round(S / WINDOW_S)` windows (at least one), each against a freshly
/// set-up daemon, so memory and per-window work do not grow with `S`.
pub const WINDOW_S: f64 = 5.0;
/// A generator whose p99 lateness exceeds this did not keep its
/// schedule: the run is reported invalid.
const MAX_GEN_LATE_P99_US: f64 = 50_000.0;

pub const AGG_SQL: &str = "select g, count(*) as n, sum(v) as s, max(t0) as m from E group by g";
pub const JOIN_SQL: &str = "select E.k, D.w, E.v from E, D where E.k = D.k";
pub const JOIN_CHECK_SQL: &str =
    "select count(*) as n, sum(E.v) as sv, sum(D.w) as sw from E, D where E.k = D.k";
pub fn filter_sql() -> String {
    format!(
        "select id, v, t0 from [select * from S] as Z where Z.v < {}",
        gen::FILTER_BELOW
    )
}

fn agg_schema() -> Schema {
    Schema::from_pairs(&[
        ("g", ValueType::Int),
        ("n", ValueType::Int),
        ("s", ValueType::Int),
        ("m", ValueType::Int),
    ])
}

/// A daemon set up and ready for its first tuple.
struct Ready {
    daemon: Daemon,
    control: Client,
    sink: ReceptorSink,
    tap: EmitterTap,
    setup_s: f64,
}

/// Wait until the daemon reports the data connections accepted (and any
/// setup rows ingested) — only then can the first tuple be sent.
fn await_ready(c: &mut Client, ok: impl Fn(&StatsReport) -> bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let st = c.stats_report().map_err(err("STATS"))?;
        if ok(&st) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("daemon never accepted the data connections".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn connections_up(st: &StatsReport) -> bool {
    st.receptors.iter().all(|r| r.connections >= 1)
        && st.emitters.iter().all(|e| e.connections >= 1)
}

fn setup_standing_sql(bin_dir: &Path, dim: &Relation) -> Result<Ready, String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(&bin_dir.join("datacelld"), &[])?;
    let mut c = daemon.client()?;
    c.create_stream("E", "(k int, g int, v int, t0 int)")
        .map_err(err("CREATE E"))?;
    c.create_stream("D", "(k int, w int)")
        .map_err(err("CREATE D"))?;
    c.register_query("agg", AGG_SQL)
        .map_err(err("REGISTER agg"))?;
    c.register_query("jn", JOIN_SQL)
        .map_err(err("REGISTER jn"))?;
    let bin = WireFormat::Binary;
    let eport = c
        .attach_receptor_fmt("E", 0, bin)
        .map_err(err("ATTACH E"))?;
    let dport = c
        .attach_receptor_fmt("D", 0, bin)
        .map_err(err("ATTACH D"))?;
    let aport = c
        .attach_emitter_fmt("agg", 0, bin)
        .map_err(err("ATTACH agg"))?;
    let tap = c
        .open_emitter_with(aport, bin)
        .map_err(err("open emitter"))?;
    let sink = c
        .open_receptor_with(eport, bin, &gen::event_schema())
        .map_err(err("open receptor E"))?;
    let mut dsink = c
        .open_receptor_with(dport, bin, &gen::dim_schema())
        .map_err(err("open receptor D"))?;
    dsink
        .send_batch(dim)
        .and_then(|_| dsink.flush())
        .map_err(err("load D"))?;
    let dim_rows = dim.len() as u64;
    await_ready(&mut c, |st| {
        connections_up(st)
            && st
                .baskets
                .iter()
                .any(|b| b.name == "D" && b.total_in == dim_rows)
    })?;
    Ok(Ready {
        daemon,
        control: c,
        sink,
        tap,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

fn setup_durable_cluster(bin_dir: &Path, data_dir: &Path) -> Result<Ready, String> {
    let _ = std::fs::remove_dir_all(data_dir);
    let started = Instant::now();
    let args = [
        "--shards".to_string(),
        "2".into(),
        "--replicas".into(),
        "--data-dir".into(),
        data_dir.display().to_string(),
    ];
    let daemon = Daemon::spawn(&bin_dir.join("dccluster"), &args)?;
    let mut c = daemon.client()?;
    c.request("CREATE STREAM S (id int, v int, t0 int) PERSIST SHARD BY (id) SHARDS 2")
        .map_err(err("CREATE S"))?;
    c.register_query("f", &filter_sql())
        .map_err(err("REGISTER f"))?;
    let bin = WireFormat::Binary;
    let sport = c
        .attach_receptor_fmt("S", 0, bin)
        .map_err(err("ATTACH S"))?;
    let fport = c.attach_emitter_fmt("f", 0, bin).map_err(err("ATTACH f"))?;
    let tap = c
        .open_emitter_with(fport, bin)
        .map_err(err("open emitter"))?;
    let sink = c
        .open_receptor_with(sport, bin, &gen::stream_schema())
        .map_err(err("open receptor S"))?;
    await_ready(&mut c, connections_up)?;
    Ok(Ready {
        daemon,
        control: c,
        sink,
        tap,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Set up `1 + extra` times, tear all but the last down again and keep
/// the last; returns it with every set-up time.
fn setup_repeated(
    extra: usize,
    mut once: impl FnMut(usize) -> Result<Ready, String>,
) -> Result<(Ready, Vec<f64>), String> {
    let mut times = Vec::with_capacity(extra + 1);
    for i in 0..extra {
        let r = once(i)?;
        times.push(r.setup_s);
        drop((r.sink, r.tap, r.control));
        r.daemon.shutdown(Duration::from_secs(10));
    }
    let r = once(extra)?;
    times.push(r.setup_s);
    Ok((r, times))
}

/// Everything one measured window against a daemon yields.
pub struct DaemonRun {
    pub window: Window,
    pub setup_times: Vec<f64>,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub stats: StatsReport,
    pub tuples: u64,
    /// Tuples lost, rejected, or in results that differ from the reference.
    pub failed: u64,
    pub checks_ok: bool,
    /// `REPL STATUS` lag summed over shards (durable_cluster only).
    pub repl_lag_rows: u64,
}

impl DaemonRun {
    pub fn tuples_per_s(&self) -> f64 {
        ratio(
            self.tuples.saturating_sub(self.failed) as f64,
            self.window.last_done_us as f64 / 1e6,
        )
    }

    /// CPU of the process under test during the window, per million
    /// input tuples.
    pub fn cpu_s_per_mtuple(&self) -> f64 {
        ratio(self.cpu_s, self.tuples as f64 / 1e6)
    }

    pub fn gen_late_p99_us(&self) -> f64 {
        percentile(&self.window.late_us, 0.99)
    }
}

fn measure(
    ready: Ready,
    result_schema: &Schema,
    sched: &gen::Schedule,
    tracker: &mut dyn Tracker,
) -> Result<(Window, f64, f64, StatsReport, Client, Daemon), String> {
    let Ready {
        mut daemon,
        mut control,
        sink,
        tap,
        ..
    } = ready;
    let cpu0 = report::cpu_seconds(daemon.pid)?;
    let mut stalled = false;
    let window = openloop::drive(sink, tap, result_schema, sched, tracker, || {
        stalled = true;
        daemon.kill()
    });
    if stalled {
        return Err(format!(
            "results stopped arriving ({}); the daemon was stopped\n{}",
            window.error.as_deref().unwrap_or("drain timeout"),
            daemon.stderr_tail()
        ));
    }
    let cpu_s = report::cpu_seconds(daemon.pid)? - cpu0;
    let rss = report::peak_rss_mb(daemon.pid)?;
    let stats = control.stats_report().map_err(err("STATS"))?;
    Ok((window, cpu_s, rss, stats, control, daemon))
}

fn run_standing_sql(
    args: &Args,
    input: &gen::SqlInput,
    extra_setups: usize,
) -> Result<DaemonRun, String> {
    let (ready, setup_times) = setup_repeated(extra_setups, |_| {
        setup_standing_sql(&args.bin_dir, &input.dim)
    })?;
    let mut tracker = AggTracker::new(&input.sched.t0, args.corrupt);
    let (window, cpu_s, peak_rss_mb, stats, mut control, daemon) =
        measure(ready, &agg_schema(), &input.sched, &mut tracker)?;
    let tuples = input.sched.tuples();
    let lost = (input.sched.t0.len() - tracker.completed()) as u64 * BATCH as u64;
    let mismatched = if lost == 0 {
        tracker.mismatched_tuples(&input.groups)
    } else {
        0
    };
    // the untapped join is checked once, after the window
    let lines = control.exec(JOIN_CHECK_SQL).map_err(err("join check"))?;
    let want = format!("{}|{}|{}", input.join.0, input.join.1, input.join.2);
    let join_ok = lines.get(1).is_some_and(|l| l.trim() == want);
    let rejected: u64 = stats.receptors.iter().map(|r| r.rejected).sum();
    if let Some(err) = &window.error {
        eprintln!(
            "perfbench: standing_sql transport: {err}\n{}",
            daemon.stderr_tail()
        );
    }
    drop(control);
    daemon.shutdown(Duration::from_secs(10));
    let join_failed = if join_ok {
        0
    } else {
        input.join.0.max(1) as u64
    };
    Ok(DaemonRun {
        setup_times,
        cpu_s,
        peak_rss_mb,
        stats,
        tuples,
        failed: lost + mismatched + rejected + join_failed,
        checks_ok: window.error.is_none(),
        repl_lag_rows: 0,
        window,
    })
}

fn run_durable_cluster(
    args: &Args,
    input: &gen::FilterInput,
    extra_setups: usize,
) -> Result<DaemonRun, String> {
    let data_root = args.run_dir.join("durable_cluster");
    let (ready, setup_times) = setup_repeated(extra_setups, |i| {
        setup_durable_cluster(&args.bin_dir, &data_root.join(format!("setup-{i}")))
    })?;
    let mut tracker = FilterTracker::new(
        &input.sched.t0,
        &input.expect_rows,
        &input.expect_digest,
        args.corrupt,
    );
    let (window, cpu_s, peak_rss_mb, stats, mut control, daemon) =
        measure(ready, &gen::stream_schema(), &input.sched, &mut tracker)?;
    let repl_lag_rows = control
        .request("REPL STATUS S")
        .map_err(err("REPL STATUS"))?
        .iter()
        .filter_map(|l| {
            l.split_whitespace()
                .find_map(|t| t.strip_prefix("lag_rows="))
        })
        .filter_map(|n| n.parse::<u64>().ok())
        .sum();
    let mut failed_batches: Vec<usize> = tracker.incomplete().collect();
    failed_batches.extend(&tracker.bad_batches);
    let rejected: u64 = stats.receptors.iter().map(|r| r.rejected).sum();
    if let Some(err) = &window.error {
        eprintln!(
            "perfbench: durable_cluster transport: {err}\n{}",
            daemon.stderr_tail()
        );
    }
    drop(control);
    daemon.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&data_root);
    Ok(DaemonRun {
        setup_times,
        cpu_s,
        peak_rss_mb,
        stats,
        tuples: input.sched.tuples(),
        failed: failed_batches.len() as u64 * BATCH as u64 + tracker.stray_rows + rejected,
        checks_ok: window.error.is_none(),
        repl_lag_rows,
        window,
    })
}

fn n_windows(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        ((args.seconds / WINDOW_S).round() as usize).max(1)
    }
}

/// Batches of one window.
fn n_batches(args: &Args) -> usize {
    ((args.seconds.min(WINDOW_S) * RATE / BATCH as f64).round() as usize).max(16)
}

/// Measure every window; the first one also pays the extra set-ups.
fn run_windows(
    args: &Args,
    mut window: impl FnMut(usize) -> Result<DaemonRun, String>,
) -> Result<Vec<DaemonRun>, String> {
    let n = n_windows(args);
    let mut runs = Vec::with_capacity(n);
    for w in 0..n {
        runs.push(window(if w == 0 { SETUPS.saturating_sub(n) } else { 0 })?);
    }
    Ok(runs)
}

fn config(args: &Args, extra: &[(&str, String)]) {
    let mut pairs = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("loop", "open".to_string()),
        ("windows", n_windows(args).to_string()),
        ("window_s", args.seconds.min(WINDOW_S).to_string()),
        ("rate_tuples_per_s", RATE.to_string()),
        ("batch_tuples", BATCH.to_string()),
        ("format", "binary".to_string()),
    ];
    pairs.extend_from_slice(extra);
    print_config(&pairs);
}

/// The end-to-end metrics over all windows of a run: each figure is
/// taken per window (latency percentiles over that window's samples) and
/// reported as the median over windows, so one disturbed window does not
/// move the run's result; set-up time is the median over all set-ups.
fn end_to_end_outcome(runs: &[DaemonRun]) -> Result<Outcome, String> {
    let pooled =
        |f: fn(&DaemonRun) -> &[f64]| runs.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let late_p99 = percentile(&pooled(|r| &r.window.late_us), 0.99);
    let per_window = |f: fn(&DaemonRun) -> f64| median(&runs.iter().map(f).collect::<Vec<f64>>());
    let valid = late_p99 <= MAX_GEN_LATE_P99_US;
    if !valid {
        eprintln!(
            "perfbench: invalid run — generator p99 lateness {late_p99:.0} us exceeds {MAX_GEN_LATE_P99_US} us"
        );
    }
    let tuples: u64 = runs.iter().map(|r| r.tuples).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let checks_ok = runs.iter().all(|r| r.checks_ok);
    let mut out = Outcome::new(tuples, failed, checks_ok && valid);
    end_to_end(
        &mut out,
        per_window(DaemonRun::tuples_per_s),
        per_window(|r| median(&r.window.lat_us)),
        per_window(|r| percentile(&r.window.lat_us, 0.99)),
        per_window(|r| r.peak_rss_mb),
        median(&pooled(|r| &r.setup_times)),
    );
    eprintln!(
        "perfbench: {} windows, {} latency samples, gen late p99 {late_p99:.0} us, \
         per window: cpu_s_per_mtuple {:.3?} peak_rss_mb {:.1?} latency_p99_us {:.0?}",
        runs.len(),
        runs.iter().map(|r| r.window.lat_us.len()).sum::<usize>(),
        runs.iter()
            .map(DaemonRun::cpu_s_per_mtuple)
            .collect::<Vec<_>>(),
        runs.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>(),
        runs.iter()
            .map(|r| percentile(&r.window.lat_us, 0.99))
            .collect::<Vec<_>>(),
    );
    Ok(out)
}

pub fn standing_sql(args: &Args) -> Result<Outcome, String> {
    let input = gen::standing_sql(args.seed, n_batches(args), RATE);
    config(
        args,
        &[
            ("daemon", "datacelld".into()),
            ("groups", gen::GROUPS.to_string()),
            ("dim_rows", gen::DIM_ROWS.to_string()),
        ],
    );
    let runs = run_windows(args, |extra| run_standing_sql(args, &input, extra))?;
    if args.trace {
        layers::standing_sql(args, &input, &runs[0])
    } else {
        end_to_end_outcome(&runs)
    }
}

pub fn durable_cluster(args: &Args) -> Result<Outcome, String> {
    let input = gen::durable_cluster(args.seed, n_batches(args), RATE);
    config(
        args,
        &[
            ("daemon", "dccluster".into()),
            ("shards", "2".into()),
            ("replicas", "true".into()),
            ("filter_below", gen::FILTER_BELOW.to_string()),
        ],
    );
    let runs = run_windows(args, |extra| run_durable_cluster(args, &input, extra))?;
    if args.trace {
        layers::durable_cluster(args, &input, &runs[0])
    } else {
        end_to_end_outcome(&runs)
    }
}
