//! `perfbench` — the repository benchmark runner.
//!
//! ```text
//! perfbench --workload standing_sql|durable_cluster|linearroad
//!           --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --run-dir DIR [--tiny] [--corrupt]
//! ```
//!
//! One invocation runs one workload from one seed, checks every output
//! against a reference the generator computes from that seed, and prints
//! a JSON config line (seed, rates, batch sizes, cores) followed, as the
//! last line of stdout, by the result object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` measures the end-to-end metrics against the shipped
//! daemons (`datacelld`, `dccluster`, found in `--bin-dir`) driven through
//! the public `dcclient` API. `--trace 1` replays the same seed's inputs
//! in-process on one thread through each layer's public functions,
//! recording a span per call, and reports the per-layer metrics; the
//! spans are written under `--run-dir`.
//!
//! `--tiny` shrinks every workload for the runner's self-test;
//! `--corrupt` damages one received result before it is checked, so the
//! self-test can show the check catches it. See `NOTES.md`.

mod daemon;
mod gen;
mod layers;
mod lr;
mod openloop;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;

use report::{Outcome, Unit};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub run_dir: PathBuf,
    pub tiny: bool,
    pub corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut run_dir = None;
    let mut tiny = false;
    let mut corrupt = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val("--workload")?),
            "--seed" => seed = Some(val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(val("--bin-dir")?)),
            "--run-dir" => run_dir = Some(PathBuf::from(val("--run-dir")?)),
            "--tiny" => tiny = true,
            "--corrupt" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        run_dir: run_dir.ok_or("--run-dir is required")?,
        tiny,
        corrupt,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.run_dir.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "standing_sql" => workloads::standing_sql(&args),
        "durable_cluster" => workloads::durable_cluster(&args),
        "linearroad" => lr::run(&args),
        other => Err(format!(
            "unknown workload {other} (standing_sql | durable_cluster | linearroad)"
        )),
    };
    match result {
        Ok(out) => {
            if let Err(e) = out.check_finite() {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            println!("{}", out.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// `map_err` adapter that prefixes an error with what was being done.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The end-to-end metric set, identical on every workload.
pub fn end_to_end(
    out: &mut Outcome,
    tuples_per_s: f64,
    lat_p50_us: f64,
    lat_p99_us: f64,
    peak_rss_mb: f64,
    setup_s: f64,
) {
    out.metric("tuples_per_s", tuples_per_s, Unit::PerSec);
    out.metric("latency_p50_us", lat_p50_us, Unit::Us);
    out.metric("latency_p99_us", lat_p99_us, Unit::Us);
    out.metric("peak_rss_mb", peak_rss_mb, Unit::Mb);
    out.metric("setup_s", setup_s, Unit::S);
}
