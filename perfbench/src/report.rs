//! Result assembly: the JSON lines the runner prints, statistics over
//! samples, and `/proc` readings of a process under test.

use std::fmt::Write as _;

/// Units the runner reports in (the strings `BENCHMARK.json` names).
#[derive(Clone, Copy, Debug)]
pub enum Unit {
    PerSec,
    Us,
    Ns,
    S,
    SecPerMtuple,
    Mb,
    Ratio,
    Count,
    NsPerTuple,
    BytesPerTuple,
    RowsPerTuple,
    PerKbatch,
    PerMtuple,
    UsPerKtuple,
}

impl Unit {
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::PerSec => "1/s",
            Unit::Us => "us",
            Unit::Ns => "ns",
            Unit::S => "s",
            Unit::SecPerMtuple => "s/Mtuple",
            Unit::Mb => "MB",
            Unit::Ratio => "ratio",
            Unit::Count => "count",
            Unit::NsPerTuple => "ns/tuple",
            Unit::BytesPerTuple => "B/tuple",
            Unit::RowsPerTuple => "rows/tuple",
            Unit::PerKbatch => "1/kbatch",
            Unit::PerMtuple => "1/Mtuple",
            Unit::UsPerKtuple => "us/ktuple",
        }
    }
}

/// What one run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, Unit)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, correct: bool) -> Outcome {
        Outcome {
            correct: correct && failed == 0 && attempted > 0,
            attempted: attempted.max(1),
            failed: failed.min(attempted.max(1)),
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: Unit) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// JSON has no NaN or infinity; a metric that computes to one is a
    /// runner bug, never a result.
    pub fn check_finite(&self) -> Result<(), String> {
        match self.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            Some((n, v, _)) => Err(format!("metric {n} is not finite ({v})")),
            None => Ok(()),
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit.as_str()
            );
        }
        s.push_str("}}");
        s
    }
}

/// Print the run's configuration (seed, rates, batch sizes, cores) as
/// one JSON line ahead of the result.
pub fn print_config(pairs: &[(&str, String)]) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = String::from("{\"config\": {");
    let _ = write!(s, "\"cores\": {cores}");
    for (k, v) in pairs {
        let quoted = v.parse::<f64>().is_err() && v != "true" && v != "false";
        if quoted {
            let _ = write!(
                s,
                ", \"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            );
        } else {
            let _ = write!(s, ", \"{k}\": {v}");
        }
    }
    s.push_str("}}");
    println!("{s}");
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Ratio that reads 0 instead of NaN when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU seconds (user + system) a process has used so far, from
/// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // the command name may hold spaces; fields restart after its ')'
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: missing field"))
    };
    // field n of the man page sits at index n - 3 after the ')'
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}
