//! An idle `datacelld` must not burn CPU. The real binary boots, gets 8
//! standing queries over an empty stream, and then sits idle for 2 s
//! while the test reads the process's utime + stime from
//! `/proc/<pid>/stat`. Factory threads park until a basket changes and
//! accept loops block in `accept`, so the daemon stays under 2 % of one
//! core (a 100 µs sleep-poll per factory thread costs ~20 %).

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dcserver::client::Client;

const QUERIES: usize = 8;
const WINDOW: Duration = Duration::from_secs(2);
const MAX_CORE_FRACTION: f64 = 0.02;
/// `/proc/<pid>/stat` counts CPU time in USER_HZ ticks, which the Linux
/// ABI fixes at 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

/// Kills and reaps the daemon however the test ends.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// utime + stime of `pid`, in ticks (fields 14 and 15; split after the
/// parenthesised command name, which may contain spaces).
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn idle_daemon_with_standing_queries_uses_under_two_percent_of_a_core() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_datacelld"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn datacelld");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let daemon = Daemon(child);
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

    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, v int)").unwrap();
    for i in 0..QUERIES {
        c.register_query(
            &format!("q{i}"),
            &format!("select id, v from [select * from S] as Z where Z.v > {i}"),
        )
        .unwrap();
    }
    c.attach_receptor("S", 0).unwrap();

    let pid = daemon.0.id();
    let before = cpu_ticks(pid);
    std::thread::sleep(WINDOW);
    let used = (cpu_ticks(pid) - before) as f64 / TICKS_PER_SEC / WINDOW.as_secs_f64();
    c.shutdown().unwrap();
    assert!(
        used < MAX_CORE_FRACTION,
        "idle daemon used {:.1}% of a core over {WINDOW:?} with {QUERIES} standing queries",
        used * 100.0
    );
}
