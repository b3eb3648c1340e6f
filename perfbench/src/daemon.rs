//! The process under test: a shipped daemon binary spawned on an
//! ephemeral control port, stopped with `SHUTDOWN` (killed if it does not
//! exit) and always reaped.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcserver::client::Client;

/// How long after the banner the first control-plane connect waits.
const FIRST_POLL_GRACE: Duration = Duration::from_millis(5);

/// A running daemon. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    pub pid: u32,
    /// Every stderr line after the banner, for error reports.
    log: mpsc::Receiver<String>,
    /// Drains stderr; ends when the daemon exits and the pipe closes.
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn `bin` with `args` plus `--listen 127.0.0.1:0` and wait for
    /// the banner naming its control-plane address.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let stderr = child.stderr.take().expect("stderr piped");
        let (tx, rx) = mpsc::channel();
        // the reader drains stderr for the daemon's whole life, so a
        // chatty daemon never blocks on a full pipe
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            child,
            reader: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
            log: rx,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match daemon.log.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.split("control plane on ").nth(1) {
                        let addr = rest.split_whitespace().next().unwrap_or("");
                        daemon.addr = addr
                            .parse()
                            .map_err(|e| format!("bad banner {line:?}: {e}"))?;
                        // The control plane polls accept() every 20 ms,
                        // starting right after the banner. A connect that
                        // beats the first poll is accepted at once, one that
                        // misses it waits for the next, so set-up time would
                        // flip between two modes run to run. Connecting only
                        // after the first poll has surely happened makes
                        // every set-up wait for the same tick.
                        std::thread::sleep(FIRST_POLL_GRACE);
                        return Ok(daemon);
                    }
                }
                Err(_) => return Err(format!("{} printed no control-plane banner", bin.display())),
            }
        }
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("control connect: {e}"))
    }

    /// Lines the daemon wrote to stderr since the banner.
    pub fn stderr_tail(&self) -> String {
        self.log.try_iter().collect::<Vec<_>>().join("\n")
    }

    /// Kill the daemon now (its connections fail); it is reaped on drop.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
    }

    /// `SHUTDOWN`, then wait for the exit; kill after `grace`.
    pub fn shutdown(mut self, grace: Duration) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.set_io_timeout(Some(grace));
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
