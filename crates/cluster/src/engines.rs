//! Shard engines — the N `datacelld` instances behind the router.
//!
//! A shard engine is a full, independent DataCell server: its own
//! baskets, factories, scheduler and data-plane ports. The router talks
//! to it exclusively through the public control-plane protocol, so an
//! **in-process** engine (spawned and supervised by the router) and a
//! **remote** engine (a `datacelld` already running elsewhere) are
//! indistinguishable past construction.
//!
//! Every control round-trip is bounded: connects (data-plane ones too,
//! [`ShardEngine::connect_data`]) use
//! [`ControlPolicy::connect_timeout`], reads/writes use
//! [`ControlPolicy::io_timeout`], and after a transport failure the
//! session enters a capped exponential backoff window during which
//! further control calls fail immediately instead of re-dialing a dead
//! or wedged engine. Server-reported errors (`ERR ...` responses) keep
//! the session open — the transport is fine, the request was just
//! rejected.

use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcserver::client::Client;
use dcserver::error::{Result, ServerError};
use dcserver::stats::StatsReport;
use dcserver::ServerConfig;
use parking_lot::Mutex;

/// Where one shard engine runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSpec {
    /// Spawn a `datacelld` inside the router process (ephemeral ports,
    /// shut down with the cluster).
    InProcess,
    /// Connect to an already-running `datacelld` control plane at
    /// `host:port`. The router never shuts a remote engine down.
    Remote(String),
}

/// Timeouts and backoff governing every router→engine control session.
///
/// A wedged engine (network partition, hung process) must fail the
/// request — control operations serialize per shard, so an unbounded
/// block here would freeze the router's whole control plane, and an
/// eager re-dial loop against a dead engine would stall every
/// STATS/METRICS/HEALTH fan-out on connect timeouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPolicy {
    /// Upper bound on establishing a control connection.
    pub connect_timeout: Duration,
    /// Upper bound on one control round-trip (read + write).
    pub io_timeout: Duration,
    /// First backoff window after a transport failure; doubles per
    /// consecutive failure.
    pub backoff_base: Duration,
    /// Ceiling for the backoff window.
    pub backoff_max: Duration,
}

impl Default for ControlPolicy {
    fn default() -> ControlPolicy {
        ControlPolicy {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
        }
    }
}

/// The router's control session to one engine: a lazily (re)connected
/// client plus the failure bookkeeping that drives backoff.
struct ControlSession {
    client: Option<Client>,
    /// Consecutive transport failures since the last success.
    failures: u32,
    /// No reconnect attempt before this instant.
    retry_at: Option<Instant>,
}

impl ControlSession {
    fn note_failure(&mut self, policy: &ControlPolicy) {
        self.client = None;
        let shift = self.failures.min(16);
        let window = policy
            .backoff_base
            .saturating_mul(1u32 << shift.min(31))
            .min(policy.backoff_max);
        self.failures = self.failures.saturating_add(1);
        self.retry_at = Some(Instant::now() + window);
    }

    fn note_success(&mut self) {
        self.failures = 0;
        self.retry_at = None;
    }
}

/// One supervised shard engine.
pub struct ShardEngine {
    id: usize,
    addr: SocketAddr,
    policy: ControlPolicy,
    /// The router's control session to this engine. Control operations
    /// are serialized per shard; data-plane connections are separate
    /// sockets and never wait on this lock.
    control: Mutex<ControlSession>,
    /// Serve thread of an in-process engine (`None` for remote).
    serve: Mutex<Option<JoinHandle<()>>>,
}

impl ShardEngine {
    /// Boot an in-process `datacelld` on an ephemeral control port.
    pub fn spawn_in_process(id: usize, config: ServerConfig) -> Result<ShardEngine> {
        ShardEngine::spawn_in_process_with(id, config, ControlPolicy::default())
    }

    /// Boot an in-process engine with an explicit control policy.
    pub fn spawn_in_process_with(
        id: usize,
        config: ServerConfig,
        policy: ControlPolicy,
    ) -> Result<ShardEngine> {
        let server = dcserver::bind("127.0.0.1:0", config)?;
        let addr = server
            .local_addr()
            .map_err(|e| ServerError::Io(format!("shard {id} control addr: {e}")))?;
        let serve = std::thread::Builder::new()
            .name(format!("dc-shard-{id}"))
            .spawn(move || {
                let _ = server.serve();
            })
            .map_err(|e| ServerError::Io(format!("spawn shard {id}: {e}")))?;
        let control = Self::dial(addr, &policy)?;
        Ok(ShardEngine {
            id,
            addr,
            policy,
            control: Mutex::new(ControlSession {
                client: Some(control),
                failures: 0,
                retry_at: None,
            }),
            serve: Mutex::new(Some(serve)),
        })
    }

    /// Adopt a running `datacelld` at `addr` as a shard.
    pub fn connect_remote(id: usize, addr: &str) -> Result<ShardEngine> {
        ShardEngine::connect_remote_with(id, addr, ControlPolicy::default())
    }

    /// Adopt a remote engine with an explicit control policy.
    pub fn connect_remote_with(id: usize, addr: &str, policy: ControlPolicy) -> Result<ShardEngine> {
        let addr: SocketAddr = addr
            .parse()
            .map_err(|e| ServerError::Protocol(format!("shard {id} addr {addr:?}: {e}")))?;
        let control = Self::dial(addr, &policy)?;
        Ok(ShardEngine {
            id,
            addr,
            policy,
            control: Mutex::new(ControlSession {
                client: Some(control),
                failures: 0,
                retry_at: None,
            }),
            serve: Mutex::new(None),
        })
    }

    fn dial(addr: SocketAddr, policy: &ControlPolicy) -> Result<Client> {
        let mut client = Client::connect_timeout(&addr, policy.connect_timeout)?;
        client.set_io_timeout(Some(policy.io_timeout))?;
        Ok(client)
    }

    pub fn id(&self) -> usize {
        self.id
    }

    /// The engine's control-plane address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connect to a data-plane port this engine reported (its data ports
    /// live on the same host as its control plane), bounded by the control
    /// policy's connect timeout like the control session, so an engine
    /// host that drops SYNs fails ATTACH, ingest and promotion in bounded
    /// time.
    pub fn connect_data(&self, port: u16) -> Result<TcpStream> {
        let addr = SocketAddr::new(self.addr.ip(), port);
        Ok(dcserver::accept::connect(addr, self.policy.connect_timeout)?)
    }

    /// Run one control-plane operation against this engine.
    ///
    /// Reconnects lazily if the previous session died; while the backoff
    /// window from a prior transport failure is open the call fails
    /// immediately. A transport error (`ServerError::Io` — broken pipe,
    /// timeout, refused connect) tears the session down and arms the
    /// backoff; server-reported errors pass through without touching the
    /// connection.
    pub fn control<T>(&self, f: impl FnOnce(&mut Client) -> Result<T>) -> Result<T> {
        let mut session = self.control.lock();
        if session.client.is_none() {
            if let Some(at) = session.retry_at {
                if Instant::now() < at {
                    return Err(ServerError::Io(format!(
                        "shard {} control backing off after {} failure(s)",
                        self.id, session.failures
                    )));
                }
            }
            match Self::dial(self.addr, &self.policy) {
                Ok(client) => session.client = Some(client),
                Err(e) => {
                    session.note_failure(&self.policy);
                    return Err(e);
                }
            }
        }
        let client = session.client.as_mut().expect("session connected above");
        match f(client) {
            Ok(v) => {
                session.note_success();
                Ok(v)
            }
            Err(e) => {
                if matches!(e, ServerError::Io(_)) {
                    // The stream may hold a half-read response — the
                    // session is unusable even if the engine recovers.
                    session.note_failure(&self.policy);
                }
                Err(e)
            }
        }
    }

    /// This engine's typed `STATS` — the placement signal.
    pub fn stats(&self) -> Result<StatsReport> {
        self.control(|c| c.stats_report())
    }

    /// Stop an in-process engine (graceful `SHUTDOWN` + join). Remote
    /// engines are left running.
    pub fn shutdown(&self) {
        let Some(handle) = self.serve.lock().take() else {
            return;
        };
        let _ = self.control(|c| c.shutdown());
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn in_process_engine_boots_and_shuts_down() {
        let e = ShardEngine::spawn_in_process(0, ServerConfig::default()).unwrap();
        assert_eq!(e.id(), 0);
        e.control(|c| c.ping()).unwrap();
        e.control(|c| c.create_stream("S", "(id int)")).unwrap();
        let stats = e.stats().unwrap();
        assert!(stats.basket("S").is_some());
        e.shutdown();
        // idempotent
        e.shutdown();
    }

    #[test]
    fn remote_engine_is_not_shut_down() {
        let inner = ShardEngine::spawn_in_process(0, ServerConfig::default()).unwrap();
        let remote = ShardEngine::connect_remote(1, &inner.addr().to_string()).unwrap();
        remote.control(|c| c.ping()).unwrap();
        remote.shutdown(); // no-op for remote
        inner.control(|c| c.ping()).unwrap();
        inner.shutdown();
    }

    /// Satellite: a deliberately unresponsive engine (accepts, never
    /// replies) must cost at most one io_timeout, and subsequent calls
    /// inside the backoff window must fail fast without re-dialing.
    #[test]
    fn unresponsive_engine_times_out_then_backs_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept and hold connections open without ever responding.
        let hold = std::thread::spawn(move || {
            let mut open = Vec::new();
            for sock in listener.incoming() {
                match sock {
                    Ok(s) => open.push(s),
                    Err(_) => break,
                }
            }
        });

        let policy = ControlPolicy {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_millis(300),
            backoff_max: Duration::from_secs(1),
        };
        let e = ShardEngine::connect_remote_with(7, &addr.to_string(), policy).unwrap();

        let t0 = Instant::now();
        let err = e.control(|c| c.ping()).unwrap_err();
        assert!(matches!(err, ServerError::Io(_)), "got {err:?}");
        let first = t0.elapsed();
        assert!(
            first >= Duration::from_millis(150) && first < Duration::from_secs(2),
            "first call should be bounded by io_timeout, took {first:?}"
        );

        // Inside the backoff window: immediate failure, no new dial.
        let t1 = Instant::now();
        let err = e.control(|c| c.ping()).unwrap_err();
        assert!(matches!(err, ServerError::Io(_)), "got {err:?}");
        assert!(
            t1.elapsed() < Duration::from_millis(100),
            "backoff should fail fast, took {:?}",
            t1.elapsed()
        );

        // After the window expires the router re-dials (and times out
        // again — still bounded, and the window doubles).
        std::thread::sleep(Duration::from_millis(350));
        let t2 = Instant::now();
        assert!(e.control(|c| c.ping()).is_err());
        assert!(t2.elapsed() < Duration::from_secs(2));

        drop(e);
        drop(hold); // listener thread exits with the process
    }

    /// A data-plane connect to an engine host that drops SYNs fails within
    /// the policy's connect timeout, not after the kernel's SYN retries
    /// (minutes). The SYN-dropping host is a local listener whose accept
    /// queue is full and never drained: Linux drops further SYNs to it.
    #[cfg(target_os = "linux")]
    #[test]
    fn data_connect_to_a_syn_dropping_host_is_bounded() {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn listen(fd: i32, backlog: i32) -> i32;
        }
        let policy = ControlPolicy {
            connect_timeout: Duration::from_millis(300),
            ..ControlPolicy::default()
        };
        let e = ShardEngine::spawn_in_process_with(0, ServerConfig::default(), policy).unwrap();
        let full = TcpListener::bind("127.0.0.1:0").unwrap();
        // SAFETY: a plain syscall on a live listening socket we own;
        // re-listening only shrinks its accept queue to one connection
        assert_eq!(unsafe { listen(full.as_raw_fd(), 0) }, 0);
        let addr = full.local_addr().unwrap();
        let mut queued = Vec::new();
        while let Ok(sock) = dcserver::accept::connect(addr, Duration::from_millis(200)) {
            queued.push(sock);
            assert!(queued.len() < 8, "the accept queue never filled");
        }
        let t0 = Instant::now();
        let err = e.connect_data(addr.port()).unwrap_err();
        let took = t0.elapsed();
        assert!(matches!(err, ServerError::Io(_)), "got {err:?}");
        assert!(
            took >= Duration::from_millis(250) && took < Duration::from_secs(2),
            "the connect should time out after ~300 ms, took {took:?}"
        );
        e.shutdown();
    }

    /// Backoff clears on success: an engine that comes back is adopted
    /// on the first post-window call.
    #[test]
    fn reconnects_after_engine_restart() {
        let e1 = ShardEngine::spawn_in_process(0, ServerConfig::default()).unwrap();
        let addr = e1.addr();
        let remote = ShardEngine::connect_remote_with(
            3,
            &addr.to_string(),
            ControlPolicy {
                backoff_base: Duration::from_millis(10),
                backoff_max: Duration::from_millis(50),
                ..ControlPolicy::default()
            },
        )
        .unwrap();
        remote.control(|c| c.ping()).unwrap();
        e1.shutdown();
        // Session dies; calls fail (possibly a few, while backoff arms).
        assert!(remote.control(|c| c.ping()).is_err());
        // Engine comes back on the same port — not guaranteed bindable
        // on every host, so only assert recovery if the rebind works.
        if let Ok(server) = dcserver::bind(&addr.to_string(), ServerConfig::default()) {
            let serve = std::thread::spawn(move || {
                let _ = server.serve();
            });
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut ok = false;
            while Instant::now() < deadline {
                if remote.control(|c| c.ping()).is_ok() {
                    ok = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            assert!(ok, "router should re-adopt a restarted engine");
            let _ = remote.control(|c| c.shutdown());
            let _ = serve.join();
        }
    }
}
