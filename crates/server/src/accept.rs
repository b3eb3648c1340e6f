//! Blocking accept loops and the stop signal both daemons share.
//!
//! Every listener in `datacelld` and `dccluster` (control plane, receptor,
//! emitter and trace ports) runs the same loop: block in `accept`, hand
//! each connection to a closure. [`Acceptor::close`] (DETACH, TRACE OFF,
//! shutdown) wakes the blocked `accept` with a loopback self-connect, which
//! the loop drops uncounted. [`StopSignal`] is the daemon-wide stop latch:
//! stopping it closes every acceptor registered with it and wakes timer
//! threads waiting on it.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Back-off after a transient accept error (EMFILE, ECONNABORTED, ...),
/// which must not take the port down.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);
/// Upper bound on the self-connect that wakes a blocked `accept`.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A closable handle on one blocking accept loop.
#[derive(Debug)]
pub struct Acceptor {
    /// Where a self-connect reaches the listener (loopback for a
    /// wildcard bind).
    wake: SocketAddr,
    closed: AtomicBool,
}

impl Acceptor {
    /// The listener's port.
    pub fn port(&self) -> u16 {
        self.wake.port()
    }

    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Stop the loop and release the listener; connections already handed
    /// out are unaffected. Idempotent: only the first call returns `true`.
    pub fn close(&self) -> bool {
        if self.closed.swap(true, Ordering::AcqRel) {
            return false;
        }
        // wake the blocked accept; it sees the flag and drops this socket
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
        true
    }

    /// Accept on the calling thread until closed, handing every connection
    /// to `on_conn`. The listener is dropped (port released) on return.
    pub fn run(&self, listener: TcpListener, mut on_conn: impl FnMut(TcpStream, SocketAddr)) {
        loop {
            let accepted = listener.accept();
            if self.is_closed() {
                break;
            }
            match accepted {
                Ok((sock, peer)) => on_conn(sock, peer),
                Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        }
    }

    /// [`Acceptor::run`] on a new thread named `name`. `on_conn` may hand
    /// back a per-connection thread; those are joined after the loop ends,
    /// so joining the returned handle waits for every connection to drain.
    pub fn spawn<F>(
        self: &Arc<Self>,
        name: String,
        listener: TcpListener,
        mut on_conn: F,
    ) -> JoinHandle<()>
    where
        F: FnMut(TcpStream, SocketAddr) -> Option<JoinHandle<()>> + Send + 'static,
    {
        let this = Arc::clone(self);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                this.run(listener, |sock, peer| {
                    conns.retain(|t| !t.is_finished());
                    conns.extend(on_conn(sock, peer));
                });
                for t in conns {
                    let _ = t.join();
                }
            })
            .expect("spawn accept thread")
    }
}

/// A daemon's one-way stop latch: a cheap flag for hot loops, a condvar
/// for timer threads, and the acceptors to close when it trips.
#[derive(Debug, Default)]
pub struct StopSignal {
    stopped: AtomicBool,
    /// Guards the condvar wait and the acceptor list.
    acceptors: Mutex<Vec<Arc<Acceptor>>>,
    cv: Condvar,
}

impl StopSignal {
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Trip the latch: close every registered acceptor and wake every
    /// [`StopSignal::wait_timeout`] caller. Idempotent.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        let acceptors = std::mem::take(&mut *self.lock());
        self.cv.notify_all();
        for a in acceptors {
            a.close();
        }
    }

    /// An acceptor for `listener` (run it with [`Acceptor::run`] or
    /// [`Acceptor::spawn`]) that closes when this signal stops — at once,
    /// if it already has.
    pub fn acceptor(&self, listener: &TcpListener) -> io::Result<Arc<Acceptor>> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let closed = AtomicBool::new(false);
        let acceptor = Arc::new(Acceptor { wake, closed });
        let mut list = self.lock();
        if self.is_stopped() {
            drop(list);
            acceptor.close();
        } else {
            list.retain(|a| !a.is_closed());
            list.push(Arc::clone(&acceptor));
        }
        Ok(acceptor)
    }

    /// Block up to `timeout` or until stopped; returns whether stopped.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let _ = self
            .cv
            .wait_timeout_while(self.lock(), timeout, |_| !self.is_stopped());
        self.is_stopped()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<Acceptor>>> {
        self.acceptors.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    #[test]
    fn close_wakes_a_blocked_accept_and_drops_the_wake_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let acceptor = StopSignal::default().acceptor(&listener).unwrap();
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let h = acceptor.spawn("test-accept".into(), listener, move |_sock, _peer| {
            seen2.fetch_add(1, Ordering::AcqRel);
            None
        });
        let client = TcpStream::connect(("127.0.0.1", acceptor.port())).unwrap();
        // wait until the client connection was handed out
        while seen.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let started = Instant::now();
        assert!(acceptor.close());
        assert!(!acceptor.close(), "close is idempotent");
        h.join().unwrap();
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(
            seen.load(Ordering::Acquire),
            1,
            "the wake connection is not counted"
        );
        drop(client);
        // the port is released
        assert!(TcpStream::connect(("127.0.0.1", acceptor.port())).is_err());
    }

    #[test]
    fn wildcard_listener_wakes_through_loopback() {
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let acceptor = StopSignal::default().acceptor(&listener).unwrap();
        let h = acceptor.spawn("test-wild".into(), listener, |_s, _p| None);
        acceptor.close();
        h.join().unwrap();
    }

    #[test]
    fn stop_signal_closes_acceptors_and_wakes_waiters() {
        let stop = Arc::new(StopSignal::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let acceptor = stop.acceptor(&listener).unwrap();
        let h = acceptor.spawn("test-stop".into(), listener, |_s, _p| None);
        let stop2 = Arc::clone(&stop);
        let waiter = std::thread::spawn(move || stop2.wait_timeout(Duration::from_secs(30)));
        let started = Instant::now();
        stop.stop();
        assert!(waiter.join().unwrap(), "the waiter saw the stop");
        h.join().unwrap();
        assert!(acceptor.is_closed());
        assert!(started.elapsed() < Duration::from_secs(5));
        // registering after the stop closes at once
        let late = TcpListener::bind("127.0.0.1:0").unwrap();
        assert!(stop.acceptor(&late).unwrap().is_closed());
        assert!(!StopSignal::default().wait_timeout(Duration::from_millis(1)));
    }
}
