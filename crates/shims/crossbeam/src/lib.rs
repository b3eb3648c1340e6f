//! Offline shim for the `crossbeam` crate.
//!
//! The build environment has no access to a crates registry, so this
//! workspace vendors the subset of `crossbeam::channel` the code base
//! uses: unbounded and bounded MPMC channels with `Clone`-able senders
//! *and* receivers, disconnect detection on both sides, blocking sends on
//! a full bounded channel, and blocking / non-blocking / timed receives.
//! Built on `Mutex<VecDeque>` + `Condvar` — slower than the real
//! lock-free implementation, but semantically equivalent for the
//! workloads here.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        /// Signalled when a message lands (or the last sender leaves).
        ready: Condvar,
        /// Signalled when a message leaves (or the last receiver leaves).
        space: Condvar,
        cap: usize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.queue.lock().unwrap_or_else(|p| p.into_inner())
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T>(Arc<Inner<T>>);

    /// The receiving half of a channel. Clone-able: clones share one queue
    /// (each message is delivered to exactly one receiver).
    pub struct Receiver<T>(Arc<Inner<T>>);

    fn with_cap<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            cap,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(Arc::clone(&inner)), Receiver(inner))
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(usize::MAX)
    }

    /// Create a channel holding at most `cap` messages: [`Sender::send`]
    /// blocks while it is full. (The real crate's `bounded(0)` is a
    /// rendezvous channel; the shim treats 0 as 1.)
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(cap.max(1))
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Sender::try_send`].
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("channel is empty and disconnected")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    impl<T> Sender<T> {
        /// Queue a message, blocking while a bounded channel is full;
        /// fails only when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self.0.lock();
            loop {
                if self.0.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                if q.len() < self.0.cap {
                    break;
                }
                q = self.0.space.wait(q).unwrap_or_else(|p| p.into_inner());
            }
            q.push_back(value);
            drop(q);
            self.0.ready.notify_one();
            Ok(())
        }

        /// Queue a message without blocking.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut q = self.0.lock();
            if self.0.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if q.len() >= self.0.cap {
                return Err(TrySendError::Full(value));
            }
            q.push_back(value);
            drop(q);
            self.0.ready.notify_one();
            Ok(())
        }

        pub fn is_empty(&self) -> bool {
            self.0.lock().is_empty()
        }

        pub fn len(&self) -> usize {
            self.0.lock().len()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::AcqRel);
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // last sender gone: wake all blocked receivers (under the
                // lock, so a receiver between its check and its wait
                // cannot miss the wake-up)
                let _q = self.0.lock();
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Pop under the lock, making room for one blocked sender.
        fn pop(&self, q: &mut VecDeque<T>) -> Option<T> {
            let v = q.pop_front()?;
            self.0.space.notify_one();
            Some(v)
        }

        /// Block until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.0.lock();
            loop {
                if let Some(v) = self.pop(&mut q) {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self.0.ready.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.0.lock();
            if let Some(v) = self.pop(&mut q) {
                return Ok(v);
            }
            if self.0.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.0.lock();
            loop {
                if let Some(v) = self.pop(&mut q) {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .0
                    .ready
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        }

        pub fn is_empty(&self) -> bool {
            self.0.lock().is_empty()
        }

        pub fn len(&self) -> usize {
            self.0.lock().len()
        }

        /// Blocking iterator over messages until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.0.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // last receiver gone: fail every sender blocked on a full
                // channel
                let _q = self.0.lock();
                self.0.space.notify_all();
            }
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_detection() {
            let (tx, rx) = unbounded::<i32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx, rx) = unbounded::<i32>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn blocking_recv_wakes() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv());
            std::thread::sleep(Duration::from_millis(20));
            tx.send(42).unwrap();
            assert_eq!(h.join().unwrap(), Ok(42));
        }

        #[test]
        fn timeout_elapses() {
            let (_tx, rx) = unbounded::<i32>();
            let t0 = Instant::now();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(30)),
                Err(RecvTimeoutError::Timeout)
            );
            assert!(t0.elapsed() >= Duration::from_millis(25));
        }

        #[test]
        fn bounded_send_blocks_until_space() {
            let (tx, rx) = bounded(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
            let tx2 = tx.clone();
            let h = std::thread::spawn(move || tx2.send(3));
            assert_eq!(rx.recv(), Ok(1));
            assert!(h.join().unwrap().is_ok());
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        }

        #[test]
        fn blocked_send_fails_when_receiver_leaves() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let h = std::thread::spawn(move || tx.send(2));
            drop(rx);
            assert!(h.join().unwrap().is_err());
        }

        #[test]
        fn mpmc_each_message_once() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let h1 = std::thread::spawn(move || rx.iter().count());
            let h2 = std::thread::spawn(move || rx2.iter().count());
            assert_eq!(h1.join().unwrap() + h2.join().unwrap(), 100);
        }
    }
}
