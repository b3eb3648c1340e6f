//! Client sessions and result subscriptions.
//!
//! The control plane tracks every connected client as a session; each
//! registered continuous query owns a [`Broadcast`] that fans its result
//! batches out to all subscribed emitter sockets. A broadcast with no
//! subscribers buffers a bounded backlog so that results produced between
//! `REGISTER QUERY` and the first `ATTACH EMITTER` are not lost.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use datacell::frame::SharedFrame;
use datacell::scheduler::FactoryStats;
use monet::prelude::*;
use parking_lot::Mutex;

use crate::stats::SessionStats;

/// Batches a subscriber-less broadcast will hold before dropping oldest.
pub const BACKLOG_CAP: usize = 1024;

// ---- sessions ---------------------------------------------------------------

/// Registry of live control sessions.
#[derive(Default)]
pub struct SessionManager {
    next: AtomicU64,
    sessions: Mutex<HashMap<u64, SessionStats>>,
    opened_total: AtomicU64,
}

impl SessionManager {
    pub fn new() -> Self {
        SessionManager::default()
    }

    /// Register a new session, returning its id.
    pub fn open(&self, peer: impl Into<String>) -> u64 {
        let id = self.next.fetch_add(1, Ordering::AcqRel) + 1;
        self.opened_total.fetch_add(1, Ordering::AcqRel);
        self.sessions.lock().insert(
            id,
            SessionStats {
                id,
                peer: peer.into(),
                commands: 0,
            },
        );
        id
    }

    /// Count one executed command against a session.
    pub fn note_command(&self, id: u64) {
        if let Some(s) = self.sessions.lock().get_mut(&id) {
            s.commands += 1;
        }
    }

    pub fn close(&self, id: u64) {
        self.sessions.lock().remove(&id);
    }

    pub fn live_count(&self) -> usize {
        self.sessions.lock().len()
    }

    pub fn opened_total(&self) -> u64 {
        self.opened_total.load(Ordering::Acquire)
    }

    /// Snapshot of live sessions, sorted by id: the `session` rows of
    /// `STATS`.
    pub fn snapshot(&self) -> Vec<SessionStats> {
        let mut v: Vec<SessionStats> = self.sessions.lock().values().cloned().collect();
        v.sort_by_key(|s| s.id);
        v
    }
}

// ---- result fan-out ---------------------------------------------------------

/// Generic fan-out of `Arc<T>` items to a dynamic set of subscribers,
/// with a bounded backlog while no subscriber is attached.
///
/// The delivery skeleton shared by [`Broadcast`] (result batches to
/// emitter sockets) and the cluster router's byte relay: subscribe with
/// backlog replay, publish with dead-subscriber reaping, item/weight
/// counters. `weight_of` defines the second counter (tuples for
/// batches, bytes for wire chunks).
pub struct FanOut<T> {
    subs: Mutex<Vec<Sender<Arc<T>>>>,
    backlog: Mutex<VecDeque<Arc<T>>>,
    backlog_cap: usize,
    weight_of: fn(&T) -> u64,
    delivered_items: AtomicU64,
    delivered_weight: AtomicU64,
    dropped: AtomicU64,
}

impl<T> FanOut<T> {
    pub fn new(backlog_cap: usize, weight_of: fn(&T) -> u64) -> FanOut<T> {
        FanOut {
            subs: Mutex::new(Vec::new()),
            backlog: Mutex::new(VecDeque::new()),
            backlog_cap,
            weight_of,
            delivered_items: AtomicU64::new(0),
            delivered_weight: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Add a subscriber. Any backlog accumulated while no subscriber was
    /// attached is replayed to the new subscriber first, under the subs
    /// lock so `publish` cannot interleave a new item between the backlog
    /// and the live stream.
    pub fn subscribe(&self) -> Receiver<Arc<T>> {
        let (tx, rx) = unbounded();
        let mut subs = self.subs.lock();
        let backlog: Vec<Arc<T>> = self.backlog.lock().drain(..).collect();
        for item in backlog {
            self.count(&item);
            let _ = tx.send(item);
        }
        subs.push(tx);
        rx
    }

    /// Publish one item to all live subscribers (or the backlog when
    /// there are none, dropping oldest beyond the cap). Subscribers
    /// whose receiver hung up are reaped. Items are shared by `Arc` —
    /// fan-out never clones payloads.
    pub fn publish(&self, item: Arc<T>) {
        let mut subs = self.subs.lock();
        if !subs.is_empty() {
            let old = std::mem::take(&mut *subs);
            let mut live = Vec::with_capacity(old.len());
            for tx in old {
                if tx.send(Arc::clone(&item)).is_ok() {
                    live.push(tx);
                }
            }
            let delivered = !live.is_empty();
            *subs = live;
            if delivered {
                self.count(&item);
                return;
            }
        }
        let mut backlog = self.backlog.lock();
        if backlog.len() >= self.backlog_cap {
            backlog.pop_front();
            self.dropped.fetch_add(1, Ordering::AcqRel);
        }
        backlog.push_back(item);
    }

    fn count(&self, item: &Arc<T>) {
        self.delivered_items.fetch_add(1, Ordering::AcqRel);
        self.delivered_weight
            .fetch_add((self.weight_of)(item), Ordering::AcqRel);
    }

    /// Disconnect every subscriber channel (each drains what it already
    /// received, then ends) — the shutdown path.
    pub fn close(&self) {
        self.subs.lock().clear();
    }

    pub fn subscriber_count(&self) -> usize {
        self.subs.lock().len()
    }

    /// (items, total weight) delivered to at least one subscriber.
    pub fn delivered(&self) -> (u64, u64) {
        (
            self.delivered_items.load(Ordering::Acquire),
            self.delivered_weight.load(Ordering::Acquire),
        )
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }
}

/// Fan-out of one query's result batches to a dynamic set of subscribers.
///
/// Batches travel as [`SharedFrame`]s: the wire encoding of a batch is
/// produced at most once per format no matter how many subscriber
/// emitters (or how many backlog replays) deliver it.
pub struct Broadcast {
    inner: FanOut<SharedFrame>,
}

impl Broadcast {
    pub fn new() -> Arc<Broadcast> {
        Arc::new(Broadcast {
            inner: FanOut::new(BACKLOG_CAP, |f| f.len() as u64),
        })
    }

    /// Add a subscriber (backlog replayed first).
    pub fn subscribe(&self) -> Receiver<Arc<SharedFrame>> {
        self.inner.subscribe()
    }

    /// Publish one result batch, wrapped in one [`SharedFrame`] shared
    /// across the whole subscriber set.
    pub fn publish(&self, batch: Relation) {
        self.inner.publish(SharedFrame::new(batch));
    }

    pub fn subscriber_count(&self) -> usize {
        self.inner.subscriber_count()
    }

    /// (batches, tuples) delivered.
    pub fn delivered(&self) -> (u64, u64) {
        self.inner.delivered()
    }

    pub fn dropped_batches(&self) -> u64 {
        self.inner.dropped()
    }
}

/// One registered continuous query and its delivery machinery.
pub struct QueryHandle {
    pub name: String,
    pub sql: String,
    pub registered_at: Instant,
    /// Live scheduler-side statistics (shared with the factory thread).
    pub stats: Arc<Mutex<FactoryStats>>,
    /// Fan-out of result batches; `None` for queries with no bare SELECT
    /// (e.g. INSERT chains) — those cannot take emitters.
    pub broadcast: Option<Arc<Broadcast>>,
    /// The pump thread moving batches from the factory channel into the
    /// broadcast; joined at shutdown.
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl QueryHandle {
    pub fn new(
        name: impl Into<String>,
        sql: impl Into<String>,
        stats: Arc<Mutex<FactoryStats>>,
        results: Option<Receiver<Relation>>,
    ) -> Arc<QueryHandle> {
        let name = name.into();
        let (broadcast, pump) = match results {
            Some(rx) => {
                let bc = Broadcast::new();
                let bc2 = Arc::clone(&bc);
                let handle = std::thread::Builder::new()
                    .name(format!("dc-pump-{name}"))
                    .spawn(move || {
                        while let Ok(batch) = rx.recv() {
                            bc2.publish(batch);
                        }
                    })
                    .expect("spawn pump thread");
                (Some(bc), Some(handle))
            }
            None => (None, None),
        };
        Arc::new(QueryHandle {
            name,
            sql: sql.into(),
            registered_at: Instant::now(),
            stats,
            broadcast,
            pump: Mutex::new(pump),
        })
    }

    /// Wait for the pump to flush (valid once the factory's sender side
    /// has been dropped, i.e. after the scheduler stopped).
    pub fn join_pump(&self) {
        if let Some(h) = self.pump.lock().take() {
            let _ = h.join();
        }
    }
}

/// Registry of continuous queries by name.
#[derive(Default)]
pub struct QueryRegistry {
    queries: Mutex<HashMap<String, Arc<QueryHandle>>>,
}

impl QueryRegistry {
    pub fn new() -> Self {
        QueryRegistry::default()
    }

    pub fn insert(&self, handle: Arc<QueryHandle>) -> bool {
        let mut q = self.queries.lock();
        if q.contains_key(&handle.name) {
            return false;
        }
        q.insert(handle.name.clone(), handle);
        true
    }

    pub fn contains(&self, name: &str) -> bool {
        self.queries.lock().contains_key(name)
    }

    pub fn get(&self, name: &str) -> Option<Arc<QueryHandle>> {
        self.queries.lock().get(name).cloned()
    }

    pub fn len(&self) -> usize {
        self.queries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.queries.lock().is_empty()
    }

    /// Snapshot sorted by name.
    pub fn snapshot(&self) -> Vec<Arc<QueryHandle>> {
        let mut v: Vec<Arc<QueryHandle>> = self.queries.lock().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Drain all handles (shutdown path).
    pub fn drain(&self) -> Vec<Arc<QueryHandle>> {
        self.queries.lock().drain().map(|(_, h)| h).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(vals: &[i64]) -> Relation {
        Relation::from_columns(vec![("x".into(), Column::from_ints(vals.to_vec()))]).unwrap()
    }

    #[test]
    fn sessions_open_count_close() {
        let m = SessionManager::new();
        let a = m.open("1.2.3.4:5");
        let b = m.open("6.7.8.9:10");
        assert_ne!(a, b);
        m.note_command(a);
        m.note_command(a);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].commands, 2);
        m.close(a);
        assert_eq!(m.live_count(), 1);
        assert_eq!(m.opened_total(), 2);
    }

    #[test]
    fn broadcast_delivers_to_all_subscribers() {
        let bc = Broadcast::new();
        let rx1 = bc.subscribe();
        let rx2 = bc.subscribe();
        bc.publish(batch(&[1, 2]));
        let f1 = rx1.recv().unwrap();
        let f2 = rx2.recv().unwrap();
        assert_eq!(f1.len(), 2);
        assert_eq!(f2.len(), 2);
        assert!(
            Arc::ptr_eq(&f1, &f2),
            "subscribers share one frame, not clones"
        );
        assert_eq!(bc.delivered(), (1, 2));
    }

    #[test]
    fn broadcast_backlog_replays_to_first_subscriber() {
        let bc = Broadcast::new();
        bc.publish(batch(&[1]));
        bc.publish(batch(&[2, 3]));
        assert_eq!(bc.delivered(), (0, 0), "nothing delivered yet");
        let rx = bc.subscribe();
        assert_eq!(rx.recv().unwrap().len(), 1);
        assert_eq!(rx.recv().unwrap().len(), 2);
        assert_eq!(bc.delivered(), (2, 3));
    }

    #[test]
    fn broadcast_backlog_is_bounded() {
        let bc = Broadcast::new();
        for i in 0..(BACKLOG_CAP + 10) {
            bc.publish(batch(&[i as i64]));
        }
        assert_eq!(bc.dropped_batches(), 10);
        let rx = bc.subscribe();
        // oldest 10 dropped: first replayed batch holds value 10
        assert_eq!(
            rx.recv()
                .unwrap()
                .relation()
                .column("x")
                .unwrap()
                .ints()
                .unwrap(),
            &[10]
        );
    }

    #[test]
    fn dead_subscribers_are_reaped() {
        let bc = Broadcast::new();
        let rx = bc.subscribe();
        drop(rx);
        bc.publish(batch(&[1]));
        assert_eq!(bc.subscriber_count(), 0);
    }
}
