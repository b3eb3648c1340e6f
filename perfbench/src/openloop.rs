//! Open-loop driving of a daemon: one sender thread on one receptor
//! connection sends each batch at its due time whether or not earlier
//! results have arrived; the calling thread reads the one emitter
//! connection and hands every result batch to a [`Tracker`], which
//! checks it against the reference and records, per input batch, the
//! latency from the batch's due time to the emission that completes it.

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

use dcserver::client::{EmitterTap, ReceptorSink};
use monet::prelude::*;

use crate::gen::{agg_rows, int_cols, row_digest, Schedule};

/// How long the reader waits for outstanding results once the sender
/// has sent its last batch.
const DRAIN_GRACE_US: i64 = 10_000_000;

/// Checks emitted results and decides when each input batch is done.
pub trait Tracker {
    /// Digest one emitted batch received `now_us` after the window
    /// opened; push one latency sample (µs) per input batch it completes.
    fn observe(&mut self, rel: &Relation, now_us: i64, lat: &mut Vec<f64>);
    /// Every input batch has been completed.
    fn complete(&self) -> bool;
}

/// What one measured window produced.
pub struct Window {
    /// Per completed input batch: due time → completing emission, µs.
    pub lat_us: Vec<f64>,
    /// Per sent batch: how late the sender was against the due time, µs.
    pub late_us: Vec<f64>,
    /// When the last completion arrived, µs after the window opened.
    pub last_done_us: i64,
    /// The sender's or reader's transport error, if any.
    pub error: Option<String>,
}

/// The tap's read timeout firing. `ServerError::Io` carries only the
/// `io::Error` text, so the kind is recognised by its message.
fn is_timeout(e: &dcserver::error::ServerError) -> bool {
    let s = e.to_string();
    s.contains("os error 11") || s.contains("timed out") || s.contains("temporarily unavailable")
}

/// Drive one window. `result_schema` is the tapped query's output.
/// `give_up` runs when the reader stops waiting while the sender is still
/// blocked in a write; it must make that write fail (by stopping the
/// daemon) so the sender thread can be joined. Results that never arrive
/// while the daemon keeps reading are the tracker's to count as lost.
pub fn drive(
    mut sink: ReceptorSink,
    mut tap: EmitterTap,
    result_schema: &Schema,
    sched: &Schedule,
    tracker: &mut dyn Tracker,
    give_up: impl FnOnce(),
) -> Window {
    let _ = tap.set_timeout(Some(Duration::from_millis(100)));
    // a short lead so the first batch is not late by construction
    let start = Instant::now() + Duration::from_millis(20);
    let sent_at = AtomicI64::new(-1);
    let mut lat_us = Vec::with_capacity(sched.t0.len());
    let mut last_done_us = 0i64;
    let mut read_error = None;
    let (late_us, send_error) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late = Vec::with_capacity(sched.t0.len());
            let mut err = None;
            for (batch, &t0) in sched.batches.iter().zip(&sched.t0) {
                let due = start + Duration::from_micros(t0 as u64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late.push(Instant::now().saturating_duration_since(due).as_nanos() as f64 / 1e3);
                if let Err(e) = sink.send_batch(batch).and_then(|_| sink.flush()) {
                    err = Some(format!("send: {e}"));
                    break;
                }
            }
            sent_at.store(start.elapsed().as_micros() as i64, Ordering::Release);
            (late, err)
        });

        // results are awaited until DRAIN_GRACE after the last send (or
        // after the last due time, when the sender is stuck in a write)
        let last_due = sched.t0.last().copied().unwrap_or(0);
        while !tracker.complete() {
            let sent = sent_at.load(Ordering::Acquire);
            if (start.elapsed().as_micros() as i64) > sent.max(last_due) + DRAIN_GRACE_US {
                break;
            }
            match tap.next_batch(result_schema) {
                Ok(Some(rel)) => {
                    let now_us = Instant::now().saturating_duration_since(start).as_micros() as i64;
                    let before = lat_us.len();
                    tracker.observe(&rel, now_us, &mut lat_us);
                    if lat_us.len() > before {
                        last_done_us = now_us;
                    }
                }
                Ok(None) => {
                    read_error = Some("emitter closed the stream".to_string());
                    break;
                }
                Err(e) if is_timeout(&e) => {}
                Err(e) => {
                    read_error = Some(format!("read: {e}"));
                    break;
                }
            }
        }
        if !tracker.complete() && sent_at.load(Ordering::Acquire) < 0 {
            give_up();
        }
        sender.join().expect("sender thread")
    });
    Window {
        lat_us,
        late_us,
        last_done_us,
        error: send_error.or(read_error),
    }
}

/// The tapped grouped aggregate (`g, n, s, m` = group, `count(*)`,
/// `sum(v)`, `max(t0)`). Each emission is the whole group table; since
/// every row of a batch carries the batch's due time and batches append
/// atomically in send order, an emission whose largest `m` is `M`
/// reflects exactly the batches due at or before `M`.
pub struct AggTracker<'a> {
    t0: &'a [i64],
    next: usize,
    /// The latest emission: `(g, n, s, m)` rows, sorted.
    pub last: Vec<(i64, i64, i64, i64)>,
    /// Damage one group of the final result before it is checked.
    pub corrupt: bool,
}

impl<'a> AggTracker<'a> {
    pub fn new(t0: &'a [i64], corrupt: bool) -> Self {
        AggTracker {
            t0,
            next: 0,
            last: Vec::new(),
            corrupt,
        }
    }

    pub fn completed(&self) -> usize {
        self.next
    }

    /// Tuples of groups whose final `(count, sum, max t0)` differs from
    /// `reference`, plus any group emitted that the reference lacks.
    pub fn mismatched_tuples(&self, reference: &[(i64, i64, i64, i64)]) -> u64 {
        let mut got = self.last.clone();
        if self.corrupt {
            if let Some(r) = got.first_mut() {
                r.2 += 1;
            }
        }
        let mut bad = 0u64;
        for r in reference {
            if got.binary_search(r).is_err() {
                bad += r.1 as u64;
            }
        }
        let extra = got
            .iter()
            .filter(|g| reference.binary_search_by_key(&g.0, |r| r.0).is_err())
            .map(|g| g.1.max(1) as u64)
            .sum::<u64>();
        bad + extra
    }
}

impl Tracker for AggTracker<'_> {
    fn observe(&mut self, rel: &Relation, now_us: i64, lat: &mut Vec<f64>) {
        let Some(rows) = agg_rows(rel) else {
            return;
        };
        let newest = rows.iter().map(|r| r.3).max().unwrap_or(i64::MIN);
        while self.next < self.t0.len() && self.t0[self.next] <= newest {
            lat.push((now_us - self.t0[self.next]) as f64);
            self.next += 1;
        }
        self.last = rows;
    }

    fn complete(&self) -> bool {
        self.next == self.t0.len()
    }
}

/// The consuming filter's output rows `(id, v, t0)`. An input batch is
/// complete when all the rows the reference expects from it have
/// arrived; its rows' digest must then equal the reference digest.
pub struct FilterTracker<'a> {
    t0: &'a [i64],
    remaining: Vec<u32>,
    digest: Vec<u64>,
    expect_digest: &'a [u64],
    open: usize,
    /// Rows naming no batch, or arriving after their batch completed.
    pub stray_rows: u64,
    /// Completed batches whose digest differs from the reference.
    pub bad_batches: Vec<usize>,
    /// Drop one received row, as a damaged result.
    corrupt: bool,
}

impl<'a> FilterTracker<'a> {
    pub fn new(
        t0: &'a [i64],
        expect_rows: &[u32],
        expect_digest: &'a [u64],
        corrupt: bool,
    ) -> Self {
        FilterTracker {
            t0,
            remaining: expect_rows.to_vec(),
            digest: vec![0; t0.len()],
            expect_digest,
            open: expect_rows.iter().filter(|&&r| r > 0).count(),
            stray_rows: 0,
            bad_batches: Vec::new(),
            corrupt,
        }
    }

    /// Indices of batches still waiting for rows.
    pub fn incomplete(&self) -> impl Iterator<Item = usize> + '_ {
        self.remaining
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0)
            .map(|(i, _)| i)
    }
}

impl Tracker for FilterTracker<'_> {
    fn observe(&mut self, rel: &Relation, now_us: i64, lat: &mut Vec<f64>) {
        let Some([id, v, t0]) = int_cols(rel, ["id", "v", "t0"]) else {
            self.stray_rows += rel.len() as u64;
            return;
        };
        let skip = if self.corrupt && !id.is_empty() {
            self.corrupt = false;
            Some(0)
        } else {
            None
        };
        for i in 0..id.len() {
            if skip == Some(i) {
                continue;
            }
            let Ok(b) = self.t0.binary_search(&t0[i]) else {
                self.stray_rows += 1;
                continue;
            };
            if self.remaining[b] == 0 {
                self.stray_rows += 1;
                continue;
            }
            self.remaining[b] -= 1;
            self.digest[b] = self.digest[b].wrapping_add(row_digest(&[id[i], v[i], t0[i]]));
            if self.remaining[b] == 0 {
                self.open -= 1;
                lat.push((now_us - self.t0[b]) as f64);
                if self.digest[b] != self.expect_digest[b] {
                    self.bad_batches.push(b);
                }
            }
        }
    }

    fn complete(&self) -> bool {
        self.open == 0
    }
}
