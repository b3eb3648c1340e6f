//! Probes: the per-object bundles of histograms, counters and recorder
//! handles the engine stores. Constructors take a [`Telemetry`] handle
//! and return `None` when it is disabled, so instrumented code stores
//! one `Option<Arc<...>>` and pays a single branch on the off path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hist::Histogram;
use crate::recorder::FlightRecorder;
use crate::registry::Telemetry;
use crate::now_micros;

/// Instrumentation for one basket (stream): dwell-time histogram, an
/// ingest watermark for end-to-end latency, and backpressure /
/// compaction counters + events.
pub struct BasketProbe {
    stream: String,
    dwell: Arc<Histogram>,
    append: Arc<Histogram>,
    backpressure_waits: Arc<AtomicU64>,
    compactions: Arc<AtomicU64>,
    rows_in: Arc<AtomicU64>,
    cow_copies: Arc<AtomicU64>,
    cow_rows: Arc<AtomicU64>,
    /// Ingest timestamp ([`now_micros`]) of the oldest batch appended
    /// since the basket was last drained; `0` = unset. One CAS per
    /// batch, not per tuple.
    watermark: AtomicU64,
    /// Batch id (+ stamp time) of the most recent *traced* batch
    /// appended and not yet consumed by a firing; `0` = none.
    trace_batch: AtomicU64,
    trace_stamp: AtomicU64,
    recorder: Arc<FlightRecorder>,
}

impl BasketProbe {
    /// `None` when telemetry is disabled.
    pub fn new(t: &Telemetry, stream: &str) -> Option<Arc<BasketProbe>> {
        let labels = &[("stream", stream)][..];
        Some(Arc::new(BasketProbe {
            stream: stream.to_string(),
            dwell: t.histogram("dc_basket_dwell_micros", labels)?,
            append: t.histogram("dc_receptor_append_micros", labels)?,
            backpressure_waits: t.counter("dc_backpressure_waits_total", labels)?,
            compactions: t.counter("dc_compactions_total", labels)?,
            rows_in: t.counter("dc_ingest_rows_total", labels)?,
            cow_copies: t.counter("dc_basket_cow_copies_total", labels)?,
            cow_rows: t.counter("dc_basket_cow_rows_total", labels)?,
            watermark: AtomicU64::new(0),
            trace_batch: AtomicU64::new(0),
            trace_stamp: AtomicU64::new(0),
            recorder: t.recorder()?,
        }))
    }

    /// Stamp the ingest watermark if unset and count the appended rows.
    /// Call once per appended batch.
    #[inline]
    pub fn note_append(&self, rows: usize) {
        self.rows_in.fetch_add(rows as u64, Ordering::Relaxed);
        let _ = self.watermark.compare_exchange(
            0,
            now_micros(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// An append found `columns` of the store still shared with a snapshot
    /// and deep-copied them, `rows` rows in all (copy-on-write under the
    /// basket lock).
    #[inline]
    pub fn note_cow_copy(&self, columns: usize, rows: usize) {
        self.cow_copies.fetch_add(columns as u64, Ordering::Relaxed);
        self.cow_rows.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// A traced batch was just appended: remember its id and the append
    /// time so the next firing can report the basket-dwell span.
    pub fn set_trace_mark(&self, batch: u64) {
        self.trace_stamp.store(now_micros(), Ordering::Relaxed);
        self.trace_batch.store(batch, Ordering::Relaxed);
    }

    /// Disarm a mark armed for `batch` whose append landed no rows,
    /// leaving any newer mark in place.
    pub fn clear_trace_mark(&self, batch: u64) {
        let _ = self.trace_batch.compare_exchange(
            batch,
            0,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Consume the pending trace mark: `(batch id, append stamp µs)`.
    pub fn take_trace_mark(&self) -> Option<(u64, u64)> {
        let batch = self.trace_batch.swap(0, Ordering::Relaxed);
        if batch == 0 {
            return None;
        }
        Some((batch, self.trace_stamp.load(Ordering::Relaxed)))
    }

    /// Record one hop span of a traced batch against this stream.
    pub fn note_span(&self, hop: &'static str, batch: u64, dur_micros: u64) {
        self.recorder.record(
            "span",
            None,
            format!("batch={batch} hop={hop} dur_micros={dur_micros} stream={}", self.stream),
        );
    }

    /// Time taken by the server to wait for capacity + append one
    /// batch.
    #[inline]
    pub fn note_append_micros(&self, micros: u64) {
        self.append.record(micros);
    }

    /// Consume the watermark (oldest pending ingest timestamp, `0` if
    /// none) and record the dwell time the consumed tuples spent in the
    /// basket. Call when a firing drains/deletes from the basket.
    pub fn take_watermark(&self) -> u64 {
        let w = self.watermark.swap(0, Ordering::Relaxed);
        if w != 0 {
            self.dwell.record(now_micros().saturating_sub(w));
        }
        w
    }

    /// Current watermark without consuming it (`0` = unset).
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Relaxed)
    }

    /// A producer blocked on basket capacity for `micros`.
    pub fn note_backpressure(&self, micros: u64) {
        self.backpressure_waits.fetch_add(1, Ordering::Relaxed);
        self.recorder.record(
            "backpressure_wait",
            None,
            format!("stream={} wait_micros={micros}", self.stream),
        );
    }

    /// The basket compacted away `rows` logically-deleted rows.
    pub fn note_compaction(&self, rows: usize) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.recorder.record(
            "compaction",
            None,
            format!("stream={} rows={rows}", self.stream),
        );
    }
}

/// Fixed vocabulary of delta-execution fallback reasons — must match
/// `dcsql::plan::FALLBACK_REASONS` (pinned by a test in the core crate,
/// which depends on both; this crate deliberately depends on neither).
pub const DELTA_FALLBACK_REASONS: &[&str] = &[
    "first",
    "generation",
    "shrunk",
    "untracked",
    "variable",
    "error",
];

/// Instrumentation for one continuous query factory: per-phase fire
/// histograms, end-to-end tuple latency, re-execute counter, delta
/// fallback counters, and firing events.
pub struct FireProbe {
    query: String,
    lock: Arc<Histogram>,
    snapshot: Arc<Histogram>,
    execute: Arc<Histogram>,
    apply: Arc<Histogram>,
    total: Arc<Histogram>,
    tuple_latency: Arc<Histogram>,
    reexecutes: Arc<AtomicU64>,
    /// One counter per [`DELTA_FALLBACK_REASONS`] entry, same order —
    /// pre-created so every `{query, reason}` series exposes as `0`
    /// before its first fallback.
    delta_fallbacks: Vec<Arc<AtomicU64>>,
    /// Shared per-query slot handing a traced batch id to the emitter.
    emit_mark: Arc<AtomicU64>,
    recorder: Arc<FlightRecorder>,
}

impl FireProbe {
    /// `None` when telemetry is disabled.
    pub fn new(t: &Telemetry, query: &str) -> Option<Arc<FireProbe>> {
        let q = &[("query", query)][..];
        let phase = |p: &str| {
            t.histogram("dc_fire_phase_micros", &[("query", query), ("phase", p)])
        };
        let mut delta_fallbacks = Vec::with_capacity(DELTA_FALLBACK_REASONS.len());
        for reason in DELTA_FALLBACK_REASONS {
            delta_fallbacks.push(t.counter(
                "dc_delta_fallback_total",
                &[("query", query), ("reason", reason)],
            )?);
        }
        Some(Arc::new(FireProbe {
            query: query.to_string(),
            lock: phase("lock")?,
            snapshot: phase("snapshot")?,
            execute: phase("execute")?,
            apply: phase("apply")?,
            total: t.histogram("dc_fire_micros", q)?,
            tuple_latency: t.histogram("dc_tuple_latency_micros", q)?,
            reexecutes: t.counter("dc_reexecutes_total", q)?,
            delta_fallbacks,
            emit_mark: t.emit_mark(query)?,
            recorder: t.recorder()?,
        }))
    }

    /// A delta-capable statement fell back to full re-execution for
    /// `reason` (one of [`DELTA_FALLBACK_REASONS`]; unknown reasons are
    /// dropped rather than minting unbounded label values).
    pub fn note_delta_fallback(&self, reason: &str) {
        if let Some(i) = DELTA_FALLBACK_REASONS.iter().position(|r| *r == reason) {
            self.delta_fallbacks[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A firing consumed a traced batch: record its basket-dwell and
    /// fire spans and hand the id to this query's emitters.
    pub fn note_trace(&self, batch: u64, dwell_micros: u64, fire_micros: u64) {
        self.recorder.record(
            "span",
            Some(&self.query),
            format!("batch={batch} hop=basket_dwell dur_micros={dwell_micros}"),
        );
        self.recorder.record(
            "span",
            Some(&self.query),
            format!("batch={batch} hop=fire dur_micros={fire_micros}"),
        );
        self.emit_mark.store(batch, Ordering::Relaxed);
    }

    /// A firing began.
    pub fn note_fire_start(&self) {
        self.recorder
            .record("fire_start", Some(&self.query), String::new());
    }

    /// Snapshots changed under execution; the factory re-ran the plan.
    pub fn note_reexecute(&self) {
        self.reexecutes.fetch_add(1, Ordering::Relaxed);
        self.recorder
            .record("reexecute", Some(&self.query), String::new());
    }

    /// Record one completed firing: the phase breakdown, the total, the
    /// end-to-end tuple latency (when an ingest `watermark` was
    /// pending), and a `fire_end` event carrying the report.
    #[allow(clippy::too_many_arguments)]
    pub fn note_fire_end(
        &self,
        lock_micros: u64,
        snapshot_micros: u64,
        execute_micros: u64,
        apply_micros: u64,
        total_micros: u64,
        watermark: u64,
        rows_scanned: u64,
        rows_out: u64,
    ) {
        self.lock.record(lock_micros);
        self.snapshot.record(snapshot_micros);
        self.execute.record(execute_micros);
        self.apply.record(apply_micros);
        self.total.record(total_micros);
        if watermark != 0 {
            self.tuple_latency
                .record(now_micros().saturating_sub(watermark));
        }
        self.recorder.record(
            "fire_end",
            Some(&self.query),
            format!(
                "total_micros={total_micros} lock_micros={lock_micros} \
                 snapshot_micros={snapshot_micros} execute_micros={execute_micros} \
                 apply_micros={apply_micros} rows_scanned={rows_scanned} rows_out={rows_out}"
            ),
        );
    }
}

/// Instrumentation for one emitter: encode→socket-write histogram and
/// slow-subscriber coalescing counter + events.
pub struct EmitterProbe {
    query: String,
    write: Arc<Histogram>,
    coalesced: Arc<AtomicU64>,
    /// The fire probe's hand-off slot for traced batch ids.
    emit_mark: Arc<AtomicU64>,
    recorder: Arc<FlightRecorder>,
}

impl EmitterProbe {
    /// `None` when telemetry is disabled.
    pub fn new(t: &Telemetry, query: &str) -> Option<Arc<EmitterProbe>> {
        let q = &[("query", query)][..];
        Some(Arc::new(EmitterProbe {
            query: query.to_string(),
            write: t.histogram("dc_emitter_write_micros", q)?,
            coalesced: t.counter("dc_coalesced_batches_total", q)?,
            emit_mark: t.emit_mark(query)?,
            recorder: t.recorder()?,
        }))
    }

    /// One socket write (encode included) took `micros`. Consumes a
    /// pending traced batch (one atomic swap) into an `emitter` span.
    #[inline]
    pub fn note_write(&self, micros: u64) {
        self.write.record(micros);
        let batch = self.emit_mark.swap(0, Ordering::Relaxed);
        if batch != 0 {
            self.recorder.record(
                "span",
                Some(&self.query),
                format!("batch={batch} hop=emitter dur_micros={micros}"),
            );
        }
    }

    /// A slow subscriber caused `merged` queued batches to coalesce
    /// into one write.
    pub fn note_coalesce(&self, merged: u64) {
        self.coalesced.fetch_add(merged, Ordering::Relaxed);
        self.recorder.record(
            "coalesce",
            Some(&self.query),
            format!("merged_batches={merged}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_none_when_disabled() {
        let t = Telemetry::disabled();
        assert!(BasketProbe::new(&t, "s").is_none());
        assert!(FireProbe::new(&t, "q").is_none());
        assert!(EmitterProbe::new(&t, "q").is_none());
    }

    #[test]
    fn basket_probe_watermark_and_dwell() {
        let t = Telemetry::enabled();
        let p = BasketProbe::new(&t, "trades").unwrap();
        assert_eq!(p.watermark(), 0);
        assert_eq!(p.take_watermark(), 0, "no dwell sample without appends");
        p.note_append(3);
        let w = p.watermark();
        assert!(w > 0);
        p.note_append(4);
        assert_eq!(p.watermark(), w, "watermark keeps the oldest batch stamp");
        assert_eq!(p.take_watermark(), w);
        assert_eq!(p.watermark(), 0, "consumed");
        let snap = t
            .hist_snapshot("dc_basket_dwell_micros", &[("stream", "trades")])
            .unwrap();
        assert_eq!(snap.count, 1);
        assert!(t
            .render()
            .contains(&"dc_ingest_rows_total{stream=\"trades\"} 7".to_string()));
    }

    #[test]
    fn trace_marks_flow_from_basket_to_emitter() {
        let t = Telemetry::enabled();
        let b = BasketProbe::new(&t, "trades").unwrap();
        let f = FireProbe::new(&t, "hot").unwrap();
        let e = EmitterProbe::new(&t, "hot").unwrap();

        assert!(b.take_trace_mark().is_none());
        b.note_span("receptor", 42, 5);
        b.set_trace_mark(42);
        let (batch, stamp) = b.take_trace_mark().unwrap();
        assert_eq!(batch, 42);
        assert!(stamp > 0);
        assert!(b.take_trace_mark().is_none(), "mark is consumed once");

        f.note_trace(batch, 100, 40);
        e.note_write(9);
        e.note_write(9); // no pending mark → no second emitter span

        let spans = crate::span::render_spans(&t.recorder().unwrap().events(), Some(42));
        assert_eq!(spans[0], "batch 42 spans=4");
        assert!(spans[1].contains("hop=receptor") && spans[1].contains("stream=trades"));
        assert!(spans[2].contains("hop=basket_dwell") && spans[2].contains("dur_micros=100"));
        assert!(spans[3].contains("hop=fire") && spans[3].contains("dur_micros=40"));
        assert!(spans[4].contains("hop=emitter") && spans[4].contains("query=hot"));
        assert_eq!(spans.len(), 5);
    }

    #[test]
    fn basket_probe_counts_and_events() {
        let t = Telemetry::enabled();
        let p = BasketProbe::new(&t, "trades").unwrap();
        p.note_backpressure(120);
        p.note_compaction(64);
        p.note_append_micros(5);
        p.note_cow_copy(2, 2000);
        let body = t.render();
        assert!(body.contains(&"dc_basket_cow_copies_total{stream=\"trades\"} 2".to_string()));
        assert!(body.contains(&"dc_basket_cow_rows_total{stream=\"trades\"} 2000".to_string()));
        assert!(body
            .contains(&"dc_backpressure_waits_total{stream=\"trades\"} 1".to_string()));
        assert!(body.contains(&"dc_compactions_total{stream=\"trades\"} 1".to_string()));
        let dump = t.recorder().unwrap().dump(None);
        assert!(dump.iter().any(|l| l.contains("kind=backpressure_wait")
            && l.contains("wait_micros=120")));
        assert!(dump.iter().any(|l| l.contains("kind=compaction") && l.contains("rows=64")));
    }

    #[test]
    fn fire_probe_records_phases_and_events() {
        let t = Telemetry::enabled();
        let p = FireProbe::new(&t, "hot").unwrap();
        p.note_fire_start();
        p.note_reexecute();
        p.note_fire_end(5, 2, 40, 3, 50, now_micros(), 100, 7);
        let total = t.hist_snapshot("dc_fire_micros", &[("query", "hot")]).unwrap();
        assert_eq!(total.count, 1);
        assert_eq!(total.sum, 50);
        let exec = t
            .hist_snapshot("dc_fire_phase_micros", &[("query", "hot"), ("phase", "execute")])
            .unwrap();
        assert_eq!(exec.sum, 40);
        let lat = t
            .hist_snapshot("dc_tuple_latency_micros", &[("query", "hot")])
            .unwrap();
        assert_eq!(lat.count, 1, "watermark present → latency sample");
        let dump = t.recorder().unwrap().dump(Some("hot"));
        assert_eq!(dump.len(), 3);
        assert!(dump[0].contains("kind=fire_start"));
        assert!(dump[1].contains("kind=reexecute"));
        assert!(dump[2].contains("kind=fire_end") && dump[2].contains("rows_out=7"));
        // delta fallback counters: pre-created per reason, unknown dropped
        p.note_delta_fallback("generation");
        p.note_delta_fallback("generation");
        p.note_delta_fallback("no-such-reason");
        let body = t.render();
        assert!(body.contains(
            &"dc_delta_fallback_total{query=\"hot\",reason=\"generation\"} 2".to_string()
        ));
        assert!(body.contains(
            &"dc_delta_fallback_total{query=\"hot\",reason=\"first\"} 0".to_string()
        ));
        // no watermark → no latency sample
        p.note_fire_end(1, 1, 1, 1, 4, 0, 0, 0);
        let lat = t
            .hist_snapshot("dc_tuple_latency_micros", &[("query", "hot")])
            .unwrap();
        assert_eq!(lat.count, 1);
    }

    #[test]
    fn emitter_probe_records_writes_and_coalescing() {
        let t = Telemetry::enabled();
        let p = EmitterProbe::new(&t, "hot").unwrap();
        p.note_write(9);
        p.note_coalesce(3);
        let w = t
            .hist_snapshot("dc_emitter_write_micros", &[("query", "hot")])
            .unwrap();
        assert_eq!(w.sum, 9);
        assert!(t
            .render()
            .contains(&"dc_coalesced_batches_total{query=\"hot\"} 3".to_string()));
        assert!(t.recorder().unwrap().dump(Some("hot"))[0].contains("merged_batches=3"));
    }
}
