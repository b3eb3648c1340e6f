//! Shard replication and automatic failover.
//!
//! Every shard may carry a **follower**: a second `datacelld` that holds
//! a durable copy of the shard's persistent streams but runs no live
//! baskets or queries (a cold standby). The router's replication pump
//! ships the primary's durable state over the ordinary control plane:
//!
//! ```text
//!   follower: REPL OPEN <stream> AS <ddl>      (once, idempotent)
//!   loop:
//!     follower: REPL STATUS <stream>           -> (segs, epoch, offset)
//!     primary:  REPL EXPORT <stream> SEGS .. EPOCH .. OFFSET ..
//!     follower: REPL SEGMENT ...               (each shipped segment)
//!     follower: REPL WAL EPOCH .. FROM .. ..   (the WAL tail chunk)
//! ```
//!
//! The cursor is entirely follower-side state, so replication is
//! restartable from either end at any time: the pump re-reads the
//! cursor every round and the primary exports exactly what lies past
//! it (sealed segments are content-identical files; the WAL tail is
//! shipped at record boundaries and re-framed verbatim).
//!
//! **Failure detection** lives in the router's HEALTH poll: a primary
//! that misses `failover_misses` consecutive polls while a follower
//! exists is failed over. **Promotion** then runs entirely against the
//! follower (the primary is presumed dead and is never contacted):
//!
//! 1. `REPL OPEN` every persistent stream (idempotent — covers streams
//!    created moments before the crash that the pump never reached);
//! 2. `REPL PROMOTE`: the follower replays each replica stream's WAL
//!    tail over its sealed segments into a live basket and attaches
//!    persistence — the acknowledged rows that had been shipped are
//!    live again;
//! 3. re-create non-persistent streams hosted on the shard (their rows
//!    died with the primary — nothing durable existed);
//! 4. re-register the standing queries that resolved on the shard;
//! 5. re-attach the shard-side receptor/emitter ports behind every
//!    logical router port, splice fresh emitter taps into the existing
//!    [`FrameRelay`]s (subscribers keep their sockets), and re-point
//!    the port maps;
//! 6. swap the slot's primary handle — new ingest connections and
//!    control fan-outs now resolve to the promoted engine.
//!
//! Replication is asynchronous: rows acknowledged by the primary but
//! not yet shipped when it dies are lost to the *cluster* until the
//! primary's data dir is recovered (they are still on its disk). The
//! `dc_replication_lag_rows` gauge is exactly that exposure, and an
//! operator (or test) that has observed lag 0 past an acknowledged
//! count knows those rows survive promotion.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dcserver::error::{Result, ServerError};

use crate::engines::ShardEngine;
use crate::router::{shard_tap, ClusterRuntime, StreamEntry};

/// Pump ticks without progress (while lag is non-zero or the round
/// errors) before a shard is flagged `replication_stalled`.
pub(crate) const STALL_TICKS: u32 = 3;
/// Catch-up rounds one pump tick may run per stream × shard — bounds
/// the time a single tick can monopolize the follower's control plane.
const MAX_ROUNDS_PER_TICK: usize = 16;

/// Replication pump bookkeeping, keyed by `(stream, shard id)`.
#[derive(Default)]
pub struct ReplState {
    /// Pairs whose follower has acknowledged `REPL OPEN`.
    opened: std::collections::HashSet<(String, usize)>,
    /// Last observed replication lag (rows acknowledged by the primary
    /// but not yet on the follower's disk).
    pub(crate) lag: std::collections::HashMap<(String, usize), u64>,
    /// Stall tracking per pair.
    stall: std::collections::HashMap<(String, usize), Stall>,
}

#[derive(Default, Clone, Copy)]
struct Stall {
    last_lag: u64,
    ticks: u32,
}

impl ClusterRuntime {
    /// Run one replication pump tick: for every persistent stream ×
    /// shard with a follower, ship segments + WAL tail until caught up
    /// (bounded), refresh `dc_replication_lag_rows`, and update the
    /// per-shard stall flags. Public so tests can drive replication
    /// deterministically instead of waiting out `repl_interval`.
    pub fn pump_replication_now(&self) {
        let entries: Vec<Arc<StreamEntry>> = self
            .streams
            .lock()
            .values()
            .filter(|e| e.persist)
            .cloned()
            .collect();
        // None = no persistent stream pumped for this shard this tick
        // (leave its stall flag alone — it may be carrying a sticky
        // DDL-fan-out failure)
        let mut slot_stalled: Vec<Option<bool>> = vec![None; self.slots.len()];
        for entry in &entries {
            for &eid in &entry.engines {
                let slot = &self.slots[eid];
                if slot.failing_over.load(Ordering::Acquire) {
                    continue;
                }
                let Some(follower) = slot.follower() else {
                    continue;
                };
                let primary = slot.primary();
                let key = (entry.name.clone(), eid);
                let shard_label = eid.to_string();
                let outcome = self.pump_stream_shard(entry, eid, &primary, &follower);
                let stalled_now;
                {
                    let mut st = self.repl.lock();
                    match outcome {
                        Ok(lag) => {
                            let stall = st.stall.entry(key.clone()).or_default();
                            if lag == 0 || lag < stall.last_lag {
                                stall.ticks = 0;
                            } else {
                                stall.ticks += 1;
                            }
                            stall.last_lag = lag;
                            stalled_now = stall.ticks >= STALL_TICKS;
                            st.lag.insert(key, lag);
                            self.telemetry.set_gauge(
                                "dc_replication_lag_rows",
                                &[("stream", &entry.name), ("shard", &shard_label)],
                                lag as f64,
                            );
                        }
                        Err(_) => {
                            // force a fresh REPL OPEN handshake next tick
                            // (the follower may have restarted)
                            st.opened.remove(&key);
                            let stall = st.stall.entry(key).or_default();
                            stall.ticks = stall.ticks.saturating_add(1);
                            stalled_now = stall.ticks >= STALL_TICKS;
                        }
                    }
                }
                let agg = slot_stalled[eid].unwrap_or(false) || stalled_now;
                slot_stalled[eid] = Some(agg);
            }
        }
        for (eid, stalled) in slot_stalled.into_iter().enumerate() {
            if let Some(s) = stalled {
                self.slots[eid].set_stalled(s);
            }
        }
    }

    /// Ship one stream's durable state from `primary` to `follower`
    /// until caught up or `MAX_ROUNDS_PER_TICK`. Returns the remaining
    /// lag in rows (0 = the follower's disk holds everything the
    /// primary has acknowledged for this stream).
    fn pump_stream_shard(
        &self,
        entry: &StreamEntry,
        eid: usize,
        primary: &ShardEngine,
        follower: &ShardEngine,
    ) -> Result<u64> {
        let key = (entry.name.clone(), eid);
        if !self.repl.lock().opened.contains(&key) {
            follower.control(|c| c.repl_open(&entry.name, &entry.ddl))?;
            self.repl.lock().opened.insert(key);
        }
        let mut lag = 0u64;
        for _ in 0..MAX_ROUNDS_PER_TICK {
            let status = follower.control(|c| c.repl_status(&entry.name))?;
            let chunk = primary.control(|c| {
                c.repl_export(&entry.name, status.segments, status.epoch, status.wal_bytes)
            })?;
            let shipped_segments = !chunk.segments.is_empty();
            for (file, rows, data) in &chunk.segments {
                follower.control(|c| c.repl_segment(&entry.name, file, *rows, data))?;
            }
            let epoch_change = chunk.epoch != status.epoch;
            if epoch_change || !chunk.wal_data.is_empty() {
                follower.control(|c| {
                    c.repl_wal(&entry.name, chunk.epoch, chunk.wal_from, &chunk.wal_data)
                })?;
            }
            lag = chunk.pending_rows;
            if lag == 0 {
                break;
            }
            if !shipped_segments && !epoch_change && chunk.wal_data.is_empty() {
                // lag reported but nothing exportable — don't spin
                break;
            }
        }
        Ok(lag)
    }

    /// Fail shard `eid` over to its follower. CAS-guarded: concurrent
    /// triggers (HEALTH command + snapshotter tick) run it once. On
    /// failure the slot keeps its dead primary and its follower, and the
    /// next HEALTH miss retries — every step is idempotent (`REPL OPEN`
    /// and `REPL PROMOTE` skip work already done, DDL and query
    /// re-registration tolerate duplicates, port attachment rolls back).
    pub(crate) fn promote_shard(self: &Arc<Self>, eid: usize) {
        let slot = &self.slots[eid];
        if slot
            .failing_over
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let outcome = self.try_promote(eid);
        match &outcome {
            Ok(addr) => {
                slot.failovers.fetch_add(1, Ordering::AcqRel);
                slot.health_misses.store(0, Ordering::Release);
                slot.set_stalled(false);
                let shard_label = eid.to_string();
                if let Some(ctr) = self
                    .telemetry
                    .counter("dc_failover_total", &[("shard", &shard_label)])
                {
                    ctr.fetch_add(1, Ordering::Relaxed);
                }
                // retire this pair's pump state: the shard has no
                // follower anymore, its lag gauge reads 0
                let mut st = self.repl.lock();
                st.opened.retain(|(_, e)| *e != eid);
                st.stall.retain(|(_, e), _| *e != eid);
                let retired: Vec<(String, usize)> = st
                    .lag
                    .keys()
                    .filter(|(_, e)| *e == eid)
                    .cloned()
                    .collect();
                for k in retired {
                    st.lag.remove(&k);
                    self.telemetry.set_gauge(
                        "dc_replication_lag_rows",
                        &[("stream", &k.0), ("shard", &shard_label)],
                        0.0,
                    );
                }
                drop(st);
                if let Some(rec) = self.telemetry.recorder() {
                    rec.record("failover", None, format!("shard={eid} promoted={addr}"));
                }
                eprintln!("dccluster: shard {eid} failed over to {addr}");
            }
            Err(e) => {
                if let Some(rec) = self.telemetry.recorder() {
                    rec.record("failover", None, format!("shard={eid} failed: {e}"));
                }
                eprintln!("dccluster: shard {eid} failover attempt failed: {e}");
            }
        }
        slot.failing_over.store(false, Ordering::Release);
    }

    /// The promotion protocol body (see the module docs for the step
    /// list). Returns the promoted engine's control address.
    fn try_promote(self: &Arc<Self>, eid: usize) -> Result<String> {
        let slot = &self.slots[eid];
        let follower = slot.follower().ok_or_else(|| {
            ServerError::Protocol(format!("shard {eid} has no follower to promote"))
        })?;
        let hosted: Vec<Arc<StreamEntry>> = self
            .streams
            .lock()
            .values()
            .filter(|s| s.engines.contains(&eid))
            .cloned()
            .collect();
        let queries: Vec<Arc<crate::router::QueryEntry>> = self
            .queries
            .lock()
            .values()
            .filter(|q| q.engines.contains(&eid))
            .cloned()
            .collect();

        // 1+2: durable streams replay into live baskets
        let persists: Vec<&Arc<StreamEntry>> = hosted.iter().filter(|s| s.persist).collect();
        for s in &persists {
            follower.control(|c| c.repl_open(&s.name, &s.ddl))?;
        }
        if !persists.is_empty() {
            follower.control(|c| c.repl_promote())?;
        }
        // 3: non-persistent streams restart empty
        for s in hosted.iter().filter(|s| !s.persist) {
            match follower.control(|c| c.request(&s.ddl)) {
                Ok(_) => {}
                Err(e) if e.to_string().contains("duplicate") => {}
                Err(e) => return Err(e),
            }
        }
        // 4: standing queries resume (their baskets now exist and hold
        // the replayed rows, which the engine delivers like any boot
        // replay — downstream sees the shard's acknowledged rows again:
        // failover is at-least-once, never lossy past the shipped lag)
        for q in &queries {
            match follower
                .control(|c| c.request(&format!("REGISTER QUERY {} AS {}", q.name, q.sql)))
            {
                Ok(_) => {}
                Err(e) if e.to_string().contains("duplicate") => {}
                Err(e) if e.to_string().contains("unknown name") => {
                    // the query only resolved on this shard through a
                    // stream placed elsewhere — nothing to re-register
                }
                Err(e) => return Err(e),
            }
        }

        // 5: data-plane ports. Attach everything on the follower first;
        // only when the full set is up do we re-point the port maps, so
        // a partial failure leaves the old (dead) topology intact for a
        // clean retry. `attached` tracks what must be rolled back.
        let receptors = self.receptors.lock().clone();
        let emitters = self.emitters.lock().clone();
        let mut attached: Vec<(bool, String, u16)> = Vec::new(); // (is_emitter, name, port)
        let rollback = |engine: &ShardEngine, attached: &[(bool, String, u16)]| {
            for (is_emitter, name, p) in attached {
                let _ = engine.control(|c| {
                    if *is_emitter {
                        c.detach_emitter(name, *p)
                    } else {
                        c.detach_receptor(name, *p)
                    }
                });
            }
        };
        let mut new_rports: Vec<(Arc<crate::router::ClusterReceptorPort>, u16)> = Vec::new();
        for rport in &receptors {
            if !rport.shard_ports.lock().iter().any(|&(e, _)| e == eid) {
                continue;
            }
            match follower.control(|c| {
                c.attach_receptor_fmt(&rport.stream, 0, datacell::frame::WireFormat::Binary)
            }) {
                Ok(p) => {
                    attached.push((false, rport.stream.clone(), p));
                    new_rports.push((Arc::clone(rport), p));
                }
                Err(e) => {
                    rollback(&follower, &attached);
                    return Err(e);
                }
            }
        }
        let mut new_eports: Vec<(
            Arc<crate::router::ClusterEmitterPort>,
            u16,
            std::net::TcpStream,
        )> = Vec::new();
        for eport in &emitters {
            if !eport.shard_ports.lock().iter().any(|&(e, _)| e == eid) {
                continue;
            }
            let attempt = follower
                .control(|c| c.attach_emitter_fmt(&eport.query, 0, eport.format))
                .and_then(|p| {
                    attached.push((true, eport.query.clone(), p));
                    Ok((p, follower.connect_data(p)?))
                });
            match attempt {
                Ok((p, sock)) => new_eports.push((Arc::clone(eport), p, sock)),
                Err(e) => {
                    rollback(&follower, &attached);
                    return Err(e);
                }
            }
        }

        // 6: point the shard at the promoted engine. Connections racing
        // this window may pair the new engine with an old port (or vice
        // versa) and fail to connect — ingest clients already treat a
        // dropped connection as "reconnect and retry", which lands them
        // on the final topology.
        let addr = follower.addr().to_string();
        *slot.primary.write() = Arc::clone(&follower);
        *slot.follower.lock() = None;
        for (rport, p) in new_rports {
            for entry in rport.shard_ports.lock().iter_mut() {
                if entry.0 == eid {
                    entry.1 = p;
                }
            }
        }
        for (eport, p, sock) in new_eports {
            for entry in eport.shard_ports.lock().iter_mut() {
                if entry.0 == eid {
                    entry.1 = p;
                }
            }
            let rt = Arc::clone(self);
            let relay = Arc::clone(&eport.relay);
            let format = eport.format;
            let tap = std::thread::Builder::new()
                .name(format!("dcc-tap-{}-{eid}", eport.query))
                .spawn(move || shard_tap(&rt, &relay, sock, format))
                .map_err(|e| ServerError::Io(format!("spawn promoted shard tap: {e}")))?;
            self.egress_threads.lock().push(tap);
        }
        Ok(addr)
    }
}
