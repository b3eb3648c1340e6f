//! The three processing strategies of §4.2 (Figure 2).
//!
//! Each builder wires `k` single-range continuous queries over one stream
//! basket:
//!
//! * **Separate baskets** — a replicator factory copies every arriving
//!   column into one private basket per query; queries run fully
//!   independently (maximum independence, k-fold replication cost).
//! * **Shared baskets** — one basket feeds all queries. A *locker* factory
//!   disables the basket and raises per-query flags; the queries read
//!   without deleting (deferred consumption); an *unlocker* applies the
//!   union of their consumption sets and re-enables the basket.
//! * **Partial deletes** — queries form a chain: each consumes its matches
//!   from the incoming basket and forwards the remainder to the next
//!   query's basket, so later queries inspect ever fewer tuples at the
//!   price of continuous basket reorganization.
//!
//! All three accept the same query set so the fig. 5(b) bench compares
//! identical workloads.

use std::sync::Arc;

use monet::ops::select::select_range;
use monet::prelude::*;

use crate::basket::Basket;
use crate::clock::Clock;
use crate::error::Result;
use crate::factory::{ClosureFactory, Factory, FireReport};

/// One range query `lo < attr < hi` (0.1% selectivity in the paper's
/// micro-benchmark).
#[derive(Debug, Clone, Copy)]
pub struct RangeQuery {
    pub lo: i64,
    pub hi: i64,
}

impl RangeQuery {
    fn matches(&self, col: &Column) -> Result<SelVec> {
        Ok(select_range(
            col,
            &Value::Int(self.lo),
            &Value::Int(self.hi),
            false,
            false,
            None,
        )?)
    }
}

/// The stream schema used by the strategy benchmarks: a creation timestamp
/// and an integer attribute.
pub fn stream_schema() -> Schema {
    Schema::from_pairs(&[("ts", ValueType::Ts), ("a", ValueType::Int)])
}

/// Common result: factories to schedule plus the per-query output baskets.
pub struct StrategyNetwork {
    pub factories: Vec<Box<dyn Factory>>,
    pub outputs: Vec<Arc<Basket>>,
}

/// Build the **separate baskets** topology (Figure 2a).
pub fn separate_baskets(
    stream: &Arc<Basket>,
    queries: &[RangeQuery],
    min_batch: usize,
    clock: Arc<dyn Clock>,
) -> StrategyNetwork {
    let schema = stream_schema();
    let privates: Vec<Arc<Basket>> = (0..queries.len())
        .map(|i| Basket::new(format!("{}#priv{i}", stream.name()), &schema, false))
        .collect();
    let outputs: Vec<Arc<Basket>> = (0..queries.len())
        .map(|i| Basket::new(format!("{}#out{i}", stream.name()), &schema, false))
        .collect();

    let mut factories: Vec<Box<dyn Factory>> = Vec::with_capacity(queries.len() + 1);

    // Replicator: drain the stream, copy the (columnar) batch into every
    // private basket. On a column-store the copy is per-column, exactly as
    // §4.2 notes.
    {
        let src = Arc::clone(stream);
        let dsts = privates.clone();
        let clk = Arc::clone(&clock);
        factories.push(Box::new(
            ClosureFactory::new(
                format!("{}#replicate", stream.name()),
                vec![Arc::clone(stream)],
                privates.clone(),
                move || {
                    let batch = src.drain();
                    let n = batch.len();
                    if n == 0 {
                        return Ok(FireReport::default());
                    }
                    let mut produced = 0;
                    for d in &dsts {
                        produced += d.append_relation(batch.clone(), clk.as_ref())?;
                    }
                    Ok(FireReport {
                        consumed: n,
                        produced,
                        ..FireReport::default()
                    })
                },
            )
            .with_min_input(min_batch),
        ));
    }

    for (i, q) in queries.iter().copied().enumerate() {
        let input = Arc::clone(&privates[i]);
        let output = Arc::clone(&outputs[i]);
        let clk = Arc::clone(&clock);
        factories.push(Box::new(
            ClosureFactory::new(
                format!("{}#q{i}", stream.name()),
                vec![Arc::clone(&privates[i])],
                vec![Arc::clone(&outputs[i])],
                move || {
                    let batch = input.drain();
                    let n = batch.len();
                    if n == 0 {
                        return Ok(FireReport::default());
                    }
                    let sel = q.matches(batch.column("a")?)?;
                    let hits = batch.gather(&sel)?;
                    let produced = output.append_relation(hits, clk.as_ref())?;
                    Ok(FireReport {
                        consumed: n,
                        produced,
                        ..FireReport::default()
                    })
                },
            )
            .with_min_input(min_batch),
        ));
    }

    StrategyNetwork { factories, outputs }
}

/// Build the **shared baskets** topology (Figure 2b): locker → k queries →
/// unlocker, all over one shared basket.
pub fn shared_baskets(
    stream: &Arc<Basket>,
    queries: &[RangeQuery],
    min_batch: usize,
    clock: Arc<dyn Clock>,
) -> StrategyNetwork {
    let k = queries.len();
    let flag_schema = Schema::from_pairs(&[("go", ValueType::Bool)]);
    let flags: Vec<Arc<Basket>> = (0..k)
        .map(|i| Basket::new(format!("{}#flag{i}", stream.name()), &flag_schema, false))
        .collect();
    let dones: Vec<Arc<Basket>> = (0..k)
        .map(|i| Basket::new(format!("{}#done{i}", stream.name()), &flag_schema, false))
        .collect();
    let outputs: Vec<Arc<Basket>> = (0..k)
        .map(|i| Basket::new(format!("{}#out{i}", stream.name()), &stream_schema(), false))
        .collect();
    let pending = crate::factory::PendingDeletes::new();

    let mut factories: Vec<Box<dyn Factory>> = Vec::with_capacity(k + 2);

    // Locker L: once the shared basket has a batch and no round is in
    // flight (all flag/done baskets empty), disable the basket and raise
    // one flag per query.
    {
        let b = Arc::clone(stream);
        let flags2 = flags.clone();
        let dones2 = dones.clone();
        let clk = Arc::clone(&clock);
        let b_ready = Arc::clone(stream);
        let flags_r = flags.clone();
        let dones_r = dones.clone();
        factories.push(Box::new(
            ClosureFactory::new(
                format!("{}#locker", stream.name()),
                vec![Arc::clone(stream)],
                flags.clone(),
                move || {
                    b.disable();
                    let row = vec![Value::Bool(true)];
                    for f in &flags2 {
                        f.append_rows(std::slice::from_ref(&row), clk.as_ref())?;
                    }
                    Ok(FireReport {
                        consumed: 0,
                        produced: flags2.len(),
                        ..FireReport::default()
                    })
                },
            )
            .with_ready(flags.iter().chain(&dones).cloned().collect(), move || {
                b_ready.len() >= min_batch
                    && b_ready.is_enabled()
                    && flags_r.iter().all(|f| f.is_empty())
                    && dones_r.iter().all(|d| d.is_empty())
            }),
        ));
        let _ = dones2; // silences move; dones participate via unlocker
    }

    // k query factories: triggered by their flag; read the shared basket
    // without deleting; record consumption; raise done.
    for (i, q) in queries.iter().copied().enumerate() {
        let flag = Arc::clone(&flags[i]);
        let done = Arc::clone(&dones[i]);
        let shared = Arc::clone(stream);
        let output = Arc::clone(&outputs[i]);
        let clk = Arc::clone(&clock);
        factories.push(Box::new(ClosureFactory::new(
            format!("{}#q{i}", stream.name()),
            vec![Arc::clone(&flags[i])],
            vec![Arc::clone(&outputs[i]), Arc::clone(&dones[i])],
            move || {
                let _ = flag.drain();
                // Snapshot under the basket lock — with copy-on-write
                // columns this is O(width), a refcount bump per column;
                // the selection then runs with the lock released. The
                // unlocker deletes later.
                let snap = shared.lock().live_snapshot();
                let sel = q.matches(snap.column("a")?)?;
                let hits = snap.gather(&sel)?;
                let produced = output.append_relation(hits, clk.as_ref())?;
                // every query's basket expression covers the whole locked
                // batch, so the union the unlocker must delete is simply
                // "everything present at lock time" — the basket is
                // disabled, so its contents *are* the batch and no
                // per-query selection bookkeeping is needed
                done.append_rows(&[vec![Value::Bool(true)]], clk.as_ref())?;
                Ok(FireReport {
                    consumed: 0,
                    produced,
                    ..FireReport::default()
                })
            },
        )));
    }

    // Unlocker U: all done → drop the covered batch, re-enable, clear
    // done flags. Any deferred per-query deletions (from factories using
    // ConsumeMode::Defer) are applied first.
    {
        let b = Arc::clone(stream);
        let dones2 = dones.clone();
        let pend = Arc::clone(&pending);
        factories.push(Box::new(ClosureFactory::new(
            format!("{}#unlocker", stream.name()),
            dones.clone(),
            vec![Arc::clone(stream)],
            move || {
                for d in &dones2 {
                    let _ = d.drain();
                }
                for (name, sel) in pend.take() {
                    if name == b.name() {
                        b.delete_sel(&sel)?;
                    }
                }
                // the basket was disabled for the whole round, so what
                // remains is exactly the batch all queries covered
                let consumed = b.drain().len();
                b.enable();
                Ok(FireReport {
                    consumed,
                    produced: 0,
                    ..FireReport::default()
                })
            },
        )));
    }

    StrategyNetwork { factories, outputs }
}

/// Build the **partial deletes** chain (Figure 2c): all queries share the
/// stream basket; each removes the tuples that qualified its basket
/// predicate *in place* and only then signals the next query (so later
/// queries inspect fewer tuples). The final stage clears the residue —
/// every tuple has been seen by all queries at that point. Queries must be
/// interested in disjoint ranges for this to be lossless, which is how the
/// benchmark constructs them.
pub fn partial_deletes(
    stream: &Arc<Basket>,
    queries: &[RangeQuery],
    min_batch: usize,
    clock: Arc<dyn Clock>,
) -> StrategyNetwork {
    let k = queries.len();
    let flag_schema = Schema::from_pairs(&[("go", ValueType::Bool)]);
    // signal baskets: stage i fires when signal[i] holds a token; stage 0
    // is triggered directly by the stream threshold
    let signals: Vec<Arc<Basket>> = (1..k)
        .map(|i| Basket::new(format!("{}#sig{i}", stream.name()), &flag_schema, false))
        .collect();
    let outputs: Vec<Arc<Basket>> = (0..k)
        .map(|i| Basket::new(format!("{}#out{i}", stream.name()), &stream_schema(), false))
        .collect();
    // true while a batch is travelling down the chain: keeps stage 0 from
    // re-firing on the shrinking residue
    let in_flight = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let mut factories: Vec<Box<dyn Factory>> = Vec::with_capacity(k);
    for (i, q) in queries.iter().copied().enumerate() {
        let shared = Arc::clone(stream);
        let output = Arc::clone(&outputs[i]);
        let my_signal = if i == 0 { None } else { Some(Arc::clone(&signals[i - 1])) };
        let next_signal = signals.get(i).cloned();
        let clk = Arc::clone(&clock);
        let is_last = i == k - 1;
        let flight = Arc::clone(&in_flight);

        let inputs = match &my_signal {
            Some(s) => vec![Arc::clone(s)],
            None => vec![Arc::clone(stream)],
        };
        let mut outs = vec![Arc::clone(&outputs[i])];
        if let Some(n) = &next_signal {
            outs.push(Arc::clone(n));
        }
        let threshold = if i == 0 { min_batch } else { 1 };
        let ready_gate = (i == 0).then(|| {
            let stream_r = Arc::clone(stream);
            let flight_r = Arc::clone(&in_flight);
            let min = min_batch;
            move || {
                !flight_r.load(std::sync::atomic::Ordering::Acquire)
                    && stream_r.len() >= min
            }
        });
        factories.push(Box::new({
            let factory = ClosureFactory::new(
                format!("{}#q{i}", stream.name()),
                inputs,
                outs,
                move || {
                    if let Some(sig) = &my_signal {
                        let _ = sig.drain();
                    } else {
                        flight.store(true, std::sync::atomic::Ordering::Release);
                    }
                    // select + per-query delete: the continuous basket
                    // modification the paper measures. The delete is a
                    // logical mark against the live view; the basket
                    // compacts physically once enough rows are dead.
                    let (hits, sel_len) = {
                        let mut guard = shared.lock();
                        let view = guard.live_snapshot();
                        let sel = q.matches(view.column("a")?)?;
                        let hits = view.gather(&sel)?;
                        shared.delete_sel_locked(&mut guard, &sel)?;
                        (hits, sel.len())
                    };
                    let produced = output.append_relation(hits, clk.as_ref())?;
                    let mut consumed = sel_len;
                    if is_last {
                        // residue seen by everyone: drop it, end the round
                        consumed += shared.drain().len();
                        flight.store(false, std::sync::atomic::Ordering::Release);
                        // stage 0's gate reads the flag: wake it
                        shared.notify();
                    } else if let Some(next) = &next_signal {
                        next.append_rows(&[vec![Value::Bool(true)]], clk.as_ref())?;
                    }
                    Ok(FireReport {
                        consumed,
                        produced,
                        ..FireReport::default()
                    })
                },
            )
            .with_min_input(threshold);
            match ready_gate {
                Some(gate) => factory.with_ready(vec![], gate),
                None => factory,
            }
        }));
    }

    StrategyNetwork { factories, outputs }
}

/// Build the **shared selection** topology — the §4.3 research direction
/// ("queries requiring similar ranges in selection operators can be
/// supported by shared factories that give output to more than one
/// query's factories"). One fused factory classifies every tuple against
/// all `k` disjoint ranges in a single O(n·log k) pass and routes matches
/// to the per-query outputs: sharing *execution* cost, not just storage.
pub fn shared_selection(
    stream: &Arc<Basket>,
    queries: &[RangeQuery],
    min_batch: usize,
    clock: Arc<dyn Clock>,
) -> StrategyNetwork {
    let outputs: Vec<Arc<Basket>> = (0..queries.len())
        .map(|i| Basket::new(format!("{}#out{i}", stream.name()), &stream_schema(), false))
        .collect();

    // sort ranges by lower bound for binary-search classification; keep
    // the original query index for routing
    let mut sorted: Vec<(RangeQuery, usize)> =
        queries.iter().copied().zip(0..).collect();
    sorted.sort_by_key(|(q, _)| q.lo);
    debug_assert!(
        sorted.windows(2).all(|w| w[0].0.hi <= w[1].0.lo + 1),
        "shared selection requires disjoint ranges"
    );

    let src = Arc::clone(stream);
    let outs = outputs.clone();
    let clk = Arc::clone(&clock);
    let factory = ClosureFactory::new(
        format!("{}#fused", stream.name()),
        vec![Arc::clone(stream)],
        outputs.clone(),
        move || {
            let batch = src.drain();
            let n = batch.len();
            if n == 0 {
                return Ok(FireReport::default());
            }
            let values = batch.column("a")?.ints()?;
            let mut per_query: Vec<Vec<u32>> = vec![Vec::new(); outs.len()];
            for (pos, &v) in values.iter().enumerate() {
                // last range whose exclusive lower bound admits v
                let idx = sorted.partition_point(|(q, _)| q.lo < v);
                if idx > 0 {
                    let (q, orig) = sorted[idx - 1];
                    if v > q.lo && v < q.hi {
                        per_query[orig].push(pos as u32);
                    }
                }
            }
            let mut produced = 0;
            for (qi, positions) in per_query.into_iter().enumerate() {
                if positions.is_empty() {
                    continue;
                }
                let sel =
                    SelVec::from_sorted(positions).expect("positions emitted in scan order");
                let hits = batch.gather(&sel)?;
                produced += outs[qi].append_relation(hits, clk.as_ref())?;
            }
            Ok(FireReport {
                consumed: n,
                produced,
                ..FireReport::default()
            })
        },
    )
    .with_min_input(min_batch);

    StrategyNetwork {
        factories: vec![Box::new(factory)],
        outputs,
    }
}

/// Disjoint 0.1%-selectivity ranges over the attribute domain `[0, domain)`
/// — the micro-benchmark's query population. When `k` ranges at the asked
/// selectivity cannot fit disjointly, the width shrinks to `domain / k`
/// (the partial-deletes strategy requires disjointness to be lossless).
pub fn disjoint_ranges(k: usize, domain: i64, selectivity: f64) -> Vec<RangeQuery> {
    let asked = ((domain as f64 * selectivity).ceil() as i64).max(1);
    let fitting = (domain / k.max(1) as i64).max(1);
    let width = asked.min(fitting);
    (0..k)
        .map(|i| {
            let lo = i as i64 * width;
            RangeQuery {
                lo,
                hi: lo + width + 1, // exclusive bounds: (lo, lo+width+1) selects `width` values
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::scheduler::Scheduler;

    fn mk_stream(name: &str) -> Arc<Basket> {
        Basket::new(name, &stream_schema(), false)
    }

    fn feed(stream: &Arc<Basket>, clock: &VirtualClock, values: &[i64]) {
        let rows: Vec<Vec<Value>> = values
            .iter()
            .map(|&v| vec![Value::Ts(clock.now()), Value::Int(v)])
            .collect();
        stream.append_rows(&rows, clock).unwrap();
    }

    fn run(net: StrategyNetwork) -> Vec<Arc<Basket>> {
        let mut sched = Scheduler::new();
        for f in net.factories {
            sched.add(f);
        }
        sched.run_until_quiescent(1000).unwrap();
        net.outputs
    }

    fn totals(outputs: &[Arc<Basket>]) -> Vec<usize> {
        outputs.iter().map(|b| b.len()).collect()
    }

    #[test]
    fn disjoint_ranges_cover_expected_widths() {
        let qs = disjoint_ranges(3, 10_000, 0.001);
        assert_eq!(qs.len(), 3);
        for w in &qs {
            assert_eq!(w.hi - w.lo, 11);
        }
        // disjoint
        assert!(qs[0].hi - 1 <= qs[1].lo + 1);
    }

    #[test]
    fn shared_selection_matches_per_query_scans() {
        let queries = disjoint_ranges(8, 1_000, 0.02);
        let data: Vec<i64> = (0..1_000).collect();
        let clock = Arc::new(VirtualClock::new());
        let s1 = mk_stream("fused");
        feed(&s1, &clock, &data);
        let fused = run(shared_selection(&s1, &queries, 1, clock.clone()));
        let s2 = mk_stream("ref");
        feed(&s2, &clock, &data);
        let reference = run(separate_baskets(&s2, &queries, 1, clock.clone()));
        assert_eq!(totals(&fused), totals(&reference));
        assert!(s1.is_empty());
    }

    #[test]
    fn all_three_strategies_agree() {
        let queries = vec![
            RangeQuery { lo: 9, hi: 20 },   // matches 10..=19
            RangeQuery { lo: 29, hi: 40 },  // matches 30..=39
            RangeQuery { lo: 49, hi: 60 },  // matches 50..=59
        ];
        let data: Vec<i64> = (0..100).collect();

        let clock = Arc::new(VirtualClock::new());

        let s1 = mk_stream("sep");
        feed(&s1, &clock, &data);
        let sep = run(separate_baskets(&s1, &queries, 1, clock.clone()));

        let s2 = mk_stream("sha");
        feed(&s2, &clock, &data);
        let sha = run(shared_baskets(&s2, &queries, 1, clock.clone()));

        let s3 = mk_stream("par");
        feed(&s3, &clock, &data);
        let par = run(partial_deletes(&s3, &queries, 1, clock.clone()));

        let expect = vec![10usize, 10, 10];
        assert_eq!(totals(&sep), expect, "separate");
        assert_eq!(totals(&sha), expect, "shared");
        assert_eq!(totals(&par), expect, "partial");

        // all strategies leave the pipeline drained
        assert!(s1.is_empty());
        assert!(s2.is_empty());
        assert!(s3.is_empty());
    }

    #[test]
    fn shared_baskets_reenables_stream() {
        let clock = Arc::new(VirtualClock::new());
        let s = mk_stream("reuse");
        let queries = vec![RangeQuery { lo: -1, hi: 1000 }];
        let net = shared_baskets(&s, &queries, 1, clock.clone());
        let mut sched = Scheduler::new();
        let outputs = net.outputs.clone();
        for f in net.factories {
            sched.add(f);
        }
        feed(&s, &clock, &[1, 2, 3]);
        sched.run_until_quiescent(100).unwrap();
        assert!(s.is_enabled(), "unlocker re-enabled the basket");
        assert_eq!(outputs[0].len(), 3);
        // second round must work too
        feed(&s, &clock, &[4, 5]);
        sched.run_until_quiescent(100).unwrap();
        assert_eq!(outputs[0].len(), 5);
    }

    #[test]
    fn partial_deletes_chain_shrinks_work() {
        let clock = Arc::new(VirtualClock::new());
        let s = mk_stream("chain");
        let queries = vec![
            RangeQuery { lo: -1, hi: 50 },  // consumes 0..=49
            RangeQuery { lo: 49, hi: 100 }, // sees only 50..=99
        ];
        feed(&s, &clock, &(0..100).collect::<Vec<_>>());
        let net = partial_deletes(&s, &queries, 1, clock.clone());
        let outputs = net.outputs.clone();
        let mut sched = Scheduler::new();
        for f in net.factories {
            sched.add(f);
        }
        sched.run_until_quiescent(100).unwrap();
        assert_eq!(outputs[0].len(), 50);
        assert_eq!(outputs[1].len(), 50);
    }

    #[test]
    fn batch_threshold_gates_first_stage() {
        let clock = Arc::new(VirtualClock::new());
        let s = mk_stream("thresh");
        let queries = vec![RangeQuery { lo: -1, hi: 100 }];
        let net = separate_baskets(&s, &queries, 5, clock.clone());
        let outputs = net.outputs.clone();
        let mut sched = Scheduler::new();
        for f in net.factories {
            sched.add(f);
        }
        feed(&s, &clock, &[1, 2, 3]);
        sched.run_until_quiescent(100).unwrap();
        assert_eq!(outputs[0].len(), 0, "below threshold");
        feed(&s, &clock, &[4, 5]);
        sched.run_until_quiescent(100).unwrap();
        assert_eq!(outputs[0].len(), 5);
    }
}
