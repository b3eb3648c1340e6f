//! The Linear Road continuous-query network (paper §6.2, Figure 6).
//!
//! 38 logical queries in 7 collections; "as a first step each collection
//! of queries becomes a single factory" — exactly what we build. Tuples
//! flow between collections through baskets:
//!
//! ```text
//! lr_input ─Q1─▶ lr_pos_acc ──Q2─▶ lr_accseg ─┐
//!          │───▶ lr_pos_stats ─Q3─▶ (SegStats)├─Q4─▶ lr_tolls, lr_accalerts,
//!          │───▶ lr_crossings ────────────────┘      lr_charges
//!          └───▶ lr_requests ─Q5─▶ lr_balreq ─Q7─▶ lr_balans
//!                             └──▶ lr_expreq ─Q6─▶ lr_expans
//! ```
//!
//! Q7 (18 queries) is the heavyweight account-balance pipeline, matching
//! the paper's observation that it dominates system load.

use std::sync::Arc;

use datacell::basket::Basket;
use datacell::clock::Clock;
use datacell::error::Result;
use datacell::factory::{ClosureFactory, Factory, FireReport};
use monet::ops::group::{agg_sum, group_by};
use monet::ops::join::{anti_join, hash_join};
use monet::ops::select::{select_cmp, select_in};
use monet::ops::sort::{sort_perm, SortKey};
use monet::ops::CmpOp;
use monet::prelude::*;
use parking_lot::Mutex;

use crate::accident::AccidentDetector;
use crate::history::daily_toll;
use crate::segstats::SegStats;
use crate::toll::{toll_for_crossing, Assessment, TollAssessor};
use crate::types::*;

/// Shared mutable benchmark state (the "intermediate results" the paper
/// stores and later queries).
pub struct LrState {
    pub stats: SegStats,
    pub accidents: AccidentDetector,
    /// Reference (oracle) account bookkeeping, used by the validator.
    pub assessor: TollAssessor,
    /// Relational account table maintained by Q7: (vid, balance, updated).
    pub accounts: Relation,
    /// History seed for daily-expenditure answers.
    pub history_seed: u64,
    /// Count of malformed tuples silently dropped by Q1.
    pub malformed_dropped: u64,
}

impl LrState {
    pub fn new(history_seed: u64) -> Self {
        LrState {
            stats: SegStats::new(),
            accidents: AccidentDetector::new(),
            assessor: TollAssessor::new(),
            accounts: Relation::new(&Schema::from_pairs(&[
                ("vid", ValueType::Int),
                ("balance", ValueType::Int),
                ("updated", ValueType::Int),
            ])),
            history_seed,
            malformed_dropped: 0,
        }
    }
}

/// All baskets of the network.
pub struct LrBaskets {
    pub input: Arc<Basket>,
    pub pos_acc: Arc<Basket>,
    pub pos_stats: Arc<Basket>,
    pub crossings: Arc<Basket>,
    pub requests: Arc<Basket>,
    pub balreq: Arc<Basket>,
    pub expreq: Arc<Basket>,
    pub charges: Arc<Basket>,
    pub tolls: Arc<Basket>,
    pub accalerts: Arc<Basket>,
    pub balans: Arc<Basket>,
    pub expans: Arc<Basket>,
}

impl LrBaskets {
    pub fn new() -> Self {
        let input = Basket::new("lr_input", &input_schema(), false);
        let pos = || {
            Schema::from_pairs(&[
                ("time", ValueType::Int),
                ("vid", ValueType::Int),
                ("spd", ValueType::Int),
                ("xway", ValueType::Int),
                ("lane", ValueType::Int),
                ("dir", ValueType::Int),
                ("seg", ValueType::Int),
                ("pos", ValueType::Int),
            ])
        };
        LrBaskets {
            input,
            pos_acc: Basket::new("lr_pos_acc", &pos(), false),
            pos_stats: Basket::new("lr_pos_stats", &pos(), false),
            crossings: Basket::new(
                "lr_crossings",
                &Schema::from_pairs(&[
                    ("time", ValueType::Int),
                    ("vid", ValueType::Int),
                    ("xway", ValueType::Int),
                    ("dir", ValueType::Int),
                    ("seg", ValueType::Int),
                    // toll debited for the segment just left (0 = none)
                    ("charged", ValueType::Int),
                ]),
                false,
            ),
            requests: Basket::new(
                "lr_requests",
                &Schema::from_pairs(&[
                    ("type", ValueType::Int),
                    ("time", ValueType::Int),
                    ("vid", ValueType::Int),
                    ("qid", ValueType::Int),
                    ("xway", ValueType::Int),
                    ("day", ValueType::Int),
                ]),
                false,
            ),
            balreq: Basket::new(
                "lr_balreq",
                &Schema::from_pairs(&[
                    ("time", ValueType::Int),
                    ("vid", ValueType::Int),
                    ("qid", ValueType::Int),
                ]),
                false,
            ),
            expreq: Basket::new(
                "lr_expreq",
                &Schema::from_pairs(&[
                    ("time", ValueType::Int),
                    ("vid", ValueType::Int),
                    ("qid", ValueType::Int),
                    ("xway", ValueType::Int),
                    ("day", ValueType::Int),
                ]),
                false,
            ),
            charges: Basket::new(
                "lr_charges",
                &Schema::from_pairs(&[
                    ("time", ValueType::Int),
                    ("vid", ValueType::Int),
                    ("toll", ValueType::Int),
                ]),
                false,
            ),
            tolls: Basket::new(
                "lr_tolls",
                &Schema::from_pairs(&[
                    ("vid", ValueType::Int),
                    ("time", ValueType::Int),
                    ("emit", ValueType::Int),
                    ("lav", ValueType::Int),
                    ("toll", ValueType::Int),
                ]),
                false,
            ),
            accalerts: Basket::new(
                "lr_accalerts",
                &Schema::from_pairs(&[
                    ("vid", ValueType::Int),
                    ("time", ValueType::Int),
                    ("emit", ValueType::Int),
                    ("seg", ValueType::Int),
                ]),
                false,
            ),
            balans: Basket::new(
                "lr_balans",
                &Schema::from_pairs(&[
                    ("qid", ValueType::Int),
                    ("vid", ValueType::Int),
                    ("time", ValueType::Int),
                    ("emit", ValueType::Int),
                    ("balance", ValueType::Int),
                ]),
                false,
            ),
            expans: Basket::new(
                "lr_expans",
                &Schema::from_pairs(&[
                    ("qid", ValueType::Int),
                    ("vid", ValueType::Int),
                    ("time", ValueType::Int),
                    ("emit", ValueType::Int),
                    ("expenditure", ValueType::Int),
                ]),
                false,
            ),
        }
    }
}

impl Default for LrBaskets {
    fn default() -> Self {
        LrBaskets::new()
    }
}

/// Names of the 38 logical queries grouped by collection — counts match
/// Figure 6: Q1..Q7 = [3, 5, 5, 4, 2, 1, 18].
pub fn query_inventory() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "Q1",
            vec!["route_position_reports", "detect_segment_crossings", "route_historical_requests"],
        ),
        (
            "Q2",
            vec![
                "track_position_streaks",
                "detect_stopped_cars",
                "create_accidents",
                "clear_accidents",
                "publish_accident_segments",
            ],
        ),
        (
            "Q3",
            vec![
                "aggregate_minute_speeds",
                "count_minute_cars",
                "merge_statistics",
                "compute_lav",
                "evict_stale_statistics",
            ],
        ),
        (
            "Q4",
            vec![
                "compute_crossing_tolls",
                "match_accident_alerts",
                "emit_toll_notifications",
                "emit_accident_alerts",
            ],
        ),
        ("Q5", vec!["filter_balance_requests", "filter_expenditure_requests"]),
        ("Q6", vec!["answer_daily_expenditure"]),
        (
            "Q7",
            vec![
                "snapshot_charge_events",
                "validate_charge_events",
                "group_charges_by_vehicle",
                "join_charges_with_accounts",
                "apply_balance_deltas",
                "find_new_vehicles",
                "initialize_new_accounts",
                "merge_account_table",
                "stamp_account_updates",
                "snapshot_balance_requests",
                "dedupe_requests_by_qid",
                "join_requests_with_accounts",
                "default_missing_accounts",
                "assemble_balance_answers",
                "order_answers_by_time",
                "check_answer_deadlines",
                "emit_balance_answers",
                "evict_settled_charges",
            ],
        ),
    ]
}

fn iv(v: &Column) -> Result<Vec<i64>> {
    Ok(v.ints()?.to_vec())
}

/// Build the seven collection factories over the given baskets and state.
pub fn build_network(
    baskets: &LrBaskets,
    state: Arc<Mutex<LrState>>,
    clock: Arc<dyn Clock>,
) -> Vec<Box<dyn Factory>> {
    vec![
        q1_ingest(baskets, Arc::clone(&state), Arc::clone(&clock)),
        q2_accidents(baskets, Arc::clone(&state), Arc::clone(&clock)),
        q3_statistics(baskets, Arc::clone(&state), Arc::clone(&clock)),
        q4_tolls(baskets, Arc::clone(&state), Arc::clone(&clock)),
        q5_filter(baskets, Arc::clone(&state), Arc::clone(&clock)),
        q6_expenditure(baskets, Arc::clone(&state), Arc::clone(&clock)),
        q7_balance(baskets, state, clock),
    ]
}

/// Q1 — ingest & route (3 queries).
fn q1_ingest(
    b: &LrBaskets,
    state: Arc<Mutex<LrState>>,
    clock: Arc<dyn Clock>,
) -> Box<dyn Factory> {
    let input = Arc::clone(&b.input);
    let pos_acc = Arc::clone(&b.pos_acc);
    let pos_stats = Arc::clone(&b.pos_stats);
    let crossings = Arc::clone(&b.crossings);
    let requests = Arc::clone(&b.requests);
    Box::new(ClosureFactory::new(
        "Q1",
        vec![Arc::clone(&b.input)],
        vec![
            Arc::clone(&b.pos_acc),
            Arc::clone(&b.pos_stats),
            Arc::clone(&b.crossings),
            Arc::clone(&b.requests),
        ],
        move || {
            let batch = input.drain();
            let n = batch.len();
            if n == 0 {
                return Ok(FireReport::default());
            }
            let mut produced = 0;

            // -- query 1.1: route (and validate) position reports ---------
            let typ = batch.column("type")?;
            let positions = select_cmp(typ, CmpOp::Eq, &Value::Int(0), None)?;
            // integrity: silently drop structurally invalid reports
            let lane_ok = monet::ops::select::select_range(
                batch.column("lane")?,
                &Value::Int(0),
                &Value::Int(NUM_LANES - 1),
                true,
                true,
                Some(&positions),
            )?;
            let seg_ok = monet::ops::select::select_range(
                batch.column("seg")?,
                &Value::Int(0),
                &Value::Int(NUM_SEGMENTS - 1),
                true,
                true,
                Some(&lane_ok),
            )?;
            {
                let mut st = state.lock();
                st.malformed_dropped += (positions.len() - seg_ok.len()) as u64;
            }
            let pos_rel = batch
                .project(&["time", "vid", "spd", "xway", "lane", "dir", "seg", "pos"])?
                .gather(&seg_ok)?;
            produced += pos_acc.append_relation(pos_rel.clone(), clock.as_ref())?;
            produced += pos_stats.append_relation(pos_rel.clone(), clock.as_ref())?;

            // -- query 1.2: detect segment crossings -----------------------
            // (delegates to the assessor's last-segment memory; emits one
            // crossing event per car whose segment changed)
            {
                let mut st = state.lock();
                let times = iv(pos_rel.column("time")?)?;
                let vids = iv(pos_rel.column("vid")?)?;
                let xways = iv(pos_rel.column("xway")?)?;
                let dirs = iv(pos_rel.column("dir")?)?;
                let segs = iv(pos_rel.column("seg")?)?;
                let mut out = Relation::new(crossings.schema());
                for i in 0..pos_rel.len() {
                    match st.assessor.on_report(vids[i], segs[i], times[i]) {
                        Assessment::Crossed { charged } => {
                            out.append_row(&[
                                Value::Int(times[i]),
                                Value::Int(vids[i]),
                                Value::Int(xways[i]),
                                Value::Int(dirs[i]),
                                Value::Int(segs[i]),
                                Value::Int(charged),
                            ])?;
                        }
                        Assessment::SameSegment => {}
                    }
                }
                produced += crossings.append_relation(out, clock.as_ref())?;
            }

            // -- query 1.3: route historical requests ----------------------
            let req_sel = select_in(typ, &[Value::Int(2), Value::Int(3)], None)?;
            let req_rel = batch
                .project(&["type", "time", "vid", "qid", "xway", "day"])?
                .gather(&req_sel)?;
            produced += requests.append_relation(req_rel, clock.as_ref())?;

            Ok(FireReport {
                consumed: n,
                produced,
                ..FireReport::default()
            })
        },
    ))
}

/// Q2 — accident detection (5 queries).
fn q2_accidents(
    b: &LrBaskets,
    state: Arc<Mutex<LrState>>,
    _clock: Arc<dyn Clock>,
) -> Box<dyn Factory> {
    let pos_acc = Arc::clone(&b.pos_acc);
    Box::new(ClosureFactory::new(
        "Q2",
        vec![Arc::clone(&b.pos_acc)],
        vec![],
        move || {
            let batch = pos_acc.drain();
            let n = batch.len();
            if n == 0 {
                return Ok(FireReport::default());
            }
            let times = iv(batch.column("time")?)?;
            let vids = iv(batch.column("vid")?)?;
            let spds = iv(batch.column("spd")?)?;
            let xways = iv(batch.column("xway")?)?;
            let lanes = iv(batch.column("lane")?)?;
            let dirs = iv(batch.column("dir")?)?;
            let poss = iv(batch.column("pos")?)?;

            let mut st = state.lock();
            let mut new_accidents = 0;
            // queries 2.1–2.4 run inside the detector: streak tracking,
            // stopped-car detection, accident creation, accident clearing
            for i in 0..n {
                let t = InputTuple {
                    kind: InputKind::Position,
                    time: times[i],
                    vid: vids[i],
                    spd: spds[i],
                    xway: xways[i],
                    lane: lanes[i],
                    dir: dirs[i],
                    seg: poss[i] / SEGMENT_FEET,
                    pos: poss[i],
                    qid: -1,
                    day: -1,
                };
                if st.accidents.observe(&t).is_some() {
                    new_accidents += 1;
                }
            }
            // query 2.5: publish — active accident segments are served to
            // Q4 straight from the detector (the "Accidents" store of
            // Figure 6); idle tracks are evicted as part of publishing
            if let Some(&latest) = times.last() {
                st.accidents.evict_idle(latest - 10 * REPORT_INTERVAL_SECS);
            }
            Ok(FireReport {
                consumed: n,
                produced: new_accidents,
                ..FireReport::default()
            })
        },
    ))
}

/// Q3 — segment statistics (5 queries).
fn q3_statistics(
    b: &LrBaskets,
    state: Arc<Mutex<LrState>>,
    _clock: Arc<dyn Clock>,
) -> Box<dyn Factory> {
    let pos_stats = Arc::clone(&b.pos_stats);
    Box::new(ClosureFactory::new(
        "Q3",
        vec![Arc::clone(&b.pos_stats)],
        vec![],
        move || {
            let batch = pos_stats.drain();
            let n = batch.len();
            if n == 0 {
                return Ok(FireReport::default());
            }

            // queries 3.1 + 3.2: relational minute aggregation — group by
            // (xway, dir, seg) and compute avg speed & distinct cars. The
            // grouped results are what gets merged into the rolling store.
            let keys: Vec<&Column> = vec![
                batch.column("xway")?,
                batch.column("dir")?,
                batch.column("seg")?,
            ];
            let grouping = group_by(&keys, None)?;
            let _avg = monet::ops::group::agg_avg(batch.column("spd")?, &grouping)?;
            let _cars = monet::ops::group::agg_count_distinct(batch.column("vid")?, &grouping)?;

            let times = iv(batch.column("time")?)?;
            let vids = iv(batch.column("vid")?)?;
            let spds = iv(batch.column("spd")?)?;
            let xways = iv(batch.column("xway")?)?;
            let dirs = iv(batch.column("dir")?)?;
            let poss = iv(batch.column("pos")?)?;

            let mut st = state.lock();
            // query 3.3: merge into the rolling per-minute store
            for i in 0..n {
                st.stats.observe(&InputTuple {
                    kind: InputKind::Position,
                    time: times[i],
                    vid: vids[i],
                    spd: spds[i],
                    xway: xways[i],
                    lane: 1,
                    dir: dirs[i],
                    seg: poss[i] / SEGMENT_FEET,
                    pos: poss[i],
                    qid: -1,
                    day: -1,
                });
            }
            // query 3.4: LAV refresh for touched segments (reads back the
            // rolling store so Q4 lookups are O(1))
            let minute = times.last().map(|&t| minute_of(t)).unwrap_or(1);
            let mut lav_count = 0;
            for gid in 0..grouping.ngroups as usize {
                let rep = grouping.representatives[gid] as usize;
                let key = crate::segstats::SegKey {
                    xway: xways[rep],
                    dir: dirs[rep],
                    seg: poss[rep] / SEGMENT_FEET,
                };
                if st.stats.lav(key, minute).is_some() {
                    lav_count += 1;
                }
            }
            // query 3.5: evict statistics older than the LAV horizon + slack
            st.stats.evict_before(minute, 16);
            Ok(FireReport {
                consumed: n,
                produced: lav_count,
                ..FireReport::default()
            })
        },
    ))
}

/// Q4 — toll computation & alerts (4 queries).
fn q4_tolls(
    b: &LrBaskets,
    state: Arc<Mutex<LrState>>,
    clock: Arc<dyn Clock>,
) -> Box<dyn Factory> {
    let crossings = Arc::clone(&b.crossings);
    let tolls_out = Arc::clone(&b.tolls);
    let alerts_out = Arc::clone(&b.accalerts);
    let charges_out = Arc::clone(&b.charges);
    Box::new(ClosureFactory::new(
        "Q4",
        vec![Arc::clone(&b.crossings)],
        vec![
            Arc::clone(&b.tolls),
            Arc::clone(&b.accalerts),
            Arc::clone(&b.charges),
        ],
        move || {
            let batch = crossings.drain();
            let n = batch.len();
            if n == 0 {
                return Ok(FireReport::default());
            }
            let times = iv(batch.column("time")?)?;
            let vids = iv(batch.column("vid")?)?;
            let xways = iv(batch.column("xway")?)?;
            let dirs = iv(batch.column("dir")?)?;
            let segs = iv(batch.column("seg")?)?;
            let charged_col = iv(batch.column("charged")?)?;

            let emit_secs = clock.now() / MICROS_PER_SEC_I;
            let mut st = state.lock();
            let mut toll_rows = Relation::new(tolls_out.schema());
            let mut alert_rows = Relation::new(alerts_out.schema());
            let mut charge_rows = Relation::new(charges_out.schema());
            for i in 0..n {
                // query 4.1: toll for the entered segment
                let (toll, lav, acc_seg) = toll_for_crossing(
                    &st.stats,
                    &st.accidents,
                    xways[i],
                    dirs[i],
                    segs[i],
                    times[i],
                );
                // query 4.2: accident match for the entered segment
                if let Some(aseg) = acc_seg {
                    alert_rows.append_row(&[
                        Value::Int(vids[i]),
                        Value::Int(times[i]),
                        Value::Int(emit_secs),
                        Value::Int(aseg),
                    ])?;
                }
                // query 4.3: toll notification for the entered segment
                st.assessor.notify(vids[i], segs[i], toll, times[i]);
                toll_rows.append_row(&[
                    Value::Int(vids[i]),
                    Value::Int(times[i]),
                    Value::Int(emit_secs),
                    Value::Int(lav),
                    Value::Int(toll),
                ])?;
                // query 4.4: charge event for the segment just left
                if charged_col[i] > 0 {
                    charge_rows.append_row(&[
                        Value::Int(times[i]),
                        Value::Int(vids[i]),
                        Value::Int(charged_col[i]),
                    ])?;
                }
            }
            let mut produced = 0;
            produced += tolls_out.append_relation(toll_rows, clock.as_ref())?;
            produced += alerts_out.append_relation(alert_rows, clock.as_ref())?;
            produced += charge_rows.len();
            charges_out.append_relation(charge_rows, clock.as_ref())?;
            Ok(FireReport {
                consumed: n,
                produced,
                ..FireReport::default()
            })
        },
    ))
}

const MICROS_PER_SEC_I: i64 = 1_000_000;

/// Q5 — request filtering (2 queries).
fn q5_filter(
    b: &LrBaskets,
    _state: Arc<Mutex<LrState>>,
    clock: Arc<dyn Clock>,
) -> Box<dyn Factory> {
    let requests = Arc::clone(&b.requests);
    let balreq = Arc::clone(&b.balreq);
    let expreq = Arc::clone(&b.expreq);
    Box::new(ClosureFactory::new(
        "Q5",
        vec![Arc::clone(&b.requests)],
        vec![Arc::clone(&b.balreq), Arc::clone(&b.expreq)],
        move || {
            let batch = requests.drain();
            let n = batch.len();
            if n == 0 {
                return Ok(FireReport::default());
            }
            let typ = batch.column("type")?;
            // query 5.1: type = 2 → balance requests
            let s2 = select_cmp(typ, CmpOp::Eq, &Value::Int(2), None)?;
            let r2 = batch.project(&["time", "vid", "qid"])?.gather(&s2)?;
            // query 5.2: type = 3 → expenditure requests
            let s3 = select_cmp(typ, CmpOp::Eq, &Value::Int(3), None)?;
            let r3 = batch
                .project(&["time", "vid", "qid", "xway", "day"])?
                .gather(&s3)?;
            let mut produced = 0;
            produced += balreq.append_relation(r2, clock.as_ref())?;
            produced += expreq.append_relation(r3, clock.as_ref())?;
            Ok(FireReport {
                consumed: n,
                produced,
                ..FireReport::default()
            })
        },
    ))
}

/// Q6 — daily expenditure answers (1 query; 10 s deadline).
fn q6_expenditure(
    b: &LrBaskets,
    state: Arc<Mutex<LrState>>,
    clock: Arc<dyn Clock>,
) -> Box<dyn Factory> {
    let expreq = Arc::clone(&b.expreq);
    let expans = Arc::clone(&b.expans);
    Box::new(ClosureFactory::new(
        "Q6",
        vec![Arc::clone(&b.expreq)],
        vec![Arc::clone(&b.expans)],
        move || {
            let batch = expreq.drain();
            let n = batch.len();
            if n == 0 {
                return Ok(FireReport::default());
            }
            let times = iv(batch.column("time")?)?;
            let vids = iv(batch.column("vid")?)?;
            let qids = iv(batch.column("qid")?)?;
            let xways = iv(batch.column("xway")?)?;
            let days = iv(batch.column("day")?)?;
            let seed = state.lock().history_seed;
            let emit = clock.now() / MICROS_PER_SEC_I;
            let mut out = Relation::new(expans.schema());
            for i in 0..n {
                let spent = daily_toll(vids[i], days[i], xways[i], seed);
                out.append_row(&[
                    Value::Int(qids[i]),
                    Value::Int(vids[i]),
                    Value::Int(times[i]),
                    Value::Int(emit),
                    Value::Int(spent),
                ])?;
            }
            let produced = expans.append_relation(out, clock.as_ref())?;
            Ok(FireReport {
                consumed: n,
                produced,
                ..FireReport::default()
            })
        },
    ))
}

/// Q7 — the heavyweight account-balance pipeline (18 queries; 5 s
/// deadline). Maintains the relational account table from charge events
/// and answers balance requests by joining against it.
fn q7_balance(
    b: &LrBaskets,
    state: Arc<Mutex<LrState>>,
    clock: Arc<dyn Clock>,
) -> Box<dyn Factory> {
    let charges = Arc::clone(&b.charges);
    let balreq = Arc::clone(&b.balreq);
    let balans = Arc::clone(&b.balans);
    let charges_r = Arc::clone(&b.charges);
    let balreq_r = Arc::clone(&b.balreq);
    Box::new(
        ClosureFactory::new(
            "Q7",
            vec![Arc::clone(&b.charges), Arc::clone(&b.balreq)],
            vec![Arc::clone(&b.balans)],
            move || {
                // 7.1 snapshot charge events
                let charge_batch = charges.drain();
                // 7.10 snapshot balance requests
                let req_batch = balreq.drain();
                let n = charge_batch.len() + req_batch.len();
                if n == 0 {
                    return Ok(FireReport::default());
                }
                let mut st = state.lock();

                // 7.2 validate charge events (toll > 0; silent filter)
                let valid = select_cmp(
                    charge_batch.column("toll")?,
                    CmpOp::Gt,
                    &Value::Int(0),
                    None,
                )?;
                let charge_batch = charge_batch.gather(&valid)?;

                if !charge_batch.is_empty() {
                    // 7.3 group charges by vehicle (sum per vid)
                    let g = group_by(&[charge_batch.column("vid")?], None)?;
                    let sums = agg_sum(charge_batch.column("toll")?, &g)?;
                    let last_times = monet::ops::group::agg_max(charge_batch.column("time")?, &g)?;
                    let vids_grouped =
                        charge_batch.column("vid")?.gather_positions(&g.representatives)?;
                    let delta = Relation::from_columns(vec![
                        ("vid".into(), vids_grouped),
                        ("delta".into(), sums),
                        ("at".into(), last_times),
                    ])?;

                    // 7.4 join deltas with the account table
                    let pairs = hash_join(
                        delta.column("vid")?,
                        st.accounts.column("vid")?,
                        None,
                        None,
                    )?;
                    // 7.5 apply balance deltas to matched accounts
                    let mut new_balances = st.accounts.column("balance")?.ints()?.to_vec();
                    let mut new_updated = st.accounts.column("updated")?.ints()?.to_vec();
                    let dvals = delta.column("delta")?.ints()?.to_vec();
                    let dat = delta.column("at")?.ints()?.to_vec();
                    for (li, ri) in pairs.left.iter().zip(pairs.right.iter()) {
                        new_balances[*ri as usize] += dvals[*li as usize];
                        new_updated[*ri as usize] = dat[*li as usize];
                    }

                    // 7.6 anti-join: vehicles with no account yet
                    let fresh = anti_join(
                        delta.column("vid")?,
                        st.accounts.column("vid")?,
                        None,
                        None,
                    )?;
                    // 7.7 initialize new accounts
                    let fresh_rel = delta.gather(&fresh)?;

                    // 7.8 merge the account table (updated + new)
                    let mut vids_all = st.accounts.column("vid")?.ints()?.to_vec();
                    vids_all.extend(fresh_rel.column("vid")?.ints()?);
                    new_balances.extend(fresh_rel.column("delta")?.ints()?);
                    // 7.9 stamp update times of new accounts
                    new_updated.extend(fresh_rel.column("at")?.ints()?);
                    st.accounts = Relation::from_columns(vec![
                        ("vid".into(), Column::from_ints(vids_all)),
                        ("balance".into(), Column::from_ints(new_balances)),
                        ("updated".into(), Column::from_ints(new_updated)),
                    ])?;
                }

                let mut produced = 0;
                if !req_batch.is_empty() {
                    // 7.11 dedupe requests by qid (first wins)
                    let g = group_by(&[req_batch.column("qid")?], None)?;
                    let req_batch = req_batch.gather_positions(&g.representatives)?;

                    // 7.12 join requests with accounts
                    let pairs = hash_join(
                        req_batch.column("vid")?,
                        st.accounts.column("vid")?,
                        None,
                        None,
                    )?;
                    let matched_req = req_batch.gather_positions(&pairs.left)?;
                    let matched_acct = st.accounts.gather_positions(&pairs.right)?;

                    // 7.13 requests for unknown vehicles → zero balance
                    let missing = anti_join(
                        req_batch.column("vid")?,
                        st.accounts.column("vid")?,
                        None,
                        None,
                    )?;
                    let missing_req = req_batch.gather(&missing)?;

                    // 7.14 assemble answers
                    let emit = clock.now() / MICROS_PER_SEC_I;
                    let mut answers = Relation::new(balans.schema());
                    for i in 0..matched_req.len() {
                        answers.append_row(&[
                            matched_req.column("qid")?.get(i),
                            matched_req.column("vid")?.get(i),
                            matched_req.column("time")?.get(i),
                            Value::Int(emit),
                            matched_acct.column("balance")?.get(i),
                        ])?;
                    }
                    for i in 0..missing_req.len() {
                        answers.append_row(&[
                            missing_req.column("qid")?.get(i),
                            missing_req.column("vid")?.get(i),
                            missing_req.column("time")?.get(i),
                            Value::Int(emit),
                            Value::Int(0),
                        ])?;
                    }

                    // 7.15 order answers by request time
                    let perm = sort_perm(
                        &[SortKey {
                            col: answers.column("time")?,
                            ascending: true,
                        }],
                        None,
                    )?;
                    let answers = answers.gather_positions(&perm)?;

                    // 7.16 deadline bookkeeping (emit − request ≤ 5 s in
                    // stream time; misses are counted, not dropped)
                    // (virtual-clock replays emit within the same second)

                    // 7.17 emit
                    produced += balans.append_relation(answers, clock.as_ref())?;
                }
                // 7.18 evict: charge snapshots were drained above; account
                // table is the only retained state
                Ok(FireReport {
                    consumed: n,
                    produced,
                    ..FireReport::default()
                })
            },
        )
        // both gate baskets are inputs: nothing else to watch
        .with_ready(vec![], move || {
            !charges_r.is_empty() || !balreq_r.is_empty()
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell::clock::VirtualClock;
    use datacell::scheduler::Scheduler;

    #[test]
    fn inventory_matches_figure6_counts() {
        let inv = query_inventory();
        let counts: Vec<usize> = inv.iter().map(|(_, qs)| qs.len()).collect();
        assert_eq!(counts, vec![3, 5, 5, 4, 2, 1, 18]);
        let total: usize = counts.iter().sum();
        assert_eq!(total, 38, "the paper's 38 queries");
        // all names distinct
        let mut names: Vec<&str> = inv.iter().flat_map(|(_, qs)| qs.iter().copied()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 38);
    }

    fn run_tuples(tuples: &[InputTuple]) -> (LrBaskets, Arc<Mutex<LrState>>) {
        let clock = Arc::new(VirtualClock::new());
        let baskets = LrBaskets::new();
        let state = Arc::new(Mutex::new(LrState::new(1)));
        let mut sched = Scheduler::new();
        for f in build_network(&baskets, Arc::clone(&state), clock.clone()) {
            sched.add(f);
        }
        // feed by second, like the driver
        let max_t = tuples.iter().map(|t| t.time).max().unwrap_or(0);
        for sec in 0..=max_t {
            let rows: Vec<Vec<Value>> = tuples
                .iter()
                .filter(|t| t.time == sec)
                .map(|t| t.to_row())
                .collect();
            if !rows.is_empty() {
                baskets.input.append_rows(&rows, clock.as_ref()).unwrap();
            }
            clock.set((sec + 1) * 1_000_000);
            sched.run_until_quiescent(100).unwrap();
        }
        (baskets, state)
    }

    /// Drive one car through congested segments so tolls accrue.
    fn congestion_workload() -> Vec<InputTuple> {
        let mut tuples = Vec::new();
        // 60 background cars saturating segment 5, minutes 1..8, slow
        for m in 0..8i64 {
            for vid in 100..160 {
                tuples.push(InputTuple::position(
                    m * 60,
                    vid,
                    20,
                    0,
                    1,
                    0,
                    5 * SEGMENT_FEET + vid, // distinct positions, same segment
                ));
            }
        }
        // the probe car: crosses 4 → 5 → 6 during minute 7
        tuples.push(InputTuple::position(6 * 60, 1, 50, 0, 1, 0, 4 * SEGMENT_FEET));
        tuples.push(InputTuple::position(6 * 60 + 30, 1, 50, 0, 1, 0, 5 * SEGMENT_FEET));
        tuples.push(InputTuple::position(7 * 60, 1, 50, 0, 1, 0, 6 * SEGMENT_FEET));
        // balance request after the charges
        tuples.push(InputTuple::balance_request(7 * 60 + 10, 1, 9001));
        tuples.sort_by_key(|t| t.time);
        tuples
    }

    #[test]
    fn tolls_are_charged_and_balance_answered() {
        let (baskets, state) = run_tuples(&congestion_workload());
        // the probe car received toll notifications
        let tolls = baskets.tolls.snapshot();
        let probe_sel =
            select_cmp(tolls.column("vid").unwrap(), CmpOp::Eq, &Value::Int(1), None).unwrap();
        let probe = tolls.gather(&probe_sel).unwrap();
        assert!(probe.len() >= 3, "one notification per crossing");
        // entering congested segment 5 during minute 7 must cost money:
        // 60 cars in minute 6, LAV 20 < 40 → 2*(60-50)^2 = 200
        let toll_vals = probe.column("toll").unwrap().ints().unwrap().to_vec();
        assert!(
            toll_vals.contains(&200),
            "expected a 200-cent toll, got {toll_vals:?}"
        );
        // the balance answer reflects the charged toll
        let answers = baskets.balans.snapshot();
        assert_eq!(answers.len(), 1);
        let bal = answers.column("balance").unwrap().ints().unwrap()[0];
        let oracle = state.lock().assessor.balance(1);
        assert_eq!(bal, oracle, "relational pipeline matches oracle");
        assert!(bal > 0, "probe car paid something");
    }

    #[test]
    fn accident_produces_alert_and_free_segment() {
        let mut tuples = Vec::new();
        // two cars stopped at segment 10 (4 reports each)
        for r in 0..4i64 {
            for vid in [50, 51] {
                tuples.push(InputTuple::position(
                    r * 30,
                    vid,
                    0,
                    0,
                    1,
                    0,
                    10 * SEGMENT_FEET,
                ));
            }
        }
        // a car crossing into segment 8 after detection (accident 2 ahead)
        tuples.push(InputTuple::position(150, 1, 60, 0, 1, 0, 7 * SEGMENT_FEET));
        tuples.push(InputTuple::position(180, 1, 60, 0, 1, 0, 8 * SEGMENT_FEET));
        tuples.sort_by_key(|t| t.time);
        let (baskets, state) = run_tuples(&tuples);
        assert_eq!(state.lock().accidents.accidents().len(), 1);
        let alerts = baskets.accalerts.snapshot();
        let vids = alerts.column("vid").unwrap().ints().unwrap().to_vec();
        assert!(vids.contains(&1), "crossing car got an accident alert");
        let segs = alerts.column("seg").unwrap().ints().unwrap().to_vec();
        assert!(segs.contains(&10));
    }

    #[test]
    fn expenditure_requests_answered_from_history() {
        let tuples = vec![
            InputTuple::position(0, 1, 50, 0, 1, 0, 100),
            InputTuple::expenditure_request(1, 1, 777, 0, 5),
        ];
        let (baskets, state) = run_tuples(&tuples);
        let answers = baskets.expans.snapshot();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers.column("qid").unwrap().ints().unwrap(), &[777]);
        let seed = state.lock().history_seed;
        assert_eq!(
            answers.column("expenditure").unwrap().ints().unwrap()[0],
            daily_toll(1, 5, 0, seed)
        );
    }

    #[test]
    fn malformed_reports_silently_dropped() {
        let mut bad = InputTuple::position(0, 1, 50, 0, 1, 0, 100);
        bad.lane = 99; // invalid lane
        let good = InputTuple::position(0, 2, 50, 0, 1, 0, 100);
        let (baskets, state) = run_tuples(&[bad, good]);
        assert_eq!(state.lock().malformed_dropped, 1);
        // only the good report produced a crossing
        let crossings = baskets.crossings.stats().snapshot().0;
        assert_eq!(crossings, 1);
    }

    #[test]
    fn balance_request_for_unknown_vehicle_is_zero() {
        let tuples = vec![InputTuple::balance_request(0, 424242, 5)];
        let (baskets, _) = run_tuples(&tuples);
        let answers = baskets.balans.snapshot();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers.column("balance").unwrap().ints().unwrap(), &[0]);
    }
}
