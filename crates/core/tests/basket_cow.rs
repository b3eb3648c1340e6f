//! Logical-delete / compaction equivalence and zero-copy snapshot
//! isolation at the basket level, plus the generation-guarded concurrent
//! firing protocol.
//!
//! * `delete_sel` marks rows in a deleted-bitmap and compacts lazily; a
//!   basket with any compaction threshold must be observationally
//!   identical to one that rewrites columns eagerly on every delete.
//! * `snapshot()` is a copy-on-write share — later appends/deletes on the
//!   basket must never show through.
//! * Two Apply-mode factories consuming one shared basket concurrently
//!   must process every tuple exactly once (the delete-generation check
//!   forces the loser of a conflicting firing to re-execute under lock).

use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::basket::Basket;
use datacell::clock::VirtualClock;
use datacell::factory::{ConsumeMode, QueryFactory};
use datacell::scheduler::ThreadedScheduler;
use datacell::varstore::VarStore;
use dcsql::parse_statements;
use monet::catalog::Catalog;
use monet::prelude::*;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::from_pairs(&[("v", ValueType::Int)])
}

fn rows_of(vals: &[i64]) -> Vec<Vec<Value>> {
    vals.iter().map(|&v| vec![Value::Int(v)]).collect()
}

fn contents(b: &Arc<Basket>) -> Vec<i64> {
    b.snapshot().column("v").unwrap().ints().unwrap().to_vec()
}

#[derive(Debug, Clone)]
enum BasketOp {
    Append(Vec<i64>),
    /// Live-view positions, interpreted modulo the current live length.
    Delete(Vec<u32>),
    Drain,
}

fn decode_basket_op(x: u64) -> BasketOp {
    let payload = x >> 4;
    match x % 9 {
        0..=3 => BasketOp::Append(
            (0..1 + payload % 40)
                .map(|i| ((payload.wrapping_mul(i + 7)) % 199) as i64 - 99)
                .collect(),
        ),
        4..=7 => BasketOp::Delete(
            (0..1 + payload % 20)
                .map(|i| (payload.wrapping_mul(2 * i + 1) >> 2) as u32)
                .collect(),
        ),
        _ => BasketOp::Drain,
    }
}

fn basket_ops() -> impl Strategy<Value = Vec<BasketOp>> {
    prop::collection::vec(any::<u64>(), 1..20)
        .prop_map(|seeds| seeds.into_iter().map(decode_basket_op).collect())
}

fn apply(b: &Arc<Basket>, clock: &VirtualClock, op: &BasketOp) {
    match op {
        BasketOp::Append(vals) => {
            b.append_rows(&rows_of(vals), clock).unwrap();
        }
        BasketOp::Delete(raw) => {
            let len = b.len();
            if len == 0 {
                return;
            }
            let positions: Vec<u32> = raw.iter().map(|&p| p % len as u32).collect();
            b.delete_sel(&SelVec::from_unsorted(positions)).unwrap();
        }
        BasketOp::Drain => {
            let _ = b.drain();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Eager compaction (threshold 0), never-compact (huge threshold) and
    /// the default lazy threshold are observationally identical.
    #[test]
    fn logical_delete_equals_eager_delete(ops in basket_ops()) {
        let clock = VirtualClock::new();
        let eager = Basket::new("E", &schema(), false);
        let lazy = Basket::new("L", &schema(), false);
        let dflt = Basket::new("D", &schema(), false);
        eager.set_compact_threshold(0);
        lazy.set_compact_threshold(usize::MAX);

        for op in &ops {
            apply(&eager, &clock, op);
            apply(&lazy, &clock, op);
            apply(&dflt, &clock, op);
            prop_assert_eq!(eager.len(), lazy.len());
            prop_assert_eq!(contents(&eager), contents(&lazy), "op {:?}", op);
            prop_assert_eq!(contents(&eager), contents(&dflt), "op {:?}", op);
            prop_assert_eq!(eager.compaction_stats().0, 0, "eager never leaves marks");
        }

        // forcing a physical compaction must not change the visible state
        let before = contents(&lazy);
        lazy.compact_now();
        prop_assert_eq!(contents(&lazy), before);
        prop_assert_eq!(lazy.compaction_stats().0, 0, "compact clears pending marks");

        // both report identical lifetime in/out totals
        prop_assert_eq!(eager.stats().snapshot(), lazy.stats().snapshot());
    }

    /// A snapshot is frozen at snapshot time regardless of subsequent
    /// appends, deletes, drains or compactions on the basket.
    #[test]
    fn snapshot_is_isolated(setup in prop::collection::vec(-50i64..50, 1..60), ops in basket_ops()) {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), false);
        b.set_compact_threshold(4); // compact often to exercise rewrites
        b.append_rows(&rows_of(&setup), &clock).unwrap();

        let snap = b.snapshot();
        let frozen: Vec<i64> = snap.column("v").unwrap().ints().unwrap().to_vec();
        for op in &ops {
            apply(&b, &clock, op);
            let now: Vec<i64> = snap.column("v").unwrap().ints().unwrap().to_vec();
            prop_assert_eq!(&now, &frozen, "op {:?} leaked into snapshot", op);
        }
    }
}

/// Two Apply-mode factories race on one shared input; the generation check
/// must make their consumption exactly-once (no lost, no duplicated rows).
#[test]
fn concurrent_consumers_are_exactly_once() {
    let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
    let catalog = Arc::new(Catalog::new());
    let vars = Arc::new(VarStore::new());
    let input = Basket::new("S", &schema(), false);
    let output = Basket::new("OUT", &schema(), false);

    let mk = |name: &str| {
        let i2 = Arc::clone(&input);
        let o2 = Arc::clone(&output);
        QueryFactory::new(
            name,
            parse_statements("insert into OUT select * from [select * from S] as Z").unwrap(),
            &move |n: &str| match n {
                "S" => Some(Arc::clone(&i2)),
                "OUT" => Some(Arc::clone(&o2)),
                _ => None,
            },
            Arc::clone(&catalog),
            Arc::clone(&vars),
            clock.clone() as Arc<dyn datacell::clock::Clock>,
            ConsumeMode::Apply,
            None,
        )
        .unwrap()
    };

    let sched = ThreadedScheduler::spawn(vec![Box::new(mk("qa")), Box::new(mk("qb"))]);

    const TOTAL: i64 = 20_000;
    let mut next = 0i64;
    while next < TOTAL {
        let hi = (next + 97).min(TOTAL);
        let vals: Vec<i64> = (next..hi).collect();
        input.append_rows(&rows_of(&vals), clock.as_ref()).unwrap();
        next = hi;
    }

    let deadline = Instant::now() + Duration::from_secs(60);
    while (output.len() as i64) < TOTAL && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    sched.stop();

    assert!(input.is_empty(), "everything consumed");
    let mut got = contents(&output);
    got.sort_unstable();
    let want: Vec<i64> = (0..TOTAL).collect();
    assert_eq!(got.len() as i64, TOTAL, "no duplicated or lost tuples");
    assert_eq!(got, want);
}
