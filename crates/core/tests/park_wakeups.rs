//! Lost-wakeup tests for the park/unpark protocol between baskets and
//! the threads blocked on them (`ThreadedScheduler` factory threads and
//! `Basket::wait_for_capacity` feeders).
//!
//! Each race window is held open with a barrier inside the waiter's own
//! condition check — between "checked, not ready" and `park()` — while the
//! test mutates the basket, so the interleaving is forced rather than
//! hoped for.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use datacell::basket::Basket;
use datacell::clock::VirtualClock;
use datacell::factory::{ClosureFactory, Factory, FireReport};
use datacell::scheduler::ThreadedScheduler;
use monet::prelude::*;

/// Generous bound for "eventually": only a lost wake-up ever reaches it.
const EVENTUALLY: Duration = Duration::from_secs(10);

fn basket(name: &str) -> Arc<Basket> {
    Basket::new(name, &Schema::from_pairs(&[("x", ValueType::Int)]), false)
}

fn push(b: &Basket, x: i64) {
    b.append_rows(&[vec![Value::Int(x)]], &VirtualClock::new())
        .unwrap();
}

/// A factory moving everything from `from` into `to`, reporting each
/// firing on `fired`.
fn mover(
    name: &str,
    from: &Arc<Basket>,
    to: &Arc<Basket>,
    fired: mpsc::Sender<usize>,
) -> ClosureFactory {
    let (f, t) = (Arc::clone(from), Arc::clone(to));
    ClosureFactory::new(
        name,
        vec![Arc::clone(from)],
        vec![Arc::clone(to)],
        move || {
            let batch = f.drain();
            let n = batch.len();
            t.append_relation(batch, &VirtualClock::new())?;
            let _ = fired.send(n);
            Ok(FireReport {
                consumed: n,
                produced: n,
                ..FireReport::default()
            })
        },
    )
}

#[test]
fn append_between_ready_check_and_park_still_fires() {
    let (input, output) = (basket("lw_in"), basket("lw_out"));
    let (fired_tx, fired_rx) = mpsc::channel();
    let (checked_tx, checked_rx) = mpsc::channel();
    let window = Arc::new(Barrier::new(2));
    let first = AtomicBool::new(true);
    let (gate_in, gate_window) = (Arc::clone(&input), Arc::clone(&window));
    let factory = mover("lw", &input, &output, fired_tx).with_ready(vec![], move || {
        let ready = !gate_in.is_empty();
        if !ready && first.swap(false, Ordering::AcqRel) {
            // "not ready" decided; hold the thread here, before it parks
            checked_tx.send(()).unwrap();
            gate_window.wait();
        }
        ready
    });
    let sched = ThreadedScheduler::spawn(vec![Box::new(factory)]);
    checked_rx.recv_timeout(EVENTUALLY).unwrap();
    push(&input, 1); // lands inside the window
    window.wait();
    assert_eq!(
        fired_rx.recv_timeout(EVENTUALLY),
        Ok(1),
        "the append's unpark token must survive until park()"
    );
    sched.stop();
    assert_eq!(output.len(), 1);
}

#[test]
fn no_progress_firing_parks_until_the_next_append() {
    let input = basket("np_in");
    push(&input, 1);
    let (fired_tx, fired_rx) = mpsc::channel();
    let checks = Arc::new(AtomicUsize::new(0));
    let firings = AtomicUsize::new(0);
    let (fire_in, gate_in, gate_checks) =
        (Arc::clone(&input), Arc::clone(&input), Arc::clone(&checks));
    // the first firing leaves its token in place (a residue it will not
    // take); later firings drain
    let factory = ClosureFactory::new("np", vec![Arc::clone(&input)], vec![], move || {
        let consumed = match firings.fetch_add(1, Ordering::AcqRel) {
            0 => 0,
            _ => fire_in.drain().len(),
        };
        fired_tx.send(consumed).unwrap();
        Ok(FireReport {
            consumed,
            ..FireReport::default()
        })
    })
    .with_ready(vec![], move || {
        gate_checks.fetch_add(1, Ordering::AcqRel);
        !gate_in.is_empty()
    });
    let sched = ThreadedScheduler::spawn(vec![Box::new(factory)]);
    assert_eq!(
        fired_rx.recv_timeout(EVENTUALLY),
        Ok(0),
        "no-progress firing"
    );
    // still ready, but parked: a polling thread would re-fire within
    // microseconds
    assert_eq!(
        fired_rx.recv_timeout(Duration::from_millis(200)),
        Err(mpsc::RecvTimeoutError::Timeout),
        "a no-progress firing must park, not spin"
    );
    assert_eq!(
        checks.load(Ordering::Acquire),
        1,
        "no re-check while parked"
    );
    push(&input, 2);
    assert_eq!(
        fired_rx.recv_timeout(EVENTUALLY),
        Ok(2),
        "the append wakes it"
    );
    sched.stop();
    assert!(input.is_empty());
}

#[test]
fn stop_wakes_parked_threads_and_drains_pending_input() {
    // the gates also read a flag no basket change announces, so once the
    // threads park nothing but stop() can wake them
    let open = Arc::new(AtomicBool::new(false));
    let (checked_tx, checked_rx) = mpsc::channel();
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut factories: Vec<Box<dyn Factory>> = Vec::new();
    for i in 0..4 {
        let (input, output) = (basket(&format!("st_in{i}")), basket(&format!("st_out{i}")));
        let (fired_tx, _fired_rx) = mpsc::channel();
        let (gate_in, gate_open, checked) =
            (Arc::clone(&input), Arc::clone(&open), checked_tx.clone());
        let first = AtomicBool::new(true);
        let name = format!("st{i}");
        factories.push(Box::new(
            mover(&name, &input, &output, fired_tx).with_ready(vec![], move || {
                let ready = gate_open.load(Ordering::Acquire) && !gate_in.is_empty();
                if first.swap(false, Ordering::AcqRel) {
                    checked.send(()).unwrap();
                }
                ready
            }),
        ));
        inputs.push(input);
        outputs.push(output);
    }
    let sched = ThreadedScheduler::spawn(factories);
    for _ in 0..4 {
        checked_rx.recv_timeout(EVENTUALLY).unwrap();
    }
    for (i, input) in inputs.iter().enumerate() {
        push(input, i as i64);
    }
    open.store(true, Ordering::Release);
    let started = Instant::now();
    let stats = sched.stop();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "stop() took {:?}",
        started.elapsed()
    );
    for (input, output) in inputs.iter().zip(&outputs) {
        assert!(input.is_empty(), "pending input drained at stop");
        assert_eq!(output.len(), 1);
    }
    assert!(stats.iter().all(|s| s.consumed == 1));
}

/// Start a capacity waiter on the full basket `b` whose first abort
/// check blocks on `window` (after announcing itself on the returned
/// channel) — the gap between "no capacity" and `park()`.
fn waiter_in_window(
    b: &Arc<Basket>,
    window: &Arc<Barrier>,
) -> (mpsc::Receiver<()>, mpsc::Receiver<bool>) {
    let (checked_tx, checked_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let (b, window) = (Arc::clone(b), Arc::clone(window));
    std::thread::spawn(move || {
        let first = AtomicBool::new(true);
        let ok = b.wait_for_capacity(|| {
            if first.swap(false, Ordering::AcqRel) {
                checked_tx.send(()).unwrap();
                window.wait();
            }
            false
        });
        done_tx.send(ok).unwrap();
    });
    (checked_rx, done_rx)
}

#[test]
fn capacity_waiter_wakes_on_delete() {
    let b = basket("cap_del");
    b.set_pending_cap(1);
    push(&b, 1);
    let window = Arc::new(Barrier::new(2));
    let (checked, done) = waiter_in_window(&b, &window);
    checked.recv_timeout(EVENTUALLY).unwrap();
    b.delete_sel(&SelVec::from_sorted(vec![0]).unwrap())
        .unwrap();
    window.wait();
    assert_eq!(
        done.recv_timeout(EVENTUALLY),
        Ok(true),
        "delete freed capacity"
    );
}

#[test]
fn capacity_waiter_wakes_on_disable() {
    let b = basket("cap_dis");
    b.set_pending_cap(1);
    push(&b, 1);
    let window = Arc::new(Barrier::new(2));
    let (checked, done) = waiter_in_window(&b, &window);
    checked.recv_timeout(EVENTUALLY).unwrap();
    b.disable();
    window.wait();
    assert_eq!(
        done.recv_timeout(EVENTUALLY),
        Ok(false),
        "disable aborts the wait"
    );
}

#[test]
fn feeder_holding_appends_still_wakes_the_consumer_it_waits_for() {
    let (input, output) = (basket("hold_in"), basket("hold_out"));
    input.set_pending_cap(1);
    let (fired_tx, _fired_rx) = mpsc::channel();
    let (checked_tx, checked_rx) = mpsc::channel();
    let gate_in = Arc::clone(&input);
    let factory = mover("hold", &input, &output, fired_tx).with_ready(vec![], move || {
        let _ = checked_tx.send(());
        !gate_in.is_empty()
    });
    let sched = ThreadedScheduler::spawn(vec![Box::new(factory)]);
    checked_rx.recv_timeout(EVENTUALLY).unwrap(); // watching, about to park
    let (done_tx, done_rx) = mpsc::channel();
    let feeder_in = Arc::clone(&input);
    std::thread::spawn(move || {
        let _hold = feeder_in.hold_appends();
        push(&feeder_in, 1); // its wake-up is held back
        // full: the wait must release the held wake-up, or nothing drains
        let ok = feeder_in.wait_for_capacity(|| false);
        push(&feeder_in, 2);
        done_tx.send(ok).unwrap();
        // dropping the hold announces row 2
    });
    assert_eq!(done_rx.recv_timeout(EVENTUALLY), Ok(true));
    let deadline = Instant::now() + EVENTUALLY;
    while output.len() < 2 {
        assert!(Instant::now() < deadline, "the hold's release was lost");
        checked_rx.recv_timeout(EVENTUALLY).unwrap();
    }
    sched.stop();
}
