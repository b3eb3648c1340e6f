//! Metronome and heartbeat components (paper §5).
//!
//! A **metronome** injects marker tuples into a basket at a fixed
//! interval, letting queries react to the *absence* of events. A
//! **heartbeat** builds on it to guarantee a uniform event stream: every
//! epoch without real traffic gets a null-payload filler tuple.

use std::sync::Arc;
use std::time::Duration;

use monet::prelude::*;

use crate::basket::Basket;
use crate::clock::Clock;
use crate::error::Result;
use crate::factory::{Factory, FireReport};

/// A time-triggered factory appending marker rows.
pub struct Metronome {
    name: String,
    target: Arc<Basket>,
    outputs: Vec<Arc<Basket>>,
    clock: Arc<dyn Clock>,
    interval_micros: i64,
    next_tick: i64,
    row_fn: Box<dyn FnMut(i64) -> Vec<Value> + Send>,
}

impl Metronome {
    /// `row_fn(tick_time)` produces the marker tuple (user columns only).
    pub fn new(
        name: impl Into<String>,
        target: Arc<Basket>,
        clock: Arc<dyn Clock>,
        interval_micros: i64,
        row_fn: impl FnMut(i64) -> Vec<Value> + Send + 'static,
    ) -> Self {
        assert!(interval_micros > 0, "metronome interval must be positive");
        let first = clock.now() + interval_micros;
        Metronome {
            name: name.into(),
            outputs: vec![Arc::clone(&target)],
            target,
            clock,
            interval_micros,
            next_tick: first,
            row_fn: Box::new(row_fn),
        }
    }

    pub fn interval(&self) -> i64 {
        self.interval_micros
    }
}

impl Factory for Metronome {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> &[Arc<Basket>] {
        &[]
    }

    fn outputs(&self) -> &[Arc<Basket>] {
        &self.outputs
    }

    /// Fires when the clock reaches the next tick (a transition whose
    /// implicit input place is time itself).
    fn ready(&self) -> bool {
        self.clock.now() >= self.next_tick
    }

    fn recheck_after(&self) -> Option<Duration> {
        Some(Duration::from_micros(
            (self.next_tick - self.clock.now()).max(0) as u64,
        ))
    }

    fn fire(&mut self) -> Result<FireReport> {
        let now = self.clock.now();
        let mut produced = 0;
        // catch up over missed epochs so downstream windows see every tick
        while self.next_tick <= now {
            let row = (self.row_fn)(self.next_tick);
            produced += self.target.append_rows(&[row], self.clock.as_ref())?;
            self.next_tick += self.interval_micros;
        }
        Ok(FireReport {
            consumed: 0,
            produced,
            ..FireReport::default()
        })
    }
}

/// A heartbeat: watches a data basket and emits one filler tuple per epoch
/// in which no event arrived, so downstream consumers always observe a
/// uniform stream.
pub struct Heartbeat {
    name: String,
    watched: Arc<Basket>,
    target: Arc<Basket>,
    outputs: Vec<Arc<Basket>>,
    clock: Arc<dyn Clock>,
    epoch_micros: i64,
    next_epoch: i64,
    filler_fn: Box<dyn FnMut(i64) -> Vec<Value> + Send>,
}

impl Heartbeat {
    pub fn new(
        name: impl Into<String>,
        watched: Arc<Basket>,
        target: Arc<Basket>,
        clock: Arc<dyn Clock>,
        epoch_micros: i64,
        filler_fn: impl FnMut(i64) -> Vec<Value> + Send + 'static,
    ) -> Self {
        assert!(epoch_micros > 0, "heartbeat epoch must be positive");
        let first = clock.now() + epoch_micros;
        Heartbeat {
            name: name.into(),
            outputs: vec![Arc::clone(&target)],
            watched,
            target,
            clock,
            epoch_micros,
            next_epoch: first,
            filler_fn: Box::new(filler_fn),
        }
    }
}

impl Factory for Heartbeat {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> &[Arc<Basket>] {
        &[]
    }

    fn outputs(&self) -> &[Arc<Basket>] {
        &self.outputs
    }

    fn ready(&self) -> bool {
        self.clock.now() >= self.next_epoch
    }

    fn recheck_after(&self) -> Option<Duration> {
        Some(Duration::from_micros(
            (self.next_epoch - self.clock.now()).max(0) as u64,
        ))
    }

    fn fire(&mut self) -> Result<FireReport> {
        let now = self.clock.now();
        let mut produced = 0;
        while self.next_epoch <= now {
            // epoch [next - epoch_micros, next): real traffic present?
            let (total_in, _, _) = self.watched.stats().snapshot();
            let quiet = total_in == 0 || self.watched.is_empty();
            if quiet {
                let row = (self.filler_fn)(self.next_epoch);
                produced += self.target.append_rows(&[row], self.clock.as_ref())?;
            }
            self.next_epoch += self.epoch_micros;
        }
        Ok(FireReport {
            consumed: 0,
            produced,
            ..FireReport::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::scheduler::Scheduler;

    fn schema() -> Schema {
        Schema::from_pairs(&[("tag", ValueType::Ts), ("payload", ValueType::Int)])
    }

    #[test]
    fn metronome_fires_on_schedule() {
        let clock = Arc::new(VirtualClock::new());
        let b = Basket::new("HB", &schema(), false);
        let m = Metronome::new("m", Arc::clone(&b), clock.clone(), 1_000_000, |t| {
            vec![Value::Ts(t), Value::Null]
        });
        let mut sched = Scheduler::new();
        sched.add(Box::new(m));

        sched.run_round().unwrap();
        assert_eq!(b.len(), 0, "before the first tick");

        clock.advance(1_000_000);
        sched.run_round().unwrap();
        assert_eq!(b.len(), 1);

        // catch-up over three missed ticks
        clock.advance(3_000_000);
        sched.run_round().unwrap();
        assert_eq!(b.len(), 4);
        let tags = b.snapshot();
        assert_eq!(
            tags.column("tag").unwrap().ints().unwrap(),
            &[1_000_000, 2_000_000, 3_000_000, 4_000_000]
        );
    }

    #[test]
    fn heartbeat_fills_quiet_epochs_only() {
        let clock = Arc::new(VirtualClock::new());
        let data = Basket::new("X", &schema(), false);
        let hb = Basket::new("HB", &schema(), false);
        let h = Heartbeat::new(
            "h",
            Arc::clone(&data),
            Arc::clone(&hb),
            clock.clone(),
            1_000_000,
            |t| vec![Value::Ts(t), Value::Null],
        );
        let mut sched = Scheduler::new();
        sched.add(Box::new(h));

        // quiet epoch → filler
        clock.advance(1_000_000);
        sched.run_round().unwrap();
        assert_eq!(hb.len(), 1);

        // busy epoch → no filler
        data.append_rows(&[vec![Value::Ts(clock.now()), Value::Int(5)]], clock.as_ref())
            .unwrap();
        clock.advance(1_000_000);
        sched.run_round().unwrap();
        assert_eq!(hb.len(), 1, "real traffic suppresses the filler");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let clock = Arc::new(VirtualClock::new());
        let b = Basket::new("HB", &schema(), false);
        let _ = Metronome::new("m", b, clock, 0, |_| vec![]);
    }
}
