//! The DataCell scheduler (paper §4.1).
//!
//! "The scheduler runs an infinite loop and at every iteration it checks
//! which of the existing transitions can be processed by analyzing their
//! inputs." Two execution modes are provided:
//!
//! * a deterministic, single-threaded loop (rounds over all factories) —
//!   used by the benchmarks and tests for reproducibility;
//! * a thread-per-factory mode matching the paper's "every single
//!   component is an independent thread" architecture.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use petri::{Marking, Net, PlaceId};

use crate::basket::Basket;
use crate::error::Result;
use crate::factory::{Factory, FireReport};

/// Cumulative per-factory counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactoryStats {
    pub firings: u64,
    pub consumed: u64,
    pub produced: u64,
    pub busy_micros: u64,
    /// Time spent holding basket locks, out of `busy_micros` — the
    /// contention signal: a factory with `lock_micros` close to
    /// `busy_micros` is serializing its peers on shared baskets.
    pub lock_micros: u64,
    /// Snapshot rows the plan executed over, lifetime.
    pub rows_scanned: u64,
    /// Rows the plan emitted (results + inserts), lifetime.
    pub rows_out: u64,
    /// One-time plan compile cost, µs — a persistent gauge: every firing
    /// reports it and absorption assigns rather than sums, so the value
    /// survives however many stats snapshots are taken (0 only for a
    /// factory that never compiled a plan, e.g. closure factories).
    pub plan_micros: u64,
    /// Appended rows processed incrementally by delta statements,
    /// lifetime.
    pub delta_rows: u64,
    /// Delta-capable statement executions that fell back to full
    /// re-execution, lifetime.
    pub full_reexecutes: u64,
    /// Delta state + shared arrangement bytes as of the last firing — a
    /// gauge like `plan_micros` (absorbed by assignment).
    pub arrangement_bytes: u64,
}

impl FactoryStats {
    fn absorb(&mut self, r: &FireReport) {
        self.firings += 1;
        self.consumed += r.consumed as u64;
        self.produced += r.produced as u64;
        self.busy_micros += r.elapsed_micros;
        self.lock_micros += r.lock_micros;
        self.rows_scanned += r.rows_scanned;
        self.rows_out += r.rows_out;
        self.plan_micros = r.plan_micros;
        self.delta_rows += r.delta_rows;
        self.full_reexecutes += r.full_reexecutes;
        self.arrangement_bytes = r.arrangement_bytes;
    }
}

/// Outcome of one scheduling round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundReport {
    pub fired: usize,
    pub consumed: usize,
    pub produced: usize,
}

/// Single-threaded Petri-net scheduler.
#[derive(Default)]
pub struct Scheduler {
    factories: Vec<Box<dyn Factory>>,
    stats: Vec<FactoryStats>,
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Register a factory (a Petri-net transition).
    pub fn add(&mut self, factory: Box<dyn Factory>) -> usize {
        self.factories.push(factory);
        self.stats.push(FactoryStats::default());
        self.factories.len() - 1
    }

    pub fn len(&self) -> usize {
        self.factories.len()
    }

    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }

    pub fn factory_names(&self) -> Vec<String> {
        self.factories.iter().map(|f| f.name().to_string()).collect()
    }

    /// Dissolve into the factory list (thread-per-factory deployment).
    pub fn into_factories(self) -> Vec<Box<dyn Factory>> {
        self.factories
    }

    pub fn stats(&self) -> &[FactoryStats] {
        &self.stats
    }

    pub fn stats_of(&self, name: &str) -> Option<&FactoryStats> {
        self.factories
            .iter()
            .position(|f| f.name() == name)
            .map(|i| &self.stats[i])
    }

    /// One pass over all factories: fire each ready one once.
    pub fn run_round(&mut self) -> Result<RoundReport> {
        let mut report = RoundReport::default();
        for (i, f) in self.factories.iter_mut().enumerate() {
            if f.ready() {
                let r = f.fire()?;
                self.stats[i].absorb(&r);
                report.fired += 1;
                report.consumed += r.consumed;
                report.produced += r.produced;
            }
        }
        Ok(report)
    }

    /// Loop until a full round fires nothing (quiescence) or `max_rounds`
    /// is hit. Returns the number of rounds executed.
    pub fn run_until_quiescent(&mut self, max_rounds: usize) -> Result<usize> {
        for round in 0..max_rounds {
            let r = self.run_round()?;
            if r.fired == 0 {
                return Ok(round);
            }
        }
        Ok(max_rounds)
    }

    /// Mirror the factory network into a Petri net for structural analysis
    /// (places = baskets, transitions = factories, arcs = input/output
    /// relationships; token counts = basket lengths).
    pub fn to_petri(&self) -> (Net, Marking, Vec<(String, PlaceId)>) {
        let mut builder = Net::builder();
        let mut places: Vec<(u64, String, PlaceId)> = Vec::new();
        let place_of = |builder: &mut petri::net::NetBuilder,
                            places: &mut Vec<(u64, String, PlaceId)>,
                            b: &Arc<Basket>| {
            if let Some((_, _, p)) = places.iter().find(|(id, _, _)| *id == b.id()) {
                return *p;
            }
            let p = builder.place(b.name());
            places.push((b.id(), b.name().to_string(), p));
            p
        };
        let mut transitions = Vec::new();
        for f in &self.factories {
            let inputs: Vec<(PlaceId, u64)> = f
                .inputs()
                .iter()
                .map(|b| (place_of(&mut builder, &mut places, b), 1))
                .collect();
            let outputs: Vec<(PlaceId, u64)> = f
                .outputs()
                .iter()
                .map(|b| (place_of(&mut builder, &mut places, b), 1))
                .collect();
            transitions.push((f.name().to_string(), inputs, outputs));
        }
        for (name, inputs, outputs) in transitions {
            builder
                .transition(name, inputs, outputs)
                .expect("net construction from a valid factory graph");
        }
        let net = builder.build();
        let mut marking = Marking::empty(&net);
        let mut names = Vec::new();
        for (id, name, p) in &places {
            let basket = self
                .factories
                .iter()
                .flat_map(|f| f.inputs().iter().chain(f.outputs().iter()))
                .find(|b| b.id() == *id)
                .expect("place derived from factory baskets");
            marking.set_tokens(*p, basket.len() as u64);
            names.push((name.clone(), *p));
        }
        (net, marking, names)
    }
}

/// Handle to a running thread-per-factory deployment.
///
/// Factories can be added dynamically while the deployment runs — the
/// `datacelld` server registers continuous queries at any point in the
/// server's lifetime and hands each new factory to the live scheduler.
#[derive(Default)]
pub struct ThreadedScheduler {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<FactoryStats>>,
}

impl ThreadedScheduler {
    /// An empty deployment; factories are added with
    /// [`ThreadedScheduler::add_shared`].
    pub fn new() -> Self {
        ThreadedScheduler::default()
    }

    /// Spawn one thread per factory — the multi-threaded architecture of
    /// §3.3 ("every single component is an independent thread"). Each
    /// thread fires its transition when the input places hold tokens and
    /// otherwise blocks: it [watches](Basket::watch) every basket in
    /// [`Factory::wakers`], then loops `if ready() { fire } else { park }`.
    /// Any basket change that can flip readiness unparks it, and the
    /// unpark token covers a change landing between `ready()` and
    /// `park()`. A firing that neither consumed nor produced (tokens it
    /// will never take, e.g. a selective predicate's residue) parks too.
    pub fn spawn(factories: Vec<Box<dyn Factory>>) -> Self {
        let mut sched = Self::new();
        for f in factories {
            sched.add_shared(f);
        }
        sched
    }

    /// Add a factory to the running deployment (its thread starts at
    /// once) and get a live handle to its cumulative stats — the
    /// server's `STATS` command reads these while the threads run.
    pub fn add_shared(&mut self, mut f: Box<dyn Factory>) -> Arc<Mutex<FactoryStats>> {
        let shared = Arc::new(Mutex::new(FactoryStats::default()));
        let live = Arc::clone(&shared);
        let stop = Arc::clone(&self.stop);
        self.handles.push(std::thread::spawn(move || {
            let wakers = f.wakers();
            let _watches: Vec<_> = wakers.iter().map(|b| b.watch()).collect();
            loop {
                // read the flag before `ready()`: a stop landing after it
                // finds the thread parked and unparks it
                let stopping = stop.load(Ordering::Acquire);
                let progressed = f.ready()
                    && match f.fire() {
                        Ok(r) => {
                            shared.lock().absorb(&r);
                            r.consumed > 0 || r.produced > 0
                        }
                        Err(_) => break,
                    };
                if progressed {
                    continue;
                }
                // once stopping, keep firing only while firings make
                // progress, so no input is stranded: a factory whose
                // predicate leaves rows behind stays `ready()` forever
                // (tokens it will never consume), and an unbounded drain
                // would wedge shutdown. (Per-thread drains are not
                // coordinated: an empty input exits at once whether or
                // not an upstream drain is about to deliver.)
                if stopping {
                    break;
                }
                match f.recheck_after() {
                    Some(t) => std::thread::park_timeout(t),
                    None => std::thread::park(),
                }
            }
            let final_stats = shared.lock().clone();
            final_stats
        }));
        live
    }

    /// Signal shutdown, wake every parked thread and collect per-factory
    /// stats (each thread drains its pending input before it exits).
    pub fn stop(self) -> Vec<FactoryStats> {
        self.stop.store(true, Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }
        self.handles
            .into_iter()
            .map(|h| h.join().expect("factory thread panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use monet::prelude::*;

    fn copier(
        name: &str,
        from: &Arc<Basket>,
        to: &Arc<Basket>,
        clock: &Arc<VirtualClock>,
    ) -> Box<dyn Factory> {
        let f = Arc::clone(from);
        let t = Arc::clone(to);
        let c = Arc::clone(clock);
        Box::new(crate::factory::ClosureFactory::new(
            name,
            vec![Arc::clone(from)],
            vec![Arc::clone(to)],
            move || {
                let batch = f.drain();
                let n = batch.len();
                t.append_relation(batch, c.as_ref())?;
                Ok(FireReport {
                    consumed: n,
                    produced: n,
                    ..FireReport::default()
                })
            },
        ))
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[("x", ValueType::Int)])
    }

    #[test]
    fn pipeline_drains_to_quiescence() {
        let clock = Arc::new(VirtualClock::new());
        let a = Basket::new("a", &schema(), false);
        let b = Basket::new("b", &schema(), false);
        let c = Basket::new("c", &schema(), false);
        a.append_rows(&[vec![Value::Int(1)], vec![Value::Int(2)]], clock.as_ref())
            .unwrap();

        let mut s = Scheduler::new();
        s.add(copier("ab", &a, &b, &clock));
        s.add(copier("bc", &b, &c, &clock));
        let rounds = s.run_until_quiescent(100).unwrap();
        assert!(rounds <= 3, "two hops should settle in ≤2 firing rounds + 1 empty");
        assert_eq!(c.len(), 2);
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(s.stats_of("ab").unwrap().firings, 1);
        assert_eq!(s.stats_of("ab").unwrap().consumed, 2);
    }

    #[test]
    fn round_fires_each_ready_factory_once() {
        let clock = Arc::new(VirtualClock::new());
        let a = Basket::new("a1", &schema(), false);
        let b = Basket::new("b1", &schema(), false);
        a.append_rows(&[vec![Value::Int(1)]], clock.as_ref()).unwrap();
        let mut s = Scheduler::new();
        s.add(copier("ab", &a, &b, &clock));
        let r = s.run_round().unwrap();
        assert_eq!(r.fired, 1);
        let r = s.run_round().unwrap();
        assert_eq!(r.fired, 0);
    }

    #[test]
    fn petri_mirror_matches_topology() {
        let clock = Arc::new(VirtualClock::new());
        let a = Basket::new("pa", &schema(), false);
        let b = Basket::new("pb", &schema(), false);
        a.append_rows(&[vec![Value::Int(5)]], clock.as_ref()).unwrap();
        let mut s = Scheduler::new();
        s.add(copier("t", &a, &b, &clock));
        let (net, marking, names) = s.to_petri();
        assert_eq!(net.num_places(), 2);
        assert_eq!(net.num_transitions(), 1);
        let pa = names.iter().find(|(n, _)| n == "pa").unwrap().1;
        let pb = names.iter().find(|(n, _)| n == "pb").unwrap().1;
        assert_eq!(marking.tokens(pa), 1);
        assert_eq!(marking.tokens(pb), 0);
        // analysis: this net deadlocks once the token reaches pb
        assert!(petri::analysis::has_deadlock(&net, &marking, 100).is_some());
    }

    #[test]
    fn threaded_scheduler_processes_and_stops() {
        let clock = Arc::new(VirtualClock::new());
        let a = Basket::new("ta", &schema(), false);
        let b = Basket::new("tb", &schema(), false);
        let factories = vec![copier("ab", &a, &b, &clock)];
        let ts = ThreadedScheduler::spawn(factories);
        for i in 0..100 {
            a.append_rows(&[vec![Value::Int(i)]], clock.as_ref()).unwrap();
        }
        // wait for the pipeline to drain
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while b.len() < 100 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stats = ts.stop();
        assert_eq!(b.len(), 100);
        assert!(stats[0].firings >= 1);
        assert_eq!(stats[0].consumed, 100);
    }
}
