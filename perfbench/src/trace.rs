//! In-memory span recording for the traced replay. Each call into a
//! layer's public function becomes a span (name, start, end, parent,
//! batch id, rows handled); spans stay in memory until the replay ends
//! and are then written out as JSON lines. A span's self time is its
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub batch: u64,
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, [`Recorder::span`] only runs the
/// call (the untraced baseline).
pub struct Recorder {
    on: bool,
    base: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Per-name totals over a recording.
#[derive(Default, Clone)]
pub struct Totals {
    pub items: u64,
    pub self_ns: u64,
    pub durs_ns: Vec<f64>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` for `batch`, handling `items`
    /// rows. Spans opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        batch: u64,
        items: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.base.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
            items,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.base.elapsed().as_nanos() as u64;
        r
    }

    /// Self time per span: duration minus the children's durations.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut m: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = m.entry(s.name).or_default();
            t.items += s.items;
            t.self_ns += self_ns;
            t.durs_ns.push(s.dur_ns() as f64);
        }
        m
    }

    /// Durations (µs) of every root span called `root` — one per input
    /// batch: the single-threaded work the batch costs across layers.
    pub fn root_durations_us(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT && s.name == root)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(f);
        let self_ns = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}, \"batch\": {}, \"items\": {}}}",
                s.name, s.start_ns, s.end_ns, self_ns[i], s.batch, s.items
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        w.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}
