//! Seeded input generators for the two daemon workloads, and the
//! reference results each run is checked against. The same seed always
//! yields the same batches, the same due times and the same reference.

use monet::prelude::*;

/// Tuples per batch on the wire (one frame per batch).
pub const BATCH: usize = 64;

/// SplitMix64: small, seedable, identical everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    pub fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent digest of one result row: results are summed
/// (wrapping), so any permutation of the same multiset agrees.
pub fn row_digest(vals: &[i64]) -> u64 {
    vals.iter()
        .fold(0x51_7CC1_B727_220A_u64, |h, &v| mix(h ^ v as u64))
}

/// The named integer columns of a result batch, or `None` when one is
/// missing or not an integer column.
pub fn int_cols<const N: usize>(rel: &Relation, names: [&str; N]) -> Option<[Vec<i64>; N]> {
    let mut out: [Vec<i64>; N] = std::array::from_fn(|_| Vec::new());
    for (o, name) in out.iter_mut().zip(names) {
        *o = rel.column(name).ok()?.ints().ok()?.to_vec();
    }
    Some(out)
}

/// The aggregate's result rows `(g, n, s, m)`, sorted.
pub fn agg_rows(rel: &Relation) -> Option<Vec<(i64, i64, i64, i64)>> {
    let [g, n, s, m] = int_cols(rel, ["g", "n", "s", "m"])?;
    let mut rows: Vec<_> = (0..g.len()).map(|i| (g[i], n[i], s[i], m[i])).collect();
    rows.sort_unstable();
    Some(rows)
}

/// An open-loop schedule: batch `i` is due `t0[i]` µs after the window
/// opens and carries that value in its `t0` column.
pub struct Schedule {
    pub batches: Vec<Relation>,
    pub t0: Vec<i64>,
}

impl Schedule {
    pub fn tuples(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }
}

/// Due times for `n` batches of [`BATCH`] tuples offered at `rate`
/// tuples/s. Strictly increasing whenever the gap is ≥ 1 µs.
pub fn due_times(n: usize, rate: f64) -> Vec<i64> {
    let gap_us = BATCH as f64 * 1e6 / rate;
    (0..n).map(|i| (i as f64 * gap_us).round() as i64).collect()
}

fn ints(name: &str, v: Vec<i64>) -> (String, Column) {
    (name.to_string(), Column::from_ints(v))
}

// ---- standing_sql ---------------------------------------------------------

/// Groups of the tapped aggregate.
pub const GROUPS: i64 = 48;
/// Join keys are drawn from this many values; the dimension holds
/// [`DIM_ROWS`] of them, so about one tuple in 16k finds a partner.
pub const KEYSPACE: u64 = 1 << 20;
pub const DIM_ROWS: usize = 64;
pub const V_RANGE: u64 = 1000;

pub struct SqlInput {
    pub sched: Schedule,
    /// The dimension stream `D(k, w)` loaded at setup.
    pub dim: Relation,
    /// Per group, ascending by `g`: `(g, count, sum(v), max(t0))`.
    pub groups: Vec<(i64, i64, i64, i64)>,
    /// Join reference: `(matches, sum(E.v), sum(D.w))`.
    pub join: (i64, i64, i64),
}

pub fn event_schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("g", ValueType::Int),
        ("v", ValueType::Int),
        ("t0", ValueType::Int),
    ])
}

pub fn dim_schema() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("w", ValueType::Int)])
}

pub fn standing_sql(seed: u64, n_batches: usize, rate: f64) -> SqlInput {
    let mut rng = Rng::new(seed, 1);
    let mut dim_k: Vec<i64> = Vec::with_capacity(DIM_ROWS);
    while dim_k.len() < DIM_ROWS {
        let k = rng.below(KEYSPACE);
        if !dim_k.contains(&k) {
            dim_k.push(k);
        }
    }
    let dim_w: Vec<i64> = (0..DIM_ROWS).map(|_| rng.below(1000)).collect();
    let t0 = due_times(n_batches, rate);
    let mut groups = vec![(0i64, 0i64, 0i64, i64::MIN); GROUPS as usize];
    let mut join = (0i64, 0i64, 0i64);
    let mut batches = Vec::with_capacity(n_batches);
    for &due in &t0 {
        let mut k = Vec::with_capacity(BATCH);
        let mut g = Vec::with_capacity(BATCH);
        let mut v = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let (kk, gg, vv) = (
                rng.below(KEYSPACE),
                rng.below(GROUPS as u64),
                rng.below(V_RANGE),
            );
            let e = &mut groups[gg as usize];
            e.1 += 1;
            e.2 += vv;
            e.3 = e.3.max(due);
            if let Some(j) = dim_k.iter().position(|&d| d == kk) {
                join.0 += 1;
                join.1 += vv;
                join.2 += dim_w[j];
            }
            k.push(kk);
            g.push(gg);
            v.push(vv);
        }
        batches.push(
            Relation::from_columns(vec![
                ints("k", k),
                ints("g", g),
                ints("v", v),
                ints("t0", vec![due; BATCH]),
            ])
            .expect("event batch"),
        );
    }
    for (i, e) in groups.iter_mut().enumerate() {
        e.0 = i as i64;
    }
    groups.retain(|e| e.1 > 0);
    let dim = Relation::from_columns(vec![ints("k", dim_k), ints("w", dim_w)]).expect("dim");
    SqlInput {
        sched: Schedule { batches, t0 },
        dim,
        groups,
        join,
    }
}

// ---- durable_cluster ------------------------------------------------------

/// The consuming filter keeps rows with `v` below this (≈ 10 %).
pub const FILTER_BELOW: i64 = 100;

pub struct FilterInput {
    pub sched: Schedule,
    /// Rows of batch `i` the filter must emit.
    pub expect_rows: Vec<u32>,
    /// Digest sum of those rows.
    pub expect_digest: Vec<u64>,
}

pub fn stream_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", ValueType::Int),
        ("v", ValueType::Int),
        ("t0", ValueType::Int),
    ])
}

pub fn durable_cluster(seed: u64, n_batches: usize, rate: f64) -> FilterInput {
    let mut rng = Rng::new(seed, 2);
    let t0 = due_times(n_batches, rate);
    let mut batches = Vec::with_capacity(n_batches);
    let mut expect_rows = Vec::with_capacity(n_batches);
    let mut expect_digest = Vec::with_capacity(n_batches);
    for (i, &due) in t0.iter().enumerate() {
        let mut id = Vec::with_capacity(BATCH);
        let mut v = Vec::with_capacity(BATCH);
        let (mut rows, mut digest) = (0u32, 0u64);
        for j in 0..BATCH {
            let key = (i * BATCH + j) as i64;
            // the first row of every batch passes the filter, so every
            // batch yields a latency sample
            let vv = if j == 0 {
                rng.below(FILTER_BELOW as u64)
            } else {
                rng.below(V_RANGE)
            };
            if vv < FILTER_BELOW {
                rows += 1;
                digest = digest.wrapping_add(row_digest(&[key, vv, due]));
            }
            id.push(key);
            v.push(vv);
        }
        expect_rows.push(rows);
        expect_digest.push(digest);
        batches.push(
            Relation::from_columns(vec![
                ints("id", id),
                ints("v", v),
                ints("t0", vec![due; BATCH]),
            ])
            .expect("stream batch"),
        );
    }
    FilterInput {
        sched: Schedule { batches, t0 },
        expect_rows,
        expect_digest,
    }
}
