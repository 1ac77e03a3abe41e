//! Basic AGMS ("tug-of-war") sketching — the paper's baseline \[3, 4\].
//!
//! The synopsis is an `s1 × s2` array of *atomic sketches*
//! `X[i][k] = Σ_v f(v)·ξ_{ik}(v)`, each with an independent four-wise ±1
//! family. ESTJOINSIZE (Fig. 2 of the paper) estimates `f·g` as the median
//! over the `s1` rows of the per-row average of `X_F[i][k]·X_G[i][k]`:
//! averaging over `s2` shrinks the variance, the median boosts the success
//! probability.
//!
//! The two costs that motivate the skimmed-sketch algorithm are visible
//! directly in this module: every update touches **all** `s1·s2` counters,
//! and matching a given additive-error target requires
//! `s2 = O(SJ(F)·SJ(G)/ε²J²)` — the *square* of the space lower bound.

use crate::hash_sketch::BATCH_CHUNK;
use crate::linear::LinearSynopsis;
use std::sync::Arc;
use stream_hash::{BchKey, BchSignFamily, SeedSequence};
use stream_model::metrics::median_f64;
use stream_model::update::{StreamSink, Update};

/// Shared randomness for a family of compatible AGMS sketches.
///
/// The join estimator requires the `F` and `G` sketches to use the *same*
/// sign families; constructing both from one `Arc<AgmsSchema>` guarantees
/// it (and `estimate_join` enforces it).
#[derive(Debug)]
pub struct AgmsSchema {
    rows: usize,
    cols: usize,
    seed: u64,
    signs: Vec<BchSignFamily>,
}

impl AgmsSchema {
    /// Creates a schema with `rows` (= `s1`, median boosting) and `cols`
    /// (= `s2`, averaging) atomic sketches, derived from `seed`.
    pub fn new(rows: usize, cols: usize, seed: u64) -> Arc<Self> {
        assert!(rows > 0 && cols > 0, "schema must have at least one cell");
        let root = SeedSequence::new(seed).fork(0x41474D53 /* "AGMS" */);
        let signs = (0..rows * cols)
            // ss-analyze: allow(a5-numeric-narrowing) -- usize -> u64 is lossless on every supported platform
            .map(|i| BchSignFamily::from_seed(root.fork(i as u64)))
            .collect();
        Arc::new(Self {
            rows,
            cols,
            seed,
            signs,
        })
    }

    /// Number of rows (`s1`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`s2`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Root seed the families were derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total synopsis size in counters ("words", as the paper counts
    /// space).
    pub fn words(&self) -> usize {
        self.rows * self.cols
    }

    /// Sign of value `v` in cell `idx` (row-major).
    #[inline]
    pub fn sign(&self, idx: usize, v: u64) -> i64 {
        self.signs[idx].sign(v)
    }

    /// Sign of a precomputed BCH key in cell `idx`.
    #[inline]
    fn sign_key(&self, idx: usize, key: BchKey) -> i64 {
        self.signs[idx].sign_key(key)
    }
}

/// A basic AGMS sketch of one stream.
///
/// # Examples
///
/// ```
/// use stream_sketches::{AgmsSchema, AgmsSketch};
/// use stream_model::{StreamSink, Update};
///
/// let schema = AgmsSchema::new(5, 256, 1);
/// let mut f = AgmsSketch::new(schema.clone());
/// let mut g = AgmsSketch::new(schema);
/// for v in 0..1000u64 {
///     f.update(Update::insert(v % 50));
///     g.update(Update::insert(v % 100));
/// }
/// // True join: 50 shared values × 20 × 10 = 10000.
/// let est = f.estimate_join(&g);
/// assert!((est - 10_000.0).abs() < 4_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct AgmsSketch {
    schema: Arc<AgmsSchema>,
    counters: Vec<i64>,
}

impl AgmsSketch {
    /// An empty sketch under `schema`.
    pub fn new(schema: Arc<AgmsSchema>) -> Self {
        let n = schema.words();
        Self {
            schema,
            counters: vec![0; n],
        }
    }

    /// The schema this sketch was built under.
    pub fn schema(&self) -> &Arc<AgmsSchema> {
        &self.schema
    }

    /// Raw counter values (row-major), for tests and serialization.
    pub fn counters(&self) -> &[i64] {
        &self.counters
    }

    /// Builds a sketch directly from an explicit frequency vector — the
    /// bulk path the experiment harness uses for static workloads. By
    /// linearity this is *identical* to replaying the stream update by
    /// update, just cheaper: one pass over the nonzero frequencies.
    pub fn from_frequencies<'a, I>(schema: Arc<AgmsSchema>, frequencies: I) -> Self
    where
        I: IntoIterator<Item = (u64, i64)> + 'a,
    {
        let mut sk = Self::new(schema);
        for (v, f) in frequencies {
            if f != 0 {
                sk.add_weighted(v, f);
            }
        }
        sk
    }

    /// Adds `w` copies of `v` to every atomic sketch. The expensive field
    /// cube of the BCH extension is computed once and shared by all
    /// `s1·s2` families.
    #[inline]
    pub fn add_weighted(&mut self, v: u64, w: i64) {
        let key = BchKey::new(v);
        for (idx, c) in self.counters.iter_mut().enumerate() {
            *c += w * self.schema.sign_key(idx, key);
        }
    }

    /// Applies a batch of updates with the loops interchanged: outer loop
    /// over the `s1·s2` cells, inner loop over a chunk of the batch.
    ///
    /// BCH keys (the field cubes) are computed once per element per chunk
    /// and shared by every cell; each cell's contribution is summed in a
    /// register and written back once, so the counter array is walked a
    /// single time per chunk instead of once per update. Counters are
    /// bit-identical to the per-update path.
    pub fn add_batch(&mut self, batch: &[Update]) {
        if stream_telemetry::ENABLED {
            static STATS: std::sync::OnceLock<crate::telem::BatchStats> =
                std::sync::OnceLock::new();
            // Basic AGMS touches every one of the s1·s2 counters per update.
            crate::telem::batch_stats(&STATS, "agms")
                .note(batch.len(), batch.len() * self.schema.words());
        }
        let mut keyed: Vec<(BchKey, i64)> = Vec::with_capacity(batch.len().min(BATCH_CHUNK));
        for chunk in batch.chunks(BATCH_CHUNK) {
            keyed.clear();
            keyed.extend(chunk.iter().map(|u| (BchKey::new(u.value), u.weight)));
            for (idx, c) in self.counters.iter_mut().enumerate() {
                let fam = &self.schema.signs[idx];
                let mut acc = 0i64;
                for &(key, w) in &keyed {
                    acc += w * fam.sign_key(key);
                }
                *c += acc;
            }
        }
    }

    /// ESTJOINSIZE (Fig. 2): estimate `f·g` from two sketches under the
    /// same schema.
    ///
    /// # Panics
    /// If the sketches were built under different schemas.
    pub fn estimate_join(&self, other: &AgmsSketch) -> f64 {
        assert!(
            self.compatible(other),
            "join estimation requires sketches under the same schema"
        );
        let (rows, cols) = (self.schema.rows, self.schema.cols);
        let mut row_means = Vec::with_capacity(rows);
        for i in 0..rows {
            let mut acc: i128 = 0;
            let base = i * cols;
            for k in 0..cols {
                acc += self.counters[base + k] as i128 * other.counters[base + k] as i128;
            }
            row_means.push(acc as f64 / cols as f64);
        }
        median_f64(&mut row_means)
    }

    /// ESTSJSIZE: estimate the self-join size `F₂ = Σ f(v)²`.
    pub fn estimate_self_join(&self) -> f64 {
        self.estimate_join(self)
    }

    /// Synopsis size in words.
    pub fn words(&self) -> usize {
        self.schema.words()
    }
}

impl StreamSink for AgmsSketch {
    #[inline]
    fn update(&mut self, u: Update) {
        self.add_weighted(u.value, u.weight);
    }

    fn update_batch(&mut self, batch: &[Update]) {
        self.add_batch(batch);
    }
}

impl LinearSynopsis for AgmsSketch {
    fn compatible(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.schema, &other.schema)
            || (self.schema.seed == other.schema.seed
                && self.schema.rows == other.schema.rows
                && self.schema.cols == other.schema.cols)
    }

    fn merge_from(&mut self, other: &Self) {
        assert!(self.compatible(other), "incompatible AGMS sketches");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
    }

    fn negate(&mut self) {
        for c in &mut self.counters {
            *c = -*c;
        }
    }

    fn clear(&mut self) {
        self.counters.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use stream_model::{Domain, FrequencyVector};

    fn random_freqs(seed: u64, domain: usize, max: i64) -> FrequencyVector {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Domain::covering(domain as u64);
        let counts = (0..d.size()).map(|_| rng.gen_range(0..=max)).collect();
        FrequencyVector::from_counts(d, counts)
    }

    #[test]
    fn atomic_sketch_matches_manual_projection() {
        let schema = AgmsSchema::new(2, 3, 7);
        let mut sk = AgmsSketch::new(schema.clone());
        sk.update(Update::with_measure(4, 5));
        sk.update(Update::insert(9));
        for idx in 0..schema.words() {
            let expect = 5 * schema.sign(idx, 4) + schema.sign(idx, 9);
            assert_eq!(sk.counters()[idx], expect);
        }
    }

    #[test]
    fn insert_then_delete_is_empty() {
        let schema = AgmsSchema::new(3, 5, 11);
        let mut sk = AgmsSketch::new(schema);
        for v in 0..100 {
            sk.update(Update::insert(v));
        }
        for v in 0..100 {
            sk.update(Update::delete(v));
        }
        assert!(sk.counters().iter().all(|&c| c == 0));
    }

    #[test]
    fn from_frequencies_equals_replay() {
        let fv = random_freqs(1, 256, 5);
        let schema = AgmsSchema::new(5, 7, 13);
        let bulk = AgmsSketch::from_frequencies(schema.clone(), fv.nonzero());
        let mut replay = AgmsSketch::new(schema);
        for u in fv.to_unit_updates() {
            replay.update(u);
        }
        assert_eq!(bulk.counters(), replay.counters());
    }

    #[test]
    fn merge_equals_union() {
        let f = random_freqs(2, 128, 4);
        let g = random_freqs(3, 128, 4);
        let schema = AgmsSchema::new(3, 3, 17);
        let mut a = AgmsSketch::from_frequencies(schema.clone(), f.nonzero());
        let b = AgmsSketch::from_frequencies(schema.clone(), g.nonzero());
        a.merge_from(&b);
        let union = AgmsSketch::from_frequencies(schema, f.add(&g).nonzero());
        assert_eq!(a.counters(), union.counters());
    }

    #[test]
    fn subtract_then_clear() {
        let f = random_freqs(4, 64, 4);
        let schema = AgmsSchema::new(2, 2, 19);
        let mut a = AgmsSketch::from_frequencies(schema.clone(), f.nonzero());
        let b = a.clone();
        a.subtract_from(&b);
        assert!(a.counters().iter().all(|&c| c == 0));
        let mut c = b.clone();
        c.clear();
        assert!(c.counters().iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "same schema")]
    fn join_across_schemas_panics() {
        let a = AgmsSketch::new(AgmsSchema::new(2, 2, 1));
        let b = AgmsSketch::new(AgmsSchema::new(2, 2, 2));
        let _ = a.estimate_join(&b);
    }

    #[test]
    fn self_join_estimate_is_accurate_on_uniform_data() {
        let fv = random_freqs(5, 1024, 10);
        let schema = AgmsSchema::new(7, 200, 23);
        let sk = AgmsSketch::from_frequencies(schema, fv.nonzero());
        let est = sk.estimate_self_join();
        let actual = fv.self_join() as f64;
        let rel = (est - actual).abs() / actual;
        // With s2=200 the standard error is ~sqrt(2/200) ≈ 10%.
        assert!(rel < 0.3, "rel={rel} est={est} actual={actual}");
    }

    #[test]
    fn join_estimate_is_accurate_on_uniform_data() {
        let f = random_freqs(6, 1024, 10);
        let g = random_freqs(7, 1024, 10);
        let schema = AgmsSchema::new(7, 200, 29);
        let sf = AgmsSketch::from_frequencies(schema.clone(), f.nonzero());
        let sg = AgmsSketch::from_frequencies(schema, g.nonzero());
        let est = sf.estimate_join(&sg);
        let actual = f.join(&g) as f64;
        let rel = (est - actual).abs() / actual;
        assert!(rel < 0.3, "rel={rel} est={est} actual={actual}");
    }

    #[test]
    fn join_estimate_is_unbiased_across_seeds() {
        // Average the estimator over many independent schemas; the mean
        // must approach the true join size (Thm 2's expectation claim).
        let f = random_freqs(8, 64, 3);
        let g = random_freqs(9, 64, 3);
        let actual = f.join(&g) as f64;
        let trials = 300;
        let mut sum = 0.0;
        for t in 0..trials {
            let schema = AgmsSchema::new(1, 16, 1000 + t);
            let sf = AgmsSketch::from_frequencies(schema.clone(), f.nonzero());
            let sg = AgmsSketch::from_frequencies(schema, g.nonzero());
            sum += sf.estimate_join(&sg);
        }
        let mean = sum / trials as f64;
        let rel = (mean - actual).abs() / actual;
        assert!(rel < 0.15, "mean={mean} actual={actual}");
    }

    #[test]
    fn words_counts_all_counters() {
        assert_eq!(AgmsSketch::new(AgmsSchema::new(5, 11, 0)).words(), 55);
    }

    #[test]
    fn update_batch_matches_scalar_updates() {
        let mut rng = StdRng::seed_from_u64(33);
        for &len in &[0usize, 1, 255, 256, 257, 700] {
            let batch: Vec<Update> = (0..len)
                .map(|_| Update {
                    value: rng.gen_range(0..1u64 << 20),
                    weight: rng.gen_range(-3i64..=3),
                })
                .collect();
            let schema = AgmsSchema::new(4, 8, 35);
            let mut batched = AgmsSketch::new(schema.clone());
            let mut scalar = AgmsSketch::new(schema);
            batched.update_batch(&batch);
            for &u in &batch {
                scalar.update(u);
            }
            assert_eq!(batched.counters(), scalar.counters(), "len={len}");
        }
    }
}
