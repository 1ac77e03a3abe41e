//! Count-Min sketch (Cormode & Muthukrishnan) — ablation comparator.
//!
//! Not part of the paper's 2004 toolbox, but the natural modern question
//! about SKIMDENSE is "why CountSketch-style ±1 buckets rather than
//! Count-Min?". The answer — Count-Min's point estimates carry a one-sided
//! `O(L1/b)` bias that scales with the *first* moment while CountSketch's
//! two-sided error scales with `√(F₂/b)` — is demonstrated empirically by
//! the `ablation_threshold` harness, which needs this implementation.

use crate::hash_sketch::BATCH_CHUNK;
use crate::linear::LinearSynopsis;
use std::sync::Arc;
use stream_hash::lanes;
use stream_hash::prime::reduce;
use stream_hash::{PairwiseHash, SeedSequence};
use stream_model::update::{StreamSink, Update};

/// Shared hash functions for a family of Count-Min sketches.
#[derive(Debug)]
pub struct CountMinSchema {
    depth: usize,
    width: usize,
    seed: u64,
    hashes: Vec<PairwiseHash>,
}

impl CountMinSchema {
    /// Creates a schema of `depth` rows × `width` counters from `seed`.
    pub fn new(depth: usize, width: usize, seed: u64) -> Arc<Self> {
        assert!(depth > 0 && width > 0, "schema must be non-degenerate");
        let root = SeedSequence::new(seed).fork(0x434D /* "CM" */);
        let hashes = (0..depth)
            // ss-analyze: allow(a5-numeric-narrowing) -- usize -> u64 is lossless on every supported platform
            .map(|i| PairwiseHash::from_seed(root.fork(i as u64), width))
            .collect();
        Arc::new(Self {
            depth,
            width,
            seed,
            hashes,
        })
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Counters per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Synopsis size in words.
    pub fn words(&self) -> usize {
        self.depth * self.width
    }

    #[inline]
    fn bucket(&self, row: usize, v: u64) -> usize {
        self.hashes[row].bucket(v)
    }
}

/// A Count-Min sketch of one stream.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    schema: Arc<CountMinSchema>,
    counters: Vec<i64>,
}

impl CountMinSketch {
    /// An empty sketch under `schema`.
    pub fn new(schema: Arc<CountMinSchema>) -> Self {
        let n = schema.words();
        Self {
            schema,
            counters: vec![0; n],
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<CountMinSchema> {
        &self.schema
    }

    /// Point estimate of `f(v)`: minimum over rows. An *over*-estimate in
    /// expectation for non-negative streams (error ≤ `2·L1/width` w.p. ≥ ½
    /// per row).
    pub fn point_estimate(&self, v: u64) -> i64 {
        let w = self.schema.width;
        (0..self.schema.depth)
            .map(|r| self.counters[r * w + self.schema.bucket(r, v)])
            .min()
            // ss-analyze: allow(a10-reachable-panic) -- schema depth is validated nonzero at construction, so the row iterator is nonempty
            .expect("depth > 0")
    }

    /// Inner-product estimate: minimum over rows of the bucket-wise
    /// product — an upper bound in expectation for non-negative streams.
    pub fn join_estimate(&self, other: &CountMinSketch) -> f64 {
        assert!(
            self.compatible(other),
            "join estimation requires sketches under the same schema"
        );
        let w = self.schema.width;
        (0..self.schema.depth)
            .map(|r| {
                let base = r * w;
                (0..w)
                    .map(|q| self.counters[base + q] as i128 * other.counters[base + q] as i128)
                    .sum::<i128>()
            })
            .min()
            // ss-analyze: allow(a10-reachable-panic) -- schema depth is validated nonzero at construction, so the row iterator is nonempty
            .expect("depth > 0") as f64
    }

    /// Applies a batch of updates with the loops interchanged: outer loop
    /// over rows, inner loop over a stack-resident chunk of the batch.
    /// Values are reduced into the hash field once per chunk and shared by
    /// every row. On AVX2-or-wider targets ([`lanes::VECTOR_KERNEL`]) the
    /// bucket hashes run the blocked 32-bit limb-lane kernel. Counters are
    /// bit-identical to the per-update path either way.
    pub fn add_batch(&mut self, batch: &[Update]) {
        if stream_telemetry::ENABLED {
            static STATS: std::sync::OnceLock<crate::telem::BatchStats> =
                std::sync::OnceLock::new();
            crate::telem::batch_stats(&STATS, "countmin")
                .note(batch.len(), batch.len() * self.schema.depth);
        }
        if lanes::VECTOR_KERNEL {
            self.add_batch_limb_lanes(batch);
        } else {
            self.add_batch_lazy128(batch);
        }
    }

    /// Blocked limb-lane kernel: keys split into 32-bit limbs once per
    /// chunk, buckets evaluated per row via [`PairwiseHash::bucket_block`].
    ///
    /// Public so benches and property tests can pin this kernel regardless
    /// of what [`CountMinSketch::add_batch`] would select; production code
    /// should call `add_batch` and let the selector pick.
    pub fn add_batch_limb_lanes(&mut self, batch: &[Update]) {
        let w = self.schema.width;
        let mut x0 = [0u64; BATCH_CHUNK];
        let mut x1 = [0u64; BATCH_CHUNK];
        let mut weights = [0i64; BATCH_CHUNK];
        let mut buckets = [0usize; BATCH_CHUNK];
        for chunk in batch.chunks(BATCH_CHUNK) {
            let n = chunk.len();
            for (j, u) in chunk.iter().enumerate() {
                let (lo, hi) = lanes::split61(reduce(u.value));
                x0[j] = lo;
                x1[j] = hi;
                weights[j] = u.weight;
            }
            for r in 0..self.schema.depth {
                self.schema.hashes[r].bucket_block(&x0[..n], &x1[..n], &mut buckets[..n]);
                let row = &mut self.counters[r * w..(r + 1) * w];
                if w.is_power_of_two() {
                    let m = w - 1;
                    for j in 0..n {
                        row[buckets[j] & m] += weights[j];
                    }
                } else {
                    for j in 0..n {
                        row[buckets[j]] += weights[j];
                    }
                }
            }
        }
    }

    /// Lazy-`u128` kernel (the scalar-multiplier path).
    ///
    /// Public so benches and property tests can pin this kernel regardless
    /// of what [`CountMinSketch::add_batch`] would select; production code
    /// should call `add_batch` and let the selector pick.
    pub fn add_batch_lazy128(&mut self, batch: &[Update]) {
        let w = self.schema.width;
        let mut reduced = [0u64; BATCH_CHUNK];
        let mut weights = [0i64; BATCH_CHUNK];
        let mut buckets = [0usize; BATCH_CHUNK];
        for chunk in batch.chunks(BATCH_CHUNK) {
            let n = chunk.len();
            for (j, u) in chunk.iter().enumerate() {
                reduced[j] = reduce(u.value);
                weights[j] = u.weight;
            }
            for r in 0..self.schema.depth {
                self.schema.hashes[r].bucket_batch(&reduced[..n], &mut buckets[..n]);
                let row = &mut self.counters[r * w..(r + 1) * w];
                for j in 0..n {
                    row[buckets[j]] += weights[j];
                }
            }
        }
    }

    /// Synopsis size in words.
    pub fn words(&self) -> usize {
        self.schema.words()
    }

    /// Raw counters (row-major).
    pub fn counters(&self) -> &[i64] {
        &self.counters
    }
}

impl StreamSink for CountMinSketch {
    #[inline]
    fn update(&mut self, u: Update) {
        let w = self.schema.width;
        for r in 0..self.schema.depth {
            self.counters[r * w + self.schema.bucket(r, u.value)] += u.weight;
        }
    }

    fn update_batch(&mut self, batch: &[Update]) {
        self.add_batch(batch);
    }
}

impl LinearSynopsis for CountMinSketch {
    fn compatible(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.schema, &other.schema)
            || (self.schema.seed == other.schema.seed
                && self.schema.depth == other.schema.depth
                && self.schema.width == other.schema.width)
    }

    fn merge_from(&mut self, other: &Self) {
        assert!(self.compatible(other), "incompatible Count-Min sketches");
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

    #[test]
    fn point_estimate_never_underestimates_nonneg_streams() {
        let schema = CountMinSchema::new(4, 64, 1);
        let mut sk = CountMinSketch::new(schema);
        let mut rng = StdRng::seed_from_u64(1);
        let mut truth = vec![0i64; 1024];
        for _ in 0..10_000 {
            let v = rng.gen_range(0..1024u64);
            truth[v as usize] += 1;
            sk.update(Update::insert(v));
        }
        for v in 0..1024u64 {
            assert!(sk.point_estimate(v) >= truth[v as usize], "v={v}");
        }
    }

    #[test]
    fn point_estimate_error_bounded_by_l1_over_width() {
        let schema = CountMinSchema::new(5, 256, 2);
        let mut sk = CountMinSketch::new(schema);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000u64;
        let mut truth = vec![0i64; 4096];
        for _ in 0..n {
            let v = rng.gen_range(0..4096u64);
            truth[v as usize] += 1;
            sk.update(Update::insert(v));
        }
        // With depth 5, overshoot beyond 2·L1/width on all rows at once is
        // very unlikely; allow a couple of stragglers.
        let bound = 2 * n as i64 / 256;
        let violations = (0..4096u64)
            .filter(|&v| sk.point_estimate(v) - truth[v as usize] > bound)
            .count();
        assert!(violations < 8, "violations={violations}");
    }

    #[test]
    fn join_estimate_upper_bounds_truth_on_average() {
        let schema = CountMinSchema::new(4, 128, 3);
        let mut f = CountMinSketch::new(schema.clone());
        let mut g = CountMinSketch::new(schema);
        let mut rng = StdRng::seed_from_u64(3);
        let mut tf = vec![0i64; 512];
        let mut tg = vec![0i64; 512];
        for _ in 0..5_000 {
            let v = rng.gen_range(0..512u64);
            tf[v as usize] += 1;
            f.update(Update::insert(v));
            let w = rng.gen_range(0..512u64);
            tg[w as usize] += 1;
            g.update(Update::insert(w));
        }
        let actual: i64 = tf.iter().zip(&tg).map(|(&a, &b)| a * b).sum();
        let est = f.join_estimate(&g);
        assert!(est >= actual as f64 * 0.99, "est={est} actual={actual}");
    }

    #[test]
    fn update_batch_matches_scalar_updates() {
        let mut rng = StdRng::seed_from_u64(44);
        for &width in &[64usize, 100] {
            for &len in &[0usize, 1, 256, 257, 900] {
                let batch: Vec<Update> = (0..len)
                    .map(|_| Update {
                        value: rng.gen_range(0..1u64 << 20),
                        weight: rng.gen_range(-3i64..=3),
                    })
                    .collect();
                let schema = CountMinSchema::new(4, width, 45);
                let mut batched = CountMinSketch::new(schema.clone());
                let mut limb = CountMinSketch::new(schema.clone());
                let mut lazy = CountMinSketch::new(schema.clone());
                let mut scalar = CountMinSketch::new(schema);
                batched.update_batch(&batch);
                limb.add_batch_limb_lanes(&batch);
                lazy.add_batch_lazy128(&batch);
                for &u in &batch {
                    scalar.update(u);
                }
                assert_eq!(
                    batched.counters(),
                    scalar.counters(),
                    "width={width} len={len}"
                );
                assert_eq!(
                    limb.counters(),
                    scalar.counters(),
                    "limb-lane kernel, width={width} len={len}"
                );
                assert_eq!(
                    lazy.counters(),
                    scalar.counters(),
                    "lazy128 kernel, width={width} len={len}"
                );
            }
        }
    }

    #[test]
    fn merge_and_negate_cancel() {
        let schema = CountMinSchema::new(3, 32, 4);
        let mut a = CountMinSketch::new(schema.clone());
        for v in 0..100 {
            a.update(Update::insert(v % 17));
        }
        let mut b = a.clone();
        b.negate();
        a.merge_from(&b);
        assert!(a.counters.iter().all(|&c| c == 0));
    }
}
