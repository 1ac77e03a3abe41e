//! Dyadic-level hash sketches — SKIMDENSE in `O(poly · log N)` time.
//!
//! The naive SKIMDENSE scan touches every domain value, untenable for the
//! 64-bit-address streams the paper motivates. Its §4.2 optimization (after
//! Cormode & Muthukrishnan \[9\]) maintains one hash sketch per *dyadic
//! level*: at level `ℓ` the stream value `v` is recorded as the interval
//! index `v >> ℓ`, so the level-`ℓ` "frequency" of an interval is the sum
//! of the frequencies inside it. Since an interval containing a dense value
//! is itself dense, extraction descends the binary hierarchy, expanding
//! only intervals whose estimate clears the threshold — `O(#dense · log N)`
//! point estimates instead of `O(N)`.
//!
//! Level 0 of the structure *is* the ordinary hash sketch, and join
//! estimation uses it alone; levels `≥ 1` exist purely to accelerate
//! extraction.

use crate::extracted::ExtractedDense;
use crate::skim::skim_dense_candidates;
use std::sync::Arc;
use stream_model::update::{StreamSink, Update};
use stream_model::Domain;
use stream_sketches::{HashSketch, HashSketchSchema, LinearSynopsis};

/// Shared per-level schemas for a family of dyadic sketches.
#[derive(Debug)]
pub struct DyadicSchema {
    domain: Domain,
    levels: Vec<Arc<HashSketchSchema>>,
    seed: u64,
}

impl DyadicSchema {
    /// Creates schemas for all `log2(N) + 1` levels. Each level gets
    /// `tables` hash tables; level `ℓ` gets `min(buckets, 2·intervals(ℓ))`
    /// buckets — no point hashing 4 intervals into 500 buckets.
    pub fn new(domain: Domain, tables: usize, buckets: usize, seed: u64) -> Arc<Self> {
        let root_seed =
            |level: u32| seed ^ (0xD1AD1C00u64 + u64::from(level)).wrapping_mul(0x9E3779B97F4A7C15);
        let levels = (0..domain.levels())
            .map(|level| {
                HashSketchSchema::new(
                    tables,
                    level_buckets(domain, buckets, level),
                    root_seed(level),
                )
            })
            .collect();
        Arc::new(Self {
            domain,
            levels,
            seed,
        })
    }

    /// The domain this schema covers.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The level-0 (value-granularity) schema.
    pub fn base(&self) -> &Arc<HashSketchSchema> {
        &self.levels[0]
    }

    /// Schema of level `ℓ`.
    pub fn level(&self, level: u32) -> &Arc<HashSketchSchema> {
        &self.levels[level as usize]
    }

    /// Number of levels.
    pub fn num_levels(&self) -> u32 {
        // ss-analyze: allow(a5-numeric-narrowing) -- at most `log2(domain)+1 <= 65` levels
        self.levels.len() as u32
    }

    /// Root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total counters across all levels.
    pub fn words(&self) -> usize {
        self.levels.iter().map(|s| s.words()).sum()
    }
}

/// Buckets per table at dyadic `level`: `min(buckets, 2·intervals(ℓ))`
/// (see [`DyadicSchema::new`]). The skimmed-sketch codec uses
/// it to bound a header's counter total before building any schema.
pub(crate) fn level_buckets(domain: Domain, buckets: usize, level: u32) -> usize {
    let intervals = domain.intervals_at(level);
    // ss-analyze: allow(a5-numeric-narrowing) -- usize -> u64 is lossless on every supported platform
    (buckets as u64).min(intervals.saturating_mul(2).max(2)) as usize
}

/// A dyadic multi-level hash sketch of one stream.
#[derive(Debug, Clone)]
pub struct DyadicHashSketch {
    schema: Arc<DyadicSchema>,
    sketches: Vec<HashSketch>,
}

impl DyadicHashSketch {
    /// An empty dyadic sketch under `schema`.
    pub fn new(schema: Arc<DyadicSchema>) -> Self {
        let sketches = (0..schema.num_levels())
            .map(|l| HashSketch::new(schema.level(l).clone()))
            .collect();
        Self { schema, sketches }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<DyadicSchema> {
        &self.schema
    }

    /// The level-0 sketch (the one join estimation runs on).
    pub fn base(&self) -> &HashSketch {
        &self.sketches[0]
    }

    /// Mutable level-0 sketch.
    pub fn base_mut(&mut self) -> &mut HashSketch {
        &mut self.sketches[0]
    }

    /// The sketch of level `ℓ`.
    pub fn level(&self, level: u32) -> &HashSketch {
        &self.sketches[level as usize]
    }

    /// Adds `w` copies of `v` at every level — `O(s1 · log N)`.
    #[inline]
    pub fn add_weighted(&mut self, v: u64, w: i64) {
        debug_assert!(self.schema.domain.contains(v));
        for (level, sk) in self.sketches.iter_mut().enumerate() {
            sk.add_weighted(v >> level, w);
        }
    }

    /// Applies a batch of updates: each level receives the whole batch
    /// through [`HashSketch::add_batch`], with values shifted right one
    /// more bit per level (level `ℓ` sketches interval indices `v >> ℓ`).
    /// One scratch copy of the batch is shifted in place between levels,
    /// so the per-level cost is the level-0 batch kernel plus a linear
    /// pass. Counters are bit-identical to the per-update path.
    pub fn add_batch(&mut self, batch: &[Update]) {
        if batch.is_empty() {
            return;
        }
        debug_assert!(batch.iter().all(|u| self.schema.domain.contains(u.value)));
        if stream_telemetry::ENABLED {
            static STATS: std::sync::OnceLock<(
                std::sync::Arc<stream_telemetry::Counter>,
                std::sync::Arc<stream_telemetry::Counter>,
            )> = std::sync::OnceLock::new();
            let (updates, bytes) = STATS.get_or_init(|| {
                let r = stream_telemetry::global();
                let labels = [("sketch", "dyadic")];
                (
                    r.counter_with("sketch_batch_updates_total", &labels),
                    r.counter_with("sketch_batch_bytes_total", &labels),
                )
            });
            // Counts the dyadic wrapper's own view (levels × tables per
            // update); the per-level HashSketch kernels additionally
            // report under sketch="hash".
            // ss-analyze: allow(a5-numeric-narrowing) -- usize -> u64 is lossless on every supported platform
            updates.add(batch.len() as u64);
            let touched = batch.len() * self.sketches.len() * self.schema.base().tables();
            // ss-analyze: allow(a5-numeric-narrowing) -- usize -> u64 is lossless on every supported platform
            bytes.add(8 * touched as u64);
        }
        let mut shifted: Vec<Update> = Vec::new();
        for (level, sk) in self.sketches.iter_mut().enumerate() {
            if level == 0 {
                sk.add_batch(batch);
            } else if level == 1 {
                shifted = batch.to_vec();
                for u in &mut shifted {
                    u.value >>= 1;
                }
                sk.add_batch(&shifted);
            } else {
                for u in &mut shifted {
                    u.value >>= 1;
                }
                sk.add_batch(&shifted);
            }
        }
    }

    /// Total counters across all levels.
    pub fn words(&self) -> usize {
        self.schema.words()
    }

    /// Counter image of every level (codec support).
    pub fn level_counters(&self) -> Vec<&[i64]> {
        self.sketches.iter().map(|s| s.counters()).collect()
    }

    /// Restores every level's counter image (codec support).
    ///
    /// # Panics
    /// If the level count or any level's length does not match the schema.
    pub fn restore_levels(&mut self, levels: &[Vec<i64>]) {
        assert_eq!(levels.len(), self.sketches.len(), "level count mismatch");
        for (sk, level) in self.sketches.iter_mut().zip(levels) {
            sk.overwrite_counters(level);
        }
    }

    /// Dyadic SKIMDENSE: finds dense values by hierarchical descent, skims
    /// them out of **every** level, and returns the extracted vector.
    ///
    /// `max_candidates` caps the per-level frontier (there can be at most
    /// `L1/T` truly dense intervals per level, but estimation noise can
    /// inflate the frontier; when the cap binds, the tallest estimates are
    /// kept — a documented completeness/time trade-off).
    pub fn skim_dense(&mut self, threshold: i64, max_candidates: usize) -> ExtractedDense {
        assert!(threshold >= 1, "threshold must be at least 1");
        assert!(max_candidates >= 1, "max_candidates must be at least 1");
        let top = self.schema.num_levels() - 1;
        // Prune interior levels against T/2 rather than T: an interval
        // containing a dense value has true mass ≥ T, so the halved cut-off
        // tolerates estimation noise up to T/2 without ever pruning a live
        // branch — at the price of a slightly wider frontier.
        let interior_threshold = (threshold / 2).max(1);
        // Frontier of candidate interval indices, starting from the single
        // top-level interval.
        let mut frontier: Vec<u64> = vec![0];
        for level in (0..top).rev() {
            let mut next: Vec<(u64, i64)> = Vec::with_capacity(frontier.len() * 2);
            let sk = &self.sketches[level as usize];
            let cut = if level == 0 {
                threshold
            } else {
                interior_threshold
            };
            for &idx in &frontier {
                let (c0, c1) = self.schema.domain.children(idx);
                for child in [c0, c1] {
                    let est = sk.point_estimate(child);
                    if est.abs() >= cut {
                        next.push((child, est));
                    }
                }
            }
            if next.len() > max_candidates {
                next.sort_unstable_by_key(|&(_, e)| std::cmp::Reverse(e.abs()));
                next.truncate(max_candidates);
            }
            frontier = next.into_iter().map(|(i, _)| i).collect();
            if frontier.is_empty() {
                return ExtractedDense::empty();
            }
        }
        // `frontier` now holds level-0 candidates (domain values).
        let dense = skim_dense_candidates(&mut self.sketches[0], &frontier, threshold);
        // Keep the upper levels consistent: remove the extracted mass there
        // too, so later skims (or continued streaming) see residuals only.
        for (v, est) in dense.iter() {
            for (level, sk) in self.sketches.iter_mut().enumerate().skip(1) {
                sk.add_weighted(v >> level, -est);
            }
        }
        dense
    }
}

impl StreamSink for DyadicHashSketch {
    #[inline]
    fn update(&mut self, u: Update) {
        self.add_weighted(u.value, u.weight);
    }

    fn update_batch(&mut self, batch: &[Update]) {
        self.add_batch(batch);
    }
}

impl LinearSynopsis for DyadicHashSketch {
    fn compatible(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.schema, &other.schema)
            || (self.schema.seed == other.schema.seed
                && self.schema.domain == other.schema.domain
                && self.schema.num_levels() == other.schema.num_levels()
                && self.schema.base().words() == other.schema.base().words())
    }

    fn merge_from(&mut self, other: &Self) {
        assert!(self.compatible(other), "incompatible dyadic sketches");
        for (a, b) in self.sketches.iter_mut().zip(&other.sketches) {
            a.merge_from(b);
        }
    }

    fn negate(&mut self) {
        for s in &mut self.sketches {
            s.negate();
        }
    }

    fn clear(&mut self) {
        for s in &mut self.sketches {
            s.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skim::skim_dense_scan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stream_model::gen::ZipfGenerator;
    use stream_model::FrequencyVector;

    fn zipf_updates(log2: u32, z: f64, n: usize, seed: u64) -> Vec<Update> {
        let d = Domain::with_log2(log2);
        let mut rng = StdRng::seed_from_u64(seed);
        ZipfGenerator::new(d, z, 0).generate(&mut rng, n)
    }

    #[test]
    fn level_frequencies_aggregate() {
        let d = Domain::with_log2(6);
        let schema = DyadicSchema::new(d, 5, 64, 1);
        let mut sk = DyadicHashSketch::new(schema);
        // Mass 100 at value 5 and 200 at value 7: same level-2 interval 1.
        sk.add_weighted(5, 100);
        sk.add_weighted(7, 200);
        assert_eq!(sk.level(0).point_estimate(5), 100);
        assert_eq!(sk.level(0).point_estimate(7), 200);
        // Level 2 interval 1 covers [4, 8).
        let est = sk.level(2).point_estimate(1);
        assert_eq!(est, 300);
        // Top level sees everything.
        let top = sk.schema().num_levels() - 1;
        assert_eq!(sk.level(top).point_estimate(0), 300);
    }

    #[test]
    fn dyadic_skim_agrees_with_naive_scan_away_from_the_threshold() {
        let d = Domain::with_log2(12);
        let updates = zipf_updates(12, 1.3, 40_000, 2);
        let schema = DyadicSchema::new(d, 7, 512, 3);
        let mut dy = DyadicHashSketch::new(schema.clone());
        for &u in &updates {
            dy.update(u);
        }
        // A scan sketch sharing level-0 randomness: its level-0 estimator
        // is the identical function, so the dyadic extraction is always a
        // *subset* of the scan's, differing only where interior-level
        // noise pruned a borderline branch.
        let mut scan = HashSketch::new(schema.base().clone());
        for &u in &updates {
            scan.update(u);
        }
        let t = 1000;
        let from_scan = skim_dense_scan(&mut scan, d, t);
        let from_dyadic = dy.skim_dense(t, 4096);
        assert!(!from_dyadic.is_empty());
        // dyadic ⊆ scan, with identical estimates on the intersection.
        for (v, est) in from_dyadic.iter() {
            assert_eq!(from_scan.get(v), est, "v={v}");
        }
        // Anything the dyadic descent missed must be borderline (< 2T).
        for (v, est) in from_scan.iter() {
            if from_dyadic.get(v) == 0 {
                assert!(est.abs() < 2 * t, "clearly dense v={v} est={est} missed");
            }
        }
    }

    #[test]
    fn skim_leaves_upper_levels_consistent() {
        let d = Domain::with_log2(8);
        let schema = DyadicSchema::new(d, 5, 128, 4);
        let mut dy = DyadicHashSketch::new(schema.clone());
        let updates = vec![
            Update::with_measure(17, 500),
            Update::with_measure(99, 700),
            Update::with_measure(200, 3),
        ];
        let mut fv = FrequencyVector::new(d);
        for &u in &updates {
            dy.update(u);
            fv.update(u);
        }
        let dense = dy.skim_dense(100, 1024);
        assert_eq!(dense.get(17), 500);
        assert_eq!(dense.get(99), 700);
        // After skimming, every level's estimate of the skimmed values'
        // intervals reflects only residual mass (value 200's 3 units).
        for level in 0..schema.num_levels() {
            let est = dy.level(level).point_estimate(200 >> level);
            assert!((est - 3).abs() <= 3, "level {level} est={est}");
        }
    }

    #[test]
    fn empty_dyadic_skims_nothing() {
        let d = Domain::with_log2(10);
        let mut dy = DyadicHashSketch::new(DyadicSchema::new(d, 3, 64, 5));
        assert!(dy.skim_dense(1, 64).is_empty());
    }

    #[test]
    fn candidate_cap_keeps_tallest() {
        let d = Domain::with_log2(10);
        let mut dy = DyadicHashSketch::new(DyadicSchema::new(d, 7, 256, 6));
        // 8 planted values; cap the frontier at 4 — the 4 tallest must
        // still surface because caps keep the largest estimates.
        let weights = [1000, 900, 800, 700, 50, 40, 30, 20];
        for (i, &w) in weights.iter().enumerate() {
            dy.add_weighted((i * 128) as u64, w);
        }
        let dense = dy.skim_dense(15, 4);
        let got: Vec<u64> = dense.iter().map(|(v, _)| v).collect();
        for v in [0u64, 128, 256, 384] {
            assert!(got.contains(&v), "missing {v}; got {got:?}");
        }
    }

    #[test]
    fn merge_negate_roundtrip() {
        let d = Domain::with_log2(6);
        let schema = DyadicSchema::new(d, 3, 32, 7);
        let mut a = DyadicHashSketch::new(schema.clone());
        for u in zipf_updates(6, 1.0, 500, 8) {
            a.update(u);
        }
        let mut b = a.clone();
        b.negate();
        a.merge_from(&b);
        for level in 0..schema.num_levels() {
            assert!(a.level(level).counters().iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn update_cost_is_one_counter_per_table_per_level() {
        let d = Domain::with_log2(4);
        let schema = DyadicSchema::new(d, 2, 8, 9);
        let mut sk = DyadicHashSketch::new(schema.clone());
        sk.update(Update::insert(11));
        for level in 0..schema.num_levels() {
            let s = sk.level(level);
            let nonzero = s.counters().iter().filter(|&&c| c != 0).count();
            assert_eq!(nonzero, 2, "level {level}"); // one per table
        }
    }
}
