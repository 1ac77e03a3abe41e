//! Seeded inputs and the exact reference they are checked against.
//!
//! Every update the system under test receives is generated here from
//! the workload seed, before any clock starts. The data is cut into
//! *slots* — fixed slices that are sent whole, possibly many times — and
//! each slot counts how often the system acknowledged it. After the run
//! the acknowledged multiset is rebuilt exactly from those counts, so the
//! served answer can be checked bit for bit against an in-process
//! `estimate_join` over the same updates, and `ratio_error` against the
//! exact join.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skimmed_sketch::{estimate_join, EstimatorConfig, JoinEstimate, SkimmedSchema, SkimmedSketch};
use std::sync::Arc;
use stream_model::gen::ZipfGenerator;
use stream_model::{Domain, FrequencyVector, Update};
use stream_wire::StreamId;

/// log2 of the domain: `ssketch serve`'s default.
pub const DOMAIN_LOG2: u32 = 16;
/// Hash tables (rows) of the synopsis: `ssketch serve`'s default.
pub const TABLES: usize = 7;
/// Buckets per table: `ssketch serve`'s default.
pub const BUCKETS: usize = 512;
/// Synopsis hash seed: `ssketch serve`'s default. Fixed, so a workload
/// seed changes the data and never the hash functions.
pub const SKETCH_SEED: u64 = 42;
/// Zipf skew of stream F.
pub const Z_F: f64 = 1.0;
/// Zipf skew of stream G.
pub const Z_G: f64 = 0.8;

/// The serving-default synopsis schema: scanning SKIMDENSE, 7×512.
pub fn schema() -> Arc<SkimmedSchema> {
    SkimmedSchema::scanning(Domain::with_log2(DOMAIN_LOG2), TABLES, BUCKETS, SKETCH_SEED)
}

/// `n` inserts whose frequency vector is the Zipf(`z`) shape itself —
/// `n · pmf`, rounded by largest remainder so the counts sum to `n` —
/// in an arrival order shuffled by `rng`. Both streams share the
/// rank-to-value map, so their dense heads meet (the paper's unshifted
/// configuration). Drawing i.i.d. samples instead would add sampling
/// noise that moves `ratio_error` by about ±30% from seed to seed; with
/// exact counts the seed changes only the order (and so the content of
/// every batch), never the answer being estimated.
fn zipf(rng: &mut StdRng, z: f64, n: usize) -> Vec<Update> {
    let g = ZipfGenerator::new(Domain::with_log2(DOMAIN_LOG2), z, 0);
    let expected = g.expected_frequencies(n as u64);
    let mut counts: Vec<usize> = expected.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..expected.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (expected[a].fract(), expected[b].fract());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &v in by_remainder.iter().take(short) {
        counts[v] += 1;
    }
    let mut out: Vec<Update> = counts
        .iter()
        .enumerate()
        .flat_map(|(v, &c)| std::iter::repeat_n(Update::insert(v as u64), c))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// Independent per-purpose generators derived from the workload seed.
pub struct Seeds {
    seed: u64,
}

impl Seeds {
    /// Generators for workload seed `seed`.
    pub fn new(seed: u64) -> Seeds {
        Seeds { seed }
    }

    /// `n` updates of `stream`, drawn from the generator named `purpose`.
    pub fn stream(&self, purpose: u64, stream: StreamId, n: usize) -> Vec<Update> {
        let mix = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(purpose.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(stream as u64);
        let mut rng = StdRng::seed_from_u64(mix);
        let z = match stream {
            StreamId::F => Z_F,
            StreamId::G => Z_G,
        };
        zipf(&mut rng, z, n)
    }
}

/// A slice of updates the load generator sends whole, with the number
/// of times the system acknowledged it.
#[derive(Debug)]
pub struct Slot {
    /// The join input the slot feeds.
    pub stream: StreamId,
    /// The updates, sent as one `send_all` call.
    pub updates: Vec<Update>,
    /// Acknowledged deliveries so far.
    pub acked: u64,
}

impl Slot {
    /// A slot never yet acknowledged.
    pub fn new(stream: StreamId, updates: Vec<Update>) -> Slot {
        Slot {
            stream,
            updates,
            acked: 0,
        }
    }
}

/// Cuts an F buffer and a G buffer into alternating `batch`-sized slots
/// (F, G, F, G, …), so any prefix of the slot cycle feeds both streams.
pub fn interleaved_slots(f: Vec<Update>, g: Vec<Update>, batch: usize) -> Vec<Slot> {
    let mut out = Vec::new();
    let mut fi = f.chunks(batch);
    let mut gi = g.chunks(batch);
    loop {
        let (a, b) = (fi.next(), gi.next());
        if a.is_none() && b.is_none() {
            return out;
        }
        if let Some(a) = a {
            out.push(Slot::new(StreamId::F, a.to_vec()));
        }
        if let Some(b) = b {
            out.push(Slot::new(StreamId::G, b.to_vec()));
        }
    }
}

/// The exact acknowledged multiset, per stream.
#[derive(Debug)]
pub struct Tally {
    counts: [Vec<i64>; 2],
}

impl Default for Tally {
    fn default() -> Self {
        let n = 1usize << DOMAIN_LOG2;
        Tally {
            counts: [vec![0; n], vec![0; n]],
        }
    }
}

impl Tally {
    /// Adds every slot `acked` times.
    pub fn add_slots<'a>(&mut self, slots: impl IntoIterator<Item = &'a Slot>) {
        for s in slots {
            if s.acked > 0 {
                self.add(s.stream, &s.updates, s.acked as i64);
            }
        }
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &Tally) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }

    /// Adds `updates` to `stream`, `times` over.
    pub fn add(&mut self, stream: StreamId, updates: &[Update], times: i64) {
        let c = &mut self.counts[stream as usize];
        for u in updates {
            c[u.value as usize] += u.weight * times;
        }
    }

    /// Updates acknowledged on both streams (sum of |weights|).
    pub fn l1(&self) -> u64 {
        self.counts
            .iter()
            .flat_map(|c| c.iter())
            .map(|c| c.unsigned_abs())
            .sum()
    }

    /// The in-process reference: `estimate_join` over sketches built from
    /// exactly these counts (under the serving schema and estimator
    /// defaults), and the exact join size.
    pub fn reference(&self, schema: &Arc<SkimmedSchema>) -> Reference {
        let sketch = |c: &[i64]| {
            SkimmedSketch::from_frequencies(
                schema.clone(),
                c.iter().enumerate().map(|(v, &f)| (v as u64, f)),
            )
        };
        let (f, g) = (sketch(&self.counts[0]), sketch(&self.counts[1]));
        let estimate = estimate_join(&f, &g, &EstimatorConfig::default());
        let domain = Domain::with_log2(DOMAIN_LOG2);
        let exact = FrequencyVector::from_counts(domain, self.counts[0].clone()).join(
            &FrequencyVector::from_counts(domain, self.counts[1].clone()),
        );
        Reference { estimate, exact }
    }
}

/// What a correct served answer must equal.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// In-process ESTSKIMJOINSIZE over exactly the acknowledged updates.
    pub estimate: JoinEstimate,
    /// `COUNT(F ⋈ G)` computed exactly.
    pub exact: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        let a = Seeds::new(7).stream(1, StreamId::F, 1000);
        let b = Seeds::new(7).stream(1, StreamId::F, 1000);
        let c = Seeds::new(8).stream(1, StreamId::F, 1000);
        let d = Seeds::new(7).stream(1, StreamId::G, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Same multiset, different order.
        let (mut sa, mut sc) = (a.clone(), c.clone());
        sa.sort_by_key(|u| u.value);
        sc.sort_by_key(|u| u.value);
        assert_eq!(sa, sc);
    }

    #[test]
    fn counts_follow_the_zipf_shape_exactly() {
        let n = 100_000;
        let f = Seeds::new(1).stream(1, StreamId::F, n);
        assert_eq!(f.len(), n);
        let fv = FrequencyVector::from_updates(Domain::with_log2(DOMAIN_LOG2), f);
        let g = ZipfGenerator::new(Domain::with_log2(DOMAIN_LOG2), Z_F, 0);
        for (v, e) in g
            .expected_frequencies(n as u64)
            .iter()
            .enumerate()
            .take(100)
        {
            assert!((fv.get(v as u64) as f64 - e).abs() < 1.0, "value {v}");
        }
    }

    #[test]
    fn tally_reference_matches_replay() {
        let seeds = Seeds::new(3);
        let f = seeds.stream(1, StreamId::F, 5000);
        let g = seeds.stream(1, StreamId::G, 5000);
        let mut slots = interleaved_slots(f.clone(), g.clone(), 1024);
        assert_eq!(slots.len(), 10);
        assert_eq!(slots[1].stream, StreamId::G);
        for s in &mut slots {
            s.acked = 2;
        }
        let mut tally = Tally::default();
        tally.add_slots(&slots);
        assert_eq!(tally.l1(), 20_000);
        let schema = schema();
        let mut sf = SkimmedSketch::new(schema.clone());
        let mut sg = SkimmedSketch::new(schema.clone());
        for _ in 0..2 {
            sf.add_batch(&f);
            sg.add_batch(&g);
        }
        let replay = estimate_join(&sf, &sg, &EstimatorConfig::default());
        let r = tally.reference(&schema);
        assert_eq!(r.estimate.estimate.to_bits(), replay.estimate.to_bits());
        let ff = FrequencyVector::from_updates(Domain::with_log2(DOMAIN_LOG2), f);
        let fg = FrequencyVector::from_updates(Domain::with_log2(DOMAIN_LOG2), g);
        assert_eq!(r.exact, 4 * ff.join(&fg));
    }
}
