//! Property-based tests (proptest) for the core invariants:
//! linearity, delete-cancellation, skim residual guarantees, decomposition
//! exactness, codec round-trips, and metric axioms.

use proptest::prelude::*;
use skimmed_sketch::analysis::SkimDecomposition;
use skimmed_sketch::skim::skim_dense_scan;
use skimmed_sketches::prelude::*;
use stream_model::metrics::{ratio_error, ERROR_SANITY_BOUND};
use stream_model::trace;
use stream_sketches::linear::synopsis_of;
use stream_sketches::{AgmsSchema, AgmsSketch, HashSketch, HashSketchSchema, LinearSynopsis};

const DOMAIN_LOG2: u32 = 8;

fn arb_updates(max_len: usize) -> impl Strategy<Value = Vec<Update>> {
    prop::collection::vec(
        (0u64..(1 << DOMAIN_LOG2), -20i64..=20).prop_map(|(value, weight)| Update {
            value,
            weight: if weight == 0 { 1 } else { weight },
        }),
        0..max_len,
    )
}

/// Header fields `(offset, width)` past the 4-byte magic: SSK1 (kind,
/// tables, buckets, seed, count), SSKM (version, strategy, domain_log2,
/// tables, buckets, seed, l1_mass, levels) and SSTR (version,
/// domain_log2, count).
const SSK1_FIELDS: &[(usize, usize)] = &[(4, 1), (5, 4), (9, 4), (13, 8), (21, 4)];
const SSKM_FIELDS: &[(usize, usize)] = &[
    (4, 2),
    (6, 1),
    (7, 1),
    (8, 4),
    (12, 4),
    (16, 8),
    (24, 8),
    (32, 2),
];
const SSTR_FIELDS: &[(usize, usize)] = &[(4, 2), (6, 2), (8, 8)];

/// Up to four header-field overwrites `(field index, value)`, with
/// values biased to the edges where decoders break.
fn arb_field_edits() -> impl Strategy<Value = Vec<(usize, u64)>> {
    let value = prop_oneof![Just(0u64), Just(1u64), Just(u64::MAX), any::<u64>()];
    prop::collection::vec((0usize..64, value), 0..5)
}

/// Up to three body-byte overwrites `(position, byte)`.
fn arb_byte_edits() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0usize..4096, any::<u8>()), 0..4)
}

/// `valid` with each `header` value written little-endian over one of
/// `fields`, and each `body` byte written somewhere after the header.
fn overwrite(
    valid: &[u8],
    fields: &[(usize, usize)],
    header: &[(usize, u64)],
    body: &[(usize, u8)],
) -> Vec<u8> {
    let mut raw = valid.to_vec();
    for &(field, value) in header {
        let (at, width) = fields[field % fields.len()];
        raw[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    }
    let header_len = fields.iter().map(|&(at, width)| at + width).max().unwrap();
    if raw.len() > header_len {
        let span = raw.len() - header_len;
        for &(at, byte) in body {
            raw[header_len + at % span] = byte;
        }
    }
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// sketch(A) + sketch(B) == sketch(A ++ B) for hash sketches.
    #[test]
    fn hash_sketch_linearity(a in arb_updates(200), b in arb_updates(200)) {
        let schema = HashSketchSchema::new(3, 16, 99);
        let mut sa = HashSketch::new(schema.clone());
        let mut sb = HashSketch::new(schema.clone());
        let mut sab = HashSketch::new(schema);
        for &u in &a { sa.update(u); sab.update(u); }
        for &u in &b { sb.update(u); sab.update(u); }
        sa.merge_from(&sb);
        prop_assert_eq!(sa.counters(), sab.counters());
    }

    /// Inserting then deleting every update leaves an all-zero sketch.
    #[test]
    fn deletes_cancel_exactly(a in arb_updates(200)) {
        let schema = HashSketchSchema::new(3, 16, 7);
        let mut sk = HashSketch::new(schema);
        for &u in &a { sk.update(u); }
        for &u in &a { sk.update(u.inverse()); }
        prop_assert!(sk.counters().iter().all(|&c| c == 0));
    }

    /// AGMS linearity plus subtract-inverse.
    #[test]
    fn agms_subtract_is_inverse_of_merge(a in arb_updates(100), b in arb_updates(100)) {
        let schema = AgmsSchema::new(2, 8, 3);
        let mut sa = AgmsSketch::new(schema.clone());
        let mut sb = AgmsSketch::new(schema);
        for &u in &a { sa.update(u); }
        for &u in &b { sb.update(u); }
        let before = sa.counters().to_vec();
        sa.merge_from(&sb);
        sa.subtract_from(&sb);
        prop_assert_eq!(sa.counters(), &before[..]);
    }

    /// The skimmed sketch equals a fresh sketch of the residual vector, and
    /// every extracted estimate exceeds the threshold in absolute value.
    #[test]
    fn skim_extracts_above_threshold_and_leaves_residual(
        a in arb_updates(300),
        threshold in 1i64..100,
    ) {
        let d = Domain::with_log2(DOMAIN_LOG2);
        let schema = HashSketchSchema::new(5, 64, 11);
        let mut sk = HashSketch::new(schema.clone());
        let mut fv = FrequencyVector::new(d);
        for &u in &a { sk.update(u); fv.update(u); }
        let dense = skim_dense_scan(&mut sk, d, threshold);
        if let Some(min) = dense.min_abs() {
            prop_assert!(min >= threshold);
        }
        let mut residual = fv.clone();
        for (v, est) in dense.iter() {
            *residual.get_mut(v) -= est;
        }
        let expect = HashSketch::from_frequencies(schema, residual.nonzero());
        prop_assert_eq!(sk.counters(), expect.counters());
    }

    /// The four sub-joins always sum to the exact join, for any threshold.
    #[test]
    fn decomposition_partitions_the_join(
        a in arb_updates(150),
        b in arb_updates(150),
        threshold in 1i64..50,
    ) {
        let d = Domain::with_log2(DOMAIN_LOG2);
        let f = FrequencyVector::from_updates(d, a);
        let g = FrequencyVector::from_updates(d, b);
        let dec = SkimDecomposition::compute(&f, &g, threshold);
        prop_assert_eq!(dec.total(), f.join(&g));
    }

    /// Trace codec round-trips arbitrary update streams.
    #[test]
    fn trace_round_trip(a in arb_updates(300)) {
        let d = Domain::with_log2(DOMAIN_LOG2);
        let buf = trace::encode(d, &a);
        let (d2, back) = trace::decode(buf).unwrap();
        prop_assert_eq!(d2, d);
        prop_assert_eq!(back, a);
    }

    /// Ratio-error axioms: symmetric, non-negative, bounded by the sanity
    /// constant, zero iff equal (for positive values).
    #[test]
    fn ratio_error_axioms(est in 0.1f64..1e9, actual in 0.1f64..1e9) {
        let e = ratio_error(est, actual);
        prop_assert!(e >= 0.0);
        prop_assert!(e <= ERROR_SANITY_BOUND);
        let sym = ratio_error(actual, est);
        prop_assert!((e - sym).abs() < 1e-9);
        if (est - actual).abs() < f64::EPSILON {
            prop_assert_eq!(e, 0.0);
        }
    }

    /// Estimation expectation: the sparse⋈sparse bucket-product estimator
    /// is exactly the inner product when every value maps alone (injective
    /// hashing regime — buckets >> domain).
    #[test]
    fn bucket_product_is_exact_when_collision_free(
        a in prop::collection::vec(0i64..10, 8),
        b in prop::collection::vec(0i64..10, 8),
    ) {
        // Domain of 8 values, 4096 buckets: collisions are possible but
        // rare; retry-free determinism comes from the fixed seed, under
        // which the 8 values land in distinct buckets (verified below).
        let schema = HashSketchSchema::new(1, 4096, 1234);
        let mut distinct = std::collections::HashSet::new();
        for v in 0..8u64 {
            distinct.insert(schema.bucket(0, v));
        }
        prop_assume!(distinct.len() == 8);
        let d = Domain::with_log2(3);
        let f = FrequencyVector::from_counts(d, a);
        let g = FrequencyVector::from_counts(d, b);
        let sf = HashSketch::from_frequencies(schema.clone(), f.nonzero());
        let sg = HashSketch::from_frequencies(schema, g.nonzero());
        prop_assert_eq!(sf.join_estimate(&sg) as i64, f.join(&g));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The trace decoder must never panic on arbitrary bytes — it returns
    /// a structured error instead.
    #[test]
    fn trace_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = trace::decode(bytes::Bytes::from(bytes));
    }

    /// Same for the sketch codec.
    #[test]
    fn sketch_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = stream_sketches::codec::decode_hash(bytes::Bytes::from(bytes.clone()));
        let _ = skimmed_sketch::decode_skimmed(bytes::Bytes::from(bytes));
    }

    /// Skimmed-sketch codec round-trips arbitrary update batches exactly.
    #[test]
    fn skimmed_codec_round_trip(a in arb_updates(200), dyadic in any::<bool>()) {
        let d = Domain::with_log2(DOMAIN_LOG2);
        let schema = if dyadic {
            skimmed_sketch::SkimmedSchema::dyadic(d, 3, 16, 5)
        } else {
            skimmed_sketch::SkimmedSchema::scanning(d, 3, 16, 5)
        };
        let mut sk = skimmed_sketch::SkimmedSketch::new(schema);
        for &u in &a {
            sk.update(u);
        }
        let back = skimmed_sketch::decode_skimmed(skimmed_sketch::encode_skimmed(&sk)).unwrap();
        prop_assert_eq!(back.level_counters(), sk.level_counters());
        prop_assert_eq!(back.l1_mass(), sk.l1_mass());
    }

    /// Windowed retraction invariant: after advancing past the window,
    /// the live sum never contains expired mass.
    #[test]
    fn windowed_mass_conservation(batches in prop::collection::vec(arb_updates(50), 1..8)) {
        let d = Domain::with_log2(DOMAIN_LOG2);
        let schema = skimmed_sketch::SkimmedSchema::scanning(d, 3, 16, 9);
        let window = 3usize;
        let mut w = skimmed_sketch::WindowedSkimmedSketch::new(schema.clone(), window);
        for batch in &batches {
            for &u in batch {
                w.update(u);
            }
            w.advance_epoch();
        }
        // Expected live = last (window-1) closed batches.
        let live_from = batches.len().saturating_sub(window - 1);
        let mut expect = skimmed_sketch::SkimmedSketch::new(schema);
        for batch in &batches[live_from..] {
            for &u in batch {
                expect.update(u);
            }
        }
        prop_assert_eq!(w.window_sketch().base().counters(), expect.base().counters());
        prop_assert_eq!(w.window_sketch().l1_mass(), expect.l1_mass());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random bytes rarely get past a 4-byte magic, so these start from a
    /// valid SSK1 encoding and overwrite header fields and body bytes.
    #[test]
    fn hash_decode_never_panics_past_the_magic(
        a in arb_updates(100),
        header in arb_field_edits(),
        body in arb_byte_edits(),
    ) {
        let sk = synopsis_of(HashSketch::new(HashSketchSchema::new(3, 16, 5)), a);
        let raw = overwrite(&stream_sketches::codec::encode_hash(&sk), SSK1_FIELDS, &header, &body);
        let _ = stream_sketches::codec::decode_hash(bytes::Bytes::from(raw));
    }

    /// Same for SSKM, scanning and dyadic.
    #[test]
    fn skimmed_decode_never_panics_past_the_magic(
        a in arb_updates(100),
        dyadic in any::<bool>(),
        header in arb_field_edits(),
        body in arb_byte_edits(),
    ) {
        let d = Domain::with_log2(DOMAIN_LOG2);
        let schema = if dyadic {
            skimmed_sketch::SkimmedSchema::dyadic(d, 3, 16, 5)
        } else {
            skimmed_sketch::SkimmedSchema::scanning(d, 3, 16, 5)
        };
        let sk = synopsis_of(skimmed_sketch::SkimmedSketch::new(schema), a);
        let raw = overwrite(&skimmed_sketch::encode_skimmed(&sk), SSKM_FIELDS, &header, &body);
        let _ = skimmed_sketch::decode_skimmed(bytes::Bytes::from(raw));
    }

    /// Same for SSTR, as a buffer and as a streaming file.
    #[test]
    fn trace_decode_never_panics_past_the_magic(
        a in arb_updates(100),
        header in arb_field_edits(),
        body in arb_byte_edits(),
    ) {
        let d = Domain::with_log2(DOMAIN_LOG2);
        let raw = overwrite(&trace::encode(d, &a), SSTR_FIELDS, &header, &body);
        let _ = trace::decode(bytes::Bytes::from(raw.clone()));
        let path = std::env::temp_dir().join(format!("ss-props-{}.trace", std::process::id()));
        std::fs::write(&path, &raw).unwrap();
        let _ = stream_model::io::read_trace_file(&path);
        std::fs::remove_file(&path).ok();
    }
}
