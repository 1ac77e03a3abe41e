//! Wire codec for skimmed sketches.
//!
//! Extends the hash-sketch codec of `stream-sketches` to the full
//! [`SkimmedSketch`]: strategy, domain, shape, seed, tracked L1 mass, and
//! the counters of every level (one level when scanning, `log2(N)+1` when
//! dyadic). A decoded sketch is bit-identical to the original — same
//! estimates, mergeable with compatible local sketches — so sites can ship
//! complete skimmed synopses, not just their level-0 projections.
//!
//! Format (little-endian; the per-level counter block is
//! `stream_model::codec`'s, the same one SSK1 uses):
//!
//! ```text
//! magic "SSKM" | version u16 | strategy u8 | domain_log2 u8
//! tables u32 | buckets u32 | seed u64 | l1_mass u64 | levels u16
//! per level: count u32, then count zigzag-varint counters
//! ```
//!
//! Decoding errors are [`stream_sketches::CodecError`], shared with SSK1.

use crate::dyadic::level_buckets;
use crate::estimator::{ExtractionStrategy, SkimmedSchema, SkimmedSketch};
use bytes::Bytes;
use stream_model::codec::{put_counters, Reader};
use stream_model::Domain;
use stream_sketches::codec::{put_shape, read_shape};
use stream_sketches::CodecError;

const MAGIC: &[u8; 4] = b"SSKM";
const VERSION: u16 = 1;

/// Encodes a skimmed sketch into a self-describing buffer.
pub fn encode_skimmed(sk: &SkimmedSketch) -> Bytes {
    let schema = sk.schema();
    let levels = sk.level_counters();
    let mut out = Vec::with_capacity(34 + levels.iter().map(|l| 4 + l.len() * 2).sum::<usize>());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(match schema.strategy() {
        ExtractionStrategy::NaiveScan => 0,
        ExtractionStrategy::Dyadic => 1,
    });
    // `Domain` caps `log2_size` at 63, hence at most 64 levels: neither
    // narrowing saturates.
    out.push(u8::try_from(schema.domain().log2_size()).unwrap_or(u8::MAX));
    put_shape(&mut out, schema.base());
    out.extend_from_slice(&schema.seed().to_le_bytes());
    out.extend_from_slice(&sk.l1_mass().to_le_bytes());
    let level_count = u16::try_from(levels.len()).unwrap_or(u16::MAX);
    out.extend_from_slice(&level_count.to_le_bytes());
    for level in levels {
        put_counters(&mut out, level);
    }
    Bytes::from(out)
}

/// Decodes a skimmed sketch, reconstructing the schema from the header.
///
/// Every header field is range-checked, and the counter total the header
/// implies is bounded by the bytes that follow, before any schema or
/// counter array is built: no input panics, and none allocates more
/// counters than it has bytes.
pub fn decode_skimmed(buf: Bytes) -> Result<SkimmedSketch, CodecError> {
    let mut r = Reader::new(&buf);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let strategy = match r.u8()? {
        0 => ExtractionStrategy::NaiveScan,
        1 => ExtractionStrategy::Dyadic,
        s => return Err(CodecError::BadStrategy(s)),
    };
    let domain =
        Domain::try_with_log2(u32::from(r.u8()?)).ok_or(CodecError::OutOfRange("domain_log2"))?;
    let (tables, buckets) = read_shape(&mut r)?;
    let seed = r.u64()?;
    let l1_mass = r.u64()?;
    let level_count = usize::from(r.u16()?);

    // Buckets per table at each level, as the schema will build them.
    let shape: Vec<usize> = match strategy {
        ExtractionStrategy::NaiveScan => vec![buckets],
        ExtractionStrategy::Dyadic => (0..domain.levels())
            .map(|level| level_buckets(domain, buckets, level))
            .collect(),
    };
    if shape.len() != level_count {
        return Err(CodecError::ShapeMismatch);
    }
    shape
        .iter()
        .try_fold(0usize, |total, &b| {
            total.checked_add(b.checked_mul(tables)?)
        })
        .filter(|&total| total <= r.remaining())
        .ok_or(CodecError::Oversize)?;
    let mut levels = Vec::with_capacity(level_count);
    for b in shape {
        let counters = r.counters()?;
        if counters.len() != b * tables {
            return Err(CodecError::ShapeMismatch);
        }
        levels.push(counters);
    }
    r.finish()?;

    let schema = match strategy {
        ExtractionStrategy::NaiveScan => SkimmedSchema::scanning(domain, tables, buckets, seed),
        ExtractionStrategy::Dyadic => SkimmedSchema::dyadic(domain, tables, buckets, seed),
    };
    let mut sk = SkimmedSketch::new(schema);
    sk.restore(levels, l1_mass);
    Ok(sk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{estimate_join, EstimatorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use stream_model::gen::ZipfGenerator;
    use stream_model::update::StreamSink;
    use stream_model::Domain;
    use stream_sketches::LinearSynopsis;

    fn built(schema: &Arc<SkimmedSchema>, seed: u64, n: usize) -> SkimmedSketch {
        let mut sk = SkimmedSketch::new(schema.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        for u in ZipfGenerator::new(schema.domain(), 1.1, 0).generate(&mut rng, n) {
            sk.update(u);
        }
        sk
    }

    #[test]
    fn scanning_round_trip_is_bit_exact() {
        let schema = SkimmedSchema::scanning(Domain::with_log2(10), 5, 128, 7);
        let sk = built(&schema, 1, 10_000);
        let back = decode_skimmed(encode_skimmed(&sk)).unwrap();
        assert_eq!(back.base().counters(), sk.base().counters());
        assert_eq!(back.l1_mass(), sk.l1_mass());
        assert!(back.compatible(&sk));
    }

    #[test]
    fn dyadic_round_trip_restores_every_level() {
        let schema = SkimmedSchema::dyadic(Domain::with_log2(8), 3, 64, 9);
        let sk = built(&schema, 2, 5_000);
        let back = decode_skimmed(encode_skimmed(&sk)).unwrap();
        assert_eq!(back.level_counters(), sk.level_counters());
        // Skimming behaves identically post-decode.
        let mut a = sk.clone();
        let mut b = back.clone();
        assert_eq!(a.skim(100, 1024), b.skim(100, 1024));
    }

    #[test]
    fn decoded_sketches_estimate_joins_identically() {
        let schema = SkimmedSchema::scanning(Domain::with_log2(10), 5, 128, 11);
        let sf = built(&schema, 3, 20_000);
        let sg = built(&schema, 4, 20_000);
        let cfg = EstimatorConfig::default();
        let before = estimate_join(&sf, &sg, &cfg);
        let sf2 = decode_skimmed(encode_skimmed(&sf)).unwrap();
        let sg2 = decode_skimmed(encode_skimmed(&sg)).unwrap();
        let after = estimate_join(&sf2, &sg2, &cfg);
        assert_eq!(before, after);
        // And across the wire boundary: decoded joins with original.
        let mixed = estimate_join(&sf2, &sg, &cfg);
        assert_eq!(before, mixed);
    }

    #[test]
    fn rejects_corruption() {
        let schema = SkimmedSchema::scanning(Domain::with_log2(6), 2, 16, 1);
        let sk = SkimmedSketch::new(schema);
        let good = encode_skimmed(&sk);
        let mut bad = good.to_vec();
        bad[0] = b'Z';
        assert_eq!(
            decode_skimmed(Bytes::from(bad)).unwrap_err(),
            CodecError::BadMagic
        );
        let cut = Bytes::from(good[..good.len() - 1].to_vec());
        assert_eq!(decode_skimmed(cut).unwrap_err(), CodecError::Truncated);
        let mut badstrat = good.to_vec();
        badstrat[6] = 9;
        assert_eq!(
            decode_skimmed(Bytes::from(badstrat)).unwrap_err(),
            CodecError::BadStrategy(9)
        );
        let mut trailing = good.to_vec();
        trailing.push(0);
        assert_eq!(
            decode_skimmed(Bytes::from(trailing)).unwrap_err(),
            CodecError::TrailingBytes
        );
    }

    /// A valid encoding of an empty sketch with header bytes `at..`
    /// overwritten by `with`.
    fn crafted(schema: Arc<SkimmedSchema>, at: usize, with: &[u8]) -> Bytes {
        let mut raw = encode_skimmed(&SkimmedSketch::new(schema)).to_vec();
        raw[at..at + with.len()].copy_from_slice(with);
        Bytes::from(raw)
    }

    #[test]
    fn decode_skimmed_rejects_a_domain_above_63() {
        for schema in [
            SkimmedSchema::scanning(Domain::with_log2(6), 2, 16, 1),
            SkimmedSchema::dyadic(Domain::with_log2(6), 2, 16, 1),
        ] {
            assert_eq!(
                decode_skimmed(crafted(schema, 7, &[64])).unwrap_err(),
                CodecError::OutOfRange("domain_log2")
            );
        }
    }

    #[test]
    fn decode_skimmed_rejects_zero_tables_and_buckets() {
        let schema = SkimmedSchema::scanning(Domain::with_log2(6), 2, 16, 1);
        assert_eq!(
            decode_skimmed(crafted(schema.clone(), 8, &0u32.to_le_bytes())).unwrap_err(),
            CodecError::OutOfRange("tables")
        );
        assert_eq!(
            decode_skimmed(crafted(schema, 12, &0u32.to_le_bytes())).unwrap_err(),
            CodecError::OutOfRange("buckets")
        );
    }

    #[test]
    fn decode_skimmed_rejects_counter_totals_beyond_the_body() {
        // 64 × 2^16 counters, declared by the header and by the level's
        // count, over a ~60-byte body: rejected before the schema (and
        // its 32 MiB of counters) is built.
        let schema = SkimmedSchema::scanning(Domain::with_log2(6), 2, 16, 1);
        let mut raw = crafted(schema, 8, &64u32.to_le_bytes()).to_vec();
        raw[12..16].copy_from_slice(&(1u32 << 16).to_le_bytes());
        raw[34..38].copy_from_slice(&(64u32 << 16).to_le_bytes());
        assert_eq!(
            decode_skimmed(Bytes::from(raw)).unwrap_err(),
            CodecError::Oversize
        );
        // The dyadic total over 64 levels of u32::MAX × u32::MAX
        // overflows the checked multiply.
        let schema = SkimmedSchema::dyadic(Domain::with_log2(63), 1, 2, 1);
        let huge = [0xFF; 8];
        assert_eq!(
            decode_skimmed(crafted(schema, 8, &huge)).unwrap_err(),
            CodecError::Oversize
        );
    }
}
