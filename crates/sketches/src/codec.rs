//! Wire codec for sketches.
//!
//! Linear sketches are the natural unit of exchange in distributed
//! monitoring (each site sketches its local substream; a coordinator merges
//! by addition — exactly the deployment the paper's NOC scenario implies).
//! This module gives the hash sketch a compact, versioned binary encoding:
//! shape parameters + root seed + varint-compressed counters. The receiver
//! reconstructs the hash families from the seed, so no function tables
//! travel on the wire.
//!
//! Format (little-endian; the counter block is `stream_model::codec`'s):
//!
//! ```text
//! magic "SSK1" | kind u8 (= 2) | tables u32 | buckets u32 | seed u64
//! counter block: count u32, then `count` zigzag-varint counters
//! ```
//!
//! The kind byte once also tagged AGMS (1) and Count-Min (3) images;
//! those tags now decode to [`CodecError::BadKind`].
//!
//! [`CodecError`] is also the error type of the skimmed-sketch codec
//! (SSKM, in `skimmed-sketch`), which builds on the same counter block.

use crate::hash_sketch::{HashSketch, HashSketchSchema};
use bytes::Bytes;
use stream_model::codec::{put_counters, saturating_u32, DecodeError, Reader};

const MAGIC: &[u8; 4] = b"SSK1";
/// The hash-sketch kind tag.
const KIND_HASH: u8 = 2;

/// Sketch decoding errors (SSK1 and SSKM).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Header magic mismatch.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown or retired sketch kind tag.
    BadKind(u8),
    /// Unknown extraction-strategy tag.
    BadStrategy(u8),
    /// A header field is outside its legal range: the named field is a
    /// zero `tables`/`buckets` count or a `domain_log2` above 63.
    OutOfRange(&'static str),
    /// The header declares more counters than the buffer has bytes left
    /// (every counter takes at least one), or so many that the count
    /// overflows; rejected before anything is allocated.
    Oversize,
    /// Buffer ended early or a varint was malformed.
    Truncated,
    /// A counter count does not match the shape the header declares.
    ShapeMismatch,
    /// Bytes followed the last counter block.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad sketch magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported sketch version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown sketch kind {k}"),
            CodecError::BadStrategy(s) => write!(f, "unknown strategy tag {s}"),
            CodecError::OutOfRange(field) => write!(f, "sketch header field {field} out of range"),
            CodecError::Oversize => write!(f, "sketch header declares more counters than it holds"),
            CodecError::Truncated => write!(f, "sketch buffer truncated"),
            CodecError::ShapeMismatch => write!(f, "counter count does not match shape"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after the sketch"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated | DecodeError::MalformedVarint => CodecError::Truncated,
            DecodeError::TrailingBytes => CodecError::TrailingBytes,
        }
    }
}

/// Reads a `tables u32 | buckets u32` shape, rejecting zero counts.
pub fn read_shape(r: &mut Reader<'_>) -> Result<(usize, usize), CodecError> {
    let tables = r.u32()? as usize;
    let buckets = r.u32()? as usize;
    if tables == 0 {
        return Err(CodecError::OutOfRange("tables"));
    }
    if buckets == 0 {
        return Err(CodecError::OutOfRange("buckets"));
    }
    Ok((tables, buckets))
}

/// Appends a `tables u32 | buckets u32` shape.
pub fn put_shape(out: &mut Vec<u8>, schema: &HashSketchSchema) {
    out.extend_from_slice(&saturating_u32(schema.tables()).to_le_bytes());
    out.extend_from_slice(&saturating_u32(schema.buckets()).to_le_bytes());
}

/// Encodes a hash sketch (shape + seed + counters) into a buffer.
pub fn encode_hash(sk: &HashSketch) -> Bytes {
    let schema = sk.schema();
    let mut out = Vec::with_capacity(25 + sk.counters().len() * 2);
    out.extend_from_slice(MAGIC);
    out.push(KIND_HASH);
    put_shape(&mut out, schema);
    out.extend_from_slice(&schema.seed().to_le_bytes());
    put_counters(&mut out, sk.counters());
    Bytes::from(out)
}

/// Decodes a hash sketch produced by [`encode_hash`]. Header fields are
/// range-checked before the schema is built, so no input panics or
/// allocates more than its own length in counters.
pub fn decode_hash(buf: Bytes) -> Result<HashSketch, CodecError> {
    let mut r = Reader::new(&buf);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let kind = r.u8()?;
    if kind != KIND_HASH {
        return Err(CodecError::BadKind(kind));
    }
    let (tables, buckets) = read_shape(&mut r)?;
    let seed = r.u64()?;
    let words = tables
        .checked_mul(buckets)
        .filter(|&w| w <= r.remaining())
        .ok_or(CodecError::Oversize)?;
    let counters = r.counters()?;
    if counters.len() != words {
        return Err(CodecError::ShapeMismatch);
    }
    r.finish()?;
    let mut sk = HashSketch::new(HashSketchSchema::new(tables, buckets, seed));
    sk.overwrite_counters(&counters);
    Ok(sk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{synopsis_of, LinearSynopsis};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use stream_model::update::Update;

    fn random_updates(n: usize, seed: u64) -> Vec<Update> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Update {
                value: rng.gen_range(0..4096),
                weight: rng.gen_range(-5i64..=5).max(1),
            })
            .collect()
    }

    fn sketch_of(schema: &Arc<HashSketchSchema>, updates: &[Update]) -> HashSketch {
        synopsis_of(HashSketch::new(schema.clone()), updates.iter().copied())
    }

    #[test]
    fn hash_round_trip_bit_exact() {
        let schema = HashSketchSchema::new(7, 64, 99);
        let sk = sketch_of(&schema, &random_updates(3000, 3));
        let back = decode_hash(encode_hash(&sk)).unwrap();
        assert_eq!(back.counters(), sk.counters());
        assert_eq!(back.point_estimate(17), sk.point_estimate(17));
    }

    #[test]
    fn decoded_sketch_merges_with_local_one() {
        // The distributed pattern: remote site ships its sketch, the
        // coordinator merges into its own.
        let schema = HashSketchSchema::new(3, 32, 11);
        let ul = random_updates(500, 5);
        let ur = random_updates(500, 6);
        let mut local = sketch_of(&schema, &ul);
        let remote = sketch_of(&schema, &ur);
        let shipped = decode_hash(encode_hash(&remote)).unwrap();
        local.merge_from(&shipped);
        let all = sketch_of(&schema, &[ul, ur].concat());
        assert_eq!(local.counters(), all.counters());
    }

    #[test]
    fn rejects_corruption() {
        let schema = HashSketchSchema::new(2, 8, 1);
        let sk = HashSketch::new(schema);
        let good = encode_hash(&sk);

        let mut bad_magic = good.to_vec();
        bad_magic[0] = b'X';
        assert_eq!(
            decode_hash(Bytes::from(bad_magic)).unwrap_err(),
            CodecError::BadMagic
        );

        let mut bad_kind = good.to_vec();
        bad_kind[4] = 200;
        assert_eq!(
            decode_hash(Bytes::from(bad_kind)).unwrap_err(),
            CodecError::BadKind(200)
        );

        let truncated = Bytes::from(good[..good.len() - 1].to_vec());
        assert_eq!(decode_hash(truncated).unwrap_err(), CodecError::Truncated);

        let mut trailing = good.to_vec();
        trailing.push(0);
        assert_eq!(
            decode_hash(Bytes::from(trailing)).unwrap_err(),
            CodecError::TrailingBytes
        );
    }

    #[test]
    fn retired_agms_and_countmin_kinds_are_bad_kinds() {
        let good = encode_hash(&HashSketch::new(HashSketchSchema::new(2, 4, 1)));
        for kind in [1u8, 3] {
            let mut raw = good.to_vec();
            raw[4] = kind;
            assert_eq!(
                decode_hash(Bytes::from(raw)).unwrap_err(),
                CodecError::BadKind(kind)
            );
        }
    }

    #[test]
    fn decode_hash_rejects_zero_tables() {
        // A self-consistent header: 0 tables × 4 buckets = 0 counters.
        let mut raw = encode_hash(&HashSketch::new(HashSketchSchema::new(2, 4, 1))).to_vec();
        raw[5..9].copy_from_slice(&0u32.to_le_bytes());
        raw[21..25].copy_from_slice(&0u32.to_le_bytes());
        raw.truncate(25);
        assert_eq!(
            decode_hash(Bytes::from(raw)).unwrap_err(),
            CodecError::OutOfRange("tables")
        );
    }

    #[test]
    fn decode_hash_rejects_counts_beyond_the_body() {
        let mut raw = encode_hash(&HashSketch::new(HashSketchSchema::new(2, 4, 1))).to_vec();
        raw[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        raw[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_hash(Bytes::from(raw)).unwrap_err(),
            CodecError::Oversize
        );
    }

    #[test]
    fn zero_counters_compress_to_one_byte_each() {
        let schema = HashSketchSchema::new(4, 256, 1);
        let sk = HashSketch::new(schema);
        let buf = encode_hash(&sk);
        assert!(buf.len() <= 25 + 1024);
    }
}
