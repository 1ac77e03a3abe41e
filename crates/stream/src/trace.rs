//! Binary trace codec for update streams.
//!
//! The experiment grid replays the same generated streams across many
//! sketch configurations; persisting them as compact binary traces makes
//! runs reproducible and lets the harness share one workload across
//! processes. Format (little-endian, varints and zigzag per
//! [`crate::codec`]):
//!
//! ```text
//! magic "SSTR" | version u16 | log2(domain) u16 | count u64
//! then `count` records of: value varint | zigzag(weight) varint
//! ```
//!
//! Varint + zigzag keeps unit-weight traces at ~1–3 bytes per update for
//! the domains the paper uses. The header and record codecs here are
//! shared with the streaming file form in [`crate::io`].

use crate::codec::{put_varint, unzigzag, zigzag, DecodeError, Reader};
use crate::domain::Domain;
use crate::update::Update;
use bytes::Bytes;

const MAGIC: &[u8; 4] = b"SSTR";
const VERSION: u16 = 1;
/// Header length: magic, version, `log2(domain)`, record count.
pub(crate) const HEADER_LEN: usize = 16;

/// Errors produced while decoding a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Header magic did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The header's `log2(domain)` exceeds 63.
    BadDomain(u16),
    /// Buffer ended before the declared record count was read.
    Truncated,
    /// A varint ran past its maximum length.
    MalformedVarint,
    /// Bytes followed the last declared record.
    TrailingBytes,
    /// A decoded value fell outside the declared domain.
    ValueOutOfDomain(u64),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "bad trace magic"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::BadDomain(l) => write!(f, "domain 2^{l} exceeds 2^63"),
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::MalformedVarint => write!(f, "malformed varint"),
            TraceError::TrailingBytes => write!(f, "trailing bytes after the last record"),
            TraceError::ValueOutOfDomain(v) => write!(f, "value {v} outside declared domain"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<DecodeError> for TraceError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => TraceError::Truncated,
            DecodeError::MalformedVarint => TraceError::MalformedVarint,
            DecodeError::TrailingBytes => TraceError::TrailingBytes,
        }
    }
}

/// Appends the header declaring `count` records over `domain`.
pub(crate) fn put_header(out: &mut Vec<u8>, domain: Domain, count: u64) {
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(domain.log2_size() as u16).to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
}

/// Parses a header into `(domain, declared record count)`, rejecting a
/// domain the [`Domain`] type cannot represent.
pub(crate) fn read_header(r: &mut Reader<'_>) -> Result<(Domain, u64), TraceError> {
    if r.take(MAGIC.len())? != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(TraceError::BadVersion(version));
    }
    let log2 = r.u16()?;
    let domain = Domain::try_with_log2(u32::from(log2)).ok_or(TraceError::BadDomain(log2))?;
    Ok((domain, r.u64()?))
}

/// Appends one record.
#[inline]
pub(crate) fn put_record(out: &mut Vec<u8>, u: Update) {
    put_varint(out, u.value);
    put_varint(out, zigzag(u.weight));
}

/// Reads one record, checking its value against `domain`.
#[inline]
pub(crate) fn read_record(r: &mut Reader<'_>, domain: Domain) -> Result<Update, TraceError> {
    let value = r.varint()?;
    if !domain.contains(value) {
        return Err(TraceError::ValueOutOfDomain(value));
    }
    let weight = unzigzag(r.varint()?);
    Ok(Update { value, weight })
}

/// Encodes `updates` over `domain` into a trace buffer.
pub fn encode(domain: Domain, updates: &[Update]) -> Bytes {
    let mut out = Vec::with_capacity(HEADER_LEN + updates.len() * 3);
    put_header(&mut out, domain, updates.len() as u64);
    for &u in updates {
        debug_assert!(domain.contains(u.value));
        put_record(&mut out, u);
    }
    Bytes::from(out)
}

/// Decodes a trace buffer into `(domain, updates)`.
pub fn decode(buf: Bytes) -> Result<(Domain, Vec<Update>), TraceError> {
    let mut r = Reader::new(&buf);
    let (domain, count) = read_header(&mut r)?;
    // Every record takes at least two bytes; a declared count beyond
    // that is truncation, caught before allocating.
    if count > (r.remaining() / 2) as u64 {
        return Err(TraceError::Truncated);
    }
    let mut updates = Vec::with_capacity(count as usize);
    for _ in 0..count {
        updates.push(read_record(&mut r, domain)?);
    }
    r.finish()?;
    Ok((domain, updates))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let d = Domain::with_log2(10);
        let updates: Vec<Update> = (0..500)
            .map(|i| Update {
                value: (i * 37) % 1024,
                weight: ((i as i64) % 7) - 3,
            })
            .collect();
        let buf = encode(d, &updates);
        let (d2, u2) = decode(buf).unwrap();
        assert_eq!(d2, d);
        assert_eq!(u2, updates);
    }

    #[test]
    fn empty_trace_round_trips() {
        let d = Domain::with_log2(3);
        let (d2, u2) = decode(encode(d, &[])).unwrap();
        assert_eq!(d2, d);
        assert!(u2.is_empty());
    }

    #[test]
    fn unit_inserts_are_compact() {
        let d = Domain::with_log2(8);
        let updates: Vec<Update> = (0..1000).map(|i| Update::insert(i % 256)).collect();
        let buf = encode(d, &updates);
        // Header 16 bytes + at most 3 bytes per update (2-byte value max).
        assert!(buf.len() <= 16 + 3 * updates.len());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(Domain::with_log2(2), &[]).to_vec();
        raw[0] = b'X';
        assert_eq!(decode(Bytes::from(raw)), Err(TraceError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut raw = encode(Domain::with_log2(2), &[]).to_vec();
        raw[4] = 99;
        assert_eq!(decode(Bytes::from(raw)), Err(TraceError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation() {
        let raw = encode(Domain::with_log2(2), &[Update::insert(1)]).to_vec();
        let cut = Bytes::from(raw[..raw.len() - 1].to_vec());
        assert_eq!(decode(cut), Err(TraceError::Truncated));
    }

    #[test]
    fn rejects_out_of_domain_values() {
        // Hand-craft a trace declaring domain 2^1 but carrying value 5.
        let mut buf = Vec::new();
        put_header(&mut buf, Domain::with_log2(1), 1);
        put_varint(&mut buf, 5);
        put_varint(&mut buf, zigzag(1));
        assert_eq!(
            decode(Bytes::from(buf)),
            Err(TraceError::ValueOutOfDomain(5))
        );
    }

    #[test]
    fn decode_rejects_a_domain_above_63() {
        let mut raw = encode(Domain::with_log2(2), &[]).to_vec();
        raw[6..8].copy_from_slice(&64u16.to_le_bytes());
        assert_eq!(decode(Bytes::from(raw)), Err(TraceError::BadDomain(64)));
    }

    #[test]
    fn rejects_counts_beyond_the_body_and_trailing_bytes() {
        let mut raw = encode(Domain::with_log2(2), &[Update::insert(1)]).to_vec();
        raw[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(decode(Bytes::from(raw)), Err(TraceError::Truncated));
        let mut raw = encode(Domain::with_log2(2), &[Update::insert(1)]).to_vec();
        raw.push(0);
        assert_eq!(decode(Bytes::from(raw)), Err(TraceError::TrailingBytes));
    }
}
