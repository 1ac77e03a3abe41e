//! The one binary codec under every format the workspace writes.
//!
//! Wire frames (`stream-wire`), SSK1 hash sketches
//! (`stream-sketches::codec`), SSKM skimmed sketches
//! (`skimmed-sketch::codec`) and SSTR traces ([`crate::trace`],
//! [`crate::io`]) share one set of conventions, implemented only here:
//!
//! * fixed-width integers are little-endian;
//! * counts and values are LEB128 varints (7 bits per byte, low group
//!   first, high bit = "more follows"), at most [`MAX_VARINT_LEN`] bytes;
//! * signed quantities are [`zigzag`]-mapped first, so small magnitudes
//!   of either sign stay one or two bytes;
//! * a *counter block* is `count u32-le` followed by `count` zigzag
//!   varints ([`put_counters`] / [`Reader::counters`]).
//!
//! Decoding goes through [`Reader`], a cursor over a byte slice whose
//! every accessor returns a [`DecodeError`] instead of panicking. A
//! format decoder built on it is panic-free on any input as long as it
//! range-checks its own header fields before handing them to a
//! constructor.

/// Longest valid varint: 64 bits in 7-bit groups.
pub const MAX_VARINT_LEN: usize = 10;

/// Why a [`Reader`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value did.
    Truncated,
    /// A varint ran past [`MAX_VARINT_LEN`] bytes, or its 10th byte
    /// carried bits above bit 63 (which would let two byte strings
    /// decode to the same `u64`).
    MalformedVarint,
    /// [`Reader::finish`] found unread input.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::MalformedVarint => write!(f, "malformed varint"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after the last field"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends `x` as a varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let [low, ..] = x.to_le_bytes();
        let group = low & 0x7F;
        x >>= 7;
        if x == 0 {
            out.push(group);
            return;
        }
        out.push(group | 0x80);
    }
}

/// Maps a signed value onto the unsigned range so that small
/// magnitudes of either sign get small codes: `0, -1, 1, -2, …` →
/// `0, 1, 2, 3, …`. A bijection on all of `i64`.
#[inline]
pub fn zigzag(w: i64) -> u64 {
    u64::from_ne_bytes(((w << 1) ^ (w >> 63)).to_ne_bytes())
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(z: u64) -> i64 {
    i64::from_ne_bytes(((z >> 1) ^ (z & 1).wrapping_neg()).to_ne_bytes())
}

/// `n` as a `u32` length field, saturating: the decoder's shape check
/// rejects an unrepresentable length instead of the encoder panicking.
#[inline]
pub fn saturating_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Appends a counter block: `count u32-le`, then every counter as a
/// zigzag varint.
pub fn put_counters(out: &mut Vec<u8>, counters: &[i64]) {
    out.extend_from_slice(&saturating_u32(counters.len()).to_le_bytes());
    out.reserve(counters.len());
    for &c in counters {
        put_varint(out, zigzag(c));
    }
}

/// Sequential reader over a byte slice; every accessor fails with a
/// [`DecodeError`] instead of panicking.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// `take` as a fixed array; the (dead) length-mismatch arm stays a
    /// typed error rather than a panic.
    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?.try_into().map_err(|_| DecodeError::Truncated)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let [b] = self.take_array::<1>()?;
        Ok(b)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// An `f64` stored as its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A varint (see [`put_varint`]).
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut x = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            // The 10th group holds bit 63 only; anything above it would
            // be silently shifted out.
            if shift == 63 && byte > 1 {
                return Err(DecodeError::MalformedVarint);
            }
            x |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(x);
            }
        }
        Err(DecodeError::MalformedVarint)
    }

    /// A counter block (see [`put_counters`]). Every counter takes at
    /// least one byte, so a declared count beyond the bytes left is
    /// truncation, caught before allocating.
    pub fn counters(&mut self) -> Result<Vec<i64>, DecodeError> {
        let count = self.u32()? as usize;
        if count > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(unzigzag(self.varint()?));
        }
        Ok(out)
    }

    /// Ends the read: [`DecodeError::TrailingBytes`] if input is left.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(x: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, x);
        out
    }

    #[test]
    fn varints_round_trip_at_every_length() {
        let mut cases = vec![0u64, 1, 0x7F, 0x80, u64::MAX, u64::MAX - 1];
        cases.extend((1..64).map(|b| 1u64 << b));
        cases.extend((1..64).map(|b| (1u64 << b) - 1));
        for x in cases {
            let bytes = encoded(x);
            assert!(bytes.len() <= MAX_VARINT_LEN, "{x}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint(), Ok(x));
            assert_eq!(r.finish(), Ok(()));
        }
        assert_eq!(encoded(u64::MAX).len(), MAX_VARINT_LEN);
    }

    #[test]
    fn zigzag_is_a_bijection_on_the_edges() {
        for w in [0i64, 1, -1, 2, -2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(w)), w, "w={w}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
    }

    #[test]
    fn overlong_varints_are_malformed() {
        // u64::MAX is nine 0xFF groups and a final 0x01; a 10th byte
        // above 0x01 used to decode to the same value, dropping bits.
        let mut max = encoded(u64::MAX);
        assert_eq!(max.last(), Some(&0x01));
        for last in [0x02u8, 0x03, 0x7F, 0x81] {
            if let Some(b) = max.last_mut() {
                *b = last;
            }
            let mut r = Reader::new(&max);
            assert_eq!(r.varint(), Err(DecodeError::MalformedVarint), "{last:#x}");
        }
        // Eleven continuation bytes never terminate.
        let mut r = Reader::new(&[0x80; 11]);
        assert_eq!(r.varint(), Err(DecodeError::MalformedVarint));
        // Running out mid-varint is truncation, not malformation.
        let mut r = Reader::new(&[0x80, 0x80]);
        assert_eq!(r.varint(), Err(DecodeError::Truncated));
    }

    #[test]
    fn counter_blocks_round_trip_and_bound_their_count() {
        let counters = [0i64, -1, 1, i64::MAX, i64::MIN, 1 << 40];
        let mut out = Vec::new();
        put_counters(&mut out, &counters);
        let mut r = Reader::new(&out);
        assert_eq!(r.counters().as_deref(), Ok(&counters[..]));
        assert_eq!(r.finish(), Ok(()));
        // A count larger than the remaining bytes fails before allocating.
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0x00]);
        assert_eq!(r.counters(), Err(DecodeError::Truncated));
    }

    #[test]
    fn fixed_width_reads_fail_typed_at_the_end() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(r.u32(), Err(DecodeError::Truncated));
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.u8(), Err(DecodeError::Truncated));
        assert_eq!(r.take(1), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&[0]).finish(), Err(DecodeError::TrailingBytes));
    }
}
