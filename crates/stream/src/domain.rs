//! Value domains and their dyadic decomposition.
//!
//! Streams range over an integer domain `[0, N)`. The optimized SKIMDENSE
//! procedure organizes the domain into *dyadic levels*: at level `ℓ` the
//! domain is partitioned into intervals of length `2^ℓ`, and a value `v`
//! belongs to the interval indexed by `v >> ℓ`. [`Domain`] centralizes the
//! bookkeeping (sizes per level, parent/child navigation) so the sketching
//! code never re-derives it ad hoc.

/// An integer value domain `[0, size)` with `size = 2^log2_size`.
///
/// The paper assumes (for exposition) that the domain size is a power of
/// two; we enforce it, padding workloads up when needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    log2_size: u32,
}

impl Domain {
    /// Creates a domain of `2^log2_size` values. `log2_size ≤ 63`.
    pub fn with_log2(log2_size: u32) -> Self {
        assert!(log2_size <= 63, "domain too large: 2^{log2_size}");
        Self { log2_size }
    }

    /// [`Domain::with_log2`] for untrusted input (decoder header fields):
    /// `None` above 63 instead of a panic.
    pub fn try_with_log2(log2_size: u32) -> Option<Self> {
        (log2_size <= 63).then_some(Self { log2_size })
    }

    /// Creates the smallest power-of-two domain containing `[0, min_size)`.
    pub fn covering(min_size: u64) -> Self {
        assert!(min_size > 0, "domain must be non-empty");
        let log2 = 64 - (min_size - 1).leading_zeros();
        Self::with_log2(log2.min(63))
    }

    /// Number of values in the domain.
    #[inline]
    pub fn size(&self) -> u64 {
        1u64 << self.log2_size
    }

    /// `log2` of the domain size; also the index of the topmost dyadic
    /// level that still distinguishes more than one interval... precisely:
    /// level `log2_size` has exactly one interval covering everything.
    #[inline]
    pub fn log2_size(&self) -> u32 {
        self.log2_size
    }

    /// Whether `v` is a member.
    #[inline]
    pub fn contains(&self, v: u64) -> bool {
        v < self.size()
    }

    /// Number of dyadic levels `0 ..= log2_size` (level 0 = singletons,
    /// top level = the whole domain as one interval).
    #[inline]
    pub fn levels(&self) -> u32 {
        self.log2_size + 1
    }

    /// Number of dyadic intervals at `level`.
    #[inline]
    pub fn intervals_at(&self, level: u32) -> u64 {
        debug_assert!(level <= self.log2_size);
        1u64 << (self.log2_size - level)
    }

    /// The index of the level-`level` interval containing `v`.
    #[inline]
    pub fn interval_of(&self, v: u64, level: u32) -> u64 {
        debug_assert!(self.contains(v));
        v >> level
    }

    /// The two children (at `level - 1`) of interval `idx` at `level`.
    #[inline]
    pub fn children(&self, idx: u64) -> (u64, u64) {
        (2 * idx, 2 * idx + 1)
    }

    /// The half-open value range `[lo, hi)` covered by interval `idx` at
    /// `level`.
    #[inline]
    pub fn interval_range(&self, idx: u64, level: u32) -> (u64, u64) {
        let lo = idx << level;
        (lo, lo + (1u64 << level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_rounds_up() {
        assert_eq!(Domain::covering(1).size(), 1);
        assert_eq!(Domain::covering(2).size(), 2);
        assert_eq!(Domain::covering(3).size(), 4);
        assert_eq!(Domain::covering(256).size(), 256);
        assert_eq!(Domain::covering(257).size(), 512);
    }

    #[test]
    fn membership() {
        let d = Domain::with_log2(4);
        assert!(d.contains(0));
        assert!(d.contains(15));
        assert!(!d.contains(16));
    }

    #[test]
    fn levels_and_intervals() {
        let d = Domain::with_log2(3); // 8 values
        assert_eq!(d.levels(), 4);
        assert_eq!(d.intervals_at(0), 8);
        assert_eq!(d.intervals_at(1), 4);
        assert_eq!(d.intervals_at(3), 1);
    }

    #[test]
    fn interval_navigation_is_consistent() {
        let d = Domain::with_log2(5);
        for v in 0..d.size() {
            for level in 0..d.levels() {
                let idx = d.interval_of(v, level);
                let (lo, hi) = d.interval_range(idx, level);
                assert!(lo <= v && v < hi, "v={v} level={level}");
                if level > 0 {
                    let (c0, c1) = d.children(idx);
                    let child = d.interval_of(v, level - 1);
                    assert!(child == c0 || child == c1);
                }
            }
        }
    }

    #[test]
    fn top_level_is_single_interval() {
        let d = Domain::with_log2(6);
        for v in 0..d.size() {
            assert_eq!(d.interval_of(v, 6), 0);
        }
    }
}
