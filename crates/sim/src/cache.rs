//! Set-associative, sectored cache model.
//!
//! NVIDIA caches are *sectored*: the tag covers a 128-byte line, but fills
//! happen at 32-byte sector granularity, so a miss on one sector of a
//! present line does not evict anything (§2.1 of the paper; this is why the
//! access-amplification ratio can reach `line/elem = 32×` for scattered
//! 4-byte reads).
//!
//! The implementation is flat arrays indexed by `(set, way)` — no hashing,
//! no allocation on the probe path (guide: keep hot paths allocation-free).

/// Result of probing one sector in a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present and sector already filled.
    Hit,
    /// Line present but the sector had to be filled from the level below.
    SectorMiss,
    /// Line absent; a way was (re)allocated for it.
    LineMiss,
}

impl Probe {
    /// True for both kinds of miss.
    #[must_use]
    pub fn is_miss(self) -> bool {
        !matches!(self, Probe::Hit)
    }
}

const INVALID_TAG: u64 = u64::MAX;

/// A sectored set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct SectorCache {
    sets: usize,
    /// `sets - 1` when the set count is a power of two, else `None` (the
    /// default device's 3072-set L2 indexes with `%`).
    set_mask: Option<u64>,
    ways: usize,
    /// `log2(sectors_per_line)`: a sector id splits into line tag and
    /// in-line offset with a shift and a mask.
    line_shift: u32,
    /// Line tag per (set, way); `INVALID_TAG` marks an empty way.
    tags: Vec<u64>,
    /// Bitmask of valid sectors per (set, way).
    sector_bits: Vec<u32>,
    /// LRU stamp per (set, way).
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    sector_misses: u64,
    line_misses: u64,
}

impl SectorCache {
    /// Build a cache with `lines` total lines, `ways` associativity and
    /// `sectors_per_line` sectors per line.
    ///
    /// # Panics
    /// Panics if `ways == 0`, or if `sectors_per_line` is not a power of
    /// two in `1..=32`.
    #[must_use]
    pub fn new(lines: usize, ways: usize, sectors_per_line: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            (1..=32).contains(&sectors_per_line),
            "sectors per line must be in 1..=32"
        );
        assert!(
            sectors_per_line.is_power_of_two(),
            "sectors per line must be a power of two"
        );
        let sets = (lines / ways).max(1);
        let slots = sets * ways;
        Self {
            sets,
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            ways,
            line_shift: sectors_per_line.trailing_zeros(),
            tags: vec![INVALID_TAG; slots],
            sector_bits: vec![0; slots],
            stamps: vec![0; slots],
            clock: 0,
            hits: 0,
            sector_misses: 0,
            line_misses: 0,
        }
    }

    /// Probe (and fill) the cache for the sector with global index
    /// `sector_id` (= address / sector_bytes).
    pub fn access(&mut self, sector_id: u64) -> Probe {
        self.clock += 1;
        let line_tag = sector_id >> self.line_shift;
        let sector_in_line = (sector_id & ((1 << self.line_shift) - 1)) as u32;
        let sector_mask = 1u32 << sector_in_line;
        let set = match self.set_mask {
            Some(mask) => line_tag & mask,
            None => line_tag % self.sets as u64,
        } as usize;
        let base = set * self.ways;

        // Probe all ways of the set.
        let mut lru_slot = base;
        let mut lru_stamp = u64::MAX;
        for w in 0..self.ways {
            let slot = base + w;
            if self.tags[slot] == line_tag {
                self.stamps[slot] = self.clock;
                return if self.sector_bits[slot] & sector_mask != 0 {
                    self.hits += 1;
                    Probe::Hit
                } else {
                    self.sector_bits[slot] |= sector_mask;
                    self.sector_misses += 1;
                    Probe::SectorMiss
                };
            }
            if self.stamps[slot] < lru_stamp {
                lru_stamp = self.stamps[slot];
                lru_slot = slot;
            }
        }

        // Line miss: evict LRU way of the set.
        self.tags[lru_slot] = line_tag;
        self.sector_bits[lru_slot] = sector_mask;
        self.stamps[lru_slot] = self.clock;
        self.line_misses += 1;
        Probe::LineMiss
    }

    /// Probe a whole batch of sectors in order and return `(hits, misses)`
    /// (both miss flavours folded together). Equivalent to calling
    /// [`Self::access`] per sector.
    pub fn access_batch(&mut self, sector_ids: &[u64]) -> (u64, u64) {
        let mut hits = 0u64;
        for &s in sector_ids {
            if self.access(s) == Probe::Hit {
                hits += 1;
            }
        }
        (hits, sector_ids.len() as u64 - hits)
    }

    /// Invalidate everything (e.g. between independent runs).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.sector_bits.fill(0);
        self.stamps.fill(0);
    }

    /// Reset hit/miss statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.sector_misses = 0;
        self.line_misses = 0;
    }

    /// (hits, sector misses, line misses) since the last stats reset.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.sector_misses, self.line_misses)
    }

    /// Hit rate in `[0, 1]`; 0 when no accesses happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.sector_misses + self.line_misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(lines: usize, ways: usize) -> SectorCache {
        SectorCache::new(lines, ways, 4)
    }

    #[test]
    fn first_access_is_line_miss_second_is_hit() {
        let mut c = cache(16, 4);
        assert_eq!(c.access(100), Probe::LineMiss);
        assert_eq!(c.access(100), Probe::Hit);
    }

    #[test]
    fn sibling_sector_is_sector_miss_not_line_miss() {
        let mut c = cache(16, 4);
        // sectors 0..4 share line 0
        assert_eq!(c.access(0), Probe::LineMiss);
        assert_eq!(c.access(1), Probe::SectorMiss);
        assert_eq!(c.access(2), Probe::SectorMiss);
        assert_eq!(c.access(1), Probe::Hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 1 set, 2 ways: lines map to the same set.
        let mut c = SectorCache::new(2, 2, 4);
        assert_eq!(c.sets(), 1);
        c.access(0); // line 0
        c.access(4); // line 1
        c.access(0); // touch line 0 -> line 1 is LRU
        c.access(8); // line 2 evicts line 1
        assert_eq!(c.access(0), Probe::Hit); // line 0 still present
        assert_eq!(c.access(4), Probe::LineMiss); // line 1 was evicted
    }

    #[test]
    fn conflict_misses_in_same_set() {
        // 4 sets, 1 way each.
        let mut c = SectorCache::new(4, 1, 4);
        // line tags 0 and 4 map to set 0 with 4 sets.
        assert_eq!(c.access(0), Probe::LineMiss); // line 0
        assert_eq!(c.access(16), Probe::LineMiss); // line 4, same set, evicts
        assert_eq!(c.access(0), Probe::LineMiss); // line 0 again: conflict miss
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = cache(16, 4);
        c.access(7);
        c.flush();
        assert_eq!(c.access(7), Probe::LineMiss);
    }

    #[test]
    fn stats_and_hit_rate() {
        let mut c = cache(16, 4);
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        c.access(0);
        let (h, s, l) = c.stats();
        assert_eq!((h, s, l), (2, 0, 1));
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats(), (0, 0, 0));
        // contents survive a stats reset
        assert_eq!(c.access(0), Probe::Hit);
    }

    #[test]
    fn access_batch_matches_sequential_probes() {
        let stream: Vec<u64> = (0..200u64).map(|i| (i * 37) % 64).collect();
        let mut a = cache(16, 4);
        let mut b = cache(16, 4);
        let mut hits = 0u64;
        for &s in &stream {
            if a.access(s) == Probe::Hit {
                hits += 1;
            }
        }
        let (bh, bm) = b.access_batch(&stream);
        assert_eq!((bh, bm), (hits, stream.len() as u64 - hits));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn probe_is_miss_helper() {
        assert!(!Probe::Hit.is_miss());
        assert!(Probe::SectorMiss.is_miss());
        assert!(Probe::LineMiss.is_miss());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = SectorCache::new(4, 0, 4);
    }

    #[test]
    #[should_panic(expected = "sectors per line must be a power of two")]
    fn non_power_of_two_sectors_per_line_panics() {
        let _ = SectorCache::new(12, 4, 3);
    }

    #[test]
    fn non_power_of_two_set_count_indexes_by_modulo() {
        // 6 sets, 1 way: lines 1 and 7 share set 1, line 4 sits in set 4
        let mut c = SectorCache::new(6, 1, 4);
        assert_eq!(c.sets(), 6);
        assert_eq!(c.access(4), Probe::LineMiss); // line 1
        assert_eq!(c.access(16), Probe::LineMiss); // line 4
        assert_eq!(c.access(28), Probe::LineMiss); // line 7 evicts line 1
        assert_eq!(c.access(16), Probe::Hit);
        assert_eq!(c.access(4), Probe::LineMiss);
    }

    #[test]
    fn distinct_lines_fill_distinct_sets() {
        let mut c = SectorCache::new(8, 2, 4);
        // 4 sets; lines 0..4 map to distinct sets, so no evictions.
        for line in 0..4u64 {
            assert_eq!(c.access(line * 4), Probe::LineMiss);
        }
        for line in 0..4u64 {
            assert_eq!(c.access(line * 4), Probe::Hit);
        }
    }
}
