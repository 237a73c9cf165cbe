//! Set-associative cache model for the baseline system's 1 MiB LLC.
//!
//! Lives in `nmpic-mem` because two independent consumers drive it: the
//! baseline system's cycle-accurate executor in `nmpic-system` (which
//! re-exports these types, preserving their original paths) and the
//! analytic cost model in `nmpic-model`, which replays the same access
//! stream structurally — no per-cycle stepping — to predict hit rates
//! and off-chip traffic.

/// Configuration of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// The baseline system's LLC from the paper: 1 MiB, 8-way, 64 B lines.
    pub fn paper_llc() -> Self {
        Self {
            size_bytes: 1 << 20,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative, LRU, write-allocate cache (tags only — data lives in
/// the simulated DRAM).
///
/// # Example
///
/// ```
/// use nmpic_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64 });
/// assert!(!c.access(0));  // cold miss
/// c.fill(0);
/// assert!(c.access(40));  // same line → hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// The address split, all powers of two: `line = addr >> line_shift`,
    /// set `line & set_mask`, tag `line >> set_shift`.
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
    /// Tag of way `w` of set `s` at `s * ways + w`, [`INVALID`] when the
    /// way holds no line.
    tags: Vec<u64>,
    /// LRU stamps, same layout; larger = more recent, 0 when invalid.
    stamps: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

/// Tag of an empty way. No line has it: a tag is an address shifted
/// right by at least one bit (the line size), so it stays below
/// `u64::MAX / line_bytes`.
const INVALID: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is degenerate (zero sets, ways or line
    /// bytes, or a one-byte line, whose tags could reach the invalid
    /// marker), and when the line size or the set count is not a power
    /// of two: the address split is a shift and a mask.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.ways > 0 && cfg.line_bytes > 1 && cfg.sets() > 0,
            "degenerate cache geometry"
        );
        let sets = cfg.sets();
        assert!(
            cfg.line_bytes.is_power_of_two() && sets.is_power_of_two(),
            "cache geometry needs power-of-two line bytes and sets: {} B / {} ways / {} B lines \
             gives {sets} sets",
            cfg.size_bytes,
            cfg.ways,
            cfg.line_bytes
        );
        let line_shift = cfg.line_bytes.trailing_zeros();
        let set_shift = sets.trailing_zeros();
        let slots = cfg.ways * sets;
        Self {
            line_shift,
            set_mask: (1 << set_shift) - 1,
            set_shift,
            tags: vec![INVALID; slots],
            stamps: vec![0; slots],
            tick: 0,
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The slot range of `addr`'s set and the tag it would carry there.
    fn set_and_tag(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> self.line_shift;
        // nmpic-lint: allow(L1) — in range on every target: the mask bounds the value below sets(), which is a usize
        let first = (line & self.set_mask) as usize * self.cfg.ways;
        (first..first + self.cfg.ways, line >> self.set_shift)
    }

    /// The slot holding `tag` within `set`, if any. Tags are unique
    /// within a set, so the scan visits every way without an early exit
    /// and compiles to selects rather than branches.
    fn find(&self, set: &std::ops::Range<usize>, tag: u64) -> Option<usize> {
        let mut hit = usize::MAX;
        for (slot, &t) in set.clone().zip(&self.tags[set.clone()]) {
            hit = if t == tag { slot } else { hit };
        }
        (hit != usize::MAX).then_some(hit)
    }

    /// Looks up `addr`; updates LRU on hit. Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        match self.find(&set, tag) {
            Some(slot) => {
                self.stamps[slot] = self.tick;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Installs the line containing `addr`, evicting the LRU way.
    pub fn fill(&mut self, addr: u64) {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        // Already present (e.g. a second miss to an in-flight line filled
        // by the first): just touch it. Otherwise the first empty way, or
        // the least recently used one: an empty way's stamp is 0 and a
        // valid way's at least 1. One pass looks for both.
        let (mut hit, mut victim) = (usize::MAX, set.start);
        for slot in set {
            hit = if self.tags[slot] == tag { slot } else { hit };
            victim = if self.stamps[slot] < self.stamps[victim] {
                slot
            } else {
                victim
            };
        }
        let slot = if hit == usize::MAX { victim } else { hit };
        self.tags[slot] = tag;
        self.stamps[slot] = self.tick;
    }

    /// `true` if the line containing `addr` is resident (no LRU update).
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.find(&set, tag).is_some()
    }

    /// Invalidates every resident line **overlapping** the byte range
    /// `[lo, hi)` — line-granular semantics: a line is dropped iff any of
    /// its bytes falls inside the range, so unaligned bounds widen the
    /// invalidation outward to full lines (the partial line containing
    /// `lo` and, when `hi` is unaligned, the partial line containing
    /// `hi − 1` are both dropped). The baseline system's batched runs and
    /// the solver's per-iteration `x` rewrite depend on this: dropping
    /// *more* than the range is safe (a refetch), dropping less would
    /// serve stale vector bytes.
    ///
    /// Degenerate ranges are no-ops: `lo >= hi` (including the inverted
    /// `lo > hi` case) invalidates nothing. Ranges reaching the top of
    /// the address space are handled without wrapping.
    ///
    /// # Example
    ///
    /// ```
    /// use nmpic_mem::{Cache, CacheConfig};
    /// let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64 });
    /// c.fill(0);
    /// c.fill(64);
    /// c.invalidate_range(70, 71); // one unaligned byte → whole line 64..128
    /// assert!(c.contains(0) && !c.contains(64));
    /// c.invalidate_range(10, 5); // inverted → no-op
    /// assert!(c.contains(0));
    /// ```
    pub fn invalidate_range(&mut self, lo: u64, hi: u64) {
        if hi <= lo {
            return;
        }
        let line_bytes = 1 << self.line_shift;
        let mut line = lo >> self.line_shift << self.line_shift;
        while line < hi {
            let (set, tag) = self.set_and_tag(line);
            if let Some(slot) = self.find(&set, tag) {
                self.tags[slot] = INVALID;
                self.stamps[slot] = 0;
            }
            // Saturating step: a range ending at the top of the address
            // space must terminate instead of wrapping line to 0 and
            // spinning forever.
            line = match line.checked_add(line_bytes) {
                Some(next) => next,
                None => break,
            };
        }
    }

    /// Empties the cache in place — every line invalid, LRU state and
    /// statistics back to the post-[`Cache::new`] cold start — without
    /// reallocating the tag arrays. Prepared plans use this to give each
    /// run a deterministic cold cache while reusing the allocation
    /// across a solver's iterations.
    pub fn reset(&mut self) {
        self.tags.fill(INVALID);
        self.stamps.fill(0);
        self.tick = 0;
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(128));
        c.fill(128);
        assert!(c.access(128 + 63));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: 0, 128, 256 (line = addr/64; set = line % 2).
        c.fill(0); // lines 0 → set 0
        c.fill(128); // line 2 → set 0
        assert!(c.access(0)); // touch 0, so 128 is LRU
        c.fill(256); // line 4 → set 0, evicts 128
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.fill(0); // set 0
        c.fill(64); // line 1 → set 1
        assert!(c.contains(0));
        assert!(c.contains(64));
    }

    #[test]
    fn fill_existing_line_does_not_duplicate() {
        let mut c = tiny();
        c.fill(0);
        c.fill(0);
        c.fill(128);
        c.fill(256); // set 0 full: 2 distinct of {0,128,256}
        let present = [0u64, 128, 256].iter().filter(|&&a| c.contains(a)).count();
        assert_eq!(present, 2);
    }

    #[test]
    #[should_panic(
        expected = "power-of-two line bytes and sets: 1536 B / 2 ways / 64 B lines gives 12 sets"
    )]
    fn a_non_power_of_two_set_count_is_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 1536,
            ways: 2,
            line_bytes: 64,
        });
    }

    #[test]
    #[should_panic(expected = "power-of-two line bytes and sets: 1536 B / 2 ways / 48 B lines")]
    fn a_non_power_of_two_line_is_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 1536,
            ways: 2,
            line_bytes: 48,
        });
    }

    #[test]
    fn paper_llc_geometry() {
        let cfg = CacheConfig::paper_llc();
        assert_eq!(cfg.sets(), 2048);
        let c = Cache::new(cfg);
        assert_eq!(c.config().ways, 8);
    }

    /// Regression suite for the invalidation semantics the solver's
    /// per-iteration `x` rewrite depends on: line-granular overlap,
    /// inverted/empty ranges as no-ops, and no wraparound at the top of
    /// the address space.
    #[test]
    fn invalidate_range_is_line_granular_over_the_overlap() {
        let mut c = tiny();
        for addr in [0u64, 64, 128, 192] {
            c.fill(addr);
        }
        // Unaligned bounds: [100, 130) overlaps lines 64..128 and
        // 128..192 — both partial lines drop, the rest stay.
        c.invalidate_range(100, 130);
        assert!(c.contains(0));
        assert!(!c.contains(64), "partial line containing lo must drop");
        assert!(!c.contains(128), "partial line containing hi-1 must drop");
        assert!(c.contains(192));
        // A one-byte range still drops its whole line.
        c.invalidate_range(195, 196);
        assert!(!c.contains(192));
    }

    #[test]
    fn invalidate_range_degenerate_ranges_are_noops() {
        let mut c = tiny();
        c.fill(0);
        c.fill(64);
        c.invalidate_range(64, 64); // empty
        c.invalidate_range(128, 64); // inverted (lo > hi)
        c.invalidate_range(0, 0); // empty at zero
        assert!(c.contains(0) && c.contains(64));
        // Aligned exact-line range drops exactly that line.
        c.invalidate_range(0, 64);
        assert!(!c.contains(0) && c.contains(64));
    }

    #[test]
    fn invalidate_range_at_address_space_top_terminates() {
        let mut c = tiny();
        let top_line = u64::MAX - (u64::MAX % 64);
        c.fill(0);
        c.fill(top_line);
        // Would previously wrap `line += 64` past u64::MAX and spin (or
        // restart from 0); must instead drop the last line and stop.
        c.invalidate_range(top_line + 3, u64::MAX);
        assert!(!c.contains(top_line));
        assert!(c.contains(0), "wraparound must not reach line 0");
    }

    #[test]
    fn reset_restores_the_cold_start_in_place() {
        let mut c = tiny();
        assert!(!c.access(0));
        c.fill(0);
        assert!(c.access(0));
        c.reset();
        assert!(!c.contains(0));
        assert_eq!(c.stats(), CacheStats::default());
        // Post-reset behaviour equals a fresh cache.
        assert!(!c.access(0));
        c.fill(0);
        assert!(c.access(32));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    /// The flat tag and stamp arrays against a set-of-ways model written
    /// from the definition: hit, LRU victim (first empty way, else the
    /// oldest), line-granular invalidation and reset agree on a random
    /// operation stream that keeps every set under eviction pressure.
    #[test]
    fn flat_arrays_match_a_per_set_lru_model() {
        let cfg = CacheConfig {
            size_bytes: 2048,
            ways: 4,
            line_bytes: 64,
        };
        let sets = cfg.sets() as u64;
        let mut cache = Cache::new(cfg);
        // Per set, resident lines from least to most recently used.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); cfg.sets()];
        let set_of = |line: u64| (line % sets) as usize;
        let mut rng = nmpic_sim::SimRng::new(11);
        for step in 0..20_000 {
            let addr = rng.gen_u64(0, 64 * 64);
            let line = addr / 64;
            let lru = &mut model[set_of(line)];
            match rng.gen_u64(0, 20) {
                0..=8 => {
                    let hit = lru.iter().position(|&l| l == line);
                    if let Some(i) = hit {
                        lru.remove(i);
                        lru.push(line);
                    }
                    assert_eq!(cache.access(addr), hit.is_some(), "step {step}");
                }
                9..=17 => {
                    if let Some(i) = lru.iter().position(|&l| l == line) {
                        lru.remove(i);
                    } else if lru.len() == cfg.ways {
                        lru.remove(0);
                    }
                    lru.push(line);
                    cache.fill(addr);
                }
                18 => {
                    let hi = addr + rng.gen_u64(1, 300);
                    for lru in &mut model {
                        lru.retain(|&l| l * 64 + 64 <= addr || l * 64 >= hi);
                    }
                    cache.invalidate_range(addr, hi);
                }
                _ => {
                    if step % 7 == 0 {
                        model.iter_mut().for_each(Vec::clear);
                        cache.reset();
                    }
                }
            }
            let probe = rng.gen_u64(0, 64 * 64);
            let resident = model[set_of(probe / 64)].contains(&(probe / 64));
            assert_eq!(cache.contains(probe), resident, "step {step}");
        }
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut c = Cache::new(CacheConfig::paper_llc());
        // Touch 100 lines twice: second pass should hit.
        for pass in 0..2 {
            for i in 0..100u64 {
                let addr = i * 64;
                if !c.access(addr) {
                    c.fill(addr);
                }
                let _ = pass;
            }
        }
        assert!(c.stats().hit_rate() > 0.45);
    }
}
