//! Set-associative caches and a private three-level per-CPU hierarchy:
//! which lines each level holds and in what LRU order, nothing more.
//!
//! Coherence is tracked at the L2/L3 line granularity (128 bytes on
//! Itanium 2 — the paper's DAXPY analysis depends on this line size). The
//! hierarchy is inclusive: every L1/L2-resident line is also L3-resident,
//! and L1 and L2 are back-invalidated when the L3 copy is evicted or
//! invalidated. A line's MESI state is not kept here: the memory system's
//! directory holds it (`crate::memsys`), and a CPU holds a line in some
//! state exactly when its L3 holds the tag. FP loads bypass L1, as on the
//! real processor.
//!
//! Each level is two set-major arrays with one entry per way, line tags and
//! last-use ticks, so a way costs 16 bytes. The paper's L3 (1024 sets × 12
//! ways) is two 96 KiB arrays, each under glibc's default 128 KiB mmap
//! threshold, which `benchmark/run.sh` pins: a new machine takes its arrays
//! from freed heap rather than faulting in a fresh mapping page by page.
//! One machine's arrays are 0.9 MiB on smp4 and 1.8 MiB on altix8. Which
//! free way a line lands in shows only in the way-for-way oracle of the
//! tests, never in a return value.

use crate::config::CacheGeometry;

/// A line-address: byte address divided by the line size of the level.
type LineAddr = u64;

/// The tag of a free way. No line has it: a line address is a byte address
/// shifted right by at least 6.
const FREE: LineAddr = LineAddr::MAX;

/// One set-associative cache level, stored set-major: way `w` of set `s` is
/// entry `s * ways + w` of both arrays.
#[derive(Debug, Clone)]
struct Cache {
    set_mask: usize,
    ways: usize,
    /// The line each way holds, or [`FREE`].
    tags: Vec<LineAddr>,
    /// Each way's tick of last use. Ticks are unique among a set's held
    /// ways, so the smallest is the least recently used way. Meaningless in
    /// a free way.
    lru: Vec<u64>,
    tick: u64,
}

impl Cache {
    fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            set_mask: sets - 1,
            ways: geom.ways,
            tags: vec![FREE; sets * geom.ways],
            lru: vec![0; sets * geom.ways],
            tick: 0,
        }
    }

    /// Entry of the first way of `line`'s set.
    #[inline]
    fn base(&self, line: LineAddr) -> usize {
        (line as usize & self.set_mask) * self.ways
    }

    /// Entry of the way holding `line`, scanning the set in way order.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.base(line);
        let set = &self.tags[base..base + self.ways];
        set.iter().position(|&t| t == line).map(|w| base + w)
    }

    /// Look up a line; updates LRU on hit.
    fn probe(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let Some(i) = self.find(line) else {
            return false;
        };
        self.lru[i] = self.tick;
        true
    }

    /// Insert a line into the set's first free way, or else in place of its
    /// least recently used way. Returns the line displaced, if any.
    fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
        debug_assert_ne!(line, FREE);
        self.tick += 1;
        let base = self.base(line);
        let mut free = None;
        for (w, &tag) in self.tags[base..base + self.ways].iter().enumerate() {
            if tag == line {
                // Already present: a use.
                self.lru[base + w] = self.tick;
                return None;
            }
            if tag == FREE && free.is_none() {
                free = Some(base + w);
            }
        }
        let (i, evicted) = match free {
            Some(i) => (i, None),
            None => {
                let set = &self.lru[base..base + self.ways];
                let (w, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &t)| t)
                    .expect("non-zero associativity");
                (base + w, Some(self.tags[base + w]))
            }
        };
        self.tags[i] = line;
        self.lru[i] = self.tick;
        evicted
    }

    /// Remove a line; returns whether it was held.
    fn invalidate(&mut self, line: LineAddr) -> bool {
        let Some(i) = self.find(line) else {
            return false;
        };
        self.tags[i] = FREE;
        true
    }
}

/// Level at which a probe hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HitLevel {
    L1,
    L2,
    L3,
}

/// A CPU's private L1D/L2/L3 stack.
///
/// L1 indexing uses its own (smaller) line size; a coherence line maps to
/// `l2_line / l1_line` L1 lines which are invalidated together.
#[derive(Debug, Clone)]
pub(crate) struct PrivateHierarchy {
    l1: Cache,
    l2: Cache,
    l3: Cache,
    l1_lines_per_coherence_line: u64,
}

impl PrivateHierarchy {
    pub(crate) fn new(l1: CacheGeometry, l2: CacheGeometry, l3: CacheGeometry) -> Self {
        assert_eq!(l2.line, l3.line, "L2 and L3 share the coherence line size");
        assert!(l2.line >= l1.line && l2.line.is_multiple_of(l1.line));
        let ratio = (l2.line / l1.line) as u64;
        PrivateHierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            l3: Cache::new(l3),
            l1_lines_per_coherence_line: ratio,
        }
    }

    /// Does the L3 hold the coherence line? (The directory's test oracle.)
    #[cfg(test)]
    pub(crate) fn holds(&self, line: LineAddr) -> bool {
        self.l3.find(line).is_some()
    }

    /// Probe for a load. `fp` loads skip L1; `l1_line` is the L1-granularity
    /// line address of the access (only consulted for integer loads).
    pub(crate) fn probe_load(
        &mut self,
        line: LineAddr,
        l1_line: LineAddr,
        fp: bool,
    ) -> Option<HitLevel> {
        if !fp && self.l1.probe(l1_line) {
            // L1 presence implies L2/L3 presence (inclusion); refresh LRU.
            self.l2.probe(line);
            self.l3.probe(line);
            return Some(HitLevel::L1);
        }
        if self.l2.probe(line) {
            self.l3.probe(line);
            if !fp {
                self.l1.insert(l1_line);
            }
            return Some(HitLevel::L2);
        }
        if self.l3.probe(line) {
            // Refill the inner levels.
            self.l2.insert(line);
            if !fp {
                self.l1.insert(l1_line);
            }
            return Some(HitLevel::L3);
        }
        None
    }

    /// Install a coherence line, maintaining inclusion. Returns the lines
    /// displaced from L3 (already back-invalidated from L1 and L2) and from
    /// L2 (still in L3), in that order.
    pub(crate) fn fill(
        &mut self,
        line: LineAddr,
        into_l1: Option<LineAddr>,
    ) -> (Option<LineAddr>, Option<LineAddr>) {
        let l3 = self.l3.insert(line);
        if let Some(victim) = l3 {
            self.invalidate_inner(victim);
        }
        let l2 = self.l2.insert(line);
        if let Some(l1_line) = into_l1 {
            // L1 victims are clean by construction (write-through to L2 model).
            self.l1.insert(l1_line);
        }
        (l3, l2)
    }

    fn invalidate_inner(&mut self, line: LineAddr) {
        self.l2.invalidate(line);
        let first = line * self.l1_lines_per_coherence_line;
        for k in 0..self.l1_lines_per_coherence_line {
            self.l1.invalidate(first + k);
        }
    }

    /// Invalidate a line the hierarchy holds, at every level.
    pub(crate) fn invalidate(&mut self, line: LineAddr) {
        let held = self.l3.invalidate(line);
        debug_assert!(held, "the directory named a CPU whose L3 lacks the line");
        self.invalidate_inner(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use proptest::prelude::*;

    fn hierarchy() -> PrivateHierarchy {
        let c = MachineConfig::smp4();
        PrivateHierarchy::new(c.l1d, c.l2, c.l3)
    }

    /// The layout `Cache` had before its two arrays, one slot a way: the
    /// oracle `compact_arrays_match_the_slot_array` holds it to.
    #[derive(Debug, Clone, Copy)]
    struct Slot {
        tag: u64,
        lru: u64,
        valid: bool,
    }

    struct SlotCache {
        sets: usize,
        ways: usize,
        slots: Vec<Slot>,
        tick: u64,
    }

    impl SlotCache {
        fn new(geom: CacheGeometry) -> Self {
            let empty = Slot {
                tag: 0,
                lru: 0,
                valid: false,
            };
            SlotCache {
                sets: geom.sets(),
                ways: geom.ways,
                slots: vec![empty; geom.sets() * geom.ways],
                tick: 0,
            }
        }

        fn set_slots(&mut self, line: LineAddr) -> &mut [Slot] {
            let idx = (line as usize) & (self.sets - 1);
            &mut self.slots[idx * self.ways..(idx + 1) * self.ways]
        }

        fn find(&mut self, line: LineAddr) -> Option<&mut Slot> {
            self.set_slots(line)
                .iter_mut()
                .find(|s| s.valid && s.tag == line)
        }

        fn probe(&mut self, line: LineAddr) -> bool {
            self.tick += 1;
            let tick = self.tick;
            self.find(line).map(|s| s.lru = tick).is_some()
        }

        fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
            self.tick += 1;
            let fresh = Slot {
                tag: line,
                lru: self.tick,
                valid: true,
            };
            if let Some(s) = self.find(line) {
                *s = fresh;
                return None;
            }
            let slots = self.set_slots(line);
            if let Some(s) = slots.iter_mut().find(|s| !s.valid) {
                *s = fresh;
                return None;
            }
            let victim = slots.iter_mut().min_by_key(|s| s.lru).unwrap();
            let evicted = victim.tag;
            *victim = fresh;
            Some(evicted)
        }

        fn invalidate(&mut self, line: LineAddr) -> bool {
            self.find(line).map(|s| s.valid = false).is_some()
        }
    }

    /// Every way holds the same line and tick in both layouts, and the
    /// ticks of a set's held ways are distinct (so "smallest tick" and
    /// "first least recently used slot" name the same way).
    fn assert_same_ways(c: &Cache, r: &SlotCache) {
        for (i, s) in r.slots.iter().enumerate() {
            let held = s.valid.then_some((s.tag, s.lru));
            let got = (c.tags[i] != FREE).then_some((c.tags[i], c.lru[i]));
            assert_eq!(got, held, "way entry {i}");
        }
        for set in r.slots.chunks(r.ways) {
            let mut ticks: Vec<u64> = set.iter().filter(|s| s.valid).map(|s| s.lru).collect();
            let held = ticks.len();
            ticks.sort_unstable();
            ticks.dedup();
            assert_eq!(ticks.len(), held, "a tick repeats within a set");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random op sequences give the same return values from the two
        /// arrays as from the slot array, and leave the same ways.
        #[test]
        fn compact_arrays_match_the_slot_array(
            sets in prop_oneof![Just(1usize), Just(2), Just(4)],
            ways in prop_oneof![Just(1usize), Just(2), Just(4), Just(8), Just(12)],
            ops in prop::collection::vec((0u8..8, any::<u64>()), 1..400),
        ) {
            let geom = CacheGeometry {
                size: sets * ways * 128,
                ways,
                line: 128,
                hit_latency: 1,
            };
            let (mut c, mut r) = (Cache::new(geom), SlotCache::new(geom));
            // Twice the capacity: sets fill, evict, and refill after
            // invalidates.
            let pool = 2 * (sets * ways) as u64;
            for (op, raw) in ops {
                let line = raw % pool;
                match op {
                    0..=2 => prop_assert_eq!(c.insert(line), r.insert(line)),
                    3..=5 => prop_assert_eq!(c.probe(line), r.probe(line)),
                    6 => prop_assert_eq!(c.find(line).is_some(), r.find(line).is_some()),
                    _ => prop_assert_eq!(c.invalidate(line), r.invalidate(line)),
                }
                assert_same_ways(&c, &r);
            }
        }
    }

    #[test]
    fn a_way_costs_16_bytes() {
        let c = Cache::new(MachineConfig::smp4().l3);
        let bytes = size_of_val(&c.tags[..]) + size_of_val(&c.lru[..]);
        assert_eq!(bytes, 16 * c.tags.len());
    }

    #[test]
    fn each_l3_array_stays_under_the_mmap_threshold() {
        // glibc's default mmap threshold, 128 KiB (what benchmark/run.sh
        // pins): below it a new machine's arrays reuse freed heap memory
        // instead of faulting in fresh pages.
        for cfg in [MachineConfig::smp4(), MachineConfig::altix8()] {
            let c = Cache::new(cfg.l3);
            assert!(size_of_val(&c.tags[..]) <= 128 << 10, "{}", cfg.name);
            assert!(size_of_val(&c.lru[..]) <= 128 << 10, "{}", cfg.name);
        }
    }

    #[test]
    fn insert_probe_invalidate() {
        let mut c = Cache::new(MachineConfig::smp4().l2);
        assert!(!c.probe(42));
        assert_eq!(c.insert(42), None);
        assert!(c.probe(42));
        assert!(c.invalidate(42));
        assert!(!c.probe(42));
        assert!(!c.invalidate(42));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let geom = CacheGeometry {
            size: 4 * 128,
            ways: 4,
            line: 128,
            hit_latency: 1,
        };
        let mut c = Cache::new(geom); // 1 set, 4 ways
        for line in 0..4 {
            assert_eq!(c.insert(line), None);
        }
        // Touch 0 so 1 becomes LRU.
        assert!(c.probe(0));
        assert_eq!(c.insert(100), Some(1));
    }

    #[test]
    fn reinsert_is_a_use_without_eviction() {
        let geom = CacheGeometry {
            size: 2 * 128,
            ways: 2,
            line: 128,
            hit_latency: 1,
        };
        let mut c = Cache::new(geom);
        c.insert(7);
        c.insert(8);
        assert_eq!(c.insert(7), None);
        assert_eq!(c.tags.iter().filter(|&&t| t != FREE).count(), 2);
        assert_eq!(c.insert(9), Some(8), "the re-insert made 7 the newer");
    }

    #[test]
    fn hierarchy_inclusion_and_hit_levels() {
        let mut h = hierarchy();
        let line = 10u64;
        let l1_line = line * 2;
        assert_eq!(h.probe_load(line, l1_line, true), None);
        let _ = h.fill(line, None);
        // FP load hits in L2 after a fill.
        assert_eq!(h.probe_load(line, l1_line, true), Some(HitLevel::L2));
        // Integer load misses L1 first time (we filled without L1), hits L2,
        // then hits L1 on the second access.
        assert_eq!(h.probe_load(line, l1_line, false), Some(HitLevel::L2));
        assert_eq!(h.probe_load(line, l1_line, false), Some(HitLevel::L1));
    }

    #[test]
    fn invalidation_clears_all_levels() {
        let mut h = hierarchy();
        let line = 99u64;
        let l1_line = line * 2;
        let _ = h.fill(line, Some(l1_line));
        assert!(h.holds(line));
        h.invalidate(line);
        assert!(!h.holds(line));
        assert_eq!(h.probe_load(line, l1_line, false), None);
        assert!(h.l1.find(l1_line).is_none());
    }

    #[test]
    fn l3_eviction_reports_the_victim_and_clears_inner_levels() {
        let c = MachineConfig::smp4();
        // Shrink L2 and L3 to a single set of 2 ways for a deterministic
        // eviction.
        let tiny = |hit_latency| CacheGeometry {
            size: 2 * 128,
            ways: 2,
            line: 128,
            hit_latency,
        };
        let mut h = PrivateHierarchy::new(c.l1d, tiny(5), tiny(12));
        assert_eq!(h.fill(1, None), (None, None));
        assert_eq!(h.fill(2, None), (None, None));
        assert_eq!(h.fill(3, None), (Some(1), None));
        // The displaced line must be gone from every level (inclusion).
        assert!(!h.holds(1));
        assert!(h.l2.find(1).is_none());
    }
}
