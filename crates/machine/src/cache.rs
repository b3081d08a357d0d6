//! Set-associative caches with MESI line states and a private three-level
//! per-CPU hierarchy.
//!
//! Coherence is tracked at the L2/L3 line granularity (128 bytes on
//! Itanium 2 — the paper's DAXPY analysis depends on this line size). The
//! hierarchy is inclusive: every L1/L2-resident line is also L3-resident, so
//! the authoritative MESI state of a line lives in the L3 entry; L1 and L2
//! track presence (for hit-latency purposes) and are back-invalidated when
//! the L3 copy is evicted or invalidated. FP loads bypass L1, as on the real
//! processor.
//!
//! Each level is two set-major arrays with one entry per way, line tags and
//! packed `tick << 2 | state` words, so a way costs 16 bytes. The paper's L3
//! (1024 sets × 12 ways) is two 96 KiB arrays, each under glibc's default
//! 128 KiB mmap threshold, which `benchmark/run.sh` pins: a new machine takes
//! its arrays from freed heap rather than faulting in a fresh mapping page by
//! page. One machine's arrays are 0.9 MiB on smp4 and 1.8 MiB on altix8.
//! Without the pinned threshold glibc's sliding one recycles them anyway
//! after the first machine, so the lasting gains are the smaller footprint
//! and the shorter miss path. Which free way a line lands in shows only in
//! the way-for-way oracle of the tests, never in a return value.

use serde::{Deserialize, Serialize};

use crate::config::CacheGeometry;

/// MESI coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mesi {
    Modified,
    Exclusive,
    Shared,
}

/// A line-address: byte address divided by the line size of the level.
type LineAddr = u64;

/// The tag of a free way. No line has it: a line address is a byte address
/// shifted right by at least 6.
const FREE: LineAddr = LineAddr::MAX;

/// The [`Mesi`] bits of a packed `tick << 2 | state` word.
const STATE: u64 = 0b11;

#[inline]
fn state_of(word: u64) -> Mesi {
    match word & STATE {
        0 => Mesi::Modified,
        1 => Mesi::Exclusive,
        _ => Mesi::Shared,
    }
}

/// One set-associative cache level, stored set-major: way `w` of set `s` is
/// entry `s * ways + w` of both arrays.
#[derive(Debug, Clone)]
struct Cache {
    set_mask: usize,
    ways: usize,
    /// The line each way holds, or [`FREE`].
    tags: Vec<LineAddr>,
    /// Each way's `tick << 2 | state`: the tick of its last use and its
    /// state. Ticks are unique among a set's held ways, so the smallest word
    /// is the least recently used way. Meaningless in a free way.
    meta: Vec<u64>,
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
            meta: vec![0; sets * geom.ways],
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

    /// Advance the clock; the new tick, shifted into its packed position.
    #[inline]
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        debug_assert!(self.tick < 1 << 62, "tick overflows its packed word");
        self.tick << 2
    }

    /// Look up a line; updates LRU on hit.
    fn probe(&mut self, line: LineAddr) -> Option<Mesi> {
        let now = self.next_tick();
        let i = self.find(line)?;
        self.meta[i] = now | self.meta[i] & STATE;
        Some(state_of(self.meta[i]))
    }

    /// Look up without touching LRU (snoops must not perturb locality).
    fn peek(&self, line: LineAddr) -> Option<Mesi> {
        self.find(line).map(|i| state_of(self.meta[i]))
    }

    /// Change the state of a resident line. Returns false if absent.
    fn set_state(&mut self, line: LineAddr, state: Mesi) -> bool {
        let Some(i) = self.find(line) else {
            return false;
        };
        self.meta[i] = self.meta[i] & !STATE | state as u64;
        true
    }

    /// Insert a line into the set's first free way, or else in place of its
    /// least recently used way. Returns the evicted `(line, state)` if one
    /// was displaced.
    fn insert(&mut self, line: LineAddr, state: Mesi) -> Option<(LineAddr, Mesi)> {
        debug_assert_ne!(line, FREE);
        let word = self.next_tick() | state as u64;
        let base = self.base(line);
        let mut free = None;
        for (w, &tag) in self.tags[base..base + self.ways].iter().enumerate() {
            if tag == line {
                // Already present: update state in place.
                self.meta[base + w] = word;
                return None;
            }
            if tag == FREE && free.is_none() {
                free = Some(base + w);
            }
        }
        let (i, evicted) = match free {
            Some(i) => (i, None),
            None => {
                let set = &self.meta[base..base + self.ways];
                let (w, &lru) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &m)| m)
                    .expect("non-zero associativity");
                (base + w, Some((self.tags[base + w], state_of(lru))))
            }
        };
        self.tags[i] = line;
        self.meta[i] = word;
        evicted
    }

    /// Remove a line; returns its previous state.
    fn invalidate(&mut self, line: LineAddr) -> Option<Mesi> {
        let i = self.find(line)?;
        self.tags[i] = FREE;
        Some(state_of(self.meta[i]))
    }
}

/// Side effect of a fill that the memory system must turn into bus traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FillEffect {
    /// A modified line left L3 and must be written back to memory.
    WritebackL3(LineAddr),
    /// A clean line was displaced from L3 (accounting only).
    EvictClean(LineAddr),
    /// A dirty line was displaced from L2 into the inclusive L3 (no bus
    /// traffic, but counted — the paper attributes the 2 MB `lfetch.excl`
    /// slowdown to increased L2 writebacks).
    WritebackL2(LineAddr),
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

    /// Authoritative MESI state of a coherence line (from the inclusive L3).
    #[inline]
    pub(crate) fn state(&self, line: LineAddr) -> Option<Mesi> {
        self.l3.peek(line)
    }

    /// Probe for a load. `fp` loads skip L1; `l1_line` is the L1-granularity
    /// line address of the access (only consulted for integer loads).
    pub(crate) fn probe_load(
        &mut self,
        line: LineAddr,
        l1_line: LineAddr,
        fp: bool,
    ) -> Option<HitLevel> {
        if !fp && self.l1.probe(l1_line).is_some() {
            // L1 presence implies L2/L3 presence (inclusion); refresh LRU.
            self.l2.probe(line);
            self.l3.probe(line);
            return Some(HitLevel::L1);
        }
        if self.l2.probe(line).is_some() {
            self.l3.probe(line);
            if !fp {
                self.fill_l1(l1_line);
            }
            return Some(HitLevel::L2);
        }
        if let Some(state) = self.l3.probe(line) {
            // Refill the inner levels (presence only; state stays in L3).
            self.l2.insert(line, state);
            if !fp {
                self.fill_l1(l1_line);
            }
            return Some(HitLevel::L3);
        }
        None
    }

    fn fill_l1(&mut self, l1_line: LineAddr) {
        // L1 victims are clean by construction (write-through to L2 model).
        let _ = self.l1.insert(l1_line, Mesi::Exclusive);
    }

    /// Install a coherence line with `state`, maintaining inclusion.
    /// Returns the bus-relevant side effects, in order: at most one L3
    /// victim and one counted L2 writeback.
    pub(crate) fn fill(
        &mut self,
        line: LineAddr,
        state: Mesi,
        into_l1: Option<LineAddr>,
    ) -> impl Iterator<Item = FillEffect> {
        let l3 = self.l3.insert(line, state).map(|(victim, victim_state)| {
            // Back-invalidate inner copies of the displaced line (inclusion).
            self.invalidate_inner(victim);
            if victim_state == Mesi::Modified {
                FillEffect::WritebackL3(victim)
            } else {
                FillEffect::EvictClean(victim)
            }
        });
        // L2 holds presence; a dirty L2 victim's data lands in the inclusive
        // L3 (no bus traffic), but the writeback is still counted.
        let l2 = self
            .l2
            .insert(line, state)
            .filter(|&(victim, _)| self.l3.peek(victim) == Some(Mesi::Modified))
            .map(|(victim, _)| FillEffect::WritebackL2(victim));
        if let Some(l1_line) = into_l1 {
            self.fill_l1(l1_line);
        }
        [l3, l2].into_iter().flatten()
    }

    fn invalidate_inner(&mut self, line: LineAddr) {
        self.l2.invalidate(line);
        let first = line * self.l1_lines_per_coherence_line;
        for k in 0..self.l1_lines_per_coherence_line {
            self.l1.invalidate(first + k);
        }
    }

    /// Set the MESI state of a resident line at every level holding it.
    pub(crate) fn set_state(&mut self, line: LineAddr, state: Mesi) {
        self.l3.set_state(line, state);
        self.l2.set_state(line, state);
    }

    /// Invalidate a line everywhere; returns its previous coherence state.
    pub(crate) fn invalidate(&mut self, line: LineAddr) -> Option<Mesi> {
        let prev = self.l3.invalidate(line);
        if prev.is_some() {
            self.invalidate_inner(line);
        } else {
            // Defensive: L2/L1 must not hold lines L3 lacks.
            debug_assert!(self.l2.peek(line).is_none());
        }
        prev
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

    /// The layout `Cache` had before its two arrays, one 24-byte slot a way:
    /// the oracle `compact_arrays_match_the_slot_array` holds it to.
    #[derive(Debug, Clone, Copy)]
    struct Slot {
        tag: u64,
        state: Mesi,
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
                state: Mesi::Shared,
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

        fn probe(&mut self, line: LineAddr) -> Option<Mesi> {
            self.tick += 1;
            let tick = self.tick;
            let s = self.find(line)?;
            s.lru = tick;
            Some(s.state)
        }

        fn peek(&mut self, line: LineAddr) -> Option<Mesi> {
            self.find(line).map(|s| s.state)
        }

        fn set_state(&mut self, line: LineAddr, state: Mesi) -> bool {
            self.find(line).map(|s| s.state = state).is_some()
        }

        fn insert(&mut self, line: LineAddr, state: Mesi) -> Option<(LineAddr, Mesi)> {
            self.tick += 1;
            let lru = self.tick;
            let fresh = Slot {
                tag: line,
                state,
                lru,
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
            let evicted = (victim.tag, victim.state);
            *victim = fresh;
            Some(evicted)
        }

        fn invalidate(&mut self, line: LineAddr) -> Option<Mesi> {
            let s = self.find(line)?;
            s.valid = false;
            Some(s.state)
        }
    }

    /// Every way holds the same line, state and tick in both layouts, and
    /// the ticks of a set's held ways are distinct (so "smallest packed
    /// word" and "first least recently used slot" name the same way).
    fn assert_same_ways(c: &Cache, r: &SlotCache) {
        for (i, s) in r.slots.iter().enumerate() {
            let held = s.valid.then_some((s.tag, s.lru << 2 | s.state as u64));
            let got = (c.tags[i] != FREE).then_some((c.tags[i], c.meta[i]));
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
            ops in prop::collection::vec((0u8..8, any::<u64>(), 0usize..3), 1..400),
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
            for (op, raw, state) in ops {
                let line = raw % pool;
                let state = [Mesi::Modified, Mesi::Exclusive, Mesi::Shared][state];
                match op {
                    0..=2 => prop_assert_eq!(c.insert(line, state), r.insert(line, state)),
                    3 | 4 => prop_assert_eq!(c.probe(line), r.probe(line)),
                    5 => prop_assert_eq!(c.peek(line), r.peek(line)),
                    6 => prop_assert_eq!(c.set_state(line, state), r.set_state(line, state)),
                    _ => prop_assert_eq!(c.invalidate(line), r.invalidate(line)),
                }
                assert_same_ways(&c, &r);
            }
        }
    }

    #[test]
    fn a_way_costs_16_bytes() {
        let c = Cache::new(MachineConfig::smp4().l3);
        let bytes = size_of_val(&c.tags[..]) + size_of_val(&c.meta[..]);
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
            assert!(size_of_val(&c.meta[..]) <= 128 << 10, "{}", cfg.name);
        }
    }

    #[test]
    fn insert_probe_invalidate() {
        let mut c = Cache::new(MachineConfig::smp4().l2);
        assert_eq!(c.probe(42), None);
        assert_eq!(c.insert(42, Mesi::Exclusive), None);
        assert_eq!(c.probe(42), Some(Mesi::Exclusive));
        assert!(c.set_state(42, Mesi::Modified));
        assert_eq!(c.peek(42), Some(Mesi::Modified));
        assert_eq!(c.invalidate(42), Some(Mesi::Modified));
        assert_eq!(c.probe(42), None);
        assert!(!c.set_state(42, Mesi::Shared));
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
            assert_eq!(c.insert(line, Mesi::Shared), None);
        }
        // Touch 0 so 1 becomes LRU.
        assert!(c.probe(0).is_some());
        let evicted = c.insert(100, Mesi::Shared).unwrap();
        assert_eq!(evicted.0, 1);
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let geom = CacheGeometry {
            size: 2 * 128,
            ways: 2,
            line: 128,
            hit_latency: 1,
        };
        let mut c = Cache::new(geom);
        c.insert(7, Mesi::Shared);
        assert_eq!(c.insert(7, Mesi::Modified), None);
        assert_eq!(c.peek(7), Some(Mesi::Modified));
        assert_eq!(c.tags.iter().filter(|&&t| t != FREE).count(), 1);
    }

    #[test]
    fn hierarchy_inclusion_and_hit_levels() {
        let mut h = hierarchy();
        let line = 10u64;
        let l1_line = line * 2;
        assert_eq!(h.probe_load(line, l1_line, true), None);
        let _ = h.fill(line, Mesi::Exclusive, None);
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
        let _ = h.fill(line, Mesi::Modified, Some(l1_line));
        assert_eq!(h.state(line), Some(Mesi::Modified));
        assert_eq!(h.invalidate(line), Some(Mesi::Modified));
        assert_eq!(h.state(line), None);
        assert_eq!(h.probe_load(line, l1_line, false), None);
        assert_eq!(h.l1.peek(l1_line), None);
        assert_eq!(h.invalidate(line), None);
    }

    #[test]
    fn dirty_l3_eviction_reports_writeback() {
        let c = MachineConfig::smp4();
        // Shrink L3 to a single set of 2 ways for a deterministic eviction.
        let tiny = CacheGeometry {
            size: 2 * 128,
            ways: 2,
            line: 128,
            hit_latency: 12,
        };
        let mut h = PrivateHierarchy::new(
            c.l1d,
            CacheGeometry {
                size: 2 * 128,
                ways: 2,
                line: 128,
                hit_latency: 5,
            },
            tiny,
        );
        assert_eq!(h.fill(1, Mesi::Modified, None).count(), 0);
        assert_eq!(h.fill(2, Mesi::Shared, None).count(), 0);
        let effects: Vec<_> = h.fill(3, Mesi::Exclusive, None).collect();
        assert_eq!(effects, [FillEffect::WritebackL3(1)]);
        // The displaced line must be gone from every level (inclusion).
        assert_eq!(h.state(1), None);
        assert_eq!(h.l2.peek(1), None);
    }

    #[test]
    fn set_state_applies_to_both_coherent_levels() {
        let mut h = hierarchy();
        let _ = h.fill(5, Mesi::Exclusive, None);
        h.set_state(5, Mesi::Shared);
        assert_eq!(h.l3.peek(5), Some(Mesi::Shared));
        assert_eq!(h.l2.peek(5), Some(Mesi::Shared));
    }
}
