//! Register-file layout and rotation semantics.
//!
//! Itanium 2 has 128 general registers (`r0`–`r127`), 128 floating-point
//! registers (`f0`–`f127`) and 64 one-bit predicate registers (`p0`–`p63`).
//! Registers `r32`+, `f32`+ and `p16`+ form *rotating* regions used by
//! software-pipelined (modulo-scheduled) loops: every taken `br.ctop`/`br.wtop`
//! decrements the rotating register bases, so the value written to `f32` in one
//! iteration is read as `f33` in the next. The icc-generated DAXPY loop in the
//! paper's Figure 2 depends on exactly this mechanism to rotate prefetch target
//! addresses through `r43`, so the simulator implements it faithfully.
//!
//! Architectural constants: `r0` reads as zero and is read-only; `f0` reads as
//! `+0.0` and `f1` as `+1.0`, both read-only; `p0` reads as `true` and is
//! read-only (it is the default qualifying predicate).

/// First rotating general register.
pub const ROT_GR_BASE: u8 = 32;
/// Size of the rotating general-register region (`r32`–`r127`).
pub const ROT_GR_SIZE: u8 = 96;
/// First rotating floating-point register.
pub(crate) const ROT_FR_BASE: u8 = 32;
/// Size of the rotating floating-point region (`f32`–`f127`).
pub(crate) const ROT_FR_SIZE: u8 = 96;
/// First rotating predicate register.
pub(crate) const ROT_PR_BASE: u8 = 16;
/// Size of the rotating predicate region (`p16`–`p63`).
pub const ROT_PR_SIZE: u8 = 48;

/// Rotating-register-base state (the `rrb.gr`/`rrb.fr`/`rrb.pr` fields of the
/// Itanium `CFM`). Bases are stored as non-negative offsets; a rotation step
/// *decrements* each base modulo its region size, which renames `rN` to `rN+1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rrb {
    pub gr: u8,
    pub fr: u8,
    pub pr: u8,
}

impl Rrb {
    /// Reset all rotating bases to zero (the `clrrrb` instruction).
    pub fn clear(&mut self) {
        *self = Rrb::default();
    }

    /// Perform one rotation step (executed by taken `br.ctop`/`br.wtop`).
    pub fn rotate(&mut self) {
        self.gr = (self.gr + ROT_GR_SIZE - 1) % ROT_GR_SIZE;
        self.fr = (self.fr + ROT_FR_SIZE - 1) % ROT_FR_SIZE;
        self.pr = (self.pr + ROT_PR_SIZE - 1) % ROT_PR_SIZE;
    }

    /// Map a virtual general-register number to its physical slot.
    #[inline]
    pub fn map_gr(&self, vreg: u8) -> u8 {
        map_rotating(vreg, ROT_GR_BASE, ROT_GR_SIZE, self.gr)
    }

    /// Map a virtual floating-point-register number to its physical slot.
    #[inline]
    pub fn map_fr(&self, vreg: u8) -> u8 {
        map_rotating(vreg, ROT_FR_BASE, ROT_FR_SIZE, self.fr)
    }

    /// Map a virtual predicate-register number to its physical slot.
    #[inline]
    pub fn map_pr(&self, vreg: u8) -> u8 {
        map_rotating(vreg, ROT_PR_BASE, ROT_PR_SIZE, self.pr)
    }
}

#[inline]
fn map_rotating(vreg: u8, base: u8, size: u8, rrb: u8) -> u8 {
    // With no rotation in flight the rotating region maps to itself
    // (`v - base < size` for every architectural register number), so the
    // whole map is the identity — one predictable compare on the hot path
    // of every register access instead of a modulo.
    if rrb == 0 || vreg < base {
        vreg
    } else {
        base + (vreg - base + rrb) % size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_registers_never_rotate() {
        let mut rrb = Rrb::default();
        rrb.rotate();
        rrb.rotate();
        assert_eq!(rrb.map_gr(0), 0);
        assert_eq!(rrb.map_gr(31), 31);
        assert_eq!(rrb.map_fr(6), 6);
        assert_eq!(rrb.map_pr(15), 15);
    }

    #[test]
    fn rotation_renames_upward() {
        // After one rotation, a value previously written through virtual f32
        // must be visible through virtual f33: map(f33, after) == map(f32, before).
        let before = Rrb::default();
        let mut after = before;
        after.rotate();
        for v in ROT_FR_BASE..(ROT_FR_BASE + 10) {
            assert_eq!(after.map_fr(v + 1), before.map_fr(v));
        }
        for v in ROT_GR_BASE..(ROT_GR_BASE + 10) {
            assert_eq!(after.map_gr(v + 1), before.map_gr(v));
        }
        for v in ROT_PR_BASE..(ROT_PR_BASE + 10) {
            assert_eq!(after.map_pr(v + 1), before.map_pr(v));
        }
    }

    #[test]
    fn rotation_wraps_modulo_region() {
        let mut rrb = Rrb::default();
        for _ in 0..ROT_GR_SIZE {
            rrb.rotate();
        }
        // GR region size (96) rotations bring gr base back to zero; the PR
        // region (48) divides 96 so it is also back at zero.
        assert_eq!(rrb.gr, 0);
        assert_eq!(rrb.fr, 0);
        assert_eq!(rrb.pr, 0);
    }

    proptest::proptest! {
        /// The three bases move in lockstep, so `gr` names the whole state:
        /// the block engine keys a loop's resolved operands by `rrb.gr`
        /// alone (`cobra-machine`'s loop traces).
        #[test]
        fn bases_stay_in_lockstep(steps in proptest::collection::vec(0u8..8, 0..400)) {
            let mut rrb = Rrb::default();
            for step in steps {
                if step == 0 {
                    rrb.clear();
                } else {
                    rrb.rotate();
                }
                proptest::prop_assert_eq!(rrb.fr, rrb.gr);
                proptest::prop_assert_eq!(rrb.pr, rrb.gr % ROT_PR_SIZE);
            }
        }
    }

    #[test]
    fn clear_resets_bases() {
        let mut rrb = Rrb::default();
        rrb.rotate();
        assert_ne!(rrb, Rrb::default());
        rrb.clear();
        assert_eq!(rrb, Rrb::default());
    }

    #[test]
    fn mapping_stays_in_region() {
        let mut rrb = Rrb::default();
        for step in 0..200 {
            rrb.rotate();
            for v in 0..=127u8 {
                let g = rrb.map_gr(v);
                let f = rrb.map_fr(v);
                if v >= ROT_GR_BASE {
                    assert!(g >= ROT_GR_BASE, "step {step} vreg {v} mapped to {g}");
                } else {
                    assert_eq!(g, v);
                }
                assert!(f < 128);
            }
            for v in 0..64u8 {
                let p = rrb.map_pr(v);
                assert!(p < 64);
                if v >= ROT_PR_BASE {
                    assert!(p >= ROT_PR_BASE);
                }
            }
        }
    }
}
