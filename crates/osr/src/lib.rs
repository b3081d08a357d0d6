//! # cobra-osr — on-stack replacement maps for mid-loop version transfer
//!
//! A COBRA deployment creates a second version of a hot loop: a rewritten
//! clone is appended to the trace cache and the loop head is redirected into
//! it. Threads *already inside* the loop keep running whichever version
//! their program counter points at; without help they only pick up the other
//! version when control next flows through the patched head — and after a
//! revert they keep running the stale clone until the loop finishes
//! naturally, which on long loops means whole quanta of the wrong version.
//!
//! An [`OsrMap`] is the compensation recipe of *On-Stack Replacement à la
//! Carte* (D'Elia & Demetrescu) specialized to COBRA's rewrites: a PC
//! correspondence between the original body `[loop_head, back_edge]` and the
//! deployed version, plus the register-state obligations under which a
//! thread may jump between versions at any mapped point. A clone copies the
//! body slot for slot, so the correspondence is one fixed offset and the map
//! is three addresses — total by construction. Because the only
//! allowed rewrites are `lfetch` removal and `.excl` hint flips, the state
//! mapping is the identity on every piece of architected state except the
//! base registers of *removed* post-incrementing prefetches — those diverge
//! between versions, and migration is sound only if they are dead (never
//! read by a binding instruction before redefinition). [`obligations`]
//! computes that scratch set syntactically; `cobra-verify::check_osr_map`
//! discharges it with the flow-sensitive reaching-use walk before a map is
//! ever armed on the machine.
//!
//! This crate is deliberately `cobra-isa`-only: it owns the mapping calculus
//! (layout math, reversal, obligations) and stays independent of both the
//! optimizer that emits versions and the machine that applies migrations.

use cobra_isa::insn::{Insn, Op};
use cobra_isa::CodeAddr;

/// A verified-before-armed state mapping between an original loop body and
/// a deployed version of it.
///
/// The map is its layout: address `a` of the source body
/// `[loop_head, back_edge]` corresponds to `version_start + (a - loop_head)`
/// in the version (the bundle-aligned trace-cache landing point of the
/// clone, or the original head for a reversed map). It is therefore
/// **total** by construction — wherever inside the body a thread's taken
/// branch lands, the map has a destination for it, which is what makes
/// arming safe at *any* taken branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsrMap {
    /// Deployment plan this map migrates threads toward (or away from,
    /// after [`OsrMap::reversed`]).
    pub plan_id: u64,
    /// First instruction of the *source* version's body.
    pub loop_head: CodeAddr,
    /// Back-edge branch of the source version's body (inclusive bound).
    pub back_edge: CodeAddr,
    /// First instruction of the *destination* version.
    pub version_start: CodeAddr,
}

impl OsrMap {
    /// Map for a trace-cache clone deployment: the clone of
    /// `[loop_head, back_edge]` lands at `version_start`, so original
    /// address `a` corresponds to `version_start + (a - loop_head)`.
    pub fn for_trace(
        plan_id: u64,
        loop_head: CodeAddr,
        back_edge: CodeAddr,
        version_start: CodeAddr,
    ) -> OsrMap {
        debug_assert!(back_edge >= loop_head);
        OsrMap {
            plan_id,
            loop_head,
            back_edge,
            version_start,
        }
    }

    /// Instructions in the mapped body.
    pub fn body_len(&self) -> usize {
        (self.back_edge - self.loop_head + 1) as usize
    }

    /// The reverse migration: threads running the deployed version map back
    /// onto the original body (used when a deployment is reverted). Source
    /// and destination swap, so [`OsrMap::reversed`] is an involution.
    pub fn reversed(&self) -> OsrMap {
        OsrMap {
            plan_id: self.plan_id,
            loop_head: self.version_start,
            back_edge: self.version_start + (self.back_edge - self.loop_head),
            version_start: self.loop_head,
        }
    }

    /// Inclusive source range this map migrates threads out of.
    pub fn source_range(&self) -> (CodeAddr, CodeAddr) {
        (self.loop_head, self.back_edge)
    }
}

/// Register-state obligations of a migration between two versions of a
/// body.
///
/// All architected thread state — general registers, floating registers,
/// predicates, `ar.lc`, `ar.ec` and the rotation bases — transfers
/// verbatim: the allowed rewrites never change an architected definition,
/// so at every mapped PC the two versions agree on what each register
/// holds. The single exception is `scratch_grs`: the base registers of
/// removed post-incrementing `lfetch`es, which the original version keeps
/// advancing and the deployed version does not. A migration is sound only
/// if each of them is *dead* — never read by a binding (non-prefetch)
/// instruction before an unpredicated redefinition — which
/// `cobra-verify::check_osr_map` proves with its reaching-use walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Obligations {
    /// Base registers allowed to diverge between versions, in body order,
    /// deduplicated. Each must be proven dead before the map is armed.
    pub scratch_grs: Vec<u8>,
}

impl std::fmt::Display for Obligations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.scratch_grs.is_empty() {
            write!(f, "all architected state version-invariant")
        } else {
            write!(
                f,
                "version-invariant except scratch base register(s) {}",
                self.scratch_grs
                    .iter()
                    .map(|r| format!("r{r}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    }
}

/// Compute the obligations for migrating between `original` and `version`
/// (the two bodies, in mapped order, `version` possibly longer — trailing
/// instructions such as a trace exit branch are ignored).
///
/// The scratch set is syntactic: wherever the original holds a
/// post-incrementing `lfetch` and the version holds anything else, the base
/// register's advance was removed and the two versions disagree on it from
/// that slot onward. Hint flips and identical slots impose nothing.
pub fn obligations(original: &[Insn], version: &[Insn]) -> Obligations {
    let mut scratch_grs: Vec<u8> = Vec::new();
    for (orig, ver) in original.iter().zip(version.iter()) {
        if let Op::Lfetch { base, post_inc, .. } = orig.op {
            if post_inc != 0 && !ver.is_lfetch() && !scratch_grs.contains(&base) {
                scratch_grs.push(base);
            }
        }
    }
    Obligations { scratch_grs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_isa::insn::Op;
    use cobra_isa::{LfetchHint, NOP_SLOT_M};

    fn lfetch(base: u8, post_inc: i32) -> Insn {
        Insn::new(Op::Lfetch {
            base,
            post_inc,
            hint: LfetchHint::Nt1,
            excl: false,
        })
    }

    #[test]
    fn for_trace_is_the_layout() {
        let m = OsrMap::for_trace(7, 40, 43, 96);
        assert_eq!(m.body_len(), 4);
        assert_eq!(m.source_range(), (40, 43));
        assert_eq!(m.version_start, 96);
    }

    #[test]
    fn reversed_is_an_involution_and_swaps_ranges() {
        let m = OsrMap::for_trace(9, 40, 43, 96);
        let r = m.reversed();
        assert_eq!(r.source_range(), (96, 99));
        assert_eq!(r.version_start, 40);
        assert_eq!(r.body_len(), m.body_len());
        assert_eq!(r.reversed(), m);
    }

    #[test]
    fn obligations_collect_removed_postinc_bases_only() {
        let body = [lfetch(27, 8), lfetch(28, 0), lfetch(29, 8), lfetch(27, 8)];
        // Slot 0 removed (post-inc base r27 diverges), slot 1 removed but
        // has no post-increment, slot 2 hint-flipped (still an lfetch),
        // slot 3 removed — r27 already recorded.
        let version = [
            NOP_SLOT_M,
            NOP_SLOT_M,
            Insn::new(Op::Lfetch {
                base: 29,
                post_inc: 8,
                hint: LfetchHint::Nt1,
                excl: true,
            }),
            NOP_SLOT_M,
        ];
        let ob = obligations(&body, &version);
        assert_eq!(ob.scratch_grs, vec![27]);
        assert!(ob.to_string().contains("r27"));

        let none = obligations(&body, &body);
        assert!(none.scratch_grs.is_empty());
        assert_eq!(none.to_string(), "all architected state version-invariant");
    }
}
