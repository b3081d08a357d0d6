//! Per-branch redirect table: the machine half of on-stack replacement.
//!
//! When COBRA deploys (or reverts) a new version of a loop, threads already
//! inside the old version only reach the new one when control next flows
//! through a patched word. The redirect table closes that gap at the only
//! architecturally clean migration point the cores have — a **taken
//! branch**: each armed plan owns one window, the body of the version being
//! migrated away from, and a branch *target* inside it lands on the
//! instruction at the same offset of the new version, so a thread's next
//! back edge (or any intra-body control transfer) lands it on the deployed
//! version with its full register state carried over. The framework arms a
//! window only after `cobra-verify::check_osr_map` proved the underlying
//! state mapping type-correct.
//!
//! The table is consulted from `Core::take_branch`, the single commit point
//! shared by the per-cycle reference interpreter and every block-dispatch
//! engine, so all execution paths migrate identically. The empty-table fast
//! path is one length check; armed windows are few (one per plan still
//! draining, for a few quanta until every thread converges), so a linear
//! scan beats any index.

use cobra_isa::CodeAddr;

/// One armed plan's migration window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    /// Owning deployment plan (arming/disarming is per plan).
    plan_id: u64,
    /// Body of the version being migrated *away from* (inclusive bounds).
    from_lo: CodeAddr,
    from_hi: CodeAddr,
    /// Where `from_lo` lands in the version being migrated *to*.
    to: CodeAddr,
    /// Branches the plan's windows redirected, kept across re-arms.
    hits: u64,
}

/// All armed migration windows, in arming order.
#[derive(Debug, Clone, Default)]
pub struct RedirectTable {
    windows: Vec<Window>,
}

impl RedirectTable {
    /// True when no migration is armed (the per-branch fast path).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Arm `plan_id`'s window `from` (inclusive) → `to`, replacing the one
    /// the plan had armed before (a revert swaps a plan's forward window
    /// for its reverse). The re-armed window goes behind every other, and
    /// its hit count keeps accumulating.
    pub fn arm(&mut self, plan_id: u64, (from_lo, from_hi): (CodeAddr, CodeAddr), to: CodeAddr) {
        let hits = self.disarm(plan_id);
        self.windows.push(Window {
            plan_id,
            from_lo,
            from_hi,
            to,
            hits,
        });
    }

    /// Disarm `plan_id`'s window, returning the migrations it served.
    pub fn disarm(&mut self, plan_id: u64) -> u64 {
        match self.windows.iter().position(|w| w.plan_id == plan_id) {
            Some(pos) => self.windows.remove(pos).hits,
            None => 0,
        }
    }

    /// Migration destination for a taken branch to `target`, if armed;
    /// counts the hit. The first-armed window wins — armed plans never
    /// overlap source ranges (each owns its own loop body or trace clone).
    #[inline]
    pub fn redirect(&mut self, target: CodeAddr) -> Option<CodeAddr> {
        let w = self
            .windows
            .iter_mut()
            .find(|w| (w.from_lo..=w.from_hi).contains(&target))?;
        w.hits += 1;
        Some(w.to + (target - w.from_lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_bounds_are_inclusive_and_the_offset_carries_over() {
        let mut t = RedirectTable::default();
        assert!(t.is_empty());
        t.arm(1, (40, 43), 96);
        assert!(!t.is_empty());
        assert_eq!(t.redirect(39), None);
        assert_eq!(t.redirect(40), Some(96));
        assert_eq!(t.redirect(42), Some(98));
        assert_eq!(t.redirect(43), Some(99));
        assert_eq!(t.redirect(44), None);
        assert_eq!(t.disarm(1), 3, "only the three redirected branches count");
        assert!(t.is_empty());
        assert_eq!(t.disarm(1), 0);
    }

    #[test]
    fn rearm_moves_the_plan_behind_the_others_and_keeps_its_hits() {
        let mut t = RedirectTable::default();
        t.arm(1, (40, 43), 96);
        t.arm(2, (96, 99), 500);
        assert_eq!(t.redirect(40), Some(96));
        // Revert: plan 1 swaps to its reverse window over the clone, which
        // plan 2's older window also covers — plan 2, armed first now, wins.
        t.arm(1, (96, 99), 40);
        assert_eq!(t.redirect(40), None, "the forward window is gone");
        assert_eq!(t.redirect(97), Some(501));
        assert_eq!(t.disarm(2), 1);
        assert_eq!(t.redirect(97), Some(41));
        assert_eq!(t.disarm(1), 2, "the forward hit carried over the re-arm");
    }

    #[test]
    fn the_first_armed_window_wins_where_two_overlap() {
        let mut t = RedirectTable::default();
        t.arm(7, (10, 20), 100);
        t.arm(3, (15, 25), 200);
        assert_eq!(t.redirect(15), Some(105));
        assert_eq!(t.redirect(21), Some(206));
        assert_eq!(t.disarm(7), 1);
        assert_eq!(t.disarm(3), 1);
    }
}
