//! Per-branch redirect table: the machine half of on-stack replacement.
//!
//! When COBRA deploys (or reverts) a new version of a loop, threads already
//! inside the old version only reach the new one when control next flows
//! through a patched word. The redirect table closes that gap at the only
//! architecturally clean migration point the cores have — a **taken
//! branch**: every armed entry maps a branch *target* in the old version to
//! the corresponding instruction of the new one, so a thread's next back
//! edge (or any intra-body control transfer) lands it on the deployed
//! version with its full register state carried over. The framework arms a
//! table only after `cobra-verify::check_osr_map` proved the underlying
//! state mapping total and type-correct.
//!
//! The table is consulted from `Core::take_branch`, the single commit point
//! shared by the per-cycle reference interpreter and every block-dispatch
//! engine, so all execution paths migrate identically. The empty-table fast
//! path is one length check; armed windows are short (a few quanta until
//! every thread converges), and entries are per-loop-body small, so a
//! linear scan beats any index.
//!
//! **Lockstep soundness**: the multicore safe-horizon engine bounds each
//! stretch with *static* branch targets (`BlockCache::dist_from_exit`). A
//! redirect changes the actual target, so the static memory-distance bound
//! no longer under-approximates the real path and the horizon would be
//! unsound. `Machine::run` therefore falls back to interleaved
//! (reference-faithful) block stepping while any entry is armed; the solo
//! and interleaved engines re-resolve blocks from the committed PC every
//! cycle and need no gating.

use cobra_isa::CodeAddr;

/// One armed migration edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RedirectEntry {
    /// Owning deployment plan (arming/disarming is per plan).
    plan_id: u64,
    /// Branch target in the version being migrated *away from*.
    from: CodeAddr,
    /// Corresponding instruction in the version being migrated *to*.
    to: CodeAddr,
}

/// All armed migration edges, with per-plan hit counts.
#[derive(Debug, Clone, Default)]
pub struct RedirectTable {
    entries: Vec<RedirectEntry>,
    /// `(plan_id, migrations)` — branches actually redirected per plan.
    hits: Vec<(u64, u64)>,
}

impl RedirectTable {
    /// True when no migration is armed (the per-branch fast path).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Arm `pairs` for `plan_id`, replacing anything the plan had armed
    /// before (a revert swaps a plan's forward map for its reverse map).
    /// The hit counter keeps accumulating across re-arms.
    pub fn arm(&mut self, plan_id: u64, pairs: &[(CodeAddr, CodeAddr)]) {
        self.entries.retain(|e| e.plan_id != plan_id);
        self.entries.extend(
            pairs
                .iter()
                .map(|&(from, to)| RedirectEntry { plan_id, from, to }),
        );
        if !self.hits.iter().any(|&(id, _)| id == plan_id) {
            self.hits.push((plan_id, 0));
        }
    }

    /// Disarm every entry of `plan_id`, returning the migrations it served.
    pub fn disarm(&mut self, plan_id: u64) -> u64 {
        self.entries.retain(|e| e.plan_id != plan_id);
        if let Some(pos) = self.hits.iter().position(|&(id, _)| id == plan_id) {
            self.hits.remove(pos).1
        } else {
            0
        }
    }

    /// Migrations served so far by `plan_id`'s armed entries.
    pub fn hits(&self, plan_id: u64) -> u64 {
        self.hits
            .iter()
            .find(|&&(id, _)| id == plan_id)
            .map_or(0, |&(_, n)| n)
    }

    /// Migration destination for a taken branch to `target`, if armed;
    /// counts the hit. First match wins — armed plans never overlap source
    /// ranges (each owns its own loop body or trace clone).
    #[inline]
    pub fn redirect(&mut self, target: CodeAddr) -> Option<CodeAddr> {
        let e = self.entries.iter().find(|e| e.from == target)?;
        let (plan_id, to) = (e.plan_id, e.to);
        if let Some(h) = self.hits.iter_mut().find(|(id, _)| *id == plan_id) {
            h.1 += 1;
        }
        Some(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_redirects_and_counts_hits_per_plan() {
        let mut t = RedirectTable::default();
        assert!(t.is_empty());
        t.arm(1, &[(40, 96), (41, 97)]);
        t.arm(2, &[(200, 300)]);
        assert!(!t.is_empty());
        assert_eq!(t.hits.len(), 2);
        assert_eq!(t.redirect(40), Some(96));
        assert_eq!(t.redirect(41), Some(97));
        assert_eq!(t.redirect(200), Some(300));
        assert_eq!(t.redirect(42), None);
        assert_eq!(t.hits(1), 2);
        assert_eq!(t.hits(2), 1);
    }

    #[test]
    fn rearm_replaces_entries_but_keeps_hits() {
        let mut t = RedirectTable::default();
        t.arm(1, &[(40, 96)]);
        assert_eq!(t.redirect(40), Some(96));
        // Revert: swap to the reverse map; the old edge is gone.
        t.arm(1, &[(96, 40)]);
        assert_eq!(t.redirect(40), None);
        assert_eq!(t.redirect(96), Some(40));
        assert_eq!(t.disarm(1), 2);
        assert!(t.is_empty());
        assert_eq!(t.hits(1), 0);
        assert_eq!(t.disarm(1), 0);
    }
}
