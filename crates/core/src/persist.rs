//! The run's profile as `cobra-store` keeps it.
//!
//! `cobra-store` sits *below* this crate in the dependency graph (it only
//! knows `cobra-isa`/`cobra-machine`), so it cannot name [`SystemProfile`]
//! and keeps a plain-field mirror of it, [`ProfileRecord`]. The decisions,
//! winners and blacklist need no such bridge: the optimizer exports and
//! warm-starts from the store's own records
//! (`Optimizer::export_state` / `Optimizer::warm_start`).

use cobra_store::{BranchPairRecord, DelinquentRecord, ProfileRecord};

use crate::profile::SystemProfile;

/// Flatten a [`SystemProfile`] into a store record (entries sorted by pc /
/// branch pair for deterministic serialization).
pub(crate) fn profile_record(profile: &SystemProfile) -> ProfileRecord {
    let w = &profile.window;
    let mut delinquent: Vec<DelinquentRecord> = profile
        .delinquent
        .iter()
        .map(|(&pc, s)| DelinquentRecord {
            pc,
            coherent: s.coherent,
            memory: s.memory,
            total_latency: s.total_latency,
        })
        .collect();
    delinquent.sort_by_key(|d| d.pc);
    let mut branch_pairs: Vec<BranchPairRecord> = profile
        .branch_pairs
        .iter()
        .map(|(&(src, target), &count)| BranchPairRecord { src, target, count })
        .collect();
    branch_pairs.sort_by_key(|p| (p.src, p.target));
    ProfileRecord {
        instructions: w.instructions,
        cycles: w.cycles,
        bus_memory: w.bus_memory,
        bus_coherent: w.bus_coherent,
        l2_miss: w.l2_miss,
        l3_miss: w.l3_miss,
        samples: profile.samples,
        delinquent,
        branch_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CounterWindow, LatencyBands, ProfileDelta};

    #[test]
    fn profile_record_flattens_sorted() {
        let mut sp = SystemProfile::new(LatencyBands { coherent_min: 165 });
        let mut delta = ProfileDelta {
            samples: 10,
            window: CounterWindow {
                instructions: 1000,
                cycles: 1500,
                bus_memory: 7,
                bus_coherent: 3,
                l2_miss: 5,
                l3_miss: 2,
            },
            ..ProfileDelta::default()
        };
        delta.dear_events.push((90, 200));
        delta.dear_events.push((20, 200));
        delta.branch_pairs.push((50, 30));
        delta.branch_pairs.push((9, 5));
        sp.absorb(&delta);
        let rec = profile_record(&sp);
        assert_eq!(rec.samples, 10);
        assert_eq!(rec.instructions, 1000);
        let pcs: Vec<u32> = rec.delinquent.iter().map(|d| d.pc).collect();
        assert_eq!(pcs, {
            let mut s = pcs.clone();
            s.sort_unstable();
            s
        });
        assert_eq!(rec.branch_pairs[0].src, 9);
    }
}
