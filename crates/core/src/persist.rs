//! Bridge between the runtime's in-memory state and `cobra-store`'s
//! plain-field snapshot records.
//!
//! `cobra-store` sits *below* this crate in the dependency graph (it only
//! knows `cobra-isa`/`cobra-machine`), so it mirrors the profile and
//! decision shapes instead of referencing [`SystemProfile`] directly (the
//! rewrite kind it stores by `cobra-isa`'s name for it). This module owns
//! the two-way conversion:
//!
//! * at detach, the optimization stage's [`OptFinal`] becomes a
//!   [`Snapshot`] (sorted, so snapshots serialize deterministically);
//! * at attach, a loaded snapshot becomes a [`WarmSeed`] — only
//!   non-reverted decisions seed deployments; reverted ones travel through
//!   the blacklist so a warm run never re-trials a known regression.

use cobra_store::{
    BranchPairRecord, DecisionRecord, DelinquentRecord, ProfileRecord, Snapshot, StoreKey,
    WinnerRecord,
};

use crate::monitor::OptFinal;
use crate::optimizer::{OptKind, WarmSeed};
use crate::profile::SystemProfile;

/// Flatten a [`SystemProfile`] into a store record (entries sorted by pc /
/// branch pair for deterministic serialization).
pub fn profile_record(profile: &SystemProfile) -> ProfileRecord {
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

/// Build the snapshot one finished run contributes (`runs = 1`; the
/// framework folds it into the prior snapshot, or an empty one, before
/// saving, and uploads it as it is).
pub fn snapshot_from_final(key: StoreKey, fin: &OptFinal) -> Snapshot {
    let mut snap = Snapshot::empty(key);
    snap.runs = 1;
    snap.profile = profile_record(&fin.cumulative);
    snap.decisions = fin
        .decisions
        .iter()
        .map(|d| DecisionRecord {
            loop_head: d.loop_head,
            kind: d.kind.name().to_string(),
            reverted: d.reverted,
            baseline_cpi: d.baseline_cpi,
            post_cpi: d.post_cpi,
        })
        .collect();
    // Tournament winners still standing at detach: a warm run resumes these
    // directly instead of re-running the tournament. Decisions are already
    // sorted by loop head, so winners are too.
    snap.winners = fin
        .decisions
        .iter()
        .filter(|d| !d.reverted)
        .filter_map(|d| {
            d.candidate.as_ref().map(|candidate| WinnerRecord {
                loop_head: d.loop_head,
                candidate: candidate.clone(),
                kind: d.kind.name().to_string(),
                trials: d.trials.clone(),
            })
        })
        .collect();
    snap.blacklist = fin.blacklist.clone();
    snap
}

/// Turn a loaded snapshot into optimizer seeds. Decisions whose kind no
/// longer parses are dropped (the store already filters unknown kinds, but
/// defense in depth is free here); reverted decisions become blacklist
/// entries rather than deploy seeds.
pub fn seed_from_snapshot(snap: &Snapshot) -> WarmSeed {
    let mut seed = WarmSeed::default();
    for d in &snap.decisions {
        let Some(kind) = OptKind::from_name(&d.kind) else {
            continue;
        };
        if d.reverted {
            seed.blacklist.push(d.loop_head);
        } else {
            seed.decisions.push((d.loop_head, kind));
        }
    }
    seed.blacklist.extend(snap.blacklist.iter().copied());
    seed.blacklist.sort_unstable();
    seed.blacklist.dedup();
    for w in &snap.winners {
        if !seed.blacklist.contains(&w.loop_head) {
            seed.winners.push((w.loop_head, w.candidate.clone()));
        }
    }
    seed
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
        delta.dear_events.push((90, 0x100, 200));
        delta.dear_events.push((20, 0x200, 200));
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

    #[test]
    fn seed_routes_reverted_decisions_to_blacklist() {
        let key = StoreKey {
            image_hash: 1,
            machine_fp: 2,
        };
        let mut snap = Snapshot::empty(key);
        snap.decisions = vec![
            DecisionRecord {
                loop_head: 10,
                kind: "noprefetch".into(),
                reverted: false,
                baseline_cpi: 1.0,
                post_cpi: Some(0.9),
            },
            DecisionRecord {
                loop_head: 20,
                kind: "prefetch.excl".into(),
                reverted: true,
                baseline_cpi: 1.0,
                post_cpi: Some(2.0),
            },
        ];
        snap.blacklist = vec![30, 20];
        let seed = seed_from_snapshot(&snap);
        assert_eq!(seed.decisions, vec![(10, OptKind::NoPrefetch)]);
        assert_eq!(seed.blacklist, vec![20, 30]);
        assert!(seed.winners.is_empty());
    }

    /// A surviving tournament winner is stored as a decision *and* a winner
    /// at the same head; when that head no longer heads a loop in the live
    /// image it is verified, rejected and counted once, and neither seed survives.
    #[test]
    fn stale_winner_head_is_rejected_once() {
        let key = StoreKey {
            image_hash: 1,
            machine_fp: 2,
        };
        let mut snap = Snapshot::empty(key);
        snap.decisions = vec![DecisionRecord {
            loop_head: 0,
            kind: "combined".into(),
            reverted: false,
            baseline_cpi: 1.4,
            post_cpi: Some(1.1),
        }];
        snap.winners = vec![WinnerRecord {
            loop_head: 0,
            candidate: "combined.split".into(),
            kind: "combined".into(),
            trials: vec![],
        }];
        let seed = seed_from_snapshot(&snap);
        assert_eq!((seed.decisions.len(), seed.winners.len()), (1, 1));
        // Straight-line text: nothing branches back to address 0.
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.addi(5, 5, 1);
            a.hlt();
            a.finish()
        };
        let mut opt = crate::optimizer::Optimizer::new(Default::default(), image);
        opt.warm_start(seed);
        let events: Vec<_> = opt.drain_events().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category(), "verify_reject");
    }

    #[test]
    fn winners_round_trip_and_blacklisted_winners_are_dropped() {
        let key = StoreKey {
            image_hash: 1,
            machine_fp: 2,
        };
        let fin = OptFinal {
            decisions: vec![
                crate::optimizer::DecisionExport {
                    loop_head: 10,
                    kind: OptKind::Combined,
                    reverted: false,
                    baseline_cpi: 1.4,
                    post_cpi: Some(1.1),
                    candidate: Some("combined.split".into()),
                    trials: vec![("noprefetch".into(), 1.3), ("combined.split".into(), 1.1)],
                },
                // A reverted tournament winner must not become a seed.
                crate::optimizer::DecisionExport {
                    loop_head: 20,
                    kind: OptKind::NoPrefetch,
                    reverted: true,
                    baseline_cpi: 1.0,
                    post_cpi: Some(2.0),
                    candidate: Some("noprefetch".into()),
                    trials: vec![],
                },
                // Classic deployments export no candidate, hence no winner.
                crate::optimizer::DecisionExport {
                    loop_head: 30,
                    kind: OptKind::ExclHint,
                    reverted: false,
                    baseline_cpi: 1.2,
                    post_cpi: None,
                    candidate: None,
                    trials: vec![],
                },
            ],
            blacklist: vec![20],
            cumulative: SystemProfile::new(LatencyBands { coherent_min: 165 }),
        };
        let snap = snapshot_from_final(key, &fin);
        assert_eq!(snap.winners.len(), 1);
        assert_eq!(snap.winners[0].loop_head, 10);
        assert_eq!(snap.winners[0].kind, "combined");
        let seed = seed_from_snapshot(&snap);
        assert_eq!(seed.winners, vec![(10, "combined.split".to_string())]);
    }
}
