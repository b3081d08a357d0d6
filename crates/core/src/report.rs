//! What COBRA did to a run — deployment log and bookkeeping, used by the
//! harness to explain each experiment's result.

use cobra_isa::CodeAddr;
use serde::{Deserialize, Serialize};

use crate::optimizer::OptKind;
use crate::telemetry::TelemetryEvent;

/// One applied deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppliedPlan {
    pub plan_id: u64,
    pub kind: OptKind,
    pub loop_head: CodeAddr,
    pub description: String,
    /// Quantum tick at which it was deployed.
    pub tick: u64,
    /// Words written (address count).
    pub words_patched: usize,
    /// Trace-cache entry, if trace-deployed.
    pub trace_entry: Option<CodeAddr>,
    /// Tournament candidate name (trial, promoted winner, or warm-resumed
    /// winner); `None` for classic one-shot deployments.
    pub candidate: Option<String>,
}

/// One reverted deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RevertedPlan {
    pub plan_id: u64,
    pub reason: String,
    pub tick: u64,
}

/// Full activity report for one attached run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CobraReport {
    /// Samples captured by the perfmon driver and forwarded to monitors.
    pub samples_forwarded: u64,
    /// Samples merged by the optimization stage.
    pub samples_merged: u64,
    /// Quantum ticks processed.
    pub ticks: u64,
    /// Parallel-region forks observed.
    pub forks: u64,
    /// Monitors created (one per forked working thread).
    pub monitors_spawned: usize,
    /// Phase changes detected.
    pub phase_changes: u64,
    /// Deployments applied, in order.
    pub applied: Vec<AppliedPlan>,
    /// Deployments reverted, in order.
    pub reverted: Vec<RevertedPlan>,
    /// Cycles charged to the machine for helper-thread overhead.
    pub overhead_cycles: u64,
    /// Telemetry records the sink accepted (0 when telemetry is off).
    pub telemetry_records: u64,
    /// Telemetry records the sink did not take: over a tick's capacity, or
    /// refused by a failing writer.
    pub telemetry_dropped: u64,
    /// Guest memory faults taken by working threads over the run.
    pub guest_faults: u64,
    /// Whether the optimizer warm-started from a persisted snapshot.
    pub warm_started: bool,
    /// Prior decisions seeded into the optimizer at warm start.
    pub warm_seeded_decisions: usize,
    /// Prior blacklist entries seeded at warm start.
    pub warm_seeded_blacklist: usize,
    /// Seeded decisions confirmed by the live profile and fast-tracked.
    pub warm_hits: u64,
    /// Seeded decisions contradicted by the live profile and dropped.
    pub warm_mismatches: u64,
    /// Hot loops skipped because a body word no longer decodes.
    pub undecodable_loops: u64,
    /// Plans or warm seeds rejected by the `cobra-verify` deploy gate
    /// (each rejection blacklists its loop or drops its seed).
    pub verify_rejects: u64,
    /// Damaged store records skipped while loading the snapshot.
    pub store_skipped_records: u64,
    /// Store load/save failures (each degrades gracefully and is counted).
    pub store_errors: u64,
    /// Records in the snapshot saved at detach (0 when no store configured).
    pub store_saved_records: u64,
    /// Reverts that failed mid-restore on the live image (each one stops
    /// the revert and poisons its loop — never panics).
    pub revert_failures: u64,
    /// Deployments that failed mid-apply and were rolled back.
    pub deploy_failures: u64,
    /// Tournament candidate trials completed (deploy + revert pairs).
    pub candidates_trialed: u64,
    /// Tournaments that ended by promoting a winner.
    pub tournaments_promoted: u64,
    /// Detach snapshots uploaded to the fleet aggregation server.
    pub fleet_uploads: u64,
    /// Warm seeds obtained from the fleet server at attach.
    pub fleet_seeds: u64,
    /// Fleet requests that failed (each degraded to local store, then
    /// cold — counted, telemetered, never fatal).
    pub fleet_errors: u64,
    /// Back edges diverted into a freshly deployed trace version by armed
    /// OSR redirects (mid-loop forward migrations).
    pub osr_migrations: u64,
    /// Back edges diverted out of a reverted trace clone back to the
    /// original body (mid-loop reverse migrations).
    pub osr_reverse_migrations: u64,
    /// Deployments whose OSR state mapping `cobra-verify::check_osr_map`
    /// could not prove; each degraded to entry-only transfer.
    pub osr_rejects: u64,
    /// Summed ticks from each version transfer (deploy or revert) until
    /// every thread ran the intended version — the time-to-optimized
    /// metric. Tracked whether or not OSR is armed, so `.osr(false)` runs
    /// report the entry-only convergence time for comparison.
    pub ticks_to_all_optimized: u64,
}

impl CobraReport {
    /// Fold one pipeline event into the report. This is the only writer of
    /// every field (beside [`crate::Telemetry`]'s own count of what became
    /// of each record, `telemetry_records` / `telemetry_dropped`): the run's
    /// report (`Telemetry::emit`) and a replay of its trace (`cobra-repro
    /// trace`) both go through it, so they agree by construction. A
    /// moment's quantities ride the event that marks the moment; run totals
    /// no single moment owns ride `Detach`.
    pub fn observe(&mut self, event: &TelemetryEvent) {
        use TelemetryEvent as E;
        match event {
            E::PhaseChange { .. } => self.phase_changes += 1,
            E::UndecodableLoop { .. } => self.undecodable_loops += 1,
            E::VerifyReject { .. } => self.verify_rejects += 1,
            E::CandidateTrial { .. } => self.candidates_trialed += 1,
            E::TournamentOutcome { promoted, .. } => {
                self.tournaments_promoted += u64::from(*promoted)
            }
            E::WarmVerdict { hit: true, .. } => self.warm_hits += 1,
            E::WarmVerdict { hit: false, .. } => self.warm_mismatches += 1,
            E::Deploy { plan, .. } => self.applied.push(plan.clone()),
            E::Revert { plan, .. } => self.reverted.push(plan.clone()),
            E::RevertFailed { plan, .. } => {
                self.revert_failures += 1;
                self.reverted.push(plan.clone());
            }
            E::DeployFailed { .. } => self.deploy_failures += 1,
            E::OsrRejected { .. } => self.osr_rejects += 1,
            E::OsrMigrate {
                migrations,
                ticks_since_deploy: ticks,
                ..
            }
            | E::OsrRevert {
                migrations,
                ticks_since_revert: ticks,
                ..
            } => {
                self.ticks_to_all_optimized += ticks;
                if matches!(event, E::OsrMigrate { .. }) {
                    self.osr_migrations += migrations;
                } else {
                    self.osr_reverse_migrations += migrations;
                }
            }
            E::WarmStart {
                seeded_decisions,
                seeded_blacklist,
                ..
            }
            | E::FleetSeed {
                seeded_decisions,
                seeded_blacklist,
                ..
            } => {
                self.warm_started = true;
                self.warm_seeded_decisions = *seeded_decisions;
                self.warm_seeded_blacklist = *seeded_blacklist;
                self.fleet_seeds += u64::from(matches!(event, E::FleetSeed { .. }));
            }
            E::FleetUpload { .. } => self.fleet_uploads += 1,
            E::FleetError { .. } => self.fleet_errors += 1,
            E::StoreError { .. } => self.store_errors += 1,
            E::StoreSave { records, .. } => self.store_saved_records = *records as u64,
            E::Detach { totals: t, .. } => {
                // A no-op on the live run (the value was read from this
                // report); on replay, what the run had dropped by then.
                self.telemetry_dropped = t.records_dropped;
                self.ticks = t.ticks;
                self.forks = t.forks;
                self.monitors_spawned = t.monitors_spawned;
                self.samples_forwarded = t.samples_forwarded;
                self.samples_merged = t.samples_merged;
                self.overhead_cycles = t.overhead_cycles;
                self.guest_faults = t.guest_faults;
                self.store_skipped_records = t.store_skipped_records;
            }
            E::Attach { .. }
            | E::Quantum { .. }
            | E::KernelDrain { .. }
            | E::LoopClassified { .. }
            | E::CpiTrial { .. }
            | E::Blacklist { .. } => {}
        }
    }

    /// Deployments still in effect at the end of the run.
    pub fn active_deployments(&self) -> usize {
        self.applied
            .iter()
            .filter(|a| !self.reverted.iter().any(|r| r.plan_id == a.plan_id))
            .count()
    }

    /// Count of applied deployments of one kind.
    pub fn applied_of_kind(&self, kind: OptKind) -> usize {
        self.applied.iter().filter(|a| a.kind == kind).count()
    }

    /// One-line summary for experiment tables. Tournament and failure
    /// counters only appear when non-zero, so classic runs keep their
    /// PR 6-era summary byte-identical.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} deployments ({} noprefetch, {} excl), {} reverts, {} phase changes, {} samples",
            self.applied.len(),
            self.applied_of_kind(OptKind::NoPrefetch),
            self.applied_of_kind(OptKind::ExclHint),
            self.reverted.len(),
            self.phase_changes,
            self.samples_merged,
        );
        if self.candidates_trialed > 0 || self.tournaments_promoted > 0 {
            s.push_str(&format!(
                ", {} candidate trials, {} tournaments won",
                self.candidates_trialed, self.tournaments_promoted,
            ));
        }
        if self.revert_failures > 0 || self.deploy_failures > 0 {
            s.push_str(&format!(
                ", {} revert failures, {} deploy failures",
                self.revert_failures, self.deploy_failures,
            ));
        }
        if self.osr_migrations > 0 || self.osr_reverse_migrations > 0 || self.osr_rejects > 0 {
            s.push_str(&format!(
                ", {} osr migrations ({} reverse, {} rejects)",
                self.osr_migrations, self.osr_reverse_migrations, self.osr_rejects,
            ));
        }
        if self.ticks_to_all_optimized > 0 {
            s.push_str(&format!(
                ", {} ticks to all-optimized",
                self.ticks_to_all_optimized,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deploy(plan_id: u64, kind: OptKind, tick: u64) -> TelemetryEvent {
        TelemetryEvent::Deploy {
            cycle: tick * 1000,
            plan: AppliedPlan {
                plan_id,
                kind,
                loop_head: 10,
                description: "x".into(),
                tick,
                words_patched: 3,
                trace_entry: None,
                candidate: None,
            },
        }
    }

    /// The timelines are the plans the events carried; a failed revert is
    /// still a reverted plan.
    #[test]
    fn report_accounting() {
        let mut r = CobraReport::default();
        r.observe(&deploy(0, OptKind::NoPrefetch, 1));
        r.observe(&deploy(1, OptKind::ExclHint, 2));
        r.observe(&deploy(2, OptKind::ExclHint, 3));
        let reverted = |plan_id, tick| RevertedPlan {
            plan_id,
            reason: "regressed".into(),
            tick,
        };
        r.observe(&TelemetryEvent::Revert {
            cycle: 5000,
            plan: reverted(1, 5),
        });
        r.observe(&TelemetryEvent::RevertFailed {
            cycle: 6000,
            loop_head: 10,
            addr: 44,
            words_restored: 1,
            detail: "out of range".into(),
            plan: reverted(2, 6),
        });
        assert_eq!(r.active_deployments(), 1);
        assert_eq!(r.applied_of_kind(OptKind::NoPrefetch), 1);
        assert_eq!(r.applied_of_kind(OptKind::ExclHint), 2);
        assert!(r.summary().contains("3 deployments"));
        assert!(r.summary().contains("2 reverts"));
        assert_eq!(r.reverted, [reverted(1, 5), reverted(2, 6)]);
        assert_eq!(r.revert_failures, 1);
    }
}
