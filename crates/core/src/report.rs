//! What COBRA did to a run — deployment log and bookkeeping, used by the
//! harness to explain each experiment's result.

use cobra_isa::CodeAddr;
use serde::{Deserialize, Serialize};

use crate::optimizer::OptKind;
use crate::telemetry::TelemetryEvent;

/// One applied deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    #[serde(default)]
    pub candidate: Option<String>,
}

/// One reverted deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    #[serde(default)]
    pub guest_faults: u64,
    /// Whether the optimizer warm-started from a persisted snapshot.
    #[serde(default)]
    pub warm_started: bool,
    /// Prior decisions seeded into the optimizer at warm start.
    #[serde(default)]
    pub warm_seeded_decisions: usize,
    /// Prior blacklist entries seeded at warm start.
    #[serde(default)]
    pub warm_seeded_blacklist: usize,
    /// Seeded decisions confirmed by the live profile and fast-tracked.
    #[serde(default)]
    pub warm_hits: u64,
    /// Seeded decisions contradicted by the live profile and dropped.
    #[serde(default)]
    pub warm_mismatches: u64,
    /// Hot loops skipped because a body word no longer decodes.
    #[serde(default)]
    pub undecodable_loops: u64,
    /// Plans or warm seeds rejected by the `cobra-verify` deploy gate
    /// (each rejection blacklists its loop or drops its seed).
    #[serde(default)]
    pub verify_rejects: u64,
    /// Damaged store records skipped while loading the snapshot.
    #[serde(default)]
    pub store_skipped_records: u64,
    /// Store load/save failures (each degrades gracefully and is counted).
    #[serde(default)]
    pub store_errors: u64,
    /// Records in the snapshot saved at detach (0 when no store configured).
    #[serde(default)]
    pub store_saved_records: u64,
    /// Reverts that failed mid-restore on the live image (each one stops
    /// the revert and poisons its loop — never panics).
    #[serde(default)]
    pub revert_failures: u64,
    /// Deployments that failed mid-apply and were rolled back.
    #[serde(default)]
    pub deploy_failures: u64,
    /// Tournament candidate trials completed (deploy + revert pairs).
    #[serde(default)]
    pub candidates_trialed: u64,
    /// Tournaments that ended by promoting a winner.
    #[serde(default)]
    pub tournaments_promoted: u64,
    /// Pre-decoded basic blocks lowered by the dispatch engine.
    #[serde(default)]
    pub block_builds: u64,
    /// Block-cache invalidation rounds forced by patch/revert/append.
    #[serde(default)]
    pub block_invalidations: u64,
    /// Cycles the fast engine ran one at a time instead of in a stretch
    /// (sum of the per-reason counters below).
    #[serde(default)]
    pub block_fallback_cycles: u64,
    /// Fallback cycles at a lockstep multicore memory boundary (no safe
    /// horizon: some running core sits at or near a memory-capable uop).
    #[serde(default)]
    pub block_fallback_mem_boundary: u64,
    /// Fallback cycles at an HPM sampling crossing.
    #[serde(default)]
    pub block_fallback_sampling: u64,
    /// Lockstep multicore stretches executed by the block engine.
    #[serde(default)]
    pub block_horizon_stretches: u64,
    /// Machine cycles covered by lockstep multicore stretches.
    #[serde(default)]
    pub block_horizon_cycles: u64,
    /// Detach snapshots uploaded to the fleet aggregation server.
    #[serde(default)]
    pub fleet_uploads: u64,
    /// Warm seeds obtained from the fleet server at attach.
    #[serde(default)]
    pub fleet_seeds: u64,
    /// Fleet requests that failed (each degraded to local store, then
    /// cold — counted, telemetered, never fatal).
    #[serde(default)]
    pub fleet_errors: u64,
    /// Back edges diverted into a freshly deployed trace version by armed
    /// OSR redirects (mid-loop forward migrations).
    #[serde(default)]
    pub osr_migrations: u64,
    /// Back edges diverted out of a reverted trace clone back to the
    /// original body (mid-loop reverse migrations).
    #[serde(default)]
    pub osr_reverse_migrations: u64,
    /// Deployments whose OSR state mapping `cobra-verify::check_osr_map`
    /// could not prove; each degraded to entry-only transfer.
    #[serde(default)]
    pub osr_rejects: u64,
    /// Summed ticks from each version transfer (deploy or revert) until
    /// every thread ran the intended version — the time-to-optimized
    /// metric. Tracked whether or not OSR is armed, so `.osr(false)` runs
    /// report the entry-only convergence time for comparison.
    #[serde(default)]
    pub ticks_to_all_optimized: u64,
}

impl CobraReport {
    /// Fold one pipeline event into the counters it implies. This is the
    /// only writer of every field named here: the run's report
    /// (`Telemetry::emit`) and a trace's summary
    /// (`TraceSummary::from_records`) both go through it, so they agree by
    /// construction.
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
            E::RevertFailed { .. } => self.revert_failures += 1,
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
            E::Quantum { .. }
            | E::KernelDrain { .. }
            | E::UsbLevel { .. }
            | E::LoopClassified { .. }
            | E::Deploy { .. }
            | E::CpiTrial { .. }
            | E::Revert { .. }
            | E::Blacklist { .. }
            | E::Detach { .. } => {}
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

    #[test]
    fn report_accounting() {
        let mut r = CobraReport::default();
        r.applied.push(AppliedPlan {
            plan_id: 0,
            kind: OptKind::NoPrefetch,
            loop_head: 10,
            description: "x".into(),
            tick: 1,
            words_patched: 3,
            trace_entry: None,
            candidate: None,
        });
        r.applied.push(AppliedPlan {
            plan_id: 1,
            kind: OptKind::ExclHint,
            loop_head: 90,
            description: "y".into(),
            tick: 2,
            words_patched: 2,
            trace_entry: Some(300),
            candidate: None,
        });
        r.reverted.push(RevertedPlan {
            plan_id: 1,
            reason: "regressed".into(),
            tick: 5,
        });
        assert_eq!(r.active_deployments(), 1);
        assert_eq!(r.applied_of_kind(OptKind::NoPrefetch), 1);
        assert_eq!(r.applied_of_kind(OptKind::ExclHint), 1);
        assert!(r.summary().contains("2 deployments"));
        assert!(r.summary().contains("1 reverts"));
    }

    /// Reports serialized before `guest_faults` existed must
    /// still deserialize (the fields default to 0).
    #[test]
    fn old_reports_without_new_fields_still_load() {
        let mut old = serde_json::to_value(&CobraReport {
            samples_forwarded: 7,
            ..CobraReport::default()
        })
        .expect("serializes");
        if let serde::Value::Object(fields) = &mut old {
            fields.retain(|(k, _)| {
                k != "guest_faults"
                    && !k.starts_with("warm_")
                    && !k.starts_with("store_")
                    && k != "undecodable_loops"
                    && k != "verify_rejects"
                    && !k.starts_with("block_")
                    && !k.starts_with("fleet_")
                    && k != "revert_failures"
                    && k != "deploy_failures"
                    && k != "candidates_trialed"
                    && k != "tournaments_promoted"
                    && !k.starts_with("osr_")
                    && k != "ticks_to_all_optimized"
            });
        } else {
            panic!("report serializes to an object");
        }
        let r: CobraReport = serde_json::from_value(&old).expect("tolerant deserialize");
        assert_eq!(r.samples_forwarded, 7);
        assert_eq!(r.guest_faults, 0);
        assert!(!r.warm_started);
        assert_eq!(r.warm_hits, 0);
        assert_eq!(r.store_skipped_records, 0);
        assert_eq!(r.fleet_uploads, 0);
        assert_eq!(r.fleet_seeds, 0);
        assert_eq!(r.fleet_errors, 0);
        assert_eq!(r.block_builds, 0);
        assert_eq!(r.block_fallback_cycles, 0);
        assert_eq!(r.block_fallback_mem_boundary, 0);
        assert_eq!(r.block_horizon_stretches, 0);
        assert_eq!(r.osr_migrations, 0);
        assert_eq!(r.osr_reverse_migrations, 0);
        assert_eq!(r.osr_rejects, 0);
        assert_eq!(r.ticks_to_all_optimized, 0);
    }
}
