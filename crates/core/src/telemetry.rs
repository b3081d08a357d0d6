//! Structured telemetry for the COBRA decision pipeline.
//!
//! Every stage of the Figure-4 pipeline can explain itself through typed,
//! cycle-stamped events: quantum boundaries with per-CPU HPM counter
//! snapshots, kernel-buffer drains, per-loop delinquency classifications,
//! phase-change triggers, trace-cache deployments, CPI trial windows, and
//! revert/blacklist decisions — opened by an `Attach` that names the run
//! and closed by a `Detach` that carries its totals.
//!
//! Every event takes one path, on the simulator's thread: [`Telemetry::emit`]
//! gives it its sequence number, folds it into the run's [`CobraReport`]
//! ([`CobraReport::observe`] — the report is written nowhere else), and,
//! when a sink is attached, appends it to the run's [`TelemetrySink`], an
//! in-process [`TelemetryLog`]. Nothing is dropped: the log holds every
//! record, so the report is exactly the fold of the trace. [`write_jsonl`]
//! writes a log as JSON lines, the format of `cobra-repro ...
//! --trace-out FILE`, read back by `cobra-repro trace FILE`
//! ([`read_jsonl`]).
//!
//! Records carry the sequence number assigned at emission, so a run's
//! records are totally ordered. The framework charges overhead cycles per
//! record ([`Telemetry::drain`]), which is a fixed function of the run.

use std::io::{self, BufRead, Write};
use std::sync::{Arc, Mutex};

use cobra_isa::CodeAddr;
use cobra_machine::{CpuStats, Machine};
use serde::{Deserialize, Serialize};

use crate::optimizer::{OptKind, Strategy};
use crate::report::{AppliedPlan, CobraReport, RevertedPlan};

/// One CPU's HPM counter totals at a quantum boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuCounterSnapshot {
    pub cpu: u32,
    pub inst_retired: u64,
    pub l2_miss: u64,
    pub l3_miss: u64,
    pub bus_memory: u64,
    /// Sum of the coherent snoop-response events.
    pub coherent: u64,
}

impl CpuCounterSnapshot {
    /// Snapshots for every CPU of a machine.
    pub(crate) fn all(machine: &Machine) -> Vec<CpuCounterSnapshot> {
        let snapshot = |(cpu, stats): (usize, &CpuStats)| {
            let (inst_retired, l2_miss, l3_miss, bus_memory, coherent) = stats.snapshot_counts();
            CpuCounterSnapshot {
                cpu: cpu as u32,
                inst_retired,
                l2_miss,
                l3_miss,
                bus_memory,
                coherent,
            }
        };
        machine.stats().iter().enumerate().map(snapshot).collect()
    }
}

/// One pipeline event. Variants mirror the stages of Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// The framework attached: the first record of every run, naming it, so
    /// a file of several runs delimits itself.
    Attach {
        cycle: u64,
        machine: String,
        cpus: usize,
        strategy: Strategy,
        candidates: bool,
        osr: bool,
        /// Slots of main text (the image before any trace is appended).
        main_len: u32,
    },
    /// A quantum boundary processed by the framework, with per-CPU HPM
    /// counter snapshots.
    Quantum {
        tick: u64,
        cycle: u64,
        samples_forwarded: u64,
        cpus: Vec<CpuCounterSnapshot>,
    },
    /// One CPU's kernel sampling buffer drained into its profiler.
    KernelDrain {
        tick: u64,
        cycle: u64,
        cpu: u32,
        samples: usize,
        dropped_total: u64,
    },
    /// The optimizer classified a candidate loop's prefetch behaviour.
    LoopClassified {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
        back_edge: CodeAddr,
        /// Whether the profile says the loop's prefetches are effective
        /// (worth keeping) — the §5.2 gate.
        prefetch_effective: bool,
        /// The rewrite chosen, or `None` when the optimizer declined.
        decision: Option<OptKind>,
    },
    /// The phase detector fired; profile history was discarded.
    PhaseChange { tick: u64, cycle: u64, phases: u64 },
    /// A plan was applied to the live image at a quantum safe point; `plan`
    /// is the report's entry for it.
    Deploy { cycle: u64, plan: AppliedPlan },
    /// A post-deployment CPI trial window was judged.
    CpiTrial {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        post_ticks: u64,
        baseline_cpi: f64,
        post_cpi: f64,
        regressed: bool,
    },
    /// A regressed deployment was reverted on the live image.
    Revert { cycle: u64, plan: RevertedPlan },
    /// A loop was blacklisted (trialled once, never touched again).
    Blacklist {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
    },
    /// A revert failed mid-restore on the live image: the framework stopped
    /// writing, poisoned the loop, and kept running (never panics).
    RevertFailed {
        cycle: u64,
        loop_head: CodeAddr,
        /// Address whose restore write failed.
        addr: CodeAddr,
        /// Words successfully restored before the failure.
        words_restored: usize,
        detail: String,
        /// The report's entry: why the plan was being reverted, and how far
        /// the revert got.
        plan: RevertedPlan,
    },
    /// A deployment failed mid-apply on the live image: the framework
    /// rolled back the words already written and poisoned the loop.
    DeployFailed {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        loop_head: CodeAddr,
        detail: String,
    },
    /// One tournament candidate finished its trial window (and was
    /// reverted pending the tournament outcome).
    CandidateTrial {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
        candidate: String,
        plan_id: u64,
        trial_ticks: u64,
        baseline_cpi: f64,
        cpi: f64,
    },
    /// A candidate tournament settled: either the lowest-CPI candidate was
    /// promoted or the loop was blacklisted.
    TournamentOutcome {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
        /// Candidates the tournament started with.
        candidates: usize,
        winner: Option<String>,
        winner_cpi: Option<f64>,
        promoted: bool,
    },
    /// A candidate loop contained a word the decoder rejects; the loop was
    /// skipped (and blacklisted) instead of aborting the optimizer thread.
    UndecodableLoop {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
    },
    /// The `cobra-verify` deploy gate rejected a plan (loop blacklisted) or
    /// a warm seed (seed dropped); `reason` is the verifier's one-line
    /// violation summary.
    VerifyReject {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
        reason: String,
    },
    /// The live profile settled what a prior run seeded for a loop: `hit`
    /// when it agreed (the seeded kind, or a stored winner this build still
    /// generates), a mismatch when it did not and the seed was dropped.
    WarmVerdict {
        tick: u64,
        cycle: u64,
        loop_head: CodeAddr,
        hit: bool,
    },
    /// A store snapshot matched this run's binary/machine key and seeded
    /// the optimizer at attach.
    WarmStart {
        tick: u64,
        cycle: u64,
        seeded_decisions: usize,
        seeded_blacklist: usize,
        /// Damaged store records skipped while loading the snapshot.
        skipped_records: u64,
    },
    /// The store could not provide (or persist) a snapshot — corrupt
    /// header, version/key mismatch, or I/O failure. The run continues
    /// cold; this event is the only trace of the rejection.
    StoreError {
        tick: u64,
        cycle: u64,
        detail: String,
    },
    /// An updated snapshot was committed to the store at detach.
    StoreSave {
        tick: u64,
        cycle: u64,
        records: usize,
        path: String,
    },
    /// A fleet aggregation server supplied the warm seed at attach (it
    /// outranks the local store; the store snapshot still merges into the
    /// detach save).
    FleetSeed {
        tick: u64,
        cycle: u64,
        seeded_decisions: usize,
        seeded_winners: usize,
        seeded_blacklist: usize,
        /// Runs the fleet had folded into the served seed.
        runs: u64,
    },
    /// The detach snapshot was uploaded to the fleet server.
    FleetUpload {
        tick: u64,
        cycle: u64,
        /// Records in the uploaded snapshot.
        records: usize,
        /// The server's folded run total for the key after this upload.
        runs_total: u64,
    },
    /// A fleet request failed; the run degraded to the local store (then
    /// cold) and continued. `stage` is `"fetch"` or `"upload"`.
    FleetError {
        tick: u64,
        cycle: u64,
        stage: String,
        detail: String,
    },
    /// Every thread left the original loop body after a trace deployment:
    /// the forward OSR redirects were disarmed. `migrations` counts the
    /// back edges actually diverted into the new version (0 under
    /// `.osr(false)`, where the watch still measures convergence).
    OsrMigrate {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        migrations: u64,
        /// Ticks from arming (deployment) to convergence — this plan's
        /// contribution to `ticks_to_all_optimized`.
        ticks_since_deploy: u64,
    },
    /// Every thread left a reverted trace clone: the reverse OSR redirects
    /// were disarmed. `migrations` counts back edges diverted back to the
    /// original body (without OSR, threads drain only at natural loop
    /// completion).
    OsrRevert {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        migrations: u64,
        /// Ticks from the revert to convergence.
        ticks_since_revert: u64,
    },
    /// `cobra-verify::check_osr_map` could not prove a deployment's state
    /// mapping total and type-correct; the deployment proceeded with
    /// entry-only transfer (no redirects armed).
    OsrRejected {
        tick: u64,
        cycle: u64,
        plan_id: u64,
        loop_head: CodeAddr,
        reason: String,
    },
    /// The framework detached: the last record of every run, carrying the
    /// totals no single moment owns.
    Detach { cycle: u64, totals: RunTotals },
}

/// What a run adds up to at detach; each field is the [`CobraReport`] field
/// of the same name.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunTotals {
    pub ticks: u64,
    pub forks: u64,
    pub monitors_spawned: usize,
    pub samples_forwarded: u64,
    pub samples_merged: u64,
    pub overhead_cycles: u64,
    pub guest_faults: u64,
    pub store_skipped_records: u64,
}

impl TelemetryEvent {
    /// Stable category name, used by summaries and query filters.
    pub fn category(&self) -> &'static str {
        match self {
            TelemetryEvent::Attach { .. } => "attach",
            TelemetryEvent::Quantum { .. } => "quantum",
            TelemetryEvent::KernelDrain { .. } => "kernel_drain",
            TelemetryEvent::LoopClassified { .. } => "loop_classified",
            TelemetryEvent::PhaseChange { .. } => "phase_change",
            TelemetryEvent::Deploy { .. } => "deploy",
            TelemetryEvent::CpiTrial { .. } => "cpi_trial",
            TelemetryEvent::Revert { .. } => "revert",
            TelemetryEvent::Blacklist { .. } => "blacklist",
            TelemetryEvent::RevertFailed { .. } => "revert_failed",
            TelemetryEvent::DeployFailed { .. } => "deploy_failed",
            TelemetryEvent::CandidateTrial { .. } => "candidate_trial",
            TelemetryEvent::TournamentOutcome { .. } => "tournament",
            TelemetryEvent::UndecodableLoop { .. } => "undecodable_loop",
            TelemetryEvent::VerifyReject { .. } => "verify_reject",
            TelemetryEvent::WarmVerdict { .. } => "warm_verdict",
            TelemetryEvent::WarmStart { .. } => "warm_start",
            TelemetryEvent::StoreError { .. } => "store_error",
            TelemetryEvent::StoreSave { .. } => "store_save",
            TelemetryEvent::FleetSeed { .. } => "fleet_seed",
            TelemetryEvent::FleetUpload { .. } => "fleet_upload",
            TelemetryEvent::FleetError { .. } => "fleet_error",
            TelemetryEvent::OsrMigrate { .. } => "osr_migrate",
            TelemetryEvent::OsrRevert { .. } => "osr_revert",
            TelemetryEvent::OsrRejected { .. } => "osr_rejected",
            TelemetryEvent::Detach { .. } => "detach",
        }
    }
}

/// A sequenced event as it appears in sinks and trace files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryRecord {
    /// Global emission order (one counter per attached run).
    pub seq: u64,
    pub event: TelemetryEvent,
}

/// Where one run's records go: an in-process [`TelemetryLog`], shared with
/// whoever reads it after (or during) the run.
#[derive(Debug)]
pub struct TelemetrySink(Arc<Mutex<TelemetryLog>>);

impl TelemetrySink {
    /// An in-memory sink; query the returned log after the run.
    pub fn memory() -> (TelemetrySink, Arc<Mutex<TelemetryLog>>) {
        let log = Arc::new(Mutex::new(TelemetryLog::default()));
        (TelemetrySink(log.clone()), log)
    }
}

/// The one event path of an attached run: a plain struct owned by the
/// framework and reached by `&mut` from every stage. It holds the run's
/// [`CobraReport`] and writes it only by folding events, so the report and
/// the trace cannot disagree.
#[derive(Debug)]
pub struct Telemetry {
    report: CobraReport,
    sink: Option<TelemetrySink>,
    seq: u64,
    /// Records written since the last [`Telemetry::drain`].
    pending: u64,
}

impl Telemetry {
    /// `sink: None` records nothing but still folds every event into the
    /// report.
    pub fn new(sink: Option<TelemetrySink>) -> Telemetry {
        Telemetry {
            report: CobraReport::default(),
            sink,
            seq: 0,
            pending: 0,
        }
    }

    /// Whether a sink is attached. Events the report takes nothing from
    /// (`Quantum`, `KernelDrain`) are only worth building then.
    pub(crate) fn is_recording(&self) -> bool {
        self.sink.is_some()
    }

    /// Stamp, fold and record one event.
    pub fn emit(&mut self, event: TelemetryEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.report.observe(&event);
        if let Some(TelemetrySink(log)) = &self.sink {
            // A panicked holder leaves the log intact (records is just a
            // Vec); keep recording rather than poisoning telemetry.
            let mut log = log.lock().unwrap_or_else(|p| p.into_inner());
            log.records.push(TelemetryRecord { seq, event });
            self.pending += 1;
        }
    }

    /// The records written since the last drain (the unit the framework
    /// charges overhead cycles for, once per tick).
    pub(crate) fn drain(&mut self) -> u64 {
        std::mem::take(&mut self.pending)
    }

    #[cfg(test)]
    pub(crate) fn report(&self) -> &CobraReport {
        &self.report
    }

    /// Hand over the finished report.
    pub fn finish(self) -> CobraReport {
        self.report
    }
}

/// In-memory record store with a small query API.
#[derive(Debug, Default)]
pub struct TelemetryLog {
    records: Vec<TelemetryRecord>,
}

impl TelemetryLog {
    pub fn records(&self) -> &[TelemetryRecord] {
        &self.records
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn count(&self, category: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.event.category() == category)
            .count()
    }
}

/// Write records as JSON lines, the one trace format (inverse of
/// [`read_jsonl`]).
pub fn write_jsonl(records: &[TelemetryRecord], mut writer: impl Write) -> io::Result<()> {
    for record in records {
        // Invariant: every TelemetryEvent field is serde-derived plain
        // data; serialization cannot fail.
        let mut line = serde_json::to_string(record).expect("telemetry record serializes");
        line.push('\n');
        writer.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Parse a JSONL trace back into records.
pub fn read_jsonl(reader: impl std::io::Read) -> Result<Vec<TelemetryRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in std::io::BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = serde_json::from_str(&line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify_reject(tick: u64) -> TelemetryEvent {
        TelemetryEvent::VerifyReject {
            tick,
            cycle: tick * 1000,
            loop_head: 40,
            reason: "injected".into(),
        }
    }

    /// Every event is folded into the report; with a sink every event is
    /// also recorded, in emission order, and without one nothing is.
    #[test]
    fn every_event_is_folded_and_recorded() {
        let (sink, log) = TelemetrySink::memory();
        let mut t = Telemetry::new(Some(sink));
        for tick in 0..10 {
            t.emit(verify_reject(tick));
        }
        assert_eq!(t.report().verify_rejects, 10);
        assert_eq!(t.drain(), 10);
        t.emit(verify_reject(10));
        assert_eq!(t.drain(), 1);
        let seqs: Vec<u64> = log
            .lock()
            .unwrap()
            .records()
            .iter()
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs, (0..11).collect::<Vec<u64>>());

        let mut t = Telemetry::new(None);
        for tick in 0..10 {
            t.emit(verify_reject(tick));
        }
        assert_eq!(t.drain(), 0);
        assert_eq!(t.finish().verify_rejects, 10);
    }
}
