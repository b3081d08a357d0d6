//! The COBRA framework: attach to a running multithreaded program, monitor
//! it through the perfmon driver, and re-optimize its binary on the fly.
//!
//! [`Cobra`] implements [`QuantumHook`], so it plugs directly into the
//! OpenMP runtime's execution loop (the paper preloads COBRA as a shared
//! library before the program starts; our attach point is equivalent).
//! Responsibilities, mirroring Figure 4:
//!
//! * **monitoring** — poll the perfmon kernel buffers each quantum and
//!   reduce every CPU's samples in its [`ThreadProfiler`] (created at fork
//!   time, one per working thread);
//! * **profiling/optimization** — fold each tick's deltas into the
//!   system-wide profiles and detect phases here, then hand the rolling
//!   profile to the [`Optimizer`], which selects traces and decides;
//! * **code deployment** — apply the returned plans to the live image at
//!   the quantum safe point: append each rewritten loop clone to the trace
//!   cache, patch the hoisted `lfetch` words, redirect the loop head into
//!   the clone, or revert regressed deployments.
//!
//! Configure and attach through the fluent [`Cobra::builder`] API:
//!
//! ```no_run
//! # use cobra_machine::{Machine, MachineConfig};
//! # use cobra_rt::{Cobra, Strategy, TelemetrySink};
//! # let mut machine = Machine::new(MachineConfig::smp4(), cobra_isa::Assembler::new().finish());
//! # let (sink, _log) = TelemetrySink::memory();
//! let mut cobra = Cobra::builder()
//!     .strategy(Strategy::Adaptive)
//!     .telemetry(sink)
//!     .attach(&mut machine);
//! ```
//!
//! Figure 4's helper threads are kept as roles, not as host threads, and
//! this module is both of them. The simulator cannot start a quantum before
//! the previous quantum's plans are applied, so a handshake with real
//! threads was synchronous and never overlapped it; `on_quantum` calls the
//! profilers in CPU order, folds what they return and calls the optimizer,
//! on the simulator's thread. What the paper's threads cost the program is
//! still modelled: helper-thread overhead is charged to the simulated
//! machine per processed sample — and, when telemetry is enabled, per
//! drained telemetry record — so reported speedups are net of monitoring
//! cost.

use std::collections::VecDeque;
use std::path::PathBuf;

use cobra_fleet::FleetClient;
use cobra_isa::CodeAddr;
use cobra_machine::Machine;
use cobra_omp::{QuantumHook, Team};
use cobra_perfmon::{PerfmonConfig, PerfmonDriver};
use cobra_store::{Snapshot, Store, StoreKey};

use crate::optimizer::{Optimizer, OptimizerConfig, PlanAction, Strategy, ROLLING_TICKS};
use crate::persist::profile_record;
use crate::phase::PhaseDetector;
use crate::profile::{CounterWindow, LatencyBands, ProfileDelta, SystemProfile, ThreadProfiler};
use crate::report::{AppliedPlan, CobraReport, RevertedPlan};
use crate::telemetry::{CpuCounterSnapshot, RunTotals, Telemetry, TelemetryEvent, TelemetrySink};

/// Helper-thread cycles charged to the machine per processed sample, and per
/// drained telemetry record when telemetry is enabled: the paper keeps
/// overhead low with "relatively less frequent sampling", and this is the
/// per-sample cost of a helper thread on a spare context.
pub const OVERHEAD_PER_SAMPLE: u64 = 8;

/// Fluent configuration for [`Cobra`]; created by [`Cobra::builder`],
/// consumed by [`CobraBuilder::attach`]. What a caller can set is the
/// optimizer's strategy, candidate tournaments and OSR, plus where the run
/// reports and persists; everything else COBRA runs with is a constant
/// beside the code that reads it.
#[derive(Debug)]
pub struct CobraBuilder {
    optimizer: OptimizerConfig,
    osr: bool,
    sink: Option<TelemetrySink>,
    store: Option<PathBuf>,
    fleet: Option<String>,
}

impl CobraBuilder {
    /// Optimization strategy (noprefetch / `.excl` / adaptive).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.optimizer.strategy = strategy;
        self
    }

    /// Run the multi-version candidate tournament (generate, trial, and
    /// promote per-site rewrite candidates) instead of the one-shot
    /// classifier deployment.
    pub fn candidates(mut self, enabled: bool) -> Self {
        self.optimizer.candidates = enabled;
        self
    }

    /// On-stack replacement: arm verified per-branch redirects when a trace
    /// version deploys (and the reverse map when it reverts), so threads
    /// already inside the loop migrate at their next back edge instead of
    /// running the stale version to natural completion. Maps are proven
    /// total and type-correct by `cobra-verify::check_osr_map` before
    /// arming; an unprovable map degrades to entry-only transfer (counted
    /// in `osr_rejects`), never blocks the deployment. On by default;
    /// `.osr(false)` pins entry-only transfer for A/B runs.
    pub fn osr(mut self, enabled: bool) -> Self {
        self.osr = enabled;
        self
    }

    /// Record pipeline telemetry into `sink`.
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Persist profiles and decisions to `dir` and warm-start from any
    /// snapshot already there that matches this binary and machine. A
    /// missing, mismatched, or damaged snapshot degrades to a cold start
    /// (counted in the report, never fatal); an updated snapshot is saved
    /// at detach.
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }

    /// Pool learning through a `cobra-fleet` aggregation server at `addr`
    /// (e.g. `"127.0.0.1:7070"`): fetch a fleet-aggregated warm seed at
    /// attach (it outranks the local store) and upload the detach snapshot.
    /// Every fleet failure degrades to the local store, then cold —
    /// counted in the report and telemetered, never fatal.
    pub fn fleet(mut self, addr: impl Into<String>) -> Self {
        self.fleet = Some(addr.into());
        self
    }

    /// Attach to a machine: program the HPMs, set up the optimizer.
    /// Monitors are created lazily at thread fork.
    pub fn attach(self, machine: &mut Machine) -> Cobra {
        let CobraBuilder {
            optimizer,
            osr,
            sink,
            store,
            fleet,
        } = self;
        let mut driver = PerfmonDriver::new(machine.num_cpus(), PerfmonConfig::default());
        driver.attach(machine);

        let mut telemetry = Telemetry::new(sink);
        let cycle = machine.shared.cycle;
        telemetry.emit(TelemetryEvent::Attach {
            cycle,
            machine: machine.shared.cfg.name.clone(),
            cpus: machine.num_cpus(),
            strategy: optimizer.strategy,
            candidates: optimizer.candidates,
            osr,
            main_len: machine.shared.code.main_len(),
        });
        let mut opt = Optimizer::new(optimizer, machine.shared.code.clone());
        let bands = LatencyBands::from_machine(&machine.shared.cfg);

        // What the store and the fleet both file this run under; hashing
        // the main text is the costly part, so it is done once, and only
        // when there is somewhere to persist to.
        let key = (store.is_some() || fleet.is_some())
            .then(|| StoreKey::for_run(&machine.shared.code, &machine.shared.cfg));
        // Fleet seed first: the aggregation server folds every peer's
        // history, so it outranks this process's local store. The pristine
        // main words are captured now — before any deployment patches the
        // image in place — for the detach upload.
        let fleet_ctx = fleet.map(|addr| {
            let image = &machine.shared.code;
            FleetCtx {
                image_words: image.words()[..image.main_len() as usize].to_vec(),
                addr,
            }
        });
        let mut fleet_seed: Option<Snapshot> = None;
        if let Some((ctx, key)) = fleet_ctx.as_ref().zip(key) {
            match FleetClient::connect(&ctx.addr).and_then(|mut c| c.fetch_seed(&key)) {
                Ok(found) => fleet_seed = found,
                Err(detail) => {
                    telemetry.emit(TelemetryEvent::FleetError {
                        tick: 0,
                        cycle,
                        stage: "fetch".into(),
                        detail,
                    });
                }
            }
        }
        // Warm start: load a matching snapshot now, so seeds are in place
        // for the very first tick. Seeds are re-verified against the live
        // image inside `warm_start`, so attach-time rejections are reported
        // even if the run never reaches a tick.
        let mut totals = RunTotals::default();
        let store_ctx = store.zip(key).map(|(dir, key)| {
            let store = Store::new(dir);
            let lr = store.load(&key);
            totals.store_skipped_records = lr.skipped_records;
            if let Some(err) = &lr.error {
                telemetry.emit(TelemetryEvent::StoreError {
                    tick: 0,
                    cycle,
                    detail: err.clone(),
                });
            }
            // A fleet seed outranks the local snapshot (it already folds
            // this process's own uploads); the local snapshot is still
            // what this run folds into at detach.
            if fleet_seed.is_none() {
                if let Some(snap) = &lr.snapshot {
                    let (seeded_decisions, _, seeded_blacklist) =
                        opt.warm_start(&snap.decisions, &snap.winners, &snap.blacklist);
                    telemetry.emit(TelemetryEvent::WarmStart {
                        tick: 0,
                        cycle,
                        seeded_decisions,
                        seeded_blacklist,
                        skipped_records: lr.skipped_records,
                    });
                    publish(&mut opt, &mut telemetry);
                }
            }
            (store, lr.snapshot)
        });
        if let Some(snap) = &fleet_seed {
            let (seeded_decisions, seeded_winners, seeded_blacklist) =
                opt.warm_start(&snap.decisions, &snap.winners, &snap.blacklist);
            telemetry.emit(TelemetryEvent::FleetSeed {
                tick: 0,
                cycle,
                seeded_decisions,
                seeded_winners,
                seeded_blacklist,
                runs: snap.runs,
            });
            publish(&mut opt, &mut telemetry);
        }
        Cobra {
            monitors: Vec::new(),
            opt,
            bands,
            phases: PhaseDetector::default(),
            recent: VecDeque::new(),
            cumulative: SystemProfile::new(bands),
            osr,
            driver,
            tick: 0,
            totals,
            telemetry,
            key,
            store_ctx,
            fleet_ctx,
            osr_watches: Vec::new(),
            osr_maps: Vec::new(),
        }
    }
}

/// Hand the optimizer's buffered decision events on, in the order it made
/// them. Every call that can make the optimizer emit is followed by this.
fn publish(opt: &mut Optimizer, telemetry: &mut Telemetry) {
    for event in opt.drain_events() {
        telemetry.emit(event);
    }
}

/// Fleet-server coordinates captured at attach: the pristine main image
/// words (for server-side seed verification) and the server address for
/// the detach upload.
struct FleetCtx {
    addr: String,
    image_words: Vec<u64>,
}

/// One in-flight version transfer tracked to convergence: armed at a trace
/// deployment (forward) or a revert (reverse), retired at the first quantum
/// boundary where no running thread's PC is still inside `[lo, hi]` — the
/// body being migrated *away from*. The watch is kept even when OSR is off
/// (`.osr(false)`), so `ticks_to_all_optimized` measures the entry-only
/// convergence time the redirects are being compared against.
struct OsrWatch {
    plan_id: u64,
    /// Source body (inclusive) threads must vacate.
    lo: CodeAddr,
    hi: CodeAddr,
    /// Tick the transfer started.
    armed_tick: u64,
    /// True for revert drains (trace clone → original body).
    reverse: bool,
}

/// An attached COBRA instance.
pub struct Cobra {
    /// Whether a deployment or a revert arms its verified redirects.
    osr: bool,
    driver: PerfmonDriver,
    /// The monitoring role of each forked working thread, which is its
    /// profiler; index = CPU (teams occupy CPUs
    /// `0..num_threads`, so the monitored CPUs are always a prefix).
    monitors: Vec<ThreadProfiler>,
    /// The optimization role: decisions, plans and its own copy of the
    /// image.
    opt: Optimizer,
    /// The DEAR latency split every rebuilt decision profile classifies by.
    bands: LatencyBands,
    /// Watches each tick's merged window for a working-set change.
    phases: PhaseDetector,
    /// The last [`ROLLING_TICKS`] ticks' deltas, oldest first: the decision
    /// profile is rebuilt from them each tick, so cold-start behaviour ages
    /// out and decisions follow the program's current phase.
    recent: VecDeque<Vec<ProfileDelta>>,
    /// Every delta of the run (nothing ages out): the profile a store
    /// snapshot records.
    cumulative: SystemProfile,
    /// Quanta processed.
    tick: u64,
    /// Run totals no single event owns, summed as the run goes; `Detach`
    /// completes them (`tick`, the monitors, the cumulative profile's
    /// samples and the machine's faults) and carries them to the report.
    totals: RunTotals,
    /// The run's one event path, and the report it folds every event into.
    telemetry: Telemetry,
    /// What this run's snapshot is filed under; `Some` exactly when a store
    /// or a fleet is configured.
    key: Option<StoreKey>,
    /// Store handle and the prior snapshot (this run folds into it at
    /// detach) when persistence is configured.
    store_ctx: Option<(Store, Option<Snapshot>)>,
    /// Fleet-server coordinates when pooled learning is configured.
    fleet_ctx: Option<FleetCtx>,
    /// Version transfers still draining (threads not yet all on the
    /// intended version).
    osr_watches: Vec<OsrWatch>,
    /// Verified forward state mapping per live trace deployment, kept so a
    /// revert can arm the reverse map.
    osr_maps: Vec<(u64, cobra_osr::OsrMap)>,
}

impl Cobra {
    /// Start configuring an instance; finish with [`CobraBuilder::attach`].
    pub fn builder() -> CobraBuilder {
        CobraBuilder {
            optimizer: OptimizerConfig::default(),
            osr: true,
            sink: None,
            store: None,
            fleet: None,
        }
    }

    fn apply_action(&mut self, machine: &mut Machine, action: PlanAction) {
        match action {
            PlanAction::Apply(plan) => {
                // OSR: prove the state mapping between the original body
                // and the trace clone against the *pre-deployment* image.
                // An unprovable map degrades to entry-only transfer (the
                // deployment still proceeds, unarmed).
                let mut osr_map = None;
                if let Some(t) = &plan.trace {
                    if plan.back_edge >= plan.loop_head {
                        let map = cobra_osr::OsrMap::for_trace(
                            plan.id,
                            plan.loop_head,
                            plan.back_edge,
                            t.expected_start,
                        );
                        match cobra_verify::check_osr_map(
                            &machine.shared.code,
                            &map,
                            plan.kind,
                            &t.insns,
                        ) {
                            Ok(()) => osr_map = Some(map),
                            Err(e) => {
                                self.telemetry.emit(TelemetryEvent::OsrRejected {
                                    tick: self.tick,
                                    cycle: machine.shared.cycle,
                                    plan_id: plan.id,
                                    loop_head: plan.loop_head,
                                    reason: e.to_string(),
                                });
                            }
                        }
                    }
                }
                let trace_entry = plan.trace.as_ref().map(|t| {
                    // Invariant: both sides compute expected_start as
                    // bundle_align(len) over identical image copies kept in
                    // lock-step; divergence is an optimizer bug, not a
                    // guest-reachable state.
                    let start = machine.append_trace(&t.insns);
                    assert_eq!(
                        start, t.expected_start,
                        "optimizer/machine trace layout divergence"
                    );
                    start
                });
                // Patch word by word, remembering the overwritten words so
                // a mid-plan failure can roll back what already landed — a
                // half-applied plan must never stay live.
                let mut applied: Vec<(cobra_isa::CodeAddr, u64)> = Vec::new();
                for &(addr, word) in &plan.writes {
                    match machine.patch_word(addr, word) {
                        Ok(old) => applied.push((addr, old)),
                        Err(e) => {
                            for &(a, old) in applied.iter().rev() {
                                // Restoring a word we just wrote cannot
                                // fail; ignore rather than cascade.
                                let _ = machine.patch_word(a, old);
                            }
                            // The appended trace (if any) stays as dead
                            // text: the head redirect was rolled back, so
                            // nothing can reach it, and removing it would
                            // desync the optimizer's layout.
                            self.telemetry.emit(TelemetryEvent::DeployFailed {
                                tick: self.tick,
                                cycle: machine.shared.cycle,
                                plan_id: plan.id,
                                loop_head: plan.loop_head,
                                detail: format!("patching {addr}: {e}"),
                            });
                            self.opt.poison(plan.loop_head);
                            publish(&mut self.opt, &mut self.telemetry);
                            return;
                        }
                    }
                }
                self.telemetry.emit(TelemetryEvent::Deploy {
                    cycle: machine.shared.cycle,
                    plan: AppliedPlan {
                        plan_id: plan.id,
                        kind: plan.kind,
                        loop_head: plan.loop_head,
                        description: plan.description,
                        tick: self.tick,
                        words_patched: plan.writes.len(),
                        trace_entry,
                        candidate: plan.candidate,
                    },
                });
                // The deployment landed whole: watch the original body
                // drain, and (when OSR is on) arm the verified redirects so
                // in-flight threads migrate at their next back edge.
                if let Some(map) = osr_map {
                    let (lo, hi) = map.source_range();
                    if self.osr {
                        machine.arm_redirect(plan.id, &map.redirect_pairs());
                    }
                    self.osr_watches.push(OsrWatch {
                        plan_id: plan.id,
                        lo,
                        hi,
                        armed_tick: self.tick,
                        reverse: false,
                    });
                    self.osr_maps.push((plan.id, map));
                }
            }
            PlanAction::Revert {
                plan_id,
                loop_head,
                writes,
                reason,
            } => {
                // A failed restore write must degrade, never panic: stop
                // the revert where it failed, poison the loop so the
                // optimizer blacklists it, and keep the run alive.
                let cycle = machine.shared.cycle;
                let mut plan = RevertedPlan {
                    plan_id,
                    reason,
                    tick: self.tick,
                };
                for (restored, &(addr, old_word)) in writes.iter().enumerate() {
                    if let Err(e) = machine.patch_word(addr, old_word) {
                        let (total, detail) = (writes.len(), e.to_string());
                        plan.reason += &format!(
                            " [revert failed at {addr} after {restored}/{total} words: {detail}]"
                        );
                        self.telemetry.emit(TelemetryEvent::RevertFailed {
                            cycle,
                            loop_head,
                            addr,
                            words_restored: restored,
                            detail,
                            plan,
                        });
                        self.opt.poison(loop_head);
                        publish(&mut self.opt, &mut self.telemetry);
                        return;
                    }
                }
                self.telemetry.emit(TelemetryEvent::Revert { cycle, plan });
                // The original words are back, but threads inside the trace
                // clone would run the stale version until natural loop
                // completion — the unbounded half of the transfer problem.
                // Swap the plan's forward map for its reverse: redirect the
                // clone's back edge to the original body and watch the
                // clone drain.
                if let Some(pos) = self.osr_maps.iter().position(|(id, _)| *id == plan_id) {
                    let (_, map) = self.osr_maps.remove(pos);
                    if let Some(pos) = self.osr_watches.iter().position(|w| w.plan_id == plan_id) {
                        // The forward drain never finished; close it now —
                        // its elapsed ticks were spent un-migrated, and the
                        // version it migrated into is gone.
                        let w = self.osr_watches.remove(pos);
                        self.finish_osr_watch(machine, w);
                    }
                    let rev = map.reversed();
                    let (lo, hi) = rev.source_range();
                    if self.osr {
                        machine.arm_redirect(plan_id, &rev.redirect_pairs());
                    }
                    self.osr_watches.push(OsrWatch {
                        plan_id,
                        lo,
                        hi,
                        armed_tick: self.tick,
                        reverse: true,
                    });
                }
            }
        }
    }

    /// Retire one version transfer: disarm its redirects and report the
    /// migrations it served and its drain time (the report credits both,
    /// the latter to the time-to-optimized total).
    fn finish_osr_watch(&mut self, machine: &mut Machine, w: OsrWatch) {
        let migrations = machine.disarm_redirect(w.plan_id);
        let elapsed = self.tick.saturating_sub(w.armed_tick);
        if w.reverse {
            self.telemetry.emit(TelemetryEvent::OsrRevert {
                tick: self.tick,
                cycle: machine.shared.cycle,
                plan_id: w.plan_id,
                migrations,
                ticks_since_revert: elapsed,
            });
        } else {
            self.telemetry.emit(TelemetryEvent::OsrMigrate {
                tick: self.tick,
                cycle: machine.shared.cycle,
                plan_id: w.plan_id,
                migrations,
                ticks_since_deploy: elapsed,
            });
        }
    }

    /// Retire every watch whose source body no running thread occupies.
    fn check_osr_watches(&mut self, machine: &mut Machine) {
        let mut i = 0;
        while i < self.osr_watches.len() {
            let w = &self.osr_watches[i];
            if machine.any_pc_in(w.lo, w.hi) {
                i += 1;
                continue;
            }
            let w = self.osr_watches.remove(i);
            self.finish_osr_watch(machine, w);
        }
    }

    /// Detach: stop sampling, persist what was learned, return the report.
    pub fn detach(mut self, machine: &mut Machine) -> CobraReport {
        // Transfers still draining when the run ends: close them at the
        // final tick so their un-migrated time is still accounted.
        let leftover: Vec<OsrWatch> = self.osr_watches.drain(..).collect();
        for w in leftover {
            self.finish_osr_watch(machine, w);
        }
        let Cobra {
            mut driver,
            monitors,
            opt,
            cumulative,
            tick,
            totals,
            mut telemetry,
            key,
            store_ctx,
            fleet_ctx,
            ..
        } = self;
        let cycle = machine.shared.cycle;
        driver.detach(machine);
        // This run's own history (runs = 1), derived once. The store folds
        // it into what it held and the fleet server into what the fleet
        // holds, by the same rule — so neither counts a prior run twice.
        let fresh = key.map(|key| {
            let (decisions, winners, blacklist) = opt.export_state();
            Snapshot {
                runs: 1,
                profile: profile_record(&cumulative),
                decisions,
                winners,
                blacklist,
                ..Snapshot::empty(key)
            }
        });
        if let Some(((store, prior), fresh)) = store_ctx.zip(fresh.as_ref()) {
            let fold_onto = |mut base: Snapshot| base.fold_unordered(fresh).map(|()| base);
            let empty = || Snapshot::empty(fresh.key);
            // A prior snapshot that cannot take this run's sums (a counter
            // would overflow) is reported and replaced by this run's fold.
            let folded = fold_onto(prior.unwrap_or_else(empty)).or_else(|detail| {
                telemetry.emit(TelemetryEvent::StoreError {
                    tick,
                    cycle,
                    detail,
                });
                fold_onto(empty())
            });
            let saved = folded.and_then(|snap| Ok((store.save(&snap)?, snap.record_count())));
            telemetry.emit(match saved {
                Ok((path, records)) => TelemetryEvent::StoreSave {
                    tick,
                    cycle,
                    records,
                    path: path.display().to_string(),
                },
                Err(detail) => TelemetryEvent::StoreError {
                    tick,
                    cycle,
                    detail,
                },
            });
        }
        if let Some((ctx, fresh)) = fleet_ctx.zip(fresh.as_ref()) {
            let uploaded = FleetClient::connect(&ctx.addr)
                .and_then(|mut c| c.upload(fresh, Some(&ctx.image_words)));
            telemetry.emit(match uploaded {
                Ok((runs_total, _)) => TelemetryEvent::FleetUpload {
                    tick,
                    cycle,
                    records: fresh.record_count(),
                    runs_total,
                },
                Err(detail) => TelemetryEvent::FleetError {
                    tick,
                    cycle,
                    stage: "upload".into(),
                    detail,
                },
            });
        }
        telemetry.emit(TelemetryEvent::Detach {
            cycle,
            totals: RunTotals {
                ticks: tick,
                monitors_spawned: monitors.len(),
                samples_merged: cumulative.samples,
                guest_faults: machine.total_stats().get(cobra_machine::Event::GuestFaults),
                ..totals
            },
        });
        telemetry.finish()
    }
}

impl QuantumHook for Cobra {
    fn on_fork(&mut self, _machine: &mut Machine, team: Team) {
        // "A monitoring thread is created when a working thread is forked."
        for cpu in self.monitors.len()..team.num_threads {
            let period = self.driver.config().sampling_period;
            self.monitors.push(ThreadProfiler::new(cpu as u32, period));
        }
        self.totals.forks += 1;
    }

    fn on_quantum(&mut self, machine: &mut Machine) {
        self.driver.poll(machine);
        let mut forwarded = 0u64;
        let mut deltas = Vec::with_capacity(self.monitors.len());
        for (cpu, profiler) in self.monitors.iter_mut().enumerate() {
            let batch = self.driver.drain(cpu);
            forwarded += batch.len() as u64;
            if self.telemetry.is_recording() {
                self.telemetry.emit(TelemetryEvent::KernelDrain {
                    tick: self.tick,
                    cycle: machine.shared.cycle,
                    cpu: cpu as u32,
                    samples: batch.len(),
                    dropped_total: self.driver.dropped(cpu),
                });
            }
            deltas.push(profiler.reduce(&batch));
        }
        // Charge helper-thread overhead to the machine.
        let overhead = forwarded * OVERHEAD_PER_SAMPLE;
        machine.shared.cycle += overhead;
        self.totals.samples_forwarded += forwarded;
        self.totals.overhead_cycles += overhead;

        if !deltas.is_empty() {
            // Fold the tick: every delta into the cumulative profile, the
            // tick's merged window into phase detection, and the tick into
            // the rolling window the decision profile is rebuilt from.
            let cycle = machine.shared.cycle;
            let mut window = CounterWindow::default();
            for d in &deltas {
                self.cumulative.absorb(d);
                window.merge(&d.window);
            }
            self.recent.push_back(deltas);
            if self.recent.len() > ROLLING_TICKS {
                self.recent.pop_front();
            }
            if self.phases.observe(&window) {
                self.telemetry.emit(TelemetryEvent::PhaseChange {
                    tick: self.tick,
                    cycle,
                    phases: self.phases.phases(),
                });
                // Old-phase history is no longer representative. Deployed
                // and blacklisted loops stay as they are; loops that only
                // now became hot get considered against fresh data.
                self.recent.drain(..self.recent.len() - 1);
            }
            let mut profile = SystemProfile::new(self.bands);
            for d in self.recent.iter().flatten() {
                profile.absorb(d);
            }
            self.opt.begin_tick(self.tick, cycle, &window);
            let actions = self.opt.consider(&profile);
            publish(&mut self.opt, &mut self.telemetry);
            for action in actions {
                self.apply_action(machine, action);
            }
        }
        self.check_osr_watches(machine);

        if self.telemetry.is_recording() {
            self.telemetry.emit(TelemetryEvent::Quantum {
                tick: self.tick,
                cycle: machine.shared.cycle,
                samples_forwarded: forwarded,
                cpus: CpuCounterSnapshot::all(machine),
            });
        }
        // Charge the tick's records at the safe point. Every stage ran on
        // this thread in a fixed order, so the count of records written —
        // and the cycles charged for them — is deterministic.
        let cost = self.telemetry.drain() * OVERHEAD_PER_SAMPLE;
        machine.shared.cycle += cost;
        self.totals.overhead_cycles += cost;
        self.tick += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_machine::{HostAccel, MachineConfig};
    use cobra_omp::OmpRuntime;

    impl Cobra {
        /// The report so far: what the events up to now imply. The run
        /// totals appear at detach.
        fn report(&self) -> &CobraReport {
            self.telemetry.report()
        }
    }

    /// A counted loop of 2 000 integer adds: no memory traffic at all.
    fn quiet_loop() -> cobra_isa::CodeImage {
        let mut a = cobra_isa::Assembler::new();
        a.movi(4, 2_000);
        a.mov_to_lc(4);
        let top = a.new_label();
        a.bind(top);
        a.addi(5, 5, 1);
        a.br_cloop(top);
        a.hlt();
        a.finish()
    }

    /// Attach/detach lifecycle on an idle machine.
    #[test]
    fn attach_detach_lifecycle() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.hlt();
            a.finish()
        };
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let cobra = Cobra::builder().attach(&mut m);
        let report = cobra.detach(&mut m);
        assert_eq!(report.ticks, 0);
        assert_eq!(report.monitors_spawned, 0);
    }

    /// A trivial parallel region under COBRA: monitors spawn at fork, ticks
    /// are processed, no deployments on a coherence-free program.
    #[test]
    fn quiet_program_monitored_without_deployments() {
        let mut m = Machine::new(MachineConfig::smp4(), quiet_loop());
        let mut cobra = Cobra::builder().attach(&mut m);
        let rt = OmpRuntime { quantum: 1000 };
        rt.parallel_for(&mut m, Team::new(4), 0, 0, 4, &[], &mut cobra);
        let report = cobra.detach(&mut m);
        assert_eq!(report.forks, 1);
        assert_eq!(report.monitors_spawned, 4);
        assert!(report.ticks > 0);
        assert!(
            report.applied.is_empty(),
            "no coherent misses, no deployments"
        );
    }

    /// Telemetry on a quiet program: quantum events with counter snapshots
    /// flow into a memory sink, and the report counts them.
    #[test]
    fn quiet_program_produces_quantum_telemetry() {
        let mut m = Machine::new(MachineConfig::smp4(), quiet_loop());
        let (sink, log) = TelemetrySink::memory();
        let mut cobra = Cobra::builder().telemetry(sink).attach(&mut m);
        let rt = OmpRuntime { quantum: 1000 };
        rt.parallel_for(&mut m, Team::new(4), 0, 0, 4, &[], &mut cobra);
        let report = cobra.detach(&mut m);
        let log = log.lock().unwrap();
        assert!(log.count("quantum") as u64 >= report.ticks.min(1));
        assert_eq!(
            log.count("attach")
                + log.count("quantum")
                + log.count("kernel_drain")
                + log.count("detach"),
            log.records().len()
        );
        // Snapshots cover every CPU and carry monotone instruction counts.
        let last_quantum = log.records().iter().rev().find_map(|r| match &r.event {
            TelemetryEvent::Quantum { cpus, .. } => Some(cpus),
            _ => None,
        });
        let cpus = last_quantum.expect("a quantum was recorded");
        assert_eq!(cpus.len(), 4);
        assert!(cpus.iter().any(|c| c.inst_retired > 0));
    }

    /// Each tick's deltas are folded twice: into the cumulative profile,
    /// which keeps every sample of the run, and into the rolling window,
    /// which gains one entry (a delta per monitor) per tick. On a traced
    /// run the samples merged are the samples the kernel buffers handed
    /// over.
    #[test]
    fn each_ticks_deltas_fold_into_the_cumulative_and_rolling_profiles() {
        let mut m = Machine::new(MachineConfig::smp4(), quiet_loop());
        let (sink, log) = TelemetrySink::memory();
        let mut cobra = Cobra::builder().telemetry(sink).attach(&mut m);
        let rt = OmpRuntime { quantum: 1000 };
        rt.parallel_for(&mut m, Team::new(4), 0, 0, 4, &[], &mut cobra);
        let ticks = cobra.tick as usize;
        assert!(ticks > 0 && ticks < ROLLING_TICKS, "{ticks} ticks");
        assert_eq!(cobra.recent.len(), ticks, "one entry per tick");
        let samples = cobra.cumulative.samples;
        assert!(samples > 0);
        // A tick on the halted team still folds one delta per monitor.
        cobra.on_quantum(&mut m);
        assert_eq!(cobra.recent.len(), ticks + 1);
        assert_eq!(cobra.recent.back().map(Vec::len), Some(4));
        let rolling: u64 = cobra.recent.iter().flatten().map(|d| d.samples).sum();
        assert_eq!((cobra.cumulative.samples, rolling), (samples, samples));
        let report = cobra.detach(&mut m);
        let drained: usize = log
            .lock()
            .unwrap()
            .records()
            .iter()
            .map(|r| match r.event {
                TelemetryEvent::KernelDrain { samples, .. } => samples,
                _ => 0,
            })
            .sum();
        assert_eq!(report.samples_merged, drained as u64);
        assert_eq!(report.samples_merged, samples);
    }

    /// The fast engine must be invisible to the whole pipeline: a
    /// stall-dominated memory-bound parallel region under COBRA lands on the
    /// same final cycle, event totals and report on either engine.
    #[test]
    fn stall_skip_fast_path_is_invisible_to_the_pipeline() {
        let run = |accel: HostAccel| {
            let image = {
                let mut a = cobra_isa::Assembler::new();
                a.movi(4, 0x1000);
                a.movi(5, 400);
                a.mov_to_lc(5);
                let top = a.new_label();
                a.bind(top);
                a.ldfd(0, 6, 4, 8);
                a.fma_d(0, 7, 6, 1, 0); // immediate use: load-use stall
                a.br_cloop(top);
                a.hlt();
                a.finish()
            };
            let mut m = Machine::new(MachineConfig::smp4().with_host_accel(accel), image);
            let mut cobra = Cobra::builder().attach(&mut m);
            let rt = OmpRuntime { quantum: 1000 };
            rt.parallel_for(&mut m, Team::new(4), 0, 0, 4, &[], &mut cobra);
            let report = serde_json::to_string(&cobra.detach(&mut m)).expect("serializes");
            (m.cycle(), m.total_stats(), report)
        };
        assert_eq!(run(HostAccel::reference()), run(HostAccel::fast()));
    }

    /// A revert whose restore write lands out of range must degrade — count
    /// the failure, annotate the reverted plan, emit telemetry — and never
    /// panic or leave the run wedged.
    #[test]
    fn failed_revert_degrades_without_panicking() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.addi(5, 5, 1);
            a.hlt();
            a.finish()
        };
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let (sink, log) = TelemetrySink::memory();
        let mut cobra = Cobra::builder().telemetry(sink).attach(&mut m);
        cobra.apply_action(
            &mut m,
            PlanAction::Revert {
                plan_id: 7,
                loop_head: 3,
                writes: vec![(9_999, 0)],
                reason: "cpi regression".into(),
            },
        );
        assert_eq!(cobra.report().revert_failures, 1);
        assert_eq!(cobra.report().reverted.len(), 1);
        assert!(
            cobra.report().reverted[0]
                .reason
                .contains("revert failed at 9999 after 0/1 words"),
            "reason: {}",
            cobra.report().reverted[0].reason
        );
        let report = cobra.detach(&mut m);
        assert_eq!(report.revert_failures, 1);
        let log = log.lock().unwrap();
        assert_eq!(log.count("revert_failed"), 1);
    }

    /// A revert that fails mid-way keeps the words it already restored and
    /// records how far it got.
    #[test]
    fn partial_revert_failure_reports_restored_count() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.addi(5, 5, 1);
            a.addi(6, 6, 1);
            a.hlt();
            a.finish()
        };
        let word0 = image.word(0);
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let mut cobra = Cobra::builder().attach(&mut m);
        cobra.apply_action(
            &mut m,
            PlanAction::Revert {
                plan_id: 8,
                loop_head: 0,
                writes: vec![(0, word0), (9_999, 0)],
                reason: "trial complete".into(),
            },
        );
        assert_eq!(cobra.report().revert_failures, 1);
        assert!(cobra.report().reverted[0]
            .reason
            .contains("after 1/2 words"));
        cobra.detach(&mut m);
    }

    /// A deployment that fails mid-plan rolls back every word it already
    /// wrote, counts the failure, and records no applied plan.
    #[test]
    fn failed_deploy_rolls_back_applied_words() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.addi(5, 5, 1);
            a.hlt();
            a.finish()
        };
        let word0 = image.word(0);
        let nop = cobra_isa::encode(&cobra_isa::NOP_SLOT_M);
        let mut m = Machine::new(MachineConfig::smp4(), image);
        let (sink, log) = TelemetrySink::memory();
        let mut cobra = Cobra::builder().telemetry(sink).attach(&mut m);
        cobra.apply_action(
            &mut m,
            PlanAction::Apply(crate::optimizer::PatchPlan {
                id: 11,
                kind: crate::optimizer::OptKind::NoPrefetch,
                loop_head: 0,
                back_edge: 1,
                description: "injected half-applying plan".into(),
                candidate: None,
                writes: vec![(0, nop), (9_999, nop)],
                trace: None,
            }),
        );
        assert_eq!(cobra.report().deploy_failures, 1);
        assert!(
            cobra.report().applied.is_empty(),
            "half-applied plan recorded"
        );
        // The word that landed before the failure was rolled back.
        assert_eq!(m.patch_word(0, nop).unwrap(), word0);
        let report = cobra.detach(&mut m);
        assert_eq!(report.deploy_failures, 1);
        let log = log.lock().unwrap();
        assert_eq!(log.count("deploy_failed"), 1);
    }
}
