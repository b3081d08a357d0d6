//! The helper roles of Figure 4: one [`ThreadProfiler`] per working thread
//! (held by [`crate::Cobra`]) and the single [`OptimizationStage`].
//!
//! §3: "two types of supporting threads are invoked for a multi-threaded
//! program … an optimization thread that orchestrates profile collection and
//! runtime optimizations … [and] a group of monitoring threads … a
//! monitoring thread is created when a working thread is forked." And §3.2:
//! "there is only one optimization thread … this design choice simplif[ies]
//! its implementation, and enables centralized control over multiple
//! monitoring threads."
//!
//! The paper's helper threads run on spare hardware contexts while the
//! program runs. Here they are kept as roles and as charged guest cycles
//! ([`crate::framework::OVERHEAD_PER_SAMPLE`]), not as host threads: the
//! simulator cannot advance past a quantum before that quantum's plans are
//! known, so a host-thread handshake is synchronous and overlaps nothing.
//! Both are plain structs the framework calls once per quantum: each CPU's
//! profiler reduces the samples drained from its kernel buffer, in CPU
//! order, then the optimization stage folds the deltas.
//!
//! [`ThreadProfiler`]: crate::profile::ThreadProfiler

use std::collections::VecDeque;

use cobra_isa::CodeAddr;

use crate::optimizer::{DecisionExport, Optimizer, PlanAction, WarmSeed, ROLLING_TICKS};
use crate::phase::PhaseDetector;
use crate::profile::{CounterWindow, LatencyBands, ProfileDelta, SystemProfile};
use crate::telemetry::{Telemetry, TelemetryEvent};

/// Everything the optimization stage hands back at detach — the material a
/// `cobra-store` snapshot is built from.
#[derive(Debug)]
pub struct OptFinal {
    /// Final per-loop decisions (deployed + reverted), sorted by loop head.
    pub decisions: Vec<DecisionExport>,
    /// Blacklisted loop heads, sorted.
    pub blacklist: Vec<CodeAddr>,
    /// Profile accumulated over the *whole* run (unlike the rolling
    /// decision profile, nothing ages out of this one).
    pub cumulative: SystemProfile,
}

/// The optimization role: owns the system-wide profile, the phase detector,
/// and the optimizer (with its synchronized image copy).
///
/// The decision profile is **rolling**: it is rebuilt each tick from the
/// last [`ROLLING_TICKS`] ticks of deltas, so cold-start
/// behaviour ages out and decisions reflect the program's *current* phase
/// (the continuous part of Continuous Binary Re-Adaptation).
#[derive(Debug)]
pub struct OptimizationStage {
    optimizer: Optimizer,
    bands: LatencyBands,
    phases: PhaseDetector,
    cumulative: SystemProfile,
    /// The last [`ROLLING_TICKS`] ticks of deltas, oldest first.
    recent: VecDeque<Vec<ProfileDelta>>,
}

impl OptimizationStage {
    pub fn new(optimizer: Optimizer, bands: LatencyBands) -> Self {
        OptimizationStage {
            optimizer,
            bands,
            phases: PhaseDetector::default(),
            cumulative: SystemProfile::new(bands),
            recent: VecDeque::new(),
        }
    }

    /// Hand the optimizer's buffered decision events on, in the order it
    /// made them. Every method that can make the optimizer emit ends here.
    fn publish(&mut self, telemetry: &mut Telemetry) {
        for event in self.optimizer.drain_events() {
            telemetry.emit(event);
        }
    }

    /// Seed the optimizer with prior-run knowledge (before the first tick);
    /// seeds the verifier rejects are reported through `telemetry`.
    pub fn warm_start(&mut self, seed: WarmSeed, telemetry: &mut Telemetry) {
        self.optimizer.warm_start(seed);
        self.publish(telemetry);
    }

    /// One quantum, closed at machine cycle `cycle`: fold the profilers'
    /// `deltas`, run phase detection on their merged window, rebuild the
    /// rolling profile, and return the plans to deploy or revert.
    pub fn tick(
        &mut self,
        tick: u64,
        cycle: u64,
        deltas: Vec<ProfileDelta>,
        telemetry: &mut Telemetry,
    ) -> Vec<PlanAction> {
        let mut tick_window = CounterWindow::default();
        for d in &deltas {
            self.cumulative.absorb(d);
            tick_window.merge(&d.window);
        }
        self.recent.push_back(deltas);
        while self.recent.len() > ROLLING_TICKS {
            self.recent.pop_front();
        }
        if self.phases.observe(&tick_window) {
            telemetry.emit(TelemetryEvent::PhaseChange {
                tick,
                cycle,
                phases: self.phases.phases(),
            });
            // Old-phase history is no longer representative. Deployed and
            // blacklisted loops stay as they are; loops that only now
            // became hot get considered against fresh data.
            self.recent.drain(..self.recent.len() - 1);
        }

        let mut profile = SystemProfile::new(self.bands);
        for d in self.recent.iter().flatten() {
            profile.absorb(d);
        }
        self.optimizer.begin_tick(tick, cycle);
        self.optimizer.observe_tick_window(&tick_window);
        let actions = self.optimizer.consider(&profile);
        self.publish(telemetry);
        actions
    }

    /// A guest-side patch write for this loop failed (apply rollback or a
    /// stopped revert): blacklist it and abandon any deployment or
    /// tournament touching it.
    pub fn poison(&mut self, loop_head: CodeAddr, telemetry: &mut Telemetry) {
        self.optimizer.poison(loop_head);
        self.publish(telemetry);
    }

    pub fn finish(self) -> OptFinal {
        let (decisions, blacklist) = self.optimizer.export_state();
        OptFinal {
            decisions,
            blacklist,
            cumulative: self.cumulative,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerConfig;

    #[test]
    fn optimization_stage_folds_one_ticks_deltas_and_returns_once_per_tick() {
        let image = {
            let mut a = cobra_isa::Assembler::new();
            a.nop(cobra_isa::Unit::I);
            a.finish()
        };
        let mut stage = OptimizationStage::new(
            Optimizer::new(OptimizerConfig::default(), image),
            LatencyBands { coherent_min: 165 },
        );
        let mut telemetry = Telemetry::new(None);
        let delta = |cpu, samples| ProfileDelta {
            cpu,
            samples,
            ..Default::default()
        };
        let actions = stage.tick(0, 20_000, vec![delta(0, 1), delta(1, 2)], &mut telemetry);
        assert!(actions.is_empty(), "quiet profile produces no plans");
        assert_eq!(stage.cumulative.samples, 3);
        // A tick with one monitor folds only what that tick handed in.
        stage.tick(1, 40_000, vec![delta(0, 4)], &mut telemetry);
        assert_eq!(stage.recent.len(), 2);
        assert_eq!(stage.finish().cumulative.samples, 7);
    }
}
