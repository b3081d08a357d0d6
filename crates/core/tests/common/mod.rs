//! The plan corpus the gate suites share: every plan the real optimizer
//! emits for real NPB kernel loops on both reference machines, under both
//! fixed strategies, each with the pristine image it was built against.
//! Every plan is a trace-cache version. `verify_mutation.rs` corrupts the
//! plans, `osr_map_mutation.rs` their OSR maps, and the root
//! `tests/gate_smokes.rs` takes one kernel's worth (`#[path]`-included:
//! everything here names crates the root package also depends on).

#![allow(dead_code)] // each test binary uses its own part of this

use std::sync::OnceLock;

use cobra_isa::insn::Op;
use cobra_isa::{CodeAddr, CodeImage};
use cobra_kernels::minicc::PrefetchPolicy;
use cobra_kernels::npb::{self, Benchmark};
use cobra_machine::MachineConfig;
use cobra_rt::{
    CounterWindow, LatencyBands, Optimizer, OptimizerConfig, PatchPlan, PlanAction, ProfileDelta,
    Strategy, SystemProfile,
};

/// One optimizer-emitted plan plus the pristine image it was built against.
pub struct Captured {
    pub bench: &'static str,
    pub machine: &'static str,
    pub image: CodeImage,
    pub plan: PatchPlan,
    /// `trace.entry_window_slots` of the optimizer that emitted it.
    pub window: u32,
}

/// `(head, back_edge, load_pc)` for loops that contain both an `lfetch`
/// (so the site selector fires) and a load (so the DEAR can pinpoint it).
pub fn find_loops(image: &CodeImage) -> Vec<(CodeAddr, CodeAddr, CodeAddr)> {
    let mut loops = Vec::new();
    for addr in 0..image.main_len() {
        let Ok(insn) = image.insn(addr) else { continue };
        let Some(target) = insn.op.branch_target() else {
            continue;
        };
        if target > addr || addr - target > 256 {
            continue;
        }
        let mut lfetch = None;
        let mut load = None;
        for a in target..=addr {
            match image.insn(a).map(|i| i.op) {
                Ok(Op::Lfetch { .. }) => lfetch = lfetch.or(Some(a)),
                Ok(Op::Ldfd { .. }) | Ok(Op::Ld8 { .. }) => load = load.or(Some(a)),
                _ => {}
            }
        }
        if let (Some(_), Some(load_pc)) = (lfetch, load) {
            loops.push((target, addr, load_pc));
        }
    }
    loops
}

/// A profile hot enough to clear every optimizer gate, with coherent-band
/// DEAR captures on `load_pc` and a hot back edge `(back, head)` — the same
/// shape the optimizer unit tests use, pointed at a real kernel loop.
pub fn hot_profile(load_pc: CodeAddr, head: CodeAddr, back: CodeAddr) -> SystemProfile {
    let mut sp = SystemProfile::new(LatencyBands { coherent_min: 165 });
    let mut delta = ProfileDelta {
        samples: 100,
        window: CounterWindow {
            instructions: 100_000,
            cycles: 150_000,
            bus_memory: 1000,
            bus_coherent: 300,
            l2_miss: 100,
            l3_miss: 100,
        },
        ..ProfileDelta::default()
    };
    for _ in 0..20 {
        delta.dear_events.push((load_pc, 0x1000, 200));
        delta.branch_pairs.push((back, head));
    }
    sp.absorb(&delta);
    sp
}

/// The plans among one optimizer pass's actions.
pub fn applied(actions: Vec<PlanAction>) -> impl Iterator<Item = PatchPlan> {
    actions.into_iter().filter_map(|a| match a {
        PlanAction::Apply(plan) => Some(plan),
        PlanAction::Revert { .. } => None,
    })
}

/// Land `plan` on `image` the way the framework lands it on the machine:
/// append the clone, then write the words.
pub fn land(image: &mut CodeImage, plan: &PatchPlan) {
    let trace = plan.trace.as_ref().expect("every plan is a trace");
    image.append_trace(&trace.insns);
    for &(addr, word) in &plan.writes {
        image.patch_word(addr, word).expect("plan write in range");
    }
}

/// Every plan a fresh optimizer emits for the first three prefetching loops
/// of `bench` on `mcfg`, per fixed strategy. Panics on an
/// in-vivo verify reject: these are all genuine plans, so a reject here is
/// a false positive. Empty for compute-bound kernels (e.g. ep), which have
/// no prefetching loops.
pub fn plans_for(bench: Benchmark, machine: &'static str, mcfg: &MachineConfig) -> Vec<Captured> {
    let workload = npb::build(bench, &PrefetchPolicy::aggressive(), mcfg.mem_bytes);
    let image = workload.image();
    let mut captured = Vec::new();
    for &(head, back, load_pc) in find_loops(image).iter().take(3) {
        for strategy in [Strategy::NoPrefetch, Strategy::ExclHint] {
            let cfg = OptimizerConfig {
                strategy,
                warmup_ticks: 0,
                ..Default::default()
            };
            let mut opt = Optimizer::new(cfg, image.clone());
            let actions = opt.consider(&hot_profile(load_pc, head, back));
            assert!(
                opt.drain_events().all(|e| e.category() != "verify_reject"),
                "{machine}/{} loop [{head},{back}] {strategy:?}: in-vivo false reject",
                bench.name()
            );
            captured.extend(applied(actions).map(|plan| Captured {
                bench: bench.name(),
                machine,
                image: image.clone(),
                plan,
                window: cfg.trace.entry_window_slots,
            }));
        }
    }
    captured
}

/// [`plans_for`] every NPB kernel on both machines, captured once per test
/// binary.
pub fn capture_real_plans() -> &'static [Captured] {
    static PLANS: OnceLock<Vec<Captured>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let mut captured = Vec::new();
        let machines = [
            ("smp4", MachineConfig::smp4()),
            ("altix8", MachineConfig::altix8()),
        ];
        for (mname, mcfg) in machines {
            let mut benches_with_plans = 0;
            for bench in Benchmark::ALL {
                let plans = plans_for(bench, mname, &mcfg);
                benches_with_plans += usize::from(!plans.is_empty());
                captured.extend(plans);
            }
            assert!(
                benches_with_plans >= Benchmark::COHERENT.len(),
                "{mname}: only {benches_with_plans} benchmarks had prefetching loops"
            );
        }
        assert!(
            captured.len() >= 32,
            "expected a broad plan corpus, got {}",
            captured.len()
        );
        captured
    })
}
