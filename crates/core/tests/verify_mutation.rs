//! Mutation testing of the `cobra-verify` deploy gate.
//!
//! Two halves, mirroring the acceptance bar:
//!
//! * **No false rejects** — every plan the real optimizer emits for real
//!   NPB kernel loops, across both reference machines, both deploy modes
//!   and both fixed strategies, must pass the verifier (and the in-vivo
//!   `verify_rejects` counter must stay 0).
//! * **No false accepts** — every class of deliberate plan corruption
//!   (wrong replacement slot, clobbered non-prefetch instruction,
//!   misaligned trace, escaped back edge, out-of-region write, truncated
//!   trace, body clobber) must be rejected on every captured plan it
//!   applies to.

use std::sync::OnceLock;

use cobra_isa::insn::Op;
use cobra_isa::{encode, CodeAddr, CodeImage, NOP_SLOT_I, NOP_SLOT_M};
use cobra_kernels::minicc::PrefetchPolicy;
use cobra_kernels::npb::{self, Benchmark};
use cobra_machine::MachineConfig;
use cobra_rt::{
    verify_plan, CounterWindow, DeployMode, LatencyBands, Optimizer, OptimizerConfig, PatchPlan,
    PlanAction, ProfileDelta, Strategy, SystemProfile,
};
use proptest::prelude::*;

/// One optimizer-emitted plan plus the pristine image it was built against.
struct Captured {
    bench: &'static str,
    machine: &'static str,
    image: CodeImage,
    plan: PatchPlan,
    window: u32,
}

/// `(head, back_edge, load_pc)` for loops that contain both an `lfetch`
/// (so the site selector fires) and a load (so the DEAR can pinpoint it).
fn find_loops(image: &CodeImage) -> Vec<(CodeAddr, CodeAddr, CodeAddr)> {
    let mut loops = Vec::new();
    for addr in 0..image.main_len() {
        let Ok(insn) = image.insn(addr) else { continue };
        let Some(target) = insn.op.branch_target() else {
            continue;
        };
        if target > addr || addr - target > 256 {
            continue;
        }
        let body = target..=addr;
        let mut lfetch = None;
        let mut load = None;
        for a in body {
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
fn hot_profile(load_pc: CodeAddr, head: CodeAddr, back: CodeAddr) -> SystemProfile {
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

/// Run the real optimizer over every NPB kernel on both machines and
/// capture every plan it emits. Panics on any in-vivo verify reject: these
/// are all genuine plans, so a reject here is a false positive.
fn capture_real_plans() -> &'static Vec<Captured> {
    static PLANS: OnceLock<Vec<Captured>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let mut captured = Vec::new();
        let machines = [
            ("smp4", MachineConfig::smp4()),
            ("altix8", MachineConfig::altix8()),
        ];
        for (mname, mcfg) in machines {
            let mut benches_with_loops = 0;
            for bench in Benchmark::ALL {
                let workload = npb::build(bench, &PrefetchPolicy::aggressive(), mcfg.mem_bytes);
                let image = workload.image().clone();
                let loops = find_loops(&image);
                if loops.is_empty() {
                    // Compute-bound kernels (e.g. ep) have no prefetching
                    // loops; the coverage floor below keeps us honest.
                    continue;
                }
                benches_with_loops += 1;
                for &(head, back, load_pc) in loops.iter().take(3) {
                    for deploy in [DeployMode::InPlace, DeployMode::TraceCache] {
                        for strategy in [Strategy::NoPrefetch, Strategy::ExclHint] {
                            let cfg = OptimizerConfig {
                                strategy,
                                deploy,
                                warmup_ticks: 0,
                                ..Default::default()
                            };
                            let window = cfg.trace.entry_window_slots;
                            let mut opt = Optimizer::new(cfg, image.clone());
                            let actions = opt.consider(&hot_profile(load_pc, head, back));
                            assert_eq!(
                                opt.drain_events()
                                    .filter(|e| e.category() == "verify_reject")
                                    .count(),
                                0,
                                "{}/{} loop [{head},{back}] {strategy:?}/{deploy:?}: \
                                 in-vivo false reject",
                                mname,
                                bench.name()
                            );
                            for action in actions {
                                if let PlanAction::Apply(plan) = action {
                                    captured.push(Captured {
                                        bench: bench.name(),
                                        machine: mname,
                                        image: image.clone(),
                                        plan,
                                        window,
                                    });
                                }
                            }
                        }
                    }
                }
            }
            assert!(
                benches_with_loops >= Benchmark::COHERENT.len(),
                "{mname}: only {benches_with_loops} benchmarks had prefetching loops"
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

/// Run tournament-enabled optimizers over NPB loops and capture the
/// candidate plans they emit (per-site subset/mix rewrites, including
/// `combined` kinds — the shapes the classic capture above never builds).
/// TraceCache keeps only candidates built against the pristine image
/// (later ones expect their trace after earlier appendices, so verifying
/// them against the pristine image would be vacuous).
fn capture_candidate_plans() -> &'static Vec<Captured> {
    static PLANS: OnceLock<Vec<Captured>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let mut captured = Vec::new();
        let mcfg = MachineConfig::smp4();
        for bench in Benchmark::ALL {
            let workload = npb::build(bench, &PrefetchPolicy::aggressive(), mcfg.mem_bytes);
            let image = workload.image().clone();
            let Some(&(head, back, load_pc)) = find_loops(&image).first() else {
                continue;
            };
            for deploy in [DeployMode::InPlace, DeployMode::TraceCache] {
                let cfg = OptimizerConfig {
                    strategy: Strategy::Adaptive,
                    deploy,
                    warmup_ticks: 0,
                    candidates: true,
                    trial_ticks: 1,
                    ..Default::default()
                };
                let window = cfg.trace.entry_window_slots;
                let mut opt = Optimizer::new(cfg, image.clone());
                let profile = hot_profile(load_pc, head, back);
                let pristine_start = cobra_isa::bundle_align(image.len());
                for _ in 0..40 {
                    for action in opt.consider(&profile) {
                        if let PlanAction::Apply(plan) = action {
                            if plan.candidate.is_none() {
                                continue;
                            }
                            let against_pristine = plan
                                .trace
                                .as_ref()
                                .is_none_or(|t| t.expected_start == pristine_start);
                            if against_pristine {
                                captured.push(Captured {
                                    bench: bench.name(),
                                    machine: "smp4",
                                    image: image.clone(),
                                    plan,
                                    window,
                                });
                            }
                        }
                    }
                }
            }
        }
        assert!(
            captured.len() >= 8,
            "expected a candidate-plan corpus, got {}",
            captured.len()
        );
        captured
    })
}

#[test]
fn real_plans_pass_across_npb_and_machines() {
    let plans = capture_real_plans();
    let mut in_place = 0;
    let mut trace = 0;
    for c in plans {
        verify_plan(&c.image, &c.plan, c.window).unwrap_or_else(|e| {
            panic!(
                "{}/{} plan at head {} falsely rejected: {e}",
                c.machine, c.bench, c.plan.loop_head
            )
        });
        if c.plan.trace.is_some() {
            trace += 1;
        } else {
            in_place += 1;
        }
    }
    assert!(in_place > 0, "corpus must include in-place plans");
    assert!(trace > 0, "corpus must include trace-cache plans");
}

/// The corruption classes. Each takes a genuine plan and damages it the way
/// a buggy optimizer (or a corrupted plan channel) would; `None` when the
/// class does not apply to this plan shape.
fn corrupt(plan: &PatchPlan, image: &CodeImage, class: usize, pick: usize) -> Option<PatchPlan> {
    let mut p = plan.clone();
    match class {
        // Wrong replacement slot type: nop.i where only nop.m (or an lfetch
        // hint flip) is allowed.
        0 => {
            let lf: Vec<usize> = (0..p.writes.len())
                .filter(|&i| {
                    image
                        .insn(p.writes[i].0)
                        .map(|ins| ins.is_lfetch())
                        .unwrap_or(false)
                })
                .collect();
            let &i = lf.get(pick % lf.len().max(1))?;
            p.writes[i].1 = encode(&NOP_SLOT_I);
        }
        // Clobbered non-prefetch instruction: nop out a word in the loop
        // body that is not an lfetch site.
        1 => {
            let victim = (p.loop_head..=p.back_edge).find(|&a| {
                image.insn(a).map(|ins| !ins.is_lfetch()).unwrap_or(false)
                    && !p.writes.iter().any(|&(w, _)| w == a)
            })?;
            p.writes.push((victim, encode(&NOP_SLOT_M)));
        }
        // Trace lands off bundle alignment.
        2 => {
            p.trace.as_mut()?.expected_start += 1;
        }
        // Back edge escapes the trace: retarget the cloned back edge at the
        // original loop head instead of the trace-local head.
        3 => {
            let t = p.trace.as_mut()?;
            let start = t.expected_start;
            let head = p.loop_head;
            let back = t
                .insns
                .iter_mut()
                .find(|i| i.op.branch_target() == Some(start))?;
            back.op = back.op.with_branch_target(head)?;
        }
        // Patch site outside the claimed loop region.
        4 => {
            let addr = p.back_edge + 64;
            let word = if addr < image.len() {
                image.word(addr)
            } else {
                encode(&NOP_SLOT_M)
            };
            p.writes.push((addr, word));
        }
        // Truncated trace: drop the exit branch.
        5 => {
            p.trace.as_mut()?.insns.pop()?;
        }
        // Original body clobbered: a write inside the cloned region of a
        // trace plan (revert would restore a half-dead loop).
        6 => {
            p.trace.as_ref()?;
            let victim = (p.loop_head + 1..=p.back_edge)
                .find(|&a| !p.writes.iter().any(|&(w, _)| w == a))?;
            p.writes.push((victim, encode(&NOP_SLOT_M)));
        }
        _ => unreachable!("unknown corruption class"),
    }
    Some(p)
}

const CLASSES: usize = 7;

/// Exhaustive sweep: every corruption class applied to every captured plan
/// it fits must be rejected. This is the 100%-of-classes acceptance bar.
#[test]
fn every_corruption_class_is_rejected_on_every_plan() {
    let plans = capture_real_plans();
    let mut applied = [0usize; CLASSES];
    for c in plans {
        for (class, count) in applied.iter_mut().enumerate() {
            let Some(bad) = corrupt(&c.plan, &c.image, class, 0) else {
                continue;
            };
            *count += 1;
            assert!(
                verify_plan(&c.image, &bad, c.window).is_err(),
                "{}/{} class {class} corruption accepted at head {}",
                c.machine,
                c.bench,
                c.plan.loop_head
            );
        }
    }
    for (class, &n) in applied.iter().enumerate() {
        assert!(n > 0, "corruption class {class} never applied to any plan");
    }
}

/// Genuine tournament candidate plans — partial subsets and combined
/// per-site mixes — must pass the gate, and the corpus must actually
/// contain the shapes the classic capture cannot produce.
#[test]
fn candidate_plans_pass_the_gate() {
    let plans = capture_candidate_plans();
    let mut combined = 0;
    let mut partial = 0;
    for c in plans {
        verify_plan(&c.image, &c.plan, c.window).unwrap_or_else(|e| {
            panic!(
                "{}/{} candidate {:?} at head {} falsely rejected: {e}",
                c.machine, c.bench, c.plan.candidate, c.plan.loop_head
            )
        });
        let name = c.plan.candidate.as_deref().unwrap_or("");
        if name.starts_with("combined") {
            combined += 1;
        }
        if name.contains(".body") {
            partial += 1;
        }
    }
    assert!(combined > 0, "corpus must include combined candidates");
    assert!(partial > 0, "corpus must include partial-subset candidates");
}

/// Every corruption class that fits a candidate plan must be rejected —
/// partial-subset and combined plans get the same gate as classic ones.
#[test]
fn corrupted_candidate_plans_are_rejected() {
    let plans = capture_candidate_plans();
    let mut applied = [0usize; CLASSES];
    for c in plans {
        for (class, count) in applied.iter_mut().enumerate() {
            let Some(bad) = corrupt(&c.plan, &c.image, class, 0) else {
                continue;
            };
            *count += 1;
            assert!(
                verify_plan(&c.image, &bad, c.window).is_err(),
                "{}/{} class {class} corruption accepted on candidate {:?} at head {}",
                c.machine,
                c.bench,
                c.plan.candidate,
                c.plan.loop_head
            );
        }
    }
    // Trace-only classes need a trace candidate in the corpus; the in-place
    // classes must always land.
    for &class in &[0usize, 1, 4] {
        assert!(
            applied[class] > 0,
            "corruption class {class} never applied to any candidate plan"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Randomized pairing of corruption class × plan × site pick — the
    /// sampled counterpart of the exhaustive sweep above.
    #[test]
    fn injected_corruption_never_verifies(seed in any::<u64>(), class in 0usize..CLASSES) {
        let plans = capture_real_plans();
        let c = &plans[(seed as usize) % plans.len()];
        if let Some(bad) = corrupt(&c.plan, &c.image, class, (seed >> 32) as usize) {
            prop_assert!(
                verify_plan(&c.image, &bad, c.window).is_err(),
                "class {} corruption accepted on {}/{}",
                class, c.machine, c.bench
            );
        }
    }
}
