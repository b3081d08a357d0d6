//! Wall-clock budgets of what COBRA adds to a deployment: the patch-safety
//! gate and the whole OSR mechanism must each cost under 5 % of a
//! deployment tick.
//!
//! A tick is what the runtime pays per monitor quantum when it deploys:
//! simulating the quantum (floored by the cheapest busy workload — anything
//! realistic is slower) plus the plan-emitting optimizer pass. Every side
//! is min-of-N host time, which means nothing in a debug build, so both
//! tests are `#[ignore]`d and CI runs them in release, one step per floor:
//! `cargo test --release -p cobra-rt --test overhead_floors -- --ignored <name>`.

use std::hint::black_box;
use std::time::Instant;

use cobra_isa::insn::{CmpRel, Insn, Op};
use cobra_isa::{Assembler, CodeImage};
use cobra_machine::{Machine, MachineConfig};
use cobra_osr::OsrMap;
use cobra_rt::{
    verify_plan, LatencyBands, Optimizer, OptimizerConfig, PatchPlan, ProfileDelta, SystemProfile,
};
use cobra_verify::check_osr_map;

mod common;

/// The default monitor quantum.
const QUANTUM: u64 = 20_000;

fn min_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap()
        .max(1)
}

/// An smp4 machine with `threads` cores in a long-running arithmetic loop:
/// every `run` continues the same loop, so each is fully busy.
fn arith_machine(threads: usize) -> Machine {
    let mut a = Assembler::new();
    a.movi(4, 1_000_000_000);
    a.mov_to_lc(4);
    let top = a.new_label();
    a.bind(top);
    a.addi(5, 5, 1);
    a.emit(Insn::new(Op::Add {
        dest: 6,
        r2: 6,
        r3: 5,
    }));
    a.br_cloop(top);
    a.hlt();
    let mut m = Machine::new(MachineConfig::smp4(), a.finish());
    for cpu in 0..threads {
        m.spawn_thread(cpu, 0, &[]);
    }
    m
}

/// A 32-loop image with prefetching bodies, plus a hot profile that makes
/// every loop a candidate.
fn decision_inputs() -> (CodeImage, SystemProfile) {
    let image = {
        let mut a = Assembler::new();
        for _ in 0..32 {
            let top = a.new_label();
            a.bind(top);
            a.ldfd(16, 32, 2, 8);
            a.lfetch_nt1(16, 27, 8);
            a.emit(Insn::new(Op::Cmp {
                p1: 6,
                p2: 7,
                rel: CmpRel::Lt,
                r2: 1,
                r3: 2,
            }));
            a.br_ctop(top);
        }
        a.hlt();
        a.finish()
    };
    let mut profile = SystemProfile::new(LatencyBands { coherent_min: 165 });
    let mut delta = ProfileDelta {
        samples: 500,
        ..ProfileDelta::default()
    };
    delta.window.instructions = 1_000_000;
    delta.window.cycles = 1_500_000;
    delta.window.bus_memory = 10_000;
    delta.window.bus_coherent = 4_000;
    for head in (0..32u32).map(|k| k * 12) {
        for _ in 0..20 {
            delta.branch_pairs.push((head + 9, head));
            delta.dear_events.push((head + 3, 200));
        }
    }
    profile.absorb(&delta);
    (image, profile)
}

/// One deployment tick on the [`decision_inputs`] fixture.
struct Tick {
    image: CodeImage,
    /// Every plan the tick's optimizer pass applies.
    plans: Vec<PatchPlan>,
    /// The text each plan was built against, index for index: `image` with
    /// the clones of the plans before it appended and their writes landed.
    built_against: Vec<CodeImage>,
    /// `trace.entry_window_slots` of the optimizer that emitted them.
    entry_window: u32,
    quantum_ns: u64,
    consider_ns: u64,
}

impl Tick {
    fn measure() -> Tick {
        let (image, profile) = decision_inputs();
        let cfg = OptimizerConfig {
            warmup_ticks: 0,
            ..Default::default()
        };
        let mut opt = Optimizer::new(cfg, image.clone());
        let plans: Vec<PatchPlan> = common::applied(opt.consider(&profile)).collect();
        assert!(!plans.is_empty(), "fixture tick must emit plans");
        assert!(
            opt.drain_events().all(|e| e.category() != "verify_reject"),
            "fixture plans must verify"
        );
        let consider_ns = min_ns(30, || {
            let mut opt = Optimizer::new(cfg, image.clone());
            black_box(opt.consider(black_box(&profile)));
        });
        let mut m = arith_machine(4);
        let quantum_ns = min_ns(5, || {
            black_box(m.run(QUANTUM));
        });
        let mut live = image.clone();
        let built_against = plans
            .iter()
            .map(|p| {
                let before = live.clone();
                common::land(&mut live, p);
                before
            })
            .collect();
        Tick {
            entry_window: opt.config().trace.entry_window_slots,
            image,
            plans,
            built_against,
            quantum_ns,
            consider_ns,
        }
    }

    /// Assert `cost_ns` (described by `what`) is under 5 % of this tick.
    fn assert_under_5_percent(&self, name: &str, cost_ns: u64, what: &str) {
        let tick_ns = self.quantum_ns + self.consider_ns;
        let share = cost_ns as f64 / tick_ns as f64;
        println!(
            "{name}: {:.2}% of a deployment tick: tick {tick_ns} ns (quantum {} + optimizer {}), \
             {what}, {} plans",
            share * 100.0,
            self.quantum_ns,
            self.consider_ns,
            self.plans.len()
        );
        assert!(
            share <= 0.05,
            "{name} must add <5% to a deployment tick, got {:.2}%",
            share * 100.0
        );
    }
}

/// The patch-safety gate runs once per deployment, i.e. once per monitor
/// quantum at most; the verification side re-checks every plan the fixture
/// tick emits.
#[test]
#[ignore = "wall-clock floor: run in release by name"]
fn verify_under_5_percent_of_a_deployment_tick() {
    let tick = Tick::measure();
    let verify_ns = min_ns(100, || {
        for (p, image) in tick.plans.iter().zip(&tick.built_against) {
            verify_plan(black_box(image), black_box(p), tick.entry_window)
                .expect("captured plan verifies");
        }
    });
    tick.assert_under_5_percent("verification", verify_ns, &format!("verify {verify_ns} ns"));
}

/// OSR's control plane runs once per trace deployment: build the state
/// mapping, verify it, arm the redirect table (and disarm it once the watch
/// converges). Its data plane is one redirect-table lookup per taken branch
/// while a watch is armed. The whole mechanism — control plane over every
/// plan the fixture tick emits, plus the armed quantum's lookup delta —
/// must fit the budget.
#[test]
#[ignore = "wall-clock floor: run in release by name"]
fn osr_under_5_percent_of_a_deployment_tick() {
    let tick = Tick::measure();
    let traces: Vec<_> = tick
        .plans
        .iter()
        .map(|p| (p, p.trace.as_ref().expect("every plan is a trace")))
        .collect();

    let mut arm_machine = Machine::new(MachineConfig::smp4(), tick.image.clone());
    let control_ns = min_ns(100, || {
        for (p, t) in &traces {
            let map = OsrMap::for_trace(p.id, p.loop_head, p.back_edge, t.expected_start);
            check_osr_map(black_box(&tick.image), black_box(&map), p.kind, &t.insns)
                .expect("captured plan's map verifies");
            arm_machine.arm_redirect(p.id, map.source_range(), map.version_start);
            black_box(arm_machine.disarm_redirect(p.id));
        }
    });

    // Data plane: per-branch lookup cost while armed, as the delta between
    // an armed and an unarmed solo quantum on the same block-dispatch
    // engine (the armed window lies outside the loop, so control flow — and
    // thus the work simulated — is identical).
    let mut solo = arith_machine(1);
    let solo_ns = min_ns(5, || {
        black_box(solo.run(QUANTUM));
    });
    solo.arm_redirect(u64::MAX, (0x00f0_0000, 0x00f0_0000), 0x00f0_0010);
    let armed_ns = min_ns(5, || {
        black_box(solo.run(QUANTUM));
    });
    assert_eq!(solo.disarm_redirect(u64::MAX), 0, "sentinel never hit");
    let lookup_delta_ns = armed_ns.saturating_sub(solo_ns);

    tick.assert_under_5_percent(
        "OSR migration",
        control_ns + lookup_delta_ns,
        &format!("control {control_ns} ns + armed lookup delta {lookup_delta_ns} ns"),
    );
}
