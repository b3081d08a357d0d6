//! Mutation testing of the `cobra-verify` deploy gate.
//!
//! Two halves, mirroring the acceptance bar:
//!
//! * **No false rejects** — every plan the real optimizer emits for real
//!   NPB kernel loops, across both reference machines and both fixed
//!   strategies, must pass the verifier (and the in-vivo `verify_rejects`
//!   counter must stay 0). Every plan is a trace-cache version.
//! * **No false accepts** — every class of deliberate plan corruption
//!   (wrong replacement slot in a burst write or the clone, clobbered
//!   non-prefetch instruction in the clone, misaligned trace, escaped back
//!   edge, out-of-region write, truncated trace, original-body clobber,
//!   removal of a post-incrementing prefetch whose rotating base lives
//!   across a rotating branch — a `br.ctop` / `br.wtop` / `clrrrb` renames
//!   it) must be rejected on every captured plan it applies to.
//!
//! With `crates/harness/tests/verify_cli.rs` (every NPB kernel image on
//! both machines and a freshly saved store snapshot through `cobra-repro
//! verify`, and its exit codes) this is the patch-safety gate; it also runs
//! overflow-checked (`scripts/ci.sh overflow-checks`).

use std::sync::OnceLock;

use cobra_isa::insn::Op;
use cobra_isa::{encode, CodeAddr, CodeImage, NOP_SLOT_I, NOP_SLOT_M, ROT_GR_BASE};
use cobra_kernels::minicc::PrefetchPolicy;
use cobra_kernels::npb::{self, Benchmark};
use cobra_machine::MachineConfig;
use cobra_rt::{verify_plan, Optimizer, OptimizerConfig, PatchPlan, PlanAction, Strategy};
use cobra_verify::Violation;
use proptest::prelude::*;

mod common;
use common::{capture_real_plans, find_loops, hot_profile, land, Captured};

/// Run tournament-enabled optimizers over NPB loops and capture the
/// candidate plans they emit (per-site subset/mix rewrites, including
/// `combined` kinds — the shapes the classic capture above never builds).
/// Each is captured with the text it was built against: the pristine image
/// plus every earlier trial's clone, which stays appended after its revert
/// restores the words, as it does on the machine.
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
            let cfg = OptimizerConfig {
                strategy: Strategy::Adaptive,
                warmup_ticks: 0,
                candidates: true,
                trial_ticks: 1,
                ..Default::default()
            };
            let window = cfg.trace.entry_window_slots;
            let mut opt = Optimizer::new(cfg, image.clone());
            let profile = hot_profile(load_pc, head, back);
            let mut live = image.clone();
            for _ in 0..40 {
                for action in opt.consider(&profile) {
                    let plan = match action {
                        PlanAction::Apply(plan) => plan,
                        PlanAction::Revert { writes, .. } => {
                            for (addr, old) in writes {
                                live.patch_word(addr, old).expect("revert in range");
                            }
                            continue;
                        }
                    };
                    let built_against = live.clone();
                    land(&mut live, &plan);
                    if plan.candidate.is_some() {
                        captured.push(Captured {
                            bench: bench.name(),
                            machine: "smp4",
                            image: built_against,
                            plan,
                            window,
                        });
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
    for c in capture_real_plans() {
        assert!(
            c.plan.trace.is_some(),
            "{}/{} plan at head {} carries no trace",
            c.machine,
            c.bench,
            c.plan.loop_head
        );
        verify_plan(&c.image, &c.plan, c.window).unwrap_or_else(|e| {
            panic!(
                "{}/{} plan at head {} falsely rejected: {e}",
                c.machine, c.bench, c.plan.loop_head
            )
        });
    }
}

/// The corruption classes. Each takes a genuine plan and damages it the way
/// a buggy optimizer (or a corrupted plan channel) would — the last one
/// leaves the plan alone and makes it wrong by changing the `image` it is
/// checked against; `None` when the class does not apply to this plan shape.
/// A plan rewrites sites in two places, the entry-window burst writes and
/// the clone; the site classes (0, 7) pick among both.
fn corrupt(
    plan: &PatchPlan,
    image: &mut CodeImage,
    class: usize,
    pick: usize,
) -> Option<PatchPlan> {
    let mut p = plan.clone();
    let head = p.loop_head;
    let lfetch_at = |addr| image.insn(addr).is_ok_and(|ins| ins.is_lfetch());
    // Clone slots that copy a source `lfetch`, as `(slot, source address)`.
    let clone_sites: Vec<(usize, CodeAddr)> = (head..=p.back_edge)
        .enumerate()
        .filter(|&(_, a)| lfetch_at(a))
        .collect();
    let t = p.trace.as_mut()?;
    match class {
        // Wrong replacement slot type: nop.i where only nop.m (or an lfetch
        // hint flip) is allowed.
        0 => {
            let burst: Vec<usize> = (0..p.writes.len())
                .filter(|&i| lfetch_at(p.writes[i].0))
                .collect();
            let k = pick % (burst.len() + clone_sites.len()).max(1);
            match burst.get(k) {
                Some(&i) => p.writes[i].1 = encode(&NOP_SLOT_I),
                None => t.insns[clone_sites.get(k - burst.len())?.0] = NOP_SLOT_I,
            }
        }
        // Clobbered non-prefetch instruction: nop out a slot of the clone
        // that copies something other than an lfetch.
        1 => {
            let slot = (0..=(p.back_edge - head) as usize)
                .find(|&i| !lfetch_at(head + i as CodeAddr) && t.insns[i] != NOP_SLOT_M)?;
            t.insns[slot] = NOP_SLOT_M;
        }
        // Trace lands off bundle alignment.
        2 => t.expected_start += 1,
        // Back edge escapes the trace: retarget the cloned back edge at the
        // original loop head instead of the trace-local head.
        3 => {
            let start = t.expected_start;
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
            t.insns.pop()?;
        }
        // Original body clobbered: a write inside the cloned region (revert
        // would restore a half-dead loop).
        6 => {
            let victim =
                (head + 1..=p.back_edge).find(|&a| !p.writes.iter().any(|&(w, _)| w == a))?;
            p.writes.push((victim, encode(&NOP_SLOT_M)));
        }
        // Rotating base: the compiler had put a removed post-incrementing
        // prefetch's cursor in the rotating region of a software-pipelined
        // loop. minicc never does (r27, r28, r31), which is why the genuine
        // corpus passes; past the `br.ctop` the update is read under
        // another name.
        ROTATING_BASE => {
            let back = image.insn(p.back_edge).ok()?.op;
            if !matches!(back, Op::BrCtop { .. } | Op::BrWtop { .. }) {
                return None;
            }
            let burst = p
                .writes
                .iter()
                .filter(|&&(_, word)| word == encode(&NOP_SLOT_M))
                .map(|&(addr, _)| addr);
            let clone = clone_sites
                .iter()
                .filter(|&&(slot, _)| t.insns[slot] == NOP_SLOT_M)
                .map(|&(_, addr)| addr);
            let removed: Vec<_> = burst
                .chain(clone)
                .filter_map(|addr| Some((addr, image.insn(addr).ok()?)))
                .filter(|(_, old)| matches!(old.op, Op::Lfetch { post_inc, .. } if post_inc != 0))
                .collect();
            let &(addr, mut old) = removed.get(pick % removed.len().max(1))?;
            if let Op::Lfetch { base, .. } = &mut old.op {
                *base = ROT_GR_BASE + 8;
            }
            image.patch(addr, &old).expect("an lfetch over an lfetch");
        }
        _ => unreachable!("unknown corruption class"),
    }
    Some(p)
}

const ROTATING_BASE: usize = 7;
const CLASSES: usize = 8;
/// Picks per class and plan in the exhaustive sweeps. The site classes take
/// `pick` modulo the plan's sites, so this reaches every site of a plan
/// with up to four — burst writes and clone slots both.
const SITE_PICKS: usize = 4;

/// `class` applied to `c`, when it fits, must be rejected — and the one
/// class that is a single defect by construction, for that defect alone.
fn assert_rejected(c: &Captured, class: usize, pick: usize) -> bool {
    let mut image = c.image.clone();
    let Some(bad) = corrupt(&c.plan, &mut image, class, pick) else {
        return false;
    };
    let Err(err) = verify_plan(&image, &bad, c.window) else {
        panic!(
            "{}/{} class {class} corruption accepted on {:?} plan at head {}",
            c.machine, c.bench, c.plan.candidate, c.plan.loop_head
        )
    };
    if class == ROTATING_BASE {
        let only_live_base = |v: &Violation| matches!(v, Violation::BaseRegisterLive { .. });
        assert!(err.violations.iter().all(only_live_base), "{err}");
    }
    true
}

/// Exhaustive sweep: every corruption class applied to every captured plan
/// it fits must be rejected. This is the 100%-of-classes acceptance bar.
#[test]
fn every_corruption_class_is_rejected_on_every_plan() {
    let plans = capture_real_plans();
    let mut applied = [0usize; CLASSES];
    for c in plans {
        for (class, count) in applied.iter_mut().enumerate() {
            for pick in 0..SITE_PICKS {
                *count += usize::from(assert_rejected(c, class, pick));
            }
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
            for pick in 0..SITE_PICKS {
                *count += usize::from(assert_rejected(c, class, pick));
            }
        }
    }
    for (class, &n) in applied.iter().enumerate() {
        assert!(
            n > 0,
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
        assert_rejected(c, class, (seed >> 32) as usize);
    }
}
