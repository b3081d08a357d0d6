//! Tier-1 smokes of the two gates a rewrite passes before it reaches a
//! running thread: one verify mutation and one OSR transfer. The suites
//! they stand for — every corruption class over the whole NPB corpus,
//! randomized migration timing on both machines — are
//! `crates/core/tests/{verify_mutation,osr_map_mutation,osr_equivalence}.rs`;
//! the plan comes from the corpus those share.

use cobra::isa::{encode, NOP_SLOT_M};
use cobra::kernels::npb::Benchmark;
use cobra::kernels::workload::Workload;
use cobra::kernels::{Daxpy, DaxpyParams, PrefetchPolicy};
use cobra::machine::{Machine, MachineConfig};
use cobra::omp::{OmpRuntime, Team};
use cobra::rt::{verify_plan, Cobra, CobraReport, Strategy};

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

/// A plan the real optimizer emits for an `mg` loop passes the deploy gate;
/// the same plan with one more write, over a word of the original loop body
/// that is not a prefetch (the body a revert returns to), does not.
#[test]
fn a_real_mg_plan_verifies_and_its_clobbering_twin_is_rejected() {
    let plans = common::plans_for(Benchmark::Mg, "smp4", &MachineConfig::smp4());
    let c = plans.first().expect("mg has prefetching loops");
    verify_plan(&c.image, &c.plan, c.window).expect("a genuine plan verifies");

    let mut bad = c.plan.clone();
    let victim = (bad.loop_head + 1..=bad.back_edge)
        .find(|&a| !c.image.insn(a).unwrap().is_lfetch())
        .expect("the loop is not all prefetches");
    bad.writes.push((victim, encode(&NOP_SLOT_M)));
    let err = verify_plan(&c.image, &bad, c.window).expect_err("the clobber is caught");
    let want = format!("write at {victim} clobbers the original loop body");
    assert!(err.to_string().contains(&want), "{err}");
}

/// DAXPY under COBRA, `noprefetch` through the trace cache, OSR on or off:
/// the report and every word of data memory the run left behind.
fn daxpy_under_cobra(osr: bool) -> (CobraReport, Vec<u64>) {
    let mcfg = MachineConfig::smp4();
    let wl = Daxpy::build(
        DaxpyParams::new(96 * 1024, 16),
        &PrefetchPolicy::aggressive(),
        mcfg.mem_bytes,
    );
    let mut m = Machine::new(mcfg, wl.image().clone());
    wl.init(&mut m.shared.mem);
    let mut cobra = Cobra::builder()
        .strategy(Strategy::NoPrefetch)
        .osr(osr)
        .attach(&mut m);
    // A quantum short enough that the deployment tick finds the threads
    // inside the loop, so there is something to migrate.
    let rt = OmpRuntime {
        quantum: 3_000,
        ..OmpRuntime::default()
    };
    wl.run(&mut m, Team::new(4), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    wl.verify(&m.shared.mem).expect("numerics hold");
    // Everything the workload touches lies below its arrays' end.
    let end = wl.y_addr() + 8 * wl.params().n() as u64;
    let words = (0..end).step_by(8).map(|a| m.shared.mem.read_u64(a));
    (report, words.collect())
}

/// The map of a real trace plan is accepted and armed — threads already in
/// the loop migrate at their next back edge — and the run lands on the
/// memory of the entry-only transfer.
#[test]
fn osr_transfer_is_armed_and_lands_on_the_entry_only_memory() {
    let (with, mem_with) = daxpy_under_cobra(true);
    let (without, mem_without) = daxpy_under_cobra(false);
    assert!(
        with.applied.iter().any(|p| p.trace_entry.is_some()),
        "scenario must deploy a trace: {}",
        with.summary()
    );
    assert_eq!(with.osr_rejects, 0, "{}", with.summary());
    assert_eq!(with.osr_migrations, 4, "one per thread: {}", with.summary());
    assert_eq!(without.osr_migrations, 0, "{}", without.summary());
    assert!(mem_with == mem_without, "final data memory differs");
}
