//! Tier-1 smokes of the gates a rewrite or a stored decision passes before
//! it reaches a running thread, each seen from both sides: one verify
//! mutation, one OSR transfer armed and one refused, and a store whose
//! tampered line and out-of-text seed are dropped and counted. The suites
//! they stand for — every corruption class over the whole NPB corpus,
//! randomized migration timing on both machines, every damaged store line —
//! are `crates/core/tests/{verify_mutation,osr_map_mutation,osr_equivalence,warm_start}.rs`
//! and `crates/store/tests/corruption.rs`; the plan comes from the corpus
//! the first three share.

use std::path::{Path, PathBuf};

use cobra::isa::insn::{Insn, Op};
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

/// DAXPY under COBRA, `noprefetch` through the trace cache, OSR on or off,
/// against `store` if given: the report and every word of data memory the
/// run left behind. `edit` gets the machine once COBRA has attached, that
/// is, once the optimizer holds its copy of the text.
fn daxpy_run(osr: bool, store: Option<&Path>, edit: fn(&mut Machine)) -> (CobraReport, Vec<u64>) {
    let mcfg = MachineConfig::smp4();
    let wl = Daxpy::build(
        DaxpyParams::new(96 * 1024, 16),
        &PrefetchPolicy::aggressive(),
        mcfg.mem_bytes,
    );
    let mut m = Machine::new(mcfg, wl.image().clone());
    wl.init(&mut m.shared.mem);
    let mut builder = Cobra::builder().strategy(Strategy::NoPrefetch).osr(osr);
    if let Some(dir) = store {
        builder = builder.store(dir);
    }
    let mut cobra = builder.attach(&mut m);
    edit(&mut m);
    // A quantum short enough that the deployment tick finds the threads
    // inside the loop, so there is something to migrate.
    let rt = OmpRuntime { quantum: 3_000 };
    wl.run(&mut m, Team::new(4), &rt, &mut cobra);
    let report = cobra.detach(&mut m);
    wl.verify(&m.shared.mem).expect("numerics hold");
    // Everything the workload touches lies below its arrays' end.
    let end = wl.y_addr() + 8 * wl.params().n() as u64;
    let words = (0..end).step_by(8).map(|a| m.shared.mem.read_u64(a));
    (report, words.collect())
}

/// An empty directory of its own for one test's store.
fn store_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cobra-gate-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Swaps the two factors of the first `fma.d` of every prefetching loop in
/// the live text, which computes the same bits from another word: the body a
/// thread would migrate out of is no longer the one the optimizer cloned.
fn diverge_loop_bodies(m: &mut Machine) {
    let mut edited = 0;
    for (head, back_edge, _) in common::find_loops(&m.shared.code) {
        for addr in head..=back_edge {
            let insn = m.shared.code.insn(addr).unwrap();
            if let Op::FmaD { dest, f1, f2, f3 } = insn.op {
                let op = Op::FmaD {
                    dest,
                    f1: f2,
                    f2: f1,
                    f3,
                };
                m.patch_word(addr, encode(&Insn { op, ..insn })).unwrap();
                edited += 1;
                break;
            }
        }
    }
    assert!(edited > 0, "no prefetching loop has an fma.d to rewrite");
}

/// The map of a real trace plan is accepted and armed — threads already in
/// the loop migrate at their next back edge — and the run lands on the
/// memory of the entry-only transfer.
#[test]
fn osr_transfer_is_armed_and_lands_on_the_entry_only_memory() {
    let (with, mem_with) = daxpy_run(true, None, |_| {});
    let (without, mem_without) = daxpy_run(false, None, |_| {});
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

/// The other side of the OSR gate: the live loop body differs from the one
/// the trace was cloned from, so no map between the two can be proven. The
/// deployment still lands, entry-only: no thread migrates, the rejection is
/// counted, and the run ends on the memory of a run with OSR off.
#[test]
fn an_osr_map_the_live_text_breaks_is_rejected_and_the_deploy_goes_entry_only() {
    let (with, mem_with) = daxpy_run(true, None, diverge_loop_bodies);
    let (without, mem_without) = daxpy_run(false, None, diverge_loop_bodies);
    let traced = with.applied.iter().filter(|p| p.trace_entry.is_some());
    assert!(
        traced.count() > 0,
        "scenario must deploy a trace: {}",
        with.summary()
    );
    assert!(with.osr_rejects > 0, "{}", with.summary());
    assert_eq!(with.osr_migrations, 0, "{}", with.summary());
    assert_eq!(with.applied, without.applied);
    assert!(mem_with == mem_without, "final data memory differs");
}

/// One changed value in a stored decision line fails its checksum: the
/// next run skips that line, counts it, and warm-starts from the rest.
#[test]
fn a_tampered_store_line_is_skipped_and_counted() {
    let dir = store_dir("tamper");
    let (cold, _) = daxpy_run(true, Some(&dir), |_| {});
    assert!(cold.store_saved_records > 0, "{}", cold.summary());
    let path = cobra_store::Store::new(&dir).snapshot_paths().remove(0);
    let text = std::fs::read_to_string(&path).unwrap();
    let line = text
        .lines()
        .find(|l| l.contains("\"Decision\""))
        .expect("the cold run stored a decision");
    let tampered = if line.contains("\"reverted\":false") {
        line.replace("\"reverted\":false", "\"reverted\":true")
    } else {
        line.replace("\"reverted\":true", "\"reverted\":false")
    };
    std::fs::write(&path, text.replace(line, &tampered)).unwrap();

    let (warm, _) = daxpy_run(true, Some(&dir), |_| {});
    assert!(warm.warm_started, "{}", warm.summary());
    assert_eq!(warm.store_skipped_records, 1, "{}", warm.summary());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A well-formed stored decision whose loop head lies past the main text
/// is dropped at attach by the seed gate and counted as a verify reject.
#[test]
fn a_seed_head_outside_the_text_is_dropped_at_attach_and_counted() {
    let dir = store_dir("seed");
    let (cold, _) = daxpy_run(true, Some(&dir), |_| {});
    assert_eq!(cold.verify_rejects, 0, "{}", cold.summary());
    let store = cobra_store::Store::new(&dir);
    let path = store.snapshot_paths().remove(0);
    let mut snap = cobra_store::read_snapshot_file(&path, None)
        .snapshot
        .expect("the cold run saved");
    let mut stray = snap.decisions.first().expect("a stored decision").clone();
    stray.loop_head = 1 << 20;
    snap.decisions.push(stray);
    store.save(&snap).unwrap();

    let (warm, _) = daxpy_run(true, Some(&dir), |_| {});
    assert!(warm.warm_started, "{}", warm.summary());
    assert_eq!(warm.store_skipped_records, 0, "{}", warm.summary());
    assert_eq!(warm.verify_rejects, 1, "{}", warm.summary());
    let _ = std::fs::remove_dir_all(&dir);
}
