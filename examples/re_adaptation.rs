//! Continuous Binary **Re-Adaptation** — the scenario COBRA is named for.
//!
//! One program, two phases: the DAXPY kernel first runs over a 128 KB
//! slice of its arrays (the coherent-miss pathology: prefetches hurt),
//! then switches to the full 2 MB working set (prefetches are essential).
//!
//! Attached COBRA first deploys `noprefetch` on the hot loop; when the
//! working set changes, the phase detector fires on the miss-rate shift,
//! the CPI monitor sees the deployment regress, and the framework
//! *reverts* the patch — re-adapting the binary to the new behaviour
//! while the program keeps running.
//!
//! Run with: `cargo run --release --example re_adaptation`

use cobra::kernels::{Daxpy, DaxpyParams, PrefetchPolicy, Workload};
use cobra::machine::{Machine, MachineConfig};
use cobra::omp::{NullHook, OmpRuntime, QuantumHook, Team};
use cobra::rt::{Cobra, Strategy};

const SMALL_N: i64 = 8 * 1024; // 128 KB working set (two arrays)
const PHASE1_REPS: usize = 60;
const PHASE2_REPS: usize = 16;

fn run_two_phase(hook: &mut dyn QuantumHook, machine: &mut Machine, wl: &Daxpy) -> (u64, u64) {
    let rt = OmpRuntime {
        quantum: 20_000,
        ..OmpRuntime::default()
    };
    let team = Team::new(4);
    let full_n = wl.params().n() as i64;
    let args = [
        wl.x_addr() as i64,
        wl.y_addr() as i64,
        wl.params().a.to_bits() as i64,
    ];
    let entry = machine.shared.code.symbol("daxpy_body").unwrap();

    let start = machine.cycle();
    for _ in 0..PHASE1_REPS {
        rt.parallel_for(machine, team, entry, 0, SMALL_N, &args, hook);
    }
    let phase1 = machine.cycle() - start;
    for _ in 0..PHASE2_REPS {
        rt.parallel_for(machine, team, entry, 0, full_n, &args, hook);
    }
    (phase1, machine.cycle() - start - phase1)
}

fn main() {
    let cfg = MachineConfig::smp4();
    let params = DaxpyParams::new(2 * 1024 * 1024, 1);

    // Baseline: no COBRA.
    let wl = Daxpy::build(params, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let mut m = Machine::new(cfg.clone(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let (b1, b2) = run_two_phase(&mut NullHook, &mut m, &wl);
    println!("baseline:   phase1 {b1:>9} cycles   phase2 {b2:>9} cycles");

    // With COBRA attached.
    let wl = Daxpy::build(params, &PrefetchPolicy::aggressive(), cfg.mem_bytes);
    let mut m = Machine::new(cfg.clone(), wl.image().clone());
    wl.init(&mut m.shared.mem);
    let mut cobra = Cobra::builder()
        .strategy(Strategy::NoPrefetch)
        .attach(&mut m);
    let (c1, c2) = run_two_phase(&mut cobra, &mut m, &wl);
    let report = cobra.detach(&mut m);
    println!("with COBRA: phase1 {c1:>9} cycles   phase2 {c2:>9} cycles");
    println!(
        "phase-1 speedup {:+.1}%   phase-2 cost after re-adaptation {:+.1}%",
        100.0 * (b1 as f64 / c1 as f64 - 1.0),
        100.0 * (b2 as f64 / c2 as f64 - 1.0),
    );
    println!("\n{}", report.summary());
    for p in &report.applied {
        println!("  tick {:>3}: APPLY  {}", p.tick, p.description);
    }
    for r in &report.reverted {
        println!(
            "  tick {:>3}: REVERT plan {} — {}",
            r.tick, r.plan_id, r.reason
        );
    }
}
