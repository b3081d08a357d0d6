//! Quickstart: watch COBRA speed up a multithreaded program at runtime.
//!
//! Builds the paper's OpenMP DAXPY kernel (Figure 1) with icc-style
//! aggressive prefetching, runs it on the simulated 4-way Itanium 2 SMP
//! with a 128 KB working set on 4 threads — the §2 pathological case —
//! first as-is, then with COBRA attached. COBRA samples the hardware
//! performance monitors, finds the hot loop whose prefetches cause
//! coherent misses, and rewrites them to NOPs while the program runs.
//!
//! Run with: `cargo run --release --example quickstart`

use cobra::kernels::workload::{execute_plain, Workload};
use cobra::kernels::{Daxpy, DaxpyParams, PrefetchPolicy};
use cobra::machine::{Machine, MachineConfig};
use cobra::omp::{OmpRuntime, Team};
use cobra::rt::Cobra;

fn main() {
    let machine_cfg = MachineConfig::smp4();
    let team = Team::new(4);
    // 128 KB working set, enough outer repetitions to reach steady state.
    let params = DaxpyParams::new(128 * 1024, 48);

    // --- baseline: the compiler's aggressive-prefetch binary, no COBRA ---
    let baseline = Daxpy::build(params, &PrefetchPolicy::aggressive(), machine_cfg.mem_bytes);
    let (_m, base) = execute_plain(&baseline, &machine_cfg, team);
    println!("baseline (prefetch):  {:>9} cycles", base.cycles);

    // --- same binary, with COBRA attached ---
    let wl = Daxpy::build(params, &PrefetchPolicy::aggressive(), machine_cfg.mem_bytes);
    let mut machine = Machine::new(machine_cfg.clone(), wl.image().clone());
    wl.init(&mut machine.shared.mem);
    let mut cobra = Cobra::builder().attach(&mut machine);
    let rt = OmpRuntime { quantum: 20_000 };
    let run = wl.run(&mut machine, team, &rt, &mut cobra);
    let report = cobra.detach(&mut machine);
    wl.verify(&machine.shared.mem)
        .expect("numerics preserved under patching");

    println!("with COBRA:           {:>9} cycles", run.cycles);
    println!(
        "speedup:              {:+.1}%",
        100.0 * (base.cycles as f64 / run.cycles as f64 - 1.0)
    );
    println!("\nCOBRA activity: {}", report.summary());
    for plan in &report.applied {
        println!("  tick {:>3}: {}", plan.tick, plan.description);
    }
}
